//! Offline stand-in for the part of `parking_lot` the repo uses: `Mutex`,
//! `MutexGuard` (with `unlocked`) and `Condvar`, over `std::sync`. Like
//! `parking_lot`, locks do not poison: a panic while holding one leaves the
//! data as it was.

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError};

#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            mutex: &self.inner,
            guard: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(g) => g,
            Err(sync::TryLockError::Poisoned(p)) => p.into_inner(),
            Err(sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard {
            mutex: &self.inner,
            guard: Some(guard),
        })
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Holds the std guard in an `Option` so `Condvar::wait` and `unlocked` can
/// give the lock up and take it back through `&mut self`; it is `Some`
/// whenever user code can see the guard.
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a sync::Mutex<T>,
    guard: Option<sync::MutexGuard<'a, T>>,
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// Releases the lock while `f` runs and takes it again afterwards.
    pub fn unlocked<R>(s: &mut Self, f: impl FnOnce() -> R) -> R {
        s.guard = None;
        let r = f();
        s.guard = Some(s.mutex.lock().unwrap_or_else(PoisonError::into_inner));
        r
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present outside wait")
    }
}

#[derive(Default, Debug)]
pub struct Condvar {
    inner: sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.guard.take().expect("guard present outside wait");
        guard.guard = Some(self.inner.wait(g).unwrap_or_else(PoisonError::into_inner));
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}
