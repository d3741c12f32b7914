//! Optimizers: SGD and the AdamW used by every experiment in the paper.

use crate::layer::Layer;
use colossalai_tensor::Tensor;

/// Plain SGD with optional momentum.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }

    /// Applies one update over every parameter of `layer` (visit order must
    /// be stable across steps, which `Layer::visit_params` guarantees).
    pub fn step_layer(&mut self, layer: &mut dyn Layer) {
        if self.velocity.is_empty() {
            layer.visit_params(&mut |p| {
                self.velocity.push(Tensor::zeros(p.value().shape().clone()));
            });
        }
        let mut idx = 0;
        let lr = self.lr;
        let momentum = self.momentum;
        let velocity = &mut self.velocity;
        layer.visit_params(&mut |p| {
            let v = &mut velocity[idx];
            if momentum != 0.0 {
                let grad = p.grad().clone();
                sgd_momentum_update(
                    p.value_mut().data_mut(),
                    v.data_mut(),
                    grad.data(),
                    lr,
                    momentum,
                );
            } else {
                let g = p.grad().clone();
                p.value_mut().axpy(-lr, &g);
            }
            idx += 1;
        });
        assert_eq!(idx, velocity.len(), "parameter set changed");
    }
}

/// Per-parameter Adam state (first and second moments).
#[derive(Clone, Debug)]
pub struct AdamState {
    pub m: Tensor,
    pub v: Tensor,
}

/// AdamW (decoupled weight decay), the optimizer of the paper's ViT and
/// BERT experiments. Exposed both as a whole-model optimizer and as the
/// scalar kernel [`adamw_update`] that the ZeRO optimizer reuses on shards,
/// wherever an offload placement puts them.
pub struct AdamW {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: u64,
    state: Vec<AdamState>,
}

impl AdamW {
    pub fn new(lr: f32, weight_decay: f32) -> Self {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay,
            t: 0,
            state: Vec::new(),
        }
    }

    /// Steps taken so far.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Applies one AdamW update over every parameter of `layer`.
    pub fn step_layer(&mut self, layer: &mut dyn Layer) {
        if self.state.is_empty() {
            layer.visit_params(&mut |p| {
                self.state.push(AdamState {
                    m: Tensor::zeros(p.value().shape().clone()),
                    v: Tensor::zeros(p.value().shape().clone()),
                });
            });
        }
        self.t += 1;
        let (t, lr, b1, b2, eps, wd) = (
            self.t,
            self.lr,
            self.beta1,
            self.beta2,
            self.eps,
            self.weight_decay,
        );
        let state = &mut self.state;
        let mut idx = 0;
        layer.visit_params(&mut |p| {
            let s = &mut state[idx];
            let grad = p.grad().clone();
            adamw_update(
                p.value_mut().data_mut(),
                grad.data(),
                s.m.data_mut(),
                s.v.data_mut(),
                t,
                lr,
                b1,
                b2,
                eps,
                wd,
            );
            idx += 1;
        });
        assert_eq!(idx, state.len(), "parameter set changed");
    }
}

/// Fused SGD-with-momentum update over raw slices: `v = momentum*v + g;
/// p += -lr*v` in one sweep. Replaces the composed `scale` + `axpy` + `axpy`
/// chain (three passes over the state) with one pass; each element sees
/// exactly the same operations in the same order, so results are
/// bitwise-identical. The 8-wide `chunks_exact` body drops bounds checks so
/// the loop autovectorizes.
pub fn sgd_momentum_update(
    param: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    lr: f32,
    momentum: f32,
) {
    assert_eq!(param.len(), vel.len());
    assert_eq!(param.len(), grad.len());
    sgd_momentum_chunk(param, vel, grad, lr, momentum);
}

/// The SGD+momentum sweep: 8-wide `chunks_exact` lanes plus a scalar tail
/// computing the identical per-element expression, so where a caller cuts
/// its slices never changes a bit. The `FMA = true` instantiation
/// (fast numeric mode) fuses both the velocity blend and the parameter
/// update; `f32::mul_add` is correctly rounded on every path, so the
/// hardware-FMA wrapper and the libm fallback agree bitwise.
#[inline(always)]
fn sgd_momentum_chunk_impl<const FMA: bool>(
    param: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    lr: f32,
    momentum: f32,
) {
    const LANES: usize = 8;
    let mut p = param.chunks_exact_mut(LANES);
    let mut v = vel.chunks_exact_mut(LANES);
    let mut g = grad.chunks_exact(LANES);
    for ((pc, vc), gc) in (&mut p).zip(&mut v).zip(&mut g) {
        for i in 0..LANES {
            if FMA {
                vc[i] = momentum.mul_add(vc[i], gc[i]);
                pc[i] = (-lr).mul_add(vc[i], pc[i]);
            } else {
                vc[i] = momentum * vc[i] + 1.0 * gc[i];
                pc[i] += -lr * vc[i];
            }
        }
    }
    for ((pp, vv), &gg) in p
        .into_remainder()
        .iter_mut()
        .zip(v.into_remainder())
        .zip(g.remainder())
    {
        if FMA {
            *vv = momentum.mul_add(*vv, gg);
            *pp = (-lr).mul_add(*vv, *pp);
        } else {
            *vv = momentum * *vv + 1.0 * gg;
            *pp += -lr * *vv;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn sgd_momentum_chunk_fma(
    param: &mut [f32],
    vel: &mut [f32],
    grad: &[f32],
    lr: f32,
    momentum: f32,
) {
    sgd_momentum_chunk_impl::<true>(param, vel, grad, lr, momentum);
}

fn sgd_momentum_chunk(param: &mut [f32], vel: &mut [f32], grad: &[f32], lr: f32, momentum: f32) {
    if colossalai_tensor::fast_mode() {
        #[cfg(target_arch = "x86_64")]
        if colossalai_tensor::fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe { sgd_momentum_chunk_fma(param, vel, grad, lr, momentum) };
        }
        return sgd_momentum_chunk_impl::<true>(param, vel, grad, lr, momentum);
    }
    sgd_momentum_chunk_impl::<false>(param, vel, grad, lr, momentum);
}

/// One element of the AdamW recurrence; shared by the vector body and the
/// scalar tail of [`adamw_update`] so both compute byte-identical results.
/// The fast instantiation fuses the moment blends, the decay term and the
/// final parameter update.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adamw_scalar<const FMA: bool>(
    p: &mut f32,
    g: f32,
    m: &mut f32,
    v: &mut f32,
    bc1: f32,
    bc2: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
) {
    if FMA {
        *m = beta1.mul_add(*m, (1.0 - beta1) * g);
        *v = beta2.mul_add(*v, (1.0 - beta2) * g * g);
        let m_hat = *m / bc1;
        let v_hat = *v / bc2;
        // decoupled weight decay, fused into the step
        let step = weight_decay.mul_add(*p, m_hat / (v_hat.sqrt() + eps));
        *p = (-lr).mul_add(step, *p);
    } else {
        *m = beta1 * *m + (1.0 - beta1) * g;
        *v = beta2 * *v + (1.0 - beta2) * g * g;
        let m_hat = *m / bc1;
        let v_hat = *v / bc2;
        // decoupled weight decay
        *p -= lr * (m_hat / (v_hat.sqrt() + eps) + weight_decay * *p);
    }
}

/// The element-wise AdamW kernel over raw slices.
///
/// Deliberately freestanding: the ZeRO sharded optimizer runs it on shard
/// slices, CPU- or GPU-resident alike — both share these exact arithmetic
/// semantics, which is what makes the "ZeRO under any placement equals
/// plain AdamW bitwise" invariant testable. The body runs over 8-wide
/// `chunks_exact` lanes (bounds-check-free, autovectorizable) with a scalar
/// tail; both call the same per-element recurrence.
#[allow(clippy::too_many_arguments)]
pub fn adamw_update(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    t: u64,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
) {
    assert_eq!(param.len(), grad.len());
    assert_eq!(param.len(), m.len());
    assert_eq!(param.len(), v.len());
    let bc1 = 1.0 - beta1.powi(t as i32);
    let bc2 = 1.0 - beta2.powi(t as i32);
    adamw_chunk(
        param,
        grad,
        m,
        v,
        bc1,
        bc2,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
    );
}

/// The AdamW sweep, with the step's bias corrections precomputed by the
/// caller: 8-wide lanes plus a scalar tail, both calling [`adamw_scalar`],
/// so where a caller (a ZeRO shard) cuts its slices never changes a bit.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn adamw_chunk_impl<const FMA: bool>(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    bc1: f32,
    bc2: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
) {
    const LANES: usize = 8;
    let mut pc = param.chunks_exact_mut(LANES);
    let mut gc = grad.chunks_exact(LANES);
    let mut mc = m.chunks_exact_mut(LANES);
    let mut vc = v.chunks_exact_mut(LANES);
    for (((p, g), m), v) in (&mut pc).zip(&mut gc).zip(&mut mc).zip(&mut vc) {
        for i in 0..LANES {
            adamw_scalar::<FMA>(
                &mut p[i],
                g[i],
                &mut m[i],
                &mut v[i],
                bc1,
                bc2,
                lr,
                beta1,
                beta2,
                eps,
                weight_decay,
            );
        }
    }
    for (((p, &g), m), v) in pc
        .into_remainder()
        .iter_mut()
        .zip(gc.remainder())
        .zip(mc.into_remainder())
        .zip(vc.into_remainder())
    {
        adamw_scalar::<FMA>(p, g, m, v, bc1, bc2, lr, beta1, beta2, eps, weight_decay);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn adamw_chunk_fma(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    bc1: f32,
    bc2: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
) {
    adamw_chunk_impl::<true>(
        param,
        grad,
        m,
        v,
        bc1,
        bc2,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
    );
}

#[allow(clippy::too_many_arguments)]
fn adamw_chunk(
    param: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    bc1: f32,
    bc2: f32,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
) {
    if colossalai_tensor::fast_mode() {
        #[cfg(target_arch = "x86_64")]
        if colossalai_tensor::fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe {
                adamw_chunk_fma(
                    param,
                    grad,
                    m,
                    v,
                    bc1,
                    bc2,
                    lr,
                    beta1,
                    beta2,
                    eps,
                    weight_decay,
                )
            };
        }
        return adamw_chunk_impl::<true>(
            param,
            grad,
            m,
            v,
            bc1,
            bc2,
            lr,
            beta1,
            beta2,
            eps,
            weight_decay,
        );
    }
    adamw_chunk_impl::<false>(
        param,
        grad,
        m,
        v,
        bc1,
        bc2,
        lr,
        beta1,
        beta2,
        eps,
        weight_decay,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;

    /// A bare parameter as the model `step_layer` walks.
    struct Bare(Param);

    impl Layer for Bare {
        fn forward(&mut self, x: &Tensor) -> Tensor {
            x.clone()
        }
        fn backward(&mut self, dy: &Tensor) -> Tensor {
            dy.clone()
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
            f(&mut self.0)
        }
    }

    fn quadratic_param() -> Bare {
        Bare(Param::new("w", Tensor::from_vec([2], vec![5.0, -3.0])))
    }

    fn set_quadratic_grad(p: &mut Param) {
        // f = 0.5 * ||w||^2, grad = w
        let g = p.value().clone();
        p.zero_grad();
        p.accumulate_grad(&g);
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = quadratic_param();
        let mut opt = Sgd::new(0.1, 0.0);
        for _ in 0..100 {
            set_quadratic_grad(&mut p.0);
            opt.step_layer(&mut p);
        }
        assert!(p.0.value().norm() < 1e-3, "norm {}", p.0.value().norm());
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut p1 = quadratic_param();
        let mut p2 = quadratic_param();
        let mut plain = Sgd::new(0.01, 0.0);
        let mut momo = Sgd::new(0.01, 0.9);
        for _ in 0..30 {
            set_quadratic_grad(&mut p1.0);
            plain.step_layer(&mut p1);
            set_quadratic_grad(&mut p2.0);
            momo.step_layer(&mut p2);
        }
        assert!(p2.0.value().norm() < p1.0.value().norm());
    }

    #[test]
    fn adamw_descends_quadratic() {
        let mut p = quadratic_param();
        let mut opt = AdamW::new(0.1, 0.0);
        for _ in 0..200 {
            set_quadratic_grad(&mut p.0);
            opt.step_layer(&mut p);
        }
        assert!(p.0.value().norm() < 1e-2, "norm {}", p.0.value().norm());
    }

    #[test]
    fn weight_decay_shrinks_without_gradient() {
        let mut p = Bare(Param::new("w", Tensor::from_vec([1], vec![1.0])));
        let mut opt = AdamW::new(0.1, 0.5);
        // zero gradient: only decay acts
        opt.step_layer(&mut p);
        let v = p.0.value().data()[0];
        assert!(v < 1.0 && v > 0.9, "one decay step: {v}");
    }

    #[test]
    fn adamw_kernel_matches_optimizer() {
        // the freestanding kernel and the struct must agree exactly
        let mut p = quadratic_param();
        set_quadratic_grad(&mut p.0);
        let mut opt = AdamW::new(0.01, 0.1);
        let mut manual_param = p.0.value().data().to_vec();
        let mut m = vec![0.0; 2];
        let mut v = vec![0.0; 2];
        let grad = p.0.grad().data().to_vec();
        opt.step_layer(&mut p);
        adamw_update(
            &mut manual_param,
            &grad,
            &mut m,
            &mut v,
            1,
            0.01,
            0.9,
            0.999,
            1e-8,
            0.1,
        );
        assert_eq!(p.0.value().data(), &manual_param[..]);
    }

    #[test]
    fn chunked_updates_match_elementwise_on_ragged_sizes() {
        // the 8-lane kernels must be bitwise-identical to driving the same
        // update one element at a time (pure scalar-tail path), across
        // sizes that hit every chunk/remainder split
        for n in [1usize, 7, 8, 9, 63, 64, 65, 200] {
            let mut rng = colossalai_tensor::init::rng(n as u64);
            let p0 = colossalai_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
            let g = colossalai_tensor::init::uniform([n], -1.0, 1.0, &mut rng);
            let s0 = colossalai_tensor::init::uniform([n], -1.0, 1.0, &mut rng);

            let (mut got_p, mut got_v) = (p0.data().to_vec(), s0.data().to_vec());
            sgd_momentum_update(&mut got_p, &mut got_v, g.data(), 0.05, 0.9);
            let (mut want_p, mut want_v) = (p0.data().to_vec(), s0.data().to_vec());
            for i in 0..n {
                sgd_momentum_update(
                    &mut want_p[i..i + 1],
                    &mut want_v[i..i + 1],
                    &g.data()[i..i + 1],
                    0.05,
                    0.9,
                );
            }
            assert_eq!(got_p, want_p, "sgd params, n={n}");
            assert_eq!(got_v, want_v, "sgd velocity, n={n}");

            let (mut ap, mut am, mut av) = (p0.data().to_vec(), vec![0.1f32; n], vec![0.2f32; n]);
            adamw_update(
                &mut ap,
                g.data(),
                &mut am,
                &mut av,
                3,
                0.01,
                0.9,
                0.999,
                1e-8,
                0.1,
            );
            let (mut wp, mut wm, mut wv) = (p0.data().to_vec(), vec![0.1f32; n], vec![0.2f32; n]);
            for i in 0..n {
                adamw_update(
                    &mut wp[i..i + 1],
                    &g.data()[i..i + 1],
                    &mut wm[i..i + 1],
                    &mut wv[i..i + 1],
                    3,
                    0.01,
                    0.9,
                    0.999,
                    1e-8,
                    0.1,
                );
            }
            assert_eq!(ap, wp, "adamw params, n={n}");
            assert_eq!(am, wm, "adamw m, n={n}");
            assert_eq!(av, wv, "adamw v, n={n}");
        }
    }

    #[test]
    fn first_step_direction_is_signed_gradient() {
        // with zero init moments, Adam's first step ~ lr * sign(grad)
        let mut p = Bare(Param::new("w", Tensor::from_vec([2], vec![0.0, 0.0])));
        p.0.accumulate_grad(&Tensor::from_vec([2], vec![3.0, -0.001]));
        let mut opt = AdamW::new(0.1, 0.0);
        opt.step_layer(&mut p);
        let d = p.0.value().data();
        assert!((d[0] + 0.1).abs() < 1e-3, "{}", d[0]);
        assert!((d[1] - 0.1).abs() < 1e-2, "{}", d[1]);
    }
}
