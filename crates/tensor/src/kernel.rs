//! Packed, register-blocked GEMM core.
//!
//! The distributed matmul algorithms (1D/2D/2.5D/3D tensor parallelism) all
//! bottom out in a local `C += A @ B` on one simulated device, so this kernel
//! is where real wall-clock time goes. It follows the classic three-level
//! blocking scheme (Goto / BLIS):
//!
//! * operands are **packed**: a `MC x KC` block of `A` is copied into
//!   contiguous `MR`-row panels and a `KC x NC` block of `B` into contiguous
//!   `NR`-column panels, so the innermost loop only ever streams two small,
//!   cache-resident, unit-stride buffers — regardless of how `A`/`B` are laid
//!   out (plain, transposed, or strided views never touch the hot loop);
//! * the **microkernel** holds an `MR x NR` accumulator tile in registers and
//!   performs `MR * NR` multiply-adds per packed column, with no branches in
//!   the loop body, so it autovectorizes cleanly;
//! * on x86-64 the microkernel is additionally compiled under
//!   `#[target_feature(enable = "avx2")]` and selected at runtime, giving
//!   8-wide f32 lanes without requiring `-C target-cpu` flags. Only `avx2` is
//!   enabled — not `fma` — so no fused multiply-add can change rounding: every
//!   output element is a plain mul-then-add chain in ascending `k` order, and
//!   results are bit-identical between the scalar and AVX2 paths.
//!
//! Floating-point contract: for `k <= KC` the summation order per output
//! element is exactly ascending `k`, matching a textbook triple loop bit for
//! bit. For `k > KC` partial sums are accumulated per `KC`-block (still
//! ascending within and across blocks), which can differ from the unblocked
//! order by normal rounding only.
//!
//! A GEMM runs on the thread of the rank that called it: the world executor
//! (`comm::sched`) is the only owner of host cores.

use std::sync::atomic::{AtomicBool, Ordering};

/// Microtile rows held in registers (deterministic mul-then-add kernel).
pub const MR: usize = 4;
/// Microtile rows for the fast-mode FMA kernel: fused multiply-add needs no
/// separate product temporaries, so a `6 x 16` tile — 12 accumulator ymm
/// plus two `B` vectors and one broadcast — fits the 16-register AVX2 file
/// where the mul-then-add form would spill. The taller tile reads each
/// packed `B` column once per 6 rows instead of per 4 and keeps 12
/// independent FMA chains in flight, covering the 4-5 cycle FMA latency.
/// Summation order per output element is ascending `k` regardless of the
/// tile height, so this is a speed knob, never a bits knob.
pub const MR_FMA: usize = 6;
/// Microtile columns held in registers (two AVX2 f32 vectors), giving a
/// `4 x 16` accumulator tile — 8 ymm registers — with room left for loads.
pub const NR: usize = 16;
/// `k`-extent of a packed block: `A` and `B` panels are `MR * KC` and
/// `NR * KC` floats, so a handful of panels fit in L1.
pub const KC: usize = 512;
/// Row-extent of a packed `A` block (multiple of `MR`); `MC * KC` floats
/// target L2 residency.
pub const MC: usize = 128;
/// Column-extent of a packed `B` block (multiple of `NR`).
pub const NC: usize = 256;

/// Problems with `m * n * k` at or below this run a branch-free direct
/// kernel instead of paying the packing round-trip.
const SMALL_FLOP_CUTOFF: usize = 16 * 16 * 16;

static FAST: AtomicBool = AtomicBool::new(false);

/// Turns the opt-in **fast numeric mode** on or off for every subsequent
/// kernel on any thread (`compute.fast` in the engine config lands here).
///
/// Fast mode swaps the deterministic mul-then-add microkernel for an
/// FMA-fused one (and enables the FMA variants of the fused element-wise
/// kernels). Results are no longer bitwise comparable to the deterministic
/// default — only tolerance/ULP-budget comparable (see
/// `tests/fast_props.rs` and DESIGN.md §13) — but within fast mode the
/// determinism contract still holds: every size dispatch uses the same
/// fused arithmetic in the same order.
pub fn set_fast_mode(on: bool) {
    FAST.store(on, Ordering::Relaxed);
}

/// Whether fast numeric mode is active: the last [`set_fast_mode`] value,
/// off until then.
pub fn fast_mode() -> bool {
    FAST.load(Ordering::Relaxed)
}

/// True when the CPU supports the `avx2,fma` feature pair the fast
/// microkernels are compiled for. On other hardware fast mode still works —
/// `f32::mul_add` falls back to the (slow, correctly-rounded) libm `fmaf`,
/// producing bit-identical results to the hardware FMA path.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    static FMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

/// A logical row-major `rows x cols` matrix over a strided storage slice:
/// element `(r, c)` lives at `data[r * rs + c * cs]`.
///
/// This is how transposed operands reach the packed kernel without being
/// materialized: `B^T` of a physical `(n, k)` buffer is just
/// `Mat { rs: 1, cs: k }`.
#[derive(Clone, Copy)]
pub struct Mat<'a> {
    data: &'a [f32],
    rs: usize,
    cs: usize,
}

impl<'a> Mat<'a> {
    /// Plain row-major view of a `rows x cols` buffer.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        Mat {
            data,
            rs: cols,
            cs: 1,
        }
    }

    /// Transposed view: logical `(r, c)` reads physical `(c, r)` of a
    /// row-major buffer with `phys_cols` columns.
    pub fn transposed(data: &'a [f32], phys_cols: usize) -> Self {
        Mat {
            data,
            rs: 1,
            cs: phys_cols,
        }
    }

    /// The transpose: the same storage with the two strides swapped.
    fn t(self) -> Self {
        Mat {
            data: self.data,
            rs: self.cs,
            cs: self.rs,
        }
    }

    #[inline(always)]
    fn at(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.rs + c * self.cs]
    }
}

/// Packs logical rows `[x0, x0 + xb)` x cols `[p0, p0 + kb)` of `m` into
/// `W`-row panels: panel `ip` holds rows `x0 + ip*W ..`, stored as `kb`
/// groups of `W` values (rows beyond `xb` zero-filled so the microkernel
/// never branches on the edge). `A` packs as itself with `W` = [`MR`] (or
/// [`MR_FMA`] for the taller fast-mode tile); `B` packs as its transpose
/// with `W` = [`NR`], so its panels run along its columns.
///
/// Packing is a pure gather, and the two layouts a training step produces
/// have a unit stride on one side: when the panel dimension is contiguous
/// (row-major `B`, transposed `A`) each `k` group is one slice copy, when
/// `k` is contiguous (row-major `A`, transposed `B`) each source row is
/// walked once; any other striding takes the element-by-element loop.
fn pack<const W: usize>(m: Mat, x0: usize, xb: usize, p0: usize, kb: usize, buf: &mut [f32]) {
    let Mat { data, rs, cs } = m;
    for (ip, panel) in buf.chunks_mut(kb * W).take(xb.div_ceil(W)).enumerate() {
        let x = x0 + ip * W;
        let rows = (xb - ip * W).min(W);
        if cs == 1 {
            for r in 0..rows {
                let at = (x + r) * rs + p0;
                for (dst, &v) in panel.chunks_exact_mut(W).zip(&data[at..at + kb]) {
                    dst[r] = v;
                }
            }
            if rows < W {
                for dst in panel.chunks_exact_mut(W).take(kb) {
                    dst[rows..].fill(0.0);
                }
            }
            continue;
        }
        for (kk, dst) in panel.chunks_exact_mut(W).take(kb).enumerate() {
            let at = x * rs + (p0 + kk) * cs;
            if rs == 1 && rows == W {
                // a constant length: a few vector moves, not a `memcpy` call
                dst.copy_from_slice(&data[at..at + W]);
            } else if rs == 1 {
                dst[..rows].copy_from_slice(&data[at..at + rows]);
            } else {
                for (r, d) in dst[..rows].iter_mut().enumerate() {
                    *d = data[at + r * rs];
                }
            }
            dst[rows..].fill(0.0);
        }
    }
}

/// The register microkernel: `acc += ap_panel @ bp_panel` over `kb` packed
/// columns. Fixed-size tiles and `chunks_exact` keep the body branch- and
/// bounds-check-free so LLVM holds `acc` in vector registers. `FMA = false`
/// is the deterministic mul-then-add form; `FMA = true` fuses each step with
/// `f32::mul_add`, which LLVM lowers to `vfmadd` when the enclosing function
/// enables the `fma` target feature (and to the correctly-rounded libm
/// `fmaf` otherwise — same bits, much slower).
#[inline(always)]
fn microtile<const FMA: bool, const MRR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NR]; MRR],
) {
    for (a, b) in ap[..kb * MRR]
        .chunks_exact(MRR)
        .zip(bp[..kb * NR].chunks_exact(NR))
    {
        let a: &[f32; MRR] = a.try_into().unwrap();
        let b: &[f32; NR] = b.try_into().unwrap();
        for r in 0..MRR {
            let ar = a[r];
            for j in 0..NR {
                if FMA {
                    acc[r][j] = ar.mul_add(b[j], acc[r][j]);
                } else {
                    acc[r][j] += ar * b[j];
                }
            }
        }
    }
}

/// Runs every microtile of one packed `(mb x kb) @ (kb x nb)` block and
/// scatter-adds the accumulators into `c` (full `ldc`-wide output, block
/// origin at `(ic, jc)`). `#[inline(always)]` so the target-feature wrappers
/// below recompile the whole loop nest with wide lanes (and, for the fast
/// instantiation, hardware FMA).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path register-friendly
fn macro_tile<const FMA: bool, const MRR: usize>(
    apack: &[f32],
    bpack: &[f32],
    kb: usize,
    mb: usize,
    nb: usize,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    for jp in 0..nb.div_ceil(NR) {
        let jr = jp * NR;
        let cols = (nb - jr).min(NR);
        let bp = &bpack[jp * kb * NR..][..kb * NR];
        for ip in 0..mb.div_ceil(MRR) {
            let ir = ip * MRR;
            let rows = (mb - ir).min(MRR);
            let ap = &apack[ip * kb * MRR..][..kb * MRR];
            let mut acc = [[0.0f32; NR]; MRR];
            microtile::<FMA, MRR>(kb, ap, bp, &mut acc);
            for (r, acc_row) in acc[..rows].iter().enumerate() {
                let row = &mut c[(ic + ir + r) * ldc + jc + jr..][..cols];
                for (cv, &av) in row.iter_mut().zip(acc_row[..cols].iter()) {
                    *cv += av;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn macro_tile_avx2(
    apack: &[f32],
    bpack: &[f32],
    kb: usize,
    mb: usize,
    nb: usize,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    macro_tile::<false, MR>(apack, bpack, kb, mb, nb, c, ldc, ic, jc);
}

/// The fast-mode instantiation: same loop nest, but every multiply-add in
/// the register tile is a single `vfmadd231ps`, and the tile is the taller
/// [`MR_FMA`]-row one the FMA register budget affords. One rounding per
/// step instead of two is why its results differ (by bounded ULPs) from
/// the deterministic kernel — see DESIGN.md §13; the tile height never
/// changes bits.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn macro_tile_avx2_fma(
    apack: &[f32],
    bpack: &[f32],
    kb: usize,
    mb: usize,
    nb: usize,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    macro_tile::<true, MR_FMA>(apack, bpack, kb, mb, nb, c, ldc, ic, jc);
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Dispatches one packed block to the right macro-tile instantiation.
/// `fast` is resolved once by the caller (never re-read here) because the
/// `A` panel layout must match the tile height: `MR`-row panels for the
/// deterministic kernel, `MR_FMA`-row panels for both fast arms.
#[allow(clippy::too_many_arguments)]
fn run_macro_tile(
    fast: bool,
    apack: &[f32],
    bpack: &[f32],
    kb: usize,
    mb: usize,
    nb: usize,
    c: &mut [f32],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    if fast {
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: fma_available() checked the CPU supports every feature
            // macro_tile_avx2_fma enables.
            unsafe { macro_tile_avx2_fma(apack, bpack, kb, mb, nb, c, ldc, ic, jc) };
            return;
        }
        // No hardware FMA: libm mul_add keeps the bits identical to the
        // vfmadd path, trading away the speed win but never the results.
        return macro_tile::<true, MR_FMA>(apack, bpack, kb, mb, nb, c, ldc, ic, jc);
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: avx2_available() checked the CPU supports every feature
        // macro_tile_avx2 enables.
        unsafe { macro_tile_avx2(apack, bpack, kb, mb, nb, c, ldc, ic, jc) };
        return;
    }
    macro_tile::<false, MR>(apack, bpack, kb, mb, nb, c, ldc, ic, jc);
}

/// Packed GEMM: `c += a @ b` for logical `(m, k) @ (k, n)` operands,
/// `c` row-major `m x n`.
pub fn gemm_mat(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // the mode (and with it the A-panel height) is resolved once per GEMM,
    // so a concurrent toggle can never mismatch packing and microkernel
    let fast = fast_mode();
    let mr = if fast { MR_FMA } else { MR };
    let kb_max = k.min(KC);
    // packing panels recycle through the storage pool: a training step calls
    // this kernel hundreds of times with identical panel sizes
    let mut apack = crate::pool::take_zeroed(m.min(MC).div_ceil(mr) * mr * kb_max);
    let mut bpack = crate::pool::take_zeroed(n.min(NC).div_ceil(NR) * NR * kb_max);
    for jc in (0..n).step_by(NC) {
        let nb = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kb = (k - pc).min(KC);
            let bbuf = &mut bpack[..nb.div_ceil(NR) * NR * kb];
            pack::<NR>(b.t(), jc, nb, pc, kb, bbuf);
            for ic in (0..m).step_by(MC) {
                let mb = (m - ic).min(MC);
                let abuf = &mut apack[..mb.div_ceil(mr) * mr * kb];
                if fast {
                    pack::<MR_FMA>(a, ic, mb, pc, kb, abuf);
                } else {
                    pack::<MR>(a, ic, mb, pc, kb, abuf);
                }
                run_macro_tile(fast, abuf, bbuf, kb, mb, nb, c, n, ic, jc);
            }
        }
    }
    crate::pool::recycle(apack);
    crate::pool::recycle(bpack);
}

/// Branch-free direct i-k-j kernel for problems too small to amortize
/// packing. Summation per output element is ascending `k`, the same order as
/// the packed path, so the size dispatch never changes results — a property
/// that holds *per mode*: the fast instantiation fuses every step exactly
/// like `microtile::<true>`, so the cutoff stays invisible under fast mode
/// too (for a zero-initialized `c`, folding a fused chain into memory per
/// `k` step produces the same bits as reducing it in a register).
#[inline(always)]
fn gemm_small_impl<const FMA: bool>(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a.at(i, p);
            for (j, c_ij) in c_row.iter_mut().enumerate() {
                if FMA {
                    *c_ij = a_ip.mul_add(b.at(p, j), *c_ij);
                } else {
                    *c_ij += a_ip * b.at(p, j);
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_small_fma(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_small_impl::<true>(a, b, c, m, k, n);
}

fn gemm_small(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    if fast_mode() {
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe { gemm_small_fma(a, b, c, m, k, n) };
        }
        return gemm_small_impl::<true>(a, b, c, m, k, n);
    }
    gemm_small_impl::<false>(a, b, c, m, k, n);
}

/// Register-dot variant of [`gemm_small`] for a `c` that already holds live
/// data: each output element's ascending-`k` dot is fully reduced in a
/// register first and added to `c` exactly once. `gemm_small` itself folds
/// into `c` memory once per `k` step, which is the same sequence only when
/// `c` starts at zero — this variant keeps the bits right when it doesn't.
#[inline(always)]
fn gemm_small_acc_impl<const FMA: bool>(
    a: Mat,
    b: Mat,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for p in 0..k {
                if FMA {
                    acc = a.at(i, p).mul_add(b.at(p, j), acc);
                } else {
                    acc += a.at(i, p) * b.at(p, j);
                }
            }
            *c_ij += acc;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_small_acc_fma(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_small_acc_impl::<true>(a, b, c, m, k, n);
}

fn gemm_small_acc(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    if fast_mode() {
        #[cfg(target_arch = "x86_64")]
        if fma_available() {
            // SAFETY: fma_available() checked avx2+fma support.
            return unsafe { gemm_small_acc_fma(a, b, c, m, k, n) };
        }
        return gemm_small_acc_impl::<true>(a, b, c, m, k, n);
    }
    gemm_small_acc_impl::<false>(a, b, c, m, k, n);
}

/// `c += a @ b` where `c` may already hold live data (fused gradient
/// accumulation): every output element receives its fully-reduced
/// ascending-`k` dot exactly once, so accumulating in place is
/// bitwise-identical to running [`gemm_mat_auto`] into a zeroed temporary
/// and adding that element-wise. Only valid for `k <= KC` — a single packed
/// k-block, hence a single writeback per element; callers with deeper
/// reductions must take the temporary path.
pub fn gemm_mat_acc(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(k <= KC, "gemm_mat_acc requires k <= KC (single k-block)");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= SMALL_FLOP_CUTOFF {
        return gemm_small_acc(a, b, c, m, k, n);
    }
    // above the small cutoff the auto dispatch always takes the packed
    // microkernel, whose writeback adds each register tile to `c` once per
    // k-block — exactly once here, since k <= KC
    gemm_mat_auto(a, b, c, m, k, n);
}

/// The kernel entry point every matmul variant routes through:
/// `c += a @ b`, picking the direct or the packed kernel by problem size.
pub fn gemm_mat_auto(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if m * n * k <= SMALL_FLOP_CUTOFF {
        return gemm_small(a, b, c, m, k, n);
    }
    gemm_mat(a, b, c, m, k, n);
}

/// Runs `run(t, c_t)` for each of `ba` equal `csize`-element chunks of `c`
/// (one per batch of a batched matmul), in batch order.
pub fn for_each_batch(ba: usize, csize: usize, c: &mut [f32], run: impl Fn(usize, &mut [f32])) {
    assert_eq!(c.len(), ba * csize, "for_each_batch output size");
    for (t, c_t) in c.chunks_exact_mut(csize.max(1)).take(ba).enumerate() {
        run(t, c_t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / (1u64 << 31) as f32) - 1.0
            })
            .collect()
    }

    fn close(a: &[f32], b: &[f32], tol: f32) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
    }

    #[test]
    fn packed_matches_naive_block_straddlers() {
        // sizes straddling MR/NR/MC/NC/KC boundaries
        for &(m, k, n) in &[
            (1, 1, 1),
            (MR, KC, NR),
            (MR + 1, KC + 1, NR + 1),
            (MC - 1, 33, NC - 1),
            (MC + 3, KC + 7, NC + 5),
            (3, 300, 2),
        ] {
            let a = rand_vec(m * k, (m * 7 + k) as u64);
            let b = rand_vec(k * n, (k * 13 + n) as u64);
            let mut c = vec![0.0f32; m * n];
            gemm_mat(
                Mat::row_major(&a, k),
                Mat::row_major(&b, n),
                &mut c,
                m,
                k,
                n,
            );
            let want = naive(&a, &b, m, k, n);
            assert!(
                close(&c, &want, 1e-3 * k as f32),
                "mismatch at ({m},{k},{n})"
            );
        }
    }

    /// The loop `pack` replaced: every element through `Mat::at`.
    fn pack_by_at<const W: usize>(
        m: Mat,
        x0: usize,
        xb: usize,
        p0: usize,
        kb: usize,
        buf: &mut [f32],
    ) {
        for (ip, panel) in buf.chunks_mut(kb * W).take(xb.div_ceil(W)).enumerate() {
            let rows = (xb - ip * W).min(W);
            for (kk, dst) in panel.chunks_exact_mut(W).take(kb).enumerate() {
                for (r, d) in dst.iter_mut().enumerate() {
                    *d = if r < rows {
                        m.at(x0 + ip * W + r, p0 + kk)
                    } else {
                        0.0
                    };
                }
            }
        }
    }

    fn pack_matches_the_at_loop<const W: usize>() {
        let (rows, cols) = (2 * W + 3, 37);
        let data = rand_vec(3 * rows * cols, W as u64);
        let operands = [
            ("row-major", Mat::row_major(&data, cols)),
            ("transposed", Mat::transposed(&data, rows)),
            // every third element of a row-major buffer: no unit stride
            (
                "strided",
                Mat {
                    data: &data,
                    rs: 3 * cols,
                    cs: 3,
                },
            ),
        ];
        for (what, m) in operands {
            for (m, rows, cols) in [(m, rows, cols), (m.t(), cols, rows)] {
                // whole extent, a ragged interior block, one full panel, the
                // last element, nothing
                for (x0, xb, p0, kb) in [
                    (0, rows, 0, cols),
                    (1, W + 2, 2, 5),
                    (W, W, 0, 1),
                    (rows - 1, 1, cols - 1, 1),
                    (2, 0, 3, 4),
                ] {
                    let len = xb.div_ceil(W) * W * kb;
                    // poisoned: every element of every panel must be written
                    let (mut got, mut want) = (vec![f32::NAN; len], vec![f32::NAN; len]);
                    pack::<W>(m, x0, xb, p0, kb, &mut got);
                    pack_by_at::<W>(m, x0, xb, p0, kb, &mut want);
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "{what} (rs {}, cs {}), W {W}, block ({x0}+{xb}, {p0}+{kb})",
                        m.rs,
                        m.cs
                    );
                }
            }
        }
    }

    #[test]
    fn pack_equals_the_element_loop_for_every_layout_and_width() {
        pack_matches_the_at_loop::<MR>();
        pack_matches_the_at_loop::<MR_FMA>();
        pack_matches_the_at_loop::<NR>();
    }

    #[test]
    fn transposed_views_match_materialized() {
        let (m, k, n) = (19, 23, 17);
        let a = rand_vec(m * k, 31);
        let bt = rand_vec(n * k, 32); // physical (n, k), logical B = bt^T
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let mut via_view = vec![0.0f32; m * n];
        gemm_mat(
            Mat::row_major(&a, k),
            Mat::transposed(&bt, k),
            &mut via_view,
            m,
            k,
            n,
        );
        let mut via_copy = vec![0.0f32; m * n];
        gemm_mat(
            Mat::row_major(&a, k),
            Mat::row_major(&b, n),
            &mut via_copy,
            m,
            k,
            n,
        );
        assert_eq!(via_view, via_copy);
    }

    #[test]
    fn auto_accumulates_into_c() {
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; 4];
        let mut c = vec![1.0f32; 4];
        gemm_mat_auto(
            Mat::row_major(&a, 2),
            Mat::row_major(&b, 2),
            &mut c,
            2,
            2,
            2,
        );
        assert_eq!(c, vec![3.0; 4]);
    }

    #[test]
    fn zero_extent_dims_are_noops() {
        let mut c = vec![5.0f32; 6];
        gemm_mat_auto(
            Mat::row_major(&[], 0),
            Mat::row_major(&[], 3),
            &mut c,
            2,
            0,
            3,
        );
        assert_eq!(c, vec![5.0; 6]); // k == 0: empty sum adds nothing
        gemm_mat_auto(
            Mat::row_major(&[], 4),
            Mat::row_major(&[], 0),
            &mut [],
            0,
            4,
            0,
        );
    }

    #[test]
    fn for_each_batch_covers_every_batch() {
        let mut c = vec![0.0f32; 12];
        for_each_batch(4, 3, &mut c, |t, c_t| {
            for v in c_t.iter_mut() {
                *v = t as f32;
            }
        });
        assert_eq!(c, vec![0., 0., 0., 1., 1., 1., 2., 2., 2., 3., 3., 3.]);
    }
}
