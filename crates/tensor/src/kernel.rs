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
//! * the driver is generic over its register tile and compiled three times,
//!   one per [`Lanes`]: under `#[target_feature(enable = "avx512f")]` with a
//!   `4 x 32` tile (eight zmm accumulators), under `avx2` with a `4 x 16`
//!   tile (eight ymm), and portable at `4 x 16`. [`gemm_mat`] picks the
//!   widest the CPU has at runtime, so no `-C target-cpu` flag is needed.
//!   `avx512f` implies `fma`, but Rust never contracts a multiply and an add
//!   into one instruction, so every output element is the same plain
//!   mul-then-add chain in ascending `k` order under all three, and the
//!   results are bit-identical.
//!
//! Floating-point contract: for `k <= KC` the summation order per output
//! element is exactly ascending `k`, matching a textbook triple loop bit for
//! bit. For `k > KC` partial sums are accumulated per `KC`-block (still
//! ascending within and across blocks), which can differ from the unblocked
//! order by normal rounding only.
//!
//! A GEMM runs on the thread of the rank that called it: the world executor
//! (`comm::sched`) is the only owner of host cores.

/// Microtile rows held in registers, at every lane width.
pub const MR: usize = 4;
/// Microtile columns of the AVX2 and portable tiles (two AVX2 f32 vectors),
/// giving a `4 x 16` accumulator tile — 8 ymm registers — with room left for
/// loads.
pub const NR: usize = 16;
/// Microtile columns of the AVX-512 tile (two zmm f32 vectors): `4 x 32`, 8
/// zmm registers.
pub const NR_WIDE: usize = 32;
/// `k`-extent of a packed block: `A` and `B` panels are `MR * KC` and
/// `NR * KC` floats, so a handful of panels fit in L1.
pub const KC: usize = 512;
/// Row-extent of a packed `A` block (multiple of `MR`); `MC * KC` floats
/// target L2 residency.
pub const MC: usize = 128;
/// Column-extent of a packed `B` block (multiple of `NR` and `NR_WIDE`).
pub const NC: usize = 256;

/// `k`-extent of one strip of a transposing [`pack`]: `PACK_STRIP * NR_WIDE`
/// floats is 16 KB of panel, resident in L1 while every row fills it.
const PACK_STRIP: usize = 128;

/// Problems with `m * n * k` at or below this run a branch-free direct
/// kernel instead of paying the packing round-trip.
const SMALL_FLOP_CUTOFF: usize = 16 * 16 * 16;

/// Host capability probe: whether the CPU has both AVX2 and FMA units. No
/// kernel here uses FMA (see the module docs); the benchmark reports it in
/// its host block.
#[cfg(target_arch = "x86_64")]
pub fn fma_available() -> bool {
    static FMA: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// Host capability probe: never true off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn fma_available() -> bool {
    false
}

/// The vector lanes a packed GEMM runs on. Each is one instantiation of the
/// same driver source, and all three compute the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lanes {
    /// The build's baseline instruction set, `MR x NR` tile.
    Portable,
    /// 8-wide `avx2` lanes, `MR x NR` tile.
    Avx2,
    /// 16-wide `avx512f` lanes, `MR x NR_WIDE` tile.
    Avx512,
}

impl Lanes {
    /// Whether this CPU can run these lanes.
    fn on_host(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        return match self {
            Lanes::Portable => true,
            Lanes::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Lanes::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        };
        #[cfg(not(target_arch = "x86_64"))]
        return self == Lanes::Portable;
    }
}

/// The widest lanes this CPU has, probed once: what [`gemm_mat`] runs on.
pub fn lanes() -> Lanes {
    static LANES: std::sync::OnceLock<Lanes> = std::sync::OnceLock::new();
    *LANES.get_or_init(|| {
        [Lanes::Avx512, Lanes::Avx2]
            .into_iter()
            .find(|l| l.on_host())
            .unwrap_or(Lanes::Portable)
    })
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
/// never branches on the edge). `A` packs as itself with `W` = the tile's
/// `MR`; `B` packs as its transpose with `W` = the tile's `NR`, so its panels
/// run along its columns.
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
            // a transpose: each source row scatters into the panel at stride
            // `W`, so walk `k` in strips whose slice of the panel stays in
            // L1 while all `W` rows fill it (a whole 512-deep 4 x 32 panel
            // is 64 KB, past L1)
            for k0 in (0..kb).step_by(PACK_STRIP) {
                let kn = (kb - k0).min(PACK_STRIP);
                for r in 0..rows {
                    let at = (x + r) * rs + p0 + k0;
                    for (dst, &v) in panel[k0 * W..].chunks_exact_mut(W).zip(&data[at..at + kn]) {
                        dst[r] = v;
                    }
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
/// bounds-check-free so LLVM holds `acc` in vector registers; every step is
/// a plain multiply then add.
#[inline(always)]
fn microtile<const MR: usize, const NR: usize>(
    kb: usize,
    ap: &[f32],
    bp: &[f32],
    acc: &mut [[f32; NR]; MR],
) {
    for (a, b) in ap[..kb * MR]
        .chunks_exact(MR)
        .zip(bp[..kb * NR].chunks_exact(NR))
    {
        let a: &[f32; MR] = a.try_into().unwrap();
        let b: &[f32; NR] = b.try_into().unwrap();
        for r in 0..MR {
            let ar = a[r];
            for j in 0..NR {
                acc[r][j] += ar * b[j];
            }
        }
    }
}

/// Runs every microtile of one packed `(mb x kb) @ (kb x nb)` block and
/// scatter-adds the accumulators into `c` (full `ldc`-wide output, block
/// origin at `(ic, jc)`).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // flat scalars keep the hot path register-friendly
fn macro_tile<const MR: usize, const NR: usize>(
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
        for ip in 0..mb.div_ceil(MR) {
            let ir = ip * MR;
            let rows = (mb - ir).min(MR);
            let ap = &apack[ip * kb * MR..][..kb * MR];
            let mut acc = [[0.0f32; NR]; MR];
            microtile::<MR, NR>(kb, ap, bp, &mut acc);
            for (r, acc_row) in acc[..rows].iter().enumerate() {
                let row = &mut c[(ic + ir + r) * ldc + jc + jr..][..cols];
                for (cv, &av) in row.iter_mut().zip(acc_row[..cols].iter()) {
                    *cv += av;
                }
            }
        }
    }
}

/// The packed driver at an `MR x NR` register tile: `c += a @ b`.
/// `#[inline(always)]` so each target-feature wrapper below recompiles the
/// whole loop nest, packing included, with its lanes. The per-element chain
/// does not depend on the tile, so neither do the bits.
#[inline(always)]
fn gemm_packed<const MR: usize, const NR: usize>(
    a: Mat,
    b: Mat,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let kb_max = k.min(KC);
    // packing panels recycle through the storage pool: a training step calls
    // this kernel hundreds of times with identical panel sizes
    let mut apack = crate::pool::take_zeroed(m.min(MC).div_ceil(MR) * MR * kb_max);
    let mut bpack = crate::pool::take_zeroed(n.min(NC).div_ceil(NR) * NR * kb_max);
    for jc in (0..n).step_by(NC) {
        let nb = (n - jc).min(NC);
        for pc in (0..k).step_by(KC) {
            let kb = (k - pc).min(KC);
            let bbuf = &mut bpack[..nb.div_ceil(NR) * NR * kb];
            pack::<NR>(b.t(), jc, nb, pc, kb, bbuf);
            for ic in (0..m).step_by(MC) {
                let mb = (m - ic).min(MC);
                let abuf = &mut apack[..mb.div_ceil(MR) * MR * kb];
                pack::<MR>(a, ic, mb, pc, kb, abuf);
                macro_tile::<MR, NR>(abuf, bbuf, kb, mb, nb, c, n, ic, jc);
            }
        }
    }
    crate::pool::recycle(apack);
    crate::pool::recycle(bpack);
}

/// [`gemm_packed`] on 16-wide AVX-512 lanes at a `4 x 32` tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn gemm_avx512(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_packed::<MR, NR_WIDE>(a, b, c, m, k, n);
}

/// [`gemm_packed`] on 8-wide AVX2 lanes at a `4 x 16` tile.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_packed::<MR, NR>(a, b, c, m, k, n);
}

/// Packed GEMM on the given lanes, which this CPU must have.
fn gemm_packed_on(lanes: Lanes, a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(lanes.on_host(), "{lanes:?} lanes on a CPU without them");
    match lanes {
        // SAFETY: the assert above checked the CPU has avx512f.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx512 => unsafe { gemm_avx512(a, b, c, m, k, n) },
        // SAFETY: the assert above checked the CPU has avx2.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => unsafe { gemm_avx2(a, b, c, m, k, n) },
        _ => gemm_packed::<MR, NR>(a, b, c, m, k, n),
    }
}

/// Packed GEMM: `c += a @ b` for logical `(m, k) @ (k, n)` operands,
/// `c` row-major `m x n`, on the widest [`lanes`] this CPU has.
pub fn gemm_mat(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_packed_on(lanes(), a, b, c, m, k, n);
}

/// Branch-free direct i-k-j kernel for problems too small to amortize
/// packing. Summation per output element is ascending `k`, the same order as
/// the packed path, so the size dispatch never changes results (for a
/// zero-initialized `c`, folding the chain into memory per `k` step produces
/// the same bits as reducing it in a register).
fn gemm_small(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a.at(i, p);
            for (j, c_ij) in c_row.iter_mut().enumerate() {
                *c_ij += a_ip * b.at(p, j);
            }
        }
    }
}

/// Register-dot variant of [`gemm_small`] for a `c` that already holds live
/// data: each output element's ascending-`k` dot is fully reduced in a
/// register first and added to `c` exactly once. `gemm_small` itself folds
/// into `c` memory once per `k` step, which is the same sequence only when
/// `c` starts at zero — this variant keeps the bits right when it doesn't.
fn gemm_small_acc(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for (j, c_ij) in c_row.iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.at(i, p) * b.at(p, j);
            }
            *c_ij += acc;
        }
    }
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
        // deeper than a transposing pack's strip
        let (rows, cols) = (2 * W + 3, PACK_STRIP + 37);
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
                // whole extent, ragged interior blocks (the deep one crosses
                // a strip from an offset), one full panel, the last element,
                // nothing
                for (x0, xb, p0, kb) in [
                    (0, rows, 0, cols),
                    (1, W + 2, 2, 5),
                    (1, W + 2, 3, cols - 3),
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
        pack_matches_the_at_loop::<NR>();
        pack_matches_the_at_loop::<NR_WIDE>();
    }

    #[test]
    fn every_lane_width_computes_the_portable_bits() {
        let on_host: Vec<Lanes> = [Lanes::Portable, Lanes::Avx2, Lanes::Avx512]
            .into_iter()
            .filter(|l| l.on_host())
            .collect();
        // no silent skip: a CPU that reports avx512f runs (and ships) the
        // AVX-512 arm
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            assert!(on_host.contains(&Lanes::Avx512));
            assert_eq!(lanes(), Lanes::Avx512);
        }
        // each extent swept across its edges (both tiles' MR / NR, MC, NC,
        // KC + 1) with the other two held small, then the three block
        // straddlers at once
        let mut shapes = Vec::new();
        for m in [1, MR - 1, MR, MR + 1, MC - 1, MC, MC + 1] {
            shapes.push((m, KC + 1, NR_WIDE + 1));
        }
        for n in [
            1,
            NR - 1,
            NR,
            NR + 1,
            NR_WIDE - 1,
            NR_WIDE,
            NR_WIDE + 1,
            NC - 1,
            NC,
            NC + 1,
        ] {
            shapes.push((MR + 1, 9, n));
        }
        for k in [1, MR + 1, KC - 1, KC, KC + 1] {
            shapes.push((MR + 1, k, NR_WIDE + 1));
        }
        shapes.push((MC + 1, KC + 1, NC + 1));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, k, n) in shapes {
            let a = rand_vec(m * k, (m * 7 + k) as u64);
            let b = rand_vec(k * n, (k * 13 + n) as u64);
            let c0 = rand_vec(m * n, (m + n) as u64);
            // the same logical operands, row-major and as transposed views
            let (mut at, mut bt) = (vec![0.0; m * k], vec![0.0; k * n]);
            for i in 0..m {
                for p in 0..k {
                    at[p * m + i] = a[i * k + p];
                }
            }
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let operands = [
                (Mat::row_major(&a, k), Mat::row_major(&b, n)),
                (Mat::transposed(&at, m), Mat::transposed(&bt, k)),
            ];
            // into a zeroed `c`, and into one that already holds data (what
            // `gemm_mat_acc` runs above the small cutoff, for k <= KC)
            for start in [vec![0.0; m * n], c0] {
                let mut want = start.clone();
                gemm_packed_on(
                    Lanes::Portable,
                    operands[0].0,
                    operands[0].1,
                    &mut want,
                    m,
                    k,
                    n,
                );
                for lanes in on_host.iter().copied() {
                    for (layout, (am, bm)) in ["row-major", "transposed"].iter().zip(operands) {
                        let mut got = start.clone();
                        gemm_packed_on(lanes, am, bm, &mut got, m, k, n);
                        assert!(
                            bits(&got) == bits(&want),
                            "{lanes:?} {layout} ({m},{k},{n}) differs from portable"
                        );
                    }
                }
            }
        }
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
