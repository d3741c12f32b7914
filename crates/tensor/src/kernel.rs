//! The GEMM core: one shape rule over a packed, register-blocked kernel
//! and three unpacked streams.
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
//!   The instantiations are the one lane entry (`on_lanes` over a
//!   `LaneWork`), which the GELU rows in `ops` and the initializers in
//!   `init` go through too. Both vector arms enable `fma` (`avx512f`
//!   implies it; the AVX2 arm names it), but Rust never contracts a
//!   multiply and an add into one instruction, so every output element is
//!   the same plain mul-then-add chain in ascending `k` order under all
//!   three, and the results are bit-identical. Only an explicit fused
//!   multiply-add fuses: the libm ports `init`'s Box–Muller calls make one
//!   where glibc's FMA builds do, and it rounds once on every arm.
//!
//! Packing pays off when the copy is amortized over many rows and columns.
//! A skinny product is dominated by it, so [`path`] sends few-row products
//! whose `B` has unit-stride columns (`B = Wᵀ`) to the `B`-column stream,
//! and shallow-`k` and few-row products with unit-stride `B` rows to one of
//! two row streams, all three reading `B` in place ([`Path`]); the driver
//! holds the rule, so each instantiation compiles every path with its lanes.
//!
//! Floating-point contract, on every path: each output element's
//! ascending-`k` chain is reduced from zero and added to `c` once per `KC`
//! block. For `k <= KC` that is a textbook triple loop bit for bit; for
//! `k > KC` the per-block partial sums (still ascending within and across
//! blocks) can differ from the unblocked order by normal rounding only.
//! The store form ([`gemm_mat_store`], `c = a @ b`) stores the first
//! block's chain instead of adding it to `c`. A chain reduced from `+0.0`
//! is never `-0.0` (`+0.0 + -0.0` rounds to `+0.0`), so storing it gives
//! the bits of adding it to a zeroed `c`, on every path and lane width.
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

/// Problems with `m * n * k` at or below this stream their rows whatever
/// the operand layout ([`Path::Tiny`]).
const TINY_MACS: usize = 16 * 16 * 16;
/// Deepest `k` the row stream takes ([`Path::RowStream`]).
pub const ROW_STREAM_MAX_K: usize = 16;
/// Tallest `m` the `B`-row and `B`-column streams take
/// ([`Path::BRowStream`], [`Path::BColStream`]).
pub const B_ROW_STREAM_MAX_M: usize = 16;
/// Rows of `C` per lane buffer of the `B`-column stream, and `B` columns
/// per pass: its register tile is `COL_TILE x COL_TILE`.
const COL_TILE: usize = 8;

/// Host capability probe: whether the CPU has both AVX2 and FMA units, which
/// the [`Lanes::Avx2`] arm needs. No GEMM or fused op fuses a multiply and
/// an add (see the module docs); only the libm ports' explicit fused
/// multiply-adds do. The benchmark reports it in its host block.
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
    /// 8-wide `avx2` lanes (with `fma`), `MR x NR` tile.
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
            Lanes::Avx2 => fma_available(),
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
/// origin at `(ic, jc)`), or with `store` writes them over what `c` held.
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
    store: bool,
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
                if store {
                    row.copy_from_slice(&acc_row[..cols]);
                    continue;
                }
                for (cv, &av) in row.iter_mut().zip(acc_row[..cols].iter()) {
                    *cv += av;
                }
            }
        }
    }
}

/// The packed path at an `MR x NR` register tile: `c += a @ b`, or with
/// `store` `c = a @ b`. The per-element chain does not depend on the tile,
/// so neither do the bits.
#[inline(always)]
fn gemm_packed<const MR: usize, const NR: usize>(
    a: Mat,
    b: Mat,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
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
                macro_tile::<MR, NR>(abuf, bbuf, kb, mb, nb, c, n, ic, jc, store && pc == 0);
            }
        }
    }
    crate::pool::recycle(apack);
    crate::pool::recycle(bpack);
}

/// Which kernel [`gemm_mat`] runs for a shape. Every path reduces each
/// output element's ascending-`k` chain from zero and adds it to `c` once
/// per `KC` block (the store form stores the first block's), so the choice
/// never moves a bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Few rows of `C`, unit-stride `B` columns (`B = Wᵀ` of a row-major
    /// `W`): each group of eight `A` rows is copied into a lane buffer and
    /// eight rows of `W` at a time are read in place against it.
    BColStream,
    /// At most 16³ multiply-adds, any layout the `B`-column stream does not
    /// take: the row stream, reading `B` element by element where its rows
    /// are strided.
    Tiny,
    /// Shallow `k`, unit-stride `B` rows: each row of `C` reduces
    /// register-wide chunks over `k`, nothing packed.
    RowStream,
    /// Few rows of `C`, unit-stride `B` rows: each `B` row is read once and
    /// folded into every row of a zeroed temporary.
    BRowStream,
    /// Everything else: packed panels and the register microtile.
    Packed,
}

/// The shape rule: which [`Path`] `c += a @ b` takes for a logical
/// `(m, k) @ (k, n)` product with right operand `b`.
pub fn path(b: Mat, m: usize, k: usize, n: usize) -> Path {
    if b.rs == 1 && m <= B_ROW_STREAM_MAX_M {
        Path::BColStream
    } else if m * n * k <= TINY_MACS {
        Path::Tiny
    } else if b.cs != 1 {
        Path::Packed
    } else if k <= ROW_STREAM_MAX_K {
        Path::RowStream
    } else if m <= B_ROW_STREAM_MAX_M {
        Path::BRowStream
    } else {
        Path::Packed
    }
}

/// `c += a @ b` one row of `c` at a time, nothing packed: per row, per `KC`
/// block and per `MR * NR`-wide chunk, the chunk's chains are reduced from
/// zero in the microtile's registers and then added to `c` (with `store`,
/// the first block's stored). Full chunks of a unit-stride `B` go through
/// [`stream_tile`], a ragged last chunk through it in `NR`-wide pieces;
/// the last `n % NR` elements, or every element of a strided `B`, go
/// element by element through [`Mat::at`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stream_rows<const MR: usize, const NR: usize>(
    a: Mat,
    b: Mat,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
) {
    for pc in (0..k).step_by(KC) {
        let ks = pc..(pc + KC).min(k);
        let set = store && pc == 0;
        for (i, c_row) in c.chunks_exact_mut(n).take(m).enumerate() {
            for (jc, c_part) in c_row.chunks_mut(MR * NR).enumerate() {
                let j0 = jc * MR * NR;
                if b.cs == 1 && c_part.len() == MR * NR {
                    let mut acc = [[0.0f32; NR]; MR];
                    stream_tile::<MR, NR>(a, i, ks.clone(), &b.data[j0..], b.rs, &mut acc);
                    for (c_r, acc_r) in c_part.chunks_exact_mut(NR).zip(acc) {
                        for (cv, s) in c_r.iter_mut().zip(acc_r) {
                            *cv = if set { s } else { *cv + s };
                        }
                    }
                    continue;
                }
                let pieces = if b.cs == 1 { c_part.len() / NR } else { 0 };
                for (q, c_r) in c_part.chunks_exact_mut(NR).take(pieces).enumerate() {
                    let mut acc = [[0.0f32; NR]; 1];
                    let b_q = &b.data[j0 + q * NR..];
                    stream_tile::<1, NR>(a, i, ks.clone(), b_q, b.rs, &mut acc);
                    for (cv, s) in c_r.iter_mut().zip(acc[0]) {
                        *cv = if set { s } else { *cv + s };
                    }
                }
                for (x, cv) in c_part.iter_mut().enumerate().skip(pieces * NR) {
                    let mut s = 0.0f32;
                    for p in ks.clone() {
                        s += a.at(i, p) * b.at(p, j0 + x);
                    }
                    *cv = if set { s } else { *cv + s };
                }
            }
        }
    }
}

/// The row stream's register kernel: `acc` (one row's `MR * NR` columns, in
/// `NR`-wide pieces) gains `a[i, p] * b[p, ..]` for each `p` in `ks`, where
/// `b` starts at the chunk's first column and its rows are `rs` apart.
/// Fixed-size pieces keep `acc` in registers, as in [`microtile`].
#[inline(always)]
fn stream_tile<const MR: usize, const NR: usize>(
    a: Mat,
    i: usize,
    ks: std::ops::Range<usize>,
    b: &[f32],
    rs: usize,
    acc: &mut [[f32; NR]; MR],
) {
    for p in ks {
        let a_ip = a.at(i, p);
        let row = &b[p * rs..][..MR * NR];
        for (acc_r, b_r) in acc.iter_mut().zip(row.chunks_exact(NR)) {
            let b_r: &[f32; NR] = b_r.try_into().unwrap();
            for j in 0..NR {
                acc_r[j] += a_ip * b_r[j];
            }
        }
    }
}

/// `c += a @ b` for a unit-stride `B`, one `B` row at a time: per `KC`
/// block, each row `p` is folded into all `m` rows of a zeroed pooled
/// `m x n` temporary (row `i` gains `a[i, p] * b[p, ..]`), and the
/// temporary is added to `c` once (with `store`, the first block's copied
/// over it). Four `B` rows share one pass over the temporary:
/// `(((t + a0 b0) + a1 b1) + a2 b2) + a3 b3` is the chain four passes would
/// build, with a quarter of the loads and stores.
#[inline(always)]
fn stream_b_rows(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize, store: bool) {
    let b_row = |p: usize| &b.data[p * b.rs..][..n];
    let mut t = crate::pool::take_zeroed(m * n);
    for pc in (0..k).step_by(KC) {
        if pc > 0 {
            t.fill(0.0);
        }
        let ks = pc..(pc + KC).min(k);
        let quads = ks.len() / 4;
        for p in ks.clone().step_by(4).take(quads) {
            let (b0, b1, b2, b3) = (b_row(p), b_row(p + 1), b_row(p + 2), b_row(p + 3));
            for (i, t_row) in t.chunks_exact_mut(n).enumerate() {
                let (a0, a1) = (a.at(i, p), a.at(i, p + 1));
                let (a2, a3) = (a.at(i, p + 2), a.at(i, p + 3));
                for ((((s, &x0), &x1), &x2), &x3) in
                    t_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    *s = *s + a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3;
                }
            }
        }
        for p in ks.start + 4 * quads..ks.end {
            let b0 = b_row(p);
            for (i, t_row) in t.chunks_exact_mut(n).enumerate() {
                let a0 = a.at(i, p);
                for (s, &x0) in t_row.iter_mut().zip(b0) {
                    *s += a0 * x0;
                }
            }
        }
        if store && pc == 0 {
            c[..m * n].copy_from_slice(&t);
            continue;
        }
        for (cv, &s) in c.iter_mut().zip(&t) {
            *cv += s;
        }
    }
    crate::pool::recycle(t);
}

thread_local! {
    /// [`stream_b_cols`]' lane buffer, one per thread and only ever grown:
    /// a call rewrites every lane it reads, pads included, so the buffer is
    /// neither cleared nor taken from the pool (whose class lock and
    /// zero-fill cost half a few-row product).
    static A_LANES: std::cell::Cell<Vec<f32>> = const { std::cell::Cell::new(Vec::new()) };
}

/// `c += a @ b` for a `B` with unit-stride columns (`B = Wᵀ` of a
/// row-major `W`: column `j` of `B` is row `j` of `W`), nothing of `B`
/// packed: per `KC` block and per group of [`COL_TILE`] rows of `C`, the
/// group's `A` rows are copied once into a zero-padded `kb x COL_TILE` lane
/// buffer, then [`col_tile`] reads [`COL_TILE`] rows of `W` at a time in
/// place against it and the tile is added to `c` (with `store`, the first
/// block's stored). A ragged last pass reads its last `W` row again in the
/// slots past `n` and drops what they compute, as it drops the padded lanes.
#[inline(always)]
fn stream_b_cols(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize, store: bool) {
    let mut a_lanes = A_LANES.take();
    a_lanes.resize(a_lanes.len().max(k.min(KC) * COL_TILE), 0.0);
    for pc in (0..k).step_by(KC) {
        let kb = (k - pc).min(KC);
        let set = store && pc == 0;
        let a_lanes = &mut a_lanes[..kb * COL_TILE];
        for i0 in (0..m).step_by(COL_TILE) {
            let rows = (m - i0).min(COL_TILE);
            for (p, lane) in a_lanes.chunks_exact_mut(COL_TILE).enumerate() {
                for (r, v) in lane.iter_mut().enumerate() {
                    *v = if r < rows { a.at(i0 + r, pc + p) } else { 0.0 };
                }
            }
            for j0 in (0..n).step_by(COL_TILE) {
                let cols = (n - j0).min(COL_TILE);
                let w =
                    std::array::from_fn(|j| &b.data[(j0 + j.min(cols - 1)) * b.cs + pc..][..kb]);
                let tile = col_tile(a_lanes, w);
                for r in 0..rows {
                    for (cv, t) in c[(i0 + r) * n + j0..][..cols].iter_mut().zip(&tile) {
                        *cv = if set { t[r] } else { *cv + t[r] };
                    }
                }
            }
        }
    }
    A_LANES.set(a_lanes);
}

/// The `B`-column stream's register kernel: `t[j][r]` is the chain over
/// `p` of `a_lanes[p][r] * w[j][p]`, reduced from zero in ascending `p`.
/// The tile lives in its own `#[inline(always)]` fn and is returned by
/// value: written inside [`stream_b_cols`]' loop nest, LLVM kept it on the
/// stack and went scalar. It went back there with the `W` values taken as
/// `&f32` or the tile's rows walked with `zip`, hence the copy into `x` and
/// the index loops (DESIGN.md §6).
#[inline(always)]
fn col_tile(a_lanes: &[f32], w: [&[f32]; COL_TILE]) -> [[f32; COL_TILE]; COL_TILE] {
    let [w0, w1, w2, w3, w4, w5, w6, w7] = w;
    // zipped, the eight rows share one trip count: no bounds check per load
    let w_cols = w0
        .iter()
        .zip(w1)
        .zip(w2)
        .zip(w3)
        .zip(w4)
        .zip(w5)
        .zip(w6)
        .zip(w7);
    let mut t = [[0.0f32; COL_TILE]; COL_TILE];
    for (lane, (((((((x0, x1), x2), x3), x4), x5), x6), x7)) in
        a_lanes.chunks_exact(COL_TILE).zip(w_cols)
    {
        let lane: &[f32; COL_TILE] = lane.try_into().unwrap();
        let x = [*x0, *x1, *x2, *x3, *x4, *x5, *x6, *x7];
        for j in 0..COL_TILE {
            for r in 0..COL_TILE {
                t[j][r] += x[j] * lane[r];
            }
        }
    }
    t
}

/// The GEMM at an `MR x NR` register tile: `c += a @ b` (with `store`,
/// `c = a @ b`) down the [`path`] the shape takes. `#[inline(always)]` so
/// each target-feature wrapper below recompiles every path, packing
/// included, with its lanes.
#[inline(always)]
fn gemm_tile<const MR: usize, const NR: usize>(
    a: Mat,
    b: Mat,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
) {
    match path(b, m, k, n) {
        Path::BColStream => stream_b_cols(a, b, c, m, k, n, store),
        Path::Tiny | Path::RowStream => stream_rows::<MR, NR>(a, b, c, m, k, n, store),
        Path::BRowStream => stream_b_rows(a, b, c, m, k, n, store),
        Path::Packed => gemm_packed::<MR, NR>(a, b, c, m, k, n, store),
    }
}

/// Work that runs on vector lanes: the GEMM driver, the GELU rows
/// (`ops::add_bias_gelu`, `ops::gelu_with_tanh`) and the initializers'
/// ChaCha blocks and Box–Muller (`init`). [`on_lanes`] compiles
/// `run` once per [`Lanes`] arm, under that arm's `#[target_feature]`, so an
/// `#[inline(always)]` `run` vectorizes its loops for those lanes. `NR` is the
/// arm's register-tile width: [`NR_WIDE`] on AVX-512, [`NR`] otherwise.
pub(crate) trait LaneWork {
    type Out;
    fn run<const NR: usize>(self) -> Self::Out;
}

/// [`LaneWork::run`] on 16-wide AVX-512 lanes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn on_avx512<W: LaneWork>(work: W) -> W::Out {
    work.run::<NR_WIDE>()
}

/// [`LaneWork::run`] on 8-wide AVX2 lanes, with FMA so an explicit
/// multiply-add is one instruction rather than a libm call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn on_avx2<W: LaneWork>(work: W) -> W::Out {
    work.run::<NR>()
}

/// Runs `work` on the given lanes, which this CPU must have: the one entry
/// to the `#[target_feature]` instantiations.
pub(crate) fn on_lanes<W: LaneWork>(lanes: Lanes, work: W) -> W::Out {
    assert!(lanes.on_host(), "{lanes:?} lanes on a CPU without them");
    match lanes {
        // SAFETY: the assert above checked the CPU has avx512f.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx512 => unsafe { on_avx512(work) },
        // SAFETY: the assert above checked the CPU has avx2 and fma.
        #[cfg(target_arch = "x86_64")]
        Lanes::Avx2 => unsafe { on_avx2(work) },
        _ => work.run::<NR>(),
    }
}

/// `c += a @ b` (with `store`, `c = a @ b`) as [`LaneWork`]: [`gemm_tile`]
/// at the lanes' tile.
struct Gemm<'a> {
    a: Mat<'a>,
    b: Mat<'a>,
    c: &'a mut [f32],
    m: usize,
    k: usize,
    n: usize,
    store: bool,
}

impl LaneWork for Gemm<'_> {
    type Out = ();
    #[inline(always)]
    fn run<const NR: usize>(self) {
        let Gemm {
            a,
            b,
            c,
            m,
            k,
            n,
            store,
        } = self;
        gemm_tile::<MR, NR>(a, b, c, m, k, n, store);
    }
}

/// `c += a @ b` (with `store`, `c = a @ b`) on the given lanes, which this
/// CPU must have.
#[allow(clippy::too_many_arguments)]
fn gemm_on(lanes: Lanes, a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize, store: bool) {
    let work = Gemm {
        a,
        b,
        c,
        m,
        k,
        n,
        store,
    };
    on_lanes(lanes, work);
}

/// The kernel entry point every matmul variant routes through: `c += a @ b`
/// for logical `(m, k) @ (k, n)` operands, `c` row-major `m x n`, down the
/// [`path`] the shape takes, on the widest [`lanes`] this CPU has.
///
/// Each element of `c` gains its ascending-`k` chain, reduced from zero,
/// once per `KC` block. For `k <= KC` that is one addition, so a live `c`
/// (fused gradient accumulation) ends up bitwise equal to adding the
/// product from a zeroed temporary. Records `2mkn` FLOPs on the
/// [`crate::meter`].
pub fn gemm_mat(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_mat_as(a, b, c, m, k, n, false);
}

/// The store form of [`gemm_mat`]: `c = a @ b`, whatever `c` held. The
/// first `KC` block stores its chains where [`gemm_mat`] adds them, and
/// every chain starts at `+0.0`, so it is never `-0.0` (`+0.0 + -0.0` is
/// `+0.0`): the bits are those of [`gemm_mat`] into a zeroed `c`, without
/// the zero-fill and without reading `c` back.
pub fn gemm_mat_store(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_mat_as(a, b, c, m, k, n, true);
}

/// [`gemm_mat`], or with `store` [`gemm_mat_store`].
fn gemm_mat_as(a: Mat, b: Mat, c: &mut [f32], m: usize, k: usize, n: usize, store: bool) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        // the empty sum: nothing to add, zeros to store
        if store {
            c[..m * n].fill(0.0);
        }
        return;
    }
    crate::meter::record(crate::matmul::matmul_flops(m, k, n));
    gemm_on(lanes(), a, b, c, m, k, n, store);
}

/// Runs `run(t, c_t)` for each of `ba` equal `csize`-element chunks of `c`
/// (one per batch of a batched matmul), in batch order.
pub fn for_each_batch(ba: usize, csize: usize, c: &mut [f32], run: impl Fn(usize, &mut [f32])) {
    assert_eq!(c.len(), ba * csize, "for_each_batch output size");
    for (t, c_t) in c.chunks_exact_mut(csize.max(1)).take(ba).enumerate() {
        run(t, c_t);
    }
}

/// Every [`Lanes`] arm this CPU can run, for tests that hold each to the
/// same bits. No silent skip: a CPU that reports `avx512f` must run (and
/// ship) the AVX-512 arm.
#[cfg(test)]
pub(crate) fn lanes_on_host() -> Vec<Lanes> {
    let on_host: Vec<Lanes> = [Lanes::Portable, Lanes::Avx2, Lanes::Avx512]
        .into_iter()
        .filter(|l| l.on_host())
        .collect();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f") {
        assert!(on_host.contains(&Lanes::Avx512));
        assert_eq!(lanes(), Lanes::Avx512);
    }
    on_host
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
    fn every_path_on_every_lane_width_computes_the_portable_packed_bits() {
        let on_host = lanes_on_host();
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
        // the shape rule's edges: T - 1, T and T + 1 of each threshold
        // (4095 = 15·13·21, 4097 = 17·241), tiny products as deep as KC ± 1,
        // and ragged widths around both row-stream chunks
        shapes.extend([(15, 13, 21), (16, 16, 16), (1, 17, 241)]);
        shapes.extend([(1, KC - 1, 8), (1, KC, 8), (1, KC + 1, 7)]);
        let (tall, deep) = (B_ROW_STREAM_MAX_M + 17, ROW_STREAM_MAX_K + 18);
        for k in [ROW_STREAM_MAX_K - 1, ROW_STREAM_MAX_K, ROW_STREAM_MAX_K + 1] {
            for n in [
                MR * NR - 1,
                MR * NR + 1,
                MR * NR_WIDE - 1,
                MR * NR_WIDE,
                MR * NR_WIDE + 1,
                2 * MR * NR_WIDE + 3,
            ] {
                shapes.push((tall, k, n));
            }
        }
        for m in [
            B_ROW_STREAM_MAX_M - 1,
            B_ROW_STREAM_MAX_M,
            B_ROW_STREAM_MAX_M + 1,
        ] {
            for k in [deep, KC - 1, KC + 1] {
                shapes.push((m, k, MR * NR_WIDE + 1));
            }
        }
        // the `B`-column stream (every shape here also runs with `B`
        // transposed): ragged row groups and column passes around its
        // `COL_TILE` tile, up to one row past two groups, `k = KC ± 1`,
        // and tiny products such as attention's `8×32×8`
        let (t, t2) = (COL_TILE, 2 * COL_TILE);
        for m in [1, t - 1, t, t + 1, t2 - 1, t2, t2 + 1] {
            for n in [t - 1, t, t + 1, t2 + 1] {
                shapes.push((m, deep, n));
            }
        }
        shapes.extend([(t + 1, KC - 1, t2 + 1), (t + 1, KC + 1, t2 + 1)]);
        shapes.extend([(t, 32, t), (t - 1, 3, t + 1)]);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // a `rows x cols` row-major buffer's transpose
        let transpose = |x: &[f32], rows: usize, cols: usize| {
            let mut t = vec![0.0; rows * cols];
            for r in 0..rows {
                for c in 0..cols {
                    t[c * rows + r] = x[r * cols + c];
                }
            }
            t
        };
        let (mut taken, mut stored) = (Vec::new(), Vec::new());
        for (m, k, n) in shapes {
            let a = rand_vec(m * k, (m * 7 + k) as u64);
            let b = rand_vec(k * n, (k * 13 + n) as u64);
            let c0 = rand_vec(m * n, (m + n) as u64);
            // the store form also sees a last row whose products are all
            // -0.0: -0.0 times a `b` with no negative element
            let mut neg_a = a.clone();
            neg_a[(m - 1) * k..].fill(-0.0);
            let abs_b: Vec<f32> = b.iter().map(|x| x.abs()).collect();
            for (a, b, starts) in [
                // into a zeroed `c`, into one that already holds data (a
                // fused gradient accumulation), and stored over garbage
                (&a, &b, vec![Some(vec![0.0; m * n]), Some(c0.clone()), None]),
                (&neg_a, &abs_b, vec![None]),
            ] {
                // the same logical operands, row-major and as transposed views
                let (at, bt) = (transpose(a, m, k), transpose(b, k, n));
                let a_views = [
                    ("row-major", Mat::row_major(a, k)),
                    ("transposed", Mat::transposed(&at, m)),
                ];
                let b_views = [
                    ("row-major", Mat::row_major(b, n)),
                    ("transposed", Mat::transposed(&bt, k)),
                ];
                for start in starts {
                    // the store form must equal accumulating into zeros
                    let store = start.is_none();
                    let mut want = start.clone().unwrap_or_else(|| vec![0.0; m * n]);
                    let (a0, b0) = (a_views[0].1, b_views[0].1);
                    gemm_packed::<MR, NR>(a0, b0, &mut want, m, k, n, false);
                    if std::ptr::eq(a, &neg_a) {
                        let last = &want[(m - 1) * n..];
                        assert!(last.iter().all(|x| x.to_bits() == 0), "-0.0 chains");
                    }
                    for (a_layout, am) in a_views {
                        for (b_layout, bm) in b_views {
                            let path = path(bm, m, k, n);
                            taken.push(path);
                            if store {
                                stored.push((path, k > KC));
                            }
                            for lanes in on_host.iter().copied() {
                                // poisoned: the store form writes every
                                // element, and nothing past `m x n` (a row
                                // of NaN after `c`, which a padded lane
                                // stored there would zero)
                                let mut got =
                                    start.clone().unwrap_or_else(|| vec![f32::NAN; m * n]);
                                got.extend(vec![f32::NAN; n]);
                                gemm_on(lanes, am, bm, &mut got, m, k, n, store);
                                assert!(
                                    got[m * n..].iter().all(|x| x.is_nan()),
                                    "{path:?} on {lanes:?}, ({m},{k},{n}), store {store}: \
                                     wrote past c"
                                );
                                got.truncate(m * n);
                                assert!(
                                    bits(&got) == bits(&want),
                                    "{path:?} on {lanes:?}, A {a_layout}, B {b_layout}, \
                                     ({m},{k},{n}), store {store}: differs from portable \
                                     packed into a zeroed or live c"
                                );
                            }
                        }
                    }
                }
            }
        }
        for path in [
            Path::BColStream,
            Path::Tiny,
            Path::RowStream,
            Path::BRowStream,
            Path::Packed,
        ] {
            assert!(taken.contains(&path), "no shape took {path:?}");
            for deep in [false, true] {
                let case = (path, deep);
                // the row stream takes no `k` past ROW_STREAM_MAX_K
                let reachable = !(path == Path::RowStream && deep);
                assert!(
                    stored.contains(&case) || !reachable,
                    "no store took {path:?} with k > KC: {deep}"
                );
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
        gemm_mat(
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
        gemm_mat(
            Mat::row_major(&[], 0),
            Mat::row_major(&[], 3),
            &mut c,
            2,
            0,
            3,
        );
        assert_eq!(c, vec![5.0; 6]); // k == 0: empty sum adds nothing
        gemm_mat_store(
            Mat::row_major(&[], 0),
            Mat::row_major(&[], 3),
            &mut c,
            2,
            0,
            3,
        );
        assert_eq!(c, vec![0.0; 6]); // ... and stores zeros
        gemm_mat(
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
