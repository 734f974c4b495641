//! BLAS level-3 routines, centred on GEMM.
//!
//! Three GEMM code paths mirror the paper's Table II comparison of
//! scalar vs vectorized (AVX2) OpenBLAS builds:
//!
//! - [`gemm_naive`] — textbook triple loop, strictly scalar dependency
//!   chain: the stand-in for a scalar (no-SIMD) build,
//! - [`gemm_blocked`] — cache-blocked loop nest streaming rows of B,
//! - [`GemmPlan::run`] — the one packed core: packs A/B panels and runs a
//!   register-tiled micro-kernel with independent accumulators (the shape
//!   SIMD units map onto lanes), serially or fanned out over disjoint
//!   zero-copy row panels of C on a [`me_par::WorkerPool`]: the stand-in
//!   for a vectorized build.
//!
//! All paths compute `C ← α·A·B + β·C` and agree to rounding order; with
//! `β = 0`, C is overwritten and never read (reference-DGEMM semantics).
//! The packed core serves every operand the crate has — `Mat<f64>`,
//! `Mat<f32>` and half-stored [`HalfMat`] (widened exactly in the pack
//! loops) — against a fresh, transposed or prepacked B ([`BOperand`]).
//! [`gemm`], [`gemm_tiled_prepacked_with`] and the Ozaki engine call
//! [`gemm_half_f32`] are thin fronts over it.
//!
//! The core is **bitwise identical** for every thread count, every kernel
//! variant and both B sources: its per-element FMA order depends only on
//! the global KC grid, never on the row partition, the tile membership or
//! where the B panel came from. The MR×NR tile runs a runtime-dispatched
//! micro-kernel ([`ukernel`]): strictly scalar, or hand-written AVX2+FMA
//! or AVX-512 intrinsics, all bitwise identical by the fixed-FMA-order
//! contract, so the dispatch choice (env `ME_KERNEL`, the benches'
//! `--kernel` flag, or CPUID detection) never changes a result bit. A
//! [`GemmPlan`] pins the variant explicitly — the differential harness
//! does, avoiding global dispatch state in concurrent tests.

pub mod autotune;
pub mod blocking;
pub mod half;
pub mod int8;
pub mod packed;
pub mod ukernel;

use crate::mat::{Mat, MatMut, Scalar};
pub use blocking::{blocking_for, set_blocking_override, Blocking, BlockingDispatch, BLOCKING_ENV};
pub use half::{gemm_half_f32, HalfKind, HalfMat};
pub use int8::{dot_i8, dot_i8_scalar, gemm_i8_i32};
pub use me_par::Workers;
pub use packed::{pack_b_matrix, PackedB};
pub use ukernel::{
    available_variants, avx2_supported, avx512_supported, selected_kernel, set_kernel_override,
    KernelDispatch, KernelVariant, KERNEL_ENV, MR, NR,
};

/// Selector for the GEMM implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GemmAlgo {
    /// Textbook scalar triple loop.
    Naive,
    /// Cache-blocked, streaming rows of B.
    Blocked,
    /// The packed register-tiled core (SIMD-shaped), serial.
    Tiled,
    /// The packed core over row panels on `ME_THREADS` workers.
    Parallel,
}

/// `C ← α·A·B + β·C` with the selected algorithm; `Tiled` and `Parallel`
/// run the runtime-selected kernel variant.
///
/// # Panics
/// On shape mismatch.
pub fn gemm<T: Scalar>(algo: GemmAlgo, alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let plan = GemmPlan::new(selected_kernel());
    match algo {
        GemmAlgo::Naive => gemm_naive(alpha, a, b, beta, c),
        GemmAlgo::Blocked => gemm_blocked(alpha, a, b, beta, c),
        GemmAlgo::Tiled => plan.run(alpha, a, b, beta, c),
        GemmAlgo::Parallel => plan.with_workers(Workers::Threads(0)).run(alpha, a, b, beta, c),
    }
}

fn check_shapes<T: Scalar>(a: &Mat<T>, b: &Mat<T>, c: &Mat<T>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimension mismatch");
    assert_eq!(a.rows(), c.rows(), "gemm: C rows mismatch");
    assert_eq!(b.cols(), c.cols(), "gemm: C cols mismatch");
}

/// `C ← β·C`, except that `β = 0` stores +0 without reading C, so NaN or
/// ±Inf left in C does not survive (reference-DGEMM semantics).
fn scale_by_beta<T: Scalar>(c: &mut [T], beta: T) {
    if beta == T::ZERO {
        c.fill(T::ZERO);
    } else {
        for v in c {
            *v *= beta;
        }
    }
}

/// Scalar reference GEMM: a single running accumulator per output element,
/// which forces a serial dependency chain the compiler cannot vectorize
/// without reassociation (our stand-in for a `-mno-avx` build).
pub fn gemm_naive<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    check_shapes(a, b, c);
    let (m, k) = a.shape();
    scale_by_beta(c.as_mut_slice(), beta);
    for i in 0..m {
        for j in 0..b.cols() {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a[(i, p)].mul_add(b[(p, j)], acc);
            }
            c[(i, j)] = alpha.mul_add(acc, c[(i, j)]);
        }
    }
}

/// Cache-blocked GEMM streaming rows of B against each row of A.
pub fn gemm_blocked<T: Scalar>(alpha: T, a: &Mat<T>, b: &Mat<T>, beta: T, c: &mut Mat<T>) {
    check_shapes(a, b, c);
    let (m, k) = a.shape();
    let Blocking { mc: mc_blk, kc: kc_blk, .. } = Blocking::DEFAULT;
    scale_by_beta(c.as_mut_slice(), beta);

    // kc x n panel of B, reused across the i blocks.
    for kb in (0..k).step_by(kc_blk) {
        let kc = kc_blk.min(k - kb);
        for ib in (0..m).step_by(mc_blk) {
            let mc = mc_blk.min(m - ib);
            for i in ib..ib + mc {
                let arow = &a.row(i)[kb..kb + kc];
                for (p, &aip) in arow.iter().enumerate() {
                    let s = alpha * aip;
                    let brow = b.row(kb + p);
                    let crow = c.row_mut(i);
                    for (cij, &bpj) in crow.iter_mut().zip(brow) {
                        *cij = s.mul_add(bpj, *cij);
                    }
                }
            }
        }
    }
}

/// A row-major matrix the packed core can read: its storage words at a
/// row stride, and the exact widening of one word into the element the
/// micro-kernel computes in — identity for `Mat<f64>`/`Mat<f32>`, f16 or
/// bf16 bits → f32 for [`HalfMat`].
pub trait GemmOperand: Sync {
    /// The element the micro-kernel computes in.
    type Elem: Scalar;
    /// The element as stored.
    type Stored: Copy;
    /// `(rows, cols)` of the logical matrix.
    fn shape(&self) -> (usize, usize);
    /// The storage, row-major at stride [`Self::ld`].
    fn data(&self) -> &[Self::Stored];
    /// Distance between row starts in [`Self::data`].
    fn ld(&self) -> usize {
        self.shape().1
    }
    /// Exact widening of one stored element.
    fn widen(&self, x: Self::Stored) -> Self::Elem;
    /// The trace counter one packed-core run on `variant` bumps.
    fn counter(variant: KernelVariant) -> &'static str {
        variant.counter()
    }
}

impl<T: Scalar> GemmOperand for Mat<T> {
    type Elem = T;
    type Stored = T;

    fn shape(&self) -> (usize, usize) {
        Mat::shape(self)
    }

    fn data(&self) -> &[T] {
        self.as_slice()
    }

    #[inline(always)]
    fn widen(&self, x: T) -> T {
        x
    }
}

/// The B side of a packed-core GEMM.
pub enum BOperand<'b, A: GemmOperand> {
    /// A `k × n` matrix, packed into scratch per (NC, KC) block.
    Fresh(&'b A),
    /// Bᵀ stored as an `n × k` matrix — the engine-call layout, where both
    /// operands stream along k.
    Transposed(&'b A),
    /// Panels prepacked once by [`pack_b_matrix`]: no pack work, and the
    /// `kc`/`nc` grid recorded in the [`PackedB`] wins over the plan's.
    Packed(&'b PackedB<A::Elem>),
}

impl<'b, A: GemmOperand> From<&'b A> for BOperand<'b, A> {
    fn from(b: &'b A) -> Self {
        BOperand::Fresh(b)
    }
}

impl<'b, A: GemmOperand> From<&'b PackedB<A::Elem>> for BOperand<'b, A> {
    fn from(b: &'b PackedB<A::Elem>) -> Self {
        BOperand::Packed(b)
    }
}

impl<A: GemmOperand> BOperand<'_, A> {
    /// `(k, n)` of the logical B.
    fn shape(&self) -> (usize, usize) {
        match self {
            BOperand::Fresh(b) => b.shape(),
            BOperand::Transposed(bt) => (bt.shape().1, bt.shape().0),
            BOperand::Packed(p) => (p.k(), p.n()),
        }
    }
}

/// How a packed-core GEMM runs: the micro-kernel variant, the cache
/// blocking (`None` = the variant's entry in the blocking table, see
/// [`blocking_for`]) and the workers the row panels of C fan out over.
///
/// The result is bitwise identical for every variant and every worker
/// choice; of the blocking only `kc` is numerically observable, so
/// bitwise comparisons must pin one `kc` on both sides.
#[derive(Debug, Clone, Copy)]
pub struct GemmPlan<'p> {
    /// The micro-kernel; unsupported requests degrade through
    /// [`KernelVariant::resolve_supported`] instead of faulting.
    pub variant: KernelVariant,
    /// Pinned blocking, or `None` for the live blocking table.
    pub blocking: Option<Blocking>,
    /// Where the row panels run.
    pub workers: Workers<'p>,
}

impl GemmPlan<'static> {
    /// A serial plan on `variant` with the table blocking.
    pub fn new(variant: KernelVariant) -> Self {
        GemmPlan { variant, blocking: None, workers: Workers::Threads(1) }
    }
}

impl<'p> GemmPlan<'p> {
    /// This plan on other workers.
    pub fn with_workers<'w>(self, workers: Workers<'w>) -> GemmPlan<'w> {
        GemmPlan { variant: self.variant, blocking: self.blocking, workers }
    }

    /// This plan with a pinned blocking.
    pub fn with_blocking(self, blocking: Blocking) -> Self {
        GemmPlan { blocking: Some(blocking), ..self }
    }

    /// `C ← α·A·B + β·C` on the packed core, with B fresh (`&Mat`,
    /// `&HalfMat`), prepacked (`&PackedB`) or any [`BOperand`].
    ///
    /// # Panics
    /// On shape mismatch (against a prepacked operand's recorded `k × n`).
    pub fn run<'b, A: GemmOperand + 'b>(
        &self,
        alpha: A::Elem,
        a: &A,
        b: impl Into<BOperand<'b, A>>,
        beta: A::Elem,
        c: &mut Mat<A::Elem>,
    ) {
        let b = b.into();
        let ((m, k), (kb, n)) = (a.shape(), b.shape());
        assert_eq!(k, kb, "gemm: inner dimension mismatch");
        assert_eq!(m, c.rows(), "gemm: C rows mismatch");
        assert_eq!(n, c.cols(), "gemm: C cols mismatch");
        let variant = self.variant.resolve_supported();
        // Resolved once, outside the workers: every panel must run the
        // same kc grid even if an override lands mid-GEMM.
        let blocking = match b {
            BOperand::Packed(p) => p.blocking(),
            _ => self.blocking.unwrap_or_else(|| blocking_for(variant)).normalized(),
        };
        let units = if m < 2 * MR || n == 0 { 1 } else { m.div_ceil(MR) };
        self.workers.run(units, |pool| {
            let Some(pool) = pool else {
                let _t = me_trace::span(variant.tag(), "linalg");
                let mut view = c.as_view_mut();
                gemm_packed_panel(variant, blocking, alpha, a, k, &b, beta, &mut view, 0);
                return;
            };
            if m == 0 {
                return;
            }
            // MR-aligned panel boundaries keep whole micro-tiles on one
            // worker; correctness and bitwise equality hold for any split.
            let rows_per = m.div_ceil(pool.threads()).next_multiple_of(MR);
            let mut panels: Vec<_> = c.split_rows_mut(rows_per).collect();
            pool.for_each_mut_tagged(variant.tag(), &mut panels, |_, (r0, panel)| {
                gemm_packed_panel(variant, blocking, alpha, a, k, &b, beta, panel, *r0);
            });
        });
    }
}

/// `C ← α·A·B + β·C` where `B` was packed up front by [`pack_b_matrix`]:
/// serial [`GemmPlan::run`] on `variant`. For equal `kc` the output is
/// **bitwise identical** to the fresh-pack GEMM on the unpacked `B` (the
/// §9 FMA contract extended to prepacked operands;
/// `tests/prepacked_differential.rs` proves it across the variant grid).
///
/// # Panics
/// On shape mismatch against the packed operand's recorded `k × n`.
pub fn gemm_tiled_prepacked_with<T: Scalar>(
    variant: KernelVariant,
    alpha: T,
    a: &Mat<T>,
    b: &PackedB<T>,
    beta: T,
    c: &mut Mat<T>,
) {
    GemmPlan::new(variant).run(alpha, a, b, beta, c);
}

/// Pack the `mc × kc` block of A at (`row0`, `kb`) into MR-row
/// micro-panels, widening each element as it lands: micro-panel `it`
/// stores, for each k step `p`, the MR values `A[row0 + it·MR + r][kb + p]`
/// contiguously, zero-padded past `mc`. The padding rows feed accumulator
/// lanes that are never written back, so they cost a few FMAs but keep the
/// kernel branch-free.
// me-verify: hot
fn pack_a<A: GemmOperand>(
    a: &A,
    row0: usize,
    mc: usize,
    kb: usize,
    kc: usize,
    buf: &mut [A::Elem],
) {
    let (data, ld) = (a.data(), a.ld());
    for it in 0..mc.div_ceil(MR) {
        let tile = &mut buf[it * MR * kc..(it + 1) * MR * kc];
        for r in 0..MR {
            let li = it * MR + r;
            if li < mc {
                let start = (row0 + li) * ld + kb;
                for (p, &v) in data[start..start + kc].iter().enumerate() {
                    tile[p * MR + r] = a.widen(v);
                }
            } else {
                for p in 0..kc {
                    tile[p * MR + r] = A::Elem::ZERO;
                }
            }
        }
    }
}

/// Pack the `kc × ncb` window of B at (`kb`, `jb`) into NR-column
/// micro-panels: micro-panel `jt` stores, for each k step `p`, the NR
/// values `B[kb + p][jb + jt·NR + j]` contiguously, zero-padded past the
/// matrix edge. Shared verbatim by the fresh path and [`pack_b_matrix`],
/// which is what makes prepacked panels byte-identical to fresh ones (the
/// §12 layout contract).
// me-verify: hot
pub(crate) fn pack_b<A: GemmOperand>(
    b: &A,
    kb: usize,
    kc: usize,
    jb: usize,
    ncb: usize,
    buf: &mut [A::Elem],
) {
    let (data, ld) = (b.data(), b.ld());
    for p in 0..kc {
        let brow = &data[(kb + p) * ld..];
        for jt in 0..ncb.div_ceil(NR) {
            let j0 = jb + jt * NR;
            let w = NR.min(jb + ncb - j0);
            let dst = &mut buf[jt * NR * kc + p * NR..jt * NR * kc + (p + 1) * NR];
            for (d, &v) in dst[..w].iter_mut().zip(&brow[j0..j0 + w]) {
                *d = b.widen(v);
            }
            dst[w..].fill(A::Elem::ZERO);
        }
    }
}

/// [`pack_b`] for a B given transposed: row `j` of `bt` holds column `j`
/// of the logical B, so each NR-column micro-panel gathers NR lines.
// me-verify: hot
fn pack_bt<A: GemmOperand>(
    bt: &A,
    kb: usize,
    kc: usize,
    jb: usize,
    ncb: usize,
    buf: &mut [A::Elem],
) {
    let (data, ld) = (bt.data(), bt.ld());
    for jt in 0..ncb.div_ceil(NR) {
        let tile = &mut buf[jt * NR * kc..(jt + 1) * NR * kc];
        for jj in 0..NR {
            let j = jt * NR + jj;
            if j < ncb {
                let start = (jb + j) * ld + kb;
                for (p, &v) in data[start..start + kc].iter().enumerate() {
                    tile[p * NR + jj] = bt.widen(v);
                }
            } else {
                for p in 0..kc {
                    tile[p * NR + jj] = A::Elem::ZERO;
                }
            }
        }
    }
}

/// The packing + micro-kernel core behind every packed GEMM: computes
/// `C_panel ← α·A[r0..r0+rows, ..k]·B + β·C_panel` directly on a borrowed
/// zero-copy panel view of C.
///
/// Loop order is NC column blocks (outermost) → KC chunks (the shared
/// grid: every element sees the same k-chunking regardless of the row
/// partition, so parallel == serial bitwise) → MC cache blocks of packed
/// A → MR×NR micro-tiles against the B panel — fresh-packed into scratch
/// or borrowed from a [`PackedB`], byte-identical either way. The MR×NR
/// tile itself runs the caller-pinned [`ukernel`] variant; the write-back
/// stays scalar in every variant (part of the bitwise-identity contract).
///
/// Of `blocking` only `kc` is numerically observable (it sets the
/// per-element FMA grouping); `mc`/`nc` merely reorder independent
/// elements' work. For a `Packed` B the caller passes the operand's own
/// recorded blocking so the replayed grid matches the stored panels.
///
/// Pack buffers come from the per-thread 64-byte-aligned scratch
/// ([`crate::mat::with_pack_scratch`]), sized by `kc.min(k)` so skinny-k
/// serving shapes stop over-allocating: steady-state GEMMs allocate
/// nothing — the `linalg.pack_scratch_grow` trace counter proves it.
/// A `Packed` B requests zero B scratch.
///
/// `variant` must already be resolved via
/// [`KernelVariant::resolve_supported`] and `blocking` normalized.
// me-verify: hot
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_packed_panel<A: GemmOperand>(
    variant: KernelVariant,
    blocking: Blocking,
    alpha: A::Elem,
    a: &A,
    k: usize,
    b: &BOperand<'_, A>,
    beta: A::Elem,
    c: &mut MatMut<'_, A::Elem>,
    r0: usize,
) {
    let rows = c.rows();
    let n = c.cols();
    scale_by_beta(c.as_mut_slice(), beta);
    if rows == 0 || n == 0 || k == 0 {
        return;
    }
    me_trace::counter_add(A::counter(variant), 1);
    let Blocking { mc: mc_blk, kc: kc_blk, nc: nc_blk } = blocking;
    let unit_alpha = alpha == A::Elem::ONE;
    let a_len = mc_blk.div_ceil(MR) * MR * kc_blk.min(k);
    let b_len = match b {
        BOperand::Packed(_) => 0,
        _ => nc_blk.min(n).div_ceil(NR) * NR * kc_blk.min(k),
    };
    crate::mat::with_pack_scratch::<A::Elem, _>(a_len, b_len, |apack, bpack| {
        for (bj, jb) in (0..n).step_by(nc_blk).enumerate() {
            let ncb = nc_blk.min(n - jb);
            let ntiles_n = ncb.div_ceil(NR);
            for (bk, kb) in (0..k).step_by(kc_blk).enumerate() {
                let kc = kc_blk.min(k - kb);
                let bpanel: &[A::Elem] = match *b {
                    BOperand::Packed(p) => p.panel(bj, bk),
                    BOperand::Fresh(bm) => {
                        let _t = me_trace::span("gemm.pack_b", "linalg");
                        pack_b(bm, kb, kc, jb, ncb, &mut bpack[..ntiles_n * NR * kc]);
                        &bpack[..ntiles_n * NR * kc]
                    }
                    BOperand::Transposed(bt) => {
                        let _t = me_trace::span("gemm.pack_b", "linalg");
                        pack_bt(bt, kb, kc, jb, ncb, &mut bpack[..ntiles_n * NR * kc]);
                        &bpack[..ntiles_n * NR * kc]
                    }
                };
                for ib in (0..rows).step_by(mc_blk) {
                    let mc = mc_blk.min(rows - ib);
                    {
                        let _t = me_trace::span("gemm.pack_a", "linalg");
                        pack_a(a, r0 + ib, mc, kb, kc, apack);
                    }
                    // One span per MC block (not per micro-tile: the tile loop
                    // is too hot); covers the kernel and its write-back.
                    let _t = me_trace::span("gemm.micro_kernel", "linalg");
                    for it in 0..mc.div_ceil(MR) {
                        let ap = &apack[it * MR * kc..(it + 1) * MR * kc];
                        let mr = MR.min(mc - it * MR);
                        for jt in 0..ntiles_n {
                            let bp = &bpanel[jt * NR * kc..jt * NR * kc + NR * kc];
                            let acc = ukernel::micro_kernel(variant, ap, bp, kc);
                            let j0 = jb + jt * NR;
                            let nc = NR.min(n - j0);
                            for (r, accr) in acc.iter().enumerate().take(mr) {
                                let crow = &mut c.row_mut(ib + it * MR + r)[j0..j0 + nc];
                                // `av + cv` is bitwise `1·av + cv` fused (the
                                // product is exact) without a libm call.
                                if unit_alpha {
                                    for (cv, &av) in crow.iter_mut().zip(accr) {
                                        *cv = av + *cv;
                                    }
                                } else {
                                    for (cv, &av) in crow.iter_mut().zip(accr) {
                                        *cv = alpha.mul_add(av, *cv);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Symmetric rank-k update `C ← α·A·Aᵀ + β·C` (lower triangle written).
pub fn syrk_lower<T: Scalar>(alpha: T, a: &Mat<T>, beta: T, c: &mut Mat<T>) {
    let (n, k) = a.shape();
    assert_eq!(c.rows(), n, "syrk: C rows mismatch");
    assert_eq!(c.cols(), n, "syrk: C cols mismatch");
    for i in 0..n {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for p in 0..k {
                acc = a[(i, p)].mul_add(a[(j, p)], acc);
            }
            c[(i, j)] = alpha.mul_add(acc, beta * c[(i, j)]);
        }
    }
}

/// Triangular solve with multiple right-hand sides:
/// `B ← L⁻¹·B` for lower-triangular `L` (unit diagonal optional).
pub fn trsm_lower_left<T: Scalar>(unit_diag: bool, l: &Mat<T>, b: &mut Mat<T>) {
    let n = l.rows();
    assert_eq!(l.cols(), n, "trsm: L must be square");
    assert_eq!(b.rows(), n, "trsm: B rows mismatch");
    let ncols = b.cols();
    for i in 0..n {
        for p in 0..i {
            let lip = l[(i, p)];
            // b.row(i) -= lip * b.row(p): split borrow via index math.
            for j in 0..ncols {
                let v = b[(p, j)];
                b[(i, j)] = (-lip).mul_add(v, b[(i, j)]);
            }
        }
        if !unit_diag {
            let d = l[(i, i)];
            for j in 0..ncols {
                b[(i, j)] = b[(i, j)] / d;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64) -> Mat<f64> {
        // Simple deterministic LCG so tests need no rand dependency wiring.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn all_variants_agree_small() {
        let a = mk(7, 5, 1);
        let b = mk(5, 9, 2);
        let c0 = mk(7, 9, 3);

        let mut c_ref = c0.clone();
        gemm_naive(1.5, &a, &b, 0.5, &mut c_ref);

        for algo in [GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = c0.clone();
            gemm(algo, 1.5, &a, &b, 0.5, &mut c);
            assert!(
                c.max_abs_diff(&c_ref) < 1e-12,
                "{algo:?} disagrees with naive by {}",
                c.max_abs_diff(&c_ref)
            );
        }
    }

    #[test]
    fn all_variants_agree_larger() {
        let a = mk(70, 130, 4);
        let b = mk(130, 61, 5);
        let c0 = mk(70, 61, 6);
        let mut c_ref = c0.clone();
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        for algo in [GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
            let mut c = c0.clone();
            gemm(algo, 1.0, &a, &b, 0.0, &mut c);
            assert!(c.max_abs_diff(&c_ref) < 1e-10, "{algo:?} mismatch");
        }
    }

    #[test]
    fn edge_shape_grid_is_bitwise_across_variants() {
        // m/n/k ∈ {0, 1, MR−1, MR, MR+1, NR−1, NR, NR+1}: every register-
        // tile boundary, with partial tiles on both sides of each edge.
        //
        // Bitwise (not tolerance) comparison against naive is valid on
        // this grid: k ≤ NR+1 < KC means a single k-chunk, so the packed
        // micro-kernel performs the same ascending-k mul_add chain per
        // element as the naive triple loop, and both finish with
        // `alpha.mul_add(acc, beta*c)` (the up-front `c *= beta` commutes
        // bitwise with `beta * c`). Tiled == Parallel is the fixed-kernel
        // guarantee and must hold bitwise for *any* shape.
        let dims = [0usize, 1, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1];
        for &m in &dims {
            for &n in &dims {
                for &k in &dims {
                    let seed = (m * 100 + n * 10 + k) as u64;
                    let a = mk(m, k, seed + 1);
                    let b = mk(k, n, seed + 1000);
                    let c0 = mk(m, n, seed + 2000);
                    let mut c_ref = c0.clone();
                    gemm_naive(1.5, &a, &b, 0.5, &mut c_ref);
                    for algo in [GemmAlgo::Tiled, GemmAlgo::Parallel] {
                        let mut c = c0.clone();
                        gemm(algo, 1.5, &a, &b, 0.5, &mut c);
                        assert!(
                            c.as_slice() == c_ref.as_slice(),
                            "{algo:?} not bitwise-equal to naive at m={m} n={n} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_identity() {
        let a = mk(6, 6, 9);
        let i = Mat::<f64>::eye(6);
        let mut c = Mat::zeros(6, 6);
        gemm(GemmAlgo::Tiled, 1.0, &a, &i, 0.0, &mut c);
        assert!(c.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn gemm_beta_only() {
        // alpha = 0 leaves beta * C.
        let a = Mat::<f64>::zeros(3, 3);
        let b = Mat::<f64>::zeros(3, 3);
        let mut c = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        let expect = c.map(|x| 2.0 * x);
        gemm(GemmAlgo::Blocked, 0.0, &a, &b, 2.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-15);
    }

    #[test]
    fn gemm_degenerate_dims() {
        // Empty inner dimension: C <- beta*C.
        let a = Mat::<f64>::zeros(3, 0);
        let b = Mat::<f64>::zeros(0, 2);
        let mut c = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        let expect = c.clone();
        gemm(GemmAlgo::Tiled, 1.0, &a, &b, 1.0, &mut c);
        assert!(c.max_abs_diff(&expect) < 1e-15);
        // Zero-row output.
        let a = Mat::<f64>::zeros(0, 4);
        let b = Mat::<f64>::zeros(4, 2);
        let mut c = Mat::<f64>::zeros(0, 2);
        gemm(GemmAlgo::Parallel, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn parallel_respects_thread_counts() {
        let a = mk(33, 17, 11);
        let b = mk(17, 29, 12);
        let mut c_ref = Mat::zeros(33, 29);
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        for threads in [1, 2, 3, 8] {
            let mut c = Mat::zeros(33, 29);
            let plan = GemmPlan::new(selected_kernel()).with_workers(Workers::Threads(threads));
            plan.run(1.0, &a, &b, 0.0, &mut c);
            assert!(c.max_abs_diff(&c_ref) < 1e-11, "threads={threads}");
        }
    }

    /// Result bits, widened to f64 (exact for f32, sign of zero kept).
    fn bits<T: Scalar>(m: &Mat<T>) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
    }

    /// One fixture of the packed-core suite: operands of one kind, B in
    /// all three sources' forms, and the C and coefficients to run with.
    struct Case<A: GemmOperand> {
        a: A,
        b: A,
        bt: A,
        b_elems: Mat<A::Elem>,
        c0: Mat<A::Elem>,
        alpha: A::Elem,
        beta: A::Elem,
    }

    fn f64_case(a: Mat<f64>, b: Mat<f64>, c0: Mat<f64>, alpha: f64, beta: f64) -> Case<Mat<f64>> {
        Case { bt: b.transpose(), b_elems: b.clone(), a, b, c0, alpha, beta }
    }

    fn half_case(
        kind: HalfKind,
        a: &Mat<f32>,
        b: &Mat<f32>,
        c0: Mat<f32>,
        alpha: f32,
        beta: f32,
    ) -> Case<HalfMat> {
        let hb = HalfMat::from_f32(kind, b);
        Case {
            a: HalfMat::from_f32(kind, a),
            bt: HalfMat::from_f32(kind, &hb.widen().transpose()),
            b_elems: hb.widen(),
            b: hb,
            c0,
            alpha,
            beta,
        }
    }

    impl<A: GemmOperand> Case<A> {
        /// The scalar-kernel serial fresh-B run every cell must reproduce.
        fn reference(&self) -> Mat<A::Elem> {
            let mut c = self.c0.clone();
            let plan = GemmPlan::new(KernelVariant::Scalar);
            plan.run(self.alpha, &self.a, &self.b, self.beta, &mut c);
            c
        }

        /// Every available variant × workers (serial, `threads`, explicit
        /// pools of width `pools`) × B source (fresh, transposed,
        /// prepacked under the variant's blocking) must give `want`'s bits.
        fn assert_grid(&self, label: &str, threads: &[usize], pools: &[usize], want: &Mat<A::Elem>) {
            let pools: Vec<me_par::WorkerPool> =
                pools.iter().map(|&t| me_par::WorkerPool::new(t)).collect();
            let workers: Vec<Workers<'_>> = std::iter::once(Workers::Threads(1))
                .chain(threads.iter().map(|&t| Workers::Threads(t)))
                .chain(pools.iter().map(Workers::Pool))
                .collect();
            for v in available_variants() {
                let packed = pack_b_matrix(&self.b_elems, blocking_for(v));
                for w in &workers {
                    let sources = [
                        ("fresh", BOperand::Fresh(&self.b)),
                        ("transposed", BOperand::Transposed(&self.bt)),
                        ("prepacked", BOperand::Packed(&packed)),
                    ];
                    for (src, b) in sources {
                        let mut c = self.c0.clone();
                        let plan = GemmPlan::new(v).with_workers(*w);
                        plan.run(self.alpha, &self.a, b, self.beta, &mut c);
                        assert_eq!(bits(&c), bits(want), "{label}: {v} {src} B on {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_core_is_bitwise_across_operands_sources_variants_and_workers() {
        // Every packed GEMM is one GemmPlan run, so one suite covers them
        // all. Each fixture keeps the shape, seeds, coefficients and
        // thread set of the per-entry-point check it stands for.
        //
        // f64, 67×91×45, the serial/parallel partition invariance.
        let case = f64_case(mk(67, 91, 31), mk(91, 45, 32), mk(67, 45, 33), 1.25, -0.5);
        case.assert_grid("f64 threads", &[1, 2, 3, 4, 7, 16], &[], &case.reference());
        // f64, 67×91×45, every variant against the scalar kernel.
        let case = f64_case(mk(67, 91, 131), mk(91, 45, 132), mk(67, 45, 133), 1.25, -0.5);
        case.assert_grid("f64 variants", &[2, 8], &[], &case.reference());
        // f64, 13×37×29, prepacked vs fresh, serial and on a width-3 pool.
        let case = f64_case(mk(13, 37, 71), mk(37, 29, 72), mk(13, 29, 73), 1.25, -0.5);
        case.assert_grid("f64 prepacked", &[], &[3], &case.reference());
        // f64, 9×6×7 on a pool wider than the number of MR panels: the
        // extra workers idle instead of misindexing.
        let case = f64_case(mk(9, 6, 41), mk(6, 7, 42), Mat::zeros(9, 7), 1.0, 0.0);
        case.assert_grid("f64 wide pool", &[], &[16], &case.reference());
        // Ragged row splits: m % threads != 0, m < threads (serial
        // fallback, m < 2·MR), a single partial NR tile, an odd count.
        for (m, k, n, threads) in [(13, 7, 5, 4), (3, 9, 4, 8), (29, 5, 1, 3), (64, 16, 8, 5)] {
            let a = mk(m, k, (m * 31 + n) as u64);
            let b = mk(k, n, (k * 17 + threads) as u64);
            let case = f64_case(a, b, mk(m, n, 77), 1.0, 1.0);
            case.assert_grid(&format!("f64 split {m}x{k}x{n}"), &[threads], &[], &case.reference());
        }
        // Half storage, 37×23×19, against the scalar serial run.
        let (a, b) = (seeded_f32(37, 23, 5), seeded_f32(23, 19, 6));
        for kind in HalfKind::ALL {
            let case = half_case(kind, &a, &b, Mat::zeros(37, 19), 1.0, 0.0);
            case.assert_grid(&format!("{kind} threads"), &[1, 2, 3, 5], &[], &case.reference());
        }
        // Half storage, 13×31×17: the widening-pack contract — bitwise
        // equal to the f32 GEMM on the pre-widened operands, which runs
        // the same grid itself.
        let (a, b, c0) = (seeded_f32(13, 31, 2), seeded_f32(31, 17, 3), seeded_f32(13, 17, 4));
        for kind in HalfKind::ALL {
            let case = half_case(kind, &a, &b, c0.clone(), 1.5, 0.5);
            let wide = Case {
                a: case.a.widen(),
                b: case.b_elems.clone(),
                bt: case.b_elems.transpose(),
                b_elems: case.b_elems.clone(),
                c0: c0.clone(),
                alpha: 1.5f32,
                beta: 0.5f32,
            };
            let want = wide.reference();
            wide.assert_grid(&format!("f32 widened {kind}"), &[2], &[], &want);
            case.assert_grid(&format!("{kind} widened"), &[2], &[], &want);
        }
    }

    fn seeded_f32(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut rng = me_numerics::Rng64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| (rng.next_f64() * 4.0 - 2.0) as f32)
    }

    #[test]
    fn beta_zero_overwrites_non_finite_c() {
        // Reference-DGEMM semantics: with β = 0 the old C is never read,
        // so NaN or ±Inf in it must not survive. Each call on a poisoned
        // C must give the bits of the same call on a zeroed C.
        fn same_as_zeroed<T: Scalar>(label: &str, poison: T, run: &dyn Fn(&mut Mat<T>)) {
            let mut zeroed = Mat::zeros(16, 16);
            run(&mut zeroed);
            let mut poisoned = Mat::from_fn(16, 16, |_, _| poison);
            run(&mut poisoned);
            assert_eq!(bits(&poisoned), bits(&zeroed), "{label} with C = {poison}");
        }
        let (a, b) = (mk(16, 16, 91), mk(16, 16, 92));
        let (a32, b32) = (seeded_f32(16, 16, 93), seeded_f32(16, 16, 94));
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for algo in [GemmAlgo::Naive, GemmAlgo::Blocked, GemmAlgo::Tiled, GemmAlgo::Parallel] {
                same_as_zeroed(&format!("{algo:?}"), poison, &|c| gemm(algo, 1.5, &a, &b, 0.0, c));
            }
            for v in available_variants() {
                let packed = pack_b_matrix(&b, blocking_for(v));
                for t in [1, 3] {
                    let plan = GemmPlan::new(v).with_workers(Workers::Threads(t));
                    same_as_zeroed(&format!("{v} fresh t={t}"), poison, &|c| {
                        plan.run(1.5, &a, &b, 0.0, c)
                    });
                    same_as_zeroed(&format!("{v} prepacked t={t}"), poison, &|c| {
                        plan.run(1.5, &a, &packed, 0.0, c)
                    });
                    for kind in HalfKind::ALL {
                        let ha = HalfMat::from_f32(kind, &a32);
                        let hb = HalfMat::from_f32(kind, &b32);
                        same_as_zeroed(&format!("{v} {kind} t={t}"), poison as f32, &|c| {
                            plan.run(1.5, &ha, &hb, 0.0, c)
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_is_deterministic_across_runs() {
        // Same seeded inputs, repeated runs, fixed thread count: the
        // result bytes must never vary (no scheduling-order dependence).
        let a = mk(40, 33, 51);
        let b = mk(33, 22, 52);
        let plan = GemmPlan::new(selected_kernel()).with_workers(Workers::Threads(4));
        let mut first = Mat::zeros(40, 22);
        plan.run(1.0, &a, &b, 0.0, &mut first);
        for _ in 0..5 {
            let mut c = Mat::zeros(40, 22);
            plan.run(1.0, &a, &b, 0.0, &mut c);
            assert_eq!(c.as_slice(), first.as_slice());
        }
    }

    #[test]
    fn unsupported_variant_request_still_correct() {
        // Requesting Avx2 must work everywhere: honored when detected,
        // degraded to Scalar otherwise — never a fault, and always the
        // same bits either way.
        let a = mk(20, 33, 141);
        let b = mk(33, 17, 142);
        let mut c_ref = Mat::zeros(20, 17);
        GemmPlan::new(KernelVariant::Scalar).run(1.0, &a, &b, 0.0, &mut c_ref);
        let mut c = Mat::zeros(20, 17);
        GemmPlan::new(KernelVariant::Avx2).run(1.0, &a, &b, 0.0, &mut c);
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn tiled_applies_mc_blocking_beyond_one_block() {
        // m > mc exercises the MC cache-block loop.
        let mc = Blocking::DEFAULT.mc;
        let a = mk(2 * mc + 5, 37, 61);
        let b = mk(37, 19, 62);
        let mut c_ref = Mat::zeros(2 * mc + 5, 19);
        gemm_naive(1.0, &a, &b, 0.0, &mut c_ref);
        let mut c = Mat::zeros(2 * mc + 5, 19);
        gemm(GemmAlgo::Tiled, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&c_ref) < 1e-10);
    }

    #[test]
    fn non_default_blocking_reorders_but_small_kc_changes_grid() {
        // mc/nc moves must never change a bit; a kc change regroups the
        // FMA chain (numerically observable but still correct).
        let a = mk(40, 300, 81);
        let b = mk(300, 33, 82);
        let c0 = mk(40, 33, 83);
        let plan = |blocking| GemmPlan::new(KernelVariant::Scalar).with_blocking(blocking);
        let mut c_ref = c0.clone();
        plan(Blocking::DEFAULT).run(1.0, &a, &b, 1.0, &mut c_ref);
        let mut c = c0.clone();
        plan(Blocking { mc: 8, kc: 256, nc: 16 }).run(1.0, &a, &b, 1.0, &mut c);
        assert_eq!(c.as_slice(), c_ref.as_slice(), "mc/nc must be bitwise-invisible");
        let mut c = c0.clone();
        plan(Blocking { mc: 64, kc: 128, nc: 4096 }).run(1.0, &a, &b, 1.0, &mut c);
        assert!(c.max_abs_diff(&c_ref) < 1e-10, "kc change must stay numerically correct");
    }

    #[test]
    fn syrk_matches_gemm_with_transpose() {
        let a = mk(6, 4, 21);
        let at = a.transpose();
        let mut full = Mat::zeros(6, 6);
        gemm_naive(1.0, &a, &at, 0.0, &mut full);
        let mut c = Mat::zeros(6, 6);
        syrk_lower(1.0, &a, 0.0, &mut c);
        for i in 0..6 {
            for j in 0..=i {
                assert!((c[(i, j)] - full[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn trsm_solves_lower_system() {
        // L = [[2,0],[1,3]], B = L * X with X = [[1,2],[3,4]]
        let l = Mat::from_vec(2, 2, vec![2.0, 0.0, 1.0, 3.0]);
        let x = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut b = Mat::zeros(2, 2);
        gemm_naive(1.0, &l, &x, 0.0, &mut b);
        trsm_lower_left(false, &l, &mut b);
        assert!(b.max_abs_diff(&x) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_checks() {
        let a = Mat::<f64>::zeros(2, 3);
        let b = Mat::<f64>::zeros(4, 2);
        let mut c = Mat::<f64>::zeros(2, 2);
        gemm(GemmAlgo::Naive, 1.0, &a, &b, 0.0, &mut c);
    }
}
