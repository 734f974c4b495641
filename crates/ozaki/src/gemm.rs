//! The Ozaki-scheme pipeline (steps 2–3 of the scheme), written once for
//! every substrate.
//!
//! `run` is the whole scheme: split both operands, pack each slice
//! **once** into the engine's element type (line-major, B transposed so
//! each column streams contiguously), then fold the slice-pair products
//! into a row panel of accumulators in a fixed `(p, q) → k-chunk →
//! element` order. What differs between substrates — the slice element,
//! its exact narrowing, the engine's formats and the chunk call — comes
//! from a `SliceEngine` ([`crate::engine`]). Because the per-element order never depends on
//! the row partition or the engine, a run fanned over a
//! [`me_par::WorkerPool`] is bitwise identical to the serial run, and
//! engines whose chunk sums are exact agree bit for bit at a matched β.

use crate::engine::{Simulated, SliceEngine};
use crate::split::{
    ceil_log2, required_beta, split_cols, split_cols_parallel, split_rows, split_rows_parallel,
    SplitMatrix,
};
use me_linalg::Mat;
use me_numerics::formats::pow2;
use me_numerics::sum::Accumulator;

/// Target accuracy / truncation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetAccuracy {
    /// Keep slicing until the residual is exactly zero and compute the full
    /// all-to-all product: the result is the error-free product rounded
    /// once at the end ("most accurate" mode of the paper).
    Exact,
    /// Slice and truncate so the result matches what a correctly-functioning
    /// DGEMM would produce (~f64-accuracy): slices cover `53 + ⌈log₂k⌉`
    /// bits below each line's maximum, and slice pairs with
    /// `p + q ≥ cutoff` are skipped.
    DgemmEquivalent,
    /// Like `DgemmEquivalent` but targeting f32 (SGEMM) accuracy:
    /// `24 + ⌈log₂k⌉` bits.
    SgemmEquivalent,
}

impl TargetAccuracy {
    /// Significand bits of the emulated format: 24 for SGEMM, 53 otherwise.
    pub(crate) fn precision(self) -> u32 {
        match self {
            TargetAccuracy::SgemmEquivalent => 24,
            TargetAccuracy::Exact | TargetAccuracy::DgemmEquivalent => 53,
        }
    }
}

/// Configuration of an emulated GEMM: the formats the slicing may assume
/// and the accuracy target. One config serves every substrate; each
/// engine clamps the two precisions to its own formats.
#[derive(Debug, Clone, Copy)]
pub struct OzakiConfig {
    /// Precision (significand bits incl. implicit bit) of the multiply
    /// format: 11 for f16 Tensor Cores. Engines clamp it to their own
    /// (f16: 11, i8: 6).
    pub mul_precision: u32,
    /// Precision of the accumulator: 24 for f32 accumulation. Engines
    /// clamp it to their own (f32: 24, i32: 31).
    pub acc_precision: u32,
    /// Accuracy target.
    pub target: TargetAccuracy,
    /// Hard cap on slices per operand (safety bound).
    pub max_slices: usize,
    /// Inner-dimension blocking: the engine accumulates at most `k_block`
    /// products in its narrow accumulator before the partial result is
    /// folded into the f64 accumulation. The published DGEMM-TC does the
    /// same — it lets β grow (`required_beta(k_block)` instead of
    /// `required_beta(k)`), reducing the slice count for large k.
    pub k_block: usize,
}

impl Default for OzakiConfig {
    fn default() -> Self {
        // V100 Tensor Core: f16 multiply, f32 accumulate.
        OzakiConfig {
            mul_precision: 11,
            acc_precision: 24,
            target: TargetAccuracy::DgemmEquivalent,
            max_slices: 128,
            k_block: 256,
        }
    }
}

/// The slice schedule of one GEMM, as [`crate::OzakiBackend::schedule`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Slice bit width β.
    pub beta: u32,
    /// Slices per operand at most.
    pub budget: usize,
    /// Slice pairs `(p, q)` with `p + q ≥ cutoff` are skipped.
    pub cutoff: usize,
}

impl OzakiConfig {
    /// Tensor-core configuration at DGEMM-equivalent accuracy
    /// (the paper's "DGEMM-TC").
    pub fn dgemm_tc() -> Self {
        Self::default()
    }

    /// Tensor-core configuration at SGEMM-equivalent accuracy ("SGEMM-TC").
    pub fn sgemm_tc() -> Self {
        OzakiConfig { target: TargetAccuracy::SgemmEquivalent, ..Self::default() }
    }

    /// Bits of accuracy the target requires below each line maximum;
    /// `None` for [`TargetAccuracy::Exact`].
    pub(crate) fn target_bits(&self, k: usize) -> Option<u32> {
        match self.target {
            TargetAccuracy::Exact => None,
            t => Some(t.precision() + ceil_log2(k.max(1)) + 2),
        }
    }

    /// Slice budget and pair cutoff derived from the target bits: each
    /// extraction advances at least β bits, so covering `target_bits` needs
    /// `⌈target/β⌉` slices (plus guard), and slice pairs `(p, q)` with
    /// `p + q` beyond the same depth contribute below the target.
    pub fn budget_and_cutoff(&self, k: usize, beta: u32) -> (usize, usize) {
        match self.target_bits(k) {
            None => (self.max_slices, usize::MAX),
            Some(bits) => {
                let depth = (bits as usize).div_ceil(beta as usize);
                (depth.saturating_add(2).min(self.max_slices), depth.saturating_add(1))
            }
        }
    }

    /// The one β/budget/cutoff decision, for inner dimension `k` on an
    /// engine whose formats hold `(mul, acc)` significand bits.
    ///
    /// β is [`required_beta`] over one engine call (`min(k, k_block)`
    /// products), with the config's precisions clamped to the engine's:
    /// asking for more than the engine has would pick a β whose chunk
    /// sums the engine cannot hold exactly.
    pub(crate) fn schedule(&self, k: usize, (mul, acc): (u32, u32)) -> Schedule {
        let k_eff = k.max(1).min(self.k_block.max(1));
        let beta = required_beta(k_eff, self.acc_precision.min(acc), self.mul_precision.min(mul));
        let (budget, cutoff) = self.budget_and_cutoff(k, beta);
        Schedule { beta, budget, cutoff }
    }
}

/// Result of an Ozaki-scheme GEMM, with the counters the performance
/// model (Table VIII) needs.
#[derive(Debug, Clone)]
pub struct OzakiReport {
    /// The computed product.
    pub c: Mat<f64>,
    /// Number of slices of A.
    pub s_a: usize,
    /// Number of slices of B.
    pub s_b: usize,
    /// Slice-pair GEMMs actually executed on the engine.
    pub products_computed: usize,
    /// Slice pairs skipped by the accuracy cutoff.
    pub products_skipped: usize,
    /// Engine calls (slice pairs × k-chunks) — a property of the
    /// schedule, identical for every partition and kernel variant.
    pub engine_calls: usize,
    /// Slice bit width β.
    pub beta: u32,
    /// Whether both splits were exact decompositions.
    pub split_exact: bool,
}

/// Emulated high-precision GEMM `C = A·B` via the Ozaki scheme on the
/// simulated f16-multiply/f32-accumulate matrix engine, serial.
///
/// The slice-pair products run in genuine `f32` arithmetic on
/// integer-valued matrices — bit-exact for the same reason Tensor-Core
/// f32 accumulation is — and are recombined in f64 with a deterministic
/// double-double accumulator, so the result is bitwise reproducible.
pub fn ozaki_gemm(a: &Mat<f64>, b: &Mat<f64>, cfg: &OzakiConfig) -> OzakiReport {
    run(a, b, cfg, &Simulated, None)
}

/// The pipeline, for every substrate, with DGEMM's value classes at the
/// edges of the input domain.
///
/// Slicing only represents finite values, so a row of A or a column of B
/// that holds ±Inf or NaN is marked and replaced by a zero line before
/// the split (`narrow` never sees a non-finite value). Every C entry that
/// touches a marked line is then recomputed as an ascending-k f64
/// `mul_add` dot over the original values, which yields the NaN/±Inf
/// pattern a DGEMM gives. Finite inputs take none of this: their result is
/// exactly the scheme's.
pub(crate) fn run<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    cfg: &OzakiConfig,
    engine: &E,
    pool: Option<&me_par::WorkerPool>,
) -> OzakiReport {
    assert_eq!(a.cols(), b.rows(), "ozaki_gemm: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let bad_rows: Vec<bool> = (0..m).map(|i| a.row(i).iter().any(|x| !x.is_finite())).collect();
    let mut bad_cols = vec![false; n];
    for p in 0..k {
        for (bad, x) in bad_cols.iter_mut().zip(b.row(p)) {
            *bad |= !x.is_finite();
        }
    }
    if !bad_rows.contains(&true) && !bad_cols.contains(&true) {
        return run_finite(a, b, cfg, engine, pool);
    }
    let a0 = Mat::from_fn(m, k, |i, p| if bad_rows[i] { 0.0 } else { a[(i, p)] });
    let b0 = Mat::from_fn(k, n, |p, j| if bad_cols[j] { 0.0 } else { b[(p, j)] });
    let mut report = run_finite(&a0, &b0, cfg, engine, pool);
    for i in 0..m {
        for j in (0..n).filter(|&j| bad_rows[i] || bad_cols[j]) {
            report.c[(i, j)] = (0..k).fold(0.0, |acc, p| a[(i, p)].mul_add(b[(p, j)], acc));
        }
    }
    report
}

/// The scheme on finite operands: split, pack each slice once into the
/// engine's element type, then fold slice-pair engine calls into
/// per-element accumulators — over the whole matrix (serial) or over
/// disjoint row panels of the accumulator grid, one pool job per panel.
fn run_finite<E: SliceEngine>(
    a: &Mat<f64>,
    b: &Mat<f64>,
    cfg: &OzakiConfig,
    engine: &E,
    pool: Option<&me_par::WorkerPool>,
) -> OzakiReport {
    let (m, k) = a.shape();
    let n = b.cols();
    let Schedule { beta, budget, cutoff } = cfg.schedule(k, engine.widths());
    let names = &E::TRACE;

    let split_span = me_trace::span(names.split, "ozaki");
    let (sa, sb) = match pool {
        Some(p) => {
            (split_rows_parallel(a, beta, budget, p), split_cols_parallel(b, beta, budget, p))
        }
        None => (split_rows(a, beta, budget), split_cols(b, beta, budget)),
    };
    let (pa, pb) = (pack::<E>(&sa), pack::<E>(&sb));
    drop(split_span);
    me_trace::counter_add(names.slices_a, sa.len() as u64);
    me_trace::counter_add(names.slices_b, sb.len() as u64);

    // The pair schedule is a property of the slice counts and the cutoff,
    // never of the partition: count it once.
    let computed: usize = (0..sa.len()).map(|p| sb.len().min(cutoff.saturating_sub(p))).sum();
    let skipped = sa.len() * sb.len() - computed;
    let kb = cfg.k_block.max(1);
    let engine_calls = computed * k.div_ceil(kb);
    me_trace::counter_add(names.products_computed, computed as u64);
    me_trace::counter_add(names.products_skipped, skipped as u64);
    me_trace::counter_add(names.engine_calls, engine_calls as u64);

    let fold =
        Fold { a: &pa, a_exp: &sa.scale_exp, b: &pb, b_exp: &sb.scale_exp, beta, k, n, kb, cutoff };
    let mut acc = vec![Accumulator::new(); m * n];
    match pool {
        Some(pl) if pl.threads() > 1 && m >= 2 && n > 0 => {
            let rows_per = m.div_ceil(pl.threads());
            let mut panels: Vec<(usize, &mut [Accumulator])> = acc
                .chunks_mut(rows_per * n)
                .enumerate()
                .map(|(t, chunk)| (t * rows_per, chunk))
                .collect();
            pl.for_each_mut(&mut panels, |_, (r0, panel)| fold.row_panel(engine, *r0, panel));
        }
        _ => fold.row_panel(engine, 0, &mut acc),
    }

    let mut c = Mat::zeros(m, n);
    for (out, ac) in c.as_mut_slice().iter_mut().zip(&acc) {
        *out = ac.value();
    }
    OzakiReport {
        c,
        s_a: sa.len(),
        s_b: sb.len(),
        products_computed: computed,
        products_skipped: skipped,
        engine_calls,
        beta,
        split_exact: sa.complete && sb.complete,
    }
}

/// Pack every slice of a split into engine panels:
/// `panel[li][p] = narrow(slice[li][p] · 2^(β − exp[line]))`, line-major
/// (rows of A; columns of B, so the B panel comes out transposed, n×k).
/// Every scaled value is an integer of magnitude ≤ 2^β by the split
/// invariant, which each engine's narrowing holds exactly.
fn pack<E: SliceEngine>(s: &SplitMatrix) -> Vec<Vec<E::Elem>> {
    let beta = s.beta as i32;
    s.slices
        .iter()
        .zip(&s.scale_exp)
        .map(|(slice, exps)| {
            let line_len = if s.by_rows { slice.cols() } else { slice.rows() };
            let mut buf = vec![E::Elem::default(); exps.len() * line_len];
            for (li, (line, &e)) in buf.chunks_mut(line_len.max(1)).zip(exps).enumerate() {
                let se = beta - e;
                for (p, out) in line.iter_mut().enumerate() {
                    let v = if s.by_rows { slice[(li, p)] } else { slice[(p, li)] };
                    if v == 0.0 {
                        continue;
                    }
                    // Subnormal lines need `2^(β − e)` beyond f64 range:
                    // split the scaling so each step stays representable
                    // (both exact).
                    let x = if se > 1023 {
                        (v * pow2(1023)) * pow2(se - 1023)
                    } else {
                        v * pow2_checked(se)
                    };
                    *out = E::narrow(x);
                }
            }
            buf
        })
        .collect()
}

/// The packed operands and schedule one accumulator fold reads.
struct Fold<'a, T> {
    a: &'a [Vec<T>],
    a_exp: &'a [Vec<i32>],
    b: &'a [Vec<T>],
    b_exp: &'a [Vec<i32>],
    beta: u32,
    k: usize,
    n: usize,
    kb: usize,
    cutoff: usize,
}

impl<T> Fold<'_, T> {
    /// Fold every scheduled slice-pair engine call into the accumulator
    /// rows `[r0, r0 + acc.len()/n)`.
    ///
    /// The per-element order is `(p, q)` pair (p outer) → k-chunk →
    /// element, with exact-zero chunk sums skipped — identical for every
    /// row partition and engine. Each chunk sum is exact (β is chosen for
    /// it), so what the accumulator receives does not depend on how the
    /// engine ordered the chunk internally.
    fn row_panel<E: SliceEngine<Elem = T>>(&self, engine: &E, r0: usize, acc: &mut [Accumulator]) {
        let (k, n) = (self.k, self.n);
        let rows = acc.len().checked_div(n).unwrap_or(0);
        if rows == 0 || k == 0 {
            return;
        }
        // One span per panel: under a pool this lands on the worker that
        // owns the panel, giving per-lane accumulate phases.
        let _t = me_trace::span(E::TRACE.accumulate, "ozaki");
        let mut tile = vec![E::Sum::default(); rows * n];
        for (p, (pa, ea)) in self.a.iter().zip(self.a_exp).enumerate() {
            for (q, (pb, eb)) in self.b.iter().zip(self.b_exp).enumerate() {
                if p + q >= self.cutoff {
                    continue;
                }
                for k0 in (0..k).step_by(self.kb) {
                    let kc = self.kb.min(k - k0);
                    engine.chunk(rows, n, kc, &pa[r0 * k + k0..], &pb[k0..], k, &mut tile);
                    for (li, (row, out)) in tile.chunks(n).zip(acc.chunks_mut(n)).enumerate() {
                        let e_ai = ea[r0 + li];
                        for ((&s, ac), &e_bj) in row.iter().zip(out).zip(eb) {
                            let s: f64 = s.into();
                            if s == 0.0 {
                                continue;
                            }
                            ac.add(s * pow2_checked(e_ai + e_bj - 2 * self.beta as i32));
                        }
                    }
                }
            }
        }
    }
}

/// Power of two that tolerates the full split exponent range by chaining
/// two `pow2` factors when the exponent exceeds f64's normal range.
pub(crate) fn pow2_checked(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        pow2(e)
    } else if e > 1023 {
        pow2(1023) * pow2(e - 1023)
    } else {
        pow2(-1022) * pow2((e + 1022).max(-1074))
    }
}

/// Ozaki-scheme dot product (paper §IV-B note (2): the scheme extends to
/// BLAS-1/2, letting MEs serve those levels' internals): the 1×k·k×1
/// GEMM on the simulated engine.
pub fn ozaki_dot(x: &[f64], y: &[f64], cfg: &OzakiConfig) -> f64 {
    assert_eq!(x.len(), y.len(), "ozaki_dot: length mismatch");
    let a = Mat::from_vec(1, x.len(), x.to_vec());
    let b = Mat::from_vec(y.len(), 1, y.to_vec());
    ozaki_gemm(&a, &b, cfg).c[(0, 0)]
}

/// Ozaki-scheme matrix-vector product `y = A·x`: the m×k·k×1 GEMM on the
/// simulated engine.
pub fn ozaki_gemv(a: &Mat<f64>, x: &[f64], cfg: &OzakiConfig) -> Vec<f64> {
    assert_eq!(a.cols(), x.len(), "ozaki_gemv: inner dimension mismatch");
    let b = Mat::from_vec(x.len(), 1, x.to_vec());
    ozaki_gemm(a, &b, cfg).c.as_slice().to_vec()
}

/// Reference product computed with doubled-precision dot products
/// (Ogita–Rump–Oishi Dot2): the accuracy yardstick for the tests.
pub fn reference_gemm(a: &Mat<f64>, b: &Mat<f64>) -> Mat<f64> {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut c = Mat::zeros(m, n);
    let mut col = vec![0.0f64; k];
    for j in 0..n {
        for (p, cv) in col.iter_mut().enumerate() {
            *cv = b[(p, j)];
        }
        for i in 0..m {
            c[(i, j)] = me_numerics::eft::dot2(a.row(i), &col);
        }
    }
    c
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::{ozaki_gemm_with, OzakiBackend, Workers};
    use me_linalg::KernelVariant;
    use me_numerics::{max_rel_err, ulp_diff};

    pub(crate) fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0;
            (u - 1.0) * (10.0f64).powf(d * range_decades as f64)
        })
    }

    /// The simulated engine on `threads` workers.
    fn parallel(a: &Mat<f64>, b: &Mat<f64>, cfg: &OzakiConfig, threads: usize) -> OzakiReport {
        let backend = OzakiBackend::SimulatedMe(*cfg);
        ozaki_gemm_with(a, b, &backend, KernelVariant::Scalar, Workers::Threads(threads))
    }

    #[test]
    fn f32_products_are_exact() {
        // The exactness precondition: beta-bit integer dots of length k fit
        // the f32 mantissa. Verify against i64 arithmetic.
        let k = 64;
        let beta = required_beta(k, 24, 11);
        let mask = (1i64 << beta) - 1;
        let mut state = 42u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as i64 & mask) - (mask / 2)
        };
        let xs: Vec<i64> = (0..k).map(|_| next()).collect();
        let ys: Vec<i64> = (0..k).map(|_| next()).collect();
        let exact: i64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let f32sum: f32 = xs.iter().zip(&ys).map(|(&a, &b)| a as f32 * b as f32).sum();
        assert_eq!(f32sum as i64, exact, "f32 accumulation must be exact at beta={beta}");
    }

    #[test]
    fn dgemm_equivalent_accuracy_narrow_range() {
        let a = mk(12, 16, 1, 1);
        let b = mk(16, 10, 2, 1);
        let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let c_ref = reference_gemm(&a, &b);
        let err = max_rel_err(r.c.as_slice(), c_ref.as_slice());
        assert!(err < 1e-14, "DGEMM-equivalent rel err {err}");
        assert!(r.split_exact);
    }

    #[test]
    fn dgemm_equivalent_accuracy_wide_range() {
        let a = mk(8, 12, 3, 8);
        let b = mk(12, 8, 4, 8);
        let r = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let c_ref = reference_gemm(&a, &b);
        // With wide-range inputs the row/column-max-relative truncation
        // bounds the error like real DGEMM's backward error:
        // |err_ij| ≲ eps · k · max|A_i*| · max|B_*j|.
        for i in 0..8 {
            let amax: f64 = (0..12).map(|p| a[(i, p)].abs()).fold(0.0, f64::max);
            for j in 0..8 {
                let bmax: f64 = (0..12).map(|p| b[(p, j)].abs()).fold(0.0, f64::max);
                let scale = amax * bmax * 12.0;
                let e = (r.c[(i, j)] - c_ref[(i, j)]).abs();
                assert!(
                    e <= 1e-13 * scale.max(c_ref[(i, j)].abs()),
                    "({i},{j}): err {e} vs scale {scale}"
                );
            }
        }
    }

    #[test]
    fn sgemm_equivalent_is_cheaper_and_coarser() {
        let a = mk(10, 32, 7, 6);
        let b = mk(32, 10, 8, 6);
        let rd = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        let rs = ozaki_gemm(&a, &b, &OzakiConfig::sgemm_tc());
        assert!(
            rs.products_computed < rd.products_computed,
            "SGEMM-TC must need fewer products ({} vs {})",
            rs.products_computed,
            rd.products_computed
        );
        let c_ref = reference_gemm(&a, &b);
        let err_s = max_rel_err(rs.c.as_slice(), c_ref.as_slice());
        let err_d = max_rel_err(rd.c.as_slice(), c_ref.as_slice());
        assert!(err_d <= err_s, "DGEMM-TC must be at least as accurate");
        assert!(err_s < 1e-5, "SGEMM-equivalent rel err {err_s}");
    }

    #[test]
    fn products_grow_with_input_range() {
        // The Table VIII effect at the algorithm level.
        let cfg = OzakiConfig::dgemm_tc();
        let counts: Vec<usize> = [2, 10, 22]
            .iter()
            .map(|&dec| {
                let a = mk(8, 16, 9, dec);
                let b = mk(16, 8, 10, dec);
                ozaki_gemm(&a, &b, &cfg).products_computed
            })
            .collect();
        assert!(counts[0] <= counts[1] && counts[1] <= counts[2], "{counts:?}");
        assert!(counts[2] > counts[0], "{counts:?}");
    }

    #[test]
    fn dot_and_gemv_front_ends() {
        let x = [1.0, 1e16, -1e16, 3.0];
        let y = [1.0, 1.0, 1.0, 0.5];
        // Naive dot cancels catastrophically; Ozaki recovers 2.5.
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        assert_eq!(ozaki_dot(&x, &y, &cfg), 2.5);

        let a = mk(5, 4, 13, 3);
        let xv = [0.5, -1.5, 2.0, 0.25];
        let yv = ozaki_gemv(&a, &xv, &OzakiConfig::dgemm_tc());
        for (i, &yi) in yv.iter().enumerate() {
            let expect = me_numerics::eft::dot2(a.row(i), &xv);
            assert!((yi - expect).abs() <= 1e-14 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn empty_dot_is_zero() {
        let empty = ozaki_dot(&[], &[], &OzakiConfig::dgemm_tc());
        assert_eq!(empty, 0.0);
    }

    #[test]
    fn parallel_single_thread_delegates() {
        let a = mk(4, 4, 3, 2);
        let b = mk(4, 4, 4, 2);
        let cfg = OzakiConfig::sgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let p = parallel(&a, &b, &cfg, 1);
        assert_eq!(s.c, p.c);
        assert_eq!(s.products_computed, p.products_computed);
    }

    #[test]
    fn parallel_more_threads_than_rows() {
        let a = mk(3, 6, 5, 4);
        let b = mk(6, 3, 6, 4);
        let cfg = OzakiConfig::dgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let p = parallel(&a, &b, &cfg, 64);
        for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn products_computed_matches_analytic_count_at_uneven_splits() {
        // m = 23 over 2/3/5 threads gives uneven row panels (12+11,
        // 8+8+7, 5+5+5+5+3). The pair schedule is a property of the slice
        // depths and the cutoff alone — never of the partition — so the
        // report's counter must equal the closed-form count
        // Σ_p min(s_b, cutoff − p) for every width, and computed + skipped
        // must tile the full s_a × s_b grid.
        let a = mk(23, 17, 21, 9);
        let b = mk(17, 11, 22, 9);
        for cfg in [OzakiConfig::dgemm_tc(), OzakiConfig::sgemm_tc()] {
            let mut counts = Vec::new();
            for threads in [1usize, 2, 3, 5] {
                let r = parallel(&a, &b, &cfg, threads);
                let (_, cutoff) = cfg.budget_and_cutoff(a.cols(), r.beta);
                let analytic: usize = (0..r.s_a).map(|p| r.s_b.min(cutoff.saturating_sub(p))).sum();
                assert_eq!(
                    r.products_computed, analytic,
                    "threads={threads}: counter must match the closed form"
                );
                assert_eq!(
                    r.products_computed + r.products_skipped,
                    r.s_a * r.s_b,
                    "threads={threads}: computed + skipped must tile the pair grid"
                );
                counts.push(r.products_computed);
            }
            assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?} must not vary");
        }
    }

    #[test]
    fn parallel_on_explicit_pool() {
        let a = mk(16, 8, 7, 6);
        let b = mk(8, 5, 8, 6);
        let cfg = OzakiConfig::dgemm_tc();
        let s = ozaki_gemm(&a, &b, &cfg);
        let pool = me_par::WorkerPool::new(4);
        let backend = OzakiBackend::SimulatedMe(cfg);
        let p = ozaki_gemm_with(&a, &b, &backend, KernelVariant::Scalar, Workers::Pool(&pool));
        for (x, y) in s.c.as_slice().iter().zip(p.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn handles_negative_and_mixed_signs() {
        let a = Mat::from_vec(2, 2, vec![-1.5, 2.25, 0.0, -1e-8]);
        let b = Mat::from_vec(2, 2, vec![4.0, -0.5, 1e8, 2.0]);
        let cfg = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        let r = ozaki_gemm(&a, &b, &cfg);
        let c_ref = reference_gemm(&a, &b);
        for (x, y) in r.c.as_slice().iter().zip(c_ref.as_slice()) {
            assert!(ulp_diff(*x, *y) <= 2, "{x} vs {y}");
        }
    }
}
