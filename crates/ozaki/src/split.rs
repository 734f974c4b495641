//! Error-free matrix slicing (step 1 of the Ozaki scheme).

use me_linalg::Mat;
use me_numerics::formats::pow2;

/// The slice bit width β for a given inner dimension `k` and accumulator
/// precision (in bits, e.g. 24 for f32, 53 for f64):
/// the dot product of two β-bit integer slices of length k is bounded by
/// `k · 2^(2β)`, which must stay below `2^acc_p` for exactness, so
/// `β = ⌊(acc_p − 1 − ⌈log₂k⌉) / 2⌋` (one guard bit).
///
/// The result is additionally clamped to the multiply format's precision
/// `mul_p` (a slice must be exactly representable where it is multiplied).
pub fn required_beta(k: usize, acc_p: u32, mul_p: u32) -> u32 {
    let budget = acc_p.saturating_sub(1).saturating_sub(ceil_log2(k.max(1)));
    (budget / 2).clamp(1, mul_p)
}

/// `⌈log₂ k⌉` computed exactly in integer arithmetic (`k ≥ 1`).
///
/// The float route (`(k as f64).log2().ceil()`) silently loses: for
/// `k = 2^53 + 1` the conversion to `f64` rounds to `2^53`, so the ceiling
/// comes back one too small and [`required_beta`] hands out a slice width
/// whose dot products can overflow the accumulator.
pub(crate) fn ceil_log2(k: usize) -> u32 {
    debug_assert!(k >= 1, "ceil_log2: k must be >= 1");
    if k <= 1 {
        0
    } else if k.is_power_of_two() {
        k.trailing_zeros()
    } else {
        usize::BITS - k.leading_zeros()
    }
}

/// One matrix expressed as an exact sum of low-precision slices.
///
/// `slices[p]` holds the p-th extraction; summing all slices elementwise
/// reconstructs the original matrix exactly (when `complete` is true).
/// `scale_exp[p][i]` is the power-of-two exponent `e` such that every
/// element of row (or column) `i` of slice `p` is an integer multiple of
/// `2^(e − β)` with magnitude at most `2^e` — i.e.
/// `slice[p][(i,j)] · 2^(β − e)` is a β-bit integer, exactly representable
/// in the engine's multiply format.
#[derive(Debug, Clone)]
pub struct SplitMatrix {
    /// Slice matrices, highest-order first.
    pub slices: Vec<Mat<f64>>,
    /// Per-slice, per-line scale exponents (lines are rows for A, columns
    /// for B).
    pub scale_exp: Vec<Vec<i32>>,
    /// Slice bit width β used for the extraction.
    pub beta: u32,
    /// Whether the residual reached exactly zero (the split is an exact
    /// decomposition) within the slice budget.
    pub complete: bool,
    /// Whether lines are rows (`true`, for A) or columns (`false`, for B).
    pub by_rows: bool,
}

impl SplitMatrix {
    /// Number of slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if no slices were produced (zero matrix).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Reconstruct the (partial) sum of all slices.
    pub fn reconstruct(&self) -> Mat<f64> {
        let (r, c) = if let Some(first) = self.slices.first() {
            first.shape()
        } else {
            return Mat::zeros(0, 0);
        };
        let mut out = Mat::zeros(r, c);
        for s in &self.slices {
            for (o, v) in out.as_mut_slice().iter_mut().zip(s.as_slice()) {
                *o += *v;
            }
        }
        out
    }
}

/// Ceiling of log2|x| as an exponent: the smallest `e` with `|x| ≤ 2^e`,
/// read in O(1) from the exponent and mantissa bits. `+∞` maps to 1024,
/// one past the largest finite binade (where `f64::MAX` also lands).
fn ceil_exp(x: f64) -> i32 {
    debug_assert!(x != 0.0 && !x.is_nan());
    let bits = x.abs().to_bits();
    let exp = (bits >> 52) as i32;
    let mant = bits & ((1u64 << 52) - 1);
    if exp == 0x7ff {
        1024
    } else if exp == 0 {
        // Subnormal: |x| = mant · 2^-1074, so e = ⌈log2 mant⌉ − 1074.
        64 - (mant - 1).leading_zeros() as i32 - 1074
    } else {
        exp - 1023 + i32::from(mant != 0)
    }
}

fn pow2_safe(e: i32) -> f64 {
    if (-1074..=1023).contains(&e) {
        pow2(e)
    } else if e > 1023 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Extract the top `beta` bits of `x` relative to the binade `2^e`:
/// returns `(hi, lo)` with `x = hi + lo` **exactly**, `hi` an integer
/// multiple of `q = 2^(e − beta)` with `|hi| ≤ 2^e`, and `|lo| ≤ q/2`.
///
/// Rounds directly on the target grid (round-ties-even). Both the quotient
/// rounding and the residual subtraction are exact: `x/q` is an exact
/// power-of-two scaling, `hi` has at most `beta`-bit significand, and the
/// residual `x − hi` is representable (its magnitude is at most `q/2` and
/// it is a multiple of `ulp(x)`), so `fl(x − hi) = x − hi`.
#[inline]
fn extract(x: f64, e: i32, beta: u32) -> (f64, f64) {
    // Clamp the grid at the smallest subnormal: once `2^(e − β)` falls
    // below 2^-1074 every remaining residual is an exact multiple of the
    // clamped grid (all f64 are multiples of the minimum subnormal) and
    // at most `2^e < 2^(β − 1074)` — so the quotient is a tiny exact
    // integer, `hi = x`, and the residual terminates at zero instead of
    // degenerating through a zero divisor.
    let q = pow2_safe((e - beta as i32).max(-1074));
    let hi = (x / q).round_ties_even() * q;
    let lo = x - hi;
    (hi, lo)
}

/// Split `A` by rows into β-bit slices (for the left operand of GEMM).
///
/// `max_slices` bounds the number of extractions; if the residual is not
/// exhausted by then, the result is marked incomplete (lossy), which is the
/// "reduced number of split matrices" mode the paper mentions for
/// DGEMM-equivalent (rather than exact) accuracy.
pub fn split_rows(a: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_lines(a, beta, max_slices, true, None)
}

/// Split `B` by columns into β-bit slices (for the right operand of GEMM).
pub fn split_cols(b: &Mat<f64>, beta: u32, max_slices: usize) -> SplitMatrix {
    split_lines(b, beta, max_slices, false, None)
}

/// [`split_rows`] with the per-line extractions fanned out over `pool`.
///
/// Lines are independent in the Ozaki extraction (a row of A never looks at
/// another row), so the result is **bitwise identical** to the serial split
/// for any pool width.
pub fn split_rows_parallel(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &me_par::WorkerPool,
) -> SplitMatrix {
    split_lines(a, beta, max_slices, true, Some(pool))
}

/// [`split_cols`] with the per-line extractions fanned out over `pool`.
pub fn split_cols_parallel(
    b: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    pool: &me_par::WorkerPool,
) -> SplitMatrix {
    split_lines(b, beta, max_slices, false, Some(pool))
}

/// The β-bit decomposition of one line (row of A / column of B): the
/// per-line unit of work the serial and parallel fronts share.
#[derive(Debug, Default)]
pub(crate) struct LineSplit {
    /// Per-slice values for this line, highest-order first.
    pub vals: Vec<Vec<f64>>,
    /// Per-slice scale exponents (one per entry of `vals`).
    pub exps: Vec<i32>,
    /// Whether the residual reached exactly zero within the budget.
    pub complete: bool,
}

/// Extract up to `max_slices` β-bit slices from one contiguous line.
pub(crate) fn split_line(line: &[f64], beta: u32, max_slices: usize) -> LineSplit {
    let mut rest = line.to_vec();
    let mut out = LineSplit::default();
    for _ in 0..max_slices {
        let mut mx = 0.0f64;
        for &v in &rest {
            let av = v.abs();
            if av > mx {
                mx = av;
            }
        }
        if mx == 0.0 {
            out.complete = true;
            break;
        }
        let e = ceil_exp(mx);
        let mut sv = vec![0.0f64; rest.len()];
        for (s, r) in sv.iter_mut().zip(rest.iter_mut()) {
            let x = *r;
            if x == 0.0 {
                continue;
            }
            let (hi, lo) = extract(x, e, beta);
            *s = hi;
            *r = lo;
        }
        out.vals.push(sv);
        out.exps.push(e);
    }
    if !out.complete {
        out.complete = rest.iter().all(|&v| v == 0.0);
    }
    out
}

fn split_lines(
    a: &Mat<f64>,
    beta: u32,
    max_slices: usize,
    by_rows: bool,
    pool: Option<&me_par::WorkerPool>,
) -> SplitMatrix {
    assert!((1..=26).contains(&beta), "beta out of range: {beta}");
    let nlines = if by_rows { a.rows() } else { a.cols() };
    let line_len = if by_rows { a.cols() } else { a.rows() };

    // Gather each line into a contiguous buffer (columns of B are strided),
    // then run the per-line core — serially or one line per pool job. Lines
    // never interact, so the fan-out is bitwise-exact.
    let mut slots: Vec<(Vec<f64>, LineSplit)> = (0..nlines)
        .map(|li| {
            let line = (0..line_len)
                .map(|p| if by_rows { a[(li, p)] } else { a[(p, li)] })
                .collect();
            (line, LineSplit::default())
        })
        .collect();
    match pool {
        Some(p) => p.for_each_mut(&mut slots, |_, (line, out)| {
            *out = split_line(line, beta, max_slices);
        }),
        None => {
            for (line, out) in &mut slots {
                *out = split_line(line, beta, max_slices);
            }
        }
    }

    // Reassemble: slice p of the matrix is the p-th extraction of every
    // line (zero where a line's residual was already exhausted).
    let nslices = slots.iter().map(|(_, ls)| ls.vals.len()).max().unwrap_or(0);
    let complete = slots.iter().all(|(_, ls)| ls.complete);
    let mut slices = Vec::with_capacity(nslices);
    let mut scale_exp = Vec::with_capacity(nslices);
    for p in 0..nslices {
        let mut slice = Mat::zeros(a.rows(), a.cols());
        let mut exps = vec![0i32; nlines];
        for (li, (_, ls)) in slots.iter().enumerate() {
            if p >= ls.vals.len() {
                continue;
            }
            exps[li] = ls.exps[p];
            for (q, &v) in ls.vals[p].iter().enumerate() {
                let (i, j) = if by_rows { (li, q) } else { (q, li) };
                slice[(i, j)] = v;
            }
        }
        slices.push(slice);
        scale_exp.push(exps);
    }
    SplitMatrix { slices, scale_exp, beta, complete, by_rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(m: usize, n: usize, seed: u64, range_decades: i32) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = (state >> 33) as f64 / (1u64 << 31) as f64; // [0,2)
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let d = ((state >> 33) as f64 / (1u64 << 31) as f64) / 2.0; // [0,1)
            let mag = (10.0f64).powf(d * range_decades as f64);
            (u - 1.0) * mag
        })
    }

    #[test]
    fn beta_matches_tensor_core_budget() {
        // f32 accumulate (24-bit), f16 multiply (11-bit).
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(1024, 24, 11), 6); // (23-10)/2
        assert_eq!(required_beta(16, 24, 11), 9); // (23-4)/2
        assert_eq!(required_beta(1, 24, 11), 11); // clamped to mul precision
        // f64 accumulate allows wide slices, clamped by f16 multiply.
        assert_eq!(required_beta(1024, 53, 11), 11);
    }

    #[test]
    fn beta_integer_log2_boundaries() {
        // k = 2^j and k = 2^j + 1 straddle the ⌈log₂⌉ step.
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        for j in 1..60u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
        }
        // The step must show up in the beta budget.
        assert_eq!(required_beta(8192, 24, 11), 5); // (23-13)/2
        assert_eq!(required_beta(8193, 24, 11), 4); // (23-14)/2
        // Regression: (2^53 + 1) as f64 rounds to 2^53, so the float
        // ⌈log₂⌉ came back 53 instead of 54 — one slice bit too generous.
        assert_eq!(required_beta((1usize << 53) + 1, 120, 64), 32);
    }

    #[test]
    fn beta_boundaries_across_all_binades() {
        // k = 2^j − 1, 2^j, 2^j + 1 up to the f64-mantissa binade j = 53:
        // ⌈log₂⌉ must be exact in integer arithmetic at every boundary
        // (the float route already fails at j = 53), and required_beta
        // must hold steady inside a binade and step down exactly when k
        // first exceeds 2^j.
        let acc_p = 120u32; // wide accumulator: the budget, not mul_p, decides
        let mul_p = 64u32;
        for j in 2..=53u32 {
            let k = 1usize << j;
            assert_eq!(ceil_log2(k - 1), j, "k=2^{j}-1");
            assert_eq!(ceil_log2(k), j, "k=2^{j}");
            assert_eq!(ceil_log2(k + 1), j + 1, "k=2^{j}+1");
            let expect_at = ((acc_p - 1 - j) / 2).clamp(1, mul_p);
            let expect_above = ((acc_p - 1 - (j + 1)) / 2).clamp(1, mul_p);
            assert_eq!(required_beta(k - 1, acc_p, mul_p), expect_at, "below, j={j}");
            assert_eq!(required_beta(k, acc_p, mul_p), expect_at, "at, j={j}");
            assert_eq!(required_beta(k + 1, acc_p, mul_p), expect_above, "above, j={j}");
        }
    }

    #[test]
    fn parallel_split_is_bit_identical_to_serial() {
        let a = mk(17, 11, 23, 12);
        let serial_r = split_rows(&a, 5, 64);
        let serial_c = split_cols(&a, 5, 64);
        for threads in [1, 2, 3, 8] {
            let pool = me_par::WorkerPool::new(threads);
            let par_r = split_rows_parallel(&a, 5, 64, &pool);
            assert_eq!(par_r.len(), serial_r.len(), "threads={threads}");
            assert_eq!(par_r.complete, serial_r.complete);
            assert_eq!(par_r.scale_exp, serial_r.scale_exp);
            for (p, s) in par_r.slices.iter().zip(&serial_r.slices) {
                assert_eq!(p, s, "threads={threads}: row slice differs");
            }
            let par_c = split_cols_parallel(&a, 5, 64, &pool);
            assert_eq!(par_c.scale_exp, serial_c.scale_exp);
            for (p, s) in par_c.slices.iter().zip(&serial_c.slices) {
                assert_eq!(p, s, "threads={threads}: col slice differs");
            }
        }
    }

    #[test]
    fn split_reconstructs_exactly_narrow_range() {
        let a = mk(13, 9, 1, 0);
        let s = split_rows(&a, 5, 64);
        assert!(s.complete, "narrow-range split must terminate ({} slices)", s.len());
        assert_eq!(s.reconstruct(), a);
        // Narrow range (all magnitudes within one decade): about
        // ceil(53/5)+1 = 12 slices.
        assert!(s.len() <= 14, "too many slices: {}", s.len());
    }

    #[test]
    fn split_reconstructs_exactly_wide_range() {
        let a = mk(8, 8, 2, 16);
        let s = split_rows(&a, 5, 128);
        assert!(s.complete);
        assert_eq!(s.reconstruct(), a);
    }

    #[test]
    fn slice_count_grows_with_dynamic_range() {
        // The Table VIII effect: wider input ranges need more slices.
        let narrow = split_rows(&mk(16, 16, 3, 8), 5, 256).len();
        let mid = split_rows(&mk(16, 16, 3, 16), 5, 256).len();
        let wide = split_rows(&mk(16, 16, 3, 32), 5, 256).len();
        assert!(narrow < mid && mid < wide, "{narrow} {mid} {wide}");
    }

    #[test]
    fn slices_are_beta_bit_integers_at_their_scale() {
        let a = mk(6, 10, 7, 10);
        let beta = 5;
        let s = split_rows(&a, beta, 64);
        for (slice, exps) in s.slices.iter().zip(&s.scale_exp) {
            for (i, &ei) in exps.iter().enumerate() {
                if ei == 0 && slice.row(i).iter().all(|&v| v == 0.0) {
                    continue;
                }
                let q = pow2_safe(ei - beta as i32);
                for &v in slice.row(i) {
                    if v == 0.0 {
                        continue;
                    }
                    let scaled = v / q;
                    assert_eq!(scaled.fract(), 0.0, "slice element {v} not on the grid");
                    assert!(
                        scaled.abs() <= (1u64 << beta) as f64,
                        "slice integer {scaled} exceeds 2^beta"
                    );
                }
            }
        }
    }

    #[test]
    fn split_cols_mirrors_split_rows_on_transpose() {
        let a = mk(5, 8, 11, 6);
        let at = a.transpose();
        let by_cols = split_cols(&a, 5, 64);
        let by_rows = split_rows(&at, 5, 64);
        assert_eq!(by_cols.len(), by_rows.len());
        for (sc, sr) in by_cols.slices.iter().zip(&by_rows.slices) {
            assert_eq!(&sc.transpose(), sr);
        }
    }

    #[test]
    fn zero_matrix_splits_to_nothing() {
        let z = Mat::<f64>::zeros(4, 4);
        let s = split_rows(&z, 5, 16);
        assert!(s.complete);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn incomplete_split_is_flagged() {
        let a = mk(4, 4, 13, 20);
        let s = split_rows(&a, 5, 2); // far too few slices
        assert!(!s.complete);
        assert!(s.reconstruct().max_abs_diff(&a) > 0.0);
    }

    #[test]
    fn ceil_exp_exact_powers() {
        assert_eq!(ceil_exp(1.0), 0);
        assert_eq!(ceil_exp(2.0), 1);
        assert_eq!(ceil_exp(0.5), -1);
        assert_eq!(ceil_exp(3.0), 2);
        assert_eq!(ceil_exp(0.75), 0);
    }

    #[test]
    fn ceil_exp_edges_of_the_range() {
        let min_subnormal = f64::from_bits(1);
        assert_eq!(ceil_exp(min_subnormal), -1074);
        assert_eq!(ceil_exp(f64::from_bits(2)), -1073);
        assert_eq!(ceil_exp(f64::from_bits(3)), -1072);
        assert_eq!(ceil_exp(f64::MIN_POSITIVE), -1022);
        assert_eq!(ceil_exp(0.75), 0);
        assert_eq!(ceil_exp(1.0), 0);
        assert_eq!(ceil_exp(3.0), 2);
        assert_eq!(ceil_exp(-3.0), 2, "the sign is ignored");
        assert_eq!(ceil_exp(f64::MAX), 1024);
        assert_eq!(ceil_exp(f64::INFINITY), 1024);
        assert_eq!(ceil_exp(f64::NEG_INFINITY), 1024);
    }

    /// `2^(e−1) < x ≤ 2^e` over random positive finite bit patterns,
    /// subnormals included, checked with exact power-of-two arithmetic.
    #[test]
    fn ceil_exp_brackets_random_finite_values() {
        let mut rng = me_numerics::Rng64::seed_from_u64(0xce11);
        let mut subnormals = 0;
        for i in 0..200_000u32 {
            let bits = rng.next_u64() & !(1u64 << 63);
            // Every 8th draw lands in the subnormal range.
            let bits = if i % 8 == 0 { bits & ((1u64 << 52) - 1) } else { bits };
            let x = f64::from_bits(bits);
            if !x.is_finite() || x == 0.0 {
                continue;
            }
            subnormals += usize::from(!x.is_normal());
            let e = ceil_exp(x);
            assert!(x <= pow2_safe(e), "{x:e}: 2^{e} is below it");
            assert!(pow2_safe(e - 1) < x, "{x:e}: 2^{} already covers it", e - 1);
        }
        assert!(subnormals > 1000, "subnormals were sampled: {subnormals}");
    }
}
