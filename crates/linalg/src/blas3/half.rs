//! Half-precision (f16 / bf16) operands for the packed GEMM core.
//!
//! Production half-precision GEMMs (the `gemm-f16` pattern) do not build
//! a separate 16-bit kernel family: they store operands in 16 bits and
//! widen to f32 *inside the pack loops*, so the hot micro-kernel is the
//! ordinary f32 one — here the runtime-dispatched [`super::ukernel`]
//! family, including the AVX2 and AVX-512 intrinsics paths. [`HalfMat`]
//! is a [`GemmOperand`] whose widening is the exact binary16/bfloat16 →
//! binary32 conversion, so [`super::GemmPlan::run`] multiplies it on the
//! one packed core and the DESIGN §9 bitwise-identity contract carries
//! over unchanged: for a fixed `kc` grid, every kernel variant and every
//! thread count produces the same f32 bits, equal to the f32 GEMM on the
//! pre-widened operands.
//!
//! [`gemm_half_f32`] is the strided "engine call" mirroring
//! [`super::gemm_i8_i32`]: one call is one emulated FP16 matrix-engine
//! product over a k-chunk, with `B` supplied transposed. The `me-ozaki`
//! HostF16 backend drives it for its slice products.
//!
//! Narrowing (f32 → 16 bits) happens only in [`HalfMat`] construction and
//! uses the round-to-nearest-even codecs from `me_numerics::formats`
//! ([`F16Bits`] / [`Bf16Bits`]); the compute path never rounds to 16 bits.

use super::ukernel::KernelVariant;
use super::{gemm_packed_panel, BOperand, Blocking, GemmOperand};
use crate::mat::{Mat, MatMut};
use me_numerics::{Bf16Bits, F16Bits};

/// Which 16-bit storage format a [`HalfMat`] (or raw bit panel) holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HalfKind {
    /// IEEE 754 binary16: 1+5+10 bits, 11-bit significand.
    F16,
    /// bfloat16: 1+8+7 bits, 8-bit significand, f32's exponent range.
    Bf16,
}

impl HalfKind {
    /// Both storage formats, for test grids.
    pub const ALL: [HalfKind; 2] = [HalfKind::F16, HalfKind::Bf16];

    /// Lower-case label (artifact keys, assertion messages).
    pub fn name(self) -> &'static str {
        match self {
            HalfKind::F16 => "f16",
            HalfKind::Bf16 => "bf16",
        }
    }

    /// Round-to-nearest-even narrowing of an f32 to this format's bits.
    #[inline]
    pub fn narrow(self, x: f32) -> u16 {
        match self {
            HalfKind::F16 => F16Bits::from_f32(x).to_bits(),
            HalfKind::Bf16 => Bf16Bits::from_f32(x).to_bits(),
        }
    }

    /// Exact widening of this format's bits back to f32.
    #[inline]
    pub fn widen(self, bits: u16) -> f32 {
        match self {
            HalfKind::F16 => F16Bits::from_bits(bits).to_f32(),
            HalfKind::Bf16 => Bf16Bits::from_bits(bits).to_f32(),
        }
    }
}

impl std::fmt::Display for HalfKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dense row-major matrix stored as 16-bit half-precision words.
///
/// Construction narrows from f32 with round-to-nearest-even; reads widen
/// exactly. The packed GEMM core consumes the raw bits directly and
/// widens in its pack loops, so a `HalfMat` is exactly the memory a
/// half-precision matrix engine would stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfMat {
    rows: usize,
    cols: usize,
    kind: HalfKind,
    data: Vec<u16>,
}

impl HalfMat {
    /// Narrow an f32 matrix into half storage (RNE per element).
    pub fn from_f32(kind: HalfKind, a: &Mat<f32>) -> HalfMat {
        let (rows, cols) = a.shape();
        let data = a.as_slice().iter().map(|&v| kind.narrow(v)).collect();
        HalfMat { rows, cols, kind, data }
    }

    /// Wrap pre-narrowed bits (row-major, `rows · cols` words).
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_bits(kind: HalfKind, rows: usize, cols: usize, data: Vec<u16>) -> HalfMat {
        assert_eq!(data.len(), rows * cols, "HalfMat: bits length mismatch");
        HalfMat { rows, cols, kind, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Which half format the stored bits encode.
    pub fn kind(&self) -> HalfKind {
        self.kind
    }

    /// The raw 16-bit words, row-major.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// One element, widened exactly to f32.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.kind.widen(self.data[i * self.cols + j])
    }

    /// The whole matrix widened exactly to f32 (the reference operand for
    /// differential tests: a half GEMM on `self` must be bitwise equal to
    /// the f32 GEMM on `self.widen()`).
    pub fn widen(&self) -> Mat<f32> {
        Mat::from_fn(self.rows, self.cols, |i, j| self.get(i, j))
    }
}

impl GemmOperand for HalfMat {
    type Elem = f32;
    type Stored = u16;

    fn shape(&self) -> (usize, usize) {
        HalfMat::shape(self)
    }

    fn data(&self) -> &[u16] {
        &self.data
    }

    #[inline(always)]
    fn widen(&self, x: u16) -> f32 {
        self.kind.widen(x)
    }

    fn counter(variant: KernelVariant) -> &'static str {
        variant.half_counter()
    }
}

/// `rows` half-stored lines of which the first `cols` words are used, at
/// stride `ld` — the engine call's operand view.
struct HalfLines<'a> {
    kind: HalfKind,
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [u16],
}

impl GemmOperand for HalfLines<'_> {
    type Elem = f32;
    type Stored = u16;

    fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    fn data(&self) -> &[u16] {
        self.data
    }

    fn ld(&self) -> usize {
        self.ld
    }

    #[inline(always)]
    fn widen(&self, x: u16) -> f32 {
        self.kind.widen(x)
    }

    fn counter(variant: KernelVariant) -> &'static str {
        variant.half_counter()
    }
}

/// Strided row-panel GEMM on the half widening path:
/// `out[i·n + j] = Σ_p widen(a[i·lda + p]) · widen(bt[j·ldb + p])` for
/// `p < kc` (overwrite semantics, no accumulation across calls), computed
/// in f32 with exactly one correctly-rounded FMA per ascending `p` — the
/// §9 contract, so every kernel variant returns the same bits and the
/// chunk sums are bit-identical to a scalar `mul_add` chain over the
/// widened operands (a chain that underflows to −0 is returned as +0).
///
/// `a` holds `m` rows at stride `lda ≥ kc`; `bt` holds `n` rows of the
/// *transposed* right operand at stride `ldb ≥ kc`. One call is one
/// "engine call" of the emulated FP16 matrix engine (the `me-ozaki`
/// HostF16 backend's slice-product primitive), mirroring
/// [`super::gemm_i8_i32`]'s shape. It is the packed core with α = 1,
/// β = 0 and one k-chunk.
// me-verify: hot
#[allow(clippy::too_many_arguments)]
pub fn gemm_half_f32(
    variant: KernelVariant,
    m: usize,
    n: usize,
    kc: usize,
    a: &[u16],
    lda: usize,
    bt: &[u16],
    ldb: usize,
    kind: HalfKind,
    out: &mut [f32],
) {
    assert!(lda >= kc && ldb >= kc, "gemm_half_f32: stride below chunk length");
    assert!(out.len() >= m * n, "gemm_half_f32: output too short");
    let a = HalfLines { kind, rows: m, cols: kc, ld: lda, data: a };
    let bt = HalfLines { kind, rows: n, cols: kc, ld: ldb, data: bt };
    // One engine call is one k-chunk however long: only mc/nc normalize.
    let blocking = Blocking { kc: kc.max(1), ..Blocking { mc: m, kc, nc: n }.normalized() };
    let mut c = MatMut::from_slice(m, n, &mut out[..m * n]);
    let (variant, b) = (variant.resolve_supported(), BOperand::Transposed(&bt));
    gemm_packed_panel(variant, blocking, 1.0, &a, kc, &b, 0.0, &mut c, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{available_variants, gemm_naive, selected_kernel, GemmPlan};
    use me_numerics::Rng64;

    fn seeded_mat(rows: usize, cols: usize, seed: u64) -> Mat<f32> {
        let mut rng = Rng64::seed_from_u64(seed);
        Mat::from_fn(rows, cols, |_, _| (rng.next_f64() * 4.0 - 2.0) as f32)
    }

    #[test]
    fn half_roundtrip_is_exact() {
        let a = seeded_mat(7, 9, 1);
        for kind in HalfKind::ALL {
            let h = HalfMat::from_f32(kind, &a);
            let w = h.widen();
            let h2 = HalfMat::from_f32(kind, &w);
            assert_eq!(h.bits(), h2.bits(), "{kind}: narrow∘widen must be identity");
        }
    }

    #[test]
    fn gemm_half_is_close_to_f64_reference() {
        // Sanity on accuracy, not bits: a half GEMM agrees with the f64
        // reference to the storage format's relative precision.
        let (m, k, n) = (12, 40, 9);
        let a = seeded_mat(m, k, 7);
        let b = seeded_mat(k, n, 8);
        let ad = Mat::from_fn(m, k, |i, j| a[(i, j)] as f64);
        let bd = Mat::from_fn(k, n, |i, j| b[(i, j)] as f64);
        let mut refc = Mat::zeros(m, n);
        gemm_naive(1.0f64, &ad, &bd, 0.0, &mut refc);
        for (kind, tol) in [(HalfKind::F16, 5e-2), (HalfKind::Bf16, 3e-1)] {
            let ha = HalfMat::from_f32(kind, &a);
            let hb = HalfMat::from_f32(kind, &b);
            let mut got = Mat::zeros(m, n);
            GemmPlan::new(selected_kernel()).run(1.0, &ha, &hb, 0.0, &mut got);
            for i in 0..m {
                for j in 0..n {
                    let err = (got[(i, j)] as f64 - refc[(i, j)]).abs();
                    assert!(err < tol * k as f64, "{kind} ({i},{j}): err {err}");
                }
            }
        }
    }

    #[test]
    fn engine_call_matches_scalar_chain_bitwise() {
        // gemm_half_f32's contract: bit-identical to the ascending
        // scalar mul_add chain over widened operands, for every variant,
        // with strided panels.
        let (m, n, kc) = (5, 7, 67);
        let lda = kc + 3;
        let ldb = kc + 1;
        let mut rng = Rng64::seed_from_u64(11);
        for kind in HalfKind::ALL {
            let a: Vec<u16> =
                (0..m * lda).map(|_| kind.narrow((rng.next_f64() * 4.0 - 2.0) as f32)).collect();
            let bt: Vec<u16> =
                (0..n * ldb).map(|_| kind.narrow((rng.next_f64() * 4.0 - 2.0) as f32)).collect();
            let mut want = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let mut s = 0.0f32;
                    for p in 0..kc {
                        s = kind.widen(a[i * lda + p]).mul_add(kind.widen(bt[j * ldb + p]), s);
                    }
                    want[i * n + j] = s;
                }
            }
            for v in available_variants() {
                let mut out = vec![-1.0f32; m * n];
                gemm_half_f32(v, m, n, kc, &a, lda, &bt, ldb, kind, &mut out);
                let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&out), bits(&want), "{kind} variant {v}");
            }
        }
    }

    #[test]
    fn engine_call_zero_chunk_zeroes_output() {
        let mut out = vec![1.0f32; 6];
        gemm_half_f32(KernelVariant::Scalar, 2, 3, 0, &[], 0, &[], 0, HalfKind::F16, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }
}
