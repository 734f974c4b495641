//! The substrates the Ozaki pipeline runs on: one `SliceEngine` each.
//!
//! `crate::gemm::run` is the scheme; an engine supplies only what
//! differs between substrates — the slice element type and its exact
//! narrowing, the engine's multiply/accumulate widths, the chunk call and
//! the trace names:
//!
//! | engine        | slice | chunk call                               | widths |
//! |---------------|-------|------------------------------------------|--------|
//! | `Simulated`   | `f32` | ascending scalar `mul_add` chain          | 11/24  |
//! | `HostF16`     | `u16` | [`gemm_half_f32`] (binary16 → f32 FMAs)   | 11/24  |
//! | `HostInt8`    | `i8`  | [`gemm_i8_i32`] (exact integer dots)      | 6/31   |
//! | `Systolic`    | `f64` | [`systolic_gemm`] on a simulated array    | array  |
//!
//! Every chunk sum is exact — β is chosen so it fits the accumulator — so
//! the engines agree bit for bit at a matched β. The simulator's scalar
//! chain is the reference the bridges compare against: the host-f16
//! kernels replay it FMA for FMA (DESIGN §9), and integer dots are exact
//! in any order.

use crate::gemm::{run, OzakiConfig, OzakiReport};
use me_engine::systolic::{systolic_gemm, CycleStats, SystolicArray};
use me_linalg::{gemm_half_f32, gemm_i8_i32, HalfKind, KernelVariant, Mat};
use me_numerics::formats::narrow_f32_exact;
use std::sync::atomic::{AtomicU64, Ordering};

/// f16 multiply, f32 accumulate: the Tensor-Core model and the host-f16
/// kernels. Slice integers of up to 11 bits are exact in binary16.
pub(crate) const F16_F32: (u32, u32) = (11, 24);

/// i8 multiply, i32 accumulate. The extraction's round-to-nearest can
/// emit exactly ±2^β, so β ≤ 6 (±64 fits i8, ±128 would not); the i32
/// keeps 31 magnitude bits.
pub(crate) const I8_I32: (u32, u32) = (6, 31);

/// Span and counter names one substrate records under.
pub(crate) struct TraceNames {
    pub split: &'static str,
    pub accumulate: &'static str,
    pub slices_a: &'static str,
    pub slices_b: &'static str,
    pub products_computed: &'static str,
    pub products_skipped: &'static str,
    pub engine_calls: &'static str,
}

/// The [`TraceNames`] under one prefix (`ozaki.int8` → `ozaki.int8.split`, …).
macro_rules! trace_names {
    ($prefix:literal) => {
        TraceNames {
            split: concat!($prefix, ".split"),
            accumulate: concat!($prefix, ".accumulate"),
            slices_a: concat!($prefix, ".slices_a"),
            slices_b: concat!($prefix, ".slices_b"),
            products_computed: concat!($prefix, ".products_computed"),
            products_skipped: concat!($prefix, ".products_skipped"),
            engine_calls: concat!($prefix, ".engine_calls"),
        }
    };
}

/// What one substrate supplies to the Ozaki pipeline.
pub(crate) trait SliceEngine: Sync {
    /// A slice entry as the engine stores it.
    type Elem: Copy + Default + Send + Sync;
    /// A chunk sum as the engine returns it (exact, so widening is too).
    type Sum: Copy + Default + Into<f64>;
    /// Span and counter names.
    const TRACE: TraceNames;
    /// `(multiply, accumulate)` significand bits of the engine's formats.
    fn widths(&self) -> (u32, u32);
    /// Narrow one integer-valued slice entry (|x| ≤ 2^β) exactly.
    fn narrow(x: f64) -> Self::Elem;
    /// One engine call: `tile[i·n + j] = Σ_{p<kc} a[i·ld + p] · b[j·ld + p]`
    /// for `i < rows`, `j < n` (B is packed transposed).
    #[allow(clippy::too_many_arguments)]
    fn chunk(
        &self,
        rows: usize,
        n: usize,
        kc: usize,
        a: &[Self::Elem],
        b: &[Self::Elem],
        ld: usize,
        tile: &mut [Self::Sum],
    );
}

/// The simulated f16-multiply/f32-accumulate matrix engine (the paper's
/// Tensor-Core model): integer-valued `f32` slices, and each chunk sum an
/// ascending scalar `mul_add` chain — exact because `2β + ⌈log₂k⌉ ≤ 24`.
pub(crate) struct Simulated;

impl SliceEngine for Simulated {
    type Elem = f32;
    type Sum = f32;
    const TRACE: TraceNames = trace_names!("ozaki");

    fn widths(&self) -> (u32, u32) {
        F16_F32
    }

    fn narrow(x: f64) -> f32 {
        narrow_f32_exact(x)
    }

    fn chunk(
        &self,
        rows: usize,
        n: usize,
        kc: usize,
        a: &[f32],
        b: &[f32],
        ld: usize,
        tile: &mut [f32],
    ) {
        for (arow, out) in a.chunks(ld).take(rows).zip(tile.chunks_mut(n)) {
            for (bcol, s) in b.chunks(ld).zip(out) {
                let mut acc = 0.0f32;
                for (&x, &y) in arow[..kc].iter().zip(&bcol[..kc]) {
                    acc = x.mul_add(y, acc);
                }
                *s = acc;
            }
        }
    }
}

/// The host's f16 widening kernels: genuine binary16 slice panels, each
/// chunk one [`gemm_half_f32`] call on the dispatched micro-kernel —
/// exactly the memory traffic and arithmetic of a host-SIMD FP16
/// emulation. Slice integers of magnitude ≤ 2^11 are exact in binary16,
/// and the kernels perform one correctly-rounded FMA per ascending k step
/// (DESIGN §9), so each chunk carries the simulator's f32 bits.
pub(crate) struct HostF16 {
    /// The micro-kernel the chunk calls run on.
    pub variant: KernelVariant,
}

impl SliceEngine for HostF16 {
    type Elem = u16;
    type Sum = f32;
    const TRACE: TraceNames = trace_names!("ozaki.host_f16");

    fn widths(&self) -> (u32, u32) {
        F16_F32
    }

    fn narrow(x: f64) -> u16 {
        let xf = narrow_f32_exact(x);
        let bits = HalfKind::F16.narrow(xf);
        debug_assert_eq!(
            HalfKind::F16.widen(bits),
            xf,
            "slice value {xf} is not exactly representable in binary16"
        );
        bits
    }

    fn chunk(
        &self,
        rows: usize,
        n: usize,
        kc: usize,
        a: &[u16],
        b: &[u16],
        ld: usize,
        tile: &mut [f32],
    ) {
        gemm_half_f32(self.variant, rows, n, kc, a, ld, b, ld, HalfKind::F16, tile);
    }
}

/// The host's INT8 kernels: i8 slice panels, each chunk one
/// [`gemm_i8_i32`] call (scalar or AVX2 `vpmaddubsw`) —
/// integer arithmetic, exact by construction while `k_block · 2^(2β) <
/// 2^31`, so every variant and partition returns the same bits.
pub(crate) struct HostInt8 {
    /// The micro-kernel the chunk calls run on.
    pub variant: KernelVariant,
}

impl SliceEngine for HostInt8 {
    type Elem = i8;
    type Sum = i32;
    const TRACE: TraceNames = trace_names!("ozaki.int8");

    fn widths(&self) -> (u32, u32) {
        I8_I32
    }

    fn narrow(x: f64) -> i8 {
        debug_assert!(
            x.abs() <= 64.0 && x.fract() == 0.0,
            "slice value {x} is not a 6-bit-safe integer"
        );
        x as i8
    }

    fn chunk(
        &self,
        rows: usize,
        n: usize,
        kc: usize,
        a: &[i8],
        b: &[i8],
        ld: usize,
        tile: &mut [i32],
    ) {
        gemm_i8_i32(self.variant, rows, n, kc, a, ld, b, ld, tile);
    }
}

/// The cycle-level systolic-array simulator: each chunk runs through
/// [`systolic_gemm`] with the array's operand quantization and PE
/// accumulators, and the engine sums the array's [`CycleStats`].
pub(crate) struct Systolic<'a> {
    array: &'a SystolicArray,
    stats: [AtomicU64; 4],
}

impl SliceEngine for Systolic<'_> {
    type Elem = f64;
    type Sum = f64;
    const TRACE: TraceNames = trace_names!("ozaki.systolic");

    fn widths(&self) -> (u32, u32) {
        (self.array.mul_format.precision(), self.array.acc_format.precision())
    }

    fn narrow(x: f64) -> f64 {
        x
    }

    fn chunk(
        &self,
        rows: usize,
        n: usize,
        kc: usize,
        a: &[f64],
        b: &[f64],
        ld: usize,
        tile: &mut [f64],
    ) {
        let int_a = Mat::from_fn(rows, kc, |i, p| a[i * ld + p]);
        let int_b = Mat::from_fn(kc, n, |p, j| b[j * ld + p]);
        let r = systolic_gemm(self.array, &int_a, &int_b);
        let s = r.stats;
        for (total, add) in self.stats.iter().zip([s.cycles, s.macs, s.pe_cycles, s.tiles]) {
            total.fetch_add(add, Ordering::Relaxed);
        }
        tile[..rows * n].copy_from_slice(r.c.as_slice());
    }
}

/// Result of an engine-executed Ozaki GEMM.
#[derive(Debug, Clone)]
pub struct EngineOzakiResult {
    /// The standard report (result matrix + counters).
    pub report: OzakiReport,
    /// Aggregated cycle statistics across all slice-pair products.
    pub engine_stats: CycleStats,
}

/// Run the Ozaki scheme with every slice-pair product executed on the
/// simulated systolic array — proven (by test) **bit-identical** to
/// [`crate::ozaki_gemm`], and returning the engine's cycle statistics,
/// which connect the algorithm to the hardware cost model of Table VIII.
///
/// # Panics
/// If the array's formats are narrower than the configured ones.
pub fn ozaki_gemm_systolic(
    a: &Mat<f64>,
    b: &Mat<f64>,
    cfg: &OzakiConfig,
    array: &SystolicArray,
) -> EngineOzakiResult {
    assert!(
        array.mul_format.precision() >= cfg.mul_precision
            && array.acc_format.precision() >= cfg.acc_precision,
        "array formats too narrow for the Ozaki configuration"
    );
    let engine = Systolic { array, stats: Default::default() };
    let report = run(a, b, cfg, &engine, None);
    let [cycles, macs, pe_cycles, tiles] = engine.stats.map(AtomicU64::into_inner);
    EngineOzakiResult { report, engine_stats: CycleStats { cycles, macs, pe_cycles, tiles } }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ozaki_gemm_backend, OzakiBackend};
    use crate::gemm::{ozaki_gemm, reference_gemm};
    use crate::perf::ranged_matrix;
    use crate::split::required_beta;

    fn beta(backend: OzakiBackend, k: usize) -> u32 {
        backend.schedule(k).beta
    }

    #[test]
    fn beta_matches_simulated_me_default() {
        // The bridge's precondition: the default host-f16 and simulated
        // backends derive the same β at every k, with no fudge.
        let cfg = OzakiConfig::dgemm_tc();
        for k in [1usize, 4, 100, 256, 1000, 100_000] {
            let want = required_beta(k.min(cfg.k_block), cfg.acc_precision, cfg.mul_precision);
            assert_eq!(beta(OzakiBackend::host_f16(), k), want, "k = {k}");
            assert_eq!(beta(OzakiBackend::dgemm_tc(), k), want, "k = {k}");
        }
    }

    #[test]
    fn slice_integers_fit_f16_exactly() {
        // β ≤ 11 → slice magnitude ≤ 2^11 = 2048, binary16's last exactly
        // representable consecutive integer.
        for k in [1usize, 256, 100_000] {
            let b = beta(OzakiBackend::host_f16(), k);
            assert!(b <= 11, "β {b} exceeds the f16 cap");
        }
        for v in [-2048i32, -2047, -1, 0, 1, 1023, 2047, 2048] {
            let bits = HalfKind::F16.narrow(v as f32);
            assert_eq!(HalfKind::F16.widen(bits), v as f32, "{v} must round-trip");
        }
    }

    #[test]
    fn int8_products_are_exact() {
        // k_block * (2^beta)^2 must fit i32.
        let backend = OzakiBackend::host_int8();
        let beta = beta(backend, 100_000);
        let bound = backend.config().k_block as i64 * (1i64 << beta) * (1i64 << beta);
        assert!(bound < (1i64 << 31), "i32 overflow bound violated: {bound}");
    }

    #[test]
    fn int8_beta_is_the_min_of_budget_and_i8_cap() {
        let int8 = |cfg: OzakiConfig| OzakiBackend::HostInt8(cfg);
        let d = OzakiConfig::dgemm_tc();
        // The budget would allow 7 at k_block = 256; the i8 cap wins.
        for k in [100_000usize, 256, 4, 1] {
            assert_eq!(beta(int8(d), k), 6, "k = {k}");
        }
        // A narrow accumulator makes the budget the binding constraint:
        // acc = 16, k_block = 256 → (16 − 1 − 8)/2 = 3.
        assert_eq!(beta(int8(OzakiConfig { acc_precision: 16, ..d }), 1024), 3);
        // A huge k_block also binds: 2^20 chunk → (31 − 1 − 20)/2 = 5,
        // and a config wider than i32 cannot lift that guard.
        for acc_precision in [31, 64] {
            let wide = OzakiConfig { acc_precision, k_block: 1 << 20, ..d };
            assert_eq!(beta(int8(wide), 1 << 22), 5, "acc = {acc_precision}");
        }
        // Degenerate accumulator still yields a sane width.
        assert_eq!(beta(int8(OzakiConfig { acc_precision: 2, ..d }), 64), 1);
    }

    #[test]
    fn int8_needs_narrower_slices_than_f16() {
        // i8 holds 7 magnitude bits vs f16's 11 → more slices, more engine
        // calls, but zero internal rounding.
        assert!(beta(OzakiBackend::host_int8(), 256) <= 7);
        let a = ranged_matrix(8, 8, 4.0, 3);
        let b = ranged_matrix(8, 8, 4.0, 4);
        let r8 = ozaki_gemm_backend(&a, &b, &OzakiBackend::host_int8());
        let rf = ozaki_gemm(&a, &b, &OzakiConfig::dgemm_tc());
        assert!(r8.s_a >= rf.s_a, "i8 slices {} vs f16 {}", r8.s_a, rf.s_a);
    }

    #[test]
    fn int8_wide_range_inputs() {
        let a = ranged_matrix(6, 10, 16.0, 5);
        let b = ranged_matrix(10, 6, 16.0, 6);
        let r = ozaki_gemm_backend(&a, &b, &OzakiBackend::host_int8());
        let c_ref = reference_gemm(&a, &b);
        for i in 0..6 {
            let amax: f64 = (0..10).map(|p| a[(i, p)].abs()).fold(0.0, f64::max);
            for j in 0..6 {
                let bmax: f64 = (0..10).map(|p| b[(p, j)].abs()).fold(0.0, f64::max);
                let err = (r.c[(i, j)] - c_ref[(i, j)]).abs();
                assert!(err <= 1e-12 * (amax * bmax * 10.0).max(c_ref[(i, j)].abs()));
            }
        }
    }

    #[test]
    fn int8_matches_f16_path_at_matched_beta() {
        // At β = 6 on both paths the splits, schedules, chunk products
        // (exact in i32 and in f32 alike), and accumulator add-streams
        // are identical — so the two engines agree bit for bit.
        // `mul_precision: 6` forces the simulated-ME β to the i8 cap.
        let a = ranged_matrix(11, 19, 12.0, 15);
        let b = ranged_matrix(19, 9, 12.0, 16);
        let cfg = OzakiConfig { mul_precision: 6, ..OzakiConfig::dgemm_tc() };
        let ri = ozaki_gemm_backend(&a, &b, &OzakiBackend::host_int8());
        let rf = ozaki_gemm(&a, &b, &cfg);
        assert_eq!(ri.beta, 6);
        assert_eq!(rf.beta, 6);
        assert_eq!(ri.s_a, rf.s_a, "matched β must give matched slice counts");
        assert_eq!(ri.products_computed, rf.products_computed);
        for (x, y) in ri.c.as_slice().iter().zip(rf.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "int8 vs simulated-ME at matched β");
        }
    }

    #[test]
    fn engine_execution_is_bit_identical_to_plain() {
        let a = ranged_matrix(10, 12, 8.0, 1);
        let b = ranged_matrix(12, 9, 8.0, 2);
        let cfg = OzakiConfig::dgemm_tc();
        let plain = ozaki_gemm(&a, &b, &cfg);
        let engine = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core());
        assert_eq!(plain.products_computed, engine.report.products_computed);
        for (x, y) in plain.c.as_slice().iter().zip(engine.report.c.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "engine and plain paths must agree exactly");
        }
    }

    #[test]
    fn cycle_stats_accumulate() {
        let a = ranged_matrix(8, 8, 4.0, 3);
        let b = ranged_matrix(8, 8, 4.0, 4);
        let r =
            ozaki_gemm_systolic(&a, &b, &OzakiConfig::dgemm_tc(), &SystolicArray::tensor_core());
        assert!(r.engine_stats.cycles > 0);
        assert!(r.engine_stats.macs > 0);
        // MACs = products × m × n × k.
        let expect = r.report.products_computed as u64 * 8 * 8 * 8;
        assert_eq!(r.engine_stats.macs, expect);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn rejects_undersized_arrays() {
        let a = ranged_matrix(4, 4, 2.0, 5);
        let cfg = OzakiConfig::dgemm_tc(); // needs f32 accumulator
        let _ = ozaki_gemm_systolic(&a, &a, &cfg, &SystolicArray::pure_f16());
    }

    #[test]
    fn works_on_tpu_sized_arrays() {
        // bf16 multiply is narrower than f16: needs an adapted config.
        let cfg = OzakiConfig { mul_precision: 8, ..OzakiConfig::dgemm_tc() };
        let a = ranged_matrix(6, 6, 4.0, 7);
        let b = ranged_matrix(6, 6, 4.0, 8);
        let r = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tpu_like());
        let reference = reference_gemm(&a, &b);
        let err = me_numerics::max_rel_err(r.report.c.as_slice(), reference.as_slice());
        assert!(err < 1e-12, "bf16-array Ozaki err {err}");
    }
}
