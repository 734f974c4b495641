//! Backend selection: which substrate runs the slice-pair products, and
//! the entry points over all of them.
//!
//! Every backend is the same pipeline (`crate::gemm::run`) with a
//! different [`crate::engine`] plugged in, configured by one
//! [`OzakiConfig`]. [`OzakiBackend`] makes the substrate a *config*, so
//! callers — the serving layer, the benches, the energy model — route
//! through one function and A/B the substrates without changing call
//! sites.

use crate::engine::{HostF16, HostInt8, Simulated, F16_F32, I8_I32};
use crate::gemm::{run, OzakiConfig, OzakiReport, Schedule};
use me_linalg::{selected_kernel, KernelVariant, Mat};
pub use me_par::Workers;
use me_par::WorkerPool;

/// Which substrate executes the slice-pair products.
#[derive(Debug, Clone, Copy)]
pub enum OzakiBackend {
    /// The simulated f16/f32 matrix engine (Tensor-Core model).
    SimulatedMe(OzakiConfig),
    /// Host INT8 kernels (i8×i8→i32; scalar / AVX2 `vpmaddubsw`, per the
    /// kernel variant).
    HostInt8(OzakiConfig),
    /// Host f16 widening kernels (binary16 storage widened to f32 in the
    /// pack loops; scalar / AVX2 / AVX-512 per the kernel variant).
    /// Bitwise-equal to `SimulatedMe` at the same config.
    HostF16(OzakiConfig),
}

impl Default for OzakiBackend {
    fn default() -> Self {
        OzakiBackend::dgemm_tc()
    }
}

impl OzakiBackend {
    /// The simulated Tensor-Core backend at DGEMM-equivalent accuracy.
    pub fn dgemm_tc() -> Self {
        OzakiBackend::SimulatedMe(OzakiConfig::dgemm_tc())
    }

    /// The host INT8 backend at DGEMM-equivalent accuracy.
    pub fn host_int8() -> Self {
        OzakiBackend::HostInt8(OzakiConfig::dgemm_tc())
    }

    /// The host f16 backend at DGEMM-equivalent accuracy.
    pub fn host_f16() -> Self {
        OzakiBackend::HostF16(OzakiConfig::dgemm_tc())
    }

    /// Short label for reports and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            OzakiBackend::SimulatedMe(_) => "simulated-me",
            OzakiBackend::HostInt8(_) => "host-int8",
            OzakiBackend::HostF16(_) => "host-f16",
        }
    }

    /// The backend's configuration.
    pub(crate) fn config(&self) -> &OzakiConfig {
        let (OzakiBackend::SimulatedMe(c) | OzakiBackend::HostInt8(c) | OzakiBackend::HostF16(c)) =
            self;
        c
    }

    /// The slice schedule this backend runs at inner dimension `k`:
    /// the config's one β/budget/cutoff decision at the engine's own
    /// formats.
    pub fn schedule(&self, k: usize) -> Schedule {
        let widths = match self {
            OzakiBackend::SimulatedMe(_) | OzakiBackend::HostF16(_) => F16_F32,
            OzakiBackend::HostInt8(_) => I8_I32,
        };
        self.config().schedule(k, widths)
    }
}

/// Emulated GEMM through the selected backend, serial, on the
/// process-selected kernel variant ([`me_linalg::selected_kernel`]).
pub fn ozaki_gemm_backend(a: &Mat<f64>, b: &Mat<f64>, backend: &OzakiBackend) -> OzakiReport {
    ozaki_gemm_with(a, b, backend, selected_kernel(), Workers::Threads(1))
}

/// Emulated GEMM through the selected backend on a pinned kernel variant
/// (unsupported variants degrade via `resolve_supported`; the simulated
/// engine has no variants) and the given workers, one row of C per work
/// unit ([`Workers::run`]).
///
/// Bitwise identical for every variant and every worker count: chunk
/// sums are exact, and the per-element accumulation order never depends
/// on the row partition.
pub fn ozaki_gemm_with(
    a: &Mat<f64>,
    b: &Mat<f64>,
    backend: &OzakiBackend,
    variant: KernelVariant,
    workers: Workers<'_>,
) -> OzakiReport {
    workers.run(a.rows(), |pool| dispatch(a, b, backend, variant, pool))
}

fn dispatch(
    a: &Mat<f64>,
    b: &Mat<f64>,
    backend: &OzakiBackend,
    variant: KernelVariant,
    pool: Option<&WorkerPool>,
) -> OzakiReport {
    let variant = variant.resolve_supported();
    match backend {
        OzakiBackend::SimulatedMe(cfg) => run(a, b, cfg, &Simulated, pool),
        OzakiBackend::HostInt8(cfg) => run(a, b, cfg, &HostInt8 { variant }, pool),
        OzakiBackend::HostF16(cfg) => run(a, b, cfg, &HostF16 { variant }, pool),
    }
}

/// One suite over every substrate: each backend is one more input to the
/// same properties, on the union of the fixtures the per-substrate suites
/// used to carry.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::mk;
    use crate::gemm::{reference_gemm, TargetAccuracy};
    use crate::perf::ranged_matrix;
    use me_linalg::available_variants;
    use me_numerics::{max_rel_err, ulp_diff};

    /// The three backends at one config.
    fn each(cfg: OzakiConfig) -> [OzakiBackend; 3] {
        [OzakiBackend::SimulatedMe(cfg), OzakiBackend::HostInt8(cfg), OzakiBackend::HostF16(cfg)]
    }

    fn backends() -> [OzakiBackend; 3] {
        each(OzakiConfig::dgemm_tc())
    }

    /// Operand pairs drawn by `ranged_matrix(m, k)`/`(k, n)` at `decades`
    /// with seeds `s` and `s + 1`.
    fn ranged(shapes: &[(usize, usize, usize, f64, u64)]) -> Vec<(Mat<f64>, Mat<f64>)> {
        shapes
            .iter()
            .map(|&(m, k, n, d, s)| (ranged_matrix(m, k, d, s), ranged_matrix(k, n, d, s + 1)))
            .collect()
    }

    fn assert_bitwise(label: &str, x: &Mat<f64>, y: &Mat<f64>) {
        assert_eq!(x.shape(), y.shape(), "{label}");
        for (u, v) in x.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(u.to_bits(), v.to_bits(), "{label}");
        }
    }

    #[test]
    fn every_backend_hits_dgemm_accuracy() {
        let fixtures = ranged(&[(9, 12, 7, 8.0, 31), (10, 14, 8, 6.0, 41), (10, 14, 8, 6.0, 1)]);
        for backend in backends() {
            for (a, b) in &fixtures {
                let r = ozaki_gemm_backend(a, b, &backend);
                let err = max_rel_err(r.c.as_slice(), reference_gemm(a, b).as_slice());
                assert!(err < 1e-12, "{}: rel err {err}", backend.label());
            }
        }
    }

    #[test]
    fn engine_formats_bound_beta() {
        // Asking for a wider accumulator than the engine has must not
        // widen β: the chunk sums are f32 (or i32) whatever the config
        // says. Unclamped, acc_precision 53 picked β = 11 and lost ~2.6e-10
        // on this product.
        let a = ranged_matrix(16, 256, 4.0, 1);
        let b = ranged_matrix(256, 16, 4.0, 2);
        let c_ref = reference_gemm(&a, &b);
        for acc_precision in [53, 64] {
            let wide = OzakiConfig { acc_precision, ..OzakiConfig::dgemm_tc() };
            for (backend, default) in each(wide).iter().zip(backends()) {
                assert_eq!(backend.schedule(256), default.schedule(256), "{}", backend.label());
                let r = ozaki_gemm_backend(&a, &b, backend);
                let err = max_rel_err(r.c.as_slice(), c_ref.as_slice());
                assert!(err < 1e-15, "{} acc {acc_precision}: rel err {err}", backend.label());
            }
        }
    }

    #[test]
    fn serial_equals_parallel_bitwise_with_equal_counters() {
        let mut fixtures = vec![(mk(23, 17, 1, 9), mk(17, 11, 2, 9))];
        fixtures.extend(ranged(&[
            (23, 17, 11, 9.0, 47),
            (23, 17, 11, 9.0, 13),
            (14, 10, 8, 10.0, 33),
        ]));
        for backend in backends() {
            for (a, b) in &fixtures {
                let s = ozaki_gemm_backend(a, b, &backend);
                for threads in [2, 3, 4, 5, 8] {
                    let p = ozaki_gemm_with(
                        a,
                        b,
                        &backend,
                        selected_kernel(),
                        Workers::Threads(threads),
                    );
                    let label = format!("{} threads={threads}", backend.label());
                    assert_bitwise(&label, &s.c, &p.c);
                    assert_eq!(p.products_computed, s.products_computed, "{label}");
                    assert_eq!(p.products_skipped, s.products_skipped, "{label}");
                    assert_eq!(p.engine_calls, s.engine_calls, "{label}");
                    assert_eq!((p.s_a, p.s_b, p.beta), (s.s_a, s.s_b, s.beta), "{label}");
                    assert_eq!(p.split_exact, s.split_exact, "{label}");
                }
            }
        }
    }

    #[test]
    fn repeated_and_row_partitioned_runs_agree_bitwise() {
        // The paper's feature (1): the result is bit-identical regardless
        // of how the computation is partitioned — across repeated runs and
        // when the rows are computed as two separate GEMMs.
        let mut fixtures = vec![(mk(9, 14, 11, 10), mk(14, 9, 12, 10))];
        fixtures.extend(ranged(&[(5, 5, 5, 8.0, 7)]));
        for backend in backends() {
            for (a, b) in &fixtures {
                let r1 = ozaki_gemm_backend(a, b, &backend);
                let r2 = ozaki_gemm_backend(a, b, &backend);
                assert_bitwise(backend.label(), &r1.c, &r2.c);
                let (m, k) = a.shape();
                let top = m / 2;
                let a_top = Mat::from_fn(top, k, |i, j| a[(i, j)]);
                let a_bot = Mat::from_fn(m - top, k, |i, j| a[(i + top, j)]);
                let rt = ozaki_gemm_backend(&a_top, b, &backend);
                let rb = ozaki_gemm_backend(&a_bot, b, &backend);
                for j in 0..b.cols() {
                    for i in 0..m {
                        let part = if i < top { rt.c[(i, j)] } else { rb.c[(i - top, j)] };
                        assert_eq!(
                            part.to_bits(),
                            r1.c[(i, j)].to_bits(),
                            "{} ({i},{j})",
                            backend.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_matrix_runs_no_engine_calls() {
        let fixtures = [(Mat::zeros(3, 4), mk(4, 2, 15, 2)), (Mat::zeros(3, 3), Mat::zeros(3, 3))];
        for backend in backends() {
            for (z, b) in &fixtures {
                let r = ozaki_gemm_backend(z, b, &backend);
                assert_eq!(r.c, Mat::zeros(z.rows(), b.cols()), "{}", backend.label());
                assert_eq!(r.products_computed, 0, "{}", backend.label());
                assert_eq!(r.engine_calls, 0, "{}", backend.label());
            }
        }
    }

    #[test]
    fn engine_calls_are_products_times_chunks() {
        let fixtures = ranged(&[(6, 700, 5, 8.0, 49), (6, 700, 5, 8.0, 17)]);
        for backend in backends() {
            for (a, b) in &fixtures {
                let r = ozaki_gemm_backend(a, b, &backend);
                let chunks = 700usize.div_ceil(backend.config().k_block);
                assert_eq!(r.engine_calls, r.products_computed * chunks, "{}", backend.label());
                assert_eq!(r.products_computed + r.products_skipped, r.s_a * r.s_b);
            }
        }
    }

    #[test]
    fn exact_mode_exhausts_residual() {
        let mut fixtures = vec![(mk(6, 9, 5, 4), mk(9, 7, 6, 4))];
        fixtures.extend(ranged(&[(6, 9, 7, 5.0, 51), (6, 9, 7, 5.0, 19)]));
        let exact = OzakiConfig { target: TargetAccuracy::Exact, ..OzakiConfig::default() };
        for backend in each(exact) {
            for (a, b) in &fixtures {
                let r = ozaki_gemm_backend(a, b, &backend);
                assert!(r.split_exact, "{}: exact mode must exhaust the residual", backend.label());
                assert_eq!(r.products_skipped, 0);
                for (x, y) in r.c.as_slice().iter().zip(reference_gemm(a, b).as_slice()) {
                    assert!(ulp_diff(*x, *y) <= 2, "{}: {x} vs {y}", backend.label());
                }
            }
        }
    }

    #[test]
    fn every_kernel_variant_matches_scalar_bitwise() {
        let fixtures = ranged(&[(9, 13, 7, 10.0, 45), (9, 13, 7, 10.0, 11)]);
        for backend in backends() {
            for (a, b) in &fixtures {
                let base =
                    ozaki_gemm_with(a, b, &backend, KernelVariant::Scalar, Workers::Threads(1));
                for v in available_variants() {
                    let r = ozaki_gemm_with(a, b, &backend, v, Workers::Threads(1));
                    assert_bitwise(&format!("{} variant {v}", backend.label()), &base.c, &r.c);
                }
            }
        }
    }

    #[test]
    fn host_f16_backend_matches_simulated_me_bitwise() {
        // Both default backends run β = required_beta(256, 24, 11),
        // identical splits and schedules, and §9-fixed chunk sums —
        // bit-for-bit equal C through the backend-selection entry point,
        // no configuration fudge.
        for (m, k, n, d, s) in [(12, 18, 9, 11.0, 35), (11, 19, 9, 12.0, 43)] {
            let (a, b) = (ranged_matrix(m, k, d, s), ranged_matrix(k, n, d, s + 1));
            let sim = ozaki_gemm_backend(&a, &b, &OzakiBackend::dgemm_tc());
            let host = ozaki_gemm_backend(&a, &b, &OzakiBackend::host_f16());
            assert_eq!(sim.beta, host.beta, "matched β must come out of the defaults");
            assert_eq!((sim.s_a, sim.s_b), (host.s_a, host.s_b), "matched slice counts");
            assert_eq!(sim.products_computed, host.products_computed);
            assert_bitwise("simulated-me vs host-f16", &sim.c, &host.c);
        }
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(OzakiBackend::default().label(), "simulated-me");
        assert_eq!(OzakiBackend::host_int8().label(), "host-int8");
        assert_eq!(OzakiBackend::host_f16().label(), "host-f16");
    }
}
