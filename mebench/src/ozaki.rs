//! The `ozaki` phase: emulated DGEMM on the host-f16 and host-int8
//! substrates through `ozaki_gemm_backend`, serial, n = 256, inputs
//! spread over eight decades.
//!
//! The traced pass also times the two parts of a call the benchmark can
//! reproduce from outside: the split (`split_rows`/`split_cols` at the
//! backend's β and slice budget) and the engine calls (the report's
//! schedule replayed through `gemm_half_f32`/`gemm_i8_i32` on panels of
//! β-bit integers). The remainder is slice packing plus scale-and-
//! accumulate.

use std::time::Instant;

use me_linalg::{gemm, gemm_half_f32, gemm_i8_i32, selected_kernel, GemmAlgo, HalfKind, Mat};
use me_numerics::eft::{two_prod, two_sum};
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{ozaki_gemm_backend, split_cols, split_rows, OzakiBackend, OzakiReport};

use crate::host::Probe;
use crate::inputs::{InputHash, Rng};
use crate::spans::{span, span_id};
use crate::stats::{median, Checks};

pub const N: usize = 256;
const DECADES: f64 = 8.0;

pub struct Inputs {
    a: Mat<f64>,
    b: Mat<f64>,
    /// The Dot2 reference product as an unevaluated sum `hi + lo`.
    ref_hi: Mat<f64>,
    ref_lo: Mat<f64>,
    /// |A|·|B|, the scale of the componentwise DGEMM error bound.
    abs_ab: Mat<f64>,
}

pub fn inputs(seed: u64, n: usize, hash: &mut InputHash) -> Inputs {
    let mut rng = Rng::stream(seed, 2);
    let a = ranged_matrix(n, n, DECADES, rng.next_u64());
    let b = ranged_matrix(n, n, DECADES, rng.next_u64());
    hash.mat(&a);
    hash.mat(&b);
    let (ref_hi, ref_lo) = reference(&a, &b);
    let mut abs_ab = Mat::zeros(n, n);
    gemm(
        GemmAlgo::Tiled,
        1.0,
        &a.map(f64::abs),
        &b.map(f64::abs),
        0.0,
        &mut abs_ab,
    );
    Inputs {
        a,
        b,
        ref_hi,
        ref_lo,
        abs_ab,
    }
}

/// The product by Ogita-Rump-Oishi Dot2, the algorithm of
/// `me_ozaki::gemm::reference_gemm`, but returned before its final
/// rounding: `hi + lo` is accurate far below one ulp, so a correctly
/// rounded emulation shows its rounding error instead of an exact zero.
fn reference(a: &Mat<f64>, b: &Mat<f64>) -> (Mat<f64>, Mat<f64>) {
    let bt = b.transpose();
    let (mut hi, mut lo) = (
        Mat::zeros(a.rows(), b.cols()),
        Mat::zeros(a.rows(), b.cols()),
    );
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let (mut p, mut s) = (0.0, 0.0);
            for (&x, &y) in a.row(i).iter().zip(bt.row(j)) {
                let (h, r) = two_prod(x, y);
                let (pn, q) = two_sum(p, h);
                p = pn;
                s += q + r;
            }
            hi[(i, j)] = p;
            lo[(i, j)] = s;
        }
    }
    (hi, lo)
}

/// The two backends, in reporting order.
pub fn backends() -> [(&'static str, OzakiBackend); 2] {
    [
        ("f16", OzakiBackend::host_f16()),
        ("int8", OzakiBackend::host_int8()),
    ]
}

/// max_ij |C − C_ref|_ij / (|A|·|B|)_ij.
fn rel_err(c: &Mat<f64>, inp: &Inputs) -> f64 {
    let refs = inp.ref_hi.as_slice().iter().zip(inp.ref_lo.as_slice());
    c.as_slice()
        .iter()
        .zip(refs)
        .zip(inp.abs_ab.as_slice())
        .map(|((&x, (&hi, &lo)), &s)| {
            let err = ((x - hi) - lo).abs();
            if s == 0.0 {
                err
            } else {
                err / s
            }
        })
        .fold(0.0, f64::max)
}

/// The componentwise error bound a DGEMM meets: γ_k = k·u / (1 − k·u).
pub fn dgemm_bound(k: usize) -> f64 {
    let ku = k as f64 * f64::EPSILON / 2.0;
    ku / (1.0 - ku)
}

/// What one backend's traced breakdown needs from its reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Schedule {
    pub beta: u32,
    pub slices: usize,
    pub products: usize,
    pub engine_calls: usize,
    budget: usize,
    k_block: usize,
}

fn schedule(backend: &OzakiBackend, r: &OzakiReport, k: usize) -> Schedule {
    let (budget, k_block) = match backend {
        OzakiBackend::HostF16(e) => (e.budget_and_cutoff(k, r.beta).0, e.k_block),
        OzakiBackend::HostInt8(e) => (e.budget_and_cutoff(k, r.beta).0, e.k_block),
        OzakiBackend::SimulatedMe(_) => unreachable!("only host backends are benchmarked"),
    };
    let k_block = k_block.max(1);
    Schedule {
        beta: r.beta,
        slices: r.s_a + r.s_b,
        products: r.products_computed,
        engine_calls: r.products_computed * k.div_ceil(k_block),
        budget,
        k_block,
    }
}

/// Samples of one pass, per backend in [`backends`] order.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per `ozaki_gemm_backend` call.
    pub call_s: [Vec<f64>; 2],
    /// FMA peak (GFLOP/s) around each call: the mean of the probe right
    /// before it and the probe right after it.
    pub peak: [Vec<f64>; 2],
    /// Largest relative error seen, per backend.
    pub rel_err: [f64; 2],
    pub schedule: [Schedule; 2],
}

/// Run rounds for about `secs` (at least one), adding to `s`: another
/// round starts only if it is expected to end less than half a round late.
pub fn run(
    inp: &Inputs,
    secs: f64,
    probe: &Probe,
    traced: bool,
    checks: &mut Checks,
    s: &mut Samples,
) {
    let bound = dgemm_bound(inp.a.cols());
    let backends = backends();
    let _phase = span("ozaki");
    let start = Instant::now();
    for rounds in 1.. {
        let round = s.call_s[0].len() as u64;
        let mut before = fma_probe(probe);
        for (i, (name, backend)) in backends.iter().enumerate() {
            let t = Instant::now();
            let report = {
                let _g = span_id(
                    if i == 0 {
                        "ozaki.f16.call"
                    } else {
                        "ozaki.int8.call"
                    },
                    round,
                );
                ozaki_gemm_backend(&inp.a, &inp.b, backend)
            };
            s.call_s[i].push(t.elapsed().as_secs_f64());
            let after = fma_probe(probe);
            s.peak[i].push((before + after) / 2.0);
            before = after;
            let _g = span("check");
            let err = rel_err(&report.c, inp);
            s.rel_err[i] = s.rel_err[i].max(err);
            checks.check(
                err <= bound,
                &format!("ozaki {name}: error {err:e} above the DGEMM bound {bound:e}"),
            );
            s.schedule[i] = schedule(backend, &report, inp.a.cols());
        }
        if traced {
            for i in 0..2 {
                layer_probes(inp, i, &s.schedule[i], round);
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / (rounds as f64);
        if elapsed + per_round / 2.0 >= secs {
            return;
        }
    }
}

fn fma_probe(probe: &Probe) -> f64 {
    let _g = span("ozaki.fma_probe");
    probe.gflops()
}

/// The traced breakdown of one backend: split, then the engine replay.
fn layer_probes(inp: &Inputs, i: usize, sch: &Schedule, id: u64) {
    let (m, k) = inp.a.shape();
    let n = inp.b.cols();
    {
        let _g = span_id(
            if i == 0 {
                "ozaki.f16.split"
            } else {
                "ozaki.int8.split"
            },
            id,
        );
        let sa = split_rows(&inp.a, sch.beta, sch.budget);
        let sb = split_cols(&inp.b, sch.beta, sch.budget);
        std::hint::black_box((sa, sb));
    }
    let variant = selected_kernel().resolve_supported();
    let kc = sch.k_block.min(k);
    // Panels of β-bit integers, the values the engine sees (β ≤ 11 for
    // binary16, ≤ 6 for i8, by each engine's construction).
    let mut rng = Rng::new(id);
    let max = ((1i64 << sch.beta) - 1).min(if i == 0 { 2047 } else { 127 });
    let mut draw = |len: usize| -> Vec<i64> {
        (0..len)
            .map(|_| rng.below((2 * max + 1) as usize) as i64 - max)
            .collect()
    };
    let (pa, pb) = (draw(m * k), draw(n * k));
    if i == 0 {
        let to_f16 =
            |v: &[i64]| -> Vec<u16> { v.iter().map(|&x| HalfKind::F16.narrow(x as f32)).collect() };
        let (ha, hb) = (to_f16(&pa), to_f16(&pb));
        let mut tile = vec![0.0f32; m * n];
        let _g = span_id("ozaki.f16.engine", id);
        for _ in 0..sch.engine_calls {
            gemm_half_f32(variant, m, n, kc, &ha, k, &hb, k, HalfKind::F16, &mut tile);
        }
        std::hint::black_box(&tile);
    } else {
        let to_i8 = |v: &[i64]| -> Vec<i8> { v.iter().map(|&x| x as i8).collect() };
        let (ia, ib) = (to_i8(&pa), to_i8(&pb));
        let mut tile = vec![0i32; m * n];
        let _g = span_id("ozaki.int8.engine", id);
        for _ in 0..sch.engine_calls {
            gemm_i8_i32(variant, m, n, kc, &ia, k, &ib, k, &mut tile);
        }
        std::hint::black_box(&tile);
    }
}

impl Samples {
    /// DGEMM-equivalent GFLOP/s of backend `i`: 2n³ over the median call.
    pub fn gflops(&self, i: usize, n: usize) -> f64 {
        2.0 * (n as f64).powi(3) / median(&self.call_s[i]) / 1e9
    }

    /// Per call of backend `i`, its DGEMM-equivalent rate over the FMA
    /// peak measured around the same call.
    pub fn peak_fracs(&self, i: usize, n: usize) -> Vec<f64> {
        self.call_s[i]
            .iter()
            .zip(&self.peak[i])
            .map(|(t, p)| 2.0 * (n as f64).powi(3) / t / 1e9 / p)
            .collect()
    }
}
