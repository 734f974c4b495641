//! The `dgemm` phase: f64 GEMM through the dispatched kernel.
//!
//! Square 1024³ at one thread (`GemmAlgo::Tiled`) and at every core
//! (`GemmAlgo::Parallel`), the same B packed once (`pack_b_matrix`) and
//! consumed by the prepacked front, and skinny m ∈ {1, 2, 4, 8} calls
//! against that packed B, which stream all of it for very little compute.
//! Each round runs the FMA peak probe next to the GEMMs it normalises.

use std::time::Instant;

use me_linalg::{
    blocking_for, gemm, gemm_tiled_prepacked_with, pack_b_matrix, selected_kernel, GemmAlgo, Mat,
};

use crate::host::Probe;
use crate::inputs::{InputHash, Rng};
use crate::spans::{span, span_id};
use crate::stats::{bitwise_eq, median, Checks};

pub const N: usize = 1024;
pub const SKINNY_M: [usize; 4] = [1, 2, 4, 8];
/// One-thread square calls per round: the end-to-end figure of this phase
/// gets most of its time.
const ONE_THREAD_CALLS: u64 = 3;
/// Times per round the skinny calls run against the prepacked B; each
/// fresh skinny call (which packs B itself) runs once, as their reference.
const SKINNY_SETS: u64 = 8;

pub struct Inputs {
    a: Mat<f64>,
    b: Mat<f64>,
    skinny: Vec<Mat<f64>>,
}

pub fn inputs(seed: u64, n: usize, hash: &mut InputHash) -> Inputs {
    let mut rng = Rng::stream(seed, 1);
    let a = rng.matrix(n, n);
    let b = rng.matrix(n, n);
    let skinny: Vec<Mat<f64>> = SKINNY_M.iter().map(|&m| rng.matrix(m, n)).collect();
    for m in [&a, &b].into_iter().chain(&skinny) {
        hash.mat(m);
    }
    Inputs { a, b, skinny }
}

/// Fill the pack scratch and the worker pool before anything is timed.
pub fn warm_up(inp: &Inputs) {
    let mut c = Mat::zeros(inp.a.rows(), inp.b.cols());
    gemm(GemmAlgo::Tiled, 1.0, &inp.a, &inp.b, 0.0, &mut c);
    gemm(GemmAlgo::Parallel, 1.0, &inp.a, &inp.b, 0.0, &mut c);
}

/// Per-round samples of one pass.
#[derive(Debug, Default)]
pub struct Samples {
    /// Seconds per square call, one thread (`ONE_THREAD_CALLS` per round)
    /// and all threads.
    pub t_1t: Vec<f64>,
    pub t_nt: Vec<f64>,
    /// Single-thread FMA peak (GFLOP/s) measured at the start of each
    /// round, and per one-thread call the mean of the probes around it.
    pub peak: Vec<f64>,
    pub peak_1t: Vec<f64>,
    /// The mean of the probes around the skinny calls, per round.
    pub peak_skinny: Vec<f64>,
    /// Skinny FLOP over summed prepacked time of the round's
    /// `SKINNY_SETS` sets, per round (GFLOP/s).
    pub skinny_gflops: Vec<f64>,
    /// Bytes of the packed B every skinny call streams.
    pub packed_bytes: usize,
}

/// FLOPs of one n³ GEMM.
pub fn square_flop(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Run rounds for about `secs` (at least one), adding to `s`: another
/// round starts only if it is expected to end less than half a round late.
pub fn run(inp: &Inputs, secs: f64, probe: &Probe, checks: &mut Checks, s: &mut Samples) {
    let variant = selected_kernel().resolve_supported();
    let n = inp.a.rows();
    let mut c1 = Mat::zeros(n, n);
    let mut cn = Mat::zeros(n, n);
    let mut cp = Mat::zeros(n, n);
    let _phase = span("dgemm");
    let start = Instant::now();
    for rounds in 1.. {
        let round = s.t_nt.len() as u64;
        let mut before = fma_probe(probe);
        s.peak.push(before);
        for j in 0..ONE_THREAD_CALLS {
            s.t_1t.push(timed(|| {
                let _g = span_id("linalg.gemm_1t", round * ONE_THREAD_CALLS + j);
                gemm(GemmAlgo::Tiled, 1.0, &inp.a, &inp.b, 0.0, &mut c1);
            }));
            let after = fma_probe(probe);
            s.peak_1t.push((before + after) / 2.0);
            before = after;
        }
        s.t_nt.push(timed(|| {
            let _g = span_id("par.gemm_nt", round);
            gemm(GemmAlgo::Parallel, 1.0, &inp.a, &inp.b, 0.0, &mut cn);
        }));
        let packed = {
            let _g = span_id("linalg.pack_b", round);
            pack_b_matrix(&inp.b, blocking_for(variant))
        };
        s.packed_bytes = packed.bytes();
        {
            let _g = span_id("linalg.compute", round);
            gemm_tiled_prepacked_with(variant, 1.0, &inp.a, &packed, 0.0, &mut cp);
        }
        {
            let _g = span("check");
            checks.check(
                bitwise_eq(cn.as_slice(), c1.as_slice()),
                "dgemm: all-thread result != one-thread result",
            );
            checks.check(
                bitwise_eq(cp.as_slice(), c1.as_slice()),
                "dgemm: prepacked result != fresh result",
            );
        }
        let fresh: Vec<Mat<f64>> = inp
            .skinny
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let mut fresh = Mat::zeros(a.rows(), n);
                let _g = span_id("linalg.skinny_fresh", round * 16 + i as u64);
                gemm(GemmAlgo::Tiled, 1.0, a, &inp.b, 0.0, &mut fresh);
                fresh
            })
            .collect();
        let before_skinny = fma_probe(probe);
        let (mut flop, mut t_pre) = (0.0, 0.0);
        for set in 0..SKINNY_SETS {
            for (i, (a, fresh)) in inp.skinny.iter().zip(&fresh).enumerate() {
                let id = (round * SKINNY_SETS + set) * 16 + i as u64;
                let mut pre = Mat::zeros(a.rows(), n);
                t_pre += timed(|| {
                    let _g = span_id("linalg.skinny_prepacked", id);
                    gemm_tiled_prepacked_with(variant, 1.0, a, &packed, 0.0, &mut pre);
                });
                flop += 2.0 * (a.rows() * n * n) as f64;
                let _g = span("check");
                checks.check(
                    bitwise_eq(pre.as_slice(), fresh.as_slice()),
                    "dgemm: skinny prepacked != fresh",
                );
            }
        }
        s.skinny_gflops.push(flop / t_pre / 1e9);
        s.peak_skinny.push((before_skinny + fma_probe(probe)) / 2.0);
        let elapsed = start.elapsed().as_secs_f64();
        let per_round = elapsed / (rounds as f64);
        if elapsed + per_round / 2.0 >= secs {
            return;
        }
    }
}

fn fma_probe(probe: &Probe) -> f64 {
    let _g = span("linalg.fma_probe");
    probe.gflops()
}

fn timed(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

impl Samples {
    pub fn gemm_1t_gflops(&self, n: usize) -> f64 {
        square_flop(n) / median(&self.t_1t) / 1e9
    }

    pub fn gemm_gflops(&self, n: usize) -> f64 {
        square_flop(n) / median(&self.t_nt) / 1e9
    }

    /// Per one-thread call, its rate over the FMA peak measured around it.
    pub fn peak_fracs_1t(&self, n: usize) -> Vec<f64> {
        self.t_1t
            .iter()
            .zip(&self.peak_1t)
            .map(|(t, p)| square_flop(n) / t / 1e9 / p)
            .collect()
    }

    /// Per round, the skinny rate over the FMA peak measured around it.
    pub fn skinny_peak_fracs(&self) -> Vec<f64> {
        self.skinny_gflops
            .iter()
            .zip(&self.peak_skinny)
            .map(|(g, p)| g / p)
            .collect()
    }
}
