//! Benchmarks of the INT8 Ozaki path: the i8×i8→i32 dot micro-kernel
//! variant A/B (with the "vectorized ≥ 2× scalar" speed gate), the
//! emulated-GEMM substrate comparison (simulated f16 ME vs host INT8),
//! and the analytic FP16-vs-INT8 energy table — written to
//! `artifacts/ozaki_int8.txt` with the accuracy gate asserted in-bench.
//!
//! `--kernel scalar|avx2|avx512` (or `ME_KERNEL`) pins the dispatched
//! micro-kernel for the criterion groups; the gated A/B section always
//! sweeps every variant the host supports. `ME_BENCH_SMOKE` shrinks
//! sizes for CI.

use me_bench::crit::{BenchmarkId, Criterion};
use me_bench::criterion_group;
use me_linalg::{
    available_variants, avx2_supported, dot_i8, selected_kernel, set_kernel_override,
    KernelVariant,
};
use me_ozaki::gemm::reference_gemm;
use me_ozaki::perf::ranged_matrix;
use me_ozaki::{
    emit_energy_counters, int8_vs_f16_rows, ozaki_gemm, ozaki_gemm_backend, OzakiBackend,
    OzakiConfig,
};
use std::time::Instant;

fn smoke() -> bool {
    std::env::var_os("ME_BENCH_SMOKE").is_some()
}

/// Deterministic i8 slice values on the Ozaki domain (|x| ≤ 64, the
/// β = 6 extraction bound — well inside every kernel's exactness domain).
fn slice_vec(len: usize, seed: u64) -> Vec<i8> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state % 129) as i64 - 64) as i8
        })
        .collect()
}

fn bench_dot_variants(c: &mut Criterion) {
    let mut g = c.benchmark_group("int8_dot");
    let len = if smoke() { 4096 } else { 65536 };
    let a = slice_vec(len, 1);
    let b = slice_vec(len, 2);
    for v in available_variants() {
        g.bench_with_input(BenchmarkId::new(v.name(), len), &len, |bench, _| {
            bench.iter(|| dot_i8(v, &a, &b))
        });
    }
    g.finish();
}

fn bench_ozaki_substrates(c: &mut Criterion) {
    let mut g = c.benchmark_group("ozaki_substrates");
    g.sample_size(10);
    let n = if smoke() { 24 } else { 48 };
    let a = ranged_matrix(n, n, 8.0, 21);
    let b = ranged_matrix(n, n, 8.0, 22);
    let cfg = OzakiConfig::dgemm_tc();
    let engine = OzakiBackend::host_int8();
    g.bench_function("simulated_f16_me", |bench| bench.iter(|| ozaki_gemm(&a, &b, &cfg)));
    g.bench_function("host_int8", |bench| bench.iter(|| ozaki_gemm_backend(&a, &b, &engine)));
    g.finish();
}

/// Gated A/B + report section, timed directly (min of fixed-iteration
/// loops) like `gemm_kernels::bench_ukernel_variants`:
///
/// 1. i8 dot across every supported variant; asserts all variants return
///    the identical i32 (integer associativity) and that the fastest
///    vectorized variant is ≥ 2× scalar — the speed gate.
/// 2. The INT8 Ozaki GEMM accuracy gate vs the f64 reference.
/// 3. The analytic FP16-ME vs INT8 energy rows (A100, Table VIII
///    ranges), asserting INT8 wins throughput and Gflop/J, exported via
///    me-trace counters and `artifacts/ozaki_int8.txt`.
fn bench_int8_gates(_c: &mut Criterion) {
    let sm = smoke();
    let (len, reps) = if sm { (16384, 20) } else { (131072, 50) };
    let a = slice_vec(len, 3);
    let b = slice_vec(len, 4);
    let expect = dot_i8(KernelVariant::Scalar, &a, &b);

    let mut lines = vec![
        format!("# ozaki_int8: i8 dot A/B at len {len}, host avx2+fma: {}", avx2_supported()),
        "# variant  time_us  gi8ops  speedup_vs_scalar".to_string(),
    ];
    let mut scalar_time = None;
    let mut best_vectorized: Option<(KernelVariant, f64)> = None;
    for v in available_variants() {
        let mut best = f64::INFINITY;
        let mut sink = 0i64;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = dot_i8(v, &a, &b);
            best = best.min(t0.elapsed().as_secs_f64());
            sink = sink.wrapping_add(r as i64);
        }
        assert_eq!(
            dot_i8(v, &a, &b),
            expect,
            "{v} kernel diverged from scalar on the slice domain"
        );
        assert_ne!(sink, i64::MIN, "keep the timed loop live");
        if v == KernelVariant::Scalar {
            scalar_time = Some(best);
        } else if best_vectorized.is_none_or(|(_, t)| best < t) {
            best_vectorized = Some((v, best));
        }
        let speedup = scalar_time.map_or(1.0, |s| s / best);
        let line = format!(
            "{:<9} {:>8.2} {:>7.2} {:>18.2}",
            v.name(),
            best * 1e6,
            2.0 * len as f64 / best / 1e9,
            speedup
        );
        println!("bench int8_dot_gate/{line}");
        lines.push(line);
    }
    let scalar_time = scalar_time.expect("scalar variant always available");
    if let Some((v, t)) = best_vectorized {
        let speedup = scalar_time / t;
        assert!(
            speedup >= 2.0,
            "speed gate: {v} is only {speedup:.2}x scalar (need >= 2x)"
        );
        lines.push(format!("# speed gate: {v} {speedup:.2}x scalar (>= 2x) ok"));
    }

    // Accuracy gate: host INT8 emulation hits DGEMM-equivalent error.
    let n = if sm { 24 } else { 48 };
    let am = ranged_matrix(n, n, 12.0, 23);
    let bm = ranged_matrix(n, n, 12.0, 24);
    let r = ozaki_gemm_backend(&am, &bm, &OzakiBackend::host_int8());
    let c_ref = reference_gemm(&am, &bm);
    let err = me_numerics::max_rel_err(r.c.as_slice(), c_ref.as_slice());
    assert!(err < 1e-12, "accuracy gate: int8 ozaki rel err {err} at n={n}");
    lines.push(format!(
        "# accuracy gate: int8 ozaki n={n} range 1e12 beta={} rel_err={err:.3e} (< 1e-12) ok",
        r.beta
    ));

    // Energy table: FP16-ME vs INT8 on the A100, Table VIII ranges.
    let rows = int8_vs_f16_rows();
    emit_energy_counters(&rows);
    lines.push(String::new());
    lines.push("# A100 emulated-DGEMM substrate comparison (n=8192, analytic model)".to_string());
    lines.push("# config  range_1e  slices  products  tflops  watt  joules  gflops_per_j".to_string());
    for r in &rows {
        lines.push(format!(
            "{:<7} {:>8} {:>7} {:>9} {:>7.2} {:>6.1} {:>8.1} {:>13.3}",
            r.config,
            r.range_decades,
            r.slices,
            r.products,
            r.tflops,
            r.watt,
            r.joules,
            r.gflops_per_joule
        ));
    }
    for pair in rows.chunks(2) {
        assert!(
            pair[1].tflops > pair[0].tflops && pair[1].gflops_per_joule > pair[0].gflops_per_joule,
            "energy gate: int8 should beat f16-me at range 1e{}",
            pair[0].range_decades
        );
    }
    lines.push("# energy gate: int8 > f16-me on tflops and gflops/J at every range ok".to_string());

    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = root.join("artifacts");
    let path = dir.join("ozaki_int8.txt");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, lines.join("\n") + "\n"));
    match written {
        Ok(()) => println!("  int8_gates: wrote {}", path.display()),
        Err(e) => {
            eprintln!("ozaki_int8: failed to write artifact: {e}");
            std::process::exit(1);
        }
    }
}

criterion_group!(ozaki_int8, bench_dot_variants, bench_ozaki_substrates, bench_int8_gates);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let value = match arg.strip_prefix("--kernel=") {
            Some(v) => Some(v.to_string()),
            None if arg == "--kernel" => it.next().cloned(),
            None => None,
        };
        if let Some(v) = value {
            match KernelVariant::parse(&v) {
                Some(k) => set_kernel_override(Some(k)),
                None => {
                    eprintln!("ozaki_int8: unknown --kernel {v:?} (want scalar|avx2|avx512)");
                    std::process::exit(2);
                }
            }
        }
    }
    println!("ozaki_int8: dispatched kernel = {}", selected_kernel().resolve_supported());
    ozaki_int8();
}
