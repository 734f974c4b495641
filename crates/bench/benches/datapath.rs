//! Benchmarks of the simulated datapaths (systolic array, SIMD unit) and
//! the mixed-precision iterative-refinement solver.

use me_bench::crit::{BenchmarkId, Criterion};
use me_bench::{criterion_group, criterion_main};
use me_bench::bench_matrix;
use me_engine::systolic::{systolic_gemm, SystolicArray};
use me_engine::{simd_dot, VectorUnit};
use me_numerics::FloatFormat;

fn bench_systolic(c: &mut Criterion) {
    let mut g = c.benchmark_group("systolic_gemm");
    g.sample_size(20);
    for &n in &[16usize, 32, 64] {
        let a = bench_matrix(n, n, 1);
        let b = bench_matrix(n, n, 2);
        let arr = SystolicArray::tensor_core();
        g.bench_with_input(BenchmarkId::new("tensor_core_4x4", n), &n, |bench, _| {
            bench.iter(|| systolic_gemm(&arr, &a, &b))
        });
    }
    g.finish();
}

fn bench_simd(c: &mut Criterion) {
    let mut g = c.benchmark_group("simd_unit");
    let x: Vec<f64> = (0..8192).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..8192).map(|i| (i as f64).cos()).collect();
    for (name, unit) in [
        ("sse2_2xf64", VectorUnit::sse2_f64()),
        ("avx2_4xf64", VectorUnit::avx2_f64()),
        ("wide_8xf64", VectorUnit::wide_f64()),
    ] {
        g.bench_function(format!("dot_8192_{name}"), |bench| {
            bench.iter(|| simd_dot(&unit, &x, &y))
        });
    }
    g.finish();
}

fn bench_ir_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("mixed_precision_ir");
    g.sample_size(10);
    let n = 64;
    let a = {
        let mut m = bench_matrix(n, n, 3);
        for i in 0..n {
            m[(i, i)] += n as f64;
        }
        m
    };
    let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    for (name, fmt) in [
        ("f32_factorization", FloatFormat::F32),
        ("f16_factorization", FloatFormat::F16),
    ] {
        g.bench_function(name, |bench| {
            bench.iter(|| me_linalg::ir_solve(&a, &b, fmt, 1e-13, 40).unwrap())
        });
    }
    g.bench_function("f64_direct_solve", |bench| {
        bench.iter(|| me_linalg::hpl_solve(&a, &b).unwrap())
    });
    g.finish();
}

fn bench_ozaki_parallel(c: &mut Criterion) {
    let mut g = c.benchmark_group("ozaki_parallel");
    g.sample_size(10);
    let a = me_ozaki::perf::ranged_matrix(48, 48, 8.0, 1);
    let b = me_ozaki::perf::ranged_matrix(48, 48, 8.0, 2);
    let backend = me_ozaki::OzakiBackend::dgemm_tc();
    let kernel = me_linalg::selected_kernel();
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("dgemm_tc_48", threads), &threads, |bench, &t| {
            let workers = me_ozaki::Workers::Threads(t);
            bench.iter(|| me_ozaki::ozaki_gemm_with(&a, &b, &backend, kernel, workers))
        });
    }
    g.finish();
}

criterion_group!(datapath, bench_systolic, bench_simd, bench_ir_solve, bench_ozaki_parallel);
criterion_main!(datapath);
