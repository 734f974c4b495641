//! Value-class differential for the Ozaki pipeline at the edges of the
//! input domain.
//!
//! An emulated DGEMM must return what a DGEMM returns when an operand
//! holds ±Inf or NaN: the same NaN / +Inf / −Inf / finite class in every
//! element. The reference is the f64 packed-core GEMM (`GemmPlan`). Each
//! case is a 16×16 GEMM with one special value, in A at (3, 5) or in B at
//! (5, 3), run on every Ozaki backend, the systolic array included, at
//! one and two workers.

use matrix_engines::linalg::{selected_kernel, GemmPlan, KernelVariant, Mat, Workers};
use matrix_engines::ozaki::{ozaki_gemm_systolic, ozaki_gemm_with, OzakiBackend, OzakiConfig};
use me_engine::systolic::SystolicArray;
use me_numerics::Rng64;

const N: usize = 16;

/// The IEEE class of one result element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Nan,
    PosInf,
    NegInf,
    Finite,
}

fn class(x: f64) -> Class {
    if x.is_nan() {
        Class::Nan
    } else if x == f64::INFINITY {
        Class::PosInf
    } else if x == f64::NEG_INFINITY {
        Class::NegInf
    } else {
        Class::Finite
    }
}

fn seeded(rng: &mut Rng64) -> Mat<f64> {
    Mat::from_fn(N, N, |_, _| rng.range_f64(-4.0, 4.0))
}

/// Elements of `got` whose class differs from `want`'s.
fn mismatches(got: &Mat<f64>, want: &Mat<f64>) -> usize {
    got.as_slice().iter().zip(want.as_slice()).filter(|(g, w)| class(**g) != class(**w)).count()
}

#[test]
fn non_finite_inputs_give_the_dgemm_value_class_on_every_backend() {
    let cfg = OzakiConfig::dgemm_tc();
    let backends =
        [OzakiBackend::SimulatedMe(cfg), OzakiBackend::HostInt8(cfg), OzakiBackend::HostF16(cfg)];
    let mut rng = Rng64::seed_from_u64(0xC1A55);
    let mut report = Vec::new();
    for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        for in_a in [true, false] {
            let (mut a, mut b) = (seeded(&mut rng), seeded(&mut rng));
            if in_a {
                a[(3, 5)] = special;
            } else {
                b[(5, 3)] = special;
            }
            let mut want = Mat::zeros(N, N);
            GemmPlan::new(KernelVariant::Scalar).run(1.0, &a, &b, 0.0, &mut want);
            let special_classes = want.as_slice().iter().filter(|x| !x.is_finite()).count();
            assert!(special_classes > 0, "{special} must reach the reference result");
            let side = if in_a { "A" } else { "B" };
            for backend in &backends {
                for t in [1, 2] {
                    let w = Workers::Threads(t);
                    let r = ozaki_gemm_with(&a, &b, backend, selected_kernel(), w);
                    let bad = mismatches(&r.c, &want);
                    if bad > 0 {
                        let label = backend.label();
                        report.push(format!("{special} in {side}, {label}, t={t}: {bad}"));
                    }
                }
            }
            let r = ozaki_gemm_systolic(&a, &b, &cfg, &SystolicArray::tensor_core());
            let bad = mismatches(&r.report.c, &want);
            if bad > 0 {
                report.push(format!("{special} in {side}, systolic: {bad}"));
            }
        }
    }
    assert!(report.is_empty(), "value-class mismatches:\n{}", report.join("\n"));
}

/// The fallback is confined to the marked lines: with one non-finite row
/// in A, every other row comes out bit for bit as with a finite A, on
/// every backend.
#[test]
fn finite_inputs_are_unchanged_by_the_non_finite_path() {
    let cfg = OzakiConfig::dgemm_tc();
    let mut rng = Rng64::seed_from_u64(0xF1417E);
    let (a, b) = (seeded(&mut rng), seeded(&mut rng));
    let mut a_inf = a.clone();
    a_inf[(3, 5)] = f64::INFINITY;
    for backend in
        [OzakiBackend::SimulatedMe(cfg), OzakiBackend::HostInt8(cfg), OzakiBackend::HostF16(cfg)]
    {
        let clean = ozaki_gemm_with(&a, &b, &backend, selected_kernel(), Workers::Threads(1));
        let dirty = ozaki_gemm_with(&a_inf, &b, &backend, selected_kernel(), Workers::Threads(1));
        for i in (0..N).filter(|&i| i != 3) {
            for j in 0..N {
                assert_eq!(
                    clean.c[(i, j)].to_bits(),
                    dirty.c[(i, j)].to_bits(),
                    "{} ({i},{j}) moved when row 3 went non-finite",
                    backend.label()
                );
            }
        }
    }
}
