//! Dense linear-algebra mini-kernels (the ME-accelerable side of Fig 3).

use super::KernelStats;
use me_linalg::blas1;
use me_linalg::blas2::gemv;
use me_linalg::blas3::{gemm, syrk_lower, trsm_lower_left, GemmAlgo};
use me_linalg::lapack::{getrf, potrf};
use me_linalg::Mat;

/// Deterministic pseudo-random matrix.
fn dmat(rows: usize, cols: usize, seed: u64) -> Mat<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    Mat::from_fn(rows, cols, |_, _| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
    })
}

fn vec_of(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
        .collect()
}

fn checksum(xs: &[f64]) -> f64 {
    xs.iter().enumerate().map(|(i, &x)| x * (1.0 + (i % 7) as f64)).sum()
}

/// Square dense GEMM of order `n`.
pub fn gemm_kernel(n: usize) -> KernelStats {
    let a = dmat(n, n, 1);
    let b = dmat(n, n, 2);
    let mut c = Mat::zeros(n, n);
    gemm(GemmAlgo::Tiled, 1.0, &a, &b, 0.0, &mut c);
    KernelStats {
        flops: 2.0 * (n as f64).powi(3),
        bytes: 4.0 * (n * n) as f64 * 8.0,
        checksum: checksum(c.as_slice()),
    }
}

/// Streamed small-block GEMM: `n` independent 6x6 (real-packed complex 3x3)
/// block multiplies, the hand-written GEMM pattern of milc/dmilc that the
/// paper's manual code inspection instruments as GEMM.
pub fn block_gemm_kernel(n: usize) -> KernelStats {
    const B: usize = 6;
    let a = dmat(B, B, 3);
    let mut acc = Mat::zeros(B, B);
    let mut x = dmat(B, B, 4);
    for _ in 0..n {
        let mut c = Mat::zeros(B, B);
        gemm(GemmAlgo::Tiled, 1.0, &a, &x, 0.0, &mut c);
        for (o, v) in acc.as_mut_slice().iter_mut().zip(c.as_slice()) {
            *o += *v;
        }
        x = c;
        // keep magnitudes bounded
        let norm = x.fro_norm().max(1e-30);
        for v in x.as_mut_slice() {
            *v /= norm;
        }
    }
    KernelStats {
        flops: n as f64 * 2.0 * (B as f64).powi(3),
        bytes: n as f64 * 3.0 * (B * B) as f64 * 8.0,
        checksum: checksum(acc.as_slice()),
    }
}

/// LU factorization of a diagonally-dominant matrix of order `n`.
pub fn lu_kernel(n: usize) -> KernelStats {
    let mut a = dmat(n, n, 5);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let piv = getrf(&mut a).expect("diagonally dominant LU cannot fail");
    KernelStats {
        flops: 2.0 / 3.0 * (n as f64).powi(3),
        bytes: (n * n) as f64 * 8.0 * 2.0,
        checksum: checksum(a.as_slice()) + piv.iter().sum::<usize>() as f64,
    }
}

/// Cholesky factorization of an SPD matrix of order `n`.
pub fn cholesky_kernel(n: usize) -> KernelStats {
    let m = dmat(n, n, 6);
    let mt = m.transpose();
    let mut a = Mat::zeros(n, n);
    gemm(GemmAlgo::Tiled, 1.0, &m, &mt, 0.0, &mut a);
    for i in 0..n {
        a[(i, i)] += n as f64 + 1.0;
    }
    potrf(&mut a).expect("SPD Cholesky cannot fail");
    KernelStats {
        flops: (n as f64).powi(3) / 3.0 + 2.0 * (n as f64).powi(3),
        bytes: (n * n) as f64 * 8.0 * 2.0,
        checksum: checksum(a.as_slice()),
    }
}

/// Symmetric eigendecomposition of an order-`n` matrix (cyclic Jacobi) —
/// the NTChem-style diagonalization behind the LAPACK regions.
pub fn sym_eig_kernel(n: usize) -> KernelStats {
    let mut a = dmat(n, n, 14);
    // symmetrize
    for i in 0..n {
        for j in 0..i {
            let x = a[(i, j)];
            a[(j, i)] = x;
        }
    }
    let e = me_linalg::sym_eig(&a, 1e-10, 30);
    KernelStats {
        // ~10 n^3 per sweep is the classic Jacobi cost estimate.
        flops: 10.0 * (n as f64).powi(3) * e.sweeps.max(1) as f64,
        bytes: 2.0 * (n * n) as f64 * 8.0,
        checksum: e.values.iter().sum(),
    }
}

/// Triangular solve with `n` right-hand sides against an order-`n` lower
/// triangular system.
pub fn trsm_kernel(n: usize) -> KernelStats {
    let mut l = dmat(n, n, 7);
    for i in 0..n {
        l[(i, i)] = 2.0 + i as f64 * 0.01;
        for j in (i + 1)..n {
            l[(i, j)] = 0.0;
        }
    }
    let mut b = dmat(n, n, 8);
    trsm_lower_left(false, &l, &mut b);
    KernelStats {
        flops: (n as f64).powi(3),
        bytes: (n * n) as f64 * 8.0 * 2.0,
        checksum: checksum(b.as_slice()),
    }
}

/// Symmetric rank-k update of order `n`.
pub fn syrk_kernel(n: usize) -> KernelStats {
    let a = dmat(n, n, 9);
    let mut c = Mat::zeros(n, n);
    syrk_lower(1.0, &a, 0.0, &mut c);
    KernelStats {
        flops: (n as f64).powi(3),
        bytes: (n * n) as f64 * 8.0 * 2.0,
        checksum: checksum(c.as_slice()),
    }
}

/// `n` GEMV sweeps of an order-`n` matrix.
pub fn gemv_kernel(n: usize) -> KernelStats {
    let a = dmat(n, n, 10);
    let x = vec_of(n, 11);
    let mut y = vec![0.0; n];
    let reps = 4.min(n.max(1));
    for _ in 0..reps {
        gemv(1.0, &a, &x, 0.5, &mut y);
    }
    KernelStats {
        flops: reps as f64 * 2.0 * (n * n) as f64,
        bytes: reps as f64 * (n * n) as f64 * 8.0,
        checksum: checksum(&y),
    }
}

/// BLAS-1 bundle: dots, axpys, and norms over vectors of length `n`.
pub fn vector_ops_kernel(n: usize) -> KernelStats {
    let x = vec_of(n, 12);
    let mut y = vec_of(n, 13);
    let d = blas1::dot(&x, &y);
    blas1::axpy(0.5, &x, &mut y);
    let nrm = blas1::nrm2(&y);
    let asum = blas1::asum(&x);
    KernelStats {
        flops: 8.0 * n as f64,
        bytes: 6.0 * n as f64 * 8.0,
        checksum: d + nrm + asum + checksum(&y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_kernel_counts() {
        let s = gemm_kernel(32);
        assert_eq!(s.flops, 2.0 * 32f64.powi(3));
        assert!(s.checksum.abs() > 0.0);
    }

    #[test]
    fn block_gemm_stays_bounded() {
        let s = block_gemm_kernel(500);
        assert!(s.checksum.is_finite());
        assert!(s.checksum.abs() < 1e6);
    }

    #[test]
    fn lu_and_cholesky_run_on_odd_sizes() {
        for n in [1, 2, 3, 17, 33] {
            assert!(lu_kernel(n).checksum.is_finite());
            assert!(cholesky_kernel(n).checksum.is_finite());
        }
    }

    #[test]
    fn vector_ops_small() {
        let s = vector_ops_kernel(3);
        assert!(s.checksum.is_finite());
        assert_eq!(vector_ops_kernel(0).flops, 0.0);
    }
}
