//! LAPACK-lite: LU with partial pivoting, Cholesky, and an HPL-style dense
//! solver with the TOP500 residual check.
//!
//! High Performance Linpack is the paper's flagship GEMM consumer (76.81%
//! of HPL runtime is GEMM in the paper's Fig 3). The workload model for HPL
//! in `me-workloads` runs *this* solver for real: a right-looking blocked LU
//! whose trailing-matrix update is a GEMM call, so profiling it yields a
//! GEMM-dominated profile for the same structural reason real HPL is
//! GEMM-dominated.

use crate::blas3::{gemm, trsm_lower_left, GemmAlgo};
use crate::mat::{Mat, Scalar};

/// LU factorization block size (the `NB` of HPL).
const NB: usize = 32;

/// Error type for factorizations.
#[derive(Debug, Clone, PartialEq)]
pub enum LapackError {
    /// Zero (or non-finite) pivot at the given elimination step.
    SingularPivot(usize),
    /// Matrix not positive definite at the given step (Cholesky).
    NotPositiveDefinite(usize),
    /// Shape precondition violated.
    ShapeMismatch(&'static str),
}

impl std::fmt::Display for LapackError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LapackError::SingularPivot(k) => write!(f, "singular pivot at step {k}"),
            LapackError::NotPositiveDefinite(k) => {
                write!(f, "matrix not positive definite at step {k}")
            }
            LapackError::ShapeMismatch(what) => write!(f, "shape mismatch: {what}"),
        }
    }
}

impl std::error::Error for LapackError {}

/// In-place LU factorization with partial pivoting: `P·A = L·U`.
///
/// On success the strictly-lower part of `a` holds `L` (unit diagonal
/// implicit) and the upper part holds `U`. Returns the pivot vector `piv`
/// where row `k` was swapped with row `piv[k]`.
///
/// Blocked right-looking algorithm: factorize an `NB`-wide panel with
/// level-2 operations, then update the trailing matrix with TRSM + GEMM.
pub fn getrf<T: Scalar>(a: &mut Mat<T>) -> Result<Vec<usize>, LapackError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LapackError::ShapeMismatch("getrf requires a square matrix"));
    }
    let mut piv: Vec<usize> = (0..n).collect();

    let mut k0 = 0;
    while k0 < n {
        let kb = NB.min(n - k0);

        // --- Panel factorization (unblocked, columns k0..k0+kb) ---
        for k in k0..k0 + kb {
            // Pivot search in column k, rows k..n.
            let mut p = k;
            let mut pmax = a[(k, k)].abs();
            for i in (k + 1)..n {
                let v = a[(i, k)].abs();
                if v > pmax {
                    p = i;
                    pmax = v;
                }
            }
            if pmax == T::ZERO || !pmax.to_f64().is_finite() {
                return Err(LapackError::SingularPivot(k));
            }
            if p != k {
                // Swap full rows (LAPACK convention) and record pivot.
                for j in 0..n {
                    let tmp = a[(k, j)];
                    a[(k, j)] = a[(p, j)];
                    a[(p, j)] = tmp;
                }
                piv.swap(k, p);
            }
            // Scale multipliers and eliminate within the panel.
            let pivot = a[(k, k)];
            for i in (k + 1)..n {
                let l = a[(i, k)] / pivot;
                a[(i, k)] = l;
                for j in (k + 1)..(k0 + kb) {
                    let u = a[(k, j)];
                    a[(i, j)] = (-l).mul_add(u, a[(i, j)]);
                }
            }
        }

        let kend = k0 + kb;
        if kend < n {
            // --- U block row: A[k0..kend, kend..n] <- L11^-1 * it ---
            let l11 = Mat::from_fn(kb, kb, |i, j| {
                if i == j {
                    T::ONE
                } else if i > j {
                    a[(k0 + i, k0 + j)]
                } else {
                    T::ZERO
                }
            });
            let mut u12 = Mat::from_fn(kb, n - kend, |i, j| a[(k0 + i, kend + j)]);
            trsm_lower_left(true, &l11, &mut u12);
            for i in 0..kb {
                for j in 0..(n - kend) {
                    a[(k0 + i, kend + j)] = u12[(i, j)];
                }
            }

            // --- Trailing update: A22 -= L21 * U12 (the GEMM that makes
            //     HPL GEMM-bound) ---
            let l21 = Mat::from_fn(n - kend, kb, |i, j| a[(kend + i, k0 + j)]);
            let mut a22 = Mat::from_fn(n - kend, n - kend, |i, j| a[(kend + i, kend + j)]);
            gemm(GemmAlgo::Tiled, -T::ONE, &l21, &u12, T::ONE, &mut a22);
            for i in 0..(n - kend) {
                for j in 0..(n - kend) {
                    a[(kend + i, kend + j)] = a22[(i, j)];
                }
            }
        }
        k0 = kend;
    }
    Ok(piv)
}

/// Solve `A·x = b` given the factorization from [`getrf`] (in-place on `b`).
pub fn getrs<T: Scalar>(lu: &Mat<T>, piv: &[usize], b: &mut [T]) {
    let n = lu.rows();
    assert_eq!(b.len(), n, "getrs: rhs length mismatch");
    // Apply the row permutation. `piv` was built by applying the same swaps
    // to an identity vector, so piv[i] is the original index of the row that
    // ended up at position i: b_permuted[i] = b[piv[i]].
    let orig = b.to_vec();
    for (i, &src) in piv.iter().enumerate() {
        b[i] = orig[src];
    }

    // Forward substitution with unit-diagonal L.
    for i in 0..n {
        let mut acc = b[i];
        for j in 0..i {
            acc = (-lu[(i, j)]).mul_add(b[j], acc);
        }
        b[i] = acc;
    }
    // Back substitution with U.
    for i in (0..n).rev() {
        let mut acc = b[i];
        for j in (i + 1)..n {
            acc = (-lu[(i, j)]).mul_add(b[j], acc);
        }
        b[i] = acc / lu[(i, i)];
    }
}

/// Cholesky factorization `A = L·Lᵀ` (lower triangle of `a` read/written).
pub fn potrf<T: Scalar>(a: &mut Mat<T>) -> Result<(), LapackError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LapackError::ShapeMismatch("potrf requires a square matrix"));
    }
    for j in 0..n {
        let mut d = a[(j, j)];
        for p in 0..j {
            let l = a[(j, p)];
            d = (-l).mul_add(l, d);
        }
        if d.to_f64() <= 0.0 || !d.to_f64().is_finite() {
            return Err(LapackError::NotPositiveDefinite(j));
        }
        let dj = d.sqrt();
        a[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut acc = a[(i, j)];
            for p in 0..j {
                acc = (-a[(i, p)]).mul_add(a[(j, p)], acc);
            }
            a[(i, j)] = acc / dj;
        }
    }
    // Zero the (stale) upper triangle for a clean L.
    for i in 0..n {
        for j in (i + 1)..n {
            a[(i, j)] = T::ZERO;
        }
    }
    Ok(())
}

/// HPL-style solve: factorize `A` and solve `A·x = b`, returning `x`.
pub fn hpl_solve<T: Scalar>(a: &Mat<T>, b: &[T]) -> Result<Vec<T>, LapackError> {
    let mut lu = a.clone();
    let piv = getrf(&mut lu)?;
    let mut x = b.to_vec();
    getrs(&lu, &piv, &mut x);
    Ok(x)
}

/// The TOP500/HPL scaled residual
/// `‖A·x − b‖∞ / (ε · (‖A‖∞·‖x‖∞ + ‖b‖∞) · n)`;
/// a run "passes" when this is O(1) (HPL uses a threshold of 16).
pub fn hpl_residual<T: Scalar>(a: &Mat<T>, x: &[T], b: &[T]) -> f64 {
    let n = a.rows();
    assert_eq!(x.len(), n);
    assert_eq!(b.len(), n);
    let mut r = vec![0.0f64; n];
    for i in 0..n {
        let mut acc = 0.0f64;
        for (j, &xv) in x.iter().enumerate() {
            acc += a[(i, j)].to_f64() * xv.to_f64();
        }
        r[i] = acc - b[i].to_f64();
    }
    let rnorm = r.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let anorm = a.inf_norm();
    let xnorm = x.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
    let bnorm = b.iter().map(|v| v.to_f64().abs()).fold(0.0, f64::max);
    let eps = f64::EPSILON;
    rnorm / (eps * (anorm * xnorm + bnorm) * n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        Mat::from_fn(n, n, |i, j| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5;
            // diagonal dominance for well-conditioned tests
            if i == j {
                v + 4.0
            } else {
                v
            }
        })
    }

    #[test]
    fn lu_solves_small_system() {
        // A = [[2,1],[1,3]], b = [3,5] -> x = [0.8, 1.4]
        let a = Mat::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = hpl_solve(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn lu_residual_small_for_random_systems() {
        for n in [1, 2, 5, 17, 40, 97, 130] {
            let a = rand_mat(n, n as u64);
            let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
            let x = hpl_solve(&a, &b).unwrap();
            let res = hpl_residual(&a, &x, &b);
            assert!(res < 16.0, "n={n}: HPL residual {res} exceeds threshold");
        }
    }

    #[test]
    fn lu_requires_pivoting_case() {
        // Zero on the leading diagonal forces a pivot swap.
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = hpl_solve(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-15);
        assert!((x[1] - 2.0).abs() < 1e-15);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let mut lu = a.clone();
        match getrf(&mut lu) {
            Err(LapackError::SingularPivot(_)) => {}
            other => panic!("expected SingularPivot, got {other:?}"),
        }
    }

    #[test]
    fn lu_rejects_rectangular() {
        let mut a = Mat::<f64>::zeros(2, 3);
        assert!(matches!(getrf(&mut a), Err(LapackError::ShapeMismatch(_))));
    }

    #[test]
    fn cholesky_reconstructs() {
        // SPD matrix A = M Mᵀ + n I
        let n = 12;
        let m = rand_mat(n, 5);
        let mt = m.transpose();
        let mut a = Mat::zeros(n, n);
        crate::blas3::gemm_naive(1.0, &m, &mt, 0.0, &mut a);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        let mut l = a.clone();
        potrf(&mut l).unwrap();
        // Check L Lᵀ = A on the lower triangle.
        let lt = l.transpose();
        let mut rec = Mat::zeros(n, n);
        crate::blas3::gemm_naive(1.0, &l, &lt, 0.0, &mut rec);
        assert!(rec.max_abs_diff(&a) < 1e-9);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Mat::from_vec(2, 2, vec![1.0, 2.0, 2.0, 1.0]); // eigenvalues 3, -1
        let mut l = a.clone();
        assert!(matches!(potrf(&mut l), Err(LapackError::NotPositiveDefinite(_))));
    }

    #[test]
    fn blocked_lu_matches_unblocked_reference() {
        // Cross-check against a simple Doolittle elimination for n > NB.
        let n = 50;
        let a = rand_mat(n, 77);
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let x = hpl_solve(&a, &b).unwrap();
        // Verify A x = b directly.
        let mut ax = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                ax[i] += a[(i, j)] * x[j];
            }
        }
        for i in 0..n {
            assert!((ax[i] - b[i]).abs() < 1e-9, "row {i}: {} vs {}", ax[i], b[i]);
        }
    }

    #[test]
    fn empty_system() {
        let a = Mat::<f64>::zeros(0, 0);
        let x = hpl_solve(&a, &[]).unwrap();
        assert!(x.is_empty());
    }
}
