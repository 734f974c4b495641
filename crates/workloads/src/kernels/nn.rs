//! Neural-network mini-kernels with real numerics.
//!
//! These back the DL single-layer benchmarks of Table IV with *executable*
//! counterparts: an im2col convolution that actually lowers to the BLAS
//! substrate's GEMM (the §V-A2 restructuring made concrete), an LSTM cell,
//! and scaled-dot-product attention with a numerically-stable softmax.

use super::KernelStats;
use me_linalg::{gemm, GemmAlgo, Mat};

fn lcg(state: &mut u64) -> f64 {
    *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
}

/// 2D convolution by explicit im2col + GEMM: `c_in`→`c_out` channels,
/// `k×k` filter, `h×h` input (valid padding). Returns real output sums.
pub fn conv2d_im2col(h: usize, c_in: usize, c_out: usize, k: usize, seed: u64) -> KernelStats {
    if h < k || k == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let h_out = h - k + 1;
    // Input: c_in x h x h; filters: c_out x (c_in*k*k).
    let input: Vec<f64> = (0..c_in * h * h).map(|_| lcg(&mut state)).collect();
    let filters = Mat::from_fn(c_in * k * k, c_out, |_, _| lcg(&mut state) * 0.1);

    // im2col: (h_out*h_out) x (c_in*k*k)
    let cols = Mat::from_fn(h_out * h_out, c_in * k * k, |row, col| {
        let (oy, ox) = (row / h_out, row % h_out);
        let c = col / (k * k);
        let within = col % (k * k);
        let (dy, dx) = (within / k, within % k);
        input[c * h * h + (oy + dy) * h + (ox + dx)]
    });

    let mut out = Mat::zeros(h_out * h_out, c_out);
    gemm(GemmAlgo::Tiled, 1.0, &cols, &filters, 0.0, &mut out);

    let gemm_flops = 2.0 * (h_out * h_out * c_out * c_in * k * k) as f64;
    KernelStats {
        flops: gemm_flops,
        bytes: ((c_in * h * h + c_in * k * k * c_out + h_out * h_out * c_out) * 8) as f64,
        checksum: out.as_slice().iter().sum(),
    }
}

/// Direct (nested-loop) convolution — the reference the im2col path is
/// checked against in tests.
pub fn conv2d_direct(h: usize, c_in: usize, c_out: usize, k: usize, seed: u64) -> Mat<f64> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let h_out = h - k + 1;
    let input: Vec<f64> = (0..c_in * h * h).map(|_| lcg(&mut state)).collect();
    let filters: Vec<f64> = (0..c_in * k * k * c_out).map(|_| lcg(&mut state) * 0.1).collect();
    let mut out = Mat::zeros(h_out * h_out, c_out);
    for oy in 0..h_out {
        for ox in 0..h_out {
            for co in 0..c_out {
                let mut acc = 0.0;
                for c in 0..c_in {
                    for dy in 0..k {
                        for dx in 0..k {
                            let iv = input[c * h * h + (oy + dy) * h + (ox + dx)];
                            // filters laid out to match the im2col order:
                            // row = c*k*k + dy*k + dx, col = co
                            let fv = filters[(c * k * k + dy * k + dx) * c_out + co];
                            acc += iv * fv;
                        }
                    }
                }
                out[(oy * h_out + ox, co)] = acc;
            }
        }
    }
    out
}

/// One LSTM cell step over a batch: gates = [x, h]·W, then the elementwise
/// gate math. `d` is both the input and hidden width.
pub fn lstm_cell(batch: usize, d: usize, seed: u64) -> KernelStats {
    if batch == 0 || d == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let xh = Mat::from_fn(batch, 2 * d, |_, _| lcg(&mut state));
    let w = Mat::from_fn(2 * d, 4 * d, |_, _| lcg(&mut state) * 0.2);
    let mut gates = Mat::zeros(batch, 4 * d);
    gemm(GemmAlgo::Tiled, 1.0, &xh, &w, 0.0, &mut gates);

    let sigmoid = |x: f64| 1.0 / (1.0 + (-x).exp());
    let mut c_prev: Vec<f64> = (0..batch * d).map(|_| lcg(&mut state)).collect();
    let mut h_out = vec![0.0f64; batch * d];
    for bidx in 0..batch {
        for j in 0..d {
            let i_g = sigmoid(gates[(bidx, j)]);
            let f_g = sigmoid(gates[(bidx, d + j)]);
            let g_g = gates[(bidx, 2 * d + j)].tanh();
            let o_g = sigmoid(gates[(bidx, 3 * d + j)]);
            let c = f_g * c_prev[bidx * d + j] + i_g * g_g;
            c_prev[bidx * d + j] = c;
            h_out[bidx * d + j] = o_g * c.tanh();
        }
    }
    KernelStats {
        flops: 2.0 * (batch * 2 * d * 4 * d) as f64 + 30.0 * (batch * d) as f64,
        bytes: ((batch * 2 * d + 2 * d * 4 * d + batch * 4 * d) * 8) as f64,
        checksum: h_out.iter().sum::<f64>() + c_prev.iter().sum::<f64>(),
    }
}

/// Scaled-dot-product attention for one head: `seq×d` queries/keys/values,
/// numerically-stable softmax.
pub fn attention(seq: usize, d: usize, seed: u64) -> KernelStats {
    if seq == 0 || d == 0 {
        return KernelStats { flops: 0.0, bytes: 0.0, checksum: 0.0 };
    }
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let q = Mat::from_fn(seq, d, |_, _| lcg(&mut state));
    let km = Mat::from_fn(seq, d, |_, _| lcg(&mut state));
    let v = Mat::from_fn(seq, d, |_, _| lcg(&mut state));

    // scores = Q Kᵀ / sqrt(d)
    let kt = km.transpose();
    let mut scores = Mat::zeros(seq, seq);
    gemm(GemmAlgo::Tiled, 1.0 / (d as f64).sqrt(), &q, &kt, 0.0, &mut scores);

    // row-wise stable softmax
    for i in 0..seq {
        let row = scores.row_mut(i);
        let maxv = row.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0;
        for x in row.iter_mut() {
            *x = (*x - maxv).exp();
            sum += *x;
        }
        for x in row.iter_mut() {
            *x /= sum;
        }
    }

    let mut out = Mat::zeros(seq, d);
    gemm(GemmAlgo::Tiled, 1.0, &scores, &v, 0.0, &mut out);

    KernelStats {
        flops: 2.0 * (seq * seq * d) as f64 * 2.0 + 6.0 * (seq * seq) as f64,
        bytes: ((3 * seq * d + seq * seq) * 8) as f64,
        checksum: out.as_slice().iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_matches_direct_convolution() {
        // The §V-A2 restructuring must be numerically equivalent to the
        // nested-loop convolution.
        let (h, ci, co, k, seed) = (10, 3, 4, 3, 42);
        let direct = conv2d_direct(h, ci, co, k, seed);
        // Recompute via the im2col path with identical inputs.
        let stats = conv2d_im2col(h, ci, co, k, seed);
        let direct_sum: f64 = direct.as_slice().iter().sum();
        assert!(
            (stats.checksum - direct_sum).abs() < 1e-9 * direct_sum.abs().max(1.0),
            "im2col {} vs direct {direct_sum}",
            stats.checksum
        );
    }

    #[test]
    fn attention_rows_are_probability_weighted() {
        // Attention output is a convex combination of V rows: every output
        // element is bounded by V's extrema.
        let s = attention(16, 8, 7);
        assert!(s.checksum.is_finite());
        // |V| entries are in (-0.5, 0.5); convex combos stay inside, so the
        // total over 16x8 outputs is bounded by 64.
        assert!(s.checksum.abs() < 64.0, "checksum {}", s.checksum);
    }

    #[test]
    fn lstm_cell_state_bounded() {
        // tanh/sigmoid keep h in (-1, 1): checksum bounded by batch*d (h)
        // plus the unbounded-but-small c sums.
        let s = lstm_cell(4, 32, 9);
        assert!(s.checksum.is_finite());
        assert!(s.flops > 0.0);
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(conv2d_im2col(2, 1, 1, 3, 1).flops, 0.0); // h < k
        assert_eq!(lstm_cell(0, 8, 1).flops, 0.0);
        assert_eq!(attention(0, 8, 1).flops, 0.0);
    }

    #[test]
    fn conv_flop_count_matches_formula() {
        let s = conv2d_im2col(12, 2, 3, 3, 5);
        let h_out = 10.0;
        assert_eq!(s.flops, 2.0 * h_out * h_out * 3.0 * 2.0 * 9.0);
    }
}
