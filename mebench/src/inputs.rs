//! Seeded input generation and the input hash.
//!
//! Every input the library sees is generated here (or by
//! `me_ozaki::perf::ranged_matrix` from a seed drawn here) from the
//! `--seed` argument, and folded into one hash that the run prints:
//! the same seed gives the same hash, another seed another hash.

use me_linalg::Mat;

/// SplitMix64: tiny, seedable, and good enough for test matrices and
/// arrival schedules.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for one purpose, derived from the seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Exponential with mean `mean`.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }

    /// An `r × c` matrix uniform in [-1, 1).
    pub fn matrix(&mut self, r: usize, c: usize) -> Mat<f64> {
        Mat::from_fn(r, c, |_, _| 2.0 * self.next_f64() - 1.0)
    }
}

/// An FNV-style hash over everything generated, one 64-bit word at a time
/// (xor, multiply, then fold the high half down so every input bit
/// reaches every output bit).
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl Default for InputHash {
    fn default() -> Self {
        InputHash(0xcbf2_9ce4_8422_2325)
    }
}

impl InputHash {
    pub fn u64(&mut self, v: u64) {
        let h = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3);
        self.0 = h ^ (h >> 32);
    }

    pub fn mat(&mut self, m: &Mat<f64>) {
        self.u64(m.rows() as u64);
        self.u64(m.cols() as u64);
        for &x in m.as_slice() {
            self.u64(x.to_bits());
        }
    }

    pub fn value(&self) -> u64 {
        self.0
    }
}
