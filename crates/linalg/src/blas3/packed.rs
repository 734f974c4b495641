//! Prepacked B operands: pack once, multiply many times.
//!
//! The serving workload (me-serve, Table V replay) multiplies thousands
//! of skinny `A` operands against a small set of long-lived weight
//! matrices `B`. The packed GEMM core used to rebuild the NR-column/
//! KC-block panel layout of `B` from scratch on every call — for
//! `m ∈ {1, 2}` requests the pack dominates the FLOPs. [`PackedB`]
//! splits the pack out: [`pack_b_matrix`] runs the *same* `pack_b`
//! routine the fresh path uses over the whole matrix once, and the
//! compute step consumes the stored panels byte-for-byte as if it had
//! just packed them — so prepacked and fresh-pack GEMMs are **bitwise
//! identical** (same panels, same kc grid, same FMA order; DESIGN.md
//! §12 states the layout contract).
//!
//! A [`PackedB`] is immutable after construction and `Send + Sync`, so
//! one `Arc<PackedB>` can feed every shard/worker concurrently — the
//! substrate of me-serve's weight cache.

use super::blocking::Blocking;
use super::pack_b;
use super::ukernel::NR;
use crate::mat::{Mat, Scalar};

/// A B operand packed into the micro-kernel panel layout.
///
/// # Layout contract
///
/// For `B` of shape `k × n` packed under blocking `(kc, nc)` (with `nc`
/// a multiple of NR):
///
/// - columns are split into NC blocks `bj` covering `[bj·nc, bj·nc+ncb)`
///   with `ncb = min(nc, n − bj·nc)`;
/// - rows are split into KC chunks `bk` covering `[bk·kc, bk·kc+kcb)`
///   with `kcb = min(kc, k − bk·kc)`;
/// - panel `(bj, bk)` is a contiguous run of
///   `ceil(ncb / NR) · NR · kcb` elements laid out tile-major: tile
///   `jt` stores, for each k step `p` (ascending), the NR values
///   `B[bk·kc + p][bj·nc + jt·NR + j]`, zero-padded past `n`;
/// - panels are concatenated `bk`-major within `bj`
///   (`panel_index = bj · nblocks_k + bk`).
///
/// This is exactly the buffer the fresh-pack path builds per `(bj, bk)`
/// iteration, so the compute loop cannot distinguish the two sources.
#[derive(Debug, Clone)]
pub struct PackedB<T: Scalar> {
    k: usize,
    n: usize,
    blocking: Blocking,
    nblocks_k: usize,
    /// Start offset of each panel in `data`, plus a final end sentinel.
    offsets: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> PackedB<T> {
    /// Inner dimension of the packed operand (rows of B).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output columns of the packed operand (columns of B).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The blocking this operand was packed under. The compute step
    /// replays this `kc`/`nc` grid; a consumer that must be bitwise
    /// comparable to a fresh-pack GEMM has to run the same `kc`.
    pub fn blocking(&self) -> Blocking {
        self.blocking
    }

    /// Number of KC chunks along k.
    pub fn nblocks_k(&self) -> usize {
        self.nblocks_k
    }

    /// Packed payload size in bytes — what a cache hit saves repacking
    /// (and what a bounded cache budgets against).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Borrow panel `(bj, bk)` (NC block `bj`, KC chunk `bk`).
    ///
    /// # Panics
    /// If the indices are out of range.
    #[inline]
    pub fn panel(&self, bj: usize, bk: usize) -> &[T] {
        debug_assert!(bk < self.nblocks_k, "KC chunk index out of range");
        let idx = bj * self.nblocks_k + bk;
        &self.data[self.offsets[idx]..self.offsets[idx + 1]]
    }
}

/// Pack a whole `B` matrix into the panel layout under `blocking`
/// (normalized first). Runs the same `pack_b` routine the fresh-pack
/// GEMM path uses per `(bj, bk)` iteration, so the stored panels are
/// byte-identical to what that path builds in scratch.
///
/// Degenerate shapes (`k == 0` or `n == 0`) pack to an empty payload;
/// the compute step then reduces to `C ← β·C` exactly like the fresh
/// path.
pub fn pack_b_matrix<T: Scalar>(b: &Mat<T>, blocking: Blocking) -> PackedB<T> {
    let blocking = blocking.normalized();
    let (k, n) = b.shape();
    let (kc, nc) = (blocking.kc, blocking.nc);
    let nblocks_k = if k == 0 { 0 } else { k.div_ceil(kc) };
    let nblocks_j = if n == 0 { 0 } else { n.div_ceil(nc) };
    let mut offsets = Vec::with_capacity(nblocks_j * nblocks_k + 1);
    let mut total = 0usize;
    offsets.push(0);
    for bj in 0..nblocks_j {
        let jb = bj * nc;
        let ntiles = nc.min(n - jb).div_ceil(NR);
        for bk in 0..nblocks_k {
            let kb = bk * kc;
            total += ntiles * NR * kc.min(k - kb);
            offsets.push(total);
        }
    }
    let mut data = vec![T::ZERO; total];
    for bj in 0..nblocks_j {
        let jb = bj * nc;
        let ncb = nc.min(n - jb);
        for bk in 0..nblocks_k {
            let kb = bk * kc;
            let kcb = kc.min(k - kb);
            let idx = bj * nblocks_k + bk;
            pack_b(b, kb, kcb, jb, ncb, &mut data[offsets[idx]..offsets[idx + 1]]);
        }
    }
    PackedB { k, n, blocking, nblocks_k, offsets, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::MR;

    fn mk(m: usize, n: usize, seed: u64) -> Mat<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        Mat::from_fn(m, n, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        })
    }

    #[test]
    fn panel_bytes_match_fresh_pack() {
        // Every panel of a PackedB must equal what pack_b writes into a
        // fresh buffer for the same (kb, jb) window.
        let blocking = Blocking { mc: 8, kc: 5, nc: 16 }.normalized();
        let (k, n) = (12, 37);
        let b = mk(k, n, 7);
        let packed = pack_b_matrix(&b, blocking);
        assert_eq!(packed.nblocks_k(), k.div_ceil(blocking.kc));
        for bj in 0..n.div_ceil(blocking.nc) {
            let jb = bj * blocking.nc;
            let ncb = blocking.nc.min(n - jb);
            for bk in 0..packed.nblocks_k() {
                let kb = bk * blocking.kc;
                let kcb = blocking.kc.min(k - kb);
                let mut fresh = vec![0.0f64; ncb.div_ceil(NR) * NR * kcb];
                pack_b(&b, kb, kcb, jb, ncb, &mut fresh);
                assert_eq!(
                    packed.panel(bj, bk),
                    &fresh[..],
                    "panel ({bj},{bk}) diverges from the fresh pack"
                );
            }
        }
    }

    #[test]
    fn bytes_accounts_for_padding() {
        // n = 9 with NR = 8 packs two tiles per full-width block.
        let b = mk(4, 9, 3);
        let packed = pack_b_matrix(&b, Blocking { mc: MR, kc: 256, nc: 4096 });
        assert_eq!(packed.bytes(), 2 * NR * 4 * std::mem::size_of::<f64>());
        assert_eq!((packed.k(), packed.n()), (4, 9));
    }

    #[test]
    fn degenerate_shapes_pack_empty() {
        for (k, n) in [(0usize, 5usize), (5, 0), (0, 0)] {
            let packed = pack_b_matrix(&mk(k, n, 1), Blocking::DEFAULT);
            assert_eq!(packed.bytes(), 0, "k={k} n={n}");
            assert_eq!(packed.nblocks_k(), if k == 0 { 0 } else { 1 });
        }
    }
}
