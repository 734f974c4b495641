//! Dense row-major matrix type and the scalar abstraction.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Floating-point scalar abstraction over `f32` and `f64`.
///
/// Kept deliberately minimal: exactly the operations the BLAS/LAPACK layer
/// needs, so the trait bound noise stays low (a guideline from the HPC
/// coding guides: generic code should read like the monomorphic version).
pub trait Scalar:
    Copy
    + PartialOrd
    + PartialEq
    + fmt::Debug
    + fmt::Display
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::ops::AddAssign
    + std::ops::SubAssign
    + std::ops::MulAssign
    + Send
    + Sync
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Fused (or contracted) multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Lossless conversion to f64 (f32 widens exactly).
    fn to_f64(self) -> f64;
    /// Conversion from f64 (rounds for f32).
    fn from_f64(x: f64) -> Self;
}

impl Scalar for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
}

impl Scalar for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        self.mul_add(a, b)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
}

/// Dense row-major matrix.
///
/// Storage is a single contiguous `Vec<T>`; element `(i, j)` lives at
/// `i * cols + j`. Row-major layout keeps the inner GEMM loops streaming
/// over contiguous memory for `B` and `C`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Mat<T> {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat { rows, cols, data: vec![T::ZERO; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::ONE;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// If `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Mat { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the backing row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the backing row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Column `j` as an owned vector.
    pub fn col_vec(&self, j: usize) -> Vec<T> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Frobenius norm, accumulated in f64.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64() * x.to_f64()).sum::<f64>().sqrt()
    }

    /// Max-abs (infinity) element norm, in f64.
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64().abs()).fold(0.0, f64::max)
    }

    /// Infinity operator norm (max row sum of absolute values), in f64.
    pub fn inf_norm(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|x| x.to_f64().abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Elementwise map into a (possibly different) scalar type.
    pub fn map<U: Scalar>(&self, f: impl Fn(T) -> U) -> Mat<U> {
        Mat { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Mutable zero-copy view of the whole matrix.
    pub fn as_view_mut(&mut self) -> MatMut<'_, T> {
        MatMut { rows: self.rows, cols: self.cols, data: &mut self.data }
    }

    /// Split the matrix into disjoint mutable row-panel views of at most
    /// `panel_rows` rows each (the last panel may be shorter). Yields
    /// `(first_row, panel)` pairs. The views borrow disjoint ranges of the
    /// backing storage (via `chunks_mut`), so they can be handed to
    /// parallel workers with no copying and no unsafe code at the call
    /// site — the substrate of the zero-copy parallel GEMM.
    ///
    /// # Panics
    /// If `panel_rows == 0`.
    pub fn split_rows_mut(
        &mut self,
        panel_rows: usize,
    ) -> impl Iterator<Item = (usize, MatMut<'_, T>)> {
        assert!(panel_rows > 0, "split_rows_mut: panel_rows must be positive");
        let cols = self.cols;
        // `max(1)` keeps the chunk size nonzero for 0-column matrices
        // (whose backing slice is empty, so nothing is yielded anyway).
        self.data.chunks_mut((panel_rows * cols).max(1)).enumerate().map(move |(i, chunk)| {
            let rows = if cols == 0 { 0 } else { chunk.len() / cols };
            (i * panel_rows, MatMut { rows, cols, data: chunk })
        })
    }

    /// Maximum absolute difference against another matrix of equal shape.
    pub fn max_abs_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a.to_f64() - b.to_f64()).abs())
            .fold(0.0, f64::max)
    }
}

/// Mutable zero-copy view of a contiguous row range of a [`Mat`].
///
/// Produced by [`Mat::split_rows_mut`] (disjoint panels for parallel
/// workers) and [`Mat::as_view_mut`] (the whole matrix, so serial and
/// parallel kernels share one signature). Row indices are panel-local;
/// the caller tracks the global offset returned alongside the view.
#[derive(Debug, PartialEq)]
pub struct MatMut<'a, T: Scalar> {
    rows: usize,
    cols: usize,
    data: &'a mut [T],
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// View `data` (exactly `rows · cols` elements) as a row-major matrix.
    pub(crate) fn from_slice(rows: usize, cols: usize, data: &'a mut [T]) -> Self {
        debug_assert_eq!(data.len(), rows * cols, "MatMut: slice length mismatch");
        MatMut { rows, cols, data }
    }
}

impl<T: Scalar> MatMut<'_, T> {
    /// Number of rows in the view.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (same as the parent matrix).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Mutably borrow the view's backing row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data
    }

    /// Mutably borrow local row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }
}

/// One 64-byte unit of aligned storage: `#[repr(align(64))]` makes every
/// `Vec<AlignBlock>` allocation start on a cache-line (and AVX-512-safe)
/// boundary, which is the alignment guarantee the pack buffers advertise.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct AlignBlock([u8; 64]);

/// Growable 64-byte-aligned scratch buffer for GEMM pack panels.
///
/// Backed by a `Vec` of zero-initialized 64-byte blocks, viewed as
/// `&mut [T]` on demand: alignment comes from the block type, validity
/// from zero-filling on growth (every bit pattern is a valid `f32`/`f64`,
/// the only [`Scalar`] implementors in this crate). Growth is monotone —
/// a buffer that has served the largest panel of a workload never
/// allocates again, which the `linalg.pack_scratch_grow` trace counter
/// makes observable.
pub struct AlignedBuf {
    blocks: Vec<AlignBlock>,
}

impl AlignedBuf {
    /// Guaranteed alignment (bytes) of every borrowed slice.
    pub const ALIGN: usize = 64;

    /// New empty buffer (no allocation until first use).
    pub fn new() -> Self {
        AlignedBuf { blocks: Vec::new() }
    }

    /// Borrow the first `len` elements as a 64-byte-aligned `&mut [T]`,
    /// growing (zero-filled) if the current capacity is short. Contents
    /// persist across calls; callers must not read elements they have not
    /// written this round.
    pub fn as_slice_mut<T: Scalar>(&mut self, len: usize) -> &mut [T] {
        let bytes = len * std::mem::size_of::<T>();
        let need = bytes.div_ceil(Self::ALIGN);
        if need > self.blocks.len() {
            me_trace::counter_add("linalg.pack_scratch_grow", 1);
            self.blocks.resize(need, AlignBlock([0u8; 64]));
        }
        // SAFETY: the backing allocation holds `need * 64 >= len *
        // size_of::<T>()` bytes, 64-byte aligned (>= align_of::<T>() for
        // any Scalar), and every byte is initialized (zero-filled on
        // growth, or previously written). `T` is restricted to the plain-
        // old-data `Scalar` floats, for which all bit patterns are valid.
        unsafe { std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr().cast::<T>(), len) }
    }
}

impl Default for AlignedBuf {
    fn default() -> Self {
        Self::new()
    }
}

thread_local! {
    /// Per-thread (A-panel, B-panel) pack scratch reused by every GEMM the
    /// thread runs — pool workers are persistent, so steady-state GEMMs
    /// allocate nothing.
    static PACK_SCRATCH: std::cell::RefCell<(AlignedBuf, AlignedBuf)> =
        std::cell::RefCell::new((AlignedBuf::new(), AlignedBuf::new()));
}

/// Run `f` with this thread's reusable 64-byte-aligned pack buffers
/// (`a_len` and `b_len` elements respectively). Buffer contents are
/// unspecified on entry — `f` must fully write whatever it reads.
///
/// Reentrant calls (a GEMM nested inside `f`) fall back to fresh local
/// buffers instead of panicking on the borrow.
pub fn with_pack_scratch<T: Scalar, R>(
    a_len: usize,
    b_len: usize,
    f: impl FnOnce(&mut [T], &mut [T]) -> R,
) -> R {
    PACK_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => {
            let (a, b) = &mut *scratch;
            f(a.as_slice_mut(a_len), b.as_slice_mut(b_len))
        }
        Err(_) => {
            let (mut a, mut b) = (AlignedBuf::new(), AlignedBuf::new());
            f(a.as_slice_mut(a_len), b.as_slice_mut(b_len))
        }
    })
}

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;

    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Mat::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn eye_and_zeros() {
        let i = Mat::<f32>::eye(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let z = Mat::<f64>::zeros(2, 2);
        assert_eq!(z.fro_norm(), 0.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::<f64>::from_fn(3, 4, |i, j| (i + 7 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], m[(1, 2)]);
    }

    #[test]
    fn norms() {
        let m = Mat::<f64>::from_vec(2, 2, vec![3.0, 0.0, 0.0, -4.0]);
        assert_eq!(m.fro_norm(), 5.0);
        assert_eq!(m.max_norm(), 4.0);
        assert_eq!(m.inf_norm(), 4.0);
    }

    #[test]
    fn map_converts_precision() {
        let m = Mat::<f64>::from_vec(1, 2, vec![0.1, 0.2]);
        let s: Mat<f32> = m.map(|x| x as f32);
        assert!((s[(0, 0)] as f64 - 0.1).abs() < 1e-8);
    }

    #[test]
    #[should_panic(expected = "shape/data mismatch")]
    fn from_vec_checks_shape() {
        let _ = Mat::<f64>::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn split_rows_mut_covers_disjoint_panels() {
        let mut m = Mat::<f64>::from_fn(7, 3, |i, j| (i * 3 + j) as f64);
        let panels: Vec<(usize, usize)> =
            m.split_rows_mut(3).map(|(r0, p)| (r0, p.rows())).collect();
        assert_eq!(panels, vec![(0, 3), (3, 3), (6, 1)]);
        // Mutations through the views land in the parent storage.
        for (r0, mut p) in m.split_rows_mut(2) {
            for li in 0..p.rows() {
                for v in p.row_mut(li) {
                    *v += (r0 * 100) as f64;
                }
            }
        }
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 0)], 206.0);
        assert_eq!(m[(6, 2)], 620.0);
    }

    #[test]
    fn split_rows_mut_degenerate() {
        let mut empty = Mat::<f64>::zeros(0, 4);
        assert_eq!(empty.split_rows_mut(2).count(), 0);
        let mut no_cols = Mat::<f64>::zeros(3, 0);
        assert_eq!(no_cols.split_rows_mut(2).count(), 0);
        let mut one = Mat::<f64>::zeros(2, 2);
        let views: Vec<usize> = one.split_rows_mut(100).map(|(r0, _)| r0).collect();
        assert_eq!(views, vec![0]);
    }

    #[test]
    fn as_view_mut_spans_everything() {
        let mut m = Mat::<f64>::from_fn(3, 2, |i, j| (i + j) as f64);
        let mut v = m.as_view_mut();
        assert_eq!((v.rows(), v.cols()), (3, 2));
        v.row_mut(1)[0] = 9.0;
        assert_eq!(v.as_mut_slice().len(), 6);
        assert_eq!(m[(1, 0)], 9.0);
    }

    #[test]
    fn degenerate_shapes() {
        let m = Mat::<f64>::zeros(0, 5);
        assert_eq!(m.rows(), 0);
        assert_eq!(m.fro_norm(), 0.0);
        let e = Mat::<f64>::eye(0);
        assert_eq!(e.shape(), (0, 0));
    }

    #[test]
    fn aligned_buf_is_aligned_zeroed_and_persistent() {
        let mut buf = AlignedBuf::new();
        let s = buf.as_slice_mut::<f64>(37);
        assert_eq!(s.len(), 37);
        assert_eq!(s.as_ptr() as usize % AlignedBuf::ALIGN, 0);
        assert!(s.iter().all(|&v| v == 0.0), "fresh growth must be zero-filled");
        s[36] = 7.5;
        // Shrinking view, same storage: still aligned, value persists.
        let s2 = buf.as_slice_mut::<f64>(10);
        assert_eq!(s2.as_ptr() as usize % AlignedBuf::ALIGN, 0);
        let s3 = buf.as_slice_mut::<f64>(37);
        assert_eq!(s3[36], 7.5);
        // f32 view of the same bytes is also fine (alignment is coarser
        // than any Scalar's).
        let s4 = buf.as_slice_mut::<f32>(3);
        assert_eq!(s4.as_ptr() as usize % AlignedBuf::ALIGN, 0);
    }

    #[test]
    fn with_pack_scratch_reuses_and_nests() {
        let p1 = with_pack_scratch::<f64, _>(16, 32, |a, b| {
            assert_eq!((a.len(), b.len()), (16, 32));
            a[0] = 1.0;
            a.as_ptr() as usize
        });
        // Same thread, same (or smaller) size: same storage, no growth.
        let p2 = with_pack_scratch::<f64, _>(16, 8, |a, _| {
            assert_eq!(a[0], 1.0);
            a.as_ptr() as usize
        });
        assert_eq!(p1, p2);
        // Nested use must not panic (falls back to fresh buffers).
        with_pack_scratch::<f64, _>(4, 4, |outer_a, _| {
            outer_a[0] = 2.0;
            with_pack_scratch::<f64, _>(4, 4, |inner_a, _| {
                inner_a[0] = 3.0;
            });
            assert_eq!(outer_a[0], 2.0);
        });
    }
}
