//! Row-major `f32` matrices sized for MLP workloads.
//!
//! The LEAPME feature vectors are wide (hundreds of components) but the
//! network is small, so a simple row-major dense matrix with an
//! ikj-ordered matmul (good cache behaviour, auto-vectorizable inner loop)
//! is sufficient and keeps the substrate dependency-free.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// Backing storage of a [`Matrix`]: either an owned heap buffer (every
/// matrix constructed in-process) or a shared read-only view into a
/// larger buffer — typically a checksummed section of an mmapped v2
/// LEAPMECP container (see `container2`), letting a model's weights be
/// used without ever materializing per-tensor `Vec`s.
///
/// The enum is private to this module; all access funnels through
/// [`Storage::as_slice`] (reads) and [`Storage::make_mut`]
/// (copy-on-write: a shared view is promoted to an owned copy on first
/// mutation). Training and workspace matrices are always `Owned`, so
/// the promotion never fires on a hot path.
#[derive(Clone)]
enum Storage {
    Owned(Vec<f32>),
    Shared(Arc<dyn AsRef<[f32]> + Send + Sync>),
}

impl Storage {
    #[inline(always)]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_ref().as_ref(),
        }
    }

    /// Copy-on-write access: promotes a shared view to an owned buffer.
    #[inline]
    fn make_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(s) = self {
            *self = Storage::Owned(s.as_ref().as_ref().to_vec());
        }
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("promoted above"),
        }
    }
}

impl Default for Storage {
    fn default() -> Self {
        Storage::Owned(Vec::new())
    }
}

impl std::fmt::Debug for Storage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

// Serde delegates to `Vec<f32>` so the JSON shape (a plain sequence) is
// identical whether the storage is owned or shared; deserialization
// always produces owned storage.
impl Serialize for Storage {
    fn to_value(&self) -> Value {
        self.as_slice().to_vec().to_value()
    }
}

impl Deserialize for Storage {
    fn from_value(value: &Value) -> Result<Self, serde::de::DeError> {
        Vec::<f32>::from_value(value).map(Storage::Owned)
    }
}

/// A dense row-major matrix of `f32`.
///
/// `Default` is the empty `0 × 0` matrix — the lazily-sized initial state
/// of every workspace buffer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Storage,
}

impl Matrix {
    /// An all-zeros matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: Storage::Owned(vec![0.0; rows * cols]),
        }
    }

    /// Build from a slice of equally long rows.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows: {} vs {}", r.len(), cols);
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix {
            rows,
            cols,
            data: Storage::Owned(data),
        }
    }

    /// Build over a shared read-only buffer without copying — the
    /// zero-copy path for weights resident in an mmapped v2 container.
    /// The matrix reads directly from `shared`; the first mutating
    /// access (training, in-place ops) promotes it to an owned copy.
    ///
    /// # Panics
    ///
    /// Panics if `shared.as_ref().len() != rows * cols`.
    pub fn from_shared(
        rows: usize,
        cols: usize,
        shared: Arc<dyn AsRef<[f32]> + Send + Sync>,
    ) -> Self {
        assert_eq!(
            shared.as_ref().as_ref().len(),
            rows * cols,
            "shared buffer does not match shape"
        );
        Matrix {
            rows,
            cols,
            data: Storage::Shared(shared),
        }
    }

    /// Whether this matrix reads from shared (zero-copy) storage rather
    /// than an owned buffer.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared(_))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Immutable view of the flat row-major data.
    pub fn data(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable view of the flat row-major data. Copy-on-write: shared
    /// (zero-copy) storage is promoted to an owned buffer first.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.data.make_mut()
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data.as_slice()[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        let idx = r * self.cols + c;
        self.data.make_mut()[idx] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols;
        &mut self.data.make_mut()[r * cols..(r + 1) * cols]
    }

    /// A new matrix keeping only the rows whose indices appear in `idx`
    /// (in `idx` order). Useful for minibatching.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.select_rows_into(idx, &mut out);
        out
    }

    /// [`Self::select_rows`] writing into a reusable matrix: `out` is
    /// reshaped to `idx.len() × self.cols` (reusing its allocation when
    /// capacity permits) and filled with the gathered rows. The result is
    /// identical to [`Self::select_rows`].
    pub fn select_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        out.resize_zeroed(idx.len(), self.cols);
        for (i, &r) in idx.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
    }

    /// Reshape to `rows × cols` with every element set to `0.0`, reusing
    /// the existing allocation when it has enough capacity. This is the
    /// workspace primitive: after warmup no call allocates, because every
    /// steady-state shape fits the capacity established on first use.
    pub fn resize_zeroed(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        // A shared matrix being reset is abandoning its view anyway,
        // so drop it for a fresh owned buffer instead of copying it.
        if matches!(self.data, Storage::Shared(_)) {
            self.data = Storage::Owned(Vec::new());
        }
        let data = self.data.make_mut();
        data.clear();
        data.resize(rows * cols, 0.0);
    }

    /// Become a copy of `src` (shape and data), reusing the existing
    /// allocation when capacity permits.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.rows = src.rows;
        self.cols = src.cols;
        let data = self.data.make_mut();
        data.clear();
        data.extend_from_slice(src.data.as_slice());
    }

    /// Matrix product `self × rhs`.
    ///
    /// Large products (≥ [`PAR_MIN_FLOPS`] multiply–adds) are partitioned
    /// over output rows across [`threads::thread_count`] worker threads;
    /// smaller ones run serially on the calling thread. Each output
    /// element is always accumulated over `k` in ascending order, so the
    /// result is bitwise identical for every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with_threads(rhs, gated_threads(self.rows * self.cols * rhs.cols))
    }

    /// [`Self::matmul`] forced onto the calling thread.
    pub fn matmul_serial(&self, rhs: &Matrix) -> Matrix {
        self.matmul_with_threads(rhs, 1)
    }

    /// [`Self::matmul`] with an explicit worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_with_threads(&self, rhs: &Matrix, threads: usize) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into_with_threads(rhs, &mut out, threads);
        out
    }

    /// [`Self::matmul`] writing into a reusable output matrix.
    ///
    /// `out` is reshaped to `self.rows × rhs.cols` (reusing its
    /// allocation when capacity permits); the values are bitwise
    /// identical to [`Self::matmul`]. `out` must not alias an operand.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        self.matmul_into_with_threads(rhs, out, gated_threads(self.rows * self.cols * rhs.cols));
    }

    /// [`Self::matmul_into`] with an explicit worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn matmul_into_with_threads(&self, rhs: &Matrix, out: &mut Matrix, threads: usize) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} × {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.resize_zeroed(self.rows, rhs.cols);
        let (a, b) = (self.data.as_slice(), rhs.data.as_slice());
        let (inner, out_cols) = (self.cols, rhs.cols);
        let kernel = row_kernel();
        run_row_partitioned(self.rows, out_cols, out.data.make_mut(), threads, |start, chunk| {
            let rows = chunk.len() / out_cols;
            kernel(&a[start * inner..(start + rows) * inner], b, inner, out_cols, chunk)
        });
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.transpose_into(&mut out);
        out
    }

    /// [`Self::transpose`] writing into a reusable matrix: `out` is
    /// reshaped to `self.cols × self.rows` (reusing its allocation when
    /// capacity permits) and filled with the transpose. This is how the
    /// backward pass feeds its products to the one forward kernel.
    pub fn transpose_into(&self, out: &mut Matrix) {
        out.resize_zeroed(self.cols, self.rows);
        if self.cols == 0 {
            return;
        }
        let rows = self.rows;
        let dst = out.data.make_mut();
        for (i, row) in self.data.as_slice().chunks_exact(self.cols).enumerate() {
            for (d, &v) in dst[i..].iter_mut().step_by(rows).zip(row) {
                *d = v;
            }
        }
    }

    /// Add `bias` (length = cols) to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != self.cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for r in 0..self.rows {
            for (v, &b) in self.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sum over rows, producing a length-`cols` vector.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.column_sums_into(&mut out);
        out
    }

    /// [`Self::column_sums`] writing into a reusable vector (cleared and
    /// refilled, reusing its allocation when capacity permits).
    pub fn column_sums_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.cols, 0.0);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row(r)) {
                *o += v;
            }
        }
    }

    /// In-place element-wise map.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data.make_mut() {
            *v = f(*v);
        }
    }

    /// Element-wise (Hadamard) product in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard_inplace(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        for (a, &b) in self.data.make_mut().iter_mut().zip(other.data.as_slice()) {
            *a *= b;
        }
    }

    /// `self += alpha * other` in place.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy_inplace(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.make_mut().iter_mut().zip(other.data.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Scale all elements in place.
    pub fn scale_inplace(&mut self, alpha: f32) {
        for v in self.data.make_mut() {
            *v *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

/// Minimum multiply–add count before a product is worth fanning out to
/// worker threads; below this, spawn overhead dominates. At the bench
/// configuration (137 → 128 → 64 → 2, batch 32) every training product
/// stays serial: the largest, the 137-wide first layer at batch 32
/// (32×137 × 137×128 and its weight gradient), is 0.56 M multiply–adds
/// against the gate's 2²⁰ ≈ 1.05 M. Scoring blocks of 64 rows or more
/// through that layer cross it.
pub const PAR_MIN_FLOPS: usize = 1 << 20;

fn gated_threads(flops: usize) -> usize {
    if flops < PAR_MIN_FLOPS {
        1
    } else {
        crate::threads::thread_count()
    }
}

/// Split `out` (a `rows × out_cols` row-major buffer) into contiguous
/// row chunks and run `kernel(first_row, chunk)` on each, in parallel
/// when `threads > 1`. Chunks never share output rows, so the kernels
/// write disjoint memory, and each output element's reduction order
/// (ascending `k`) does not depend on which chunk computes it.
fn run_row_partitioned<K>(rows: usize, out_cols: usize, out: &mut [f32], threads: usize, kernel: K)
where
    K: Fn(usize, &mut [f32]) + Sync,
{
    if out.is_empty() {
        return;
    }
    // Serial fast path: no chunk vector, no scope — the workspace paths
    // rely on this performing zero heap allocations.
    if threads <= 1 || rows <= 1 {
        kernel(0, out);
        return;
    }
    let chunks = crate::threads::partition(rows, threads);
    if chunks.len() <= 1 {
        kernel(0, out);
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = out;
        for &(start, end) in &chunks {
            let (head, tail) = rest.split_at_mut((end - start) * out_cols);
            rest = tail;
            let kernel = &kernel;
            scope.spawn(move || kernel(start, head));
        }
    });
}

/// Register-block width (in `f32` elements) of the product kernel's
/// accumulator tile: 64 floats fit the SIMD register file (eight AVX2
/// registers), so a full tile is summed entirely in registers and
/// written back once instead of being re-loaded and re-stored from L1
/// on every `k` step.
const REG_TILE: usize = 64;

/// Signature of the product kernel: `(a, b, inner, out_cols, out)`,
/// where `a` holds the `n` left-operand rows one chunk owns
/// (`n × inner`), `b` the whole right operand (`inner × out_cols`) and
/// `out` their `n × out_cols` product, zeroed by the caller.
type RowKernel = fn(&[f32], &[f32], usize, usize, &mut [f32]);

/// The product kernel this CPU runs: the AVX2 copy when the CPU has
/// AVX2, the portable copy otherwise. std caches the CPUID probe, so
/// picking costs one load per product.
fn row_kernel() -> RowKernel {
    #[cfg(target_arch = "x86_64")]
    if let Some(kernel) = avx2::kernel() {
        return kernel;
    }
    matmul_rows_portable
}

/// The product kernel compiled for the crate's baseline target.
fn matmul_rows_portable(a: &[f32], b: &[f32], inner: usize, out_cols: usize, out: &mut [f32]) {
    matmul_rows(a, b, inner, out_cols, out)
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::RowKernel;

    /// [`super::matmul_rows`] compiled with AVX2 enabled, so each
    /// 64-float tile lives in eight 256-bit registers. Only `avx2`,
    /// never `fma`: a fused multiply-add rounds once where the portable
    /// copy rounds twice. Rust never contracts `acc + a * b` on its
    /// own, so with `avx2` alone this copy runs the same separately
    /// rounded multiplies and adds, in the same order, as the portable
    /// one.
    #[target_feature(enable = "avx2")]
    fn matmul_rows(a: &[f32], b: &[f32], inner: usize, out_cols: usize, out: &mut [f32]) {
        super::matmul_rows(a, b, inner, out_cols, out)
    }

    /// The AVX2 copy of the kernel, or `None` when this CPU lacks AVX2.
    pub(super) fn kernel() -> Option<RowKernel> {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return None;
        }
        Some(|a, b, inner, out_cols, out| {
            // SAFETY: this function pointer is only handed out after
            // the check above found AVX2 on this CPU.
            #[allow(unsafe_code)]
            unsafe {
                matmul_rows(a, b, inner, out_cols, out)
            }
        })
    }
}

/// ikj product kernel body, inlined into both kernel copies. Output
/// elements are summed over `k` in ascending order from `0.0`, with
/// multiply and add kept as separate IEEE operations, so the register
/// blocking (and the AVX2 copy) leave every output bitwise identical to
/// the naive triple loop. The body indexes raw slices only: an
/// out-of-line call in the `k` loop would force the accumulator tile
/// out of registers.
#[inline(always)]
fn matmul_rows(a: &[f32], b: &[f32], inner: usize, out_cols: usize, out: &mut [f32]) {
    if inner == 0 {
        // An empty sum: the caller's zeroed output is already the product.
        return;
    }
    for (a_row, out_row) in a.chunks_exact(inner).zip(out.chunks_exact_mut(out_cols)) {
        let mut tiles = out_row.chunks_exact_mut(REG_TILE);
        let mut jb = 0;
        for tile in &mut tiles {
            // Fixed-width path: the compiler keeps `acc` in registers
            // across the whole `k` loop.
            let mut acc = [0f32; REG_TILE];
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(out_cols)) {
                let b_seg: &[f32; REG_TILE] =
                    b_row[jb..jb + REG_TILE].try_into().expect("tile width");
                for (o, &b_kj) in acc.iter_mut().zip(b_seg) {
                    *o += a_ik * b_kj;
                }
            }
            tile.copy_from_slice(&acc);
            jb += REG_TILE;
        }
        let rest = tiles.into_remainder();
        if !rest.is_empty() {
            let mut acc = [0f32; REG_TILE];
            let acc = &mut acc[..rest.len()];
            for (&a_ik, b_row) in a_row.iter().zip(b.chunks_exact(out_cols)) {
                for (o, &b_kj) in acc.iter_mut().zip(&b_row[jb..]) {
                    *o += a_ik * b_kj;
                }
            }
            rest.copy_from_slice(acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn construction_and_access() {
        let m = small();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn matmul_known() {
        let a = small();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_matmul() {
        let a = small();
        let id = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(a.matmul(&id), a);
        assert_eq!(id.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn select_rows_for_batching() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.data(), &[3.0, 1.0]);
    }

    #[test]
    fn bias_and_sums() {
        let mut m = small();
        m.add_row_bias(&[10.0, 20.0]);
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.column_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn elementwise_ops() {
        let mut m = small();
        m.map_inplace(|v| v * 2.0);
        assert_eq!(m.data(), &[2.0, 4.0, 6.0, 8.0]);
        let other = small();
        m.hadamard_inplace(&other);
        assert_eq!(m.data(), &[2.0, 8.0, 18.0, 32.0]);
        m.axpy_inplace(-1.0, &m.clone());
        assert_eq!(m.data(), &[0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn serde_round_trip() {
        let m = small();
        let s = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&s).unwrap();
        assert_eq!(m, back);
    }

    /// Test-only product oracle: each element summed over `k` in
    /// ascending order from `0.0`, one multiply and one add per step.
    /// The kernel promises exactly this arithmetic.
    fn naive_product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0f32;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    /// Deterministic pseudo-random matrix with entries in `[-0.5, 0.5]`.
    fn lcg_matrix(rows: usize, cols: usize, seed: &mut u64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((*seed >> 32) as f32 / u32::MAX as f32) - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// Bit patterns, so `-0.0` and `0.0` count as different results.
    fn bits(m: &[f32]) -> Vec<u32> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    /// Every product kernel this CPU can run: the portable copy, plus
    /// the AVX2 copy when the CPU has AVX2.
    fn kernels() -> Vec<RowKernel> {
        #[allow(unused_mut)]
        let mut kernels: Vec<RowKernel> = vec![matmul_rows_portable];
        #[cfg(target_arch = "x86_64")]
        kernels.extend(avx2::kernel());
        kernels
    }

    /// Output widths around the 64-float register tile.
    const WIDTHS: [usize; 5] = [1, 63, 64, 65, 130];

    proptest! {
        #[test]
        fn products_are_bitwise_naive(
            rows in 0usize..4, inner in 0usize..5, width in 0usize..5,
            threads in 1usize..4, seed in 0u64..1000,
        ) {
            let mut seed = seed;
            let (rows, inner, cols) = ([1, 2, 7, 33][rows], [0, 1, 3, 32, 70][inner], WIDTHS[width]);
            let a = lcg_matrix(rows, inner, &mut seed);
            let b = lcg_matrix(inner, cols, &mut seed);
            let want = bits(naive_product(&a, &b).data());
            prop_assert_eq!(bits(a.matmul_with_threads(&b, threads).data()), want.clone());
            for kernel in kernels() {
                let mut out = vec![0.0; rows * cols];
                kernel(a.data(), b.data(), inner, cols, &mut out);
                prop_assert_eq!(bits(&out), want.clone());
            }
        }

        #[test]
        fn backward_products_are_bitwise_naive(
            batch in 0usize..3, in_dim in 0usize..5, out_dim in 0usize..5,
            threads in 1usize..4, seed in 0u64..1000,
        ) {
            // A dense layer's backward products on transposed operands:
            // dW = (xᵀ) × g must equal Σ_r x[r][i]·g[r][j], and
            // dX = g × (Wᵀ) must equal Σ_k g[r][k]·W[i][k], each summed
            // in ascending order.
            let mut seed = seed;
            let (batch, in_dim, out_dim) = ([1, 5, 32][batch], WIDTHS[in_dim], WIDTHS[out_dim]);
            let x = lcg_matrix(batch, in_dim, &mut seed);
            let g = lcg_matrix(batch, out_dim, &mut seed);
            let w = lcg_matrix(in_dim, out_dim, &mut seed);
            let mut t = Matrix::default();

            x.transpose_into(&mut t);
            let d_weights = t.matmul_with_threads(&g, threads);
            let mut want = Matrix::zeros(in_dim, out_dim);
            for i in 0..in_dim {
                for j in 0..out_dim {
                    let mut acc = 0.0f32;
                    for r in 0..batch {
                        acc += x.get(r, i) * g.get(r, j);
                    }
                    want.set(i, j, acc);
                }
            }
            prop_assert_eq!(bits(d_weights.data()), bits(want.data()));

            w.transpose_into(&mut t);
            let d_input = g.matmul_with_threads(&t, threads);
            let mut want = Matrix::zeros(batch, in_dim);
            for r in 0..batch {
                for i in 0..in_dim {
                    let mut acc = 0.0f32;
                    for k in 0..out_dim {
                        acc += g.get(r, k) * w.get(i, k);
                    }
                    want.set(r, i, acc);
                }
            }
            prop_assert_eq!(bits(d_input.data()), bits(want.data()));
        }

        #[test]
        fn transpose_is_involution(rows in 1usize..6, cols in 1usize..6) {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32).collect();
            let m = Matrix::from_vec(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }

        #[test]
        fn threaded_products_are_bitwise_serial(
            a_rows in 1usize..24, shared in 1usize..24, b_cols in 1usize..24,
            threads in 2usize..7, seed in 0u64..500,
        ) {
            let mut s = seed.wrapping_add(13);
            let mut next = || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f32 / u32::MAX as f32) - 0.5
            };
            let a = Matrix::from_vec(a_rows, shared, (0..a_rows * shared).map(|_| next()).collect());
            let b = Matrix::from_vec(shared, b_cols, (0..shared * b_cols).map(|_| next()).collect());

            // Serial vs explicit thread counts, bit for bit.
            let serial = a.matmul_serial(&b);
            let par = a.matmul_with_threads(&b, threads);
            prop_assert_eq!(bits(serial.data()), bits(par.data()));
        }

        #[test]
        fn thread_count_exceeding_rows_is_safe(rows in 1usize..4, cols in 1usize..4) {
            let data: Vec<f32> = (0..rows * cols).map(|i| i as f32 + 1.0).collect();
            let a = Matrix::from_vec(rows, cols, data);
            let b = a.transpose();
            let serial = a.matmul_serial(&b);
            let par = a.matmul_with_threads(&b, 64);
            prop_assert_eq!(serial.data(), par.data());
        }
    }

    #[test]
    fn empty_products_do_not_panic() {
        let empty = Matrix::zeros(0, 0);
        assert_eq!(empty.matmul(&empty).shape(), (0, 0));
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        assert_eq!(a.matmul(&b).shape(), (3, 2));
        assert_eq!(a.matmul_with_threads(&b, 4).shape(), (3, 2));
        assert_eq!(a.transpose().shape(), (0, 3));
        assert_eq!(b.transpose().shape(), (2, 0));
    }

    #[test]
    fn zero_entries_contribute_like_any_other_value() {
        // Regression for the removed `a_ik == 0.0` skip branches: products
        // where one operand is mostly zeros must match the dense math,
        // including signed-zero and subnormal interactions.
        let a = Matrix::from_rows(&[vec![0.0, -0.0, 2.0], vec![0.0, 0.0, 0.0]]);
        let b = Matrix::from_rows(&[vec![1.0, -1.0], vec![f32::MIN_POSITIVE, 3.0], vec![0.5, 0.25]]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[1.0, 0.5, 0.0, 0.0]);
        assert_eq!(bits(c.data()), bits(naive_product(&a, &b).data()));
    }
}
