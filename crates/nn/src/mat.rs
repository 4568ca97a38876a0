//! Dense row-major `f32` matrices with the handful of operations the
//! network layers need.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Mat {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage, `data[r * cols + c]`.
    pub data: Vec<f32>,
}

impl Mat {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Mat {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds from a function of (row, col).
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Mat {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Mat { rows, cols, data }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Mat {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Mat { rows, cols, data }
    }

    /// Reshapes in place to `rows × cols`, reusing the existing buffer when
    /// its capacity allows. Element values after the call are unspecified —
    /// callers must overwrite (or [`Mat::fill`]) before reading. Never
    /// shrinks capacity, so a warmed-up scratch matrix stops allocating.
    pub fn resize_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        // `resize` only allocates when n exceeds capacity.
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }

    /// Becomes an element-wise copy of `other` (resizing in place).
    pub fn copy_from(&mut self, other: &Mat) {
        self.resize_in_place(other.rows, other.cols);
        self.data.copy_from_slice(&other.data);
    }

    /// Becomes `s * other` (resizing in place).
    pub fn copy_scaled_from(&mut self, other: &Mat, s: f32) {
        self.resize_in_place(other.rows, other.cols);
        for (o, &x) in self.data.iter_mut().zip(&other.data) {
            *o = s * x;
        }
    }

    /// `self += s * other`, element-wise.
    pub fn add_scaled(&mut self, other: &Mat, s: f32) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// A single row as a 1×n matrix view copy.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row access.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element access.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Gaussian init scaled by `std` (He/Xavier handled by the caller).
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Mat {
        Mat::from_fn(rows, cols, |_, _| {
            // Box–Muller.
            let u1: f32 = rng.gen_range(1e-7f32..1.0);
            let u2: f32 = rng.gen_range(0.0f32..1.0);
            std * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
        })
    }

    /// `self @ other` (m×k · k×n → m×n).
    ///
    /// Cache-blocked over k-panels with a vectorized axpy inner loop, and
    /// parallelized over output-row blocks above [`mcsim_par::min_parallel_work`].
    /// Serial and parallel paths share the same per-row kernel, and every
    /// output element accumulates in ascending-k order, so results are
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// `self @ other` written into a reusable output buffer (resized in
    /// place, no allocation once warm). Same kernel as [`Mat::matmul`].
    pub fn matmul_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        out.resize_in_place(self.rows, other.cols);
        out.fill(0.0);
        let flops = 2 * self.rows * self.cols * other.cols;
        run_row_blocked(out, flops, |i0, chunk| {
            self.matmul_rows_into(other, i0, chunk)
        });
    }

    /// `selfᵀ @ other` (k×m · k×n → m×n) without materializing the transpose.
    ///
    /// Blocked/parallelized like [`Mat::matmul`]; bit-identical at any
    /// thread count.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// `selfᵀ @ other` into a reusable buffer; kernel shared with
    /// [`Mat::matmul_tn`].
    pub fn matmul_tn_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        out.resize_in_place(self.cols, other.cols);
        out.fill(0.0);
        let flops = 2 * self.rows * self.cols * other.cols;
        run_row_blocked(out, flops, |i0, chunk| {
            self.matmul_tn_rows_into(other, i0, chunk)
        });
    }

    /// `self @ otherᵀ` (m×k · n×k → m×n) without materializing the transpose.
    ///
    /// Blocked/parallelized like [`Mat::matmul`]; bit-identical at any
    /// thread count.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        let mut out = Mat::default();
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// `self @ otherᵀ` into a reusable buffer; kernel shared with
    /// [`Mat::matmul_nt`].
    pub fn matmul_nt_into(&self, other: &Mat, out: &mut Mat) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        // No zero-fill: the nt kernel overwrites every output element.
        out.resize_in_place(self.rows, other.rows);
        let flops = 2 * self.rows * self.cols * other.rows;
        run_row_blocked(out, flops, |i0, chunk| {
            self.matmul_nt_rows_into(other, i0, chunk)
        });
    }

    /// Fused `self @ otherᵀ + bias`, optionally ReLU-clamped, into a
    /// reusable buffer. One pass over the output instead of three
    /// (matmul_nt → add_row_broadcast → relu); each element is
    /// `dot(row, wrow) + bias[j]` then `max(0)` — the same dot kernel and
    /// operation order as the unfused sequence, so results are bit-identical
    /// to it at any thread count.
    pub fn matmul_nt_bias_into(&self, other: &Mat, bias: &[f32], relu: bool, out: &mut Mat) {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        assert_eq!(bias.len(), other.rows, "bias length mismatch");
        out.resize_in_place(self.rows, other.rows);
        let n = other.rows;
        let flops = 2 * self.rows * self.cols * n;
        run_row_blocked(out, flops, |i0, chunk| {
            let rows = chunk.len() / n;
            for bi in 0..rows {
                let arow = self.row(i0 + bi);
                let orow = &mut chunk[bi * n..(bi + 1) * n];
                for (j, (o, &b)) in orow.iter_mut().zip(bias).enumerate() {
                    let s = dot(arow, &other.data[j * other.cols..(j + 1) * other.cols]) + b;
                    *o = if relu { s.max(0.0) } else { s };
                }
            }
        });
    }

    /// Sum of each column written into a reusable 1×cols buffer.
    pub fn col_sums_into(&self, out: &mut Mat) {
        out.resize_in_place(1, self.cols);
        out.fill(0.0);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
    }

    /// Computes output rows starting at `i0` of `self @ other` into `chunk`
    /// (a zeroed `rows × other.cols` slice). k is processed in cache-sized
    /// panels so the touched rows of `other` stay warm across the block's
    /// rows; per output element the accumulation order is ascending k.
    fn matmul_rows_into(&self, other: &Mat, i0: usize, chunk: &mut [f32]) {
        let n = other.cols;
        let rows = chunk.len() / n;
        for k0 in (0..self.cols).step_by(K_PANEL) {
            let k1 = (k0 + K_PANEL).min(self.cols);
            for bi in 0..rows {
                let arow = self.row(i0 + bi);
                let orow = &mut chunk[bi * n..(bi + 1) * n];
                let brows = other.data[k0 * n..k1 * n].chunks_exact(n);
                for (&a, brow) in arow[k0..k1].iter().zip(brows) {
                    axpy(orow, a, brow);
                }
            }
        }
    }

    /// Output rows `i0..` of `selfᵀ @ other` into `chunk`. k-outer traversal
    /// streams both inputs row-by-row; accumulation order per element is
    /// ascending k, matching [`Mat::matmul_rows_into`].
    fn matmul_tn_rows_into(&self, other: &Mat, i0: usize, chunk: &mut [f32]) {
        let n = other.cols;
        let rows = chunk.len() / n;
        for k in 0..self.rows {
            let arow = &self.data[k * self.cols..(k + 1) * self.cols];
            let brow = &other.data[k * n..(k + 1) * n];
            for bi in 0..rows {
                axpy(&mut chunk[bi * n..(bi + 1) * n], arow[i0 + bi], brow);
            }
        }
    }

    /// Output rows `i0..` of `self @ otherᵀ` into `chunk`: one four-lane dot
    /// product per output element.
    fn matmul_nt_rows_into(&self, other: &Mat, i0: usize, chunk: &mut [f32]) {
        let n = other.rows;
        let rows = chunk.len() / n;
        for bi in 0..rows {
            let arow = self.row(i0 + bi);
            let orow = &mut chunk[bi * n..(bi + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot(arow, &other.data[j * other.cols..(j + 1) * other.cols]);
            }
        }
    }

    /// Adds `v` to every row in place (bias broadcast).
    pub fn add_row_broadcast(&mut self, v: &[f32]) {
        assert_eq!(v.len(), self.cols);
        for r in 0..self.rows {
            for (x, &b) in self.row_mut(r).iter_mut().zip(v) {
                *x += b;
            }
        }
    }

    /// Writes `selfᵀ` into `out`, reusing its buffer: a pure copy, one
    /// output row per input column.
    pub(crate) fn transpose_into(&self, out: &mut Mat) {
        out.resize_in_place(self.cols, self.rows);
        for c in 0..self.cols {
            for (r, o) in out.row_mut(c).iter_mut().enumerate() {
                *o = self.data[r * self.cols + c];
            }
        }
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.data.len(), other.data.len());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scale.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of each column (used for bias gradients).
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (o, &x) in out.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

/// k-panel size for cache blocking: 64 rows of a 256-column f32 matrix is
/// 64 KiB, sized to keep the panel of the right-hand operand L2-resident
/// while it is reused across a block of output rows.
const K_PANEL: usize = 64;

/// Dispatches a row-block matmul kernel either serially (one block covering
/// the whole output) or across the global pool. `kernel(i0, chunk)` must
/// fill output rows `i0..i0 + chunk.len()/out.cols`. Row-partitioning means
/// every output element is computed entirely by one worker with the shared
/// kernel, so results are bit-identical regardless of thread count or block
/// boundaries.
pub(crate) fn run_row_blocked(
    out: &mut Mat,
    flops: usize,
    kernel: impl Fn(usize, &mut [f32]) + Sync,
) {
    if out.rows == 0 || out.cols == 0 {
        return;
    }
    let pool = mcsim_par::ThreadPool::global();
    let threads = pool.threads();
    if threads > 1 && out.rows > 1 && flops >= mcsim_par::min_parallel_work() {
        let block = out.rows.div_ceil(threads * 2).max(1);
        let cols = out.cols;
        pool.parallel_for_chunks_mut(&mut out.data, block * cols, |ci, chunk| {
            kernel(ci * block, chunk)
        });
    } else {
        kernel(0, &mut out.data);
    }
}

/// `out += a * x`, one `o + a·b` per element. Elementwise, so any vector
/// width gives the same bits: both [`crate::kernels`] modes share this plain
/// loop, which the compiler vectorizes to the target's full width.
#[inline]
pub(crate) fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    debug_assert_eq!(out.len(), x.len(), "axpy length mismatch");
    for (o, &b) in out.iter_mut().zip(x) {
        *o += a * b;
    }
}

/// Dot product with four independent accumulators (breaks the add-latency
/// chain), 4 elements per iteration; combined as
/// `((s0 + s1) + (s2 + s3)) + tail`, a fixed order used by serial and
/// parallel paths alike. Both [`crate::kernels`] modes share it.
#[inline]
pub(crate) fn dot(x: &[f32], y: &[f32]) -> f32 {
    let n = x.len();
    let main = n - n % 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    for (a, b) in x[..main].chunks_exact(4).zip(y[..main].chunks_exact(4)) {
        s0 += a[0] * b[0];
        s1 += a[1] * b[1];
        s2 += a[2] * b[2];
        s3 += a[3] * b[3];
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (&a, &b) in x[main..].iter().zip(&y[main..]) {
        s += a * b;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Mat::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data, vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mat::randn(4, 3, 1.0, &mut rng);
        let b = Mat::randn(4, 5, 1.0, &mut rng);
        let at = Mat::from_fn(3, 4, |i, j| a.get(j, i));
        let want = at.matmul(&b);
        let got = a.matmul_tn(&b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Mat::randn(4, 3, 1.0, &mut rng);
        let b = Mat::randn(5, 3, 1.0, &mut rng);
        let bt = Mat::from_fn(3, 5, |i, j| b.get(j, i));
        let want = a.matmul(&bt);
        let got = a.matmul_nt(&b);
        for (x, y) in got.data.iter().zip(&want.data) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn broadcast_and_col_sums() {
        let mut a = Mat::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        assert_eq!(a.col_sums(), vec![3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn into_variants_match_allocating_kernels_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Mat::randn(5, 7, 1.0, &mut rng);
        let b = Mat::randn(7, 4, 1.0, &mut rng);
        let c = Mat::randn(5, 4, 1.0, &mut rng);
        let d = Mat::randn(4, 7, 1.0, &mut rng);
        // Start from a deliberately wrong-shaped dirty buffer to prove the
        // resize-in-place path leaves no stale state behind.
        let mut out = Mat::from_vec(2, 2, vec![9.0; 4]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_tn_into(&c, &mut out);
        assert_eq!(out, a.matmul_tn(&c));
        a.matmul_nt_into(&d, &mut out);
        assert_eq!(out, a.matmul_nt(&d));
        c.col_sums_into(&mut out);
        assert_eq!(out.data, c.col_sums());
    }

    #[test]
    fn fused_bias_relu_matches_unfused_sequence_bitwise() {
        let mut rng = StdRng::seed_from_u64(12);
        let x = Mat::randn(6, 9, 1.0, &mut rng);
        let w = Mat::randn(5, 9, 1.0, &mut rng);
        let bias: Vec<f32> = (0..5).map(|i| (i as f32) - 2.0).collect();
        let mut want = x.matmul_nt(&w);
        want.add_row_broadcast(&bias);
        let mut fused = Mat::default();
        x.matmul_nt_bias_into(&w, &bias, false, &mut fused);
        assert_eq!(fused, want);
        for v in want.data.iter_mut() {
            *v = v.max(0.0);
        }
        x.matmul_nt_bias_into(&w, &bias, true, &mut fused);
        assert_eq!(fused, want);
    }

    /// `axpy` must be its definition `base[i] + a * x[i]` element by
    /// element, and every matmul must agree under both kernel modes.
    #[test]
    fn unrolled8_kernels_match_scalar_bitwise() {
        use crate::kernels::{set_kernel_mode, KernelMode, MODE_TEST_MUTEX};
        let _guard = MODE_TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(31);
        for n in [0usize, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17, 31, 64, 249] {
            let x: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let base: Vec<f32> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut out = base.clone();
            axpy(&mut out, 0.7, &x);
            for (i, (&o, (&b, &xi))) in out.iter().zip(base.iter().zip(&x)).enumerate() {
                assert_eq!(
                    o.to_bits(),
                    (b + 0.7 * xi).to_bits(),
                    "axpy length {n}, element {i}"
                );
            }
        }
        // End to end: every matmul variant under both modes.
        let a = Mat::randn(6, 13, 1.0, &mut rng);
        let b = Mat::randn(13, 9, 1.0, &mut rng);
        let c = Mat::randn(13, 6, 1.0, &mut rng);
        let d = Mat::randn(9, 13, 1.0, &mut rng);
        let bias: Vec<f32> = (0..9).map(|i| i as f32 * 0.3 - 1.0).collect();
        let prev = set_kernel_mode(KernelMode::Scalar);
        let (m1, m2, m3) = (a.matmul(&b), c.matmul_tn(&b), a.matmul_nt(&d));
        let mut m4 = Mat::default();
        a.matmul_nt_bias_into(&d, &bias, true, &mut m4);
        set_kernel_mode(KernelMode::Simd);
        assert_eq!(m1, a.matmul(&b));
        assert_eq!(m2, c.matmul_tn(&b));
        assert_eq!(m3, a.matmul_nt(&d));
        let mut u4 = Mat::default();
        a.matmul_nt_bias_into(&d, &bias, true, &mut u4);
        assert_eq!(m4, u4);
        set_kernel_mode(prev);
    }

    #[test]
    fn copy_and_scale_helpers() {
        let a = Mat::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]);
        let mut b = Mat::default();
        b.copy_scaled_from(&a, -0.5);
        assert_eq!(b.data, vec![-0.5, 1.0, -1.5, 2.0]);
        b.add_scaled(&a, 0.5);
        assert_eq!(b.data, vec![0.0, 0.0, 0.0, 0.0]);
        b.copy_from(&a);
        assert_eq!(b, a);
        b.fill(7.0);
        assert_eq!(b.data, vec![7.0; 4]);
    }

    #[test]
    fn randn_has_requested_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Mat::randn(100, 100, 0.5, &mut rng);
        let mean: f32 = m.data.iter().sum::<f32>() / 10_000.0;
        let var: f32 = m.data.iter().map(|x| (x - mean).powi(2)).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.02);
        assert!((var.sqrt() - 0.5).abs() < 0.02);
    }
}
