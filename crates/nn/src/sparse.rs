//! Compressed sparse row views of feature, activation and gradient matrices.
//!
//! Plan-feature rows are mostly zeros (one-hot operator slots plus hashed
//! table/column encodings leave ~90% of the feature width empty), and the
//! features of a cached plan never change across training epochs. Indexing
//! the nonzeros once lets the first tree-conv layer — the dominant share of
//! a training step's multiply-accumulates — iterate only the stored entries.
//! Post-ReLU activations and ReLU-masked gradients are mostly zeros too, so
//! the second layer's forward and backward index them per sample.
//!
//! ## Bit-identity with the dense kernels
//!
//! The sparse kernels are drop-in replacements for their dense counterparts,
//! not approximations: `sparse_dot` reproduces the dense `dot`'s exact
//! accumulation shape (four position-indexed lanes, `c % 4`, combined as
//! `((s0 + s1) + (s2 + s3)) + tail`), and the sparse backward kernels
//! accumulate per output element in the same ascending-`k` order as
//! `Mat::matmul_tn` and `Mat::matmul`. A skipped term is a product of a
//! `±0.0` input or gradient entry with a finite weight or activation, i.e.
//! some `±0.0`, and dropping it can never change an accumulator's bits: a
//! lane starts at `+0.0`; adding `±0.0` keeps it `+0.0` exactly
//! (`+0.0 + ±0.0 == +0.0` under round-to-nearest); two nonzero addends can
//! only cancel to `+0.0`, never `-0.0`; so a lane is always either `+0.0` or
//! nonzero, and in both states `s + ±0.0 == s` bitwise. The same holds one
//! level up: a gradient accumulator that starts at `+0.0` and only ever
//! receives such sums is never `-0.0` either, so skipping the add of a sum
//! that is exactly `+0.0` (a row of an input-major weight gradient that no
//! gathered input row stores) leaves it unchanged. The argument needs nothing from the data — it holds
//! for plan-feature rows (which always carry the operator one-hot `1.0`),
//! for post-ReLU activation rows, and for ReLU-masked gradient rows
//! (whichever `±0.0` the mask or the upstream gradient left), all-zero rows
//! included. That is what lets the second convolution's forward and weight
//! gradients skip the entries of `h1` that ReLU zeroed, and its input
//! gradient the entries of its gradient the mask zeroed.

use crate::mat::Mat;

/// CSR-style index of the nonzero entries of a dense matrix. Column indices
/// within each row are ascending; `±0.0` entries are treated as zeros and
/// dropped.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseRows {
    /// Row `i` occupies `cols[starts[i]..starts[i + 1]]` / `vals[...]`.
    starts: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl SparseRows {
    /// Indexes the nonzeros of `x` (rows × dim).
    pub fn from_dense(x: &Mat) -> SparseRows {
        let mut s = SparseRows::default();
        s.assign_from_dense(x);
        s
    }

    /// Re-indexes the nonzeros of `x` into this instance, reusing the
    /// existing buffers (no allocation once the largest batch shape has been
    /// seen). The result is identical to a fresh [`SparseRows::from_dense`];
    /// this is the inference hot path's way of rebuilding the conv1 CSR view
    /// of every scoring batch without touching the allocator.
    ///
    /// The scan is branchless: every element is stored at the write cursor
    /// unconditionally and the cursor advances only past nonzeros, so the
    /// sparsity pattern never feeds the branch predictor. On ~50%-dense
    /// inputs (post-ReLU activations, the worst case for a conditional
    /// `push`) this is roughly an order of magnitude faster than the
    /// branchy loop it replaces; the price is buffers sized to the dense
    /// element count rather than the nonzero count.
    pub fn assign_from_dense(&mut self, x: &Mat) {
        let total = x.rows * x.cols;
        self.starts.clear();
        self.starts.reserve(x.rows + 1);
        self.starts.push(0);
        self.cols.resize(total, 0);
        self.vals.resize(total, 0.0);
        let mut k = 0usize;
        for r in 0..x.rows {
            for (c, &v) in x.row(r).iter().enumerate() {
                self.cols[k] = c as u32;
                self.vals[k] = v;
                k += (v != 0.0) as usize;
            }
            self.starts.push(k as u32);
        }
        self.cols.truncate(k);
        self.vals.truncate(k);
        self.rows = x.rows;
        self.dim = x.cols;
    }

    /// Releases the capacity the branchless scan left past the nonzeros, so
    /// a long-lived index (a feature-cache entry) holds only what it stores.
    pub fn shrink_to_fit(&mut self) {
        self.starts.shrink_to_fit();
        self.cols.shrink_to_fit();
        self.vals.shrink_to_fit();
    }

    /// Empties the index and sets its dense width, keeping the buffers, so
    /// rows can be appended with [`SparseRows::extend_from`].
    pub fn clear(&mut self, dim: usize) {
        self.starts.clear();
        self.starts.push(0);
        self.cols.clear();
        self.vals.clear();
        self.rows = 0;
        self.dim = dim;
    }

    /// Appends every row of `other` below the rows already indexed, reusing
    /// the buffers (no allocation once the largest batch has been seen).
    /// Indexes appended one after another are exactly the index
    /// [`SparseRows::from_dense`] builds from their matrices stacked: each
    /// row keeps its nonzeros, only the row offsets shift.
    pub fn extend_from(&mut self, other: &SparseRows) {
        assert_eq!(
            other.dim, self.dim,
            "inconsistent feature widths in a batch"
        );
        if self.starts.is_empty() {
            self.starts.push(0);
        }
        let base = self.cols.len() as u32;
        self.starts
            .extend(other.starts.iter().skip(1).map(|&s| s + base));
        self.cols.extend_from_slice(&other.cols);
        self.vals.extend_from_slice(&other.vals);
        self.rows += other.rows;
    }

    /// Number of rows in the underlying matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Dense column count of the underlying matrix.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// The nonzeros of row `i` as parallel `(columns, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (a, b) = (self.starts[i] as usize, self.starts[i + 1] as usize);
        (&self.cols[a..b], &self.vals[a..b])
    }

    /// Reconstructs the dense matrix (tests and debugging).
    pub fn to_dense(&self) -> Mat {
        let mut out = Mat::zeros(self.rows, self.dim);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                out.data[r * self.dim + c as usize] = v;
            }
        }
        out
    }

    /// Heap bytes held by the index.
    pub fn bytes(&self) -> usize {
        self.starts.capacity() * std::mem::size_of::<u32>()
            + self.cols.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f32>()
    }
}

/// The distinct columns a group of CSR rows stores, as a list in first-seen
/// order plus a membership mask. Reused across calls: clearing costs one
/// write per listed column, not one per dense column.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnSet {
    cols: Vec<u32>,
    seen: Vec<bool>,
}

impl ColumnSet {
    /// Empties the set and sizes its mask for columns `0..dim`, keeping the
    /// buffers.
    pub(crate) fn clear(&mut self, dim: usize) {
        for &c in &self.cols {
            self.seen[c as usize] = false;
        }
        self.cols.clear();
        self.seen.resize(dim, false);
    }

    /// Adds each of `cols` that is not in the set yet.
    pub(crate) fn extend(&mut self, cols: &[u32]) {
        for &c in cols {
            let seen = &mut self.seen[c as usize];
            if !*seen {
                *seen = true;
                self.cols.push(c);
            }
        }
    }

    /// The columns in the set, each once.
    pub(crate) fn as_slice(&self) -> &[u32] {
        &self.cols
    }

    /// Heap bytes held by the list and the mask.
    pub(crate) fn bytes(&self) -> usize {
        self.cols.capacity() * std::mem::size_of::<u32>() + self.seen.capacity()
    }
}

/// Sparse · dense dot product, bitwise identical to `dot(x_dense, w)`: the
/// four-lane accumulation of the dense kernel is replicated by routing each
/// stored entry to the lane its column occupies there (`c % 4` within the
/// unrolled head, sequential tail for `c >= len - len % 4`).
#[inline]
pub(crate) fn sparse_dot(cols: &[u32], vals: &[f32], w: &[f32]) -> f32 {
    let main = w.len() - w.len() % 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
    let mut i = 0;
    while i < cols.len() {
        let c = cols[i] as usize;
        if c >= main {
            break;
        }
        let p = vals[i] * w[c];
        match c % 4 {
            0 => s0 += p,
            1 => s1 += p,
            2 => s2 += p,
            _ => s3 += p,
        }
        i += 1;
    }
    let mut s = (s0 + s1) + (s2 + s3);
    for (&c, &v) in cols[i..].iter().zip(&vals[i..]) {
        s += v * w[c as usize];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::dot;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A mostly-zero matrix shaped like plan features: every row has at
    /// least one nonzero (the "one-hot" slot) plus a few random entries.
    fn featurelike(rows: usize, dim: usize, rng: &mut StdRng) -> Mat {
        let mut x = Mat::zeros(rows, dim);
        for r in 0..rows {
            x.set(r, r % dim, 1.0);
            for _ in 0..dim / 8 {
                let c = rng.gen_range(0..dim);
                x.set(r, c, rng.gen_range(-2.0..2.0f32));
            }
        }
        x
    }

    #[test]
    fn from_dense_roundtrips() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = featurelike(7, 19, &mut rng);
        let s = SparseRows::from_dense(&x);
        assert_eq!((s.rows(), s.dim()), (7, 19));
        assert_eq!(s.to_dense(), x);
        assert!(s.nnz() < 7 * 19 / 2, "feature-like rows must stay sparse");
    }

    #[test]
    fn assign_from_dense_reuses_buffers_and_matches_fresh() {
        let mut rng = StdRng::seed_from_u64(5);
        let big = featurelike(9, 33, &mut rng);
        let mut s = SparseRows::from_dense(&big);
        let caps = (s.starts.capacity(), s.cols.capacity(), s.vals.capacity());
        // A smaller matrix must reuse the warmed buffers…
        let small = featurelike(4, 33, &mut rng);
        s.assign_from_dense(&small);
        assert_eq!(s, SparseRows::from_dense(&small));
        assert_eq!(
            (s.starts.capacity(), s.cols.capacity(), s.vals.capacity()),
            caps,
            "re-indexing a smaller matrix must not reallocate"
        );
        // …and going back to the big shape still matches a fresh build.
        s.assign_from_dense(&big);
        assert_eq!(s, SparseRows::from_dense(&big));
    }

    #[test]
    fn appended_indexes_equal_the_index_of_the_stack() {
        let mut rng = StdRng::seed_from_u64(9);
        let parts: Vec<Mat> = [3, 1, 5]
            .iter()
            .map(|&r| featurelike(r, 21, &mut rng))
            .collect();
        let mut stacked = Mat::zeros(0, 21);
        let mut s = SparseRows::default();
        s.clear(21);
        for p in &parts {
            stacked.data.extend_from_slice(&p.data);
            stacked.rows += p.rows;
            let mut owned = SparseRows::from_dense(p);
            owned.shrink_to_fit();
            assert_eq!(owned, SparseRows::from_dense(p));
            s.extend_from(&owned);
        }
        assert_eq!(s, SparseRows::from_dense(&stacked));
        // Clearing keeps the buffers and restarts at zero rows.
        let caps = (s.starts.capacity(), s.cols.capacity(), s.vals.capacity());
        s.clear(21);
        assert_eq!(s, SparseRows::from_dense(&Mat::zeros(0, 21)));
        s.extend_from(&SparseRows::from_dense(&parts[1]));
        assert_eq!(s, SparseRows::from_dense(&parts[1]));
        assert_eq!(
            (s.starts.capacity(), s.cols.capacity(), s.vals.capacity()),
            caps
        );
    }

    #[test]
    fn negative_zero_entries_are_dropped() {
        let x = Mat::from_vec(1, 4, vec![0.0, -0.0, 3.0, 0.0]);
        let s = SparseRows::from_dense(&x);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.row(0), (&[2u32][..], &[3.0f32][..]));
    }

    #[test]
    fn column_set_lists_each_column_once_and_clears() {
        let mut s = ColumnSet::default();
        s.clear(10);
        s.extend(&[3, 7]);
        s.extend(&[1, 3, 9, 7]);
        assert_eq!(s.as_slice(), &[3, 7, 1, 9]);
        // Clearing forgets every member, also when the width shrinks.
        s.clear(8);
        s.extend(&[7, 1, 7]);
        assert_eq!(s.as_slice(), &[7, 1]);
        s.clear(10);
        s.extend(&[9, 3]);
        assert_eq!(s.as_slice(), &[9, 3]);
    }

    /// The lane-replicating sparse dot is bitwise identical to the dense
    /// four-lane dot across widths that exercise every head/tail split.
    #[test]
    fn sparse_dot_matches_dense_dot_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        for dim in [1usize, 3, 4, 5, 8, 17, 64, 192] {
            for _ in 0..20 {
                let x = featurelike(1, dim, &mut rng);
                let w: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let s = SparseRows::from_dense(&x);
                let (cols, vals) = s.row(0);
                assert_eq!(
                    sparse_dot(cols, vals, &w).to_bits(),
                    dot(x.row(0), &w).to_bits(),
                    "dim {dim}"
                );
            }
        }
    }
}
