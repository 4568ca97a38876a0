//! Reusable scratch memory for the training hot path.
//!
//! [`Workspace`] is a LIFO pool of [`Mat`] buffers: a layer borrows a
//! matrix for the duration of a closure, and the buffer (with its grown
//! capacity) goes back on the free list afterwards. After one warm-up step
//! every shape has been seen, so a training step borrows and returns the
//! same buffers without touching the allocator. The sparse backward
//! kernels keep their index buffers (a CSR index of a masked gradient, a
//! set of touched columns, a CSR index of a layer input the forward left
//! unindexed) in the workspace too, rebuilt in place per use.
//!
//! [`GradSet`] is a flat bundle of gradient matrices in a module's
//! canonical parameter order, used by the microbatch trainer to accumulate
//! per-slot partial gradients that are later folded deterministically.

use crate::mat::Mat;
use crate::sparse::{ColumnSet, SparseRows};

/// A LIFO pool of reusable matrix buffers, plus the index buffers of the
/// sparse backward kernels.
#[derive(Debug, Default)]
pub struct Workspace {
    free: Vec<Mat>,
    index: IndexScratch,
    /// A CSR index of a layer input: conv2's `h1` in a training backward
    /// after a scalar-mode forward, which builds none.
    input: SparseRows,
}

/// The index buffers of the sparse backward kernels, rebuilt in place per
/// sample: the CSR index of a ReLU-masked gradient and the set of columns
/// a tree's CSR input rows store.
#[derive(Debug, Default)]
pub(crate) struct IndexScratch {
    pub(crate) grad: SparseRows,
    pub(crate) cols: ColumnSet,
}

impl Workspace {
    /// An empty workspace; buffers are created on first use and recycled
    /// afterwards.
    pub fn new() -> Workspace {
        Workspace::default()
    }

    /// Borrows a `rows × cols` buffer for the duration of `f`. Contents on
    /// entry are unspecified; the closure also receives the workspace back
    /// so nested borrows take further (distinct) buffers.
    pub fn with<R>(
        &mut self,
        rows: usize,
        cols: usize,
        f: impl FnOnce(&mut Workspace, &mut Mat) -> R,
    ) -> R {
        let mut m = self.free.pop().unwrap_or_default();
        m.resize_in_place(rows, cols);
        let r = f(self, &mut m);
        self.free.push(m);
        r
    }

    /// Like [`Workspace::with`] but the buffer is zeroed on entry.
    pub fn with_zeroed<R>(
        &mut self,
        rows: usize,
        cols: usize,
        f: impl FnOnce(&mut Workspace, &mut Mat) -> R,
    ) -> R {
        self.with(rows, cols, |ws, m| {
            m.fill(0.0);
            f(ws, m)
        })
    }

    /// Lends the index buffers for the duration of `f`, with the workspace
    /// itself so `f` can borrow matrices too.
    pub(crate) fn with_index<R>(
        &mut self,
        f: impl FnOnce(&mut Workspace, &mut IndexScratch) -> R,
    ) -> R {
        let mut index = std::mem::take(&mut self.index);
        let r = f(self, &mut index);
        self.index = index;
        r
    }

    /// Lends the input-index buffer for the duration of `f`, with the
    /// workspace itself, whose other buffers `f` may borrow too.
    pub(crate) fn with_input_index<R>(
        &mut self,
        f: impl FnOnce(&mut Workspace, &mut SparseRows) -> R,
    ) -> R {
        let mut input = std::mem::take(&mut self.input);
        let r = f(self, &mut input);
        self.input = input;
        r
    }

    /// Bytes currently held by pooled buffers and the index buffers
    /// (steady-state footprint).
    pub fn bytes(&self) -> usize {
        self.free
            .iter()
            .map(|m| m.data.capacity() * std::mem::size_of::<f32>())
            .sum::<usize>()
            + self.index.grad.bytes()
            + self.index.cols.bytes()
            + self.input.bytes()
    }
}

/// A bundle of gradient matrices in a module's canonical parameter order.
#[derive(Debug, Default)]
pub struct GradSet {
    /// One gradient matrix per parameter, same order as the module's
    /// `params()` accessor.
    pub mats: Vec<Mat>,
}

impl GradSet {
    /// Builds a zeroed set from `(rows, cols)` shapes.
    pub fn from_shapes(shapes: &[(usize, usize)]) -> GradSet {
        GradSet {
            mats: shapes.iter().map(|&(r, c)| Mat::zeros(r, c)).collect(),
        }
    }

    /// Zeroes every matrix in place.
    pub fn zero(&mut self) {
        for m in &mut self.mats {
            m.fill(0.0);
        }
    }

    /// Bytes held by the gradient buffers.
    pub fn bytes(&self) -> usize {
        self.mats
            .iter()
            .map(|m| m.data.capacity() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// A counting probe around the system allocator.
///
/// The `experiments` binary installs [`alloc_probe::CountingAllocator`] as
/// its `#[global_allocator]`; anything linked without it reads a constant
/// zero. The train benchmark samples [`alloc_probe::allocation_count`]
/// around step windows to prove the steady state allocates nothing.
pub mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    /// Forwards to the system allocator while counting `alloc` calls.
    pub struct CountingAllocator;

    // SAFETY: pure pass-through to `System`; the counter has no effect on
    // the returned memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Heap allocations observed so far (0 unless the probe is installed as
    /// the global allocator).
    pub fn allocation_count() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_recycles_buffers() {
        let mut ws = Workspace::new();
        let ptr1 = ws.with(4, 4, |_, m| {
            m.fill(1.0);
            m.data.as_ptr() as usize
        });
        // Same (only) pooled buffer comes back for a smaller request.
        let ptr2 = ws.with(2, 3, |_, m| {
            assert_eq!((m.rows, m.cols), (2, 3));
            m.data.as_ptr() as usize
        });
        assert_eq!(ptr1, ptr2);
        assert!(ws.bytes() >= 16 * 4);
    }

    #[test]
    fn nested_borrows_get_distinct_buffers() {
        let mut ws = Workspace::new();
        ws.with(2, 2, |ws, outer| {
            outer.fill(5.0);
            ws.with_zeroed(2, 2, |_, inner| {
                assert!(inner.data.iter().all(|&v| v == 0.0));
            });
            assert!(outer.data.iter().all(|&v| v == 5.0));
        });
        // Both buffers returned to the pool.
        assert_eq!(ws.free.len(), 2);
    }

    #[test]
    fn bytes_count_the_index_buffers() {
        let mut ws = Workspace::new();
        assert_eq!(ws.bytes(), 0);
        ws.with_index(|_, index| {
            let g = Mat::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.0, -0.0, 3.0]);
            index.grad.assign_from_dense(&g);
            index.cols.clear(40);
            index.cols.extend(&[5, 9]);
        });
        // Row starts, then columns and values sized to the dense count by
        // the branchless scan; then the column list and its 40-wide mask.
        let index = 3 * 4 + 6 * (4 + 4) + 2 * 4 + 40;
        assert!(ws.bytes() >= index);
        ws.with_input_index(|_, input| {
            input.assign_from_dense(&Mat::zeros(4, 5));
        });
        // Five row starts and the 20-element dense count, again.
        assert!(ws.bytes() >= index + 5 * 4 + 20 * (4 + 4));
    }

    #[test]
    fn gradset_shapes_and_zero() {
        let mut gs = GradSet::from_shapes(&[(2, 3), (1, 4)]);
        gs.mats[0].set(1, 2, 7.0);
        gs.zero();
        assert!(gs.mats.iter().all(|m| m.data.iter().all(|&v| v == 0.0)));
        assert_eq!(gs.mats[0].rows, 2);
        assert!(gs.bytes() >= 10 * 4);
    }
}
