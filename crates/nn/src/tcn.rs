//! Tree Convolutional Networks over binary plan trees.
//!
//! "Tree convolution applies learnable filters over each tree node and its
//! children, aggregating information upward from child to parent. By
//! stacking more TCN layers, each node progressively integrates hierarchical
//! information from deeper subtrees. The resulting node representations are
//! pooled and then passed through a fully connected layer" (Section 4,
//! Predictive Module Design) — exactly the PlanEmb architecture of Bao/Neo.
//!
//! [`Tcn::forward_forest_ws`] over one [`ForestWs`] is the encoder's one
//! production forward: a scoring batch stacks its trees' CSR feature
//! indexes into the workspace, a training sample is stacked as a forest of
//! one tree, and [`Tcn::backward_ws_sparse`] reads that tree back from the
//! workspace. The per-node convolution is fused (self/left/right products +
//! bias + ReLU in one output pass, no gathered child matrices are
//! materialized) and every buffer is caller-provided, so a warm scoring
//! batch or training step performs no heap allocation. The dense
//! single-tree kernels (`forward`/`backward`, `forward_ws`/`backward_ws`,
//! `infer`) are the reference the tests and the trainer's reference engine
//! compare against; every path gives the same bits.

use crate::convsimd::{self, ConvTransposes};
use crate::kernels::{kernel_mode, KernelMode};
use crate::linear::{relu_mask_into, Linear};
use crate::mat::{axpy, run_row_blocked, Mat};
use crate::param::{AdamConfig, Param, SlotFold};
use crate::sparse::{ColumnSet, SparseRows};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Structural view of a binary tree: per-node left/right child indices.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TreeStructure {
    /// Left child of each node, if any.
    pub left: Vec<Option<usize>>,
    /// Right child of each node, if any.
    pub right: Vec<Option<usize>>,
}

impl TreeStructure {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }
}

/// One tree-convolution layer:
/// `h_i = relu(W_s x_i + W_l x_{left(i)} + W_r x_{right(i)} + b)`,
/// with missing children treated as zero vectors.
///
/// Equality and serialization cover the four parameters alone: the
/// layer's weight transposes are derived from them, and a new or
/// deserialized layer starts without them.
#[derive(Debug, Clone)]
pub struct TreeConvLayer {
    w_self: Param,
    w_left: Param,
    w_right: Param,
    b: Param,
    /// The transposed weights of the SIMD sparse kernel, one copy per
    /// weight state: built by the first such forward (pool threads share
    /// `&self`, so the build goes through the `OnceLock`), refilled in place
    /// by [`TreeConvLayer::adam_step`] and by the fused fold of
    /// [`Tcn::slot_folds`], and dropped by [`TreeConvLayer::params_mut`],
    /// the one other way to write the weights.
    wt: OnceLock<ConvTransposes>,
}

impl PartialEq for TreeConvLayer {
    fn eq(&self, other: &TreeConvLayer) -> bool {
        self.params() == other.params()
    }
}

/// Field names of a serialized layer, in [`TreeConvLayer::params`] order.
const PARAM_NAMES: [&str; 4] = ["w_self", "w_left", "w_right", "b"];

impl Serialize for TreeConvLayer {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(
            PARAM_NAMES
                .iter()
                .zip(self.params())
                .map(|(name, p)| (name.to_string(), p.to_value()))
                .collect(),
        )
    }
}

impl Deserialize for TreeConvLayer {
    fn from_value(v: &serde::Value) -> Result<TreeConvLayer, serde::de::DeError> {
        let serde::Value::Map(m) = v else {
            return Err(serde::de::DeError(format!(
                "TreeConvLayer: expected map, got {v:?}"
            )));
        };
        let param = |name: &str| -> Result<Param, serde::de::DeError> {
            let (_, v) = m.iter().find(|(k, _)| k == name).ok_or_else(|| {
                serde::de::DeError(format!("TreeConvLayer: missing field `{name}`"))
            })?;
            Param::from_value(v)
        };
        let [w_self, w_left, w_right, b] = PARAM_NAMES;
        Ok(TreeConvLayer {
            w_self: param(w_self)?,
            w_left: param(w_left)?,
            w_right: param(w_right)?,
            b: param(b)?,
            wt: OnceLock::new(),
        })
    }
}

impl TreeConvLayer {
    /// He-initialized layer mapping `in_dim` → `out_dim`.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / (3.0 * in_dim as f32)).sqrt();
        TreeConvLayer {
            w_self: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            w_left: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            w_right: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
            wt: OnceLock::new(),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w_self.value.rows
    }

    /// Fused allocation-free forward: for each node, the self/left/right
    /// dot products, bias, and ReLU happen in one pass over the output row —
    /// no gathered child matrices are materialized. Missing children
    /// contribute nothing (a zero row's dot product). Row-parallel above the
    /// work gate with a fixed per-element accumulation order
    /// (self + left + right + bias), so results are bit-identical at any
    /// thread count. Under [`KernelMode::Simd`] each node runs through the
    /// output-blocked kernel of the `convsimd` module — bit-identical to the
    /// reference loop (the mode is sampled once per call, so one forward
    /// never mixes kernels across row blocks).
    pub fn forward_ws(&self, x: &Mat, tree: &TreeStructure, out: &mut Mat) {
        let n = x.rows;
        let id = x.cols;
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        let (ws, wl, wr) = (&self.w_self.value, &self.w_left.value, &self.w_right.value);
        let bias = &self.b.value.data;
        let conv_node = match kernel_mode() {
            KernelMode::Simd => convsimd::conv_node_dense,
            KernelMode::Scalar => convsimd::conv_node_dense_ref,
        };
        let flops = 6 * n * id * od;
        run_row_blocked(out, flops, |i0, chunk| {
            for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                let i = i0 + bi;
                let xl = tree.left[i].map(|j| x.row(j));
                let xr = tree.right[i].map(|j| x.row(j));
                conv_node(
                    x.row(i),
                    xl,
                    xr,
                    &ws.data,
                    &wl.data,
                    &wr.data,
                    bias,
                    id,
                    orow,
                );
            }
        });
    }

    /// Fused forward over a sparse input view; bitwise identical to
    /// [`TreeConvLayer::forward_ws`] on the dense matrix (see the
    /// [`crate::sparse`] module docs for the argument). Feature rows are
    /// ~90% zeros, so this is the main single-thread win of the training
    /// hot path: only stored nonzeros are multiplied.
    pub fn forward_ws_sparse(&self, x: &SparseRows, tree: &TreeStructure, out: &mut Mat) {
        let n = x.rows();
        let id = x.dim();
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        let (ws, wl, wr) = (&self.w_self.value, &self.w_left.value, &self.w_right.value);
        let bias = &self.b.value.data;
        let flops = 6 * x.nnz() * od;
        run_row_blocked(out, flops, |i0, chunk| {
            for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                let i = i0 + bi;
                convsimd::conv_node_sparse_ref(
                    x.row(i),
                    tree.left[i].map(|j| x.row(j)),
                    tree.right[i].map(|j| x.row(j)),
                    &ws.data,
                    &wl.data,
                    &wr.data,
                    bias,
                    id,
                    orow,
                );
            }
        });
    }

    /// [`TreeConvLayer::forward_ws_sparse`] through the register-strip
    /// kernel of the `convsimd` module: instead of `od` branchy passes over
    /// each CSR row, every stored nonzero streams one sequential
    /// multiply-add row against the layer's transposed weights (built by
    /// the first call after a weight change — zero allocation once warm).
    /// Bitwise identical to the scalar sparse kernel, and through it to the
    /// dense forward; see the `convsimd` module docs for the lane argument.
    /// The sparse kernel of both the inference and the training hot path.
    pub(crate) fn forward_ws_sparse_blocked(
        &self,
        x: &SparseRows,
        tree: &TreeStructure,
        out: &mut Mat,
    ) {
        let n = x.rows();
        let id = x.dim();
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        let wt = self.transposes();
        let bias = &self.b.value.data;
        let flops = 6 * x.nnz() * od;
        run_row_blocked(out, flops, |i0, chunk| {
            convsimd::with_sparse_scratch(od, |scratch| {
                for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                    let i = i0 + bi;
                    let rows = [
                        Some(x.row(i)),
                        tree.left[i].map(|j| x.row(j)),
                        tree.right[i].map(|j| x.row(j)),
                    ];
                    convsimd::conv_node_sparse(rows, wt.slices(), bias, id, od, scratch, orow);
                }
            });
        });
    }

    /// Allocation-free backward, the dense reference. `h` is the forward
    /// output (its zeros mask the ReLU); per-parameter gradients go into
    /// zeroed scratch first and are then added to `grads` (layout per
    /// [`TreeConvLayer::grad_shapes`]: the weights input-major), keeping one
    /// accumulation order for wrapper and workspace callers. Skipping
    /// `grad_in` skips the three input-gradient matmuls entirely — the
    /// first layer of an encoder never needs them.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_ws(
        &self,
        x: &Mat,
        h: &Mat,
        tree: &TreeStructure,
        grad_out: &Mat,
        grads: &mut [Mat],
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        assert_eq!(grads.len(), 4, "tree conv grad layout");
        let od = self.out_dim();
        let id = x.cols;
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(h, grad_out, gpre);
            scratch.with(id, od, |scratch, dwt| {
                tn_gather_into(gpre, x, Some, dwt);
                grads[0].add_assign(dwt);
                tn_gather_into(gpre, x, |k| tree.left[k], dwt);
                grads[1].add_assign(dwt);
                tn_gather_into(gpre, x, |k| tree.right[k], dwt);
                grads[2].add_assign(dwt);
                scratch.with(1, od, |_, db| {
                    gpre.col_sums_into(db);
                    grads[3].add_assign(db);
                });
            });
            if let Some(grad_x) = grad_in {
                // grad_x: self term + scattered child terms.
                gpre.matmul_into(&self.w_self.value, grad_x);
                scratch.with(gpre.rows, id, |_, via| {
                    gpre.matmul_into(&self.w_left.value, via);
                    scatter_add(grad_x, via, &tree.left);
                    gpre.matmul_into(&self.w_right.value, via);
                    scatter_add(grad_x, via, &tree.right);
                });
            }
        });
    }

    /// Allocation-free backward over a CSR view of the input; bitwise
    /// identical to [`TreeConvLayer::backward_ws`] on the dense matrix. The
    /// three weight gradients touch only the stored nonzeros of `x`, and
    /// only the input rows of the input-major gradients that the gathered
    /// rows store. The input gradient, when requested, is driven by a CSR
    /// index of the ReLU-masked gradient instead of dense products over it
    /// — the second layer's backward in training, where the mask zeroes
    /// most of the gradient: one `axpy` of a weight row per stored `(i, k)`,
    /// each child term summed in a 1×id row and added in the dense
    /// `scatter_add` order. Every element still sums its terms in
    /// ascending node order, and every skipped term is a `±0.0` input or
    /// gradient entry times a finite value, so the bits are the dense
    /// kernel's (see the [`crate::sparse`] module docs). The indexes are
    /// rebuilt in place in `scratch`: a warm call allocates nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_ws_sparse(
        &self,
        x: &SparseRows,
        h: &Mat,
        tree: &TreeStructure,
        grad_out: &Mat,
        grads: &mut [Mat],
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        assert_eq!(grads.len(), 4, "tree conv grad layout");
        let od = self.out_dim();
        let id = x.dim();
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(h, grad_out, gpre);
            scratch.with_index(|scratch, index| {
                scratch.with(id, od, |_, dwt| {
                    let cols = &mut index.cols;
                    add_tn_sparse(gpre, x, Some, dwt, cols, &mut grads[0]);
                    add_tn_sparse(gpre, x, |k| tree.left[k], dwt, cols, &mut grads[1]);
                    add_tn_sparse(gpre, x, |k| tree.right[k], dwt, cols, &mut grads[2]);
                });
                scratch.with(1, od, |_, db| {
                    gpre.col_sums_into(db);
                    grads[3].add_assign(db);
                });
                let Some(grad_in) = grad_in else { return };
                let sg = &mut index.grad;
                sg.assign_from_dense(gpre);
                // Input gradient: the self term, then each child's term
                // summed on its own and added to the child's row, in the
                // order of the dense kernel's two `scatter_add`s.
                grad_in.resize_in_place(x.rows(), id);
                for i in 0..x.rows() {
                    csr_row_matmul(sg.row(i), &self.w_self.value, grad_in.row_mut(i));
                }
                scratch.with(1, id, |_, via| {
                    for (w, idx) in [
                        (&self.w_left.value, &tree.left),
                        (&self.w_right.value, &tree.right),
                    ] {
                        for (i, &j) in idx.iter().enumerate() {
                            let Some(j) = j else { continue };
                            csr_row_matmul(sg.row(i), w, &mut via.data);
                            for (o, &v) in grad_in.row_mut(j).iter_mut().zip(&via.data) {
                                *o += v;
                            }
                        }
                    }
                });
            });
        });
    }

    /// The weight transposes of the current weight state, built on first
    /// use. Concurrent first callers wait for one build and read its
    /// buffers.
    fn transposes(&self) -> &ConvTransposes {
        self.wt.get_or_init(|| {
            let mut wt = ConvTransposes::default();
            wt.fill(&self.w_self.value, &self.w_left.value, &self.w_right.value);
            wt
        })
    }

    /// Parameters in canonical order: `[w_self, w_left, w_right, b]`.
    pub fn params(&self) -> [&Param; 4] {
        [&self.w_self, &self.w_left, &self.w_right, &self.b]
    }

    /// Mutable parameter access in canonical order. Drops the weight
    /// transposes, since the caller may write the weights through the
    /// borrows; the next SIMD sparse forward builds them again.
    pub fn params_mut(&mut self) -> [&mut Param; 4] {
        self.wt.take();
        [
            &mut self.w_self,
            &mut self.w_left,
            &mut self.w_right,
            &mut self.b,
        ]
    }

    /// Gradient-buffer shapes in [`TreeConvLayer::params`] order, the
    /// layer's one gradient layout: each weight input-major (`in × out`,
    /// the layout of the layer's weight transposes, so a tree adds the rows
    /// its gathered inputs store contiguously), then the `1 × out` bias.
    pub fn grad_shapes(&self) -> [(usize, usize); 4] {
        let (od, id) = (self.w_self.value.rows, self.w_self.value.cols);
        [(id, od), (id, od), (id, od), (1, od)]
    }

    /// Adds gradients in [`TreeConvLayer::grad_shapes`] layout into the
    /// parameters' accumulators, transposing the weights. Writes no weight,
    /// so the weight transposes stay.
    fn add_grads(&mut self, mats: &[Mat]) {
        assert_eq!(mats.len(), 4, "tree conv grad layout");
        for (acc, g) in [&mut self.w_self, &mut self.w_left, &mut self.w_right]
            .into_iter()
            .zip(mats)
        {
            let (od, id) = (acc.grad.rows, acc.grad.cols);
            assert_eq!((g.rows, g.cols), (id, od), "input-major weight gradient");
            for (r, row) in acc.grad.data.chunks_exact_mut(id).enumerate() {
                for (c, a) in row.iter_mut().enumerate() {
                    *a += g.data[c * od + r];
                }
            }
        }
        self.b.grad.add_assign(&mats[3]);
    }

    /// The layer's four parameters as fused fold-and-step jobs, in
    /// [`TreeConvLayer::params`] order: each weight input-major, with its
    /// transposes to refill when built, then the bias.
    fn slot_folds(&mut self) -> [SlotFold<'_>; 4] {
        let TreeConvLayer {
            w_self,
            w_left,
            w_right,
            b,
            wt,
        } = self;
        let [ts, tl, tr] = match wt.get_mut() {
            Some(wt) => wt.mats_mut().map(Some),
            None => [None, None, None],
        };
        [
            SlotFold::input_major(w_self, ts),
            SlotFold::input_major(w_left, tl),
            SlotFold::input_major(w_right, tr),
            SlotFold::new(b),
        ]
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w_self.zero_grad();
        self.w_left.zero_grad();
        self.w_right.zero_grad();
        self.b.zero_grad();
    }

    /// Adam step. Built weight transposes are refilled in place from the
    /// new weights, so a training loop keeps one set of buffers.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.w_self.adam_step(lr, t, cfg);
        self.w_left.adam_step(lr, t, cfg);
        self.w_right.adam_step(lr, t, cfg);
        self.b.adam_step(lr, t, cfg);
        if let Some(wt) = self.wt.get_mut() {
            wt.fill(&self.w_self.value, &self.w_left.value, &self.w_right.value);
        }
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.w_self.len() + self.w_left.len() + self.w_right.len() + self.b.len()
    }
}

/// `out = gather(x)ᵀ @ gpre` (`id × od`) without materializing the
/// gather: the input-major weight gradient of one filter over dense input
/// rows, where `gather(k)` is the row of `x` node `k` sees through the
/// filter (its own, or a child's). One `od`-wide `axpy` of node `k`'s
/// gradient row per column of its gathered row; per element the sum runs
/// over ascending nodes, one add per node — [`Mat::matmul_tn`]'s order for
/// `gpreᵀ @ gather(x)`, transposed. Nodes without the row are skipped (a
/// zero row contributes nothing).
fn tn_gather_into(gpre: &Mat, x: &Mat, gather: impl Fn(usize) -> Option<usize>, out: &mut Mat) {
    out.resize_in_place(x.cols, gpre.cols);
    out.fill(0.0);
    for k in 0..gpre.rows {
        let Some(j) = gather(k) else { continue };
        let g = gpre.row(k);
        for (c, &v) in x.row(j).iter().enumerate() {
            axpy(out.row_mut(c), v, g);
        }
    }
}

/// Adds `gather(x)ᵀ @ gpre` into the input-major `grad` (`id × od`): the
/// weight gradient of one filter over a CSR input, where `gather(k)` is the
/// row of `x` node `k` sees through the filter (its own, or a child's). The
/// tree's product accumulates in `dwt` (`id × od` scratch, contents
/// unspecified on entry), one `od`-wide `axpy` per stored nonzero, and only
/// the rows the gathered inputs store (`cols`) are zeroed, filled and then
/// added, each contiguously, into the same row of `grad`. Per element that
/// is [`tn_gather_into`]'s sum: ascending node order, one add per node,
/// then one add into `grad`. A skipped term is a `±0.0` input times a
/// gradient entry, and a skipped row would add an exact `+0.0` sum; neither
/// moves a bit (see the [`crate::sparse`] module docs).
fn add_tn_sparse(
    gpre: &Mat,
    x: &SparseRows,
    gather: impl Fn(usize) -> Option<usize>,
    dwt: &mut Mat,
    cols: &mut ColumnSet,
    grad: &mut Mat,
) {
    let od = gpre.cols;
    cols.clear(x.dim());
    for k in 0..gpre.rows {
        if let Some(j) = gather(k) {
            cols.extend(x.row(j).0);
        }
    }
    for &c in cols.as_slice() {
        dwt.row_mut(c as usize).fill(0.0);
    }
    for k in 0..gpre.rows {
        let Some(j) = gather(k) else { continue };
        let g = gpre.row(k);
        let (cs, vs) = x.row(j);
        for (&c, &v) in cs.iter().zip(vs) {
            axpy(dwt.row_mut(c as usize), v, g);
        }
    }
    debug_assert_eq!(
        (grad.rows, grad.cols),
        (x.dim(), od),
        "input-major weight gradient"
    );
    for &c in cols.as_slice() {
        let c = c as usize;
        for (g, &d) in grad.row_mut(c).iter_mut().zip(dwt.row(c)) {
            *g += d;
        }
    }
}

/// `out = g @ w` for one CSR row `g`: one `axpy` of a row of `w` per stored
/// entry, in ascending `k`, the order of [`Mat::matmul`].
fn csr_row_matmul((ks, gs): (&[u32], &[f32]), w: &Mat, out: &mut [f32]) {
    out.fill(0.0);
    for (&k, &g) in ks.iter().zip(gs) {
        axpy(out, g, w.row(k as usize));
    }
}

/// `target[idx[i]] += src[i]` for present children.
fn scatter_add(target: &mut Mat, src: &Mat, idx: &[Option<usize>]) {
    for (i, &j) in idx.iter().enumerate() {
        if let Some(j) = j {
            let cols = target.cols;
            for c in 0..cols {
                target.data[j * cols + c] += src.data[i * cols + c];
            }
        }
    }
}

/// Dynamic pooling over node representations: concatenated max and mean
/// pools plus a log node count. Max pooling captures dominant operators;
/// mean pooling (≈ sum / n) matches the additive structure of plan cost.
fn pool_into(h: &Mat, pooled: &mut Mat, arg: &mut Vec<usize>) {
    pooled.resize_in_place(1, 2 * h.cols + 1);
    pool_rows_into(h, 0, h.rows, &mut pooled.data, arg);
}

/// Pools the node rows `r0..r1` of `h` into `out` (one `2d+1`-wide pooled
/// row). Shared by the single-tree [`pool_into`] and the forest forward, so
/// a tree pooled as a forest segment is bit-identical to pooling it alone:
/// the per-column scan order (ascending row) and the division by the segment
/// length are the same. `arg` records the absolute argmax rows.
///
/// The scan runs row by row, each row updating every column's running max,
/// argmax and sum with branch-free selects, so it reads `h` contiguously
/// and vectorizes; each column still sees its rows in ascending order
/// under the same `v > best` test.
fn pool_rows_into(h: &Mat, r0: usize, r1: usize, out: &mut [f32], arg: &mut Vec<usize>) {
    let d = h.cols;
    debug_assert_eq!(out.len(), 2 * d + 1, "pooled row width");
    let n = r1 - r0;
    arg.clear();
    arg.resize(d, 0);
    let (best, rest) = out.split_at_mut(d);
    let (sum, log_n) = rest.split_at_mut(d);
    best.fill(f32::MIN);
    sum.fill(0.0);
    for r in r0..r1 {
        let row = h.row(r);
        for (((b, s), a), &v) in best
            .iter_mut()
            .zip(sum.iter_mut())
            .zip(arg.iter_mut())
            .zip(row)
        {
            *s += v;
            let gt = v > *b;
            *b = if gt { v } else { *b };
            *a = if gt { r } else { *a };
        }
    }
    let len = n.max(1) as f32;
    for s in sum.iter_mut() {
        *s /= len;
    }
    log_n[0] = (1.0 + n as f32).ln();
}

/// The full PlanEmb tree-convolutional encoder: two tree-conv layers,
/// dynamic max pooling, and a fully connected projection to the embedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcn {
    conv1: TreeConvLayer,
    conv2: TreeConvLayer,
    proj: Linear,
}

/// Backward cache for one encoded tree.
#[derive(Debug, Clone)]
pub struct TcnCache {
    x: Mat,
    ws: ForestWs,
}

/// The encoder's one workspace. It holds the input of
/// [`Tcn::forward_forest_ws`] — a batch's node rows stacked as one CSR
/// index, with the offset tree structure and the per-tree bounds — and
/// every activation a forward leaves for the backward. A scoring batch
/// stacks many trees; a training sample is stacked as a forest of one tree,
/// which [`Tcn::backward_ws_sparse`] reads back. The dense reference
/// [`Tcn::forward_ws`] fills the same activations and clears the stack. One
/// warm instance per serving worker or training slot; never reallocates
/// once the largest batch shape has been seen.
#[derive(Debug, Clone, Default)]
pub struct ForestWs {
    /// CSR index of the stacked node rows.
    sx: SparseRows,
    tree: TreeStructure,
    /// Prefix node offsets: tree `b` owns rows `bounds[b]..bounds[b+1]`.
    bounds: Vec<usize>,
    /// CSR view of the post-ReLU `h1` (mostly exact zeros), rebuilt per
    /// SIMD-mode forward; conv2's weight gradients in training read it.
    sh1: SparseRows,
    /// True while `sh1` indexes `h1`: after a SIMD-mode forest forward.
    h1_indexed: bool,
    h1: Mat,
    h2: Mat,
    pooled: Mat,
    argmax: Vec<usize>,
    emb: Mat,
}

impl ForestWs {
    /// The embeddings of the last forward: one row per tree, in input
    /// order.
    pub fn emb(&self) -> &Mat {
        &self.emb
    }

    /// Mutable access to the stacked input: the batch's CSR node index, the
    /// offset tree structure, and the prefix bounds. For callers that build
    /// the batch directly instead of stacking per-tree indexes — e.g. a
    /// batched featurizer that writes every plan's rows into one dense
    /// scratch matrix, indexed once — after which [`Tcn::forward_forest_ws`]
    /// consumes exactly these three buffers. The stacking contract: the
    /// index holds all trees' node rows back to back, `tree` holds child
    /// indices offset into the stack, and `bounds` holds `ntrees + 1` prefix
    /// offsets starting at 0 and ending at the index's row count.
    pub fn stacked_parts_mut(&mut self) -> (&mut SparseRows, &mut TreeStructure, &mut Vec<usize>) {
        (&mut self.sx, &mut self.tree, &mut self.bounds)
    }

    /// Stacks trees whose node features are already CSR-indexed (e.g. the
    /// entries of a feature cache, or one training sample): appends each
    /// tree's nonzeros and offset child links into the workspace's buffers,
    /// so no dense batch matrix is copied and no index is rebuilt. The
    /// appended index is exactly the index of the trees' dense rows stacked
    /// (see [`SparseRows::extend_from`]).
    pub fn stack_sparse<'a>(
        &mut self,
        items: impl IntoIterator<Item = (&'a SparseRows, &'a TreeStructure)>,
    ) {
        self.clear_stack();
        self.bounds.push(0);
        let mut items = items.into_iter().peekable();
        let dim = items.peek().map_or(self.sx.dim(), |(x, _)| x.dim());
        self.sx.clear(dim);
        for (xi, ti) in items {
            assert_eq!(xi.rows(), ti.len(), "tree/feature row mismatch");
            let off = self.sx.rows();
            self.sx.extend_from(xi);
            let shift = |c: &Option<usize>| c.map(|j| j + off);
            self.tree.left.extend(ti.left.iter().map(shift));
            self.tree.right.extend(ti.right.iter().map(shift));
            self.bounds.push(off + xi.rows());
        }
    }

    /// Empties the tree and bounds buffers: a stack of no trees.
    fn clear_stack(&mut self) {
        self.tree.left.clear();
        self.tree.right.clear();
        self.bounds.clear();
    }

    /// Bytes held by the stack, the activations and the CSR view of `h1`.
    /// The weight transposes belong to the layers, not the workspace.
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let u = std::mem::size_of::<usize>();
        (self.h1.data.capacity()
            + self.h2.data.capacity()
            + self.pooled.data.capacity()
            + self.emb.data.capacity())
            * f
            + self.sx.bytes()
            + self.sh1.bytes()
            + (self.bounds.capacity() + self.argmax.capacity()) * u
            + (self.tree.left.capacity() + self.tree.right.capacity())
                * std::mem::size_of::<Option<usize>>()
    }
}

impl Tcn {
    /// Builds an encoder `in_dim → hidden1 → hidden2 → emb_dim`.
    pub fn new<R: Rng>(
        in_dim: usize,
        hidden1: usize,
        hidden2: usize,
        emb_dim: usize,
        rng: &mut R,
    ) -> Tcn {
        Tcn {
            conv1: TreeConvLayer::new(in_dim, hidden1, rng),
            conv2: TreeConvLayer::new(hidden1, hidden2, rng),
            proj: Linear::new(2 * hidden2 + 1, emb_dim, rng),
        }
    }

    /// Embedding width.
    pub fn emb_dim(&self) -> usize {
        self.proj.out_dim()
    }

    /// Encodes one tree (`x`: nodes×in) into a 1×emb embedding.
    ///
    /// Thin allocating wrapper over [`Tcn::forward_ws`].
    pub fn forward(&self, x: &Mat, tree: &TreeStructure) -> (Mat, TcnCache) {
        let mut ws = ForestWs::default();
        self.forward_ws(x, tree, &mut ws);
        let emb = ws.emb.clone();
        (emb, TcnCache { x: x.clone(), ws })
    }

    /// The dense reference encoding of one tree into the workspace's
    /// activation buffers; the embedding lands in `ws.emb()`. The stack is
    /// cleared, since the activations no longer belong to it.
    pub fn forward_ws(&self, x: &Mat, tree: &TreeStructure, ws: &mut ForestWs) {
        ws.clear_stack();
        let ForestWs {
            h1_indexed,
            h1,
            h2,
            pooled,
            argmax,
            emb,
            ..
        } = ws;
        *h1_indexed = false;
        self.conv1.forward_ws(x, tree, h1);
        self.conv2.forward_ws(h1, tree, h2);
        pool_into(h2, pooled, argmax);
        self.proj.forward_into(pooled, emb);
    }

    /// Inference-only encoding.
    pub fn infer(&self, x: &Mat, tree: &TreeStructure) -> Mat {
        let mut ws = ForestWs::default();
        self.forward_ws(x, tree, &mut ws);
        ws.emb
    }

    /// The encoder's forward over the batch stacked in `ws` (by
    /// [`ForestWs::stack_sparse`] or through [`ForestWs::stacked_parts_mut`]):
    /// both convolution layers run as one fused kernel invocation over all
    /// nodes of the batch, each tree's row segment is pooled, and the whole
    /// pooled batch is projected through one matmul. The embeddings land in
    /// `ws.emb()`, one row per stacked tree, in input order.
    ///
    /// conv1 reads the CSR index: under [`KernelMode::Simd`] through the
    /// register-strip kernel over the feature nonzeros, under
    /// [`KernelMode::Scalar`] through the scalar CSR kernel. conv2's input
    /// is the post-ReLU `h1` (skipping its exact zeros is bit-exact too —
    /// see the [`crate::sparse`] module docs), but whether that pays depends
    /// on how much ReLU actually zeroed: the sparse kernel beats the dense
    /// output-blocked kernel only below ~60% density, so under `Simd` the
    /// choice is gated on the measured nonzero count; under `Scalar` conv2
    /// runs the dense kernel.
    ///
    /// Bit-identical to encoding each tree alone with [`Tcn::infer`]: the
    /// convolution is row-local (a node sees only itself and its own
    /// children, whose indices are offset within the same tree), pooling
    /// shares the per-segment kernel with the single-tree path, the
    /// projection computes each output row as an independent dot product,
    /// and the mode and the gate are pure performance decisions.
    pub fn forward_forest_ws(&self, ws: &mut ForestWs) {
        let ForestWs {
            sx,
            tree,
            bounds,
            sh1,
            h1_indexed,
            h1,
            h2,
            pooled,
            argmax,
            emb,
        } = ws;
        let ntrees = bounds.len().saturating_sub(1);
        if ntrees == 0 {
            emb.resize_in_place(0, self.emb_dim());
            return;
        }
        debug_assert_eq!(bounds[0], 0, "bounds must start at 0");
        debug_assert_eq!(bounds[ntrees], sx.rows(), "bounds must end at the last row");
        if kernel_mode() == KernelMode::Scalar {
            self.conv1.forward_ws_sparse(sx, tree, h1);
            *h1_indexed = false;
            self.conv2.forward_ws(h1, tree, h2);
        } else {
            self.conv1.forward_ws_sparse_blocked(sx, tree, h1);
            sh1.assign_from_dense(h1);
            *h1_indexed = true;
            if sh1.nnz() * 5 <= h1.rows * h1.cols * 3 {
                self.conv2.forward_ws_sparse_blocked(sh1, tree, h2);
            } else {
                self.conv2.forward_ws(h1, tree, h2);
            }
        }
        let d = h2.cols;
        pooled.resize_in_place(ntrees, 2 * d + 1);
        for b in 0..ntrees {
            let row = &mut pooled.data[b * (2 * d + 1)..(b + 1) * (2 * d + 1)];
            pool_rows_into(h2, bounds[b], bounds[b + 1], row, argmax);
        }
        self.proj.forward_into(pooled, emb);
    }

    /// Backward from an embedding gradient; accumulates parameter grads.
    ///
    /// Thin allocating wrapper over [`Tcn::backward_ws`].
    pub fn backward(&mut self, cache: &TcnCache, tree: &TreeStructure, grad_emb: &Mat) {
        let mut grads: Vec<Mat> = self
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        self.backward_ws(
            &cache.x,
            tree,
            &cache.ws,
            grad_emb,
            &mut grads,
            &mut scratch,
        );
        self.add_grads(&grads);
    }

    /// Allocation-free dense backward of the tree [`Tcn::forward_ws`]
    /// encoded into `ws`: parameter gradients are added into `grads`
    /// (layout per [`Tcn::grad_shapes`]). The first conv layer's input
    /// gradient is never computed: the encoder input needs no gradient.
    pub fn backward_ws(
        &self,
        x: &Mat,
        tree: &TreeStructure,
        ws: &ForestWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
    ) {
        let h1 = &ws.h1;
        self.backward_ws_with(
            ws,
            grad_emb,
            grads,
            scratch,
            |g1, g2, grad_h2, grad_h1, scratch| {
                self.conv2
                    .backward_ws(h1, &ws.h2, tree, grad_h2, g2, Some(grad_h1), scratch);
                self.conv1
                    .backward_ws(x, h1, tree, grad_h1, g1, None, scratch);
            },
        );
    }

    /// The training backward of the one tree the last
    /// [`Tcn::forward_forest_ws`] ran over, read from the workspace's stack.
    /// Bitwise identical to [`Tcn::backward_ws`] on the dense matrix: both
    /// conv layers run [`TreeConvLayer::backward_ws_sparse`], conv1 over the
    /// stacked CSR index of the features and conv2 over the CSR view of
    /// `h1` the SIMD-mode forward built (a scalar-mode forward builds none,
    /// so the view is then built here, in `scratch`); the projection and
    /// un-pooling are shared with [`Tcn::backward_ws`].
    ///
    /// # Panics
    ///
    /// Panics unless `ws` holds exactly one stacked tree: the un-pooling
    /// spreads one embedding's gradient over every row of `h2`.
    pub fn backward_ws_sparse(
        &self,
        ws: &ForestWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
    ) {
        assert_eq!(
            ws.bounds.len(),
            2,
            "backward_ws_sparse needs a workspace holding exactly one stacked tree"
        );
        let (x, tree, h1) = (&ws.sx, &ws.tree, &ws.h1);
        self.backward_ws_with(
            ws,
            grad_emb,
            grads,
            scratch,
            |g1, g2, grad_h2, grad_h1, scratch| {
                let mut conv2 = |sh1: &SparseRows, scratch: &mut Workspace| {
                    self.conv2.backward_ws_sparse(
                        sh1,
                        &ws.h2,
                        tree,
                        grad_h2,
                        g2,
                        Some(grad_h1),
                        scratch,
                    );
                };
                if ws.h1_indexed {
                    conv2(&ws.sh1, scratch);
                } else {
                    scratch.with_input_index(|scratch, sh1| {
                        sh1.assign_from_dense(h1);
                        conv2(sh1, scratch);
                    });
                }
                self.conv1
                    .backward_ws_sparse(x, h1, tree, grad_h1, g1, None, scratch);
            },
        );
    }

    /// Shared backward skeleton: proj → un-pool, then hands conv2's
    /// upstream gradient and a buffer for conv1's to `convs`, with conv1's
    /// and conv2's gradient slices.
    fn backward_ws_with(
        &self,
        ws: &ForestWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
        convs: impl FnOnce(&mut [Mat], &mut [Mat], &Mat, &mut Mat, &mut Workspace),
    ) {
        assert_eq!(grads.len(), 10, "tcn grad layout");
        let (g1, rest) = grads.split_at_mut(4);
        let (g2, gp) = rest.split_at_mut(4);
        let (gpw, gpb) = {
            let (a, b) = gp.split_at_mut(1);
            (&mut a[0], &mut b[0])
        };
        scratch.with(1, ws.pooled.cols, |scratch, grad_pooled| {
            Linear::backward_into(
                &self.proj.w.value,
                &ws.pooled,
                grad_emb,
                gpw,
                gpb,
                Some(grad_pooled),
                scratch,
            );
            // Un-pool: max gradients route to argmax rows, mean gradients
            // spread over all rows. The node-count term has no input
            // gradient.
            let d = ws.h2.cols;
            let n = ws.h2.rows.max(1) as f32;
            scratch.with_zeroed(ws.h2.rows, ws.h2.cols, |scratch, grad_h2| {
                for c in 0..d {
                    let r = ws.argmax[c];
                    grad_h2.data[r * d + c] += grad_pooled.data[c];
                    let gm = grad_pooled.data[d + c] / n;
                    for row in 0..ws.h2.rows {
                        grad_h2.data[row * d + c] += gm;
                    }
                }
                scratch.with(ws.h1.rows, ws.h1.cols, |scratch, grad_h1| {
                    convs(g1, g2, grad_h2, grad_h1, scratch);
                });
            });
        });
    }

    /// Parameters in canonical order: conv1's four, conv2's four, then the
    /// projection's weight and bias.
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = Vec::with_capacity(10);
        out.extend(self.conv1.params());
        out.extend(self.conv2.params());
        out.push(&self.proj.w);
        out.push(&self.proj.b);
        out
    }

    /// Mutable parameter access in [`Tcn::params`] order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::with_capacity(10);
        out.extend(self.conv1.params_mut());
        out.extend(self.conv2.params_mut());
        out.push(&mut self.proj.w);
        out.push(&mut self.proj.b);
        out
    }

    /// Gradient-buffer shapes in [`Tcn::params`] order, the encoder's one
    /// gradient layout: each conv layer's per [`TreeConvLayer::grad_shapes`]
    /// (weights input-major), then the projection's as stored.
    pub fn grad_shapes(&self) -> Vec<(usize, usize)> {
        let mut shapes = Vec::with_capacity(10);
        shapes.extend(self.conv1.grad_shapes());
        shapes.extend(self.conv2.grad_shapes());
        shapes.extend([&self.proj.w, &self.proj.b].map(|p| (p.value.rows, p.value.cols)));
        shapes
    }

    /// Adds externally accumulated gradients (in [`Tcn::grad_shapes`]
    /// layout) into the parameters' gradient accumulators, transposing the
    /// conv weights. Writes no weight, so the layers keep their weight
    /// transposes.
    pub fn add_grads(&mut self, mats: &[Mat]) {
        assert_eq!(mats.len(), 10, "tcn grad layout");
        self.conv1.add_grads(&mats[..4]);
        self.conv2.add_grads(&mats[4..8]);
        self.proj.w.grad.add_assign(&mats[8]);
        self.proj.b.grad.add_assign(&mats[9]);
    }

    /// The encoder's ten parameters as fused fold-and-step jobs, in
    /// [`Tcn::params`] order (and so in [`Tcn::grad_shapes`] order): the
    /// conv weights input-major, each with its layer's transposes to refill
    /// when built. A trainer runs them in one pool fan-out with the other
    /// modules' (see [`SlotFold::run`]); each update refills its built
    /// transposes in place, so the layers keep their buffers.
    pub fn slot_folds(&mut self) -> [SlotFold<'_>; 10] {
        let [a, b, c, d] = self.conv1.slot_folds();
        let [e, f, g, h] = self.conv2.slot_folds();
        let proj = &mut self.proj;
        [
            a,
            b,
            c,
            d,
            e,
            f,
            g,
            h,
            SlotFold::new(&mut proj.w),
            SlotFold::new(&mut proj.b),
        ]
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.conv2.zero_grad();
        self.proj.zero_grad();
    }

    /// Adam step on all parameters.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.conv1.adam_step(lr, t, cfg);
        self.conv2.adam_step(lr, t, cfg);
        self.proj.adam_step(lr, t, cfg);
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.conv1.param_count() + self.conv2.param_count() + self.proj.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A three-node tree: root(0) with children 1 (left) and 2 (right).
    fn tiny_tree() -> TreeStructure {
        TreeStructure {
            left: vec![Some(1), None, None],
            right: vec![Some(2), None, None],
        }
    }

    /// Stacks the trees of `items` through the CSR indexes of their rows and
    /// runs the forest forward.
    fn forest_forward(tcn: &Tcn, items: &[(&Mat, &TreeStructure)], ws: &mut ForestWs) {
        let sxs: Vec<SparseRows> = items
            .iter()
            .map(|(x, _)| SparseRows::from_dense(x))
            .collect();
        ws.stack_sparse(sxs.iter().zip(items.iter().map(|&(_, t)| t)));
        tcn.forward_forest_ws(ws);
    }

    /// The dense rows of `items` stacked back to back, with the child links
    /// offset into the stack and the prefix bounds: the stacking contract
    /// of [`ForestWs::stacked_parts_mut`], built the slow way.
    fn stacked_rows(
        items: &[(&Mat, &TreeStructure)],
        dim: usize,
    ) -> (Mat, TreeStructure, Vec<usize>) {
        let mut data = Vec::new();
        let mut tree = TreeStructure::default();
        let mut bounds = vec![0];
        for &(x, t) in items {
            let off = bounds[bounds.len() - 1];
            data.extend_from_slice(&x.data);
            tree.left.extend(t.left.iter().map(|c| c.map(|j| j + off)));
            tree.right
                .extend(t.right.iter().map(|c| c.map(|j| j + off)));
            bounds.push(off + x.rows);
        }
        (
            Mat::from_vec(bounds[bounds.len() - 1], dim, data),
            tree,
            bounds,
        )
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let tcn = Tcn::new(6, 8, 4, 3, &mut rng);
        let x = Mat::randn(3, 6, 1.0, &mut rng);
        let (emb, _) = tcn.forward(&x, &tiny_tree());
        assert_eq!((emb.rows, emb.cols), (1, 3));
    }

    /// The batched forest forward must be bit-identical to encoding every
    /// tree alone — the guarantee the serving layer's request batching
    /// stands on. Mixed shapes (chains, the three-node tree, a single leaf)
    /// exercise the segment offsets.
    #[test]
    fn forest_forward_matches_single_tree_inference_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let tcn = Tcn::new(5, 8, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(5), chain(1), tiny_tree(), chain(7)];
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| Mat::randn(t.len(), 5, 1.0, &mut rng))
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let mut ws = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws);
        assert_eq!((ws.emb().rows, ws.emb().cols), (items.len(), 4));
        for (b, (x, t)) in items.iter().enumerate() {
            let single = tcn.infer(x, t);
            assert_eq!(
                ws.emb().row(b),
                &single.data[..],
                "forest row {b} must be bit-identical to the single-tree path"
            );
        }
        // Warm reuse with a different batch size stays correct.
        forest_forward(&tcn, &items[..2], &mut ws);
        assert_eq!(ws.emb().rows, 2);
        assert_eq!(ws.emb().row(1), &tcn.infer(&xs[1], &trees[1]).data[..]);
        // An empty batch yields an empty embedding matrix.
        forest_forward(&tcn, &[], &mut ws);
        assert_eq!(ws.emb().rows, 0);
    }

    /// A batch written through [`ForestWs::stacked_parts_mut`] and indexed
    /// once — the uncached scoring path — encodes bitwise like the same
    /// trees stacked from their own indexes by [`ForestWs::stack_sparse`],
    /// and like each tree encoded alone by the dense [`Tcn::infer`].
    #[test]
    fn sparse_and_prestacked_forest_paths_match_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let tcn = Tcn::new(24, 8, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(4), chain(1), chain(6)];
        // Feature-like rows: a guaranteed one-hot slot plus a few nonzeros.
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| {
                let mut x = Mat::zeros(t.len(), 24);
                for r in 0..t.len() {
                    x.set(r, r % 24, 1.0);
                    for k in 0..3 {
                        x.set(r, (r * 5 + k * 7) % 24, rng.gen_range(-1.5..1.5f32));
                    }
                }
                x
            })
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let (stacked, stacked_tree, stacked_bounds) = stacked_rows(&items, 24);
        let mut ws_p = ForestWs::default();
        let (sx, tree, bounds) = ws_p.stacked_parts_mut();
        sx.assign_from_dense(&stacked);
        *tree = stacked_tree;
        *bounds = stacked_bounds;
        tcn.forward_forest_ws(&mut ws_p);
        let mut ws_s = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_s);
        assert_eq!(ws_p.emb(), ws_s.emb(), "prestacked vs stack_sparse");
        for (b, (x, t)) in items.iter().enumerate() {
            assert_eq!(
                ws_p.emb().row(b),
                &tcn.infer(x, t).data[..],
                "prestacked tree {b} vs single-tree"
            );
        }

        // Empty prestacked batch.
        let mut ws_e = ForestWs::default();
        let (sx, _, bounds) = ws_e.stacked_parts_mut();
        sx.assign_from_dense(&Mat::zeros(0, 24));
        bounds.push(0);
        tcn.forward_forest_ws(&mut ws_e);
        assert_eq!(ws_e.emb().rows, 0);
    }

    /// The SIMD-mode convolution kernels (output-blocked dense, lane-rows
    /// sparse) must be bit-identical to the scalar reference kernels on the
    /// same inputs — the dense single-tree and the CSR forest paths alike.
    /// Dimensions are chosen to exercise every tail: `id % 4 != 0` (column
    /// tails), `od % 4 != 0` (output-block tails), and rows with nonzeros in
    /// the final tail columns (the sparse kernel's sequential epilogue).
    #[test]
    fn simd_conv_kernels_match_scalar_bitwise() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let mut rng = StdRng::seed_from_u64(33);
        let tcn = Tcn::new(30, 10, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(5), chain(1), chain(8)];
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| {
                let mut x = Mat::zeros(t.len(), 30);
                for r in 0..t.len() {
                    x.set(r, r % 26, 1.0);
                    for k in 0..4 {
                        x.set(r, (r * 5 + k * 7) % 26, rng.gen_range(-1.5..1.5f32));
                    }
                    // Tail columns (28, 29) land past `id - id % 4` = 28.
                    x.set(r, 28 + r % 2, rng.gen_range(-1.5..1.5f32));
                }
                x
            })
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let prev = set_kernel_mode(KernelMode::Scalar);
        let mut ws_scalar = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_scalar);
        let singles: Vec<Mat> = items.iter().map(|(x, t)| tcn.infer(x, t)).collect();

        set_kernel_mode(KernelMode::Simd);
        let mut ws_simd = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_simd);
        assert_eq!(
            ws_scalar.emb(),
            ws_simd.emb(),
            "sparse lane-rows kernel diverged from scalar"
        );
        for (b, single) in singles.iter().enumerate() {
            assert_eq!(
                tcn.infer(items[b].0, items[b].1),
                *single,
                "single-tree SIMD forward diverged from scalar (tree {b})"
            );
            assert_eq!(
                ws_scalar.emb().row(b),
                &single.data[..],
                "CSR forest vs dense single tree (tree {b})"
            );
        }
        set_kernel_mode(prev);
    }

    #[test]
    fn children_influence_parent_representation() {
        let mut rng = StdRng::seed_from_u64(1);
        let tcn = Tcn::new(4, 8, 4, 2, &mut rng);
        let tree = tiny_tree();
        let x1 = Mat::randn(3, 4, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Change only the left child's features.
        for c in 0..4 {
            x2.set(1, c, x2.get(1, c) + 2.0);
        }
        let e1 = tcn.infer(&x1, &tree);
        let e2 = tcn.infer(&x2, &tree);
        assert!(e1 != e2, "child features must flow into the embedding");
    }

    #[test]
    fn gradient_check_through_the_whole_encoder() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tcn = Tcn::new(4, 6, 5, 2, &mut rng);
        let tree = tiny_tree();
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(1, 2, 1.0, &mut rng);

        let (emb, cache) = tcn.forward(&x, &tree);
        let (_, grad) = mse(&emb, &target);
        tcn.zero_grad();
        tcn.backward(&cache, &tree, &grad);

        let loss_of = |tcn: &Tcn| {
            let e = tcn.infer(&x, &tree);
            mse(&e, &target).0
        };
        let eps = 1e-2;
        // Check a few first-layer weights (hardest path: conv1 → conv2 →
        // pool → proj).
        for idx in [0usize, 3, 10] {
            let mut tp = tcn.clone();
            tp.conv1.w_left.value.data[idx] += eps;
            let mut tm = tcn.clone();
            tm.conv1.w_left.value.data[idx] -= eps;
            let num = (loss_of(&tp) - loss_of(&tm)) / (2.0 * eps);
            let ana = tcn.conv1.w_left.grad.data[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "conv1.w_left[{idx}] num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn workspace_path_matches_wrapper_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut tcn = Tcn::new(5, 7, 6, 3, &mut rng);
        let tree = TreeStructure {
            left: vec![Some(1), Some(3), None, None, None],
            right: vec![Some(2), Some(4), None, None, None],
        };
        let x = Mat::randn(5, 5, 1.0, &mut rng);
        let g = Mat::randn(1, 3, 1.0, &mut rng);

        let (emb_wrap, cache) = tcn.forward(&x, &tree);
        tcn.zero_grad();
        tcn.backward(&cache, &tree, &g);
        let wrap_grads: Vec<Mat> = tcn.params().iter().map(|p| p.grad.clone()).collect();

        let mut ws = ForestWs::default();
        tcn.forward_ws(&x, &tree, &mut ws);
        assert_eq!(*ws.emb(), emb_wrap);
        let mut grads: Vec<Mat> = tcn
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        tcn.backward_ws(&x, &tree, &ws, &g, &mut grads, &mut scratch);
        // The conv weights' gradients are input-major; the wrapper's
        // accumulators hold them in the weights' layout.
        for (i, (got, want)) in grads.iter().zip(&wrap_grads).enumerate() {
            let got = if i < 8 && i % 4 != 3 {
                transposed(got)
            } else {
                got.clone()
            };
            assert_eq!(&got, want);
        }
    }

    #[test]
    fn sparse_path_matches_dense_path_bitwise() {
        // Feature-like sparse input (every node row keeps a one-hot slot,
        // most other entries zero): forward embeddings AND all ten parameter
        // gradients must be bit-identical between the dense and sparse
        // kernels.
        let mut rng = StdRng::seed_from_u64(21);
        let tcn = Tcn::new(24, 9, 7, 3, &mut rng);
        let tree = TreeStructure {
            left: vec![Some(1), Some(3), None, None, Some(4)],
            right: vec![Some(2), None, Some(4), None, None],
        };
        let mut x = Mat::zeros(5, 24);
        for r in 0..5 {
            x.set(r, r % 24, 1.0);
            for k in 0..4 {
                x.set(r, (r * 7 + k * 5) % 24, rng.gen_range(-1.5..1.5f32));
            }
        }
        let g = Mat::randn(1, 3, 1.0, &mut rng);

        let mut ws_d = ForestWs::default();
        tcn.forward_ws(&x, &tree, &mut ws_d);
        let sx = SparseRows::from_dense(&x);
        let mut ws_s = ForestWs::default();
        ws_s.stack_sparse([(&sx, &tree)]);
        tcn.forward_forest_ws(&mut ws_s);
        assert_eq!(ws_d.emb(), ws_s.emb(), "sparse forward diverged");
        assert_eq!(ws_d.h1, ws_s.h1, "sparse conv1 activations diverged");

        let shapes = tcn.grad_shapes();
        let zeroed = || -> Vec<Mat> { shapes.iter().map(|&(r, c)| Mat::zeros(r, c)).collect() };
        let mut scratch = Workspace::new();
        let mut gd = zeroed();
        tcn.backward_ws(&x, &tree, &ws_d, &g, &mut gd, &mut scratch);
        let mut gs = zeroed();
        tcn.backward_ws_sparse(&ws_s, &g, &mut gs, &mut scratch);
        for (i, (d, s)) in gd.iter().zip(&gs).enumerate() {
            let (db, sb): (Vec<u32>, Vec<u32>) = (
                d.data.iter().map(|v| v.to_bits()).collect(),
                s.data.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(db, sb, "grad {i} diverged between dense and sparse");
        }
    }

    /// The sparse backward reads its one tree from the workspace's stack,
    /// so it refuses a workspace holding any other number of trees: after a
    /// two-tree batch, and after the dense forward, which clears the stack
    /// its activations no longer belong to.
    #[test]
    fn sparse_backward_needs_exactly_one_stacked_tree() {
        let mut rng = StdRng::seed_from_u64(53);
        let tcn = Tcn::new(6, 8, 4, 3, &mut rng);
        let tree = tiny_tree();
        let x = Mat::randn(3, 6, 1.0, &mut rng);
        let sx = SparseRows::from_dense(&x);
        let g = Mat::randn(1, 3, 1.0, &mut rng);
        let refusal = |ws: &ForestWs| -> Option<String> {
            let mut grads: Vec<Mat> = tcn
                .grad_shapes()
                .iter()
                .map(|&(r, c)| Mat::zeros(r, c))
                .collect();
            let backward = || tcn.backward_ws_sparse(ws, &g, &mut grads, &mut Workspace::new());
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(backward)).err()?;
            Some(
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_default(),
            )
        };
        let refused =
            |why: Option<String>| why.is_some_and(|m| m.contains("exactly one stacked tree"));

        let mut ws = ForestWs::default();
        ws.stack_sparse([(&sx, &tree)]);
        tcn.forward_forest_ws(&mut ws);
        assert_eq!(refusal(&ws), None, "one stacked tree is the training shape");
        ws.stack_sparse([(&sx, &tree), (&sx, &tree)]);
        tcn.forward_forest_ws(&mut ws);
        assert!(refused(refusal(&ws)), "a two-tree batch");
        ws.stack_sparse([(&sx, &tree)]);
        tcn.forward_forest_ws(&mut ws);
        tcn.forward_ws(&x, &tree, &mut ws);
        assert!(refused(refusal(&ws)), "after the dense forward");
    }

    /// A training slot keeps one warm workspace across steps. After an Adam
    /// step refills conv1's weight transposes, the SIMD forest forward must
    /// read the new weights. conv1 is 37 wide: one 32-float strip plus a
    /// tail for the SSE2 strip kernel, all tail for the AVX-512 one, whose
    /// strips are 64 floats wide. Under both modes
    /// the warm workspace must match a fresh one and the dense forward bit
    /// for bit, and the sparse backward the dense one.
    #[test]
    fn warm_sparse_workspace_matches_dense_after_a_weight_update() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let (id, od) = (30, 37);
        let tree = TreeStructure {
            left: vec![Some(1), Some(3), None, None, Some(5), None],
            right: vec![Some(2), Some(4), None, None, None, None],
        };
        let prev = set_kernel_mode(KernelMode::Scalar);
        for mode in [KernelMode::Scalar, KernelMode::Simd] {
            set_kernel_mode(mode);
            let mut rng = StdRng::seed_from_u64(41);
            let mut tcn = Tcn::new(id, od, 7, 3, &mut rng);
            let mut x = Mat::zeros(tree.len(), id);
            for r in 0..tree.len() {
                x.set(r, r % 26, 1.0);
                for k in 0..4 {
                    x.set(r, (r * 7 + k * 5) % 26, rng.gen_range(-1.5..1.5f32));
                }
                // Tail columns (28, 29) land past `id - id % 4` = 28.
                x.set(r, 28 + r % 2, rng.gen_range(-1.5..1.5f32));
            }
            let sx = SparseRows::from_dense(&x);
            let g = Mat::randn(1, 3, 1.0, &mut rng);
            let shapes = tcn.grad_shapes();
            let zeroed = || -> Vec<Mat> { shapes.iter().map(|&(r, c)| Mat::zeros(r, c)).collect() };
            let mut scratch = Workspace::new();

            let mut warm = ForestWs::default();
            tcn.forward_ws(&x, &tree, &mut warm);
            warm.stack_sparse([(&sx, &tree)]);
            let activations = warm.bytes();
            tcn.forward_forest_ws(&mut warm);
            let h1_before = bits(&warm.h1);
            if mode == KernelMode::Simd {
                let transposes = 3 * id * od * std::mem::size_of::<f32>();
                assert!(
                    transpose_bytes(&tcn.conv1) >= transposes,
                    "transposes uncounted"
                );
            } else {
                assert_eq!(warm.bytes(), activations, "scalar mode builds no scratch");
                assert_eq!(
                    transpose_bytes(&tcn.conv1),
                    0,
                    "scalar mode builds no transposes"
                );
            }

            // One training step: real gradients, then Adam (a new stamp).
            let mut grads = zeroed();
            tcn.backward_ws_sparse(&warm, &g, &mut grads, &mut scratch);
            tcn.add_grads(&grads);
            tcn.adam_step(0.05, 1, &AdamConfig::default());

            warm.stack_sparse([(&sx, &tree)]);
            tcn.forward_forest_ws(&mut warm);
            assert_ne!(
                bits(&warm.h1),
                h1_before,
                "{mode:?}: the step must move conv1"
            );
            let mut fresh = ForestWs::default();
            fresh.stack_sparse([(&sx, &tree)]);
            tcn.forward_forest_ws(&mut fresh);
            let mut dense = ForestWs::default();
            tcn.forward_ws(&x, &tree, &mut dense);
            for (name, other) in [("fresh", &fresh), ("dense", &dense)] {
                assert_eq!(bits(&warm.h1), bits(&other.h1), "{mode:?}: h1 vs {name}");
                assert_eq!(
                    bits(warm.emb()),
                    bits(other.emb()),
                    "{mode:?}: emb vs {name}"
                );
            }
            let (mut gs, mut gd) = (zeroed(), zeroed());
            tcn.backward_ws_sparse(&warm, &g, &mut gs, &mut scratch);
            tcn.backward_ws(&x, &tree, &dense, &g, &mut gd, &mut scratch);
            for (i, (s, d)) in gs.iter().zip(&gd).enumerate() {
                assert_eq!(bits(s), bits(d), "{mode:?}: grad {i}");
            }
        }
        set_kernel_mode(prev);
    }

    #[test]
    fn tree_conv_input_gradient_check() {
        // The conv input gradient feeds conv1 during stacked backward; check
        // it against finite differences through a single layer.
        let mut rng = StdRng::seed_from_u64(9);
        let layer = TreeConvLayer::new(4, 3, &mut rng);
        let tree = tiny_tree();
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(3, 3, 1.0, &mut rng);
        let forward = |x: &Mat| {
            let mut h = Mat::default();
            layer.forward_ws(x, &tree, &mut h);
            h
        };
        let h = forward(&x);
        let (_, grad) = mse(&h, &target);
        let mut grads: Vec<Mat> = layer
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut gx = Mat::default();
        let mut scratch = Workspace::new();
        layer.backward_ws(
            &x,
            &h,
            &tree,
            &grad,
            &mut grads,
            Some(&mut gx),
            &mut scratch,
        );

        let loss_of = |x: &Mat| mse(&forward(x), &target).0;
        let eps = 1e-2;
        for idx in [0usize, 5, 9] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            assert!(
                (num - gx.data[idx]).abs() < 5e-2,
                "dX[{idx}] num {num} vs {}",
                gx.data[idx]
            );
        }
    }

    #[test]
    fn tcn_learns_to_count_join_like_nodes() {
        // Trees whose label is the number of nodes with feature[0] = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let mut tcn = Tcn::new(3, 16, 8, 4, &mut rng);
        let mut head = Linear::new(4, 1, &mut rng);
        let cfg = AdamConfig::default();

        let make_tree = |rng: &mut StdRng| {
            // Left-deep chain of 4..7 nodes.
            let n = rng.gen_range(4..8usize);
            let mut left = vec![None; n];
            let mut right = vec![None; n];
            for i in 0..n - 1 {
                left[i] = Some(i + 1);
                if i + 2 < n && rng.gen_bool(0.3) {
                    right[i] = Some(i + 2);
                }
            }
            // Ensure it is a tree (right children must not duplicate).
            let mut seen = std::collections::HashSet::new();
            for slot in right.iter_mut() {
                if let Some(r) = *slot {
                    if !seen.insert(r) || left.contains(&Some(r)) {
                        *slot = None;
                    }
                }
            }
            let mut x = Mat::zeros(n, 3);
            let mut count = 0.0;
            for i in 0..n {
                if rng.gen_bool(0.5) {
                    x.set(i, 0, 1.0);
                    count += 1.0;
                }
                x.set(i, 1, rng.gen_range(-1.0..1.0));
                x.set(i, 2, 1.0);
            }
            (x, TreeStructure { left, right }, count)
        };

        let mut t = 0;
        for _ in 0..400 {
            tcn.zero_grad();
            head.zero_grad();
            let mut loss_sum = 0.0;
            for _ in 0..8 {
                let (x, tree, label) = make_tree(&mut rng);
                let (emb, cache) = tcn.forward(&x, &tree);
                let pred = head.forward(&emb);
                let (l, g) = mse(&pred, &Mat::from_vec(1, 1, vec![label]));
                loss_sum += l;
                let gemb = head.backward(&emb, &g);
                tcn.backward(&cache, &tree, &gemb);
            }
            let _ = loss_sum;
            t += 1;
            tcn.adam_step(0.005, t, &cfg);
            head.adam_step(0.005, t, &cfg);
        }

        // Evaluate.
        let mut err = 0.0;
        for _ in 0..50 {
            let (x, tree, label) = make_tree(&mut rng);
            let pred = head.forward(&tcn.infer(&x, &tree)).data[0];
            err += (pred - label).abs();
        }
        err /= 50.0;
        assert!(
            err < 1.0,
            "mean abs error {err} should beat trivial baseline"
        );
    }

    /// A random binary tree of `n` nodes rooted at 0: each node below the
    /// root hangs off a free slot of an earlier node, so nodes end up with
    /// zero, one or two children.
    fn random_tree(n: usize, rng: &mut StdRng) -> TreeStructure {
        let mut t = TreeStructure {
            left: vec![None; n],
            right: vec![None; n],
        };
        for i in 1..n {
            loop {
                let p = rng.gen_range(0..i);
                let slot = if rng.gen_bool(0.5) {
                    &mut t.left[p]
                } else {
                    &mut t.right[p]
                };
                if slot.is_none() {
                    *slot = Some(i);
                    break;
                }
            }
        }
        t
    }

    /// `ntrees` random binary trees of 1..=12 nodes with feature-like rows
    /// over `dim` columns: a one-hot slot, a few random entries, and a
    /// `-0.0` that the CSR index drops.
    fn random_forest(ntrees: usize, dim: usize, rng: &mut StdRng) -> Vec<(Mat, TreeStructure)> {
        (0..ntrees)
            .map(|_| {
                let n = rng.gen_range(1..=12usize);
                let t = random_tree(n, rng);
                let mut x = Mat::zeros(n, dim);
                for r in 0..n {
                    x.set(r, rng.gen_range(0..dim), 1.0);
                    for _ in 0..3 {
                        x.set(r, rng.gen_range(0..dim), rng.gen_range(-1.5..1.5f32));
                    }
                    x.set(r, rng.gen_range(0..dim), -0.0);
                }
                (x, t)
            })
            .collect()
    }

    fn bits(m: &Mat) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    fn transposed(m: &Mat) -> Mat {
        Mat::from_fn(m.cols, m.rows, |r, c| m.get(c, r))
    }

    /// The rows of `x` each node sees through a filter, materialized: row
    /// `k` is `x[gather(k)]`, or zeros where node `k` lacks that row.
    fn gathered(x: &Mat, gather: impl Fn(usize) -> Option<usize>) -> Mat {
        Mat::from_fn(x.rows, x.cols, |k, c| {
            gather(k).map_or(0.0, |j| x.get(j, c))
        })
    }

    /// Heap bytes of a layer's weight transposes (0 while unbuilt).
    fn transpose_bytes(layer: &TreeConvLayer) -> usize {
        layer.wt.get().map_or(0, ConvTransposes::bytes)
    }

    /// Feature-like input rows for `n` nodes over `dim` columns: about one
    /// row in five is empty, the others hold a one-hot slot, a few random
    /// entries (tail columns included) and a `-0.0` the CSR index drops.
    fn sparse_features(n: usize, dim: usize, rng: &mut StdRng) -> Mat {
        let mut x = Mat::zeros(n, dim);
        for r in 0..n {
            if rng.gen_bool(0.2) {
                continue;
            }
            x.set(r, rng.gen_range(0..dim), 1.0);
            for _ in 0..4 {
                x.set(r, rng.gen_range(0..dim), rng.gen_range(-1.5..1.5f32));
            }
            x.set(r, rng.gen_range(0..dim), -0.0);
        }
        x
    }

    /// A `rows × cols` gradient with exact zeros and `-0.0` entries, about
    /// a quarter of its rows all zero.
    fn zero_laden_grad(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
        let mut g = Mat::from_fn(rows, cols, |_, _| match rng.gen_range(0..10) {
            0..=2 => 0.0,
            3 => -0.0,
            _ => rng.gen_range(-1.0..1.0f32),
        });
        for r in 0..rows {
            if rng.gen_bool(0.25) {
                g.row_mut(r).fill(0.0);
            }
        }
        g
    }

    const PASS_PARTS: [&str; 13] = [
        "h1",
        "h2",
        "emb",
        "conv1.w_self",
        "conv1.w_left",
        "conv1.w_right",
        "conv1.b",
        "conv2.w_self",
        "conv2.w_left",
        "conv2.w_right",
        "conv2.b",
        "proj.w",
        "proj.b",
    ];

    /// One encoder pass, the training pass over `sx` stacked as a forest of
    /// one tree when `sx` is given and the dense reference otherwise:
    /// forward, then backward of `g` into zeroed gradients. Returns the bits
    /// of `h1`, `h2`, the embedding and the ten gradients ([`PASS_PARTS`]).
    fn pass(
        tcn: &Tcn,
        x: &Mat,
        sx: Option<&SparseRows>,
        tree: &TreeStructure,
        g: &Mat,
        ws: &mut ForestWs,
        scratch: &mut Workspace,
    ) -> Vec<Vec<u32>> {
        let shapes = tcn.grad_shapes();
        let mut grads: Vec<Mat> = shapes.iter().map(|&(r, c)| Mat::zeros(r, c)).collect();
        if let Some(sx) = sx {
            ws.stack_sparse([(sx, tree)]);
            tcn.forward_forest_ws(ws);
            tcn.backward_ws_sparse(ws, g, &mut grads, scratch);
        } else {
            tcn.forward_ws(x, tree, ws);
            tcn.backward_ws(x, tree, ws, g, &mut grads, scratch);
        }
        let mut out = vec![bits(&ws.h1), bits(&ws.h2), bits(ws.emb())];
        out.extend(grads.iter().map(bits));
        out
    }

    /// `ForestWs::bytes` counts what the SIMD-mode forward adds to a stacked
    /// tree's workspace, the CSR view of `h1`, and each layer counts the
    /// weight transposes it builds. conv1's bias is shifted down so `h1`
    /// stays below conv2's density gate and conv2's transposes get built
    /// too.
    #[test]
    fn tcn_ws_bytes_count_the_sparse_forward_scratch() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let prev = set_kernel_mode(KernelMode::Simd);
        let (id, od1, od2, n) = (30, 37, 12, 9);
        let mut rng = StdRng::seed_from_u64(47);
        let mut tcn = Tcn::new(id, od1, od2, 3, &mut rng);
        for b in tcn.conv1.params_mut()[3].value.data.iter_mut() {
            *b -= 1.0;
        }
        let tree = random_tree(n, &mut rng);
        let x = sparse_features(n, id, &mut rng);
        let sx = SparseRows::from_dense(&x);
        let mut ws = ForestWs::default();
        tcn.forward_ws(&x, &tree, &mut ws);
        let dense_emb = bits(ws.emb());
        ws.stack_sparse([(&sx, &tree)]);
        let activations = ws.bytes();
        tcn.forward_forest_ws(&mut ws);
        assert_eq!(bits(ws.emb()), dense_emb);
        assert!(
            ws.sh1.nnz() * 5 <= n * od1 * 3,
            "the fixture's h1 must take conv2's sparse kernel"
        );
        let f = std::mem::size_of::<f32>();
        let transposes = 3 * (id * od1 + od1 * od2) * f;
        assert!(
            transpose_bytes(&tcn.conv1) + transpose_bytes(&tcn.conv2) >= transposes,
            "weight transposes uncounted"
        );
        // The branchless index scan sizes columns and values to the dense
        // element count.
        let h1_index = 2 * n * od1 * f;
        assert!(
            ws.bytes() >= activations + h1_index,
            "sparse forward scratch uncounted: {} < {} + {h1_index}",
            ws.bytes(),
            activations
        );
        set_kernel_mode(prev);
    }

    /// An encoder whose conv1 bias is shifted down so `h1` stays below
    /// conv2's density gate: both layers then run the sparse kernel and
    /// build weight transposes. conv1 is 70 wide (a 64-float AVX-512 strip
    /// or two 32-float SSE2 strips, plus a tail), conv2 33. Returns it with
    /// a 9-node tree and its feature rows.
    fn sparse_gated_encoder(seed: u64) -> (Tcn, TreeStructure, Mat) {
        let (id, n) = (30, 9);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tcn = Tcn::new(id, 70, 33, 4, &mut rng);
        for b in tcn.conv1.params_mut()[3].value.data.iter_mut() {
            *b -= 1.0;
        }
        let tree = random_tree(n, &mut rng);
        let x = sparse_features(n, id, &mut rng);
        (tcn, tree, x)
    }

    /// `h1` and the embedding of the SIMD forest forward over `x`, asserted
    /// bit for bit equal to the dense reference's; `what` names the weight
    /// state in the failure message.
    fn simd_forward_matches_dense(
        tcn: &Tcn,
        tree: &TreeStructure,
        x: &Mat,
        what: &str,
    ) -> [Vec<u32>; 2] {
        let mut dense = ForestWs::default();
        tcn.forward_ws(x, tree, &mut dense);
        let sx = SparseRows::from_dense(x);
        let mut ws = ForestWs::default();
        ws.stack_sparse([(&sx, tree)]);
        tcn.forward_forest_ws(&mut ws);
        assert!(
            ws.sh1.nnz() * 5 <= ws.h1.rows * ws.h1.cols * 3,
            "{what}: the fixture's h1 must take conv2's sparse kernel"
        );
        assert_eq!(bits(&ws.h1), bits(&dense.h1), "{what}: h1");
        assert_eq!(bits(ws.emb()), bits(dense.emb()), "{what}: emb");
        [bits(&ws.h1), bits(ws.emb())]
    }

    /// Each layer keeps one set of weight transposes per weight state: the
    /// first SIMD sparse forward builds it, `adam_step` refills the same
    /// buffers, a write through `params_mut` drops it, and a deserialized
    /// layer starts without it. After each of these the SIMD forward must
    /// equal the dense reference bit for bit, so a stale transpose shows.
    /// Equality and serialization ignore the transposes.
    #[test]
    fn layer_transposes_follow_every_weight_write() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let prev = set_kernel_mode(KernelMode::Simd);
        let (mut tcn, tree, x) = sparse_gated_encoder(61);
        let mut rng = StdRng::seed_from_u64(62);
        assert_eq!(transpose_bytes(&tcn.conv1), 0, "a new layer starts unbuilt");
        let first = simd_forward_matches_dense(&tcn, &tree, &x, "first forward");
        let built = |tcn: &Tcn| {
            [&tcn.conv1, &tcn.conv2].map(|l| l.wt.get().map(|t| t.slices()[0].as_ptr()))
        };
        let buffers = built(&tcn);
        assert!(buffers.iter().all(Option::is_some), "both layers built");

        // A training step: real gradients folded through the gradient-only
        // path, then Adam, which refills the same buffers.
        let mut ws = ForestWs::default();
        ws.stack_sparse([(&SparseRows::from_dense(&x), &tree)]);
        tcn.forward_forest_ws(&mut ws);
        let mut grads: Vec<Mat> = tcn
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let g = Mat::randn(1, 4, 1.0, &mut rng);
        tcn.backward_ws_sparse(&ws, &g, &mut grads, &mut Workspace::new());
        tcn.add_grads(&grads);
        assert_eq!(built(&tcn), buffers, "add_grads writes no weight");
        tcn.adam_step(0.05, 1, &AdamConfig::default());
        assert_eq!(built(&tcn), buffers, "adam_step refills in place");
        let stepped = simd_forward_matches_dense(&tcn, &tree, &x, "after adam_step");
        assert_ne!(stepped, first, "the step must move the encoder");

        // A write through `params_mut` (both layers' `w_self`) drops the
        // transposes.
        for (_, w) in tcn
            .params_mut()
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| k % 4 == 0)
        {
            for v in w.value.data.iter_mut() {
                *v *= 1.5;
            }
        }
        assert_eq!(built(&tcn), [None, None], "params_mut drops the transposes");
        let written = simd_forward_matches_dense(&tcn, &tree, &x, "after params_mut");
        assert_ne!(written, stepped, "the write must move the encoder");

        // A serde round trip: equal (the transposes are not part of the
        // value), serialized without them, and unbuilt until used.
        let value = tcn.to_value();
        let serde::Value::Map(fields) = &value else {
            panic!("a Tcn serializes as a map")
        };
        let conv1 = &fields
            .iter()
            .find(|(k, _)| k == "conv1")
            .expect("conv1 field")
            .1;
        let serde::Value::Map(conv1) = conv1 else {
            panic!("a layer serializes as a map")
        };
        let keys: Vec<&str> = conv1.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, PARAM_NAMES, "only the parameters are serialized");
        let back = Tcn::from_value(&value).expect("round trip");
        assert_eq!(
            built(&back),
            [None, None],
            "a deserialized layer starts unbuilt"
        );
        assert_eq!(back, tcn, "equality ignores the transposes");
        let again = simd_forward_matches_dense(&back, &tree, &x, "after a serde round trip");
        assert_eq!(again, written);
        set_kernel_mode(prev);
    }

    /// Two threads running the first SIMD forward after a step share one
    /// build of the transposes: a barrier releases both forwards together,
    /// and each must read the bits of the dense reference.
    #[test]
    fn concurrent_first_forwards_read_the_same_transposes() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let prev = set_kernel_mode(KernelMode::Simd);
        let (mut tcn, tree, x) = sparse_gated_encoder(71);
        let mut rng = StdRng::seed_from_u64(72);
        for p in tcn.params_mut() {
            p.grad = Mat::randn(p.value.rows, p.value.cols, 1.0, &mut rng);
        }
        tcn.adam_step(0.05, 1, &AdamConfig::default());
        assert_eq!(transpose_bytes(&tcn.conv1), 0, "nothing built yet");
        let sx = SparseRows::from_dense(&x);
        let barrier = std::sync::Barrier::new(2);
        let (tcn, sx, tree, barrier) = (&tcn, &sx, &tree, &barrier);
        let outs: Vec<[Vec<u32>; 2]> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(move || {
                        let mut ws = ForestWs::default();
                        ws.stack_sparse([(sx, tree)]);
                        barrier.wait();
                        tcn.forward_forest_ws(&mut ws);
                        [bits(&ws.h1), bits(ws.emb())]
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("forward thread"))
                .collect()
        });
        let dense = simd_forward_matches_dense(tcn, tree, &x, "after the threads");
        assert_eq!(outs[0], dense, "thread 0");
        assert_eq!(outs[1], dense, "thread 1");
        set_kernel_mode(prev);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Training's encoder pass (one tree stacked, [`Tcn::forward_forest_ws`]
        /// plus [`Tcn::backward_ws_sparse`]) equals the dense pass bit for bit
        /// under both kernel modes: `h1`, `h2`, the embedding and all ten
        /// gradients. Checked on fresh workspaces, and on warm ones reused
        /// after a larger tree and then again for a second gradient of the
        /// same tree. The trees have 1..=24 nodes; conv1 is at least 37
        /// wide (one 32-float strip plus a tail); some input rows are empty;
        /// a shifted conv1 bias moves `h1`'s density across conv2's gate;
        /// the upstream gradients hold exact zeros, `-0.0` and all-zero
        /// rows. Each layer's sparse backward, conv2's with its input
        /// gradient, is also checked on its own against per-node gradients
        /// of that kind.
        #[test]
        fn sparse_training_pass_matches_dense_bitwise(
            seed in 0u64..1_000_000,
            n in 1usize..=24,
            od1 in 37usize..=70,
            shift in 0usize..4,
        ) {
            let _guard = crate::kernels::MODE_TEST_MUTEX
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            use crate::kernels::{set_kernel_mode, KernelMode};
            let mut rng = StdRng::seed_from_u64(seed);
            let (id, od2, emb) = (30, rng.gen_range(5..=40usize), 4);
            let mut tcn = Tcn::new(id, od1, od2, emb, &mut rng);
            let shift = [-0.4f32, 0.0, 0.6, 3.0][shift];
            for b in tcn.conv1.params_mut()[3].value.data.iter_mut() {
                *b += shift;
            }
            let tree = random_tree(n, &mut rng);
            let x = sparse_features(n, id, &mut rng);
            let sx = SparseRows::from_dense(&x);
            let big_n = rng.gen_range(n + 1..=n + 8);
            let big_tree = random_tree(big_n, &mut rng);
            let big_x = sparse_features(big_n, id, &mut rng);
            let big_sx = SparseRows::from_dense(&big_x);
            let grads: Vec<Mat> = (0..3).map(|_| zero_laden_grad(1, emb, &mut rng)).collect();
            let node_g1 = zero_laden_grad(n, od1, &mut rng);
            let node_g2 = zero_laden_grad(n, od2, &mut rng);
            let prev = set_kernel_mode(KernelMode::Scalar);
            for mode in [KernelMode::Scalar, KernelMode::Simd] {
                set_kernel_mode(mode);
                let mut warm = ForestWs::default();
                let mut scratch = Workspace::new();
                pass(&tcn, &big_x, Some(&big_sx), &big_tree, &grads[0], &mut warm, &mut scratch);
                for (gi, g) in grads[1..].iter().enumerate() {
                    let mut dense_ws = ForestWs::default();
                    let dense = pass(&tcn, &x, None, &tree, g, &mut dense_ws, &mut Workspace::new());
                    let cold = pass(
                        &tcn, &x, Some(&sx), &tree, g, &mut ForestWs::default(), &mut Workspace::new(),
                    );
                    let warmed = pass(&tcn, &x, Some(&sx), &tree, g, &mut warm, &mut scratch);
                    for (p, name) in PASS_PARTS.iter().enumerate() {
                        prop_assert_eq!(&cold[p], &dense[p], "{:?} cold, gradient {}: {}", mode, gi, name);
                        prop_assert_eq!(&warmed[p], &dense[p], "{:?} warm, gradient {}: {}", mode, gi, name);
                    }
                }

                // Each layer's sparse backward on its own, warm scratch.
                let mut dense_ws = ForestWs::default();
                tcn.forward_ws(&x, &tree, &mut dense_ws);
                let (h1, h2) = (&dense_ws.h1, &dense_ws.h2);
                let zeroed = |layer: &TreeConvLayer| -> Vec<Mat> {
                    layer.grad_shapes().iter().map(|&(r, c)| Mat::zeros(r, c)).collect()
                };
                let (mut gd, mut gs) = (zeroed(&tcn.conv2), zeroed(&tcn.conv2));
                let (mut xd, mut xs) = (Mat::default(), Mat::from_vec(1, 1, vec![9.0]));
                tcn.conv2.backward_ws(h1, h2, &tree, &node_g2, &mut gd, Some(&mut xd), &mut Workspace::new());
                let sh1 = SparseRows::from_dense(h1);
                tcn.conv2.backward_ws_sparse(&sh1, h2, &tree, &node_g2, &mut gs, Some(&mut xs), &mut scratch);
                prop_assert_eq!(bits(&xs), bits(&xd), "{:?} conv2 input gradient", mode);
                for (i, (s, d)) in gs.iter().zip(&gd).enumerate() {
                    prop_assert_eq!(bits(s), bits(d), "{:?} conv2 grad {}", mode, i);
                }
                let (mut gd, mut gs) = (zeroed(&tcn.conv1), zeroed(&tcn.conv1));
                tcn.conv1.backward_ws(&x, h1, &tree, &node_g1, &mut gd, None, &mut Workspace::new());
                tcn.conv1.backward_ws_sparse(&sx, h1, &tree, &node_g1, &mut gs, None, &mut scratch);
                for (i, (s, d)) in gs.iter().zip(&gd).enumerate() {
                    prop_assert_eq!(bits(s), bits(d), "{:?} conv1 grad {}", mode, i);
                }
            }
            set_kernel_mode(prev);
        }

        /// One layer's weight gradients are input-major and exact: over two
        /// trees added into the same buffers, the CSR backward
        /// ([`TreeConvLayer::backward_ws_sparse`]), the dense
        /// [`TreeConvLayer::backward_ws`] and, per tree, the transpose of
        /// [`Mat::matmul_tn`] of the masked gradient with each filter's
        /// gathered input rows agree bit for bit, under both kernel modes.
        /// The trees have 1..=20 nodes with zero, one or two children; the
        /// inputs are feature-like rows (some empty, `-0.0` entries) or
        /// post-ReLU rows, whose layer also returns an input gradient; the
        /// upstream gradients hold exact zeros, `-0.0` and all-zero rows.
        #[test]
        fn input_major_weight_gradients_match_a_transposed_matmul_tn(
            seed in 0u64..1_000_000,
            n in 1usize..=20,
            id in 1usize..=40,
            od in 1usize..=40,
            post_relu in 0usize..2,
        ) {
            let post_relu = post_relu == 1;
            let _guard = crate::kernels::MODE_TEST_MUTEX
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            use crate::kernels::{set_kernel_mode, KernelMode};
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = TreeConvLayer::new(id, od, &mut rng);
            let trees: Vec<(TreeStructure, Mat, Mat)> = (0..2)
                .map(|_| {
                    let n = rng.gen_range(1..=n);
                    let tree = random_tree(n, &mut rng);
                    let x = if post_relu {
                        Mat::from_fn(n, id, |_, _| rng.gen_range(-1.0..1.0f32).max(0.0))
                    } else {
                        sparse_features(n, id, &mut rng)
                    };
                    let g = zero_laden_grad(n, od, &mut rng);
                    (tree, x, g)
                })
                .collect();
            let zeroed = || -> Vec<Mat> { layer.grad_shapes().iter().map(|&(r, c)| Mat::zeros(r, c)).collect() };
            let mut reference = zeroed();
            for (tree, x, g) in &trees {
                let mut h = Mat::default();
                layer.forward_ws(x, tree, &mut h);
                let mut gpre = Mat::default();
                relu_mask_into(&h, g, &mut gpre);
                let filters = [
                    gathered(x, Some),
                    gathered(x, |k| tree.left[k]),
                    gathered(x, |k| tree.right[k]),
                ];
                for (acc, gx) in reference.iter_mut().zip(&filters) {
                    acc.add_assign(&transposed(&gpre.matmul_tn(gx)));
                }
            }
            let prev = set_kernel_mode(KernelMode::Scalar);
            for mode in [KernelMode::Scalar, KernelMode::Simd] {
                set_kernel_mode(mode);
                let (mut gd, mut gs) = (zeroed(), zeroed());
                let mut scratch = Workspace::new();
                for (t, (tree, x, g)) in trees.iter().enumerate() {
                    let mut h = Mat::default();
                    layer.forward_ws(x, tree, &mut h);
                    let sx = SparseRows::from_dense(x);
                    let (mut xd, mut xs) = (Mat::default(), Mat::default());
                    let (dense_in, sparse_in) = if post_relu {
                        (Some(&mut xd), Some(&mut xs))
                    } else {
                        (None, None)
                    };
                    layer.backward_ws(x, &h, tree, g, &mut gd, dense_in, &mut Workspace::new());
                    layer.backward_ws_sparse(&sx, &h, tree, g, &mut gs, sparse_in, &mut scratch);
                    prop_assert_eq!(bits(&xs), bits(&xd), "{:?} tree {}: input gradient", mode, t);
                }
                for f in 0..3 {
                    prop_assert_eq!((gd[f].rows, gd[f].cols), (id, od));
                    prop_assert_eq!(bits(&gs[f]), bits(&gd[f]), "{:?} filter {}: sparse vs dense", mode, f);
                    prop_assert_eq!(bits(&gd[f]), bits(&reference[f]), "{:?} filter {}: vs matmul_tn", mode, f);
                }
                prop_assert_eq!(bits(&gs[3]), bits(&gd[3]), "{:?} bias", mode);
            }
            set_kernel_mode(prev);
        }

        /// Stacking cached CSR rows ([`ForestWs::stack_sparse`]) gives
        /// each tree bitwise the embedding of the dense single-tree
        /// [`Tcn::infer`], under both kernel modes, on fresh workspaces and
        /// on warm ones reused after a larger batch; and the stack is exactly
        /// the dense rows stacked: the index of the stacked matrix, the
        /// offset tree and the prefix bounds.
        #[test]
        fn csr_stacking_matches_dense_stacking(seed in 0u64..1_000_000, ntrees in 0usize..6) {
            let _guard = crate::kernels::MODE_TEST_MUTEX
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            use crate::kernels::{set_kernel_mode, KernelMode};
            let mut rng = StdRng::seed_from_u64(seed);
            let tcn = Tcn::new(30, 10, 6, 4, &mut rng);
            let forest = random_forest(ntrees, 30, &mut rng);
            let sparse: Vec<SparseRows> = forest.iter().map(|(x, _)| SparseRows::from_dense(x)).collect();
            let items: Vec<(&Mat, &TreeStructure)> = forest.iter().map(|(x, t)| (x, t)).collect();
            let (stacked, stacked_tree, stacked_bounds) = stacked_rows(&items, 30);
            let big = random_forest(8, 30, &mut rng);
            let big_sparse: Vec<SparseRows> = big.iter().map(|(x, _)| SparseRows::from_dense(x)).collect();
            let prev = set_kernel_mode(KernelMode::Scalar);
            for mode in [KernelMode::Scalar, KernelMode::Simd] {
                set_kernel_mode(mode);
                let singles: Vec<Vec<u32>> = items.iter().map(|(x, t)| bits(&tcn.infer(x, t))).collect();
                for warm in [false, true] {
                    let mut ws = ForestWs::default();
                    if warm {
                        ws.stack_sparse(big_sparse.iter().zip(big.iter().map(|(_, t)| t)));
                        tcn.forward_forest_ws(&mut ws);
                    }
                    ws.stack_sparse(sparse.iter().zip(forest.iter().map(|(_, t)| t)));
                    tcn.forward_forest_ws(&mut ws);
                    prop_assert_eq!((ws.emb().rows, ws.emb().cols), (ntrees, 4));
                    for (b, single) in singles.iter().enumerate() {
                        let row: Vec<u32> = ws.emb().row(b).iter().map(|v| v.to_bits()).collect();
                        prop_assert_eq!(&row, single, "{:?} warm={} tree {}", mode, warm, b);
                    }
                    if ntrees == 0 {
                        prop_assert_eq!((ws.sx.rows(), ws.sx.nnz()), (0, 0));
                    } else {
                        prop_assert_eq!(&ws.sx, &SparseRows::from_dense(&stacked));
                    }
                    prop_assert_eq!(&ws.bounds, &stacked_bounds);
                    prop_assert_eq!(&ws.tree, &stacked_tree);
                }
            }
            set_kernel_mode(prev);
        }
    }
}
