//! Fully connected layers and activations with explicit backward passes.

use crate::mat::Mat;
use crate::param::{AdamConfig, Param};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully connected layer `y = x Wᵀ + b` (`x`: n×in, `W`: out×in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, out×in.
    pub w: Param,
    /// Bias vector, 1×out.
    pub b: Param,
}

impl Linear {
    /// He-initialized layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Linear {
        let std = (2.0 / in_dim as f32).sqrt();
        Linear {
            w: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.cols
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.rows
    }

    /// Forward: `x` is n×in, result n×out.
    pub fn forward(&self, x: &Mat) -> Mat {
        let mut y = Mat::default();
        self.forward_into(x, &mut y);
        y
    }

    /// Forward into a reusable buffer via the fused matmul+bias kernel.
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_bias_into(&self.w.value, &self.b.value.data, false, y);
    }

    /// Forward followed by ReLU, fused into one output pass.
    pub fn forward_relu_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_bias_into(&self.w.value, &self.b.value.data, true, y);
    }

    /// Backward: given the input `x` used in forward and `grad_out` (n×out),
    /// accumulates parameter gradients and returns `grad_in` (n×in).
    pub fn backward(&mut self, x: &Mat, grad_out: &Mat) -> Mat {
        let mut scratch = Workspace::new();
        let mut grad_in = Mat::default();
        Linear::backward_into(
            &self.w.value,
            x,
            grad_out,
            &mut self.w.grad,
            &mut self.b.grad,
            Some(&mut grad_in),
            &mut scratch,
        );
        grad_in
    }

    /// Allocation-free backward. `w` is the forward weight matrix; parameter
    /// gradients are computed into workspace scratch and then added to the
    /// `gw`/`gb` accumulators (so wrapper and workspace paths share one
    /// accumulation order); `grad_in`, when requested, is overwritten with
    /// `grad_out @ W`. Associated function (not `&mut self`) so callers can
    /// split value/grad borrows across `Param` fields.
    pub fn backward_into(
        w: &Mat,
        x: &Mat,
        grad_out: &Mat,
        gw: &mut Mat,
        gb: &mut Mat,
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        scratch.with(w.rows, w.cols, |scratch, dw| {
            // dW = grad_outᵀ @ x  (out×in)
            grad_out.matmul_tn_into(x, dw);
            gw.add_assign(dw);
            scratch.with(1, w.rows, |_, db| {
                grad_out.col_sums_into(db);
                gb.add_assign(db);
            });
        });
        if let Some(gi) = grad_in {
            // dX = grad_out @ W (n×in)
            grad_out.matmul_into(w, gi);
        }
    }

    /// Fused ReLU+linear backward: masks `grad_out` against the post-ReLU
    /// output `y` (equivalent to masking on the pre-activation, since
    /// `y = max(pre, 0)` is positive exactly where `pre` is) and then runs
    /// [`Linear::backward_into`] on the masked gradient.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_relu_into(
        w: &Mat,
        x: &Mat,
        y: &Mat,
        grad_out: &Mat,
        gw: &mut Mat,
        gb: &mut Mat,
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(y, grad_out, gpre);
            Linear::backward_into(w, x, gpre, gw, gb, grad_in, scratch);
        });
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    /// Adam update on both parameters.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.w.adam_step(lr, t, cfg);
        self.b.adam_step(lr, t, cfg);
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Elementwise ops below this many elements stay serial (on top of the
/// global [`mcsim_par::min_parallel_work`] gate) — activations are cheap
/// per element, so fan-out only ever pays off on big batches.
fn elementwise_chunk(n: usize, pool: &mcsim_par::ThreadPool) -> Option<usize> {
    if pool.threads() > 1 && n > 1 && n * 4 >= mcsim_par::min_parallel_work() {
        Some(n.div_ceil(pool.threads() * 2).max(1))
    } else {
        None
    }
}

/// Elementwise ReLU clamp over a slice. Every element is written exactly
/// once, so any vector width gives the same bits: both [`crate::kernels`]
/// modes share this plain loop, which the compiler vectorizes.
#[inline]
fn relu_clamp(c: &mut [f32]) {
    for v in c.iter_mut() {
        *v = v.max(0.0);
    }
}

/// ReLU forward; returns output (input preserved for backward).
pub fn relu(x: &Mat) -> Mat {
    let mut out = x.clone();
    let pool = mcsim_par::ThreadPool::global();
    match elementwise_chunk(out.data.len(), &pool) {
        Some(chunk) => pool.parallel_for_chunks_mut(&mut out.data, chunk, |_, c| relu_clamp(c)),
        None => relu_clamp(&mut out.data),
    }
    out
}

/// ReLU backward: masks `grad` where the forward input was ≤ 0.
pub fn relu_backward(input: &Mat, grad: &Mat) -> Mat {
    let mut out = grad.clone();
    let mask = |out: &mut [f32], inp: &[f32]| {
        for (g, &x) in out.iter_mut().zip(inp) {
            if x <= 0.0 {
                *g = 0.0;
            }
        }
    };
    let pool = mcsim_par::ThreadPool::global();
    match elementwise_chunk(out.data.len(), &pool) {
        Some(chunk) => pool.for_each(
            out.data.chunks_mut(chunk).zip(input.data.chunks(chunk)),
            |(o, i)| mask(o, i),
        ),
        None => mask(&mut out.data, &input.data),
    }
    out
}

/// Writes `grad` masked by the post-ReLU output `y` into `out`:
/// `out[i] = grad[i]` where `y[i] > 0`, else `0`. Masking on the output is
/// bit-equivalent to [`relu_backward`]'s masking on the pre-activation.
pub fn relu_mask_into(y: &Mat, grad: &Mat, out: &mut Mat) {
    assert_eq!(y.data.len(), grad.data.len());
    out.resize_in_place(grad.rows, grad.cols);
    for ((o, &g), &v) in out.data.iter_mut().zip(&grad.data).zip(&y.data) {
        *o = if v <= 0.0 { 0.0 } else { g };
    }
}

/// Row-wise softmax. Rows are independent, so row blocks run in parallel
/// with bit-identical results.
pub fn softmax_rows(x: &Mat) -> Mat {
    let mut out = Mat::default();
    softmax_rows_into(x, &mut out);
    out
}

/// Row-wise softmax into a reusable buffer; kernel shared with
/// [`softmax_rows`].
pub fn softmax_rows_into(x: &Mat, out: &mut Mat) {
    out.copy_from(x);
    if out.cols == 0 {
        return;
    }
    let softmax_block = |block: &mut [f32], cols: usize| {
        for row in block.chunks_mut(cols) {
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    };
    let cols = out.cols;
    let pool = mcsim_par::ThreadPool::global();
    // exp() dominates: weight it like ~8 flops per element.
    if pool.threads() > 1 && out.rows > 1 && out.data.len() * 8 >= mcsim_par::min_parallel_work() {
        let block_rows = out.rows.div_ceil(pool.threads() * 2).max(1);
        pool.parallel_for_chunks_mut(&mut out.data, block_rows * cols, |_, c| {
            softmax_block(c, cols)
        });
    } else {
        softmax_block(&mut out.data, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for the linear layer.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Mat::randn(2, 4, 1.0, &mut rng);
        let target = Mat::randn(2, 3, 1.0, &mut rng);

        // Loss = 0.5 * ||y - target||².
        let loss_of = |layer: &Linear, x: &Mat| -> f32 {
            let y = layer.forward(x);
            y.data
                .iter()
                .zip(&target.data)
                .map(|(a, b)| 0.5 * (a - b) * (a - b))
                .sum()
        };

        let y = layer.forward(&x);
        let grad_out = Mat {
            rows: y.rows,
            cols: y.cols,
            data: y
                .data
                .iter()
                .zip(&target.data)
                .map(|(a, b)| a - b)
                .collect(),
        };
        layer.zero_grad();
        let grad_in = layer.backward(&x, &grad_out);

        let eps = 1e-3;
        // Check dW numerically at a few entries.
        for &idx in &[0usize, 5, 11] {
            let mut lp = layer.clone();
            lp.w.value.data[idx] += eps;
            let mut lm = layer.clone();
            lm.w.value.data[idx] -= eps;
            let num = (loss_of(&lp, &x) - loss_of(&lm, &x)) / (2.0 * eps);
            let ana = layer.w.grad.data[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check dX numerically.
        for &idx in &[0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * eps);
            let ana = grad_in.data[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dX[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn relu_masks_negative_inputs() {
        let x = Mat::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 2.0]);
        let y = relu(&x);
        assert_eq!(y.data, vec![0.0, 0.0, 0.5, 2.0]);
        let g = relu_backward(&x, &Mat::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(g.data, vec![0.0, 0.0, 1.0, 1.0]);
    }

    /// Both kernel modes must clamp/scale to the same bits, at widths below,
    /// at and above a vector register's.
    #[test]
    fn unrolled_epilogues_match_scalar_bitwise() {
        use crate::kernels::{set_kernel_mode, KernelMode};
        let mut rng = StdRng::seed_from_u64(33);
        for cols in [1usize, 4, 7, 8, 9, 16, 23] {
            let x = Mat::randn(3, cols, 1.0, &mut rng);
            let prev = set_kernel_mode(KernelMode::Scalar);
            let (r_s, sm_s) = (relu(&x), softmax_rows(&x));
            set_kernel_mode(KernelMode::Simd);
            let (r_u, sm_u) = (relu(&x), softmax_rows(&x));
            set_kernel_mode(prev);
            assert_eq!(r_s, r_u, "relu cols {cols}");
            assert_eq!(sm_s, sm_u, "softmax cols {cols}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn relu_mask_on_output_matches_legacy_mask_on_input() {
        let mut rng = StdRng::seed_from_u64(21);
        let pre = Mat::randn(3, 5, 1.0, &mut rng);
        let grad = Mat::randn(3, 5, 1.0, &mut rng);
        let y = relu(&pre);
        let want = relu_backward(&pre, &grad);
        let mut got = Mat::default();
        relu_mask_into(&y, &grad, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn backward_into_matches_wrapper_bitwise() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut layer = Linear::new(6, 4, &mut rng);
        let x = Mat::randn(3, 6, 1.0, &mut rng);
        let g = Mat::randn(3, 4, 1.0, &mut rng);
        layer.zero_grad();
        let gi_wrap = layer.backward(&x, &g);
        let (gw_wrap, gb_wrap) = (layer.w.grad.clone(), layer.b.grad.clone());

        let mut gw = Mat::zeros(4, 6);
        let mut gb = Mat::zeros(1, 4);
        let mut gi = Mat::default();
        let mut ws = crate::workspace::Workspace::new();
        Linear::backward_into(
            &layer.w.value,
            &x,
            &g,
            &mut gw,
            &mut gb,
            Some(&mut gi),
            &mut ws,
        );
        assert_eq!(gw, gw_wrap);
        assert_eq!(gb, gb_wrap);
        assert_eq!(gi, gi_wrap);
    }

    #[test]
    fn linear_learns_a_linear_map() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Linear::new(2, 1, &mut rng);
        let cfg = AdamConfig::default();
        // Learn y = 3a - 2b + 1.
        for t in 1..=3000 {
            let x = Mat::randn(8, 2, 1.0, &mut rng);
            let target: Vec<f32> = (0..8)
                .map(|i| 3.0 * x.get(i, 0) - 2.0 * x.get(i, 1) + 1.0)
                .collect();
            let y = layer.forward(&x);
            let grad = Mat::from_vec(
                8,
                1,
                y.data
                    .iter()
                    .zip(&target)
                    .map(|(a, b)| (a - b) / 8.0)
                    .collect(),
            );
            layer.zero_grad();
            layer.backward(&x, &grad);
            layer.adam_step(0.02, t, &cfg);
        }
        assert!((layer.w.value.data[0] - 3.0).abs() < 0.05);
        assert!((layer.w.value.data[1] + 2.0).abs() < 0.05);
        assert!((layer.b.value.data[0] - 1.0).abs() < 0.05);
    }
}
