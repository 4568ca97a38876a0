//! Multi-layer perceptrons (ReLU hidden layers, linear output).

use crate::linear::Linear;
use crate::mat::Mat;
use crate::param::{AdamConfig, Param, SlotFold};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An MLP with ReLU after every layer except the last.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    /// Layers in order.
    pub layers: Vec<Linear>,
}

/// Reusable per-model activation buffers for the workspace forward/backward
/// pair. One warm instance per training worker; never reallocates once every
/// batch shape has been seen.
#[derive(Debug, Clone, Default)]
pub struct MlpWs {
    /// Post-activation output of each layer (final layer: raw output).
    acts: Vec<Mat>,
}

impl MlpWs {
    /// The network output of the last `forward_ws` call.
    pub fn out(&self) -> &Mat {
        self.acts.last().expect("forward_ws not called yet")
    }

    /// Bytes held by the activation buffers.
    pub fn bytes(&self) -> usize {
        self.acts
            .iter()
            .map(|m| m.data.capacity() * std::mem::size_of::<f32>())
            .sum()
    }
}

/// Forward-pass cache needed for backward.
#[derive(Debug, Clone)]
pub struct MlpCache {
    /// The forward input.
    x: Mat,
    /// Activation buffers from the forward pass.
    ws: MlpWs,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[32, 16, 1]` for
    /// 32 → 16 → 1.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two dims are given.
    pub fn new<R: Rng>(dims: &[usize], rng: &mut R) -> Mlp {
        assert!(dims.len() >= 2, "need at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Forward pass returning the output and a cache for backward.
    ///
    /// Thin allocating wrapper over [`Mlp::forward_ws`].
    pub fn forward(&self, x: &Mat) -> (Mat, MlpCache) {
        let mut ws = MlpWs::default();
        self.forward_ws(x, &mut ws);
        let out = ws.out().clone();
        (out, MlpCache { x: x.clone(), ws })
    }

    /// Allocation-free forward: fused matmul+bias(+ReLU) per layer into the
    /// workspace's reusable activation buffers.
    pub fn forward_ws(&self, x: &Mat, ws: &mut MlpWs) {
        let n = self.layers.len();
        ws.acts.resize_with(n, Mat::default);
        for (i, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(i);
            let input: &Mat = if i == 0 { x } else { &done[i - 1] };
            if i + 1 < n {
                layer.forward_relu_into(input, &mut rest[0]);
            } else {
                layer.forward_into(input, &mut rest[0]);
            }
        }
    }

    /// Inference-only forward (no cache).
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut ws = MlpWs::default();
        self.forward_ws(x, &mut ws);
        ws.acts.pop().expect("at least one layer")
    }

    /// Inference-only forward into a caller-owned workspace: zero steady-state
    /// allocations once the largest batch shape has been seen. Returns the
    /// output buffer (also reachable as `ws.out()`).
    pub fn infer_ws<'a>(&self, x: &Mat, ws: &'a mut MlpWs) -> &'a Mat {
        self.forward_ws(x, ws);
        ws.out()
    }

    /// Backward pass: accumulates parameter gradients, returns the gradient
    /// w.r.t. the MLP input.
    ///
    /// Thin allocating wrapper over [`Mlp::backward_ws`].
    pub fn backward(&mut self, cache: &MlpCache, grad_out: &Mat) -> Mat {
        let mut grads: Vec<Mat> = self
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        let mut grad_in = Mat::default();
        self.backward_ws(
            &cache.x,
            &cache.ws,
            grad_out,
            &mut grads,
            Some(&mut grad_in),
            &mut scratch,
        );
        self.add_grads(&grads);
        grad_in
    }

    /// Allocation-free backward. Parameter gradients are added into `grads`
    /// (layout per [`Mlp::grad_shapes`]); `grad_in`, when requested, is
    /// overwritten with the gradient w.r.t. the forward input. Intermediate
    /// gradients live in `scratch`.
    pub fn backward_ws(
        &self,
        x: &Mat,
        ws: &MlpWs,
        grad_out: &Mat,
        grads: &mut [Mat],
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        assert_eq!(grads.len(), 2 * self.layers.len(), "grad buffer layout");
        self.backward_from(
            self.layers.len() - 1,
            x,
            ws,
            grad_out,
            grads,
            grad_in,
            scratch,
        );
    }

    /// Processes layer `i` with `incoming` (the gradient w.r.t. that layer's
    /// post-activation output) and recurses toward layer 0; recursion keeps
    /// the chain's intermediate buffers properly nested in `scratch`.
    #[allow(clippy::too_many_arguments)]
    fn backward_from(
        &self,
        i: usize,
        x: &Mat,
        ws: &MlpWs,
        incoming: &Mat,
        grads: &mut [Mat],
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        let layer = &self.layers[i];
        let input: &Mat = if i == 0 { x } else { &ws.acts[i - 1] };
        let hidden = i + 1 < self.layers.len();
        if i == 0 {
            let (gw, gb) = two_muts(grads, 2 * i);
            if hidden {
                Linear::backward_relu_into(
                    &layer.w.value,
                    input,
                    &ws.acts[i],
                    incoming,
                    gw,
                    gb,
                    grad_in,
                    scratch,
                );
            } else {
                Linear::backward_into(&layer.w.value, input, incoming, gw, gb, grad_in, scratch);
            }
        } else {
            scratch.with(input.rows, layer.in_dim(), |scratch, gin| {
                {
                    let (gw, gb) = two_muts(grads, 2 * i);
                    if hidden {
                        Linear::backward_relu_into(
                            &layer.w.value,
                            input,
                            &ws.acts[i],
                            incoming,
                            gw,
                            gb,
                            Some(gin),
                            scratch,
                        );
                    } else {
                        Linear::backward_into(
                            &layer.w.value,
                            input,
                            incoming,
                            gw,
                            gb,
                            Some(gin),
                            scratch,
                        );
                    }
                }
                self.backward_from(i - 1, x, ws, gin, grads, grad_in, scratch);
            });
        }
    }

    /// Parameters in canonical order: `[w0, b0, w1, b1, ...]`.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| [&l.w, &l.b]).collect()
    }

    /// Shapes of the gradient buffers in [`Mlp::params`] order.
    pub fn grad_shapes(&self) -> Vec<(usize, usize)> {
        self.layers
            .iter()
            .flat_map(|l| {
                [
                    (l.w.value.rows, l.w.value.cols),
                    (l.b.value.rows, l.b.value.cols),
                ]
            })
            .collect()
    }

    /// Adds externally accumulated gradients (in [`Mlp::params`] order) into
    /// the layers' gradient accumulators.
    pub fn add_grads(&mut self, mats: &[Mat]) {
        assert_eq!(mats.len(), 2 * self.layers.len(), "grad buffer layout");
        for (i, l) in self.layers.iter_mut().enumerate() {
            l.w.grad.add_assign(&mats[2 * i]);
            l.b.grad.add_assign(&mats[2 * i + 1]);
        }
    }

    /// The parameters as fused fold-and-step jobs, in [`Mlp::params`]
    /// order (see [`SlotFold::run`]).
    pub fn slot_folds(&mut self) -> impl Iterator<Item = SlotFold<'_>> {
        self.layers
            .iter_mut()
            .flat_map(|l| [SlotFold::new(&mut l.w), SlotFold::new(&mut l.b)])
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Adam step on all layers.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        for l in &mut self.layers {
            l.adam_step(lr, t, cfg);
        }
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }
}

/// Two adjacent `&mut` elements of a slice (the w/b gradient pair).
fn two_muts(mats: &mut [Mat], at: usize) -> (&mut Mat, &mut Mat) {
    let (a, b) = mats[at..at + 2].split_at_mut(1);
    (&mut a[0], &mut b[0])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_fits_a_nonlinear_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[2, 16, 16, 1], &mut rng);
        let cfg = AdamConfig::default();
        // y = x0² + sin(x1)
        let mut t = 0;
        for _ in 0..1500 {
            let x = Mat::randn(16, 2, 1.0, &mut rng);
            let target = Mat::from_vec(
                16,
                1,
                (0..16)
                    .map(|i| x.get(i, 0).powi(2) + x.get(i, 1).sin())
                    .collect(),
            );
            let (y, cache) = mlp.forward(&x);
            let (_, grad) = mse(&y, &target);
            mlp.zero_grad();
            mlp.backward(&cache, &grad);
            t += 1;
            mlp.adam_step(0.01, t, &cfg);
        }
        // Evaluate.
        let x = Mat::randn(64, 2, 1.0, &mut rng);
        let target: Vec<f32> = (0..64)
            .map(|i| x.get(i, 0).powi(2) + x.get(i, 1).sin())
            .collect();
        let y = mlp.infer(&x);
        let mse_val: f32 = y
            .data
            .iter()
            .zip(&target)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f32>()
            / 64.0;
        assert!(mse_val < 0.1, "mse {mse_val}");
    }

    #[test]
    fn gradient_check_through_two_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[3, 5, 2], &mut rng);
        let x = Mat::randn(4, 3, 1.0, &mut rng);
        let target = Mat::randn(4, 2, 1.0, &mut rng);
        let (y, cache) = mlp.forward(&x);
        let (_, grad) = mse(&y, &target);
        mlp.zero_grad();
        let gx = mlp.backward(&cache, &grad);

        let loss_of = |mlp: &Mlp, x: &Mat| {
            let y = mlp.infer(x);
            mse(&y, &target).0
        };
        let eps = 1e-3;
        for idx in [0usize, 5, 11] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss_of(&mlp, &xp) - loss_of(&mlp, &xm)) / (2.0 * eps);
            assert!(
                (num - gx.data[idx]).abs() < 2e-2,
                "dX[{idx}] num {num} vs {}",
                gx.data[idx]
            );
        }
        // And a weight in the first layer.
        for idx in [0usize, 7] {
            let mut mp = mlp.clone();
            mp.layers[0].w.value.data[idx] += eps;
            let mut mm = mlp.clone();
            mm.layers[0].w.value.data[idx] -= eps;
            let num = (loss_of(&mp, &x) - loss_of(&mm, &x)) / (2.0 * eps);
            let ana = mlp.layers[0].w.grad.data[idx];
            assert!((num - ana).abs() < 2e-2, "dW[{idx}] num {num} vs {ana}");
        }
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(&[4, 8, 2], &mut rng);
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let (y1, _) = mlp.forward(&x);
        let y2 = mlp.infer(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn workspace_path_matches_wrapper_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&[4, 8, 3, 2], &mut rng);
        let x = Mat::randn(5, 4, 1.0, &mut rng);
        let g = Mat::randn(5, 2, 1.0, &mut rng);

        let (y_wrap, cache) = mlp.forward(&x);
        mlp.zero_grad();
        let gi_wrap = mlp.backward(&cache, &g);
        let wrap_grads: Vec<Mat> = mlp.params().iter().map(|p| p.grad.clone()).collect();

        let mut ws = MlpWs::default();
        mlp.forward_ws(&x, &mut ws);
        assert_eq!(*ws.out(), y_wrap);
        let mut grads: Vec<Mat> = mlp
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut gi = Mat::default();
        let mut scratch = Workspace::new();
        mlp.backward_ws(&x, &ws, &g, &mut grads, Some(&mut gi), &mut scratch);
        assert_eq!(gi, gi_wrap);
        for (got, want) in grads.iter().zip(&wrap_grads) {
            assert_eq!(got, want);
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = Mlp::new(&[4], &mut rng);
    }
}
