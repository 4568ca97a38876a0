//! Learnable parameters with gradient accumulation and optimizer state.

use crate::mat::Mat;
use crate::workspace::GradSet;
use serde::{Deserialize, Serialize};

/// Hyperparameters of the Adam optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// L2 weight decay applied to gradients.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// A learnable tensor: value + accumulated gradient + Adam moments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    /// Current value.
    pub value: Mat,
    /// Accumulated gradient (cleared by [`Param::zero_grad`]).
    pub grad: Mat,
    m: Mat,
    v: Mat,
}

impl Param {
    /// Wraps an initial value.
    pub fn new(value: Mat) -> Param {
        let (r, c) = (value.rows, value.cols);
        Param {
            value,
            grad: Mat::zeros(r, c),
            m: Mat::zeros(r, c),
            v: Mat::zeros(r, c),
        }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        for g in &mut self.grad.data {
            *g = 0.0;
        }
    }

    /// One Adam update. `t` is the 1-based global step (for bias
    /// correction).
    ///
    /// Elementwise and therefore order-free: large tensors are updated in
    /// parallel chunks through the global pool with bit-identical results.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        let step = AdamStep::new(lr, t, cfg);
        let n = self.value.data.len();
        let pool = mcsim_par::ThreadPool::global();
        // ~12 flops per element.
        if pool.threads() > 1 && n > 1 && n * 12 >= mcsim_par::min_parallel_work() {
            // One job: (value, grad, m, v) chunks covering the same range.
            let chunk = n.div_ceil(pool.threads() * 2).max(1);
            let jobs = self
                .value
                .data
                .chunks_mut(chunk)
                .zip(self.grad.data.chunks(chunk))
                .zip(self.m.data.chunks_mut(chunk))
                .zip(self.v.data.chunks_mut(chunk));
            pool.for_each(jobs, |(((val, g), m), v)| step.apply(val, g, m, v));
        } else {
            step.apply(
                &mut self.value.data,
                &self.grad.data,
                &mut self.m.data,
                &mut self.v.data,
            );
        }
    }

    /// Plain SGD update.
    pub fn sgd_step(&mut self, lr: f32) {
        for i in 0..self.value.data.len() {
            self.value.data[i] -= lr * self.grad.data[i];
        }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.data.len()
    }

    /// True if the parameter tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.value.data.is_empty()
    }
}

/// The constants of one Adam update: the learning rate, the bias
/// corrections of the step, and the hyperparameters. One per optimizer
/// step, shared by every parameter the step updates.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    lr: f32,
    bc1: f32,
    bc2: f32,
    cfg: AdamConfig,
}

impl AdamStep {
    /// The update of the 1-based global step `t` at learning rate `lr`.
    pub fn new(lr: f32, t: u64, cfg: &AdamConfig) -> AdamStep {
        AdamStep {
            lr,
            bc1: 1.0 - cfg.beta1.powi(t as i32),
            bc2: 1.0 - cfg.beta2.powi(t as i32),
            cfg: *cfg,
        }
    }

    /// The update of one aligned chunk of value/grad/moment arrays, the
    /// one rule of every Adam path. Elementwise, so any chunking gives the
    /// same bits.
    fn apply(&self, value: &mut [f32], grad: &[f32], m: &mut [f32], v: &mut [f32]) {
        let AdamStep { lr, bc1, bc2, cfg } = *self;
        debug_assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len()
        );
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((w, &g), (m, v)) in value.iter_mut().zip(grad).zip(moments) {
            let mut g = g;
            if cfg.weight_decay > 0.0 {
                g += cfg.weight_decay * *w;
            }
            *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
            *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * g * g;
            let mh = *m / bc1;
            let vh = *v / bc2;
            *w -= lr * mh / (vh.sqrt() + cfg.eps);
        }
    }
}

/// The block of an input-major slot sum: [`FOLD_IN`] input rows by up to
/// [`FOLD_OUT`] outputs. Each slot's rows are read contiguously into a
/// stack tile, which is then written transposed into the gradient.
const FOLD_IN: usize = 16;

/// See [`FOLD_IN`].
const FOLD_OUT: usize = 128;

/// One parameter's share of a fused fold-and-step: its gradient summed
/// over a step's microbatch slots, then its Adam update. A trainer builds
/// one per parameter and hands them to one pool fan-out; each touches its
/// own parameter alone, so the result does not depend on the pool size or
/// on which thread runs it.
#[derive(Debug)]
pub struct SlotFold<'a> {
    param: &'a mut Param,
    /// `None` when the slot gradients have the value's layout. `Some` for a
    /// weight whose slot gradients are input-major (`in × out` for an
    /// `out × in` value, a tree-conv weight); it holds the layer's
    /// input-major weight copy when that is built, refilled from the
    /// updated value.
    input_major: Option<Option<&'a mut Mat>>,
}

impl<'a> SlotFold<'a> {
    /// A parameter whose slot gradients have its value's layout.
    pub(crate) fn new(param: &'a mut Param) -> SlotFold<'a> {
        SlotFold {
            param,
            input_major: None,
        }
    }

    /// A weight whose slot gradients are input-major, with its input-major
    /// copy to refill (`None` while unbuilt).
    pub(crate) fn input_major(param: &'a mut Param, copy: Option<&'a mut Mat>) -> SlotFold<'a> {
        SlotFold {
            param,
            input_major: Some(copy),
        }
    }

    /// Sets the parameter's gradient to the sum of gradient `k` of every
    /// slot, element by element in slot order (`((0 + g₀) + g₁) + …`, the
    /// sums of a `zero_grad` followed by one add per slot), then applies
    /// `step` if given and refills the input-major copy. An input-major
    /// weight's gradient is transposed here, once per step. Allocates
    /// nothing.
    pub fn run(self, slots: &[GradSet], k: usize, step: Option<&AdamStep>) {
        let Param { value, grad, m, v } = self.param;
        if self.input_major.is_some() {
            sum_transposed(slots, k, grad);
        } else {
            grad.fill(0.0);
            for slot in slots {
                grad.add_assign(&slot.mats[k]);
            }
        }
        if let Some(step) = step {
            step.apply(&mut value.data, &grad.data, &mut m.data, &mut v.data);
        }
        if let Some(Some(copy)) = self.input_major {
            value.transpose_into(copy);
        }
    }
}

/// Sets `grad` (`out × in`) to the slot order sum of the input-major
/// gradient `k` (`in × out`) of every slot, transposed: `((0 + g₀) + g₁) +
/// …` per element, a [`FOLD_IN`]-row block of the slots' gradients at a
/// time.
fn sum_transposed(slots: &[GradSet], k: usize, grad: &mut Mat) {
    let (od, id) = (grad.rows, grad.cols);
    for slot in slots {
        let g = &slot.mats[k];
        assert_eq!((g.rows, g.cols), (id, od), "input-major slot gradient");
    }
    let mut tile = [0.0f32; FOLD_IN * FOLD_OUT];
    for c0 in (0..id).step_by(FOLD_IN) {
        let c1 = (c0 + FOLD_IN).min(id);
        for r0 in (0..od).step_by(FOLD_OUT) {
            let width = (r0 + FOLD_OUT).min(od) - r0;
            // Tile row `j`: the sums of input `c0 + j`, outputs `r0..`.
            for (j, sums) in tile.chunks_exact_mut(width).take(c1 - c0).enumerate() {
                let at = (c0 + j) * od + r0;
                sums.fill(0.0);
                for slot in slots {
                    for (s, &g) in sums.iter_mut().zip(&slot.mats[k].data[at..at + width]) {
                        *s += g;
                    }
                }
            }
            for i in 0..width {
                let row = (r0 + i) * id;
                for (j, g) in grad.data[row + c0..row + c1].iter_mut().enumerate() {
                    *g = tile[j * width + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_a_quadratic() {
        // Minimize f(w) = (w - 3)^2 ; grad = 2(w - 3).
        let mut p = Param::new(Mat::from_vec(1, 1, vec![0.0]));
        let cfg = AdamConfig::default();
        for t in 1..=2000 {
            p.zero_grad();
            p.grad.data[0] = 2.0 * (p.value.data[0] - 3.0);
            p.adam_step(0.05, t, &cfg);
        }
        assert!((p.value.data[0] - 3.0).abs() < 1e-3, "{}", p.value.data[0]);
    }

    #[test]
    fn sgd_minimizes_a_quadratic() {
        let mut p = Param::new(Mat::from_vec(1, 1, vec![10.0]));
        for _ in 0..500 {
            p.zero_grad();
            p.grad.data[0] = 2.0 * (p.value.data[0] - 3.0);
            p.sgd_step(0.1);
        }
        assert!((p.value.data[0] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Mat::zeros(2, 2));
        p.grad.data[3] = 5.0;
        p.zero_grad();
        assert!(p.grad.data.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut p = Param::new(Mat::from_vec(1, 1, vec![1.0]));
        let cfg = AdamConfig {
            weight_decay: 0.1,
            ..AdamConfig::default()
        };
        for t in 1..=200 {
            p.zero_grad(); // zero loss gradient; only decay acts
            p.adam_step(0.01, t, &cfg);
        }
        assert!(p.value.data[0] < 1.0);
    }
}
