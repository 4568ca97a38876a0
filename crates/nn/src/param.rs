//! Learnable parameters with gradient accumulation and optimizer state.

use crate::mat::Mat;
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
        let bc1 = 1.0 - cfg.beta1.powi(t as i32);
        let bc2 = 1.0 - cfg.beta2.powi(t as i32);
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
            pool.for_each(jobs, |(((val, g), m), v)| {
                adam_chunk(val, g, m, v, lr, bc1, bc2, cfg)
            });
        } else {
            adam_chunk(
                &mut self.value.data,
                &self.grad.data,
                &mut self.m.data,
                &mut self.v.data,
                lr,
                bc1,
                bc2,
                cfg,
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

/// The Adam update for one aligned chunk of value/grad/moment arrays —
/// shared by the serial and parallel paths so they are bit-identical.
#[allow(clippy::too_many_arguments)]
fn adam_chunk(
    value: &mut [f32],
    grad: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    lr: f32,
    bc1: f32,
    bc2: f32,
    cfg: &AdamConfig,
) {
    for i in 0..value.len() {
        let mut g = grad[i];
        if cfg.weight_decay > 0.0 {
            g += cfg.weight_decay * value[i];
        }
        m[i] = cfg.beta1 * m[i] + (1.0 - cfg.beta1) * g;
        v[i] = cfg.beta2 * v[i] + (1.0 - cfg.beta2) * g * g;
        let mh = m[i] / bc1;
        let vh = v[i] / bc2;
        value[i] -= lr * mh / (vh.sqrt() + cfg.eps);
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
