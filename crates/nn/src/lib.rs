//! # tinynn
//!
//! A minimal, dependency-light neural-network library built for the LOAM
//! reproduction: dense matrices, fully connected layers, Adam, MSE and
//! cross-entropy losses, tree convolution (the PlanEmb encoder of
//! Bao/Neo/LOAM), a GCN encoder and a single-head transformer encoder (the
//! baseline cost models of Section 7.1), and the gradient-reversal utilities
//! of DANN-style adversarial domain adaptation.
//!
//! Every model implements an explicit `forward`/`backward` pair with cached
//! activations; gradient correctness is enforced by finite-difference tests
//! in each module.
//!
//! ## Workspaces
//!
//! Each model also exposes allocation-free `*_ws`/`*_into` variants that
//! write into caller-owned, reusable buffers (see [`workspace::Workspace`]
//! and per-model workspace structs such as [`MlpWs`] and [`ForestWs`], the
//! tree encoder's one workspace for scoring batches and training samples
//! alike). The allocating entry points are thin wrappers over these, so both
//! paths share one implementation and produce bit-identical results.
//! Training loops that keep a `Workspace` plus the model workspaces alive
//! across steps perform zero heap allocation after warmup.
//!
//! ## Example
//!
//! ```
//! use tinynn::{Mat, Mlp, AdamConfig, mse};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[2, 8, 1], &mut rng);
//! let x = Mat::from_vec(1, 2, vec![0.5, -0.25]);
//! let (y, cache) = mlp.forward(&x);
//! let (_, grad) = mse(&y, &Mat::from_vec(1, 1, vec![1.0]));
//! mlp.zero_grad();
//! mlp.backward(&cache, &grad);
//! mlp.adam_step(0.01, 1, &AdamConfig::default());
//! ```

mod convsimd;
pub mod gcn;
pub mod grl;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod mat;
pub mod metrics;
pub mod mlp;
pub mod param;
pub mod sparse;
pub mod tcn;
pub mod transformer;
pub mod workspace;

pub use convsimd::conv_kernel;
pub use gcn::{Gcn, GcnCache, GcnWs, Graph};
pub use grl::{lambda_schedule, reverse_gradient, reverse_gradient_into};
pub use kernels::{kernel_mode, set_kernel_mode, KernelMode};
pub use linear::{relu, relu_backward, relu_mask_into, softmax_rows, softmax_rows_into, Linear};
pub use loss::{accuracy, cross_entropy_logits, cross_entropy_logits_into, mse, mse_into};
pub use mat::Mat;
pub use metrics::{concordance, mean_abs_log_ratio, r2, spearman};
pub use mlp::{Mlp, MlpCache, MlpWs};
pub use param::{AdamConfig, AdamStep, Param, SlotFold};
pub use sparse::SparseRows;
pub use tcn::{ForestWs, Tcn, TcnCache, TreeConvLayer, TreeStructure};
pub use transformer::{Transformer, TransformerCache, TransformerWs};
pub use workspace::{alloc_probe, GradSet, Workspace};
