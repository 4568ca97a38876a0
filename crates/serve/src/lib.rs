//! # mcsim-serve — the high-throughput serving layer
//!
//! Production query optimizers are judged under *traffic*, not one query
//! at a time: a multi-tenant warehouse submits recurring templates from
//! many projects at once, and the steering layer has to amortize its
//! neural inference, shed load it cannot absorb, and keep its decisions
//! reproducible for audit. This crate packages that serving path:
//!
//! * [`ArrivalProfile`] / [`generate_arrivals`] — seeded open-loop
//!   arrival traces (Poisson, bursty, diurnal) over many tenants, each
//!   request tagged with a recurring query template;
//! * [`ServeSession`] — the one serving loop: one validated
//!   [`ServeConfig`] (built with [`ServeConfig::builder`]) binds the
//!   traffic shape, batching width, admission control, caching policy,
//!   and robustness knobs, and [`ServeSession::run`] drives the whole
//!   optimize → gate → execute path, where every admitted request ends on
//!   one [`Resolution`] rung of the fallback ladder;
//! * request batching — the distinct templates a batch must score are
//!   split into at most one contiguous run per pool thread, balanced by
//!   plan-tree nodes, and each run is scored by one forest forward
//!   ([`CostModel::predict_batch_into`](loam_core::predictor::baselines::CostModel::predict_batch_into),
//!   which stacks the plans' cached CSR feature rows without padding) on
//!   its own warm workspace, all in one fan-out; bit-identical to
//!   single-query scoring;
//! * [`DecisionCache`] — plan-signature → guarded-decision cache with
//!   model-version invalidation, alongside the sharded
//!   [`FeatureCache`](loam_core::featurize::FeatureCache);
//! * deterministic replay — the [`DecisionRecord`] log of a run is a pure
//!   function of the seed and the semantic configuration: thread count,
//!   wall-clock speed, and tracing cannot change it.
//!
//! The `experiments serve` benchmark (crate `loam-bench`) measures the
//! payoff: batched + cached serving sustains a multiple of the
//! single-query QPS at identical decisions.

#![warn(missing_docs)]

mod arrival;
mod cache;
mod session;

pub use arrival::{generate_arrivals, Arrival, ArrivalProfile};
pub use cache::{CachedDecision, DecisionCache};
pub use session::{
    DecisionRecord, RequestOutcome, Resolution, ServeConfig, ServeConfigBuilder, ServeReport,
    ServeSession, ShedPolicy,
};
