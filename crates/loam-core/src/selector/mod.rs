//! Automatic project selection (Section 6): the rule-based Filter, the
//! learned Ranker, and the ranking metrics used to evaluate it.

pub mod filter;
pub mod metrics;
pub mod ranker;

pub use filter::{evaluate as evaluate_filter, FilterConfig, FilterReport};
pub use metrics::{dcg_at, expected_random_ndcg, expected_random_recall, ndcg_at, recall_at};
pub use ranker::{ranker_features, Ranker, PATTERN_DIM, RANKER_FEATURE_DIM};
