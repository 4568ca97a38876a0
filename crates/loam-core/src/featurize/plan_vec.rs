//! Plan vectorization (Section 4, Figure 4).
//!
//! Each plan node becomes one feature row:
//!
//! | block | width | contents |
//! |---|---|---|
//! | operator one-hot | 20 | [`mcsim_plan::OpType`] |
//! | table hash enc | 40 | multi-segment encoding of the scanned table |
//! | scan shape | 3 | log-normalized #partitions accessed, #partitions total, #columns |
//! | join form one-hot | 6 | inner/outer/… |
//! | agg function multi-hot | 6 | SUM/COUNT/… |
//! | filter function multi-hot | 10 | =, <, BETWEEN, … |
//! | key-column hash enc | 40 | join keys / group-by / agg / sort columns |
//! | filter-column hash enc | 40 | columns referenced by predicates |
//! | environment | 4 | CPU_IDLE, IO_WAIT, lognorm LOAD5, MEM_USAGE |
//!
//! All plan nodes within the same stage share the same environment block
//! (they run on the same allocated machines). The encoding is deliberately
//! **statistics-free**: no histograms, NDVs or cardinalities appear —
//! data-distribution knowledge must be inferred from operator attributes and
//! historical costs (the paper's answer to Challenge 2).

use super::hash_enc::{encode_ids, HASH_ENC_DIM};
use mcsim_catalog::EnvMetrics;
use mcsim_plan::op::{Operator, OP_TYPE_COUNT};
use mcsim_plan::stage::decompose;
use mcsim_plan::PlanTree;
use tinynn::tcn::TreeStructure;
use tinynn::Mat;

/// Offsets of the feature blocks.
const OP_OFF: usize = 0;
const TABLE_OFF: usize = OP_OFF + OP_TYPE_COUNT;
const SHAPE_OFF: usize = TABLE_OFF + HASH_ENC_DIM;
const JOIN_OFF: usize = SHAPE_OFF + 3;
const AGG_OFF: usize = JOIN_OFF + mcsim_plan::op::JoinKind::COUNT;
const FILTER_FN_OFF: usize = AGG_OFF + mcsim_plan::op::AggFunc::COUNT;
const KEY_COL_OFF: usize = FILTER_FN_OFF + mcsim_plan::expr::CmpFn::COUNT;
const FILTER_COL_OFF: usize = KEY_COL_OFF + HASH_ENC_DIM;
/// Offset of the 4-dimensional environment block.
pub const ENV_OFF: usize = FILTER_COL_OFF + HASH_ENC_DIM;
/// Total node-feature width.
pub const FEATURE_DIM: usize = ENV_OFF + 4;

/// Namespaces for the hash encoder.
const NS_TABLE: u64 = 0x7ab1e;
const NS_KEY_COL: u64 = 0xc01a;
const NS_FILTER_COL: u64 = 0xf11c01;

/// How the environment block of a vectorized plan is filled.
#[derive(Debug, Clone, PartialEq)]
pub enum EnvSource<'a> {
    /// Per-stage observed metrics (training on historical executions).
    PerStage(&'a [EnvMetrics]),
    /// A single override for every node (inference strategies, Section 5).
    Uniform(EnvMetrics),
    /// No environment information (the LOAM-NL ablation): zeros.
    None,
}

/// The plan featurizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanFeaturizer {
    /// When false, the environment block is always zero (LOAM-NL).
    pub use_env: bool,
}

impl Default for PlanFeaturizer {
    fn default() -> Self {
        PlanFeaturizer { use_env: true }
    }
}

impl PlanFeaturizer {
    /// Vectorizes `plan` into (node features, tree structure). Node row `i`
    /// corresponds to plan `NodeId` `i`.
    ///
    /// Thin allocating wrapper over [`PlanFeaturizer::featurize_into`].
    pub fn featurize(&self, plan: &PlanTree, env: EnvSource<'_>) -> (Mat, TreeStructure) {
        let mut x = Mat::default();
        let mut tree = TreeStructure::default();
        self.featurize_into(plan, env, &mut x, &mut tree);
        (x, tree)
    }

    /// Vectorizes `plan` into caller-owned buffers, reusing their capacity
    /// across calls; identical output to [`PlanFeaturizer::featurize`].
    pub fn featurize_into(
        &self,
        plan: &PlanTree,
        env: EnvSource<'_>,
        x: &mut Mat,
        tree: &mut TreeStructure,
    ) {
        mcsim_obs::counter("loam.featurize.calls", 1);
        x.resize_in_place(plan.len(), FEATURE_DIM);
        x.fill(0.0);
        tree.left.clear();
        tree.right.clear();
        self.encode_plan_at(plan, &env, x, 0, tree);
    }

    /// Structure-of-arrays batch vectorization: every plan's node rows land
    /// contiguously in one stacked feature matrix, with child indices offset
    /// into the stack and `bounds` holding `plans.len() + 1` prefix node
    /// offsets — the stacked-batch contract of
    /// `tinynn::ForestWs::stacked_parts_mut` once the matrix is indexed, so
    /// a scoring batch goes from plans to one fused forest forward without
    /// any per-plan matrices. Row content is identical to featurizing each
    /// plan alone (the encoder is row-local), just relocated by the plan's
    /// node offset.
    pub fn featurize_forest_into(
        &self,
        plans: &[&PlanTree],
        env: EnvSource<'_>,
        x: &mut Mat,
        tree: &mut TreeStructure,
        bounds: &mut Vec<usize>,
    ) {
        mcsim_obs::counter("loam.featurize.calls", plans.len() as u64);
        let total: usize = plans.iter().map(|p| p.len()).sum();
        x.resize_in_place(total, FEATURE_DIM);
        x.fill(0.0);
        tree.left.clear();
        tree.right.clear();
        bounds.clear();
        bounds.push(0);
        let mut off = 0;
        for plan in plans {
            self.encode_plan_at(plan, &env, x, off, tree);
            off += plan.len();
            bounds.push(off);
        }
    }

    /// Encodes one plan's node rows starting at row `off` of the stacked
    /// matrix (rows must be pre-zeroed) and appends its offset child links.
    fn encode_plan_at(
        &self,
        plan: &PlanTree,
        env: &EnvSource<'_>,
        x: &mut Mat,
        off: usize,
        tree: &mut TreeStructure,
    ) {
        let stage_of: Option<Vec<usize>> = match env {
            EnvSource::PerStage(_) => Some(decompose(plan).stage_of_node),
            _ => None,
        };

        for (id, node) in plan.iter() {
            let row = x.row_mut(off + id);
            encode_operator(&node.op, row);
            if self.use_env {
                let metrics = match env {
                    EnvSource::PerStage(envs) => {
                        let s = stage_of.as_ref().expect("stage map")[id];
                        envs.get(s).copied().unwrap_or_default()
                    }
                    EnvSource::Uniform(e) => *e,
                    EnvSource::None => EnvMetrics::default(),
                };
                if !matches!(env, EnvSource::None) {
                    let f = metrics.features();
                    for (k, &v) in f.iter().enumerate() {
                        row[ENV_OFF + k] = v as f32;
                    }
                }
            }
        }

        tree.left
            .extend(plan.iter().map(|(_, n)| n.left.map(|j| j + off)));
        tree.right
            .extend(plan.iter().map(|(_, n)| n.right.map(|j| j + off)));
    }
}

fn lognorm(x: f64, max: f64) -> f32 {
    ((1.0 + x.max(0.0)).ln() / (1.0 + max).ln()).clamp(0.0, 1.0) as f32
}

fn encode_operator(op: &Operator, row: &mut [f32]) {
    row[OP_OFF + op.op_type().index()] = 1.0;
    match op {
        Operator::TableScan {
            table,
            partitions_accessed,
            partitions_total,
            columns,
            predicate,
        } => {
            encode_ids(
                NS_TABLE,
                std::iter::once(*table as u64),
                &mut row[TABLE_OFF..TABLE_OFF + HASH_ENC_DIM],
            );
            row[SHAPE_OFF] = lognorm(*partitions_accessed as f64, 4096.0);
            row[SHAPE_OFF + 1] = lognorm(*partitions_total as f64, 4096.0);
            row[SHAPE_OFF + 2] = lognorm(columns.len() as f64, 64.0);
            if !predicate.is_true() {
                for f in predicate.functions() {
                    row[FILTER_FN_OFF + f.index()] = 1.0;
                }
                encode_ids(
                    NS_FILTER_COL,
                    predicate.columns().into_iter().map(|c| c as u64),
                    &mut row[FILTER_COL_OFF..FILTER_COL_OFF + HASH_ENC_DIM],
                );
            }
        }
        Operator::Filter { predicate } | Operator::Calc { predicate, .. } => {
            for f in predicate.functions() {
                row[FILTER_FN_OFF + f.index()] = 1.0;
            }
            encode_ids(
                NS_FILTER_COL,
                predicate.columns().into_iter().map(|c| c as u64),
                &mut row[FILTER_COL_OFF..FILTER_COL_OFF + HASH_ENC_DIM],
            );
            if let Operator::Calc { columns, .. } = op {
                row[SHAPE_OFF + 2] = lognorm(columns.len() as f64, 64.0);
            }
        }
        Operator::Project { columns } => {
            row[SHAPE_OFF + 2] = lognorm(columns.len() as f64, 64.0);
        }
        Operator::Join {
            kind,
            left_keys,
            right_keys,
            ..
        } => {
            row[JOIN_OFF + kind.index()] = 1.0;
            encode_ids(
                NS_KEY_COL,
                left_keys.iter().chain(right_keys).map(|&c| c as u64),
                &mut row[KEY_COL_OFF..KEY_COL_OFF + HASH_ENC_DIM],
            );
        }
        Operator::Aggregate {
            funcs,
            agg_columns,
            group_by,
            ..
        } => {
            for f in funcs {
                row[AGG_OFF + f.index()] = 1.0;
            }
            encode_ids(
                NS_KEY_COL,
                agg_columns.iter().chain(group_by).map(|&c| c as u64),
                &mut row[KEY_COL_OFF..KEY_COL_OFF + HASH_ENC_DIM],
            );
        }
        Operator::Sort { keys } | Operator::TopN { keys, .. } | Operator::Exchange { keys, .. } => {
            encode_ids(
                NS_KEY_COL,
                keys.iter().map(|&c| c as u64),
                &mut row[KEY_COL_OFF..KEY_COL_OFF + HASH_ENC_DIM],
            );
        }
        Operator::Spool { .. } | Operator::Union | Operator::Limit { .. } | Operator::Sink => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_plan::expr::{CmpFn, Literal, Predicate};
    use mcsim_plan::op::{ExchangeKind, JoinAlgo, JoinKind};

    fn join_plan() -> PlanTree {
        let mut t = PlanTree::new();
        let a = t.leaf(Operator::TableScan {
            table: 3,
            partitions_accessed: 2,
            partitions_total: 8,
            columns: vec![30, 31],
            predicate: Predicate::cmp(CmpFn::Eq, 31, Literal::Int(5)),
        });
        let b = t.leaf(Operator::table_scan(4, 1, 1, vec![40]));
        let ea = t.unary(Operator::exchange(ExchangeKind::HashPartition, vec![30]), a);
        let eb = t.unary(Operator::exchange(ExchangeKind::HashPartition, vec![40]), b);
        let j = t.binary(
            Operator::join(JoinKind::Inner, JoinAlgo::Hash, vec![30], vec![40]),
            ea,
            eb,
        );
        let s = t.unary(Operator::Sink, j);
        t.set_root(s);
        t
    }

    #[test]
    fn feature_dim_is_consistent() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let (x, tree) = f.featurize(&plan, EnvSource::None);
        assert_eq!(x.cols, FEATURE_DIM);
        assert_eq!(x.rows, plan.len());
        assert_eq!(tree.len(), plan.len());
    }

    #[test]
    fn op_one_hot_is_exactly_one() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let (x, _) = f.featurize(&plan, EnvSource::None);
        for r in 0..x.rows {
            let ones: usize = x.row(r)[OP_OFF..OP_OFF + OP_TYPE_COUNT]
                .iter()
                .filter(|&&v| v == 1.0)
                .count();
            assert_eq!(ones, 1);
        }
    }

    #[test]
    fn filter_functions_and_columns_are_encoded() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let (x, _) = f.featurize(&plan, EnvSource::None);
        // Node 0 is the filtered scan.
        let row = x.row(0);
        assert_eq!(row[FILTER_FN_OFF + CmpFn::Eq.index()], 1.0);
        let filter_cols: f32 = row[FILTER_COL_OFF..FILTER_COL_OFF + HASH_ENC_DIM]
            .iter()
            .sum();
        assert!(filter_cols >= 5.0, "five segments must be hot");
        // Unfiltered scan has no filter encoding.
        let row1 = x.row(1);
        let none: f32 = row1[FILTER_FN_OFF..FILTER_FN_OFF + CmpFn::COUNT]
            .iter()
            .sum();
        assert_eq!(none, 0.0);
    }

    #[test]
    fn different_tables_have_different_encodings() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let (x, _) = f.featurize(&plan, EnvSource::None);
        let t0 = &x.row(0)[TABLE_OFF..TABLE_OFF + HASH_ENC_DIM];
        let t1 = &x.row(1)[TABLE_OFF..TABLE_OFF + HASH_ENC_DIM];
        assert_ne!(t0, t1);
    }

    #[test]
    fn uniform_env_fills_every_node() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        let (x, _) = f.featurize(&plan, EnvSource::Uniform(env));
        for r in 0..x.rows {
            let row = x.row(r);
            assert!((row[ENV_OFF] - 0.6).abs() < 1e-6);
            assert!(row[ENV_OFF + 2] > 0.0);
        }
    }

    #[test]
    fn per_stage_env_differs_across_stages() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let stages = decompose(&plan);
        let envs: Vec<EnvMetrics> = (0..stages.len())
            .map(|i| EnvMetrics::new(0.1 * (i + 1) as f64, 0.0, 1.0, 0.5))
            .collect();
        let (x, _) = f.featurize(&plan, EnvSource::PerStage(&envs));
        // Scan (producer stage) vs sink (root stage) see different cpu_idle.
        let scan_env = x.row(0)[ENV_OFF];
        let sink_env = x.row(5)[ENV_OFF];
        assert_ne!(scan_env, sink_env);
    }

    #[test]
    fn no_env_mode_zeroes_the_block() {
        let f = PlanFeaturizer { use_env: false };
        let plan = join_plan();
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        let (x, _) = f.featurize(&plan, EnvSource::Uniform(env));
        for r in 0..x.rows {
            assert!(x.row(r)[ENV_OFF..].iter().all(|&v| v == 0.0));
        }
    }

    /// The stacked (structure-of-arrays) batch featurization must equal
    /// featurizing every plan alone: identical row bits at the plan's offset
    /// and identically offset child links.
    #[test]
    fn forest_featurization_matches_per_plan_bitwise() {
        let f = PlanFeaturizer::default();
        let small = {
            let mut t = PlanTree::new();
            let a = t.leaf(Operator::table_scan(7, 1, 4, vec![70, 71]));
            let s = t.unary(Operator::Sink, a);
            t.set_root(s);
            t
        };
        let plans = [join_plan(), small, join_plan()];
        let refs: Vec<&PlanTree> = plans.iter().collect();
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);

        let mut x = Mat::default();
        let mut tree = TreeStructure::default();
        let mut bounds = Vec::new();
        f.featurize_forest_into(
            &refs,
            EnvSource::Uniform(env),
            &mut x,
            &mut tree,
            &mut bounds,
        );

        let total: usize = plans.iter().map(|p| p.len()).sum();
        assert_eq!((x.rows, x.cols), (total, FEATURE_DIM));
        assert_eq!(bounds, {
            let mut b = vec![0];
            let mut off = 0;
            for p in &plans {
                off += p.len();
                b.push(off);
            }
            b
        });
        for (b, plan) in plans.iter().enumerate() {
            let (xa, ta) = f.featurize(plan, EnvSource::Uniform(env));
            let off = bounds[b];
            for r in 0..plan.len() {
                assert_eq!(x.row(off + r), xa.row(r), "plan {b} row {r}");
            }
            for i in 0..plan.len() {
                assert_eq!(tree.left[off + i], ta.left[i].map(|j| j + off));
                assert_eq!(tree.right[off + i], ta.right[i].map(|j| j + off));
            }
        }
        // Warm reuse with a smaller batch stays identical.
        f.featurize_forest_into(
            &refs[..1],
            EnvSource::Uniform(env),
            &mut x,
            &mut tree,
            &mut bounds,
        );
        let (xa, _) = f.featurize(&plans[0], EnvSource::Uniform(env));
        assert_eq!(bounds, vec![0, plans[0].len()]);
        for r in 0..plans[0].len() {
            assert_eq!(x.row(r), xa.row(r));
        }
    }

    #[test]
    fn tree_structure_mirrors_plan_links() {
        let f = PlanFeaturizer::default();
        let plan = join_plan();
        let (_, tree) = f.featurize(&plan, EnvSource::None);
        for (id, node) in plan.iter() {
            assert_eq!(tree.left[id], node.left);
            assert_eq!(tree.right[id], node.right);
        }
    }
}
