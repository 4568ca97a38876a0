//! Query optimization: DP join ordering, cost-based implementation
//! selection, exchange insertion, aggregation placement.

use crate::cost::CoarseCostModel;
use crate::flags::Knobs;
use mcsim_catalog::selectivity::NodeCard;
use mcsim_catalog::workmodel::{operator_work, WorkContext, WorkParams};
use mcsim_catalog::{CardinalityModel, Catalog, QuerySpec};
use mcsim_plan::op::{AggAlgo, ExchangeKind, JoinAlgo, JoinKind, Operator};
use mcsim_plan::{ColumnId, NodeId, PlanTree};
use std::time::Instant;

/// Estimated build-side row count below which broadcast joins are considered
/// when the flag unlocks them.
const BROADCAST_THRESHOLD: f64 = 100_000.0;
/// Conservative threshold the *default* configuration always applies:
/// tiny builds are broadcast even in production, so broadcast joins appear
/// in historical default plans (just far less often than the flag allows).
const BROADCAST_DEFAULT_THRESHOLD: f64 = 5_000.0;
/// Builds estimated above this are spooled even by the default
/// configuration (materialization for re-execution robustness).
const SPOOL_DEFAULT_THRESHOLD: f64 = 1.0e7;

/// MaxCompute's native cost-based optimizer (simulated).
#[derive(Debug, Clone)]
pub struct NativeOptimizer<'a> {
    catalog: &'a Catalog,
    params: WorkParams,
}

/// One join in the DP-selected order.
#[derive(Debug, Clone)]
enum Recipe {
    Leaf(usize),
    Join {
        left: Box<Recipe>,
        right: Box<Recipe>,
        edge: usize,
    },
}

impl<'a> NativeOptimizer<'a> {
    /// Creates an optimizer over `catalog` with default work-model constants.
    pub fn new(catalog: &'a Catalog) -> Self {
        NativeOptimizer {
            catalog,
            params: WorkParams::default(),
        }
    }

    /// Overrides the work-model constants.
    pub fn with_params(catalog: &'a Catalog, params: WorkParams) -> Self {
        NativeOptimizer { catalog, params }
    }

    /// The work-model constants in use.
    pub fn params(&self) -> &WorkParams {
        &self.params
    }

    /// The catalog this optimizer reads (stale) metadata from.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// The optimizer's rough cost estimate for an arbitrary plan under
    /// `knobs` (used by the plan explorer's top-k pre-selection).
    pub fn rough_cost(&self, plan: &PlanTree, knobs: &Knobs) -> f64 {
        CoarseCostModel::new(self.catalog, &self.params)
            .with_card_scale(knobs.card_scale)
            .rough_cost(plan)
    }

    /// Compiles `query` into a physical plan under the given knobs.
    ///
    /// With [`Knobs::default`] this produces the *default plan*; other knob
    /// settings produce the steered candidate plans of the plan explorer.
    ///
    /// # Panics
    ///
    /// Panics if the query references zero tables.
    pub fn optimize(&self, query: &QuerySpec, knobs: &Knobs) -> PlanTree {
        assert!(!query.tables.is_empty(), "query must reference a table");
        mcsim_obs::counter("optimizer.plans_built", 1);
        let model = CoarseCostModel::new(self.catalog, &self.params)
            .with_card_scale(knobs.card_scale)
            .with_day(query.day);

        // Leaf estimates (stale rows × default selectivities).
        let leaf_est: Vec<f64> = query
            .tables
            .iter()
            .map(|t| model.believed_rows(t.table) * model.selectivity(&t.predicate))
            .collect();

        let dp_started = mcsim_obs::enabled().then(Instant::now);
        let recipe = self.join_order(query, &leaf_est, &model);
        if let Some(t) = dp_started {
            mcsim_obs::observe("optimizer.dp_seconds", t.elapsed().as_secs_f64());
        }

        let mut plan = PlanTree::new();
        let (mut root, mut rows, _) =
            self.build_recipe(&mut plan, query, &recipe, &leaf_est, knobs, &model);

        // Aggregation.
        if query.has_aggregation() {
            let gather = query.group_by.is_empty();
            let exchange = if gather {
                Operator::exchange(ExchangeKind::Gather, vec![])
            } else {
                Operator::exchange(ExchangeKind::HashPartition, query.group_by.clone())
            };
            root = plan.unary(exchange, root);
            let groups_est = if gather { 1.0 } else { (rows * 0.1).max(1.0) };
            let algo = self.choose_agg_algo(rows, groups_est, query, knobs);
            root = plan.unary(
                Operator::Aggregate {
                    algo,
                    funcs: query.aggs.iter().map(|(f, _)| *f).collect(),
                    agg_columns: query.aggs.iter().map(|(_, c)| *c).collect(),
                    group_by: query.group_by.clone(),
                },
                root,
            );
            rows = groups_est;
        }

        // Limit.
        if let Some(n) = query.limit {
            root = plan.unary(Operator::Limit { n }, root);
            rows = rows.min(n as f64);
        }
        let _ = rows;

        // Gather the result and sink it.
        root = plan.unary(Operator::exchange(ExchangeKind::Gather, vec![]), root);
        root = plan.unary(Operator::Sink, root);
        plan.set_root(root);
        debug_assert!(plan.validate().is_ok());
        plan
    }

    /// Dynamic-programming join ordering over connected subsets, minimizing
    /// the sum of estimated intermediate result sizes.
    fn join_order(&self, query: &QuerySpec, leaf_est: &[f64], model: &CoarseCostModel) -> Recipe {
        let n = query.tables.len();
        if n == 1 {
            return Recipe::Leaf(0);
        }
        assert!(n <= 16, "join DP supports up to 16 tables");
        let full: u32 = (1u32 << n) - 1;

        #[derive(Clone)]
        struct Entry {
            rows: f64,
            cost: f64,
            split: Option<(u32, u32, usize)>,
        }
        let mut best: Vec<Option<Entry>> = vec![None; (full + 1) as usize];
        for (i, &est) in leaf_est.iter().enumerate() {
            best[1 << i] = Some(Entry {
                rows: est,
                cost: 0.0,
                split: None,
            });
        }

        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // Enumerate proper submasks.
            let mut sub = (mask - 1) & mask;
            while sub != 0 {
                let other = mask & !sub;
                if sub < other {
                    // each unordered split visited once
                    sub = (sub - 1) & mask;
                    continue;
                }
                if let (Some(l), Some(r)) =
                    (best[sub as usize].clone(), best[other as usize].clone())
                {
                    // Find an edge connecting the two sides.
                    for (ei, e) in query.joins.iter().enumerate() {
                        let lm = 1u32 << e.left;
                        let rm = 1u32 << e.right;
                        let connects = (sub & lm != 0 && other & rm != 0)
                            || (sub & rm != 0 && other & lm != 0);
                        if !connects {
                            continue;
                        }
                        let rows =
                            model.join_output(e.kind, l.rows, r.rows, mask.count_ones() as usize);
                        let cost = l.cost + r.cost + rows;
                        let better = best[mask as usize]
                            .as_ref()
                            .map(|b| cost < b.cost)
                            .unwrap_or(true);
                        if better {
                            best[mask as usize] = Some(Entry {
                                rows,
                                cost,
                                split: Some((sub, other, ei)),
                            });
                        }
                    }
                }
                sub = (sub - 1) & mask;
            }
        }

        fn extract(best: &[Option<Entry>], mask: u32) -> Recipe {
            let e = best[mask as usize]
                .as_ref()
                .expect("join graph must be connected");
            match e.split {
                None => Recipe::Leaf(mask.trailing_zeros() as usize),
                Some((l, r, edge)) => Recipe::Join {
                    left: Box::new(extract(best, l)),
                    right: Box::new(extract(best, r)),
                    edge,
                },
            }
        }
        extract(&best, full)
    }

    /// Recursively materializes a recipe into plan nodes.
    ///
    /// Returns `(node, estimated_rows, is_bare_scan)`.
    fn build_recipe(
        &self,
        plan: &mut PlanTree,
        query: &QuerySpec,
        recipe: &Recipe,
        leaf_est: &[f64],
        knobs: &Knobs,
        model: &CoarseCostModel,
    ) -> (NodeId, f64, bool) {
        match recipe {
            Recipe::Leaf(i) => {
                let node = self.build_scan(plan, query, *i, knobs);
                (node, leaf_est[*i], true)
            }
            Recipe::Join { left, right, edge } => {
                let (ln, lrows, lbare) =
                    self.build_recipe(plan, query, left, leaf_est, knobs, model);
                let (rn, rrows, rbare) =
                    self.build_recipe(plan, query, right, leaf_est, knobs, model);
                let e = &query.joins[*edge];

                // Which side holds the edge's left table?
                let left_tables = collect_tables(left);
                let left_has_edge_left = left_tables.contains(&e.left);
                let (lkey, rkey) = if left_has_edge_left {
                    (e.left_col, e.right_col)
                } else {
                    (e.right_col, e.left_col)
                };
                let kind = orient_kind(e.kind, left_has_edge_left);

                // Probe = larger estimated side goes left.
                let (
                    probe,
                    probe_rows,
                    probe_key,
                    probe_bare,
                    build,
                    build_rows,
                    build_key,
                    build_bare,
                    kind,
                ) = if lrows >= rrows {
                    (ln, lrows, lkey, lbare, rn, rrows, rkey, rbare, kind)
                } else {
                    (
                        rn,
                        rrows,
                        rkey,
                        rbare,
                        ln,
                        lrows,
                        lkey,
                        lbare,
                        flip_kind(kind),
                    )
                };

                let algo = self.choose_join_algo(probe_rows, build_rows, knobs);
                mcsim_obs::counter(
                    match algo {
                        JoinAlgo::Broadcast => "optimizer.join_algo.broadcast",
                        JoinAlgo::Merge => "optimizer.join_algo.merge",
                        _ => "optimizer.join_algo.hash",
                    },
                    1,
                );

                // Exchange insertion.
                let (probe_in, build_in) = match algo {
                    JoinAlgo::Broadcast => {
                        let b =
                            plan.unary(Operator::exchange(ExchangeKind::Broadcast, vec![]), build);
                        (probe, b)
                    }
                    JoinAlgo::Merge => {
                        let p = plan.unary(
                            Operator::exchange(ExchangeKind::RangePartition, vec![probe_key]),
                            probe,
                        );
                        let b = plan.unary(
                            Operator::exchange(ExchangeKind::RangePartition, vec![build_key]),
                            build,
                        );
                        (p, b)
                    }
                    _ => {
                        let p = if knobs.flags.aggressive_shuffle_removal && probe_bare {
                            mcsim_obs::counter("optimizer.rule.shuffle_removed", 1);
                            probe // gamble: read in place, may be skewed
                        } else {
                            plan.unary(
                                Operator::exchange(ExchangeKind::HashPartition, vec![probe_key]),
                                probe,
                            )
                        };
                        let b = if knobs.flags.aggressive_shuffle_removal && build_bare {
                            mcsim_obs::counter("optimizer.rule.shuffle_removed", 1);
                            build
                        } else {
                            plan.unary(
                                Operator::exchange(ExchangeKind::HashPartition, vec![build_key]),
                                build,
                            )
                        };
                        (p, b)
                    }
                };

                // Spool the build side when requested (the default
                // configuration spools only huge builds).
                let build_est = probe_rows.min(build_rows);
                let spool_wanted =
                    knobs.flags.enable_spool_reuse || build_est > SPOOL_DEFAULT_THRESHOLD;
                let build_in = if spool_wanted && algo != JoinAlgo::Broadcast {
                    mcsim_obs::counter("optimizer.rule.spool_inserted", 1);
                    plan.unary(
                        Operator::Spool {
                            shared_id: *edge as u32,
                        },
                        build_in,
                    )
                } else {
                    build_in
                };

                let node = plan.binary(
                    Operator::join(kind, algo, vec![probe_key], vec![build_key]),
                    probe_in,
                    build_in,
                );
                let out = model.join_output(
                    e.kind,
                    probe_rows,
                    build_rows,
                    left_tables.len() + collect_tables(right).len(),
                );
                (node, out, false)
            }
        }
    }

    fn build_scan(
        &self,
        plan: &mut PlanTree,
        query: &QuerySpec,
        i: usize,
        knobs: &Knobs,
    ) -> NodeId {
        let tref = &query.tables[i];
        let meta = self.catalog.table(tref.table);
        let parts_total = meta.map(|m| m.partitions).unwrap_or(1);
        if knobs.flags.filter_pushdown && !tref.predicate.is_true() {
            // Partition pruning from partition-level metadata (min/max per
            // partition is available even without histograms): the fraction
            // of partitions that can contain matches shrinks sub-linearly
            // with true selectivity.
            mcsim_obs::counter("optimizer.rule.filter_pushdown", 1);
            let true_sel = CardinalityModel::new(self.catalog).selectivity(&tref.predicate);
            let accessed =
                ((parts_total as f64 * true_sel.powf(0.7)).ceil() as u32).clamp(1, parts_total);
            plan.leaf(Operator::TableScan {
                table: tref.table,
                partitions_accessed: accessed,
                partitions_total: parts_total,
                columns: tref.columns.clone(),
                predicate: tref.predicate.clone(),
            })
        } else {
            let scan = plan.leaf(Operator::table_scan(
                tref.table,
                parts_total,
                parts_total,
                tref.columns.clone(),
            ));
            if tref.predicate.is_true() {
                scan
            } else {
                plan.unary(
                    Operator::Calc {
                        predicate: tref.predicate.clone(),
                        columns: tref.columns.clone(),
                    },
                    scan,
                )
            }
        }
    }

    /// Cost-based physical join selection under the flag gates.
    fn choose_join_algo(&self, probe_rows: f64, build_rows: f64, knobs: &Knobs) -> JoinAlgo {
        let card = |r: f64| NodeCard {
            input_rows: r,
            output_rows: r,
            width: 2.0,
        };
        let out = card(probe_rows.max(build_rows));
        let children = [card(probe_rows), card(build_rows)];
        let ctx = WorkContext::default();
        let w = |algo: JoinAlgo| {
            operator_work(
                &Operator::join(JoinKind::Inner, algo, vec![0], vec![0]),
                &out,
                &children,
                ctx,
                &self.params,
            )
        };
        if knobs.flags.prefer_merge_join {
            return JoinAlgo::Merge;
        }
        let mut best = (JoinAlgo::Hash, w(JoinAlgo::Hash));
        {
            let mw = w(JoinAlgo::Merge);
            if mw < best.1 {
                best = (JoinAlgo::Merge, mw);
            }
        }
        let bc_threshold = if knobs.flags.enable_broadcast_join {
            BROADCAST_THRESHOLD
        } else {
            BROADCAST_DEFAULT_THRESHOLD
        };
        if build_rows < bc_threshold {
            // Broadcast also avoids shuffling the probe side; credit that.
            let shuffle_saving = probe_rows * 0.07;
            let bw = w(JoinAlgo::Broadcast) - shuffle_saving;
            if bw < best.1 {
                best = (JoinAlgo::Broadcast, bw);
            }
        }
        best.0
    }

    fn choose_agg_algo(
        &self,
        input_rows: f64,
        groups: f64,
        query: &QuerySpec,
        knobs: &Knobs,
    ) -> AggAlgo {
        if knobs.flags.prefer_sort_aggregate {
            return AggAlgo::Sort;
        }
        let card_in = NodeCard {
            input_rows,
            output_rows: input_rows,
            width: 2.0,
        };
        let card_out = NodeCard {
            input_rows,
            output_rows: groups,
            width: 2.0,
        };
        let mk = |algo: AggAlgo| Operator::Aggregate {
            algo,
            funcs: query.aggs.iter().map(|(f, _)| *f).collect(),
            agg_columns: query.aggs.iter().map(|(_, c)| *c).collect(),
            group_by: query.group_by.clone(),
        };
        let hash = operator_work(
            &mk(AggAlgo::Hash),
            &card_out,
            &[card_in],
            WorkContext::default(),
            &self.params,
        );
        let sort = operator_work(
            &mk(AggAlgo::Sort),
            &card_out,
            &[card_in],
            WorkContext::default(),
            &self.params,
        );
        if sort < hash {
            AggAlgo::Sort
        } else {
            AggAlgo::Hash
        }
    }
}

fn collect_tables(r: &Recipe) -> Vec<usize> {
    match r {
        Recipe::Leaf(i) => vec![*i],
        Recipe::Join { left, right, .. } => {
            let mut v = collect_tables(left);
            v.extend(collect_tables(right));
            v
        }
    }
}

/// Adjusts an edge's join kind to the plan's (left, right) orientation.
fn orient_kind(kind: JoinKind, left_has_edge_left: bool) -> JoinKind {
    if left_has_edge_left {
        kind
    } else {
        flip_kind(kind)
    }
}

fn flip_kind(kind: JoinKind) -> JoinKind {
    match kind {
        JoinKind::LeftOuter => JoinKind::RightOuter,
        JoinKind::RightOuter => JoinKind::LeftOuter,
        other => other,
    }
}

/// Convenience: columns a side of a join exposes (used in tests).
#[doc(hidden)]
pub fn _join_keys(op: &Operator) -> Option<(Vec<ColumnId>, Vec<ColumnId>)> {
    if let Operator::Join {
        left_keys,
        right_keys,
        ..
    } = op
    {
        Some((left_keys.clone(), right_keys.clone()))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flags::OptimizerFlags;
    use mcsim_catalog::{ProjectId, ProjectProfile};
    use mcsim_plan::PlanSignature;

    fn project() -> mcsim_catalog::Project {
        let mut prof = ProjectProfile::evaluation_project(1).unwrap();
        prof.n_tables = 30;
        prof.n_temp_tables = 4;
        prof.n_columns = 240;
        prof.n_templates = 20;
        prof.n_query_day0 = 30.0;
        prof.generate(ProjectId(1))
    }

    #[test]
    fn default_plans_are_valid_for_a_whole_day() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        for q in p.workload_for_day(0) {
            let plan = opt.optimize(&q, &Knobs::default());
            assert!(plan.validate().is_ok(), "invalid plan for query {}", q.id);
            // Every plan ends in Gather + Sink.
            assert!(matches!(plan.op(plan.root()), Operator::Sink));
        }
    }

    #[test]
    fn all_flag_toggles_produce_valid_plans() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let queries = p.workload_for_day(1);
        for q in queries.iter().take(10) {
            for i in 0..OptimizerFlags::COUNT {
                let knobs = Knobs {
                    flags: OptimizerFlags::default().toggled(i),
                    card_scale: 1.0,
                };
                let plan = opt.optimize(q, &knobs);
                assert!(plan.validate().is_ok(), "flag {i} broke query {}", q.id);
            }
        }
    }

    #[test]
    fn some_flags_change_plans() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let queries = p.workload_for_day(2);
        let mut changed = 0;
        for q in queries.iter().take(30) {
            let default = PlanSignature::of(&opt.optimize(q, &Knobs::default()));
            for i in 0..OptimizerFlags::COUNT {
                let knobs = Knobs {
                    flags: OptimizerFlags::default().toggled(i),
                    card_scale: 1.0,
                };
                if PlanSignature::of(&opt.optimize(q, &knobs)) != default {
                    changed += 1;
                }
            }
        }
        assert!(changed > 10, "flags should steer plans, changed={changed}");
    }

    #[test]
    fn card_scaling_changes_join_orders_sometimes() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let queries: Vec<_> = p
            .workload_for_days(0, 5)
            .into_iter()
            .filter(|q| q.table_count() >= 3)
            .collect();
        let mut changed = 0;
        for q in queries.iter().take(50) {
            let a = PlanSignature::of(&opt.optimize(q, &Knobs::default()));
            let b = PlanSignature::of(&opt.optimize(
                q,
                &Knobs {
                    flags: OptimizerFlags::default(),
                    card_scale: 20.0,
                },
            ));
            if a != b {
                changed += 1;
            }
        }
        assert!(changed > 0, "cardinality scaling should steer some plans");
    }

    #[test]
    fn pushdown_prunes_partitions() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        // Find a query with a filtered multi-partition table.
        let q = p
            .workload_for_days(0, 5)
            .into_iter()
            .find(|q| {
                q.tables.iter().any(|t| {
                    !t.predicate.is_true()
                        && p.catalog
                            .table(t.table)
                            .map(|m| m.partitions > 4)
                            .unwrap_or(false)
                })
            })
            .expect("should find a filtered query");
        let with = opt.optimize(&q, &Knobs::default());
        let without = opt.optimize(
            &q,
            &Knobs {
                flags: OptimizerFlags {
                    filter_pushdown: false,
                    ..OptimizerFlags::default()
                },
                card_scale: 1.0,
            },
        );
        let pruned = |plan: &PlanTree| {
            plan.iter()
                .filter_map(|(_, n)| match &n.op {
                    Operator::TableScan {
                        partitions_accessed,
                        partitions_total,
                        ..
                    } => Some(*partitions_accessed < *partitions_total),
                    _ => None,
                })
                .any(|b| b)
        };
        assert!(pruned(&with));
        assert!(!pruned(&without));
    }

    #[test]
    fn spool_flag_inserts_spools() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = p
            .workload_for_day(0)
            .into_iter()
            .find(|q| q.table_count() >= 2)
            .unwrap();
        let knobs = Knobs {
            flags: OptimizerFlags {
                enable_spool_reuse: true,
                ..OptimizerFlags::default()
            },
            card_scale: 1.0,
        };
        let plan = opt.optimize(&q, &knobs);
        assert!(plan.count_ops(|o| matches!(o, Operator::Spool { .. })) > 0);
        let default = opt.optimize(&q, &Knobs::default());
        assert_eq!(
            default.count_ops(|o| matches!(o, Operator::Spool { .. })),
            0
        );
    }

    #[test]
    fn shuffle_removal_drops_exchanges() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        let q = p
            .workload_for_day(0)
            .into_iter()
            .find(|q| q.table_count() >= 2)
            .unwrap();
        let default = opt.optimize(&q, &Knobs::default());
        let removed = opt.optimize(
            &q,
            &Knobs {
                flags: OptimizerFlags {
                    aggressive_shuffle_removal: true,
                    ..OptimizerFlags::default()
                },
                card_scale: 1.0,
            },
        );
        let n_ex = |p: &PlanTree| p.count_ops(|o| matches!(o, Operator::Exchange { .. }));
        assert!(n_ex(&removed) < n_ex(&default));
    }

    #[test]
    fn join_keys_belong_to_their_side() {
        let p = project();
        let opt = NativeOptimizer::new(&p.catalog);
        for q in p.workload_for_day(3).iter().take(20) {
            let plan = opt.optimize(q, &Knobs::default());
            for (id, n) in plan.iter() {
                if let Operator::Join {
                    left_keys,
                    right_keys,
                    ..
                } = &n.op
                {
                    // Collect base tables under each child.
                    let side_tables = |start: NodeId| {
                        let mut tables = Vec::new();
                        let mut stack = vec![start];
                        while let Some(s) = stack.pop() {
                            let node = plan.node(s);
                            if let Operator::TableScan { table, .. } = &node.op {
                                tables.push(*table);
                            }
                            stack.extend(node.children());
                        }
                        tables
                    };
                    let lt = side_tables(plan.node(id).left.unwrap());
                    let rt = side_tables(plan.node(id).right.unwrap());
                    for &k in left_keys {
                        let owner = p.catalog.column(k).unwrap().table;
                        assert!(lt.contains(&owner), "left key {k} not under left side");
                    }
                    for &k in right_keys {
                        let owner = p.catalog.column(k).unwrap().table;
                        assert!(rt.contains(&owner), "right key {k} not under right side");
                    }
                }
            }
        }
    }
}
