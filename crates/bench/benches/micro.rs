//! Criterion micro-benchmarks for the hot paths of the reproduction:
//! plan featurization (hash encoding included), TCN inference, native
//! optimization with join-order DP, simulated execution, the load model's
//! lane kernel (allocator ranking, stage-window reads), candidate
//! exploration, GBDT prediction, the parallel compute layer (serial vs.
//! pool matmul, dense vs. sparse inputs, cached vs. uncached featurization),
//! and the training hot path (fused vs. unfused linear+ReLU, workspace-reuse
//! vs. allocating MLP train step, one encoder forward plus backward).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use loam_core::explorer::PlanExplorer;
use loam_core::featurize::{EnvSource, FeatureCache, PlanFeaturizer};
use loam_core::selector::ranker_features;
use loam_core::AdaptiveCostPredictor;
use mcsim_catalog::{EnvMetrics, Project, ProjectId, ProjectProfile};
use mcsim_exec::{Cluster, ClusterConfig, Executor};
use mcsim_optimizer::{Knobs, NativeOptimizer};
use tinynn::Mat;

fn bench_project() -> Project {
    let mut prof = ProjectProfile::evaluation_project(1).expect("project 1");
    prof.n_tables = 40;
    prof.n_temp_tables = 4;
    prof.n_columns = 300;
    prof.n_templates = 20;
    prof.generate(ProjectId(1))
}

fn benches(c: &mut Criterion) {
    let project = bench_project();
    let optimizer = NativeOptimizer::new(&project.catalog);
    let queries = project.workload_for_day(0);
    let query = queries
        .iter()
        .find(|q| q.table_count() >= 3)
        .unwrap_or(&queries[0]);
    let plan = optimizer.optimize(query, &Knobs::default());
    let env = EnvMetrics::new(0.5, 0.04, 8.0, 0.55);

    c.bench_function("optimize_default_plan", |b| {
        b.iter(|| optimizer.optimize(black_box(query), &Knobs::default()))
    });

    let explorer = PlanExplorer::default();
    c.bench_function("explore_candidate_set", |b| {
        b.iter(|| explorer.explore(&optimizer, black_box(query)))
    });

    let featurizer = PlanFeaturizer::default();
    c.bench_function("featurize_plan", |b| {
        b.iter(|| featurizer.featurize(black_box(&plan), EnvSource::Uniform(env)))
    });

    let predictor = AdaptiveCostPredictor::new(1, true);
    c.bench_function("tcn_predict_cost", |b| {
        b.iter(|| predictor.predict(black_box(&plan), EnvSource::Uniform(env)))
    });

    let mut executor = Executor::new(1, Cluster::new(1, ClusterConfig::default()), 0.2);
    executor.cluster.advance(50);
    c.bench_function("simulated_execution", |b| {
        b.iter(|| executor.execute(black_box(&plan), &project.catalog))
    });

    // The load model's lane kernel through the cluster's public API: an
    // allocation of 3 machines ranks 12 candidates (4× oversampling), and
    // one stage-window read measures 13 machines over 4 ticks.
    // Each iteration steps the clock, so occupancy slots expire as they do
    // in a run and the ranked chains stay full-length.
    let mut cluster = Cluster::new(1, ClusterConfig::default());
    cluster.advance(50);
    c.bench_function("allocate_rank", |b| {
        b.iter(|| {
            cluster.step();
            cluster.allocate(black_box(3), 0.06)
        })
    });
    let machines = cluster.allocate(13, 0.06);
    c.bench_function("stage_window_read", |b| {
        b.iter(|| cluster.window_env(black_box(&machines), 3))
    });

    c.bench_function("intrinsic_cost", |b| {
        b.iter(|| executor.intrinsic_cost(black_box(&plan), &project.catalog))
    });

    c.bench_function("ranker_featurize", |b| {
        b.iter(|| ranker_features(black_box(&plan), &project.catalog, 1234.5))
    });

    // GBDT training and prediction on a small synthetic regression task.
    let x: Vec<Vec<f64>> = (0..300)
        .map(|i| vec![(i % 17) as f64, (i % 5) as f64, i as f64 / 300.0])
        .collect();
    let y: Vec<f64> = x.iter().map(|r| r[0] * 2.0 + r[1] - r[2]).collect();
    c.bench_function("gbdt_fit_300x3", |b| {
        b.iter(|| {
            tinygbdt::Gbdt::fit(
                black_box(&x),
                black_box(&y),
                tinygbdt::GbdtConfig {
                    n_trees: 20,
                    ..tinygbdt::GbdtConfig::default()
                },
                7,
            )
        })
    });
    let model = tinygbdt::Gbdt::fit(&x, &y, tinygbdt::GbdtConfig::default(), 7);
    c.bench_function("gbdt_predict", |b| {
        b.iter(|| model.predict(black_box(&x[7])))
    });

    // Serial vs. pool matmul: same blocked kernel, dispatched on one thread
    // or row-partitioned across the pool (work gate forced open so even the
    // 64×64 case takes the parallel path).
    for size in [64usize, 256, 1024] {
        let a = Mat::from_fn(size, size, |i, j| {
            ((i * 31 + j * 7) % 13) as f32 / 13.0 - 0.4
        });
        let m = Mat::from_fn(size, size, |i, j| {
            ((i * 17 + j * 3) % 11) as f32 / 11.0 - 0.5
        });
        c.bench_function(&format!("matmul_serial_{size}"), |bch| {
            let prev = mcsim_par::set_threads(1);
            bch.iter(|| black_box(&a).matmul(black_box(&m)));
            mcsim_par::set_threads(prev);
        });
        c.bench_function(&format!("matmul_parallel_{size}"), |bch| {
            let prev_t = mcsim_par::set_threads(mcsim_par::default_threads());
            let prev_w = mcsim_par::set_min_parallel_work(1);
            bch.iter(|| black_box(&a).matmul(black_box(&m)));
            mcsim_par::set_threads(prev_t);
            mcsim_par::set_min_parallel_work(prev_w);
        });
    }

    // Dense-vs-sparse regression guard: the branchless kernels must cost the
    // same whether the operand is dense or mostly zeros (the old `a == 0.0`
    // zero-skip made sparse inputs look artificially fast and dense inputs
    // pay a branch per element).
    let a256 = Mat::from_fn(256, 256, |i, j| ((i * 31 + j * 7) % 13) as f32 / 13.0 - 0.4);
    let dense = Mat::from_fn(256, 256, |i, j| ((i * 5 + j) % 9) as f32 / 9.0 + 0.1);
    let sparse = Mat::from_fn(256, 256, |i, j| if (i + j) % 8 == 0 { 0.7 } else { 0.0 });
    c.bench_function("matmul_dense_256", |b| {
        b.iter(|| black_box(&a256).matmul(black_box(&dense)))
    });
    c.bench_function("matmul_sparse_256", |b| {
        b.iter(|| black_box(&a256).matmul(black_box(&sparse)))
    });

    // Cached vs. uncached featurization of the same plan.
    c.bench_function("featurize_uncached", |b| {
        b.iter(|| featurizer.featurize(black_box(&plan), EnvSource::Uniform(env)))
    });
    let cache = FeatureCache::new();
    c.bench_function("featurize_cached", |b| {
        b.iter(|| cache.featurize(&featurizer, black_box(&plan), EnvSource::Uniform(env)))
    });

    // Fused vs. unfused linear+ReLU forward: one fused output pass
    // (matmul+bias+ReLU) against the three-pass sequence over the same
    // reused buffer, so the difference is purely the fusion.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    let lin = tinynn::Linear::new(128, 128, &mut rng);
    let lx = Mat::from_fn(64, 128, |i, j| ((i * 13 + j * 5) % 23) as f32 / 23.0 - 0.5);
    let mut ly = Mat::default();
    c.bench_function("linear_relu_fused_64x128", |b| {
        b.iter(|| lin.forward_relu_into(black_box(&lx), &mut ly))
    });
    c.bench_function("linear_relu_unfused_64x128", |b| {
        b.iter(|| {
            black_box(&lx).matmul_nt_into(&lin.w.value, &mut ly);
            ly.add_row_broadcast(&lin.b.value.data);
            for v in &mut ly.data {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        })
    });

    // Workspace-reuse vs. allocating MLP train step (forward + MSE +
    // backward): the ws leg keeps its activation buffers, gradient set, and
    // scratch arena alive across iterations and allocates nothing once warm.
    let mut mlp = tinynn::Mlp::new(&[32, 16, 1], &mut rng);
    let mx = Mat::from_fn(16, 32, |i, j| ((i * 7 + j * 3) % 19) as f32 / 19.0 - 0.5);
    let target = Mat::from_fn(16, 1, |i, _| (i % 4) as f32 / 4.0);
    c.bench_function("mlp_step_allocating", |b| {
        b.iter(|| {
            let (y, mlp_cache) = mlp.forward(black_box(&mx));
            let (loss, grad) = tinynn::mse(&y, &target);
            mlp.zero_grad();
            mlp.backward(&mlp_cache, &grad);
            loss
        })
    });
    let mut ws = tinynn::MlpWs::default();
    let mut grads = tinynn::GradSet::from_shapes(&mlp.grad_shapes());
    let mut grad = Mat::default();
    let mut scratch = tinynn::Workspace::new();
    c.bench_function("mlp_step_workspace", |b| {
        b.iter(|| {
            mlp.forward_ws(black_box(&mx), &mut ws);
            let loss = tinynn::mse_into(ws.out(), &target, &mut grad);
            grads.zero();
            mlp.backward_ws(&mx, &ws, &grad, &mut grads.mats, None, &mut scratch);
            loss
        })
    });

    // One sample of the encoder's training step at training shapes: the
    // plan's CSR index stacked as a forest of one tree, then a warm forward
    // plus backward of an 18-node plan (the mean project_p1 sample) through
    // the predictor's 169 → 128 → 64 encoder. The weights stay fixed, so
    // conv1's transposes are built once and then reused.
    let step_plan = queries
        .iter()
        .find_map(|q| {
            let set = explorer.explore(&optimizer, q);
            set.plans().into_iter().find(|p| p.len() == 18).cloned()
        })
        .expect("an 18-node candidate plan");
    let (step_x, step_tree) = featurizer.featurize(&step_plan, EnvSource::Uniform(env));
    let step_sx = tinynn::SparseRows::from_dense(&step_x);
    let tcn = &predictor.plan_emb;
    let mut tcn_ws = tinynn::ForestWs::default();
    let mut tcn_grads = tinynn::GradSet::from_shapes(&tcn.grad_shapes());
    let gemb = Mat::from_fn(1, tcn.emb_dim(), |_, j| (j % 7) as f32 / 7.0 - 0.4);
    c.bench_function("tcn_train_step", |b| {
        b.iter(|| {
            tcn_ws.stack_sparse([(black_box(&step_sx), &step_tree)]);
            tcn.forward_forest_ws(&mut tcn_ws);
            tcn_grads.zero();
            tcn.backward_ws_sparse(&tcn_ws, &gemb, &mut tcn_grads.mats, &mut scratch);
        })
    });
    // The backward half of the same step on its own, over the activations
    // the last forward left in the workspace.
    c.bench_function("tcn_backward_sparse", |b| {
        b.iter(|| {
            tcn_grads.zero();
            tcn.backward_ws_sparse(black_box(&tcn_ws), &gemb, &mut tcn_grads.mats, &mut scratch);
        })
    });

    // Single-plan vs. batched forest scoring of the same candidate set: the
    // per-plan loop pays one full forward (and its featurization) per plan,
    // the batched leg stacks every tree into one forest forward through a
    // warm workspace + feature cache — the inference hot path's win.
    let candidates = explorer.explore(&optimizer, query);
    let cand_refs: Vec<&mcsim_plan::PlanTree> = candidates.plans();
    let mut infer_ws = loam_core::predictor::InferWs::new();
    let feat_cache = FeatureCache::new();
    let mut costs = Vec::new();
    c.bench_function("score_candidates_single", |b| {
        b.iter(|| {
            cand_refs
                .iter()
                .map(|p| predictor.predict(black_box(p), EnvSource::Uniform(env)))
                .sum::<f64>()
        })
    });
    c.bench_function("score_candidates_batched", |b| {
        b.iter(|| {
            predictor.predict_batch_into(
                black_box(&cand_refs),
                EnvSource::Uniform(env),
                Some(&feat_cache),
                &mut infer_ws,
                &mut costs,
            );
            costs.iter().sum::<f64>()
        })
    });

    // `a @ bᵀ`: one four-lane `dot` per output element, the same kernel in
    // both kernel modes.
    let ka = Mat::from_fn(128, 199, |i, j| {
        ((i * 29 + j * 13) % 17) as f32 / 17.0 - 0.4
    });
    let kb = Mat::from_fn(128, 199, |i, j| {
        ((i * 11 + j * 19) % 23) as f32 / 23.0 - 0.5
    });
    c.bench_function("matmul_nt", |b| {
        b.iter(|| black_box(&ka).matmul_nt(black_box(&kb)))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(micro);
