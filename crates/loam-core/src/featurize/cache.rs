//! A feature cache keyed by plan identity.
//!
//! Featurization is deterministic: the same plan under the same environment
//! always produces the same `(Mat, TreeStructure)` pair. Training revisits
//! each plan every epoch and inference strategies re-score the same
//! candidate plans across queries, so the cache turns repeat featurization
//! into an `Arc` clone.
//!
//! An entry stores the feature matrix as its CSR index ([`SparseRows`],
//! built once per miss), not as the dense matrix: feature rows are ~90%
//! zeros, the first tree convolution consumes exactly that index, and a
//! scoring batch appends the cached indexes of its plans
//! (`tinynn::ForestWs::stack_sparse`) instead of copying dense rows and
//! re-indexing them. `entry.0.to_dense()` gives the dense matrix back bit for
//! bit.
//!
//! The key combines the plan's structural [`PlanSignature`] (a hash over
//! the canonical plan serialization, including predicate constants — the
//! same identity the plan explorer dedupes by), the featurizer mode, and a
//! bit-exact fingerprint of the environment source. Entries are shared via
//! `Arc`, so hits cost one hash lookup plus a reference-count bump, and the
//! cache is `Sync` — workers of the parallel featurization paths share one
//! instance.
//!
//! The map is **sharded** by the key hash: under concurrent serving traffic
//! every worker of a batch used to serialize on one global mutex, so lookups
//! of *different* plans contended even though they never touch the same
//! entry. Each shard has its own lock and its own hit/miss counters
//! ([`FeatureCache::shard_stats`]); the process-wide
//! `loam.featurize.cache_hits` / `loam.featurize.cache_misses` counters are
//! unchanged.
//!
//! A miss is counted only by the lookup whose insert fills the entry, so
//! [`FeatureCache::misses`] equals the number of distinct plans cached
//! (absent [`FeatureCache::clear`]) whatever the thread timing: when two
//! threads miss on the same key at once, both featurize, the first insert
//! wins, and the other lookup counts as a hit.

use super::plan_vec::{EnvSource, PlanFeaturizer};
use mcsim_plan::{PlanSignature, PlanTree};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tinynn::tcn::TreeStructure;
use tinynn::SparseRows;

/// A cached featurization: the CSR index of the node-feature matrix plus
/// the tree structure.
pub type CachedFeatures = Arc<(SparseRows, TreeStructure)>;

/// Shard count: enough that a dozen concurrent workers rarely collide,
/// small enough that an idle cache stays cheap. A power of two, so the
/// shard index is a mask.
pub const CACHE_SHARDS: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    plan: PlanSignature,
    use_env: bool,
    env: u64,
}

impl CacheKey {
    fn new(featurizer: &PlanFeaturizer, plan: &PlanTree, env: &EnvSource<'_>) -> CacheKey {
        CacheKey {
            plan: PlanSignature::of(plan),
            use_env: featurizer.use_env,
            env: env_fingerprint(env),
        }
    }

    /// The shard a key lands in: an FNV-style remix of the plan signature
    /// with the environment fingerprint, so plans that differ only in their
    /// environment block still spread across shards.
    fn shard(&self) -> usize {
        let mut h = self.plan.0 ^ self.env ^ (self.use_env as u64);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        (h as usize) & (CACHE_SHARDS - 1)
    }
}

#[derive(Debug, Default)]
struct Shard {
    map: Mutex<HashMap<CacheKey, CachedFeatures>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Shard {
    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            mcsim_obs::counter("loam.featurize.cache_hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            mcsim_obs::counter("loam.featurize.cache_misses", 1);
        }
    }
}

/// Identity-keyed, thread-safe, hash-sharded featurization cache.
#[derive(Debug, Default)]
pub struct FeatureCache {
    shards: [Shard; CACHE_SHARDS],
}

impl FeatureCache {
    /// An empty cache with [`CACHE_SHARDS`] shards.
    pub fn new() -> FeatureCache {
        FeatureCache::default()
    }

    /// Featurizes `plan` through the cache: returns the stored features on
    /// a hit, otherwise computes them with `featurizer`, indexes their
    /// nonzeros and stores them. Hit results index exactly the matrix a
    /// fresh featurization returns.
    pub fn featurize(
        &self,
        featurizer: &PlanFeaturizer,
        plan: &PlanTree,
        env: EnvSource<'_>,
    ) -> CachedFeatures {
        let key = CacheKey::new(featurizer, plan, &env);
        if let Some(hit) = self.lookup(&key) {
            return hit;
        }
        // Compute outside the lock so concurrent misses on different plans
        // featurize in parallel.
        let (x, tree) = featurizer.featurize(plan, env);
        let mut rows = SparseRows::from_dense(&x);
        rows.shrink_to_fit();
        self.fill(key, Arc::new((rows, tree)))
    }

    /// The entry under `key`, counted as a hit, if there is one.
    fn lookup(&self, key: &CacheKey) -> Option<CachedFeatures> {
        let shard = &self.shards[key.shard()];
        let map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        let hit = map.get(key).map(Arc::clone);
        if hit.is_some() {
            shard.count(true);
        }
        hit
    }

    /// Stores `features` under `key` after a lookup missed. A concurrent
    /// miss on the same plan may have filled the entry meanwhile (with an
    /// identical value): then that entry is kept and this lookup counts as
    /// a hit. Otherwise this insert fills the entry and counts the miss.
    fn fill(&self, key: CacheKey, features: CachedFeatures) -> CachedFeatures {
        let shard = &self.shards[key.shard()];
        let mut map = shard.map.lock().unwrap_or_else(|e| e.into_inner());
        let (entry, hit) = match map.entry(key) {
            Entry::Occupied(filled) => (Arc::clone(filled.get()), true),
            Entry::Vacant(slot) => (Arc::clone(slot.insert(features)), false),
        };
        shard.count(hit);
        entry
    }

    /// Cumulative `(cache_hits, cache_misses)` of shard `i`.
    pub fn shard_stats(&self, i: usize) -> (u64, u64) {
        let s = &self.shards[i];
        (
            s.hits.load(Ordering::Relaxed),
            s.misses.load(Ordering::Relaxed),
        )
    }

    /// Cumulative hits across all shards.
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Cumulative misses across all shards.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Fraction of lookups that hit, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits(), self.misses());
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Number of cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.map.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries (e.g. when the environment regime changes
    /// wholesale and keys would only accumulate). Hit/miss counters keep
    /// accumulating across clears.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.map.lock().unwrap_or_else(|e| e.into_inner()).clear();
        }
    }
}

/// Bit-exact FNV-1a fingerprint of an environment source. `f64::to_bits`
/// keeps the key exact: environments that differ in any bit get distinct
/// entries, so a hit can never return features for a different environment.
fn env_fingerprint(env: &EnvSource<'_>) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    match env {
        EnvSource::None => mix(0),
        EnvSource::Uniform(m) => {
            mix(1);
            for f in [m.cpu_idle, m.io_wait, m.load5, m.mem_usage] {
                mix(f.to_bits());
            }
        }
        EnvSource::PerStage(envs) => {
            mix(2);
            mix(envs.len() as u64);
            for m in envs.iter() {
                for f in [m.cpu_idle, m.io_wait, m.load5, m.mem_usage] {
                    mix(f.to_bits());
                }
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsim_catalog::EnvMetrics;
    use mcsim_plan::Operator;

    fn chain_plan(len: usize, table: u32) -> PlanTree {
        let mut t = PlanTree::new();
        let mut cur = t.leaf(Operator::table_scan(table, 1, 1, vec![0]));
        for _ in 0..len {
            cur = t.unary(Operator::Limit { n: 10 }, cur);
        }
        let s = t.unary(Operator::Sink, cur);
        t.set_root(s);
        t
    }

    #[test]
    fn hit_equals_fresh_featurization() {
        let cache = FeatureCache::new();
        let f = PlanFeaturizer::default();
        let plan = chain_plan(3, 1);
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        let first = cache.featurize(&f, &plan, EnvSource::Uniform(env));
        let hit = cache.featurize(&f, &plan, EnvSource::Uniform(env));
        let fresh = f.featurize(&plan, EnvSource::Uniform(env));
        assert!(Arc::ptr_eq(&first, &hit), "second call must be a hit");
        assert_eq!(hit.0, SparseRows::from_dense(&fresh.0));
        assert_eq!(hit.0.to_dense(), fresh.0);
        assert_eq!(hit.1, fresh.1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_envs_and_plans_get_distinct_entries() {
        let cache = FeatureCache::new();
        let f = PlanFeaturizer::default();
        let plan = chain_plan(3, 1);
        let e1 = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        let e2 = EnvMetrics::new(0.7, 0.05, 4.0, 0.5);
        let a = cache.featurize(&f, &plan, EnvSource::Uniform(e1));
        let b = cache.featurize(&f, &plan, EnvSource::Uniform(e2));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.0, b.0, "env block must differ");
        cache.featurize(&f, &chain_plan(4, 2), EnvSource::Uniform(e1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn featurizer_mode_is_part_of_the_key() {
        let cache = FeatureCache::new();
        let plan = chain_plan(2, 1);
        let env = EnvMetrics::new(0.6, 0.05, 4.0, 0.5);
        let with_env = cache.featurize(
            &PlanFeaturizer { use_env: true },
            &plan,
            EnvSource::Uniform(env),
        );
        let no_env = cache.featurize(
            &PlanFeaturizer { use_env: false },
            &plan,
            EnvSource::Uniform(env),
        );
        assert_ne!(with_env.0, no_env.0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn clear_empties_the_cache() {
        let cache = FeatureCache::new();
        cache.featurize(
            &PlanFeaturizer::default(),
            &chain_plan(2, 1),
            EnvSource::None,
        );
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    /// Forces the race: two lookups of one plan both miss before either
    /// fills the entry. The first fill counts the miss; the second keeps
    /// the stored entry and counts a hit.
    #[test]
    fn a_miss_that_loses_the_fill_race_counts_as_a_hit() {
        let cache = FeatureCache::new();
        let f = PlanFeaturizer::default();
        let plan = chain_plan(3, 1);
        let key = CacheKey::new(&f, &plan, &EnvSource::None);
        assert!(cache.lookup(&key).is_none());
        assert!(cache.lookup(&key).is_none());
        let computed = || {
            let (x, tree) = f.featurize(&plan, EnvSource::None);
            Arc::new((SparseRows::from_dense(&x), tree))
        };
        let first = cache.fill(key, computed());
        let second = cache.fill(key, computed());
        assert!(Arc::ptr_eq(&first, &second), "the first fill is kept");
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
    }

    /// Concurrent lookups of the same plans: each distinct plan is one miss,
    /// every other lookup a hit, whichever thread wins each race.
    #[test]
    fn concurrent_duplicate_misses_count_once() {
        let cache = FeatureCache::new();
        let f = PlanFeaturizer::default();
        let plans: Vec<PlanTree> = (0..160u32)
            .map(|i| chain_plan(2 + i as usize % 3, i % 7))
            .collect();
        let got = mcsim_par::ThreadPool::new(8)
            .parallel_map(&plans, |p| cache.featurize(&f, p, EnvSource::None));
        assert_eq!(cache.len(), 21);
        assert_eq!(cache.misses(), cache.len() as u64);
        assert_eq!(cache.hits() + cache.misses(), plans.len() as u64);
        for (p, entry) in plans.iter().zip(&got) {
            let hit = cache.featurize(&f, p, EnvSource::None);
            assert!(Arc::ptr_eq(entry, &hit), "every lookup returns the entry");
        }
    }

    #[test]
    fn shard_counters_sum_to_the_totals() {
        let cache = FeatureCache::new();
        let f = PlanFeaturizer::default();
        // 8 distinct plans, each looked up twice: 8 misses + 8 hits.
        for table in 0..8 {
            let plan = chain_plan(2, table);
            cache.featurize(&f, &plan, EnvSource::None);
            cache.featurize(&f, &plan, EnvSource::None);
        }
        assert_eq!(cache.hits(), 8);
        assert_eq!(cache.misses(), 8);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
        let (sh, sm) = (0..CACHE_SHARDS).fold((0, 0), |(h, m), i| {
            let (a, b) = cache.shard_stats(i);
            (h + a, m + b)
        });
        assert_eq!((sh, sm), (8, 8));
        // Distinct plans must not all land in one shard.
        let occupied = (0..CACHE_SHARDS)
            .filter(|&i| cache.shard_stats(i).1 > 0)
            .count();
        assert!(occupied > 1, "8 plans across 16 shards can't all collide");
    }
}
