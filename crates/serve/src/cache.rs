//! Plan-signature → decision cache.
//!
//! Warehouse traffic is dominated by recurring templates (the same insight
//! behind QO-Advisor's per-job steering table): once the predictor has
//! scored a candidate set and the margin guard has picked a plan, the next
//! arrival of the same template under the same environment can skip
//! featurization, inference, and the guard entirely.
//!
//! Keys are 64-bit digests of the *candidate set* — every candidate's
//! [`PlanSignature`](mcsim_plan::PlanSignature), the default index, and
//! the environment fingerprint folded together — so any change to the
//! explored plans or the serving environment changes the key. Entries are
//! stamped with the model version current at insert time; bumping the
//! version ([`DecisionCache::bump_model_version`], called when a retrained
//! model is swapped in) invalidates every older entry without a scan.
//!
//! Only `ServeSession::run`'s select phase touches the cache, on the
//! calling thread, so one lock suffices.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A cached guarded-selection outcome for one candidate set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedDecision {
    /// Index of the chosen candidate.
    pub choice: usize,
    /// Predicted cost of the chosen candidate.
    pub predicted: f64,
    /// True when the predictor degraded (non-finite score) and the default
    /// plan was served.
    pub degraded: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    decision: CachedDecision,
    version: u64,
}

/// Versioned decision cache.
#[derive(Debug, Default)]
pub struct DecisionCache {
    map: Mutex<HashMap<u64, Entry>>,
    version: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DecisionCache {
    /// An empty cache at model version 0.
    pub fn new() -> DecisionCache {
        DecisionCache::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Entry>> {
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current model version.
    pub fn model_version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Invalidates every cached decision by advancing the model version;
    /// returns the new version. Call when a retrained model is swapped in —
    /// stale entries are dropped lazily on their next lookup.
    pub fn bump_model_version(&self) -> u64 {
        self.version.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Looks up a candidate-set digest. Entries from an older model
    /// version count as misses and are evicted.
    pub fn get(&self, key: u64) -> Option<CachedDecision> {
        let version = self.model_version();
        let mut map = self.map();
        match map.get(&key) {
            Some(e) if e.version == version => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                mcsim_obs::counter("loam.serve.decision_cache_hits", 1);
                Some(e.decision)
            }
            stale => {
                if stale.is_some() {
                    map.remove(&key);
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                mcsim_obs::counter("loam.serve.decision_cache_misses", 1);
                None
            }
        }
    }

    /// Stores a decision under the current model version.
    pub fn insert(&self, key: u64, decision: CachedDecision) {
        let version = self.model_version();
        self.map().insert(key, Entry { decision, version });
    }

    /// Cumulative hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative misses (including stale-version evictions).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
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

    /// Number of stored entries (live and stale).
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        self.map().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(choice: usize) -> CachedDecision {
        CachedDecision {
            choice,
            predicted: 42.0,
            degraded: false,
        }
    }

    #[test]
    fn insert_then_hit() {
        let c = DecisionCache::new();
        assert!(c.get(1).is_none());
        c.insert(1, d(2));
        assert_eq!(c.get(1).unwrap().choice, 2);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn model_version_bump_invalidates_everything() {
        let c = DecisionCache::new();
        for k in 0..32 {
            c.insert(k, d(k as usize));
        }
        assert!(c.get(7).is_some());
        assert_eq!(c.bump_model_version(), 1);
        for k in 0..32 {
            assert!(c.get(k).is_none(), "entry {k} must be stale after bump");
        }
        // Stale entries were evicted on lookup.
        assert!(c.is_empty());
        // Re-inserting under the new version works.
        c.insert(7, d(9));
        assert_eq!(c.get(7).unwrap().choice, 9);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let c = DecisionCache::new();
        for k in 0..128u64 {
            c.insert(k, d(k as usize));
        }
        assert_eq!(c.len(), 128);
        for k in 0..128u64 {
            assert_eq!(c.get(k).unwrap().choice, k as usize);
        }
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 128, "clear must not reset counters");
    }
}
