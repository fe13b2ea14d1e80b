//! Exact memoization of the joint plan search.
//!
//! [`crate::plan::search::optimize`] is a pure function of
//! `(meta, nranks, model)` — the DP consults no clock, no RNG and no global
//! state — so its winner can be cached and replayed **exactly**: a cache hit
//! returns a plan bit-identical to what a fresh search would produce,
//! including every grid, regrid flag and model prediction. That is what
//! makes a serving layer safe to build on top of it: `PlanProvenance` stamps
//! each executed sweep with the plan's name, and a cached plan's stamps (and
//! its executed virtual communication clocks) are indistinguishable from a
//! fresh plan's — asserted by the differential test in this module and by
//! `tests/integration_serving.rs`.
//!
//! The key is `(input shape, core shape, P, model)`. The model component is
//! [`CostModel::cache_key`], not `name()`: a `NetCostModel` folds its rank
//! count and α–β constants in, so two differently-priced searches never
//! alias (see `distinct_models_do_not_alias`).
//!
//! Eviction is LRU over a fixed capacity — a long-running server sees an
//! unbounded variety of shapes, and each cached plan owns tree + grid
//! vectors, so the cache must be bounded just like the TTM workspace pool.

use crate::meta::TuckerMeta;
use crate::plan::cost::CostModel;
use crate::plan::search::{optimize, SearchBudget};
use crate::plan::Plan;
use std::collections::HashMap;

/// Identity of one memoized search: everything [`optimize`] depends on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Input shape `L₁ … L_N`.
    pub input: Vec<usize>,
    /// Core shape `K₁ … K_N`.
    pub core: Vec<usize>,
    /// Rank count `P`.
    pub nranks: usize,
    /// [`CostModel::cache_key`] of the pricing model.
    pub model: String,
}

impl PlanKey {
    /// The key [`PlanCache::plan`] uses for `(meta, nranks, model)`.
    pub(crate) fn new(meta: &TuckerMeta, nranks: usize, model: &dyn CostModel) -> Self {
        PlanKey {
            input: meta.input().dims().to_vec(),
            core: meta.core().dims().to_vec(),
            nranks,
            model: model.cache_key(),
        }
    }
}

/// Hit/miss/eviction counters of a [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that ran a fresh search.
    pub misses: u64,
    /// Entries dropped by the LRU policy.
    pub evictions: u64,
}

impl PlanCacheStats {
    /// `hits / (hits + misses)`; `0.0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Plan,
    last_used: u64,
}

/// A bounded LRU memo of [`optimize`] winners.
pub struct PlanCache {
    capacity: usize,
    map: HashMap<PlanKey, Entry>,
    tick: u64,
    stats: PlanCacheStats,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "a zero-capacity cache cannot serve plans");
        PlanCache {
            capacity,
            map: HashMap::new(),
            tick: 0,
            stats: PlanCacheStats::default(),
        }
    }

    /// The winning plan for `(meta, nranks, model)`: answered from the cache
    /// when the key has been searched before, else a fresh
    /// [`optimize`] with [`SearchBudget::winner_only`] whose winner is
    /// cached (evicting the least-recently-used entry when full).
    ///
    /// Exactness: the search is deterministic, so the returned plan is
    /// identical whether this call hits or misses.
    ///
    /// # Panics
    /// Panics if no valid grid exists (`P > ∏ K_n`).
    pub fn plan(&mut self, meta: &TuckerMeta, nranks: usize, model: &dyn CostModel) -> Plan {
        let key = PlanKey::new(meta, nranks, model);
        self.tick += 1;
        if let Some(e) = self.map.get_mut(&key) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            return e.plan.clone();
        }
        self.stats.misses += 1;
        let plan = optimize(meta, nranks, model, &SearchBudget::winner_only())
            .best()
            .plan
            .clone();
        if self.map.len() >= self.capacity {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("full cache is non-empty");
            self.map.remove(&lru);
            self.stats.evictions += 1;
        }
        self.map.insert(
            key,
            Entry {
                plan: plan.clone(),
                last_used: self.tick,
            },
        );
        plan
    }

    /// The counters accumulated so far.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::cost::{FlopVolumeModel, NetCostModel};
    use crate::plan::Planner;
    use tucker_distsim::NetModel;

    /// Whether `(meta, nranks, model)` is cached (no counter or LRU effect).
    fn cached(cache: &PlanCache, meta: &TuckerMeta, nranks: usize, model: &dyn CostModel) -> bool {
        cache.map.contains_key(&PlanKey::new(meta, nranks, model))
    }

    fn meta_a() -> TuckerMeta {
        TuckerMeta::new([16, 12, 10], [8, 6, 4])
    }

    fn meta_b() -> TuckerMeta {
        TuckerMeta::new([12, 12, 12], [6, 6, 6])
    }

    #[test]
    fn hit_miss_accounting() {
        let mut cache = PlanCache::new(8);
        assert_eq!(cache.stats().hit_rate(), 0.0);
        let p1 = cache.plan(&meta_a(), 8, &FlopVolumeModel);
        assert_eq!(
            cache.stats(),
            PlanCacheStats {
                hits: 0,
                misses: 1,
                evictions: 0
            }
        );
        let p2 = cache.plan(&meta_a(), 8, &FlopVolumeModel);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.map.len(), 1);
        assert_eq!(p1.name(), p2.name());
        assert_eq!(p1.grids.node_grids, p2.grids.node_grids);
        assert_eq!(p1.flops, p2.flops);
        // Different P is a different key.
        let _ = cache.plan(&meta_a(), 4, &FlopVolumeModel);
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.map.len(), 2);
        // Different shape is a different key.
        let _ = cache.plan(&meta_b(), 8, &FlopVolumeModel);
        assert_eq!(cache.stats().misses, 3);
        assert!((cache.stats().hit_rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn distinct_models_do_not_alias() {
        let mut cache = PlanCache::new(8);
        let meta = meta_a();
        let net8 = NetCostModel::new(NetModel::bgq(), 8);
        let net4 = NetCostModel::new(NetModel::bgq(), 4);
        assert_ne!(FlopVolumeModel.cache_key(), net8.cache_key());
        assert_ne!(net8.cache_key(), net4.cache_key(), "P must be in the key");
        let _ = cache.plan(&meta, 8, &FlopVolumeModel);
        let _ = cache.plan(&meta, 8, &net8);
        assert_eq!(
            cache.stats().misses,
            2,
            "flops+vol and net searches must occupy distinct entries"
        );
        assert_eq!(cache.map.len(), 2);
        assert!(cached(&cache, &meta, 8, &FlopVolumeModel));
        assert!(cached(&cache, &meta, 8, &net8));
        // Both answered from cache now.
        let _ = cache.plan(&meta, 8, &FlopVolumeModel);
        let _ = cache.plan(&meta, 8, &net8);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn cached_plan_is_exactly_the_fresh_search_winner() {
        let mut cache = PlanCache::new(4);
        let meta = meta_a();
        let model = NetCostModel::new(NetModel::bgq(), 8);
        let _ = cache.plan(&meta, 8, &model); // prime
        let cached = cache.plan(&meta, 8, &model); // hit
        let fresh =
            Planner::new(meta.clone(), 8).best_plan_with(&model, &SearchBudget::winner_only());
        assert_eq!(cached.name(), fresh.name());
        assert_eq!(cached.grids.initial, fresh.grids.initial);
        assert_eq!(cached.grids.node_grids, fresh.grids.node_grids);
        assert_eq!(cached.grids.regrid, fresh.grids.regrid);
        assert_eq!(cached.flops.to_bits(), fresh.flops.to_bits());
        assert_eq!(cached.volume.to_bits(), fresh.volume.to_bits());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = PlanCache::new(2);
        let m = meta_a();
        let _ = cache.plan(&m, 2, &FlopVolumeModel); // key A
        let _ = cache.plan(&m, 4, &FlopVolumeModel); // key B
        let _ = cache.plan(&m, 2, &FlopVolumeModel); // touch A (hit)
        let _ = cache.plan(&m, 8, &FlopVolumeModel); // key C evicts B
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.map.len(), 2);
        assert!(cached(&cache, &m, 2, &FlopVolumeModel));
        assert!(!cached(&cache, &m, 4, &FlopVolumeModel));
        assert!(cached(&cache, &m, 8, &FlopVolumeModel));
        // B is gone: looking it up again is a miss.
        let _ = cache.plan(&m, 4, &FlopVolumeModel);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = PlanCache::new(0);
    }

    /// The serving-layer exactness guarantee, end to end: executing a
    /// *cached* plan under the virtual-time engine produces per-sweep
    /// communication clocks bit-identical to executing the plan a fresh
    /// `optimize` returns — a cache hit changes nothing observable.
    #[test]
    fn cached_plan_executes_virtual_comm_bit_identical_to_fresh() {
        use crate::engine::{DistRun, EngineConfig};
        use crate::serve::synthetic_fill;

        let meta = TuckerMeta::new([12, 10, 8], [6, 4, 4]);
        let nranks = 8;
        let model = NetCostModel::new(NetModel::bgq(), nranks);
        let mut cache = PlanCache::new(4);
        let _ = cache.plan(&meta, nranks, &model); // prime: miss
        let cached = cache.plan(&meta, nranks, &model); // exercised path: hit
        assert_eq!(cache.stats().hits, 1);
        let fresh = optimize(&meta, nranks, &model, &SearchBudget::winner_only())
            .best()
            .plan
            .clone();

        let cfg = EngineConfig::virtual_time(NetModel::bgq());
        let fill = |c: &[usize]| synthetic_fill(c, 42);
        let a = DistRun::of(&cached, 2).config(cfg.clone()).run(fill);
        let b = DistRun::of(&fresh, 2).config(cfg).run(fill);
        assert_eq!(a.per_sweep.len(), b.per_sweep.len());
        for (sa, sb) in a.per_sweep.iter().zip(&b.per_sweep) {
            assert_eq!(
                sa.comm_wall, sb.comm_wall,
                "virtual comm clocks must match to the nanosecond"
            );
            assert_eq!(sa.ttm_volume, sb.ttm_volume);
            assert_eq!(sa.regrid_volume, sb.regrid_volume);
            assert_eq!(sa.gram_volume, sb.gram_volume);
            assert_eq!(sa.error.to_bits(), sb.error.to_bits());
            assert_eq!(sa.provenance, sb.provenance);
        }
    }
}
