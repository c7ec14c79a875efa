use serde::{Deserialize, Serialize};

/// Search-cost accounting, used for the paper's efficiency comparison
/// (Table I "Search Time" column and the ≈1104× claim).
///
/// Zero-shot searches are charged their measured wall-clock time. Training
/// based baselines (µNAS-style evolution) are additionally charged the
/// *simulated* GPU hours that fully training their evaluated candidates would
/// have cost, because that — not the negligible surrogate lookup — is what a
/// real deployment would pay.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SearchCost {
    /// Measured wall-clock duration of the search in seconds.
    pub wall_clock_seconds: f64,
    /// Simulated training cost charged to the search, in GPU hours
    /// (zero for train-free methods).
    pub simulated_gpu_hours: f64,
    /// Number of candidate architectures evaluated.
    pub evaluations: usize,
    /// Evaluation-cache traffic of the search: requests served from the
    /// context cache or the shared evaluation store versus freshly computed.
    pub cache: EvalCacheStats,
}

/// Hit/miss accounting for candidate evaluations.
///
/// The unit counted is one **record fetch**: a full candidate evaluation
/// requests two records (zero-cost metrics and hardware indicators), a
/// feasibility check requests one. A **hit** was answered without running
/// the proxies — by the context's own caches or an attached
/// [`micronas_store::EvalStore`] (a context-cache hit counts both records it
/// short-circuits, so rates stay comparable across cache layers). A **miss**
/// paid for a fresh computation. Cache traffic varies with store warmth (a
/// pre-warmed store turns every miss into a hit), so these counters live in
/// the cost record, *not* in the parts of [`crate::SearchOutcome`] that must
/// stay bitwise identical across store modes.
///
/// Deliberately distinct from [`micronas_store::StoreStats`]: that type
/// counts traffic *at the store*, across every context sharing it; this one
/// counts requests *of one search*, including those its context's private
/// caches absorbed before the store ever saw them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct EvalCacheStats {
    /// Requests served from a cache or the shared store.
    pub hits: usize,
    /// Requests that computed fresh proxy or hardware values.
    pub misses: usize,
}

impl EvalCacheStats {
    /// Counter deltas accumulated since an earlier snapshot.
    pub fn since(&self, earlier: &EvalCacheStats) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }

    /// Hit rate in `[0, 1]`; 1.0 when nothing was requested.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl SearchCost {
    /// Total cost expressed in hours: wall clock plus simulated training.
    pub fn total_hours(&self) -> f64 {
        self.wall_clock_seconds / 3_600.0 + self.simulated_gpu_hours
    }

    /// Efficiency factor of `self` relative to `other`
    /// (how many times cheaper `self` is).
    pub fn efficiency_vs(&self, other: &SearchCost) -> f64 {
        other.total_hours() / self.total_hours().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_hours_combines_both_components() {
        let c = SearchCost {
            wall_clock_seconds: 3_600.0,
            simulated_gpu_hours: 2.0,
            evaluations: 10,
            ..Default::default()
        };
        assert!((c.total_hours() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_stats_delta_and_hit_rate() {
        let earlier = EvalCacheStats { hits: 3, misses: 2 };
        let later = EvalCacheStats {
            hits: 10,
            misses: 2,
        };
        let delta = later.since(&earlier);
        assert_eq!(delta, EvalCacheStats { hits: 7, misses: 0 });
        assert_eq!(delta.hit_rate(), 1.0);
        assert_eq!(EvalCacheStats::default().hit_rate(), 1.0);
        assert!((earlier.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn efficiency_ratio_matches_paper_style_comparison() {
        // A 552 GPU-hour baseline versus a half-GPU-hour zero-shot search is
        // roughly a 1100x efficiency gap — the shape of the paper's claim.
        let micro = SearchCost {
            wall_clock_seconds: 1_800.0,
            simulated_gpu_hours: 0.0,
            evaluations: 400,
            ..Default::default()
        };
        let munas = SearchCost {
            wall_clock_seconds: 0.0,
            simulated_gpu_hours: 552.0,
            evaluations: 500,
            ..Default::default()
        };
        let ratio = micro.efficiency_vs(&munas);
        assert!(ratio > 1_000.0 && ratio < 1_300.0, "ratio {ratio}");
    }

    #[test]
    fn efficiency_handles_zero_cost_gracefully() {
        let zero = SearchCost::default();
        let other = SearchCost {
            wall_clock_seconds: 60.0,
            ..Default::default()
        };
        assert!(zero.efficiency_vs(&other).is_finite());
    }
}
