//! Search algorithms: the MicroNAS hardware-aware pruning search and the
//! baselines it is compared against.
//!
//! # Parallel candidate scoring
//!
//! All three algorithms score candidates on the rayon thread pool while
//! remaining **bitwise deterministic for every thread count**:
//!
//! * candidate *generation* is keyed per candidate — each sampled
//!   architecture comes from its own `ChaCha8Rng` seeded from
//!   `(base seed, candidate index)` — never from a shared stream whose
//!   consumption order could depend on scheduling;
//! * candidate *evaluation* ([`crate::SearchContext::evaluate`]) is a pure
//!   cached function of the cell;
//! * *reduction* (best-candidate / weakest-prune selection) walks the scored
//!   results in candidate order with first-wins tie-breaking.
//!
//! Pin a thread count with `rayon::ThreadPoolBuilder` + `install` to verify;
//! the tests below assert identical [`crate::SearchOutcome`] histories for
//! 1 thread and many.

mod evolutionary;
mod pruning;
mod random;
pub(crate) mod strategy;

pub use evolutionary::{EvolutionaryConfig, EvolutionarySearch};
pub use pruning::MicroNasSearch;
pub use random::RandomSearch;
pub use strategy::{NullObserver, SearchEvent, SearchObserver, SearchStrategy};

#[cfg(test)]
mod thread_determinism_tests {
    use super::*;
    use crate::{MicroNasConfig, ObjectiveWeights, SearchContext, SearchOutcome};
    use micronas_datasets::DatasetKind;
    use rayon::ThreadPoolBuilder;

    fn run_with_threads<F>(threads: usize, run: F) -> SearchOutcome
    where
        F: Fn(&SearchContext) -> SearchOutcome,
    {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let ctx =
                SearchContext::new(DatasetKind::Cifar10, &MicroNasConfig::tiny_test()).unwrap();
            run(&ctx)
        })
    }

    fn assert_outcomes_identical(a: &SearchOutcome, b: &SearchOutcome) {
        assert_eq!(a.best.index(), b.best.index());
        assert_eq!(a.evaluation, b.evaluation);
        assert_eq!(a.test_accuracy, b.test_accuracy);
        assert_eq!(a.cost.evaluations, b.cost.evaluations);
        assert_eq!(a.cost.cache, b.cost.cache);
        // The decisive check: bitwise-equal score trajectories.
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn random_search_history_is_identical_across_thread_counts() {
        let search = RandomSearch::new(ObjectiveWeights::accuracy_only(), 8).unwrap();
        let single = run_with_threads(1, |ctx| search.run(ctx).unwrap());
        for threads in [2, 4, 7] {
            let multi = run_with_threads(threads, |ctx| search.run(ctx).unwrap());
            assert_outcomes_identical(&single, &multi);
        }
    }

    #[test]
    fn pruning_search_history_is_identical_across_thread_counts() {
        let search = MicroNasSearch::new(ObjectiveWeights::latency_guided(2.0));
        let single = run_with_threads(1, |ctx| search.run(ctx).unwrap());
        for threads in [3, 8] {
            let multi = run_with_threads(threads, |ctx| search.run(ctx).unwrap());
            assert_outcomes_identical(&single, &multi);
        }
    }

    #[test]
    fn evolutionary_search_history_is_identical_across_thread_counts() {
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();
        let single = run_with_threads(1, |ctx| search.run(ctx).unwrap());
        let multi = run_with_threads(5, |ctx| search.run(ctx).unwrap());
        assert_outcomes_identical(&single, &multi);
    }
}
