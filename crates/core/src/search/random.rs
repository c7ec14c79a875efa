use crate::{
    HybridObjective, MicroNasError, NullObserver, ObjectiveWeights, Result, SearchContext,
    SearchCost, SearchEvent, SearchObserver, SearchOutcome, SearchStrategy,
};
use micronas_searchspace::{random_architecture, Architecture, CellTopology};
use micronas_tensor::hash_mix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Random search over the cell space using the same zero-cost objective.
///
/// This is the standard sanity baseline for zero-shot NAS: sample `budget`
/// architectures uniformly at random, score each with the hybrid objective
/// and keep the best feasible one.
///
/// The whole sample budget is evaluated as one slate on the rayon pool
/// ([`SearchContext::evaluate_all`]). Every candidate's architecture is
/// drawn from its own `ChaCha8Rng` seeded from `(base seed, candidate
/// index)`, and results are reduced in candidate order, so the outcome —
/// including the score history — is bitwise identical for every thread
/// count.
#[derive(Debug, Clone)]
pub struct RandomSearch {
    objective: HybridObjective,
    budget: usize,
}

impl RandomSearch {
    /// Creates a random search with the given objective weights and sample budget.
    ///
    /// # Errors
    ///
    /// Returns [`MicroNasError::InvalidConfig`] if `budget` is zero.
    pub fn new(weights: ObjectiveWeights, budget: usize) -> Result<Self> {
        if budget == 0 {
            return Err(MicroNasError::InvalidConfig(
                "random search budget must be positive".into(),
            ));
        }
        Ok(Self {
            objective: HybridObjective::new(weights),
            budget,
        })
    }

    /// The number of architectures sampled.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Runs the search without progress reporting (equivalent to
    /// [`SearchStrategy::search`] with a [`NullObserver`]).
    ///
    /// # Errors
    ///
    /// Returns [`MicroNasError::NoFeasibleArchitecture`] if every sampled
    /// architecture violates the hardware budgets, and propagates proxy
    /// failures.
    pub fn run(&self, ctx: &SearchContext) -> Result<SearchOutcome> {
        self.search(ctx, &NullObserver)
    }
}

impl SearchStrategy for RandomSearch {
    fn name(&self) -> &str {
        ALGORITHM_NAME
    }

    fn search(&self, ctx: &SearchContext, observer: &dyn SearchObserver) -> Result<SearchOutcome> {
        observer.on_event(&SearchEvent::Started {
            algorithm: self.name(),
        });
        let start = Instant::now();
        let evaluations_before = ctx.evaluation_count();
        let cache_before = ctx.cache_stats();
        let base_seed = ctx.seed().wrapping_add(RANDOM_STREAM);

        // Draw every candidate from its own deterministic stream so the
        // sample set does not depend on scoring order or thread count.
        let candidates: Vec<Architecture> = (0..self.budget)
            .map(|index| {
                let mut rng = ChaCha8Rng::seed_from_u64(hash_mix(base_seed, index as u64));
                random_architecture(ctx.space(), &mut rng)
            })
            .collect();

        // Evaluate the whole slate; handles come back in candidate order.
        let cells: Vec<CellTopology> = candidates.iter().map(|arch| *arch.cell()).collect();
        let evals = {
            let _step_span = micronas_telemetry::span!("strategy.step");
            ctx.evaluate_all(&cells)?
        };

        // Sequential, order-preserving reduction: identical to the previous
        // one-at-a-time loop (first-seen candidate wins ties).
        let mut best: Option<(f64, SearchOutcome)> = None;
        let mut history = Vec::with_capacity(self.budget);
        for (arch, eval) in candidates.iter().zip(evals) {
            let score = self.objective.score(&eval.metrics, &eval.hardware);
            observer.on_event(&SearchEvent::Step {
                index: history.len(),
                score,
            });
            history.push(score);
            if !eval.feasible {
                continue;
            }
            let is_better = best.as_ref().is_none_or(|(s, _)| score > *s);
            if is_better {
                let outcome = SearchOutcome {
                    best: *arch,
                    evaluation: (*eval).clone(),
                    test_accuracy: ctx.trained_accuracy(arch),
                    cost: SearchCost::default(),
                    algorithm: ALGORITHM_NAME.to_string(),
                    history: Vec::new(),
                };
                best = Some((score, outcome));
            }
        }

        let (_, mut outcome) = best.ok_or(MicroNasError::NoFeasibleArchitecture)?;
        outcome.cost = SearchCost {
            wall_clock_seconds: start.elapsed().as_secs_f64(),
            simulated_gpu_hours: 0.0,
            evaluations: ctx.evaluation_count() - evaluations_before,
            cache: ctx.cache_stats().since(&cache_before),
        };
        outcome.history = history;
        observer.on_event(&SearchEvent::Finished { outcome: &outcome });
        Ok(outcome)
    }
}

/// Seed-stream tag for the random-search RNG.
const RANDOM_STREAM: u64 = 0x52_41_4E_44;

/// Report name of the random-search baseline.
const ALGORITHM_NAME: &str = "Random search (zero-cost objective)";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroNasConfig;
    use micronas_datasets::DatasetKind;
    use micronas_hw::HardwareConstraints;

    fn tiny_context() -> SearchContext {
        SearchContext::new(DatasetKind::Cifar10, &MicroNasConfig::tiny_test()).unwrap()
    }

    #[test]
    fn zero_budget_is_rejected() {
        assert!(RandomSearch::new(ObjectiveWeights::accuracy_only(), 0).is_err());
        assert!(RandomSearch::new(ObjectiveWeights::accuracy_only(), 5).is_ok());
    }

    #[test]
    fn finds_a_feasible_architecture_and_counts_cost() {
        let ctx = tiny_context();
        let search = RandomSearch::new(ObjectiveWeights::accuracy_only(), 6).unwrap();
        let outcome = search.run(&ctx).unwrap();
        assert!(outcome.evaluation.feasible);
        assert_eq!(outcome.history.len(), 6);
        assert!(outcome.cost.evaluations <= 6);
        assert!(outcome.cost.wall_clock_seconds > 0.0);
    }

    #[test]
    fn impossible_constraints_yield_no_feasible_architecture() {
        let config = MicroNasConfig::tiny_test()
            .with_constraints(HardwareConstraints::unconstrained().with_latency_ms(1e-9));
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let search = RandomSearch::new(ObjectiveWeights::latency_guided(1.0), 4).unwrap();
        assert!(matches!(
            search.run(&ctx),
            Err(MicroNasError::NoFeasibleArchitecture)
        ));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let a = RandomSearch::new(ObjectiveWeights::accuracy_only(), 5)
            .unwrap()
            .run(&tiny_context())
            .unwrap();
        let b = RandomSearch::new(ObjectiveWeights::accuracy_only(), 5)
            .unwrap()
            .run(&tiny_context())
            .unwrap();
        assert_eq!(a.best.index(), b.best.index());
    }
}
