use crate::{
    MicroNasError, NullObserver, Result, SearchContext, SearchCost, SearchEvent, SearchObserver,
    SearchOutcome, SearchStrategy,
};
use micronas_searchspace::{mutate, random_architecture, Architecture, CellTopology};
use micronas_tensor::hash_mix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{HashSet, VecDeque};
use std::time::Instant;

/// Configuration of the µNAS-style constrained evolutionary baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvolutionaryConfig {
    /// Population size.
    pub population: usize,
    /// Number of evolution cycles (each cycle trains and evaluates one child).
    pub cycles: usize,
    /// Tournament sample size for parent selection.
    pub sample_size: usize,
}

impl EvolutionaryConfig {
    /// A configuration comparable to the paper's µNAS baseline budget:
    /// training-based evaluation of several hundred candidates.
    pub fn munas_default() -> Self {
        Self {
            population: 50,
            cycles: 450,
            sample_size: 10,
        }
    }

    /// A reduced configuration for tests.
    pub fn fast_test() -> Self {
        Self {
            population: 8,
            cycles: 24,
            sample_size: 3,
        }
    }
}

impl Default for EvolutionaryConfig {
    fn default() -> Self {
        Self::munas_default()
    }
}

/// µNAS-style baseline: constrained aging evolution whose fitness is the
/// *trained* accuracy of each candidate.
///
/// Unlike MicroNAS, every candidate this search evaluates must be trained, so
/// its search cost is dominated by simulated GPU hours (charged from the
/// surrogate benchmark's per-architecture training cost). Candidates that
/// violate the hardware budgets are rejected during sampling and mutation,
/// mirroring µNAS's resource-constrained search.
#[derive(Debug, Clone)]
pub struct EvolutionarySearch {
    config: EvolutionaryConfig,
}

impl EvolutionarySearch {
    /// Creates the baseline with the given configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MicroNasError::InvalidConfig`] for degenerate settings.
    pub fn new(config: EvolutionaryConfig) -> Result<Self> {
        if config.population < 2 || config.cycles == 0 || config.sample_size == 0 {
            return Err(MicroNasError::InvalidConfig(
                "evolutionary search needs population ≥ 2, cycles ≥ 1 and sample size ≥ 1".into(),
            ));
        }
        Ok(Self { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &EvolutionaryConfig {
        &self.config
    }

    /// Runs the baseline without progress reporting (equivalent to
    /// [`SearchStrategy::search`] with a [`NullObserver`]).
    ///
    /// # Errors
    ///
    /// Returns [`MicroNasError::NoFeasibleArchitecture`] if no feasible
    /// candidate can be sampled.
    pub fn run(&self, ctx: &SearchContext) -> Result<SearchOutcome> {
        self.search(ctx, &NullObserver)
    }
}

impl SearchStrategy for EvolutionarySearch {
    fn name(&self) -> &str {
        ALGORITHM_NAME
    }

    fn search(&self, ctx: &SearchContext, observer: &dyn SearchObserver) -> Result<SearchOutcome> {
        observer.on_event(&SearchEvent::Started {
            algorithm: self.name(),
        });
        let start = Instant::now();
        let cache_before = ctx.cache_stats();
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed().wrapping_add(0x45564F));
        let mut simulated_gpu_hours = 0.0f64;
        let mut trained: HashSet<usize> = HashSet::new();
        let mut history = Vec::new();

        // Charge the (simulated) training bill for an architecture once.
        let fitness =
            |arch: &Architecture, trained: &mut HashSet<usize>, gpu_hours: &mut f64| -> f64 {
                let entry = ctx.benchmark().query(arch, ctx.dataset());
                if trained.insert(arch.index()) {
                    *gpu_hours += entry.train_cost_gpu_hours;
                }
                entry.test_accuracy
            };

        // Feasibility check uses only the cheap hardware indicators, as µNAS
        // does with its analytic resource models. It goes through the
        // context's cached path, so mutated children that revisit an
        // already-scored cell hit the cache (or the shared store) instead of
        // paying a fresh hardware pass.
        let feasible = |arch: &Architecture| -> Result<bool> { ctx.is_feasible(*arch.cell()) };

        // Seed the population with feasible random candidates. Candidate
        // `i` is drawn from its own ChaCha8 stream keyed by
        // `(base seed, attempt index)` and feasibility is checked in bulk on
        // the rayon pool; the population is then filled in attempt order,
        // so the result is bitwise identical for every thread count.
        let base_seed = ctx.seed().wrapping_add(0x45564F);
        let mut population: VecDeque<(Architecture, f64)> =
            VecDeque::with_capacity(self.config.population);
        let max_attempts = self.config.population * 200;
        let mut attempt = 0usize;
        while population.len() < self.config.population && attempt < max_attempts {
            let round = self.config.population.min(max_attempts - attempt);
            let batch: Vec<Architecture> = (attempt..attempt + round)
                .map(|i| {
                    let mut arch_rng = ChaCha8Rng::seed_from_u64(hash_mix(base_seed, i as u64));
                    random_architecture(ctx.space(), &mut arch_rng)
                })
                .collect();
            let cells: Vec<CellTopology> = batch.iter().map(|arch| *arch.cell()).collect();
            let feasibility: Vec<bool> = cells
                .par_iter()
                .map(|&cell| ctx.is_feasible(cell))
                .collect::<Result<_>, _>()?;
            for (arch, ok) in batch.into_iter().zip(feasibility) {
                if ok && population.len() < self.config.population {
                    let fit = fitness(&arch, &mut trained, &mut simulated_gpu_hours);
                    population.push_back((arch, fit));
                }
            }
            attempt += round;
        }
        if population.len() < self.config.population {
            return Err(MicroNasError::NoFeasibleArchitecture);
        }

        let mut best = population
            .iter()
            .cloned()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("accuracies are finite"))
            .expect("population is non-empty");
        observer.on_event(&SearchEvent::Step {
            index: history.len(),
            score: best.1,
        });
        history.push(best.1);

        // Aging evolution: tournament parent selection, single mutation,
        // oldest member dies.
        for _ in 0..self.config.cycles {
            let _step_span = micronas_telemetry::span!("strategy.step");
            let mut parent: Option<(Architecture, f64)> = None;
            for _ in 0..self.config.sample_size {
                let idx = rand::Rng::gen_range(&mut rng, 0..population.len());
                let candidate = population[idx];
                if parent.as_ref().is_none_or(|p| candidate.1 > p.1) {
                    parent = Some(candidate);
                }
            }
            let parent = parent.expect("sample size is at least one");

            // Mutate until a feasible child appears (bounded retries).
            let mut child = mutate(ctx.space(), &parent.0, &mut rng);
            let mut retries = 0;
            while !feasible(&child)? && retries < 50 {
                child = mutate(ctx.space(), &parent.0, &mut rng);
                retries += 1;
            }
            if !feasible(&child)? {
                observer.on_event(&SearchEvent::Step {
                    index: history.len(),
                    score: best.1,
                });
                history.push(best.1);
                continue;
            }
            let child_fit = fitness(&child, &mut trained, &mut simulated_gpu_hours);
            population.push_back((child, child_fit));
            population.pop_front();
            if child_fit > best.1 {
                best = (child, child_fit);
            }
            observer.on_event(&SearchEvent::Step {
                index: history.len(),
                score: best.1,
            });
            history.push(best.1);
        }

        let evaluation = ctx.evaluate(*best.0.cell())?;
        let outcome = SearchOutcome {
            best: best.0,
            evaluation: (*evaluation).clone(),
            test_accuracy: best.1,
            cost: SearchCost {
                wall_clock_seconds: start.elapsed().as_secs_f64(),
                simulated_gpu_hours,
                evaluations: trained.len(),
                cache: ctx.cache_stats().since(&cache_before),
            },
            algorithm: ALGORITHM_NAME.to_string(),
            history,
        };
        observer.on_event(&SearchEvent::Finished { outcome: &outcome });
        Ok(outcome)
    }
}

/// Report name of the µNAS-style baseline.
const ALGORITHM_NAME: &str = "µNAS-style constrained evolution (training-based)";

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
    fn degenerate_configs_are_rejected() {
        assert!(EvolutionarySearch::new(EvolutionaryConfig {
            population: 1,
            cycles: 10,
            sample_size: 2
        })
        .is_err());
        assert!(EvolutionarySearch::new(EvolutionaryConfig {
            population: 4,
            cycles: 0,
            sample_size: 2
        })
        .is_err());
        assert!(EvolutionarySearch::new(EvolutionaryConfig {
            population: 4,
            cycles: 5,
            sample_size: 0
        })
        .is_err());
        assert!(EvolutionarySearch::new(EvolutionaryConfig::fast_test()).is_ok());
    }

    #[test]
    fn evolution_improves_or_maintains_best_fitness() {
        let ctx = tiny_context();
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();
        let outcome = search.run(&ctx).unwrap();
        // The best-so-far trajectory must be non-decreasing.
        for w in outcome.history.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(outcome.test_accuracy >= outcome.history[0]);
        assert!(
            outcome.cost.simulated_gpu_hours > 0.0,
            "training-based search must pay GPU hours"
        );
        assert!(outcome.cost.evaluations > 0);
    }

    #[test]
    fn simulated_cost_scales_with_number_of_trained_candidates() {
        let ctx = tiny_context();
        let small = EvolutionarySearch::new(EvolutionaryConfig {
            population: 4,
            cycles: 4,
            sample_size: 2,
        })
        .unwrap()
        .run(&ctx)
        .unwrap();
        let ctx2 = tiny_context();
        let large = EvolutionarySearch::new(EvolutionaryConfig {
            population: 8,
            cycles: 30,
            sample_size: 2,
        })
        .unwrap()
        .run(&ctx2)
        .unwrap();
        assert!(large.cost.simulated_gpu_hours > small.cost.simulated_gpu_hours);
    }

    #[test]
    fn revisited_children_hit_the_evaluation_cache() {
        let ctx = tiny_context();
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();
        let outcome = search.run(&ctx).unwrap();
        // Mutated children frequently land on already-scored cells; those
        // feasibility checks must be served from the cache, not recomputed.
        assert!(
            outcome.cost.cache.hits > 0,
            "revisits must hit the cache: {:?}",
            outcome.cost.cache
        );
        assert!(outcome.cost.cache.misses > 0, "fresh cells still compute");
    }

    #[test]
    fn shared_store_removes_duplicate_work_across_runs() {
        use micronas_store::EvalStore;
        use std::sync::Arc;

        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();

        let ctx1 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let first = search.run(&ctx1).unwrap();

        let ctx2 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let second = search.run(&ctx2).unwrap();

        // Identical search under a warm store: no fresh proxy passes at all,
        // and the outcome is bitwise identical.
        assert_eq!(second.cost.cache.misses, 0, "warm store must not recompute");
        assert_eq!(first.best.index(), second.best.index());
        assert_eq!(first.history, second.history);
        assert_eq!(first.evaluation, second.evaluation);
    }

    #[test]
    fn respects_hardware_constraints() {
        // Constrain parameters tightly; every member of the final population
        // must satisfy the budget.
        let config = MicroNasConfig::tiny_test()
            .with_constraints(HardwareConstraints::unconstrained().with_params_m(0.5));
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();
        let outcome = search.run(&ctx).unwrap();
        assert!(outcome.evaluation.hardware.params_m <= 0.5);
    }

    #[test]
    fn impossible_constraints_error_out() {
        let config = MicroNasConfig::tiny_test()
            .with_constraints(HardwareConstraints::unconstrained().with_latency_ms(1e-9));
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let search = EvolutionarySearch::new(EvolutionaryConfig::fast_test()).unwrap();
        assert!(matches!(
            search.run(&ctx),
            Err(MicroNasError::NoFeasibleArchitecture)
        ));
    }
}
