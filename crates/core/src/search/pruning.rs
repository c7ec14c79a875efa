use crate::{
    CandidateEvaluation, HybridObjective, MicroNasError, NullObserver, ObjectiveWeights, Result,
    SearchContext, SearchCost, SearchEvent, SearchObserver, SearchOutcome, SearchStrategy,
};
use micronas_searchspace::{CellTopology, EdgeId, Operation, Supernet};
use std::time::Instant;

/// The hardware-aware pruning-based search (the paper's §II algorithm), also
/// used — with hardware weights set to zero — as the TE-NAS baseline.
///
/// The search starts from the full supernet (every edge carries all five
/// candidate operations) and repeatedly removes the single (edge, operation)
/// pair with the lowest *importance*, where importance is the hybrid
/// objective of the architecture obtained by fixing that edge to that
/// operation while the remaining undecided edges take their strongest alive
/// candidate. Operations whose candidate architecture violates the hardware
/// budgets are penalised so they are pruned first. After 24 prune steps
/// exactly one operation survives per edge and the supernet collapses into
/// the discovered architecture.
#[derive(Debug, Clone)]
pub struct MicroNasSearch {
    objective: HybridObjective,
    algorithm_name: String,
    /// Penalty subtracted from the importance of hardware-infeasible candidates.
    infeasibility_penalty: f64,
}

impl MicroNasSearch {
    /// Creates a search with the given objective weights.
    ///
    /// Earlier revisions also accepted a `&MicroNasConfig` that was silently
    /// ignored; proxy configuration belongs to the evaluation context (built
    /// by `SearchSession::builder()`), never to the strategy.
    pub fn new(weights: ObjectiveWeights) -> Self {
        let name = if weights.latency > 0.0 {
            "MicroNAS (latency-guided)"
        } else if weights.flops > 0.0 {
            "MicroNAS (FLOPs-guided)"
        } else if weights.memory > 0.0 {
            "MicroNAS (memory-guided)"
        } else {
            "MicroNAS (proxy-only)"
        };
        Self {
            objective: HybridObjective::new(weights),
            algorithm_name: name.to_string(),
            infeasibility_penalty: 25.0,
        }
    }

    /// The TE-NAS baseline: identical pruning mechanics, but the objective
    /// contains only the two network-analysis terms.
    pub fn te_nas_baseline() -> Self {
        let mut s = Self::new(ObjectiveWeights::accuracy_only());
        s.algorithm_name = "TE-NAS (baseline)".to_string();
        s
    }

    /// The objective driving this search.
    pub fn objective(&self) -> &HybridObjective {
        &self.objective
    }

    /// Human-readable algorithm name used in reports.
    pub fn name(&self) -> &str {
        &self.algorithm_name
    }

    /// Importance of an evaluated candidate assignment: the hybrid objective
    /// of its representative architecture, minus a penalty if the candidate
    /// violates the hardware budgets.
    fn importance(&self, ctx: &SearchContext, eval: &CandidateEvaluation) -> f64 {
        let mut score = self.objective.score(&eval.metrics, &eval.hardware);
        if !eval.feasible {
            let violations = ctx.constraints().violations(&eval.hardware).len() as f64;
            score -= self.infeasibility_penalty * violations;
        }
        score
    }

    /// Runs the search to completion without progress reporting
    /// (equivalent to [`SearchStrategy::search`] with a [`NullObserver`]).
    ///
    /// # Errors
    ///
    /// Propagates proxy-evaluation and search-space errors.
    pub fn run(&self, ctx: &SearchContext) -> Result<SearchOutcome> {
        self.search(ctx, &NullObserver)
    }
}

impl SearchStrategy for MicroNasSearch {
    fn name(&self) -> &str {
        &self.algorithm_name
    }

    fn search(&self, ctx: &SearchContext, observer: &dyn SearchObserver) -> Result<SearchOutcome> {
        observer.on_event(&SearchEvent::Started {
            algorithm: self.name(),
        });
        let start = Instant::now();
        let evaluations_before = ctx.evaluation_count();
        let cache_before = ctx.cache_stats();
        let mut supernet = Supernet::full();
        let mut history = Vec::new();

        while !supernet.is_collapsed() {
            let _step_span = micronas_telemetry::span!("strategy.step");
            // Enumerate the candidate (edge, op) assignments of this prune
            // step, then evaluate the whole slate on the rayon pool.
            // Evaluation is a pure cached function of the cell and the
            // reduction below walks the results in enumeration order with a
            // strict `<` (first candidate wins ties), so the chosen prune —
            // and therefore the whole search trajectory — is bitwise
            // identical for every thread count.
            let mut candidates: Vec<(EdgeId, Operation)> = Vec::new();
            for edge in supernet.undecided_edges() {
                for op in supernet.candidates(edge)? {
                    candidates.push((edge, op));
                }
            }
            let cells: Vec<CellTopology> = candidates
                .iter()
                .map(|&(edge, op)| supernet.representative_cell(true).with_op(edge, op))
                .collect::<std::result::Result<_, _>>()?;
            let evals = ctx.evaluate_all(&cells)?;

            let mut weakest: Option<(EdgeId, Operation, f64)> = None;
            for (&(edge, op), eval) in candidates.iter().zip(&evals) {
                let score = self.importance(ctx, eval);
                let replace = match &weakest {
                    None => true,
                    Some((_, _, s)) => score < *s,
                };
                if replace {
                    weakest = Some((edge, op, score));
                }
            }
            let (edge, op, score) = weakest.ok_or(MicroNasError::NoFeasibleArchitecture)?;
            supernet.prune(edge, op)?;
            observer.on_event(&SearchEvent::Step {
                index: history.len(),
                score,
            });
            history.push(score);
        }

        let best = supernet.collapse(ctx.space())?;
        let evaluation = ctx.evaluate(*best.cell())?;
        if !evaluation.feasible && !history.is_empty() {
            // The greedy prune can only guarantee feasibility if at least one
            // feasible architecture exists; report the violation rather than
            // silently returning an infeasible model.
            if ctx.constraints().violations(&evaluation.hardware).len() > 2 {
                return Err(MicroNasError::NoFeasibleArchitecture);
            }
        }
        let test_accuracy = ctx.trained_accuracy(&best);
        let outcome = SearchOutcome {
            best,
            evaluation: (*evaluation).clone(),
            test_accuracy,
            cost: SearchCost {
                wall_clock_seconds: start.elapsed().as_secs_f64(),
                simulated_gpu_hours: 0.0,
                evaluations: ctx.evaluation_count() - evaluations_before,
                cache: ctx.cache_stats().since(&cache_before),
            },
            algorithm: self.algorithm_name.clone(),
            history,
        };
        observer.on_event(&SearchEvent::Finished { outcome: &outcome });
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroNasConfig;
    use micronas_datasets::DatasetKind;
    use micronas_hw::HardwareConstraints;

    fn tiny_context(constraints: HardwareConstraints) -> SearchContext {
        let config = MicroNasConfig::tiny_test().with_constraints(constraints);
        SearchContext::new(DatasetKind::Cifar10, &config).unwrap()
    }

    #[test]
    fn proxy_only_search_collapses_to_a_connected_architecture() {
        let ctx = tiny_context(HardwareConstraints::unconstrained());
        let search = MicroNasSearch::te_nas_baseline();
        let outcome = search.run(&ctx).unwrap();
        assert!(outcome.best.cell().has_input_output_path());
        assert_eq!(
            outcome.history.len(),
            24,
            "24 prune steps collapse the supernet"
        );
        assert!(outcome.cost.evaluations > 0);
        assert!(outcome.cost.simulated_gpu_hours == 0.0);
        assert!(
            outcome.test_accuracy > 50.0,
            "discovered model should be well above chance"
        );
        assert_eq!(outcome.algorithm, "TE-NAS (baseline)");
    }

    #[test]
    fn latency_guided_search_finds_faster_model_than_proxy_only() {
        let ctx = tiny_context(HardwareConstraints::unconstrained());
        let te_nas = MicroNasSearch::te_nas_baseline().run(&ctx).unwrap();
        let latency_guided = MicroNasSearch::new(ObjectiveWeights::latency_guided(4.0))
            .run(&ctx)
            .unwrap();
        assert!(
            latency_guided.evaluation.hardware.latency_ms <= te_nas.evaluation.hardware.latency_ms,
            "latency-guided ({:.1} ms) must not be slower than proxy-only ({:.1} ms)",
            latency_guided.evaluation.hardware.latency_ms,
            te_nas.evaluation.hardware.latency_ms
        );
        assert_eq!(latency_guided.algorithm, "MicroNAS (latency-guided)");
    }

    #[test]
    fn constrained_search_respects_a_latency_budget() {
        // Pick a budget between the fastest and slowest architectures.
        let unconstrained_ctx = tiny_context(HardwareConstraints::unconstrained());
        let baseline = MicroNasSearch::te_nas_baseline()
            .run(&unconstrained_ctx)
            .unwrap();
        let budget_ms = baseline.evaluation.hardware.latency_ms * 0.6;

        let ctx = tiny_context(HardwareConstraints::unconstrained().with_latency_ms(budget_ms));
        let search = MicroNasSearch::new(ObjectiveWeights::latency_guided(2.0));
        let outcome = search.run(&ctx).unwrap();
        assert!(
            outcome.evaluation.hardware.latency_ms <= budget_ms * 1.05,
            "latency {} exceeds budget {}",
            outcome.evaluation.hardware.latency_ms,
            budget_ms
        );
    }

    #[test]
    fn outcome_is_bitwise_identical_across_store_modes() {
        use micronas_store::EvalStore;
        use std::sync::Arc;

        let config = MicroNasConfig::tiny_test();
        let search = MicroNasSearch::new(ObjectiveWeights::latency_guided(2.0));

        let off = search
            .run(&tiny_context(HardwareConstraints::unconstrained()))
            .unwrap();

        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let ctx_cold =
            SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let cold = search.run(&ctx_cold).unwrap();

        let ctx_warm =
            SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let warm = search.run(&ctx_warm).unwrap();

        for (label, other) in [("cold", &cold), ("warm", &warm)] {
            assert_eq!(off.best.index(), other.best.index(), "{label} best");
            assert_eq!(off.history, other.history, "{label} history");
            assert_eq!(off.evaluation, other.evaluation, "{label} evaluation");
            assert_eq!(off.test_accuracy, other.test_accuracy, "{label} accuracy");
        }
        assert_eq!(
            warm.cost.cache.misses, 0,
            "a pre-warmed store serves the whole search"
        );
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let ctx1 = tiny_context(HardwareConstraints::unconstrained());
        let ctx2 = tiny_context(HardwareConstraints::unconstrained());
        let a = MicroNasSearch::te_nas_baseline().run(&ctx1).unwrap();
        let b = MicroNasSearch::te_nas_baseline().run(&ctx2).unwrap();
        assert_eq!(a.best.index(), b.best.index());
    }
}
