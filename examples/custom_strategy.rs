//! External-strategy cookbook: a third-party search algorithm and a
//! third-party proxy, plugged into a [`SearchSession`] through the public
//! API only — no enum to extend, no crate to fork.
//!
//! Two "out-of-tree" pieces live in this file, exactly as they would in a
//! downstream crate:
//!
//! * [`SimulatedAnnealing`] — a classic Metropolis random-walk over the cell
//!   space implementing [`SearchStrategy`]: mutate one edge, accept uphill
//!   moves always and downhill moves with probability `exp(Δ/T)`, cool `T`
//!   geometrically. It honours the full strategy contract: deterministic for
//!   a fixed context seed (its RNG derives from `ctx.seed()`), one
//!   `Started`, one `Step` per history entry, one `Finished`.
//! * [`ActivationSparsityProxy`] — a train-free indicator implementing
//!   [`Proxy`]: the fraction of active ReLU units on a probe batch, scored
//!   by closeness to ½ (a balanced on/off mix keeps gradients flowing and
//!   correlates with trainable initialisations). Its score joins every
//!   candidate's `MetricSet` under `"act_sparsity"` and is cached in any
//!   attached store under the proxy's own persistent identity.
//!
//! Run with `cargo run --release --example custom_strategy`.

use micronas_suite::core::{
    HybridObjective, MicroNasConfig, ObjectiveWeights, Result as MicroResult, SearchContext,
    SearchCost, SearchEvent, SearchObserver, SearchOutcome, SearchSession, SearchStrategy,
};
use micronas_suite::datasets::{DatasetKind, SyntheticDataset};
use micronas_suite::nn::{CellNetwork, ProxyNetworkConfig};
use micronas_suite::proxies::{fingerprint_network, Proxy};
use micronas_suite::searchspace::{mutate, random_architecture, CellTopology};
use micronas_suite::tensor::{hash_mix, Workspace};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// An out-of-tree proxy
// ---------------------------------------------------------------------------

/// Fraction of active ReLU units on a probe batch, scored by closeness to ½.
struct ActivationSparsityProxy {
    network: ProxyNetworkConfig,
    batch_size: usize,
}

impl ActivationSparsityProxy {
    fn new() -> Self {
        Self {
            network: ProxyNetworkConfig::small(10),
            batch_size: 8,
        }
    }
}

impl Proxy for ActivationSparsityProxy {
    fn id(&self) -> &str {
        "act_sparsity"
    }

    fn config_fingerprint(&self) -> u64 {
        // Explicit value encoding, exactly like the built-ins: a stable
        // domain tag, then every configuration value.
        let mut h = "example/act_sparsity"
            .bytes()
            .fold(0x5150_4152_5345u64, |h, b| hash_mix(h, b as u64));
        h = hash_mix(h, self.batch_size as u64);
        fingerprint_network(h, &self.network)
    }

    fn evaluate_with(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> micronas_suite::proxies::Result<f64> {
        let mut config = self.network;
        config.num_classes = dataset.num_classes().min(16);
        let net = CellNetwork::new(&cell, &config, seed)?;
        let batch = SyntheticDataset::new(dataset, seed).sample_batch_with_stream(
            self.batch_size,
            config.input_resolution,
            0,
        )?;
        let output = net.forward_with(&batch.images, workspace)?;
        let (mut active, mut total) = (0usize, 0usize);
        for tensor in &output.pre_activations {
            total += tensor.numel();
            active += tensor.data().iter().filter(|&&v| v > 0.0).count();
        }
        if total == 0 {
            // A ReLU-free cell carries no activation signal at all.
            return Ok(-1.0);
        }
        let sparsity = active as f64 / total as f64;
        // Larger is better: 0 at a perfectly balanced on/off mix, -1 at the
        // degenerate all-on / all-off extremes.
        Ok(-(sparsity - 0.5).abs() * 2.0)
    }
}

// ---------------------------------------------------------------------------
// An out-of-tree strategy
// ---------------------------------------------------------------------------

/// Simulated annealing over the NAS-Bench-201 cell space.
struct SimulatedAnnealing {
    objective: HybridObjective,
    steps: usize,
    initial_temperature: f64,
    cooling: f64,
}

impl SimulatedAnnealing {
    fn new(weights: ObjectiveWeights, steps: usize) -> Self {
        Self {
            objective: HybridObjective::new(weights),
            steps,
            initial_temperature: 1.0,
            cooling: 0.97,
        }
    }
}

/// Seed-stream tag for the annealer's RNG (derived from the context seed, so
/// outcomes are reproducible per session).
const ANNEAL_STREAM: u64 = 0x414E_4E45_414C;

impl SearchStrategy for SimulatedAnnealing {
    fn name(&self) -> &str {
        "Simulated annealing (external example)"
    }

    fn search(
        &self,
        ctx: &SearchContext,
        observer: &dyn SearchObserver,
    ) -> MicroResult<SearchOutcome> {
        observer.on_event(&SearchEvent::Started {
            algorithm: self.name(),
        });
        let start = Instant::now();
        let evaluations_before = ctx.evaluation_count();
        let cache_before = ctx.cache_stats();
        let mut rng = ChaCha8Rng::seed_from_u64(hash_mix(ctx.seed(), ANNEAL_STREAM));

        // Start from a random feasible architecture.
        let mut current = random_architecture(ctx.space(), &mut rng);
        let mut current_eval = ctx.evaluate(*current.cell())?;
        for _ in 0..64 {
            if current_eval.feasible {
                break;
            }
            current = random_architecture(ctx.space(), &mut rng);
            current_eval = ctx.evaluate(*current.cell())?;
        }
        let mut current_score = self
            .objective
            .score(&current_eval.metrics, &current_eval.hardware);
        let (mut best, mut best_eval, mut best_score) =
            (current, Arc::clone(&current_eval), current_score);

        let mut temperature = self.initial_temperature;
        let mut history = Vec::with_capacity(self.steps);
        for _ in 0..self.steps {
            let candidate = mutate(ctx.space(), &current, &mut rng);
            let eval = ctx.evaluate(*candidate.cell())?;
            let score = self.objective.score(&eval.metrics, &eval.hardware);
            // Metropolis rule over feasible candidates only.
            let accept = eval.feasible
                && (score >= current_score
                    || rng.gen::<f64>() < ((score - current_score) / temperature).exp());
            if accept {
                current = candidate;
                current_score = score;
                current_eval = Arc::clone(&eval);
                if eval.feasible && score > best_score {
                    best = candidate;
                    best_score = score;
                    best_eval = eval;
                }
            }
            temperature *= self.cooling;
            // One Step per history entry, in order — the strategy contract.
            observer.on_event(&SearchEvent::Step {
                index: history.len(),
                score: current_score,
            });
            history.push(current_score);
        }
        let _ = current_eval;

        let outcome = SearchOutcome {
            best,
            evaluation: (*best_eval).clone(),
            test_accuracy: ctx.trained_accuracy(&best),
            cost: SearchCost {
                wall_clock_seconds: start.elapsed().as_secs_f64(),
                simulated_gpu_hours: 0.0,
                evaluations: ctx.evaluation_count() - evaluations_before,
                cache: ctx.cache_stats().since(&cache_before),
            },
            algorithm: self.name().to_string(),
            history,
        };
        observer.on_event(&SearchEvent::Finished { outcome: &outcome });
        Ok(outcome)
    }
}

// ---------------------------------------------------------------------------
// Wiring both into a session
// ---------------------------------------------------------------------------

fn main() -> MicroResult<()> {
    // The custom proxy joins the session; its metric id gets an objective
    // weight next to the built-in indicators.
    let weights = ObjectiveWeights::latency_guided(1.0).with_metric("act_sparsity", 0.25);
    let session = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::fast())
        .proxy(Arc::new(ActivationSparsityProxy::new()))
        .objective(weights.clone())
        .build()?;

    let annealer = SimulatedAnnealing::new(weights, 48);
    let outcome = session.run(&annealer)?;
    println!("{}:", outcome.algorithm);
    println!("  best architecture:   {}", outcome.best);
    println!("  surrogate accuracy:  {:.2}%", outcome.test_accuracy);
    println!(
        "  act_sparsity metric: {:+.4}",
        outcome
            .evaluation
            .metrics
            .get("act_sparsity")
            .expect("plugin metric present")
    );
    println!(
        "  {} evaluations in {:.2}s ({} cache hits / {} misses)",
        outcome.cost.evaluations,
        outcome.cost.wall_clock_seconds,
        outcome.cost.cache.hits,
        outcome.cost.cache.misses,
    );

    // Determinism: the same session seed reproduces the same trajectory.
    let again = session.run(&SimulatedAnnealing::new(
        ObjectiveWeights::latency_guided(1.0).with_metric("act_sparsity", 0.25),
        48,
    ))?;
    assert_eq!(outcome.history, again.history, "annealing is deterministic");
    assert_eq!(outcome.best.index(), again.best.index());
    println!("  re-run reproduced the trajectory bit for bit");

    // The built-in pruning search through the same session, for comparison.
    let micronas = session.run_micronas()?;
    println!("\nMicroNAS pruning on the same session:");
    println!("  best architecture:   {}", micronas.best);
    println!("  surrogate accuracy:  {:.2}%", micronas.test_accuracy);
    Ok(())
}
