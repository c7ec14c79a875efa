//! MicroNAS: hardware-aware zero-shot neural architecture search for MCUs.
//!
//! This crate is the reproduction of the paper's primary contribution. It
//! combines zero-cost network-analysis indicators from [`micronas_proxies`]
//! (NTK condition number, linear-region count, plus any [`Proxy`] plugin)
//! with the hardware indicators from [`micronas_hw`] (FLOPs, estimated MCU
//! latency, peak memory) into a single **hybrid objective** with per-metric
//! weights, and searches the NAS-Bench-201 cell space with a
//! **hardware-aware pruning algorithm**: starting from the full supernet,
//! operations are greedily removed — least useful first,
//! hardware-infeasible first of all — until a single architecture remains.
//! No candidate is ever trained.
//!
//! # The pluggable search surface
//!
//! Three traits make the pipeline open for extension without cross-crate
//! surgery:
//!
//! * [`Proxy`] — a train-free scoring function with a stable persistent
//!   identity; register any number per session.
//! * [`SearchStrategy`] — a search algorithm; the pruning search and both
//!   baselines (random, µNAS-style evolution) implement it, and external
//!   strategies plug in as `&dyn SearchStrategy`.
//! * [`SearchObserver`] — a progress-event sink receiving one
//!   deterministic [`SearchEvent`] per decision step.
//!
//! A [`SearchSession`] ties them together: one builder configures the
//! dataset, proxy scale, plugins, objective weights, the optional shared
//! [`micronas_store::EvalStore`] and the observer, and every strategy run
//! through the session shares its caches.
//!
//! The crate also implements the search-cost accounting used for the
//! paper's 1104× efficiency claim and an [`experiments`] module that
//! regenerates every table and figure of the paper's evaluation section.
//!
//! # Quick start
//!
//! ```no_run
//! use micronas::{MicroNasConfig, ObjectiveWeights, SearchSession};
//! use micronas_datasets::DatasetKind;
//!
//! # fn main() -> Result<(), micronas::MicroNasError> {
//! // Latency-guided search on CIFAR-10 for the paper's STM32F746 target.
//! let session = SearchSession::builder()
//!     .dataset(DatasetKind::Cifar10)
//!     .config(MicroNasConfig::fast())
//!     .objective(ObjectiveWeights::latency_guided(1.0))
//!     .build()?;
//! let outcome = session.run_micronas()?;
//! println!("discovered {} in {:.1}s", outcome.best, outcome.cost.wall_clock_seconds);
//! # Ok(())
//! # }
//! ```
//!
//! Custom proxies and strategies join the same session:
//!
//! ```no_run
//! use micronas::{MicroNasConfig, ObjectiveWeights, RandomSearch, SearchSession};
//! use micronas_proxies::{metric_ids, SynFlowConfig, SynFlowProxy};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), micronas::MicroNasError> {
//! let session = SearchSession::builder()
//!     .config(MicroNasConfig::fast())
//!     .proxy(Arc::new(SynFlowProxy::new(SynFlowConfig::fast())))
//!     .objective(ObjectiveWeights::accuracy_only().with_metric(metric_ids::SYNFLOW, 0.5))
//!     .build()?;
//! let outcome = session.run(&RandomSearch::new(session.weights().clone(), 64)?)?;
//! # let _ = outcome;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod batch;
mod config;
mod context;
mod cost;
mod error;
pub mod events;
pub mod experiments;
mod objective;
mod outcome;
mod search;
mod session;

pub use config::MicroNasConfig;
pub use context::{CandidateEvaluation, SearchContext};
pub use cost::{EvalCacheStats, SearchCost};
pub use error::MicroNasError;
pub use events::{replay_diff, replay_events, EventRecorder, RecordedEvent};
pub use objective::{HybridObjective, ObjectiveWeights};
pub use outcome::SearchOutcome;
pub use search::{
    EvolutionaryConfig, EvolutionarySearch, MicroNasSearch, NullObserver, RandomSearch,
    SearchEvent, SearchObserver, SearchStrategy,
};
pub use session::{SearchSession, SearchSessionBuilder};

// Re-exported so `Proxy` and `SearchEvent` doc links in this crate resolve
// and downstream users need only one import root for the common surface.
pub use micronas_proxies::{metric_ids, MetricSet, Proxy};

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MicroNasError>;
