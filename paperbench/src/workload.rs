//! The three closed-loop workloads. Each drives the program only through
//! its stable public API: `SearchSession::builder()…run_micronas()`,
//! `experiments::run_paper_sweep` and `EvalStore::open`.

use micronas::experiments::{run_paper_sweep, SweepScale};
use micronas::{MicroNasConfig, ObjectiveWeights, SearchOutcome, SearchSession};
use micronas_store::EvalStore;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

pub type BoxError = Box<dyn std::error::Error>;

pub const NAMES: [&str; 3] = ["search_paper", "grid_cold", "grid_warm"];

/// Inputs one run covers. The work of an op depends strongly on the
/// configuration seed (the pruning path of `search_paper` evaluates 82
/// unique candidates at one seed and 143 at another), so a run averages
/// over several seeds instead of resting on one.
pub fn inputs_per_run(name: &str) -> usize {
    match name {
        // A paper search costs 9–16 s on two vCPUs and its cost varies by
        // up to 1.7x between seeds. Each input adds an untimed reference
        // search, so three inputs with one op each make a run of about 75 s.
        "search_paper" => 3,
        // A cold grid costs under a second and its cost varies by half
        // between seeds.
        "grid_cold" => 8,
        // A warm grid op is milliseconds, but each input's set-up runs a
        // cold pass.
        _ => 4,
    }
}

/// The `MicroNasConfig::seed` of input `i` of the run with seed `seed`.
/// Input 0 is the run seed itself; the others sit 2^32 apart, so runs with
/// different seeds below 2^32 share no input.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64) << 32)
}

/// Work counters of one op that only the program's public results expose.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCounters {
    /// Wall time of the op's `run_micronas` or `run_paper_sweep` call.
    pub run_s: f64,
    /// Unique candidates the search evaluated (`SearchCost::evaluations`).
    pub ctx_evaluations: u64,
    pub ctx_hits: u64,
    pub ctx_misses: u64,
    /// Store traffic over the op (`SweepReport::store`).
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_entries: u64,
    /// Wall time of the op's own `EvalStore::open`.
    pub store_open_s: f64,
    /// Records resident right after that open (replayed from the log).
    pub store_replayed: u64,
    /// Size of the store log once the op is done.
    pub store_log_bytes: u64,
}

/// The result of one op: whether it matched the reference, and its counters.
pub struct OpResult {
    pub matches: bool,
    pub counters: OpCounters,
}

pub trait Workload {
    /// How `setup_s` is measured: `(reps, batch)`. Each of `reps` timings
    /// covers `batch` back-to-back set-ups, so a set-up far shorter than the
    /// clock's jitter still reads steadily; `setup_s` is the median
    /// per-set-up time.
    fn setup_plan(&self) -> (usize, usize);
    /// One set-up: the work a user pays before the first op.
    fn setup(&mut self) -> Result<(), BoxError>;
    /// Computes, untimed, the reference every op must match, through a path
    /// the program documents as bitwise identical to the op's.
    fn reference(&mut self) -> Result<(), BoxError>;
    /// One op of the closed loop.
    fn op(&mut self) -> Result<OpResult, BoxError>;
    /// Removes files an op left behind; runs outside the timed region.
    fn cleanup(&mut self) {}
}

pub fn build(name: &str, seed: u64, tmp: &Path) -> Option<Box<dyn Workload>> {
    match name {
        "search_paper" => Some(Box::new(SearchPaper::new(seed))),
        "grid_cold" => Some(Box::new(Grid::new(seed, tmp, false))),
        "grid_warm" => Some(Box::new(Grid::new(seed, tmp, true))),
        _ => None,
    }
}

/// What a search must reproduce bit for bit.
#[derive(PartialEq)]
struct SearchIdentity {
    best_index: usize,
    history_bits: Vec<u64>,
    evaluation: String,
}

impl SearchIdentity {
    fn of(outcome: &SearchOutcome) -> Self {
        Self {
            best_index: outcome.best.index(),
            history_bits: outcome.history.iter().map(|v| v.to_bits()).collect(),
            // `Debug` prints every float in its shortest exact form.
            evaluation: format!("{:?}", outcome.evaluation),
        }
    }
}

/// `search_paper`: the paper's pruning search at `paper_default()` with the
/// paper-scale latency weight, in a fresh session without a store.
struct SearchPaper {
    config: MicroNasConfig,
    weights: ObjectiveWeights,
    reference: Option<SearchIdentity>,
}

impl SearchPaper {
    fn new(seed: u64) -> Self {
        Self {
            config: MicroNasConfig::paper_default().with_seed(seed),
            weights: ObjectiveWeights::latency_guided(SweepScale::paper().latency_weight),
            reference: None,
        }
    }

    fn session(&self, store: Option<Arc<EvalStore>>) -> Result<SearchSession, BoxError> {
        let mut builder = SearchSession::builder()
            .config(self.config.clone())
            .objective(self.weights.clone());
        if let Some(store) = store {
            builder = builder.store(store);
        }
        Ok(builder.build()?)
    }
}

impl Workload for SearchPaper {
    fn setup_plan(&self) -> (usize, usize) {
        // A session builds in about a microsecond.
        (9, 1000)
    }

    fn setup(&mut self) -> Result<(), BoxError> {
        std::hint::black_box(self.session(None)?);
        Ok(())
    }

    fn reference(&mut self) -> Result<(), BoxError> {
        // An attached store changes where evaluations come from, never
        // their values.
        let store = Arc::new(EvalStore::in_memory(self.config.store_namespace()));
        let outcome = self.session(Some(store))?.run_micronas()?;
        self.reference = Some(SearchIdentity::of(&outcome));
        Ok(())
    }

    fn op(&mut self) -> Result<OpResult, BoxError> {
        let session = self.session(None)?;
        let started = Instant::now();
        let outcome = session.run_micronas()?;
        let run_s = started.elapsed().as_secs_f64();
        let cost = &outcome.cost;
        Ok(OpResult {
            matches: self.reference.as_ref() == Some(&SearchIdentity::of(&outcome)),
            counters: OpCounters {
                run_s,
                ctx_evaluations: cost.evaluations as u64,
                ctx_hits: cost.cache.hits as u64,
                ctx_misses: cost.cache.misses as u64,
                ..OpCounters::default()
            },
        })
    }
}

/// `grid_cold` and `grid_warm`: the paper grid at `fast()` scale against a
/// persistent store, written fresh by each op (cold) or replayed from the
/// log the set-up wrote (warm).
struct Grid {
    config: MicroNasConfig,
    scale: SweepScale,
    tmp: PathBuf,
    warm: bool,
    /// Logs this input wrote so far; with the seed, names stay unique in
    /// the run's directory.
    logs: usize,
    /// The log the warm ops reopen.
    warm_log: Option<PathBuf>,
    /// A cold op's log, removed after the op.
    stale: Option<PathBuf>,
    reference: Option<u64>,
}

impl Grid {
    fn new(seed: u64, tmp: &Path, warm: bool) -> Self {
        Self {
            config: MicroNasConfig::fast().with_seed(seed),
            scale: SweepScale::fast(),
            tmp: tmp.to_path_buf(),
            warm,
            logs: 0,
            warm_log: None,
            stale: None,
            reference: None,
        }
    }

    fn fresh_log(&mut self) -> PathBuf {
        self.logs += 1;
        self.tmp
            .join(format!("store-{}-{}.log", self.config.seed, self.logs))
    }

    /// Opens `path` and runs the grid against it.
    fn sweep(&self, path: &Path) -> Result<OpResult, BoxError> {
        let opened = Instant::now();
        let store = Arc::new(EvalStore::open(path, self.config.store_namespace())?);
        let store_open_s = opened.elapsed().as_secs_f64();
        let store_replayed = store.len() as u64;
        let started = Instant::now();
        let report = run_paper_sweep(&self.config, &self.scale, Some(store))?;
        let run_s = started.elapsed().as_secs_f64();
        let stats = report.store.unwrap_or_default();
        Ok(OpResult {
            matches: self.reference == Some(report.identity_fingerprint()),
            counters: OpCounters {
                run_s,
                store_hits: stats.hits,
                store_misses: stats.misses,
                store_entries: stats.entries,
                store_open_s,
                store_replayed,
                store_log_bytes: std::fs::metadata(path)?.len(),
                ..OpCounters::default()
            },
        })
    }
}

impl Workload for Grid {
    fn setup_plan(&self) -> (usize, usize) {
        if self.warm {
            (1, 1)
        } else {
            (9, 1000)
        }
    }

    fn setup(&mut self) -> Result<(), BoxError> {
        // Both grids start from the session the grid's searches run in;
        // the warm grid also pays the cold pass that writes its log.
        std::hint::black_box(
            SearchSession::builder()
                .config(self.config.clone())
                .build()?,
        );
        if self.warm {
            let path = self.fresh_log();
            let store = Arc::new(EvalStore::open(&path, self.config.store_namespace())?);
            run_paper_sweep(&self.config, &self.scale, Some(store))?;
            if let Some(previous) = self.warm_log.replace(path) {
                std::fs::remove_file(previous)?;
            }
        }
        Ok(())
    }

    fn reference(&mut self) -> Result<(), BoxError> {
        // The grid is bitwise identical with the store disabled, cold or warm.
        let report = run_paper_sweep(&self.config, &self.scale, None)?;
        self.reference = Some(report.identity_fingerprint());
        Ok(())
    }

    fn op(&mut self) -> Result<OpResult, BoxError> {
        if self.warm {
            let path = self.warm_log.clone().expect("set-up wrote the warm log");
            self.sweep(&path)
        } else {
            let path = self.fresh_log();
            self.stale = Some(path.clone());
            self.sweep(&path)
        }
    }

    fn cleanup(&mut self) {
        if let Some(path) = self.stale.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}
