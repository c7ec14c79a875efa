use crate::batch::SlatePlan;
use crate::{EvalCacheStats, MicroNasConfig, Result};
use micronas_datasets::DatasetKind;
use micronas_hw::{HardwareConstraints, HardwareEvaluator, HardwareIndicators};
use micronas_nasbench::SurrogateBenchmark;
use micronas_proxies::{MetricSet, Proxy, ZeroCostEvaluator, ZeroCostMetrics};
use micronas_searchspace::{Architecture, CellTopology, MacroSkeleton, SearchSpace};
use micronas_store::{
    custom_proxy_digest, ArchDigest, EvalKey, EvalRecord, EvalStore, GetOrInsertError,
};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One registered pluggable proxy plus its precomputed store identity.
struct RegisteredProxy {
    proxy: Arc<dyn Proxy>,
    /// [`custom_proxy_digest`] of `(id, config fingerprint)`, computed once.
    digest: u64,
}

/// A cache that computes each entry at most once. Concurrent requests for
/// one key wait for the first and are then served its value, so "this
/// request ran the initializer" is decided by the cache rather than by
/// thread interleaving.
struct OnceCache<K, V> {
    slots: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K: Eq + Hash, V: Clone> OnceCache<K, V> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// The cached value of `key` and `false`, or the value `init` computed
    /// for it and `true`. A failed `init` caches nothing.
    fn get_or_try_init(&self, key: K, init: impl FnOnce() -> Result<V>) -> Result<(V, bool)> {
        let slot = Arc::clone(
            self.slots
                .lock()
                .entry(key)
                .or_insert_with(|| Arc::new(Mutex::new(None))),
        );
        let mut value = slot.lock();
        if let Some(cached) = &*value {
            return Ok((cached.clone(), false));
        }
        let fresh = init()?;
        *value = Some(fresh.clone());
        Ok((fresh, true))
    }

    /// Number of keys requested so far.
    fn len(&self) -> usize {
        self.slots.lock().len()
    }
}

/// Everything a search algorithm needs to evaluate candidates on one dataset:
/// the search space, the zero-cost proxies, the hardware evaluator, the
/// hardware budgets and (for baselines and final reporting only) the
/// surrogate accuracy benchmark.
///
/// # Caching and the shared evaluation store
///
/// Candidate evaluations are cached at two levels. The context's own cache
/// (keyed by architecture index) makes repeated visits during pruning or
/// evolution free, mirroring how the paper's implementation caches its
/// per-operation measurements. Optionally, a shared
/// [`micronas_store::EvalStore`] sits behind it: a content-addressed,
/// possibly persistent store that other searches — in this process or an
/// earlier one — may already have warmed (see [`SearchContext::with_store`]).
///
/// # Canonical evaluation
///
/// Proxy and hardware values are always computed on the cell's *canonical
/// form* (the representative of its isomorphism orbit —
/// [`CellTopology::canonical_form`]). Evaluation is therefore a pure
/// function of architecture *identity* rather than representation: two
/// isomorphic cells receive bitwise-identical scores, and results are
/// bitwise-identical whether the store is enabled, disabled or pre-warmed.
///
/// # Pluggable proxies
///
/// Beyond the two built-in indicators, any number of [`Proxy`] plugins can
/// be registered ([`SearchContext::with_proxies`], usually via
/// `SearchSession::builder().proxies(..)`). Each plugin's score joins the
/// candidate's [`MetricSet`] under the proxy's id and is cached in the
/// shared store under a `ProxyKind::Custom` key derived from the proxy's
/// stable identity — adding a proxy never perturbs the built-in records.
pub struct SearchContext {
    space: SearchSpace,
    dataset: DatasetKind,
    zero_cost: ZeroCostEvaluator,
    extra_proxies: Vec<RegisteredProxy>,
    hardware: HardwareEvaluator,
    constraints: HardwareConstraints,
    benchmark: SurrogateBenchmark,
    seed: u64,
    ntk_batch: u16,
    store: Option<Arc<EvalStore>>,
    /// Full evaluations by architecture index. `Arc`-boxed so a cache hit
    /// costs one refcount bump, never a deep clone of the heap-backed
    /// [`MetricSet`].
    cache: OnceCache<usize, Arc<CandidateEvaluation>>,
    /// Hardware indicators by canonical digest, so feasibility checks of
    /// revisited or isomorphic cells skip the hardware pass.
    hw_cache: OnceCache<u64, HardwareIndicators>,
    evaluations: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// The cached evaluation record of one candidate architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateEvaluation {
    /// The candidate's index in the search space.
    pub arch_index: usize,
    /// Every network-analysis metric of the candidate, by id: the built-in
    /// indicators (`ntk_condition`, `linear_regions`, `trainability`,
    /// `expressivity`) followed by one entry per registered pluggable
    /// proxy, in registration order.
    pub metrics: MetricSet,
    /// Hardware indicators.
    pub hardware: HardwareIndicators,
    /// Whether the candidate satisfies the context's hardware constraints.
    pub feasible: bool,
}

impl SearchContext {
    /// Builds a context for `dataset` from a [`MicroNasConfig`], without a
    /// shared store (the context still caches privately).
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(dataset: DatasetKind, config: &MicroNasConfig) -> Result<Self> {
        Self::build(dataset, config, None, Vec::new())
    }

    /// Builds a context that shares (and warms) `store`. The store must have
    /// been created for this configuration's namespace
    /// ([`MicroNasConfig::store_namespace`]); sharing a store across
    /// incompatible proxy/hardware configurations would serve wrong values.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid or the store
    /// namespace does not match the configuration.
    pub fn with_store(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Arc<EvalStore>,
    ) -> Result<Self> {
        ensure_store_namespace(&store, config)?;
        Self::build(dataset, config, Some(store), Vec::new())
    }

    /// Builds a context with additional pluggable proxies (and optionally a
    /// shared store). Every registered proxy is evaluated per candidate, its
    /// score published in the candidate's [`MetricSet`] under the proxy's id
    /// and cached in the store under a `ProxyKind::Custom` key.
    ///
    /// Proxy ids must be unique (and must not collide with the built-in
    /// metric ids), or two plugins would overwrite each other's metrics and
    /// cached records.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, a proxy id
    /// collides, or the store namespace does not match the configuration.
    pub fn with_proxies(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Option<Arc<EvalStore>>,
        proxies: Vec<Arc<dyn Proxy>>,
    ) -> Result<Self> {
        if let Some(store) = store.as_deref() {
            ensure_store_namespace(store, config)?;
        }
        Self::build(dataset, config, store, proxies)
    }

    fn build(
        dataset: DatasetKind,
        config: &MicroNasConfig,
        store: Option<Arc<EvalStore>>,
        proxies: Vec<Arc<dyn Proxy>>,
    ) -> Result<Self> {
        config.validate()?;
        let extra_proxies = register_proxies(proxies)?;
        let benchmark = SurrogateBenchmark::new(config.seed);
        let skeleton = benchmark.skeleton_for(dataset);
        let zero_cost = ZeroCostEvaluator::with_backend(
            config.ntk,
            config.linear_regions,
            config.backend.instantiate(),
        );
        Ok(Self {
            space: SearchSpace::nas_bench_201(),
            dataset,
            zero_cost,
            extra_proxies,
            hardware: HardwareEvaluator::new(skeleton, config.mcu.clone()),
            constraints: config.constraints,
            benchmark,
            seed: config.seed,
            ntk_batch: config.ntk.batch_size as u16,
            store,
            cache: OnceCache::new(),
            hw_cache: OnceCache::new(),
            evaluations: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        })
    }

    /// The search space.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The dataset the search targets.
    pub fn dataset(&self) -> DatasetKind {
        self.dataset
    }

    /// The hardware budgets in force.
    pub fn constraints(&self) -> &HardwareConstraints {
        &self.constraints
    }

    /// The macro skeleton used for hardware estimation.
    pub fn skeleton(&self) -> &MacroSkeleton {
        self.hardware.skeleton()
    }

    /// The surrogate benchmark (used by training-based baselines and for
    /// reporting the final accuracy of discovered models).
    pub fn benchmark(&self) -> &SurrogateBenchmark {
        &self.benchmark
    }

    /// The hardware evaluator.
    pub fn hardware(&self) -> &HardwareEvaluator {
        &self.hardware
    }

    /// The zero-cost evaluator.
    pub fn zero_cost(&self) -> &ZeroCostEvaluator {
        &self.zero_cost
    }

    /// Ids of the registered pluggable proxies, in registration order.
    pub fn extra_proxy_ids(&self) -> impl Iterator<Item = &str> {
        self.extra_proxies.iter().map(|p| p.proxy.id())
    }

    /// The shared evaluation store, if one is attached.
    pub fn store(&self) -> Option<&Arc<EvalStore>> {
        self.store.as_ref()
    }

    /// The reproducibility seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of distinct architectures evaluated so far (cache misses).
    pub fn evaluation_count(&self) -> usize {
        self.evaluations.load(Ordering::Relaxed)
    }

    /// Snapshot of the hit/miss counters: requests served from the context
    /// cache or the shared store versus freshly computed proxy passes.
    pub fn cache_stats(&self) -> EvalCacheStats {
        EvalCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Fetches (or computes) the zero-cost metrics of the canonical cell.
    fn fetch_zero_cost(&self, canonical: CellTopology) -> Result<ZeroCostMetrics> {
        let Some(store) = &self.store else {
            self.count(false);
            return Ok(self
                .zero_cost
                .evaluate(canonical, self.dataset, self.seed)?);
        };
        let key = EvalKey::zero_cost(&canonical, self.dataset, self.seed, self.ntk_batch);
        let (record, hit) = store
            .get_or_try_insert_with(key, || {
                self.zero_cost
                    .evaluate(canonical, self.dataset, self.seed)
                    .map(EvalRecord::ZeroCost)
            })
            .map_err(flatten_store_error)?;
        self.count(hit);
        record
            .as_zero_cost()
            .ok_or_else(|| record_kind_error("zero-cost"))
    }

    /// Fetches (or computes) one pluggable proxy's score of the canonical
    /// cell, cached under its `ProxyKind::Custom` store key.
    fn fetch_custom(&self, canonical: CellTopology, entry: &RegisteredProxy) -> Result<f64> {
        let Some(store) = &self.store else {
            self.count(false);
            return Ok(entry.proxy.evaluate(canonical, self.dataset, self.seed)?);
        };
        let key = EvalKey::custom(&canonical, self.dataset, self.seed, entry.digest, 0);
        let (record, hit) = store
            .get_or_try_insert_with(key, || {
                entry
                    .proxy
                    .evaluate(canonical, self.dataset, self.seed)
                    .map(EvalRecord::Scalar)
            })
            .map_err(flatten_store_error)?;
        self.count(hit);
        record
            .as_scalar()
            .ok_or_else(|| record_kind_error(entry.proxy.id()))
    }

    /// Fetches (or computes) the hardware indicators of the canonical cell.
    /// Only the request that fills the hardware cache reaches the store and
    /// counts what it found there; every other request counts a hit.
    fn fetch_hardware(&self, canonical: CellTopology) -> Result<HardwareIndicators> {
        let digest = ArchDigest::of(&canonical).value();
        let (indicators, fresh) = self.hw_cache.get_or_try_init(digest, || {
            let Some(store) = &self.store else {
                self.count(false);
                return Ok(self.hardware.evaluate(canonical));
            };
            let key = EvalKey::hardware(&canonical, self.dataset);
            let (record, hit) = store
                .get_or_try_insert_with(key, || {
                    Ok::<_, crate::MicroNasError>(EvalRecord::Hardware(
                        self.hardware.evaluate(canonical),
                    ))
                })
                .map_err(flatten_store_error)?;
            self.count(hit);
            record
                .as_hardware()
                .ok_or_else(|| record_kind_error("hardware"))
        })?;
        if !fresh {
            self.count(true);
        }
        Ok(indicators)
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one evaluation's worth of record fetches as hits. The unit of
    /// the hit/miss counters is one *record* fetch, and a full evaluation
    /// fetches one record per proxy family (zero-cost + hardware + each
    /// registered plugin), so an evaluation served without fetching counts
    /// them all — hit rates stay comparable across cache layers and store
    /// modes.
    fn count_evaluation_hits(&self) {
        self.hits
            .fetch_add(2 + self.extra_proxies.len(), Ordering::Relaxed);
    }

    /// The cached evaluation of architecture `index`, or the one `compute`
    /// builds for it. `compute` runs at most once per architecture; the
    /// requests it does not run for count as context-cache hits.
    fn cached(
        &self,
        index: usize,
        compute: impl FnOnce() -> Result<CandidateEvaluation>,
    ) -> Result<Arc<CandidateEvaluation>> {
        let (eval, fresh) = self
            .cache
            .get_or_try_init(index, || compute().map(Arc::new))?;
        if fresh {
            self.evaluations.fetch_add(1, Ordering::Relaxed);
        } else {
            self.count_evaluation_hits();
        }
        Ok(eval)
    }

    /// Evaluates (or retrieves from cache) the zero-cost and hardware
    /// indicators of a cell.
    ///
    /// Returns a shared handle to the cached record: a warm hit costs one
    /// refcount bump, never a deep copy of the metric set.
    ///
    /// Safe to call from parallel candidate-scoring workers. The result is a
    /// pure function of `(architecture identity, dataset, seed)` — proxies
    /// run on the cell's canonical form. Each architecture is computed by
    /// the first request only: a concurrent request for the same
    /// architecture waits for it and counts its record fetches as hits, as
    /// if it had found the cell cached. The evaluation and hit/miss counters
    /// are therefore independent of thread count and interleaving. (Two
    /// *isomorphic* cells evaluated concurrently against a shared store both
    /// reach the store; [`SearchContext::evaluate_all`] deduplicates them
    /// first.)
    ///
    /// # Errors
    ///
    /// Propagates proxy evaluation failures.
    pub fn evaluate(&self, cell: CellTopology) -> Result<Arc<CandidateEvaluation>> {
        let index = Architecture::from_cell(&self.space, cell).index();
        self.cached(index, || {
            let canonical = cell.canonical_form();
            let mut metrics = self.fetch_zero_cost(canonical)?.metric_set();
            for entry in &self.extra_proxies {
                metrics.insert(entry.proxy.id(), self.fetch_custom(canonical, entry)?);
            }
            let hardware = self.fetch_hardware(canonical)?;
            Ok(CandidateEvaluation {
                arch_index: index,
                metrics,
                feasible: self.constraints.satisfied_by(&hardware),
                hardware,
            })
        })
    }

    /// Evaluates a whole candidate slate on the rayon pool and returns the
    /// evaluations in slate order.
    ///
    /// The slate is first deduplicated by canonical digest; each distinct
    /// canonical class is then evaluated once, by its first member in slate
    /// order, and exact duplicates and isomorphic twins are resolved
    /// afterwards, in slate order, from their class's evaluation (counting
    /// as context-cache hits). Element `i` is bitwise what
    /// [`SearchContext::evaluate`] returns for `cells[i]`, and the results
    /// and counters are identical at every thread count: no two workers
    /// ever fetch the same store record.
    ///
    /// # Errors
    ///
    /// Propagates proxy evaluation failures (the first failing class in
    /// slate order wins).
    pub fn evaluate_all(&self, cells: &[CellTopology]) -> Result<Vec<Arc<CandidateEvaluation>>> {
        let SlatePlan {
            representatives,
            classes,
        } = SlatePlan::of(cells);
        let evaluated: Vec<Arc<CandidateEvaluation>> = representatives
            .par_iter()
            .map(|&cell| self.evaluate(cell))
            .collect::<Result<_>, _>()?;
        let mut resolved = vec![false; evaluated.len()];
        cells
            .iter()
            .zip(classes)
            .map(|(&cell, class)| {
                let class_eval = &evaluated[class];
                if !std::mem::replace(&mut resolved[class], true) {
                    return Ok(Arc::clone(class_eval));
                }
                let index = Architecture::from_cell(&self.space, cell).index();
                self.cached(index, || {
                    self.count_evaluation_hits();
                    Ok(CandidateEvaluation {
                        arch_index: index,
                        ..(**class_eval).clone()
                    })
                })
            })
            .collect()
    }

    /// The hardware indicators of a cell, served from the caches or the
    /// shared store when possible. Cheaper than [`SearchContext::evaluate`]
    /// because no zero-cost proxies run.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn hardware_indicators(&self, cell: CellTopology) -> Result<HardwareIndicators> {
        self.fetch_hardware(cell.canonical_form())
    }

    /// Whether a cell satisfies this context's hardware budgets, using the
    /// cached/stored hardware indicators. Revisited cells — e.g. mutated
    /// children that land on an already-scored architecture — hit the store
    /// instead of paying a fresh hardware pass.
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn is_feasible(&self, cell: CellTopology) -> Result<bool> {
        Ok(self
            .constraints
            .satisfied_by(&self.hardware_indicators(cell)?))
    }

    /// The surrogate "trained" accuracy of an architecture — never consulted
    /// by the zero-shot search itself, only by training-based baselines and
    /// final reporting.
    pub fn trained_accuracy(&self, arch: &Architecture) -> f64 {
        self.benchmark.query(arch, self.dataset).test_accuracy
    }
}

/// Validates a set of pluggable proxies and precomputes their store
/// identities. Rejects duplicate ids and collisions with the metric ids the
/// built-in indicators always publish — either would overwrite entries in
/// every candidate's [`MetricSet`] and alias cached store records.
fn register_proxies(proxies: Vec<Arc<dyn Proxy>>) -> Result<Vec<RegisteredProxy>> {
    let mut registered: Vec<RegisteredProxy> = Vec::with_capacity(proxies.len());
    for proxy in proxies {
        let id = proxy.id();
        if micronas_proxies::metric_ids::BUILT_IN.contains(&id) {
            return Err(crate::MicroNasError::InvalidConfig(format!(
                "proxy id {id:?} collides with a built-in metric id"
            )));
        }
        if registered.iter().any(|r| r.proxy.id() == id) {
            return Err(crate::MicroNasError::InvalidConfig(format!(
                "duplicate proxy id {id:?}"
            )));
        }
        let digest = custom_proxy_digest(id, proxy.config_fingerprint());
        registered.push(RegisteredProxy { proxy, digest });
    }
    Ok(registered)
}

/// Verifies that `store` was opened for `config`'s evaluation namespace.
/// Every entry point that reads or writes a store on behalf of a
/// configuration must call this first — serving or appending records under
/// the wrong namespace would poison the store's persistent log.
///
/// # Errors
///
/// Returns [`crate::MicroNasError::InvalidConfig`] on a mismatch.
pub(crate) fn ensure_store_namespace(store: &EvalStore, config: &MicroNasConfig) -> Result<()> {
    if store.namespace() != config.store_namespace() {
        return Err(crate::MicroNasError::InvalidConfig(format!(
            "evaluation store namespace {:#018x} does not match the \
             configuration's {:#018x}",
            store.namespace(),
            config.store_namespace()
        )));
    }
    Ok(())
}

/// Maps a store-layer error (compute failure or log I/O) onto the crate
/// error type.
fn flatten_store_error<E: Into<crate::MicroNasError>>(
    e: GetOrInsertError<E>,
) -> crate::MicroNasError {
    match e {
        GetOrInsertError::Compute(e) => e.into(),
        GetOrInsertError::Store(e) => e.into(),
    }
}

/// A record of an unexpected kind under a typed key — only possible if a
/// foreign log was forged into the store's namespace.
fn record_kind_error(expected: &str) -> crate::MicroNasError {
    crate::MicroNasError::Store(format!(
        "store returned a record of the wrong kind (expected {expected})"
    ))
}

impl std::fmt::Debug for SearchContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SearchContext")
            .field("dataset", &self.dataset)
            .field("seed", &self.seed)
            .field("cached_evaluations", &self.cache.len())
            .field("store", &self.store.as_ref().map(|s| s.namespace()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MicroNasConfig;
    use micronas_searchspace::Operation;

    #[test]
    fn evaluations_are_cached() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = ctx.space().cell(5_000).unwrap();
        let a = ctx.evaluate(cell).unwrap();
        assert_eq!(ctx.evaluation_count(), 1);
        let b = ctx.evaluate(cell).unwrap();
        assert_eq!(
            ctx.evaluation_count(),
            1,
            "second evaluation must hit the cache"
        );
        assert_eq!(a, b);
        let stats = ctx.cache_stats();
        assert!(stats.hits >= 1, "the revisit counts as a hit");
        assert!(stats.misses >= 1, "the first visit computed fresh values");
    }

    #[test]
    fn isomorphic_cells_evaluate_identically() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv1x1,
            Operation::None,
        ]);
        let twin = cell.intermediate_swap().unwrap();
        let a = ctx.evaluate(cell).unwrap();
        let b = ctx.evaluate(twin).unwrap();
        assert_ne!(a.arch_index, b.arch_index, "distinct representations");
        assert_eq!(a.metrics, b.metrics, "identical proxy scores");
        assert_eq!(a.hardware, b.hardware, "identical hardware indicators");
    }

    #[test]
    fn shared_store_serves_hits_across_contexts() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);

        let ctx1 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let a = ctx1.evaluate(cell).unwrap();
        let cold = store.stats();
        assert!(cold.misses > 0, "cold store computes fresh values");

        // A brand-new context with an empty private cache: everything must
        // come from the shared store.
        let ctx2 = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let b = ctx2.evaluate(cell).unwrap();
        assert_eq!(a, b);
        let warm = store.stats().since(&cold);
        assert_eq!(warm.misses, 0, "warm store must not recompute");
        assert!(warm.hits >= 2, "zero-cost and hardware records both hit");
    }

    #[test]
    fn store_modes_agree_bitwise() {
        let config = MicroNasConfig::tiny_test();
        let cell = CellTopology::new([
            Operation::SkipConnect,
            Operation::NorConv1x1,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv3x3,
            Operation::None,
        ]);

        let off = SearchContext::new(DatasetKind::Cifar10, &config)
            .unwrap()
            .evaluate(cell)
            .unwrap();

        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let cold = SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone())
            .unwrap()
            .evaluate(cell)
            .unwrap();
        let warm = SearchContext::with_store(DatasetKind::Cifar10, &config, store)
            .unwrap()
            .evaluate(cell)
            .unwrap();

        assert_eq!(off, cold, "store-off vs cold store");
        assert_eq!(off, warm, "store-off vs pre-warmed store");
    }

    #[test]
    fn mismatched_store_namespace_is_rejected() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(12345));
        assert!(SearchContext::with_store(DatasetKind::Cifar10, &config, store).is_err());
    }

    #[test]
    fn feasibility_uses_the_hardware_cache() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);
        assert!(ctx.is_feasible(cell).unwrap());
        let after_first = ctx.cache_stats();
        assert!(ctx.is_feasible(cell).unwrap());
        let delta = ctx.cache_stats().since(&after_first);
        assert_eq!(delta.misses, 0, "second feasibility check is cached");
        assert_eq!(delta.hits, 1);
    }

    #[test]
    fn feasibility_reflects_constraints() {
        let config = MicroNasConfig::tiny_test().with_constraints(
            micronas_hw::HardwareConstraints::unconstrained().with_latency_ms(1e-6),
        );
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let eval = ctx
            .evaluate(CellTopology::new([Operation::NorConv3x3; 6]))
            .unwrap();
        assert!(
            !eval.feasible,
            "an impossible latency budget marks everything infeasible"
        );

        let relaxed = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &relaxed).unwrap();
        let eval = ctx
            .evaluate(CellTopology::new([Operation::NorConv3x3; 6]))
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn trained_accuracy_comes_from_the_surrogate() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        let arch = ctx.space().architecture(1_234).unwrap();
        let acc = ctx.trained_accuracy(&arch);
        let direct = ctx
            .benchmark()
            .query(&arch, DatasetKind::Cifar10)
            .test_accuracy;
        assert_eq!(acc, direct);
    }

    #[test]
    fn registered_proxies_join_the_metric_set_in_order() {
        use micronas_proxies::{
            JacobianCovarianceConfig, JacobianCovarianceProxy, SynFlowConfig, SynFlowProxy,
        };

        let config = MicroNasConfig::tiny_test();
        let proxies: Vec<Arc<dyn micronas_proxies::Proxy>> = vec![
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
            Arc::new(JacobianCovarianceProxy::new(
                JacobianCovarianceConfig::fast(),
            )),
        ];
        let ctx =
            SearchContext::with_proxies(DatasetKind::Cifar10, &config, None, proxies).unwrap();
        let ids: Vec<&str> = ctx.extra_proxy_ids().collect();
        assert_eq!(ids, ["synflow", "jacob_cov"]);

        let eval = ctx.evaluate(ctx.space().cell(5_000).unwrap()).unwrap();
        let metric_ids: Vec<&str> = eval.metrics.ids().collect();
        assert_eq!(
            metric_ids,
            [
                "ntk_condition",
                "linear_regions",
                "trainability",
                "expressivity",
                "synflow",
                "jacob_cov"
            ],
            "built-ins first, then plugins in registration order"
        );
        assert!(eval.metrics.get("synflow").unwrap().is_finite());
        assert!(eval.metrics.get("jacob_cov").unwrap().is_finite());
    }

    #[test]
    fn plugin_scores_are_cached_under_custom_store_keys() {
        use micronas_proxies::{Proxy, SynFlowConfig, SynFlowProxy};

        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let proxy = SynFlowProxy::new(SynFlowConfig::fast());
        let digest = custom_proxy_digest(proxy.id(), proxy.config_fingerprint());
        let cell = CellTopology::new([Operation::NorConv3x3; 6]);
        let direct = proxy
            .evaluate(cell.canonical_form(), DatasetKind::Cifar10, config.seed)
            .unwrap();

        let ctx = SearchContext::with_proxies(
            DatasetKind::Cifar10,
            &config,
            Some(store.clone()),
            vec![Arc::new(proxy)],
        )
        .unwrap();
        let eval = ctx.evaluate(cell).unwrap();
        assert_eq!(eval.metrics.get("synflow"), Some(direct));

        // The score landed in the store under the proxy's Custom key.
        let key = EvalKey::custom(
            &cell.canonical_form(),
            DatasetKind::Cifar10,
            config.seed,
            digest,
            0,
        );
        let record = store.get(&key).expect("custom record must be stored");
        assert_eq!(record.as_scalar(), Some(direct));

        // A second context sharing the store serves the plugin from cache.
        let proxy2: Arc<dyn Proxy> = Arc::new(SynFlowProxy::new(SynFlowConfig::fast()));
        let ctx2 = SearchContext::with_proxies(
            DatasetKind::Cifar10,
            &config,
            Some(store.clone()),
            vec![proxy2],
        )
        .unwrap();
        let before = store.stats();
        let again = ctx2.evaluate(cell).unwrap();
        assert_eq!(again, eval);
        assert_eq!(
            store.stats().since(&before).misses,
            0,
            "warm store must serve the plugin score"
        );
    }

    #[test]
    fn colliding_proxy_ids_are_rejected() {
        use micronas_proxies::{SynFlowConfig, SynFlowProxy};

        let config = MicroNasConfig::tiny_test();
        let dup: Vec<Arc<dyn micronas_proxies::Proxy>> = vec![
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
            Arc::new(SynFlowProxy::new(SynFlowConfig::fast())),
        ];
        assert!(
            SearchContext::with_proxies(DatasetKind::Cifar10, &config, None, dup).is_err(),
            "duplicate plugin ids must be rejected"
        );

        struct Impostor;
        impl micronas_proxies::Proxy for Impostor {
            fn id(&self) -> &str {
                micronas_proxies::metric_ids::TRAINABILITY
            }
            fn config_fingerprint(&self) -> u64 {
                0
            }
            fn evaluate_with(
                &self,
                _cell: CellTopology,
                _dataset: DatasetKind,
                _seed: u64,
                _workspace: &mut micronas_tensor::Workspace,
            ) -> micronas_proxies::Result<f64> {
                Ok(0.0)
            }
        }
        assert!(
            SearchContext::with_proxies(
                DatasetKind::Cifar10,
                &config,
                None,
                vec![Arc::new(Impostor)]
            )
            .is_err(),
            "built-in metric ids are reserved"
        );
    }

    /// A slate mixing fresh cells, exact duplicates and an isomorphic twin —
    /// the shapes the strategies submit — with three canonical classes.
    fn mixed_slate(ctx: &SearchContext) -> Vec<CellTopology> {
        let base = CellTopology::new([
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::None,
            Operation::AvgPool3x3,
            Operation::NorConv1x1,
            Operation::None,
        ]);
        vec![
            ctx.space().cell(5_000).unwrap(),
            base,
            ctx.space().cell(7_000).unwrap(),
            ctx.space().cell(5_000).unwrap(),
            base.intermediate_swap().unwrap(),
            ctx.space().cell(7_000).unwrap(),
            base,
        ]
    }

    fn run_on_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn evaluate_all_computes_each_canonical_class_once() {
        let config = MicroNasConfig::tiny_test();
        let reference: Vec<CandidateEvaluation> = {
            let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
            mixed_slate(&ctx)
                .iter()
                .map(|&c| (*ctx.evaluate(c).unwrap()).clone())
                .collect()
        };
        let classes = 3;
        let arch_indices = 4;
        for with_store in [false, true] {
            let mut runs = Vec::new();
            for threads in [1usize, 4] {
                let ctx = match with_store {
                    false => SearchContext::new(DatasetKind::Cifar10, &config).unwrap(),
                    true => SearchContext::with_store(
                        DatasetKind::Cifar10,
                        &config,
                        Arc::new(EvalStore::in_memory(config.store_namespace())),
                    )
                    .unwrap(),
                };
                let cells = mixed_slate(&ctx);
                let evals = run_on_threads(threads, || ctx.evaluate_all(&cells).unwrap());
                let evals: Vec<CandidateEvaluation> = evals.iter().map(|e| (**e).clone()).collect();
                let label = format!("store {with_store}, {threads} threads");
                assert_eq!(evals, reference, "{label}: values");
                let stats = ctx.cache_stats();
                assert_eq!(
                    stats.misses,
                    2 * classes,
                    "{label}: one zero-cost and one hardware computation per class"
                );
                assert_eq!(
                    stats.hits,
                    2 * (cells.len() - classes),
                    "{label}: every other member is served without fetching"
                );
                assert_eq!(ctx.evaluation_count(), arch_indices, "{label}");
                if let Some(store) = ctx.store() {
                    let store_stats = store.stats();
                    assert_eq!(store_stats.misses, 2 * classes as u64, "{label}");
                    assert_eq!(store_stats.entries, 2 * classes as u64, "{label}");
                }
                runs.push((evals, stats));
            }
            assert_eq!(runs[0], runs[1], "store {with_store}: 1 vs 4 threads");
        }
    }

    /// The slate path (which replaced packed evaluation) against one
    /// `evaluate` call per member: same values and the same counters, except
    /// that without a store the sequential path recomputes the isomorphic
    /// twin's zero-cost record, which the slate resolves from its class.
    #[test]
    fn packed_evaluation_matches_sequential_evaluation_and_counters() {
        let config = MicroNasConfig::tiny_test();
        let context = |with_store: bool| match with_store {
            false => SearchContext::new(DatasetKind::Cifar10, &config).unwrap(),
            true => SearchContext::with_store(
                DatasetKind::Cifar10,
                &config,
                Arc::new(EvalStore::in_memory(config.store_namespace())),
            )
            .unwrap(),
        };
        for with_store in [false, true] {
            let seq_ctx = context(with_store);
            let slate_ctx = context(with_store);
            let cells = mixed_slate(&seq_ctx);

            let sequential: Vec<_> = cells
                .iter()
                .map(|&c| seq_ctx.evaluate(c).unwrap())
                .collect();
            let slate = slate_ctx.evaluate_all(&cells).unwrap();

            assert_eq!(slate.len(), sequential.len());
            for (i, (s, p)) in sequential.iter().zip(&slate).enumerate() {
                assert_eq!(**s, **p, "store {with_store}, member {i}");
            }
            assert_eq!(seq_ctx.evaluation_count(), slate_ctx.evaluation_count());
            let seq_stats = seq_ctx.cache_stats();
            let twin_recomputations = usize::from(!with_store);
            assert_eq!(
                slate_ctx.cache_stats(),
                EvalCacheStats {
                    hits: seq_stats.hits + twin_recomputations,
                    misses: seq_stats.misses - twin_recomputations,
                },
                "store {with_store}"
            );
        }
    }

    #[test]
    fn evaluate_all_on_a_warm_store_computes_nothing() {
        let config = MicroNasConfig::tiny_test();
        let store = Arc::new(EvalStore::in_memory(config.store_namespace()));
        let warmer =
            SearchContext::with_store(DatasetKind::Cifar10, &config, store.clone()).unwrap();
        let cells = mixed_slate(&warmer);
        let expected = warmer.evaluate_all(&cells).unwrap();

        let warm = SearchContext::with_store(DatasetKind::Cifar10, &config, store).unwrap();
        let evals = warm.evaluate_all(&cells).unwrap();
        for (e, w) in expected.iter().zip(&evals) {
            assert_eq!(**e, **w);
        }
        assert_eq!(
            warm.cache_stats().misses,
            0,
            "a warm store serves the whole slate without running kernels"
        );
    }

    #[test]
    fn evaluate_all_handles_empty_and_single_slates() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar10, &config).unwrap();
        assert!(ctx.evaluate_all(&[]).unwrap().is_empty());
        let cell = ctx.space().cell(123).unwrap();
        let one = ctx.evaluate_all(&[cell]).unwrap();
        assert_eq!(one.len(), 1);
        assert_eq!(*one[0], *ctx.evaluate(cell).unwrap());
    }

    #[test]
    fn concurrent_requests_for_one_cell_compute_it_once() {
        let config = MicroNasConfig::tiny_test();
        for with_store in [false, true] {
            let ctx = match with_store {
                false => SearchContext::new(DatasetKind::Cifar10, &config).unwrap(),
                true => SearchContext::with_store(
                    DatasetKind::Cifar10,
                    &config,
                    Arc::new(EvalStore::in_memory(config.store_namespace())),
                )
                .unwrap(),
            };
            let cell = ctx.space().cell(7_000).unwrap();
            let workers = 4;
            let start = std::sync::Barrier::new(workers);
            let evals: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            ctx.evaluate(cell).unwrap()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert!(evals.iter().all(|e| **e == *evals[0]));
            assert_eq!(ctx.evaluation_count(), 1, "store {with_store}");
            assert_eq!(
                ctx.cache_stats(),
                EvalCacheStats {
                    hits: 2 * (workers - 1),
                    misses: 2
                },
                "store {with_store}: the waiting requests count as cache hits"
            );
        }
    }

    #[test]
    fn debug_format_mentions_dataset() {
        let config = MicroNasConfig::tiny_test();
        let ctx = SearchContext::new(DatasetKind::Cifar100, &config).unwrap();
        assert!(format!("{ctx:?}").contains("Cifar100"));
    }
}
