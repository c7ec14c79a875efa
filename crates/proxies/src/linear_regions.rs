//! Linear-region count proxy (expressivity indicator).

use crate::{ProxyError, Result};
use micronas_datasets::{DatasetKind, SyntheticDataset};
use micronas_nn::{CellNetwork, ProxyNetworkConfig};
use micronas_searchspace::CellTopology;
use micronas_tensor::{paper_default_backend, KernelBackend, Shape, Tensor, Workspace};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration of the linear-region proxy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearRegionConfig {
    /// Number of random input-space segments probed.
    pub num_segments: usize,
    /// Number of interpolation points per segment (including endpoints).
    pub points_per_segment: usize,
    /// Geometry of the randomly initialised proxy network.
    pub network: ProxyNetworkConfig,
}

impl LinearRegionConfig {
    /// The default configuration used by the benchmark harness.
    pub fn paper_default() -> Self {
        Self {
            num_segments: 8,
            points_per_segment: 24,
            network: ProxyNetworkConfig::proxy_default(10),
        }
    }

    /// A fast configuration for unit tests.
    pub fn fast() -> Self {
        Self {
            num_segments: 3,
            points_per_segment: 10,
            network: ProxyNetworkConfig::small(10),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.num_segments == 0 {
            return Err(ProxyError::InvalidConfig(
                "at least one probe segment is required".into(),
            ));
        }
        if self.points_per_segment < 2 {
            return Err(ProxyError::InvalidConfig(
                "segments need at least two points".into(),
            ));
        }
        Ok(())
    }
}

impl Default for LinearRegionConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Result of one linear-region evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegionReport {
    /// Total number of distinct linear regions encountered across all probe
    /// segments (the expressivity score; larger is better).
    pub regions: usize,
    /// Average number of regions per segment.
    pub regions_per_segment: f64,
    /// Number of distinct global activation patterns seen across all probe
    /// points (an upper-bound style secondary statistic).
    pub distinct_patterns: usize,
    /// Total number of ReLU units in the probe network.
    pub relu_units: usize,
}

impl LinearRegionReport {
    /// The expressivity *score* used inside search objectives: the log of the
    /// region count (larger is better).
    pub fn expressivity_score(&self) -> f64 {
        (self.regions.max(1) as f64).ln()
    }
}

/// Estimates the number of linear regions a candidate cell induces.
///
/// ReLU networks are piecewise linear: each distinct activation pattern
/// corresponds to one linear region of input space (Xiong et al., 2020). At
/// proxy scale, counting distinct patterns over independent random samples
/// saturates almost immediately (every sample lands in its own region), so
/// the evaluator instead walks straight segments between random pairs of
/// inputs and counts how many ReLU hyperplanes each segment crosses (the
/// Hamming distance between consecutive activation patterns, accumulated
/// along the segment). One plus the crossing count is the number of linear
/// pieces the segment is cut into — a graded estimator of region density
/// that preserves the ranking the paper's expressivity indicator provides.
///
/// Only the sign of each pre-activation matters, so a probe point's pattern
/// is held as one row of `u64` words: bit `i` of a pre-activation tensor's
/// run is set when its `i`-th unit reads `v > 0.0` (zero, `-0.0` and NaN
/// read inactive), and every (tensor, point) run is zero-padded to a whole
/// word. Every row of one network shares that layout and the pad bits are
/// zero on every row, so a crossing count is exactly
/// `(a ^ b).count_ones()` summed over the words, and two rows are equal
/// exactly when their unpadded patterns are: the counts are the ones a
/// bool-per-unit representation gives, at one bit per unit.
#[derive(Debug, Clone)]
pub struct LinearRegionEvaluator {
    config: LinearRegionConfig,
    backend: Arc<dyn KernelBackend>,
}

impl LinearRegionEvaluator {
    /// Creates an evaluator with the given configuration on the
    /// paper-default execution backend.
    pub fn new(config: LinearRegionConfig) -> Self {
        Self {
            config,
            backend: paper_default_backend(),
        }
    }

    /// Returns a copy running on an explicit execution backend. The probe is
    /// forward-only, so inference-only backends (int8) work here — that is
    /// the deployment-accuracy scenario: how much expressivity survives the
    /// device's 8-bit arithmetic.
    pub fn with_backend(mut self, backend: Arc<dyn KernelBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The execution backend in force.
    pub fn backend(&self) -> &Arc<dyn KernelBackend> {
        &self.backend
    }

    /// The evaluator's configuration.
    pub fn config(&self) -> &LinearRegionConfig {
        &self.config
    }

    /// Evaluates the linear-region count of `cell` using probe inputs shaped
    /// like `dataset` samples.
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying step fails.
    pub fn evaluate(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
    ) -> Result<LinearRegionReport> {
        // The shared per-thread scratch arena serves every probe segment and
        // stays hot across candidates, under the backend's retention policy.
        crate::scratch::with_thread_workspace_capped(
            self.backend.arena_retention_cap_bytes(),
            |workspace| self.evaluate_in(cell, dataset, seed, workspace),
        )
    }

    /// [`LinearRegionEvaluator::evaluate`] threading an explicit scratch
    /// arena (identical values; this is the [`crate::Proxy`] entry point).
    ///
    /// # Errors
    ///
    /// Returns a [`ProxyError`] if the configuration is invalid or any
    /// underlying step fails.
    pub fn evaluate_in(
        &self,
        cell: CellTopology,
        dataset: DatasetKind,
        seed: u64,
        workspace: &mut Workspace,
    ) -> Result<LinearRegionReport> {
        let _span = micronas_telemetry::span!("proxy.linear_regions");
        self.config.validate()?;
        let mut net_config = self.config.network;
        net_config.num_classes = dataset.num_classes().min(16);
        let net = CellNetwork::with_backend(&cell, &net_config, seed, self.backend.clone())?;
        let data = SyntheticDataset::new(dataset, seed);

        let mut acc = RegionAccumulator::new(self.config.num_segments);
        for segment in 0..self.config.num_segments {
            // Two endpoint batches of one sample each.
            let endpoints =
                data.sample_batch_with_stream(2, net_config.input_resolution, segment as u64)?;
            let points = interpolate(&endpoints.images, self.config.points_per_segment, workspace)?;
            let output = net.forward_with(&points, workspace)?;
            workspace.recycle(points.into_vec());
            acc.absorb_segment(&output.pre_activations, self.config.points_per_segment);
            // The points and pre-activation buffers serve the next segment.
            for t in output.pre_activations {
                workspace.recycle(t.into_vec());
            }
        }
        Ok(acc.finish())
    }
}

/// Builds a batch of `steps` points interpolating linearly between the two
/// samples of `endpoints`, in a buffer from the workspace recycling pool.
fn interpolate(endpoints: &Tensor, steps: usize, workspace: &mut Workspace) -> Result<Tensor> {
    let d = endpoints.shape().dims();
    let per_sample = d[1] * d[2] * d[3];
    let a = &endpoints.data()[0..per_sample];
    let b = &endpoints.data()[per_sample..2 * per_sample];
    let mut data = workspace.take(steps * per_sample);
    for (s, point) in data.chunks_exact_mut(per_sample).enumerate() {
        let t = s as f32 / (steps - 1) as f32;
        for ((o, &x), &y) in point.iter_mut().zip(a).zip(b) {
            *o = (1.0 - t) * x + t * y;
        }
    }
    Tensor::from_vec(Shape::nchw(steps, d[1], d[2], d[3]), data)
        .map_err(|e| ProxyError::Network(e.to_string()))
}

impl Default for LinearRegionEvaluator {
    fn default() -> Self {
        Self::new(LinearRegionConfig::default())
    }
}

/// Region counting across probe segments, on bit-packed sign patterns (see
/// [`LinearRegionEvaluator`] for the layout).
struct RegionAccumulator {
    num_segments: usize,
    total_regions: usize,
    relu_units: usize,
    /// Length of one packed pattern row in words.
    words: usize,
    /// The packed pattern of every probe point absorbed so far, row after
    /// row.
    rows: Vec<u64>,
}

impl RegionAccumulator {
    fn new(num_segments: usize) -> Self {
        Self {
            num_segments,
            total_regions: 0,
            relu_units: 0,
            words: 0,
            rows: Vec::new(),
        }
    }

    fn absorb_segment(&mut self, pre_activations: &[Tensor], points_per_segment: usize) {
        let start = self.rows.len();
        let words: usize = pre_activations.iter().map(row_words).sum();
        if start == 0 {
            // Every segment probes the same network: size the pattern store
            // for the whole run once.
            self.words = words;
            self.rows
                .reserve_exact(self.num_segments * points_per_segment * words);
        }
        debug_assert_eq!(words, self.words, "one network per run");
        pack_sign_rows(pre_activations, points_per_segment, words, &mut self.rows);
        self.relu_units = pre_activations.iter().map(units_per_sample).sum();
        // A network with no ReLU units has a single global linear region.
        if words == 0 {
            self.total_regions += 1;
            return;
        }
        // Count pieces along the segment: 1 + number of ReLU hyperplane
        // crossings (Hamming distance between consecutive patterns).
        let segment = &self.rows[start..];
        let crossings: usize = segment
            .iter()
            .zip(&segment[words..])
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        self.total_regions += 1 + crossings;
    }

    fn finish(self) -> LinearRegionReport {
        let regions_per_segment = self.total_regions as f64 / self.num_segments as f64;
        let distinct_patterns = if self.relu_units == 0 {
            1
        } else {
            let mut rows: Vec<&[u64]> = self.rows.chunks_exact(self.words).collect();
            rows.sort_unstable();
            rows.dedup();
            rows.len()
        };
        LinearRegionReport {
            regions: self.total_regions,
            regions_per_segment,
            distinct_patterns,
            relu_units: self.relu_units,
        }
    }
}

/// Units per probe point of a `[points, ...]` pre-activation tensor.
fn units_per_sample(tensor: &Tensor) -> usize {
    tensor.shape().dims()[1..].iter().product()
}

/// Words one probe point of `tensor` packs into.
fn row_words(tensor: &Tensor) -> usize {
    units_per_sample(tensor).div_ceil(64)
}

/// Appends the sign patterns of `pre_activations` to `rows`: one row of
/// `words` words per probe point, holding each tensor's run for that point
/// in list order, zero-padded to a whole `u64` word.
fn pack_sign_rows(
    pre_activations: &[Tensor],
    num_points: usize,
    words: usize,
    rows: &mut Vec<u64>,
) {
    let start = rows.len();
    rows.resize(start + num_points * words, 0);
    let mut offset = start;
    for tensor in pre_activations {
        let units = units_per_sample(tensor);
        let run = row_words(tensor);
        for point in 0..num_points {
            let values = &tensor.data()[point * units..(point + 1) * units];
            let dst = &mut rows[offset + point * words..][..run];
            for (word, chunk) in dst.iter_mut().zip(values.chunks(64)) {
                *word = chunk
                    .iter()
                    .enumerate()
                    .fold(0, |w, (bit, &v)| w | (u64::from(v > 0.0) << bit));
            }
        }
        offset += run;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micronas_searchspace::{Operation, SearchSpace};
    use proptest::prelude::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::collections::HashSet;

    /// The bool-per-unit bookkeeping the packed accumulator replaced, kept
    /// as the oracle it is checked against.
    #[derive(Default)]
    struct BoolRegionAccumulator {
        total_regions: usize,
        all_patterns: HashSet<Vec<bool>>,
        relu_units: usize,
    }

    impl BoolRegionAccumulator {
        fn absorb_segment(&mut self, pre_activations: &[Tensor], points_per_segment: usize) {
            let patterns = bool_activation_patterns(pre_activations, points_per_segment);
            self.relu_units = patterns.first().map(|p| p.len()).unwrap_or(0);
            let mut segment_regions = 1usize;
            for w in patterns.windows(2) {
                segment_regions += w[0].iter().zip(w[1].iter()).filter(|(a, b)| a != b).count();
            }
            if self.relu_units == 0 {
                segment_regions = 1;
            }
            self.total_regions += segment_regions;
            for p in patterns {
                self.all_patterns.insert(p);
            }
        }

        fn finish(self, num_segments: usize) -> LinearRegionReport {
            LinearRegionReport {
                regions: self.total_regions,
                regions_per_segment: self.total_regions as f64 / num_segments as f64,
                distinct_patterns: if self.relu_units == 0 {
                    1
                } else {
                    self.all_patterns.len()
                },
                relu_units: self.relu_units,
            }
        }
    }

    fn bool_activation_patterns(pre_activations: &[Tensor], num_points: usize) -> Vec<Vec<bool>> {
        let mut patterns = vec![Vec::new(); num_points];
        for tensor in pre_activations {
            let per_sample = units_per_sample(tensor);
            for (point, pattern) in patterns.iter_mut().enumerate() {
                let start = point * per_sample;
                pattern.extend(
                    tensor.data()[start..start + per_sample]
                        .iter()
                        .map(|&v| v > 0.0),
                );
            }
        }
        patterns
    }

    /// Units per sample, word-aligned or not (864 is the `fast()` geometry).
    const UNIT_COUNTS: [usize; 8] = [1, 5, 63, 64, 65, 128, 200, 864];

    /// One random segment's pre-activation list. `layout[i]` picks tensor
    /// `i`'s unit count, or (past `UNIT_COUNTS`) repeats the previous
    /// tensor as a shared-source alias. Some tensors are all zero, entries
    /// mix signs with `0.0`, `-0.0` and NaN, and some points repeat the
    /// previous point so patterns recur.
    fn random_segment(layout: &[usize], points: usize, rng: &mut TestRng) -> Vec<Tensor> {
        let repeat: Vec<bool> = (0..points).map(|p| p > 0 && rng.below(3) == 0).collect();
        let mut tensors: Vec<Tensor> = Vec::new();
        for &choice in layout {
            if let (Some(prev), true) = (tensors.last(), choice >= UNIT_COUNTS.len()) {
                tensors.push(prev.clone());
                continue;
            }
            let units = UNIT_COUNTS[choice % UNIT_COUNTS.len()];
            let all_zero = rng.below(6) == 0;
            let mut data = vec![0.0f32; points * units];
            for p in 0..points {
                for u in 0..units {
                    data[p * units + u] = if all_zero {
                        0.0
                    } else if repeat[p] {
                        data[(p - 1) * units + u]
                    } else {
                        match rng.below(8) {
                            0 => 0.0,
                            1 => -0.0,
                            2 => f32::NAN,
                            3..=5 => rng.unit_f64() as f32 + f32::MIN_POSITIVE,
                            _ => -(rng.unit_f64() as f32) - f32::MIN_POSITIVE,
                        }
                    };
                }
            }
            tensors.push(Tensor::from_vec(Shape::d2(points, units), data).unwrap());
        }
        tensors
    }

    proptest! {
        #[test]
        fn packed_accumulator_matches_the_bool_oracle(
            layout in proptest::collection::vec(0usize..10, 0..6),
            points in 2usize..7,
            segments in 1usize..4,
            seed in 0u64..1_000_000
        ) {
            let mut rng = TestRng::new(seed);
            let mut packed = RegionAccumulator::new(segments);
            let mut oracle = BoolRegionAccumulator::default();
            for _ in 0..segments {
                let tensors = random_segment(&layout, points, &mut rng);
                packed.absorb_segment(&tensors, points);
                oracle.absorb_segment(&tensors, points);
            }
            prop_assert_eq!(packed.finish(), oracle.finish(segments));
        }
    }

    fn fast_eval() -> LinearRegionEvaluator {
        LinearRegionEvaluator::new(LinearRegionConfig::fast())
    }

    #[test]
    fn config_validation() {
        let mut cfg = LinearRegionConfig::fast();
        cfg.num_segments = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = LinearRegionConfig::fast();
        cfg.points_per_segment = 1;
        assert!(cfg.validate().is_err());
        assert!(LinearRegionConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn evaluation_is_deterministic() {
        let space = SearchSpace::nas_bench_201();
        let cell = space.cell(7_654).unwrap();
        let eval = fast_eval();
        let a = eval.evaluate(cell, DatasetKind::Cifar10, 1).unwrap();
        let b = eval.evaluate(cell, DatasetKind::Cifar10, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn relu_free_cells_have_one_region_per_segment() {
        // Skip-only and pool-only cells contain no ReLU-conv blocks at all.
        let eval = fast_eval();
        for op in [
            Operation::SkipConnect,
            Operation::AvgPool3x3,
            Operation::None,
        ] {
            let report = eval
                .evaluate(CellTopology::new([op; 6]), DatasetKind::Cifar10, 2)
                .unwrap();
            assert_eq!(report.relu_units, 0);
            assert_eq!(report.regions, eval.config().num_segments);
            assert_eq!(report.distinct_patterns, 1);
            assert_eq!(report.expressivity_score(), (report.regions as f64).ln());
        }
    }

    #[test]
    fn conv_cells_are_more_expressive_than_sparse_cells() {
        let eval = fast_eval();
        let rich = CellTopology::new([Operation::NorConv3x3; 6]);
        let sparse = CellTopology::new([
            Operation::NorConv1x1,
            Operation::None,
            Operation::None,
            Operation::SkipConnect,
            Operation::None,
            Operation::SkipConnect,
        ]);
        let r = eval.evaluate(rich, DatasetKind::Cifar10, 3).unwrap();
        let s = eval.evaluate(sparse, DatasetKind::Cifar10, 3).unwrap();
        assert!(
            r.regions > s.regions,
            "rich cell ({} regions) should beat sparse cell ({} regions)",
            r.regions,
            s.regions
        );
        assert!(r.relu_units > s.relu_units);
    }

    #[test]
    fn regions_per_segment_consistent_with_total() {
        let space = SearchSpace::nas_bench_201();
        let eval = fast_eval();
        let report = eval
            .evaluate(space.cell(11_111).unwrap(), DatasetKind::Cifar100, 4)
            .unwrap();
        let expected = report.regions as f64 / eval.config().num_segments as f64;
        assert!((report.regions_per_segment - expected).abs() < 1e-12);
        assert!(report.regions >= eval.config().num_segments);
    }

    #[test]
    fn reports_match_pinned_values() {
        // Values measured on the bool-per-unit implementation this packed
        // bookkeeping replaced; `fast()` has 864 units per tensor, which is
        // not a whole number of words.
        let space = SearchSpace::nas_bench_201();
        let cases = [
            (7_000, DatasetKind::Cifar10, 1),
            (15_624, DatasetKind::Cifar100, 2),
            (11_111, DatasetKind::Cifar10, 3),
        ];
        for (config, want) in [
            (
                LinearRegionConfig::paper_default(),
                [(8, 1, 4096), (8, 1, 0), (55_826, 192, 16_384)],
            ),
            (
                LinearRegionConfig::fast(),
                [(3, 1, 864), (3, 1, 0), (4_971, 30, 3_456)],
            ),
        ] {
            let eval = LinearRegionEvaluator::new(config);
            for (&(index, dataset, seed), want) in cases.iter().zip(want) {
                let r = eval
                    .evaluate(space.cell(index).unwrap(), dataset, seed)
                    .unwrap();
                assert_eq!(
                    (r.regions, r.distinct_patterns, r.relu_units),
                    want,
                    "cell {index} / {dataset:?} / seed {seed} at {config:?}"
                );
            }
        }
    }

    /// Forwards to the system allocator, counting this thread's heap
    /// allocations of at least [`LARGE_ALLOCATION_BYTES`], so a test can pin
    /// that a code path reuses pooled buffers instead of allocating.
    struct CountingAllocator;

    #[global_allocator]
    static ALLOCATOR: CountingAllocator = CountingAllocator;

    /// Smaller than the paper-geometry probe-point batch (24 points × 768
    /// inputs × 4 bytes = 72 KiB) and each pre-activation tensor (24 × 2 048
    /// units × 4 bytes = 192 KiB).
    const LARGE_ALLOCATION_BYTES: usize = 64 << 10;

    thread_local! {
        static LARGE_ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    }

    fn note_allocation(size: usize) {
        if size >= LARGE_ALLOCATION_BYTES {
            let _ = LARGE_ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    }

    fn large_allocations() -> usize {
        LARGE_ALLOCATIONS.with(Cell::get)
    }

    // SAFETY: every call forwards unchanged to `System`; the counter is a
    // const-initialised thread-local that never allocates.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note_allocation(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note_allocation(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note_allocation(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[test]
    fn steady_state_evaluation_allocates_no_new_scratch() {
        // Once one conv-heavy evaluation has warmed the arena, the probe
        // points and every pre-activation copy come back out of the pool:
        // a second cell at the same geometry leaves the footprint unchanged.
        let eval = LinearRegionEvaluator::new(LinearRegionConfig::paper_default());
        let mut workspace = Workspace::new();
        eval.evaluate_in(
            CellTopology::new([Operation::NorConv3x3; 6]),
            DatasetKind::Cifar10,
            1,
            &mut workspace,
        )
        .unwrap();
        let warm = workspace.capacity_bytes();
        let mixed = CellTopology::new([
            Operation::NorConv1x1,
            Operation::NorConv3x3,
            Operation::SkipConnect,
            Operation::NorConv3x3,
            Operation::NorConv1x1,
            Operation::NorConv3x3,
        ]);
        let before = large_allocations();
        let report = eval
            .evaluate_in(mixed, DatasetKind::Cifar100, 2, &mut workspace)
            .unwrap();
        assert!(report.relu_units > 0);
        assert_eq!(workspace.capacity_bytes(), warm);
        // The arena saturates at its pool bound, so a fresh per-segment copy
        // would leave the footprint unchanged too: pin it directly. The one
        // large allocation is the run's packed pattern store.
        assert_eq!(large_allocations() - before, 1);
    }
}
