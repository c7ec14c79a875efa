//! End-to-end NTK evaluation benchmarks.
//!
//! Three comparisons, all on the paper-default NTK configuration (batch 32,
//! 16×16 proxy networks, two cells):
//!
//! 1. **direct vs im2col/GEMM** conv kernels — the PR 1 engine acceptance;
//! 2. **looped vs batched per-sample gradients** — the batched-backward
//!    acceptance: one forward pass plus one batched backward emitting the
//!    contiguous `[n, P]` gradient matrix and a `G = J·Jᵀ` GEMM, against the
//!    PR 1 formulation (one backward per sample, n² scalar Gram dots);
//! 3. **blocked-GEMM vs SIMD execution backend** — the backend-layer
//!    acceptance: the FMA-tiled `simd` backend against the paper-default
//!    `blocked_gemm` backend. Measured on two cells: the pinned
//!    [`BENCH_CELL`] (one 1×1 conv per cell — an honest "sparse" data
//!    point where shared non-kernel work dominates) and the all-conv3×3
//!    cell, the kernel-dominated end of the space where a *kernel* backend
//!    comparison is meaningful. The regression gate rides on the conv cell.
//!
//! Headline numbers land in `target/bench-json/ntk_engine.json`.
//!
//! # Smoke mode
//!
//! `MICRONAS_BENCH_SMOKE=1` runs reduced-iteration versions of the
//! looped-vs-batched and blocked-vs-SIMD comparisons plus a telemetry
//! NullSink overhead check, and **fails** (panics) if the batched path
//! regresses below the looped path, the SIMD backend regresses below the
//! blocked-GEMM backend on the conv-heavy cell, or the NullSink costs more
//! than 5% — the CI guards against a silent fallback onto a slow route.
//! Criterion's own `--test` flag still runs every benchmark body once
//! without timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas::{MicroNasConfig, MicroNasSearch, SearchSession};
use micronas_bench::{banner, cache_stat_fields, record_bench_json};
use micronas_datasets::DatasetKind;
use micronas_proxies::{GradientPath, NtkConfig, NtkEvaluator};
use micronas_searchspace::{CellTopology, Operation, SearchSpace};
use micronas_tensor::{set_conv_engine, ConvEngine, KernelBackendKind};
use std::time::Instant;

/// The cell the engine benchmarks pin (a mid-space architecture with conv,
/// skip and none edges).
const BENCH_CELL: usize = 7_000;

fn paper_evaluator(path: GradientPath) -> NtkEvaluator {
    NtkEvaluator::new(NtkConfig::paper_default()).with_gradient_path(path)
}

/// The kernel-dominated cell of the backend comparison: every edge a 3×3
/// convolution, so the execution backend's conv/GEMM kernels are the
/// workload instead of a minority of it.
fn conv_heavy_cell() -> CellTopology {
    CellTopology::new([Operation::NorConv3x3; 6])
}

fn timed_seconds(evaluator: &NtkEvaluator, cell: CellTopology, runs: usize) -> f64 {
    // One warm-up evaluation, then timed runs.
    evaluator
        .evaluate(cell, DatasetKind::Cifar10, 0)
        .expect("ntk");
    let start = Instant::now();
    for seed in 0..runs {
        evaluator
            .evaluate(cell, DatasetKind::Cifar10, seed as u64)
            .expect("ntk");
    }
    start.elapsed().as_secs_f64() / runs as f64
}

fn measured_seconds(evaluator: &NtkEvaluator, engine: ConvEngine, runs: usize) -> f64 {
    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(BENCH_CELL).expect("valid index");
    set_conv_engine(engine);
    let elapsed = timed_seconds(evaluator, cell, runs);
    set_conv_engine(ConvEngine::Auto);
    elapsed
}

/// Paper-default NTK evaluation seconds under an execution backend,
/// best-of-`rounds` to shed co-tenant noise.
fn backend_seconds(kind: KernelBackendKind, cell: CellTopology, runs: usize, rounds: usize) -> f64 {
    let evaluator = NtkEvaluator::new(NtkConfig::paper_default()).with_backend(kind.instantiate());
    (0..rounds)
        .map(|_| timed_seconds(&evaluator, cell, runs))
        .fold(f64::INFINITY, f64::min)
}

/// Whether `MICRONAS_BENCH_SMOKE=1` smoke mode is active.
fn smoke_mode() -> bool {
    std::env::var("MICRONAS_BENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Runs both headline comparisons and records them; `runs` controls the
/// averaging window.
fn compare_and_record(runs: usize) {
    let batched = paper_evaluator(GradientPath::Batched);
    let looped = paper_evaluator(GradientPath::Looped);

    let direct = measured_seconds(&batched, ConvEngine::Direct, 1.max(runs / 2));
    let gemm = measured_seconds(&batched, ConvEngine::Auto, runs);
    let looped_s = measured_seconds(&looped, ConvEngine::Auto, runs);

    // Backend comparison: interleaved best-of-3 rounds per side.
    let space = SearchSpace::nas_bench_201();
    let sparse_cell = space.cell(BENCH_CELL).expect("valid index");
    let conv_cell = conv_heavy_cell();
    let blocked_conv = backend_seconds(KernelBackendKind::BlockedGemm, conv_cell, runs.min(3), 3);
    let simd_conv = backend_seconds(KernelBackendKind::Simd, conv_cell, runs.min(3), 3);
    let blocked_sparse = backend_seconds(KernelBackendKind::BlockedGemm, sparse_cell, runs, 3);
    let simd_sparse = backend_seconds(KernelBackendKind::Simd, sparse_cell, runs, 3);

    // Store-backed provenance: how much of a real search's NTK traffic the
    // evaluation caches absorb. One proxy-only pruning search at the fast
    // scale; `EvalCacheStats` counts record fetches (a hit was served
    // without running the proxies at all).
    let session = SearchSession::builder()
        .dataset(DatasetKind::Cifar10)
        .config(MicroNasConfig::fast())
        .build()
        .expect("session");
    let cost = session
        .run(&MicroNasSearch::te_nas_baseline())
        .expect("search")
        .cost;
    let cache = cost.cache;

    println!("paper-default NTK evaluation (batch 32, 16x16 proxy, 2 cells):");
    println!("  direct kernels, batched:   {direct:>8.4} s / evaluation");
    println!("  looped per-sample + dots:  {looped_s:>8.4} s / evaluation");
    println!("  batched [n,P] + GEMM Gram: {gemm:>8.4} s / evaluation");
    println!("  direct->batched speedup:   {:>8.2}x", direct / gemm);
    println!("  looped->batched speedup:   {:>8.2}x", looped_s / gemm);
    println!("execution backends (blocked_gemm vs simd, best of 3):");
    println!(
        "  all-conv3x3 cell:          {blocked_conv:>8.4} s -> {simd_conv:>8.4} s  ({:.2}x)",
        blocked_conv / simd_conv
    );
    println!(
        "  sparse bench cell:         {blocked_sparse:>8.4} s -> {simd_sparse:>8.4} s  ({:.2}x)",
        blocked_sparse / simd_sparse
    );
    println!(
        "  search eval-cache:         {} hits / {} misses ({:.1}% absorbed)",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );

    let mut fields: Vec<(String, f64)> = vec![
        ("direct_engine_seconds".to_string(), direct),
        ("looped_gradients_seconds".to_string(), looped_s),
        ("batched_gradients_seconds".to_string(), gemm),
        ("speedup_vs_direct".to_string(), direct / gemm),
        ("speedup_vs_looped".to_string(), looped_s / gemm),
        (
            "blocked_backend_seconds_conv_cell".to_string(),
            blocked_conv,
        ),
        ("simd_backend_seconds_conv_cell".to_string(), simd_conv),
        (
            "speedup_simd_vs_blocked".to_string(),
            blocked_conv / simd_conv,
        ),
        (
            "blocked_backend_seconds_bench_cell".to_string(),
            blocked_sparse,
        ),
        ("simd_backend_seconds_bench_cell".to_string(), simd_sparse),
        (
            "speedup_simd_vs_blocked_bench_cell".to_string(),
            blocked_sparse / simd_sparse,
        ),
    ];
    fields.extend(cache_stat_fields("search_cache", &cache));
    record_bench_json("ntk_engine", &fields);
}

fn bench_ntk_engines(c: &mut Criterion) {
    if smoke_mode() {
        banner(
            "NTK engine smoke: batched must not regress below looped",
            "batched per-sample gradients + GEMM Gram regression gate",
        );
        // Noise-robust regression gate: three interleaved rounds, best (=
        // least noise-disturbed) time per path. A healthy batched path wins
        // outright (1.2–1.4× in steady state); slower than looped by 5% is
        // reported as a warning, and the hard failure threshold sits at
        // 1.5× so a co-tenanted CI runner's contention burst cannot fail
        // the build without a real regression behind it. Only the two gated
        // paths are measured (no direct-engine run), and the
        // reduced-iteration numbers go to their own JSON so they never
        // overwrite the headline `ntk_engine.json` measurements.
        let batched = paper_evaluator(GradientPath::Batched);
        let looped = paper_evaluator(GradientPath::Looped);
        let (mut looped_s, mut batched_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            looped_s = looped_s.min(measured_seconds(&looped, ConvEngine::Auto, 2));
            batched_s = batched_s.min(measured_seconds(&batched, ConvEngine::Auto, 2));
        }
        println!("gate: looped {looped_s:.4}s vs batched {batched_s:.4}s (best of 3)");
        record_bench_json(
            "ntk_engine_smoke",
            &[
                ("looped_gradients_seconds", looped_s),
                ("batched_gradients_seconds", batched_s),
                ("speedup_vs_looped", looped_s / batched_s),
            ],
        );
        if batched_s > looped_s * 1.05 {
            eprintln!(
                "warning: batched path ({batched_s:.4}s) is not beating the \
                 looped path ({looped_s:.4}s) on this runner"
            );
        }
        assert!(
            batched_s <= looped_s * 1.5,
            "batched per-sample gradients ({batched_s:.4}s) regressed far below \
             the looped path ({looped_s:.4}s)"
        );

        // Backend gate: the SIMD backend must not regress below the
        // blocked-GEMM backend on the kernel-dominated cell. Same
        // noise-robustness scheme: interleaved best-of-3, a warning at
        // parity, a hard failure only past 1.25× (a real regression, not a
        // co-tenant burst).
        banner(
            "Backend smoke: simd must not regress below blocked_gemm",
            "FMA-tiled SIMD backend regression gate (all-conv3x3 cell)",
        );
        let conv_cell = conv_heavy_cell();
        let (mut blocked_s, mut simd_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            blocked_s = blocked_s.min(backend_seconds(
                KernelBackendKind::BlockedGemm,
                conv_cell,
                2,
                1,
            ));
            simd_s = simd_s.min(backend_seconds(KernelBackendKind::Simd, conv_cell, 2, 1));
        }
        println!("gate: blocked {blocked_s:.4}s vs simd {simd_s:.4}s (best of 3)");
        record_bench_json(
            "ntk_engine_backend_smoke",
            &[
                ("blocked_backend_seconds", blocked_s),
                ("simd_backend_seconds", simd_s),
                ("speedup_simd_vs_blocked", blocked_s / simd_s),
            ],
        );
        if simd_s > blocked_s {
            eprintln!(
                "warning: simd backend ({simd_s:.4}s) is not beating the \
                 blocked_gemm backend ({blocked_s:.4}s) on this runner"
            );
        }
        assert!(
            simd_s <= blocked_s * 1.25,
            "the simd backend ({simd_s:.4}s) regressed below the blocked_gemm \
             backend ({blocked_s:.4}s) on the conv-heavy cell"
        );

        // Telemetry gate: an installed NullSink reports `is_enabled() ==
        // false`, so every probe must stay on the disabled fast path (one
        // relaxed atomic load). Interleaved best-of-3 on the
        // kernel-dominated cell; anything past 5% means a probe landed on
        // a hot path without the active-flag guard.
        banner(
            "Telemetry smoke: NullSink must be free",
            "telemetry disabled-path overhead gate (all-conv3x3 cell)",
        );
        let evaluator = paper_evaluator(GradientPath::Batched);
        let (mut plain_s, mut null_s) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            plain_s = plain_s.min(timed_seconds(&evaluator, conv_cell, 2));
            let _scope = micronas_telemetry::install_scoped(std::sync::Arc::new(
                micronas_telemetry::NullSink,
            ));
            null_s = null_s.min(timed_seconds(&evaluator, conv_cell, 2));
        }
        println!("gate: uninstrumented {plain_s:.4}s vs NullSink {null_s:.4}s (best of 3)");
        record_bench_json(
            "ntk_engine_telemetry_smoke",
            &[
                ("uninstrumented_seconds", plain_s),
                ("null_sink_seconds", null_s),
                ("null_sink_overhead", null_s / plain_s),
            ],
        );
        assert!(
            null_s <= plain_s * 1.05,
            "an installed NullSink ({null_s:.4}s) costs more than 5% over the \
             uninstrumented run ({plain_s:.4}s); a telemetry probe is off the \
             disabled fast path"
        );
        return;
    }

    if !c.is_test_mode() {
        banner(
            "NTK end-to-end: conv engines and gradient formulations",
            "proxy-evaluation engine + batched per-sample gradients",
        );
        compare_and_record(6);
    }

    let space = SearchSpace::nas_bench_201();
    let cell = space.cell(BENCH_CELL).expect("valid index");
    let mut group = c.benchmark_group("ntk_engine");
    group.sample_size(10);
    for (engine, name) in [
        (ConvEngine::Direct, "direct"),
        (ConvEngine::Im2colGemm, "im2col_gemm"),
    ] {
        let evaluator = paper_evaluator(GradientPath::Batched);
        group.bench_with_input(BenchmarkId::from_parameter(name), &engine, |b, &engine| {
            set_conv_engine(engine);
            b.iter(|| {
                evaluator
                    .evaluate(cell, DatasetKind::Cifar10, 1)
                    .expect("ntk")
                    .condition_number
            });
            set_conv_engine(ConvEngine::Auto);
        });
    }
    for (path, name) in [
        (GradientPath::Looped, "looped_gradients"),
        (GradientPath::Batched, "batched_gradients"),
    ] {
        let evaluator = paper_evaluator(path);
        group.bench_with_input(BenchmarkId::from_parameter(name), &path, |b, _| {
            b.iter(|| {
                evaluator
                    .evaluate(cell, DatasetKind::Cifar10, 1)
                    .expect("ntk")
                    .condition_number
            });
        });
    }
    for kind in [KernelBackendKind::BlockedGemm, KernelBackendKind::Simd] {
        let evaluator =
            NtkEvaluator::new(NtkConfig::paper_default()).with_backend(kind.instantiate());
        let conv_cell = conv_heavy_cell();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}_backend_conv_cell", kind.id())),
            &kind,
            |b, _| {
                b.iter(|| {
                    evaluator
                        .evaluate(conv_cell, DatasetKind::Cifar10, 1)
                        .expect("ntk")
                        .condition_number
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ntk_engines);
criterion_main!(benches);
