//! Candidate-scoring throughput: candidates evaluated per second, single
//! thread vs the full rayon pool.
//!
//! The zero-cost proxy pipeline is the hot path of every search; this bench
//! scores a fixed candidate set through the search stack and reports the
//! aggregate throughput at both ends of the thread-count range (the
//! histories are bitwise identical — the determinism tests in
//! `micronas::search` enforce that). The search's `EvalCacheStats` ride
//! along in `target/bench-json/candidate_throughput.json`, so a cache
//! regression shows up next to the timing numbers. Criterion's own `--test`
//! flag runs every benchmark body once without timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use micronas::{EvalCacheStats, MicroNasConfig, ObjectiveWeights, RandomSearch, SearchContext};
use micronas_bench::{banner, bench_config, cache_stat_fields, record_bench_json};
use micronas_datasets::DatasetKind;
use rayon::ThreadPoolBuilder;
use std::time::Instant;

const BUDGET: usize = 16;

fn run_search(config: &MicroNasConfig, threads: usize) -> (f64, EvalCacheStats) {
    let pool = ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool");
    pool.install(|| {
        // Fresh context per run so the evaluation cache cannot carry over.
        let ctx = SearchContext::new(DatasetKind::Cifar10, config).expect("context");
        let search = RandomSearch::new(ObjectiveWeights::accuracy_only(), BUDGET).expect("search");
        let start = Instant::now();
        let outcome = search.run(&ctx).expect("search run");
        (
            BUDGET as f64 / start.elapsed().as_secs_f64(),
            outcome.cost.cache,
        )
    })
}

fn print_throughput() {
    banner(
        "candidate scoring throughput",
        "rayon-parallel candidate scoring (random search, zero-cost objective)",
    );
    let config = bench_config();
    // Exercise the parallel path even on single-core machines (there the
    // number reports scheduling overhead rather than speedup).
    let max_threads = rayon::current_num_threads().max(2);
    let (single, cache_1) = run_search(&config, 1);
    let (multi, cache_n) = run_search(&config, max_threads);
    println!("random search, {BUDGET} candidates, fast proxy configuration:");
    println!("  1 thread:            {single:>8.2} candidates/s");
    println!("  {max_threads} threads:           {multi:>8.2} candidates/s");
    println!("  parallel speedup:    {:>8.2}x", multi / single);
    println!(
        "  eval-cache:          {} hits / {} misses ({:.1}% absorbed)",
        cache_1.hits,
        cache_1.misses,
        cache_1.hit_rate() * 100.0
    );
    assert_eq!(
        cache_n, cache_1,
        "cache traffic must be thread-count independent"
    );

    let mut fields: Vec<(String, f64)> = vec![
        ("candidates_per_second_1_thread".to_string(), single),
        ("candidates_per_second_max_threads".to_string(), multi),
        ("parallel_speedup".to_string(), multi / single),
    ];
    fields.extend(cache_stat_fields("cache", &cache_1));
    record_bench_json("candidate_throughput", &fields);
}

fn bench_candidate_throughput(c: &mut Criterion) {
    if !c.is_test_mode() {
        print_throughput();
    }
    let config = bench_config();
    let max_threads = rayon::current_num_threads().max(2);
    let mut group = c.benchmark_group("candidates_scored_per_second");
    group.sample_size(10);
    for threads in [1usize, max_threads] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{threads}_threads")),
            &threads,
            |b, &threads| {
                b.iter(|| run_search(&config, threads));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_candidate_throughput);
criterion_main!(benches);
