//! End-to-end benchmark of the MicroNAS paper pipeline.
//!
//! ```text
//! cargo run --release --manifest-path paperbench/Cargo.toml -- \
//!     --workload search_paper --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Each workload is a closed loop with one client: the next op starts when
//! the previous one returns. The run pins the rayon pool to `nproc` threads
//! and derives a few inputs from the seed, each a `MicroNasConfig::seed`;
//! all ops of one input do identical work. Before timing, one untimed
//! reference op per input is computed through a path the program documents
//! as bitwise identical, and every timed op must match it.
//!
//! `--trace 0` reports the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced and traced ops and reports per-layer self times and
//! work counters (see `trace.rs`). The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use trace::{Analysis, SpanSink};
use workload::{BoxError, OpCounters, Workload};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or(format!("missing {name}"));
    let workload = take("--workload")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workload::NAMES
        ));
    }
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown flag {extra}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A per-run scratch directory for store logs, removed when dropped. It sits
/// in the build directory, which no checkout tracks.
struct TempDir(PathBuf);

impl TempDir {
    fn create() -> std::io::Result<Self> {
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = base
            .join("paperbench-tmp")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the shared parent too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The tail of one input's op times: the highest percentile with at least
/// ten ops beyond it, or the maximum when the input ran ten ops or fewer.
/// Inputs do different amounts of work, so pooling their ops would make the
/// tail name the heaviest input rather than the spread of one input's
/// latency.
fn tail(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        v[n - 1]
    } else {
        v[n - 11]
    }
}

/// Wall and CPU time of one op, and whether it failed.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    failed: bool,
    counters: OpCounters,
}

fn timed_op(w: &mut dyn Workload) -> Timed {
    let cpu0 = sys::process_cpu_ns();
    let t0 = Instant::now();
    let result = w.op();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    w.cleanup();
    let (failed, counters) = match result {
        Ok(r) => {
            if !r.matches {
                eprintln!("op result differs from the reference");
            }
            (!r.matches, r.counters)
        }
        Err(e) => {
            eprintln!("op failed: {e}");
            (true, OpCounters::default())
        }
    };
    Timed {
        wall_s,
        cpu_s,
        failed,
        counters,
    }
}

/// A traced op: its timing plus the span analysis and kernel pack counters.
struct Traced {
    timed: Timed,
    analysis: Analysis,
    pack: micronas_nn::PackKernelStats,
}

fn traced_op(w: &mut dyn Workload) -> Traced {
    let sink = Arc::new(SpanSink::new());
    let pack0 = micronas_nn::pack_kernel_stats();
    let timed = {
        let _installed = micronas_telemetry::install_scoped(sink.clone());
        sink.mark();
        timed_op(w)
    };
    Traced {
        timed,
        analysis: sink.analyze(),
        pack: micronas_nn::pack_kernel_stats().since(&pack0),
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    /// Extra report lines printed before the JSON line.
    notes: Vec<String>,
}

/// The closed loop over a run's inputs, in whole rounds so every input
/// runs the same number of ops and weighs the same in every metric.
fn measure(args: &Args, inputs: &mut [Box<dyn Workload>]) -> Outcome {
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut failed = 0;
    let steal0 = sys::steal_ticks();
    let cpu0 = sys::process_cpu_ns();
    let start = Instant::now();
    while walls[0].is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        for (w, walls) in inputs.iter_mut().zip(&mut walls) {
            let op = timed_op(w.as_mut());
            walls.push(op.wall_s);
            failed += usize::from(op.failed);
        }
    }
    let window_s = start.elapsed().as_secs_f64();
    let cpu_s = (sys::process_cpu_ns() - cpu0) as f64 / 1e9;
    let steal = match (steal0, sys::steal_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) => format!(
            "{:.1}% of all vCPU time",
            100.0 * ratio(s1.saturating_sub(s0) as f64, t1.saturating_sub(t0) as f64)
        ),
        _ => "unknown".to_string(),
    };
    let ops = walls[0].len();
    let n = ops * walls.len();
    let per_input =
        |stat: fn(&[f64]) -> f64| mean(&walls.iter().map(|w| stat(w)).collect::<Vec<_>>());
    Outcome {
        attempted: n,
        failed,
        metrics: vec![
            metric("op_p50_s", per_input(median), "s"),
            metric("op_tail_s", per_input(tail), "s"),
            metric("ops_per_s", n as f64 / window_s, "1/s"),
            metric("cpu_s_per_op", cpu_s / n as f64, "s"),
            metric("peak_rss_mib", sys::peak_rss_mib(), "MiB"),
            metric("ok_ratio", (n - failed) as f64 / n as f64, "ratio"),
        ],
        notes: vec![
            format!(
                "{} inputs x {ops} ops; op_p50_s and op_tail_s are means over the inputs of each \
                 input's median and {}",
                inputs.len(),
                if ops <= 10 {
                    "maximum".to_string()
                } else {
                    format!("p{:.2}", 100.0 * (ops - 10) as f64 / ops as f64)
                },
            ),
            format!(
                "per-input median op wall times: {:?}",
                walls.iter().map(|w| median(w)).collect::<Vec<_>>()
            ),
            format!(
                "fail_ratio {} ({failed} of {n} ops failed or differed from the reference)",
                failed as f64 / n as f64
            ),
            format!("host steal over the timed window: {steal}"),
        ],
    }
}

const NN_FORWARD: [&str; 3] = ["nn.edge_forward", "nn.pack_forward", "nn.stem_forward"];
const NN_BACKWARD: [&str; 2] = ["nn.backward", "nn.pack_backward"];

/// The layer self-time metrics. Every span label is charged to exactly one
/// of them, so together they hold all CPU time spent inside spans.
const LAYERS: [&str; 11] = [
    "tensor.self_s",
    "nn.self_s",
    "proxy.ntk.self_s",
    "proxy.ntk.gram.self_s",
    "proxy.ntk.eigensolve.self_s",
    "proxy.linear_regions.self_s",
    "search.pack_eval.self_s",
    "strategy.step.self_s",
    "store.point_read.self_s",
    "store.log_append.self_s",
    "trace.other_self_s",
];

/// The entry of [`LAYERS`] a span label is charged to.
fn layer_of(label: &str) -> &'static str {
    match label {
        "proxy.ntk.gram" => "proxy.ntk.gram.self_s",
        "proxy.ntk.eigensolve" => "proxy.ntk.eigensolve.self_s",
        "search.pack_eval" => "search.pack_eval.self_s",
        "strategy.step" => "strategy.step.self_s",
        "store.point_read" => "store.point_read.self_s",
        "store.log_append" => "store.log_append.self_s",
        l if l.starts_with("tensor.") => "tensor.self_s",
        l if l.starts_with("nn.") => "nn.self_s",
        l if l.starts_with("proxy.ntk") => "proxy.ntk.self_s",
        l if l.starts_with("proxy.linear_regions") => "proxy.linear_regions.self_s",
        // Not on the default paper path (graph, fabric, plugin proxies).
        _ => "trace.other_self_s",
    }
}

/// Every integer work counter of a traced op, for the determinism audit.
fn audit_counters(t: &Traced) -> BTreeMap<String, u64> {
    let mut out: BTreeMap<String, u64> = BTreeMap::new();
    for (name, v) in &t.analysis.counters {
        out.insert(format!("counter {name}"), *v);
    }
    for (label, v) in &t.analysis.calls {
        out.insert(format!("spans {label}"), *v);
    }
    let c = &t.timed.counters;
    for (name, v) in [
        ("ctx.evaluations", c.ctx_evaluations),
        ("ctx.cache.hits", c.ctx_hits),
        ("ctx.cache.misses", c.ctx_misses),
        ("store.hits", c.store_hits),
        ("store.misses", c.store_misses),
        ("store.entries", c.store_entries),
        ("store.replayed_records", c.store_replayed),
        ("store.log_bytes", c.store_log_bytes),
        ("nn.pack.forward_dispatches", t.pack.forward_dispatches),
        ("nn.pack.forward_members", t.pack.forward_members),
        ("nn.pack.backward_dispatches", t.pack.backward_dispatches),
        ("nn.pack.backward_members", t.pack.backward_members),
    ] {
        out.insert(name.to_string(), v);
    }
    out
}

fn measure_traced(args: &Args, w: &mut dyn Workload, threads: usize) -> Outcome {
    let mut plain: Vec<Timed> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let start = Instant::now();
    // Alternate in the order plain-traced, traced-plain, ... so that drift
    // on the machine and warm-up of the process hit both sides alike.
    while traced.len() < 2 || start.elapsed().as_secs_f64() < args.seconds * 0.8 {
        if traced.len().is_multiple_of(2) {
            plain.push(timed_op(w));
            traced.push(traced_op(w));
        } else {
            traced.push(traced_op(w));
            plain.push(timed_op(w));
        }
    }
    let serial_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    let mut serial: Vec<Timed> = Vec::new();
    let serial_start = Instant::now();
    while serial.is_empty() || serial_start.elapsed().as_secs_f64() < args.seconds * 0.2 {
        serial.push(serial_pool.install(|| timed_op(w)));
    }

    let plain_wall: Vec<f64> = plain.iter().map(|o| o.wall_s).collect();
    let plain_cpu: Vec<f64> = plain.iter().map(|o| o.cpu_s).collect();
    let traced_wall: Vec<f64> = traced.iter().map(|t| t.timed.wall_s).collect();
    let serial_wall: Vec<f64> = serial.iter().map(|o| o.wall_s).collect();
    let self_s = |select: &dyn Fn(&str) -> bool| -> f64 {
        mean(
            &traced
                .iter()
                .map(|t| t.analysis.self_s(select))
                .collect::<Vec<_>>(),
        )
    };
    let op_cpu_s = mean(&traced.iter().map(|t| t.timed.cpu_s).collect::<Vec<_>>());
    let layer_self: Vec<(&'static str, f64)> = LAYERS
        .iter()
        .map(|&layer| (layer, self_s(&|l| layer_of(l) == layer)))
        .collect();
    let spanned_s: f64 = layer_self.iter().map(|(_, s)| s).sum();

    // Determinism audit: which counters repeat exactly over the traced ops.
    let audits: Vec<BTreeMap<String, u64>> = traced.iter().map(audit_counters).collect();
    let mut names: Vec<&String> = audits.iter().flat_map(|a| a.keys()).collect();
    names.sort();
    names.dedup();
    let mut notes = vec![format!(
        "determinism audit over {} traced ops (counter: values seen)",
        traced.len()
    )];
    let mut exact = 0usize;
    let mut differing = 0usize;
    for name in names {
        let mut seen: Vec<u64> = audits
            .iter()
            .map(|a| a.get(name).copied().unwrap_or(0))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        if seen.len() == 1 {
            exact += 1;
            notes.push(format!("  repeats  {name} = {}", seen[0]));
        } else {
            differing += 1;
            notes.push(format!("  DIFFERS  {name}: {seen:?}"));
        }
    }
    notes.push(format!(
        "self-time check: layers {spanned_s:.6} s + untraced {:.6} s = op cpu {op_cpu_s:.6} s",
        op_cpu_s - spanned_s
    ));

    let first = &traced[0];
    let a = &first.analysis;
    let c = &first.timed.counters;
    let pack_candidates = a.counter("search.pack.candidates") as f64;
    let pack_computed = a.counter("search.pack.computed_candidates") as f64;
    let mut metrics: Vec<Metric> = layer_self
        .iter()
        .map(|&(layer, secs)| metric(layer, secs, "s"))
        .collect();
    metrics.extend([
        metric(
            "tensor.gemm.calls",
            a.counter("tensor.gemm.calls") as f64,
            "count",
        ),
        metric(
            "tensor.gram.calls",
            a.counter("tensor.gram.calls") as f64,
            "count",
        ),
        metric(
            "tensor.im2col.bytes",
            a.counter("tensor.im2col.bytes") as f64,
            "B",
        ),
        metric(
            "nn.forward.self_s",
            self_s(&|l| NN_FORWARD.contains(&l)),
            "s",
        ),
        metric(
            "nn.backward.self_s",
            self_s(&|l| NN_BACKWARD.contains(&l)),
            "s",
        ),
        metric("nn.pack.forward_fill", first.pack.forward_fill(), "members"),
        metric(
            "nn.pack.backward_fill",
            first.pack.backward_fill(),
            "members",
        ),
        metric(
            "search.pack.dispatches",
            a.counter("search.pack.dispatches") as f64,
            "count",
        ),
        metric("search.pack.candidates", pack_candidates, "count"),
        metric("search.pack.computed_candidates", pack_computed, "count"),
        metric(
            "search.pack.useful_ratio",
            ratio(pack_computed, pack_candidates),
            "ratio",
        ),
        metric(
            "strategy.step.count",
            a.calls("strategy.step") as f64,
            "count",
        ),
        metric("ctx.evaluations", c.ctx_evaluations as f64, "count"),
        metric("ctx.cache.hits", c.ctx_hits as f64, "count"),
        metric("ctx.cache.misses", c.ctx_misses as f64, "count"),
        metric(
            "ctx.fresh_per_unique",
            ratio(c.ctx_misses as f64, 2.0 * c.ctx_evaluations as f64),
            "ratio",
        ),
        metric("store.hits", c.store_hits as f64, "count"),
        metric("store.misses", c.store_misses as f64, "count"),
        metric("store.entries", c.store_entries as f64, "count"),
        metric(
            "store.useful_ratio",
            ratio(c.store_entries as f64, c.store_misses as f64),
            "ratio",
        ),
        metric("store.open_s", c.store_open_s, "s"),
        metric("store.replayed_records", c.store_replayed as f64, "count"),
        metric("store.log_bytes", c.store_log_bytes as f64, "B"),
        metric("api.run_s", c.run_s, "s"),
        metric(
            "parallel_eff",
            ratio(mean(&plain_cpu), mean(&plain_wall) * threads as f64),
            "ratio",
        ),
        metric(
            "parallel_speedup_1t",
            ratio(median(&serial_wall), median(&plain_wall)),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            ratio(median(&traced_wall), median(&plain_wall)),
            "ratio",
        ),
        metric("trace.untraced_cpu_s", op_cpu_s - spanned_s, "s"),
        metric("trace.op_cpu_s", op_cpu_s, "s"),
        metric("trace.counters_exact", exact as f64, "count"),
        metric("trace.counters_differing", differing as f64, "count"),
    ]);
    let all_ops = plain
        .iter()
        .chain(traced.iter().map(|t| &t.timed))
        .chain(serial.iter());
    let (attempted, failed) = all_ops.fold((0, 0), |(n, f), o| (n + 1, f + usize::from(o.failed)));
    Outcome {
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn run(args: &Args, threads: usize) -> Result<Outcome, BoxError> {
    let tmp = TempDir::create()?;
    // The traced pass looks at the run seed itself; the timed loop covers
    // every input of the run.
    let count = if args.trace {
        1
    } else {
        workload::inputs_per_run(&args.workload)
    };
    let mut inputs: Vec<Box<dyn Workload>> = (0..count)
        .map(|i| {
            let seed = workload::input_seed(args.seed, i);
            workload::build(&args.workload, seed, tmp.path())
                .expect("the workload name was checked while parsing")
        })
        .collect();
    let mut setups = Vec::new();
    for w in &mut inputs {
        let (reps, batch) = w.setup_plan();
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..batch {
                w.setup()?;
            }
            setups.push(t0.elapsed().as_secs_f64() / batch as f64);
        }
    }
    for w in &mut inputs {
        w.reference()?;
    }
    let mut outcome = if args.trace {
        measure_traced(args, inputs[0].as_mut(), threads)
    } else {
        measure(args, &mut inputs)
    };
    if !args.trace {
        let (_, batch) = inputs[0].setup_plan();
        outcome
            .metrics
            .insert(0, metric("setup_s", median(&setups), "s"));
        outcome.notes.push(format!(
            "setup_s is the median of {} timings of {batch} set-ups each",
            setups.len()
        ));
    }
    drop(inputs);
    drop(tmp);
    Ok(outcome)
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    let s = format!("{v}");
    if s.contains(['.', 'e']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            eprintln!(
                "usage: paperbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            std::process::exit(2);
        }
    };
    let threads = sys::nproc();
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (key, value) in sys::provenance(threads) {
        println!("# {key}: {value}");
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("a thread pool");
    let outcome = match pool.install(|| run(&args, threads)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("paperbench: {e}");
            std::process::exit(1);
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("{:<34} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
