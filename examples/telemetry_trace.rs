//! End-to-end observability demo and CI validation gate.
//!
//! 1. Runs the paper-grid sweep with a telemetry [`Collector`] installed,
//!    prints the per-layer span/counter report as a table, and writes it as
//!    JSON next to the bench results (`target/bench-json/`).
//! 2. Runs the same-seed MicroNAS search twice with an [`EventRecorder`]
//!    attached, writes the recorded JSONL stream, parses it back into typed
//!    events, and proves the two recordings are identical modulo timing
//!    (`replay_diff` empty).
//!
//! Exits non-zero if any instrumented layer recorded no time, the JSONL
//! fails to parse, or the recordings diverge — CI runs this binary as the
//! telemetry acceptance gate.
//!
//! ```bash
//! cargo run --release --example telemetry_trace
//! ```

use micronas_suite::core::experiments::{run_paper_sweep_traced, SweepScale};
use micronas_suite::core::{
    replay_diff, replay_events, EventRecorder, MicroNasConfig, SearchSession,
};
use micronas_suite::telemetry::Collector;
use std::path::PathBuf;
use std::sync::Arc;

fn bench_json_dir() -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("bench-json");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = MicroNasConfig::tiny_test();

    // ---- 1. Traced paper sweep -----------------------------------------
    // Run against a persistent store so the store layer's log-append and
    // point-read paths are part of the trace.
    println!("tracing the paper-grid sweep (tiny scale, persistent store)...");
    let dir = bench_json_dir()?;
    let store_path = dir.join("telemetry_trace_store.log");
    let _ = std::fs::remove_file(&store_path);
    let store = Arc::new(micronas_suite::store::EvalStore::open(
        &store_path,
        config.store_namespace(),
    )?);
    let collector = Arc::new(Collector::new());
    let report = run_paper_sweep_traced(&config, &SweepScale::tiny(), Some(store), collector)?;
    let _ = std::fs::remove_file(&store_path);
    let telemetry = report
        .telemetry
        .as_ref()
        .ok_or("traced sweep did not fold telemetry in")?;

    println!();
    println!("{}", telemetry.table());

    let json_path = dir.join("telemetry_trace.json");
    std::fs::write(&json_path, telemetry.to_json())?;
    println!("telemetry report: {}", json_path.display());

    for layer in ["tensor.", "nn.", "proxy.", "store.", "strategy."] {
        if telemetry.layer_total_ns(layer) == 0 {
            return Err(format!("layer {layer} recorded no span time").into());
        }
    }
    println!(
        "sweep identity: {:#018x} ({} GEMM calls)",
        report.identity_fingerprint(),
        telemetry.counter("tensor.gemm.calls"),
    );

    // ---- 2. Deterministic event recording ------------------------------
    println!();
    println!("recording two same-seed searches...");
    let record = || -> Result<(String, usize), Box<dyn std::error::Error>> {
        let recorder = Arc::new(EventRecorder::new());
        let session = SearchSession::builder()
            .config(config.clone())
            .observer(recorder.clone())
            .build()?;
        let outcome = session.run_micronas()?;
        Ok((recorder.to_jsonl(), outcome.history.len()))
    };
    let (first, steps) = record()?;
    let (second, _) = record()?;

    let jsonl_path = dir.join("telemetry_events.jsonl");
    std::fs::write(&jsonl_path, &first)?;
    println!("event stream:     {}", jsonl_path.display());

    let events = replay_events(&first).map_err(|e| format!("recorded JSONL invalid: {e}"))?;
    if events.len() != steps + 2 {
        return Err(format!(
            "expected {} events (started + {steps} steps + finished), got {}",
            steps + 2,
            events.len()
        )
        .into());
    }

    let diffs = replay_diff(&first, &second);
    if !diffs.is_empty() {
        return Err(format!("same-seed recordings diverged: {diffs:?}").into());
    }
    println!(
        "replayed {} events; same-seed replay_diff is empty",
        events.len()
    );
    Ok(())
}
