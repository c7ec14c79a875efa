//! The traced pass's span sink and the self-time reconstruction.
//!
//! The program already emits spans through `micronas_telemetry`, but a span
//! reports only its label and duration. [`SpanSink`] stamps each one, as it
//! arrives, with the wall instant it ended, the thread it ran on and that
//! thread's CPU clock. [`SpanSink::analyze`] then rebuilds the nesting of
//! spans on every thread and charges each stretch of a thread's CPU time to
//! the innermost span open on that thread.
//!
//! A label's *self time* is therefore CPU time, not wall time: a span that
//! waits in a parallel join for worker threads is charged only the CPU its
//! own thread spent, and the workers' spans are charged theirs. Self times
//! of all labels add up to at most the process CPU time; the rest is CPU
//! that no span covers. `TelemetryReport::layer_total_ns` is not used: it
//! sums nested and parallel spans.

use crate::sys::thread_cpu_ns;
use micronas_telemetry::TelemetrySink;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One completed span as the sink saw it.
#[derive(Clone, Copy)]
struct Stamp {
    /// `None` for a baseline mark, which carries only a clock reading.
    label: Option<&'static str>,
    thread: u32,
    start_ns: u64,
    end_ns: u64,
    /// The thread's CPU clock when the span ended.
    cpu_ns: u64,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD: Cell<u32> = const { Cell::new(0) };
}

/// A small, process-unique number for the calling thread.
fn thread_number() -> u32 {
    THREAD.with(|slot| {
        if slot.get() == 0 {
            slot.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        slot.get()
    })
}

/// Records every span and counter of one traced op.
pub struct SpanSink {
    origin: Instant,
    stamps: Mutex<Vec<Stamp>>,
    counters: Mutex<BTreeMap<&'static str, u64>>,
}

impl SpanSink {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            stamps: Mutex::new(Vec::with_capacity(1 << 16)),
            counters: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    fn push(&self, stamp: Stamp) {
        self.stamps
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .push(stamp);
    }

    /// Stamps the calling thread's CPU clock as the start of its first
    /// window. Call on the benchmark thread right before the op, so CPU
    /// spent there before its first span is not charged to that span.
    pub fn mark(&self) {
        let now = self.now_ns();
        self.push(Stamp {
            label: None,
            thread: thread_number(),
            start_ns: now,
            end_ns: now,
            cpu_ns: thread_cpu_ns(),
        });
    }

    /// Rebuilds span nesting per thread and charges CPU time to labels.
    /// Takes the recorded spans and counters; call once the op is done.
    pub fn analyze(&self) -> Analysis {
        let stamps = std::mem::take(
            &mut *self
                .stamps
                .lock()
                .expect("span sink poisoned by a panicking thread"),
        );
        let mut by_thread: BTreeMap<u32, Vec<Stamp>> = BTreeMap::new();
        for stamp in stamps {
            by_thread.entry(stamp.thread).or_default().push(stamp);
        }
        let mut analysis = Analysis {
            counters: std::mem::take(
                &mut *self
                    .counters
                    .lock()
                    .expect("span sink poisoned by a panicking thread"),
            ),
            ..Analysis::default()
        };
        for stamps in by_thread.values() {
            charge_thread(stamps, &mut analysis);
        }
        analysis
    }
}

impl TelemetrySink for SpanSink {
    fn is_enabled(&self) -> bool {
        true
    }

    fn record_span(&self, label: &'static str, nanos: u64) {
        let cpu_ns = thread_cpu_ns();
        let end_ns = self.now_ns();
        self.push(Stamp {
            label: Some(label),
            thread: thread_number(),
            start_ns: end_ns.saturating_sub(nanos),
            end_ns,
            cpu_ns,
        });
    }

    fn add_counter(&self, name: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("span sink poisoned by a panicking thread")
            .entry(name)
            .or_default() += delta;
    }
}

/// Self CPU time and call count per span label, plus the program's
/// counters, for one traced op.
#[derive(Default)]
pub struct Analysis {
    pub self_ns: BTreeMap<&'static str, f64>,
    pub calls: BTreeMap<&'static str, u64>,
    pub counters: BTreeMap<&'static str, u64>,
}

impl Analysis {
    /// Self time in seconds of every label `select` accepts.
    pub fn self_s(&self, select: impl Fn(&str) -> bool) -> f64 {
        self.self_ns
            .iter()
            .filter(|(label, _)| select(label))
            .map(|(_, ns)| ns)
            // An empty float sum is -0.0; report it as 0.
            .fold(0.0, |acc, ns| acc + ns)
            / 1e9
    }

    pub fn calls(&self, label: &str) -> u64 {
        self.calls.get(label).copied().unwrap_or(0)
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// A stretch of one thread's wall time during which `label` was the
/// innermost open span (`None`: no span open).
struct Segment {
    from: u64,
    to: u64,
    label: Option<&'static str>,
}

/// The exclusive segments of properly nested spans on one thread.
fn segments(spans: &[Stamp]) -> Vec<Segment> {
    let mut spans: Vec<Stamp> = spans.to_vec();
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut out = Vec::with_capacity(spans.len() * 2);
    let mut stack: Vec<Stamp> = Vec::new();
    let mut cursor = spans.first().map_or(0, |s| s.start_ns);
    let emit = |out: &mut Vec<Segment>, from: u64, to: u64, label| {
        if to > from {
            out.push(Segment { from, to, label });
        }
    };
    for mut span in spans {
        while let Some(top) = stack.last().copied() {
            if top.end_ns > span.start_ns {
                break;
            }
            emit(&mut out, cursor, top.end_ns, top.label);
            cursor = cursor.max(top.end_ns);
            stack.pop();
        }
        let open = stack.last().copied();
        emit(&mut out, cursor, span.start_ns, open.and_then(|s| s.label));
        cursor = cursor.max(span.start_ns);
        // Stamps are taken a little after each guard's own clock read, so a
        // child can appear to outlive its parent by a few nanoseconds.
        if let Some(parent) = open {
            span.end_ns = span.end_ns.min(parent.end_ns);
        }
        stack.push(span);
    }
    while let Some(top) = stack.pop() {
        emit(&mut out, cursor, top.end_ns, top.label);
        cursor = cursor.max(top.end_ns);
    }
    out
}

/// Charges one thread's CPU time to its labels.
///
/// The thread's CPU clock is known at every span end. Between two readings
/// the CPU spent is shared among the segments of that window in proportion
/// to their wall length; the share of stretches with no span open is left
/// uncharged. A thread without a baseline mark starts at CPU 0 at its first
/// span's start: worker threads are spawned per parallel call.
fn charge_thread(stamps: &[Stamp], analysis: &mut Analysis) {
    let spans: Vec<Stamp> = stamps
        .iter()
        .filter(|s| s.label.is_some())
        .copied()
        .collect();
    for span in &spans {
        *analysis
            .calls
            .entry(span.label.expect("filtered to labelled spans"))
            .or_default() += 1;
    }
    let segs = segments(&spans);
    let Some(first) = segs.first() else {
        return;
    };
    let (mut prev_t, mut prev_cpu) = match stamps.iter().find(|s| s.label.is_none()) {
        Some(mark) => (mark.end_ns, mark.cpu_ns),
        None => (first.from, 0),
    };
    let mut seg = 0;
    // Readings in the order the thread took them.
    for stamp in stamps.iter().filter(|s| s.label.is_some()) {
        let (t, cpu) = (stamp.end_ns.max(prev_t), stamp.cpu_ns.max(prev_cpu));
        let delta = (cpu - prev_cpu) as f64;
        let width = (t - prev_t) as f64;
        if width == 0.0 {
            *analysis
                .self_ns
                .entry(stamp.label.expect("filtered to labelled spans"))
                .or_default() += delta;
        } else {
            while seg < segs.len() && segs[seg].to <= prev_t {
                seg += 1;
            }
            let mut k = seg;
            while k < segs.len() && segs[k].from < t {
                let overlap = segs[k].to.min(t) - segs[k].from.max(prev_t);
                if let Some(label) = segs[k].label {
                    *analysis.self_ns.entry(label).or_default() += delta * overlap as f64 / width;
                }
                k += 1;
            }
        }
        prev_t = t;
        prev_cpu = cpu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(label: &'static str, start_ns: u64, end_ns: u64, cpu_ns: u64) -> Stamp {
        Stamp {
            label: Some(label),
            thread: 1,
            start_ns,
            end_ns,
            cpu_ns,
        }
    }

    #[test]
    fn nested_spans_split_cpu_into_exclusive_shares() {
        // parent [0, 100) holds child [20, 60); all wall time is CPU time.
        let stamps = [span("child", 20, 60, 60), span("parent", 0, 100, 100)];
        let mut a = Analysis::default();
        charge_thread(&stamps, &mut a);
        assert_eq!(a.self_ns["child"], 40.0);
        assert_eq!(a.self_ns["parent"], 60.0);
        assert_eq!(a.calls["parent"], 1);
    }

    #[test]
    fn a_blocked_parent_is_charged_only_its_own_cpu() {
        // The parent waits from 10 to 90 on another thread: its thread's
        // CPU clock advances by 20 over 100 ns of wall time.
        let stamps = [span("parent", 0, 100, 20)];
        let mut a = Analysis::default();
        charge_thread(&stamps, &mut a);
        assert_eq!(a.self_ns["parent"], 20.0);
    }

    #[test]
    fn gaps_between_spans_stay_uncharged() {
        let mark = Stamp {
            label: None,
            thread: 1,
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
        };
        let stamps = [mark, span("a", 50, 100, 100)];
        let mut a = Analysis::default();
        charge_thread(&stamps, &mut a);
        assert_eq!(a.self_ns["a"], 50.0);
    }
}
