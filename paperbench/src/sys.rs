//! Process-level measurements the benchmark takes from outside the program:
//! CPU clocks, peak resident memory and the provenance of a run.
//!
//! Linux only: the clocks come from `clock_gettime` and the memory and
//! provenance figures from `/proc`.

use std::process::Command;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn read_clock(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) that outlives the call, and both clock ids are
    // defined by Linux for every process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time (user + system) of the whole process, every thread included,
/// in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    read_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    read_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .map(|rest| rest.trim_start_matches([':', ' ', '\t']).trim().to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let kib: f64 = proc_field("/proc/self/status", "VmHWM")
        .and_then(|v| v.trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM");
    kib / 1024.0
}

/// The machine-wide CPU counters of `/proc/stat` as `(steal, total)` ticks.
/// On a virtual machine, steal is time a vCPU was ready to run but the host
/// ran something else; it slows wall time without showing in CPU time.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user, nice, system, idle, iowait, irq, softirq, steal; the guest
    // fields after them are already counted in user and nice.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Worker threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Lines describing where and on what a run was made.
pub fn provenance(threads: usize) -> Vec<(&'static str, String)> {
    let unknown = || "unknown".to_string();
    // Only ask git inside a checkout of its own: a parent directory's
    // repository would name the wrong commit.
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(unknown);
    vec![
        ("nproc", nproc().to_string()),
        ("rayon_threads", threads.to_string()),
        (
            "cpu_model",
            proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(unknown),
        ),
        ("git_commit", commit),
        ("loadavg_1m", load),
    ]
}
