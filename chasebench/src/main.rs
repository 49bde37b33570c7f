//! `chasebench` — one worker process of the benchmark `run.py` drives.
//!
//! ```text
//! chasebench paper --seed N [--trace SPANS.jsonl] [--setup-only]
//! chasebench fleet --seed N [--trace SPANS.jsonl] [--setup-only]
//! chasebench traffic --seed N
//! ```
//!
//! `traffic` is a self-test: it prints, for every fleet tenant that
//! receives through a test bed, the outcome of the fleet traffic the
//! traced run times (see `micro.rs`), for comparison with `fleet`.
//!
//! Stdout protocol, one record a line:
//!
//! * `ready` — set-up is done; the next thing is a simulated operation.
//! * `op <name> <output>` — one operation's output (an experiment's
//!   result, or one fleet tenant's outcome) as a single Debug line,
//!   which the orchestrator compares byte for byte with a reference.
//! * `timed_ns <n>` — host nanoseconds of the timed phase.
//! * `peak_rss_kb <n>` — the process's peak resident set (`VmHWM`).
//! * `counter <name> <value>` — traced runs only: counts read from
//!   the layers' public counters at the boundaries the spans mark.
//!
//! Untraced runs call the library entry points exactly as `repro`
//! does. Traced runs compose the two heaviest paths (closed-world
//! fingerprinting, the fleet's defense tenants) from the crates'
//! public functions so that every layer boundary gets a span; the
//! orchestrator checks that their outputs equal the untraced ones.

mod fleet;
mod micro;
mod paper;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Tenants in the fleet: 16 passes of the standard templates' 16-slot
/// assignment cycle, so each template runs its weighted share. One
/// fleet takes about half a second at one thread.
const TENANTS: usize = 256;

static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

/// Adds `n` to the traced-run counter `name` (no-op when untraced).
pub fn count(name: &'static str, n: u64) {
    if trace::enabled() {
        *COUNTERS
            .lock()
            .expect("no counter holder panicked")
            .entry(name)
            .or_default() += n;
    }
}

/// Adds a simulated LLC's statistics to the `pc-cache` counters.
pub fn count_llc(stats: &pc_cache::CacheStats) {
    count("pc-cache.accesses", stats.total_accesses());
    count("pc-cache.misses", stats.cpu_misses + stats.io_misses);
}

fn die(msg: &str) -> ! {
    eprintln!("chasebench: {msg}");
    std::process::exit(2);
}

fn main() {
    // An armed PC_FAULT is the negative control of the output check.
    pc_cache::fault::arm_from_env();
    let mut args = std::env::args().skip(1);
    let workload = args.next().unwrap_or_else(|| {
        die("usage: chasebench <paper|fleet|traffic> --seed N [--trace FILE] [--setup-only]")
    });
    let mut seed = None;
    let mut trace_out = None;
    let mut setup_only = false;
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| die(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--seed" => {
                seed = Some(
                    value()
                        .parse::<u64>()
                        .unwrap_or_else(|_| die("--seed needs a number")),
                )
            }
            "--trace" => trace_out = Some(value()),
            "--setup-only" => setup_only = true,
            other => die(&format!("unknown argument `{other}`")),
        }
    }
    let seed = seed.unwrap_or_else(|| die("--seed is required"));
    if trace_out.is_some() {
        trace::enable();
    }
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let fleet = || {
        pc_bench::fleet::FleetConfig::standard(TENANTS, seed, pc_bench::experiments::Scale::Quick)
    };
    let (ops, timed) = match workload.as_str() {
        "paper" => {
            let experiments = paper::experiments();
            ready(&mut out, setup_only);
            let t = Instant::now();
            let ops = paper::run(&experiments, seed);
            (ops, t.elapsed())
        }
        "fleet" | "traffic" => {
            let cfg = fleet();
            ready(&mut out, setup_only);
            let t = Instant::now();
            let ops = match workload.as_str() {
                "fleet" => fleet::run(&cfg),
                _ => micro::check(&cfg),
            };
            (ops, t.elapsed())
        }
        other => die(&format!("unknown workload `{other}`")),
    };
    for (name, output) in &ops {
        writeln!(out, "op {name} {output}").expect("stdout is writable");
    }
    writeln!(out, "timed_ns {}", timed.as_nanos()).expect("stdout is writable");
    if let Some(path) = trace_out {
        if workload == "fleet" {
            micro::nic_and_cache(&fleet());
        }
        let w = pc_core::window_stats_snapshot();
        count("core.windows", w.windows);
        count("core.window_frames", w.frames);
        for (name, v) in COUNTERS.lock().expect("no counter holder panicked").iter() {
            writeln!(out, "counter {name} {v}").expect("stdout is writable");
        }
        trace::write(&path).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    }
    writeln!(out, "peak_rss_kb {}", peak_rss_kb()).expect("stdout is writable");
    out.flush().expect("stdout is writable");
}

/// This process's peak resident set in KiB, from `/proc/self/status`.
/// `VmHWM` belongs to the process's own address space; the `wait4`
/// figure would also count the parent's, which `exec` folds in.
fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .unwrap_or_else(|e| die(&format!("cannot read /proc/self/status: {e}")));
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| die("no VmHWM in /proc/self/status"))
}

/// Announces the end of set-up (flushed, so the orchestrator can time
/// it as it happens); `--setup-only` runs stop there.
fn ready(out: &mut impl std::io::Write, setup_only: bool) {
    writeln!(out, "ready").expect("stdout is writable");
    out.flush().expect("stdout is writable");
    if setup_only {
        std::process::exit(0);
    }
}
