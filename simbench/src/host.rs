//! Host facts printed beside every result: the fingerprint, the memory
//! high-water mark, a reference-loop timing that shows host drift, and
//! the calibrated cost of one clock read.

use std::hint::black_box;
use std::time::Instant;

use crate::json::Obj;
use crate::stats::median;

/// `PACT_*` variables in the environment. The benchmark never reads
/// them (it uses neither the harness nor its environment hooks), but
/// their presence is reported loudly so a result can be traced to them.
pub fn pact_env() -> Vec<(String, String)> {
    let mut vars: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.to_string_lossy().into_owned())))
        .filter(|(k, _)| k.starts_with("PACT_"))
        .collect();
    vars.sort();
    vars
}

/// The host fingerprint: parallelism, CPU model, compiler, profile and
/// source revision, plus the reference-loop timing.
pub fn fingerprint(ref_loop_ns: f64) -> String {
    let mut o = Obj::new();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    o.num("nproc", nproc as f64);
    o.str("cpu_model", &cpu_model());
    o.str("rustc", env!("SIMBENCH_RUSTC"));
    o.str("profile", env!("SIMBENCH_PROFILE"));
    o.str("git_rev", &git_rev());
    o.num("ref_loop_ns_per_iter", ref_loop_ns);
    let env: Vec<String> = pact_env().iter().map(|(k, v)| format!("{k}={v}")).collect();
    o.str("pact_env", &env.join(" "));
    o.finish()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory
/// (a source tree without `.git` reports `none`).
fn git_rev() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None => head.to_string(),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median ns per iteration of a fixed dependent integer chain: a pure
/// host-speed yardstick, independent of the simulator.
pub fn ref_loop_ns() -> f64 {
    const ITERS: u64 = 1 << 22;
    let runs: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
            black_box(x);
            t.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&runs)
}

/// Median host ns of one `Instant::now()` + `elapsed()` pair: what the
/// wrapper pays per timed call, subtracted from every timed layer.
pub fn timer_overhead_ns() -> f64 {
    const PAIRS: u32 = 2_000;
    let runs: Vec<f64> = (0..31)
        .map(|_| {
            let outer = Instant::now();
            let mut sink = 0u128;
            for _ in 0..PAIRS {
                let t = Instant::now();
                sink += black_box(t.elapsed().as_nanos());
            }
            black_box(sink);
            outer.elapsed().as_nanos() as f64 / f64::from(PAIRS)
        })
        .collect();
    median(&runs)
}
