//! Host-time benchmark of the PACT simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload bc-kron-pact --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Each invocation runs one workload as single-threaded batch
//! simulations in a closed loop (one run at a time). `--trace 0` repeats
//! cold runs for `--seconds` and prints the end-to-end metrics;
//! `--trace 1` adds a traced run, per-layer replays and an armed
//! (tracer + snapshot) pass, and prints the per-layer metrics. Every run
//! is checked: pinned digest at the default seed, byte-identical reports
//! across repetitions, and access-accounting identities. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod cells;
mod host;
mod json;
mod probe;
mod replay;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    Machine, MachineSnapshot, PmuCounters, RunReport, TenantReport, TieringPolicy, Tracer,
};

use cells::{Cell, Kind, Size, DEFAULT_SEED};
use probe::{Light, Traced};
use stats::{median, quantile, report_digest, tail};

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 6] = [
    ("accesses_per_s", "1/s"),
    ("window_ms_p50", "ms"),
    ("window_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: [(&str, &str); 35] = [
    ("workloads.gen_ns_per_access", "ns"),
    ("tiersim.cache.llc_ns_per_access", "ns"),
    ("tiersim.cache.llc_hit_ratio", "ratio"),
    ("tiersim.cache.prefetches_per_load", "ratio"),
    ("tiersim.mem.map_ns_per_access", "ns"),
    ("tiersim.tier.book_ns_per_miss", "ns"),
    ("tiersim.pmu.pebs_ns_per_miss", "ns"),
    ("tiersim.pmu.pebs_samples", "count"),
    ("tiersim.pmu.hint_faults", "count"),
    ("core.policy.place_calls", "count"),
    ("core.policy.place_ns", "ns"),
    ("core.policy.on_sample_calls", "count"),
    ("core.policy.on_sample_us", "us"),
    ("core.policy.on_window_calls", "count"),
    ("core.policy.on_window_us_p50", "us"),
    ("core.policy.on_window_us_tail", "us"),
    ("tiersim.machine.residual_ns_per_access", "ns"),
    ("tiersim.machine.traced_ns_per_access", "ns"),
    ("tiersim.machine.sim_cycles", "count"),
    ("tiersim.machine.windows", "count"),
    ("tiersim.machine.promotions", "count"),
    ("tiersim.machine.demotions", "count"),
    ("tiersim.machine.failed_promotions", "count"),
    ("tiersim.machine.dropped_orders", "count"),
    ("tiersim.machine.admitted_orders", "count"),
    ("tiersim.machine.rejected_orders", "count"),
    ("tiersim.machine.admission_reject_ratio", "ratio"),
    ("obs.tracer.events", "count"),
    ("obs.tracer.overhead_pct", "%"),
    ("tiersim.snapshot.frames", "count"),
    ("tiersim.snapshot.frame_bytes", "bytes"),
    ("tiersim.snapshot.overhead_pct", "%"),
    ("tiersim.snapshot.resume_s", "s"),
    ("bench.timer_overhead_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
];

/// Set-up repeats at least this often, then until `SETUP_BUDGET` is
/// spent or `MAX_SETUPS` is reached; `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET: Duration = Duration::from_millis(500);
/// Measured repetitions: at least two (so byte-identity is checked at
/// every seed), then until `--seconds` is spent.
const MIN_REPS: u64 = 2;
const MAX_REPS: u64 = 1_000;
/// Ring capacity of the armed pass's tracer (events).
const RING_EVENTS: usize = 1 << 20;
/// Snapshot frames the armed pass aims for.
const ARMED_FRAMES: usize = 8;

const USAGE: &str =
    "usage: simbench --workload <bc-kron-pact|threads-256|fleet-admission> [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 3_600.0) {
                    return Err(bad("expected a number in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in host::pact_env() {
        eprintln!("simbench: WARNING: {k}={v} is set; the benchmark ignores PACT_* variables");
    }
    let ref_ns = host::ref_loop_ns();
    println!("fingerprint {}", host::fingerprint(ref_ns));
    let result = if args.trace {
        traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn pact() -> PactPolicy {
    // Invariant: the default PACT configuration passes its own
    // validation (pinned by a pact-core test).
    PactPolicy::new(PactConfig::default()).expect("default PACT config is valid")
}

/// Runs and failures of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one checked step; a failure is logged, never fatal.
    fn record<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("simbench: FAILED {what}: {e}");
                None
            }
        }
    }
}

/// One cold run; a `SimError` or a panic becomes an `Err`.
fn timed_run(
    what: &str,
    f: impl FnOnce() -> Result<RunReport, pact_tiersim::SimError>,
) -> Result<(RunReport, f64), String> {
    let t = Instant::now();
    let r = catch_unwind(AssertUnwindSafe(f));
    let secs = t.elapsed().as_secs_f64();
    match r {
        Ok(Ok(report)) => Ok((report, secs)),
        Ok(Err(e)) => Err(format!("{what}: {e}")),
        Err(_) => Err(format!("{what} panicked")),
    }
}

/// What every repetition's report must satisfy.
struct Expect {
    kind: Kind,
    seed: u64,
    drained: u64,
    /// Digest of the first good repetition.
    digest: Option<u64>,
}

impl Expect {
    fn check(&mut self, report: &RunReport) -> Result<(), String> {
        let d = report_digest(report);
        if self.seed == DEFAULT_SEED && d != self.kind.pinned_digest() {
            return Err(format!(
                "digest {d:#018x} != pinned {:#018x} at the default seed",
                self.kind.pinned_digest()
            ));
        }
        if let Some(d0) = self.digest {
            if d != d0 {
                return Err(format!("digest {d:#018x} != first repetition's {d0:#018x}"));
            }
        }
        check_identities(report, self.drained)?;
        self.digest.get_or_insert(d);
        Ok(())
    }
}

/// Accounting identities of one report.
fn check_identities(report: &RunReport, drained: u64) -> Result<(), String> {
    let c = &report.counters;
    if c.accesses != drained {
        return Err(format!(
            "{} accesses reported, {drained} drained",
            c.accesses
        ));
    }
    let per_process: u64 = report.per_process.iter().map(|p| p.accesses).sum();
    if per_process != c.accesses {
        return Err(format!(
            "per-process accesses {per_process} != {}",
            c.accesses
        ));
    }
    if c.loads + c.stores != c.accesses {
        return Err(format!(
            "loads {} + stores {} != accesses {}",
            c.loads, c.stores, c.accesses
        ));
    }
    if !report.tenants.is_empty() {
        check_tenants(report)?;
    }
    Ok(())
}

/// Fleet mode: the tenant lanes partition the global counters exactly.
fn check_tenants(report: &RunReport) -> Result<(), String> {
    let ts = &report.tenants;
    let sum = |f: fn(&TenantReport) -> u64| ts.iter().map(f).sum::<u64>();
    let mut lanes = PmuCounters::default();
    for t in ts {
        let (a, c) = (&mut lanes, &t.counters);
        a.accesses += c.accesses;
        a.loads += c.loads;
        a.stores += c.stores;
        a.llc_hits += c.llc_hits;
        a.hint_faults += c.hint_faults;
        a.pebs_samples += c.pebs_samples;
        for i in 0..2 {
            a.llc_misses[i] += c.llc_misses[i];
            a.llc_stalls[i] += c.llc_stalls[i];
            a.tor_occupancy[i] += c.tor_occupancy[i];
            a.tor_busy[i] += c.tor_busy[i];
            a.demand_latency_sum[i] += c.demand_latency_sum[i];
            a.bytes[i] += c.bytes[i];
            a.prefetches[i] += c.prefetches[i];
        }
    }
    if lanes != report.counters {
        return Err(format!(
            "tenant counters {lanes:?} != global {:?}",
            report.counters
        ));
    }
    let pairs = [
        ("promotions", sum(|t| t.promotions), report.promotions),
        ("demotions", sum(|t| t.demotions), report.demotions),
        (
            "failed_promotions",
            sum(|t| t.failed_promotions),
            report.failed_promotions,
        ),
        (
            "dropped_orders",
            sum(|t| t.dropped_orders),
            report.dropped_orders,
        ),
    ];
    for (name, lanes, global) in pairs {
        if lanes != global {
            return Err(format!("tenant {name} sum {lanes} != global {global}"));
        }
    }
    let stalls: u64 = ts
        .iter()
        .map(|t| t.stall_cycles[0] + t.stall_cycles[1])
        .sum();
    let oracle: u64 = report
        .page_stalls
        .iter()
        .flat_map(|m| m.values())
        .map(|[f, s]| f + s)
        .sum();
    if stalls != oracle {
        return Err(format!(
            "tenant stall lanes {stalls} != page-stall oracle {oracle}"
        ));
    }
    Ok(())
}

/// What the untraced repetitions measured, per good run.
struct Reps {
    secs: Vec<f64>,
    /// Seconds from the run call to the policy's `prepare`.
    prepare_secs: Vec<f64>,
    rates: Vec<f64>,
    window_gaps_ns: Vec<f64>,
    /// `VmHWM` after set-up and the first run. Later repetitions need no
    /// more memory, but allocator fragmentation can creep the mark up.
    peak_rss_mib: f64,
}

/// Cold runs under the light wrapper: at least `MIN_REPS`, then until
/// `seconds` are spent. Each is checked against `expect`.
fn repeat(cell: &Cell, seconds: f64, expect: &mut Expect, tally: &mut Tally) -> Reps {
    let mut reps = Reps {
        secs: Vec::new(),
        prepare_secs: Vec::new(),
        rates: Vec::new(),
        window_gaps_ns: Vec::new(),
        peak_rss_mib: 0.0,
    };
    let start = Instant::now();
    let mut n = 0;
    while n < MIN_REPS || (start.elapsed().as_secs_f64() < seconds && n < MAX_REPS) {
        n += 1;
        let mut policy = Light::new(pact());
        let called = Instant::now();
        let run = timed_run("run", || cell.run(&mut policy))
            .and_then(|(r, s)| expect.check(&r).map(|()| (r, s)));
        if let Some((report, secs)) = tally.record("repetition", run) {
            reps.secs.push(secs);
            if let Some(p) = policy.prepared_at {
                reps.prepare_secs
                    .push(p.duration_since(called).as_secs_f64());
            }
            reps.rates.push(report.counters.accesses as f64 / secs);
            reps.window_gaps_ns
                .extend(policy.window_gaps_ns.iter().map(|&g| g as f64));
        }
        if n == 1 {
            reps.peak_rss_mib = host::peak_rss_mib();
        }
    }
    reps
}

/// Metric values by name, emitted in a fixed list's order.
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.push((name, v));
    }

    fn emit(&self, list: &[(&str, &str)], tally: &Tally) -> Result<String, String> {
        let mut m = json::Obj::new();
        for (name, unit) in list {
            let v = self
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            let mut o = json::Obj::new();
            o.num("value", v);
            o.str("unit", unit);
            m.raw(name, &o.finish());
        }
        let mut out = json::Obj::new();
        out.bool("correct", tally.failed == 0);
        out.int("attempted", tally.attempted);
        out.int("failed", tally.failed);
        out.raw("metrics", &m.finish());
        Ok(out.finish())
    }
}

/// Builds the cell at least `MIN_SETUPS` times, then until
/// `SETUP_BUDGET` is spent; returns each build's seconds and the last
/// cell (earlier ones are dropped before the next build).
fn measure_setup(kind: Kind, seed: u64) -> Result<(Vec<f64>, Cell), String> {
    let mut samples = Vec::new();
    let mut last: Option<Cell> = None;
    let start = Instant::now();
    while samples.len() < MIN_SETUPS
        || (start.elapsed() < SETUP_BUDGET && samples.len() < MAX_SETUPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(Cell::build(kind, seed, Size::Bench)?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok((samples, last.ok_or("no cell was built")?))
}

fn end_to_end(args: &Args) -> Result<String, String> {
    let (setups, cell) = measure_setup(args.kind, args.seed)?;
    let mut expect = Expect {
        kind: args.kind,
        seed: args.seed,
        drained: cell.drained_accesses(),
        digest: None,
    };
    let mut tally = Tally::default();
    let reps = repeat(&cell, args.seconds, &mut expect, &mut tally);

    let (tail_p, tail_ns, samples) = tail(&reps.window_gaps_ns);
    println!(
        "accesses_per_s: median {:.0} q1 {:.0} q3 {:.0} over {} runs; window_ms_tail is p{tail_p} of {samples} window gaps; setup_s median of {} set-ups",
        median(&reps.rates),
        quantile(&reps.rates, 0.25),
        quantile(&reps.rates, 0.75),
        reps.rates.len(),
        setups.len(),
    );
    let mut m = Metrics(Vec::new());
    m.set("accesses_per_s", median(&reps.rates));
    m.set("window_ms_p50", median(&reps.window_gaps_ns) / 1e6);
    m.set("window_ms_tail", tail_ns / 1e6);
    m.set("setup_s", median(&setups) + median(&reps.prepare_secs));
    m.set("peak_rss_mib", reps.peak_rss_mib);
    m.set(
        "ok_share",
        (tally.attempted - tally.failed) as f64 / tally.attempted.max(1) as f64,
    );
    m.emit(&END_TO_END, &tally)
}

fn traced(args: &Args) -> Result<String, String> {
    let cell = Cell::build(args.kind, args.seed, Size::Bench)?;
    let mut expect = Expect {
        kind: args.kind,
        seed: args.seed,
        drained: cell.drained_accesses(),
        digest: None,
    };
    let mut tally = Tally::default();
    let reps = repeat(&cell, args.seconds, &mut expect, &mut tally);
    let e2e_secs = median(&reps.secs);

    let timer_ns = host::timer_overhead_ns();
    let mut policy = Traced::new(pact());
    let traced_run = timed_run("traced run", || cell.run(&mut policy))
        .and_then(|(r, s)| expect.check(&r).map(|()| (r, s)));
    let Some((report, traced_secs)) = tally.record("traced run", traced_run) else {
        return Err("the traced run failed; no per-layer numbers".into());
    };
    let scope = policy.pebs_scope();
    let rp = replay::replay(&cell, &report, scope)
        .and_then(|rp| check_replay(&rp, &report).map(|()| rp));
    let rp = tally.record("layer replay", rp).unwrap_or_default();
    let armed = armed_pass(&cell, report.windows.len(), &mut expect, &mut tally);

    let c = &report.counters;
    let acc = c.accesses.max(1) as f64;
    let (place_calls, place_timed, place_ns) = policy.place_stats();
    let place_per_call = (place_ns as f64 / place_timed.max(1) as f64 - timer_ns).max(0.0);
    let sample_ns =
        (policy.on_sample_ns as f64 - policy.on_sample_calls as f64 * timer_ns).max(0.0);
    let window_ns: Vec<f64> = policy
        .on_window_ns
        .iter()
        .map(|&n| (n as f64 - timer_ns).max(0.0))
        .collect();
    let (win_tail_p, win_tail, win_n) = tail(&window_ns);
    println!("core.policy.on_window_us_tail is p{win_tail_p} of {win_n} calls");
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;

    let traced_ns = traced_secs * 1e9 / acc;
    // Clock reads the wrapper itself added to the traced run.
    let instrumentation =
        (place_timed + policy.on_sample_calls + window_ns.len() as u64) as f64 * timer_ns;
    let layers_ns = (rp.gen_ns + rp.llc_ns + rp.map_ns + rp.book_ns + rp.pebs_ns) as f64
        + place_per_call * place_calls as f64
        + sample_ns
        + window_ns.iter().sum::<f64>()
        + instrumentation;
    let residual = traced_ns - layers_ns / acc;

    let admitted: u64 = report.tenants.iter().map(|t| t.admitted_orders).sum();
    let rejected: u64 = report.tenants.iter().map(|t| t.rejected_orders).sum();
    let pct = |secs: f64| 100.0 * (secs - e2e_secs) / e2e_secs;

    let mut m = Metrics(Vec::new());
    m.set("workloads.gen_ns_per_access", rp.gen_ns as f64 / acc);
    m.set("tiersim.cache.llc_ns_per_access", rp.llc_ns as f64 / acc);
    m.set("tiersim.cache.llc_hit_ratio", ratio(c.llc_hits, c.accesses));
    m.set(
        "tiersim.cache.prefetches_per_load",
        ratio(c.prefetches[0] + c.prefetches[1], c.loads),
    );
    m.set("tiersim.mem.map_ns_per_access", rp.map_ns as f64 / acc);
    m.set("tiersim.tier.book_ns_per_miss", ratio(rp.book_ns, rp.books));
    m.set(
        "tiersim.pmu.pebs_ns_per_miss",
        ratio(rp.pebs_ns, rp.pebs_observed),
    );
    m.set("tiersim.pmu.pebs_samples", c.pebs_samples as f64);
    m.set("tiersim.pmu.hint_faults", c.hint_faults as f64);
    m.set("core.policy.place_calls", place_calls as f64);
    m.set("core.policy.place_ns", place_per_call);
    m.set("core.policy.on_sample_calls", policy.on_sample_calls as f64);
    m.set("core.policy.on_sample_us", sample_ns / 1e3);
    m.set("core.policy.on_window_calls", window_ns.len() as f64);
    m.set("core.policy.on_window_us_p50", median(&window_ns) / 1e3);
    m.set("core.policy.on_window_us_tail", win_tail / 1e3);
    m.set("tiersim.machine.residual_ns_per_access", residual);
    m.set("tiersim.machine.traced_ns_per_access", traced_ns);
    m.set("tiersim.machine.sim_cycles", report.total_cycles as f64);
    m.set("tiersim.machine.windows", report.windows.len() as f64);
    m.set("tiersim.machine.promotions", report.promotions as f64);
    m.set("tiersim.machine.demotions", report.demotions as f64);
    m.set(
        "tiersim.machine.failed_promotions",
        report.failed_promotions as f64,
    );
    m.set(
        "tiersim.machine.dropped_orders",
        report.dropped_orders as f64,
    );
    m.set("tiersim.machine.admitted_orders", admitted as f64);
    m.set("tiersim.machine.rejected_orders", rejected as f64);
    m.set(
        "tiersim.machine.admission_reject_ratio",
        ratio(rejected, admitted + rejected),
    );
    m.set("obs.tracer.events", armed.tracer_events as f64);
    m.set("obs.tracer.overhead_pct", pct(armed.tracer_secs));
    m.set("tiersim.snapshot.frames", armed.frames as f64);
    m.set("tiersim.snapshot.frame_bytes", armed.frame_bytes);
    m.set(
        "tiersim.snapshot.overhead_pct",
        100.0 * (armed.snapshot_secs - armed.tracer_secs) / e2e_secs,
    );
    m.set("tiersim.snapshot.resume_s", armed.resume_secs);
    m.set("bench.timer_overhead_ns", timer_ns);
    m.set("bench.trace_overhead_pct", pct(traced_secs));
    m.emit(&PER_LAYER, &tally)
}

/// The replays did exactly the work the report counted.
fn check_replay(rp: &replay::Replay, report: &RunReport) -> Result<(), String> {
    let c = &report.counters;
    let pairs = [
        ("accesses", rp.accesses, c.accesses),
        ("loads", rp.loads, c.loads),
        ("stores", rp.stores, c.stores),
        ("pebs samples", rp.pebs_samples, c.pebs_samples),
        (
            "pebs observations",
            rp.pebs_observed,
            c.llc_misses[0] + c.llc_misses[1],
        ),
        ("channel lines", rp.lines_booked, rp.books),
    ];
    for (name, replayed, reported) in pairs {
        if replayed != reported {
            return Err(format!("replayed {name} {replayed} != reported {reported}"));
        }
    }
    Ok(())
}

#[derive(Default)]
struct Armed {
    tracer_events: u64,
    tracer_secs: f64,
    frames: usize,
    frame_bytes: f64,
    snapshot_secs: f64,
    resume_secs: f64,
}

/// The armed pass: a run with a ring tracer, a run that also captures
/// snapshots, and a resume from the middle frame. All three must report
/// exactly what the unarmed runs did.
fn armed_pass(cell: &Cell, windows: usize, expect: &mut Expect, tally: &mut Tally) -> Armed {
    let mut out = Armed::default();
    let refs = cell.refs();

    let mut tracer = Tracer::ring(RING_EVENTS);
    let run = timed_run("tracer run", || {
        cell.machine
            .try_run_colocated_traced(&refs, &mut pact(), &mut tracer)
    });
    let run = run.and_then(|(r, s)| expect.check(&r).map(|()| s));
    if let Some(secs) = tally.record("tracer run", run) {
        out.tracer_secs = secs;
        out.tracer_events = tracer.len() as u64 + tracer.overwritten();
    }

    let mut cfg = cell.machine.config().clone();
    cfg.snapshot_every = (windows / ARMED_FRAMES).max(1) as u64;
    let machine = match Machine::new(cfg) {
        Ok(m) => m,
        Err(e) => {
            tally.record::<()>("snapshot config", Err(e.to_string()));
            return out;
        }
    };
    let mut frames: Vec<MachineSnapshot> = Vec::new();
    let mut tracer = Tracer::ring(RING_EVENTS);
    let run = timed_run("snapshotting run", || {
        machine.try_run_snapshotting(&refs, &mut pact(), &mut tracer, &mut |s| frames.push(s))
    })
    .and_then(|(r, s)| expect.check(&r).map(|()| s));
    if let Some(secs) = tally.record("snapshotting run", run) {
        out.snapshot_secs = secs;
    }
    out.frames = frames.len();
    let sizes: Vec<f64> = frames.iter().map(|f| f.as_bytes().len() as f64).collect();
    out.frame_bytes = median(&sizes);

    let Some(mid) = frames.get(frames.len() / 2) else {
        tally.record::<()>("resume", Err("no snapshot frame was captured".into()));
        return out;
    };
    let mut tracer = Tracer::ring(RING_EVENTS);
    let run = timed_run("resume", || {
        machine.try_resume(&refs, &mut pact(), &mut tracer, mid)
    })
    .and_then(|(r, s)| expect.check(&r).map(|()| s));
    if let Some(secs) = tally.record("resume", run) {
        out.resume_secs = secs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind) -> Cell {
        Cell::build(kind, 7, Size::Test).expect("test cell builds")
    }

    #[test]
    fn traced_digest_equals_unwrapped_digest() {
        for kind in Kind::ALL {
            let cell = small(kind);
            let plain = cell.run(&mut pact()).expect("plain run");
            let mut light = Light::new(pact());
            let light = cell.run(&mut light).expect("light run");
            let mut policy = Traced::new(pact());
            let traced = cell.run(&mut policy).expect("traced run");
            let d = report_digest(&plain);
            assert_eq!(report_digest(&light), d, "{}", kind.name());
            assert_eq!(report_digest(&traced), d, "{}", kind.name());
            assert_eq!(policy.place_stats().0, plain.counters.accesses);
            assert_eq!(policy.on_window_ns.len(), plain.windows.len());
        }
    }

    #[test]
    fn replay_counts_equal_report_counters() {
        for kind in Kind::ALL {
            let cell = small(kind);
            let report = cell.run(&mut pact()).expect("run");
            check_identities(&report, cell.drained_accesses()).expect("identities");
            let rp = replay::replay(&cell, &report, pact().pebs_scope()).expect("replay");
            check_replay(&rp, &report).expect("replay counts");
            assert!(rp.books > 0 && rp.pebs_observed > 0, "{}", kind.name());
        }
    }

    #[test]
    fn fleet_cell_rejects_and_tenant_check_bites() {
        let cell = small(Kind::FleetAdmission);
        let mut report = cell.run(&mut pact()).expect("run");
        assert!(report.tenants.iter().any(|t| t.rejected_orders > 0));
        check_tenants(&report).expect("lanes partition globals");
        report.tenants[0].counters.stores += 1;
        assert!(check_tenants(&report).is_err());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(!all[..i].contains(name), "duplicate metric {name}");
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit of {name}"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_every_metric_and_workload() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing"
            );
            assert!(
                spec.contains(&format!("\"unit\": \"{unit}\"")),
                "{unit} missing"
            );
        }
        for kind in Kind::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", kind.name())));
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload threads-256 --seed 3 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::Threads256, 3, 2.5, true)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload threads-256 --trace 2",
            "--workload threads-256 --seconds -1",
            "--workload threads-256 --seed",
            "--workload threads-256 --bogus 1",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }
}
