//! Machine-loop perf probe: runs one large many-threaded cell twice,
//! checks the two reports are byte-identical, and records wall time
//! and simulated-cycles-per-second in `BENCH_machine.json`.
//!
//! The cell is scheduler-bound by construction: thousands of
//! independent random-load threads make the next-thread pick the
//! dominant cost, which is the regime the event loop's ready-heap
//! (O(log T) per pick, skipped entirely while the stepped thread stays
//! the earliest) is built for.
//!
//! ```text
//! cargo run --release -p pact-bench --bin probe_machine
//! cargo run --release -p pact-bench --bin probe_machine -- --check-against BENCH_machine.json
//! ```
//!
//! With `--check-against PATH` the probe becomes the CI
//! perf-regression gate (`machine-perf` stage): it compares the faster
//! run's `sim_cycles_per_sec` against the committed baseline at `PATH`
//! and exits 1 if the two runs stopped being byte-identical or the
//! rate regressed by more than 20%.

use std::time::Instant;

use pact_bench::{gate, make_policy, JsonWriter};
use pact_tiersim::{Access, AccessStream, Machine, MachineConfig, RunReport, Workload, PAGE_BYTES};

/// Fleet size: large enough that the serial O(T) pick dominates.
const THREADS: usize = 4096;
/// Accesses each thread performs.
const ACCESSES_PER_THREAD: u64 = 2_000;
/// Private region per thread (256 pages).
const REGION_BYTES: u64 = 256 * PAGE_BYTES;
/// Policy under which the cell runs.
const POLICY: &str = "pact";

/// A deterministic random-load generator over one thread's private
/// region — generated on the fly so the probe's footprint is the
/// simulator's state, not a precomputed trace.
struct RandomStream {
    x: u64,
    remaining: u64,
    base: u64,
}

impl AccessStream for RandomStream {
    fn next_access(&mut self) -> Option<Access> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.x = self
            .x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        Some(Access::load(self.base + self.x % REGION_BYTES))
    }
}

/// `THREADS` independent random-access threads over disjoint regions.
#[derive(Debug)]
struct Fleet;

impl Workload for Fleet {
    fn name(&self) -> String {
        "fleet-random".into()
    }

    fn footprint_bytes(&self) -> u64 {
        THREADS as u64 * REGION_BYTES
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        (0..THREADS)
            .map(|i| {
                Box::new(RandomStream {
                    x: 0x9E3779B97F4A7C15u64.wrapping_mul(i as u64 + 1),
                    remaining: ACCESSES_PER_THREAD,
                    base: i as u64 * REGION_BYTES,
                }) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

fn cell_cfg() -> MachineConfig {
    // Half the footprint fits the fast tier, so the policy has real
    // placement decisions and the daemon real migration traffic.
    MachineConfig::skylake_cxl(Fleet.footprint_bytes() / PAGE_BYTES / 2)
}

fn run_cell() -> (RunReport, f64) {
    // Invariant: the probe's config is fixed and validated by tests.
    let machine = Machine::new(cell_cfg()).expect("probe config is valid");
    // Invariant: POLICY is a literal member of ALL_POLICIES.
    let mut policy = make_policy(POLICY).expect("probe policy is known");
    let t = Instant::now();
    let report = machine.run(&Fleet, policy.as_mut());
    (report, t.elapsed().as_secs_f64())
}

fn check_against(baseline_json: &str, fresh_identical: bool, fresh_best_cps: f64) -> Vec<String> {
    gate::check_against(
        baseline_json,
        gate::BEST_ANCHOR,
        "best",
        "repeated run is no longer byte-identical to the first",
        fresh_identical,
        fresh_best_cps,
    )
}

fn main() {
    let check_path = gate::check_path_from_args("probe_machine");
    pact_bench::validate_fault_env();
    pact_bench::arm_hostprof_from_env();
    eprintln!(
        "[probe_machine] fleet-random: {THREADS} threads x {ACCESSES_PER_THREAD} accesses \
         under '{POLICY}', two runs"
    );

    let (first, first_secs) = run_cell();
    let (repeat, repeat_secs) = run_cell();

    let identical = first.to_json() == repeat.to_json() && first.page_stalls == repeat.page_stalls;
    let cycles = first.total_cycles;
    eprintln!(
        "[probe_machine] first {first_secs:.2}s, repeat {repeat_secs:.2}s, \
         identical: {identical}"
    );
    // Both runs are done; emit the PACT_PROF self-profile (stderr)
    // before any gate path can exit.
    pact_bench::emit_hostprof_summary();

    let best_cps = cycles as f64 / first_secs.min(repeat_secs);
    if let Some(path) = &check_path {
        let baseline = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let errors = check_against(&baseline, identical, best_cps);
        if errors.is_empty() {
            println!(
                "[probe_machine] perf gate vs {path} OK: bit_identical, \
                 best {best_cps:.0} cycles/s within tolerance"
            );
            return;
        }
        for e in &errors {
            eprintln!("[probe_machine] perf gate FAIL: {e}");
        }
        std::process::exit(1);
    }

    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("workload", "fleet-random");
    j.field_str("policy", POLICY);
    j.field_u64("threads", THREADS as u64);
    j.field_u64("accesses", THREADS as u64 * ACCESSES_PER_THREAD);
    j.field_u64("sim_cycles", cycles);
    gate::write_repeat_timings(&mut j, cycles, [first_secs, repeat_secs]);
    j.field_bool("bit_identical", identical);
    j.end_object();
    let mut json = j.finish();
    json.push('\n');
    match std::fs::write("BENCH_machine.json", &json) {
        Ok(()) => println!("[saved BENCH_machine.json]"),
        Err(e) => eprintln!("warning: could not write BENCH_machine.json: {e}"),
    }
    print!("{json}");
    assert!(identical, "repeated run diverged from the first");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"workload":"fleet-random","first":{"wall_seconds":2.0,"sim_cycles_per_sec":4000000.0},"repeat":{"wall_seconds":1.6,"sim_cycles_per_sec":5000000.0},"best":{"wall_seconds":1.6,"sim_cycles_per_sec":5000000.0},"bit_identical":true}"#;

    #[test]
    fn gate_reads_the_best_block() {
        assert!(check_against(BASELINE, true, 4_500_000.0).is_empty());
        let errs = check_against(BASELINE, true, 3_000_000.0);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("best sim_cycles_per_sec regressed"),
            "{}",
            errs[0]
        );
        let errs = check_against(BASELINE, false, 4_500_000.0);
        assert!(errs.iter().any(|e| e.contains("byte-identical")));
    }

    #[test]
    fn probe_config_validates() {
        cell_cfg().validate().expect("probe config is valid");
    }

    #[test]
    fn fleet_streams_are_disjoint_and_sized() {
        let streams = Fleet.streams();
        assert_eq!(streams.len(), THREADS);
        let mut s = RandomStream {
            x: 1,
            remaining: 3,
            base: REGION_BYTES,
        };
        for _ in 0..3 {
            let a = s.next_access().expect("three accesses remain");
            assert!(a.vaddr >= REGION_BYTES && a.vaddr < 2 * REGION_BYTES);
        }
        assert!(s.next_access().is_none());
    }
}
