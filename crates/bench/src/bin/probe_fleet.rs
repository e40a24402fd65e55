//! Fleet perf probe: runs the three-tenant noisy-neighbor cell
//! (GUPS + `mlc-hog` + `zipf-drift`, DESIGN.md §15) under migration
//! admission control twice, checks the two reports are byte-identical,
//! asserts the admission controller actually engaged (nonzero
//! rejections), and records wall time and simulated-cycles-per-second
//! in `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p pact-bench --bin probe_fleet
//! cargo run --release -p pact-bench --bin probe_fleet -- --check-against BENCH_fleet.json
//! ```
//!
//! With `--check-against PATH` the probe becomes the CI
//! perf-regression gate (`fleet-perf` stage): it compares the faster
//! run's `sim_cycles_per_sec` against the committed baseline at `PATH`
//! and exits 1 if the runs stopped being byte-identical, the
//! controller stopped rejecting, or the rate regressed by more than
//! 20%.

use std::time::Instant;

use pact_bench::{gate, make_policy, JsonWriter};
use pact_tiersim::{
    AdmissionControl, Machine, MachineConfig, RunReport, TenantSpec, Workload, PAGE_BYTES,
};
use pact_workloads::{Gups, Mlc, ZipfDrift};

/// Policy under which the cell runs.
const POLICY: &str = "pact";
/// Deterministic probe seed.
const SEED: u64 = 42;
/// Fleet-wide migration-order budget per window — deliberately tight
/// so the probe exercises the rejection/deferral path, not just the
/// token accounting.
const BUDGET_PER_WINDOW: u64 = 8;

/// The three probe tenants, sized between smoke and paper scale so a
/// release-mode run takes seconds, not minutes.
fn tenants() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Gups::new(8 << 20, 600_000, 2, SEED)),
        Box::new(Mlc::hog(4, 1 << 20, 300_000)),
        Box::new(ZipfDrift::new(1_536, 600_000, 0.99, 80_000, SEED)),
    ]
}

fn cell_cfg() -> MachineConfig {
    let footprint: u64 = tenants().iter().map(|t| t.footprint_bytes()).sum();
    // Half the footprint fits the fast tier, so the policy has real
    // placement decisions and the admission controller real traffic.
    let mut cfg = MachineConfig::skylake_cxl(footprint / PAGE_BYTES / 2);
    cfg.seed = SEED;
    cfg.track_page_stalls = true;
    cfg.tenants = vec![
        TenantSpec::new("gups", 4),
        TenantSpec::new("mlc-hog", 1),
        TenantSpec::new("zipf-drift", 2),
    ];
    cfg.admission = Some(AdmissionControl {
        budget_per_window: BUDGET_PER_WINDOW,
        ..AdmissionControl::default()
    });
    cfg
}

fn run_cell() -> (RunReport, f64) {
    // Invariant: the probe's config is fixed and validated by tests.
    let machine = Machine::new(cell_cfg()).expect("probe config is valid");
    // Invariant: POLICY is a literal member of ALL_POLICIES.
    let mut policy = make_policy(POLICY).expect("probe policy is known");
    let workloads = tenants();
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let t = Instant::now();
    let report = machine
        .try_run_colocated(&refs, policy.as_mut())
        // Invariant: tenant count matches the workload count above.
        .expect("probe fleet cell runs");
    (report, t.elapsed().as_secs_f64())
}

fn check_against(baseline_json: &str, fresh_identical: bool, fresh_best_cps: f64) -> Vec<String> {
    gate::check_against(
        baseline_json,
        gate::BEST_ANCHOR,
        "best",
        "repeated fleet run is no longer byte-identical to the first, or stopped rejecting",
        fresh_identical,
        fresh_best_cps,
    )
}

fn main() {
    let check_path = gate::check_path_from_args("probe_fleet");
    pact_bench::validate_fault_env();
    pact_bench::arm_hostprof_from_env();
    eprintln!(
        "[probe_fleet] gups+mlc-hog+zipf-drift under '{POLICY}' with \
         budget {BUDGET_PER_WINDOW}/window, two runs"
    );

    let (first, first_secs) = run_cell();
    let (repeat, repeat_secs) = run_cell();

    let admitted: u64 = first.tenants.iter().map(|t| t.admitted_orders).sum();
    let rejected: u64 = first.tenants.iter().map(|t| t.rejected_orders).sum();
    // The gate folds "controller stayed engaged" into the identity bit:
    // a fleet probe that never rejects is not measuring admission
    // control at all.
    let identical = first.to_json() == repeat.to_json()
        && first.page_stalls == repeat.page_stalls
        && rejected > 0;
    let cycles = first.total_cycles;
    eprintln!(
        "[probe_fleet] first {first_secs:.2}s, repeat {repeat_secs:.2}s, \
         admitted {admitted}, rejected {rejected}, identical: {identical}"
    );
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
                "[probe_fleet] perf gate vs {path} OK: bit_identical, \
                 {rejected} rejections, best {best_cps:.0} cycles/s within tolerance"
            );
            return;
        }
        for e in &errors {
            eprintln!("[probe_fleet] perf gate FAIL: {e}");
        }
        std::process::exit(1);
    }

    let mut j = JsonWriter::new();
    j.begin_object();
    j.field_str("workload", "fleet:gups+mlc-hog+zipf-drift");
    j.field_str("policy", POLICY);
    j.field_u64("budget_per_window", BUDGET_PER_WINDOW);
    j.field_u64("sim_cycles", cycles);
    j.field_u64("admitted_orders", admitted);
    j.field_u64("rejected_orders", rejected);
    gate::write_repeat_timings(&mut j, cycles, [first_secs, repeat_secs]);
    j.field_bool("bit_identical", identical);
    j.end_object();
    let mut json = j.finish();
    json.push('\n');
    match std::fs::write("BENCH_fleet.json", &json) {
        Ok(()) => println!("[saved BENCH_fleet.json]"),
        Err(e) => eprintln!("warning: could not write BENCH_fleet.json: {e}"),
    }
    print!("{json}");
    assert!(identical, "repeated fleet run diverged or never rejected");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"workload":"fleet:gups+mlc-hog+zipf-drift","first":{"wall_seconds":1.2,"sim_cycles_per_sec":6666666.0},"repeat":{"wall_seconds":1.0,"sim_cycles_per_sec":8000000.0},"best":{"wall_seconds":1.0,"sim_cycles_per_sec":8000000.0},"bit_identical":true}"#;

    #[test]
    fn gate_reads_the_best_block() {
        assert!(check_against(BASELINE, true, 7_000_000.0).is_empty());
        let errs = check_against(BASELINE, true, 5_000_000.0);
        assert_eq!(errs.len(), 1);
        assert!(
            errs[0].contains("best sim_cycles_per_sec regressed"),
            "{}",
            errs[0]
        );
        let errs = check_against(BASELINE, false, 7_000_000.0);
        assert!(errs.iter().any(|e| e.contains("byte-identical")));
    }

    #[test]
    fn probe_config_validates() {
        let cfg = cell_cfg();
        cfg.validate().expect("probe config is valid");
        assert_eq!(cfg.tenants.len(), tenants().len());
    }

    #[test]
    fn probe_tenants_are_foreground() {
        for t in tenants() {
            assert!(!t.is_background(), "{} must bound the fleet run", t.name());
        }
    }
}
