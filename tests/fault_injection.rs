//! Integration tests for the deterministic fault-injection substrate
//! (`tiersim::fault`) and the panic-to-error hardening around it.
//!
//! Fault plans are set explicitly on the machine configuration rather
//! than through `PACT_FAULTS`: mutating the environment is unsound
//! under the parallel test runner, and an explicit plan exercises the
//! same `FaultState` machinery.

use pact_bench::{exec, Harness, TierRatio};
use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    export_trace, FaultPlan, Machine, MachineConfig, RunReport, SimError, StallFault, Tier,
    TraceFormat, Tracer,
};
use pact_workloads::suite::{build, Scale};

/// A plan that injects every fault class at high-but-survivable rates.
fn stress_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        drop_order: 0.2,
        fail_migration: 0.6,
        max_retries: 1,
        backoff_windows: 1,
        stall: Some(StallFault {
            tier: Tier::Slow,
            lines: 20_000,
            prob: 0.5,
        }),
        pebs_loss: 0.1,
        chmu_overflow: 0.05,
        ..FaultPlan::default()
    }
}

fn traced_run(plan: Option<FaultPlan>, seed: u64) -> (RunReport, String) {
    let mut cfg = MachineConfig::skylake_cxl(0);
    cfg.seed = seed;
    cfg.fault_plan = plan;
    let h = Harness::new(build("gups", Scale::Smoke, seed))
        .try_with_machine(cfg)
        .expect("stress plan is valid");
    let fast = TierRatio::new(1, 2).fast_pages(h.workload().footprint_bytes());
    let mut tracer = Tracer::ring(4096);
    let out = h
        .try_run_policy_with_fast_pages_traced("pact", fast, &mut tracer)
        .expect("pact is a known policy");
    let body = export_trace(&out.report, &tracer, "fault-test", TraceFormat::Jsonl);
    (out.report, body)
}

#[test]
fn same_seed_and_plan_is_byte_identical() {
    let (r1, t1) = traced_run(Some(stress_plan()), 7);
    let (r2, t2) = traced_run(Some(stress_plan()), 7);
    assert_eq!(t1, t2, "traces must be byte-identical");
    assert_eq!(r1.total_cycles, r2.total_cycles);
    assert_eq!(r1.failed_promotions, r2.failed_promotions);
    assert_eq!(r1.dropped_orders, r2.dropped_orders);
}

#[test]
fn injection_produces_failures_and_trace_events() {
    let (report, trace) = traced_run(Some(stress_plan()), 7);
    assert!(
        report.failed_promotions + report.dropped_orders > 0,
        "the stress plan must surface failures: failed={} dropped={}",
        report.failed_promotions,
        report.dropped_orders
    );
    assert!(
        trace.contains("fault_injected"),
        "injected faults must appear in the exported trace"
    );
}

#[test]
fn inert_plan_matches_no_plan_exactly() {
    // A present-but-inert plan (all probabilities zero) must leave the
    // run and its exported trace byte-identical to no plan at all:
    // the fault layer is zero-cost when it cannot inject.
    let (r_none, t_none) = traced_run(None, 11);
    let (r_inert, t_inert) = traced_run(Some(FaultPlan::default()), 11);
    assert_eq!(t_none, t_inert);
    assert_eq!(r_none.total_cycles, r_inert.total_cycles);
}

#[test]
fn different_fault_seeds_diverge() {
    let (r1, _) = traced_run(Some(stress_plan()), 7);
    let mut other = stress_plan();
    other.seed = 8;
    let mut cfg = MachineConfig::skylake_cxl(0);
    cfg.seed = 7;
    cfg.fault_plan = Some(other);
    let h = Harness::new(build("gups", Scale::Smoke, 7))
        .try_with_machine(cfg)
        .expect("valid");
    let fast = TierRatio::new(1, 2).fast_pages(h.workload().footprint_bytes());
    let out = h
        .try_run_policy_with_fast_pages("pact", fast)
        .expect("known policy");
    // Same machine seed, different fault seed: the injected schedule —
    // and so the run — must differ.
    assert_ne!(r1.total_cycles, out.report.total_cycles);
}

#[test]
fn parallel_and_serial_fault_sweeps_agree() {
    let mut cfg = MachineConfig::skylake_cxl(0);
    cfg.seed = 7;
    cfg.fault_plan = Some(stress_plan());
    let h = Harness::new(build("gups", Scale::Smoke, 7))
        .try_with_machine(cfg)
        .expect("valid");
    let fast = TierRatio::new(1, 2).fast_pages(h.workload().footprint_bytes());
    h.dram_cycles(); // warm the shared baseline before fanning out
    let run = |jobs: usize| {
        exec::run_indexed(4, jobs, |i| {
            let out = h
                .try_run_policy_with_fast_pages(["pact", "memtis"][i % 2], fast)
                .expect("known policy");
            (out.report.total_cycles, out.report.dropped_orders)
        })
    };
    assert_eq!(run(1), run(4), "jobs=1 and jobs=4 must agree cell-wise");
}

#[test]
fn invalid_plans_are_errors_never_panics() {
    for spec in [
        "drop=1.5",
        "drop=abc",
        "window=9..3",
        "stall=warp:100:0.5",
        "retries=-1",
        "backoff=0",
        "nonsense",
        "=",
    ] {
        let r = std::panic::catch_unwind(|| FaultPlan::parse(spec));
        let inner = r.unwrap_or_else(|_| panic!("spec '{spec}' panicked"));
        assert!(inner.is_err(), "spec '{spec}' must be rejected");
        assert!(matches!(inner, Err(SimError::FaultSpec { .. })));
    }
}

#[test]
fn invalid_machine_configs_are_errors_never_panics() {
    let mut cfg = MachineConfig::skylake_cxl(64);
    cfg.fault_plan = Some(FaultPlan {
        fail_migration: 2.0,
        ..FaultPlan::default()
    });
    let r = std::panic::catch_unwind(|| Machine::new(cfg));
    assert!(r.expect("no panic").is_err());
}

#[test]
fn non_finite_tier_timings_are_errors_never_panics() {
    let wl = build("gups", Scale::Smoke, 1);
    let mut configs = Vec::new();
    for (label, bandwidth_gbps) in [
        ("bandwidth inf", f64::INFINITY),
        ("bandwidth 1e-310", 1e-310),
    ] {
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.tiers[Tier::Slow.index()].bandwidth_gbps = bandwidth_gbps;
        configs.push((label, cfg));
    }
    let mut cfg = MachineConfig::skylake_cxl(64);
    cfg.freq_ghz = f64::INFINITY;
    configs.push(("frequency inf", cfg));
    let mut cfg = MachineConfig::skylake_cxl(64);
    cfg.tiers[Tier::Slow.index()].latency_ns = f64::INFINITY;
    configs.push(("latency inf", cfg));
    for (label, cfg) in configs {
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut policy = PactPolicy::new(PactConfig::default()).expect("default is valid");
            Machine::new(cfg)?.try_run(wl.as_ref(), &mut policy)
        }));
        let inner = r.unwrap_or_else(|_| panic!("{label} panicked"));
        assert!(
            matches!(inner, Err(SimError::Config(_))),
            "{label} must be rejected"
        );
    }
}

#[test]
fn degenerate_workload_sets_are_errors() {
    let machine = Machine::new(MachineConfig::skylake_cxl(64)).expect("valid");
    let mut policy = PactPolicy::new(PactConfig::default()).expect("default is valid");
    let err = machine
        .try_run_colocated(&[], &mut policy)
        .expect_err("empty workload set");
    assert_eq!(err, SimError::NoWorkloads);
}

#[test]
fn policy_survives_sustained_injection() {
    // Graceful degradation: PACT must still converge to a sane
    // slowdown under sustained drops and transient failures.
    let (report, _) = traced_run(Some(stress_plan()), 7);
    assert!(report.promotions > 0, "PACT must still migrate under load");
    let (clean, _) = traced_run(None, 7);
    let ratio = report.total_cycles as f64 / clean.total_cycles as f64;
    assert!(
        ratio < 3.0,
        "faulted run is {ratio:.2}x the clean run — degradation is not graceful"
    );
}
