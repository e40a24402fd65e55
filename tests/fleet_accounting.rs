//! Fleet accounting integration tests (DESIGN.md §15): per-tenant
//! telemetry must be an exact partition of the machine's global
//! counters — under fault injection and under admission backpressure —
//! and the fleet report must reproduce byte for byte. A tenant lane
//! that gains or loses an access relative to the globals means
//! attribution is lying to the operator.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    AdmissionControl, FaultPlan, Machine, MachineConfig, RunReport, TenantReport, TenantSpec,
    Workload,
};
use pact_workloads::suite::{build, Scale};

fn fleet_workloads(seed: u64) -> Vec<Box<dyn Workload>> {
    ["gups", "mlc-hog", "zipf-drift"]
        .iter()
        .map(|name| build(name, Scale::Smoke, seed))
        .collect()
}

fn fleet_cfg(faults: bool) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(128);
    cfg.seed = 11;
    cfg.track_page_stalls = true;
    cfg.tenants = vec![
        TenantSpec::new("gups", 4),
        TenantSpec::new("mlc-hog", 1),
        TenantSpec::new("zipf-drift", 2),
    ];
    cfg.admission = Some(AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    });
    if faults {
        cfg.fault_plan = Some(FaultPlan {
            seed: 11,
            drop_order: 0.15,
            fail_migration: 0.5,
            max_retries: 2,
            backoff_windows: 2,
            pebs_loss: 0.05,
            ..FaultPlan::default()
        });
    }
    cfg
}

fn run_fleet(faults: bool) -> RunReport {
    let workloads = fleet_workloads(11);
    let refs: Vec<&dyn Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let machine = Machine::new(fleet_cfg(faults)).expect("config is valid");
    let mut policy = PactPolicy::new(PactConfig::default()).expect("default config is valid");
    machine
        .try_run_colocated(&refs, &mut policy)
        .expect("fleet cell runs")
}

/// One named conservation check: (counter name, global total, lane getter).
type Check<'a> = (&'a str, u64, &'a dyn Fn(&TenantReport) -> u64);

/// Sums one per-tenant scalar over every lane.
fn lane(report: &RunReport, f: &dyn Fn(&TenantReport) -> u64) -> u64 {
    report.tenants.iter().map(f).sum()
}

fn assert_partition(report: &RunReport, label: &str) {
    assert_eq!(report.tenants.len(), 3, "{label}: expected 3 tenant lanes");

    // Scalar PMU counters: tenant lanes must sum exactly to globals.
    let global = &report.counters;
    let scalar: [Check; 5] = [
        ("accesses", global.accesses, &|t| t.counters.accesses),
        ("loads", global.loads, &|t| t.counters.loads),
        ("stores", global.stores, &|t| t.counters.stores),
        ("llc_hits", global.llc_hits, &|t| t.counters.llc_hits),
        ("pebs_samples", global.pebs_samples, &|t| {
            t.counters.pebs_samples
        }),
    ];
    for (name, want, get) in scalar {
        assert_eq!(lane(report, get), want, "{label}: {name} lanes != global");
    }

    // Per-tier pairs, both lanes.
    for tier in 0..2 {
        let pairs: [Check; 3] = [
            ("llc_misses", global.llc_misses[tier], &|t| {
                t.counters.llc_misses[tier]
            }),
            ("llc_stalls", global.llc_stalls[tier], &|t| {
                t.counters.llc_stalls[tier]
            }),
            ("bytes", global.bytes[tier], &|t| t.counters.bytes[tier]),
        ];
        for (name, want, get) in pairs {
            assert_eq!(
                lane(report, get),
                want,
                "{label}: {name}[{tier}] lanes != global"
            );
        }
    }

    // Migration stats: the machine-level totals are the tenant sums.
    assert_eq!(
        lane(report, &|t| t.promotions),
        report.promotions,
        "{label}: promotions"
    );
    assert_eq!(
        lane(report, &|t| t.demotions),
        report.demotions,
        "{label}: demotions"
    );
    assert_eq!(
        lane(report, &|t| t.failed_promotions),
        report.failed_promotions,
        "{label}: failed_promotions"
    );
    assert_eq!(
        lane(report, &|t| t.dropped_orders),
        report.dropped_orders,
        "{label}: dropped_orders"
    );

    // Stall lanes partition the page-stalls oracle exactly.
    let oracle: [u64; 2] = report.page_stalls.as_ref().map_or([0, 0], |map| {
        map.values()
            .fold([0, 0], |acc, s| [acc[0] + s[0], acc[1] + s[1]])
    });
    for (tier, want) in oracle.into_iter().enumerate() {
        assert_eq!(
            lane(report, &|t| t.stall_cycles[tier]),
            want,
            "{label}: stall lane [{tier}] != page-stalls oracle"
        );
    }
}

#[test]
fn tenant_lanes_partition_globals_without_faults() {
    let report = run_fleet(false);
    assert_partition(&report, "clean");
    let rejected = lane(&report, &|t| t.rejected_orders);
    assert!(rejected > 0, "budget 3/window produced no rejections");
    assert!(
        lane(&report, &|t| t.admitted_orders) > 0,
        "the cell admitted nothing"
    );
}

#[test]
fn tenant_lanes_partition_globals_under_fault_injection() {
    let report = run_fleet(true);
    assert_partition(&report, "faulted");
    assert!(
        report.failed_promotions > 0,
        "the fault plan produced no failed migrations — the test lost its subject"
    );
}

#[test]
fn fleet_reports_are_deterministic() {
    for faults in [false, true] {
        let base = run_fleet(faults);
        let again = run_fleet(faults);
        assert_partition(&again, &format!("faults={faults} rerun"));
        assert_eq!(
            again.to_json(),
            base.to_json(),
            "fleet report diverged on rerun (faults={faults})"
        );
        assert_eq!(again.page_stalls, base.page_stalls, "faults={faults}");
    }
}
