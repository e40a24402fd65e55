//! Crash-recovery integration tests (DESIGN.md §14): versioned
//! snapshots taken under active fault injection must resume
//! byte-identically — including frames captured while failed
//! migrations sit in their retry/backoff window, the state most easily
//! lost by a naive save/restore.
//!
//! The fault plan is set explicitly on the machine configuration
//! rather than through `PACT_FAULTS`: mutating the environment is
//! unsound under the parallel test runner, and an explicit plan
//! exercises the same `FaultState` machinery. The `PACT_FAULTS` →
//! snapshot path is covered end-to-end by the `snapshot` CI stage and
//! the `tierctl` CLI tests.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{
    FaultPlan, Machine, MachineConfig, MachineSnapshot, RunReport, SimError, Tracer,
};
use pact_workloads::suite::{build, Scale};

/// Fails over half of all migrations, with retries that sit out a
/// two-window backoff: almost every snapshot boundary has orders
/// pending in the retry queue.
fn retry_heavy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        drop_order: 0.1,
        fail_migration: 0.6,
        max_retries: 2,
        backoff_windows: 2,
        pebs_loss: 0.05,
        ..FaultPlan::default()
    }
}

fn snap_cfg(snapshot_every: u64) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(128);
    cfg.seed = 7;
    cfg.snapshot_every = snapshot_every;
    cfg.track_page_stalls = true;
    cfg.fault_plan = Some(retry_heavy_plan());
    cfg
}

fn fresh_policy() -> PactPolicy {
    PactPolicy::new(PactConfig::default()).expect("default config is valid")
}

/// Runs the fault-injected cell to completion, collecting a snapshot
/// at every `snapshot_every`-window boundary.
fn capture(snapshot_every: u64) -> (RunReport, Vec<MachineSnapshot>) {
    let wl = build("masim", Scale::Smoke, 7);
    let machine = Machine::new(snap_cfg(snapshot_every)).expect("config is valid");
    let mut policy = fresh_policy();
    let mut frames = Vec::new();
    let mut tracer = Tracer::disabled();
    let report = machine
        .try_run_snapshotting(&[wl.as_ref()], &mut policy, &mut tracer, &mut |s| {
            frames.push(s)
        })
        .expect("capture run succeeds");
    (report, frames)
}

fn resume(frame: &MachineSnapshot) -> Result<RunReport, SimError> {
    let wl = build("masim", Scale::Smoke, 7);
    let machine = Machine::new(snap_cfg(0)).expect("config is valid");
    let mut policy = fresh_policy();
    let mut tracer = Tracer::disabled();
    machine.try_resume(&[wl.as_ref()], &mut policy, &mut tracer, frame)
}

#[test]
fn snapshots_mid_retry_backoff_resume_byte_identically() {
    let (base, frames) = capture(4);
    // The plan must actually have populated the retry machinery: with
    // 60% migration failure, two retries, and a two-window backoff,
    // pending retries straddle snapshot boundaries throughout the run,
    // so the frames below were taken mid-retry/backoff.
    assert!(
        base.failed_promotions > 0,
        "the retry-heavy plan produced no failed migrations — the test lost its subject"
    );
    assert!(!frames.is_empty(), "no snapshots captured");
    let want = base.to_json();
    for frame in &frames {
        let window = frame.window().expect("frame header is readable");
        let got = resume(frame)
            .unwrap_or_else(|e| panic!("resume from window {window}: {e}"))
            .to_json();
        assert_eq!(got, want, "resume from window {window} diverged");
    }
}

#[test]
fn tampered_frames_fail_closed_under_faults() {
    let (_, frames) = capture(8);
    let frame = frames.last().expect("at least one snapshot");
    // Bit-flip anywhere in the payload: checksum mismatch, exit path
    // is a structured snapshot error, never a corrupt resumed run.
    let mut corrupt = frame.as_bytes().to_vec();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x01;
    match resume(&MachineSnapshot::from_bytes(corrupt)) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("checksum"), "{e}"),
        other => panic!("corrupt frame must be rejected, got {other:?}"),
    }
    // Dropping the fault plan changes the configuration fingerprint:
    // resuming a faulted capture on a fault-free machine is refused.
    let wl = build("masim", Scale::Smoke, 7);
    let mut clean_cfg = snap_cfg(0);
    clean_cfg.fault_plan = None;
    let machine = Machine::new(clean_cfg).expect("config is valid");
    let mut policy = fresh_policy();
    let mut tracer = Tracer::disabled();
    match machine.try_resume(&[wl.as_ref()], &mut policy, &mut tracer, frame) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("fingerprint"), "{e}"),
        other => panic!("fingerprint mismatch must be rejected, got {other:?}"),
    }
}

// --- fleet mode (DESIGN.md §15) --------------------------------------

/// A three-tenant fleet cell with a migration budget tight enough that
/// the admission controller is rejecting and deferring orders at most
/// window boundaries — so snapshot frames carry live token buckets,
/// the backpressure flag, and a non-empty deferral queue.
fn fleet_snap_cfg(snapshot_every: u64) -> MachineConfig {
    let mut cfg = snap_cfg(snapshot_every);
    cfg.tenants = vec![
        pact_tiersim::TenantSpec::new("gups", 4),
        pact_tiersim::TenantSpec::new("mlc-hog", 1),
        pact_tiersim::TenantSpec::new("zipf-drift", 2),
    ];
    cfg.admission = Some(pact_tiersim::AdmissionControl {
        budget_per_window: 3,
        ..pact_tiersim::AdmissionControl::default()
    });
    cfg
}

fn fleet_workloads() -> Vec<Box<dyn pact_tiersim::Workload>> {
    ["gups", "mlc-hog", "zipf-drift"]
        .iter()
        .map(|name| build(name, Scale::Smoke, 7))
        .collect()
}

fn fleet_capture(snapshot_every: u64) -> (RunReport, Vec<MachineSnapshot>) {
    let workloads = fleet_workloads();
    let refs: Vec<&dyn pact_tiersim::Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let machine = Machine::new(fleet_snap_cfg(snapshot_every)).expect("config is valid");
    let mut policy = fresh_policy();
    let mut frames = Vec::new();
    let mut tracer = Tracer::disabled();
    let report = machine
        .try_run_snapshotting(&refs, &mut policy, &mut tracer, &mut |s| frames.push(s))
        .expect("fleet capture run succeeds");
    (report, frames)
}

fn fleet_resume(frame: &MachineSnapshot) -> Result<RunReport, SimError> {
    let workloads = fleet_workloads();
    let refs: Vec<&dyn pact_tiersim::Workload> = workloads.iter().map(|w| w.as_ref()).collect();
    let machine = Machine::new(fleet_snap_cfg(0)).expect("config is valid");
    let mut policy = fresh_policy();
    let mut tracer = Tracer::disabled();
    machine.try_resume(&refs, &mut policy, &mut tracer, frame)
}

#[test]
fn fleet_snapshots_mid_backpressure_resume_byte_identically() {
    let (base, frames) = fleet_capture(4);
    // The cell must actually be under admission pressure, or the
    // frames carry no token/deferral state worth testing.
    let rejected: u64 = base.tenants.iter().map(|t| t.rejected_orders).sum();
    let admitted: u64 = base.tenants.iter().map(|t| t.admitted_orders).sum();
    assert!(
        rejected > 0,
        "budget 3/window over three tenants produced no rejections — the test lost its subject"
    );
    assert!(admitted > 0, "the cell admitted nothing at all");
    assert!(!frames.is_empty(), "no fleet snapshots captured");
    let want = base.to_json();
    for frame in &frames {
        let window = frame.window().expect("frame header is readable");
        let got = fleet_resume(frame)
            .unwrap_or_else(|e| panic!("fleet resume from window {window}: {e}"))
            .to_json();
        assert_eq!(got, want, "fleet resume from window {window} diverged");
    }
}

#[test]
fn fleet_frames_refuse_a_tenantless_machine() {
    // Dropping the tenant list changes the configuration fingerprint:
    // resuming a fleet capture on a single-tenant machine is refused,
    // not silently degraded.
    let (_, frames) = fleet_capture(8);
    let frame = frames.last().expect("at least one fleet snapshot");
    let mut cfg = fleet_snap_cfg(0);
    cfg.tenants = Vec::new();
    cfg.admission = None;
    let machine = Machine::new(cfg).expect("config is valid");
    let mut policy = fresh_policy();
    let mut tracer = Tracer::disabled();
    let wl = build("masim", Scale::Smoke, 7);
    match machine.try_resume(&[wl.as_ref()], &mut policy, &mut tracer, frame) {
        Err(SimError::Snapshot(e)) => assert!(e.contains("fingerprint"), "{e}"),
        other => panic!("tenantless resume must be rejected, got {other:?}"),
    }
}
