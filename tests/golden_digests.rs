//! Golden digests: the "same behaviour" oracle for refactors of the
//! event loop and the model. Each cell's report JSON, JSONL trace and
//! `page_stalls` oracle are hashed with FNV-1a and compared against a
//! pinned table. A digest may change only in a change that says why.
//!
//! The cells cover the scheduler's paths: prologue-gated threads
//! (gups), fault injection, CHMU sampling (order-dependent
//! Space-Saving table), colocation, a fleet cell under admission
//! control, a 64-thread random-load cell where the next-thread pick
//! dominates, and runs resumed from a mid-run snapshot frame (whose
//! bytes are pinned too): single-workload, colocated, and a fleet cell
//! with admission control, which between them cover every frame
//! section the per-tenant counter lanes touch. A THP cell with real
//! 2 MiB migration units covers the channel's large bookings. Every
//! baseline policy but Soar (which needs a profile pass) runs the
//! `plain` cell's workload and configuration as a row of its own.
//!
//! Fault plans are set explicitly on the machine configuration rather
//! than through `PACT_FAULTS` (mutating the environment is unsound
//! under the parallel test runner).

use pact_bench::make_policy;
use pact_core::{PactConfig, PactPolicy, SamplingSource};
use pact_tiersim::{
    export_trace, Access, AccessStream, AdmissionControl, FaultPlan, Machine, MachineConfig,
    MachineSnapshot, RunReport, StallFault, TenantSpec, Tier, TraceFormat, Tracer, Workload,
    PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};
use pact_workloads::Gups;

/// Pinned `(cell, report JSON, JSONL trace, page_stalls)` digests.
#[rustfmt::skip]
const GOLDEN: [(&str, u64, u64, u64); 17] = [
    ("plain", 0xdd626a9c107a6696, 0xf800148f2c4cb2aa, 0x654b6f9f902fd2b4),
    ("faulted", 0x6a35e98835a559ce, 0xdb1698818e93874e, 0xd222a24592572c31),
    ("chmu", 0x59a41d601ae7e577, 0x7e7ce55f2f0f7377, 0xcae10c3fb902345f),
    ("colocated", 0xc294ac9617fab9ae, 0x37f007cd114bc4d3, 0x693a6c5725a83ea2),
    ("fleet", 0x5f68863ea3ab026a, 0xf6f5784e62ac099f, 0xec12246956a18bf4),
    ("random-64", 0x18eb4878d791ba7e, 0x7ceeb93e84665b4c, 0x885b0acc814bbc6f),
    ("resumed", 0xb293c9312e3e4b5b, 0x2d56cb46c2771251, 0x51fc8ac1e701ae94),
    ("resumed-colocated", 0x271d513a0e8fe021, 0x90cbca6609b45d6f, 0x666f2839d9ffe6d4),
    ("resumed-fleet", 0x1ff96da2f20992ee, 0x22bbdc01743e9192, 0x367718fbf5437028),
    ("thp-512", 0x7f88c5dadc7308c1, 0xfe09fe4ff13de62e, 0x85594754bb455c0d),
    ("colloid", 0x3e65c8af0084b05e, 0xdd2fa848c7f4d670, 0x654b6f9f902fd2b4),
    ("nbt", 0x7b48c5282e0c7ef9, 0x353f973293bc45a3, 0x654b6f9f902fd2b4),
    ("alto", 0x505872dfd868d246, 0x8f508cf3ce65078f, 0x654b6f9f902fd2b4),
    ("nomad", 0x3f508903bd9c1484, 0x353f973293bc45a3, 0x654b6f9f902fd2b4),
    ("tpp", 0xd82ae0a50a6a5089, 0x353f973293bc45a3, 0x654b6f9f902fd2b4),
    ("memtis", 0x06573944fc4fda47, 0x1938b0d0d2c30811, 0x205e4fb79fedc858),
    ("notier", 0xd1778635069d2508, 0x353f973293bc45a3, 0x654b6f9f902fd2b4),
];

/// Baseline policies pinned on the `plain` cell, each under its own
/// name in `GOLDEN`.
const BASELINES: [&str; 7] = ["colloid", "nbt", "alto", "nomad", "tpp", "memtis", "notier"];

/// Pinned digest of every snapshot frame of the `resumed` cell's
/// capture run, concatenated.
const GOLDEN_FRAMES: u64 = 0xd4d5b014e7e0f2ef;

/// Pinned digests of the concatenated capture-run frames of the other
/// resumed cells.
const GOLDEN_RESUMED_FRAMES: [(&str, u64); 2] = [
    ("resumed-colocated", 0x3760d548d781e329),
    ("resumed-fleet", 0x6ee93bdfe7ddd1dc),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn base_cfg(fast_pages: u64) -> MachineConfig {
    let mut cfg = MachineConfig::skylake_cxl(fast_pages);
    cfg.window_cycles = 100_000;
    cfg.track_page_stalls = true;
    cfg
}

fn pact() -> Box<dyn pact_tiersim::TieringPolicy> {
    make_policy("pact").expect("pact is a known policy")
}

/// Runs `workloads` traced under `cfg` and digests the three artifacts.
fn digest(
    cfg: MachineConfig,
    workloads: &[&dyn Workload],
    policy: &mut dyn pact_tiersim::TieringPolicy,
) -> (u64, u64, u64) {
    let machine = Machine::new(cfg).expect("config is valid");
    let mut tracer = Tracer::ring(1 << 14);
    let report = machine
        .try_run_colocated_traced(workloads, policy, &mut tracer)
        .expect("cell runs");
    artifacts(&report, &tracer)
}

fn artifacts(report: &RunReport, tracer: &Tracer) -> (u64, u64, u64) {
    assert!(
        report.total_cycles > 0 && !report.windows.is_empty(),
        "cell must do real work"
    );
    let trace = export_trace(report, tracer, "golden", TraceFormat::Jsonl);
    (
        fnv1a(report.to_json().as_bytes()),
        fnv1a(trace.as_bytes()),
        fnv1a(format!("{:?}", report.page_stalls).as_bytes()),
    )
}

fn plain() -> (u64, u64, u64) {
    plain_under("pact")
}

/// The `plain` cell's workload and configuration under `policy`.
fn plain_under(policy: &str) -> (u64, u64, u64) {
    let wl = build("gups", Scale::Smoke, 42);
    let mut policy = make_policy(policy).expect("policy is known");
    digest(base_cfg(256), &[wl.as_ref()], policy.as_mut())
}

fn faulted() -> (u64, u64, u64) {
    let wl = build("gups", Scale::Smoke, 42);
    let mut cfg = base_cfg(128);
    cfg.fault_plan = Some(FaultPlan {
        seed: 7,
        drop_order: 0.2,
        fail_migration: 0.6,
        max_retries: 2,
        backoff_windows: 1,
        stall: Some(StallFault {
            tier: Tier::Slow,
            lines: 20_000,
            prob: 0.5,
        }),
        pebs_loss: 0.1,
        chmu_overflow: 0.05,
        ..FaultPlan::default()
    });
    digest(cfg, &[wl.as_ref()], pact().as_mut())
}

fn chmu() -> (u64, u64, u64) {
    let wl = build("gups", Scale::Smoke, 11);
    let mut cfg = base_cfg(128);
    cfg.chmu_counters = 64;
    let mut policy = PactPolicy::new(PactConfig {
        sampling: SamplingSource::Chmu,
        ..PactConfig::default()
    })
    .expect("chmu config is valid");
    digest(cfg, &[wl.as_ref()], &mut policy)
}

fn colocated() -> (u64, u64, u64) {
    let a = build("gups", Scale::Smoke, 3);
    let b = build("redis", Scale::Smoke, 4);
    digest(base_cfg(192), &[a.as_ref(), b.as_ref()], pact().as_mut())
}

fn fleet() -> (u64, u64, u64) {
    let wls: Vec<Box<dyn Workload>> = ["gups", "mlc-hog", "zipf-drift"]
        .iter()
        .map(|name| build(name, Scale::Smoke, 11))
        .collect();
    let refs: Vec<&dyn Workload> = wls.iter().map(|w| w.as_ref()).collect();
    let mut cfg = base_cfg(128);
    cfg.seed = 11;
    cfg.tenants = vec![
        TenantSpec::new("gups", 4),
        TenantSpec::new("mlc-hog", 1),
        TenantSpec::new("zipf-drift", 2),
    ];
    cfg.admission = Some(AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    });
    digest(cfg, &refs, pact().as_mut())
}

/// Real 2 MiB huge pages under PACT: each migration books a whole
/// 512-page unit's lines on both channels at a window edge (the cell
/// promotes about a thousand units).
fn thp_512() -> (u64, u64, u64) {
    let wl = Gups::new(8 << 20, 200_000, 2, 42);
    let mut cfg = base_cfg(wl.footprint_bytes() / PAGE_BYTES / 2);
    cfg.thp = true;
    cfg.thp_unit_pages = 512;
    digest(cfg, &[&wl], pact().as_mut())
}

/// Threads in the random-load cell.
const THREADS: u64 = 64;
/// Private region per thread (64 pages).
const REGION_BYTES: u64 = 64 * PAGE_BYTES;

/// `THREADS` independent random-load threads over disjoint regions:
/// every step is a fresh next-thread pick among many equals.
#[derive(Debug)]
struct RandomThreads;

struct RandomStream {
    x: u64,
    remaining: u32,
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
        Some(Access::load(self.base + (self.x >> 16) % REGION_BYTES))
    }
}

impl Workload for RandomThreads {
    fn name(&self) -> String {
        "random-64".into()
    }

    fn footprint_bytes(&self) -> u64 {
        THREADS * REGION_BYTES
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        (0..THREADS)
            .map(|i| {
                Box::new(RandomStream {
                    x: 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i + 1),
                    remaining: 1_500,
                    base: i * REGION_BYTES,
                }) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

fn random_64() -> (u64, u64, u64) {
    let cfg = base_cfg(THREADS * REGION_BYTES / PAGE_BYTES / 2);
    digest(cfg, &[&RandomThreads], pact().as_mut())
}

/// Captures a frame every two windows, resumes from the middle frame,
/// and digests the resumed run plus the capture run's frames.
fn resume_cell(mut cfg: MachineConfig, workloads: &[&dyn Workload]) -> ((u64, u64, u64), u64) {
    cfg.snapshot_every = 2;
    let machine = Machine::new(cfg.clone()).expect("config is valid");
    let mut frames: Vec<MachineSnapshot> = Vec::new();
    machine
        .try_run_snapshotting(
            workloads,
            pact().as_mut(),
            &mut Tracer::ring(1 << 14),
            &mut |s| frames.push(s),
        )
        .expect("capture run succeeds");
    assert!(frames.len() >= 3, "capture produced too few frames");
    let all = frames
        .iter()
        .map(|f| f.as_bytes())
        .collect::<Vec<_>>()
        .concat();
    cfg.snapshot_every = 0;
    let machine = Machine::new(cfg).expect("config is valid");
    let mut tracer = Tracer::ring(1 << 14);
    let report = machine
        .try_resume(
            workloads,
            pact().as_mut(),
            &mut tracer,
            &frames[frames.len() / 2],
        )
        .expect("resume succeeds");
    (artifacts(&report, &tracer), fnv1a(&all))
}

fn resumed() -> ((u64, u64, u64), u64) {
    let wl = build("masim", Scale::Smoke, 7);
    let mut cfg = base_cfg(128);
    cfg.seed = 7;
    resume_cell(cfg, &[wl.as_ref()])
}

/// Two colocated workloads without tenants: the frame carries the
/// global counters and migration ledger only.
fn resumed_colocated() -> ((u64, u64, u64), u64) {
    let a = build("gups", Scale::Smoke, 3);
    let b = build("masim", Scale::Smoke, 4);
    let mut cfg = base_cfg(192);
    cfg.seed = 5;
    resume_cell(cfg, &[a.as_ref(), b.as_ref()])
}

/// The fleet cell's tenants under admission control: the frame also
/// carries the per-tenant counter lanes, ledgers and token buckets.
fn resumed_fleet() -> ((u64, u64, u64), u64) {
    let wls: Vec<Box<dyn Workload>> = ["gups", "mlc-hog", "masim"]
        .iter()
        .map(|name| build(name, Scale::Smoke, 13))
        .collect();
    let refs: Vec<&dyn Workload> = wls.iter().map(|w| w.as_ref()).collect();
    let mut cfg = base_cfg(128);
    cfg.seed = 13;
    cfg.tenants = vec![
        TenantSpec::new("gups", 4),
        TenantSpec::new("mlc-hog", 1),
        TenantSpec::new("masim", 2),
    ];
    cfg.admission = Some(AdmissionControl {
        budget_per_window: 3,
        ..AdmissionControl::default()
    });
    resume_cell(cfg, &refs)
}

/// Asserts `got` equals the pinned row of `cell`, printing the
/// computed row on mismatch so an intended change can re-pin it.
fn check(cell: &str, got: (u64, u64, u64)) {
    let (_, j, t, s) = GOLDEN
        .iter()
        .find(|row| row.0 == cell)
        .copied()
        .expect("cell is pinned");
    let (gj, gt, gs) = got;
    assert_eq!(
        (j, t, s),
        got,
        "{cell} diverged from its golden digests; computed row:\n(\"{cell}\", {gj:#018x}, {gt:#018x}, {gs:#018x}),"
    );
}

#[test]
fn plain_gated_cell_matches_golden_digests() {
    check("plain", plain());
}

#[test]
fn baseline_policy_cells_match_golden_digests() {
    for policy in BASELINES {
        check(policy, plain_under(policy));
    }
}

#[test]
fn faulted_cell_matches_golden_digests() {
    check("faulted", faulted());
}

#[test]
fn chmu_cell_matches_golden_digests() {
    check("chmu", chmu());
}

#[test]
fn colocated_cell_matches_golden_digests() {
    check("colocated", colocated());
}

#[test]
fn fleet_cell_matches_golden_digests() {
    check("fleet", fleet());
}

#[test]
fn random_load_cell_matches_golden_digests() {
    check("random-64", random_64());
}

#[test]
fn thp_cell_matches_golden_digests() {
    check("thp-512", thp_512());
}

#[test]
fn resumed_cell_and_its_frames_match_golden_digests() {
    let (got, frames) = resumed();
    assert_eq!(
        frames, GOLDEN_FRAMES,
        "snapshot frames diverged; computed {frames:#018x}"
    );
    check("resumed", got);
}

/// Asserts a resumed cell's artifacts and capture frames against their
/// pinned rows.
fn check_resumed(cell: &str, (got, frames): ((u64, u64, u64), u64)) {
    let (_, want) = GOLDEN_RESUMED_FRAMES
        .iter()
        .find(|row| row.0 == cell)
        .copied()
        .expect("cell frames are pinned");
    assert_eq!(
        frames, want,
        "{cell} snapshot frames diverged; computed {frames:#018x}"
    );
    check(cell, got);
}

#[test]
fn resumed_colocated_cell_and_its_frames_match_golden_digests() {
    check_resumed("resumed-colocated", resumed_colocated());
}

#[test]
fn resumed_fleet_cell_and_its_frames_match_golden_digests() {
    check_resumed("resumed-fleet", resumed_fleet());
}
