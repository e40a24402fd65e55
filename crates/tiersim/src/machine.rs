//! The machine: orchestrates workload threads, the cache/tier substrate,
//! the PMU, hint-fault scanning, the migration daemon, and the active
//! tiering policy into one deterministic discrete-event run.
//!
//! # `page_stalls` semantics
//!
//! With [`MachineConfig::track_page_stalls`] armed, the run report
//! carries the simulator-only criticality oracle: for every page, the
//! pipeline-stall cycles *blamed on that page's misses*, split by the
//! tier the miss was served from (`[fast, slow]`). Blame is assigned
//! where the core actually waits — a dependent load stalls on the page
//! of its producer miss, and an MSHR-full retirement stalls on the page
//! of the oldest outstanding miss — so a page's stall total measures
//! how *critical* its misses were to forward progress, not how
//! frequently it was touched (the PACT thesis, Fig. 2). Stores never
//! accrue stall blame (they retire through the write buffer), and
//! overlapped miss latency is charged only once, to the miss the core
//! waited for. Inside the run the oracle is a dense `[fast, slow]`
//! vector indexed by page id, so a blamed miss costs one indexed add;
//! the report's ordered map is built once at the end from the nonzero
//! entries, which is exact because a blamed stall is always > 0.
//! The criticality report (`tierctl report`, DESIGN.md §13) folds this
//! oracle into flamegraphs and top-K tables.
//!
//! # Counter lanes
//!
//! The simulation keeps its PMU counters and migration ledger only as
//! lanes: one per tenant in fleet mode, a single lane otherwise. Each
//! thread carries its lane, page-owned traffic (migration bytes and
//! ledger entries) goes to the page owner's lane, and every global
//! value — the window delta, the policy's cumulative view, the
//! invariant checker's inputs, the report totals, the snapshot frame's
//! global section — is the lane sum taken where it is read. Per-tenant
//! counters therefore partition the globals by construction (DESIGN.md
//! §16).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pact_obs::{EventKind, HistogramNames, MetricId, MetricsRegistry, Tracer};
use pact_stats::codec::{ByteReader, ByteWriter, CodecError};
use pact_stats::SplitMix64;

use crate::cache::{line_of, Llc, StrideDetector};
use crate::chmu::Chmu;
use crate::config::{ConfigError, MachineConfig};
use crate::error::SimError;
use crate::fault::{FaultState, RetryEntry};
use crate::invariant::{InvariantChecker, WindowCheck};
use crate::mem::Memory;
use crate::pmu::{PebsSampler, PmuCounters, SampleEvent};
use crate::policy::{
    CtxTotals, MachineInfo, MigrationOrder, PolicyCtx, TieringPolicy, WindowStats,
};
use crate::snapshot::{self, MachineSnapshot};
use crate::tier::Channel;
use crate::types::{AccessKind, PageId, Tier, HUGE_PAGE_SPAN, LINE_BYTES, PAGE_BYTES};
use crate::workload::{AccessStream, Workload};

/// Per-window record of migration activity, counter deltas, and policy
/// telemetry; the raw material of the paper's time-series figures (8, 9).
#[derive(Debug, Clone)]
pub struct WindowRecord {
    /// Zero-based window index.
    pub index: u64,
    /// Machine time at the end of the window, in cycles.
    pub end_cycles: u64,
    /// Base pages promoted during this window.
    pub promotions: u64,
    /// Base pages demoted during this window.
    pub demotions: u64,
    /// Promotion orders rejected during this window for lack of
    /// fast-tier space (localises migration-queue pressure in time).
    pub failed_promotions: u64,
    /// Migration orders dropped during this window on daemon-queue
    /// overflow.
    pub dropped_orders: u64,
    /// Trace events evicted from the tracer's ring buffer during this
    /// window (0 whenever the ring kept up — the common case). Lets
    /// trace consumers localise ring overflow in time instead of
    /// discovering it only in the run-level `overwritten` total.
    pub trace_dropped_events: u64,
    /// Counter deltas over the window.
    pub delta: PmuCounters,
    /// Named values the policy reported via
    /// [`PolicyCtx::telemetry`](crate::policy::PolicyCtx::telemetry).
    pub telemetry: Vec<(&'static str, f64)>,
    /// Per-window snapshot of the machine's metrics registry (counter
    /// deltas, gauge values, histogram window means), in registration
    /// order.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Per-tenant completion summary of a fleet run (one entry per
/// [`crate::TenantSpec`]; empty for legacy single-tenant runs).
///
/// Every per-tenant quantity is an exact partition of the run's global
/// totals. The machine keeps only per-tenant counter lanes — each event
/// lands in the lane of its thread (or, for migration traffic and the
/// ledger, of the moved page's owner) — and reports their sums as the
/// globals; stall lanes partition the page-stalls oracle by the
/// tenant's disjoint base-page range.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Tenant display name from the spec.
    pub name: String,
    /// QoS weight from the spec.
    pub qos_weight: u32,
    /// First base page of the tenant's address-space partition.
    pub base_page: u64,
    /// Size of the partition in base pages.
    pub pages: u64,
    /// Hardware counters attributed to this tenant.
    pub counters: PmuCounters,
    /// Base pages promoted on this tenant's behalf.
    pub promotions: u64,
    /// Base pages demoted on this tenant's behalf.
    pub demotions: u64,
    /// Promotion orders for this tenant's pages rejected for lack of
    /// fast-tier space (or abandoned after retry exhaustion).
    pub failed_promotions: u64,
    /// Migration orders for this tenant's pages dropped (queue
    /// overflow, injected drops, or deferral exhaustion).
    pub dropped_orders: u64,
    /// Orders that passed admission control (all orders when admission
    /// control is off).
    pub admitted_orders: u64,
    /// Orders rejected by admission control (token bucket empty or
    /// channel backpressure) and deferred.
    pub rejected_orders: u64,
    /// Stall cycles blamed on this tenant's pages, `[fast, slow]`
    /// (all zero unless `track_page_stalls` was configured).
    pub stall_cycles: [u64; 2],
}

/// Completion summary of one simulated process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessReport {
    /// Workload name.
    pub name: String,
    /// Cycle at which the process's last thread retired its last access.
    pub cycles: u64,
    /// Accesses the process performed.
    pub accesses: u64,
}

/// Result of one machine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the policy that governed the run.
    pub policy: String,
    /// Completion time of the whole run (max over processes), in cycles.
    pub total_cycles: u64,
    /// Per-process completion summaries (one entry unless colocated).
    pub per_process: Vec<ProcessReport>,
    /// Cumulative hardware counters (the sum of the counter lanes).
    pub counters: PmuCounters,
    /// Base pages promoted to the fast tier.
    pub promotions: u64,
    /// Base pages demoted to the slow tier.
    pub demotions: u64,
    /// Promotion orders rejected for lack of fast-tier space.
    pub failed_promotions: u64,
    /// Migration orders dropped because the daemon queue overflowed.
    pub dropped_orders: u64,
    /// Per-window history.
    pub windows: Vec<WindowRecord>,
    /// Ground-truth stall cycles attributed to each page's misses,
    /// split by the tier the blamed miss was served from (`[fast,
    /// slow]`; present only when `track_page_stalls` was configured).
    /// The simulator-only oracle against which PAC estimates are
    /// validated and the criticality report is built (module docs,
    /// "`page_stalls` semantics"). Ordered map so consumers that
    /// iterate the oracle (reports, diffs) see a deterministic
    /// sequence (det-hash-collections).
    pub page_stalls: Option<std::collections::BTreeMap<PageId, [u64; 2]>>,
    /// Per-tenant summaries (fleet mode only; empty for legacy runs,
    /// keeping single-tenant report JSON byte-identical).
    pub tenants: Vec<TenantReport>,
}

impl RunReport {
    /// Slowdown relative to a reference run: `cycles / base.cycles - 1`.
    ///
    /// The paper reports slowdown against the ideal DRAM-only execution;
    /// 0.0 means "as fast as DRAM", 1.0 means "twice the runtime".
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        assert!(baseline.total_cycles > 0, "baseline has zero cycles");
        self.total_cycles as f64 / baseline.total_cycles as f64 - 1.0
    }

    /// Migration-unit promotions (base-page count divided by the unit
    /// span used in the run) are not tracked separately; this returns the
    /// base-page count, which is what Table 2 compares.
    pub fn promoted_pages(&self) -> u64 {
        self.promotions
    }
}

/// A deterministic tiered-memory machine.
///
/// Construct once from a [`MachineConfig`]; each [`run`](Self::run) is an
/// independent simulation with fresh state.
///
/// # Example
///
/// ```
/// use pact_tiersim::{Access, Machine, MachineConfig, FirstTouch, TraceWorkload};
///
/// let trace: Vec<Access> = (0..20_000).map(|i| Access::load((i * 64) % 65_536)).collect();
/// let wl = TraceWorkload::new("stream", 65_536, trace);
/// let machine = Machine::new(MachineConfig::skylake_cxl(4)).unwrap();
/// let report = machine.run(&wl, &mut FirstTouch::new());
/// assert!(report.total_cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    cfg: MachineConfig,
}

impl Machine {
    /// Validates the configuration and builds the machine.
    ///
    /// # Errors
    ///
    /// Returns the validation error for an inconsistent configuration.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// The configuration in force.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Static machine facts for policy preparation.
    pub fn info(&self, total_pages: u64) -> MachineInfo {
        MachineInfo {
            fast_tier_pages: self.cfg.fast_tier_pages,
            total_pages,
            thp: self.cfg.thp,
            unit_span: if self.cfg.thp {
                self.cfg.thp_unit_pages
            } else {
                1
            },
            window_cycles: self.cfg.window_cycles,
            latency_cycles: [
                self.cfg.latency_cycles(Tier::Fast),
                self.cfg.latency_cycles(Tier::Slow),
            ],
            pebs_rate: self.cfg.pebs.rate,
            freq_ghz: self.cfg.freq_ghz,
            mshrs: self.cfg.mshrs,
        }
    }

    /// Runs a single workload under `policy`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate workload set or an out-of-range address;
    /// see [`try_run`](Self::try_run) for the fallible form.
    pub fn run(&self, workload: &dyn Workload, policy: &mut dyn TieringPolicy) -> RunReport {
        self.run_colocated(&[workload], policy)
    }

    /// Fallible [`run`](Self::run): degenerate workload sets and
    /// out-of-range addresses surface as [`SimError`]s.
    ///
    /// # Errors
    ///
    /// See [`try_run_colocated`](Self::try_run_colocated).
    pub fn try_run(
        &self,
        workload: &dyn Workload,
        policy: &mut dyn TieringPolicy,
    ) -> Result<RunReport, SimError> {
        self.try_run_colocated(&[workload], policy)
    }

    /// [`run`](Self::run) with a structured event trace recorded into
    /// `tracer` (see [`pact_obs::Tracer`]). The trace does not perturb
    /// the simulation: the report is identical to an untraced run.
    ///
    /// # Panics
    ///
    /// Panics where [`run`](Self::run) does.
    pub fn run_traced(
        &self,
        workload: &dyn Workload,
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
    ) -> RunReport {
        self.run_colocated_traced(&[workload], policy, tracer)
    }

    /// Fallible [`run_traced`](Self::run_traced).
    ///
    /// # Errors
    ///
    /// See [`try_run_colocated`](Self::try_run_colocated).
    pub fn try_run_traced(
        &self,
        workload: &dyn Workload,
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
    ) -> Result<RunReport, SimError> {
        self.try_run_colocated_traced(&[workload], policy, tracer)
    }

    /// Runs several colocated workloads (separate address spaces, shared
    /// LLC, channels, and fast tier) under one `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty or a stream emits an out-of-range
    /// address ([`try_run_colocated`](Self::try_run_colocated) returns
    /// these as errors instead).
    pub fn run_colocated(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
    ) -> RunReport {
        let mut tracer = Tracer::disabled();
        self.run_colocated_traced(workloads, policy, &mut tracer)
    }

    /// Fallible [`run_colocated`](Self::run_colocated).
    ///
    /// # Errors
    ///
    /// [`SimError::NoWorkloads`] / [`SimError::NoStreams`] /
    /// [`SimError::NoForeground`] for degenerate workload sets, and
    /// [`SimError::AddressOutOfRange`] when a stream emits an address
    /// beyond its declared footprint.
    pub fn try_run_colocated(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
    ) -> Result<RunReport, SimError> {
        let mut tracer = Tracer::disabled();
        self.try_run_colocated_traced(workloads, policy, &mut tracer)
    }

    /// [`run_colocated`](Self::run_colocated) with event tracing.
    ///
    /// # Panics
    ///
    /// Panics where [`run_colocated`](Self::run_colocated) does.
    pub fn run_colocated_traced(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
    ) -> RunReport {
        // Legacy panicking wrapper: the panic text is the error's
        // Display form, which existing `should_panic` tests pin.
        self.try_run_colocated_traced(workloads, policy, tracer)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`run_colocated_traced`](Self::run_colocated_traced):
    /// the primary entry point every other run method funnels into.
    ///
    /// # Errors
    ///
    /// See [`try_run_colocated`](Self::try_run_colocated).
    pub fn try_run_colocated_traced(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
    ) -> Result<RunReport, SimError> {
        if workloads.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        Sim::new(&self.cfg, workloads, policy, tracer)?.run()
    }

    /// [`try_run_colocated_traced`](Self::try_run_colocated_traced)
    /// with crash-recovery snapshot capture: after every
    /// [`MachineConfig::snapshot_every`] completed windows, the
    /// complete machine state is sealed into a [`MachineSnapshot`] and
    /// handed to `sink`. With `snapshot_every == 0` this is exactly a
    /// plain run. The capture does not perturb the simulation: the
    /// report is byte-identical to an uncaptured run.
    ///
    /// # Errors
    ///
    /// Everything [`try_run_colocated`](Self::try_run_colocated)
    /// returns, plus [`SimError::Snapshot`] when the active policy does
    /// not implement
    /// [`TieringPolicy::save_state`](crate::TieringPolicy::save_state).
    pub fn try_run_snapshotting(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
        sink: &mut dyn FnMut(MachineSnapshot),
    ) -> Result<RunReport, SimError> {
        if workloads.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        let mut sim = Sim::new(&self.cfg, workloads, policy, tracer)?;
        sim.snap_sink = Some(sink);
        sim.run()
    }

    /// Resumes a run from `snapshot` and drives it to completion: the
    /// returned report (and every trace/metrics byte) is identical to
    /// the uninterrupted run's. The workloads must be the ones the
    /// snapshot was captured under; the machine configuration must
    /// match the snapshot's fingerprint, except `snapshot_every`, which
    /// may differ freely.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] for corrupt, truncated, version- or
    /// configuration-mismatched frames (never undefined behaviour),
    /// plus everything [`try_run_colocated`](Self::try_run_colocated)
    /// returns.
    pub fn try_resume(
        &self,
        workloads: &[&dyn Workload],
        policy: &mut dyn TieringPolicy,
        tracer: &mut Tracer,
        snapshot: &MachineSnapshot,
    ) -> Result<RunReport, SimError> {
        if workloads.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        let mut sim = Sim::new(&self.cfg, workloads, policy, tracer)?;
        sim.restore(snapshot)?;
        sim.run()
    }
}

/// Cold per-thread state. The scheduler-hot fields — the thread clock,
/// done flag, and prologue gate — live in struct-of-arrays form on
/// [`Sim`] (`clock` / `done` / `gated_by`) so the next-thread pick
/// touches three dense vectors instead of striding through this struct.
struct ThreadState<'w> {
    stream: Box<dyn AccessStream + 'w>,
    proc: usize,
    /// Counter lane this thread's events land in: its tenant in fleet
    /// mode, the single lane 0 otherwise.
    lane: usize,
    base_page: u64,
    footprint_bytes: u64,
    /// Accesses consumed from `stream` so far. Snapshot restore
    /// fast-forwards a fresh stream by this many accesses — sound
    /// because [`Workload::streams`] contractually returns identical
    /// streams on every call.
    consumed: u64,
    /// Outstanding miss completions:
    /// `Reverse((completion_cycle, tier_index, page))`.
    inflight: BinaryHeap<Reverse<(u64, u8, u64)>>,
    /// Outstanding store handoff times (finite write buffer).
    write_buffer: BinaryHeap<Reverse<u64>>,
    last_miss_completion: u64,
    last_miss_tier: u8,
    last_miss_page: u64,
    detector: StrideDetector,
}

/// Write-buffer entries per thread; a full buffer stalls the core until
/// the memory channel drains a store.
const WRITE_BUFFER: usize = 32;

/// Prefetches are dropped when the target channel is backlogged beyond
/// this many cycles (hardware prefetchers yield to demand traffic).
const PREFETCH_BACKLOG_LIMIT: f64 = 150.0;

struct ProcState {
    name: String,
    accesses: u64,
    finish: u64,
    background: bool,
}

/// One lane's migration ledger and admission accounting.
#[derive(Debug, Default, Clone, Copy)]
struct TenantStats {
    promotions: u64,
    demotions: u64,
    failed_promotions: u64,
    dropped_orders: u64,
    admitted_orders: u64,
    rejected_orders: u64,
}

impl TenantStats {
    /// Field-wise sum of `lanes`: the run's global ledger.
    fn sum(lanes: &[TenantStats]) -> TenantStats {
        let mut total = TenantStats::default();
        for lane in lanes {
            let TenantStats {
                promotions,
                demotions,
                failed_promotions,
                dropped_orders,
                admitted_orders,
                rejected_orders,
            } = *lane;
            total.promotions += promotions;
            total.demotions += demotions;
            total.failed_promotions += failed_promotions;
            total.dropped_orders += dropped_orders;
            total.admitted_orders += admitted_orders;
            total.rejected_orders += rejected_orders;
        }
        total
    }
}

/// Dense metric handles for one tenant's registry rows (names are
/// interned `tenant/<name>/...` strings built once in `Sim::new`).
#[derive(Debug, Clone, Copy)]
struct TenantMetrics {
    m_accesses: MetricId,
    m_promoted: MetricId,
    m_rejected: MetricId,
    m_tokens: MetricId,
}

struct Sim<'a, 'w> {
    cfg: &'a MachineConfig,
    policy: &'a mut dyn TieringPolicy,
    threads: Vec<ThreadState<'w>>,
    // Scheduler-hot thread state in struct-of-arrays form: the pick
    // loop reads only these dense vectors. `clock[ti]` is *relative*
    // (absolute minus `clock_offset`) while the thread is live, and
    // materialised to absolute cycles once `done[ti]` is set — TLB
    // shootdowns advance every live thread by bumping `clock_offset`
    // once instead of writing every element.
    clock: Vec<u64>,
    done: Vec<bool>,
    /// Index of the prologue thread that must finish before this one
    /// starts (workers of a process with an init phase).
    gated_by: Vec<Option<u32>>,
    clock_offset: u64,
    /// Ready-heap of runnable threads keyed `Reverse((relative_clock,
    /// thread))`, minus the thread being stepped. Gated workers join
    /// when their prologue releases them.
    ready: BinaryHeap<Reverse<(u64, u32)>>,
    /// Reusable due-retry buffer for the window loop.
    retry_buf: Vec<RetryEntry>,
    procs: Vec<ProcState>,
    mem: Memory,
    llc: Llc,
    chmu: Option<Chmu>,
    pebs: PebsSampler,
    rng: SplitMix64,
    /// Hardware counters, one lane per tenant in fleet mode and a
    /// single lane otherwise. Every event lands in exactly one lane, so
    /// the global counters are the lane sum ([`counter_sum`]),
    /// taken wherever they are read.
    lane_counters: Vec<PmuCounters>,
    /// Migration ledger and admission accounting, laned like
    /// `lane_counters`; migration entries land in the moved page's lane.
    lane_stats: Vec<TenantStats>,
    latency: [u64; 2],
    channels: [Channel; 2],
    tor_covered: [u64; 2],
    // Window state.
    window_idx: u64,
    next_edge: u64,
    last_snapshot: PmuCounters,
    windows: Vec<WindowRecord>,
    window_promos: u64,
    window_demos: u64,
    window_telemetry: Vec<(&'static str, f64)>,
    // Reusable policy-callback sinks: cleared and lent to PolicyCtx on
    // every sample/window so the hot path never allocates.
    order_buf: Vec<MigrationOrder>,
    telemetry_buf: Vec<(&'static str, f64)>,
    // Migration state. Queue entries carry the enqueue cycle so the
    // daemon can observe queue latency into `mig/latency_cycles` when
    // it services an order.
    order_queue: VecDeque<(u64, MigrationOrder)>,
    window_failed: u64,
    window_dropped: u64,
    hint_scan_per_window: u64,
    foreground_threads: usize,
    /// Stall oracle `[fast, slow]` indexed by page id, sized to the
    /// whole address space when `track_page_stalls` is armed and empty
    /// otherwise (so the armed check is the bounds check).
    page_stalls: Vec<[u64; 2]>,
    // Observability: structured event sink, metrics registry, and the
    // dense metric handles the substrate updates each window.
    tracer: &'a mut Tracer,
    registry: MetricsRegistry,
    // All `m_*` handles below: dense metric ids assigned by the fixed
    // registration order at construction, identical on any resume.
    m_daemon_pages: MetricId,
    m_queue_len: MetricId,
    m_fast_used: MetricId,
    m_chan_backlog: [MetricId; 2],
    m_chan_lines: [MetricId; 2],
    m_chmu: Option<(MetricId, MetricId)>,
    m_pebs_latency: MetricId,
    m_mig_latency: MetricId,
    m_chan_occupancy: [MetricId; 2],
    /// Tracer ring-overwrite total as of the last window edge; the
    /// per-window delta becomes `WindowRecord::trace_dropped_events`.
    overwritten_seen: u64,
    chan_lines_seen: [u64; 2],
    /// Start cycle of an ongoing channel-saturation episode, per tier.
    saturated_since: [Option<u64>; 2],
    /// Fault injection, present only when the configuration carries an
    /// active plan; `None` keeps the hot path fault-free and the
    /// metrics/trace output byte-identical to a pre-fault build.
    faults: Option<FaultState>,
    /// Invariant checking, present only when the configuration arms an
    /// [`crate::InvariantSet`]; `None` (the default) adds nothing but
    /// dead `Option` branches to the migration path and keeps output
    /// byte-identical to a build without the checking layer.
    checker: Option<Box<InvariantChecker>>,
    /// Crash-recovery snapshot sink; when set and
    /// `cfg.snapshot_every > 0`, sealed frames are handed to it every
    /// `snapshot_every` completed windows.
    snap_sink: Option<&'a mut dyn FnMut(MachineSnapshot)>,
    // Fleet mode (cfg.tenants non-empty): tenant i owns colocated
    // workload i's threads and pages, and lane i of the counters. The
    // admission vectors are empty on runs without tenants.
    /// First base page per lane (ascending; index 0 holds 0, and it is
    /// the only entry outside fleet mode). Page ownership is
    /// `partition_point` over this vector.
    tenant_base: Vec<u64>,
    /// Partition size per lane in base pages.
    tenant_pages: Vec<u64>,
    /// Remaining admission tokens this window / per-window refill,
    /// both empty unless admission control is configured.
    tenant_tokens: Vec<u64>,
    tenant_budget: Vec<u64>,
    tenant_metrics: Vec<TenantMetrics>,
    /// Admission-rejected orders awaiting retry:
    /// `(due_window, attempt, order)`, bounded by [`ORDER_QUEUE_CAP`].
    admission_deferred: VecDeque<(u64, u32, MigrationOrder)>,
    /// Channel-saturation backpressure flag, recomputed at every window
    /// edge from end-of-window channel backlog; while set, admission
    /// control defers every order.
    backpressured: bool,
}

/// Maximum pending async migration orders before new ones are dropped.
const ORDER_QUEUE_CAP: usize = 1 << 16;

/// Maximum admission-control deferrals of one order before it is
/// dropped (each deferral doubles the wait, like fault retries).
pub const MAX_DEFERRALS: u32 = 3;

/// Channel backlog (in cycles of channel time, sampled at window
/// boundaries) beyond which the channel counts as saturated for
/// episode tracing.
const SATURATION_BACKLOG_CYCLES: f64 = 1_000.0;

/// Per-window metric names for the PEBS sampled-load-latency histogram.
static PEBS_LATENCY_H: HistogramNames = HistogramNames {
    mean: "pebs/latency_cycles",
    p50: "pebs/latency_cycles_p50",
    p90: "pebs/latency_cycles_p90",
    p99: "pebs/latency_cycles_p99",
    p999: "pebs/latency_cycles_p999",
};

/// Per-window metric names for migration-order queue latency (cycles
/// from enqueue to daemon service).
static MIG_LATENCY_H: HistogramNames = HistogramNames {
    mean: "mig/latency_cycles",
    p50: "mig/latency_cycles_p50",
    p90: "mig/latency_cycles_p90",
    p99: "mig/latency_cycles_p99",
    p999: "mig/latency_cycles_p999",
};

/// Per-window metric names for demand-miss channel queueing delay, one
/// histogram per tier (indexed like every other `[fast, slow]` pair).
static CHAN_OCCUPANCY_H: [HistogramNames; 2] = [
    HistogramNames {
        mean: "channel/fast/occupancy_cycles",
        p50: "channel/fast/occupancy_cycles_p50",
        p90: "channel/fast/occupancy_cycles_p90",
        p99: "channel/fast/occupancy_cycles_p99",
        p999: "channel/fast/occupancy_cycles_p999",
    },
    HistogramNames {
        mean: "channel/slow/occupancy_cycles",
        p50: "channel/slow/occupancy_cycles_p50",
        p90: "channel/slow/occupancy_cycles_p90",
        p99: "channel/slow/occupancy_cycles_p99",
        p999: "channel/slow/occupancy_cycles_p999",
    },
];

impl<'a, 'w> Sim<'a, 'w> {
    fn new(
        cfg: &'a MachineConfig,
        workloads: &[&'w dyn Workload],
        policy: &'a mut dyn TieringPolicy,
        tracer: &'a mut Tracer,
    ) -> Result<Self, SimError> {
        if !cfg.tenants.is_empty() && cfg.tenants.len() != workloads.len() {
            return Err(SimError::TenantMismatch {
                tenants: cfg.tenants.len(),
                workloads: workloads.len(),
            });
        }
        let mut threads = Vec::new();
        let mut gated: Vec<Option<u32>> = Vec::new();
        let mut procs = Vec::new();
        let mut proc_base = Vec::new();
        let mut proc_pages = Vec::new();
        let mut next_base_page = 0u64;
        for (pi, wl) in workloads.iter().enumerate() {
            let fp_bytes = wl.footprint_bytes();
            let fp_pages = fp_bytes.div_ceil(PAGE_BYTES);
            let fp_pages = fp_pages.div_ceil(HUGE_PAGE_SPAN) * HUGE_PAGE_SPAN;
            let base_page = next_base_page;
            next_base_page += fp_pages;
            proc_base.push(base_page);
            proc_pages.push(fp_pages);
            let mk = |stream| ThreadState {
                stream,
                proc: pi,
                lane: if cfg.tenants.is_empty() { 0 } else { pi },
                base_page,
                footprint_bytes: fp_bytes,
                consumed: 0,
                inflight: BinaryHeap::with_capacity(cfg.mshrs + 1),
                write_buffer: BinaryHeap::with_capacity(WRITE_BUFFER + 1),
                last_miss_completion: 0,
                last_miss_tier: 0,
                last_miss_page: 0,
                detector: StrideDetector::new(&cfg.prefetch),
            };
            let gate = wl.prologue().map(|stream| {
                threads.push(mk(stream));
                gated.push(None);
                // pact-lint: allow(counter-truncation) — thread indices
                // are bounded by the workload's stream count, far below
                // u32::MAX.
                (threads.len() - 1) as u32
            });
            for stream in wl.streams() {
                threads.push(mk(stream));
                gated.push(gate);
            }
            procs.push(ProcState {
                name: wl.name(),
                accesses: 0,
                finish: 0,
                background: wl.is_background(),
            });
        }
        if threads.is_empty() {
            return Err(SimError::NoStreams);
        }
        let foreground_threads = threads
            .iter()
            .filter(|t| !workloads[t.proc].is_background())
            .count();
        if foreground_threads == 0 {
            return Err(SimError::NoForeground);
        }
        let unit_span = if cfg.thp { cfg.thp_unit_pages } else { 1 };
        let mem = Memory::new(next_base_page, cfg.fast_tier_pages, unit_span);
        policy.prepare(&MachineInfo {
            fast_tier_pages: cfg.fast_tier_pages,
            total_pages: next_base_page,
            thp: cfg.thp,
            unit_span,
            window_cycles: cfg.window_cycles,
            latency_cycles: [
                cfg.latency_cycles(Tier::Fast),
                cfg.latency_cycles(Tier::Slow),
            ],
            pebs_rate: cfg.pebs.rate,
            freq_ghz: cfg.freq_ghz,
            mshrs: cfg.mshrs,
        });
        let mut pebs_cfg = cfg.pebs;
        if let Some(scope) = policy.pebs_scope() {
            pebs_cfg.scope = scope;
        }
        // Register the substrate's metrics up front: updates on the run
        // path go through dense ids and never allocate.
        let mut registry = MetricsRegistry::new();
        let m_daemon_pages = registry.counter("daemon/migrated_pages");
        let m_queue_len = registry.gauge("daemon/queue_len");
        let m_fast_used = registry.gauge("mem/fast_used");
        let m_chan_backlog = [
            registry.gauge("channel/fast/backlog_cycles"),
            registry.gauge("channel/slow/backlog_cycles"),
        ];
        let m_chan_lines = [
            registry.counter("channel/fast/lines"),
            registry.counter("channel/slow/lines"),
        ];
        let m_chmu = (cfg.chmu_counters > 0)
            .then(|| (registry.gauge("chmu/tracked"), registry.gauge("chmu/total")));
        let m_pebs_latency = registry.histogram(PEBS_LATENCY_H);
        let m_mig_latency = registry.histogram(MIG_LATENCY_H);
        let m_chan_occupancy = [
            registry.histogram(CHAN_OCCUPANCY_H[0]),
            registry.histogram(CHAN_OCCUPANCY_H[1]),
        ];
        // Fault metrics register only when a plan can actually inject,
        // so disabled (or inert) plans leave the per-window metric
        // snapshot — and therefore every exported byte — unchanged.
        let faults = cfg
            .fault_plan
            .as_ref()
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(p.clone(), &mut registry));
        // Fleet mode: per-tenant metric rows (interned names in tenant
        // order, so registration — and every per-window snapshot — is
        // deterministic) and QoS-weighted admission budgets.
        let tenant_metrics: Vec<TenantMetrics> = cfg
            .tenants
            .iter()
            .map(|t| {
                let name = |suffix: &str| pact_obs::intern(&format!("tenant/{}/{suffix}", t.name));
                TenantMetrics {
                    m_accesses: registry.gauge(name("accesses")),
                    m_promoted: registry.gauge(name("promoted_pages")),
                    m_rejected: registry.counter(name("admission_rejected")),
                    m_tokens: registry.gauge(name("tokens")),
                }
            })
            .collect();
        let tenant_budget: Vec<u64> = match &cfg.admission {
            Some(adm) => {
                // Validation guarantees non-empty tenants and weights
                // >= 1, so the weight sum is positive.
                let sum: u64 = cfg.tenants.iter().map(|t| t.qos_weight as u64).sum();
                cfg.tenants
                    .iter()
                    .map(|t| (adm.budget_per_window * t.qos_weight as u64 / sum).max(1))
                    .collect()
            }
            None => Vec::new(),
        };
        let tenant_tokens = tenant_budget.clone();
        let lanes = cfg.tenants.len().max(1);
        let (tenant_base, tenant_pages) = if cfg.tenants.is_empty() {
            (vec![0], vec![next_base_page])
        } else {
            (proc_base, proc_pages)
        };
        // pact-lint: allow(counter-truncation) — thread indices are far
        // below u32::MAX.
        let ready = (0..threads.len() as u32)
            .filter(|&ti| gated[ti as usize].is_none())
            .map(|ti| Reverse((0, ti)))
            .collect();
        Ok(Sim {
            policy,
            clock: vec![0; threads.len()],
            done: vec![false; threads.len()],
            gated_by: gated,
            clock_offset: 0,
            ready,
            retry_buf: Vec::new(),
            threads,
            procs,
            mem,
            llc: Llc::new(cfg.llc),
            chmu: (cfg.chmu_counters > 0).then(|| Chmu::new(cfg.chmu_counters)),
            pebs: PebsSampler::new(pebs_cfg),
            rng: SplitMix64::seed_from_u64(cfg.seed),
            lane_counters: vec![PmuCounters::default(); lanes],
            lane_stats: vec![TenantStats::default(); lanes],
            latency: [
                cfg.latency_cycles(Tier::Fast),
                cfg.latency_cycles(Tier::Slow),
            ],
            channels: [
                Channel::new(cfg.tiers[0].line_transfer_cycles(cfg.freq_ghz)),
                Channel::new(cfg.tiers[1].line_transfer_cycles(cfg.freq_ghz)),
            ],
            tor_covered: [0; 2],
            window_idx: 0,
            next_edge: cfg.window_cycles,
            last_snapshot: PmuCounters::default(),
            windows: Vec::new(),
            window_promos: 0,
            window_demos: 0,
            window_telemetry: Vec::new(),
            order_buf: Vec::new(),
            telemetry_buf: Vec::new(),
            order_queue: VecDeque::new(),
            window_failed: 0,
            window_dropped: 0,
            hint_scan_per_window: 0,
            foreground_threads,
            page_stalls: if cfg.track_page_stalls {
                vec![[0; 2]; next_base_page as usize]
            } else {
                Vec::new()
            },
            tracer,
            registry,
            m_daemon_pages,
            m_queue_len,
            m_fast_used,
            m_chan_backlog,
            m_chan_lines,
            m_chmu,
            m_pebs_latency,
            m_mig_latency,
            m_chan_occupancy,
            overwritten_seen: 0,
            chan_lines_seen: [0; 2],
            saturated_since: [None; 2],
            faults,
            checker: cfg
                .invariants
                .map(|set| Box::new(InvariantChecker::new(set))),
            snap_sink: None,
            tenant_base,
            tenant_pages,
            tenant_tokens,
            tenant_budget,
            tenant_metrics,
            admission_deferred: VecDeque::new(),
            backpressured: false,
            cfg,
        })
    }

    /// Lane that owns `page`: the colocation layout gives tenants
    /// disjoint ascending base-page ranges, so ownership is a partition
    /// point over the range starts (always lane 0 outside fleet mode).
    #[inline]
    fn tenant_of_page(&self, page: PageId) -> usize {
        // Invariant: tenant_base[0] == 0, so at least one start <= page.
        self.tenant_base.partition_point(|&b| b <= page.0) - 1
    }

    /// Absolute machine time of thread `ti`: live threads carry the
    /// shared `clock_offset`, done threads store absolute cycles.
    #[inline]
    fn now_abs(&self, ti: usize) -> u64 {
        if self.done[ti] {
            self.clock[ti]
        } else {
            self.clock[ti] + self.clock_offset
        }
    }

    /// Inserts a live thread into the ready-heap. Heap keys are
    /// relative clocks, which never change while a thread sits in the
    /// heap: shootdowns move the shared offset, and only the thread
    /// being stepped advances its own clock.
    #[inline]
    fn ready_push(&mut self, ti: usize) {
        // pact-lint: allow(counter-truncation) — thread indices are far
        // below u32::MAX.
        self.ready.push(Reverse((self.clock[ti], ti as u32)));
    }

    /// The event loop: steps runnable threads in global time order,
    /// ties going to the lowest thread index. The running thread stays
    /// out of the heap and runs ahead while `(clock, thread)` is below
    /// the heap minimum; once another thread is earlier, the two swap
    /// places in one sift-down of the heap top. Live threads share one
    /// offset, so comparing relative clocks is comparing absolute times.
    fn run_loop(&mut self) -> Result<(), SimError> {
        let Some(Reverse((_, first))) = self.ready.pop() else {
            return Ok(());
        };
        let mut ti = first as usize;
        while self.foreground_threads > 0 {
            // Fire any window boundaries the whole machine has passed.
            while self.clock[ti] + self.clock_offset >= self.next_edge {
                self.fire_window(true)?;
            }
            self.step_thread(ti)?;
            if self.done[ti] {
                let Some(Reverse((_, next))) = self.ready.pop() else {
                    break;
                };
                ti = next as usize;
                continue;
            }
            // pact-lint: allow(counter-truncation) — thread indices are
            // far below u32::MAX.
            let key = (self.clock[ti], ti as u32);
            if let Some(mut top) = self.ready.peek_mut() {
                if top.0 < key {
                    ti = std::mem::replace(&mut *top, Reverse(key)).0 .1 as usize;
                }
            }
        }
        Ok(())
    }

    fn run(mut self) -> Result<RunReport, SimError> {
        let _prof = pact_obs::hostprof::span("run");
        self.run_loop()?;
        // Stop any background co-runners at the current clock.
        for ti in 0..self.threads.len() {
            if !self.done[ti] {
                self.done[ti] = true;
                let finish = self.clock[ti] + self.clock_offset;
                self.clock[ti] = finish;
                let proc = self.threads[ti].proc;
                self.procs[proc].finish = self.procs[proc].finish.max(finish);
            }
        }
        // Close the final partial window so its activity is recorded.
        // Snapshot capture is suppressed here: the frame would describe
        // a run with no live foreground threads, which resume could
        // never continue (and whose outputs are already final).
        self.fire_window(false)?;
        let counters = counter_sum(&self.lane_counters);
        let ledger = TenantStats::sum(&self.lane_stats);
        if let Some(c) = self.checker.as_ref() {
            c.check_final(
                ledger.promotions,
                ledger.demotions,
                ledger.failed_promotions,
                ledger.dropped_orders,
                &counters,
            )?;
        }
        let total_cycles = self
            .procs
            .iter()
            .filter(|p| !p.background)
            .map(|p| p.finish)
            .max()
            .unwrap_or(0);
        // Fleet mode: per-tenant lanes. Stall lanes are derived from
        // the page-stalls oracle by partitioning it over the tenants'
        // disjoint base-page ranges — an exact partition of the global
        // totals by construction.
        let tenants: Vec<TenantReport> = self
            .cfg
            .tenants
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let lo = self.tenant_base[i];
                let hi = lo + self.tenant_pages[i];
                let mut stall_cycles = [0u64; 2];
                if let Some(lane) = self.page_stalls.get(lo as usize..hi as usize) {
                    for [fast, slow] in lane {
                        stall_cycles[0] += fast;
                        stall_cycles[1] += slow;
                    }
                }
                let st = self.lane_stats[i];
                TenantReport {
                    name: spec.name.clone(),
                    qos_weight: spec.qos_weight,
                    base_page: lo,
                    pages: self.tenant_pages[i],
                    counters: self.lane_counters[i],
                    promotions: st.promotions,
                    demotions: st.demotions,
                    failed_promotions: st.failed_promotions,
                    dropped_orders: st.dropped_orders,
                    admitted_orders: st.admitted_orders,
                    rejected_orders: st.rejected_orders,
                    stall_cycles,
                }
            })
            .collect();
        Ok(RunReport {
            policy: self.policy.name().to_string(),
            total_cycles,
            per_process: self
                .procs
                .iter()
                .map(|p| ProcessReport {
                    name: p.name.clone(),
                    cycles: p.finish,
                    accesses: p.accesses,
                })
                .collect(),
            counters,
            promotions: ledger.promotions,
            demotions: ledger.demotions,
            failed_promotions: ledger.failed_promotions,
            dropped_orders: ledger.dropped_orders,
            windows: self.windows,
            // A blamed stall is always > 0, so the nonzero pages are
            // exactly the pages that were ever blamed.
            page_stalls: self.cfg.track_page_stalls.then(|| {
                self.page_stalls
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != [0; 2])
                    .map(|(p, s)| (PageId(p as u64), *s))
                    .collect()
            }),
            tenants,
        })
    }

    /// Executes one access of thread `ti`.
    fn step_thread(&mut self, ti: usize) -> Result<(), SimError> {
        let Some(a) = self.threads[ti].stream.next_access() else {
            // Wait for outstanding misses to retire, then finish.
            let mut finish = self.now_abs(ti);
            let t = &mut self.threads[ti];
            if let Some(&Reverse((c, _, _))) = t.inflight.peek() {
                let max_c = t.inflight.iter().map(|r| r.0 .0).max().unwrap_or(c);
                finish = finish.max(max_c);
            }
            let proc = t.proc;
            self.done[ti] = true;
            // Done threads materialise their absolute finish time; the
            // shared offset no longer applies to them.
            self.clock[ti] = finish;
            self.procs[proc].finish = self.procs[proc].finish.max(finish);
            if !self.procs[proc].background {
                self.foreground_threads -= 1;
            }
            // Release workers gated behind this prologue at its finish
            // time.
            for w in 0..self.gated_by.len() {
                if self.gated_by[w] == Some(ti as u32) {
                    self.gated_by[w] = None;
                    // `finish >= clock_offset`: the prologue was live
                    // for (and advanced by) every shootdown, so its
                    // absolute time bounds the offset from above.
                    self.clock[w] = self.clock[w].max(finish - self.clock_offset);
                    self.ready_push(w);
                }
            }
            return Ok(());
        };
        self.threads[ti].consumed += 1;
        let (proc, lane, base_page, fp_bytes) = {
            let t = &self.threads[ti];
            (t.proc, t.lane, t.base_page, t.footprint_bytes)
        };
        if a.vaddr >= fp_bytes {
            return Err(SimError::AddressOutOfRange {
                workload: self.procs[proc].name.clone(),
                vaddr: a.vaddr,
                footprint: fp_bytes,
            });
        }
        self.procs[proc].accesses += 1;
        let c = &mut self.lane_counters[lane];
        c.accesses += 1;
        match a.kind {
            AccessKind::Load => c.loads += 1,
            AccessKind::Store => c.stores += 1,
        }

        self.clock[ti] += (self.cfg.issue_cycles + a.work as u32) as u64;

        let page = PageId(base_page + a.vaddr / PAGE_BYTES);
        let prefer = self.policy.place(page);
        let (tier, _first) = self.mem.ensure_mapped_with(page, prefer);
        self.mem.touch(page, self.window_idx);

        // NUMA hint fault on a scan-poisoned unit.
        if self.mem.is_poisoned(self.mem.unit_head(page)) {
            self.mem.unpoison(self.mem.unit_head(page));
            self.clock[ti] += self.cfg.migration.hint_fault_cycles;
            self.lane_counters[lane].hint_faults += 1;
            self.deliver_sample(ti, SampleEvent::HintFault { page, tier });
        }
        // The fault may have migrated the page synchronously.
        // Invariant: migration moves a page between tiers but never
        // unmaps it, so the page looked up above is still mapped.
        let tier = self.mem.tier_of(page).expect("page was mapped above");

        let gline = line_of(base_page * PAGE_BYTES + a.vaddr);
        let hit = self.llc.access(gline);

        // Train the prefetcher on demand loads, hit or miss.
        if a.kind == AccessKind::Load {
            let now = self.now_abs(ti);
            let pf = self.threads[ti].detector.observe(gline);
            for pline in pf {
                self.issue_prefetch(pline, lane, base_page, fp_bytes, now);
            }
        }

        if hit {
            self.lane_counters[lane].llc_hits += 1;
            self.clock[ti] += self.cfg.hit_cycles as u64;
            return Ok(());
        }

        let tidx = tier.index();
        match a.kind {
            AccessKind::Store => {
                // Stores retire via a finite write buffer: they consume
                // channel bandwidth without stalling the core, unless
                // the buffer fills, which throttles store bursts to the
                // channel's pace.
                let mut now = self.clock[ti] + self.clock_offset;
                let t = &mut self.threads[ti];
                while let Some(&Reverse(handoff)) = t.write_buffer.peek() {
                    if handoff <= now {
                        t.write_buffer.pop();
                    } else if t.write_buffer.len() >= WRITE_BUFFER {
                        now = handoff;
                        t.write_buffer.pop();
                    } else {
                        break;
                    }
                }
                let delay = self.channels[tidx].book(now, 1);
                let handoff = now + delay as u64 + self.channels[tidx].transfer_cycles() as u64 + 1;
                self.threads[ti].write_buffer.push(Reverse(handoff));
                // `now >= clock_offset`: write-buffer handoffs were
                // booked at earlier absolute times of this live thread.
                self.clock[ti] = now - self.clock_offset;
                self.lane_counters[lane].bytes[tidx] += LINE_BYTES;
            }
            AccessKind::Load => {
                self.lane_counters[lane].llc_misses[tidx] += 1;
                if tier == Tier::Slow {
                    if let Some(chmu) = &mut self.chmu {
                        chmu.observe(page); // device-side, free for the CPU
                    }
                }
                let latency = self.execute_load_miss(ti, a.dep, tier, page);
                if self.pebs.observe(tier) {
                    // Injected PEBS loss: the debug store overflowed, so
                    // the sample vanishes entirely — no counter, no
                    // overhead, no policy delivery.
                    let mut lost = false;
                    if let Some(f) = self.faults.as_mut() {
                        if f.lose_pebs(self.window_idx) {
                            lost = true;
                            let (mi, ml) = (f.m_injected, f.m_pebs_lost);
                            self.registry.inc(mi, 1);
                            self.registry.inc(ml, 1);
                            self.tracer.emit(
                                self.clock[ti] + self.clock_offset,
                                EventKind::FaultInjected {
                                    kind: "pebs_loss",
                                    arg: page.0,
                                },
                            );
                        }
                    }
                    if !lost {
                        self.lane_counters[lane].pebs_samples += 1;
                        self.registry.observe(self.m_pebs_latency, latency as f64);
                        self.clock[ti] += self.pebs.overhead_cycles() as u64;
                        self.deliver_sample(
                            ti,
                            SampleEvent::Pebs {
                                vaddr: a.vaddr,
                                page,
                                tier,
                                latency,
                            },
                        );
                    }
                }
            }
        }
        Ok(())
    }

    /// Issues a demand load miss to `page` on thread `ti`, modelling
    /// dependency serialization, MSHR pressure, channel queuing, and
    /// TOR occupancy. Returns the loaded latency of the miss.
    fn execute_load_miss(&mut self, ti: usize, dep: bool, tier: Tier, page: PageId) -> u32 {
        let tidx = tier.index();
        let mut now = self.clock[ti] + self.clock_offset;
        let t = &mut self.threads[ti];
        let lane = t.lane;
        let c = &mut self.lane_counters[lane];

        // A dependent load cannot issue until its producer miss returns.
        let mut blamed: Option<(u64, u8, u64)> = None; // (page, tier, stall)
        if dep && t.last_miss_completion > now {
            let wait = t.last_miss_completion - now;
            c.llc_stalls[t.last_miss_tier as usize] += wait;
            blamed = Some((t.last_miss_page, t.last_miss_tier, wait));
            now = t.last_miss_completion;
        }

        // Retire completed misses; block on MSHR exhaustion.
        while let Some(&Reverse((done, ct, cp))) = t.inflight.peek() {
            if done <= now {
                t.inflight.pop();
            } else if t.inflight.len() >= self.cfg.mshrs {
                c.llc_stalls[ct as usize] += done - now;
                blamed = Some((cp, ct, done - now));
                now = done;
                t.inflight.pop();
            } else {
                break;
            }
        }

        let issue = now;
        let queue_delay = self.channels[tidx].book(issue, 1);
        self.registry
            .observe(self.m_chan_occupancy[tidx], queue_delay);
        let completion = issue + queue_delay as u64 + self.latency[tidx];
        t.inflight.push(Reverse((completion, tidx as u8, page.0)));
        t.last_miss_completion = completion;
        t.last_miss_tier = tidx as u8;
        t.last_miss_page = page.0;
        // `now >= clock_offset`: miss completions are absolute times of
        // this live thread, which carries every shootdown bump.
        self.clock[ti] = now - self.clock_offset;
        if let Some((bp, bt, stall)) = blamed {
            self.note_page_stall(PageId(bp), bt, stall);
        }

        let c = &mut self.lane_counters[lane];
        c.demand_latency_sum[tidx] += completion - issue;
        c.tor_occupancy[tidx] += completion - issue;
        c.bytes[tidx] += LINE_BYTES;
        // TOR busy cycles: union of [issue, completion) intervals. The
        // uncovered delta lands in the lane of the miss that extended
        // the union, so the lanes sum to the global union exactly
        // (overlap is never double-counted).
        let busy_start = issue.max(self.tor_covered[tidx]);
        if completion > busy_start {
            c.tor_busy[tidx] += completion - busy_start;
            self.tor_covered[tidx] = completion;
        }
        (completion - issue) as u32
    }

    /// Issues one prefetch fill for global line `pline` if it maps to a
    /// resident page and the coverage dice allow it.
    ///
    /// Prefetchers only fetch within the issuing thread's footprint, so
    /// the fill lands in the issuing thread's `lane`.
    fn issue_prefetch(&mut self, pline: u64, lane: usize, base_page: u64, fp_bytes: u64, now: u64) {
        let byte = pline * LINE_BYTES;
        let local = byte.checked_sub(base_page * PAGE_BYTES);
        let Some(local) = local else { return };
        if local >= fp_bytes {
            return;
        }
        let page = PageId(base_page + local / PAGE_BYTES);
        let Some(tier) = self.mem.tier_of(page) else {
            return; // never prefetch into unmapped pages
        };
        if self.llc.contains(pline) {
            return;
        }
        if self.rng.random::<f64>() >= self.cfg.prefetch.coverage {
            return; // late/useless prefetch
        }
        let tidx = tier.index();
        if self.channels[tidx].backlog_cycles(now) > PREFETCH_BACKLOG_LIMIT {
            return; // channel backlogged: prefetcher yields to demand
        }
        self.llc.fill(pline);
        let c = &mut self.lane_counters[lane];
        c.prefetches[tidx] += 1;
        c.bytes[tidx] += LINE_BYTES;
        // Prefetch traffic occupies the channel like any other transfer.
        self.channels[tidx].book(now, 1);
    }

    /// Attributes `stall` cycles to `page`'s misses, split by the tier
    /// index `tidx` the blamed miss was served from. No-op unless
    /// `track_page_stalls` sized the oracle.
    #[inline]
    fn note_page_stall(&mut self, page: PageId, tidx: u8, stall: u64) {
        if let Some(s) = self.page_stalls.get_mut(page.0 as usize) {
            s[tidx as usize] += stall;
        }
    }

    /// Routes a sample event to the policy and applies resulting orders.
    fn deliver_sample(&mut self, ti: usize, ev: SampleEvent) {
        let mut orders = std::mem::take(&mut self.order_buf);
        let mut telemetry = std::mem::take(&mut self.telemetry_buf);
        let totals = self.ctx_totals();
        let mut ctx = PolicyCtx::new(
            &mut self.mem,
            self.chmu.as_mut(),
            &mut orders,
            &mut telemetry,
            &mut self.hint_scan_per_window,
            &mut self.registry,
            totals,
        );
        self.policy.on_sample(&ev, &mut ctx);
        self.window_telemetry.append(&mut telemetry);
        for order in orders.drain(..) {
            let now = self.now_abs(ti);
            self.tracer.emit(
                now,
                EventKind::OrderIssued {
                    page: order.page.0,
                    to: order.to.index() as u8,
                    sync: order.sync,
                },
            );
            if let Some(c) = self.checker.as_mut() {
                c.note_issued();
            }
            if !self.try_admit(order, now, 0) {
                continue;
            }
            if order.sync {
                self.execute_order(order, Some(ti), 0);
            } else {
                self.enqueue_admitted(order, now);
            }
        }
        self.order_buf = orders;
        self.telemetry_buf = telemetry;
    }

    /// Cumulative totals snapshot lent to each [`PolicyCtx`].
    fn ctx_totals(&self) -> CtxTotals {
        let ledger = TenantStats::sum(&self.lane_stats);
        CtxTotals {
            promotions: ledger.promotions,
            demotions: ledger.demotions,
            failed_promotions: ledger.failed_promotions,
            dropped_orders: ledger.dropped_orders,
            window: self.window_idx,
            faults_active: self.faults.is_some(),
            tenants: self.cfg.tenants.len(),
            admission_rejected: ledger.rejected_orders,
        }
    }

    /// Admission control at order issue (TierBPF-style): spends one of
    /// the owning tenant's window tokens, unless the cell is
    /// backpressured or the bucket is empty, in which case the order is
    /// rejected, counted, traced, and deferred with doubling backoff
    /// (dropped outright after [`MAX_DEFERRALS`] rejections or when the
    /// deferral queue is full). Returns whether the order may proceed.
    /// Always true when admission control is not configured.
    fn try_admit(&mut self, order: MigrationOrder, cycle: u64, attempt: u32) -> bool {
        let Some(adm) = self.cfg.admission.as_ref() else {
            return true;
        };
        let defer_windows = adm.defer_windows;
        let tenant = self.tenant_of_page(order.page);
        if !self.backpressured && self.tenant_tokens[tenant] > 0 {
            self.tenant_tokens[tenant] -= 1;
            self.lane_stats[tenant].admitted_orders += 1;
            return true;
        }
        self.lane_stats[tenant].rejected_orders += 1;
        self.registry.inc(self.tenant_metrics[tenant].m_rejected, 1);
        self.tracer.emit(
            cycle,
            EventKind::AdmissionRejected {
                tenant: tenant as u32,
                page: order.page.0,
                to: order.to.index() as u8,
            },
        );
        if attempt < MAX_DEFERRALS && self.admission_deferred.len() < ORDER_QUEUE_CAP {
            let due = self.window_idx + (defer_windows << attempt);
            self.admission_deferred.push_back((due, attempt + 1, order));
        } else {
            // Deferrals exhausted (or the deferral queue overflowed):
            // settle the order as a drop so the migration ledger and
            // reports account for it.
            self.window_dropped += 1;
            self.lane_stats[tenant].dropped_orders += 1;
            if let Some(c) = self.checker.as_mut() {
                c.note_shed();
            }
            self.tracer.emit(
                cycle,
                EventKind::OrderDropped {
                    page: order.page.0,
                    to: order.to.index() as u8,
                },
            );
        }
        false
    }

    fn enqueue_order(&mut self, order: MigrationOrder, cycle: u64) {
        if !self.try_admit(order, cycle, 0) {
            return;
        }
        self.enqueue_admitted(order, cycle);
    }

    /// Queues an order that already passed admission control.
    fn enqueue_admitted(&mut self, order: MigrationOrder, cycle: u64) {
        // Injected admission-control drop: the order is shed before it
        // reaches the daemon queue, exactly like a capacity drop.
        if let Some(f) = self.faults.as_mut() {
            if f.drop_order(self.window_idx) {
                let mi = f.m_injected;
                self.window_dropped += 1;
                let lane = self.tenant_of_page(order.page);
                self.lane_stats[lane].dropped_orders += 1;
                if let Some(c) = self.checker.as_mut() {
                    c.note_shed();
                }
                self.registry.inc(mi, 1);
                self.tracer.emit(
                    cycle,
                    EventKind::FaultInjected {
                        kind: "order_drop",
                        arg: order.page.0,
                    },
                );
                self.tracer.emit(
                    cycle,
                    EventKind::OrderDropped {
                        page: order.page.0,
                        to: order.to.index() as u8,
                    },
                );
                return;
            }
        }
        if self.order_queue.len() >= ORDER_QUEUE_CAP {
            self.window_dropped += 1;
            let lane = self.tenant_of_page(order.page);
            self.lane_stats[lane].dropped_orders += 1;
            if let Some(c) = self.checker.as_mut() {
                c.note_shed();
            }
            self.tracer.emit(
                cycle,
                EventKind::OrderDropped {
                    page: order.page.0,
                    to: order.to.index() as u8,
                },
            );
        } else {
            self.order_queue.push_back((cycle, order));
        }
    }

    /// Executes one migration order. `sync_thread` pays the kernel cost
    /// when the order is synchronous; `attempt` counts prior transient
    /// failures of this order (0 for fresh orders).
    fn execute_order(&mut self, order: MigrationOrder, sync_thread: Option<usize>, attempt: u32) {
        // The copy reads one tier and writes the other; the channel
        // time starts no earlier than the daemon's (or faulting
        // thread's) clock. Events are stamped with the same anchor.
        let anchor = match sync_thread {
            Some(ti) => self.now_abs(ti),
            None => self.next_edge.saturating_sub(self.cfg.window_cycles),
        };
        // Injected transient failure (a lost `move_pages` race): retry
        // later with doubling backoff, through the async daemon path
        // even for sync orders — the faulting thread does not spin.
        if let Some(f) = self.faults.as_mut() {
            if f.fail_migration(self.window_idx) {
                let (mi, mr) = (f.m_injected, f.m_retries);
                let retry = f.schedule_retry(order, self.window_idx, attempt);
                self.registry.inc(mi, 1);
                self.tracer.emit(
                    anchor,
                    EventKind::FaultInjected {
                        kind: "migration_fail",
                        arg: order.page.0,
                    },
                );
                match retry {
                    Some(e) => {
                        self.registry.inc(mr, 1);
                        self.tracer.emit(
                            anchor,
                            EventKind::OrderRetried {
                                page: order.page.0,
                                to: order.to.index() as u8,
                                attempt: e.attempt,
                            },
                        );
                    }
                    // Retries exhausted: account it like the equivalent
                    // capacity failure so policies and reports see it.
                    None if order.to == Tier::Fast => {
                        self.window_failed += 1;
                        let lane = self.tenant_of_page(order.page);
                        self.lane_stats[lane].failed_promotions += 1;
                        if let Some(c) = self.checker.as_mut() {
                            c.note_abandoned();
                        }
                        self.tracer
                            .emit(anchor, EventKind::PromotionRejected { page: order.page.0 });
                    }
                    None => {
                        self.window_dropped += 1;
                        let lane = self.tenant_of_page(order.page);
                        self.lane_stats[lane].dropped_orders += 1;
                        if let Some(c) = self.checker.as_mut() {
                            c.note_abandoned();
                        }
                        self.tracer.emit(
                            anchor,
                            EventKind::OrderDropped {
                                page: order.page.0,
                                to: order.to.index() as u8,
                            },
                        );
                    }
                }
                return;
            }
        }
        match self.mem.move_unit(order.page, order.to) {
            None => {
                if let Some(c) = self.checker.as_mut() {
                    c.note_noop();
                }
                if order.to == Tier::Fast {
                    self.window_failed += 1;
                    let lane = self.tenant_of_page(order.page);
                    self.lane_stats[lane].failed_promotions += 1;
                    self.tracer
                        .emit(anchor, EventKind::PromotionRejected { page: order.page.0 });
                }
            }
            Some(moved) => {
                let lines = moved * (PAGE_BYTES / LINE_BYTES);
                if let Some(c) = self.checker.as_mut() {
                    c.note_executed(moved);
                }
                if sync_thread.is_none() {
                    self.registry.inc(self.m_daemon_pages, moved);
                }
                self.tracer.emit(
                    anchor,
                    EventKind::OrderCompleted {
                        page: order.page.0,
                        to: order.to.index() as u8,
                        moved,
                    },
                );
                // Migration traffic and the ledger entry land in the
                // moved page's lane.
                let lane = self.tenant_of_page(order.page);
                for tidx in 0..2 {
                    self.channels[tidx].book(anchor, lines);
                    self.lane_counters[lane].bytes[tidx] += moved * PAGE_BYTES;
                }
                // TLB shootdown hits every live thread equally: advance
                // the shared offset once — O(1) instead of a full-fleet
                // write, and ready-heap keys (relative clocks) stay
                // valid. Done threads already hold absolute times and
                // are untouched, exactly like the per-thread loop was.
                let shootdown = self.cfg.migration.shootdown_cycles_per_page * moved;
                self.clock_offset += shootdown;
                if let Some(ti) = sync_thread {
                    self.clock[ti] += self.cfg.migration.per_page_cycles * moved;
                }
                match order.to {
                    Tier::Fast => {
                        self.lane_stats[lane].promotions += moved;
                        self.window_promos += moved;
                    }
                    Tier::Slow => {
                        self.lane_stats[lane].demotions += moved;
                        self.window_demos += moved;
                    }
                }
            }
        }
    }

    /// Ends the current window: snapshot counters, consult the policy,
    /// run the migration daemon, refresh hint-fault poison, and — when
    /// an [`crate::InvariantSet`] is armed — verify conservation laws.
    ///
    /// `allow_snapshot` gates crash-recovery capture: the in-run window
    /// edges pass `true`; the final partial window fired from
    /// [`run`](Self::run) passes `false` (nothing is left to resume).
    fn fire_window(&mut self, allow_snapshot: bool) -> Result<(), SimError> {
        let _prof = pact_obs::hostprof::span("window");
        let cumulative = counter_sum(&self.lane_counters);
        let delta = cumulative.delta_since(&self.last_snapshot);
        let mut orders = std::mem::take(&mut self.order_buf);
        let mut telemetry = std::mem::take(&mut self.telemetry_buf);
        let totals = self.ctx_totals();
        let mut ctx = PolicyCtx::new(
            &mut self.mem,
            self.chmu.as_mut(),
            &mut orders,
            &mut telemetry,
            &mut self.hint_scan_per_window,
            &mut self.registry,
            totals,
        );
        let win = WindowStats {
            index: self.window_idx,
            end_cycles: self.next_edge,
            delta,
            cumulative: &cumulative,
        };
        {
            let _prof = pact_obs::hostprof::span("policy_step");
            self.policy.on_window(&win, &mut ctx);
        }
        self.window_telemetry.append(&mut telemetry);
        let edge = self.next_edge;
        for order in orders.drain(..) {
            self.tracer.emit(
                edge,
                EventKind::OrderIssued {
                    page: order.page.0,
                    to: order.to.index() as u8,
                    sync: order.sync,
                },
            );
            if let Some(c) = self.checker.as_mut() {
                c.note_issued();
            }
            self.enqueue_order(order, edge);
        }
        self.order_buf = orders;
        self.telemetry_buf = telemetry;

        // Window-edge fault injection: stall a channel, overflow the
        // CHMU. Booked stall lines sit ahead of the daemon's copies, so
        // they feed the same backlog/saturation tracking as real load.
        if let Some(f) = self.faults.as_mut() {
            if let Some((tidx, lines)) = f.stall(self.window_idx) {
                let mi = f.m_injected;
                self.channels[tidx].book(edge, lines);
                if let Some(c) = self.checker.as_mut() {
                    c.note_stall(tidx, lines);
                }
                self.registry.inc(mi, 1);
                self.tracer.emit(
                    edge,
                    EventKind::FaultInjected {
                        kind: "channel_stall",
                        arg: lines,
                    },
                );
            }
        }
        if let Some(f) = self.faults.as_mut() {
            if f.chmu_overflow(self.window_idx) {
                let mi = f.m_injected;
                if let Some(chmu) = self.chmu.as_mut() {
                    chmu.reset();
                    self.registry.inc(mi, 1);
                    self.tracer.emit(
                        edge,
                        EventKind::FaultInjected {
                            kind: "chmu_overflow",
                            arg: 0,
                        },
                    );
                }
            }
        }

        // Admission-deferred orders whose backoff expired re-attempt
        // admission at this edge (against the tokens refilled at the
        // previous edge); re-rejected orders defer again or drop inside
        // `try_admit`. Runs before the daemon so freshly admitted
        // orders can be serviced this window.
        if !self.admission_deferred.is_empty() {
            let mut pending = std::mem::take(&mut self.admission_deferred);
            for (due, attempt, order) in pending.drain(..) {
                if due > self.window_idx {
                    self.admission_deferred.push_back((due, attempt, order));
                } else if self.try_admit(order, edge, attempt) {
                    if order.sync {
                        // The issuing thread has long moved on; a
                        // deferred sync order completes on the daemon
                        // path like a retried one.
                        self.execute_order(order, None, 0);
                    } else {
                        self.enqueue_admitted(order, edge);
                    }
                }
            }
        }

        // Background daemon: migrate within its per-window page budget.
        // Due retries of transiently failed orders run first (they are
        // the oldest work); leftovers beyond the budget slip one window.
        let mut budget = self.cfg.migration.daemon_pages_per_window;
        let span = self.mem.unit_span();
        let mut due = std::mem::take(&mut self.retry_buf);
        due.clear();
        if let Some(f) = self.faults.as_mut() {
            f.due_retries_into(self.window_idx, &mut due);
        }
        for (i, e) in due.iter().enumerate() {
            if budget < span {
                if let Some(f) = self.faults.as_mut() {
                    for &rest in &due[i..] {
                        f.defer(rest, self.window_idx);
                    }
                }
                break;
            }
            budget -= span;
            self.execute_order(e.order, None, e.attempt);
        }
        self.retry_buf = due;
        while budget >= span {
            let Some((enqueued, order)) = self.order_queue.pop_front() else {
                break;
            };
            budget -= span;
            // Queue latency: enqueue edge to the edge the daemon
            // services the order at (0 for same-window service).
            self.registry
                .observe(self.m_mig_latency, edge.saturating_sub(enqueued) as f64);
            self.execute_order(order, None, 0);
        }

        // Poison a fresh batch of slow-tier units for hint-fault sampling.
        if self.hint_scan_per_window > 0 {
            let n = (self.hint_scan_per_window / span.max(1)).max(1) as usize;
            for head in self.mem.scan_slow_units(n) {
                self.mem.poison(head);
            }
        }

        // Observability: refresh gauges, track channel-saturation
        // episodes, and snapshot the registry for this window.
        self.registry
            .set(self.m_queue_len, self.order_queue.len() as f64);
        self.registry
            .set(self.m_fast_used, self.mem.fast_used() as f64);
        for tidx in 0..2 {
            let backlog = self.channels[tidx].backlog_cycles(edge);
            self.registry.set(self.m_chan_backlog[tidx], backlog);
            let booked = self.channels[tidx].lines_booked();
            self.registry
                .inc(self.m_chan_lines[tidx], booked - self.chan_lines_seen[tidx]);
            self.chan_lines_seen[tidx] = booked;
            match self.saturated_since[tidx] {
                None if backlog >= SATURATION_BACKLOG_CYCLES => {
                    self.saturated_since[tidx] = Some(edge);
                    self.tracer.emit(
                        edge,
                        EventKind::ChannelSaturated {
                            tier: tidx as u8,
                            backlog_cycles: backlog as u64,
                        },
                    );
                }
                Some(start) if backlog < SATURATION_BACKLOG_CYCLES => {
                    self.saturated_since[tidx] = None;
                    self.tracer.emit(
                        edge,
                        EventKind::ChannelRecovered {
                            tier: tidx as u8,
                            episode_cycles: edge - start,
                        },
                    );
                }
                _ => {}
            }
        }
        if let (Some((m_tracked, m_total)), Some(chmu)) = (self.m_chmu, self.chmu.as_ref()) {
            self.registry.set(m_tracked, chmu.tracked() as f64);
            self.registry.set(m_total, chmu.total() as f64);
        }
        // Fleet mode: recompute the backpressure flag from end-of-window
        // channel backlog, and refresh the per-tenant registry rows
        // (cumulative accesses / promoted pages, remaining tokens).
        if let Some(adm) = self.cfg.admission.as_ref() {
            let threshold = adm.saturation_backlog_cycles;
            self.backpressured =
                (0..2).any(|tidx| self.channels[tidx].backlog_cycles(edge) >= threshold);
        }
        for i in 0..self.tenant_metrics.len() {
            let tm = self.tenant_metrics[i];
            self.registry
                .set(tm.m_accesses, self.lane_counters[i].accesses as f64);
            self.registry
                .set(tm.m_promoted, self.lane_stats[i].promotions as f64);
            if let Some(&tok) = self.tenant_tokens.get(i) {
                self.registry.set(tm.m_tokens, tok as f64);
            }
        }
        if delta.pebs_samples > 0 || delta.hint_faults > 0 {
            self.tracer.emit(
                edge,
                EventKind::SampleBatch {
                    pebs: delta.pebs_samples,
                    hint_faults: delta.hint_faults,
                },
            );
        }
        for &(key, value) in &self.window_telemetry {
            self.tracer
                .emit(edge, EventKind::PolicyTelemetry { key, value });
        }
        self.tracer.emit(
            edge,
            EventKind::WindowBoundary {
                index: self.window_idx,
                promotions: self.window_promos,
                demotions: self.window_demos,
                failed_promotions: self.window_failed,
                dropped_orders: self.window_dropped,
            },
        );

        let peeked_metrics = match self.checker.as_ref() {
            Some(c) if c.wants_window_records() => Some(self.registry.peek_window()),
            _ => None,
        };
        // Ring-overwrite delta after every emit above, so events evicted
        // *by this edge's own emissions* still count against this window.
        let overwritten = self.tracer.overwritten();
        let trace_dropped_events = overwritten - self.overwritten_seen;
        self.overwritten_seen = overwritten;
        self.windows.push(WindowRecord {
            index: self.window_idx,
            end_cycles: self.next_edge,
            promotions: self.window_promos,
            demotions: self.window_demos,
            failed_promotions: self.window_failed,
            dropped_orders: self.window_dropped,
            trace_dropped_events,
            delta,
            // Drain, not take: the per-window telemetry buffer keeps
            // its capacity across windows (the record gets an
            // exact-size copy).
            telemetry: self.window_telemetry.drain(..).collect(),
            metrics: self.registry.snapshot_window(),
        });
        // Re-read the totals: the daemon above moved bytes and settled
        // orders since `cumulative` was taken.
        let counters = counter_sum(&self.lane_counters);
        if let Some(mut c) = self.checker.take() {
            let ledger = TenantStats::sum(&self.lane_stats);
            let mut max_thread_now = 0u64;
            let mut max_inflight = 0usize;
            let mut max_write_buffer = 0usize;
            for (ti, t) in self.threads.iter().enumerate() {
                let now = if self.done[ti] {
                    self.clock[ti]
                } else {
                    self.clock[ti] + self.clock_offset
                };
                max_thread_now = max_thread_now.max(now);
                max_inflight = max_inflight.max(t.inflight.len());
                max_write_buffer = max_write_buffer.max(t.write_buffer.len());
            }
            let result = c.check_window(WindowCheck {
                window: self.window_idx,
                edge,
                mem: &self.mem,
                counters: &counters,
                prev_snapshot: &self.last_snapshot,
                channels: &self.channels,
                record: self.windows.last().expect("record pushed above"), // Invariant: pushed this window
                peeked_metrics,
                registry_chan_lines: [
                    self.registry.counter_total(self.m_chan_lines[0]),
                    self.registry.counter_total(self.m_chan_lines[1]),
                ],
                // Admission-deferred orders are issued-but-unsettled,
                // exactly like queued ones; fold them into the live
                // side of the migration ledger.
                queue_len: self.order_queue.len() + self.admission_deferred.len(),
                pending_retries: self.faults.as_ref().map_or(0, |f| f.pending_retries()),
                promotions: ledger.promotions,
                demotions: ledger.demotions,
                failed_promotions: ledger.failed_promotions,
                dropped_orders: ledger.dropped_orders,
                max_thread_now,
                max_inflight,
                max_write_buffer,
                mshrs: self.cfg.mshrs,
                write_buffer_cap: WRITE_BUFFER,
            });
            self.checker = Some(c);
            result?;
        }
        self.window_promos = 0;
        self.window_demos = 0;
        self.window_failed = 0;
        self.window_dropped = 0;
        self.last_snapshot = counters;
        self.window_idx += 1;
        self.next_edge += self.cfg.window_cycles;
        // Token buckets refill at the edge for the window just opened.
        self.tenant_tokens.copy_from_slice(&self.tenant_budget);
        if allow_snapshot
            && self.cfg.snapshot_every > 0
            && self.snap_sink.is_some()
            && self.window_idx.is_multiple_of(self.cfg.snapshot_every)
        {
            let snap = self.capture_snapshot()?;
            if let Some(sink) = self.snap_sink.as_mut() {
                sink(snap);
            }
        }
        Ok(())
    }

    /// Seals the complete mutable run state into a versioned frame.
    ///
    /// Only called at a window edge (end of [`fire_window`]
    /// (Self::fire_window)), where the reusable policy sinks are
    /// provably empty. Every field is named below: a new field must be
    /// either written or skipped with a reason, or this fails to build.
    fn capture_snapshot(&self) -> Result<MachineSnapshot, SimError> {
        let _prof = pact_obs::hostprof::span("snapshot_capture");
        let Sim {
            cfg,
            policy,
            threads,
            clock,
            done,
            gated_by,
            clock_offset,
            // Rebuilt from the restored thread clocks on decode.
            ready: _,
            // Scratch, cleared before every use.
            retry_buf: _,
            procs,
            mem,
            llc,
            chmu,
            pebs,
            rng,
            lane_counters,
            lane_stats,
            // Fixed tier latencies from the configuration.
            latency: _,
            channels,
            tor_covered,
            window_idx,
            next_edge,
            last_snapshot,
            windows,
            // Per-window accumulators and policy sinks: folded into the
            // sealed WindowRecord (or drained) before the edge capture.
            window_promos,
            window_demos,
            window_failed,
            window_dropped,
            window_telemetry,
            order_buf,
            telemetry_buf,
            order_queue,
            hint_scan_per_window,
            // Recomputed from the restored thread liveness on decode.
            foreground_threads: _,
            page_stalls,
            tracer,
            registry,
            // Metric handles: re-registered in a fixed order at
            // construction, identical on any resume.
            m_daemon_pages: _,
            m_queue_len: _,
            m_fast_used: _,
            m_chan_backlog: _,
            m_chan_lines: _,
            m_chmu: _,
            m_pebs_latency: _,
            m_mig_latency: _,
            m_chan_occupancy: _,
            overwritten_seen,
            chan_lines_seen,
            saturated_since,
            faults,
            checker,
            // Host-side sink, re-attached by the caller on resume.
            snap_sink: _,
            // Derived from the tenant and admission configuration at
            // construction.
            tenant_base: _,
            tenant_pages: _,
            tenant_budget: _,
            tenant_metrics: _,
            tenant_tokens,
            admission_deferred,
            backpressured,
        } = self;
        debug_assert!(order_buf.is_empty());
        debug_assert!(telemetry_buf.is_empty());
        debug_assert!(window_telemetry.is_empty());
        // A nonzero accumulator here means a snapshot mid-window, which
        // no frame can represent.
        debug_assert_eq!(
            [
                *window_promos,
                *window_demos,
                *window_failed,
                *window_dropped
            ],
            [0; 4]
        );
        let mut blob = Vec::new();
        if !policy.save_state(&mut blob) {
            return Err(SimError::Snapshot(format!(
                "policy '{}' does not support snapshot capture",
                policy.name()
            )));
        }
        let mut w = ByteWriter::new();
        // Threads. Heap contents are written sorted so the frame bytes
        // do not depend on heap-internal layout; pop order of *values*
        // is layout-independent either way (ties are identical tuples).
        w.put_usize(threads.len());
        for t in threads {
            let ThreadState {
                // The stream is re-read and fast-forwarded by `consumed`;
                // the layout fields come from the workloads.
                stream: _,
                proc: _,
                lane: _,
                base_page: _,
                footprint_bytes: _,
                consumed,
                inflight,
                write_buffer,
                last_miss_completion,
                last_miss_tier,
                last_miss_page,
                detector,
            } = t;
            w.put_u64(*consumed);
            let mut inflight: Vec<(u64, u8, u64)> = inflight.iter().map(|r| r.0).collect();
            inflight.sort_unstable();
            w.put_usize(inflight.len());
            for (c, tier, page) in inflight {
                w.put_u64(c);
                w.put_u8(tier);
                w.put_u64(page);
            }
            let mut wb: Vec<u64> = write_buffer.iter().map(|r| r.0).collect();
            wb.sort_unstable();
            w.put_usize(wb.len());
            for h in wb {
                w.put_u64(h);
            }
            w.put_u64(*last_miss_completion);
            w.put_u8(*last_miss_tier);
            w.put_u64(*last_miss_page);
            detector.encode_state(&mut w);
        }
        // Scheduler state (struct-of-arrays).
        for &c in clock {
            w.put_u64(c);
        }
        for &d in done {
            w.put_bool(d);
        }
        for g in gated_by {
            w.put_bool(g.is_some());
            w.put_u32(g.unwrap_or(0));
        }
        w.put_u64(*clock_offset);
        // Processes (names and background flags are rebuilt from the
        // workloads on resume).
        w.put_usize(procs.len());
        for ProcState {
            name: _,
            accesses,
            finish,
            background: _,
        } in procs
        {
            w.put_u64(*accesses);
            w.put_u64(*finish);
        }
        // Substrate. The frame carries the global counters and ledger
        // (the lane sums); fleet frames add the lanes further down.
        counter_sum(lane_counters).encode_state(&mut w);
        last_snapshot.encode_state(&mut w);
        mem.encode_state(&mut w);
        llc.encode_state(&mut w);
        for ch in channels {
            ch.encode_state(&mut w);
        }
        for &v in tor_covered {
            w.put_u64(v);
        }
        for &v in chan_lines_seen {
            w.put_u64(v);
        }
        for s in saturated_since {
            w.put_bool(s.is_some());
            w.put_u64(s.unwrap_or(0));
        }
        w.put_u64(pebs.countdown());
        w.put_u64(rng.state());
        if let Some(chmu) = chmu {
            chmu.encode_state(&mut w);
        }
        // Window bookkeeping and the full per-window history.
        w.put_u64(*window_idx);
        w.put_u64(*next_edge);
        w.put_usize(windows.len());
        for rec in windows {
            encode_window_record(rec, &mut w);
        }
        let ledger = TenantStats::sum(lane_stats);
        w.put_u64(ledger.promotions);
        w.put_u64(ledger.demotions);
        w.put_u64(ledger.failed_promotions);
        w.put_u64(ledger.dropped_orders);
        w.put_u64(*hint_scan_per_window);
        // Migration order queue with enqueue timestamps.
        w.put_usize(order_queue.len());
        for (cycle, o) in order_queue {
            w.put_u64(*cycle);
            encode_order(o, &mut w);
        }
        // Fleet section (presence follows the config): per-tenant
        // counter lanes, ledgers, admission token state, and the
        // deferred-order retry queue.
        if !cfg.tenants.is_empty() {
            for lane in lane_counters {
                lane.encode_state(&mut w);
            }
            for &TenantStats {
                promotions,
                demotions,
                failed_promotions,
                dropped_orders,
                admitted_orders,
                rejected_orders,
            } in lane_stats
            {
                for v in [
                    promotions,
                    demotions,
                    failed_promotions,
                    dropped_orders,
                    admitted_orders,
                    rejected_orders,
                ] {
                    w.put_u64(v);
                }
            }
            w.put_usize(tenant_tokens.len());
            for &t in tenant_tokens {
                w.put_u64(t);
            }
            w.put_bool(*backpressured);
            w.put_usize(admission_deferred.len());
            for (due, attempt, o) in admission_deferred {
                w.put_u64(*due);
                w.put_u32(*attempt);
                encode_order(o, &mut w);
            }
        }
        // The ground-truth stall oracle (presence follows the config):
        // the blamed (nonzero) pages in ascending order.
        if cfg.track_page_stalls {
            let blamed = || {
                page_stalls
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| **s != [0; 2])
            };
            w.put_usize(blamed().count());
            for (p, [f, s]) in blamed() {
                w.put_u64(p as u64);
                w.put_u64(*f);
                w.put_u64(*s);
            }
        }
        if let Some(f) = faults {
            f.encode_state(&mut w);
        }
        if let Some(c) = checker {
            c.encode_state(&mut w);
        }
        registry.encode_state(&mut w);
        w.put_u64(*overwritten_seen);
        tracer.encode_state(&mut w);
        w.put_str(policy.name());
        w.put_bytes(&blob);
        Ok(MachineSnapshot::from_bytes(snapshot::seal_frame(
            *window_idx,
            snapshot::config_fingerprint(cfg),
            &w.into_bytes(),
        )))
    }

    /// Restores this freshly constructed simulation from `snap` so that
    /// [`run`](Self::run) continues it byte-identically to the
    /// uninterrupted execution.
    fn restore(&mut self, snap: &MachineSnapshot) -> Result<(), SimError> {
        let _prof = pact_obs::hostprof::span("snapshot_restore");
        let fp = snapshot::config_fingerprint(self.cfg);
        let (window, payload) =
            snapshot::open_frame(snap.as_bytes(), fp).map_err(SimError::Snapshot)?;
        let mut r = ByteReader::new(payload);
        self.decode_payload(&mut r, window)
            .map_err(SimError::Snapshot)?;
        Ok(())
    }

    /// Payload decode behind [`restore`](Self::restore): mirrors
    /// [`capture_snapshot`](Self::capture_snapshot) field for field and
    /// validates every cross-component consistency constraint. Like the
    /// capture, it names every field, and a field skipped there is
    /// reset (or left at its construction value) here.
    fn decode_payload(&mut self, r: &mut ByteReader<'_>, window: u64) -> Result<(), String> {
        let Sim {
            cfg,
            policy,
            threads,
            clock,
            done,
            gated_by,
            clock_offset,
            ready,
            retry_buf,
            procs,
            mem,
            llc,
            chmu,
            pebs,
            rng,
            lane_counters,
            lane_stats,
            // Fixed tier latencies from the configuration.
            latency: _,
            channels,
            tor_covered,
            window_idx,
            next_edge,
            last_snapshot,
            windows,
            window_promos,
            window_demos,
            window_failed,
            window_dropped,
            window_telemetry,
            order_buf,
            telemetry_buf,
            order_queue,
            hint_scan_per_window,
            foreground_threads,
            page_stalls,
            tracer,
            registry,
            // Metric handles: registered at construction.
            m_daemon_pages: _,
            m_queue_len: _,
            m_fast_used: _,
            m_chan_backlog: _,
            m_chan_lines: _,
            m_chmu: _,
            m_pebs_latency: _,
            m_mig_latency: _,
            m_chan_occupancy: _,
            overwritten_seen,
            chan_lines_seen,
            saturated_since,
            faults,
            checker,
            // Host-side sink, attached by the caller.
            snap_sink: _,
            // Derived from the configuration at construction.
            tenant_base: _,
            tenant_pages: _,
            tenant_budget: _,
            tenant_metrics: _,
            tenant_tokens,
            admission_deferred,
            backpressured,
        } = self;
        let e = |e: CodecError| format!("machine state: {e}");
        // Threads.
        let n = r.get_usize().map_err(e)?;
        if n != threads.len() {
            return Err(format!(
                "snapshot has {n} threads, this workload set has {}",
                threads.len()
            ));
        }
        for (ti, t) in threads.iter_mut().enumerate() {
            let ThreadState {
                // Rebuilt from the workloads; the stream is
                // fast-forwarded below.
                stream: _,
                proc: _,
                lane: _,
                base_page: _,
                footprint_bytes: _,
                consumed,
                inflight,
                write_buffer,
                last_miss_completion,
                last_miss_tier,
                last_miss_page,
                detector,
            } = t;
            *consumed = r.get_u64().map_err(e)?;
            let m = r.get_usize().map_err(e)?;
            if m > cfg.mshrs {
                return Err(format!(
                    "thread {ti} has {m} in-flight misses, machine has {} MSHRs",
                    cfg.mshrs
                ));
            }
            inflight.clear();
            for _ in 0..m {
                let c = r.get_u64().map_err(e)?;
                let tier = r.get_u8().map_err(e)?;
                tier_of(tier)?;
                let page = r.get_u64().map_err(e)?;
                inflight.push(Reverse((c, tier, page)));
            }
            let m = r.get_usize().map_err(e)?;
            if m > WRITE_BUFFER {
                return Err(format!(
                    "thread {ti} has {m} buffered stores, write buffer holds {WRITE_BUFFER}"
                ));
            }
            write_buffer.clear();
            for _ in 0..m {
                write_buffer.push(Reverse(r.get_u64().map_err(e)?));
            }
            *last_miss_completion = r.get_u64().map_err(e)?;
            *last_miss_tier = r.get_u8().map_err(e)?;
            tier_of(*last_miss_tier)?;
            *last_miss_page = r.get_u64().map_err(e)?;
            detector.decode_state(r)?;
        }
        // Scheduler state.
        for c in clock.iter_mut() {
            *c = r.get_u64().map_err(e)?;
        }
        for d in done.iter_mut() {
            *d = r.get_bool().map_err(e)?;
        }
        for (ti, g) in gated_by.iter_mut().enumerate() {
            let has = r.get_bool().map_err(e)?;
            let v = r.get_u32().map_err(e)?;
            if has && v as usize >= n {
                return Err(format!("thread {ti} gated by out-of-range thread {v}"));
            }
            *g = has.then_some(v);
        }
        *clock_offset = r.get_u64().map_err(e)?;
        // Processes.
        let np = r.get_usize().map_err(e)?;
        if np != procs.len() {
            return Err(format!(
                "snapshot has {np} processes, this workload set has {}",
                procs.len()
            ));
        }
        for ProcState {
            // Rebuilt from the workloads.
            name: _,
            accesses,
            finish,
            background: _,
        } in procs.iter_mut()
        {
            *accesses = r.get_u64().map_err(e)?;
            *finish = r.get_u64().map_err(e)?;
        }
        // Substrate.
        let global_counters = PmuCounters::decode_state(r)?;
        *last_snapshot = PmuCounters::decode_state(r)?;
        mem.decode_state(r)?;
        llc.decode_state(r)?;
        for ch in channels.iter_mut() {
            ch.decode_state(r)?;
        }
        for v in tor_covered.iter_mut() {
            *v = r.get_u64().map_err(e)?;
        }
        for v in chan_lines_seen.iter_mut() {
            *v = r.get_u64().map_err(e)?;
        }
        for s in saturated_since.iter_mut() {
            let has = r.get_bool().map_err(e)?;
            let v = r.get_u64().map_err(e)?;
            *s = has.then_some(v);
        }
        pebs.set_countdown(r.get_u64().map_err(e)?)?;
        *rng = SplitMix64::new(r.get_u64().map_err(e)?);
        if let Some(chmu) = chmu.as_mut() {
            chmu.decode_state(r)?;
        }
        // Window bookkeeping and history.
        *window_idx = r.get_u64().map_err(e)?;
        if *window_idx != window {
            return Err(format!(
                "frame header says {window} completed windows, payload says {window_idx}"
            ));
        }
        *next_edge = r.get_u64().map_err(e)?;
        let nw = r.get_usize().map_err(e)?;
        windows.clear();
        for _ in 0..nw {
            windows.push(decode_window_record(r)?);
        }
        let global_ledger = TenantStats {
            promotions: r.get_u64().map_err(e)?,
            demotions: r.get_u64().map_err(e)?,
            failed_promotions: r.get_u64().map_err(e)?,
            dropped_orders: r.get_u64().map_err(e)?,
            // Admission is fleet-only; outside fleet mode these stay 0.
            admitted_orders: 0,
            rejected_orders: 0,
        };
        *hint_scan_per_window = r.get_u64().map_err(e)?;
        let nq = r.get_usize().map_err(e)?;
        if nq > ORDER_QUEUE_CAP {
            return Err(format!(
                "snapshot order queue holds {nq} entries, cap is {ORDER_QUEUE_CAP}"
            ));
        }
        order_queue.clear();
        for _ in 0..nq {
            let cycle = r.get_u64().map_err(e)?;
            order_queue.push_back((cycle, decode_order(r)?));
        }
        // Counter lanes: outside fleet mode the single lane is the
        // frame's globals; fleet frames carry every lane, which must sum
        // to those globals (the fleet section's presence follows the
        // config, which the frame fingerprint already pinned).
        if cfg.tenants.is_empty() {
            lane_counters[0] = global_counters;
            lane_stats[0] = global_ledger;
        } else {
            for lane in lane_counters.iter_mut() {
                *lane = PmuCounters::decode_state(r)?;
            }
            for st in lane_stats.iter_mut() {
                *st = TenantStats {
                    promotions: r.get_u64().map_err(e)?,
                    demotions: r.get_u64().map_err(e)?,
                    failed_promotions: r.get_u64().map_err(e)?,
                    dropped_orders: r.get_u64().map_err(e)?,
                    admitted_orders: r.get_u64().map_err(e)?,
                    rejected_orders: r.get_u64().map_err(e)?,
                };
            }
            let ledger = TenantStats::sum(lane_stats);
            if counter_sum(lane_counters) != global_counters
                || [
                    ledger.promotions,
                    ledger.demotions,
                    ledger.failed_promotions,
                    ledger.dropped_orders,
                ] != [
                    global_ledger.promotions,
                    global_ledger.demotions,
                    global_ledger.failed_promotions,
                    global_ledger.dropped_orders,
                ]
            {
                return Err(
                    "tenant counter lanes do not sum to the frame's global counters".into(),
                );
            }
            let nt = r.get_usize().map_err(e)?;
            if nt != tenant_tokens.len() {
                return Err(format!(
                    "snapshot carries {nt} tenant token buckets, config has {}",
                    tenant_tokens.len()
                ));
            }
            for t in tenant_tokens.iter_mut() {
                *t = r.get_u64().map_err(e)?;
            }
            *backpressured = r.get_bool().map_err(e)?;
            let nd = r.get_usize().map_err(e)?;
            if nd > ORDER_QUEUE_CAP {
                return Err(format!(
                    "snapshot deferral queue holds {nd} entries, cap is {ORDER_QUEUE_CAP}"
                ));
            }
            admission_deferred.clear();
            for _ in 0..nd {
                let due = r.get_u64().map_err(e)?;
                let attempt = r.get_u32().map_err(e)?;
                admission_deferred.push_back((due, attempt, decode_order(r)?));
            }
        }
        if cfg.track_page_stalls {
            page_stalls.fill([0; 2]);
            let nm = r.get_usize().map_err(e)?;
            for _ in 0..nm {
                let p = r.get_u64().map_err(e)?;
                let fast = r.get_u64().map_err(e)?;
                let slow = r.get_u64().map_err(e)?;
                let pages = page_stalls.len();
                let slot = usize::try_from(p)
                    .ok()
                    .and_then(|i| page_stalls.get_mut(i))
                    .ok_or_else(|| format!("snapshot blames page {p}, machine has {pages}"))?;
                *slot = [fast, slow];
            }
        }
        if let Some(f) = faults.as_mut() {
            f.decode_state(r)?;
        }
        if let Some(c) = checker.as_mut() {
            c.decode_state(r)?;
        }
        registry.decode_state(r)?;
        *overwritten_seen = r.get_u64().map_err(e)?;
        tracer.decode_state(r)?;
        let name = r.get_str().map_err(e)?;
        if name != policy.name() {
            return Err(format!(
                "snapshot was captured under policy '{name}', resuming with '{}'",
                policy.name()
            ));
        }
        let blob = r.get_bytes().map_err(e)?;
        r.finish().map_err(e)?;
        // `prepare` already ran in `Sim::new`; the restore overwrites
        // whatever it reset.
        policy
            .restore_state(blob)
            .map_err(|err| format!("policy '{name}': {err}"))?;
        // The window-edge accumulators and policy sinks a capture sees
        // are empty.
        *window_promos = 0;
        *window_demos = 0;
        *window_failed = 0;
        *window_dropped = 0;
        window_telemetry.clear();
        order_buf.clear();
        telemetry_buf.clear();
        retry_buf.clear();
        // Live threads re-read their (contractually repeatable) streams
        // from the start; fast-forward past the consumed prefix.
        for (ti, t) in threads.iter_mut().enumerate() {
            if done[ti] {
                continue;
            }
            for k in 0..t.consumed {
                if t.stream.next_access().is_none() {
                    return Err(format!(
                        "thread {ti}'s stream ended after {k} accesses while fast-forwarding \
                         to {}; workload streams must be repeatable",
                        t.consumed
                    ));
                }
            }
        }
        // Rebuild the ready-heap: live, ungated threads at their
        // restored clocks. (A still-gated thread implies a live
        // prologue — the release path clears the gate the moment the
        // prologue finishes.)
        ready.clear();
        // pact-lint: allow(counter-truncation) — thread indices are far
        // below u32::MAX.
        ready.extend(
            (0..n)
                .filter(|&ti| !done[ti] && gated_by[ti].is_none())
                .map(|ti| Reverse((clock[ti], ti as u32))),
        );
        *foreground_threads = (0..n)
            .filter(|&ti| !done[ti] && !procs[threads[ti].proc].background)
            .count();
        if *foreground_threads == 0 {
            return Err("snapshot has no live foreground threads to resume".into());
        }
        Ok(())
    }
}

/// Validates a serialized tier index.
fn tier_of(t: u8) -> Result<Tier, String> {
    match t {
        0 => Ok(Tier::Fast),
        1 => Ok(Tier::Slow),
        t => Err(format!("machine state: invalid tier index {t}")),
    }
}

/// Serializes one [`MigrationOrder`] for the crash-recovery snapshot.
fn encode_order(o: &MigrationOrder, w: &mut ByteWriter) {
    let MigrationOrder { page, to, sync } = *o;
    w.put_u64(page.0);
    w.put_u8(to.index() as u8);
    w.put_bool(sync);
}

/// Mirror of [`encode_order`].
fn decode_order(r: &mut ByteReader<'_>) -> Result<MigrationOrder, String> {
    let e = |e: CodecError| format!("migration order: {e}");
    Ok(MigrationOrder {
        page: PageId(r.get_u64().map_err(e)?),
        to: tier_of(r.get_u8().map_err(e)?)?,
        sync: r.get_bool().map_err(e)?,
    })
}

/// Field-wise sum of counter lanes: the run's global counters.
fn counter_sum(lanes: &[PmuCounters]) -> PmuCounters {
    let mut total = PmuCounters::default();
    for lane in lanes {
        total.accumulate(lane);
    }
    total
}

/// Serializes one [`WindowRecord`] for the crash-recovery snapshot.
fn encode_window_record(rec: &WindowRecord, w: &mut ByteWriter) {
    let WindowRecord {
        index,
        end_cycles,
        promotions,
        demotions,
        failed_promotions,
        dropped_orders,
        trace_dropped_events,
        delta,
        telemetry,
        metrics,
    } = rec;
    for v in [
        index,
        end_cycles,
        promotions,
        demotions,
        failed_promotions,
        dropped_orders,
        trace_dropped_events,
    ] {
        w.put_u64(*v);
    }
    delta.encode_state(w);
    for named in [telemetry, metrics] {
        w.put_usize(named.len());
        for (k, v) in named {
            w.put_str(k);
            w.put_f64(*v);
        }
    }
}

/// Mirror of [`encode_window_record`]; names come back as interned
/// `&'static str`s.
fn decode_window_record(r: &mut ByteReader<'_>) -> Result<WindowRecord, String> {
    let e = |e: CodecError| format!("window record: {e}");
    let index = r.get_u64().map_err(e)?;
    let end_cycles = r.get_u64().map_err(e)?;
    let promotions = r.get_u64().map_err(e)?;
    let demotions = r.get_u64().map_err(e)?;
    let failed_promotions = r.get_u64().map_err(e)?;
    let dropped_orders = r.get_u64().map_err(e)?;
    let trace_dropped_events = r.get_u64().map_err(e)?;
    let delta = PmuCounters::decode_state(r)?;
    let nt = r.get_usize().map_err(e)?;
    let mut telemetry = Vec::with_capacity(nt);
    for _ in 0..nt {
        let k = pact_obs::intern(r.get_str().map_err(e)?);
        telemetry.push((k, r.get_f64().map_err(e)?));
    }
    let nm = r.get_usize().map_err(e)?;
    let mut metrics = Vec::with_capacity(nm);
    for _ in 0..nm {
        let k = pact_obs::intern(r.get_str().map_err(e)?);
        metrics.push((k, r.get_f64().map_err(e)?));
    }
    Ok(WindowRecord {
        index,
        end_cycles,
        promotions,
        demotions,
        failed_promotions,
        dropped_orders,
        trace_dropped_events,
        delta,
        telemetry,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FirstTouch;
    use crate::workload::TraceWorkload;
    use crate::Access;

    fn streaming_trace(lines: u64, reps: u64) -> Vec<Access> {
        let mut v = Vec::new();
        for _ in 0..reps {
            for l in 0..lines {
                v.push(Access::load(l * LINE_BYTES));
            }
        }
        v
    }

    fn chasing_trace(pages: u64, count: u64) -> Vec<Access> {
        // Deterministic pseudo-random pointer chase across `pages` pages.
        let mut v = Vec::with_capacity(count as usize);
        let mut x = 12345u64;
        for _ in 0..count {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let page = x % pages;
            let line = (x >> 32) % (PAGE_BYTES / LINE_BYTES);
            v.push(Access::dependent_load(
                page * PAGE_BYTES + line * LINE_BYTES,
            ));
        }
        v
    }

    fn small_cfg(fast_pages: u64) -> MachineConfig {
        let mut cfg = MachineConfig::skylake_cxl(fast_pages);
        cfg.llc.size_bytes = 64 * 1024; // 64 KiB so working sets miss
        cfg.window_cycles = 50_000;
        cfg
    }

    #[test]
    fn run_is_deterministic() {
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(1000, 20_000));
        let m = Machine::new(small_cfg(100)).unwrap();
        let r1 = m.run(&wl, &mut FirstTouch::new());
        let r2 = m.run(&wl, &mut FirstTouch::new());
        assert_eq!(r1.total_cycles, r2.total_cycles);
        assert_eq!(r1.counters, r2.counters);
    }

    #[test]
    fn pointer_chase_has_mlp_near_one() {
        let wl = TraceWorkload::new("chase", 1 << 24, chasing_trace(4000, 30_000));
        let m = Machine::new(small_cfg(0)).unwrap(); // all slow
        let r = m.run(&wl, &mut FirstTouch::new());
        let mlp = r.counters.tor_mlp(Tier::Slow);
        assert!(mlp < 1.6, "chase MLP should be ~1, got {mlp}");
    }

    #[test]
    fn independent_stream_has_high_mlp() {
        // Random independent loads over many pages: should overlap up to MSHRs.
        let mut v = Vec::new();
        let mut x = 7u64;
        for _ in 0..30_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            v.push(Access::load(
                (x % 4000) * PAGE_BYTES + ((x >> 40) % 64) * LINE_BYTES,
            ));
        }
        let wl = TraceWorkload::new("rand-indep", 1 << 24, v);
        let mut cfg = small_cfg(0);
        cfg.prefetch.enabled = false;
        let m = Machine::new(cfg).unwrap();
        let r = m.run(&wl, &mut FirstTouch::new());
        let mlp = r.counters.tor_mlp(Tier::Slow);
        assert!(mlp > 5.0, "independent-miss MLP should be high, got {mlp}");
        assert!(mlp <= 10.5, "MLP cannot exceed MSHRs, got {mlp}");
    }

    #[test]
    fn chase_stalls_much_more_than_stream_per_miss() {
        let chase = TraceWorkload::new("chase", 1 << 24, chasing_trace(4000, 30_000));
        let m = Machine::new(small_cfg(0)).unwrap();
        let rc = m.run(&chase, &mut FirstTouch::new());
        let stream = TraceWorkload::new("stream", 1 << 24, streaming_trace(40_000, 2));
        let rs = m.run(&stream, &mut FirstTouch::new());
        let per_miss_chase =
            rc.counters.llc_stalls[1] as f64 / rc.counters.llc_misses[1].max(1) as f64;
        let per_miss_stream =
            rs.counters.llc_stalls[1] as f64 / rs.counters.llc_misses[1].max(1) as f64;
        assert!(
            per_miss_chase > 4.0 * per_miss_stream.max(0.01),
            "chase {per_miss_chase:.1} vs stream {per_miss_stream:.1} cycles/miss"
        );
    }

    #[test]
    fn slow_tier_run_is_slower_than_fast() {
        let wl = TraceWorkload::new("chase", 1 << 24, chasing_trace(4000, 30_000));
        let fast = Machine::new(small_cfg(u64::MAX / PAGE_BYTES)).unwrap();
        let slow = Machine::new(small_cfg(0)).unwrap();
        let rf = fast.run(&wl, &mut FirstTouch::new());
        let rs = slow.run(&wl, &mut FirstTouch::new());
        let slowdown = rs.slowdown_vs(&rf);
        // Latency ratio is 418/198 ~ 2.1x, so a chase-bound run should slow
        // by roughly that factor (not exactly: issue cycles dilute it).
        assert!(slowdown > 0.5, "slowdown {slowdown}");
        assert!(slowdown < 1.4, "slowdown {slowdown}");
    }

    #[test]
    fn prefetcher_reduces_streaming_misses() {
        let wl = TraceWorkload::new("stream", 1 << 24, streaming_trace(50_000, 1));
        let mut on = small_cfg(0);
        on.prefetch.coverage = 0.9;
        let mut off = small_cfg(0);
        off.prefetch.enabled = false;
        let r_on = Machine::new(on).unwrap().run(&wl, &mut FirstTouch::new());
        let r_off = Machine::new(off).unwrap().run(&wl, &mut FirstTouch::new());
        assert!(
            r_on.counters.llc_misses[1] < r_off.counters.llc_misses[1] / 2,
            "prefetch on: {} misses, off: {}",
            r_on.counters.llc_misses[1],
            r_off.counters.llc_misses[1]
        );
        assert!(r_on.total_cycles < r_off.total_cycles);
    }

    #[test]
    fn windows_are_recorded_with_monotone_edges() {
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(500, 20_000));
        let m = Machine::new(small_cfg(100)).unwrap();
        let r = m.run(&wl, &mut FirstTouch::new());
        assert!(r.windows.len() > 2);
        for w in r.windows.windows(2) {
            assert!(w[1].end_cycles > w[0].end_cycles);
            assert_eq!(w[1].index, w[0].index + 1);
        }
    }

    #[test]
    fn pebs_sample_count_tracks_rate() {
        let wl = TraceWorkload::new("chase", 1 << 24, chasing_trace(4000, 40_000));
        let mut cfg = small_cfg(0);
        cfg.pebs.rate = 100;
        let m = Machine::new(cfg).unwrap();
        let r = m.run(&wl, &mut FirstTouch::new());
        let expected = r.counters.llc_misses[1] / 100;
        let got = r.counters.pebs_samples;
        assert!(
            got >= expected.saturating_sub(2) && got <= expected + 2,
            "expected ~{expected}, got {got}"
        );
    }

    #[test]
    fn multi_thread_run_completes_and_counts_all_accesses() {
        #[derive(Debug)]
        struct TwoThreads;
        impl Workload for TwoThreads {
            fn name(&self) -> String {
                "two".into()
            }
            fn footprint_bytes(&self) -> u64 {
                1 << 22
            }
            fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
                vec![
                    Box::new(crate::workload::VecStream::new(streaming_trace(10_000, 1))),
                    Box::new(crate::workload::VecStream::new(chasing_trace(500, 10_000))),
                ]
            }
        }
        let m = Machine::new(small_cfg(200)).unwrap();
        let r = m.run(&TwoThreads, &mut FirstTouch::new());
        assert_eq!(r.counters.accesses, 20_000);
        assert_eq!(r.per_process[0].accesses, 20_000);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn colocated_processes_have_disjoint_address_spaces() {
        let a = TraceWorkload::new("a", 1 << 20, streaming_trace(5_000, 1));
        let b = TraceWorkload::new("b", 1 << 20, streaming_trace(5_000, 1));
        let m = Machine::new(small_cfg(64)).unwrap();
        let r = m.run_colocated(&[&a, &b], &mut FirstTouch::new());
        assert_eq!(r.per_process.len(), 2);
        assert_eq!(r.per_process[0].accesses, 5_000);
        assert_eq!(r.per_process[1].accesses, 5_000);
        // Both touch "the same" local addresses; misses must not collapse.
        assert!(r.counters.total_misses() > 100);
    }

    #[test]
    #[should_panic(expected = "beyond footprint")]
    fn out_of_range_vaddr_panics() {
        let wl = TraceWorkload::new("bad", 4096, vec![Access::load(8192)]);
        let m = Machine::new(small_cfg(10)).unwrap();
        m.run(&wl, &mut FirstTouch::new());
    }

    #[test]
    fn bandwidth_contention_inflates_latency() {
        // Many threads streaming from the slow tier saturate its channel.
        #[derive(Debug)]
        struct ManyStreams(usize);
        impl Workload for ManyStreams {
            fn name(&self) -> String {
                "many".into()
            }
            fn footprint_bytes(&self) -> u64 {
                1 << 26
            }
            fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
                (0..self.0)
                    .map(|i| {
                        let base = (i as u64) * (1 << 22);
                        let trace: Vec<Access> = (0..40_000u64)
                            .map(|j| Access::load(base + j * LINE_BYTES))
                            .collect();
                        Box::new(crate::workload::VecStream::new(trace))
                            as Box<dyn AccessStream + '_>
                    })
                    .collect()
            }
        }
        let mut cfg = small_cfg(0);
        cfg.prefetch.enabled = false;
        let m = Machine::new(cfg).unwrap();
        // Channel math: each thread sustains ~MSHRs/latency lines per
        // cycle; 16 threads exceed the slow channel's 1/4.4 rate and
        // queue, inflating loaded latency toward the equilibrium where
        // issue rate matches channel rate.
        let r1 = m.run(&ManyStreams(1), &mut FirstTouch::new());
        let r16 = m.run(&ManyStreams(16), &mut FirstTouch::new());
        assert!(
            r16.counters.avg_demand_latency(Tier::Slow)
                > 1.3 * r1.counters.avg_demand_latency(Tier::Slow),
            "loaded latency should inflate under contention: {} vs {}",
            r16.counters.avg_demand_latency(Tier::Slow),
            r1.counters.avg_demand_latency(Tier::Slow)
        );
    }

    /// Stateful test policy for the kill-resume round trip: promotes
    /// sampled slow pages, demotes under pressure, carries counters
    /// across snapshots, and registers its own metric.
    #[derive(Default)]
    struct HotPromote {
        samples: u64,
        windows: u64,
    }

    impl TieringPolicy for HotPromote {
        fn name(&self) -> &str {
            "hotprom"
        }

        fn on_sample(&mut self, ev: &SampleEvent, ctx: &mut PolicyCtx) {
            self.samples += 1;
            if let SampleEvent::Pebs {
                page,
                tier: Tier::Slow,
                ..
            } = ev
            {
                ctx.promote(*page);
            }
        }

        fn on_window(&mut self, _win: &WindowStats, ctx: &mut PolicyCtx) {
            self.windows += 1;
            ctx.telemetry("hotprom/samples", self.samples as f64);
            if ctx.fast_free() < 16 {
                for head in ctx.cold_fast_units(8) {
                    ctx.demote(head);
                }
            }
            let c = ctx.metrics().counter("hotprom/windows");
            ctx.metrics().inc(c, 1);
        }

        fn save_state(&self, out: &mut Vec<u8>) -> bool {
            let mut w = ByteWriter::new();
            w.put_u64(self.samples);
            w.put_u64(self.windows);
            out.extend_from_slice(&w.into_bytes());
            true
        }

        fn restore_state(&mut self, state: &[u8]) -> Result<(), String> {
            let e = |e: CodecError| e.to_string();
            let mut r = ByteReader::new(state);
            self.samples = r.get_u64().map_err(e)?;
            self.windows = r.get_u64().map_err(e)?;
            r.finish().map_err(e)
        }
    }

    fn snapshotty_cfg() -> MachineConfig {
        let mut cfg = small_cfg(100);
        cfg.track_page_stalls = true;
        cfg.snapshot_every = 4;
        cfg.fault_plan = Some(crate::FaultPlan {
            drop_order: 0.1,
            fail_migration: 0.2,
            pebs_loss: 0.05,
            ..crate::FaultPlan::default()
        });
        cfg
    }

    #[test]
    fn snapshot_capture_does_not_perturb_the_run() {
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(400, 8_000));
        let m = Machine::new(snapshotty_cfg()).unwrap();
        let plain = m.run(&wl, &mut HotPromote::default());
        let mut snaps = Vec::new();
        let mut tracer = Tracer::disabled();
        let snapped = m
            .try_run_snapshotting(&[&wl], &mut HotPromote::default(), &mut tracer, &mut |s| {
                snaps.push(s)
            })
            .unwrap();
        assert!(!snaps.is_empty());
        assert_eq!(format!("{plain:?}"), format!("{snapped:?}"));
    }

    #[test]
    fn kill_resume_is_byte_identical() {
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(400, 8_000));
        let m = Machine::new(snapshotty_cfg()).unwrap();
        let mut snaps = Vec::new();
        let mut tracer = Tracer::disabled();
        let reference = m
            .try_run_snapshotting(&[&wl], &mut HotPromote::default(), &mut tracer, &mut |s| {
                snaps.push(s)
            })
            .unwrap();
        assert!(snaps.len() >= 2, "only {} snapshots captured", snaps.len());
        assert!(reference.promotions > 0, "test policy must migrate");
        let ref_dbg = format!("{reference:?}");
        for snap in &snaps {
            let mut tr = Tracer::disabled();
            let resumed = m
                .try_resume(&[&wl], &mut HotPromote::default(), &mut tr, snap)
                .unwrap();
            assert_eq!(
                format!("{resumed:?}"),
                ref_dbg,
                "divergence resuming window {:?}",
                snap.window()
            );
        }
    }

    #[test]
    fn window_accumulators_reset_before_every_edge_capture() {
        // The per-window accumulators (`window_promos`/`window_demos`/
        // `window_failed`/`window_dropped`) are left out of the frame
        // on the grounds that `fire_window` folds them into the sealed
        // WindowRecord and resets them *before* the edge capture. Run a
        // fault-heavy config where failed and dropped orders occur in
        // most windows; the capture-side debug_asserts abort this
        // (debug-built) test if that ordering ever drifts, and the
        // resume must still be byte-identical.
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(400, 8_000));
        let mut cfg = snapshotty_cfg();
        cfg.snapshot_every = 1;
        cfg.fault_plan = Some(crate::FaultPlan {
            drop_order: 0.4,
            fail_migration: 0.6,
            ..crate::FaultPlan::default()
        });
        let m = Machine::new(cfg.clone()).unwrap();
        let mut snaps = Vec::new();
        let mut tracer = Tracer::disabled();
        let reference = m
            .try_run_snapshotting(&[&wl], &mut HotPromote::default(), &mut tracer, &mut |s| {
                snaps.push(s)
            })
            .unwrap();
        assert!(
            reference.failed_promotions > 0 && reference.dropped_orders > 0,
            "fault plan must make the skipped accumulators nonzero mid-window \
             (failed {}, dropped {})",
            reference.failed_promotions,
            reference.dropped_orders
        );
        let last = snaps.last().expect("snapshot_every=1 captures frames");
        let mut tr = Tracer::disabled();
        let resumed = m
            .try_resume(&[&wl], &mut HotPromote::default(), &mut tr, last)
            .unwrap();
        assert_eq!(format!("{resumed:?}"), format!("{reference:?}"));
    }

    #[test]
    fn corrupt_or_mismatched_snapshots_are_rejected() {
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(400, 8_000));
        let cfg = snapshotty_cfg();
        let m = Machine::new(cfg.clone()).unwrap();
        let mut snaps = Vec::new();
        let mut tracer = Tracer::disabled();
        m.try_run_snapshotting(&[&wl], &mut HotPromote::default(), &mut tracer, &mut |s| {
            snaps.push(s)
        })
        .unwrap();
        let good = snaps.remove(0);
        let resume = |mm: &Machine, snap: &MachineSnapshot| {
            let mut tr = Tracer::disabled();
            mm.try_resume(&[&wl], &mut HotPromote::default(), &mut tr, snap)
        };
        // Pristine frame resumes.
        assert!(resume(&m, &good).is_ok());
        // A flipped payload byte is caught by the checksum.
        let mut corrupt = good.as_bytes().to_vec();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x10;
        let err = resume(&m, &MachineSnapshot::from_bytes(corrupt)).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");
        // A truncated frame is rejected, not UB.
        let cut = good.as_bytes()[..good.as_bytes().len() / 2].to_vec();
        let err = resume(&m, &MachineSnapshot::from_bytes(cut)).unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");
        // A different machine configuration is rejected by fingerprint.
        let mut other = cfg.clone();
        other.fast_tier_pages += 1;
        let om = Machine::new(other).unwrap();
        let err = resume(&om, &good).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // A different policy is rejected by name.
        let mut tr = Tracer::disabled();
        let err = m
            .try_resume(&[&wl], &mut FirstTouch::new(), &mut tr, &good)
            .unwrap_err();
        assert!(err.to_string().contains("hotprom"), "{err}");
    }

    #[test]
    fn fleet_frames_whose_lanes_miss_the_globals_are_rejected() {
        let a = TraceWorkload::new("a", 1 << 22, chasing_trace(400, 6_000));
        let b = TraceWorkload::new("b", 1 << 22, chasing_trace(300, 6_000));
        let mut cfg = small_cfg(100);
        cfg.snapshot_every = 2;
        cfg.tenants = vec![
            crate::TenantSpec::new("a", 2),
            crate::TenantSpec::new("b", 1),
        ];
        let m = Machine::new(cfg.clone()).unwrap();
        let mut snaps = Vec::new();
        let mut tracer = Tracer::disabled();
        m.try_run_snapshotting(
            &[&a, &b],
            &mut HotPromote::default(),
            &mut tracer,
            &mut |s| snaps.push(s),
        )
        .unwrap();
        let snap = &snaps[snaps.len() / 2];
        // Locate lane 0 in the payload by its encoding, as restored.
        let (mut policy, mut tracer) = (HotPromote::default(), Tracer::disabled());
        let mut sim = Sim::new(&cfg, &[&a, &b], &mut policy, &mut tracer).unwrap();
        sim.restore(snap).unwrap();
        let mut w = ByteWriter::new();
        sim.lane_counters[0].encode_state(&mut w);
        let lane = w.into_bytes();
        let fp = snapshot::config_fingerprint(&cfg);
        let (window, payload) = snapshot::open_frame(snap.as_bytes(), fp).unwrap();
        let at = payload
            .windows(lane.len())
            .position(|bytes| bytes == lane)
            .expect("lane 0 is in the frame");
        // Bump lane 0's access count and reseal with a valid checksum.
        let mut payload = payload.to_vec();
        let accesses = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
        payload[at..at + 8].copy_from_slice(&(accesses + 1).to_le_bytes());
        let tampered = MachineSnapshot::from_bytes(snapshot::seal_frame(window, fp, &payload));
        let mut tr = Tracer::disabled();
        let err = m
            .try_resume(&[&a, &b], &mut HotPromote::default(), &mut tr, &tampered)
            .unwrap_err();
        assert!(matches!(err, SimError::Snapshot(_)), "{err}");
        assert!(err.to_string().contains("do not sum"), "{err}");
        // The untampered frame still resumes.
        let mut tr = Tracer::disabled();
        m.try_resume(&[&a, &b], &mut HotPromote::default(), &mut tr, snap)
            .unwrap();
    }

    #[test]
    fn snapshot_capture_fails_loudly_for_unsupported_policies() {
        struct NoSnap;
        impl TieringPolicy for NoSnap {
            fn name(&self) -> &str {
                "nosnap"
            }
        }
        let wl = TraceWorkload::new("chase", 1 << 22, chasing_trace(400, 8_000));
        let m = Machine::new(snapshotty_cfg()).unwrap();
        let mut tracer = Tracer::disabled();
        let err = m
            .try_run_snapshotting(&[&wl], &mut NoSnap, &mut tracer, &mut |_| {})
            .unwrap_err();
        assert!(
            err.to_string().contains("does not support snapshot"),
            "{err}"
        );
    }
}
