//! The three benchmark cells. Each builds its `MachineConfig` directly
//! from `MachineConfig::skylake_cxl`: no harness, no environment hooks,
//! the serial event loop (`shards` left at its default of 1).

use pact_tiersim::{
    Access, AccessStream, AdmissionControl, Machine, MachineConfig, RunReport, SimError,
    TenantSpec, TieringPolicy, Workload, PAGE_BYTES,
};
use pact_workloads::suite::{build, Scale};
use pact_workloads::{Gups, Mlc, ZipfDrift};

/// Seed used when `--seed` is not given; the pinned digests hold here.
pub const DEFAULT_SEED: u64 = 42;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// GAPBS BC over the paper-scale Kronecker graph, PACT at 1:1.
    BcKronPact,
    /// 256 independent random-load threads: scheduler-bound.
    Threads256,
    /// gups + mlc-hog + zipf-drift tenants under admission control.
    FleetAdmission,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::BcKronPact, Kind::Threads256, Kind::FleetAdmission];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BcKronPact => "bc-kron-pact",
            Kind::Threads256 => "threads-256",
            Kind::FleetAdmission => "fleet-admission",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// FNV-1a report digest at [`DEFAULT_SEED`] and [`Size::Bench`]
    /// (the digest `tierctl` prints for a cell).
    pub fn pinned_digest(self) -> u64 {
        match self {
            Kind::BcKronPact => 0xd8b7_a9ba_eb72_e9ac,
            Kind::Threads256 => 0xc5d5_4e5b_08e7_12c3,
            Kind::FleetAdmission => 0xd40a_56db_a0ed_e5cd,
        }
    }
}

/// Input size: the benchmark's own, or a small one for unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Bench,
    // Built only by the unit tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Test,
}

/// One built cell: the workload processes and the machine they run on.
pub struct Cell {
    pub workloads: Vec<Box<dyn Workload>>,
    pub machine: Machine,
}

impl Cell {
    /// Builds the workloads from `seed` and the machine for them. This
    /// is what `setup_s` times.
    pub fn build(kind: Kind, seed: u64, size: Size) -> Result<Cell, String> {
        let (workloads, cfg) = match kind {
            Kind::BcKronPact => {
                let scale = match size {
                    Size::Bench => Scale::Paper,
                    Size::Test => Scale::Smoke,
                };
                let wl = build("bc-kron", scale, seed);
                // The 1:1 tier ratio: half the footprint fits fast.
                let cfg = machine_cfg(wl.footprint_bytes(), seed);
                (vec![wl], cfg)
            }
            Kind::Threads256 => {
                let loads = match size {
                    Size::Bench => THREAD_LOADS,
                    Size::Test => 400,
                };
                let wl = RandomThreads::new(seed, loads);
                let cfg = machine_cfg(wl.footprint_bytes(), seed);
                (vec![Box::new(wl) as Box<dyn Workload>], cfg)
            }
            Kind::FleetAdmission => {
                // The noisy-neighbor cell of `probe_fleet`, at 4x its
                // access counts for the benchmark.
                let scale = match size {
                    Size::Bench => 4,
                    Size::Test => 0,
                };
                let n = |probe: u64| {
                    if scale == 0 {
                        probe / 50
                    } else {
                        probe * scale
                    }
                };
                let wls: Vec<Box<dyn Workload>> = vec![
                    Box::new(Gups::new(8 << 20, n(600_000), 2, seed)),
                    Box::new(Mlc::hog(4, 1 << 20, n(300_000))),
                    Box::new(ZipfDrift::new(1_536, n(600_000), 0.99, 80_000, seed)),
                ];
                let footprint = wls.iter().map(|w| w.footprint_bytes()).sum();
                let mut cfg = machine_cfg(footprint, seed);
                cfg.track_page_stalls = true;
                cfg.tenants = vec![
                    TenantSpec::new("gups", 4),
                    TenantSpec::new("mlc-hog", 1),
                    TenantSpec::new("zipf-drift", 2),
                ];
                cfg.admission = Some(AdmissionControl {
                    budget_per_window: 8,
                    ..AdmissionControl::default()
                });
                (wls, cfg)
            }
        };
        let machine = Machine::new(cfg).map_err(|e| format!("{}: {e}", kind.name()))?;
        Ok(Cell { workloads, machine })
    }

    pub fn refs(&self) -> Vec<&dyn Workload> {
        self.workloads.iter().map(|w| w.as_ref()).collect()
    }

    /// One cold run (fresh machine state) under `policy`.
    pub fn run(&self, policy: &mut dyn TieringPolicy) -> Result<RunReport, SimError> {
        self.machine.try_run_colocated(&self.refs(), policy)
    }

    /// Accesses the cell's fresh streams (prologues included) emit.
    pub fn drained_accesses(&self) -> u64 {
        let mut n = 0;
        for wl in &self.workloads {
            let streams = wl.prologue().into_iter().chain(wl.streams());
            for mut s in streams {
                while s.next_access().is_some() {
                    n += 1;
                }
            }
        }
        n
    }
}

/// Skylake + CXL machine with half of `footprint_bytes` in the fast tier.
fn machine_cfg(footprint_bytes: u64, seed: u64) -> MachineConfig {
    let pages = footprint_bytes.div_ceil(PAGE_BYTES);
    let mut cfg = MachineConfig::skylake_cxl((pages / 2).max(1));
    cfg.seed = seed;
    cfg
}

/// Threads in the scheduler-bound cell.
const THREADS: usize = 256;
/// Loads each thread issues (256 x 15,625 = 4 M accesses).
const THREAD_LOADS: u64 = 15_625;
/// Private region per thread (256 pages).
const REGION_BYTES: u64 = 256 * PAGE_BYTES;

/// `THREADS` independent random-load threads over disjoint regions.
#[derive(Debug)]
struct RandomThreads {
    seed: u64,
    loads: u64,
}

impl RandomThreads {
    fn new(seed: u64, loads: u64) -> Self {
        Self { seed, loads }
    }
}

impl Workload for RandomThreads {
    fn name(&self) -> String {
        "threads-256".into()
    }

    fn footprint_bytes(&self) -> u64 {
        THREADS as u64 * REGION_BYTES
    }

    fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
        (0..THREADS as u64)
            .map(|i| {
                Box::new(RandomStream {
                    x: splitmix(self.seed ^ splitmix(i + 1)),
                    remaining: self.loads,
                    base: i * REGION_BYTES,
                }) as Box<dyn AccessStream + '_>
            })
            .collect()
    }
}

/// A linear-congruential random-load generator over one region.
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
        Some(Access::load(self.base + (self.x >> 16) % REGION_BYTES))
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
