//! Shared experiment runner: builds machines at paper tier ratios,
//! normalizes against the DRAM-only baseline, and constructs every
//! evaluated policy by name.

use std::sync::{Arc, OnceLock};

use pact_baselines::{soar_profile, Alto, Colloid, Memtis, Nbt, NoTier, Nomad, Soar, Tpp};
use pact_core::{PactConfig, PactPolicy, RankBy};
use pact_obs::DEFAULT_RING_CAPACITY;
use pact_tiersim::{
    export_trace, ConfigError, FaultPlan, Machine, MachineConfig, RunReport, TieringPolicy,
    TraceConfig, Tracer, Workload, FAULTS_ENV, PAGE_BYTES,
};

/// A fast:slow tier-capacity ratio relative to the workload footprint
/// (the paper's x-axis: 8:1 … 1:8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierRatio {
    /// Fast parts.
    pub fast: u32,
    /// Slow parts.
    pub slow: u32,
}

impl TierRatio {
    /// The paper's seven evaluated ratios.
    pub const PAPER_SWEEP: [TierRatio; 7] = [
        TierRatio { fast: 8, slow: 1 },
        TierRatio { fast: 4, slow: 1 },
        TierRatio { fast: 2, slow: 1 },
        TierRatio { fast: 1, slow: 1 },
        TierRatio { fast: 1, slow: 2 },
        TierRatio { fast: 1, slow: 4 },
        TierRatio { fast: 1, slow: 8 },
    ];

    /// Creates a ratio.
    pub fn new(fast: u32, slow: u32) -> Self {
        Self { fast, slow }
    }

    /// Fast-tier capacity in base pages for a footprint of
    /// `footprint_bytes`.
    pub fn fast_pages(&self, footprint_bytes: u64) -> u64 {
        let total_pages = footprint_bytes.div_ceil(PAGE_BYTES);
        (total_pages * self.fast as u64 / (self.fast + self.slow) as u64).max(1)
    }
}

impl std::fmt::Display for TierRatio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.fast, self.slow)
    }
}

/// Names of all evaluated systems, in report order.
pub const ALL_POLICIES: [&str; 9] = [
    "pact", "colloid", "nbt", "alto", "nomad", "tpp", "memtis", "soar", "notier",
];

/// The machine configuration used by the experiments (the paper's
/// Skylake + emulated-CXL testbed), sized for `fast_pages`.
pub fn experiment_machine(fast_pages: u64) -> MachineConfig {
    MachineConfig::skylake_cxl(fast_pages)
}

/// The process-wide fault plan from `PACT_FAULTS`, parsed once.
///
/// Sweep cells run on worker threads; parsing the environment once up
/// front guarantees every cell sees the same plan even if the
/// environment is mutated mid-run. An invalid spec warns once and is
/// ignored here — binaries validate it eagerly at startup (see
/// [`crate::parse_options`]) so interactive users get a hard error.
fn env_fault_plan() -> Option<&'static FaultPlan> {
    static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
    PLAN.get_or_init(|| match crate::env::fault_plan() {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("warning: ignoring {FAULTS_ENV}: {e}");
            None
        }
    })
    .as_ref()
}

/// Outcome of one policy run, normalized against the DRAM baseline.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Policy name.
    pub policy: String,
    /// Slowdown vs DRAM-only (0.26 = 26%).
    pub slowdown: f64,
    /// Base pages promoted.
    pub promotions: u64,
    /// Base pages demoted.
    pub demotions: u64,
    /// The full report for deeper analysis.
    pub report: RunReport,
}

/// Why a policy name could not be instantiated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The name is not in [`ALL_POLICIES`] (or a known variant).
    Unknown(String),
    /// `soar` needs a profiling pass first; use
    /// [`Harness::run_policy`], which performs it.
    NeedsProfile,
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Unknown(name) => write!(f, "unknown policy '{name}'"),
            PolicyError::NeedsProfile => {
                write!(f, "soar requires profiling; use Harness::run_policy")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// Builds a policy instance by name.
///
/// Returns [`PolicyError::NeedsProfile`] for `"soar"` (its profiling
/// pass is driven by [`Harness::run_policy`]) and
/// [`PolicyError::Unknown`] for names outside [`ALL_POLICIES`], so
/// sweep drivers can skip bad names instead of aborting mid-sweep.
pub fn make_policy(name: &str) -> Result<Box<dyn TieringPolicy>, PolicyError> {
    Ok(match name {
        // Invariant: PactConfig::default() passes its own validate()
        // (pinned by a pact-core test), so construction cannot fail.
        "pact" => Box::new(PactPolicy::new(PactConfig::default()).expect("default is valid")),
        "pact-freq" => {
            let cfg = PactConfig {
                rank_by: RankBy::Frequency,
                ..PactConfig::default()
            };
            // Invariant: rank_by is not range-checked, so a default
            // config with only rank_by changed stays valid.
            Box::new(PactPolicy::new(cfg).expect("config is valid"))
        }
        "colloid" => Box::new(Colloid::new()),
        "nbt" => Box::new(Nbt::new()),
        "alto" => Box::new(Alto::new()),
        "nomad" => Box::new(Nomad::new()),
        "tpp" => Box::new(Tpp::new()),
        "memtis" => Box::new(Memtis::new()),
        "notier" => Box::new(NoTier::new()),
        "soar" => return Err(PolicyError::NeedsProfile),
        other => return Err(PolicyError::Unknown(other.to_string())),
    })
}

/// Whether `name` can be run by the harness (includes `"soar"`, which
/// the harness handles via its profiling pass).
pub fn is_runnable_policy(name: &str) -> bool {
    name == "soar" || make_policy(name).is_ok()
}

/// Per-workload experiment driver: owns (a shared handle to) the
/// workload, caches the DRAM-only baseline and the Soar profile, and
/// runs policies at arbitrary tier ratios.
///
/// All run methods take `&self`: the expensive artifacts (workload
/// data, baseline cycles, Soar profile) are built once and shared, so
/// a sweep can fan independent `(policy, ratio)` cells across threads
/// against one `Harness`.
pub struct Harness {
    workload: Arc<dyn Workload>,
    base_cfg: MachineConfig,
    dram_cycles: OnceLock<u64>,
    soar_profile: OnceLock<pact_baselines::SoarProfile>,
}

impl Harness {
    /// Wraps a workload with the default experiment machine.
    pub fn new(workload: Box<dyn Workload>) -> Self {
        Self::from_arc(Arc::from(workload))
    }

    /// Wraps an already-shared workload (e.g. one `Arc` fanned across
    /// several harnesses) with the default experiment machine.
    pub fn from_arc(workload: Arc<dyn Workload>) -> Self {
        Self {
            workload,
            base_cfg: experiment_machine(0),
            dram_cycles: OnceLock::new(),
            soar_profile: OnceLock::new(),
        }
    }

    /// Overrides the base machine configuration (tier capacity is still
    /// set per run).
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`MachineConfig::validate`]; use
    /// [`Harness::try_with_machine`] to surface the error instead.
    pub fn with_machine(self, cfg: MachineConfig) -> Self {
        self.try_with_machine(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Overrides the base machine configuration after validating it,
    /// reporting an invalid configuration as a structured error instead
    /// of panicking deep inside the first run.
    pub fn try_with_machine(mut self, cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        self.base_cfg = cfg;
        Ok(self)
    }

    /// The wrapped workload.
    pub fn workload(&self) -> &dyn Workload {
        self.workload.as_ref()
    }

    /// A shared handle to the wrapped workload, for building further
    /// harnesses over the same (expensive) artifact.
    pub fn workload_arc(&self) -> Arc<dyn Workload> {
        Arc::clone(&self.workload)
    }

    /// Footprint of the wrapped workload in base pages.
    pub fn footprint_pages(&self) -> u64 {
        self.workload.footprint_bytes().div_ceil(PAGE_BYTES)
    }

    fn machine(&self, fast_pages: u64) -> Machine {
        let mut cfg = self.base_cfg.clone();
        cfg.fast_tier_pages = fast_pages;
        // An explicit plan on the config wins; otherwise every run in
        // the process picks up the PACT_FAULTS environment plan (parsed
        // once — workers must all see the same plan).
        if cfg.fault_plan.is_none() {
            cfg.fault_plan = env_fault_plan().cloned();
        }
        // Invariant: base_cfg was validated by try_with_machine (or is a
        // preset), and fast_tier_pages/fault_plan stay within validated
        // ranges, so construction cannot fail.
        Machine::new(cfg).expect("experiment config is valid")
    }

    /// Cycles of the ideal DRAM-only run (computed once, cached).
    pub fn dram_cycles(&self) -> u64 {
        *self.dram_cycles.get_or_init(|| {
            let machine = self.machine(u64::MAX / PAGE_BYTES);
            let report = machine.run(self.workload.as_ref(), &mut NoTier::new());
            report.total_cycles
        })
    }

    /// Slowdown of running entirely on the slow tier (the "CXL" line).
    pub fn cxl_slowdown(&self) -> f64 {
        let machine = self.machine(0);
        let report = machine.run(self.workload.as_ref(), &mut NoTier::new());
        report.total_cycles as f64 / self.dram_cycles() as f64 - 1.0
    }

    /// The Soar object-placement profile (computed once, cached).
    fn soar(&self) -> &pact_baselines::SoarProfile {
        self.soar_profile
            .get_or_init(|| soar_profile(&self.base_cfg, self.workload.as_ref()))
    }

    /// Runs `policy_name` at `ratio` and returns the normalized outcome.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name; use [`Harness::try_run_policy`]
    /// to degrade gracefully.
    pub fn run_policy(&self, policy_name: &str, ratio: TierRatio) -> Outcome {
        let fast_pages = ratio.fast_pages(self.workload.footprint_bytes());
        self.run_policy_with_fast_pages(policy_name, fast_pages)
    }

    /// Runs `policy_name` at `ratio`, reporting unknown names as an
    /// error instead of panicking.
    pub fn try_run_policy(
        &self,
        policy_name: &str,
        ratio: TierRatio,
    ) -> Result<Outcome, PolicyError> {
        let fast_pages = ratio.fast_pages(self.workload.footprint_bytes());
        self.try_run_policy_with_fast_pages(policy_name, fast_pages)
    }

    /// Runs `policy_name` with an explicit fast-tier size in pages.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name.
    pub fn run_policy_with_fast_pages(&self, policy_name: &str, fast_pages: u64) -> Outcome {
        self.try_run_policy_with_fast_pages(policy_name, fast_pages)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs `policy_name` with an explicit fast-tier size, reporting
    /// unknown names as an error instead of panicking.
    pub fn try_run_policy_with_fast_pages(
        &self,
        policy_name: &str,
        fast_pages: u64,
    ) -> Result<Outcome, PolicyError> {
        let mut tracer = Tracer::disabled();
        self.try_run_policy_with_fast_pages_traced(policy_name, fast_pages, &mut tracer)
    }

    /// [`try_run_policy_with_fast_pages`](Self::try_run_policy_with_fast_pages)
    /// with a structured event trace recorded into `tracer`. Tracing
    /// does not perturb the run: the outcome is identical either way.
    pub fn try_run_policy_with_fast_pages_traced(
        &self,
        policy_name: &str,
        fast_pages: u64,
        tracer: &mut Tracer,
    ) -> Result<Outcome, PolicyError> {
        let machine = self.machine(fast_pages);
        let report = if policy_name == "soar" {
            let mut soar = Soar::from_profile(self.soar(), fast_pages);
            machine.run_traced(self.workload.as_ref(), &mut soar, tracer)
        } else {
            let mut policy = make_policy(policy_name)?;
            machine.run_traced(self.workload.as_ref(), policy.as_mut(), tracer)
        };
        Ok(self.outcome(report))
    }

    /// [`run_policy`](Self::run_policy) with event tracing.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name.
    pub fn run_policy_traced(
        &self,
        policy_name: &str,
        ratio: TierRatio,
        tracer: &mut Tracer,
    ) -> Outcome {
        let fast_pages = ratio.fast_pages(self.workload.footprint_bytes());
        self.try_run_policy_with_fast_pages_traced(policy_name, fast_pages, tracer)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs a caller-constructed policy (for custom configurations,
    /// e.g. PACT ablations) with an explicit fast-tier size.
    pub fn run_custom(&self, policy: &mut dyn TieringPolicy, fast_pages: u64) -> Outcome {
        let machine = self.machine(fast_pages);
        let report = machine.run(self.workload.as_ref(), policy);
        self.outcome(report)
    }

    fn outcome(&self, report: RunReport) -> Outcome {
        let dram = self.dram_cycles();
        Outcome {
            policy: report.policy.clone(),
            slowdown: report.total_cycles as f64 / dram as f64 - 1.0,
            promotions: report.promotions,
            demotions: report.demotions,
            report,
        }
    }
}

/// Result of a policies × ratios sweep over one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Swept tier ratios.
    pub ratios: Vec<TierRatio>,
    /// Policies, in input order.
    pub policies: Vec<String>,
    /// `slowdown[p][r]` for policy `p` at ratio `r`.
    pub slowdown: Vec<Vec<f64>>,
    /// `promotions[p][r]` in base pages.
    pub promotions: Vec<Vec<u64>>,
    /// Slowdown of the all-slow-tier run (the paper's gray "CXL" line).
    pub cxl: f64,
}

/// Runs every `(policy, ratio)` combination for the harness's
/// workload, fanning the independent cells over
/// [`jobs_from_env`](crate::exec::jobs_from_env) worker threads.
///
/// The result is bit-identical to the serial sweep (`PACT_JOBS=1`) for
/// any worker count: cells share only immutable state and are merged
/// in `(policy, ratio)` index order. Unknown policy names are skipped
/// with a warning instead of aborting the sweep.
///
/// When `PACT_TRACE` names a directory, each cell additionally writes
/// a trace file there (see [`ratio_sweep_traced`]).
pub fn ratio_sweep(h: &Harness, policies: &[&str], ratios: &[TierRatio]) -> SweepResult {
    ratio_sweep_jobs(h, policies, ratios, crate::exec::jobs_from_env())
}

/// [`ratio_sweep`] with an explicit worker count (`jobs = 1` is the
/// serial path).
pub fn ratio_sweep_jobs(
    h: &Harness,
    policies: &[&str],
    ratios: &[TierRatio],
    jobs: usize,
) -> SweepResult {
    let trace = crate::env::trace_config();
    ratio_sweep_traced(h, policies, ratios, jobs, trace.as_ref())
}

/// Replaces path-hostile characters in a workload/policy name so it can
/// serve as a trace-file stem.
fn file_stem(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// [`ratio_sweep_jobs`] with an explicit trace destination. When
/// `trace` is set, its path is treated as a directory and every cell
/// writes one trace file named `<workload>_<policy>_<F>-<S>.<ext>`.
///
/// File names and contents derive only from the cell's identity —
/// never from worker scheduling — so the files are byte-identical for
/// any `jobs` count; the CI observability gate pins this.
pub fn ratio_sweep_traced(
    h: &Harness,
    policies: &[&str],
    ratios: &[TierRatio],
    jobs: usize,
    trace: Option<&TraceConfig>,
) -> SweepResult {
    let kept: Vec<&str> = policies
        .iter()
        .copied()
        .filter(|&p| {
            let ok = is_runnable_policy(p);
            if !ok {
                eprintln!("warning: skipping unknown policy '{p}'");
            }
            ok
        })
        .collect();
    // Warm every shared artifact serially so worker threads only read:
    // the DRAM baseline (via cxl_slowdown) and, if swept, the Soar
    // profile. OnceLock would serialize a race anyway; warming avoids
    // even that.
    let cxl = h.cxl_slowdown();
    if kept.contains(&"soar") {
        h.soar();
    }
    if let Some(cfg) = trace {
        if let Err(e) = std::fs::create_dir_all(&cfg.path) {
            eprintln!(
                "warning: cannot create trace directory {}: {e}",
                cfg.path.display()
            );
        }
    }
    let wl_stem = file_stem(&h.workload().name());
    let cells = kept.len() * ratios.len();
    let outcomes = crate::exec::run_indexed(cells, jobs, |i| {
        let p = kept[i / ratios.len()];
        let r = ratios[i % ratios.len()];
        let Some(cfg) = trace else {
            return h.run_policy(p, r);
        };
        let mut tracer = Tracer::ring(DEFAULT_RING_CAPACITY);
        let out = h.run_policy_traced(p, r, &mut tracer);
        let label = format!("{}/{}/{}", h.workload().name(), p, r);
        let body = export_trace(&out.report, &tracer, &label, cfg.format);
        let file = cfg.path.join(format!(
            "{wl_stem}_{}_{}-{}.{}",
            file_stem(p),
            r.fast,
            r.slow,
            cfg.format.extension()
        ));
        if let Err(e) = std::fs::write(&file, body) {
            eprintln!("warning: cannot write trace {}: {e}", file.display());
        }
        out
    });
    let mut slowdown = Vec::with_capacity(kept.len());
    let mut promotions = Vec::with_capacity(kept.len());
    for row in outcomes.chunks(ratios.len()) {
        slowdown.push(row.iter().map(|o| o.slowdown).collect());
        promotions.push(row.iter().map(|o| o.promotions).collect());
    }
    SweepResult {
        ratios: ratios.to_vec(),
        policies: kept.iter().map(|s| s.to_string()).collect(),
        slowdown,
        promotions,
        cxl,
    }
}

impl SweepResult {
    /// Renders the slowdown table (one row per policy, one column per
    /// ratio), with the CXL reference line appended.
    pub fn render_slowdowns(&self) -> String {
        let mut header = vec!["policy".to_string()];
        header.extend(self.ratios.iter().map(|r| r.to_string()));
        let mut t = crate::Table::new(header);
        for (p, row) in self.policies.iter().zip(&self.slowdown) {
            let mut cells = vec![p.clone()];
            cells.extend(row.iter().map(|&s| crate::pct(s)));
            t.row(cells);
        }
        let mut cxl_row = vec!["(cxl-only)".to_string()];
        cxl_row.extend(self.ratios.iter().map(|_| crate::pct(self.cxl)));
        t.row(cxl_row);
        t.render()
    }

    /// Renders the promotion-count table (the paper's Table 2 format).
    pub fn render_promotions(&self) -> String {
        let mut header = vec!["policy".to_string()];
        header.extend(self.ratios.iter().map(|r| r.to_string()));
        let mut t = crate::Table::new(header);
        for (p, row) in self.policies.iter().zip(&self.promotions) {
            let mut cells = vec![p.clone()];
            cells.extend(row.iter().map(|&n| crate::count(n)));
            t.row(cells);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_workloads::suite::{build, Scale};

    #[test]
    fn ratio_math() {
        let r = TierRatio::new(1, 1);
        assert_eq!(r.fast_pages(100 * PAGE_BYTES), 50);
        let r81 = TierRatio::new(8, 1);
        assert_eq!(r81.fast_pages(90 * PAGE_BYTES), 80);
        assert_eq!(TierRatio::new(1, 8).fast_pages(90 * PAGE_BYTES), 10);
        assert_eq!(format!("{r}"), "1:1");
    }

    #[test]
    fn make_policy_covers_all_names() {
        for name in ALL_POLICIES {
            if name == "soar" {
                continue;
            }
            assert_eq!(make_policy(name).expect("known").name(), name);
        }
        assert_eq!(make_policy("pact-freq").expect("known").name(), "pact-freq");
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_panic() {
        assert_eq!(
            make_policy("bogus").err(),
            Some(PolicyError::Unknown("bogus".into()))
        );
        assert_eq!(make_policy("soar").err(), Some(PolicyError::NeedsProfile));
        assert!(is_runnable_policy("soar"));
        assert!(is_runnable_policy("pact"));
        assert!(!is_runnable_policy("bogus"));
        let msg = PolicyError::Unknown("bogus".into()).to_string();
        assert!(msg.contains("unknown policy"), "{msg}");
    }

    #[test]
    fn with_machine_validates_the_config() {
        let h = Harness::new(build("gups", Scale::Smoke, 9));
        let mut bad = experiment_machine(0);
        bad.window_cycles = 0;
        let err = h.try_with_machine(bad).err().unwrap();
        assert!(err.to_string().contains("window_cycles"), "{err}");
        // An invalid fault plan is caught the same way.
        let h = Harness::new(build("gups", Scale::Smoke, 9));
        let mut bad = experiment_machine(0);
        bad.fault_plan = Some(FaultPlan {
            drop_order: 2.0,
            ..FaultPlan::default()
        });
        assert!(h.try_with_machine(bad).is_err());
    }

    #[test]
    fn try_run_policy_reports_unknown_names() {
        let h = Harness::new(build("gups", Scale::Smoke, 9));
        let err = h.try_run_policy("bogus", TierRatio::new(1, 1)).unwrap_err();
        assert_eq!(err, PolicyError::Unknown("bogus".into()));
    }

    #[test]
    fn harness_normalizes_against_dram() {
        let h = Harness::new(build("silo", Scale::Smoke, 1));
        let out = h.run_policy("notier", TierRatio::new(1, 1));
        assert!(out.slowdown > -0.01, "slowdown {}", out.slowdown);
        let cxl = h.cxl_slowdown();
        assert!(
            cxl >= out.slowdown - 0.05,
            "cxl {} vs 1:1 {}",
            cxl,
            out.slowdown
        );
    }

    #[test]
    fn harness_runs_soar_via_profile() {
        let h = Harness::new(build("silo", Scale::Smoke, 1));
        let out = h.run_policy("soar", TierRatio::new(1, 1));
        assert_eq!(out.policy, "soar");
        assert_eq!(out.promotions, 0);
    }

    #[test]
    fn harness_runs_pact() {
        let h = Harness::new(build("silo", Scale::Smoke, 1));
        let out = h.run_policy("pact", TierRatio::new(1, 2));
        assert_eq!(out.policy, "pact");
        assert!(out.slowdown.is_finite());
    }

    #[test]
    fn sweep_renders_consistent_tables() {
        let h = Harness::new(build("gups", Scale::Smoke, 2));
        let ratios = [TierRatio::new(2, 1), TierRatio::new(1, 2)];
        let sweep = ratio_sweep_jobs(&h, &["pact", "notier"], &ratios, 1);
        assert_eq!(sweep.policies, vec!["pact", "notier"]);
        assert_eq!(sweep.slowdown.len(), 2);
        assert_eq!(sweep.slowdown[0].len(), 2);
        // NoTier never migrates.
        assert_eq!(sweep.promotions[1], vec![0, 0]);
        let slow = sweep.render_slowdowns();
        assert!(slow.contains("pact") && slow.contains("(cxl-only)"));
        assert_eq!(slow.lines().count(), 2 + 3); // header + rule + 3 rows
        let promos = sweep.render_promotions();
        assert!(promos.contains("notier"));
    }

    #[test]
    fn sweep_skips_unknown_policies() {
        let h = Harness::new(build("gups", Scale::Smoke, 2));
        let ratios = [TierRatio::new(1, 1)];
        let sweep = ratio_sweep_jobs(&h, &["notier", "made-up"], &ratios, 1);
        assert_eq!(sweep.policies, vec!["notier"]);
        assert_eq!(sweep.slowdown.len(), 1);
    }

    #[test]
    fn dram_cycles_is_cached_and_stable() {
        let h = Harness::new(build("gups", Scale::Smoke, 3));
        let a = h.dram_cycles();
        let b = h.dram_cycles();
        assert_eq!(a, b);
        assert!(a > 0);
    }

    #[test]
    fn shared_workload_harnesses_agree() {
        let h1 = Harness::new(build("gups", Scale::Smoke, 4));
        let h2 = Harness::from_arc(h1.workload_arc());
        assert_eq!(h1.dram_cycles(), h2.dram_cycles());
        let a = h1.run_policy("pact", TierRatio::new(1, 2));
        let b = h2.run_policy("pact", TierRatio::new(1, 2));
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
    }
}
