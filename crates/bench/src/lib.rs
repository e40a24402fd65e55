//! # pact-bench — the experiment harness of the PACT reproduction
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` for the experiment index); this library provides the
//! shared pieces:
//!
//! * [`Harness`] / [`TierRatio`] — builds the Skylake+CXL machine at
//!   the paper's tier ratios, caches the DRAM-only baseline, runs any
//!   policy by name (including Soar's two-phase profile-then-place);
//! * [`Table`], [`sparkline`], [`cdf_lines`] — plain-text rendering of
//!   the rows/series each figure reports.
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p pact-bench --bin fig04_bckron_4k
//! cargo run --release -p pact-bench --bin fig06_all_workloads -- --scale smoke
//! ```

#![warn(missing_docs)]

mod cli;
pub mod env;
pub mod exec;
mod report;
mod runner;
pub mod serve;
pub mod snapfile;

pub use cli::{
    arm_hostprof_from_env, emit_hostprof_summary, exit_invalid_config, parse_options,
    validate_fault_env, Options,
};
pub use exec::{jobs_from_env, run_indexed, try_run_indexed};
pub use report::{banner, cdf_lines, count, pct, save_results, sparkline, Table};
pub use runner::{
    experiment_machine, is_runnable_policy, make_policy, ratio_sweep, ratio_sweep_jobs,
    ratio_sweep_traced, Harness, Outcome, PolicyError, SweepResult, TierRatio, ALL_POLICIES,
};
