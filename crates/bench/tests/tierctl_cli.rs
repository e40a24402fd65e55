//! End-to-end CLI tests for `tierctl`: exit-code conventions (0 ok,
//! 1 check failure, 2 invalid usage) are part of the CI pipeline's
//! contract, so they are pinned here against the real binary.

use std::process::{Command, Output};

fn tierctl(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_tierctl"));
    cmd.args(args);
    // Isolate from the ambient environment: a PACT_FAULTS or PACT_JOBS
    // left over from a CI stage must not leak into these assertions.
    cmd.env_remove("PACT_FAULTS");
    cmd.env_remove("PACT_JOBS");
    cmd.env_remove("PACT_TRACE");
    cmd.env_remove("PACT_PROF");
    cmd.env_remove("PACT_METRICS_ADDR");
    cmd.env_remove("PACT_REPORT_TOPK");
    cmd.env_remove("PACT_SNAPSHOT");
    cmd.env_remove("PACT_TENANTS");
    cmd
}

fn run(args: &[&str]) -> Output {
    tierctl(args).output().expect("spawn tierctl")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flag_exits_2() {
    let out = run(&["--definitely-not-a-flag"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown flag"));
}

#[test]
fn malformed_fault_spec_exits_2() {
    let out = tierctl(&["--list"])
        .env("PACT_FAULTS", "drop=banana")
        .output()
        .expect("spawn tierctl");
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("invalid fault spec"));
}

#[test]
fn zero_zero_ratio_exits_2() {
    let out = run(&["--ratio", "0:0"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("non-zero"));
}

#[test]
fn bad_ratio_format_exits_2() {
    for bad in ["1-2", "a:b", "3"] {
        let out = run(&["--ratio", bad]);
        assert_eq!(out.status.code(), Some(2), "ratio '{bad}' was accepted");
    }
}

#[test]
fn unknown_policy_exits_2() {
    let out = run(&[
        "--policy",
        "bogus",
        "--workload",
        "gups",
        "--scale",
        "smoke",
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown policy"));
}

#[test]
fn check_rejects_bad_usage_with_2() {
    for args in [
        &["check", "--fuzz", "many"][..],
        &["check", "--case", "0xnothex"],
        &["check", "--nope"],
        &["check", "--seed"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn check_small_fuzz_is_green_and_deterministic() {
    let a = run(&["check", "--fuzz", "3", "--seed", "1"]);
    assert_eq!(a.status.code(), Some(0), "{}", stderr_of(&a));
    let stdout_a = String::from_utf8_lossy(&a.stdout).into_owned();
    assert!(stdout_a.contains("fuzz: 3/3 cases passed"), "{stdout_a}");
    let b = run(&["check", "--fuzz", "3", "--seed", "1"]);
    assert_eq!(stdout_a, String::from_utf8_lossy(&b.stdout));
}

#[test]
fn check_replays_a_single_case() {
    let out = run(&["check", "--case", "0x1"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok policy="), "{stdout}");
}

#[test]
fn list_exits_0() {
    let out = run(&["--list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workloads:") && stdout.contains("pact"));
}

// --- tierctl report / serve-metrics ----------------------------------

#[test]
fn report_writes_artifacts_and_exits_0() {
    let dir = fixture_dir("report_out");
    let out = run(&[
        "report",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--topk",
        "5",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("criticality report for gups/"), "{stdout}");
    let md = std::fs::read_to_string(dir.join("report.md")).expect("report.md");
    assert!(md.contains("# Criticality report"), "{md}");
    assert!(md.contains("## Most critical pages"), "{md}");
    let json = std::fs::read_to_string(dir.join("report.json")).expect("report.json");
    pact_obs::validate(&json).expect("report.json is valid JSON");
    assert!(json.contains("\"total_stall_cycles\""), "{json}");
    let folded = std::fs::read_to_string(dir.join("flame.folded")).expect("flame.folded");
    // Every folded line is `tier;huge#H;page#P count`.
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded line");
        count.parse::<u64>().expect("folded count");
        let frames: Vec<&str> = stack.split(';').collect();
        assert_eq!(frames.len(), 3, "{line}");
        assert!(frames[0] == "fast" || frames[0] == "slow", "{line}");
        assert!(frames[1].starts_with("huge#"), "{line}");
        assert!(frames[2].starts_with("page#"), "{line}");
    }
}

#[test]
fn report_artifacts_are_identical_across_repeated_runs() {
    let base = fixture_dir("report_repeat");
    let mut bodies = Vec::new();
    for name in ["a", "b"] {
        let dir = base.join(name);
        let out = run(&[
            "report",
            "--workload",
            "gups",
            "--seed",
            "1",
            "--out",
            dir.to_str().expect("utf8 path"),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        bodies.push([
            std::fs::read(dir.join("report.md")).expect("report.md"),
            std::fs::read(dir.join("report.json")).expect("report.json"),
            std::fs::read(dir.join("flame.folded")).expect("flame.folded"),
        ]);
    }
    assert_eq!(
        bodies[0], bodies[1],
        "report artifacts differ across repeated runs"
    );
}

#[test]
fn malformed_observability_env_exits_2() {
    for (var, value) in [
        ("PACT_REPORT_TOPK", "0"),
        ("PACT_REPORT_TOPK", "many"),
        ("PACT_PROF", "maybe"),
        ("PACT_METRICS_ADDR", "not-an-addr"),
    ] {
        let out = tierctl(&["--list"])
            .env(var, value)
            .output()
            .expect("spawn tierctl");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value}: {}",
            stderr_of(&out)
        );
        assert!(stderr_of(&out).contains(var), "{}", stderr_of(&out));
    }
}

#[test]
fn malformed_scaling_env_exits_2_naming_the_variable() {
    // Satellite of the snapshot PR: every PACT_* knob is validated at
    // startup with a structured one-line error that names the variable.
    for (var, value) in [
        ("PACT_JOBS", "0"),
        ("PACT_JOBS", "-3"),
        ("PACT_SNAPSHOT", "0"),
        ("PACT_SNAPSHOT", "abc"),
        ("PACT_SNAPSHOT", "-1"),
    ] {
        let out = tierctl(&["--list"])
            .env(var, value)
            .output()
            .expect("spawn tierctl");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{var}={value}: {}",
            stderr_of(&out)
        );
        let err = stderr_of(&out);
        assert!(err.contains(var), "{err}");
        assert!(err.contains(value), "{err}");
        assert_eq!(err.lines().count(), 1, "one-line error expected: {err}");
    }
}

// --- tierctl snapshot / resume ---------------------------------------

#[test]
fn snapshot_then_resume_reproduces_the_digest() {
    let dir = fixture_dir("snap_roundtrip");
    std::fs::create_dir_all(&dir).expect("mkdir snapshot dir");
    let out = run(&[
        "snapshot",
        "--workload",
        "gups",
        "--policy",
        "pact",
        "--seed",
        "5",
        "--every",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("digest:"))
        .expect("snapshot run prints a digest line")
        .to_string();
    let mut snaps: Vec<_> = std::fs::read_dir(&dir)
        .expect("read snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "pactsnap"))
        .collect();
    snaps.sort();
    assert!(!snaps.is_empty(), "no snapshots written:\n{stdout}");
    // Every snapshot point resumes to the same end-of-run digest.
    for snap in &snaps {
        let out = run(&["resume", "--from", snap.to_str().expect("utf8 path")]);
        assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
        let resumed = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(
            resumed.lines().any(|l| l == digest),
            "resume from {} diverged:\n{resumed}\nwant {digest}",
            snap.display()
        );
    }
}

/// Captures a gups cell with a frame every window into a fresh fixture
/// directory and returns the directory and its first frame.
fn first_snapshot(name: &str, seed: &str) -> (std::path::PathBuf, std::path::PathBuf) {
    let dir = fixture_dir(name);
    std::fs::create_dir_all(&dir).expect("mkdir snapshot dir");
    let out = run(&[
        "snapshot",
        "--workload",
        "gups",
        "--seed",
        seed,
        "--every",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let snap = std::fs::read_dir(&dir)
        .expect("read snapshot dir")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "pactsnap"))
        .expect("at least one snapshot");
    (dir, snap)
}

#[test]
fn resume_rejects_corrupt_and_missing_snapshots_with_2() {
    let (dir, snap) = first_snapshot("snap_corrupt", "2");
    // Flip a byte deep in the frame payload: checksum mismatch, not UB.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let corrupt = dir.join("corrupt.pactsnap");
    std::fs::write(&corrupt, &bytes).expect("write corrupt snapshot");
    let out = run(&["resume", "--from", corrupt.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    // Missing file and missing --from are usage errors too.
    let gone = dir.join("no_such.pactsnap");
    let out = run(&["resume", "--from", gone.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let out = run(&["resume"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
}

#[test]
fn unknown_workload_exits_2_listing_valid_names() {
    let (dir, snap) = first_snapshot("snap_unknown_workload", "42");
    // The cell recipe's first string is the workload name.
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let at = bytes.windows(4).position(|w| w == b"gups");
    let at = at.expect("cell names its workload");
    bytes[at..at + 4].copy_from_slice(b"nope");
    let renamed = dir.join("renamed.pactsnap");
    std::fs::write(&renamed, &bytes).expect("write renamed snapshot");
    let out = dir.join("out").to_str().expect("utf8 path").to_string();
    let from = renamed.to_str().expect("utf8 path");
    let cases: [&[&str]; 9] = [
        &["--workload", "nope", "--scale", "smoke"],
        &["trace", "--workload", "nope", "--out", &out],
        &["report", "--workload", "nope", "--out", &out],
        &["snapshot", "--workload", "nope", "--out", &out],
        &["serve-metrics", "--workload", "nope", "--self-check"],
        &["fleet", "--tenants", "a:nope:1"],
        &["fleet"],
        &["resume", "--from", from],
        &["check", "--oracle", "--workload", "nope"],
    ];
    for args in cases {
        let mut cmd = tierctl(args);
        if args == ["fleet"] {
            // Bare `fleet` reads its tenants from the environment.
            cmd.env("PACT_TENANTS", "a:nope:1");
        }
        let out = cmd.output().expect("spawn tierctl");
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(
            err.contains("bc-kron") && err.contains("zipf-drift"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn serve_metrics_self_check_exits_0() {
    let out = run(&[
        "serve-metrics",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--self-check",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("self-check ok"), "{stdout}");
}

#[test]
fn report_with_prof_emits_summary_on_stderr_only() {
    let dir = fixture_dir("report_prof");
    let out = tierctl(&[
        "report",
        "--workload",
        "gups",
        "--seed",
        "1",
        "--out",
        dir.to_str().expect("utf8 path"),
    ])
    .env("PACT_PROF", "1")
    .output()
    .expect("spawn tierctl");
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    // Host timings go to stderr; the deterministic artifacts and stdout
    // stay clean of wall-clock numbers.
    assert!(
        stderr_of(&out).contains("host self-profile"),
        "{}",
        stderr_of(&out)
    );
    let md = std::fs::read_to_string(dir.join("report.md")).expect("report.md");
    assert!(!md.contains("host self-profile"), "{md}");
}

// --- tierctl lint ----------------------------------------------------

/// Writes a throwaway one-crate workspace for lint to scan.
fn lint_fixture(dir: &std::path::Path, src: &str) {
    std::fs::create_dir_all(dir.join("crates/tiersim/src")).expect("mkdir fixture");
    std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(dir.join("crates/tiersim/src/lib.rs"), src).expect("write source");
}

fn fixture_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    // A stale tree from an earlier run would leak extra findings.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn lint_clean_tree_exits_0() {
    let dir = fixture_dir("lint_clean");
    lint_fixture(&dir, "//! Clean.\npub fn ok() -> u32 { 1 }\n");
    let out = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 findings"), "{stdout}");
}

#[test]
fn lint_findings_exit_1_with_rustc_style_diagnostics() {
    let dir = fixture_dir("lint_dirty");
    lint_fixture(&dir, "use std::collections::HashMap;\n");
    let out = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("error[D001/det-hash-collections]"),
        "{stdout}"
    );
    assert!(
        stdout.contains("--> crates/tiersim/src/lib.rs:1:23"),
        "{stdout}"
    );
    assert!(stdout.contains("= help:"), "{stdout}");
}

#[test]
fn lint_json_mode_is_machine_readable() {
    let dir = fixture_dir("lint_json");
    lint_fixture(&dir, "use std::collections::HashMap;\n");
    let out = run(&["lint", "--json", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    pact_obs::validate(&stdout).expect("lint --json emits valid JSON");
    assert!(stdout.contains("\"tool\":\"pact-lint\""), "{stdout}");
    assert!(
        stdout.contains("\"rule\":\"det-hash-collections\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"findings_total\":1"), "{stdout}");
}

#[test]
fn lint_rule_filter_restricts_the_rule_set() {
    let dir = fixture_dir("lint_filter");
    // One D001 and one H003 finding in the same file.
    lint_fixture(
        &dir,
        "use std::collections::HashMap;\npub fn f() { println!(\"x\"); }\n",
    );
    let all = run(&["lint", "--root", dir.to_str().expect("utf8 path")]);
    assert_eq!(all.status.code(), Some(1));
    let filtered = run(&[
        "lint",
        "--rule",
        "stray-print",
        "--root",
        dir.to_str().expect("utf8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&filtered.stdout);
    assert_eq!(filtered.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("stray-print"), "{stdout}");
    assert!(!stdout.contains("det-hash-collections"), "{stdout}");
}

#[test]
fn lint_rejects_bad_usage_with_2() {
    for args in [
        &["lint", "--rule", "no-such-rule"][..],
        &["lint", "--nope"],
        &["lint", "--root"],
        &["lint", "--root", "/definitely/not/a/workspace"],
    ] {
        let out = run(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?}: {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn lint_list_rules_prints_the_catalogue() {
    let out = run(&["lint", "--list-rules"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for id in [
        "det-hash-collections",
        "det-wall-clock",
        "det-rng",
        "det-env-read",
        "naked-unwrap",
        "counter-truncation",
        "stray-print",
        "suppression",
    ] {
        assert!(stdout.contains(id), "missing {id} in:\n{stdout}");
    }
    assert_eq!(stdout.lines().count(), 8, "{stdout}");
}

#[test]
fn lint_of_this_workspace_is_clean() {
    // The gate CI enforces: the real tree has zero findings. --root
    // points at the repo root, two levels up from crates/bench.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the workspace root")
        .to_path_buf();
    let out = run(&["lint", "--root", root.to_str().expect("utf8 path")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace has lint findings:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// A minimal hygiene violation: an unjustified `.unwrap()`.
const H001_SRC: &str = "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n";

#[test]
fn lint_rule_glob_selects_a_rule_family() {
    let dir = fixture_dir("lint_hglob");
    let src = format!("use std::collections::HashMap;\n{H001_SRC}");
    lint_fixture(&dir, &src);
    let root = dir.to_str().expect("utf8 path");
    let all = run(&["lint", "--root", root]);
    assert_eq!(all.status.code(), Some(1));
    let all_out = String::from_utf8_lossy(&all.stdout).into_owned();
    assert!(all_out.contains("det-hash-collections"), "{all_out}");
    assert!(all_out.contains("naked-unwrap"), "{all_out}");
    let only_h = run(&["lint", "--root", root, "--rule", "H*"]);
    assert_eq!(only_h.status.code(), Some(1));
    let h_out = String::from_utf8_lossy(&only_h.stdout).into_owned();
    assert!(!h_out.contains("det-hash-collections"), "{h_out}");
    assert!(h_out.contains("naked-unwrap"), "{h_out}");
}

#[test]
fn lint_changed_files_agrees_with_the_full_run() {
    let dir = fixture_dir("lint_changed");
    lint_fixture(&dir, H001_SRC);
    std::fs::write(
        dir.join("crates/tiersim/src/other.rs"),
        "use std::collections::HashMap;\n",
    )
    .expect("write second source");
    let root = dir.to_str().expect("utf8 path");
    let full = run(&["lint", "--root", root]);
    assert_eq!(full.status.code(), Some(1));
    let full_out = String::from_utf8_lossy(&full.stdout).into_owned();
    let changed = run(&[
        "lint",
        "--root",
        root,
        "--changed-files",
        "crates/tiersim/src/lib.rs",
    ]);
    assert_eq!(changed.status.code(), Some(1));
    let changed_out = String::from_utf8_lossy(&changed.stdout).into_owned();
    // Whole-workspace and changed-files runs agree exactly on the
    // overlapping file: same findings at the same positions.
    let locs = |text: &str| -> Vec<String> {
        text.lines()
            .filter(|l| l.trim_start().starts_with("-->"))
            .map(|l| l.trim().to_string())
            .collect()
    };
    let full_lib: Vec<String> = locs(&full_out)
        .into_iter()
        .filter(|l| l.contains("lib.rs"))
        .collect();
    assert!(!full_lib.is_empty(), "{full_out}");
    assert_eq!(locs(&changed_out), full_lib, "{changed_out}");
    assert!(!changed_out.contains("other.rs"), "{changed_out}");
    // The untouched file's findings still gate a full run, proving the
    // filter trims the report, not the analysis.
    assert!(full_out.contains("other.rs"), "{full_out}");
}

#[test]
fn lint_changed_files_reads_stdin_dash() {
    use std::io::Write as _;
    let dir = fixture_dir("lint_changed_stdin");
    lint_fixture(&dir, H001_SRC);
    let root = dir.to_str().expect("utf8 path");
    let mut child = tierctl(&["lint", "--root", root, "--changed-files", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tierctl");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"crates/tiersim/src/lib.rs\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("tierctl exits");
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("naked-unwrap"), "{stdout}");
}

#[test]
fn lint_timings_prints_pass_walls() {
    let dir = fixture_dir("lint_timings");
    lint_fixture(&dir, "//! Clean.\npub fn ok() -> u32 { 1 }\n");
    let out = run(&[
        "lint",
        "--timings",
        "--root",
        dir.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in ["pact-lint timings", "lex+token-rules", "total wall"] {
        assert!(stdout.contains(needle), "missing `{needle}` in: {stdout}");
    }
}
