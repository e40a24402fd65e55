//! Shared perf-gate plumbing for the `probe_*` binaries.
//!
//! Each probe runs the same deterministic work twice (serial then
//! parallel for the sweep, twice in a row for the single-cell probes),
//! checks both runs are byte-identical, records wall time and
//! `sim_cycles_per_sec` into a committed `BENCH_*.json` baseline, and —
//! in `--check-against PATH` mode — becomes a CI regression gate that
//! compares a fresh measurement against that baseline. The JSON
//! extraction here is deliberately not a parser: the probes' own
//! `JsonWriter` output is flat and known-shape, so anchored substring
//! scans suffice and the binaries stay dependency-free.

/// Maximum tolerated drop in `sim_cycles_per_sec` vs the committed
/// baseline before [`check_against`] fails (20%).
pub const MAX_REGRESSION: f64 = 0.20;

/// Anchor of the block the single-cell probes gate on: the faster of
/// their two identical runs.
pub const BEST_ANCHOR: &str = "\"best\":";

/// Writes the single-cell probes' timing blocks for two runs of
/// `cycles` simulated cycles taking `secs` each: `"first"`,
/// `"repeat"`, and `"best"` (the faster run, which the gate reads).
pub fn write_repeat_timings(j: &mut crate::JsonWriter, cycles: u64, secs: [f64; 2]) {
    let best = secs[0].min(secs[1]);
    for (key, s) in [("first", secs[0]), ("repeat", secs[1]), ("best", best)] {
        j.key(key);
        j.begin_object();
        j.field_f64("wall_seconds", s);
        j.field_f64("sim_cycles_per_sec", cycles as f64 / s);
        j.end_object();
    }
}

/// Extracts the JSON number following `"<key>":` after `anchor` in a
/// flat, known-shape document (a probe's own output format — no
/// general JSON parsing needed offline).
pub fn extract_f64(json: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = json.find(anchor)? + anchor.len();
    let rest = &json[start..];
    let needle = format!("\"{key}\":");
    let vstart = rest.find(&needle)? + needle.len();
    let tail = &rest[vstart..];
    let vend = tail.find([',', '}']).unwrap_or(tail.len());
    tail[..vend].trim().parse().ok()
}

/// Extracts the boolean following the first `"<key>":`.
pub fn extract_bool(json: &str, key: &str) -> Option<bool> {
    let needle = format!("\"{key}\":");
    let vstart = json.find(&needle)? + needle.len();
    let tail = &json[vstart..];
    if tail.starts_with("true") {
        Some(true)
    } else if tail.starts_with("false") {
        Some(false)
    } else {
        None
    }
}

/// Compares a fresh probe measurement against a committed baseline;
/// returns an error line per violated gate (empty = pass).
///
/// * `anchor` selects the baseline timing block holding the reference
///   `sim_cycles_per_sec` (e.g. `"\"serial\":"`).
/// * `metric_label` names that metric in messages (e.g. `"serial"`).
/// * `divergence` is the message emitted when `fresh_identical` is
///   false (each probe phrases its own bit-identity claim).
pub fn check_against(
    baseline_json: &str,
    anchor: &str,
    metric_label: &str,
    divergence: &str,
    fresh_identical: bool,
    fresh_cps: f64,
) -> Vec<String> {
    let mut errors = Vec::new();
    if !fresh_identical {
        errors.push(divergence.to_string());
    }
    match extract_bool(baseline_json, "bit_identical") {
        Some(true) => {}
        Some(false) => errors.push("committed baseline recorded bit_identical=false".to_string()),
        None => errors.push("committed baseline is missing bit_identical".to_string()),
    }
    match extract_f64(baseline_json, anchor, "sim_cycles_per_sec") {
        Some(base_cps) if base_cps > 0.0 => {
            let floor = base_cps * (1.0 - MAX_REGRESSION);
            if fresh_cps < floor {
                errors.push(format!(
                    "{metric_label} sim_cycles_per_sec regressed: {fresh_cps:.0} < {floor:.0} \
                     (baseline {base_cps:.0}, tolerance {:.0}%)",
                    MAX_REGRESSION * 100.0
                ));
            }
        }
        _ => errors.push(format!(
            "committed baseline is missing {metric_label} sim_cycles_per_sec"
        )),
    }
    errors
}

/// Parses a probe's command line: `[--check-against PATH]`. Returns
/// the baseline path when present; exits 2 on usage errors, naming the
/// probe in the message.
pub fn check_path_from_args(probe: &str) -> Option<String> {
    let mut check_path = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check-against" => match it.next() {
                Some(p) => check_path = Some(p),
                None => {
                    eprintln!("--check-against needs a baseline path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown flag '{other}'; usage: {probe} [--check-against PATH]");
                std::process::exit(2);
            }
        }
    }
    check_path
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"serial":{"jobs":1,"wall_seconds":0.25,"sim_cycles_per_sec":22750166.0},"parallel":{"jobs":4,"wall_seconds":0.05,"sim_cycles_per_sec":91000000.0},"bit_identical":true}"#;

    fn gate(baseline: &str, identical: bool, cps: f64) -> Vec<String> {
        check_against(
            baseline,
            "\"serial\":",
            "serial",
            "diverged",
            identical,
            cps,
        )
    }

    #[test]
    fn extraction_is_anchored() {
        assert_eq!(extract_bool(BASELINE, "bit_identical"), Some(true));
        let s = extract_f64(BASELINE, "\"serial\":", "sim_cycles_per_sec").unwrap();
        assert!((s - 22_750_166.0).abs() < 1.0);
        // The anchor skips past the identically-named serial field.
        let p = extract_f64(BASELINE, "\"parallel\":", "sim_cycles_per_sec").unwrap();
        assert!((p - 91_000_000.0).abs() < 1.0);
        assert_eq!(extract_f64(BASELINE, "\"missing\":", "x"), None);
    }

    #[test]
    fn repeat_timings_gate_on_the_faster_run() {
        let mut j = crate::JsonWriter::new();
        j.begin_object();
        write_repeat_timings(&mut j, 1_000, [2.0, 1.0]);
        j.end_object();
        let json = j.finish();
        let best = extract_f64(&json, BEST_ANCHOR, "sim_cycles_per_sec").unwrap();
        assert!((best - 1_000.0).abs() < 1e-9);
        let first = extract_f64(&json, "\"first\":", "wall_seconds").unwrap();
        assert!((first - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gate_passes_within_tolerance_and_at_the_floor() {
        assert!(gate(BASELINE, true, 22_000_000.0).is_empty());
        assert!(gate(BASELINE, true, 22_750_166.0 * 0.8).is_empty());
    }

    #[test]
    fn gate_fails_on_regression_or_divergence() {
        let errs = gate(BASELINE, true, 10_000_000.0);
        assert_eq!(errs.len(), 1);
        assert!(errs[0].contains("regressed"), "{}", errs[0]);
        let errs = gate(BASELINE, false, 22_000_000.0);
        assert!(errs.iter().any(|e| e == "diverged"));
    }

    #[test]
    fn gate_rejects_a_broken_baseline() {
        let errs = gate("{}", true, 1.0);
        assert_eq!(errs.len(), 2);
        let bad = BASELINE.replace("true", "false");
        let errs = gate(&bad, true, 22_000_000.0);
        assert!(errs.iter().any(|e| e.contains("baseline recorded")));
    }
}
