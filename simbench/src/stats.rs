//! Order statistics and the report digest.

use std::fmt::Write;

use pact_tiersim::RunReport;

/// Median of `xs` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Percentiles the tail is chosen from, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
/// Samples a tail percentile must keep beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `n` samples that keeps at least
/// [`TAIL_BEYOND`] samples above it: the highest rung of a fixed ladder
/// that qualifies, else the nearest rank with exactly that many beyond.
/// Returns the percentile and its 1-based nearest rank, or `None` when
/// `n` is too small to have such a tail.
pub fn tail_rank(n: usize) -> Option<(f64, usize)> {
    if n <= TAIL_BEYOND {
        return None;
    }
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_BEYOND {
            return Some((p, rank));
        }
    }
    let rank = n - TAIL_BEYOND;
    Some((100.0 * rank as f64 / n as f64, rank))
}

/// `(percentile, value, samples)` of the tail of `xs` (see
/// [`tail_rank`]); the maximum when there are too few samples.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_rank(v.len()) {
        Some((p, rank)) => (p, v[rank - 1], v.len()),
        None => (100.0, v.last().copied().unwrap_or(0.0), v.len()),
    }
}

/// FNV-1a over the report's `Debug` rendering: the same digest
/// `tierctl` prints for a cell, computed without buffering the text.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // Writing into a hasher cannot fail.
    let _ = write!(h, "{report:?}");
    h.0
}

struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        for n in 0..5_000 {
            match tail_rank(n) {
                None => assert!(n <= TAIL_BEYOND, "n={n}"),
                Some((p, rank)) => {
                    assert!((1..=n).contains(&rank), "n={n}");
                    assert!(n - rank >= TAIL_BEYOND, "n={n} p={p}");
                    assert!(p > 0.0 && p < 100.0);
                }
            }
        }
        assert_eq!(tail_rank(1_324).map(|t| t.0), Some(99.0));
        assert_eq!(tail_rank(500).map(|t| t.0), Some(95.0));
        assert_eq!(tail_rank(15), Some((100.0 * 5.0 / 15.0, 5)));
    }

    #[test]
    fn tail_value_is_the_ranked_sample() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v, n) = tail(&xs);
        assert_eq!((p, v, n), (95.0, 190.0, 200));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
