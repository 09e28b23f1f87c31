//! Order statistics, digests and process facts shared by every workload.

use std::time::Instant;

/// Percentile ladder the tail is chosen from, highest first. Coarse rungs
/// leave more samples beyond the chosen one, which steadies the tail on a
/// noisy machine.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile must leave beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank); 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    tail_at(samples, 50.0)
}

/// Nearest-rank percentile `p` of unsorted `samples`; 0 for an empty sample.
pub fn tail_at(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    percentile(&sorted(samples), p)
}

/// The highest percentile of the ladder with at least ten samples beyond
/// it, and its value. With too few samples for any rung, the tail is the
/// maximum, labelled `max`.
pub fn tail(samples: &[f64]) -> (String, f64) {
    if samples.is_empty() {
        return ("max".to_string(), 0.0);
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n - rank.clamp(1, n) >= TAIL_BEYOND {
            return (format!("p{p}"), percentile(&sorted, p));
        }
    }
    ("max".to_string(), sorted[n - 1])
}

/// Percentile `p` of `(offset, value)` samples taken window by window:
/// the offsets in `[0, span)` are cut into `windows` equal spans, and the
/// result is the median of the windows' percentiles. A burst of queueing
/// or a slow spell of the machine then moves one window, not the result.
/// The label names the percentile, the windows and the fewest samples a
/// window held.
pub fn windowed_percentile(
    samples: &[(f64, f64)],
    span: f64,
    windows: usize,
    p: f64,
) -> (String, f64) {
    let windows = windows.max(1);
    let mut split = vec![Vec::new(); windows];
    for (offset, value) in samples {
        let w = (offset / span * windows as f64).max(0.0) as usize;
        split[w.min(windows - 1)].push(*value);
    }
    let fewest = split.iter().map(Vec::len).min().unwrap_or(0);
    let per_window: Vec<f64> = split.iter().map(|w| tail_at(w, p)).collect();
    let label = if windows == 1 {
        format!("p{p} of {fewest} samples")
    } else {
        format!("p{p} median of {windows} windows of >= {fewest} samples")
    };
    (label, median(&per_window))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Geometric mean of positive ratios (1 for an empty set). The logarithms
/// are summed in sorted order, so the result does not depend on the order
/// the ratios arrive in.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut logs: Vec<f64> = values.into_iter().map(|v| v.max(1e-12).ln()).collect();
    if logs.is_empty() {
        return 1.0;
    }
    logs.sort_by(f64::total_cmp);
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// FNV-1a, stable across builds, for output digests.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The commit the checkout was made from, read from `.git` in the working
/// directory without running git; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), ("p99".to_string(), 990.0));
        let some: Vec<f64> = (1..=300).map(f64::from).collect();
        assert_eq!(tail(&some), ("p95".to_string(), 285.0));
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), ("p50".to_string(), 10.0));
        assert_eq!(tail(&[3.0, 1.0, 2.0]), ("max".to_string(), 3.0));
    }

    #[test]
    fn windowed_percentile_takes_the_median_window() {
        // Three windows of 20 samples; the middle one holds a burst.
        let samples: Vec<(f64, f64)> = (0..60)
            .map(|i| {
                let burst = if (20..40).contains(&i) { 100.0 } else { 0.0 };
                (f64::from(i) / 2.0, f64::from(i % 20 + 1) + burst)
            })
            .collect();
        assert_eq!(
            windowed_percentile(&samples, 30.0, 3, 90.0),
            ("p90 median of 3 windows of >= 20 samples".to_string(), 18.0)
        );
        let values: Vec<f64> = samples.iter().map(|(_, v)| *v).collect();
        assert_eq!(
            windowed_percentile(&samples, 30.0, 1, 90.0),
            ("p90 of 60 samples".to_string(), tail_at(&values, 90.0))
        );
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 1.0);
    }
}
