//! The benchmark's own arithmetic: percentiles, medians and ratios.

use std::collections::BTreeMap;

/// Jobs a run needs so that `job_p90_ms` has ten samples beyond it.
pub const MIN_JOBS: usize = 100;

/// Latency a failed job contributes: it misses every latency figure.
pub const FAILED_LATENCY: f64 = f64::INFINITY;

/// 1-based nearest rank of percentile `p` among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil().max(1.0) as usize
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The latencies the percentiles are taken over, ascending: each sample
/// replaced by the median of every sample with its key, so that a job
/// that ran `k` times weighs `k` times at its own median. The key names a
/// job's input and role across the passes of a run; its repeats are one
/// measurement taken `k` times. A key with a failed repeat counts as
/// failed ([`FAILED_LATENCY`]).
///
/// Over raw samples, a percentile that falls where the fast bulk of jobs
/// meets the slow tail (as `job_p90_ms` does on `acrd-revisit`) lands on
/// whichever few samples a host stall carried across the gap, and moves
/// by a quarter between runs. Per-job medians keep a stall out of the
/// tail.
pub fn per_job_medians(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut by_key: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(key, ms) in samples {
        by_key.entry(key).or_default().push(ms);
    }
    let mut out: Vec<f64> = by_key
        .values()
        .flat_map(|v| {
            let m = if v.iter().all(|x| x.is_finite()) {
                median(v)
            } else {
                FAILED_LATENCY
            };
            std::iter::repeat_n(m, v.len())
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// `num / den`, or 0 when nothing was counted.
pub fn frac(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A latency figure as printed: a percentile that lands on a failed
/// job is reported as the largest finite number, since JSON has no
/// infinity.
pub fn printable(v: f64) -> f64 {
    if v.is_infinite() {
        f64::MAX
    } else {
        v
    }
}

/// Counts of one run: jobs attempted, failed and resolved, and the
/// fixes the program claimed that the judge refused.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub resolved: usize,
    pub overclaimed: usize,
}

impl Tally {
    pub fn failed_frac(&self) -> f64 {
        frac(self.failed as f64, self.attempted as f64)
    }

    pub fn resolved_frac(&self) -> f64 {
        frac(self.resolved as f64, self.attempted as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_of_min_jobs_leaves_ten_samples_beyond() {
        assert_eq!(samples_beyond(MIN_JOBS, 90.0), 10);
        assert!(samples_beyond(MIN_JOBS - 1, 90.0) < 10);
        let xs: Vec<f64> = (1..=MIN_JOBS).map(|i| i as f64).collect();
        let p90 = percentile(&xs, 90.0);
        assert_eq!(p90, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > p90).count(), 10);
        assert_eq!(percentile(&xs, 50.0), 50.0);
    }

    #[test]
    fn percentile_edges() {
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0], 100.0), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn failed_jobs_count_against_attempted_and_miss_latency() {
        let t = Tally {
            attempted: 20,
            failed: 3,
            resolved: 15,
            overclaimed: 1,
        };
        assert_eq!(t.failed_frac(), 0.15);
        assert_eq!(t.resolved_frac(), 0.75);
        assert_eq!(Tally::default().failed_frac(), 0.0);
        // Two failures among ten jobs put the p90 on a failed job.
        let mut lat: Vec<f64> = (1..=8).map(f64::from).collect();
        lat.extend([FAILED_LATENCY, FAILED_LATENCY]);
        lat.sort_by(f64::total_cmp);
        assert_eq!(percentile(&lat, 50.0), 5.0);
        assert_eq!(printable(percentile(&lat, 90.0)), f64::MAX);
    }

    #[test]
    fn per_job_medians_keep_stalls_of_fast_jobs_out_of_the_tail() {
        // Nine fast jobs (keys 0..9) and one slow one (key 9), ten
        // repeats each; three fast repeats stalled past the slow job.
        let mut samples: Vec<(usize, f64)> = Vec::new();
        for rep in 0..10 {
            for key in 0..9 {
                let stalled = rep < 3 && key == rep;
                samples.push((key, if stalled { 90.0 } else { 10.0 + key as f64 }));
            }
            samples.push((9, 40.0 + rep as f64));
        }
        let lat = per_job_medians(&samples);
        assert_eq!(lat.len(), samples.len());
        assert_eq!(lat[0], 10.0);
        // The slow job's median (44.5) holds the top tenth; raw samples
        // would have put the stalls there.
        assert_eq!(percentile(&lat, 90.0), 18.0);
        assert_eq!(percentile(&lat, 91.0), 44.5);
        assert_eq!(samples_beyond(lat.len(), 90.0), 10);
    }

    #[test]
    fn a_failed_repeat_makes_its_job_miss_every_latency_figure() {
        let mut samples: Vec<(usize, f64)> = (0..10).map(|k| (k, 5.0)).collect();
        samples.extend((0..10).map(|k| (k, 6.0)));
        samples[3].1 = FAILED_LATENCY;
        let lat = per_job_medians(&samples);
        assert_eq!(lat.iter().filter(|x| x.is_infinite()).count(), 2);
        assert_eq!(percentile(&lat, 50.0), 5.5);
        assert!(percentile(&lat, 95.0).is_infinite());
    }
}
