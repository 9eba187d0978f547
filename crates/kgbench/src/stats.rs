//! Order statistics: the percentile helper and the slice summaries every
//! reported timing goes through.

/// The percentiles a timing may be reported at, lowest first, in
/// hundredths of a percent (integers keep "ten beyond" exact).
const LADDER: [u32; 6] = [5000, 9000, 9500, 9900, 9990, 9999];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank value at quantile `q` of an ascending slice.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile(sorted: &[u32], q: f64) -> u32 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps 0.99 × 1000 at rank 990 whichever way the
    // product rounds.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest ladder percentile not above `wanted` that still has at
/// least [`MIN_BEYOND`] of `n` samples beyond it; the median when even
/// that is unsupported.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    let wanted = (wanted * 10_000.0).round() as u32;
    let supported = |p: u32| p <= wanted && n * (10_000 - p as usize) / 10_000 >= MIN_BEYOND;
    f64::from(LADDER.iter().copied().rev().find(|&p| supported(p)).unwrap_or(LADDER[0])) / 10_000.0
}

/// The tail of a sample: the highest supported percentile, its value and
/// the sample count it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (`0.99` for p99).
    pub percentile: f64,
    /// Its value.
    pub value: u32,
    /// Samples in the slice.
    pub count: usize,
}

/// Reports `wanted` when the sample supports it, otherwise the highest
/// percentile that does.
pub fn tail(sorted: &[u32], wanted: f64) -> Tail {
    let percentile = supported_percentile(sorted.len(), wanted);
    Tail { percentile, value: quantile(sorted, percentile), count: sorted.len() }
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)`
/// (exclusive method), so a spread computed here equals the one the
/// accepting driver computes from the same values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        n => {
            let m = n + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// A reported number: the median of its per-slice (or per-repeat)
/// values, their inter-quartile range, and the samples underneath.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median over the slices.
    pub value: f64,
    /// Distance between the first and third quartile of the slices.
    pub spread: f64,
    /// Samples the slices were computed from, all slices together.
    pub samples: u64,
}

/// Summarises per-slice values.
pub fn summarize(values: &[f64], samples: u64) -> Summary {
    let [q1, q2, q3] = quartiles(values);
    Summary { value: q2, spread: q3 - q1, samples }
}

/// Median of durations given in any unit.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_reports_highest_percentile_with_ten_beyond() {
        // 1000 samples: exactly 10 beyond p99, so p99 is the ceiling even
        // when p99.9 is asked for.
        let v: Vec<u32> = (0..1000).collect();
        let t = tail(&v, 0.999);
        assert_eq!((t.percentile, t.count), (0.99, 1000));
        assert_eq!(t.value, 989);
        // 999 samples: 9.99 beyond p99 is not ten; fall to p95.
        assert_eq!(tail(&v[..999], 0.99).percentile, 0.95);
        // 100 samples support p90 (10 beyond), 99 only the median.
        assert_eq!(tail(&v[..100], 0.99).percentile, 0.9);
        assert_eq!(tail(&v[..99], 0.99).percentile, 0.5);
        // Never above what was asked for.
        let big: Vec<u32> = (0..200_000).collect();
        assert_eq!(tail(&big, 0.99).percentile, 0.99);
        assert_eq!(tail(&big, 0.9999).percentile, 0.9999);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        let s = summarize(&v, 77);
        assert_eq!((s.value, s.spread, s.samples), (5.5, 5.5, 77));
    }
}
