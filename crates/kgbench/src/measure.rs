//! What a workload run records: latencies by slice of the measured
//! window and by distinct operation, failures by kind, and the process's
//! peak memory.

use crate::stats::{self, Summary};
use std::time::Duration;

/// Slices per measured window. Each end-to-end timing is computed per
/// slice and reported as the median over the slices, with their
/// inter-quartile range as its spread.
pub const SLICES: usize = 10;

/// The percentile `query_p99_us` and `update_ack_p99_us` ask for.
pub const TAIL: f64 = 0.99;

/// The quantile of one operation's latencies, across the cycles of a
/// window, that `throughput_qps` is built from. The sandbox is a guest
/// whose host takes the CPU away for milliseconds at a time (`steal` in
/// `/proc/stat`: none in one minute, half of all time in the next), and
/// whatever operation is running then takes that much longer. Counting
/// completions per second measures the host: the same 8,192 operations
/// took 2.7 s and 4.8 s within one process. An operation's lower quartile
/// over its repeats does not move until the host takes three quarters of
/// the time (a 5 ms loop under 50 % steal: mean 10.0 ms against 5.1 ms
/// quiet, median 5.19 against 5.06, lower quartile 5.11 against 5.00),
/// nor when the host's rare fast spells (a fifth faster, under a tenth
/// of the time) come and go, which is what moves a minimum.
pub const TYPICAL: f64 = 0.25;

/// Operations that did not produce a correct answer, by kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Failures {
    /// The call returned an error.
    pub errors: u64,
    /// The answer differs from ground truth.
    pub wrong: u64,
    /// A budget or timeout cut the search short.
    pub interrupted: u64,
    /// The server refused the request (429 / 503).
    pub shed: u64,
    /// An update was due inside the window and never acknowledged.
    pub unacked: u64,
}

impl Failures {
    /// All kinds together.
    pub fn total(&self) -> u64 {
        self.errors + self.wrong + self.interrupted + self.shed + self.unacked
    }

    /// Adds another tally.
    pub fn add(&mut self, o: Failures) {
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.interrupted += o.interrupted;
        self.shed += o.shed;
        self.unacked += o.unacked;
    }
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Correct.
    Ok,
    /// See [`Failures::errors`].
    Error,
    /// See [`Failures::wrong`].
    Wrong,
    /// See [`Failures::interrupted`].
    Interrupted,
    /// See [`Failures::shed`].
    Shed,
}

/// How a window's `throughput_qps` is taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Correct answers counted per second, per slice, median over the
    /// slices: for a workload whose answers wait on something inside the
    /// system — another thread, a queue, the server's batch window — so
    /// that only the clock on the wall says what it completes.
    Counted,
    /// From every distinct operation's [`TYPICAL`] latency: for one
    /// caller in a loop where the same operation costs the same every
    /// time it is asked, so its repeats measure one quantity.
    Typical,
}

/// Latencies of correct answers, bucketed by the slice they finished in
/// and by which of the workload's distinct operations they answer.
#[derive(Debug)]
pub struct Recorder {
    slice_ns: u64,
    slices: Vec<Vec<u32>>,
    per_op: Vec<Vec<u32>>,
    /// Operations issued, warm-up and verification passes included.
    pub attempted: u64,
    /// Those that failed.
    pub failures: Failures,
}

impl Recorder {
    /// A recorder for a window of this length that keeps the repeats of
    /// `ops` distinct operations ([`Throughput::Typical`] needs them all,
    /// [`Throughput::Counted`] none).
    pub fn new(window: Duration, ops: usize) -> Recorder {
        Recorder {
            slice_ns: (window.as_nanos() as u64 / SLICES as u64).max(1),
            slices: vec![Vec::new(); SLICES],
            per_op: vec![Vec::new(); ops],
            attempted: 0,
            failures: Failures::default(),
        }
    }

    /// Counts an operation outside the window (warm-up, final pass).
    pub fn count(&mut self, verdict: Verdict) {
        self.attempted += 1;
        match verdict {
            Verdict::Ok => {}
            Verdict::Error => self.failures.errors += 1,
            Verdict::Wrong => self.failures.wrong += 1,
            Verdict::Interrupted => self.failures.interrupted += 1,
            Verdict::Shed => self.failures.shed += 1,
        }
    }

    /// Records that operation `op` finished `end_ns` into the window
    /// after `latency_ns`. Only correct answers have a latency; what
    /// finishes after the window's end is counted and kept for its
    /// operation but belongs to no slice.
    #[inline]
    pub fn record(&mut self, op: usize, end_ns: u64, latency_ns: u64, verdict: Verdict) {
        self.count(verdict);
        if verdict == Verdict::Ok {
            let latency = latency_ns.min(u64::from(u32::MAX)) as u32;
            if let Some(repeats) = self.per_op.get_mut(op) {
                repeats.push(latency);
            }
            if let Some(slice) = self.slices.get_mut((end_ns / self.slice_ns) as usize) {
                slice.push(latency);
            }
        }
    }

    /// Folds in the recorder of another thread of the same window.
    pub fn merge(&mut self, other: Recorder) {
        for (mine, theirs) in self.slices.iter_mut().zip(other.slices) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.per_op.iter_mut().zip(other.per_op) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failures.add(other.failures);
    }

    /// Per-slice p50 / tail / completions per second, summarised, and
    /// the throughput by the given rule.
    pub fn finish(mut self, throughput: Throughput) -> QueryMetrics {
        let slice_s = self.slice_ns as f64 / 1e9;
        let (mut p50, mut tail, mut qps) = (Vec::new(), Vec::new(), Vec::new());
        let mut samples = 0u64;
        // The percentile every slice supports, so the slices' tails are
        // the same statistic.
        let smallest = self.slices.iter().map(Vec::len).min().unwrap_or(0);
        let percentile = stats::supported_percentile(smallest, TAIL);
        for slice in &mut self.slices {
            slice.sort_unstable();
            samples += slice.len() as u64;
            qps.push(slice.len() as f64 / slice_s);
            if !slice.is_empty() {
                p50.push(f64::from(stats::quantile(slice, 0.5)) / 1e3);
                tail.push(f64::from(stats::quantile(slice, percentile)) / 1e3);
            }
        }
        let completions_per_s = stats::summarize(&qps, samples);
        QueryMetrics {
            p50_us: stats::summarize(&p50, samples),
            tail_us: stats::summarize(&tail, samples),
            tail_percentile: percentile,
            throughput_qps: match throughput {
                Throughput::Counted => completions_per_s,
                Throughput::Typical => typical_qps(&self.per_op),
            },
            completions_per_s,
        }
    }
}

/// What one caller, sending its next operation when the last one
/// returns, completes per second when the host leaves it alone: the
/// number of distinct operations over the sum of their [`TYPICAL`]
/// latencies. The spread is the distance between the figures from the
/// first and the second half of each operation's repeats.
fn typical_qps(per_op: &[Vec<u32>]) -> Summary {
    let qps = |part: &dyn Fn(&[u32]) -> std::ops::Range<usize>| {
        let (mut sum_ns, mut ops) = (0.0, 0u64);
        for repeats in per_op {
            let mut part = repeats[part(repeats)].to_vec();
            if !part.is_empty() {
                part.sort_unstable();
                sum_ns += f64::from(stats::quantile(&part, TYPICAL));
                ops += 1;
            }
        }
        if ops == 0 {
            0.0
        } else {
            1e9 * ops as f64 / sum_ns
        }
    };
    let (first, second) = (qps(&|r| 0..r.len() / 2), qps(&|r| r.len() / 2..r.len()));
    Summary {
        value: qps(&|r| 0..r.len()),
        spread: (first - second).abs(),
        samples: per_op.iter().map(|r| r.len() as u64).sum(),
    }
}

/// The three query metrics of a window.
#[derive(Clone, Copy, Debug)]
pub struct QueryMetrics {
    /// `query_p50_us`.
    pub p50_us: Summary,
    /// `query_p99_us` — at [`tail_percentile`](Self::tail_percentile).
    pub tail_us: Summary,
    /// The percentile `tail_us` was taken at: 0.99 whenever every slice
    /// has the 1,000 samples that takes, lower in `--quick` runs.
    pub tail_percentile: f64,
    /// `throughput_qps`: correct answers per second, by the workload's
    /// [`Throughput`] rule.
    pub throughput_qps: Summary,
    /// Correct answers counted per second of the window, interruptions
    /// and all; the median over the slices.
    pub completions_per_s: Summary,
}

/// A whole-window percentile pair (update acknowledgements): the median
/// and the highest supported tail over all samples, each with the
/// distance between the window's two halves as its spread.
pub fn whole_window(samples_ns: &[u32]) -> (Summary, Summary, f64) {
    let sorted = |part: &[u32]| {
        let mut v = part.to_vec();
        v.sort_unstable();
        v
    };
    let all = sorted(samples_ns);
    if all.is_empty() {
        let none = Summary { value: 0.0, spread: 0.0, samples: 0 };
        return (none, none, 0.5);
    }
    let tail = stats::tail(&all, TAIL);
    let (a, b) = samples_ns.split_at(samples_ns.len() / 2);
    let (a, b) = (sorted(a), sorted(b));
    let at = |v: &[u32], q: f64| if v.is_empty() { 0.0 } else { f64::from(stats::quantile(v, q)) };
    let summary = |value: u32, q: f64| Summary {
        value: f64::from(value) / 1e3,
        spread: (at(&a, q) - at(&b, q)).abs() / 1e3,
        samples: tail.count as u64,
    };
    (
        summary(stats::quantile(&all, 0.5), 0.5),
        summary(tail.value, tail.percentile),
        tail.percentile,
    )
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_slices_by_finish_time_and_counts_failures() {
        let mut r = Recorder::new(Duration::from_micros(10), 4); // 1 µs slices
        for slice in 0..SLICES as u64 {
            for k in 0..3 {
                r.record(k as usize, slice * 1_000 + k, 100 * (slice + 1), Verdict::Ok);
            }
        }
        r.record(0, 500, 7, Verdict::Wrong);
        r.record(3, 10_000, 400, Verdict::Ok); // past the end: counted, unsliced
        r.count(Verdict::Interrupted);
        assert_eq!(r.attempted, 33);
        assert_eq!(r.failures.total(), 2);
        let m = r.finish(Throughput::Typical);
        assert_eq!(m.p50_us.samples, 30);
        assert_eq!(m.p50_us.value, 0.55); // median of 0.1..1.0 µs
        assert_eq!(m.completions_per_s.value, 3.0 / 1e-6);
        assert_eq!(m.completions_per_s.spread, 0.0);
        assert_eq!(m.tail_percentile, 0.5); // 3 samples support no tail

        // Operations 0..3 repeat at 100..=1000 ns, lower quartile 300 ns;
        // operation 3 ran once, in 400 ns.
        assert_eq!(m.throughput_qps.value, 1e9 * 4.0 / 1300.0);
        assert_eq!(m.throughput_qps.samples, 31);
    }

    #[test]
    fn throughput_ignores_what_the_host_took() {
        // Two operations of 1 µs and 3 µs, ten repeats each; the host
        // stalls four repeats of each by a millisecond.
        let run = |stalled: usize, rule: Throughput| {
            let mut r = Recorder::new(Duration::from_secs(1), 2);
            for k in 0..10 {
                let stall = if k % 10 < stalled { 1_000_000 } else { 0 };
                r.record(0, 0, 1_000 + stall, Verdict::Ok);
                r.record(1, 0, 3_000 + stall, Verdict::Ok);
            }
            r.finish(rule).throughput_qps
        };
        assert_eq!(run(0, Throughput::Typical).value, 500_000.0); // 2 operations per 4 µs
        assert_eq!(run(4, Throughput::Typical).value, 500_000.0);
        assert_eq!(run(0, Throughput::Typical).spread, 0.0);
        // Counted, they all finished in the first tenth of the second.
        assert_eq!(run(4, Throughput::Counted).value, 0.0);
        // A second half slower than the first shows in the spread.
        let mut r = Recorder::new(Duration::from_secs(1), 1);
        (0..8).for_each(|k| r.record(0, 0, if k < 4 { 1_000 } else { 2_000 }, Verdict::Ok));
        assert_eq!(r.finish(Throughput::Typical).throughput_qps.spread, 500_000.0);
        // No correct answer at all: no throughput.
        let none = Recorder::new(Duration::from_secs(1), 3).finish(Throughput::Typical);
        assert_eq!(none.throughput_qps.value, 0.0);
    }

    #[test]
    fn rss_is_read() {
        assert!(rss_peak_mib() > 1.0);
    }
}
