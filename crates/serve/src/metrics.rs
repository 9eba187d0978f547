//! Live serving metrics: lock-free counters and latency histograms with
//! a Prometheus-style text exposition on `GET /metrics`.
//!
//! Everything here is a relaxed atomic — recording a sample on the query
//! hot path is a handful of `fetch_add`s, never a lock — and rendering
//! reads a consistent-enough snapshot for operational monitoring (gauges
//! and counters may be skewed by in-flight updates; histograms are
//! monotone). Field semantics and alerting guidance are documented in
//! `docs/OPERATIONS.md`.

use kgreach_sync::atomic::{AtomicU64, Ordering};
use std::fmt::{self, Write};
use std::time::{Duration, Instant};

/// A monotone counter / settable gauge cell.
///
/// This newtype is the single home of the registry's memory-ordering
/// story: every operation is `Relaxed`, justified once here instead of at
/// dozens of call sites. Counters carry *statistics*, not state other
/// threads act on — no reader derives a happens-before edge from a
/// counter value, and the text exposition only needs each cell to be
/// individually coherent (atomic), not mutually consistent.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the cell.
    #[inline]
    pub fn add(&self, n: u64) {
        // relaxed: pure statistic — no payload is published through it.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrites the cell — gauge semantics.
    #[inline]
    pub fn set(&self, v: u64) {
        // relaxed: last-writer-wins is fine for a monitoring gauge.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Reads the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // relaxed: the exposition tolerates skew between cells.
        self.0.load(Ordering::Relaxed)
    }
}

/// Histogram bucket upper bounds: powers of two from 2^10 ns (≈1 µs) to
/// 2^34 ns (≈17 s), plus a +Inf overflow bucket. Query latencies in this
/// system span 1 µs (mask-pruned UIS) to ~15 ms (worst-case INS), so the
/// log-2 grid gives ~24 usable resolution steps over the whole range.
const BUCKET_LOW_POW2: u32 = 10;
const BUCKET_COUNT: usize = 25;

/// A log-scaled latency histogram over the power-of-two bucket grid
/// described above.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_COUNT + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        let idx = if ns < (1 << BUCKET_LOW_POW2) {
            0
        } else {
            ((ns.ilog2() - BUCKET_LOW_POW2) as usize + 1).min(BUCKET_COUNT)
        };
        // relaxed: the three cells of one sample need not land atomically
        // together — a concurrent render may see the bucket bump before
        // the count bump (or vice versa), which operational monitoring
        // tolerates; each cell alone never loses an increment.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        // relaxed: see above.
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        // relaxed: see above.
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        // relaxed: statistic read; no ordering needed.
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        // relaxed: statistic read; no ordering needed.
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Writes the histogram's series in text exposition format under
    /// `name`.
    fn render(&self, name: &str, out: &mut String) -> fmt::Result {
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            // relaxed: cumulative counts stay monotone per bucket; skew
            // against a concurrent record is acceptable in an exposition.
            cumulative += bucket.load(Ordering::Relaxed);
            if i < BUCKET_COUNT {
                let le = (1u64 << (BUCKET_LOW_POW2 + i as u32)) as f64 / 1e9;
                writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}")?;
            } else {
                writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}")?;
            }
        }
        writeln!(out, "{name}_sum {}", self.sum_ns() as f64 / 1e9)?;
        writeln!(out, "{name}_count {}", self.count())
    }
}

/// When the server started: the zero of `kg_uptime_seconds`.
#[derive(Debug)]
struct Started(Instant);

impl Default for Started {
    fn default() -> Self {
        Started(Instant::now())
    }
}

/// What one family of the exposition shows.
enum Sample<'a> {
    Counter(u64),
    Gauge(f64),
    /// A counter per value of one label: the label's name, then each value
    /// with its count.
    Labelled(&'static str, Vec<(&'static str, u64)>),
    Histogram(&'a LatencyHistogram),
}

/// One family of the exposition: its name, its help text and its sample.
type Family<'a> = (&'static str, &'static str, Sample<'a>);

/// Writes `families` in text exposition format, in order: the one place
/// that writes a family's HELP and TYPE lines.
fn write_families(families: Vec<Family<'_>>, out: &mut String) -> fmt::Result {
    for (name, help, sample) in families {
        let kind = match sample {
            Sample::Counter(_) | Sample::Labelled(..) => "counter",
            Sample::Gauge(_) => "gauge",
            Sample::Histogram(_) => "histogram",
        };
        writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}")?;
        match sample {
            Sample::Counter(v) => writeln!(out, "{name} {v}")?,
            Sample::Gauge(v) => writeln!(out, "{name} {v}")?,
            Sample::Labelled(label, values) => {
                for (value, v) in values {
                    writeln!(out, "{name}{{{label}=\"{value}\"}} {v}")?;
                }
            }
            Sample::Histogram(h) => h.render(name, out)?,
        }
    }
    Ok(())
}

/// The `endpoint` label values of `kg_requests_total`, in the order of
/// [`ServerMetrics::requests`]. `introspection` is `/healthz` and
/// `/metrics`; `other` is an unknown path or method, an unreadable
/// request, and a data request refused while a gated server recovers.
pub(crate) const ENDPOINTS: [&str; 6] =
    ["query", "query_batch", "update", "snapshot_reload", "introspection", "other"];

/// The index of `label` in `ENDPOINTS`, for a constant: a label not in it
/// fails the build.
pub(crate) const fn endpoint(label: &str) -> usize {
    let mut i = 0;
    while !same(ENDPOINTS[i].as_bytes(), label.as_bytes()) {
        i += 1;
    }
    i
}

/// `a == b`, which a `const fn` cannot write as such.
const fn same(a: &[u8], b: &[u8]) -> bool {
    match (a, b) {
        ([x, a @ ..], [y, b @ ..]) => *x == *y && same(a, b),
        _ => a.is_empty() && b.is_empty(),
    }
}

/// All counters the server exposes on `/metrics`.
///
/// Counter semantics (`_total` suffix: monotone since process start):
/// see `docs/OPERATIONS.md` for the full field reference.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    started: Started,
    /// Requests received, by endpoint: indexed like `ENDPOINTS`.
    pub requests: [Counter; 6],
    /// Responses sent, by status class (2xx, 4xx, 5xx → index 0, 1, 2).
    pub responses_by_class: [Counter; 3],
    /// Individual LSCR queries answered (batch members count singly).
    pub queries_total: Counter,
    /// Queries rejected with a typed error (unknown vertex, bad
    /// constraint, …).
    pub query_errors_total: Counter,
    /// Queries whose search was stopped by the step budget / timeout.
    pub queries_interrupted_total: Counter,
    /// `/query` and `/query_batch` constraint texts that had to be parsed
    /// because no cached plan had them as its key: the first request of a
    /// constraint, one after a plan-cache purge, and every request that
    /// spells its constraint other than canonically. A text that fails to
    /// parse or compile is counted in `query_errors_total` instead.
    pub constraint_parses_total: Counter,
    /// Requests shed because they would have waited for a search slot
    /// behind the high water's worth of waiting threads.
    pub shed_queue_full_total: Counter,
    /// Requests shed because the server was draining at shutdown.
    pub shed_draining_total: Counter,
    /// Connections rejected at accept because the connection cap was hit.
    pub shed_connections_total: Counter,
    /// Threads waiting for a search slot right now (gauge).
    pub queue_depth: Counter,
    /// Search slots taken. A slot serves one query, so this equals
    /// `batched_queries_total`.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub batch_windows_total: Counter,
    /// Queries answered in a slot (bumped once per query, together with
    /// `batch_windows_total`).
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub batched_queries_total: Counter,
    /// Answers that panicked. Each cost its query a `500 internal`; the
    /// thread that caught it carried on.
    pub panics_total: Counter,
    /// Sum of per-query edges scanned (from `SearchStats`).
    pub edges_scanned_total: Counter,
    /// Sum of per-query edges skipped by the incident-label mask or the
    /// per-edge label test.
    pub edges_skipped_total: Counter,
    /// Sum of `SCck` invocations.
    pub scck_calls_total: Counter,
    /// Sum of `SCck` cache hits.
    pub scck_cache_hits_total: Counter,
    /// Sum of per-query negative terminations: `false` proved early, by a
    /// mask precheck, an emptied backward stack or an empty `V(S,G)`.
    pub negative_terminations_total: Counter,
    /// Sum of per-query edges scanned by UIS's backward sides (a part of
    /// `edges_scanned_total`).
    pub backward_edges_scanned_total: Counter,
    /// UIS answers whose candidate sides seeded (`vsg_size` set).
    pub candidate_seeded_total: Counter,
    /// Successful `/update` batches applied.
    pub updates_total: Counter,
    /// Successful `/snapshot/reload` swaps.
    pub reloads_total: Counter,
    /// Connections accepted.
    pub connections_total: Counter,
    /// Per-query latency (single queries and batch members alike),
    /// measured admission → answered: any wait for a search slot, then
    /// the answer.
    pub query_latency: LatencyHistogram,
    /// Whole-request latency on `/query` and `/query_batch`, measured
    /// parse → response ready.
    pub request_latency: LatencyHistogram,
    /// `/update` request latency.
    pub update_latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Creates zeroed metrics with the uptime clock started now.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one query outcome's search counters into the totals.
    pub fn record_outcome(&self, stats: &kgreach::SearchStats, interrupted: bool) {
        self.queries_total.add(1);
        self.edges_scanned_total.add(stats.edges_scanned as u64);
        self.edges_skipped_total.add(stats.edges_skipped as u64);
        self.scck_calls_total.add(stats.scck_calls as u64);
        self.scck_cache_hits_total.add(stats.scck_cache_hits as u64);
        self.negative_terminations_total.add(stats.negative_terminations as u64);
        self.backward_edges_scanned_total.add(stats.backward_edges_scanned as u64);
        let seeded = stats.algorithm == Some(kgreach::Algorithm::Uis) && stats.vsg_size.is_some();
        self.candidate_seeded_total.add(u64::from(seeded));
        if interrupted {
            self.queries_interrupted_total.add(1);
        }
    }

    /// Records the status class of one response.
    pub(crate) fn record_status(&self, status: u16) {
        let idx = match status {
            200..=299 => 0,
            400..=499 => 1,
            _ => 2,
        };
        self.responses_by_class[idx].add(1);
    }

    /// Renders the text exposition, folding in the engine's own state
    /// summary (graph size, epoch, cache occupancy) and — on a durable
    /// server — the WAL/checkpoint/recovery counters.
    ///
    /// Every family is one row of the ordered list below, so a new series
    /// is one row here and one row of the `/metrics` table in
    /// `docs/OPERATIONS.md`.
    pub fn render(
        &self,
        info: &kgreach::EngineInfo,
        durable: Option<&kgreach::DurableStats>,
    ) -> String {
        use Sample::{Counter as C, Gauge as G, Histogram as H, Labelled as L};
        let mut families: Vec<Family<'_>> = vec![
            (
                "kg_uptime_seconds",
                "Seconds since server start.",
                G(self.started.0.elapsed().as_secs_f64()),
            ),
            (
                "kg_requests_total",
                "Requests received, by endpoint.",
                L(
                    "endpoint",
                    ENDPOINTS.into_iter().zip(self.requests.iter().map(Counter::get)).collect(),
                ),
            ),
            (
                "kg_responses_total",
                "Responses sent, by status class.",
                L(
                    "class",
                    vec![
                        ("2xx", self.responses_by_class[0].get()),
                        ("4xx", self.responses_by_class[1].get()),
                        ("5xx", self.responses_by_class[2].get()),
                    ],
                ),
            ),
            ("kg_queries_total", "LSCR queries answered.", C(self.queries_total.get())),
            (
                "kg_query_errors_total",
                "Queries rejected with a typed error.",
                C(self.query_errors_total.get()),
            ),
            (
                "kg_queries_interrupted_total",
                "Queries stopped early by the step budget or timeout.",
                C(self.queries_interrupted_total.get()),
            ),
            (
                "kg_constraint_parses_total",
                "Constraint texts parsed because no cached plan had them as its key.",
                C(self.constraint_parses_total.get()),
            ),
            (
                "kg_shed_total",
                "Requests shed by admission control, by reason.",
                L(
                    "reason",
                    vec![
                        ("queue_full", self.shed_queue_full_total.get()),
                        ("draining", self.shed_draining_total.get()),
                        ("connection_limit", self.shed_connections_total.get()),
                    ],
                ),
            ),
            (
                "kg_queue_depth",
                "Threads waiting for a search slot right now.",
                G(self.queue_depth.get() as f64),
            ),
            (
                "kg_batch_windows_total",
                "Search slots taken (one query each).",
                C(self.batch_windows_total.get()),
            ),
            (
                "kg_batched_queries_total",
                "Queries answered in a search slot, on either route.",
                C(self.batched_queries_total.get()),
            ),
            (
                "kg_panics_total",
                "Answers that panicked (each a 500; the thread survived).",
                C(self.panics_total.get()),
            ),
            (
                "kg_edges_scanned_total",
                "Edges scanned across all searches.",
                C(self.edges_scanned_total.get()),
            ),
            (
                "kg_edges_skipped_total",
                "Edges skipped by incident-label masks and the per-edge label test.",
                C(self.edges_skipped_total.get()),
            ),
            (
                "kg_scck_calls_total",
                "SCck constraint checks invoked.",
                C(self.scck_calls_total.get()),
            ),
            (
                "kg_scck_cache_hits_total",
                "SCck checks answered from the result cache.",
                C(self.scck_cache_hits_total.get()),
            ),
            (
                "kg_negative_terminations_total",
                "Searches that proved false early \
                 (mask precheck, emptied backward side, empty V(S,G)).",
                C(self.negative_terminations_total.get()),
            ),
            (
                "kg_backward_edges_scanned_total",
                "Edges scanned by UIS's backward sides (part of kg_edges_scanned_total).",
                C(self.backward_edges_scanned_total.get()),
            ),
            (
                "kg_candidate_seeded_total",
                "UIS searches whose candidate sides seeded from V(S,G).",
                C(self.candidate_seeded_total.get()),
            ),
            ("kg_updates_total", "Update batches applied.", C(self.updates_total.get())),
            (
                "kg_snapshot_reloads_total",
                "Snapshot hot reloads completed.",
                C(self.reloads_total.get()),
            ),
            ("kg_connections_total", "TCP connections accepted.", C(self.connections_total.get())),
            // Engine-side state.
            ("kg_graph_vertices", "Vertices in the served graph.", G(info.num_vertices as f64)),
            ("kg_graph_edges", "Edges in the served graph.", G(info.num_edges as f64)),
            ("kg_graph_epoch", "Content epoch of the served graph.", G(info.epoch as f64)),
            (
                "kg_graph_heap_bytes",
                "Heap footprint of the served graph.",
                G(info.graph_heap_bytes as f64),
            ),
            (
                "kg_graph_overlay_live",
                "1 when un-compacted delta edits are live.",
                G(f64::from(u8::from(info.has_overlay))),
            ),
            (
                "kg_index_built",
                "1 when the local index is installed.",
                G(f64::from(u8::from(info.index_built))),
            ),
            (
                "kg_cached_plans",
                "Constraint plans in the engine cache.",
                G(info.cached_plans as f64),
            ),
        ];
        // Durability subsystem (present only with a data directory).
        if let Some(d) = durable {
            families.extend([
                (
                    "kg_wal_appends_total",
                    "Update records appended to the write-ahead log.",
                    C(d.wal_appends),
                ),
                ("kg_wal_fsyncs_total", "Fsyncs issued on the write-ahead log.", C(d.wal_fsyncs)),
                ("kg_wal_bytes", "Current size of the write-ahead log.", G(d.wal_bytes as f64)),
                (
                    "kg_wal_last_seq",
                    "Sequence number of the last logged update.",
                    G(d.last_seq as f64),
                ),
                ("kg_checkpoints_total", "Checkpoints rolled since startup.", C(d.checkpoints)),
                (
                    "kg_checkpoint_seq",
                    "Sequence number the current checkpoint covers.",
                    G(d.checkpoint_seq as f64),
                ),
                (
                    "kg_checkpoint_last_seconds",
                    "Duration of the most recent checkpoint.",
                    G(d.last_checkpoint_nanos as f64 / 1e9),
                ),
                (
                    "kg_recovery_replayed_records",
                    "Log records replayed by startup recovery.",
                    G(d.recovery_replayed as f64),
                ),
                (
                    "kg_recovery_truncated_bytes",
                    "Torn-tail bytes truncated by startup recovery.",
                    { G(d.recovery_truncated_bytes as f64) },
                ),
                (
                    "kg_recovery_seconds",
                    "Wall-clock startup recovery time.",
                    G(d.recovery_nanos as f64 / 1e9),
                ),
            ]);
        }
        families.extend([
            (
                "kg_query_latency_seconds",
                "Per-query latency, admission to answered.",
                H(&self.query_latency),
            ),
            (
                "kg_request_latency_seconds",
                "Whole-request latency on the query endpoints.",
                H(&self.request_latency),
            ),
            ("kg_update_latency_seconds", "Update request latency.", H(&self.update_latency)),
        ]);
        let mut out = String::with_capacity(4096);
        write_families(families, &mut out).expect("a String takes every write");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_totals() {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(500)); // below the first bound
        h.record(Duration::from_micros(3));
        h.record(Duration::from_millis(5));
        h.record(Duration::from_secs(60)); // beyond the last bound
        assert_eq!(h.count(), 4);
        assert!(h.sum_ns() > 60_000_000_000);
        let mut out = String::new();
        h.render("t", &mut out).unwrap();
        // Cumulative counts are monotone and end at the total.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), BUCKET_COUNT + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 4, "+Inf bucket covers everything");
        assert!(out.contains("t_count 4"));
    }

    /// The rendered exposition of one fixed scenario, with the uptime
    /// value masked: every counter set to a distinct value, samples in all
    /// three histograms (one past the last bucket), figure 3's engine and a
    /// durable server whose every statistic is non-zero.
    fn golden_render() -> String {
        let m = ServerMetrics::new();
        let counters = m.requests.iter().chain(&m.responses_by_class).chain([
            &m.queries_total,
            &m.query_errors_total,
            &m.queries_interrupted_total,
            &m.constraint_parses_total,
            &m.shed_queue_full_total,
            &m.shed_draining_total,
            &m.shed_connections_total,
            &m.queue_depth,
            &m.batch_windows_total,
            &m.batched_queries_total,
            &m.panics_total,
            &m.edges_scanned_total,
            &m.edges_skipped_total,
            &m.scck_calls_total,
            &m.scck_cache_hits_total,
            &m.negative_terminations_total,
            &m.backward_edges_scanned_total,
            &m.candidate_seeded_total,
            &m.updates_total,
            &m.reloads_total,
            &m.connections_total,
        ]);
        for (i, c) in counters.enumerate() {
            c.add(i as u64 + 1);
        }
        m.query_latency.record(Duration::from_nanos(700));
        m.query_latency.record(Duration::from_micros(45));
        m.request_latency.record(Duration::from_micros(90));
        m.request_latency.record(Duration::from_millis(3));
        m.update_latency.record(Duration::from_secs(40)); // past the last bucket
        let engine = kgreach::LscrEngine::new(kgreach::fixtures::figure3());
        let mut info = engine.info();
        // Pinned so that a change to the graph's own layout does not move
        // this exposition.
        info.graph_heap_bytes = 4096;
        let durable = kgreach::DurableStats {
            last_seq: 11,
            checkpoint_seq: 8,
            wal_bytes: 2048,
            wal_appends: 11,
            wal_fsyncs: 5,
            checkpoints: 2,
            last_checkpoint_nanos: 1_500_000,
            recovery_replayed: 3,
            recovery_truncated_bytes: 17,
            recovery_nanos: 250_000_000,
        };
        let text = m.render(&info, Some(&durable));
        let mut masked = String::new();
        for line in text.lines() {
            let line = if line.starts_with("kg_uptime_seconds ") {
                "kg_uptime_seconds <masked>"
            } else {
                line
            };
            masked.push_str(line);
            masked.push('\n');
        }
        masked
    }

    #[test]
    fn exposition_matches_golden() {
        let golden = include_str!("../tests/fixtures/metrics.golden");
        let rendered = golden_render();
        if rendered != golden {
            let line = rendered.lines().zip(golden.lines()).position(|(a, b)| a != b);
            panic!("exposition differs from the golden at line {line:?}; rendered:\n{rendered}");
        }
    }

    /// The `/metrics` table of `docs/OPERATIONS.md` names every rendered family with
    /// its type, and nothing else.
    #[test]
    fn operations_table_matches_rendered_families() {
        let doc = include_str!("../../../docs/OPERATIONS.md");
        let table = doc
            .split("## Watching it: the /metrics reference")
            .nth(1)
            .expect("OPERATIONS.md has the /metrics section")
            .lines()
            .skip_while(|l| !l.starts_with("| Series |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'));
        let mut documented = std::collections::BTreeSet::new();
        for row in table {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let (series, kind) = (cells[1], cells[2]);
            for name in series.split(" / ") {
                let name = name.trim_matches('`');
                let name = name.split('{').next().unwrap();
                documented.insert((name.to_owned(), kind.to_owned()));
            }
        }
        let rendered: std::collections::BTreeSet<(String, String)> = golden_render()
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .map(|l| {
                let (name, kind) = l.split_once(' ').unwrap();
                (name.to_owned(), kind.to_owned())
            })
            .collect();
        let undocumented: Vec<_> = rendered.difference(&documented).collect();
        let unrendered: Vec<_> = documented.difference(&rendered).collect();
        assert!(
            undocumented.is_empty() && unrendered.is_empty(),
            "rendered but not in OPERATIONS.md: {undocumented:?}; \
             in OPERATIONS.md but not rendered: {unrendered:?}"
        );
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)] // SearchStats is non_exhaustive
    fn exposition_renders_engine_state() {
        let m = ServerMetrics::new();
        m.record_status(200);
        m.record_status(404);
        m.record_status(503);
        let mut stats = kgreach::SearchStats::default();
        stats.edges_scanned = 7;
        stats.edges_skipped = 3;
        stats.backward_edges_scanned = 2;
        stats.negative_terminations = 1;
        stats.vsg_size = Some(4);
        stats.algorithm = Some(kgreach::Algorithm::Uis);
        m.record_outcome(&stats, true);
        // UIS* and INS always report a V(S,G): only UIS's seeding counts.
        stats.algorithm = Some(kgreach::Algorithm::Ins);
        stats.backward_edges_scanned = 0;
        stats.negative_terminations = 0;
        m.record_outcome(&stats, false);
        m.constraint_parses_total.add(3);
        let engine = kgreach::LscrEngine::new(kgreach::fixtures::figure3());
        let text = m.render(&engine.info(), None);
        assert!(!text.contains("kg_wal_appends_total"), "no WAL series without durability");
        let durable = kgreach::DurableStats {
            last_seq: 9,
            wal_appends: 9,
            wal_fsyncs: 3,
            ..Default::default()
        };
        let text_durable = m.render(&engine.info(), Some(&durable));
        for needle in ["kg_wal_appends_total 9", "kg_wal_fsyncs_total 3", "kg_wal_last_seq 9"] {
            assert!(text_durable.contains(needle), "missing {needle:?}:\n{text_durable}");
        }
        for needle in [
            "kg_queries_total 2",
            "kg_queries_interrupted_total 1",
            "kg_constraint_parses_total 3",
            "kg_edges_scanned_total 14",
            "kg_edges_skipped_total 6",
            "kg_negative_terminations_total 1",
            "kg_backward_edges_scanned_total 2",
            "kg_candidate_seeded_total 1",
            "kg_responses_total{class=\"2xx\"} 1",
            "kg_responses_total{class=\"4xx\"} 1",
            "kg_responses_total{class=\"5xx\"} 1",
            "kg_graph_vertices 5",
            "kg_graph_edges 8",
            "kg_shed_total{reason=\"queue_full\"} 0",
            "# TYPE kg_query_latency_seconds histogram",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in exposition:\n{text}");
        }
    }
}
