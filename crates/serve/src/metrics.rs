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
    /// Creates a zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

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

    /// Renders the histogram in text exposition format under `name`, with
    /// an optional `{label="value"}` pair on every series.
    fn render(&self, name: &str, label: Option<(&str, &str)>, out: &mut String) {
        let fmt_labels = |extra: Option<(&str, String)>| -> String {
            let mut parts = Vec::new();
            if let Some((k, v)) = label {
                parts.push(format!("{k}=\"{v}\""));
            }
            if let Some((k, v)) = extra {
                parts.push(format!("{k}=\"{v}\""));
            }
            if parts.is_empty() {
                String::new()
            } else {
                format!("{{{}}}", parts.join(","))
            }
        };
        let mut cumulative = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            // relaxed: cumulative counts stay monotone per bucket; skew
            // against a concurrent record is acceptable in an exposition.
            cumulative += bucket.load(Ordering::Relaxed);
            let le = if i < BUCKET_COUNT {
                let ns = 1u64 << (BUCKET_LOW_POW2 + i as u32);
                format!("{}", ns as f64 / 1e9)
            } else {
                "+Inf".into()
            };
            out.push_str(&format!("{name}_bucket{} {cumulative}\n", fmt_labels(Some(("le", le)))));
        }
        out.push_str(&format!("{name}_sum{} {}\n", fmt_labels(None), self.sum_ns() as f64 / 1e9));
        out.push_str(&format!("{name}_count{} {}\n", fmt_labels(None), self.count()));
    }
}

/// All counters the server exposes on `/metrics`.
///
/// Counter semantics (`_total` suffix: monotone since process start):
/// see `docs/OPERATIONS.md` for the full field reference.
#[derive(Debug)]
pub struct ServerMetrics {
    started: Instant,
    /// Requests received, by endpoint.
    pub requests_query: Counter,
    /// Requests received on `/query_batch`.
    pub requests_query_batch: Counter,
    /// Requests received on `/update`.
    pub requests_update: Counter,
    /// Requests received on `/snapshot/reload`.
    pub requests_reload: Counter,
    /// Requests received on `/healthz` + `/metrics`.
    pub requests_introspection: Counter,
    /// Requests for unknown paths/methods or with malformed HTTP.
    pub requests_other: Counter,
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

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics {
            started: Instant::now(),
            requests_query: Counter::new(),
            requests_query_batch: Counter::new(),
            requests_update: Counter::new(),
            requests_reload: Counter::new(),
            requests_introspection: Counter::new(),
            requests_other: Counter::new(),
            responses_by_class: Default::default(),
            queries_total: Counter::new(),
            query_errors_total: Counter::new(),
            queries_interrupted_total: Counter::new(),
            constraint_parses_total: Counter::new(),
            shed_queue_full_total: Counter::new(),
            shed_draining_total: Counter::new(),
            shed_connections_total: Counter::new(),
            queue_depth: Counter::new(),
            batch_windows_total: Counter::new(),
            batched_queries_total: Counter::new(),
            panics_total: Counter::new(),
            edges_scanned_total: Counter::new(),
            edges_skipped_total: Counter::new(),
            scck_calls_total: Counter::new(),
            scck_cache_hits_total: Counter::new(),
            negative_terminations_total: Counter::new(),
            backward_edges_scanned_total: Counter::new(),
            candidate_seeded_total: Counter::new(),
            updates_total: Counter::new(),
            reloads_total: Counter::new(),
            connections_total: Counter::new(),
            query_latency: LatencyHistogram::new(),
            request_latency: LatencyHistogram::new(),
            update_latency: LatencyHistogram::new(),
        }
    }
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
    pub fn render(
        &self,
        info: &kgreach::EngineInfo,
        durable: Option<&kgreach::DurableStats>,
    ) -> String {
        let mut out = String::with_capacity(4096);
        let counter = |out: &mut String, name: &str, help: &str, v: u64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n{name} {v}\n"));
        };
        let gauge = |out: &mut String, name: &str, help: &str, v: f64| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name} {v}\n"));
        };
        let load = |c: &Counter| c.get();

        gauge(&mut out, "kg_uptime_seconds", "Seconds since server start.", {
            self.started.elapsed().as_secs_f64()
        });

        out.push_str(
            "# HELP kg_requests_total Requests received, by endpoint.\n\
             # TYPE kg_requests_total counter\n",
        );
        for (ep, v) in [
            ("query", load(&self.requests_query)),
            ("query_batch", load(&self.requests_query_batch)),
            ("update", load(&self.requests_update)),
            ("snapshot_reload", load(&self.requests_reload)),
            ("introspection", load(&self.requests_introspection)),
            ("other", load(&self.requests_other)),
        ] {
            out.push_str(&format!("kg_requests_total{{endpoint=\"{ep}\"}} {v}\n"));
        }

        out.push_str(
            "# HELP kg_responses_total Responses sent, by status class.\n\
             # TYPE kg_responses_total counter\n",
        );
        for (class, v) in ["2xx", "4xx", "5xx"].iter().zip(&self.responses_by_class) {
            out.push_str(&format!("kg_responses_total{{class=\"{class}\"}} {}\n", load(v)));
        }

        counter(&mut out, "kg_queries_total", "LSCR queries answered.", load(&self.queries_total));
        counter(
            &mut out,
            "kg_query_errors_total",
            "Queries rejected with a typed error.",
            load(&self.query_errors_total),
        );
        counter(
            &mut out,
            "kg_queries_interrupted_total",
            "Queries stopped early by the step budget or timeout.",
            load(&self.queries_interrupted_total),
        );
        counter(
            &mut out,
            "kg_constraint_parses_total",
            "Constraint texts parsed because no cached plan had them as its key.",
            load(&self.constraint_parses_total),
        );

        out.push_str(
            "# HELP kg_shed_total Requests shed by admission control, by reason.\n\
             # TYPE kg_shed_total counter\n",
        );
        for (reason, v) in [
            ("queue_full", load(&self.shed_queue_full_total)),
            ("draining", load(&self.shed_draining_total)),
            ("connection_limit", load(&self.shed_connections_total)),
        ] {
            out.push_str(&format!("kg_shed_total{{reason=\"{reason}\"}} {v}\n"));
        }

        gauge(
            &mut out,
            "kg_queue_depth",
            "Threads waiting for a search slot right now.",
            load(&self.queue_depth) as f64,
        );
        counter(
            &mut out,
            "kg_batch_windows_total",
            "Search slots taken (one query each).",
            load(&self.batch_windows_total),
        );
        counter(
            &mut out,
            "kg_batched_queries_total",
            "Queries answered in a search slot, on either route.",
            load(&self.batched_queries_total),
        );
        counter(
            &mut out,
            "kg_panics_total",
            "Answers that panicked (each a 500; the thread survived).",
            load(&self.panics_total),
        );
        counter(
            &mut out,
            "kg_edges_scanned_total",
            "Edges scanned across all searches.",
            load(&self.edges_scanned_total),
        );
        counter(
            &mut out,
            "kg_edges_skipped_total",
            "Edges skipped by incident-label masks and the per-edge label test.",
            load(&self.edges_skipped_total),
        );
        counter(
            &mut out,
            "kg_scck_calls_total",
            "SCck constraint checks invoked.",
            load(&self.scck_calls_total),
        );
        counter(
            &mut out,
            "kg_scck_cache_hits_total",
            "SCck checks answered from the result cache.",
            load(&self.scck_cache_hits_total),
        );
        counter(
            &mut out,
            "kg_negative_terminations_total",
            "Searches that proved false early (mask precheck, emptied backward side, empty V(S,G)).",
            load(&self.negative_terminations_total),
        );
        counter(
            &mut out,
            "kg_backward_edges_scanned_total",
            "Edges scanned by UIS's backward sides (part of kg_edges_scanned_total).",
            load(&self.backward_edges_scanned_total),
        );
        counter(
            &mut out,
            "kg_candidate_seeded_total",
            "UIS searches whose candidate sides seeded from V(S,G).",
            load(&self.candidate_seeded_total),
        );
        counter(&mut out, "kg_updates_total", "Update batches applied.", load(&self.updates_total));
        counter(
            &mut out,
            "kg_snapshot_reloads_total",
            "Snapshot hot reloads completed.",
            load(&self.reloads_total),
        );
        counter(
            &mut out,
            "kg_connections_total",
            "TCP connections accepted.",
            load(&self.connections_total),
        );

        // Engine-side state.
        gauge(&mut out, "kg_graph_vertices", "Vertices in the served graph.", {
            info.num_vertices as f64
        });
        gauge(&mut out, "kg_graph_edges", "Edges in the served graph.", info.num_edges as f64);
        gauge(&mut out, "kg_graph_epoch", "Content epoch of the served graph.", info.epoch as f64);
        gauge(&mut out, "kg_graph_heap_bytes", "Heap footprint of the served graph.", {
            info.graph_heap_bytes as f64
        });
        gauge(&mut out, "kg_graph_overlay_live", "1 when un-compacted delta edits are live.", {
            f64::from(u8::from(info.has_overlay))
        });
        gauge(&mut out, "kg_index_built", "1 when the local index is installed.", {
            f64::from(u8::from(info.index_built))
        });
        gauge(&mut out, "kg_cached_plans", "Constraint plans in the engine cache.", {
            info.cached_plans as f64
        });

        // Durability subsystem (present only with a data directory).
        if let Some(d) = durable {
            counter(
                &mut out,
                "kg_wal_appends_total",
                "Update records appended to the write-ahead log.",
                d.wal_appends,
            );
            counter(
                &mut out,
                "kg_wal_fsyncs_total",
                "Fsyncs issued on the write-ahead log.",
                d.wal_fsyncs,
            );
            gauge(
                &mut out,
                "kg_wal_bytes",
                "Current size of the write-ahead log.",
                d.wal_bytes as f64,
            );
            gauge(
                &mut out,
                "kg_wal_last_seq",
                "Sequence number of the last logged update.",
                d.last_seq as f64,
            );
            counter(
                &mut out,
                "kg_checkpoints_total",
                "Checkpoints rolled since startup.",
                d.checkpoints,
            );
            gauge(
                &mut out,
                "kg_checkpoint_seq",
                "Sequence number the current checkpoint covers.",
                d.checkpoint_seq as f64,
            );
            gauge(
                &mut out,
                "kg_checkpoint_last_seconds",
                "Duration of the most recent checkpoint.",
                d.last_checkpoint_nanos as f64 / 1e9,
            );
            gauge(
                &mut out,
                "kg_recovery_replayed_records",
                "Log records replayed by startup recovery.",
                d.recovery_replayed as f64,
            );
            gauge(
                &mut out,
                "kg_recovery_truncated_bytes",
                "Torn-tail bytes truncated by startup recovery.",
                d.recovery_truncated_bytes as f64,
            );
            gauge(
                &mut out,
                "kg_recovery_seconds",
                "Wall-clock startup recovery time.",
                d.recovery_nanos as f64 / 1e9,
            );
        }

        for (name, help, h) in [
            (
                "kg_query_latency_seconds",
                "Per-query latency, admission to answered.",
                &self.query_latency,
            ),
            (
                "kg_request_latency_seconds",
                "Whole-request latency on the query endpoints.",
                &self.request_latency,
            ),
            ("kg_update_latency_seconds", "Update request latency.", &self.update_latency),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
            h.render(name, None, &mut out);
        }
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
        h.render("t", Some(("endpoint", "query")), &mut out);
        // Cumulative counts are monotone and end at the total.
        let counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), BUCKET_COUNT + 1);
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*counts.last().unwrap(), 4, "+Inf bucket covers everything");
        assert!(out.contains("t_count{endpoint=\"query\"} 4"));
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
