//! Property tests for the metrics registry under real concurrency.
//!
//! The model-check suite (`model_check.rs`, under `--cfg kg_loom`) proves
//! the two-thread windows exhaustively; these properties complement it by
//! hammering the *same invariants* with many threads and many samples on
//! the real `std` atomics:
//!
//! * concurrent histogram records never lose a count, and the rendered
//!   bucket totals equal the sum of what every thread recorded;
//! * concurrent shed-counter adds never lose an increment;
//! * concurrent `record_outcome`s sum every search counter exactly, and
//!   the exposition renders the sums.

use kgreach::{Algorithm, SearchStats};
use kgreach_serve::{LatencyHistogram, ServerMetrics};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    /// Every thread records its samples; afterwards the histogram's count
    /// and sum equal the per-thread totals exactly — no increment lost,
    /// no sample double-counted.
    #[test]
    fn concurrent_histogram_records_lose_nothing(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..2_000_000, 1..40),
            2..6,
        ),
    ) {
        let h = LatencyHistogram::new();
        let h = &h;
        std::thread::scope(|scope| {
            for samples in &per_thread {
                scope.spawn(move || {
                    for &ns in samples {
                        h.record(Duration::from_nanos(ns));
                    }
                });
            }
        });
        let expected_count: u64 = per_thread.iter().map(|s| s.len() as u64).sum();
        let expected_sum: u64 = per_thread.iter().flatten().sum();
        prop_assert_eq!(h.count(), expected_count);
        prop_assert_eq!(h.sum_ns(), expected_sum);
    }

    /// The +Inf bucket of the rendered exposition equals the total number
    /// of samples recorded across all threads, and the cumulative bucket
    /// counts are monotone.
    #[test]
    fn rendered_bucket_totals_match_thread_sums(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000_000_000, 1..30),
            2..5,
        ),
    ) {
        let metrics = ServerMetrics::new();
        let metrics = &metrics;
        std::thread::scope(|scope| {
            for samples in &per_thread {
                scope.spawn(move || {
                    for &ns in samples {
                        metrics.query_latency.record(Duration::from_nanos(ns));
                    }
                });
            }
        });
        let engine = kgreach::LscrEngine::new(kgreach::fixtures::figure3());
        let text = metrics.render(&engine.info(), None);
        let cumulative: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("kg_query_latency_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        let expected: u64 = per_thread.iter().map(|s| s.len() as u64).sum();
        prop_assert!(!cumulative.is_empty());
        prop_assert!(cumulative.windows(2).all(|w| w[0] <= w[1]), "buckets must be monotone");
        prop_assert_eq!(*cumulative.last().unwrap(), expected, "+Inf bucket covers every sample");
        prop_assert_eq!(metrics.query_latency.count(), expected);
    }

    /// Shed counters under concurrent adds: the final value is exactly
    /// the sum of everything every thread added.
    #[test]
    fn concurrent_shed_counter_adds_all_land(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(1u64..100, 1..50),
            2..6,
        ),
    ) {
        let metrics = ServerMetrics::new();
        let metrics = &metrics;
        std::thread::scope(|scope| {
            for adds in &per_thread {
                scope.spawn(move || {
                    for &n in adds {
                        metrics.shed_queue_full_total.add(n);
                        metrics.shed_draining_total.add(1);
                    }
                });
            }
        });
        let expected_full: u64 = per_thread.iter().flatten().sum();
        let expected_drain: u64 = per_thread.iter().map(|a| a.len() as u64).sum();
        prop_assert_eq!(metrics.shed_queue_full_total.get(), expected_full);
        prop_assert_eq!(metrics.shed_draining_total.get(), expected_drain);
    }

    /// Search outcomes recorded from several threads: every counter
    /// `record_outcome` feeds ends at the sum over all threads, candidate
    /// seeding counts only UIS answers with a `vsg_size`, and the
    /// exposition prints each sum under its series name.
    #[test]
    fn concurrent_outcomes_sum_every_search_counter(
        per_thread in proptest::collection::vec(
            proptest::collection::vec(0u64..1 << 24, 1..30),
            2..5,
        ),
    ) {
        // One draw packs an outcome: edges, backward edges, a negative
        // termination, the algorithm and whether V(S,G) was set.
        let stats = |&bits: &u64| {
            let field = |shift: u32, modulus: u64| ((bits >> shift) % modulus) as usize;
            let mut s = SearchStats::default();
            s.backward_edges_scanned = field(9, 512);
            s.edges_scanned = field(0, 512) + s.backward_edges_scanned;
            s.negative_terminations = field(18, 2);
            s.algorithm = Some([Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins][field(19, 3)]);
            s.vsg_size = (field(21, 2) == 1).then_some(field(0, 512));
            s
        };
        let metrics = ServerMetrics::new();
        let metrics = &metrics;
        std::thread::scope(|scope| {
            for outcomes in &per_thread {
                scope.spawn(move || {
                    for o in outcomes {
                        metrics.record_outcome(&stats(o), false);
                    }
                });
            }
        });
        let all: Vec<SearchStats> = per_thread.iter().flatten().map(stats).collect();
        let sum = |f: fn(&SearchStats) -> usize| all.iter().map(f).sum::<usize>() as u64;
        let seeded = sum(|s| usize::from(s.algorithm == Some(Algorithm::Uis) && s.vsg_size.is_some()));
        let expected = [
            ("kg_queries_total", all.len() as u64),
            ("kg_edges_scanned_total", sum(|s| s.edges_scanned)),
            ("kg_backward_edges_scanned_total", sum(|s| s.backward_edges_scanned)),
            ("kg_negative_terminations_total", sum(|s| s.negative_terminations)),
            ("kg_candidate_seeded_total", seeded),
        ];
        let engine = kgreach::LscrEngine::new(kgreach::fixtures::figure3());
        let text = metrics.render(&engine.info(), None);
        for (name, value) in expected {
            let line = format!("{name} {value}");
            prop_assert!(text.lines().any(|l| l == line), "missing {:?}", line);
        }
        prop_assert_eq!(metrics.candidate_seeded_total.get(), seeded);
    }
}
