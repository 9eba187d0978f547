//! Differential coverage for the meet-in-the-middle / negative-termination
//! query paths on the deterministic funnel fixtures.
//!
//! The funnel family (see `kgreach_datagen::funnel`) pairs a wide spray
//! region with a narrow gate chain, in both orientations. Over it we
//! check two things:
//!
//! 1. **Agreement** — every algorithm (including `Auto`, which serves
//!    UIS) answers like the oracle for *every* `(s, t)` pair under the
//!    canonical label sets and every step budget, so UIS's sides and the
//!    mask prechecks can't disagree with the classic semantics anywhere
//!    on the fixture.
//! 2. **Coverage** — the `SearchStats` counters prove the intended paths
//!    actually ran: under `Uis` and under `Auto` the true query walks the
//!    backward frontier (`backward_edges_scanned > 0`), and the
//!    label-starved queries die in the O(1) mask precheck
//!    (`negative_terminations > 0` with zero edges scanned), rather than
//!    silently falling back to forward-only search.

use kgreach::{Algorithm, LscrQuery, QueryOptions};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_integration::matrix::{
    gate, small_funnel_pairs, Form, Matrix, Outcome, Run, ALGORITHMS,
};

/// The cases of `algs` on `queries` over the default-sized funnel, served
/// by the engine (whose `Auto` plans), each shown to `expect`.
fn on_funnel(
    mirrored: bool,
    queries: &[(&str, &str, &[&str])],
    algs: &[Algorithm],
    mut expect: impl FnMut(Algorithm, &Outcome),
) {
    let g = funnel::generate(&FunnelConfig { mirrored, ..Default::default() }).unwrap();
    let queries: Vec<LscrQuery> = queries
        .iter()
        .map(|(s, t, labels)| {
            let (s, t) = (g.vertex_id(s).unwrap(), g.vertex_id(t).unwrap());
            LscrQuery::new(s, t, g.label_set(labels), gate())
        })
        .collect();
    let runs = Run::each(algs, &QueryOptions::default(), false);
    Matrix::of(g)
        .run(&queries, &runs, &[Form::Engine], |case, out| expect(runs[case.run].alg, out));
}

/// Every `(s, t)` pair × label set × algorithm agrees with the oracle,
/// on the forward and the mirrored fixture, and under every step budget.
#[test]
fn all_algorithms_agree_with_oracle_on_both_orientations() {
    for mirrored in [false, true] {
        let (g, queries) = small_funnel_pairs(mirrored);
        let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), true);
        Matrix::of(g).run(&queries, &runs, &[Form::Engine], |_, _| {});
    }
}

/// The canonical true query actually meets in the middle — under `Uis`,
/// and under `Auto`, which serves UIS — and the backward frontier scans
/// edges wherever the narrow end is the target's.
/// Mirrored, the narrow end hangs off the source: the forward stack is
/// the shorter one throughout and answers alone.
#[test]
fn true_query_exercises_the_backward_frontier() {
    for mirrored in [false, true] {
        let src_dst = [("src", "dst", &["spray", "needle"][..])];
        on_funnel(mirrored, &src_dst, &[Algorithm::Uis, Algorithm::Auto], |alg, out| {
            assert!(out.answer, "mirrored={mirrored} {alg:?}: src ⇝ dst must hold");
            assert_eq!(out.stats.algorithm, Some(Algorithm::Uis), "mirrored={mirrored} {alg:?}");
            assert_eq!(
                out.stats.backward_edges_scanned > 0,
                !mirrored,
                "mirrored={mirrored} {alg:?}: the wrong end searched (stats: {:?})",
                out.stats
            );
        });
    }
}

/// Label-starved queries die in the O(1) incident-mask precheck: proven
/// false (an answer, not a timeout), zero edges scanned.
#[test]
fn label_starved_queries_terminate_negatively_without_expansion() {
    for mirrored in [false, true] {
        // On the forward fixture `{spray}` starves the target's in-mask
        // and `{needle}` the source's out-mask; mirroring swaps which
        // side trips, so both precheck arms get exercised either way.
        let starved = [("src", "dst", &["spray"][..]), ("src", "dst", &["needle"][..])];
        on_funnel(mirrored, &starved, &ALGORITHMS, |alg, out| {
            assert!(!out.answer, "mirrored={mirrored} {alg:?}: must be false");
            assert!(
                out.stats.negative_terminations > 0,
                "mirrored={mirrored} {alg:?}: precheck never fired (stats: {:?})",
                out.stats
            );
            assert_eq!(
                out.stats.edges_scanned, 0,
                "mirrored={mirrored} {alg:?}: negative termination must precede any expansion"
            );
        });
    }
}

/// The decoy candidate in the spray region never flips an answer: drop
/// the needle labels and the gates become unreachable, so the only
/// remaining candidate (`leaf0_0`) decides the query.
#[test]
fn decoy_candidate_is_rejected_by_cleanup() {
    for mirrored in [false, true] {
        // chaff ∪ spray reaches leaf0_0 from the wide side, while the
        // gate candidates stay unreachable without `needle`: the only
        // live candidate is the decoy itself, at an endpoint.
        let (s, t) = if mirrored { ("leaf0_0", "dst") } else { ("src", "leaf0_0") };
        on_funnel(mirrored, &[(s, t, &["spray", "chaff"][..])], &ALGORITHMS, |alg, out| {
            assert!(out.answer, "{alg:?}: the decoy itself is a reachable candidate endpoint");
        });
    }
}
