//! UIS from both ends: the default two-frontier search, Algorithm 1 under
//! the one-frontier switch (`QueryOptions::one_frontier`) and the
//! brute-force oracle must answer every query alike — on the paper's
//! figure, the funnel fixtures, seeded LUBM draws and an overlay graph in
//! mid-update — and a search cut short must say so rather than answer
//! `false`. The work counters repeat exactly on one thread, so the bounds
//! on them below are exact and need no clock.

use kgreach::fixtures::{figure3, s0};
use kgreach::{
    find_witness, oracle, uis, Algorithm, LscrEngine, LscrQuery, QueryOptions, QueryOutcome,
    SearchScratch, SubstructureConstraint,
};
use kgreach_datagen::constraints::{s1, s2, s3, s4};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_datagen::{lubm, top_label_set, LubmConfig};
use kgreach_graph::snapshot::xxh64;
use kgreach_graph::{Graph, GraphBuilder, LabelId, VertexId};
use kgreach_integration::{
    all_pairs, assert_witness, lubm_draws, random_batches, random_typed_graph, small_lubm,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Algorithm 1 as printed.
fn one_frontier() -> QueryOptions {
    QueryOptions::default().with_one_frontier(true)
}

/// Runs `q` with two frontiers and with one, holds both against the
/// oracle, and returns `(two, one)`.
fn agree(
    g: &Graph,
    q: &LscrQuery,
    scratch: &mut SearchScratch,
    context: &str,
) -> (QueryOutcome, QueryOutcome) {
    let cq = q.compile(g).unwrap();
    let want = oracle::answer(g, &cq).answer;
    if want {
        assert_witness(g, &cq, &find_witness(g, &cq).expect("a true answer has a witness"));
    }
    let two = uis::answer_with(g, &cq, scratch, &QueryOptions::default());
    let one = uis::answer_with(g, &cq, scratch, &one_frontier());
    for (name, out) in [("two frontiers", &two), ("one frontier", &one)] {
        assert_eq!(out.answer, want, "{context}: {name} vs oracle on {q:?}");
        assert!(!out.interrupted, "{context}: {name} interrupted without a limit");
    }
    assert_eq!(one.stats.backward_edges_scanned, 0, "{context}: one frontier stepped backward");
    assert_eq!(one.stats.negative_terminations, 0, "{context}: one frontier ran a precheck");
    (two, one)
}

/// "Interrupted ⇒ unknown, never false": under every step budget up to
/// one that lets the search finish, the outcome is either `interrupted`
/// (and then not `true`) or the oracle's answer.
fn budgets_never_lie(g: &Graph, q: &LscrQuery, scratch: &mut SearchScratch, context: &str) {
    let cq = q.compile(g).unwrap();
    let want = oracle::answer(g, &cq).answer;
    for opts in [QueryOptions::default(), one_frontier()] {
        let enough = uis::answer_with(g, &cq, scratch, &opts).stats.edges_scanned as u64 + 1;
        for budget in 0..=enough {
            let out = uis::answer_with(g, &cq, scratch, &opts.clone().with_step_budget(budget));
            if out.interrupted {
                assert!(!out.answer, "{context}: interrupted yet true at budget {budget}");
            } else {
                assert_eq!(out.answer, want, "{context}: budget {budget} on {q:?} ({opts:?})");
            }
        }
        let out = uis::answer_with(g, &cq, scratch, &opts.with_step_budget(enough));
        assert!(!out.interrupted, "{context}: budget {enough} is enough, yet interrupted");
    }
}

#[test]
fn figure3_all_pairs_under_every_label_set_and_budget() {
    let g = figure3();
    let label_sets = [
        g.all_labels(),
        g.label_set(&["likes", "follows"]),
        g.label_set(&["likes", "hates", "friendOf"]),
        g.label_set(&["friendOf", "likes"]),
        g.label_set(&["hates"]),
        g.label_set(&[]),
    ];
    let mut scratch = SearchScratch::new(g.num_vertices());
    let mut backward = 0;
    for q in all_pairs(&g, &label_sets, &s0()) {
        backward += agree(&g, &q, &mut scratch, "figure3").0.stats.backward_edges_scanned;
        budgets_never_lie(&g, &q, &mut scratch, "figure3");
    }
    assert!(backward > 0, "the backward side never ran on figure 3");
}

#[test]
fn funnel_all_pairs_both_orientations() {
    let c = SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap();
    for mirrored in [false, true] {
        let cfg = FunnelConfig { fan: 5, leaves_per_fan: 2, depth: 3, mirrored };
        let g = funnel::generate(&cfg).unwrap();
        let label_sets = [
            g.label_set(&["spray", "needle"]),
            g.label_set(&["spray"]),
            g.label_set(&["needle"]),
            g.all_labels(),
        ];
        let context = format!("funnel mirrored={mirrored}");
        let mut scratch = SearchScratch::new(g.num_vertices());
        let (mut backward, mut negative) = (0, 0);
        for q in all_pairs(&g, &label_sets, &c) {
            let (two, _) = agree(&g, &q, &mut scratch, &context);
            backward += two.stats.backward_edges_scanned;
            negative += two.stats.negative_terminations;
            budgets_never_lie(&g, &q, &mut scratch, &context);
        }
        assert!(
            backward > 0 && negative > 0,
            "{context}: {backward} backward, {negative} negative"
        );
    }
}

/// Every `s = t` shape: a satisfying `s` (the zero-edge path), a
/// non-satisfying `s` on no cycle, one on a cycle with no satisfying
/// vertex, and one whose cycle back passes a satisfying vertex.
#[test]
fn source_equals_target_cases() {
    let g = figure3();
    let mut scratch = SearchScratch::new(g.num_vertices());
    for (v, want) in [("v1", true), ("v0", false), ("v4", true)] {
        let v = g.vertex_id(v).unwrap();
        let q = LscrQuery::new(v, v, g.all_labels(), s0());
        assert_eq!(agree(&g, &q, &mut scratch, "figure3 s=t").0.answer, want);
        budgets_never_lie(&g, &q, &mut scratch, "figure3 s=t");
    }

    let mut b = GraphBuilder::new();
    b.add_triple("sat", "marked", "anchor");
    for (s, o) in [("a", "b"), ("b", "a"), ("c", "sat"), ("sat", "d"), ("d", "c"), ("e", "f")] {
        b.add_triple(s, "p", o);
    }
    let g = b.build().unwrap();
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marked> <anchor> . }").unwrap();
    let mut scratch = SearchScratch::new(g.num_vertices());
    for labels in [g.label_set(&["p"]), g.all_labels(), g.label_set(&[])] {
        for (v, cycle_through_sat) in [("sat", true), ("a", false), ("c", true), ("e", false)] {
            let id = g.vertex_id(v).unwrap();
            let q = LscrQuery::new(id, id, labels, c.clone());
            let want = cycle_through_sat && (v == "sat" || !labels.is_empty());
            assert_eq!(
                agree(&g, &q, &mut scratch, "cycles").0.answer,
                want,
                "{v} under {labels:?}"
            );
            budgets_never_lie(&g, &q, &mut scratch, "cycles");
        }
    }
}

/// 2,000 seeded draws on a small LUBM replica, 400 per S1–S5: `|L|` over
/// 20–80 % of the labels with every fourth draw on the narrow top-3 set,
/// and every other target taken from a random walk out of `s`.
#[test]
fn lubm_seeded_draws_across_s1_to_s5() {
    let g = small_lubm(26);
    let mut scratch = SearchScratch::new(g.num_vertices());
    let (mut trues, mut backward, mut negative) = (0, 0, 0);
    for (i, q) in lubm_draws(&g, 2_000, 0x0F20_47E5).iter().enumerate() {
        let (two, _) = agree(&g, q, &mut scratch, "lubm");
        trues += usize::from(two.answer);
        backward += usize::from(two.stats.backward_edges_scanned > 0);
        negative += usize::from(two.stats.negative_terminations > 0);
        if i % 100 == 0 && two.stats.edges_scanned < 400 {
            budgets_never_lie(&g, q, &mut scratch, "lubm");
        }
    }
    // The draw is worth its name only if every path is taken often.
    assert!(trues > 200 && trues < 1_800, "{trues} true answers of 2000");
    assert!(backward > 200 && negative > 200, "{backward} backward, {negative} negative");
}

/// The witnesses of 2,000 seeded draws, pinned: how many answers are true,
/// and the sum and XXH64 (seed 0) of their witness path lengths. Recorded
/// at PR 24, where a witness was stitched from two parent maps around the
/// best satisfying vertex; never edit them to make a change pass.
#[test]
fn lubm_witness_lengths_are_pinned() {
    const TRUES: usize = 422;
    const LENGTH_SUM: usize = 2_206;
    const LENGTH_HASH: u64 = 0x80ec_5734_dbf0_8a29;
    let g = small_lubm(26);
    let (mut trues, mut sum, mut lengths) = (0, 0, String::new());
    for q in lubm_draws(&g, 2_000, 7) {
        let cq = q.compile(&g).unwrap();
        let witness = find_witness(&g, &cq);
        assert_eq!(witness.is_some(), oracle::answer(&g, &cq).answer, "{q:?}");
        if let Some(w) = witness {
            assert_witness(&g, &cq, &w);
            trues += 1;
            sum += w.path.len();
            writeln!(lengths, "{}", w.path.len()).unwrap();
        }
    }
    assert_eq!(
        (trues, sum, xxh64(lengths.as_bytes(), 0)),
        (TRUES, LENGTH_SUM, LENGTH_HASH),
        "witnesses changed"
    );
}

/// Both frontiers read the delta overlay (`out_expansion` and
/// `in_expansion` over patched adjacencies) while an edit script is
/// half-applied.
#[test]
fn overlay_graph_mid_update_script() {
    let engine = LscrEngine::new(random_typed_graph(14, 30, 4, 3, 0xD1FF));
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C0> . }").unwrap();
    let mut overlays = 0;
    for (round, batch) in random_batches(0x005C_2197, 12).iter().enumerate() {
        engine.apply_update(batch).unwrap();
        let g = engine.graph();
        overlays += usize::from(g.has_overlay());
        let label_sets = [g.all_labels(), g.label_set(&["l0", "l2"]), g.label_set(&["l1"])];
        for q in all_pairs(&g, &label_sets, &c) {
            let want = engine.answer(&q, Algorithm::Oracle).unwrap().answer;
            for opts in [QueryOptions::default(), one_frontier()] {
                let out = engine.answer_with_options(&q, Algorithm::Uis, &opts).unwrap();
                assert_eq!(out.answer, want, "round {round}: {q:?} under {opts:?}");
            }
        }
    }
    assert!(overlays > 0, "no round was answered over a live overlay");
}

/// The worst case the module docs state: twice the cheaper closure plus
/// one hub. `s` reaches three sinks, `t` sits behind a vertex with 5,000
/// in-edges; the backward side pops that hub once — and none of the 5,000
/// vertices behind it, each of which has an in-edge of its own.
#[test]
fn one_hub_bounds_the_worst_case() {
    const HUB_IN_DEGREE: usize = 5_000;
    let mut b = GraphBuilder::new();
    for sink in ["a", "b", "c"] {
        b.add_triple("s", "p", sink);
    }
    b.add_triple("hub", "p", "t");
    for i in 0..HUB_IN_DEGREE {
        b.add_triple(&format!("leaf{i}"), "p", "hub");
        b.add_triple(&format!("far{i}"), "p", &format!("leaf{i}"));
    }
    b.add_triple("a", "marked", "anchor");
    let g = b.build().unwrap();
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marked> <anchor> . }").unwrap();
    let q = LscrQuery::new(
        g.vertex_id("s").unwrap(),
        g.vertex_id("t").unwrap(),
        g.label_set(&["p"]),
        c,
    );
    let mut scratch = SearchScratch::new(g.num_vertices());
    let (two, one) = agree(&g, &q, &mut scratch, "hub");
    assert!(!two.answer);
    assert_eq!(one.stats.edges_scanned, 3, "the forward closure is s's three edges");
    assert!(two.stats.edges_scanned > HUB_IN_DEGREE, "the hub was not popped: {:?}", two.stats);
    assert!(
        two.stats.edges_scanned <= 2 * one.stats.edges_scanned + HUB_IN_DEGREE,
        "worse than twice the cheaper closure plus one hub: {:?}",
        two.stats
    );
    assert_eq!(two.stats.backward_edges_scanned, 1 + HUB_IN_DEGREE);
    assert_eq!(two.stats.passed_vertices, 4 + 2 + HUB_IN_DEGREE, "both maps are counted");
}

/// `q1`, its reverse, `q1` again on one scratch: the second query's
/// forward region is the first one's backward region, and nothing of it
/// may survive the reset.
#[test]
fn scratch_reuse_across_direction_flips() {
    let g = funnel::generate(&FunnelConfig::default()).unwrap();
    let c = SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap();
    let (src, dst) = (g.vertex_id("src").unwrap(), g.vertex_id("dst").unwrap());
    let labels = g.label_set(&["spray", "needle"]);
    let q1 = LscrQuery::new(src, dst, labels, c.clone()).compile(&g).unwrap();
    let q2 = LscrQuery::new(dst, src, labels, c).compile(&g).unwrap();
    let opts = QueryOptions::default();
    let mut scratch = SearchScratch::new(g.num_vertices());
    uis::answer_with(&g, &q1, &mut scratch, &opts); // fills q1's SCck memo
    uis::answer_with(&g, &q2, &mut scratch, &opts);
    let first = uis::answer_with(&g, &q1, &mut scratch, &opts);
    let reversed = uis::answer_with(&g, &q2, &mut scratch, &opts);
    let again = uis::answer_with(&g, &q1, &mut scratch, &opts);
    assert!(first.answer && first.stats.backward_edges_scanned > 0, "{:?}", first.stats);
    assert_eq!(reversed.answer, oracle::answer(&g, &q2).answer);
    assert_eq!(again.stats, first.stats, "stale marks changed the third search");
    let fresh = uis::answer_with(&g, &q1, &mut SearchScratch::new(g.num_vertices()), &opts);
    assert_eq!(fresh.stats, first.stats, "a used scratch searched differently from a new one");
}

/// The CI work guard: on fixed S3 draws the two-frontier search scans at
/// most a third of the edges Algorithm 1 scans and calls `SCck` no more
/// often. Counts, not times: a build that breaks this fails everywhere.
#[test]
fn s3_work_guard() {
    let g = small_lubm(26);
    let mut scratch = SearchScratch::new(g.num_vertices());
    let (mut two_edges, mut one_edges, mut two_scck, mut one_scck) = (0, 0, 0, 0);
    // Uniform pairs under 20–80 % of the labels, as §6.1.1 draws them.
    let mut rng = SmallRng::seed_from_u64(0x0053_6A2D);
    let mut label_ids: Vec<u16> = (0..g.num_labels() as u16).collect();
    let queries: Vec<LscrQuery> = (0..400)
        .map(|_| {
            let s = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            let t = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            label_ids.shuffle(&mut rng);
            let share = rng.gen_range(20..=80usize);
            let labels = label_ids[..(label_ids.len() * share).div_ceil(100)]
                .iter()
                .map(|&l| LabelId(l))
                .collect();
            LscrQuery::new(s, t, labels, s3())
        })
        .collect();
    let mut trues = 0;
    for q in &queries {
        let (two, one) = agree(&g, q, &mut scratch, "s3 guard");
        trues += usize::from(two.answer);
        two_edges += two.stats.edges_scanned;
        one_edges += one.stats.edges_scanned;
        two_scck += two.stats.scck_calls;
        one_scck += one.stats.scck_calls;
    }
    assert!(
        one_edges > 100_000 && trues >= 40,
        "the draws are too easy to guard anything: {one_edges} edges, {trues} true"
    );
    assert!(
        3 * two_edges <= one_edges,
        "two frontiers scanned {two_edges} edges, one frontier {one_edges}"
    );
    assert!(two_scck <= one_scck, "two frontiers made {two_scck} SCck calls, one {one_scck}");
}

/// The planner's side of the meet in the middle: under a selective `L`,
/// a query with 64 or more candidates is `Auto`'s to send to UIS, which
/// answers it like the oracle and for no more work than the kernels
/// `Auto` used to pick. 400 fixed draws, a third each under S1, S2 and
/// S4, all under the three most frequent labels.
#[test]
fn narrow_l_routes_to_uis() {
    /// `edges_scanned + index_hits` summed over the draws at the parent
    /// commit (PR 23), where the same queries ran the bidirectional phase
    /// inside UIS*/INS. Counts repeat exactly; CI can hold them.
    const PARENT_WORK: usize = 151_121;
    // 28 universities: the smallest replica on which the planner reads 64
    // or more candidates for all three constraints (67 / 67 / 70).
    let g = lubm::generate(&LubmConfig { universities: 28, departments: 6, seed: 26 }).unwrap();
    let narrow = top_label_set(&g, 3);
    assert!(g.expansion_selective(narrow), "top-3 labels are no longer mask-selective");
    let constraints = [s1(), s2(), s4()];
    let satisfying: Vec<Vec<VertexId>> =
        constraints.iter().map(|c| c.compile(&g).unwrap().satisfying_vertices(&g)).collect();
    let mut rng = SmallRng::seed_from_u64(0x24_0A17_0015);
    // Up to `steps` edges of `L` away from `v`, along or against them.
    let walk = |mut v: VertexId, against: bool, steps: usize, rng: &mut SmallRng| {
        for _ in 0..steps {
            let edges = if against { g.in_neighbors(v) } else { g.out_neighbors(v) };
            let usable: Vec<_> = edges.iter().filter(|e| narrow.contains(e.label)).collect();
            let Some(e) = usable.choose(rng) else { break };
            v = e.vertex;
        }
        v
    };
    let queries: Vec<LscrQuery> = (0..400)
        .map(|i| {
            // Uniform pairs are almost never connected under three labels:
            // every other draw walks away from a satisfying vertex in both
            // directions, so `s ⇝_L v ⇝_L t` holds.
            let (s, t) = if i % 2 == 0 {
                let v = *satisfying[i % 3].choose(&mut rng).unwrap();
                let (back, forth) = (rng.gen_range(0..=2), rng.gen_range(0..=3));
                (walk(v, true, back, &mut rng), walk(v, false, forth, &mut rng))
            } else {
                let n = g.num_vertices() as u32;
                (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)))
            };
            LscrQuery::new(s, t, narrow, constraints[i % 3].clone())
        })
        .collect();

    let engine = LscrEngine::new(g);
    let g = engine.graph();
    let _ = engine.local_index();
    let mut session = engine.session();
    let opts = QueryOptions::default();
    let (mut gated, mut trues, mut work) = (0, 0, 0);
    for q in &queries {
        let plan = engine.compile(q).unwrap();
        // What `plan_on` sees: the exact count once some search has
        // materialized V(S,G), the schema estimate until then.
        let candidates = plan
            .constraint
            .vsg_len_if_materialized()
            .unwrap_or_else(|| plan.constraint.estimate_candidates(&g, g.label_histogram()));
        let out = session.answer_with_options(q, Algorithm::Auto, &opts).unwrap();
        assert_eq!(out.answer, oracle::answer(&g, &plan).answer, "{q:?}");
        assert!(!out.interrupted);
        if candidates >= 64 {
            gated += 1;
            assert_eq!(out.stats.algorithm, Some(Algorithm::Uis), "{candidates} candidates: {q:?}");
        }
        trues += usize::from(out.answer);
        work += out.stats.edges_scanned + out.stats.index_hits;
    }
    assert!(gated >= 200 && trues >= 40, "the draws guard nothing: {gated} gated, {trues} true");
    assert!(
        work <= PARENT_WORK,
        "Auto did {work} edge scans + index hits, the parent {PARENT_WORK}"
    );
}
