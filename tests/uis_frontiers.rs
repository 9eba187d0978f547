//! UIS from both ends and from `V(S,G)`: the default search (two endpoint
//! sides, and two candidate sides once they seed), Algorithm 1 under
//! the one-frontier switch (`QueryOptions::one_frontier`) and the
//! brute-force oracle must answer every query alike — on the paper's
//! figure, the funnel fixtures, seeded LUBM draws and an overlay graph in
//! mid-update — and a search cut short must say so rather than answer
//! `false` (on figure 3, under every budget for every algorithm). The work
//! counters repeat exactly on one thread, so the bounds on them below are
//! exact and need no clock.

use kgreach::fixtures::{figure3, s0};
use kgreach::{
    find_witness, oracle, uis, Algorithm, LocalIndexConfig, LscrQuery, QueryOptions, SearchScratch,
    SubstructureConstraint,
};
use kgreach_datagen::constraints::{s1, s2, s3, s4, s5};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_datagen::{lubm, top_label_set, LubmConfig};
use kgreach_graph::snapshot::xxh64;
use kgreach_graph::{Dir, GraphBuilder, LabelId, VertexId};
use kgreach_integration::matrix::{
    all_pairs, assert_witness, figure3_pairs, gate, lubm_draws, random_batches, small_funnel_pairs,
    Form, Matrix, Outcome, Run, ALGORITHMS,
};
use kgreach_integration::{random_typed_graph, small_lubm};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Default UIS and UIS with one frontier (Algorithm 1 as printed) in
/// `form`, each under every step budget too when `sweep`: `(two, one)` per
/// query. One frontier never steps backward, seeds no candidate side and
/// runs no precheck.
fn uis_both_ways(
    m: &Matrix,
    queries: &[LscrQuery],
    form: Form,
    sweep: bool,
) -> Vec<(Outcome, Outcome)> {
    let one_frontier = QueryOptions::default().with_one_frontier(true);
    let runs = [
        Run { alg: Algorithm::Uis, opts: QueryOptions::default(), sweep },
        Run { alg: Algorithm::Uis, opts: one_frontier, sweep },
    ];
    let (mut pairs, mut two) = (Vec::new(), None);
    m.run(queries, &runs, &[form], |case, out| {
        if case.run == 0 {
            two = Some(out.clone());
        } else {
            assert_eq!(out.stats.backward_edges_scanned, 0, "one frontier stepped backward");
            assert_eq!(out.stats.negative_terminations, 0, "one frontier ran a precheck");
            assert_eq!(out.stats.vsg_size, None, "one frontier seeded candidate sides");
            pairs.push((two.take().unwrap(), out.clone()));
        }
    });
    pairs
}

#[test]
fn figure3_all_pairs_under_every_label_set_and_budget() {
    let (g, mut queries) = figure3_pairs();
    // V(S,G) = {v4}, one candidate by the schema too: the candidate sides
    // seed once both endpoint stacks hold two vertices.
    let one = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <hates> <v1> . }").unwrap();
    queries.extend(all_pairs(&g, &[g.all_labels(), g.label_set(&["friendOf", "likes"])], &one));
    let m = Matrix::of(g);
    let outs = uis_both_ways(&m, &queries, Form::Kernels, true);
    let backward: usize = outs.iter().map(|(two, _)| two.stats.backward_edges_scanned).sum();
    assert!(backward > 0, "the backward side never ran on figure 3");
    let seeded = outs.iter().filter(|(two, _)| two.stats.vsg_size.is_some()).count();
    assert!(seeded > 0, "the budget sweep never reached seeded candidate sides");
    let every_algorithm = Run::each(&ALGORITHMS, &QueryOptions::default(), true);
    m.run(&queries, &every_algorithm, &[Form::Engine], |_, _| {});
}

#[test]
fn funnel_all_pairs_both_orientations() {
    for mirrored in [false, true] {
        let (g, queries) = small_funnel_pairs(mirrored);
        let outs = uis_both_ways(&Matrix::of(g), &queries, Form::Kernels, true);
        let backward: usize = outs.iter().map(|(two, _)| two.stats.backward_edges_scanned).sum();
        let negative: usize = outs.iter().map(|(two, _)| two.stats.negative_terminations).sum();
        assert!(
            backward > 0 && negative > 0,
            "mirrored={mirrored}: {backward} backward, {negative} negative"
        );
    }
}

/// Every `s = t` shape: a satisfying `s` (the zero-edge path), a
/// non-satisfying `s` on no cycle, one on a cycle with no satisfying
/// vertex, and one whose cycle back passes a satisfying vertex.
#[test]
fn source_equals_target_cases() {
    let answers = |g, queries: &[LscrQuery]| -> Vec<bool> {
        let outs = uis_both_ways(&Matrix::of(g), queries, Form::Kernels, true);
        outs.into_iter().map(|(two, _)| two.answer).collect()
    };
    let g = figure3();
    let v = |name| g.vertex_id(name).unwrap();
    let queries = ["v1", "v0", "v4"].map(|n| LscrQuery::new(v(n), v(n), g.all_labels(), s0()));
    assert_eq!(answers(g, &queries), [true, false, true]);

    let mut b = GraphBuilder::new();
    b.add_triple("sat", "marked", "anchor");
    for (s, o) in [("a", "b"), ("b", "a"), ("c", "sat"), ("sat", "d"), ("d", "c"), ("e", "f")] {
        b.add_triple(s, "p", o);
    }
    let g = b.build().unwrap();
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <marked> <anchor> . }").unwrap();
    let (mut queries, mut wants) = (Vec::new(), Vec::new());
    for labels in [g.label_set(&["p"]), g.all_labels(), g.label_set(&[])] {
        for (v, cycle_through_sat) in [("sat", true), ("a", false), ("c", true), ("e", false)] {
            let id = g.vertex_id(v).unwrap();
            queries.push(LscrQuery::new(id, id, labels, c.clone()));
            wants.push(cycle_through_sat && (v == "sat" || !labels.is_empty()));
        }
    }
    assert_eq!(answers(g, &queries), wants);
}

/// 2,000 seeded draws on a small LUBM replica, 400 per S1–S5: `|L|` over
/// 20–80 % of the labels with every fourth draw on the narrow top-3 set,
/// and every other target taken from a random walk out of `s`. Every
/// 100th draw that scans under 400 edges also runs under every budget.
#[test]
fn lubm_seeded_draws_across_s1_to_s5() {
    let m = Matrix::of(small_lubm(26));
    let queries = lubm_draws(&m.graph, 2_000, 0x0F20_47E5);
    let outs = uis_both_ways(&m, &queries, Form::Kernels, false);
    let count = |f: fn(&Outcome) -> bool| outs.iter().filter(|(two, _)| f(two)).count();
    let trues = count(|two| two.answer);
    let backward = count(|two| two.stats.backward_edges_scanned > 0);
    let negative = count(|two| two.stats.negative_terminations > 0);
    // The draw is worth its name only if every path is taken often.
    assert!(trues > 200 && trues < 1_800, "{trues} true answers of 2000");
    assert!(backward > 200 && negative > 200, "{backward} backward, {negative} negative");
    let swept: Vec<LscrQuery> = (0..queries.len())
        .step_by(100)
        .filter(|&i| outs[i].0.stats.edges_scanned < 400)
        .map(|i| queries[i].clone())
        .collect();
    uis_both_ways(&m, &swept, Form::Kernels, true);
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
        if let Some(w) = find_witness(&g, &cq) {
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

/// Both frontiers read the delta overlay (`Graph::expansion` in both
/// directions over patched adjacencies) while an edit script is
/// half-applied.
#[test]
fn overlay_graph_mid_update_script() {
    let base = random_typed_graph(14, 30, 4, 3, 0xD1FF);
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C0> . }").unwrap();
    let mut overlays = 0;
    for round in 1..=12 {
        let script = random_batches(0x005C_2197, round);
        let m = Matrix::new(base.clone(), script, LocalIndexConfig::default());
        overlays += usize::from(m.live.graph().has_overlay());
        let g = &m.graph;
        let label_sets = [g.all_labels(), g.label_set(&["l0", "l2"]), g.label_set(&["l1"])];
        uis_both_ways(&m, &all_pairs(g, &label_sets, &c), Form::Overlay, false);
    }
    assert!(overlays > 0, "no round was answered over a live overlay");
}

/// The worst case the module docs state: a small multiple of the cheapest
/// closure plus one hub. `s` reaches three sinks, `t` sits behind a vertex
/// with 5,000 in-edges; the backward side pops that hub once — and none of
/// the 5,000 vertices behind it, each of which has an in-edge of its own.
/// The one candidate, sink `a`, seeds the candidate sides, which add `a`'s
/// one in-edge.
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
    let (s, t) = (g.vertex_id("s").unwrap(), g.vertex_id("t").unwrap());
    let q = LscrQuery::new(s, t, g.label_set(&["p"]), c);
    let (two, one) = uis_both_ways(&Matrix::of(g), &[q], Form::Kernels, false).remove(0);
    assert!(!two.answer);
    assert_eq!(one.stats.edges_scanned, 3, "the forward closure is s's three edges");
    assert!(two.stats.edges_scanned > HUB_IN_DEGREE, "the hub was not popped: {:?}", two.stats);
    assert!(
        two.stats.edges_scanned <= 2 * one.stats.edges_scanned + HUB_IN_DEGREE,
        "worse than twice the cheaper closure plus one hub: {:?}",
        two.stats
    );
    assert_eq!(two.stats.vsg_size, Some(1));
    assert_eq!(two.stats.backward_edges_scanned, 1 + HUB_IN_DEGREE + 1);
    // Forward s, a, b, c; backward t, hub and the leaves; candidate sides
    // a, and s behind it.
    assert_eq!(two.stats.passed_vertices, 4 + 2 + HUB_IN_DEGREE + 3, "all four maps are counted");
}

/// `q1`, its reverse, `q1` again on one scratch: the second query's
/// forward region is the first one's backward region, and nothing of it
/// may survive the reset.
#[test]
fn scratch_reuse_across_direction_flips() {
    let g = funnel::generate(&FunnelConfig::default()).unwrap();
    let c = gate();
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
    assert!(!reversed.answer, "nothing flows back against the funnel: {:?}", reversed.stats);
    assert_eq!(again.stats, first.stats, "stale marks changed the third search");
    let fresh = uis::answer_with(&g, &q1, &mut SearchScratch::new(g.num_vertices()), &opts);
    assert_eq!(fresh.stats, first.stats, "a used scratch searched differently from a new one");
}

/// The CI work guard: on fixed S3 draws the default search scans at
/// most a third of the edges Algorithm 1 scans and calls `SCck` no more
/// often. Counts, not times: a build that breaks this fails everywhere.
#[test]
fn s3_work_guard() {
    let m = Matrix::of(small_lubm(26));
    let g = &m.graph;
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
    let (mut two_edges, mut one_edges, mut two_scck, mut one_scck, mut trues) = (0, 0, 0, 0, 0);
    for (two, one) in uis_both_ways(&m, &queries, Form::Kernels, false) {
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
        "the default search scanned {two_edges} edges, one frontier {one_edges}"
    );
    assert!(
        two_scck <= one_scck,
        "the default made {two_scck} SCck calls, one frontier {one_scck}"
    );
}

/// The CI work guard for the candidate sides: on fixed true S2 and S5
/// draws — a handful of candidates, far from both endpoints — default UIS
/// scans at most half the edges the two-frontier UIS before them scanned,
/// and calls `SCck` no more often.
#[test]
fn small_vsg_work_guard() {
    /// `edges_scanned` and `scck_calls` summed over the draws by UIS at
    /// the parent commit, whose two frontiers ran from `s` and `t` only.
    /// Counts repeat exactly; CI can hold them.
    const PARENT_EDGES: usize = 332_144;
    const PARENT_SCCK: usize = 135_898;
    let m = Matrix::of(small_lubm(26));
    let g = &m.graph;
    // Uniform pairs under 20–80 % of the labels, as §6.1.1 draws them,
    // kept while true, until each constraint has 100.
    let mut rng = SmallRng::seed_from_u64(0x0525_A11F);
    let mut label_ids: Vec<u16> = (0..g.num_labels() as u16).collect();
    let constraints = [s2(), s5()];
    let (mut queries, mut kept) = (Vec::new(), [0usize; 2]);
    while kept != [100, 100] {
        let s = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
        let t = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
        label_ids.shuffle(&mut rng);
        let share = rng.gen_range(20..=80usize);
        let labels = label_ids[..(label_ids.len() * share).div_ceil(100)]
            .iter()
            .map(|&l| LabelId(l))
            .collect();
        let c: usize = rng.gen_range(0..2);
        let q = LscrQuery::new(s, t, labels, constraints[c].clone());
        if kept[c] < 100 && oracle::answer(g, &q.compile(g).unwrap()).answer {
            kept[c] += 1;
            queries.push(q);
        }
    }
    let (mut edges, mut scck, mut seeded) = (0, 0, 0);
    for (two, _) in uis_both_ways(&m, &queries, Form::Kernels, false) {
        edges += two.stats.edges_scanned;
        scck += two.stats.scck_calls;
        seeded += usize::from(two.stats.vsg_size.is_some());
    }
    assert!(seeded >= 100, "the candidate sides seeded on {seeded} of 200 draws");
    assert!(2 * edges <= PARENT_EDGES, "{edges} edges scanned, the parent {PARENT_EDGES}");
    assert!(scck <= PARENT_SCCK, "{scck} SCck calls, the parent {PARENT_SCCK}");
}

/// The served side of the meet in the middle: under a selective `L`,
/// `Auto` sends every query to UIS — those with 64 or more candidates
/// included — and UIS answers them like the oracle for no more work than
/// `PARENT_WORK` records. 400 fixed draws, a third each under S1, S2 and
/// S4, all under the three most frequent labels.
#[test]
fn narrow_l_routes_to_uis() {
    /// `edges_scanned + index_hits` summed over the draws at the parent
    /// commit (PR 23), where the same queries ran the bidirectional phase
    /// inside UIS*/INS. Counts repeat exactly; CI can hold them.
    const PARENT_WORK: usize = 151_121;
    // 28 universities: the smallest replica on which the schema estimate
    // reads 64 or more candidates for all three constraints (67 / 67 / 70).
    let g = lubm::generate(&LubmConfig { universities: 28, departments: 6, seed: 26 }).unwrap();
    let narrow = top_label_set(&g, 3);
    assert!(g.expansion_selective(narrow), "top-3 labels are no longer mask-selective");
    let constraints = [s1(), s2(), s4()];
    let satisfying: Vec<Vec<VertexId>> =
        constraints.iter().map(|c| c.compile(&g).unwrap().satisfying_vertices(&g)).collect();
    let mut rng = SmallRng::seed_from_u64(0x24_0A17_0015);
    // Up to `steps` edges of `L` away from `v` in direction `dir`.
    let walk = |mut v: VertexId, dir: Dir, steps: usize, rng: &mut SmallRng| {
        for _ in 0..steps {
            let edges = g.neighbors(dir, v);
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
                (walk(v, Dir::In, back, &mut rng), walk(v, Dir::Out, forth, &mut rng))
            } else {
                let n = g.num_vertices() as u32;
                (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)))
            };
            LscrQuery::new(s, t, narrow, constraints[i % 3].clone())
        })
        .collect();

    let m = Matrix::of(g);
    m.engine.local_index();
    let g = &m.graph;
    let (mut gated, mut trues, mut work) = (0, 0, 0);
    let auto = [Run { alg: Algorithm::Auto, opts: QueryOptions::default(), sweep: false }];
    m.run(&queries, &auto, &[Form::Engine], |case, out| {
        // The candidate count, as UIS reads it for its unseeded candidate
        // sides: exact once some search has materialized V(S,G), the
        // schema estimate until then.
        let candidates = case.vsg_hint.unwrap_or_else(|| {
            let plan = queries[case.query].compile(g).unwrap();
            plan.constraint.estimate_candidates(g, g.label_histogram())
        });
        if candidates >= 64 {
            gated += 1;
            let q = &queries[case.query];
            assert_eq!(out.stats.algorithm, Some(Algorithm::Uis), "{candidates} candidates: {q:?}");
        }
        trues += usize::from(out.answer);
        work += out.stats.edges_scanned + out.stats.index_hits;
    });
    assert!(gated >= 200 && trues >= 40, "the draws guard nothing: {gated} gated, {trues} true");
    assert!(
        work <= PARENT_WORK,
        "Auto did {work} edge scans + index hits, the parent {PARENT_WORK}"
    );
}
