//! Traversal parity for the three search kernels.
//!
//! Every `(answer, interrupted, SearchStats)` triple a kernel produces
//! over a fixed set of queries is rendered with `Debug`, concatenated and
//! hashed (XXH64, seed 0); the hashes are committed below. The stats
//! count marks, pushes, scanned and skipped edges, `LCS` invocations
//! and index hits, so an equal hash means the kernel did the same
//! work in the same order — a refactor of the search loops either keeps
//! every constant or has changed what the search does.
//!
//! The constants must never be edited to make a refactor pass. A
//! deliberate change to traversal order or to a counter re-records them,
//! and says so in CHANGES.md. They were last re-recorded when the
//! cone-prune counter left `SearchStats` (PR 24), in two steps: with the
//! bidirectional phase of UIS\*/INS deleted and the struct unchanged,
//! every UIS constant and the `UIS* default`, `UIS* shuffled` and
//! `INS default` constants of the three small fixtures held unedited
//! (recorded before `core::kernel` existed); then the field went, and
//! each slot's rendered log differed from the one before by that field's
//! `name: 0, ` token and nothing else.
//!
//! Slot 0 is UIS under the one-frontier switch, run first on the cold
//! memo: Algorithm 1 as the paper prints it is still in the tree, mark
//! for mark. Slot 1 is the two-frontier default (PR 23). The UIS\* and
//! INS slots are Algorithms 2 and 4 plus the mask precheck.

use kgreach::fixtures::{figure3, s0};
use kgreach::{
    ins, uis, uis_star, LocalIndex, LscrQuery, QueryOptions, QueryOutcome, SearchScratch,
    SubstructureConstraint, VsgOrder,
};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_datagen::LubmConfig;
use kgreach_graph::snapshot::xxh64;
use kgreach_graph::{Graph, VertexId};
use kgreach_integration::{all_pairs, lubm_draws};
use std::fmt::Write as _;

/// The kernel × options grid of one fixture, in the order the expected
/// hashes are listed.
const RUNS: [&str; 7] = [
    "UIS one frontier",
    "UIS default",
    "UIS* default",
    "UIS* shuffled",
    "INS default",
    "INS budget",
    "UIS* budget",
];

fn render(log: &mut String, out: &QueryOutcome) {
    writeln!(log, "{:?}", (out.answer, out.interrupted, &out.stats)).unwrap();
}

/// Runs every query through every entry of [`RUNS`] and returns one hash
/// per entry. Each query is compiled afresh, so the per-constraint memos
/// (`SCck` cache, `V(S,G)`) start empty for every query and fill in the
/// fixed order of the grid.
fn hashes(g: &Graph, index: &LocalIndex, queries: &[LscrQuery], budget: u64) -> [u64; 7] {
    let defaults = QueryOptions::default();
    // Algorithm 1 as printed: the switch that keeps UIS's backward side
    // and prechecks off.
    let one_frontier = QueryOptions::default().with_one_frontier(true);
    let shuffled = QueryOptions::default().with_vsg_order(VsgOrder::Shuffled(1));
    // `budget` is chosen per fixture to stop a good share of the
    // searches part-way through.
    let budget = QueryOptions::default().with_step_budget(budget);
    let mut scratch = SearchScratch::new(g.num_vertices());
    let mut logs: [String; 7] = Default::default();
    for q in queries {
        let cq = q.compile(g).unwrap();
        render(&mut logs[0], &uis::answer_with(g, &cq, &mut scratch, &one_frontier));
        render(&mut logs[1], &uis::answer_with(g, &cq, &mut scratch, &defaults));
        render(&mut logs[2], &uis_star::answer_with(g, &cq, &mut scratch, &defaults));
        render(&mut logs[3], &uis_star::answer_with(g, &cq, &mut scratch, &shuffled));
        render(&mut logs[4], &ins::answer_with(g, &cq, index, &mut scratch, &defaults));
        render(&mut logs[5], &ins::answer_with(g, &cq, index, &mut scratch, &budget));
        render(&mut logs[6], &uis_star::answer_with(g, &cq, &mut scratch, &budget));
    }
    logs.map(|log| xxh64(log.as_bytes(), 0))
}

fn assert_parity(fixture: &str, got: [u64; 7], want: [u64; 7]) {
    let changed: Vec<&str> = RUNS
        .iter()
        .zip(got.iter().zip(&want))
        .filter(|(_, (g, w))| g != w)
        .map(|(r, _)| *r)
        .collect();
    assert!(
        changed.is_empty(),
        "{fixture}: traversal changed for {changed:?}\n  got      {got:#018x?}\n  recorded {want:#018x?}"
    );
}

#[test]
fn figure3_all_pairs() {
    let g = figure3();
    let label_sets = [
        g.all_labels(),
        g.label_set(&["likes", "follows"]),
        g.label_set(&["likes", "hates", "friendOf"]),
        g.label_set(&["friendOf", "likes"]),
        g.label_set(&["hates"]),
        g.label_set(&[]),
    ];
    let index = LocalIndex::build_default(&g);
    let got = hashes(&g, &index, &all_pairs(&g, &label_sets, &s0()), 2);
    assert_parity("figure3", got, FIGURE3);
}

fn funnel_hashes(mirrored: bool) -> [u64; 7] {
    let cfg = FunnelConfig { fan: 5, leaves_per_fan: 2, depth: 3, mirrored };
    let g = funnel::generate(&cfg).unwrap();
    let label_sets = [
        g.label_set(&["spray", "needle"]),
        g.label_set(&["spray"]),
        g.label_set(&["needle"]),
        g.all_labels(),
    ];
    let c = SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap();
    let index = LocalIndex::build_default(&g);
    hashes(&g, &index, &all_pairs(&g, &label_sets, &c), 4)
}

#[test]
fn funnel_all_pairs_both_orientations() {
    assert_parity("funnel", funnel_hashes(false), FUNNEL);
    assert_parity("funnel mirrored", funnel_hashes(true), FUNNEL_MIRRORED);
}

/// The default-sized funnel: a selective `L` over a gate chain of more
/// than 64 candidates — the regime `Auto` plans onto UIS — so the UIS\*
/// and INS slots pin what the classic candidate loop does when it is
/// forced there anyway. Every 7th source against every 5th target.
#[test]
fn wide_funnel_classic_loop() {
    for (mirrored, want) in [(false, WIDE_FUNNEL), (true, WIDE_FUNNEL_MIRRORED)] {
        let g = funnel::generate(&FunnelConfig { mirrored, ..Default::default() }).unwrap();
        let labels = g.label_set(&["spray", "needle"]);
        let c = SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap();
        let index = LocalIndex::build_default(&g);
        let n = g.num_vertices() as u32;
        let mut queries = Vec::new();
        for s in (0..n).step_by(7) {
            for t in (0..n).step_by(5) {
                queries.push(LscrQuery::new(VertexId(s), VertexId(t), labels, c.clone()));
            }
        }
        assert_parity(
            if mirrored { "wide funnel mirrored" } else { "wide funnel" },
            hashes(&g, &index, &queries, 12),
            want,
        );
    }
}

#[test]
fn lubm_fixed_draws() {
    let g = kgreach_datagen::lubm::generate(&LubmConfig::sized(2_000, 7)).unwrap();
    let index = LocalIndex::build_default(&g);
    let queries = lubm_draws(&g, 200, 0x9A21_7E57);
    assert_parity("lubm", hashes(&g, &index, &queries, 12), LUBM);
}

const FIGURE3: [u64; 7] = [
    0x065114e6492460ee,
    0xdbc967fdfd3686ac,
    0x301ff2e7f3dc3fce,
    0x301ff2e7f3dc3fce,
    0x52430e13be0828a4,
    0xcd66b62cdd06b362,
    0xf9d1058f616a3193,
];
const FUNNEL: [u64; 7] = [
    0xb733609a400e63c6,
    0x05b308a439aff2d9,
    0x0cef0da5f7788217,
    0x7f6a53b3e85cac9c,
    0x9e2569ec0c7a9b55,
    0xb9e9f80cd2c6f4bf,
    0x81782bfba273a845,
];
const FUNNEL_MIRRORED: [u64; 7] = [
    0x7f1e44c824c08891,
    0xc493fb56d899fa5f,
    0x8774eced3a78a7e5,
    0xa73ffc7bd18da250,
    0xf0d010f63fdbcab0,
    0x411213580ef42708,
    0x0f4a892956beb2f3,
];
const WIDE_FUNNEL: [u64; 7] = [
    0xca4a69f8c0a5e376,
    0xe22982ffa3d3a7ae,
    0x3815dde43a6b1f18,
    0x021dd1e304f30ddd,
    0x69188fd5581a1fa1,
    0x4dfa1f7f38182b08,
    0x960d1173d7f3e425,
];
const WIDE_FUNNEL_MIRRORED: [u64; 7] = [
    0x945f4e607bf5ed0e,
    0xd20ae1c203f6cfd1,
    0xf71a7c09ffeadd23,
    0x810670db23727961,
    0xbbd0275771f82735,
    0x9cb0705d0e3990f2,
    0x0086b347c84b0c15,
];
const LUBM: [u64; 7] = [
    0x95d58f9d6e968381,
    0x478b9f54f6aa2c30,
    0x982953bb4cdf2c89,
    0x278afe8218746854,
    0x219b34757db99578,
    0x00686c748f41c77d,
    0x5c56c957688a7301,
];
