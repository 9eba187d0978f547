//! Traversal parity for the three search kernels.
//!
//! Every `(answer, interrupted, SearchStats)` triple a kernel produces
//! over a fixed set of queries is rendered with `Debug`, concatenated and
//! hashed (XXH64, seed 0); the hashes are committed below. The stats
//! count marks, pushes, scanned and skipped edges, `LCS` invocations,
//! index hits and prunes, so an equal hash means the kernel did the same
//! work in the same order — a refactor of the search loops either keeps
//! every constant or has changed what the search does.
//!
//! The constants were recorded before `core::kernel` existed (UIS\* and
//! INS each carrying their own copy of the candidate loop, the
//! bidirectional race and both cleanups) and must never be edited to
//! make a refactor pass. A deliberate change to traversal order or to a
//! counter re-records them, and says so in CHANGES.md.
//!
//! Slot 0 is UIS under the one-frontier switch, run first on the cold
//! memo, against the constants recorded for `UIS default` when UIS had a
//! single frontier: Algorithm 1 as the paper prints it is still in the
//! tree, mark for mark. Slot 1 is the two-frontier default, recorded
//! when the second frontier was added (PR 23).

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
const RUNS: [&str; 9] = [
    "UIS one frontier",
    "UIS default",
    "UIS* default",
    "UIS* bidi0",
    "UIS* shuffled",
    "INS default",
    "INS bidi0",
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
fn hashes(g: &Graph, index: &LocalIndex, queries: &[LscrQuery], budget: u64) -> [u64; 9] {
    let defaults = QueryOptions::default();
    // Algorithm 1 as printed: the switch that keeps UIS's backward side
    // (and the UIS*/INS phase) from ever engaging.
    let one_frontier = QueryOptions::default().with_bidi_min_candidates(usize::MAX);
    let bidi0 = QueryOptions::default().with_bidi_min_candidates(0);
    let shuffled = QueryOptions::default().with_vsg_order(VsgOrder::Shuffled(1));
    // `budget` is chosen per fixture to stop a good share of the
    // searches part-way through.
    let budget = QueryOptions::default().with_bidi_min_candidates(0).with_step_budget(budget);
    let mut scratch = SearchScratch::new(g.num_vertices());
    let mut logs: [String; 9] = Default::default();
    for q in queries {
        let cq = q.compile(g).unwrap();
        render(&mut logs[0], &uis::answer_with(g, &cq, &mut scratch, &one_frontier));
        render(&mut logs[1], &uis::answer_with(g, &cq, &mut scratch, &defaults));
        render(&mut logs[2], &uis_star::answer_with(g, &cq, &mut scratch, &defaults));
        render(&mut logs[3], &uis_star::answer_with(g, &cq, &mut scratch, &bidi0));
        render(&mut logs[4], &uis_star::answer_with(g, &cq, &mut scratch, &shuffled));
        render(&mut logs[5], &ins::answer_with(g, &cq, index, &mut scratch, &defaults));
        render(&mut logs[6], &ins::answer_with(g, &cq, index, &mut scratch, &bidi0));
        render(&mut logs[7], &ins::answer_with(g, &cq, index, &mut scratch, &budget));
        render(&mut logs[8], &uis_star::answer_with(g, &cq, &mut scratch, &budget));
    }
    logs.map(|log| xxh64(log.as_bytes(), 0))
}

fn assert_parity(fixture: &str, got: [u64; 9], want: [u64; 9]) {
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

fn funnel_hashes(mirrored: bool) -> [u64; 9] {
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

/// The default-sized funnel: its gate chain exceeds the bidirectional
/// candidate gate, so the meet-in-the-middle phase runs under *default*
/// options too. Every 7th source against every 5th target.
#[test]
fn wide_funnel_engages_bidi_by_default() {
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

const FIGURE3: [u64; 9] = [
    0x8fcb719d963927d9,
    0x3907c588a87362cd,
    0x9614a2aa8f227035,
    0x387b05a826e1989d,
    0x9614a2aa8f227035,
    0x91c55aa538cc33c1,
    0xcea1298f5865d203,
    0x23ceac7c7ef4351d,
    0x31a8de1bb1f079c3,
];
const FUNNEL: [u64; 9] = [
    0x44cc7470ae161bf7,
    0xba6be63608993637,
    0x4912c3dfe3c2fc72,
    0x594da80bee592851,
    0x4f6dc62f5f181822,
    0x97eb94150910a8d2,
    0xf5024be66555bb0e,
    0x7821044f6d7e1f80,
    0x0cf84dd31bc55d1e,
];
const FUNNEL_MIRRORED: [u64; 9] = [
    0x584a925601b66ae2,
    0xd7c18ddf8f8bc464,
    0x5e89617317909517,
    0x0a94a39eae01d71f,
    0xa05e66716b2cb92a,
    0x14e46e26c03fce57,
    0xc71eca1b03ba55ea,
    0x081dd9445cd5c122,
    0xa3a9071f86908397,
];
const WIDE_FUNNEL: [u64; 9] = [
    0x4fcfbf3935c94196,
    0x8c78fdd84c22461f,
    0x0db0b160cae8c995,
    0x0db0b160cae8c995,
    0xed15a625bceee763,
    0xc2057c5bd18bd169,
    0xc2057c5bd18bd169,
    0x845892a78c402937,
    0x68b65d6be6aaac19,
];
const WIDE_FUNNEL_MIRRORED: [u64; 9] = [
    0x114f7a270fb565ea,
    0x11144b0baed1e089,
    0x2d305c14da00bc50,
    0x2d305c14da00bc50,
    0x54596a9e26e96b84,
    0x2a7a712575a297bf,
    0x2a7a712575a297bf,
    0xc8c1d440399a5d8d,
    0x5b99736190af3d1e,
];
const LUBM: [u64; 9] = [
    0x17fae65585e51603,
    0x3c0fc5af61b7244a,
    0xd3bd3d91abaf1197,
    0x99e9445ef662e603,
    0xe063533734a53849,
    0x6928204a3b37117b,
    0x5cfea076109ebc99,
    0xdb0ae42b51198330,
    0x650c651d3be4c41c,
];
