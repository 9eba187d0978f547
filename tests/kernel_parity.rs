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
//! `name: 0, ` token and nothing else. Since then one slot moved: UIS
//! gained candidate sides, which seed on some LUBM draws, so the LUBM
//! `UIS default` constant was re-recorded; on figure 3 and the funnels
//! they never seed, and every other constant held unedited.
//!
//! Slot 0 is UIS under the one-frontier switch, run first on the cold
//! memo: Algorithm 1 as the paper prints it is still in the tree, mark
//! for mark. Slot 1 is the default: two endpoint sides and, once they
//! seed, two candidate sides. The UIS\* and INS slots are
//! Algorithms 2 and 4 plus the mask precheck — unmoved by a slot-1 run
//! that materialised the `V(S,G)` memo before them. The grid runs as the
//! matrix's raw-kernel form, which also holds every slot to the oracle.

use kgreach::Algorithm::{Ins, Uis, UisStar};
use kgreach::{LscrQuery, QueryOptions, VsgOrder};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_datagen::LubmConfig;
use kgreach_graph::snapshot::xxh64;
use kgreach_graph::VertexId;
use kgreach_integration::matrix::{
    figure3_pairs, gate, lubm_draws, small_funnel_pairs, Form, Matrix, Run,
};
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

/// Runs every query through every entry of [`RUNS`] on the raw kernels and
/// returns one hash per entry. Each query is compiled once for its seven
/// runs, so the per-constraint memos (`SCck` cache, `V(S,G)`) start empty
/// for every query and fill in the fixed order of the grid. `budget` is
/// chosen per fixture to stop a good share of the searches part-way
/// through.
fn hashes(m: &Matrix, queries: &[LscrQuery], budget: u64) -> [u64; 7] {
    let opts = QueryOptions::default;
    let run = |alg, opts| Run { alg, opts, sweep: false };
    let grid = [
        // Algorithm 1 as printed: the switch that keeps UIS's backward
        // side and prechecks off.
        run(Uis, opts().with_one_frontier(true)),
        run(Uis, opts()),
        run(UisStar, opts()),
        run(UisStar, opts().with_vsg_order(VsgOrder::Shuffled(1))),
        run(Ins, opts()),
        run(Ins, opts().with_step_budget(budget)),
        run(UisStar, opts().with_step_budget(budget)),
    ];
    let mut logs: [String; 7] = Default::default();
    m.run(queries, &grid, &[Form::Kernels], |case, out| {
        writeln!(logs[case.run], "{:?}", (out.answer, out.interrupted, &out.stats)).unwrap();
    });
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
    let (g, queries) = figure3_pairs();
    assert_parity("figure3", hashes(&Matrix::of(g), &queries, 2), FIGURE3);
}

#[test]
fn funnel_all_pairs_both_orientations() {
    for (mirrored, fixture, want) in
        [(false, "funnel", FUNNEL), (true, "funnel mirrored", FUNNEL_MIRRORED)]
    {
        let (g, queries) = small_funnel_pairs(mirrored);
        assert_parity(fixture, hashes(&Matrix::of(g), &queries, 4), want);
    }
}

/// The default-sized funnel: a selective `L` over a gate chain of more
/// than 64 candidates, where UIS's endpoint sides meet long before its
/// candidate sides would seed, so the UIS\* and INS slots pin what the
/// classic candidate loop does when it is forced there. Every 7th source
/// against every 5th target.
#[test]
fn wide_funnel_classic_loop() {
    for (mirrored, want) in [(false, WIDE_FUNNEL), (true, WIDE_FUNNEL_MIRRORED)] {
        let g = funnel::generate(&FunnelConfig { mirrored, ..Default::default() }).unwrap();
        let labels = g.label_set(&["spray", "needle"]);
        let n = g.num_vertices() as u32;
        let pairs = (0..n).step_by(7).flat_map(|s| (0..n).step_by(5).map(move |t| (s, t)));
        let pair = |(s, t)| LscrQuery::new(VertexId(s), VertexId(t), labels, gate());
        let queries: Vec<LscrQuery> = pairs.map(pair).collect();
        assert_parity(
            if mirrored { "wide funnel mirrored" } else { "wide funnel" },
            hashes(&Matrix::of(g), &queries, 12),
            want,
        );
    }
}

#[test]
fn lubm_fixed_draws() {
    let g = kgreach_datagen::lubm::generate(&LubmConfig::sized(2_000, 7)).unwrap();
    let queries = lubm_draws(&g, 200, 0x9A21_7E57);
    assert_parity("lubm", hashes(&Matrix::of(g), &queries, 12), LUBM);
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
    0x4558728b6b457c2e,
    0x982953bb4cdf2c89,
    0x278afe8218746854,
    0x219b34757db99578,
    0x00686c748f41c77d,
    0x5c56c957688a7301,
];
