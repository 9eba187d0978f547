//! Scale differential suite: the builder's chunk size (how often it
//! compacts its edge buffer to bound construction memory) must never
//! change the graph — identical fingerprint, byte-identical canonical
//! snapshot, identical query answers across all four algorithms — and
//! the parallel index build must be byte-deterministic for every thread
//! count. A capped scale smoke drives the same checks at a
//! multi-ten-thousand-edge size (multi-hundred-thousand in release CI;
//! `KG_SCALE_SMOKE_EDGES` overrides), through the snapshot file load end
//! to end.

use kgreach::{Algorithm, LocalIndex, LocalIndexConfig, LscrQuery, QueryOptions};
use kgreach_datagen::lubm::{self, generate, generate_streaming};
use kgreach_datagen::LubmConfig;
use kgreach_graph::{io, snapshot, Graph, GraphBuilder};
use kgreach_integration::matrix::{lubm_draws, s1_s3, Form, Matrix, Run, ALGORITHMS};
use proptest::prelude::*;
use std::time::Duration;

/// The scale-smoke edge target: small under `cargo test` (debug), larger
/// in the release CI job, explicit via `KG_SCALE_SMOKE_EDGES`.
fn smoke_edge_target() -> usize {
    if let Ok(v) = std::env::var("KG_SCALE_SMOKE_EDGES") {
        return v.parse().expect("KG_SCALE_SMOKE_EDGES must be a number");
    }
    if cfg!(debug_assertions) {
        25_000
    } else {
        250_000
    }
}

/// Two builds must agree beyond semantics: byte-identical
/// canonical snapshots, which subsume dictionaries (names *and* id
/// assignment), adjacency in both directions, schema and histogram.
fn assert_byte_identical(a: &Graph, b: &Graph, what: &str) {
    assert_eq!(a.fingerprint(), b.fingerprint(), "{what}: fingerprints differ");
    let mut sa = Vec::new();
    snapshot::write_graph_snapshot(a, &mut sa).unwrap();
    let mut sb = Vec::new();
    snapshot::write_graph_snapshot(b, &mut sb).unwrap();
    assert_eq!(sa, sb, "{what}: canonical snapshots differ");
}

#[test]
fn streaming_build_matches_in_memory_build() {
    let config = LubmConfig { universities: 2, departments: 4, seed: 0x57AB1E };
    let in_memory = generate(&config).unwrap();
    // A small chunk forces many intermediate compactions.
    let streamed = generate_streaming(&config, 512).unwrap();
    assert_byte_identical(&in_memory, &streamed, "LUBM 2x4");

    // Both builds answer S1–S3 workloads like the oracle on all four
    // algorithms; the graphs are byte-identical, so the queries are too.
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    for g in [in_memory, streamed] {
        let index = LocalIndexConfig { num_landmarks: Some(24), seed: 3, ..Default::default() };
        let m = Matrix::new(g, Vec::new(), index);
        m.run(&s1_s3(&m.graph, 4, |i| 0x5CA1E + i), &runs, &[Form::Engine], |_, _| {});
    }
}

#[test]
fn streaming_text_load_matches_in_memory_load() {
    // The text ingestion path: one loader under both of its names (the
    // benchmark adapter still calls the former one).
    let g = generate(&LubmConfig { universities: 1, departments: 5, seed: 0xF11E }).unwrap();
    let dir = std::env::temp_dir().join(format!("kgscale-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("g.nt");
    io::save_graph(&g, &path).unwrap();
    let in_memory = io::load_graph(&path).unwrap();
    let streamed = io::load_graph_streaming(&path).unwrap();
    assert_byte_identical(&in_memory, &streamed, "text round-trip");
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Property: for any generator shape, seed and chunk size — the range
    /// includes the degenerate 1-edge chunk that compacts on every
    /// insertion — the build is byte-identical to the default-chunk
    /// build, which at these sizes never compacts before `build`.
    #[test]
    fn streaming_equivalence_prop(
        universities in 1usize..3,
        departments in 1usize..5,
        seed in 0u64..1_000_000_000,
        chunk in 1usize..800,
    ) {
        let config = LubmConfig { universities, departments, seed };
        let in_memory = generate(&config).unwrap();
        let streamed = generate_streaming(&config, chunk).unwrap();
        assert_byte_identical(&in_memory, &streamed, "proptest LUBM");
    }
}

#[test]
fn parallel_index_build_is_byte_deterministic() {
    let g = generate(&LubmConfig { universities: 2, departments: 4, seed: 0xDE7 }).unwrap();
    let base = LocalIndexConfig { num_landmarks: Some(24), seed: 11, ..Default::default() };
    let reference = LocalIndex::build(&g, &base).with_elapsed(Duration::ZERO);
    let mut reference_bytes = Vec::new();
    reference.save(&mut reference_bytes).unwrap();
    for threads in [1usize, 2, 8] {
        let idx = LocalIndex::build(&g, &LocalIndexConfig { build_threads: threads, ..base })
            .with_elapsed(Duration::ZERO);
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        assert_eq!(
            bytes, reference_bytes,
            "{threads}-thread index build is not byte-identical to the sequential build"
        );
        assert_eq!(idx.stats().bytes, reference.stats().bytes);
        assert_eq!(idx.stats().num_landmarks, reference.stats().num_landmarks);
        assert_eq!(idx.stats().ii_pairs, reference.stats().ii_pairs);
        assert_eq!(idx.stats().eit_pairs, reference.stats().eit_pairs);
        assert_eq!(idx.stats().assigned_vertices, reference.stats().assigned_vertices);
    }
}

#[test]
fn scale_smoke_end_to_end() {
    let target = smoke_edge_target();
    let config = LubmConfig::sized_edges(target, 0x5CA1E);

    // Chunked construction with an explicit builder, so the bounded-
    // buffer contract is checked against the analytical bound: the edge
    // buffer never exceeds capacity-doubling over (deduped edges so far +
    // one chunk), 12 bytes each.
    let chunk = 1 << 15;
    let mut b = GraphBuilder::with_chunk_edges(chunk);
    lubm::emit(&config, &mut b);
    let peak = b.peak_buffer_bytes();
    let g = b.build().unwrap();
    assert!(g.num_edges() >= target, "sized_edges must be a floor: {} < {target}", g.num_edges());
    let bound = 2 * 12 * (g.num_edges() + chunk);
    assert!(
        peak <= bound,
        "builder edge buffer peaked at {peak} bytes, above the bound {bound} \
         ({:.1} B/edge over {} edges)",
        peak as f64 / g.num_edges() as f64,
        g.num_edges()
    );

    // The equivalence checks at scale: same fingerprint as the
    // default-chunk build (byte-level equality is already covered
    // exhaustively above — at this size one snapshot encode is enough).
    let in_memory = generate(&config).unwrap();
    assert_eq!(in_memory.fingerprint(), g.fingerprint(), "chunk sizes diverge at scale");

    // Parallel index build at scale, then the file load path end to end:
    // engine snapshot written to disk and restored. Generated workloads
    // pay an oracle search per attempt, minutes at this size, so the
    // queries are seeded draws, under a fixed step budget. Both engines run
    // the same deterministic search on byte-identical state, so even a
    // budget-interrupted outcome must match exactly.
    let index = LocalIndexConfig {
        num_landmarks: Some(64),
        seed: 0x5CA1E,
        build_threads: 4,
        ..Default::default()
    };
    let m = Matrix::new(g, Vec::new(), index);
    m.live.local_index();
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default().with_step_budget(200_000), false);
    let mut outcomes = [Vec::new(), Vec::new()];
    m.run(
        &lubm_draws(&m.graph, 24, 0x5CA1E),
        &runs,
        &[Form::Engine, Form::Snapshot],
        |case, out| {
            outcomes[usize::from(case.form == Form::Snapshot)].push((out.answer, out.interrupted));
        },
    );
    assert_eq!(outcomes[0], outcomes[1], "built and restored engines diverge");
    // The sample must exercise both outcomes, or the differential is
    // vacuous.
    let trues = outcomes[0].iter().filter(|(answer, _)| *answer).count();
    assert!(trues > 0 && trues < outcomes[0].len(), "outcome mix degenerate: {trues} true");
}

#[test]
fn streaming_builder_direct_use_matches_graph_builder() {
    // The builder's event contract, exercised without the LUBM generator:
    // interleaved intern/add_edge/add_triple event streams produce the
    // same graph at every chunk size.
    let events_on = |sink: &mut GraphBuilder| {
        let p = sink.intern_label("p");
        let a = sink.intern_vertex("a");
        sink.add_triple("x", "q", "y");
        let b = sink.intern_vertex("b");
        sink.add_edge(a, p, b);
        sink.add_edge(b, p, a);
        sink.add_triple("a", "q", "b");
        // Duplicates collapse identically.
        sink.add_edge(a, p, b);
    };
    let mut gb = GraphBuilder::new();
    events_on(&mut gb);
    let expected = gb.build().unwrap();
    for chunk in [1usize, 2, 1024] {
        let mut sb = GraphBuilder::with_chunk_edges(chunk);
        events_on(&mut sb);
        let got = sb.build().unwrap();
        assert_byte_identical(&expected, &got, "direct builder use");
    }

    let q = LscrQuery::new(
        expected.vertex_id("a").unwrap(),
        expected.vertex_id("b").unwrap(),
        expected.all_labels(),
        kgreach::SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> ?y . }").unwrap(),
    );
    let runs = Run::each(&[Algorithm::Uis], &QueryOptions::default(), false);
    Matrix::of(expected).run(&[q], &runs, &[Form::Engine], |_, out| assert!(out.answer));
}
