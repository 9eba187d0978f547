//! Failure injection and edge cases: oversized alphabets, out-of-range
//! ids, malformed SPARQL, unsatisfiable constraints, degenerate queries,
//! the binary-snapshot and WAL corruption batteries — truncations, bit
//! flips, wrong magic, future versions, mismatched artifacts — and the same
//! sweeps over the request parsers. Every failure is a typed error; none
//! panics, none yields a silently wrong artifact.

use kgreach::{
    Algorithm, LocalIndex, LocalIndexConfig, LscrEngine, LscrQuery, QueryError,
    SubstructureConstraint,
};
use kgreach_graph::snapshot::{self, ArtifactKind, FORMAT_VERSION, MAGIC};
use kgreach_graph::{Graph, GraphBuilder, GraphError, LabelSet, VertexId, MAX_LABELS};
use kgreach_integration::{answer, random_typed_graph, small_lubm};

#[test]
fn too_many_labels_is_a_typed_error() {
    let mut b = GraphBuilder::new();
    for i in 0..=MAX_LABELS {
        b.add_triple("a", &format!("p{i}"), "b");
    }
    match b.build() {
        Err(GraphError::TooManyLabels { requested, max }) => {
            assert_eq!(requested, MAX_LABELS + 1);
            assert_eq!(max, MAX_LABELS);
        }
        other => panic!("expected TooManyLabels, got {other:?}"),
    }
}

#[test]
fn out_of_range_vertices_rejected_at_compile() {
    let engine = LscrEngine::new(small_lubm(31));
    let c =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }").unwrap();
    let q = LscrQuery::new(VertexId(u32::MAX - 1), VertexId(0), engine.graph().all_labels(), c);
    match answer(&engine, &q, Algorithm::Uis) {
        Err(QueryError::Graph(GraphError::VertexOutOfRange { .. })) => {}
        other => panic!("expected VertexOutOfRange, got {other:?}"),
    }
}

#[test]
fn malformed_sparql_is_rejected() {
    for text in [
        "",
        "SELECT",
        "SELECT ?x",
        "SELECT ?x WHERE",
        "SELECT ?x WHERE { }",
        "SELECT ?x WHERE { ?x <p> }",
        "SELECT ?x WHERE { ?x <p ?y }",
        "WHERE { ?x <p> ?y }",
        "SELECT ?missing WHERE { ?x <p> ?y }",
        "SELECT ?x ?y WHERE { ?x <p> ?y }", // two projections: not a constraint
    ] {
        assert!(
            SubstructureConstraint::parse(text).is_err(),
            "accepted malformed constraint: {text:?}"
        );
    }
}

#[test]
fn unsatisfiable_constraint_answers_false_everywhere() {
    let m = Matrix::of(small_lubm(32));
    let c = "SELECT ?x WHERE { ?x <no:such:predicate> <no:such:vertex> . }";
    let c = SubstructureConstraint::parse(c).unwrap();
    let q = LscrQuery::new(VertexId(0), VertexId(1), m.graph.all_labels(), c);
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&[q], &runs, &[Form::Engine], |_, out| assert!(!out.answer, "unsatisfiable, yet true"));
}

#[test]
fn source_equals_target_is_consistent_across_algorithms() {
    let m = Matrix::of(small_lubm(33));
    let c = "SELECT ?x WHERE { ?x <rdf:type> <ub:UndergraduateStudent> . }";
    let c = SubstructureConstraint::parse(c).unwrap();
    let n = m.graph.num_vertices() as u32;
    let on_loop =
        |raw| LscrQuery::new(VertexId(raw % n), VertexId(raw % n), m.graph.all_labels(), c.clone());
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&[0, 7, 100, 500].map(on_loop), &runs, &[Form::Engine], |_, _| {});
}

/// An empty `L` admits only the zero-edge path: false between distinct
/// endpoints, true for a satisfying `s = t`.
#[test]
fn empty_label_constraint_only_trivial_paths() {
    let m = Matrix::of(small_lubm(34));
    let c = "SELECT ?x WHERE { ?x <rdf:type> <ub:UndergraduateStudent> . }";
    let c = SubstructureConstraint::parse(c).unwrap();
    let ug = m.graph.vertex_id("UndergraduateStudent0.Department0.University0").unwrap();
    let queries = [
        LscrQuery::new(VertexId(0), VertexId(1), LabelSet::EMPTY, c.clone()),
        LscrQuery::new(ug, ug, LabelSet::EMPTY, c),
    ];
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&queries, &runs, &[Form::Engine], |case, out| assert_eq!(out.answer, case.query == 1));
}

#[test]
fn graph_with_no_edges() {
    let mut b = GraphBuilder::new();
    b.intern_vertex("lonely1");
    b.intern_vertex("lonely2");
    b.intern_label("p");
    let m = Matrix::of(b.build().unwrap());
    let c = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> ?y . }").unwrap();
    let q = LscrQuery::new(VertexId(0), VertexId(1), m.graph.all_labels(), c);
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&[q], &runs, &[Form::Engine], |_, out| assert!(!out.answer));
}

#[test]
fn triple_parser_rejects_garbage() {
    use kgreach_graph::triples::parse_line;
    for (line, text) in
        [(1usize, "<a> <b>"), (2, "<unterminated"), (3, "\"unterminated"), (4, "<a> <b> <c> <d>")]
    {
        let err = parse_line(text, line).unwrap_err();
        match err {
            GraphError::Parse { line: l, .. } => assert_eq!(l, line),
            other => panic!("expected parse error, got {other:?}"),
        }
    }
}

/// A small graph whose engine snapshot is under a KiB, so exhaustive
/// per-byte corruption sweeps stay fast.
fn snapshot_fixture(seed: u64) -> (Graph, Vec<u8>) {
    let engine = LscrEngine::new(random_typed_graph(14, 30, 3, 2, seed));
    let mut bytes = Vec::new();
    engine.save_snapshot(&mut bytes).unwrap();
    (engine.graph().as_ref().clone(), bytes)
}

/// An engine snapshot from when snapshots embedded the local index: the
/// graph of `snapshot_fixture(0xBAD)` with a 3-landmark index (seed
/// `0xBAD`), saved with its index-presence flag at 1 and the index
/// sections (tags 16–19) after it.
const LEGACY_WITH_INDEX: &[u8] = include_bytes!("fixtures/engine-with-index-v1.kgsnap");

/// The fingerprint of `LEGACY_WITH_INDEX`'s graph, as recorded when the
/// file was written.
const LEGACY_FINGERPRINT: GraphFingerprint = GraphFingerprint {
    num_vertices: 16,
    num_edges: 41,
    num_labels: 4,
    edge_hash: 15_785_510_347_465_495_844,
};

/// The current fixture and the legacy one: every corruption sweep runs
/// over both, so the branch that decodes and drops an old file's index
/// stays swept although no writer reaches it.
fn swept_snapshots() -> [Vec<u8>; 2] {
    [snapshot_fixture(0xBAD).1, LEGACY_WITH_INDEX.to_vec()]
}

#[test]
fn snapshot_wrong_magic_is_typed() {
    let (_, mut bytes) = snapshot_fixture(0xBAD);
    bytes[..8].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(
        LscrEngine::from_snapshot(&bytes[..]),
        Err(QueryError::Graph(GraphError::SnapshotBadMagic))
    ));
    // An arbitrary non-snapshot file is bad magic too, even a tiny one.
    assert!(matches!(
        snapshot::read_graph_snapshot(&b"<a> <p> <b> .\n"[..]),
        Err(GraphError::SnapshotBadMagic)
    ));
    assert!(matches!(snapshot::read_graph_snapshot(&b"KG"[..]), Err(GraphError::SnapshotBadMagic)));
}

#[test]
fn snapshot_future_version_is_typed() {
    let (_, mut bytes) = snapshot_fixture(0xBAD);
    let future = (FORMAT_VERSION + 1).to_le_bytes();
    bytes[8..10].copy_from_slice(&future);
    match LscrEngine::from_snapshot(&bytes[..]) {
        Err(QueryError::Graph(GraphError::SnapshotVersion { found, supported })) => {
            assert_eq!(found, FORMAT_VERSION + 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected SnapshotVersion, got {other:?}"),
    }
}

#[test]
fn snapshot_artifact_kind_mismatch_is_typed() {
    let (g, engine_bytes) = snapshot_fixture(0xBAD);
    // A graph snapshot fed to the engine loader, and vice versa.
    let mut graph_bytes = Vec::new();
    snapshot::write_graph_snapshot(&g, &mut graph_bytes).unwrap();
    assert!(matches!(
        LscrEngine::from_snapshot(&graph_bytes[..]),
        Err(QueryError::Graph(GraphError::SnapshotKind { .. }))
    ));
    assert!(matches!(
        snapshot::read_graph_snapshot(&engine_bytes[..]),
        Err(GraphError::SnapshotKind { expected, found })
            if expected == ArtifactKind::Graph as u8 && found == ArtifactKind::Engine as u8
    ));
    assert!(matches!(LocalIndex::load(&engine_bytes[..]), Err(GraphError::SnapshotKind { .. })));
}

#[test]
fn snapshot_every_truncation_is_typed() {
    for bytes in swept_snapshots() {
        assert_eq!(&bytes[..8], &MAGIC, "fixture sanity");
        for len in 0..bytes.len() {
            match LscrEngine::from_snapshot(&bytes[..len]) {
                Err(QueryError::Graph(
                    GraphError::SnapshotBadMagic
                    | GraphError::SnapshotCorrupt { .. }
                    | GraphError::SnapshotVersion { .. },
                )) => {}
                other => panic!("truncation to {len} bytes: expected a typed error, got {other:?}"),
            }
        }
        // Too long is as corrupt as too short: one stray byte, or a whole
        // second snapshot, after the end marker.
        for tail in [&[0u8][..], &bytes[..]] {
            match LscrEngine::from_snapshot(&[&bytes[..], tail].concat()) {
                Err(QueryError::Graph(GraphError::SnapshotCorrupt { section: "end", .. })) => {}
                other => {
                    panic!("{} trailing bytes: expected a typed error, got {other:?}", tail.len())
                }
            }
        }
    }
}

#[test]
fn snapshot_every_bit_flip_is_typed() {
    // Flip every bit of every byte past the 12-byte header (header flips
    // are covered by the magic/version/kind tests above). Checksums must
    // catch each one; no panic, no silent acceptance.
    for bytes in swept_snapshots() {
        for i in 12..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                assert!(
                    LscrEngine::from_snapshot(&mutated[..]).is_err(),
                    "flip of bit {bit} in byte {i} of {} went undetected",
                    bytes.len()
                );
            }
        }
    }
}

/// Byte ranges of each section frame in a snapshot container, walked
/// from the raw framing (mirrors the codec-level helper in
/// `crates/kg/src/snapshot.rs`).
fn frame_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut pos = 12; // header
    let mut out = Vec::new();
    while pos < bytes.len() {
        let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
        let len = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().unwrap()) as usize;
        let end = pos + 10 + len + 8;
        out.push(pos..end);
        pos = end;
        if tag == 0 {
            break;
        }
    }
    out
}

#[test]
fn snapshot_load_rejects_spliced_sections() {
    // Transplant each intact section frame from a second engine snapshot
    // (same shape, different seed) into the fixture: the checksum chain
    // must reject every chimera.
    let ((_, bytes_a), (_, bytes_b)) = (snapshot_fixture(0xBAD), snapshot_fixture(0xBEEF));

    let frames_a = frame_ranges(&bytes_a);
    let frames_b = frame_ranges(&bytes_b);
    assert_eq!(frames_a.len(), frames_b.len(), "fixture snapshots frame identically");
    for (idx, (fa, fb)) in frames_a.iter().zip(&frames_b).enumerate() {
        let mut chimera = Vec::with_capacity(bytes_a.len());
        chimera.extend_from_slice(&bytes_a[..fa.start]);
        chimera.extend_from_slice(&bytes_b[fb.clone()]);
        chimera.extend_from_slice(&bytes_a[fa.end..]);
        assert!(
            LscrEngine::from_snapshot(&chimera).is_err(),
            "section {idx} spliced from another snapshot was accepted"
        );
    }
}

/// The section tags of a snapshot container, in file order.
fn section_tags(bytes: &[u8]) -> Vec<u16> {
    frame_ranges(bytes)
        .iter()
        .map(|f| u16::from_le_bytes([bytes[f.start], bytes[f.start + 1]]))
        .collect()
}

#[test]
fn a_legacy_snapshot_with_an_index_loads_its_graph_alone() {
    assert!(section_tags(LEGACY_WITH_INDEX).ends_with(&[15, 16, 17, 18, 19, 0]), "fixture sanity");
    let engine = LscrEngine::from_snapshot(LEGACY_WITH_INDEX).expect("a legacy file loads");
    assert_eq!(engine.graph().fingerprint(), LEGACY_FINGERPRINT);
    assert!(engine.local_index_if_built().is_none(), "the embedded index was installed");
    let fresh = LscrEngine::new(random_typed_graph(14, 30, 3, 2, 0xBAD));
    assert_eq!(fresh.graph().fingerprint(), LEGACY_FINGERPRINT);

    // Every pair under every label set of one label plus `rdf:type`, for
    // each algorithm: the loaded engine answers as the fresh one does.
    let g = engine.graph();
    let constraint = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <C0> . }")
        .expect("constraint parses");
    for labels in ["l0", "l1", "l2"].map(|l| g.label_set(&[l, "rdf:type"])) {
        for s in g.vertices() {
            for t in g.vertices() {
                let q = LscrQuery::new(s, t, labels, constraint.clone());
                for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
                    assert_eq!(
                        answer(&engine, &q, alg).unwrap().answer,
                        answer(&fresh, &q, alg).unwrap().answer,
                        "{alg} from {s:?} to {t:?} under {labels:?}"
                    );
                }
            }
        }
    }
    let built = engine.local_index_if_built().expect("the forced INS built the index");
    assert_eq!(built.graph_fingerprint(), LEGACY_FINGERPRINT);
}

#[test]
fn durable_recovery_from_a_legacy_checkpoint_writes_none_with_an_index() {
    let dir = wal_dir("legacy-checkpoint");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("checkpoint-00000000000000000000.kgsnap"), LEGACY_WITH_INDEX).unwrap();
    let (d, report) =
        DurableEngine::open(&dir, wal_config(), || panic!("init must not run")).expect("recover");
    assert_eq!((report.checkpoint_seq, report.replayed), (0, 0));
    assert_eq!(d.engine().graph().fingerprint(), LEGACY_FINGERPRINT);
    assert!(d.engine().local_index_if_built().is_none(), "the embedded index was installed");

    // An update, then a forced build: the checkpoint after them still
    // holds the graph alone, flag 0 and no index section.
    d.apply_update(&fresh_insert(0)).expect("apply");
    let _ = d.engine().local_index();
    assert!(d.checkpoint().expect("checkpoint").is_some());
    let written = std::fs::read(dir.join("checkpoint-00000000000000000001.kgsnap")).unwrap();
    let tags = section_tags(&written);
    assert!(tags.ends_with(&[15, 0]) && tags.iter().all(|t| !(16..=19).contains(t)), "{tags:?}");
    let mut saved = Vec::new();
    d.engine().save_snapshot(&mut saved).unwrap();
    assert_eq!(written, saved, "the checkpoint is the engine's snapshot");
    let flag = frame_ranges(&written)[tags.len() - 2].clone();
    assert_eq!(&written[flag.start + 10..flag.end - 8], &[0], "the index flag is 0");
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_loaders_report_missing_files_as_io() {
    let missing = std::env::temp_dir().join("kgfail-no-such-snapshot.kgsnap");
    assert!(matches!(snapshot::load_graph_snapshot(&missing), Err(GraphError::Io(_))));
    assert!(matches!(LocalIndex::load_file(&missing), Err(GraphError::Io(_))));
    assert!(matches!(
        LscrEngine::from_snapshot_file(&missing),
        Err(QueryError::Graph(GraphError::Io(_)))
    ));
}

/// A snapshot that is being re-saved loads whole: one thread saves two
/// engines over one path in turn while this one loads it, and every load
/// is one of the two. A save that truncated the path in place would hand
/// a load an empty or half-written file.
#[test]
fn a_snapshot_being_re_saved_always_loads_whole() {
    let engines = [LscrEngine::new(small_lubm(7)), LscrEngine::new(small_lubm(8))];
    let saved = engines.each_ref().map(|e| e.graph().fingerprint());
    assert_ne!(saved[0], saved[1]);
    let dir = std::env::temp_dir().join(format!("kgfail-resave-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("engine.kgsnap");
    engines[0].save_snapshot_file(&path).unwrap();
    let (loads, failures) = std::thread::scope(|s| {
        let saver = s.spawn(|| {
            for i in 0..100 {
                engines[i % 2].save_snapshot_file(&path).expect("save");
            }
        });
        let (mut loads, mut failures) = (0usize, Vec::new());
        while !saver.is_finished() || loads < 100 {
            match LscrEngine::from_snapshot_file(&path) {
                Ok(e) if saved.contains(&e.graph().fingerprint()) => {}
                Ok(_) => failures.push(format!("load {loads}: a graph never saved")),
                Err(e) => failures.push(format!("load {loads}: {e}")),
            }
            loads += 1;
        }
        saver.join().expect("saver");
        (loads, failures)
    });
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        failures.is_empty(),
        "{} of {loads} loads failed: {:?}",
        failures.len(),
        &failures[..1]
    );
}

#[test]
fn index_snapshot_from_different_graph_is_rejected() {
    // Persist an index for graph A, restart against graph B: the embedded
    // fingerprint must trip the existing IndexGraphMismatch path.
    let a = random_typed_graph(14, 30, 3, 2, 0xA);
    let index_a = LocalIndex::build(
        &a,
        &LocalIndexConfig { num_landmarks: Some(3), seed: 1, ..Default::default() },
    );
    let mut bytes = Vec::new();
    index_a.save(&mut bytes).unwrap();
    let loaded = LocalIndex::load(&bytes[..]).unwrap();

    let b = random_typed_graph(14, 30, 3, 2, 0xB);
    let engine_b = LscrEngine::new(b);
    match engine_b.set_local_index(loaded) {
        Err(QueryError::IndexGraphMismatch { expected, found }) => {
            assert_eq!(expected, engine_b.graph().fingerprint());
            assert_eq!(found, index_a.graph_fingerprint());
        }
        other => panic!("expected IndexGraphMismatch, got {other:?}"),
    }
    assert!(engine_b.local_index_if_built().is_none(), "foreign index must not be installed");

    // The same index loads fine against its own graph.
    let engine_a = LscrEngine::new(a);
    engine_a.set_local_index(LocalIndex::load(&bytes[..]).unwrap()).unwrap();
    assert!(engine_a.local_index_if_built().is_some());
}

#[test]
fn budget_exceeded_surfaces_progress() {
    use kgreach_lcr::{Budget, FullTransitiveClosure};
    let g = small_lubm(35);
    let err = FullTransitiveClosure::build(&g, Budget::with_limit(std::time::Duration::ZERO))
        .unwrap_err();
    assert!(err.to_string().contains("budget"));
}

// ---------------------------------------------------------------------------
// Write-ahead-log recovery battery. The file-level frame sweeps live next to
// the codec (`crates/kg/src/wal.rs`); these tests drive the same damage
// through the *recovery path* (`DurableEngine::open` over a real data
// directory) and hold it to the durability contract: every corruption mode
// is a typed error or a clean torn-tail truncation, recovered state is
// byte-for-byte the acknowledged state, and replaying a log twice (the
// checkpoint/rotation crash window) changes nothing.
// ---------------------------------------------------------------------------

use kgreach::durable::WAL_FILE;
use kgreach::{DurableEngine, FsyncPolicy, GraphFingerprint, QueryOptions, UpdateBatch, WalConfig};
use kgreach_datagen::all_lubm_constraints;
use kgreach_datagen::constraints::s1;
use kgreach_datagen::updates::UpdateWorkloadConfig;
use kgreach_integration::matrix::{holdout, wire_body, Form, Matrix, Run, ALGORITHMS};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Fixed WAL file-header size (`crates/kg/src/wal.rs`):
/// magic (8) | version u16 (2) | reserved (6) | base_seq u64 (8).
const WAL_HEADER: usize = 24;

fn wal_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kgfail-wal-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn wal_config() -> WalConfig {
    // Fsync policy is irrelevant to these tests (the process exits
    // cleanly; only *power* loss distinguishes policies) and `Off` keeps
    // the sweeps fast. Auto-checkpointing is disabled so the log under
    // test never rotates out from under the sweep.
    WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: u64::MAX }
}

fn wal_init_graph() -> Graph {
    random_typed_graph(10, 18, 3, 2, 0x3a1)
}

/// One guaranteed-fresh insert per call: record `i + 1` in the log is
/// exactly `fresh_insert(i)`, so log prefixes map to batch prefixes.
fn fresh_insert(i: usize) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    b.insert(&format!("wal-v{i}"), "wal-edge", &format!("wal-v{}", i + 1));
    b
}

/// Fingerprint of the init graph plus the first `k` fresh inserts,
/// applied directly (no durability layer). Interning is deterministic,
/// so a correctly recovered engine fingerprints identically.
fn prefix_fingerprint(k: usize) -> GraphFingerprint {
    let e = LscrEngine::new(wal_init_graph());
    for i in 0..k {
        e.apply_update(&fresh_insert(i)).expect("apply");
    }
    e.graph().fingerprint()
}

/// Builds a data directory holding checkpoint-0 plus a log of `records`
/// fresh inserts, "crashes" (drops without checkpoint or shutdown), and
/// returns the directory with the raw log bytes.
fn wal_fixture(name: &str, records: usize) -> (PathBuf, Vec<u8>) {
    let dir = wal_dir(name);
    let (d, _) = DurableEngine::open(&dir, wal_config(), || Ok(LscrEngine::new(wal_init_graph())))
        .expect("init");
    for i in 0..records {
        let out = d.apply_update(&fresh_insert(i)).expect("apply");
        assert_eq!(out.seq, Some(i as u64 + 1), "fresh inserts log densely");
    }
    drop(d);
    let bytes = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    (dir, bytes)
}

/// End offsets of each complete record frame (record layout:
/// seq u64 | len u32 | head_crc u32 | payload | body_crc u64).
fn record_ends(bytes: &[u8]) -> Vec<usize> {
    let mut ends = Vec::new();
    let mut off = WAL_HEADER;
    while off + 16 <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("4 bytes")) as usize;
        off += 16 + len + 8;
        assert!(off <= bytes.len(), "fixture log must not end mid-frame");
        ends.push(off);
    }
    ends
}

/// Cutting the log at *every* byte offset either recovers exactly the
/// longest clean record prefix (reporting the torn bytes) or — when the
/// file header itself is torn — fails with a typed error. The recovered
/// engine keeps accepting updates, numbered from the surviving prefix.
#[test]
fn wal_every_torn_tail_recovers_the_longest_clean_prefix() {
    const RECORDS: usize = 5;
    let (dir, bytes) = wal_fixture("torn", RECORDS);
    let ends = record_ends(&bytes);
    assert_eq!(ends.len(), RECORDS);
    let expected: Vec<GraphFingerprint> = (0..=RECORDS).map(prefix_fingerprint).collect();

    for cut in 0..bytes.len() {
        std::fs::write(dir.join(WAL_FILE), &bytes[..cut]).expect("write cut");
        if cut < WAL_HEADER {
            match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
                Err(QueryError::Graph(GraphError::WalCorrupt { .. } | GraphError::WalBadMagic)) => {
                }
                other => panic!("cut {cut}: torn header must be typed, got {other:?}"),
            }
            continue;
        }
        let complete = ends.iter().filter(|&&e| e <= cut).count();
        let clean_end = if complete == 0 { WAL_HEADER } else { ends[complete - 1] };
        let (d, report) = DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun"))
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail must recover, got {e}"));
        assert_eq!(report.replayed, complete as u64, "cut {cut}");
        assert_eq!(report.truncated_bytes, (cut - clean_end) as u64, "cut {cut}");
        assert_eq!(d.engine().graph().fingerprint(), expected[complete], "cut {cut}");
        // The log was physically truncated to the clean prefix and keeps
        // accepting appends where it left off.
        let out = d.apply_update(&fresh_insert(RECORDS + 8 + cut)).expect("post-recovery apply");
        assert_eq!(out.seq, Some(complete as u64 + 1), "cut {cut}");
        drop(d);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping a bit anywhere in the log either trips a typed check (magic,
/// version, or the record checksum chain) or — only in the header's six
/// reserved bytes, which carry no content — recovers the full log
/// unchanged. No flip panics; no flip silently alters recovered state.
#[test]
fn wal_every_bit_flip_is_typed_or_content_preserving() {
    const RECORDS: usize = 3;
    let (dir, bytes) = wal_fixture("flip", RECORDS);
    let full = prefix_fingerprint(RECORDS);

    for pos in 0..bytes.len() {
        let bit = pos % 8; // rotate the flipped bit so every byte is covered cheaply
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << bit;
        std::fs::write(dir.join(WAL_FILE), &mutated).expect("write mutation");
        match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
            Err(QueryError::Graph(
                GraphError::WalBadMagic
                | GraphError::WalVersion { .. }
                | GraphError::WalCorrupt { .. },
            )) => {}
            Ok((d, report)) => {
                assert!(
                    (8..16).contains(&pos),
                    "flip at byte {pos} bit {bit} must not pass undetected"
                );
                assert_eq!(report.replayed, RECORDS as u64, "byte {pos}");
                assert_eq!(d.engine().graph().fingerprint(), full, "byte {pos}");
                drop(d);
            }
            Err(other) => panic!("flip at byte {pos}: untyped error {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A byte-for-byte duplicate of the last record spliced onto the log is
/// corruption, not a replayable record: its header checksum was chained
/// off the *previous* record, so the scan reports the splice offset.
#[test]
fn wal_spliced_duplicate_record_is_typed_corruption() {
    let (dir, bytes) = wal_fixture("splice", 3);
    let ends = record_ends(&bytes);
    let mut spliced = bytes.clone();
    spliced.extend_from_slice(&bytes[ends[1]..ends[2]]);
    std::fs::write(dir.join(WAL_FILE), &spliced).expect("write splice");
    match DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")) {
        Err(QueryError::Graph(GraphError::WalCorrupt { offset, .. })) => {
            assert_eq!(offset, ends[2] as u64, "corruption reported at the splice");
        }
        other => panic!("expected WalCorrupt at the splice, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint/rotation crash window: a checkpoint lands but the old
/// log (now entirely covered by it) survives. Replaying those duplicate
/// records is a sequence-number no-op — recovered state and subsequent
/// numbering are exactly as if the rotation had completed.
#[test]
fn wal_checkpoint_overlap_replay_is_idempotent() {
    let dir = wal_dir("overlap");
    let (d, _) = DurableEngine::open(&dir, wal_config(), || Ok(LscrEngine::new(wal_init_graph())))
        .expect("init");
    for i in 0..4 {
        d.apply_update(&fresh_insert(i)).expect("apply");
    }
    let pre_rotation_log = std::fs::read(dir.join(WAL_FILE)).expect("read log");
    d.checkpoint().expect("checkpoint").expect("non-empty log yields a report");
    drop(d);
    // Un-rotate: put the pre-checkpoint log (records 1..=4, all now
    // covered by the checkpoint) back in place.
    std::fs::write(dir.join(WAL_FILE), &pre_rotation_log).expect("restore old log");

    let (d, report) =
        DurableEngine::open(&dir, wal_config(), || panic!("init must not rerun")).expect("recover");
    assert_eq!(report.skipped, 4, "covered records are skipped, not re-applied");
    assert_eq!(report.replayed, 0);
    assert_eq!(d.engine().graph().fingerprint(), prefix_fingerprint(4));
    let out = d.apply_update(&fresh_insert(4)).expect("apply");
    assert_eq!(out.seq, Some(5), "numbering continues past the duplicates");
    drop(d);
    std::fs::remove_dir_all(&dir).ok();
}

/// End-to-end recovery differential: a realistic insert/delete/churn
/// stream is applied through the durability layer, the process "crashes"
/// (no checkpoint, no shutdown), and the recovered engine must hold
/// exactly the acknowledged triples and answer like the oracle on a grid
/// of pairs — on all four algorithms.
#[test]
fn wal_recovery_matches_rebuilt_engine_on_every_algorithm() {
    let final_graph = small_lubm(17);
    let config = UpdateWorkloadConfig {
        holdout_fraction: 0.08,
        batch_size: 30,
        churn_per_batch: 2,
        seed: 0xd1ff,
    };
    let (base, script) = holdout(&final_graph, &config);
    assert!(!script.is_empty(), "workload must log something");
    let m = Matrix::new(base, script, LocalIndexConfig::default());
    assert_eq!(m.graph.num_edges(), final_graph.num_edges(), "the stream replays to the final set");
    let c =
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <rdf:type> <ub:Course> . }").unwrap();
    let step = (m.graph.num_vertices() / 9).max(1);
    let grid: Vec<VertexId> = m.graph.vertices().step_by(step).collect();
    let queries: Vec<LscrQuery> = (grid.iter())
        .flat_map(|&s| grid.iter().map(move |&t| (s, t)))
        .map(|(s, t)| LscrQuery::new(s, t, m.graph.all_labels(), c.clone()))
        .collect();
    let runs = Run::each(&ALGORITHMS, &QueryOptions::default(), false);
    m.run(&queries, &runs, &[Form::Wal], |_, _| {});
}

/// Every prefix and every single-bit flip of `text`, decoded as a request
/// body would be: invalid UTF-8 becomes U+FFFD.
fn mutations(text: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = text.as_bytes();
    let prefixes = (0..bytes.len()).map(move |n| String::from_utf8_lossy(&bytes[..n]).into_owned());
    let flips = (0..bytes.len() * 8).map(move |bit| {
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        String::from_utf8_lossy(&flipped).into_owned()
    });
    prefixes.chain(flips)
}

/// The text decoders a request reaches, swept like the snapshot and WAL
/// decoders above: `/query` bodies through JSON, request, name resolution
/// and an `Auto` answer under a step budget; `/update` bodies; the S1–S5
/// constraint texts and one outside ASCII through parse and compile; and
/// escaped triple lines. Every variant is `Ok` or a typed error.
#[test]
fn parser_sweeps_never_panic() {
    use kgreach_graph::triples::parse_line;
    use kgreach_serve::protocol::parse_update;
    use kgreach_serve::{Json, QueryRequest};
    let engine = LscrEngine::new(small_lubm(7));
    let g = engine.graph();
    let q = LscrQuery::new(VertexId(0), VertexId(40), g.all_labels(), s1());
    let query = wire_body(&g, &q, Algorithm::Auto, &QueryOptions::default());
    let update =
        r#"{"ops":[{"op":"insert","subject":"M\u00fcller","predicate":"p","object":"o"}]}"#;
    let mut constraints: Vec<String> =
        all_lubm_constraints().iter().map(|(_, c)| c.sparql_text().to_owned()).collect();
    constraints.push(r#"SELECT ?é WHERE { ?é <ub:name> "Müller" . ?é ub:Zoë ?y . }"#.into());
    let triples = [r#"<a b> "q \"é\" \\ \n" "Müller" ."#, "<s> <p> <o> ."];
    let budget = QueryOptions::default().with_step_budget(64);
    let mut panicked = Vec::new();
    let mut sweep = |text: &str, decode: &dyn Fn(&str)| {
        for variant in mutations(text) {
            if catch_unwind(AssertUnwindSafe(|| decode(&variant))).is_err() {
                panicked.push(variant);
            }
        }
    };
    sweep(&query, &|body| {
        let request = Json::parse(body).ok().and_then(|j| QueryRequest::parse(&j).ok());
        let q = request.and_then(|r| r.resolve(&g).ok());
        let compiled = q.map(|q| engine.compile(&q));
        drop(compiled.map(|c| {
            engine.session().answer_compiled(&engine.graph(), &c?, Algorithm::Auto, &budget)
        }));
    });
    sweep(update, &|body| drop(Json::parse(body).map(|j| parse_update(&j))));
    for text in &constraints {
        sweep(text, &|text| drop(SubstructureConstraint::parse(text).map(|c| c.compile(&g))));
    }
    for line in triples {
        sweep(line, &|line| drop(parse_line(line, 1)));
    }
    assert!(panicked.is_empty(), "{} variants panicked: {:?}", panicked.len(), panicked.first());
}

/// The three decoders a `/query` crosses, swept for more than "no panic":
/// every prefix and every bit flip of the five S1–S5 wire bodies through
/// `Json::parse`, and of the S1–S5 texts through
/// `SubstructureConstraint::parse`, is a typed error or a value that
/// re-serialises to text which parses back to that same value.
#[test]
fn decoded_values_reread_as_themselves() {
    use kgreach_integration::s1_s5_wire_bodies;
    use kgreach_serve::Json;
    let (_, bodies) = s1_s5_wire_bodies();
    let mut accepted = [0usize; 2];
    for (name, body) in &bodies {
        for variant in mutations(body) {
            if let Ok(value) = Json::parse(&variant) {
                let text = value.to_string();
                assert_eq!(Json::parse(&text).as_ref(), Ok(&value), "{name}: {variant:?} → {text}");
                accepted[0] += 1;
            }
        }
    }
    for (name, c) in all_lubm_constraints() {
        for variant in mutations(c.sparql_text()) {
            if let Ok(parsed) = SubstructureConstraint::parse(&variant) {
                let again = SubstructureConstraint::parse(parsed.sparql_text());
                assert_eq!(again.as_ref(), Ok(&parsed), "{name}: {variant:?}");
                accepted[1] += 1;
            }
        }
    }
    // Both sweeps reach the round trip, not only the error paths.
    assert!(accepted.iter().all(|&n| n > 100), "accepted variants: {accepted:?}");
}

/// `read_request` over loopback, swept the same way: a `/query` request
/// cut at every offset, and with every bit of its head flipped, each sent
/// on its own connection whose client then closes its side. Each read is
/// a typed error or a request that, written back out, reads back the same.
#[test]
fn request_heads_reread_as_themselves() {
    use kgreach_integration::s1_s5_wire_bodies;
    use kgreach_serve::http::{read_request, Request};
    use kgreach_serve::HttpLimits;
    use std::io::{BufReader, Write};
    use std::net::{Shutdown, TcpListener, TcpStream};
    use std::time::Duration;

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let limits = HttpLimits { read_timeout: Duration::from_secs(5), ..HttpLimits::default() };
    let read = |bytes: &[u8]| {
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client.write_all(bytes).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_read_timeout(Some(limits.read_timeout)).unwrap();
        read_request(&mut BufReader::new(server), &limits)
    };
    let written = |r: &Request| {
        let connection = if r.keep_alive { "keep-alive" } else { "close" };
        let head = format!(
            "{} {} HTTP/1.1\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            r.method,
            r.path,
            r.body.len()
        );
        [head.as_bytes(), &r.body].concat()
    };
    let (_, bodies) = s1_s5_wire_bodies();
    let body = &bodies[0].1;
    let request = format!(
        "POST /query HTTP/1.1\r\nHost: kg-serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let request = request.as_bytes();
    let head_len = request.len() - body.len();
    let cuts = (0..request.len()).map(|n| request[..n].to_vec());
    let flips = (0..head_len * 8).map(|bit| {
        let mut flipped = request.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        flipped
    });
    let mut accepted = 0;
    for variant in cuts.chain(flips) {
        let Ok(req) = read(&variant) else { continue };
        let again = read(&written(&req)).unwrap_or_else(|e| panic!("{req:?} rereads as {e:?}"));
        assert_eq!(
            (&again.method, &again.path, &again.body, again.keep_alive),
            (&req.method, &req.path, &req.body, req.keep_alive),
            "{:?}",
            String::from_utf8_lossy(&variant)
        );
        accepted += 1;
    }
    assert!(accepted > 100, "only {accepted} variants were read");
}
