//! Deterministic model checking of the workspace's concurrent structures.
//!
//! This suite only exists under `RUSTFLAGS="--cfg kg_loom"`, where the
//! `kgreach-sync` shim re-exports the vendored loom types and every sync
//! operation in the production code becomes a scheduling point. Run it
//! with:
//!
//! ```text
//! RUSTFLAGS="--cfg kg_loom" cargo test -p kgreach-integration --test model_check
//! ```
//!
//! The tests fall in three groups:
//!
//! 1. **Exhaustive DFS** over the nastiest two-thread windows: `ScckCache`
//!    set-vs-get, engine update-during-query pinning, batcher
//!    shutdown-vs-submit, histogram record-vs-read.
//! 2. **Seeded shuttle runs** for state spaces too large to exhaust
//!    (worker-pool drain with a live worker, snapshot hot reload).
//! 3. **Seeded-bug demonstrations**: deliberately broken orderings that
//!    the checker must flag — regression tests for the checker itself and
//!    living proof the passing tests above are not vacuous.

#![cfg(kg_loom)]

use kgreach::constraint::{ScckCache, SubstructureConstraint};
use kgreach::{Algorithm, LscrEngine, LscrQuery};
use kgreach_graph::{GraphBuilder, UpdateBatch, VertexId};
use kgreach_serve::{BatchConfig, Batcher, LatencyHistogram, ServerMetrics};
use kgreach_sync::atomic::{AtomicU32, AtomicU8, Ordering};
use kgreach_sync::{thread, Arc};
use loom::Builder;
use std::time::Duration;

/// The one-edge graph `a -likes-> b` used by the engine models: small
/// enough that a full query is a handful of scheduling points.
fn tiny_engine() -> LscrEngine {
    let mut b = GraphBuilder::new();
    b.add_triple("a", "likes", "b");
    LscrEngine::new(b.build().unwrap())
}

fn tiny_query(engine: &LscrEngine) -> LscrQuery {
    let g = engine.graph();
    LscrQuery::new(
        g.vertex_id("a").unwrap(),
        g.vertex_id("b").unwrap(),
        g.all_labels(),
        SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <b> . }").unwrap(),
    )
}

// ---------------------------------------------------------------------------
// Group 1: exhaustive DFS over the production structures.
// ---------------------------------------------------------------------------

/// `ScckCache` set racing get: a concurrent `get` must see either
/// *unknown* or the value being written — never a value nobody wrote —
/// and the join must make the entry visible. A slot is one atomic byte,
/// so there is no second cell to publish; the page it lives in is
/// ordered by its `OnceLock`, which this explores too (the racing `set`
/// allocates the page). The seeded-bug tests below show what the checker
/// does to a protocol that *does* need a publication edge and lacks it.
#[test]
fn scck_cache_publication_is_exhaustively_safe() {
    let stats = Builder::new()
        .check(|| {
            let cache = Arc::new(ScckCache::new(4));
            let writer = Arc::clone(&cache);
            let t = thread::spawn(move || writer.set(VertexId(1), true));
            match cache.get(VertexId(1)) {
                // Unknown (store not yet visible) or the written value.
                None | Some(true) => {}
                Some(false) => panic!("stamped slot observed with a stale state byte"),
            }
            t.join().unwrap();
            assert_eq!(cache.get(VertexId(1)), Some(true), "join must publish the entry");
        })
        .expect("scck publication model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// An update applied while a query is in flight: the query must pin one
/// consistent graph (either answer is fine), and a query issued after the
/// update joined must definitively see the post-update state.
#[test]
fn update_during_query_pins_a_consistent_state() {
    let builder = Builder { preemption_bound: Some(2), ..Builder::new() };
    let stats = builder
        .check(|| {
            let engine = Arc::new(tiny_engine());
            let q = tiny_query(&engine);
            let updater = Arc::clone(&engine);
            let t = thread::spawn(move || {
                let mut batch = UpdateBatch::new();
                batch.delete("a", "likes", "b");
                updater.apply_update(&batch).unwrap();
            });
            // Racing query: sees the edge or not, but never panics,
            // deadlocks or mixes the two states.
            let _racing = engine.answer(&q, Algorithm::Uis).unwrap();
            t.join().unwrap();
            // Post-join query: the deletion must be fully visible.
            let after = engine.answer(&q, Algorithm::Uis).unwrap();
            assert!(!after.answer, "deleted edge still reachable after update joined");
        })
        .expect("update-during-query model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// Batcher shutdown racing a submit (zero workers, so the queue state is
/// the whole story): whatever the interleaving, the submitter gets a
/// definitive outcome — an admission error, or a drained `503` reply.
/// Nothing hangs and no reply is lost.
#[test]
fn batcher_shutdown_vs_submit_always_resolves() {
    let stats = Builder::new()
        .check(|| {
            let engine = Arc::new(tiny_engine());
            let metrics = Arc::new(ServerMetrics::new());
            let config = BatchConfig {
                workers: 0,
                queue_high_water: 4,
                max_step_budget: None,
                max_timeout: None,
            };
            let batcher = Batcher::start(engine, Arc::clone(&metrics), config);
            let submitter = Arc::clone(&batcher);
            let t = thread::spawn(move || {
                submitter.submit(kgreach_serve::QueryRequest {
                    source: "a".into(),
                    target: "b".into(),
                    labels: None,
                    constraint: "SELECT ?x WHERE { ?x <likes> <b> . }".into(),
                    algorithm: Algorithm::Auto,
                    witness: false,
                    step_budget: None,
                    timeout_ms: None,
                })
            });
            batcher.shutdown();
            match t.join().unwrap() {
                // Admitted before the drain flag: the drain must answer it.
                Ok(rx) => {
                    let reply = rx.recv().expect("drained job must still reply");
                    let err = reply.expect_err("zero workers can only drain");
                    assert_eq!(err.status, 503);
                }
                // Shed at admission.
                Err(err) => assert_eq!(err.status, 503),
            }
            assert_eq!(batcher.queue_depth(), 0, "shutdown must leave the queue empty");
        })
        .expect("batcher shutdown model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// Histogram record racing reads: counts are never lost and the reader
/// sees each cell's value monotonically (skew between cells is allowed by
/// design; losing an increment is not).
#[test]
fn histogram_record_vs_read_loses_nothing() {
    loom::model(|| {
        let h = Arc::new(LatencyHistogram::new());
        let recorder = Arc::clone(&h);
        let t = thread::spawn(move || recorder.record(Duration::from_micros(3)));
        // Concurrent read: 0 or 1, nothing else.
        let mid = h.count();
        assert!(mid <= 1, "count can only be 0 or 1 mid-record, got {mid}");
        t.join().unwrap();
        assert_eq!(h.count(), 1, "increment lost across the join");
        assert_eq!(h.sum_ns(), 3_000);
    });
}

/// Metrics counters: concurrent `add`s from two threads never lose an
/// increment (the shed counters use exactly this path under load).
#[test]
fn counter_adds_from_two_threads_all_land() {
    loom::model(|| {
        let m = Arc::new(ServerMetrics::new());
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || m2.shed_draining_total.add(2));
        m.shed_draining_total.add(3);
        t.join().unwrap();
        assert_eq!(m.shed_draining_total.get(), 5);
    });
}

// ---------------------------------------------------------------------------
// Group 2: shuttle runs over the larger state spaces.
// ---------------------------------------------------------------------------

/// A live worker answering while the batcher shuts down: the submitted
/// query is either answered (worker won the race) or drained with `503`
/// (shutdown won) — exhaustive DFS over a full engine answer is too big,
/// so this runs seeded random schedules instead.
#[test]
fn batcher_with_live_worker_drains_cleanly_under_shuttle() {
    let stats = Builder::new()
        .shuttle(24, 0xC0FFEE, || {
            let engine = Arc::new(tiny_engine());
            let metrics = Arc::new(ServerMetrics::new());
            let config = BatchConfig {
                workers: 1,
                queue_high_water: 4,
                max_step_budget: None,
                max_timeout: None,
            };
            let batcher = Batcher::start(engine, Arc::clone(&metrics), config);
            let submitted = batcher.submit(kgreach_serve::QueryRequest {
                source: "a".into(),
                target: "b".into(),
                labels: None,
                constraint: "SELECT ?x WHERE { ?x <likes> <b> . }".into(),
                algorithm: Algorithm::Uis,
                witness: false,
                step_budget: None,
                timeout_ms: None,
            });
            batcher.shutdown();
            match submitted {
                Ok(rx) => match rx.recv().expect("reply must arrive") {
                    Ok(body) => assert!(body.to_string().contains("\"answer\":true")),
                    Err(err) => assert_eq!(err.status, 503),
                },
                Err(err) => assert_eq!(err.status, 503),
            }
        })
        .expect("live-worker shuttle model");
    assert_eq!(stats.executions, 24);
}

/// Snapshot hot reload racing a query: the query pins either the old or
/// the new state; after the reload joins, the epoch has advanced and
/// queries against the same-content snapshot still answer correctly.
#[test]
fn snapshot_reload_during_query_under_shuttle() {
    Builder::new()
        .shuttle(24, 0xBEEF, || {
            let engine = Arc::new(tiny_engine());
            let q = tiny_query(&engine);
            let mut snapshot = Vec::new();
            engine.save_snapshot(&mut snapshot).unwrap();
            let epoch_before = engine.graph_epoch();
            let reloader = Arc::clone(&engine);
            let t = thread::spawn(move || {
                reloader.reload_from_snapshot(&snapshot[..]).unwrap();
            });
            let racing = engine.answer(&q, Algorithm::Uis).unwrap();
            assert!(racing.answer, "same-content reload must never flip an answer");
            t.join().unwrap();
            assert!(engine.graph_epoch() > epoch_before, "reload must advance the epoch");
            let after = engine.answer(&q, Algorithm::Uis).unwrap();
            assert!(after.answer);
        })
        .expect("reload shuttle model");
}

// ---------------------------------------------------------------------------
// Group 3: seeded ordering bugs the checker must catch.
// ---------------------------------------------------------------------------

/// A two-cell publication protocol (a stamp guarding a state byte)
/// broken in a configurable way. Split out so both bug tests share the
/// probe logic.
struct BadCache {
    stamp: AtomicU32,
    state: AtomicU8,
}

impl BadCache {
    fn new() -> Self {
        BadCache { stamp: AtomicU32::new(0), state: AtomicU8::new(0) }
    }

    /// Publication with no Release on the stamp.
    fn set_relaxed(&self) {
        // relaxed: INTENTIONALLY WRONG — this is the seeded bug; a stamp
        // that guards another cell must be stored with Release.
        self.state.store(1, Ordering::Relaxed);
        // relaxed: INTENTIONALLY WRONG — see above.
        self.stamp.store(1, Ordering::Relaxed);
    }

    /// Correct orderings, wrong order: the stamp is published *before*
    /// the state it guards.
    fn set_reversed(&self) {
        self.stamp.store(1, Ordering::Release);
        // relaxed: INTENTIONALLY WRONG — the state byte is stored after
        // the stamp that is supposed to guard it.
        self.state.store(1, Ordering::Relaxed);
    }

    /// The reader side: panics when the stamp is visible but the state
    /// byte is stale.
    fn probe(&self) {
        if self.stamp.load(Ordering::Acquire) == 1 {
            // relaxed: sound only when the writer Release-stores the
            // stamp *after* the state.
            assert_eq!(self.state.load(Ordering::Relaxed), 1, "stamped but state is stale");
        }
    }
}

/// Relaxed publication: DFS must find the interleaving where the stamp is
/// visible before the state byte.
#[test]
fn seeded_relaxed_publication_bug_is_caught() {
    let err = Builder::new()
        .check(|| {
            let cache = Arc::new(BadCache::new());
            let writer = Arc::clone(&cache);
            let t = thread::spawn(move || writer.set_relaxed());
            cache.probe();
            t.join().unwrap();
        })
        .expect_err("the relaxed-publication bug must be flagged");
    assert!(err.message.contains("stale"), "unexpected diagnostic: {}", err.message);
}

/// Reversed stores: even with Release/Acquire on the stamp, publishing
/// the stamp before the state is broken — and must be flagged.
#[test]
fn seeded_reversed_store_bug_is_caught() {
    let err = Builder::new()
        .check(|| {
            let cache = Arc::new(BadCache::new());
            let writer = Arc::clone(&cache);
            let t = thread::spawn(move || writer.set_reversed());
            cache.probe();
            t.join().unwrap();
        })
        .expect_err("the reversed-store bug must be flagged");
    assert!(err.message.contains("stale"), "unexpected diagnostic: {}", err.message);
}

/// The same seeded bug under shuttle mode: random schedules find it too
/// (fixed seed, so the failure is reproducible).
#[test]
fn seeded_bug_is_caught_by_shuttle_mode() {
    let err = Builder::new()
        .shuttle(64, 0xDEAD_BEEF, || {
            let cache = Arc::new(BadCache::new());
            let writer = Arc::clone(&cache);
            let t = thread::spawn(move || writer.set_relaxed());
            cache.probe();
            t.join().unwrap();
        })
        .expect_err("shuttle must also find the relaxed-publication bug");
    assert!(err.message.contains("stale"), "unexpected diagnostic: {}", err.message);
}
