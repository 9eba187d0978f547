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
//!    shutdown-vs-submit, the in-place `/query` route against `submit`,
//!    `shutdown` and a panicking answer, histogram record-vs-read.
//! 2. **Seeded shuttle runs** for state spaces too large to exhaust
//!    (worker-pool drain with a live worker, snapshot hot reload).
//! 3. **Seeded-bug demonstrations**: deliberately broken orderings, and a
//!    slot release that forgets its notify, that the checker must flag —
//!    regression tests for the checker itself and living proof the
//!    passing tests above are not vacuous.

#![cfg(kg_loom)]

use kgreach::constraint::{ScckCache, SubstructureConstraint, INLINE_SLOTS};
use kgreach::{Algorithm, LscrEngine, LscrQuery};
use kgreach_graph::{GraphBuilder, UpdateBatch, VertexId};
use kgreach_serve::{
    ApiError, BatchConfig, Batcher, Json, LatencyHistogram, QueryRequest, ServerMetrics,
};
use kgreach_sync::atomic::{AtomicBool, AtomicU32, AtomicU8, AtomicUsize, Ordering};
use kgreach_sync::{thread, Arc, Condvar, Mutex};
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
/// and the join must make the entry visible. Each entry is one atomic
/// word or byte, so there is no second cell to publish. Both writes race
/// for the inline slots, claimed through one counter; with the inline
/// slots full (`paged`) they race to allocate the page table and the page,
/// each ordered by its `OnceLock`, which this explores too. The seeded-bug
/// tests below show what the checker does to a protocol that *does* need
/// a publication edge and lacks it.
#[test]
fn scck_cache_publication_is_exhaustively_safe() {
    // Each get scans the inline slots, one scheduling point apiece: bound
    // the preemptions to keep the space exhaustible.
    let builder = Builder { preemption_bound: Some(3), ..Builder::new() };
    for paged in [false, true] {
        let stats = builder
            .check(move || {
                let cache = Arc::new(ScckCache::new(4));
                if paged {
                    for _ in 0..INLINE_SLOTS {
                        cache.set(VertexId(3), false);
                    }
                }
                let writer = Arc::clone(&cache);
                let t = thread::spawn(move || writer.set(VertexId(1), true));
                cache.set(VertexId(2), false);
                match cache.get(VertexId(1)) {
                    // Unknown (store not yet visible) or the written value.
                    None | Some(true) => {}
                    Some(false) => panic!("stamped slot observed with a stale state"),
                }
                t.join().unwrap();
                assert_eq!(cache.get(VertexId(1)), Some(true), "join must publish the entry");
                assert_eq!(cache.get(VertexId(2)), Some(false), "a racing write lost the entry");
            })
            .expect("scck publication model");
        assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
    }
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
            let t = thread::spawn(move || submitter.submit(tiny_request("a")));
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

/// A wire query on the tiny graph; the slot models below key their probe
/// on `source`.
fn tiny_request(source: &str) -> QueryRequest {
    QueryRequest {
        source: source.into(),
        target: "b".into(),
        labels: None,
        constraint: "SELECT ?x WHERE { ?x <likes> <b> . }".into(),
        algorithm: Algorithm::Auto,
        witness: false,
        step_budget: None,
        timeout_ms: None,
    }
}

/// What the slot models watch from outside the `Batcher`.
#[derive(Default)]
struct SlotWatch {
    /// Answers running right now — must never exceed `workers`.
    in_flight: AtomicUsize,
    /// Set once `shutdown` has returned: no answer may begin after it.
    closed: AtomicBool,
}

/// A one-slot, one-worker `Batcher` whose answers are the probe's: they
/// cost a few scheduling points instead of an engine search, which is
/// what keeps a DFS over the admission / slot / wake-up protocol around
/// them affordable. Source `boom` unwinds out of the answer; anything
/// else answers `null`. The probe checks the slot invariant on the way
/// in; how many answers ran is `batched_queries_total`.
fn slot_model() -> (Arc<Batcher>, Arc<ServerMetrics>, Arc<SlotWatch>) {
    const WORKERS: usize = 1;
    let metrics = Arc::new(ServerMetrics::new());
    let config = BatchConfig {
        workers: WORKERS,
        queue_high_water: 4,
        max_step_budget: None,
        max_timeout: None,
    };
    let watch = Arc::new(SlotWatch::default());
    let w = Arc::clone(&watch);
    let batcher = Batcher::start_probed(
        Arc::new(tiny_engine()),
        Arc::clone(&metrics),
        config,
        move |req: &QueryRequest| {
            assert!(!w.closed.load(Ordering::Acquire), "an answer began after shutdown returned");
            let running = w.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            assert!(running <= WORKERS, "{running} answers in flight on {WORKERS} slot(s)");
            w.in_flight.fetch_sub(1, Ordering::AcqRel);
            if req.source == "boom" {
                // `resume_unwind` is a panic that skips the panic hook:
                // the same unwind, without a message per explored schedule.
                std::panic::resume_unwind(Box::new("seeded panic in an answer"));
            }
            Some(Ok(Json::Null))
        },
    );
    (batcher, metrics, watch)
}

/// DFS over every schedule of the slot models with at most two
/// preemptions. Three threads (in-place caller, submitter, worker) with a
/// dozen scheduling points each put the unbounded space out of reach —
/// bound 3 is already ~71 k executions and four minutes per model — and
/// every protocol bug these models are after (a lost wake-up, a leaked
/// slot, a reply sent twice) needs one ill-timed switch, not three. The
/// protocol itself, shrunk to one mutex and one condvar, is explored
/// without a bound in `seeded_release_without_notify_is_caught`.
fn slot_model_builder() -> Builder {
    Builder { preemption_bound: Some(2), ..Builder::new() }
}

/// Shuts the model down and checks what `shutdown` promises: no search
/// running, nothing queued, and (through the probe) none begun later.
fn shutdown_and_check(batcher: &Batcher, watch: &SlotWatch) {
    batcher.shutdown();
    assert_eq!(watch.in_flight.load(Ordering::Acquire), 0, "shutdown returned mid-search");
    assert_eq!(batcher.queue_depth(), 0, "shutdown must leave the queue empty");
    watch.closed.store(true, Ordering::Release);
}

/// Exactly one reply: the first `recv` yields it, the channel then ends.
fn the_one_reply(
    rx: kgreach_sync::mpsc::Receiver<Result<Json, ApiError>>,
) -> Result<Json, ApiError> {
    let reply = rx.recv().expect("an admitted query must be answered");
    assert!(rx.recv().is_err(), "an admitted query was answered twice");
    reply
}

/// The in-place route racing the queue route for the one slot: whoever
/// wins, at most one answer runs at a time, both queries are answered
/// exactly once, and the queued one is never left waiting beside a free
/// slot (a lost wake-up would park the worker for good and the checker
/// would report the deadlock).
#[test]
fn in_place_answer_vs_submit_shares_one_slot() {
    let stats = slot_model_builder()
        .check(|| {
            let (batcher, metrics, watch) = slot_model();
            let in_place = Arc::clone(&batcher);
            let t = thread::spawn(move || in_place.answer(tiny_request("a")));
            let rx = batcher.submit(tiny_request("a")).expect("nothing sheds at depth 1");
            assert_eq!(the_one_reply(rx).expect("probe answer"), Json::Null);
            assert_eq!(t.join().unwrap().expect("probe answer"), Json::Null);
            shutdown_and_check(&batcher, &watch);
            assert_eq!(metrics.batched_queries_total.get(), 2);
            assert_eq!(metrics.panics_total.get(), 0);
        })
        .expect("in-place vs submit model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// The in-place route racing `shutdown`: the query is answered or shed
/// with `503`, never both and never neither; `shutdown` returns only once
/// no search is running — also when the search runs on the caller's
/// thread, which `shutdown` cannot join — and nothing begins after it.
#[test]
fn in_place_answer_vs_shutdown_drains_the_slot() {
    let stats = slot_model_builder()
        .check(|| {
            let (batcher, metrics, watch) = slot_model();
            let in_place = Arc::clone(&batcher);
            let t = thread::spawn(move || in_place.answer(tiny_request("a")));
            shutdown_and_check(&batcher, &watch);
            let answered = match t.join().unwrap() {
                Ok(body) => {
                    assert_eq!(body, Json::Null);
                    1
                }
                Err(err) => {
                    assert_eq!(err.status, 503);
                    0
                }
            };
            assert_eq!(metrics.batched_queries_total.get(), answered);
            assert_eq!(metrics.shed_draining_total.get(), 1 - answered);
        })
        .expect("in-place vs shutdown model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// A panicking answer on either route racing a healthy query on the
/// other: the panic costs its own query a `500` and nothing else — the
/// slot comes back (or the healthy query would wait forever), the worker
/// survives, and each query still gets exactly one reply.
#[test]
fn a_panicking_answer_releases_its_slot_on_either_route() {
    for (in_place_source, queued_source) in [("boom", "a"), ("a", "boom")] {
        let stats = slot_model_builder()
            .check(move || {
                let (batcher, metrics, watch) = slot_model();
                let in_place = Arc::clone(&batcher);
                let t = thread::spawn(move || in_place.answer(tiny_request(in_place_source)));
                let rx = batcher.submit(tiny_request(queued_source)).expect("nothing sheds");
                let replies =
                    [(queued_source, the_one_reply(rx)), (in_place_source, t.join().unwrap())];
                for (source, reply) in replies {
                    match (source, reply) {
                        ("boom", Err(err)) => assert_eq!((err.status, err.code), (500, "internal")),
                        ("a", Ok(body)) => assert_eq!(body, Json::Null),
                        (source, reply) => panic!("query '{source}' got {reply:?}"),
                    }
                }
                shutdown_and_check(&batcher, &watch);
                assert_eq!(metrics.batched_queries_total.get(), 2);
                assert_eq!(metrics.panics_total.get(), 1);
            })
            .expect("panicking-answer model");
        assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
    }
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
            let submitted =
                batcher.submit(QueryRequest { algorithm: Algorithm::Uis, ..tiny_request("a") });
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

/// The slot protocol of `serve::batch` in miniature — one slot, one queued
/// job, one worker waiting for "a job **and** a free slot" — with the
/// release's notify made optional.
struct MiniSlots {
    /// `(running, queued)`.
    state: Mutex<(usize, bool)>,
    available: Condvar,
}

impl MiniSlots {
    /// The worker: blocks until the job is queued and the slot is free,
    /// then takes both.
    fn take_job(&self) {
        let mut st = self.state.lock().unwrap();
        while !(st.1 && st.0 == 0) {
            st = self.available.wait(st).unwrap();
        }
        *st = (1, false);
    }

    /// The in-place route: holds the slot while a job is queued behind
    /// it, then gives the slot back.
    fn hold_enqueue_release(&self, notify_on_release: bool) {
        self.state.lock().unwrap().0 = 1;
        self.state.lock().unwrap().1 = true;
        self.available.notify_one();
        self.state.lock().unwrap().0 = 0;
        if notify_on_release {
            self.available.notify_one();
        }
    }
}

/// Release without notify: the worker that woke for the queued job while
/// the slot was still held goes back to waiting, and a release that does
/// not signal leaves it there beside a free slot. The checker must find
/// that schedule — and must pass the same model with the notify in place.
#[test]
fn seeded_release_without_notify_is_caught() {
    let model = |notify_on_release: bool| {
        Builder::new().check(move || {
            let slots =
                Arc::new(MiniSlots { state: Mutex::new((0, false)), available: Condvar::new() });
            let worker = Arc::clone(&slots);
            let t = thread::spawn(move || worker.take_job());
            slots.hold_enqueue_release(notify_on_release);
            t.join().unwrap();
        })
    };
    model(true).expect("a release that notifies loses no wake-up");
    let err = model(false).expect_err("the lost wake-up must be flagged");
    assert!(err.message.contains("deadlock"), "unexpected diagnostic: {}", err.message);
}
