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
//! 1. **Exhaustive DFS** over the nastiest small windows: `ScckCache`
//!    set-vs-get, engine update-during-query pinning, a forced INS index
//!    build racing an update, two callers sharing
//!    one search slot with and without a racing `shutdown`, a caller
//!    waiting on zero slots against `shutdown`, a panicking answer
//!    handing its slot to a waiter, histogram record-vs-read.
//! 2. **Seeded shuttle runs** for state spaces too large to exhaust
//!    (snapshot hot reload, an id-permuting reload racing a held
//!    compiled query, and a plan-cache miss racing an update and a
//!    reload).
//! 3. **Seeded-bug demonstrations**: deliberately broken orderings, and a
//!    slot release that forgets its notify, that the checker must flag —
//!    regression tests for the checker itself and living proof the
//!    passing tests above are not vacuous.

#![cfg(kg_loom)]

use kgreach::constraint::{ScckCache, SubstructureConstraint, INLINE_SLOTS};
use kgreach::{Algorithm, LscrEngine, LscrQuery, QueryError, QueryOptions};
use kgreach_graph::{GraphBuilder, UpdateBatch, VertexId};
use kgreach_integration::answer;
use kgreach_serve::{BatchConfig, Batcher, Json, LatencyHistogram, QueryRequest, ServerMetrics};
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
            let _racing = answer(&engine, &q, Algorithm::Uis).unwrap();
            t.join().unwrap();
            // Post-join query: the deletion must be fully visible.
            let after = answer(&engine, &q, Algorithm::Uis).unwrap();
            assert!(!after.answer, "deleted edge still reachable after update joined");
        })
        .expect("update-during-query model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// A forced INS query racing an update: the query builds its index
/// outside every engine lock, into its pin's index cell if that pin is
/// still served, while the update swaps in a state with an empty cell.
/// The racing answer is the oracle's on its pin, and after the join the
/// served index is absent or built for the served graph.
#[test]
fn a_forced_ins_build_racing_an_update_answers_on_its_pin() {
    let builder = Builder { preemption_bound: Some(2), ..Builder::new() };
    let stats = builder
        .check(|| {
            let engine = Arc::new(tiny_engine());
            let updater = Arc::clone(&engine);
            let t = thread::spawn(move || {
                let mut batch = UpdateBatch::new();
                batch.delete("a", "likes", "b");
                updater.apply_update(&batch).unwrap();
            });
            let (pin, query, _) = engine
                .compile_text("SELECT ?x WHERE { ?x <likes> <b> . }", |g| {
                    let v = |name| g.vertex_id(name).unwrap();
                    Ok::<_, QueryError>((v("a"), v("b"), g.all_labels()))
                })
                .unwrap();
            let opts = QueryOptions::default();
            let out = engine.session().answer_compiled(&pin, &query, Algorithm::Ins, &opts);
            assert_eq!(out.unwrap().answer, kgreach::oracle::answer(&pin, &query).answer);
            t.join().unwrap();
            if let Some(index) = engine.local_index_if_built() {
                let served = engine.graph().fingerprint();
                assert_eq!(index.graph_fingerprint(), served, "an index for a replaced graph");
            }
        })
        .expect("forced INS build vs update model");
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
    /// The model's search slots: the bound on the scratches it keeps.
    workers: usize,
    /// Answers running right now — must never exceed `workers`.
    in_flight: AtomicUsize,
    /// Set once `shutdown` has returned: no answer may begin after it.
    closed: AtomicBool,
}

/// A `Batcher` with `workers` slots whose answers are the probe's: they
/// cost a few scheduling points instead of an engine search, which is
/// what keeps a DFS over the admission / slot / wake-up protocol around
/// them affordable. Source `boom` unwinds out of the answer; anything
/// else answers `null`. The probe checks the slot invariant on the way
/// in; how many answers ran is `batched_queries_total`.
fn slot_model(workers: usize) -> (Arc<Batcher>, Arc<ServerMetrics>, Arc<SlotWatch>) {
    let metrics = Arc::new(ServerMetrics::new());
    let config =
        BatchConfig { workers, queue_high_water: 4, max_step_budget: None, max_timeout: None };
    let watch = Arc::new(SlotWatch { workers, ..SlotWatch::default() });
    let w = Arc::clone(&watch);
    let batcher = Batcher::start_probed(
        Arc::new(tiny_engine()),
        Arc::clone(&metrics),
        config,
        move |req: &QueryRequest| {
            assert!(!w.closed.load(Ordering::Acquire), "an answer began after shutdown returned");
            let running = w.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            assert!(running <= workers, "{running} answers in flight on {workers} slot(s)");
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
/// preemptions. Three threads with a dozen scheduling points each put the
/// unbounded space out of reach, and every protocol bug these models are
/// after (a lost wake-up, a leaked slot, a waiter `shutdown` forgot) needs
/// one ill-timed switch, not three. The protocol itself, shrunk to one
/// mutex and one condvar, is explored without a bound in
/// `seeded_release_without_notify_is_caught`.
fn slot_model_builder() -> Builder {
    Builder { preemption_bound: Some(2), ..Builder::new() }
}

/// Shuts the model down and checks what `shutdown` promises: no search
/// running, no thread waiting, and (through the probe) none begun later;
/// and that the batcher keeps no more scratches than it has slots.
fn shutdown_and_check(batcher: &Batcher, watch: &SlotWatch) {
    batcher.shutdown();
    assert_eq!(watch.in_flight.load(Ordering::Acquire), 0, "shutdown returned mid-search");
    assert_eq!(batcher.queue_depth(), 0, "shutdown returned with a thread still waiting");
    let idle = batcher.idle_scratch_count();
    assert!(idle <= watch.workers, "{idle} scratches kept for {} slot(s)", watch.workers);
    watch.closed.store(true, Ordering::Release);
}

/// Two callers racing for one slot, with `shutdown` racing both or called
/// once both are answered: each caller gets exactly one result — its
/// answer, or `503 draining` if it arrived after the drain began — at
/// most one answer runs at a time, and `shutdown` returns only once no
/// thread searches or waits. When nothing shuts down in between, both
/// must be answered: a release that failed to wake the waiter would park
/// it for good, and the checker would report the deadlock.
#[test]
fn two_callers_share_one_slot_and_drain_cleanly() {
    for shutdown_races in [false, true] {
        let stats = slot_model_builder()
            .check(move || {
                let (batcher, metrics, watch) = slot_model(1);
                let callers: Vec<_> = (0..2)
                    .map(|_| {
                        let caller = Arc::clone(&batcher);
                        thread::spawn(move || caller.answer(tiny_request("a")))
                    })
                    .collect();
                if shutdown_races {
                    shutdown_and_check(&batcher, &watch);
                }
                let mut answered = 0;
                for caller in callers {
                    match caller.join().unwrap() {
                        Ok(body) => {
                            assert_eq!(body, "null");
                            answered += 1;
                        }
                        Err(err) => assert_eq!((err.status, err.code), (503, "draining")),
                    }
                }
                if !shutdown_races {
                    assert_eq!(answered, 2, "a caller was refused with nothing shutting down");
                    shutdown_and_check(&batcher, &watch);
                }
                assert_eq!(metrics.batched_queries_total.get(), answered);
                assert_eq!(metrics.shed_draining_total.get(), 2 - answered);
            })
            .expect("two-callers model");
        assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
    }
}

/// One caller racing `shutdown`: the query is answered or shed with
/// `503`, never both and never neither; `shutdown` returns only once no
/// search is running — the search runs on the caller's thread, which
/// `shutdown` cannot join — and nothing begins after it.
#[test]
fn in_place_answer_vs_shutdown_drains_the_slot() {
    let stats = slot_model_builder()
        .check(|| {
            let (batcher, metrics, watch) = slot_model(1);
            let in_place = Arc::clone(&batcher);
            let t = thread::spawn(move || in_place.answer(tiny_request("a")));
            shutdown_and_check(&batcher, &watch);
            let answered = match t.join().unwrap() {
                Ok(body) => {
                    assert_eq!(body, "null");
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

/// Zero slots: a caller that waits for a slot none can give racing
/// `shutdown` — refused at admission, or woken by the drain — gets
/// `503 draining` either way, and `shutdown` does not return before it
/// has left.
#[test]
fn a_waiter_with_zero_slots_gets_503_from_shutdown() {
    let stats = Builder::new()
        .check(|| {
            let (batcher, metrics, watch) = slot_model(0);
            let waiter = Arc::clone(&batcher);
            let t = thread::spawn(move || waiter.answer(tiny_request("a")));
            shutdown_and_check(&batcher, &watch);
            let err = t.join().unwrap().expect_err("zero slots answer nothing");
            assert_eq!((err.status, err.code), (503, "draining"));
            assert_eq!(metrics.shed_draining_total.get(), 1);
            assert_eq!(metrics.batched_queries_total.get(), 0);
        })
        .expect("zero-slot shutdown model");
    assert!(stats.executions >= 2, "DFS must explore both orders, got {}", stats.executions);
}

/// A panicking answer racing a healthy query for the one slot: the panic
/// costs its own query a `500` and nothing else — its unwound slot is
/// handed to the waiter (or the waiter would sleep forever and the
/// checker would report the deadlock), and each caller gets exactly one
/// result.
#[test]
fn a_panicking_answer_hands_its_slot_to_a_waiter() {
    let stats = slot_model_builder()
        .check(|| {
            let (batcher, metrics, watch) = slot_model(1);
            let panicking = Arc::clone(&batcher);
            let t = thread::spawn(move || panicking.answer(tiny_request("boom")));
            let healthy = batcher.answer(tiny_request("a"));
            assert_eq!(healthy.expect("the healthy query got a slot"), "null");
            let err = t.join().unwrap().expect_err("the answer panicked");
            assert_eq!((err.status, err.code), (500, "internal"));
            shutdown_and_check(&batcher, &watch);
            assert_eq!(metrics.batched_queries_total.get(), 2);
            assert_eq!(metrics.panics_total.get(), 1);
        })
        .expect("panicking-answer model");
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
            let racing = answer(&engine, &q, Algorithm::Uis).unwrap();
            assert!(racing.answer, "same-content reload must never flip an answer");
            t.join().unwrap();
            assert!(engine.graph_epoch() > epoch_before, "reload must advance the epoch");
            let after = answer(&engine, &q, Algorithm::Uis).unwrap();
            assert!(after.answer);
        })
        .expect("reload shuttle model");
}

/// `a -p-> b -p-> c`, with the triples added in the order of `triples`:
/// the interning order, so the ids.
fn chain_engine(triples: [(&str, &str); 2]) -> LscrEngine {
    let mut b = GraphBuilder::new();
    for (s, t) in triples {
        b.add_triple(s, "p", t);
    }
    LscrEngine::new(b.build().unwrap())
}

/// A snapshot reload to the same triples interned in another order,
/// racing an answer to a compiled query held from before it: the answer
/// reads the one graph it pinned, so it is the old graph's `true` or the
/// typed refusal of the new graph's id space — never `false`, which is
/// what the held ids (`a → c`) mean in the new graph (`b → a`).
#[test]
fn id_permuting_reload_vs_a_held_compiled_query_under_shuttle() {
    Builder::new()
        .shuttle(24, 0x1D5, || {
            let engine = Arc::new(chain_engine([("a", "b"), ("b", "c")]));
            let g = engine.graph();
            let (a, c) = (g.vertex_id("a").unwrap(), g.vertex_id("c").unwrap());
            let s = SubstructureConstraint::parse("SELECT ?x WHERE { ?x <p> <c> . }").unwrap();
            let held = engine.compile(&LscrQuery::new(a, c, g.all_labels(), s)).unwrap();
            let mut snapshot = Vec::new();
            chain_engine([("b", "c"), ("a", "b")]).save_snapshot(&mut snapshot).unwrap();
            let reloader = Arc::clone(&engine);
            let t = thread::spawn(move || {
                reloader.reload_from_snapshot(&snapshot[..]).unwrap();
            });
            let opts = QueryOptions::default();
            let mut session = engine.session();
            match session.answer_compiled(&engine.graph(), &held, Algorithm::Uis, &opts) {
                Ok(out) => assert!(out.answer, "the held ids were read on the permuted graph"),
                Err(QueryError::IdSpaceMismatch) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
            t.join().unwrap();
            let after = session.answer_compiled(&engine.graph(), &held, Algorithm::Uis, &opts);
            assert!(matches!(after, Err(QueryError::IdSpaceMismatch)), "{after:?}");
        })
        .expect("id-permuting reload shuttle model");
}

/// A query that misses the plans on its pin races an update and an
/// id-permuting reload. The plan it compiles is installed only if its pin
/// is still the served graph, so after the join the state holds at most
/// the one plan, bound to the state's graph: a query pinned after the
/// join that finds it (unparsed) finds a plan of its pin's epoch, which
/// its pin's lineage accepts. Each answer, the racing one and the later
/// one, is the oracle's on its own pin.
#[test]
fn a_plan_miss_racing_an_update_and_a_reload_caches_only_for_the_served_graph_under_shuttle() {
    Builder::new()
        .shuttle(24, 0x91A5, || {
            let engine = Arc::new(tiny_engine());
            let mut snapshot = Vec::new();
            let mut b = GraphBuilder::new();
            b.add_triple("b", "likes", "a");
            b.add_triple("a", "likes", "b");
            LscrEngine::new(b.build().unwrap()).save_snapshot(&mut snapshot).unwrap();
            let updater = Arc::clone(&engine);
            let update = thread::spawn(move || {
                let mut batch = UpdateBatch::new();
                batch.delete("a", "likes", "b");
                updater.apply_update(&batch).unwrap();
            });
            let reloader = Arc::clone(&engine);
            let reload = thread::spawn(move || {
                reloader.reload_from_snapshot(&snapshot[..]).unwrap();
            });
            let answer_on_its_pin = || {
                let (pin, query, parsed) = engine
                    .compile_text("SELECT ?x WHERE { ?x <likes> <b> . }", |g| {
                        let v = |name| g.vertex_id(name).unwrap();
                        Ok::<_, QueryError>((v("a"), v("b"), g.all_labels()))
                    })
                    .unwrap();
                let epoch = query.constraint.graph_epoch();
                assert!(parsed || epoch == pin.epoch(), "a plan of epoch {epoch} was cached");
                let opts = QueryOptions::default();
                let out = engine.session().answer_compiled(&pin, &query, Algorithm::Uis, &opts);
                let out = out.expect("a cached plan of another lineage");
                assert_eq!(out.answer, kgreach::oracle::answer(&pin, &query).answer);
            };
            answer_on_its_pin();
            update.join().unwrap();
            reload.join().unwrap();
            assert!(engine.cached_plans() <= 1, "{} plans for one text", engine.cached_plans());
            answer_on_its_pin();
            assert_eq!(engine.cached_plans(), 1, "a query on the served graph caches its plan");
        })
        .expect("plan miss vs update and reload shuttle model");
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

/// The slot protocol of `serve::batch` in miniature — one slot, held, and
/// a caller that counts itself as waiting and sleeps on the condvar until
/// the slot frees — with the release's notify made optional.
struct MiniSlots {
    /// `(running, waiting)`.
    state: Mutex<(usize, usize)>,
    available: Condvar,
}

impl MiniSlots {
    /// The waiter: sleeps while the slot is taken, then takes it.
    fn take(&self) {
        let mut st = self.state.lock().unwrap();
        st.1 += 1;
        while st.0 == 1 {
            st = self.available.wait(st).unwrap();
        }
        *st = (1, st.1 - 1);
    }

    /// The holder: gives the slot back, and wakes a waiter if one is
    /// counted and the release is allowed to.
    fn release(&self, notify_on_release: bool) {
        let mut st = self.state.lock().unwrap();
        st.0 = 0;
        let waiting = st.1 > 0;
        drop(st);
        if notify_on_release && waiting {
            self.available.notify_one();
        }
    }
}

/// Release without notify: a caller that found the slot taken sleeps on
/// the condvar, and a release that does not signal leaves it asleep
/// beside a free slot. The checker must find that schedule — and must
/// pass the same model with the notify in place.
#[test]
fn seeded_release_without_notify_is_caught() {
    let model = |notify_on_release: bool| {
        Builder::new().check(move || {
            let slots =
                Arc::new(MiniSlots { state: Mutex::new((1, 0)), available: Condvar::new() });
            let waiter = Arc::clone(&slots);
            let t = thread::spawn(move || waiter.take());
            slots.release(notify_on_release);
            t.join().unwrap();
        })
    };
    model(true).expect("a release that notifies loses no wake-up");
    let err = model(false).expect_err("the waiter left asleep must be flagged");
    assert!(err.message.contains("deadlock"), "unexpected diagnostic: {}", err.message);
}
