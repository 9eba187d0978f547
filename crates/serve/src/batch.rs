//! Admission and the search slots.
//!
//! [`BatchConfig::workers`] is the number of searches that may run at
//! once. Every query is answered **on the thread that read its request**
//! ([`Batcher::answer`]): resolve → plan lookup → search → write, with no
//! queue, no channel and no second thread. A query that finds one of the
//! slots free, and no thread waiting for one, takes it at once. Otherwise
//! its thread waits on a condvar until a slot frees, and then answers in
//! place. The waiting threads are counted, not queued: they are not
//! ordered among themselves, and whichever the release wakes takes the
//! slot.
//!
//! The members of a `/query_batch` are answered in input order on the
//! request's thread ([`Batcher::answer_many`]); each takes a slot the same
//! way and gives it back before the next, so a batch holds at most one
//! slot at a time.
//!
//! A search's [`kgreach::SearchScratch`] belongs to its **slot**, not to
//! the thread or the connection: taking a slot takes an idle scratch, and
//! releasing it puts the scratch back, both under the queue mutex the
//! slot takes anyway. A slot that finds none idle allocates one, sized to
//! the query's pinned graph. An idle connection holds none, so live
//! scratches are bounded by `workers` however many connections are open.
//!
//! A panic inside an answer costs that query a `500 internal` and one
//! `kg_panics_total`, and its scratch, which is dropped half-written
//! instead of reused; its slot is released by a drop guard, which wakes
//! a waiter, and the thread carries on.
//!
//! Admission is one rule for both routes: `503` while draining; `413` for
//! a batch that could never fit; then depth-based shedding — a request
//! that would have to wait while [`BatchConfig::queue_high_water`] threads
//! already do is shed with `429` + `Retry-After` instead of waiting
//! without bound (tail latency past the high water is already worse than
//! a retry). [`Batcher::shutdown`] refuses new requests with `503`, lets
//! admitted ones finish, and returns once no thread searches or waits.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{outcome_text, ApiError, QueryRequest};
use kgreach::{LscrEngine, SearchScratch, Session};
use kgreach_sync::mpsc;
use kgreach_sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Search-slot and admission tuning (see `docs/OPERATIONS.md`).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Searches that may run at once. `0` is allowed (nothing is ever
    /// answered) and only useful in tests.
    pub workers: usize,
    /// Threads waiting for a slot beyond which new queries are shed with
    /// `429`.
    pub queue_high_water: usize,
    /// Server-side ceiling on per-query scanned edges (clients may ask
    /// for less, never more).
    pub max_step_budget: Option<u64>,
    /// Server-side ceiling on per-query wall-clock time.
    pub max_timeout: Option<Duration>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_high_water: 256,
            max_step_budget: Some(50_000_000),
            max_timeout: Some(Duration::from_secs(5)),
        }
    }
}

#[derive(Default)]
struct SlotState {
    /// Searches running right now; never above `workers`.
    running: usize,
    /// Threads waiting for a slot (`kg_queue_depth`).
    waiting: usize,
    draining: bool,
    /// Scratches no running search holds. Each running slot holds at
    /// most one more, so `idle.len() + running <= workers`.
    idle: Vec<SearchScratch>,
}

/// Test seam: consulted at the top of every answer. `Some` is the answer
/// (the engine is not asked); it may also block or panic.
#[cfg(any(test, kg_loom))]
type Probe = Box<dyn Fn(&QueryRequest) -> Option<Result<Json, ApiError>> + Send + Sync>;

/// Admission and the search slots.
pub struct Batcher {
    state: Mutex<SlotState>,
    /// Signalled when a slot frees with threads waiting, when draining
    /// starts, and, while draining, whenever a search ends or a waiter
    /// leaves.
    available: Condvar,
    config: BatchConfig,
    engine: Arc<LscrEngine>,
    metrics: Arc<ServerMetrics>,
    #[cfg(any(test, kg_loom))]
    probe: Option<Probe>,
}

/// One of the `workers` search slots, held for the length of one answer,
/// with the scratch its search runs on. Released on drop, so an unwinding
/// thread cannot leak it.
struct Slot<'a> {
    batcher: &'a Batcher,
    /// `None` when the slot found no idle scratch, or its search panicked.
    scratch: Option<SearchScratch>,
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut st = self.batcher.slots();
        st.running -= 1;
        st.idle.extend(self.scratch.take());
        let (draining, waiting) = (st.draining, st.waiting > 0);
        drop(st);
        if draining {
            // `shutdown` may be waiting for the last search as well.
            self.batcher.available.notify_all();
        } else if waiting {
            // Only waiters for a slot wait before draining, and any one
            // will do.
            self.batcher.available.notify_one();
        }
    }
}

fn draining() -> ApiError {
    ApiError::new(503, "draining", "server is shutting down")
}

impl Batcher {
    /// Creates the admission state. No thread is started: every query is
    /// answered on its caller's thread. The server calls it too, and would
    /// build the state directly without it.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn start(
        engine: Arc<LscrEngine>,
        metrics: Arc<ServerMetrics>,
        config: BatchConfig,
    ) -> Arc<Batcher> {
        Arc::new(Self::new(engine, metrics, config))
    }

    /// [`start`](Self::start) with a closure consulted at the top of
    /// every answer: `Some` replaces the engine's answer, and the closure
    /// may block or panic. Exists only for this crate's tests and the
    /// `kg_loom` model check.
    #[cfg(any(test, kg_loom))]
    #[doc(hidden)]
    pub fn start_probed(
        engine: Arc<LscrEngine>,
        metrics: Arc<ServerMetrics>,
        config: BatchConfig,
        probe: impl Fn(&QueryRequest) -> Option<Result<Json, ApiError>> + Send + Sync + 'static,
    ) -> Arc<Batcher> {
        let mut batcher = Self::new(engine, metrics, config);
        batcher.probe = Some(Box::new(probe));
        Arc::new(batcher)
    }

    fn new(engine: Arc<LscrEngine>, metrics: Arc<ServerMetrics>, config: BatchConfig) -> Batcher {
        Batcher {
            state: Mutex::new(SlotState::default()),
            available: Condvar::new(),
            config,
            engine,
            metrics,
            #[cfg(any(test, kg_loom))]
            probe: None,
        }
    }

    /// The slot state. A poisoned lock is recovered: the counts and the
    /// idle scratches are valid after every statement under it, so a
    /// thread that panicked holding it left nothing half-done, and `Slot`'s
    /// drop, which must not panic, can always give its slot back.
    fn slots(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits on `available` with `st`, a guard from [`slots`](Self::slots),
    /// under the same rule.
    fn wait<'a>(&self, st: MutexGuard<'a, SlotState>) -> MutexGuard<'a, SlotState> {
        self.available.wait(st).unwrap_or_else(PoisonError::into_inner)
    }

    /// Answers one query on the calling thread, as its response text: at
    /// once if a search slot is free and no thread waits for one,
    /// otherwise after waiting for a slot. Refusals are
    /// [`answer_many`](Self::answer_many)'s.
    pub fn answer(&self, req: QueryRequest) -> Result<String, ApiError> {
        let arrived = Instant::now();
        let mut slot = self.slot(self.admit(1)?)?;
        self.run(&req, arrived, &mut slot)
    }

    /// Answers a batch on the calling thread, in input order, each member
    /// in a slot of its own taken and released in turn. The batch is
    /// admitted once, as one request, or refused whole — partial admission
    /// would turn one client batch into a mix of answers and `429`s that
    /// the client can only retry wholesale anyway. Refusals, in order:
    /// `503` while draining, `413` for a batch larger than
    /// [`BatchConfig::queue_high_water`] (no retry can succeed, so it must
    /// not be told to retry), `429` when the request would have to wait
    /// and the high water's worth of threads already do. An admitted
    /// member fails on its own only with its answer's error, or with `503`
    /// when the server drains with zero `workers`.
    pub fn answer_many(
        &self,
        reqs: &[QueryRequest],
    ) -> Result<Vec<Result<String, ApiError>>, ApiError> {
        let arrived = Instant::now();
        drop(self.admit(reqs.len())?);
        Ok(reqs
            .iter()
            .map(|req| {
                let mut slot = self.slot(self.slots())?;
                self.run(req, arrived, &mut slot)
            })
            .collect())
    }

    /// [`answer_many`](Self::answer_many) for one query, with its answer
    /// handed back through a channel that already holds it: the query is
    /// answered on the calling thread before this returns, and its
    /// response text parsed into a tree. Nothing in this crate calls it.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn submit(
        &self,
        req: QueryRequest,
    ) -> Result<mpsc::Receiver<Result<Json, ApiError>>, ApiError> {
        let answer = self.answer_many(std::slice::from_ref(&req))?.pop();
        let answer = answer.expect("one answer per query");
        let (tx, rx) = mpsc::channel();
        let _ = tx.send(answer.map(|text| Json::parse(&text).expect("answers are valid JSON")));
        Ok(rx)
    }

    /// Admission, one rule for both routes (see
    /// [`answer_many`](Self::answer_many)): locks the state for a request
    /// of `n` queries, or refuses it.
    fn admit(&self, n: usize) -> Result<MutexGuard<'_, SlotState>, ApiError> {
        let st = self.slots();
        if st.draining {
            self.metrics.shed_draining_total.add(n as u64);
            return Err(draining());
        }
        let high_water = self.config.queue_high_water;
        // A lone query is never "too large": with a high water of 0 it
        // is shed like any other.
        if n > 1 && n > high_water {
            return Err(ApiError::new(
                413,
                "batch_too_large",
                format!(
                    "a batch of {n} queries can never fit the admission queue's high water \
                     of {high_water}; split it"
                ),
            ));
        }
        let must_wait = st.waiting > 0 || st.running >= self.config.workers;
        if must_wait && st.waiting >= high_water {
            self.metrics.shed_queue_full_total.add(n as u64);
            return Err(ApiError::new(
                429,
                "overloaded",
                format!("admission queue is past its high water of {high_water}; retry later"),
            ));
        }
        Ok(st)
    }

    /// Takes a search slot and an idle scratch if there is one, waiting
    /// on the calling thread while all `workers` are taken. Fails with
    /// `503` only when no slot can ever come: draining with zero
    /// `workers`.
    fn slot<'a>(&'a self, mut st: MutexGuard<'a, SlotState>) -> Result<Slot<'a>, ApiError> {
        let workers = self.config.workers;
        if st.running >= workers {
            st.waiting += 1;
            self.metrics.queue_depth.set(st.waiting as u64);
            while st.running >= workers && !(workers == 0 && st.draining) {
                st = self.wait(st);
            }
            st.waiting -= 1;
            self.metrics.queue_depth.set(st.waiting as u64);
            if st.running >= workers {
                drop(st);
                // `shutdown` may be waiting for the last waiter to leave.
                self.available.notify_all();
                self.metrics.shed_draining_total.add(1);
                return Err(draining());
            }
        }
        st.running += 1;
        Ok(Slot { batcher: self, scratch: st.idle.pop() })
    }

    /// Threads waiting for a search slot right now (for tests and
    /// introspection).
    pub fn queue_depth(&self) -> usize {
        self.slots().waiting
    }

    /// Scratches held by no running search. Exists only for this crate's
    /// tests and the `kg_loom` model check.
    #[cfg(any(test, kg_loom))]
    #[doc(hidden)]
    pub fn idle_scratch_count(&self) -> usize {
        self.slots().idle.len()
    }

    /// Refuses new requests with `503`, and returns once no search runs
    /// and no thread waits for a slot. Admitted queries are still
    /// answered — with zero `workers` the waiters give up with `503`
    /// instead — and a batch admitted before the drain answers its
    /// remaining members even after this returns.
    pub fn shutdown(&self) {
        let mut st = self.slots();
        st.draining = true;
        self.available.notify_all();
        while st.running > 0 || st.waiting > 0 {
            st = self.wait(st);
        }
    }

    /// Answers one admitted query in the `slot` its caller holds. A panic
    /// below is caught here and costs this query a `500`, not the thread.
    fn run(
        &self,
        req: &QueryRequest,
        since: Instant,
        slot: &mut Slot<'_>,
    ) -> Result<String, ApiError> {
        // One query per slot taken: the two counters move together (see
        // their docs in `metrics.rs`).
        self.metrics.batch_windows_total.add(1);
        self.metrics.batched_queries_total.add(1);
        // Unwind safety: the closure shares the engine and the metrics,
        // and the slot's scratch only while no search holds it: a search
        // takes it out of the slot into its session, and an unwinding
        // search drops that session and its half-written scratch with it,
        // so the slot gives back none. A lock the panic poisoned stays
        // usable: the engine's accessors and `slots` recover it.
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, kg_loom))]
            if let Some(reply) = self.probe.as_ref().and_then(|probe| probe(req)) {
                return reply.map(|json| json.to_string());
            }
            self.search(req, slot)
        }))
        .unwrap_or_else(|_| {
            self.metrics.panics_total.add(1);
            Err(ApiError::new(500, "internal", "the query panicked; see the server log"))
        });
        self.metrics.query_latency.record(since.elapsed());
        result
    }

    /// Resolves and answers one query on one graph, on the `slot`'s
    /// scratch (or a new one sized to the graph), and writes its response
    /// text. The scratch goes back to the slot when the query is answered.
    ///
    /// The served graph is pinned once, by
    /// [`LscrEngine::compile_text`], in the same state read that looks the
    /// constraint text up among its plans (the text is parsed only when no
    /// plan has it as its key): names resolve to ids on the pin, and the
    /// search, the witness and the rendered names all read it. An update
    /// or a snapshot reload that lands meanwhile serves the next query;
    /// this one is answered, correctly, for the graph that was current
    /// when it started.
    fn search(&self, req: &QueryRequest, slot: &mut Slot<'_>) -> Result<String, ApiError> {
        let answered = self
            .engine
            .compile_text(&req.constraint, |g| req.resolve_names(g))
            .and_then(|(g, query, parsed)| {
                if parsed {
                    self.metrics.constraint_parses_total.add(1);
                }
                let scratch =
                    slot.scratch.take().unwrap_or_else(|| SearchScratch::new(g.num_vertices()));
                let mut session = Session::new(&self.engine, scratch);
                let opts = req.options(self.config.max_step_budget, self.config.max_timeout);
                let out = session.answer_compiled(&g, &query, req.algorithm, &opts);
                slot.scratch = Some(session.into_scratch());
                Ok((g, out?))
            });
        match answered {
            Ok((g, out)) => {
                self.metrics.record_outcome(&out.stats, out.interrupted);
                Ok(outcome_text(&g, &out))
            }
            Err(e) => {
                self.metrics.query_errors_total.add(1);
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach::fixtures::figure3;
    use kgreach::Algorithm;
    use std::thread::ThreadId;

    fn req(source: &str, target: &str) -> QueryRequest {
        QueryRequest {
            source: source.into(),
            target: target.into(),
            labels: Some(vec!["likes".into(), "follows".into()]),
            constraint: "SELECT ?x WHERE { ?x <friendOf> <v3> . <v3> <likes> ?y . }".into(),
            algorithm: Algorithm::Auto,
            witness: false,
            step_budget: None,
            timeout_ms: None,
        }
    }

    fn start(workers: usize, high_water: usize) -> (Arc<Batcher>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::new());
        let config =
            BatchConfig { workers, queue_high_water: high_water, ..BatchConfig::default() };
        let engine = Arc::new(LscrEngine::new(figure3()));
        (Batcher::start(engine, Arc::clone(&metrics), config), metrics)
    }

    #[test]
    fn typed_errors_come_back_through_the_queue() {
        let (batcher, metrics) = start(1, 64);
        let rx = batcher.submit(req("nope", "v4")).expect("admitted");
        let err = rx.recv().expect("one reply").expect_err("unknown vertex");
        assert_eq!((err.status, err.code), (404, "unknown_vertex"));
        assert_eq!(metrics.query_errors_total.get(), 1);
        batcher.shutdown();
    }

    #[test]
    fn queue_past_high_water_sheds_with_429() {
        // Zero workers: nothing is ever answered, so the waiters stay put
        // and the depth is exact.
        let (batcher, metrics) = start(0, 2);
        // A batch that could not fit an empty queue is refused for good,
        // not shed: no retry could ever succeed.
        let batch = |n: usize| (0..n).map(|_| req("v0", "v4")).collect::<Vec<_>>();
        let err = batcher.answer_many(&batch(3)).expect_err("can never fit");
        assert_eq!((err.status, err.code), (413, "batch_too_large"));
        assert_eq!(metrics.shed_queue_full_total.get(), 0);
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| batcher.answer(req("v0", "v4")).expect_err("drained")))
                .collect();
            while batcher.queue_depth() < 2 {
                std::thread::yield_now();
            }
            let err = batcher.answer(req("v0", "v4")).expect_err("past high water");
            assert_eq!((err.status, err.code), (429, "overloaded"));
            // A batch is admitted as one request, and shed as one.
            let err = batcher.answer_many(&batch(2)).expect_err("still full");
            assert_eq!((err.status, err.code), (429, "overloaded"));
            assert_eq!(metrics.shed_queue_full_total.get(), 3);
            assert_eq!(metrics.queue_depth.get(), 2);
            batcher.shutdown();
            for waiter in waiters {
                let err = waiter.join().unwrap();
                assert_eq!((err.status, err.code), (503, "draining"));
            }
        });
        assert_eq!(metrics.shed_draining_total.get(), 2, "drained unanswered");
        assert_eq!(metrics.queue_depth.get(), 0);
        // Draining outranks the size check.
        let err = batcher.answer_many(&batch(3)).expect_err("draining");
        assert_eq!((err.status, err.code), (503, "draining"));

        // A lone query at high water 0 is shed, never told to split.
        let (batcher, _metrics) = start(0, 0);
        let err = batcher.submit(req("v0", "v4")).expect_err("nothing fits");
        assert_eq!((err.status, err.code), (429, "overloaded"));
        batcher.shutdown();
    }

    #[test]
    fn draining_rejects_new_work_and_answers_admitted_work() {
        let (batcher, _metrics) = start(1, 64);
        let rx = batcher.submit(req("v0", "v4")).expect("admitted");
        batcher.shutdown();
        let body = rx.recv().expect("reply delivered").expect("answered before shutdown");
        assert!(body.to_string().contains("\"answer\":true"));
        let err = batcher.submit(req("v0", "v4")).expect_err("draining");
        assert_eq!((err.status, err.code), (503, "draining"));
    }

    impl Batcher {
        fn running(&self) -> usize {
            self.slots().running
        }
    }

    /// One answer: the query's `source` and the thread it ran on.
    type RanOn = (String, ThreadId);

    /// A batcher whose probe panics on source `boom`, parks on source
    /// `block` (announcing itself on `entered` first) until `release`
    /// fires, and logs which thread ran each query.
    struct Probed {
        batcher: Arc<Batcher>,
        metrics: Arc<ServerMetrics>,
        ran_on: Arc<Mutex<Vec<RanOn>>>,
        release: mpsc::Sender<()>,
        entered: mpsc::Receiver<()>,
    }

    fn start_probed(workers: usize) -> Probed {
        let metrics = Arc::new(ServerMetrics::new());
        let config = BatchConfig { workers, queue_high_water: 64, ..BatchConfig::default() };
        let engine = Arc::new(LscrEngine::new(figure3()));
        let ran_on = Arc::new(Mutex::new(Vec::new()));
        let (release, release_rx) = mpsc::channel::<()>();
        let (entered_tx, entered) = mpsc::channel::<()>();
        let (release_rx, entered_tx) = (Mutex::new(release_rx), Mutex::new(entered_tx));
        let log = Arc::clone(&ran_on);
        let batcher = Batcher::start_probed(
            engine,
            Arc::clone(&metrics),
            config,
            move |req: &QueryRequest| {
                log.lock().unwrap().push((req.source.clone(), std::thread::current().id()));
                match req.source.as_str() {
                    "boom" => panic!("seeded panic in an answer"),
                    "block" => {
                        entered_tx.lock().unwrap().send(()).unwrap();
                        release_rx.lock().unwrap().recv().unwrap();
                    }
                    _ => {}
                }
                None
            },
        );
        Probed { batcher, metrics, ran_on, release, entered }
    }

    #[test]
    fn sequential_queries_are_answered_on_the_calling_thread() {
        let Probed { batcher, metrics, ran_on, .. } = start_probed(2);
        let me = std::thread::current().id();
        for _ in 0..20 {
            let body = batcher.answer(req("v0", "v4")).expect("query ok");
            assert!(body.contains("\"answer\":true"), "{body}");
            assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        }
        assert!(ran_on.lock().unwrap().iter().all(|(_, thread)| *thread == me));
        // Typed errors come back the same way.
        let err = batcher.answer(req("nope", "v4")).expect_err("unknown vertex");
        assert_eq!((err.status, err.code), (404, "unknown_vertex"));
        assert_eq!(metrics.query_errors_total.get(), 1);
        assert_eq!(metrics.queries_total.get(), 20);
        assert_eq!(metrics.batch_windows_total.get(), 21);
        assert_eq!(metrics.batched_queries_total.get(), 21);
        assert_eq!(metrics.query_latency.count(), 21);
        batcher.shutdown();
        assert_eq!(batcher.answer(req("v0", "v4")).expect_err("draining").status, 503);
        assert_eq!(metrics.shed_draining_total.get(), 1);
    }

    #[test]
    fn answers_a_batch_in_order_on_the_calling_thread() {
        let Probed { batcher, metrics, ran_on, .. } = start_probed(2);
        let sources = ["v0", "v1", "nope", "v0"];
        let reqs: Vec<_> = sources.iter().map(|s| req(s, "v4")).collect();
        let results = batcher.answer_many(&reqs).expect("admitted");
        // Per-member failures come back in place, in input order.
        assert_eq!(results.len(), 4);
        assert_eq!(results[2].as_ref().expect_err("unknown vertex").code, "unknown_vertex");
        for i in [0, 1, 3] {
            assert!(results[i].is_ok(), "member {i}: {:?}", results[i]);
        }
        let me = std::thread::current().id();
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(), sources);
        assert!(ran_on.iter().all(|(_, thread)| *thread == me));
        assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        assert_eq!(metrics.batched_queries_total.get(), 4);
        assert_eq!(metrics.query_latency.count(), 4);
        batcher.shutdown();
    }

    #[test]
    fn a_query_that_finds_no_free_slot_waits_for_one() {
        let Probed { batcher, metrics, ran_on, release, entered } = start_probed(1);
        let threads = std::thread::scope(|scope| {
            let holder =
                scope.spawn(|| (std::thread::current().id(), batcher.answer(req("block", "v4"))));
            entered.recv().expect("the blocker holds the only slot");
            let waiter =
                scope.spawn(|| (std::thread::current().id(), batcher.answer(req("v0", "v4"))));
            while batcher.queue_depth() < 1 {
                std::thread::yield_now();
            }
            assert_eq!((batcher.queue_depth(), batcher.running()), (1, 1));
            assert_eq!(metrics.queue_depth.get(), 1);
            assert_eq!(metrics.batched_queries_total.get(), 1);
            release.send(()).unwrap();
            // (`block` names no vertex; once released it is a plain 404.)
            let (holder_thread, held) = holder.join().unwrap();
            assert_eq!(held.expect_err("no such vertex").status, 404);
            let (waiter_thread, waited) = waiter.join().unwrap();
            let body = waited.expect("the waiter got the slot");
            assert!(body.contains("\"answer\":true"), "{body}");
            [holder_thread, waiter_thread]
        });
        // Each query ran on the thread that asked for it.
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(*ran_on, [("block".to_owned(), threads[0]), ("v0".to_owned(), threads[1])]);
        assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(metrics.batched_queries_total.get(), 2);
        batcher.shutdown();
    }

    #[test]
    fn a_panicking_answer_costs_one_500_and_not_its_slot() {
        let Probed { batcher, metrics, .. } = start_probed(1);
        let err = batcher.answer(req("boom", "v4")).expect_err("the answer panicked");
        assert_eq!((err.status, err.code), (500, "internal"));
        assert_eq!(metrics.panics_total.get(), 1);
        assert_eq!(batcher.running(), 0, "the unwound answer gave its slot back");
        let body = batcher.answer(req("v0", "v4")).expect("next query ok");
        assert!(body.contains("\"answer\":true"), "{body}");
        // In a batch, the panic is its member's alone.
        let results = batcher.answer_many(&[req("boom", "v4"), req("v0", "v4")]).expect("admitted");
        assert_eq!(results[0].as_ref().expect_err("the answer panicked").status, 500);
        assert!(results[1].is_ok(), "{:?}", results[1]);
        assert_eq!(metrics.panics_total.get(), 2);
        assert_eq!(batcher.running(), 0);
        assert_eq!(metrics.batched_queries_total.get(), 4);
        assert_eq!(metrics.query_latency.count(), 4);
        batcher.shutdown();
    }

    /// A response text with its timing cut out: the rest is deterministic.
    fn untimed(body: &str) -> String {
        let (head, rest) = body.split_once(",\"elapsed_ns\":").expect("a timed answer");
        let (_, tail) = rest.split_once(',').expect("fields after the timing");
        format!("{head},{tail}")
    }

    #[test]
    fn live_scratches_never_outnumber_the_slots() {
        let (batcher, _metrics) = start(2, 64);
        // The first answer fills the `SCck` memo; the warm ones agree.
        batcher.answer(req("v0", "v4")).expect("query ok");
        let want = untimed(&batcher.answer(req("v0", "v4")).expect("query ok"));
        assert!(want.contains("\"answer\":true"), "{want}");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let body = batcher.answer(req("v0", "v4")).expect("query ok");
                        assert_eq!(untimed(&body), want);
                    }
                });
            }
        });
        let idle = batcher.idle_scratch_count();
        assert!((1..=2).contains(&idle), "{idle} scratches for 2 slots");
        let reqs: Vec<_> = (0..16).map(|_| req("v0", "v4")).collect();
        for body in batcher.answer_many(&reqs).expect("admitted") {
            assert_eq!(untimed(&body.expect("member ok")), want);
        }
        let idle = batcher.idle_scratch_count();
        assert!((1..=2).contains(&idle), "{idle} scratches for 2 slots");
        batcher.shutdown();
    }

    #[test]
    fn a_panicking_answer_leaves_the_next_answer_on_its_slot_right() {
        let Probed { batcher, metrics, .. } = start_probed(1);
        batcher.answer(req("v0", "v4")).expect("query ok");
        let want = untimed(&batcher.answer(req("v0", "v4")).expect("query ok"));
        assert_eq!(batcher.idle_scratch_count(), 1);
        let err = batcher.answer(req("boom", "v4")).expect_err("the answer panicked");
        assert_eq!((err.status, err.code), (500, "internal"));
        assert_eq!(metrics.panics_total.get(), 1);
        assert!(batcher.idle_scratch_count() <= 1);
        let body = batcher.answer(req("v0", "v4")).expect("next query ok");
        assert_eq!(untimed(&body), want);
        assert_eq!(batcher.idle_scratch_count(), 1);
        batcher.shutdown();
    }

    #[test]
    fn a_panic_under_the_queue_mutex_fails_no_later_answer() {
        let (batcher, _metrics) = start(1, 64);
        batcher.answer(req("v0", "v4")).expect("query ok");
        let want = untimed(&batcher.answer(req("v0", "v4")).expect("query ok"));
        let seeded = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _held = batcher.state.lock();
            panic!("seeded panic under the queue mutex");
        }));
        assert!(seeded.is_err());
        assert!(batcher.state.lock().is_err(), "the mutex is poisoned");
        assert_eq!(untimed(&batcher.answer(req("v0", "v4")).expect("answered")), want);
        for body in batcher.answer_many(&[req("v0", "v4"), req("v0", "v4")]).expect("admitted") {
            assert_eq!(untimed(&body.expect("member ok")), want);
        }
        assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        batcher.shutdown();
    }
}
