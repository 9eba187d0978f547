//! Admission, the search slots and the worker pool.
//!
//! [`BatchConfig::workers`] is the number of searches that may run at
//! once. A `/query` that finds one of those slots free, and nothing
//! queued ahead of it, takes the slot and is answered **on the connection
//! thread that parsed it** ([`Batcher::answer`]): resolve → compile →
//! search → render with no queue push, no channel and no second thread.
//! The request never leaves its thread, so the two thread wake-ups a
//! hand-off costs (worker, then connection thread again) are not paid
//! around a search that takes about a microsecond.
//!
//! Everything else goes through one bounded FIFO that a fixed pool of
//! `workers` threads drains: a `/query` that finds every slot taken, and
//! the members of a `/query_batch`, which are queued one by one so they
//! spread over the pool. A worker takes the oldest waiting query only
//! while a slot is free — the slots are one count, `running`, shared by
//! both routes — answers it, and comes back for the next. It blocks on
//! work and on nothing else: there is no answer window and no timed
//! wait. (Coalescing queries per worker could not pay: the plan cache and
//! the `SCck` / `V(S,G)` memos belong to the engine, so which thread
//! answers a query changes no hit rate.)
//!
//! A search borrows its [`kgreach::SearchScratch`] from the engine's pool
//! **for the query**, not for the thread or the connection: an idle
//! worker or connection holds none, so live scratches are bounded by
//! `workers` however many connections are open. Borrowing costs two
//! uncontended pool locks per query.
//!
//! A panic inside an answer costs that query a `500 internal` and one
//! `kg_panics_total`; its slot is released by a drop guard and the thread
//! — connection or worker — carries on.
//!
//! Admission is one code path for both routes: `503` while draining;
//! then a lone query with a free slot and an empty queue is answered in
//! place; otherwise depth-based shedding — past
//! [`BatchConfig::queue_high_water`] waiting queries, new work is shed
//! with `429` + `Retry-After` instead of growing the queue without bound
//! (tail latency past the high water is already worse than a retry).
//! During shutdown the queue drains gracefully: admitted queries are
//! answered, new ones get `503`, and [`Batcher::shutdown`] returns only
//! once no search is running on either route.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{render_outcome, ApiError, QueryRequest};
use kgreach::LscrEngine;
use kgreach_sync::mpsc;
use kgreach_sync::thread::JoinHandle;
use kgreach_sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Search-slot, worker-pool and admission tuning (see
/// `docs/OPERATIONS.md`).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Searches that may run at once, and the size of the pool that
    /// answers queued queries. `0` is allowed (nothing is ever answered)
    /// and only useful in tests.
    pub workers: usize,
    /// Queue depth beyond which new queries are shed with `429`.
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

struct Job {
    req: QueryRequest,
    enqueued: Instant,
    reply: mpsc::Sender<Result<Json, ApiError>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Searches running right now, on connection threads and workers
    /// alike; never above `workers`.
    running: usize,
    draining: bool,
}

/// Test seam: consulted at the top of every answer, on whichever route.
/// `Some` is the answer (the engine is not asked); it may also block or
/// panic.
#[cfg(any(test, kg_loom))]
type Probe = Box<dyn Fn(&QueryRequest) -> Option<Result<Json, ApiError>> + Send + Sync>;

/// Admission, the search slots and the worker pool.
pub struct Batcher {
    state: Mutex<QueueState>,
    /// Signalled when a job is queued, when a slot frees with jobs
    /// waiting, and when draining starts or its last search ends.
    available: Condvar,
    config: BatchConfig,
    engine: Arc<LscrEngine>,
    metrics: Arc<ServerMetrics>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    #[cfg(any(test, kg_loom))]
    probe: Option<Probe>,
}

/// One of the `workers` search slots, held for the length of one answer.
/// Released on drop, so an unwinding thread cannot leak it.
struct Slot<'a>(&'a Batcher);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // `Drop` must not panic, and every update under this lock leaves
        // the state valid, so a poisoned guard is still good to use.
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.running -= 1;
        let (draining, waiting) = (st.draining, !st.jobs.is_empty());
        drop(st);
        if draining {
            // `shutdown` may be waiting for the last search, workers for
            // a slot or for leave to exit.
            self.0.available.notify_all();
        } else if waiting {
            // Only workers wait before draining, and any one will do.
            self.0.available.notify_one();
        }
    }
}

impl Batcher {
    /// Starts the worker pool.
    pub fn start(
        engine: Arc<LscrEngine>,
        metrics: Arc<ServerMetrics>,
        config: BatchConfig,
    ) -> Arc<Batcher> {
        Self::spawn_workers(Self::new(engine, metrics, config))
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
        Self::spawn_workers(batcher)
    }

    fn new(engine: Arc<LscrEngine>, metrics: Arc<ServerMetrics>, config: BatchConfig) -> Batcher {
        Batcher {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), running: 0, draining: false }),
            available: Condvar::new(),
            config,
            engine,
            metrics,
            workers: Mutex::new(Vec::new()),
            #[cfg(any(test, kg_loom))]
            probe: None,
        }
    }

    fn spawn_workers(batcher: Batcher) -> Arc<Batcher> {
        let batcher = Arc::new(batcher);
        let mut handles = Vec::with_capacity(batcher.config.workers);
        for i in 0..batcher.config.workers {
            let b = Arc::clone(&batcher);
            handles.push(
                kgreach_sync::thread::Builder::new()
                    .name(format!("kg-worker-{i}"))
                    .spawn(move || b.worker_loop())
                    .expect("spawn worker"),
            );
        }
        *batcher.workers.lock().expect("workers lock") = handles;
        batcher
    }

    /// Answers one query, on the calling thread when it can: if a search
    /// slot is free and nothing is queued ahead, the query takes the slot
    /// and is resolved, searched and rendered right here. Otherwise it is
    /// queued exactly as [`submit`](Self::submit) would and this call
    /// blocks for the pool's reply. Refusals are those of
    /// [`submit_many`](Self::submit_many).
    pub fn answer(&self, req: QueryRequest) -> Result<Json, ApiError> {
        let arrived = Instant::now();
        let mut st = self.admitting(1)?;
        if st.jobs.is_empty() && st.running < self.config.workers {
            st.running += 1;
            let _slot = Slot(self);
            drop(st);
            return self.run(&req, arrived);
        }
        let rx = self.enqueue(st, vec![req], arrived)?.pop().expect("one receiver per request");
        // The pool answers every job it takes; only a worker that died
        // outside the answer itself can drop the sender.
        rx.recv().map_err(|_| ApiError::new(500, "internal", "worker dropped the query"))?
    }

    /// Enqueues one query for the pool; the receiver yields its answer
    /// (or error).
    pub fn submit(
        &self,
        req: QueryRequest,
    ) -> Result<mpsc::Receiver<Result<Json, ApiError>>, ApiError> {
        Ok(self.submit_many(vec![req])?.pop().expect("one receiver per request"))
    }

    /// Enqueues a batch atomically: either every query is admitted (in
    /// order) or the whole batch is shed — partial admission would turn
    /// one client batch into a mix of answers and `429`s that the client
    /// can only retry wholesale anyway. Refusals, in order: `503` while
    /// draining, `413` for a batch that could not fit an empty queue
    /// (no retry can succeed, so it must not be told to retry), `429`
    /// when the queue is too full right now.
    pub fn submit_many(
        &self,
        reqs: Vec<QueryRequest>,
    ) -> Result<Vec<mpsc::Receiver<Result<Json, ApiError>>>, ApiError> {
        let arrived = Instant::now();
        let st = self.admitting(reqs.len())?;
        self.enqueue(st, reqs, arrived)
    }

    /// The first admission check, shared by both routes: locks the state
    /// for `n` arriving queries, or refuses them with `503` while
    /// draining.
    fn admitting(&self, n: usize) -> Result<MutexGuard<'_, QueueState>, ApiError> {
        let st = self.state.lock().expect("queue lock");
        if st.draining {
            self.metrics.shed_draining_total.add(n as u64);
            return Err(ApiError::new(503, "draining", "server is shutting down"));
        }
        Ok(st)
    }

    /// The rest of admission: queues all of `reqs` behind whatever is
    /// waiting, or none of them (`413` / `429`).
    fn enqueue(
        &self,
        mut st: MutexGuard<'_, QueueState>,
        reqs: Vec<QueryRequest>,
        arrived: Instant,
    ) -> Result<Vec<mpsc::Receiver<Result<Json, ApiError>>>, ApiError> {
        // A lone query is never "too large": with a high water of 0 it
        // is shed like any other.
        if reqs.len() > 1 && reqs.len() > self.config.queue_high_water {
            return Err(ApiError::new(
                413,
                "batch_too_large",
                format!(
                    "a batch of {} queries can never fit the admission queue's high water \
                     of {}; split it",
                    reqs.len(),
                    self.config.queue_high_water
                ),
            ));
        }
        if st.jobs.len() + reqs.len() > self.config.queue_high_water {
            self.metrics.shed_queue_full_total.add(reqs.len() as u64);
            return Err(ApiError::new(
                429,
                "overloaded",
                format!(
                    "admission queue is past its high water of {}; retry later",
                    self.config.queue_high_water
                ),
            ));
        }
        let mut receivers = Vec::with_capacity(reqs.len());
        for req in reqs {
            let (tx, rx) = mpsc::channel();
            st.jobs.push_back(Job { req, enqueued: arrived, reply: tx });
            receivers.push(rx);
        }
        self.metrics.queue_depth.set(st.jobs.len() as u64);
        drop(st);
        // One job needs one worker; a batch wants every idle one.
        if receivers.len() == 1 {
            self.available.notify_one();
        } else {
            self.available.notify_all();
        }
        Ok(receivers)
    }

    /// Current queue depth (for tests and introspection).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// Stops accepting work, answers everything already admitted, joins
    /// the workers, waits for the searches still running on connection
    /// threads, and fails any stragglers with `503` (only possible with a
    /// zero-worker pool).
    pub fn shutdown(&self) {
        self.state.lock().expect("queue lock").draining = true;
        self.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
        let mut st = self.state.lock().expect("queue lock");
        while st.running > 0 {
            st = self.available.wait(st).expect("queue lock");
        }
        let leftovers: Vec<Job> = st.jobs.drain(..).collect();
        drop(st);
        for job in leftovers {
            self.metrics.shed_draining_total.add(1);
            let _ = job.reply.send(Err(ApiError::new(503, "draining", "server is shutting down")));
        }
        self.metrics.queue_depth.set(0);
    }

    /// Blocks until there is a waiting job **and** a free slot, and takes
    /// both. Returns `None` when draining and the queue is empty.
    fn next_job(&self) -> Option<(Job, Slot<'_>)> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if st.running < self.config.workers {
                if let Some(job) = st.jobs.pop_front() {
                    st.running += 1;
                    self.metrics.queue_depth.set(st.jobs.len() as u64);
                    return Some((job, Slot(self)));
                }
            }
            if st.draining && st.jobs.is_empty() {
                return None;
            }
            st = self.available.wait(st).expect("queue lock");
        }
    }

    fn worker_loop(&self) {
        while let Some((job, slot)) = self.next_job() {
            let result = self.run(&job.req, job.enqueued);
            // Free the slot before waking the client, so that the query
            // it sends next finds it and is answered in place.
            drop(slot);
            // A dropped receiver just means the client went away.
            let _ = job.reply.send(result);
        }
    }

    /// Answers one admitted query in the slot its caller holds — the one
    /// body both routes share, so each counter moves once per answered
    /// query whichever thread runs it. A panic below is caught here and
    /// costs this query a `500`, not the thread.
    fn run(&self, req: &QueryRequest, since: Instant) -> Result<Json, ApiError> {
        // One query per slot taken: the two counters move together (see
        // their docs in `metrics.rs`).
        self.metrics.batch_windows_total.add(1);
        self.metrics.batched_queries_total.add(1);
        // Unwind safety: the closure shares only the engine and the
        // metrics. The unwound search's scratch is recycled, not
        // discarded — `Session`'s drop returns it to the engine's pool,
        // and every search starts by resetting the parts it uses, so a
        // half-written scratch is as good as a fresh one. A lock the
        // panic poisoned fails later queries with a panic of their own,
        // each caught here the same way.
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(any(test, kg_loom))]
            if let Some(reply) = self.probe.as_ref().and_then(|probe| probe(req)) {
                return reply;
            }
            self.search(req)
        }))
        .unwrap_or_else(|_| {
            self.metrics.panics_total.add(1);
            Err(ApiError::new(500, "internal", "the query panicked; see the server log"))
        });
        self.metrics.query_latency.record(since.elapsed());
        result
    }

    /// Resolves and answers one query on a consistent graph snapshot.
    ///
    /// Name resolution and search must see the *same* graph: a snapshot
    /// reload in between would re-bind the resolved dense ids to
    /// different vertices (updates keep ids stable; reloads do not). The
    /// engine pins its own snapshot inside `answer_with_options`, so
    /// consistency is re-checked afterwards by Arc identity — if the
    /// served graph changed while this query was in flight, re-resolve
    /// and re-run against the new one.
    fn search(&self, req: &QueryRequest) -> Result<Json, ApiError> {
        // The scratch is borrowed for this query and goes back to the
        // engine's pool when it is answered, on a panic's unwind too.
        let mut session = self.engine.session();
        for _ in 0..16 {
            let g = self.engine.graph();
            let query = match req.resolve(&g) {
                Ok(q) => q,
                Err(e) => {
                    self.metrics.query_errors_total.add(1);
                    return Err(e);
                }
            };
            let opts = req.options(self.config.max_step_budget, self.config.max_timeout);
            let out = match session.answer_with_options(&query, req.algorithm, &opts) {
                Ok(out) => out,
                Err(e) if !Arc::ptr_eq(&g, &self.engine.graph()) => {
                    // The graph was swapped mid-flight; the error may be
                    // an artifact of stale ids. Retry on the new graph.
                    let _ = e;
                    continue;
                }
                Err(e) => {
                    self.metrics.query_errors_total.add(1);
                    return Err(e.into());
                }
            };
            if Arc::ptr_eq(&g, &self.engine.graph()) {
                self.metrics.record_outcome(&out.stats, out.interrupted);
                return Ok(render_outcome(&g, &out));
            }
        }
        self.metrics.query_errors_total.add(1);
        Err(ApiError::new(
            503,
            "unstable",
            "the served graph kept changing while this query was in flight; retry",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach::fixtures::figure3;
    use kgreach::Algorithm;

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
    fn answers_queries_through_the_pool() {
        let (batcher, metrics) = start(2, 64);
        let receivers =
            batcher.submit_many((0..20).map(|_| req("v0", "v4")).collect()).expect("admitted");
        for rx in receivers {
            let body = rx.recv().expect("worker reply").expect("query ok").to_string();
            assert!(body.contains("\"answer\":true"), "{body}");
        }
        assert_eq!(metrics.queries_total.get(), 20);
        // One job per wake: nothing coalesces.
        assert_eq!(metrics.batch_windows_total.get(), 20);
        assert_eq!(metrics.batched_queries_total.get(), 20);
        assert_eq!(metrics.query_latency.count(), 20);
        batcher.shutdown();
    }

    #[test]
    fn typed_errors_come_back_through_the_queue() {
        let (batcher, metrics) = start(1, 64);
        let rx = batcher.submit(req("nope", "v4")).expect("admitted");
        let err = rx.recv().expect("worker reply").expect_err("unknown vertex");
        assert_eq!((err.status, err.code), (404, "unknown_vertex"));
        assert_eq!(metrics.query_errors_total.get(), 1);
        batcher.shutdown();
    }

    #[test]
    fn queue_past_high_water_sheds_with_429() {
        // Zero workers: nothing drains, so the queue depth is exact.
        let (batcher, metrics) = start(0, 2);
        // A batch that could not fit an empty queue is refused for good,
        // not shed: no retry could ever succeed.
        let batch = |n: usize| (0..n).map(|_| req("v0", "v4")).collect::<Vec<_>>();
        let err = batcher.submit_many(batch(3)).expect_err("can never fit");
        assert_eq!((err.status, err.code), (413, "batch_too_large"));
        assert_eq!(metrics.shed_queue_full_total.get(), 0);
        batcher.submit(req("v0", "v4")).expect("admitted");
        // Batch admission is all-or-nothing: two do not fit behind one.
        let err = batcher.submit_many(batch(2)).expect_err("no room for both");
        assert_eq!((err.status, err.code), (429, "overloaded"));
        assert_eq!(metrics.shed_queue_full_total.get(), 2);
        batcher.submit(req("v0", "v4")).expect("admitted");
        let err = batcher.submit(req("v0", "v4")).expect_err("past high water");
        assert_eq!((err.status, err.code), (429, "overloaded"));
        let err = batcher.submit_many(vec![req("v0", "v4")]).expect_err("still full");
        assert_eq!(err.status, 429);
        assert_eq!(metrics.shed_queue_full_total.get(), 4);
        assert_eq!(batcher.queue_depth(), 2);
        batcher.shutdown();
        assert_eq!(metrics.shed_draining_total.get(), 2, "drained unanswered");
        // Draining outranks the size check.
        let err = batcher.submit_many(batch(3)).expect_err("draining");
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
        // The admitted query was answered before the workers exited (or
        // failed over to the drain reply) — either way a reply arrived.
        let reply = rx.recv().expect("reply delivered");
        if let Ok(body) = reply {
            assert!(body.to_string().contains("\"answer\":true"));
        }
        let err = batcher.submit(req("v0", "v4")).expect_err("draining");
        assert_eq!((err.status, err.code), (503, "draining"));
    }

    impl Batcher {
        fn running(&self) -> usize {
            self.state.lock().expect("queue lock").running
        }
    }

    /// One answer: the query's `source` and the name of the thread it ran on.
    type RanOn = (String, Option<String>);

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
                let thread = std::thread::current().name().map(str::to_owned);
                log.lock().unwrap().push((req.source.clone(), thread));
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
        let me = std::thread::current().name().map(str::to_owned);
        for _ in 0..20 {
            let body = batcher.answer(req("v0", "v4")).expect("query ok").to_string();
            assert!(body.contains("\"answer\":true"), "{body}");
            assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        }
        assert!(ran_on.lock().unwrap().iter().all(|(_, thread)| *thread == me));
        // Typed errors come back the same way.
        let err = batcher.answer(req("nope", "v4")).expect_err("unknown vertex");
        assert_eq!((err.status, err.code), (404, "unknown_vertex"));
        assert_eq!(metrics.query_errors_total.get(), 1);
        // Every counter moved once per query although no worker woke.
        assert_eq!(metrics.queries_total.get(), 20);
        assert_eq!(metrics.batch_windows_total.get(), 21);
        assert_eq!(metrics.batched_queries_total.get(), 21);
        assert_eq!(metrics.query_latency.count(), 21);
        batcher.shutdown();
        assert_eq!(batcher.answer(req("v0", "v4")).expect_err("draining").status, 503);
        assert_eq!(metrics.shed_draining_total.get(), 1);
    }

    #[test]
    fn a_query_that_finds_no_free_slot_is_answered_by_the_pool() {
        let Probed { batcher, metrics, ran_on, release, entered } = start_probed(1);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| batcher.answer(req("block", "v4")));
            entered.recv().expect("the blocker holds the only slot");
            let queued = scope.spawn(|| batcher.answer(req("v0", "v4")));
            while batcher.queue_depth() < 1 {
                std::thread::yield_now();
            }
            // Queued behind a held slot: the idle worker must leave it be.
            assert_eq!((batcher.queue_depth(), batcher.running()), (1, 1));
            assert_eq!(metrics.batched_queries_total.get(), 1);
            release.send(()).unwrap();
            // (`block` names no vertex; once released it is a plain 404.)
            assert_eq!(holder.join().unwrap().expect_err("no such vertex").status, 404);
            let body = queued.join().unwrap().expect("queued query answered").to_string();
            assert!(body.contains("\"answer\":true"), "{body}");
        });
        let ran_on = ran_on.lock().unwrap();
        assert_eq!(ran_on.len(), 2);
        assert_ne!(ran_on[0].1.as_deref(), Some("kg-worker-0"), "the blocker ran in place");
        assert_eq!(ran_on[1], ("v0".to_owned(), Some("kg-worker-0".to_owned())));
        assert_eq!((batcher.queue_depth(), batcher.running()), (0, 0));
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(metrics.batched_queries_total.get(), 2);
        batcher.shutdown();
    }

    #[test]
    fn a_panicking_answer_costs_one_500_and_neither_a_slot_nor_a_worker() {
        let Probed { batcher, metrics, .. } = start_probed(1);
        // In place: the calling thread gets the 500 and carries on.
        let err = batcher.answer(req("boom", "v4")).expect_err("the answer panicked");
        assert_eq!((err.status, err.code), (500, "internal"));
        assert_eq!(metrics.panics_total.get(), 1);
        assert_eq!(batcher.running(), 0, "the unwound answer gave its slot back");
        let body = batcher.answer(req("v0", "v4")).expect("next query ok").to_string();
        assert!(body.contains("\"answer\":true"), "{body}");
        // Through the pool: the one worker gets the 500 out and survives.
        let rx = batcher.submit(req("boom", "v4")).expect("admitted");
        let err = rx.recv().expect("worker reply").expect_err("the answer panicked");
        assert_eq!((err.status, err.code), (500, "internal"));
        assert_eq!(metrics.panics_total.get(), 2);
        assert_eq!(batcher.running(), 0);
        let rx = batcher.submit(req("v0", "v4")).expect("admitted");
        let body = rx.recv().expect("the worker is still there").expect("query ok").to_string();
        assert!(body.contains("\"answer\":true"), "{body}");
        assert_eq!(metrics.batched_queries_total.get(), 4);
        assert_eq!(metrics.query_latency.count(), 4);
        batcher.shutdown();
    }
}
