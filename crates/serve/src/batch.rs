//! The admission queue and the worker pool.
//!
//! Queries from all connections funnel into one bounded FIFO. A fixed
//! pool of workers — each owning a long-lived [`Session`] so its
//! [`kgreach::SearchScratch`] allocations amortize across the process
//! lifetime — takes the oldest waiting query, answers it, and comes back
//! for the next. A worker blocks on work and on nothing else: there is
//! no answer window and no timed wait. Coalescing queries per worker
//! could not pay — the plan cache and the `SCck` / `V(S,G)` memos belong
//! to the engine, not to a worker, so which worker answers a query
//! changes no hit rate — and holding replies back to wait for company
//! stalls a closed loop whose clients are blocked on those very replies.
//! The members of a `/query_batch` are queued one by one, so they spread
//! over the idle workers.
//!
//! Admission control is depth-based: past
//! [`BatchConfig::queue_high_water`] waiting queries, new work is shed
//! with `429` + `Retry-After` instead of growing the queue without bound
//! (tail latency past the high water is already worse than a retry).
//! During shutdown the queue drains gracefully: admitted queries are
//! answered, new ones get `503`.

use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::protocol::{render_outcome, ApiError, QueryRequest};
use kgreach::{LscrEngine, Session};
use kgreach_sync::mpsc;
use kgreach_sync::thread::JoinHandle;
use kgreach_sync::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Worker-pool and admission tuning (see `docs/OPERATIONS.md`).
#[derive(Clone, Debug)]
pub struct BatchConfig {
    /// Worker threads, each owning a long-lived session. `0` is allowed
    /// (nothing drains the queue) and only useful in tests.
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
    draining: bool,
}

/// The shared queue + worker pool.
pub struct Batcher {
    state: Mutex<QueueState>,
    available: Condvar,
    config: BatchConfig,
    engine: Arc<LscrEngine>,
    metrics: Arc<ServerMetrics>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Batcher {
    /// Starts the worker pool.
    pub fn start(
        engine: Arc<LscrEngine>,
        metrics: Arc<ServerMetrics>,
        config: BatchConfig,
    ) -> Arc<Batcher> {
        let batcher = Arc::new(Batcher {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), draining: false }),
            available: Condvar::new(),
            config: config.clone(),
            engine,
            metrics,
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
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

    /// Enqueues one query; the receiver yields its answer (or error).
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
        let now = Instant::now();
        let mut receivers = Vec::with_capacity(reqs.len());
        {
            let mut st = self.state.lock().expect("queue lock");
            if st.draining {
                self.metrics.shed_draining_total.add(reqs.len() as u64);
                return Err(ApiError::new(503, "draining", "server is shutting down"));
            }
            // A lone `/query` (`submit`) is never "too large": with a
            // high water of 0 it is shed like any other.
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
            for req in reqs {
                let (tx, rx) = mpsc::channel();
                st.jobs.push_back(Job { req, enqueued: now, reply: tx });
                receivers.push(rx);
            }
            self.metrics.queue_depth.set(st.jobs.len() as u64);
        }
        self.available.notify_all();
        Ok(receivers)
    }

    /// Current queue depth (for tests and introspection).
    pub fn queue_depth(&self) -> usize {
        self.state.lock().expect("queue lock").jobs.len()
    }

    /// Stops accepting work, answers everything already admitted, joins
    /// the workers, and fails any stragglers with `503` (only possible
    /// with a zero-worker pool).
    pub fn shutdown(&self) {
        self.state.lock().expect("queue lock").draining = true;
        self.available.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers lock"));
        for h in handles {
            let _ = h.join();
        }
        let leftovers: Vec<Job> = self.state.lock().expect("queue lock").jobs.drain(..).collect();
        for job in leftovers {
            self.metrics.shed_draining_total.add(1);
            let _ = job.reply.send(Err(ApiError::new(503, "draining", "server is shutting down")));
        }
        self.metrics.queue_depth.set(0);
    }

    /// Blocks for the oldest waiting job. Returns `None` when draining
    /// and the queue is empty.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.metrics.queue_depth.set(st.jobs.len() as u64);
                return Some(job);
            }
            if st.draining {
                return None;
            }
            st = self.available.wait(st).expect("queue lock");
        }
    }

    fn worker_loop(&self) {
        let mut session = self.engine.session();
        while let Some(job) = self.next_job() {
            // One job per wake: the two counters move together (see
            // their docs in `metrics.rs`).
            self.metrics.batch_windows_total.add(1);
            self.metrics.batched_queries_total.add(1);
            let result = self.answer(&mut session, &job.req);
            self.metrics.query_latency.record(job.enqueued.elapsed());
            // A dropped receiver just means the client went away.
            let _ = job.reply.send(result);
        }
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
    fn answer(&self, session: &mut Session<'_>, req: &QueryRequest) -> Result<Json, ApiError> {
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
}
