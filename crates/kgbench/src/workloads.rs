//! The four workloads, as run inside their own fresh process.
//!
//! Every workload has the same shape: three from-scratch set-ups (the
//! last one is kept), a measured window cut into slices, then whatever
//! verification the workload owes. Tracing is off here; the per-layer
//! numbers come from `trace`.

use crate::api::{self, Arc, Failure, LscrEngine, LscrQuery, Session, UpdateBatch};
use crate::inputs::{
    self, ChurnQuery, ChurnSet, Dataset, QuerySet, SampledQuery, UpdateSet, WireQuery,
};
use crate::measure::{self, Failures, QueryMetrics, Recorder, Throughput, Verdict};
use crate::pacer::Pacer;
use crate::stats::{self, Summary};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// From-scratch set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Update batches per second the open-loop generator sends.
pub const UPDATE_RATE: u64 = 70;
/// How long past the window's end an update due inside it may still be
/// acknowledged before it counts as unacknowledged.
const ACK_GRACE: Duration = Duration::from_secs(2);

/// Files and settings a workload process is started with.
#[derive(Clone, Debug, Default)]
pub struct ChildArgs {
    /// Seed of the query order.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// `lubm-d5`.
    pub d5: Dataset,
    /// Sampled queries.
    pub queries: QuerySet,
    /// Constraint-churn queries.
    pub churn: ChurnSet,
    /// Data-directory template and update stream of `update-mix`.
    pub updates: UpdateSet,
    /// Scratch directory this process may write.
    pub work_dir: PathBuf,
}

/// `update-mix`'s write side.
#[derive(Clone, Copy, Debug)]
pub struct UpdateMetrics {
    /// `update_ack_p50_us`, from due time, whole window.
    pub ack_p50_us: Summary,
    /// `update_ack_p99_us`.
    pub ack_tail_us: Summary,
    /// The percentile `ack_tail_us` was taken at.
    pub ack_tail_percentile: f64,
    /// How late the generator itself ran, at the same percentile.
    pub send_lag_tail_us: f64,
    /// Automatic compactions in the window.
    pub compactions: u64,
    /// Batches after which the index was patched.
    pub index_patches: u64,
    /// Batches after which it was rebuilt.
    pub index_rebuilds: u64,
}

/// What a workload process reports.
#[derive(Clone, Debug)]
pub struct ChildReport {
    /// Operations issued, warm-up and verification included.
    pub attempted: u64,
    /// Those that failed, by kind.
    pub failures: Failures,
    /// Latency and throughput over the window.
    pub query: QueryMetrics,
    /// Median and range of the set-ups, in seconds.
    pub setup_s: Summary,
    /// `VmHWM` at exit.
    pub rss_peak_mib: f64,
    /// Present on `update-mix`.
    pub update: Option<UpdateMetrics>,
}

fn verdict(out: Result<api::QueryOutcome, Failure>, expected: Option<bool>) -> Verdict {
    match out {
        Err(_) => Verdict::Error,
        Ok(o) if o.interrupted => Verdict::Interrupted,
        Ok(o) if expected.is_some_and(|e| e != o.answer) => Verdict::Wrong,
        Ok(_) => Verdict::Ok,
    }
}

/// Runs `op` on seeded-shuffled cycles of `0..n` until the window ends
/// and every operation has run at least once, one operation at a time,
/// each starting when the previous one returns (closed loop, one caller).
fn closed_loop(
    n: usize,
    seed: u64,
    started: Instant,
    window: Duration,
    rec: &mut Recorder,
    mut op: impl FnMut(usize) -> Verdict,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    let window_ns = window.as_nanos() as u64;
    let mut t = started.elapsed().as_nanos() as u64;
    for cycle in 0.. {
        order.shuffle(&mut rng);
        for &i in &order {
            let v = op(i);
            let now = started.elapsed().as_nanos() as u64;
            rec.record(i, now, now - t, v);
            t = now;
            if now >= window_ns && cycle > 0 {
                return;
            }
        }
    }
}

fn setup_summary(setups: &[f64]) -> Summary {
    let (lo, hi) = setups.iter().fold((f64::MAX, 0.0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    Summary { value: stats::median(setups), spread: hi - lo, samples: setups.len() as u64 }
}

fn report(
    rec: Recorder,
    throughput: Throughput,
    setups: &[f64],
    update: Option<UpdateMetrics>,
    extra: Failures,
) -> ChildReport {
    let attempted = rec.attempted;
    let mut failures = rec.failures;
    failures.add(extra);
    ChildReport {
        attempted,
        failures,
        query: rec.finish(throughput),
        setup_s: setup_summary(setups),
        rss_peak_mib: measure::rss_peak_mib(),
        update,
    }
}

/// The sampled queries as engine queries under their sampled `L`.
pub fn broad_queries(sampled: &[SampledQuery]) -> Vec<LscrQuery> {
    let constraints = api::lubm_constraints();
    sampled
        .iter()
        .map(|q| api::query(q.source, q.target, q.labels, constraints[q.constraint].1.clone()))
        .collect()
}

/// `search-broad`: the sampled queries, one thread, closed loop.
pub fn search_broad(args: &ChildArgs) -> Result<ChildReport, Failure> {
    let (sampled, _) = inputs::decode_queries(&inputs::read(&args.queries.queries())?)?;
    let queries = broad_queries(&sampled);
    let mut rec = Recorder::new(args.window, queries.len());
    let mut setups = Vec::new();
    for keep in (0..SETUPS).map(|i| i + 1 == SETUPS) {
        let t0 = Instant::now();
        let engine = api::load_engine(&args.d5.engine())?;
        let mut session = engine.session();
        for (q, s) in queries.iter().zip(&sampled) {
            rec.count(verdict(api::answer(&mut session, q), Some(s.expected)));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if keep {
            closed_loop(queries.len(), args.seed, Instant::now(), args.window, &mut rec, |i| {
                verdict(api::answer(&mut session, &queries[i]), Some(sampled[i].expected))
            });
        }
    }
    Ok(report(rec, Throughput::Typical, &setups, None, Failures::default()))
}

fn churn_answer(
    session: &mut Session<'_>,
    narrow: api::LabelSet,
    q: &ChurnQuery,
) -> Result<api::QueryOutcome, Failure> {
    // What a client that sends text pays: parse, then the engine's
    // compile (a plan-cache miss for half the set) and the search.
    let constraint = api::parse_constraint(&q.text)?;
    api::answer(session, &api::query(q.source, q.target, narrow, constraint))
}

/// `constraint-churn`: twice as many distinct constraints as the plan
/// cache holds, sent as text.
pub fn constraint_churn(args: &ChildArgs) -> Result<ChildReport, Failure> {
    let queries = inputs::decode_churn(&inputs::read(&args.churn.file())?)?;
    let mut rec = Recorder::new(args.window, queries.len());
    let mut setups = Vec::new();
    for keep in (0..SETUPS).map(|i| i + 1 == SETUPS) {
        let t0 = Instant::now();
        let engine = api::load_engine(&args.d5.engine())?;
        let narrow = api::top_label_set(&engine.graph(), 3);
        let mut session = engine.session();
        for q in &queries {
            rec.count(verdict(churn_answer(&mut session, narrow, q), Some(q.expected)));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if keep {
            closed_loop(queries.len(), args.seed, Instant::now(), args.window, &mut rec, |i| {
                let q = &queries[i];
                verdict(churn_answer(&mut session, narrow, q), Some(q.expected))
            });
        }
    }
    Ok(report(rec, Throughput::Typical, &setups, None, Failures::default()))
}

/// Sends one query and judges the reply without decoding it: the
/// client shares two cores with the server, so it stays cheap.
pub fn wire_verdict(client: &mut api::HttpClient, q: &WireQuery) -> Verdict {
    match api::post(client, "/query", &q.body) {
        Err(_) => Verdict::Error,
        Ok((429 | 503, _)) => Verdict::Shed,
        Ok((200, body)) if body.contains("\"interrupted\":true") => Verdict::Interrupted,
        Ok((200, body)) => {
            let answer = if q.expected { "\"answer\":true" } else { "\"answer\":false" };
            if body.contains(answer) {
                Verdict::Ok
            } else {
                Verdict::Wrong
            }
        }
        Ok(_) => Verdict::Error,
    }
}

/// Connections (and load-generating threads) of `wire-closed`: the
/// sandbox has two cores.
pub const WIRE_CONNECTIONS: usize = 2;

/// Runs `WIRE_CONNECTIONS` closed-loop clients against `server` for
/// `window`.
pub fn wire_window(
    server: &api::ServerHandle,
    queries: &[WireQuery],
    seed: u64,
    window: Duration,
) -> Result<Recorder, Failure> {
    let mut clients = Vec::new();
    for _ in 0..WIRE_CONNECTIONS {
        clients.push(api::connect(server)?);
    }
    let started = Instant::now();
    let mut rec = Recorder::new(window, 0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(i, mut client)| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(window, 0);
                    closed_loop(queries.len(), seed + i as u64, started, window, &mut rec, |i| {
                        wire_verdict(&mut client, &queries[i])
                    });
                    rec
                })
            })
            .collect();
        for h in handles {
            rec.merge(h.join().expect("wire client thread"));
        }
    });
    Ok(rec)
}

/// `wire-closed`: the serving layers, two keep-alive connections.
pub fn wire_closed(args: &ChildArgs) -> Result<ChildReport, Failure> {
    let queries = inputs::decode_wire(&inputs::read(&args.queries.wire())?)?;
    let mut rec = Recorder::new(args.window, 0);
    let mut setups = Vec::new();
    for keep in (0..SETUPS).map(|i| i + 1 == SETUPS) {
        let t0 = Instant::now();
        let engine = Arc::new(api::load_engine(&args.d5.engine())?);
        let server = api::serve(engine)?;
        // Warm up over both connections at once, each taking every other
        // query: one caller alone ping-pongs with the server, both cores
        // idle in turn, and the pass takes 0.1 s or 0.3 s by the mood of
        // the hypervisor's wake-ups.
        let mut clients = Vec::new();
        for _ in 0..WIRE_CONNECTIONS {
            clients.push(api::connect(&server)?);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(k, mut client)| {
                    let mine = queries.iter().skip(k).step_by(WIRE_CONNECTIONS);
                    scope.spawn(move || {
                        mine.map(|q| wire_verdict(&mut client, q)).collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("wire client thread").into_iter().for_each(|v| rec.count(v));
            }
        });
        setups.push(t0.elapsed().as_secs_f64());
        if keep {
            rec.merge(wire_window(&server, &queries, args.seed, args.window)?);
        }
        server.shutdown();
    }
    Ok(report(rec, Throughput::Counted, &setups, None, Failures::default()))
}

/// Acknowledgement latencies and counts of one open-loop update run.
#[derive(Debug, Default)]
pub struct UpdateRun {
    /// Latency from due time, nanoseconds, one per acknowledged batch.
    pub ack_ns: Vec<u32>,
    /// Generator lag, nanoseconds, same order.
    pub lag_ns: Vec<u32>,
    /// Batches consumed from the stream.
    pub sent: usize,
    /// Errors and unacknowledged batches.
    pub failures: Failures,
    /// Counts from the `UpdateOutcome`s.
    pub compactions: u64,
    /// See [`UpdateMetrics::index_patches`].
    pub index_patches: u64,
    /// See [`UpdateMetrics::index_rebuilds`].
    pub index_rebuilds: u64,
}

/// Sends `stream` through `DurableEngine::apply_update` on a fixed
/// schedule of [`UPDATE_RATE`] batches per second for `window`, timing
/// each acknowledgement from when the batch was due.
pub fn update_window(
    durable: &api::DurableEngine,
    stream: &[UpdateBatch],
    started: Instant,
    window: Duration,
) -> UpdateRun {
    let mut pacer = Pacer::new(UPDATE_RATE);
    let mut run = UpdateRun::default();
    let now_ns = || started.elapsed().as_nanos() as u64;
    let clamp = |ns: u64| ns.min(u64::from(u32::MAX)) as u32;
    for batch in stream {
        if pacer.due_ns() >= window.as_nanos() as u64 {
            break;
        }
        if started.elapsed() > window + ACK_GRACE {
            run.failures.unacked += 1;
            pacer.skip();
            continue;
        }
        let wait = pacer.wait_ns(now_ns());
        if wait > 0 {
            std::thread::sleep(Duration::from_nanos(wait));
        }
        let sent = now_ns();
        let out = api::durable_apply(durable, batch);
        let paced = pacer.complete(sent, now_ns());
        run.sent += 1;
        match out {
            Err(_) => run.failures.errors += 1,
            Ok(o) => {
                run.ack_ns.push(clamp(paced.latency_ns));
                run.lag_ns.push(clamp(paced.lag_ns));
                run.compactions += u64::from(o.outcome.compacted);
                match o.outcome.index {
                    api::IndexMaintenance::Patched { .. } => run.index_patches += 1,
                    api::IndexMaintenance::Rebuilt => run.index_rebuilds += 1,
                    _ => {}
                }
            }
        }
    }
    run
}

impl UpdateRun {
    /// The write-side metrics of this run.
    pub fn metrics(&self) -> UpdateMetrics {
        let (ack_p50_us, ack_tail_us, ack_tail_percentile) = measure::whole_window(&self.ack_ns);
        let mut lag = self.lag_ns.clone();
        lag.sort_unstable();
        let send_lag_tail_us = if lag.is_empty() {
            0.0
        } else {
            f64::from(stats::quantile(&lag, ack_tail_percentile)) / 1e3
        };
        UpdateMetrics {
            ack_p50_us,
            ack_tail_us,
            ack_tail_percentile,
            send_lag_tail_us,
            compactions: self.compactions,
            index_patches: self.index_patches,
            index_rebuilds: self.index_rebuilds,
        }
    }
}

/// The sampled queries with `L` narrowed to the top-3 labels — the
/// `wire-closed` queries, asked in-process.
pub fn narrow_queries(sampled: &[SampledQuery], narrow: api::LabelSet) -> Vec<LscrQuery> {
    let constraints = api::lubm_constraints();
    sampled
        .iter()
        .map(|q| api::query(q.source, q.target, narrow, constraints[q.constraint].1.clone()))
        .collect()
}

/// Everything left of `stream` as one batch: ops apply in order, so the
/// concatenation ends in the same graph, after one index repair instead
/// of thousands.
pub fn rest_of(stream: &[UpdateBatch]) -> UpdateBatch {
    let mut all = UpdateBatch::new();
    for op in stream.iter().flat_map(|b| b.ops()) {
        all.push(op.clone());
    }
    all
}

/// `update-mix`: a closed-loop read stream beside an open-loop write
/// stream, on an engine recovered from a checkpoint and a log.
///
/// The reads are the sampled queries under the *narrow* `L`. Under their
/// sampled `L` every update sends the S3 scans — a tenth of the set —
/// back to a 1.5 s cold `SCck` pass (each batch purges every memo), so a
/// window holds a dozen of them and ~40 answers a second, and no number
/// taken from it repeats; `core.engine.post_update_query_us` keeps that
/// cost in view. Narrowed, a purge costs a recompile and a `V(S,G)`
/// re-materialisation per constraint, and the window holds 10⁵ answers.
pub fn update_mix(args: &ChildArgs) -> Result<ChildReport, Failure> {
    let (sampled, check) = inputs::decode_queries(&inputs::read(&args.queries.queries())?)?;
    let broad = broad_queries(&sampled);
    let queries = narrow_queries(&sampled, check.narrow);
    let stream = inputs::decode_batches(&inputs::read(&args.updates.stream())?)?;
    // Recovery reads the directory and writes nothing until the first
    // update, so the three set-ups share one copy of the template.
    inputs::copy_dir(&args.updates.data_dir(), &args.work_dir)?;
    let mut rec = Recorder::new(args.window, 0);
    let mut setups = Vec::new();
    let mut result = None;
    for keep in (0..SETUPS).map(|i| i + 1 == SETUPS) {
        let t0 = Instant::now();
        let durable = api::open_durable(&args.work_dir)?;
        let engine: Arc<LscrEngine> = durable.engine();
        let mut session = engine.session();
        // Mid-stream the graph is not `lubm-d5`, so answers are checked
        // for errors and interrupts only; the final pass checks truth.
        for q in &queries {
            rec.count(verdict(api::answer(&mut session, q), None));
        }
        setups.push(t0.elapsed().as_secs_f64());
        if !keep {
            continue;
        }
        let started = Instant::now();
        let run = std::thread::scope(|scope| {
            let writer = scope.spawn(|| update_window(&durable, &stream, started, args.window));
            closed_loop(queries.len(), args.seed, started, args.window, &mut rec, |i| {
                verdict(api::answer(&mut session, &queries[i]), None)
            });
            writer.join().expect("update thread")
        });
        // The stream has ended: the graph is `lubm-d5` again, and both
        // forms of every query must give their ground truth.
        api::durable_apply(&durable, &rest_of(&stream[run.sent..]))?;
        for ((n, b), s) in queries.iter().zip(&broad).zip(&sampled) {
            rec.count(verdict(api::answer(&mut session, n), Some(s.narrow_expected)));
            rec.count(verdict(api::answer(&mut session, b), Some(s.expected)));
        }
        result = Some(run);
    }
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let run = result.expect("the last set-up is kept");
    rec.attempted += run.sent as u64 + run.failures.unacked;
    // A read right after a batch recompiles its purged plan: what an
    // operation costs depends on when it is asked.
    Ok(report(rec, Throughput::Counted, &setups, Some(run.metrics()), run.failures))
}

/// Runs the workload called `name`.
pub fn run(name: &str, args: &ChildArgs) -> Result<ChildReport, Failure> {
    match name {
        "search-broad" => search_broad(args),
        "constraint-churn" => constraint_churn(args),
        "wire-closed" => wire_closed(args),
        "update-mix" => update_mix(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}
