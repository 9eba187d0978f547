//! The traced run: the per-layer numbers.
//!
//! One process, after the timed runs. It replays each workload's inputs
//! but calls the layers *separately* — `compile`, then `plan_algorithm`,
//! then the kernel's `answer_with`, where a workload makes one
//! `answer_with_options` call — with a span around each call, and times
//! the layer entry points no workload reaches alone (snapshot load, index
//! build, WAL append…). Everything runs on one thread except the two
//! short segments that need a second one by definition (two wire
//! connections; a writer beside a reader) and says so in its name.
//!
//! The product carries no spans yet, so a span here can only enclose a
//! whole public call; what happens inside one is the next issue.

use crate::alloc::SwitchedAlloc;
use crate::api::{self, Algorithm, Arc, CompiledLscrQuery, Failure, Graph, Json, LscrEngine};
use crate::inputs::{self, Dataset, SampledQuery, WireQuery};
use crate::measure::{Recorder, Verdict};
use crate::report::obj;
use crate::span::{self, Span, Tracer};
use crate::spec;
use crate::stats;
use crate::workloads::{self, ChildArgs};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What the traced run is started with.
pub struct TraceArgs {
    /// Every workload's inputs; `window` is the budget the replays of
    /// timed windows are scaled from.
    pub inputs: ChildArgs,
    /// `lubm-2m`.
    pub big: Dataset,
    /// Seconds dataset generation took (reported, not repeated).
    pub datagen_s: f64,
    /// Seconds query sampling took.
    pub sampler_s: f64,
    /// Where `trace-<workload>.json` files go, if anywhere.
    pub out_dir: Option<PathBuf>,
    /// The process allocator, counting.
    pub alloc: &'static SwitchedAlloc,
}

/// Requests whose spans are written to a trace file; totals cover all.
const REQUESTS_WRITTEN: u32 = 100;
/// Update batches replayed per single-layer update measurement.
const BATCHES: usize = 256;
/// Untraced reads after each replayed batch: about what one reader fits
/// between two batches of the workload.
const READS_PER_BATCH: u64 = 128;

/// The per-layer numbers collected so far.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, (f64, u64)>,
    attempted: u64,
    failed: u64,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        let fresh = self.values.insert(name, (value, samples)).is_none();
        assert!(fresh, "{name} measured twice");
    }

    /// Median of per-call nanoseconds, reported in microseconds.
    fn set_median_us(&mut self, name: &'static str, ns: &[u64]) {
        let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
        self.set(name, stats::median(&v), ns.len() as u64);
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn get(&self, name: &str) -> f64 {
        self.values[name].0
    }
}

/// Runs `f` `reps` times; the median in seconds and the last result.
fn repeat<T>(reps: usize, mut f: impl FnMut() -> Result<T, Failure>) -> Result<(f64, T), Failure> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take()); // free the previous result before building the next
        let t = Instant::now();
        let out = f()?;
        secs.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    Ok((stats::median(&secs), last.expect("at least one repetition")))
}

/// Nanoseconds of each call of `f` over `items`.
fn time_each<I: IntoIterator, T>(items: I, mut f: impl FnMut(I::Item) -> T) -> Vec<u64> {
    items
        .into_iter()
        .map(|item| {
            let t = Instant::now();
            std::hint::black_box(f(item));
            t.elapsed().as_nanos() as u64
        })
        .collect()
}

/// Nanoseconds per item of a loop too short to time call by call: the
/// median over `reps` timings of the whole loop.
fn per_item_ns(reps: usize, items: usize, mut pass: impl FnMut()) -> f64 {
    let totals: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&totals) / items.max(1) as f64
}

fn kernel_span(algorithm: Algorithm) -> &'static str {
    match algorithm {
        Algorithm::Uis => "core.uis.answer_with",
        Algorithm::UisStar => "core.uis_star.answer_with",
        _ => "core.ins.answer_with",
    }
}

const KERNELS: [Algorithm; 3] = [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins];

/// Writes one workload's spans and their per-name totals.
fn write_trace(dir: &Path, workload: &str, spans: &[Span], note: &str) -> Result<(), Failure> {
    let by_name = span::totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| {
            let doc = obj(vec![
                ("count", Json::u64(t.count)),
                ("total_us", Json::Num(t.total_ns as f64 / 1e3)),
                ("self_us", Json::Num(t.self_ns as f64 / 1e3)),
            ]);
            (name.to_owned(), doc)
        })
        .collect();
    let written: Vec<Json> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.request < REQUESTS_WRITTEN)
        .map(|(id, s)| {
            obj(vec![
                ("id", Json::usize(id)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::u64(s.start_ns)),
                ("end_ns", Json::u64(s.end_ns)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::u64(u64::from(p)))),
                ("request", Json::u64(u64::from(s.request))),
            ])
        })
        .collect();
    let doc = obj(vec![
        ("workload", Json::str(workload)),
        ("note", Json::str(note)),
        ("spans_recorded", Json::usize(spans.len())),
        ("spans_written", Json::usize(written.len())),
        ("by_name", Json::Obj(by_name)),
        ("spans", Json::Arr(written)),
    ]);
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, crate::report::pretty(&doc)))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The sampled queries compiled through the engine's plan cache.
fn compile_all(
    engine: &LscrEngine,
    queries: &[api::LscrQuery],
) -> Result<Vec<CompiledLscrQuery>, Failure> {
    queries.iter().map(|q| api::compile(engine, q)).collect()
}

/// Per-query nanoseconds of `f`, the fastest of three passes.
fn fastest_of_three(n: usize, mut f: impl FnMut(usize)) -> Vec<u64> {
    let mut best = vec![u64::MAX; n];
    for _ in 0..3 {
        for (i, slot) in best.iter_mut().enumerate() {
            let t = Instant::now();
            f(i);
            *slot = (*slot).min(t.elapsed().as_nanos() as u64);
        }
    }
    best
}

fn mean(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64
}

struct Ctx<'a> {
    args: &'a TraceArgs,
    layers: Layers,
    sampled: Vec<SampledQuery>,
    /// The narrow `L` the sampler fixed.
    narrow: api::LabelSet,
}

impl Ctx<'_> {
    fn finish_trace(&self, workload: &str, tracer: &Tracer, note: &str) -> Result<(), Failure> {
        match &self.args.out_dir {
            Some(dir) => write_trace(dir, workload, tracer.spans(), note),
            None => Ok(()),
        }
    }
}

// ------------------------------------------------------------ the layers

/// `kg` and the build-time / size axes of `core`: snapshots, text
/// parsing, heap per edge, index build, load and size.
fn storage(ctx: &mut Ctx<'_>) -> Result<(), Failure> {
    let (d5, big, alloc) = (&ctx.args.inputs.d5, &ctx.args.big, ctx.args.alloc);
    let work = &ctx.args.inputs.work_dir;
    let l = &mut ctx.layers;

    let before = alloc.live_bytes();
    let (secs, g) = repeat(5, || api::load_graph_snapshot(&d5.graph()))?;
    let heap = alloc.live_bytes().wrapping_sub(before);
    let edges = g.num_edges() as f64;
    l.set("kg.snapshot.load_ms", secs * 1e3, 5);
    l.set("kg.graph.heap_bytes_per_edge", heap as f64 / edges, 1);
    let file = |p: &Path| std::fs::metadata(p).map(|m| m.len() as f64).map_err(|e| e.to_string());
    l.set("kg.snapshot.bytes_per_edge", file(&d5.graph())? / edges, 1);
    let tmp = work.join("graph.kgsnap");
    let (secs, ()) = repeat(3, || api::save_graph_snapshot(&g, &tmp))?;
    l.set("kg.snapshot.save_ms", secs * 1e3, 3);
    let (secs, _) = repeat(3, || api::load_graph_text(&d5.text()))?;
    l.set("kg.io.parse_build_ms", secs * 1e3, 3);

    let before = alloc.live_bytes();
    let (secs, index) = repeat(3, || Ok(api::build_index(&g, &api::LocalIndexConfig::default())))?;
    let heap = alloc.live_bytes().wrapping_sub(before);
    l.set("core.local_index.build_ms", secs * 1e3, 3);
    l.set("core.local_index.bytes_per_edge", heap as f64 / edges, 1);
    let tmp = work.join("index.kgsnap");
    api::save_index(&index, &tmp)?;
    let (secs, _) = repeat(5, || api::load_index(&tmp))?;
    l.set("core.local_index.load_ms", secs * 1e3, 5);
    drop((index, g));
    let (secs, _) = repeat(5, || api::load_engine(&d5.engine()))?;
    l.set("core.engine.snapshot_load_ms", secs * 1e3, 5);

    let (secs, _) = repeat(3, || api::load_engine(&big.engine()))?;
    l.set("core.engine.snapshot_load_2m_ms", secs * 1e3, 3);
    let (secs, g) = repeat(3, || api::load_graph_snapshot(&big.graph()))?;
    l.set("kg.snapshot.load_2m_ms", secs * 1e3, 3);
    let landmarks = inputs::Sizes::FULL.big_landmarks;
    for (name, threads) in
        [("core.local_index.build_2m_ms", 1), ("core.local_index.build_2m_t2_ms", 2)]
    {
        let (secs, _) =
            repeat(2, || Ok(api::build_index(&g, &api::index_config(landmarks, threads))))?;
        l.set(name, secs * 1e3, 2);
    }
    Ok(())
}

/// `sparql` alone: parse, plan, `SCck` and `V(S,G)`.
fn sparql(ctx: &mut Ctx<'_>, g: &Graph, texts: &[&str]) -> Result<(), Failure> {
    let l = &mut ctx.layers;
    let parsed = texts.iter().map(|t| api::sparql_parse(t)).collect::<Result<Vec<_>, _>>()?;
    l.set_median_us("sparql.parse_us", &time_each(texts, |t| api::sparql_parse(t)));
    l.set_median_us("sparql.plan_us", &time_each(&parsed, |q| api::sparql_plan(g, q)));
    l.set_median_us("core.constraint.parse_us", &time_each(texts, |t| api::parse_constraint(t)));

    let plans = api::lubm_constraints()
        .iter()
        .map(|(_, c)| api::sparql_plan(g, c.query()))
        .collect::<Result<Vec<_>, _>>()?;
    // Every eighth vertex: S3 alone costs 0.1 ms on some of them.
    let probes: Vec<_> = g.vertices().step_by(8).collect();
    let calls = plans.len() * probes.len();
    let ns = per_item_ns(2, calls, || {
        for plan in &plans {
            for &v in &probes {
                std::hint::black_box(api::sparql_satisfies(g, plan, v));
            }
        }
    });
    l.set("sparql.scck_ns", ns, 2 * calls as u64);
    let mut sizes = 0;
    let mut us = 0.0;
    for plan in &plans {
        let (secs, vsg) = repeat(2, || Ok(api::sparql_select(g, plan)))?;
        sizes += vsg.len();
        us += secs * 1e6;
    }
    l.set("sparql.vsg_us", us / plans.len() as f64, 2 * plans.len() as u64);
    l.set("sparql.vsg_size", sizes as f64 / plans.len() as f64, plans.len() as u64);
    Ok(())
}

/// `search-broad` replayed layer by layer, the kernels one by one, and
/// the paper's counts.
fn search_broad(ctx: &mut Ctx<'_>, engine: &LscrEngine) -> Result<(), Failure> {
    let (g, index) = (engine.graph(), engine.local_index());
    let sampled = ctx.sampled.clone();
    let broad = workloads::broad_queries(&sampled);
    let narrow = workloads::narrow_queries(&sampled, ctx.narrow);
    let n = broad.len();
    let mut session = engine.session();
    let mut scratch = api::SearchScratch::new(g.num_vertices());

    // Warm every cache the way a workload's set-up does.
    for (q, s) in broad.iter().zip(&sampled) {
        let out = api::answer(&mut session, q)?;
        ctx.layers.check(out.answer == s.expected && !out.interrupted);
    }

    // Untraced against traced, alternating, same queries, same process.
    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        for q in &broad {
            std::hint::black_box(api::answer(&mut session, q)?);
        }
        plain.push(n as f64 / t.elapsed().as_secs_f64());
        let t = Instant::now();
        for (i, (q, s)) in broad.iter().zip(&sampled).enumerate() {
            let i = i as u32;
            let root = tracer.open("search-broad.request", None, i);
            let cq =
                tracer.call("core.engine.compile", Some(root), i, || api::compile(engine, q))?;
            let alg =
                tracer.call("core.engine.plan_algorithm", Some(root), i, || api::plan(engine, &cq));
            let out = tracer.call(kernel_span(alg), Some(root), i, || {
                api::kernel(alg, &g, &index, &cq, &mut scratch)
            });
            tracer.close(root);
            ctx.layers.check(out.answer == s.expected);
        }
        traced.push(n as f64 / t.elapsed().as_secs_f64());
    }
    let ratio = stats::median(&traced) / stats::median(&plain);
    ctx.layers.set("kgbench.trace_overhead_ratio", ratio, 3);
    ctx.finish_trace(
        "search-broad",
        &tracer,
        "three passes over the sampled queries; per request: compile (plan-cache hit), \
         plan_algorithm, the chosen kernel's answer_with",
    )?;
    drop(tracer);

    let compiled = compile_all(engine, &broad)?;
    let compiled_narrow = compile_all(engine, &narrow)?;
    let l = &mut ctx.layers;
    let ns = per_item_ns(5, n, || {
        for q in &broad {
            std::hint::black_box(api::compile(engine, q).is_ok());
        }
    });
    l.set("core.engine.compile_hit_ns", ns, 5 * n as u64);
    let ns = per_item_ns(5, n, || {
        for q in &compiled {
            std::hint::black_box(api::plan(engine, q));
        }
    });
    l.set("core.engine.plan_ns", ns, 5 * n as u64);

    // Each kernel over the whole set, broad and narrow; the planner's
    // choice against the best fixed one.
    let mut kernel_ns = |set: &[CompiledLscrQuery], alg: Algorithm| {
        fastest_of_three(n, |i| {
            std::hint::black_box(api::kernel(alg, &g, &index, &set[i], &mut scratch));
        })
    };
    let broad_ns: Vec<Vec<u64>> = KERNELS.iter().map(|&a| kernel_ns(&compiled, a)).collect();
    let narrow_ns: Vec<Vec<u64>> =
        KERNELS.iter().map(|&a| kernel_ns(&compiled_narrow, a)).collect();
    let names = [
        ("core.uis.query_us", "core.uis.narrow_ns", "core.engine.auto_share_uis"),
        ("core.uis_star.query_us", "core.uis_star.narrow_ns", "core.engine.auto_share_uis_star"),
        ("core.ins.query_us", "core.ins.narrow_ns", "core.engine.auto_share_ins"),
    ];
    let slot = |alg: Algorithm| KERNELS.iter().position(|&k| k == alg).expect("a kernel");
    let chosen: Vec<usize> = compiled.iter().map(|q| slot(api::plan(engine, q))).collect();
    for (k, (query_us, narrow, share)) in names.into_iter().enumerate() {
        l.set(query_us, mean(&broad_ns[k]) / 1e3, 3 * n as u64);
        l.set(narrow, mean(&narrow_ns[k]), 3 * n as u64);
        l.set(share, chosen.iter().filter(|&&c| c == k).count() as f64 / n as f64, n as u64);
    }
    let auto: u64 = (0..n).map(|i| broad_ns[chosen[i]][i]).sum();
    let best: u64 = (0..n).map(|i| (0..3).map(|k| broad_ns[k][i]).min().expect("3")).sum();
    l.set("core.engine.auto_regret", auto as f64 / best as f64, n as u64);

    let session_ns = fastest_of_three(n, |i| {
        std::hint::black_box(api::answer(&mut session, &narrow[i]).is_ok());
    });
    let direct: u64 = compiled_narrow
        .iter()
        .enumerate()
        .map(|(i, q)| narrow_ns[slot(api::plan(engine, q))][i])
        .sum();
    l.set("core.session.narrow_query_ns", mean(&session_ns), 3 * n as u64);
    l.set(
        "core.session.overhead_ns",
        (session_ns.iter().sum::<u64>() as f64 - direct as f64) / n as f64,
        3 * n as u64,
    );

    // The paper's counts, per query, from one warm pass of the
    // end-to-end path. One thread: they repeat exactly.
    let mut sum = api::SearchStats::default();
    let (mut negative, mut bidi) = (0usize, 0usize);
    let t = Instant::now();
    for q in &broad {
        let s = api::answer(&mut session, q)?.stats;
        sum.passed_vertices += s.passed_vertices;
        sum.edges_scanned += s.edges_scanned;
        sum.edges_skipped += s.edges_skipped;
        sum.scck_calls += s.scck_calls;
        sum.scck_cache_hits += s.scck_cache_hits;
        sum.index_hits += s.index_hits;
        negative += usize::from(s.negative_terminations > 0);
        bidi += usize::from(s.backward_edges_scanned > 0);
    }
    let pass_ns = t.elapsed().as_nanos() as f64;
    let per_query = |x: usize| x as f64 / n as f64;
    l.set("core.search.passed_vertices", per_query(sum.passed_vertices), n as u64);
    l.set("core.search.edges_scanned", per_query(sum.edges_scanned), n as u64);
    l.set("core.search.edges_skipped", per_query(sum.edges_skipped), n as u64);
    l.set("core.search.scck_calls", per_query(sum.scck_calls), n as u64);
    l.set(
        "core.search.scck_cache_hit_ratio",
        sum.scck_cache_hits as f64 / sum.scck_calls.max(1) as f64,
        sum.scck_calls as u64,
    );
    l.set("core.search.index_hits", per_query(sum.index_hits), n as u64);
    l.set("core.search.negative_termination_share", per_query(negative), n as u64);
    l.set("core.search.bidi_share", per_query(bidi), n as u64);
    l.set(
        "core.search.ns_per_edge_scanned",
        pass_ns / sum.edges_scanned.max(1) as f64,
        sum.edges_scanned as u64,
    );

    let positives: Vec<_> = compiled
        .iter()
        .zip(&sampled)
        .filter(|(_, s)| s.expected)
        .map(|(q, _)| q)
        .take(200)
        .collect();
    let found = time_each(&positives, |q| api::find_witness(&g, q));
    l.set_median_us("core.witness.find_us", &found);
    Ok(())
}

/// `constraint-churn` replayed layer by layer: two passes over the
/// distinct constraints on a fresh engine — the first fills the plan
/// cache (every compile misses), the second is the steady state.
fn constraint_churn(ctx: &mut Ctx<'_>, d5: &Dataset) -> Result<(), Failure> {
    let churn = inputs::decode_churn(&inputs::read(&ctx.args.inputs.churn.file())?)?;
    let engine = api::load_engine(&d5.engine())?;
    let (g, index) = (engine.graph(), engine.local_index());
    let narrow = api::top_label_set(&g, 3);
    let mut scratch = api::SearchScratch::new(g.num_vertices());
    let mut tracer = Tracer::new();
    for pass in 0..2u32 {
        for (i, q) in churn.iter().enumerate() {
            let r = pass * churn.len() as u32 + i as u32;
            let root = tracer.open("constraint-churn.request", None, r);
            let parsed =
                tracer.call("sparql.parse", Some(root), r, || api::sparql_parse(&q.text))?;
            let c = tracer.call("core.constraint.from_query", Some(root), r, || {
                api::constraint_from_query(parsed)
            })?;
            let query = api::query(q.source, q.target, narrow, c);
            let cq = tracer
                .call("core.engine.compile", Some(root), r, || api::compile(&engine, &query))?;
            let alg = tracer
                .call("core.engine.plan_algorithm", Some(root), r, || api::plan(&engine, &cq));
            let out = tracer.call(kernel_span(alg), Some(root), r, || {
                api::kernel(alg, &g, &index, &cq, &mut scratch)
            });
            tracer.close(root);
            ctx.layers.check(out.answer == q.expected);
        }
    }
    let cached = engine.cached_plans();
    let misses: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "core.engine.compile" && (s.request as usize) < cached)
        .map(Span::duration_ns)
        .collect();
    ctx.layers.set_median_us("core.engine.compile_miss_us", &misses);
    ctx.layers.set("core.engine.cached_plans", cached as f64, 1);
    ctx.finish_trace(
        "constraint-churn",
        &tracer,
        "two passes over the distinct constraints on a fresh engine; per request: sparql parse, \
         constraint from_query, compile (misses until the cache is full, then never cached), \
         plan_algorithm, the chosen kernel's answer_with",
    )?;
    drop(tracer);
    let texts: Vec<&str> =
        churn.iter().take(api::PLAN_CACHE_CAP).map(|q| q.text.as_str()).collect();
    sparql(ctx, &g, &texts)
}

fn request_bytes(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: kg-serve\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Median latency, in microseconds, of `bodies` posted one at a time
/// over one connection.
fn wire_p50_us(
    client: &mut api::HttpClient,
    path: &str,
    bodies: &[String],
    layers: &mut Layers,
) -> Result<(f64, u64), Failure> {
    let mut ns = Vec::with_capacity(bodies.len());
    for body in bodies {
        let t = Instant::now();
        let (status, _) = api::post(client, path, body)?;
        ns.push(t.elapsed().as_nanos() as u64);
        layers.check(status == 200);
    }
    let us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    Ok((stats::median(&us), ns.len() as u64))
}

/// `wire-closed` replayed stage by stage on one thread, then the real
/// server: one connection (so the stages are sequential and their
/// medians can be set against the whole), then the variants.
fn wire_closed(ctx: &mut Ctx<'_>, engine: &Arc<LscrEngine>) -> Result<(), Failure> {
    let set = &ctx.args.inputs.queries;
    let wire = inputs::decode_wire(&inputs::read(&set.wire())?)?;
    let wire_broad = inputs::decode_wire(&inputs::read(&set.wire_broad())?)?;
    let g = engine.graph();
    let mut session = engine.session();

    // The two ends of a loopback connection, both in this thread: the
    // request is fully written before the server side starts reading.
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut client = api::connect_to(listener.local_addr().map_err(|e| e.to_string())?)?;
    let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
    api::prepare_accepted(&stream)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut tracer = Tracer::new();
    let mut requests = Vec::with_capacity(wire.len());
    for (i, q) in wire.iter().enumerate() {
        let i = i as u32;
        api::send_raw(&mut client, &request_bytes("/query", &q.body))?;
        let root = tracer.open("wire-closed.request", None, i);
        let body = tracer.call("serve.http.read_request", Some(root), i, || {
            api::http_read_request(&mut reader)
        })?;
        let text = String::from_utf8(body).map_err(|e| e.to_string())?;
        let json = tracer.call("serve.json.parse", Some(root), i, || api::json_parse(&text))?;
        let req =
            tracer.call("serve.protocol.parse", Some(root), i, || api::protocol_parse(&json))?;
        let query = tracer
            .call("serve.protocol.resolve", Some(root), i, || api::protocol_resolve(&req, &g))?;
        let out = tracer
            .call("core.session.answer", Some(root), i, || api::answer(&mut session, &query))?;
        let rendered =
            tracer.call("serve.protocol.render", Some(root), i, || api::protocol_render(&g, &out));
        let reply = tracer.call("serve.json.write", Some(root), i, || rendered.to_string());
        tracer.call("serve.http.write_response", Some(root), i, || {
            api::http_write_response(&mut stream, reply)
        })?;
        tracer.close(root);
        let (status, reply) = api::read_response(&mut client)?;
        let answer = if q.expected { "\"answer\":true" } else { "\"answer\":false" };
        ctx.layers.check(status == 200 && reply.contains(answer));
        requests.push(req);
    }
    drop((client, reader, stream, listener));

    let batcher = api::start_batcher(Arc::clone(engine));
    for (i, req) in requests.into_iter().enumerate() {
        let reply = tracer
            .call("serve.batch.roundtrip", None, i as u32, || api::batch_roundtrip(&batcher, req));
        ctx.layers.check(reply.is_ok());
    }
    batcher.shutdown();

    let spans = tracer.spans();
    let mut stage = |metric: &'static str, name: &str| {
        ctx.layers.set_median_us(metric, &span::durations_of(spans, name));
        ctx.layers.get(metric)
    };
    let read = stage("serve.http.read_request_us", "serve.http.read_request");
    let json_parse = stage("serve.json.parse_us", "serve.json.parse");
    let parse = stage("serve.protocol.parse_us", "serve.protocol.parse");
    let resolve = stage("serve.protocol.resolve_us", "serve.protocol.resolve");
    let render = stage("serve.protocol.render_us", "serve.protocol.render");
    let json_write = stage("serve.json.write_us", "serve.json.write");
    let write = stage("serve.http.write_response_us", "serve.http.write_response");
    let roundtrip = stage("serve.batch.roundtrip_us", "serve.batch.roundtrip");
    let answer = stats::median(
        &span::durations_of(spans, "core.session.answer")
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    let n = wire.len() as u64;
    ctx.layers.set("serve.batch.handoff_us", roundtrip - (resolve + answer + render), n);
    ctx.finish_trace(
        "wire-closed",
        &tracer,
        "one thread, both ends of a loopback connection; per request: http read_request, json \
         parse, protocol parse and resolve, session answer, protocol render, json write, http \
         write_response; serve.batch.roundtrip spans (submit to recv, one in flight) follow",
    )?;
    drop(tracer);

    // The real server. One connection first: nothing overlaps, so the
    // whole can be set against the sum of the stages measured alone.
    let server = api::serve(Arc::clone(engine))?;
    let mut client = api::connect(&server)?;
    let bodies = |set: &[WireQuery]| set.iter().map(|q| q.body.clone()).collect::<Vec<_>>();
    let narrow_bodies = bodies(&wire);
    wire_p50_us(&mut client, "/query", &narrow_bodies, &mut Layers::default())?; // warm
    let (c1, n) = wire_p50_us(&mut client, "/query", &narrow_bodies, &mut ctx.layers)?;
    let attributed = read + json_parse + parse + roundtrip + json_write + write;
    ctx.layers.set("serve.wire.c1_p50_us", c1, n);
    ctx.layers.set("serve.wire.c1_unattributed_us", c1 - attributed, n);
    ctx.layers.set("serve.wire.c1_attributed_share", attributed / c1, n);

    let (broad, n) = wire_p50_us(&mut client, "/query", &bodies(&wire_broad), &mut ctx.layers)?;
    ctx.layers.set("serve.wire.broad_p50_us", broad, n);
    let batches: Vec<String> = narrow_bodies
        .chunks_exact(16)
        .map(|c| format!("{{\"queries\":[{}]}}", c.join(",")))
        .collect();
    let (batch16, n) = wire_p50_us(&mut client, "/query_batch", &batches, &mut ctx.layers)?;
    ctx.layers.set("serve.wire.batch16_per_query_us", batch16 / 16.0, n);
    let rendered = time_each(0..200, |_| api::render_metrics(&server));
    ctx.layers.set_median_us("serve.metrics.render_us", &rendered);
    drop(client);

    // Two connections, briefly: the one place windows can coalesce.
    let before = api::server_counters(&server);
    let burst = ctx.args.inputs.window / 5;
    let rec = workloads::wire_window(&server, &wire, ctx.args.inputs.seed, burst)?;
    let after = api::server_counters(&server);
    ctx.layers.attempted += rec.attempted;
    ctx.layers.failed += rec.failures.total();
    let windows = (after.batch_windows - before.batch_windows).max(1);
    ctx.layers.set(
        "serve.batch.queries_per_window",
        (after.batched_queries - before.batched_queries) as f64 / windows as f64,
        windows,
    );
    ctx.layers.set("serve.server.shed_total", after.shed as f64, 1);
    ctx.layers.set("serve.server.retries_total", rec.failures.shed as f64, 1);
    server.shutdown();
    Ok(())
}

/// `update-mix` replayed: recovery, each update layer alone over the
/// same batches, the whole update path with the reads that follow a
/// batch, the overlay's tax on reads, and a short two-thread segment for
/// the open-loop numbers.
fn update_mix(ctx: &mut Ctx<'_>) -> Result<(), Failure> {
    let args = &ctx.args.inputs;
    let work = args.work_dir.join("data");
    let stream = inputs::decode_batches(&inputs::read(&args.updates.stream())?)?;
    let first = &stream[..BATCHES.min(stream.len())];
    let edits: usize = first.iter().map(api::UpdateBatch::len).sum();
    let sampled = ctx.sampled.clone();

    inputs::copy_dir(&args.updates.data_dir(), &work)?;
    let (secs, durable) = repeat(3, || api::open_durable(&work))?;
    ctx.layers.set("core.durable.recover_ms", secs * 1e3, 3);
    let engine = durable.engine();
    let (g0, index0) = (engine.graph(), engine.local_index());

    // Each layer of the update path alone, over the same batches.
    let mut g = (*g0).clone();
    let ns = time_each(first, |b| api::graph_apply(&mut g, b).is_ok());
    ctx.layers.set_median_us("kg.delta.apply_us", &ns);
    let (mut g, mut index) = ((*g0).clone(), Arc::clone(&index0));
    let mut ns = Vec::new();
    for b in first {
        let touched = api::graph_apply(&mut g, b)?.touched_sources;
        let t = Instant::now();
        let patched = api::patch_index(&index, &g, &touched);
        ns.push(t.elapsed().as_nanos() as u64);
        if let Some(p) = patched {
            index = Arc::new(p);
        }
    }
    ctx.layers.set_median_us("core.local_index.patch_us", &ns);
    drop((g, index));
    let plain = api::engine_from_parts((*g0).clone(), (*index0).clone())?;
    let ns = time_each(first, |b| api::engine_apply(&plain, b).is_ok());
    ctx.layers.set_median_us("core.engine.apply_update_us", &ns);
    drop(plain);

    let wal_path = args.work_dir.join("bench.wal");
    let mut wal = api::Wal::create(&wal_path, false)?;
    let ns = time_each(first, |b| wal.append(b).is_ok());
    ctx.layers.set_median_us("kg.wal.append_us", &ns);
    ctx.layers.set("kg.wal.bytes_per_edit", wal.record_bytes() as f64 / edits as f64, edits as u64);
    drop(wal);
    let (secs, records) = repeat(5, || api::Wal::replay(&wal_path))?;
    ctx.layers.check(records == first.len());
    ctx.layers.set("kg.wal.replay_ms", secs * 1e3, 5);
    let mut wal = api::Wal::create(&wal_path, true)?;
    let ns = time_each(first.iter().take(64), |b| wal.append(b).is_ok());
    ctx.layers.set_median_us("kg.wal.append_fsync_us", &ns);
    drop(wal);

    // The whole path, half as many batches as a window sends: each batch
    // through the durable engine, then the first read of every
    // constraint (it pays for the purge), then the reads that would fit
    // before the next batch. Reads are the narrowed queries, as in the
    // workload.
    let batches = (args.window.as_secs_f64() * workloads::UPDATE_RATE as f64 / 2.0) as usize;
    let replayed = &stream[..batches.min(stream.len())];
    let narrow = workloads::narrow_queries(&sampled, ctx.narrow);
    let mut session = engine.session();
    let mut tracer = Tracer::new();
    let (mut compactions, mut patches, mut rebuilds) = (0u64, 0u64, 0u64);
    let (mut read_ns, mut reads, mut cursor) = (0u64, 0u64, 0usize);
    let by_constraint: Vec<Vec<usize>> = (0..5)
        .map(|c| (0..sampled.len()).filter(|&i| sampled[i].constraint == c).collect())
        .collect();
    for (k, batch) in replayed.iter().enumerate() {
        let root = tracer.open("update-mix.batch", None, k as u32);
        let out = tracer.call("core.durable.apply_update", Some(root), k as u32, || {
            api::durable_apply(&durable, batch)
        })?;
        compactions += u64::from(out.outcome.compacted);
        match out.outcome.index {
            api::IndexMaintenance::Patched { .. } => patches += 1,
            api::IndexMaintenance::Rebuilt => rebuilds += 1,
            _ => {}
        }
        for of_constraint in &by_constraint {
            let i = of_constraint[k % of_constraint.len()];
            let ok = tracer.call("core.engine.post_update_query", Some(root), k as u32, || {
                api::answer(&mut session, &narrow[i]).is_ok()
            });
            ctx.layers.check(ok);
        }
        tracer.close(root);
        let t = Instant::now();
        for _ in 0..READS_PER_BATCH {
            cursor = (cursor + 1) % narrow.len();
            std::hint::black_box(api::answer(&mut session, &narrow[cursor]).is_ok());
        }
        read_ns += t.elapsed().as_nanos() as u64;
        reads += READS_PER_BATCH;
    }
    let spans = tracer.spans();
    let n = replayed.len() as u64;
    ctx.layers.set_median_us(
        "core.durable.apply_update_us",
        &span::durations_of(spans, "core.durable.apply_update"),
    );
    ctx.layers.set_median_us(
        "core.engine.post_update_query_us",
        &span::durations_of(spans, "core.engine.post_update_query"),
    );
    ctx.layers.set("core.engine.compactions", compactions as f64, n);
    ctx.layers.set("core.engine.index_patches", patches as f64, n);
    ctx.layers.set("core.engine.index_rebuilds", rebuilds as f64, n);
    // Narrow reads alone against the same reads between update batches.
    let alone_ns = ctx.layers.get("core.session.narrow_query_ns");
    ctx.layers.set("core.engine.update_tax_ratio", read_ns as f64 / reads as f64 / alone_ns, reads);
    ctx.finish_trace(
        "update-mix",
        &tracer,
        "one thread; per batch: DurableEngine::apply_update, then the first narrowed read of each \
         of S1-S5, which pays for the purge; untraced narrowed reads follow every batch",
    )?;
    drop((tracer, session));

    let mut ns = Vec::new();
    for batch in stream[replayed.len()..].iter().take(3) {
        api::durable_apply(&durable, batch)?;
        let t = Instant::now();
        ctx.layers.check(api::durable_checkpoint(&durable)?);
        ns.push(t.elapsed().as_nanos() as f64 / 1e6);
    }
    ctx.layers.set("core.durable.checkpoint_ms", stats::median(&ns), ns.len() as u64);
    drop((durable, engine));

    // The overlay's tax on reads: UIS over the fully streamed graph
    // against the same graph compacted.
    let mut streamed = (*g0).clone();
    api::graph_apply(&mut streamed, &workloads::rest_of(&stream))?;
    let (secs, compact) = repeat(3, || Ok(api::compacted(&streamed)))?;
    ctx.layers.set("kg.graph.compact_ms", secs * 1e3, 3);
    let pass_ns = |g: &Graph| -> Result<f64, Failure> {
        let constraints = api::lubm_constraints()
            .iter()
            .map(|(_, c)| api::compile_constraint(c, g))
            .collect::<Result<Vec<_>, _>>()?;
        let queries: Vec<_> = sampled
            .iter()
            .map(|q| api::compiled_query(q.source, q.target, q.labels, &constraints[q.constraint]))
            .collect();
        let mut scratch = api::SearchScratch::new(g.num_vertices());
        let ns = fastest_of_three(queries.len(), |i| {
            std::hint::black_box(api::kernel(
                Algorithm::Uis,
                g,
                &index0,
                &queries[i],
                &mut scratch,
            ));
        });
        Ok(ns.iter().sum::<u64>() as f64)
    };
    let ratio = pass_ns(&streamed)? / pass_ns(&compact)?;
    ctx.layers.set("kg.delta.overlay_read_tax_ratio", ratio, 3 * sampled.len() as u64);
    drop((streamed, compact));

    // Open loop beside a reader, briefly: acknowledgement latency from
    // due time, and how late the generator itself ran.
    inputs::copy_dir(&args.updates.data_dir(), &work)?;
    let durable = api::open_durable(&work)?;
    let engine = durable.engine();
    let mut session = engine.session();
    let segment = args.window / 5;
    let started = Instant::now();
    let run = std::thread::scope(|scope| {
        let writer = scope.spawn(|| workloads::update_window(&durable, &stream, started, segment));
        let mut rec = Recorder::new(segment, 0);
        let mut i = 0;
        while started.elapsed() < segment {
            i = (i + 1) % narrow.len();
            let ok = api::answer(&mut session, &narrow[i]).is_ok();
            rec.count(if ok { Verdict::Ok } else { Verdict::Error });
        }
        ctx.layers.attempted += rec.attempted;
        ctx.layers.failed += rec.failures.total();
        writer.join().expect("update thread")
    });
    ctx.layers.attempted += run.sent as u64 + run.failures.unacked;
    ctx.layers.failed += run.failures.total();
    let m = run.metrics();
    let acks = run.ack_ns.len() as u64;
    ctx.layers.set("update_ack_p50_us", m.ack_p50_us.value, acks);
    ctx.layers.set("update_ack_p99_us", m.ack_tail_us.value, acks);
    ctx.layers.set("kgbench.update_send_lag_p99_us", m.send_lag_tail_us, acks);
    drop(session);

    // `POST /update` against the same recovered state.
    let server = api::serve(engine)?;
    let mut client = api::connect(&server)?;
    let bodies: Vec<String> =
        stream[run.sent..].iter().take(128).map(|b| api::update_body(b).to_string()).collect();
    let (p50, n) = wire_p50_us(&mut client, "/update", &bodies, &mut ctx.layers)?;
    ctx.layers.set("serve.wire.update_p50_us", p50, n);
    drop(client);
    server.shutdown();
    Ok(())
}

/// The traced run. Returns `{"metric": {"value", "unit", "samples"}}`
/// holding every per-layer metric of [`spec::PER_LAYER`].
pub fn run(args: &TraceArgs) -> Result<Json, Failure> {
    let _ = std::fs::remove_dir_all(&args.inputs.work_dir);
    std::fs::create_dir_all(&args.inputs.work_dir).map_err(|e| e.to_string())?;
    let (sampled, check) = inputs::decode_queries(&inputs::read(&args.inputs.queries.queries())?)?;
    let mut ctx = Ctx { args, layers: Layers::default(), sampled, narrow: check.narrow };
    ctx.layers.attempted += check.oracle_checked as u64;
    ctx.layers.failed += check.oracle_disagreements as u64;
    ctx.layers.set("kgbench.datagen_s", args.datagen_s, 1);
    ctx.layers.set("kgbench.sampler_s", args.sampler_s, 1);

    let started = Instant::now();
    let progress =
        |what: &str| eprintln!("trace: {what} done at {:.1} s", started.elapsed().as_secs_f64());
    storage(&mut ctx)?;
    progress("storage");
    let engine = Arc::new(api::load_engine(&args.inputs.d5.engine())?);
    search_broad(&mut ctx, &engine)?;
    progress("search-broad");
    wire_closed(&mut ctx, &engine)?;
    progress("wire-closed");
    drop(engine);
    constraint_churn(&mut ctx, &args.inputs.d5)?;
    progress("constraint-churn");
    update_mix(&mut ctx)?;
    progress("update-mix");
    let _ = std::fs::remove_dir_all(&args.inputs.work_dir);

    let mut doc = Vec::new();
    for m in spec::PER_LAYER {
        let (value, samples) =
            *ctx.layers.values.get(m.name).ok_or_else(|| format!("{} was not measured", m.name))?;
        let entry = obj(vec![
            ("value", Json::Num(value)),
            ("unit", Json::str(m.unit)),
            ("samples", Json::u64(samples)),
        ]);
        doc.push((m.name.to_owned(), entry));
    }
    let count = |n: u64| obj(vec![("value", Json::u64(n)), ("unit", Json::str("count"))]);
    doc.push(("kgbench.trace_attempted".into(), count(ctx.layers.attempted)));
    doc.push(("kgbench.trace_failed".into(), count(ctx.layers.failed)));
    Ok(Json::Obj(doc))
}
