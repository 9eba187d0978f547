//! The differential matrix: every oracle comparison of the integration
//! suites is a case of this one generator, and each check of a case is
//! written here, once.
//!
//! A case is a graph shape × an update script × a query × a [`Run`] (an
//! algorithm under some [`QueryOptions`], optionally swept over every step
//! budget) × a serving [`Form`]. Shapes are plain graphs — figure 3 and the
//! small funnels come with their canonical queries ([`figure3_pairs`],
//! [`small_funnel_pairs`]). Scripts are [`random_batches`] or a [`holdout`]
//! stream, which [`Matrix::new`] applies to a live engine; the reference
//! graph is then a rebuild from its triples. Queries ([`all_pairs`],
//! [`lubm_draws`], [`s1_s3`], or a slice's own) are drawn on the reference
//! graph and translated by name into each form's graph.
//!
//! Every outcome equals the oracle's answer, except that one a limit
//! interrupted is never `true` (Dumbrava et al.'s "unknown, never false");
//! it carries a witness exactly when asked and true, which passes
//! [`assert_witness`], as the oracle's own does; UIS pushes stay within
//! `2|V|` per endpoint side and `|V|` per candidate side (Theorem 3.3, per
//! side); and `Auto` records a concrete algorithm. A suite adds only what its slice expects,
//! in the observer [`Matrix::run`] shows each [`Case`]. A new axis is one
//! [`Form`] arm, one [`QueryOptions`] field, or one query source.

use kgreach::fixtures::{figure3, s0};
use kgreach::{
    find_witness, ins, uis, uis_star, Algorithm, CompiledLscrQuery, DurableEngine, FsyncPolicy,
    IndexMaintenance, LocalIndex, LocalIndexConfig, LscrEngine, LscrQuery, QueryOptions,
    QueryOutcome, SearchScratch, SearchStats, SubstructureConstraint, VsgOrder, WalConfig, Witness,
};
use kgreach_datagen::funnel::{self, FunnelConfig};
use kgreach_datagen::queries::{generate_workload, QueryGenConfig};
use kgreach_datagen::updates::{update_workload, UpdateWorkloadConfig};
use kgreach_datagen::{all_lubm_constraints, top_label_set};
use kgreach_graph::{
    io, Edge, Graph, GraphBuilder, LabelId, LabelSet, Triple, UpdateBatch, VertexId,
};
use kgreach_serve::protocol::parse_algorithm;
use kgreach_serve::{serve, HttpClient, Json, ServerConfig};
use kgreach_sync::Arc;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The algorithms a client can ask for.
pub const ALGORITHMS: [Algorithm; 4] =
    [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto];

/// Where a case's answer comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `uis` / `uis_star` / `ins::answer_with` on one scratch, each query
    /// compiled once for all its runs (its memos fill in run order).
    Kernels,
    /// The engine over the reference graph, through its plan cache.
    Engine,
    /// An engine over the reference graph's text triples, parsed back.
    Text,
    /// The live engine saved to a snapshot file and restored.
    Snapshot,
    /// The live engine that ran the script, overlay and all.
    Overlay,
    /// A `DurableEngine` that logged the script, crashed, and recovered.
    Wal,
    /// One `POST /query` per case to a server over the engine.
    Wire,
    /// One `POST /query_batch` per run, holding every query.
    WireBatch,
    /// The live engine's `answer_batch` on 8 threads (default options only).
    Batch8,
}

/// One algorithm under one set of options; `sweep` also runs it under every
/// step budget from 0 to one that lets it finish (per-query forms only).
#[derive(Clone, Debug)]
pub struct Run {
    pub alg: Algorithm,
    pub opts: QueryOptions,
    pub sweep: bool,
}

impl Run {
    /// `opts` under each of `algs`.
    pub fn each(algs: &[Algorithm], opts: &QueryOptions, sweep: bool) -> Vec<Run> {
        algs.iter().map(|&alg| Run { alg, opts: opts.clone(), sweep }).collect()
    }
}

/// One answered case, as a slice's observer sees it: indices into the
/// queries and runs, and — on the in-process forms — `|V(S,G)|` as the plan
/// held it before the run, the exact count `Auto` plans from.
#[derive(Debug)]
pub struct Case {
    pub form: Form,
    pub query: usize,
    pub run: usize,
    pub vsg_hint: Option<usize>,
}

/// An answer, however it was served (over the wire, `stats` holds only
/// `algorithm`, `pushes`, `edges_scanned` and `vsg_size`).
#[derive(Clone, Debug)]
pub struct Outcome {
    pub answer: bool,
    pub interrupted: bool,
    pub stats: SearchStats,
    pub witness: Option<Witness>,
}

impl From<QueryOutcome> for Outcome {
    fn from(o: QueryOutcome) -> Outcome {
        Outcome { answer: o.answer, interrupted: o.interrupted, stats: o.stats, witness: o.witness }
    }
}

/// The cases over one shape and update script.
pub struct Matrix {
    /// The reference graph: queries are drawn on it, the oracle answers
    /// over it.
    pub graph: Arc<Graph>,
    /// The engine the script ran on (over the shape, without a script).
    pub live: Arc<LscrEngine>,
    /// The engine over the reference graph: `live` without a script.
    pub engine: Arc<LscrEngine>,
    /// Script batches the live index was patched for, not rebuilt.
    pub patched: usize,
    base: Graph,
    script: Vec<UpdateBatch>,
    index: LocalIndexConfig,
    flip: Option<Form>,
}

impl Matrix {
    /// Cases over `g`: no script, the default index configuration.
    pub fn of(g: Graph) -> Matrix {
        Matrix::new(g, Vec::new(), LocalIndexConfig::default())
    }

    /// Cases over what `script` leaves of `base`, every engine's index
    /// configured by `index`. The live engine builds its index first, so
    /// the script maintains it incrementally.
    pub fn new(base: Graph, script: Vec<UpdateBatch>, index: LocalIndexConfig) -> Matrix {
        let live = Arc::new(LscrEngine::with_index_config(base.clone(), index.clone()));
        let mut patched = 0;
        if !script.is_empty() {
            live.local_index();
            for batch in &script {
                let out = live.apply_update(batch).unwrap();
                patched += usize::from(matches!(out.index, IndexMaintenance::Patched { .. }));
            }
        }
        let (graph, engine) = if script.is_empty() {
            (live.graph(), Arc::clone(&live))
        } else {
            let graph = Arc::new(graph_from(live.graph().to_triples()));
            (Arc::clone(&graph), Arc::new(LscrEngine::with_index_config(graph, index.clone())))
        };
        Matrix { graph, live, engine, patched, base, script, index, flip: None }
    }

    /// The negative control's fault: `form` serves its first answer flipped.
    pub fn flipping(mut self, form: Form) -> Matrix {
        self.flip = Some(form);
        self
    }

    /// Answers every query under every run in every form, query by query,
    /// checks each outcome, and shows it to `observe`.
    pub fn run(
        &self,
        queries: &[LscrQuery],
        runs: &[Run],
        forms: &[Form],
        mut observe: impl FnMut(&Case, &Outcome),
    ) {
        let g = &self.graph;
        let truth: Vec<bool> = (queries.iter().map(|q| q.compile(g).unwrap()))
            .map(|cq| find_witness(g, &cq).map(|w| assert_witness(g, &cq, &w)).is_some())
            .collect();
        for &form in forms {
            let engine = self.engine_for(form);
            let fg = engine.as_ref().map_or_else(|| Arc::clone(g), |e| e.graph());
            let tqs: Vec<LscrQuery> = queries.iter().map(|q| translate(q, g, &fg)).collect();
            let server = matches!(form, Form::Wire | Form::WireBatch)
                .then(|| serve(Arc::clone(&self.engine), ServerConfig::default()).unwrap());
            let mut client = server.as_ref().map(|s| HttpClient::connect(s.addr()).unwrap());
            // The batch forms answer each run's queries together, up front.
            let batched: Option<Vec<Vec<Outcome>>> = matches!(form, Form::WireBatch | Form::Batch8)
                .then(|| {
                    (runs.iter().map(|run| match &mut client {
                        Some(c) => {
                            let bodies: Vec<_> =
                                tqs.iter().map(|q| wire_body(&fg, q, run.alg, &run.opts)).collect();
                            let body = format!("{{\"queries\":[{}]}}", bodies.join(","));
                            let results = post(c, "/query_batch", &body);
                            let results = results.get("results").and_then(Json::as_array).unwrap();
                            results.iter().map(|j| from_wire(&fg, j)).collect()
                        }
                        None => {
                            let batch: Vec<_> = tqs.iter().map(|q| (q.clone(), run.alg)).collect();
                            let outs = engine.as_ref().unwrap().answer_batch(&batch, 8);
                            outs.into_iter().map(|o| o.unwrap().into()).collect()
                        }
                    }))
                    .collect()
                });
            let (mut scratch, mut index, mut compiled) =
                (SearchScratch::new(fg.num_vertices()), None, None);
            let mut answer = |i: usize, r: usize, alg: Algorithm, opts: &QueryOptions| {
                let q = &tqs[i];
                if let Some(batched) = &batched {
                    assert!(!runs[r].sweep, "{form:?} answers whole batches");
                    return (batched[r][i].clone(), None);
                }
                if let Some(c) = &mut client {
                    let body = wire_body(&fg, q, alg, opts);
                    return (from_wire(&fg, &post(c, "/query", &body)), None);
                }
                if let Some(engine) = &engine {
                    let plan = engine.compile(q).unwrap();
                    let hint = plan.constraint.vsg_len_if_materialized();
                    return (engine.answer_compiled(&plan, alg, opts).unwrap().into(), hint);
                }
                if !matches!(compiled, Some((at, _)) if at == i) {
                    compiled = Some((i, q.compile(&fg).unwrap()));
                }
                let cq: &CompiledLscrQuery = &compiled.as_ref().unwrap().1;
                let hint = cq.constraint.vsg_len_if_materialized();
                let out = match alg {
                    Algorithm::Uis => uis::answer_with(&fg, cq, &mut scratch, opts),
                    Algorithm::UisStar => uis_star::answer_with(&fg, cq, &mut scratch, opts),
                    Algorithm::Ins => {
                        let index =
                            index.get_or_insert_with(|| LocalIndex::build(&fg, &self.index));
                        ins::answer_with(&fg, cq, index, &mut scratch, opts)
                    }
                    other => panic!("{other} runs on an engine, not on the kernels"),
                };
                (out.into(), hint)
            };
            // Every check of an outcome, each written once.
            let mut flip = self.flip == Some(form);
            let mut check = |i: usize, alg: Algorithm, opts: &QueryOptions, out: &mut Outcome| {
                // The negative control's fault, on the answer as served.
                out.answer ^= std::mem::take(&mut flip);
                let q = &tqs[i];
                let ctx = || format!("{form:?} {alg} query {i} {q:?} under {opts:?}");
                if out.interrupted {
                    assert!(!out.answer, "{}: interrupted, yet true", ctx());
                    assert!(opts.step_budget.is_some() || opts.timeout.is_some(), "{}", ctx());
                } else {
                    assert_eq!(out.answer, truth[i], "{}: the oracle disagrees", ctx());
                }
                let ran = out.stats.algorithm.unwrap_or(alg);
                let concrete = matches!(ran, Algorithm::Uis | Algorithm::UisStar | Algorithm::Ins);
                assert!(alg != Algorithm::Auto || concrete, "{}: Auto ran {ran:?}", ctx());
                // Theorem 3.3 per side: 2|V| pushes on each endpoint side,
                // |V| on each candidate side once they seed.
                let sides = if opts.one_frontier { 2 } else { 4 };
                let candidates = if out.stats.vsg_size.is_some() { 2 } else { 0 };
                let bound = (sides + candidates) * fg.num_vertices();
                let pushes = out.stats.pushes;
                assert!(ran != Algorithm::Uis || pushes <= bound, "{}: {pushes} pushes", ctx());
                let asked = opts.witness && out.answer;
                assert_eq!(out.witness.is_some(), asked, "{}: {:?}", ctx(), out.witness);
                if let Some(w) = &out.witness {
                    assert_witness(&fg, &q.compile(&fg).unwrap(), w);
                }
            };
            for i in 0..tqs.len() {
                for (r, run) in runs.iter().enumerate() {
                    let (mut out, vsg_hint) = answer(i, r, run.alg, &run.opts);
                    check(i, run.alg, &run.opts, &mut out);
                    let enough = out.stats.edges_scanned as u64 + 1;
                    for budget in (0..=enough).take_while(|_| run.sweep) {
                        let opts = run.opts.clone().with_step_budget(budget);
                        let (mut cut, _) = answer(i, r, run.alg, &opts);
                        check(i, run.alg, &opts, &mut cut);
                        assert!(budget < enough || !cut.interrupted, "{form:?} query {i}");
                    }
                    observe(&Case { form, query: i, run: r, vsg_hint }, &out);
                }
            }
            if let Some(server) = server {
                server.shutdown();
            }
        }
    }

    /// The engine `form` answers with, built and checked here for the forms
    /// that derive one; `None` for the raw kernels.
    fn engine_for(&self, form: Form) -> Option<Arc<LscrEngine>> {
        let dir = std::env::temp_dir().join(format!("kgmatrix-{}-{:p}", std::process::id(), self));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = match form {
            Form::Kernels => return None,
            Form::Engine | Form::Wire | Form::WireBatch => return Some(Arc::clone(&self.engine)),
            Form::Overlay | Form::Batch8 => return Some(Arc::clone(&self.live)),
            Form::Text => {
                let mut text = Vec::new();
                io::write_graph(&self.graph, &mut text).unwrap();
                let g = io::read_graph(&text[..]).unwrap();
                Arc::new(LscrEngine::with_index_config(g, self.index.clone()))
            }
            Form::Snapshot => {
                std::fs::create_dir_all(&dir).unwrap();
                self.live.save_snapshot_file(dir.join("engine.kgsnap")).unwrap();
                let restored = LscrEngine::from_snapshot_file(dir.join("engine.kgsnap")).unwrap();
                assert_eq!(restored.graph().fingerprint(), self.live.graph().fingerprint());
                assert!(!restored.graph().has_overlay(), "snapshots restore compact");
                let indexed = |e: &LscrEngine| e.local_index_if_built().is_some();
                assert_eq!(indexed(&restored), indexed(&self.live), "the index travels along");
                Arc::new(restored)
            }
            Form::Wal => {
                // Log the script, crash (no checkpoint, no shutdown), recover.
                let config = WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: u64::MAX };
                let (base, index) = (self.base.clone(), self.index.clone());
                let init = || Ok(LscrEngine::with_index_config(base, index));
                let (durable, _) = DurableEngine::open(&dir, config.clone(), init).unwrap();
                for batch in &self.script {
                    durable.apply_update(batch).unwrap();
                }
                let logged = durable.stats().last_seq;
                drop(durable);
                let (durable, report) =
                    DurableEngine::open(&dir, config, || panic!("init must not rerun")).unwrap();
                assert_eq!((report.replayed, report.skipped), (logged, 0));
                durable.engine()
            }
        };
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(triples(&engine.graph()), triples(&self.live.graph()), "{form:?} lost edges");
        Some(engine)
    }
}

/// Checks that `w` certifies `q` on `g`: a path of existing edges with
/// labels in `L` from `s` to `t` (empty only when `s = t`), and `via` is
/// the first vertex on it that satisfies `S`.
pub fn assert_witness(g: &Graph, q: &CompiledLscrQuery, w: &Witness) {
    let vertices = if w.path.is_empty() { vec![q.source] } else { w.vertices() };
    assert_eq!(vertices.first(), Some(&q.source), "witness does not start at s: {w:?}");
    assert_eq!(vertices.last(), Some(&q.target), "witness does not end at t: {w:?}");
    for pair in w.path.windows(2) {
        assert_eq!(pair[0].dst, pair[1].src, "witness edges do not connect: {w:?}");
    }
    for e in &w.path {
        assert!(g.has_edge(e.src, e.label, e.dst), "witness edge {e:?} is not in the graph");
        assert!(q.label_constraint.contains(e.label), "witness edge {e:?} has a label outside L");
    }
    let first = vertices.into_iter().find(|&v| q.constraint.satisfies(g, v));
    assert_eq!(first, Some(w.via), "via is not the first vertex satisfying S: {w:?}");
}

/// `q`, drawn on `from`, in `to`'s ids by name. A label `to` lacks has no
/// edges there, so dropping it from `L` keeps the answer.
fn translate(q: &LscrQuery, from: &Graph, to: &Graph) -> LscrQuery {
    let vertex = |v| to.vertex_id(from.vertex_name(v)).expect("every reference vertex is served");
    let labels =
        q.label_constraint.iter().filter_map(|l| to.label_id(from.label_name(l))).collect();
    LscrQuery::new(vertex(q.source), vertex(q.target), labels, q.constraint.clone())
}

/// The `/query` body for `q` on `g` — names, not ids — with the options the
/// wire carries: the witness flag and the step budget.
pub fn wire_body(g: &Graph, q: &LscrQuery, alg: Algorithm, opts: &QueryOptions) -> String {
    let on_wire = !opts.one_frontier && opts.vsg_order == VsgOrder::default();
    assert!(on_wire && opts.timeout.is_none(), "not on the wire: {opts:?}");
    let labels = q.label_constraint.iter().map(|l| Json::str(g.label_name(l))).collect();
    let budget = opts.step_budget.map_or(Json::Null, Json::u64);
    let fields = [
        ("source", Json::str(g.vertex_name(q.source))),
        ("target", Json::str(g.vertex_name(q.target))),
        ("labels", Json::Arr(labels)),
        ("constraint", Json::str(q.constraint.sparql_text())),
        ("algorithm", Json::str(alg.name())),
        ("witness", Json::Bool(opts.witness)),
        ("step_budget", budget),
    ];
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect()).to_string()
}

/// POSTs `body` to `path` and returns the `200` response's JSON.
fn post(client: &mut HttpClient, path: &str, body: &str) -> Json {
    let resp = client.post_json(path, body).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    resp.json().unwrap()
}

/// An outcome read back from its wire object, names resolved on `g`.
fn from_wire(g: &Graph, j: &Json) -> Outcome {
    fn field<'j>(j: &'j Json, k: &str) -> &'j Json {
        j.get(k).unwrap_or_else(|| panic!("no {k} in {j}"))
    }
    let name = |j: &Json, k: &str| field(j, k).as_str().unwrap().to_owned();
    let vertex = |j: &Json, k: &str| g.vertex_id(&name(j, k)).expect("a served vertex");
    let count = |k: &str| field(field(j, "stats"), k).as_u64().unwrap() as usize;
    let mut stats = SearchStats::default();
    stats.algorithm = field(j, "algorithm").as_str().and_then(parse_algorithm);
    (stats.pushes, stats.edges_scanned) = (count("pushes"), count("edges_scanned"));
    stats.vsg_size = field(field(j, "stats"), "vsg_size").as_u64().map(|n| n as usize);
    let edge = |e: &Json| {
        let label = g.label_id(&name(e, "label")).expect("a served label");
        Edge::new(vertex(e, "src"), label, vertex(e, "dst"))
    };
    let witness = Some(field(j, "witness")).filter(|w| **w != Json::Null).map(|w| Witness {
        via: vertex(w, "via"),
        path: field(w, "path").as_array().unwrap().iter().map(edge).collect(),
    });
    let flag = |k: &str| field(j, k).as_bool().unwrap();
    Outcome { answer: flag("answer"), interrupted: flag("interrupted"), stats, witness }
}

/// A graph built from `triples`.
fn graph_from(triples: impl IntoIterator<Item = Triple>) -> Graph {
    let mut b = GraphBuilder::new();
    triples.into_iter().for_each(|t| b.add(&t));
    b.build().expect("labels fit")
}

/// `g`'s triples, sorted.
fn triples(g: &Graph) -> Vec<(String, String, String)> {
    let mut triples: Vec<_> = g.to_triples().map(|t| (t.subject, t.predicate, t.object)).collect();
    triples.sort();
    triples
}

/// Figure 3, every `(s, t)` pair under six label sets, with `S0`.
pub fn figure3_pairs() -> (Graph, Vec<LscrQuery>) {
    let g = figure3();
    let names: [&[&str]; 5] = [
        &["likes", "follows"],
        &["likes", "hates", "friendOf"],
        &["friendOf", "likes"],
        &["hates"],
        &[],
    ];
    let label_sets: Vec<LabelSet> =
        std::iter::once(g.all_labels()).chain(names.map(|n| g.label_set(n))).collect();
    let queries = all_pairs(&g, &label_sets, &s0());
    (g, queries)
}

/// The funnel's gate constraint.
pub fn gate() -> SubstructureConstraint {
    SubstructureConstraint::parse(funnel::GATE_CONSTRAINT).unwrap()
}

/// The small funnel — small enough for every pair against the oracle,
/// large enough that the spray region dwarfs the gate chain — with every
/// `(s, t)` pair under its four label sets (the broad one is never
/// mask-selective) and the gate constraint.
pub fn small_funnel_pairs(mirrored: bool) -> (Graph, Vec<LscrQuery>) {
    let g =
        funnel::generate(&FunnelConfig { fan: 5, leaves_per_fan: 2, depth: 3, mirrored }).unwrap();
    let names: [&[&str]; 3] = [&["spray", "needle"], &["spray"], &["needle"]];
    let label_sets: Vec<LabelSet> =
        names.map(|n| g.label_set(n)).into_iter().chain([g.all_labels()]).collect();
    let queries = all_pairs(&g, &label_sets, &gate());
    (g, queries)
}

/// Every `(s, t)` pair of `g` under every label set, with constraint `c`
/// (source-major, then target, then label set).
pub fn all_pairs(g: &Graph, label_sets: &[LabelSet], c: &SubstructureConstraint) -> Vec<LscrQuery> {
    let mut queries = Vec::new();
    for s in g.vertices() {
        for t in g.vertices() {
            for &labels in label_sets {
                queries.push(LscrQuery::new(s, t, labels, c.clone()));
            }
        }
    }
    queries
}

/// `n` seeded draws on a LUBM graph, cycling through S1–S5.
pub fn lubm_draws(g: &Graph, n: usize, seed: u64) -> Vec<LscrQuery> {
    let constraints = all_lubm_constraints();
    let narrow = top_label_set(g, 3);
    let num_labels = g.num_labels();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut label_ids: Vec<u16> = (0..num_labels as u16).collect();
    (0..n)
        .map(|i| {
            let s = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            let mut t = VertexId(rng.gen_range(0..g.num_vertices()) as u32);
            // 20–80 % of the labels (the paper's §6.1.1 range); every
            // fourth draw uses the narrow top-3 set instead, which is
            // what makes `L` mask-selective on LUBM.
            let share = rng.gen_range(20..=80usize);
            label_ids.shuffle(&mut rng);
            let mut labels: LabelSet = if i % 4 == 3 {
                narrow
            } else {
                label_ids[..(num_labels * share).div_ceil(100)]
                    .iter()
                    .map(|&l| LabelId(l))
                    .collect()
            };
            // Uniform pairs are almost never connected: every other draw
            // takes `t` from a random walk out of `s` and admits the
            // walk's labels, so `s ⇝_L t` holds and `S` decides.
            if i % 2 == 0 {
                t = s;
                for _ in 0..rng.gen_range(1..=8usize) {
                    let Some(e) = g.out_neighbors(t).choose(&mut rng) else { break };
                    labels.insert(e.label);
                    t = e.vertex;
                }
            }
            LscrQuery::new(s, t, labels, constraints[i % constraints.len()].1.clone())
        })
        .collect()
}

/// `per_side` true and `per_side` false queries under `c` from the
/// workload generator, with its ground truth; neither side may be empty.
pub fn workload(
    g: &Graph,
    c: &SubstructureConstraint,
    per_side: usize,
    seed: u64,
    max_attempts: usize,
) -> Vec<(LscrQuery, bool)> {
    let (num_true, num_false) = (per_side, per_side);
    let config =
        QueryGenConfig { num_true, num_false, seed, max_attempts, enforce_difficulty: false };
    let w = generate_workload(g, c, &config);
    assert!(!w.true_queries.is_empty() && !w.false_queries.is_empty(), "no {c:?} workload");
    let queries = w.true_queries.iter().chain(&w.false_queries);
    queries.map(|gq| (gq.query.clone(), gq.expected)).collect()
}

/// [`workload`]s under S1, S2 and S3 in turn, the `i`-th seeded `seed(i)`.
pub fn s1_s3(g: &Graph, per_side: usize, seed: impl Fn(u64) -> u64) -> Vec<LscrQuery> {
    let constraints = all_lubm_constraints().into_iter().take(3).zip(0..);
    let workloads = constraints.map(|((_, c), i)| workload(g, &c, per_side, seed(i), 60_000));
    workloads.flatten().map(|(q, _)| q).collect()
}

/// A random edit script: seeded ops over a bounded name universe, so
/// inserts collide with existing edges, deletes hit absent edges, and
/// vertices interned mid-script get reused — all the overlay edge cases.
pub fn random_batches(seed: u64, rounds: usize) -> Vec<UpdateBatch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut batches = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut batch = UpdateBatch::new();
        for _ in 0..rng.gen_range(1..6) {
            let s = format!("n{}", rng.gen_range(0..16));
            let p = format!("l{}", rng.gen_range(0..4));
            let o = format!("n{}", rng.gen_range(0..16));
            if rng.gen_range(0..3) == 0 {
                batch.delete(&s, &p, &o);
            } else {
                batch.insert(&s, &p, &o);
            }
        }
        batches.push(batch);
    }
    batches
}

/// The `datagen::updates` stream that grows `g` back: a base graph without
/// the held-out triples, and the batches that restore them with churn.
pub fn holdout(g: &Graph, config: &UpdateWorkloadConfig) -> (Graph, Vec<UpdateBatch>) {
    let w = update_workload(&g.to_triples().collect::<Vec<_>>(), config);
    (graph_from(w.base), w.batches)
}
