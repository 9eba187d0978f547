//! Generated inputs: the two datasets, the query sampler, the
//! constraint-churn set and the update stream — everything the product
//! is fed, made from the seed and memoised on disk.
//!
//! Generation never happens inside a timed phase. Each artefact is a
//! directory under the cache, built under a temporary name and renamed
//! into place, with the seconds its generation took recorded beside it
//! so a memoised run still reports the true cost.

use crate::api::{self, Failure, Graph, Json, LabelSet, LscrEngine, UpdateBatch, VertexId};
use crate::spec;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How much of everything a run uses. `--quick` shrinks the inputs so
/// the smoke test finishes in seconds; nothing else differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sizes {
    /// Cache-key tag.
    pub tag: &'static str,
    /// `LubmConfig::sized` target of `lubm-d5`.
    pub d5_vertices: usize,
    /// `LubmConfig::sized_edges` target of `lubm-2m`.
    pub big_edges: usize,
    /// Landmarks of `lubm-2m`'s index.
    pub big_landmarks: usize,
    /// Sampled queries per (constraint, answer) cell: 5 × 2 cells.
    pub queries_per_cell: usize,
    /// Distinct constraints of `constraint-churn`.
    pub churn_constraints: usize,
    /// Records in the write-ahead log `update-mix` recovers from.
    pub wal_records: usize,
}

impl Sizes {
    /// The sizes every committed number uses.
    pub const FULL: Sizes = Sizes {
        tag: "full",
        d5_vertices: 60_000,
        big_edges: 2_000_000,
        big_landmarks: 64,
        queries_per_cell: 200,
        churn_constraints: 2 * api::PLAN_CACHE_CAP,
        wal_records: 512,
    };
    /// The smoke test's sizes.
    pub const QUICK: Sizes = Sizes {
        tag: "quick",
        d5_vertices: 1_600,
        big_edges: 20_000,
        big_landmarks: 16,
        queries_per_cell: 12,
        churn_constraints: 256,
        wal_records: 16,
    };

    /// By flag.
    pub fn of(quick: bool) -> Sizes {
        if quick {
            Sizes::QUICK
        } else {
            Sizes::FULL
        }
    }
}

/// Seed of `lubm-d5` (the paper-replica D5' every earlier bench row uses).
const D5_SEED: u64 = 105;
/// Seed of `lubm-2m`.
const BIG_SEED: u64 = 0x5CA1E;
/// Share of `lubm-d5`'s edges held out of `update-mix`'s base graph.
const HOLDOUT: f64 = 0.06;
/// Most `SCck` calls and scanned edges a query's narrowed form may need.
const NARROW_MAX_SCCK: usize = 8;
const NARROW_MAX_EDGES: usize = 64;
/// Share of sampled queries cross-checked against the oracle.
const ORACLE_SHARE: f64 = 0.05;

/// The directory generated inputs are memoised in: beside cargo's build
/// output, so one ignore rule covers both.
pub fn cache_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("kgbench-cache")
}

/// Builds `name` under `cache` unless it is already there; returns its
/// directory and the seconds the build took (when it was built).
fn memo(
    cache: &Path,
    name: &str,
    build: impl FnOnce(&Path) -> Result<(), Failure>,
) -> Result<(PathBuf, f64), Failure> {
    let dir = cache.join(name);
    let secs_file = dir.join("seconds");
    if let Ok(text) = std::fs::read_to_string(&secs_file) {
        if let Ok(secs) = text.trim().parse() {
            return Ok((dir, secs));
        }
    }
    let tmp = cache.join(format!(".{name}.{}.tmp", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    let started = Instant::now();
    build(&tmp)?;
    let secs = started.elapsed().as_secs_f64();
    std::fs::write(tmp.join("seconds"), format!("{secs}\n")).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&dir);
    // A concurrent run may have renamed its own copy in first; both are
    // byte-identical, so either is fine.
    if std::fs::rename(&tmp, &dir).is_err() {
        let _ = std::fs::remove_dir_all(&tmp);
    }
    Ok((dir, secs))
}

fn key(sizes: Sizes, what: &str) -> String {
    format!("{what}-{}-dgv{}-b{}", sizes.tag, api::DATAGEN_VERSION, spec::VERSION)
}

/// A generated dataset on disk: a directory of three files.
#[derive(Clone, Debug, Default)]
pub struct Dataset(pub PathBuf);

impl Dataset {
    /// Engine snapshot (graph + local index).
    pub fn engine(&self) -> PathBuf {
        self.0.join("engine.kgsnap")
    }

    /// Graph-only snapshot.
    pub fn graph(&self) -> PathBuf {
        self.0.join("graph.kgsnap")
    }

    /// Text triples.
    pub fn text(&self) -> PathBuf {
        self.0.join("graph.nt")
    }
}

fn dataset(
    cache: &Path,
    name: String,
    generate: impl FnOnce() -> Result<LscrEngine, Failure>,
) -> Result<(Dataset, f64), Failure> {
    let (dir, seconds) = memo(cache, &name, |dir| {
        let engine = generate()?;
        let g = engine.graph();
        let d = Dataset(dir.to_path_buf());
        api::save_engine(&engine, &d.engine())?;
        api::save_graph_snapshot(&g, &d.graph())?;
        api::save_graph_text(&g, &d.text())
    })?;
    Ok((Dataset(dir), seconds))
}

/// `lubm-d5`: the dataset of all four workloads, and the seconds its
/// generation took.
pub fn lubm_d5(cache: &Path, sizes: Sizes) -> Result<(Dataset, f64), Failure> {
    dataset(cache, key(sizes, "lubm-d5"), || {
        api::generate_lubm_by_vertices(sizes.d5_vertices, D5_SEED)
    })
}

/// `lubm-2m`: cold start, index build and bytes-per-edge rows only.
pub fn lubm_2m(cache: &Path, sizes: Sizes) -> Result<(Dataset, f64), Failure> {
    dataset(cache, key(sizes, "lubm-2m"), || {
        api::generate_lubm_by_edges(sizes.big_edges, BIG_SEED, sizes.big_landmarks)
    })
}

// ------------------------------------------------------------- queries

/// One sampled query with its ground truth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampledQuery {
    /// Source.
    pub source: VertexId,
    /// Target.
    pub target: VertexId,
    /// `L`, 20–80 % of the labels (§6.1.1).
    pub labels: LabelSet,
    /// Index into S1–S5.
    pub constraint: usize,
    /// Answer under `labels`.
    pub expected: bool,
    /// Answer with `L` narrowed to the top-3 labels (`wire-closed`).
    pub narrow_expected: bool,
}

/// What the sampler did, for the report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerCheck {
    /// The narrow `L`: the top-3 labels of `lubm-d5` (fixed here, so a
    /// graph in mid-update does not pick another three).
    pub narrow: LabelSet,
    /// Candidate queries classified.
    pub attempts: usize,
    /// Candidates dropped because their narrowed form searches too much.
    pub narrow_rejected: usize,
    /// Sampled answers recomputed by the oracle.
    pub oracle_checked: usize,
    /// Of those, how many the oracle contradicted. Must be 0.
    pub oracle_disagreements: usize,
}

/// Samples `5 × 2 × per_cell` queries: uniform `(s, t)`, constraint
/// uniform over S1–S5, `|L|` stratified over 20–80 % of the labels as in
/// §6.1.1, classified once by UIS and rejection-balanced so every
/// (constraint, answer) cell holds exactly `per_cell`.
///
/// Balancing per cell — not just 1000 true against 1000 false overall —
/// keeps the latency mix of the sample the same from seed to seed: a
/// query's cost depends on little else than its constraint and its
/// answer, and `datagen::queries::generate_workload` spends 21 s per 16
/// queries hunting for balanced *false-kinds*, which nothing here needs.
pub fn sample_queries(
    engine: &LscrEngine,
    seed: u64,
    per_cell: usize,
) -> Result<(Vec<SampledQuery>, SamplerCheck), Failure> {
    let g = engine.graph();
    let index = engine.local_index();
    let mut rng = SmallRng::seed_from_u64(seed);
    let constraints = api::lubm_constraints()
        .iter()
        .map(|(_, c)| api::compile_constraint(c, &g))
        .collect::<Result<Vec<_>, _>>()?;
    let narrow = api::top_label_set(&g, 3);
    let (n, t) = (g.num_vertices() as u32, g.num_labels());
    let mut scratch = api::SearchScratch::new(g.num_vertices());
    let mut cells = vec![[0usize; 2]; constraints.len()];
    let mut out = Vec::with_capacity(constraints.len() * 2 * per_cell);
    let mut check = SamplerCheck { narrow, ..SamplerCheck::default() };
    let mut label_ids: Vec<u16> = (0..t as u16).collect();
    let max_attempts = out.capacity() * 2_000;

    while out.len() < out.capacity() {
        if check.attempts >= max_attempts {
            return Err(format!(
                "query sampler: {} of {} queries after {max_attempts} attempts (cells {cells:?})",
                out.len(),
                out.capacity()
            ));
        }
        let (lo, hi) = [(0.2, 0.4), (0.4, 0.6), (0.6, 0.8)][check.attempts % 3];
        check.attempts += 1;
        let size = ((t as f64 * rng.gen_range(lo..hi)).round() as usize).clamp(1, t);
        label_ids.shuffle(&mut rng);
        let labels: LabelSet = label_ids[..size].iter().map(|&i| api::LabelId(i)).collect();
        let c = rng.gen_range(0..constraints.len());
        let (source, target) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));

        let q = api::compiled_query(source, target, labels, &constraints[c]);
        let expected = api::kernel(api::Algorithm::Uis, &g, &index, &q, &mut scratch).answer;
        if cells[c][usize::from(expected)] == per_cell {
            continue;
        }
        // The narrowed form exists to take the search out of the picture
        // (`wire-closed`, `update-mix`): it must stay a handful of steps,
        // cold caches included, or a few dozen S3 probes at 0.1 ms per
        // cold `SCck` decide a whole window.
        let nq = api::compiled_query(source, target, narrow, &constraints[c]);
        let narrowed = api::kernel(api::Algorithm::Uis, &g, &index, &nq, &mut scratch);
        if narrowed.stats.scck_calls > NARROW_MAX_SCCK
            || narrowed.stats.edges_scanned > NARROW_MAX_EDGES
        {
            check.narrow_rejected += 1;
            continue;
        }
        cells[c][usize::from(expected)] += 1;
        let narrow_expected = narrowed.answer;
        if rng.gen_bool(ORACLE_SHARE) {
            check.oracle_checked += 1;
            let agree = api::oracle(&g, &q) == expected && api::oracle(&g, &nq) == narrow_expected;
            check.oracle_disagreements += usize::from(!agree);
        }
        out.push(SampledQuery { source, target, labels, constraint: c, expected, narrow_expected });
    }
    Ok((out, check))
}

/// The query file: one line per query, plain text, byte-identical for
/// equal seeds.
pub fn encode_queries(queries: &[SampledQuery], check: SamplerCheck) -> String {
    let mut s = format!(
        "# kgbench queries v{} narrow={} attempts={} narrow_rejected={} oracle_checked={} \
         oracle_disagreements={}\n",
        spec::VERSION,
        check.narrow.bits(),
        check.attempts,
        check.narrow_rejected,
        check.oracle_checked,
        check.oracle_disagreements
    );
    for q in queries {
        let _ = writeln!(
            s,
            "{} {} {:x} {} {} {}",
            q.source.0,
            q.target.0,
            q.labels.bits(),
            q.constraint,
            u8::from(q.expected),
            u8::from(q.narrow_expected)
        );
    }
    s
}

fn field<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace<'_>,
    line: &str,
) -> Result<T, Failure> {
    it.next().and_then(|f| f.parse().ok()).ok_or_else(|| format!("bad input line {line:?}"))
}

/// Inverse of [`encode_queries`].
pub fn decode_queries(text: &str) -> Result<(Vec<SampledQuery>, SamplerCheck), Failure> {
    let mut lines = text.lines();
    let head = lines.next().unwrap_or("");
    let stat = |name: &str| -> Result<usize, Failure> {
        head.split_whitespace()
            .find_map(|w| w.strip_prefix(name)?.strip_prefix('=')?.parse().ok())
            .ok_or_else(|| format!("query file header lacks {name}: {head:?}"))
    };
    let check = SamplerCheck {
        narrow: LabelSet::from_bits(stat("narrow")? as u64),
        attempts: stat("attempts")?,
        narrow_rejected: stat("narrow_rejected")?,
        oracle_checked: stat("oracle_checked")?,
        oracle_disagreements: stat("oracle_disagreements")?,
    };
    let mut out = Vec::new();
    for line in lines {
        let mut it = line.split_whitespace();
        let (s, t): (u32, u32) = (field(&mut it, line)?, field(&mut it, line)?);
        let bits = it
            .next()
            .and_then(|f| u64::from_str_radix(f, 16).ok())
            .ok_or_else(|| format!("bad input line {line:?}"))?;
        out.push(SampledQuery {
            source: VertexId(s),
            target: VertexId(t),
            labels: LabelSet::from_bits(bits),
            constraint: field(&mut it, line)?,
            expected: field::<u8>(&mut it, line)? == 1,
            narrow_expected: field::<u8>(&mut it, line)? == 1,
        });
    }
    Ok((out, check))
}

// ---------------------------------------------------- constraint churn

/// One `constraint-churn` query: a constraint nobody else uses, as the
/// text a client would send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChurnQuery {
    /// Source.
    pub source: VertexId,
    /// Target.
    pub target: VertexId,
    /// Answer under the top-3 label set.
    pub expected: bool,
    /// SPARQL text of the constraint.
    pub text: String,
}

/// Seed of the pilot sample that fixes the churn set's mix of shapes.
const CHURN_PILOT_SEED: u64 = 0x5A4E5;
/// A shape the pilot holds fewer times than this per half shares one
/// quota with every other such shape.
const CHURN_RARE_SHAPE: usize = 4;

/// Pairs of names out of a graph.
type Patterns<'g> = Vec<(&'g str, &'g str)>;

/// The patterns of one candidate constraint: one to three edges of a
/// uniformly drawn vertex, as `(label, object)` out of `?x` and
/// `(subject, label)` into it. `None` when the vertex has no edge.
fn churn_candidate<'g>(g: &'g Graph, rng: &mut SmallRng) -> Option<(Patterns<'g>, Patterns<'g>)> {
    let x = VertexId(rng.gen_range(0..g.num_vertices() as u32));
    let (outs, ins) = (g.out_neighbors(x), g.in_neighbors(x));
    if outs.len() + ins.len() == 0 {
        return None;
    }
    let mut picks: Vec<usize> = (0..outs.len() + ins.len()).collect();
    picks.shuffle(rng);
    picks.truncate(rng.gen_range(1..=3));
    picks.sort_unstable();
    let (mut out_pats, mut in_pats) = (Vec::new(), Vec::new());
    for &p in &picks {
        match outs.get(p) {
            Some(e) => out_pats.push((g.label_name(e.label), g.vertex_name(e.vertex))),
            None => {
                let e = ins[p - outs.len()];
                in_pats.push((g.vertex_name(e.vertex), g.label_name(e.label)));
            }
        }
    }
    Some((out_pats, in_pats))
}

/// What decides a constraint's cost: its predicates with their
/// direction, and the class of an `rdf:type` pattern. Everything else
/// about it is which department, which course.
fn churn_shape(out_pats: &[(&str, &str)], in_pats: &[(&str, &str)]) -> String {
    let mut shape = String::new();
    for (label, object) in out_pats {
        let class = if *label == "rdf:type" { object } else { "" };
        let _ = write!(shape, ">{label}{class} ");
    }
    for (_, label) in in_pats {
        let _ = write!(shape, "<{label} ");
    }
    shape
}

/// How many constraints of each shape the first and the second half of
/// a churn set of `count` hold: the tallies over the first `count`
/// distinct candidates of a fixed seed — so that many distinct
/// constraints of every shape exist — rare shapes pooled under the empty
/// shape.
fn churn_quotas(g: &Graph, count: usize) -> [BTreeMap<String, usize>; 2] {
    let mut rng = SmallRng::seed_from_u64(CHURN_PILOT_SEED);
    let mut seen = BTreeSet::new();
    let mut tally: BTreeMap<String, [usize; 2]> = BTreeMap::new();
    while seen.len() < count {
        let Some(patterns) = churn_candidate(g, &mut rng) else { continue };
        let half = usize::from(seen.len() >= count / 2);
        let shape = churn_shape(&patterns.0, &patterns.1);
        if seen.insert(patterns) {
            tally.entry(shape).or_default()[half] += 1;
        }
    }
    let mut quotas = [BTreeMap::new(), BTreeMap::new()];
    for (shape, n) in tally {
        let shape = if n[0] + n[1] < 2 * CHURN_RARE_SHAPE { String::new() } else { shape };
        for (quota, n) in quotas.iter_mut().zip(n) {
            *quota.entry(shape.clone()).or_insert(0) += n;
        }
    }
    quotas
}

/// Builds `count` distinct constraints from sampled graph edges — one to
/// three patterns on `?x`, taken from the edges of one vertex, so that
/// vertex satisfies the constraint and `V(S,G)` is never empty — each
/// with one uniform `(s, t)`.
///
/// Each half of the set holds the same number of constraints of every
/// shape whatever the seed. The engine's plan cache keeps the first half
/// (the warm-up pass fills it and it never evicts), so the window's time
/// goes to the second, and there to one shape in twelve: `?x rdf:type
/// UndergraduateStudent` beside `<department> hasMember ?x` costs 4 ms
/// where the median constraint costs 10 us. Drawn freely, the second half
/// held 319 to 345 of those by seed, and throughput and peak memory moved
/// with that count, not with the program.
pub fn sample_churn(
    engine: &LscrEngine,
    seed: u64,
    count: usize,
) -> Result<(Vec<ChurnQuery>, SamplerCheck), Failure> {
    let g = engine.graph();
    let index = engine.local_index();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC0457);
    let narrow = api::top_label_set(&g, 3);
    let n = g.num_vertices() as u32;
    let mut scratch = api::SearchScratch::new(g.num_vertices());
    let quotas = churn_quotas(&g, count);
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(count);
    let mut check = SamplerCheck::default();
    for (mut open, half) in quotas.clone().into_iter().zip([count / 2, count]) {
        while out.len() < half {
            check.attempts += 1;
            if check.attempts > count * 1_000 {
                return Err(format!(
                    "churn sampler: {} distinct constraints, shapes still open {open:?}",
                    out.len()
                ));
            }
            let Some((out_pats, in_pats)) = churn_candidate(&g, &mut rng) else { continue };
            let shape = churn_shape(&out_pats, &in_pats);
            let shape = if open.contains_key(&shape) { shape } else { String::new() };
            if open.get(&shape).map_or(true, |&left| left == 0) {
                continue;
            }
            let constraint = api::build_constraint(&out_pats, &in_pats)?;
            let text = constraint.sparql_text().to_owned();
            if api::parse_constraint(&text)? != constraint {
                return Err(format!("constraint text does not round-trip: {text}"));
            }
            if !seen.insert(text.clone()) {
                continue;
            }
            *open.get_mut(&shape).expect("an open shape") -= 1;
            let (source, target) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
            let compiled = api::compile_constraint(&constraint, &g)?;
            let q = api::compiled_query(source, target, narrow, &compiled);
            let expected = api::kernel(api::Algorithm::Uis, &g, &index, &q, &mut scratch).answer;
            if rng.gen_bool(ORACLE_SHARE) {
                check.oracle_checked += 1;
                check.oracle_disagreements += usize::from(api::oracle(&g, &q) != expected);
            }
            out.push(ChurnQuery { source, target, expected, text });
        }
    }
    Ok((out, check))
}

/// The churn file, one query per line.
pub fn encode_churn(queries: &[ChurnQuery], check: SamplerCheck) -> String {
    let mut s = format!(
        "# kgbench churn v{} attempts={} oracle_checked={} oracle_disagreements={}\n",
        spec::VERSION,
        check.attempts,
        check.oracle_checked,
        check.oracle_disagreements
    );
    for q in queries {
        let _ = writeln!(s, "{} {} {} {}", q.source.0, q.target.0, u8::from(q.expected), q.text);
    }
    s
}

/// Inverse of [`encode_churn`].
pub fn decode_churn(text: &str) -> Result<Vec<ChurnQuery>, Failure> {
    text.lines()
        .skip(1)
        .map(|line| {
            let bad = || format!("bad input line {line:?}");
            let mut it = line.splitn(4, ' ');
            let mut num = || it.next().and_then(|f| f.parse::<u32>().ok()).ok_or_else(bad);
            let (s, t, e) = (num()?, num()?, num()?);
            Ok(ChurnQuery {
                source: VertexId(s),
                target: VertexId(t),
                expected: e == 1,
                text: it.next().ok_or_else(bad)?.to_owned(),
            })
        })
        .collect()
}

// ------------------------------------------------------- update stream

/// Held-out edges a streamed batch inserts.
const INSERTS_PER_BATCH: usize = 4;
/// Base edges a batch deletes; the next batch puts them back.
const CHURN_PER_BATCH: usize = 2;
/// Edits per streamed batch: the inserts, the deletes, and the
/// re-inserts of the previous batch's deletes.
#[cfg(test)]
const EDITS_PER_BATCH: usize = INSERTS_PER_BATCH + 2 * CHURN_PER_BATCH;

/// The update stream over `lubm-d5`: a base graph lacking a 6 % hold-out
/// and the batches that put it back. Applying every batch to the base
/// reproduces `lubm-d5` exactly, vertex ids included — the base is cut
/// out of the full graph by deletion, so no name is ever re-interned.
pub struct UpdateStream {
    /// One big batch deleting the hold-out from `lubm-d5`.
    pub cut: UpdateBatch,
    /// The stream, in order; the last batch only re-inserts.
    pub batches: Vec<UpdateBatch>,
}

/// Builds the stream for `seed`.
pub fn update_stream(g: &Graph, seed: u64) -> UpdateStream {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DE17A);
    let mut edges: Vec<_> = g.edges().collect();
    edges.shuffle(&mut rng);
    let held = (edges.len() as f64 * HOLDOUT) as usize / INSERTS_PER_BATCH * INSERTS_PER_BATCH;
    let (held, base) = edges.split_at(held);
    let names = |e: &api::Edge| (g.vertex_name(e.src), g.label_name(e.label), g.vertex_name(e.dst));
    let mut cut = UpdateBatch::new();
    for e in held {
        let (s, p, o) = names(e);
        cut.delete(s, p, o);
    }
    let mut batches = Vec::with_capacity(held.len() / INSERTS_PER_BATCH + 1);
    let mut retracted: Vec<&api::Edge> = Vec::new();
    for chunk in held.chunks(INSERTS_PER_BATCH) {
        let mut batch = UpdateBatch::new();
        for e in retracted.drain(..) {
            let (s, p, o) = names(e);
            batch.insert(s, p, o);
        }
        for e in chunk {
            let (s, p, o) = names(e);
            batch.insert(s, p, o);
        }
        for _ in 0..CHURN_PER_BATCH {
            let e = &base[rng.gen_range(0..base.len())];
            let (s, p, o) = names(e);
            batch.delete(s, p, o);
            retracted.push(e);
        }
        batches.push(batch);
    }
    let mut closing = UpdateBatch::new();
    for e in retracted {
        let (s, p, o) = names(e);
        closing.insert(s, p, o);
    }
    batches.push(closing);
    UpdateStream { cut, batches }
}

/// The stream file: `B` opens a batch, `+`/`-` lines are its edits.
pub fn encode_batches(batches: &[UpdateBatch]) -> String {
    let mut s = String::new();
    for b in batches {
        s.push_str("B\n");
        for op in b.ops() {
            let (sign, t) = api::op_parts(op);
            let _ = writeln!(s, "{sign}\t{}\t{}\t{}", t.0, t.1, t.2);
        }
    }
    s
}

/// Inverse of [`encode_batches`].
pub fn decode_batches(text: &str) -> Result<Vec<UpdateBatch>, Failure> {
    let mut out: Vec<UpdateBatch> = Vec::new();
    for line in text.lines() {
        if line == "B" {
            out.push(UpdateBatch::new());
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let (Some(batch), [sign, s, p, o]) = (out.last_mut(), f.as_slice()) else {
            return Err(format!("bad update line {line:?}"));
        };
        match *sign {
            "+" => batch.insert(s, p, o),
            "-" => batch.delete(s, p, o),
            _ => return Err(format!("bad update line {line:?}")),
        };
    }
    Ok(out)
}

// ------------------------------------------------------------ wire form

/// One `/query` request body with its ground truth.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireQuery {
    /// Expected `"answer"`.
    pub expected: bool,
    /// JSON body.
    pub body: String,
}

/// The sampled queries as `/query` bodies, `0|1 <tab> body` per line:
/// under their sampled `L`, or with `L` narrowed to the top-3 labels so
/// that the search is about a microsecond and the serving layers are
/// nearly all of each request.
pub fn encode_wire(g: &Graph, queries: &[SampledQuery], narrowed: Option<LabelSet>) -> String {
    let constraints = api::lubm_constraints();
    let mut s = String::new();
    for q in queries {
        let (labels, expected) =
            narrowed.map_or((q.labels, q.expected), |narrow| (narrow, q.narrow_expected));
        let body = Json::Obj(vec![
            ("source".into(), Json::str(g.vertex_name(q.source))),
            ("target".into(), Json::str(g.vertex_name(q.target))),
            (
                "labels".into(),
                Json::Arr(labels.iter().map(|l| Json::str(g.label_name(l))).collect()),
            ),
            ("constraint".into(), Json::str(constraints[q.constraint].1.sparql_text())),
            ("algorithm".into(), Json::str("auto")),
        ]);
        let _ = writeln!(s, "{}\t{body}", u8::from(expected));
    }
    s
}

/// Inverse of [`encode_wire`].
pub fn decode_wire(text: &str) -> Result<Vec<WireQuery>, Failure> {
    text.lines()
        .map(|line| match line.split_once('\t') {
            Some((e @ ("0" | "1"), body)) => {
                Ok(WireQuery { expected: e == "1", body: body.to_owned() })
            }
            _ => Err(format!("bad wire line {line:?}")),
        })
        .collect()
}

// ------------------------------------------------- memoised per-seed sets

/// The sampled queries of one seed, in three forms.
#[derive(Clone, Debug, Default)]
pub struct QuerySet(pub PathBuf);

impl QuerySet {
    /// [`encode_queries`] form.
    pub fn queries(&self) -> PathBuf {
        self.0.join("queries.txt")
    }

    /// [`encode_wire`] form, `L` narrowed (`wire-closed`).
    pub fn wire(&self) -> PathBuf {
        self.0.join("wire.txt")
    }

    /// [`encode_wire`] form under the sampled `L`.
    pub fn wire_broad(&self) -> PathBuf {
        self.0.join("wire-broad.txt")
    }
}

/// The query set for `seed`, and the seconds sampling took.
pub fn query_set(
    cache: &Path,
    sizes: Sizes,
    seed: u64,
    d5: &Dataset,
) -> Result<(QuerySet, f64), Failure> {
    let (dir, secs) = memo(cache, &key(sizes, &format!("queries-seed{seed}")), |dir| {
        let engine = api::load_engine(&d5.engine())?;
        let (queries, check) = sample_queries(&engine, seed, sizes.queries_per_cell)?;
        if check.oracle_disagreements > 0 {
            return Err(format!("query sampler: the oracle disagrees: {check:?}"));
        }
        let (set, g) = (QuerySet(dir.to_path_buf()), engine.graph());
        write(&set.queries(), &encode_queries(&queries, check))?;
        write(&set.wire(), &encode_wire(&g, &queries, Some(check.narrow)))?;
        write(&set.wire_broad(), &encode_wire(&g, &queries, None))
    })?;
    Ok((QuerySet(dir), secs))
}

/// The constraint-churn queries of one seed.
#[derive(Clone, Debug, Default)]
pub struct ChurnSet(pub PathBuf);

impl ChurnSet {
    /// [`encode_churn`] form.
    pub fn file(&self) -> PathBuf {
        self.0.join("churn.txt")
    }
}

/// The constraint-churn set for `seed`.
pub fn churn_set(
    cache: &Path,
    sizes: Sizes,
    seed: u64,
    d5: &Dataset,
) -> Result<(ChurnSet, f64), Failure> {
    let (dir, secs) = memo(cache, &key(sizes, &format!("churn-seed{seed}")), |dir| {
        let engine = api::load_engine(&d5.engine())?;
        let (queries, check) = sample_churn(&engine, seed, sizes.churn_constraints)?;
        if check.oracle_disagreements > 0 {
            return Err(format!("churn sampler: the oracle disagrees: {check:?}"));
        }
        write(&ChurnSet(dir.to_path_buf()).file(), &encode_churn(&queries, check))
    })?;
    Ok((ChurnSet(dir), secs))
}

/// What `update-mix` starts from.
#[derive(Clone, Debug, Default)]
pub struct UpdateSet(pub PathBuf);

impl UpdateSet {
    /// Data-directory template: checkpoint 0 of the base graph plus a
    /// write-ahead log of the stream's first `wal_records` batches.
    pub fn data_dir(&self) -> PathBuf {
        self.0.join("data")
    }

    /// The rest of the stream, [`encode_batches`] form.
    pub fn stream(&self) -> PathBuf {
        self.0.join("stream.txt")
    }
}

/// The update inputs for `seed`.
pub fn update_set(
    cache: &Path,
    sizes: Sizes,
    seed: u64,
    d5: &Dataset,
) -> Result<(UpdateSet, f64), Failure> {
    let (dir, secs) = memo(cache, &key(sizes, &format!("updates-seed{seed}")), |dir| {
        let set = UpdateSet(dir.to_path_buf());
        let engine = api::load_engine(&d5.engine())?;
        let stream = update_stream(&engine.graph(), seed);
        api::engine_apply(&engine, &stream.cut)?;
        engine.compact();
        let durable = api::init_durable(&set.data_dir(), engine)?;
        let (logged, rest) = stream.batches.split_at(sizes.wal_records.min(stream.batches.len()));
        for batch in logged {
            api::durable_apply(&durable, batch)?;
        }
        write(&set.stream(), &encode_batches(rest))
    })?;
    Ok((UpdateSet(dir), secs))
}

fn write(path: &Path, text: &str) -> Result<(), Failure> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a generated file.
pub fn read(path: &Path) -> Result<String, Failure> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Copies a data-directory template (flat: a checkpoint and a log).
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), Failure> {
    let io = |e: std::io::Error| format!("copy {} → {}: {e}", from.display(), to.display());
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// A graph shared by the tests of this crate: tiny LUBM with its index.
#[cfg(test)]
pub fn test_engine() -> LscrEngine {
    api::generate_lubm_by_vertices(Sizes::QUICK.d5_vertices, D5_SEED).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_in_the_seed() {
        let engine = test_engine();
        let file = |seed| {
            let (q, check) = sample_queries(&engine, seed, 4).unwrap();
            assert_eq!(check.oracle_disagreements, 0);
            encode_queries(&q, check)
        };
        let (a, b, c) = (file(1), file(1), file(2));
        assert_eq!(a, b, "same seed must give a byte-identical query file");
        assert_ne!(a, c, "another seed must give another file");
        // Every (constraint, answer) cell is filled exactly.
        let (queries, check) = decode_queries(&a).unwrap();
        assert_eq!(encode_queries(&queries, check), a, "file round-trips");
        for c in 0..5 {
            for expected in [false, true] {
                let cell =
                    queries.iter().filter(|q| q.constraint == c && q.expected == expected).count();
                assert_eq!(cell, 4, "cell S{} {expected}", c + 1);
            }
        }
    }

    #[test]
    fn churn_constraints_are_distinct_satisfiable_and_round_trip() {
        let engine = test_engine();
        let (a, check) = sample_churn(&engine, 3, 40).unwrap();
        assert_eq!(check.oracle_disagreements, 0);
        assert_eq!(
            encode_churn(&a, check),
            encode_churn(&sample_churn(&engine, 3, 40).unwrap().0, check)
        );
        let texts: BTreeSet<&str> = a.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(texts.len(), 40);
        let g = engine.graph();
        for q in &a {
            let c = api::parse_constraint(&q.text).unwrap();
            let plan = api::sparql_plan(&g, c.query()).unwrap();
            assert!(!api::sparql_select(&g, &plan).is_empty(), "V(S,G) empty for {}", q.text);
        }
        assert_eq!(decode_churn(&encode_churn(&a, check)).unwrap(), a);
    }

    #[test]
    fn churn_halves_hold_the_same_shapes_whatever_the_seed() {
        let engine = test_engine();
        let g = engine.graph();
        let quotas = churn_quotas(&g, 200);
        assert!(quotas.iter().all(|q| q.values().sum::<usize>() == 100));
        assert!(quotas[0].len() > 3, "several shapes are common enough to have a quota");
        // The shape of a constraint, read back from its text.
        let shape_of = |text: &str| {
            let (mut outs, mut ins) = (String::new(), String::new());
            let body = text.split_once('{').unwrap().1.trim_end_matches('}');
            for triple in body.split(" . ").filter(|t| !t.trim().is_empty()) {
                let t: Vec<&str> = triple.split_whitespace().collect();
                let name = |i: usize| t[i].trim_matches(['<', '>']);
                if t[0] == "?x" {
                    let class = if name(1) == "rdf:type" { name(2) } else { "" };
                    outs.push_str(&format!(">{}{class} ", name(1)));
                } else {
                    ins.push_str(&format!("<{} ", name(1)));
                }
            }
            let shape = outs + &ins;
            if quotas[0].contains_key(&shape) {
                shape
            } else {
                String::new()
            }
        };
        for seed in [3, 4] {
            let (set, _) = sample_churn(&engine, seed, 200).unwrap();
            for (half, quota) in set.chunks(100).zip(&quotas) {
                let mut tally = BTreeMap::new();
                half.iter().for_each(|q| *tally.entry(shape_of(&q.text)).or_insert(0) += 1);
                assert_eq!(&tally, quota, "seed {seed}");
            }
        }
        let texts = |seed| sample_churn(&engine, seed, 200).unwrap().0;
        assert_ne!(texts(3), texts(4));
    }

    #[test]
    fn update_stream_restores_the_graph_and_keeps_ids() {
        let engine = test_engine();
        let full = engine.graph();
        let stream = update_stream(&full, 5);
        let mut g = (*full).clone();
        api::graph_apply(&mut g, &stream.cut).unwrap();
        assert!(g.num_edges() < full.num_edges());
        let body = &stream.batches[1..stream.batches.len() - 1];
        assert!(body.iter().all(|b| b.len() == EDITS_PER_BATCH));
        let decoded = decode_batches(&encode_batches(&stream.batches)).unwrap();
        assert_eq!(decoded, stream.batches);
        for b in &decoded {
            api::graph_apply(&mut g, b).unwrap();
        }
        assert_eq!(g.num_edges(), full.num_edges());
        assert_eq!(g.num_vertices(), full.num_vertices());
        let mut a: Vec<_> = g.edges().collect();
        let mut b: Vec<_> = full.edges().collect();
        a.sort_unstable_by_key(|e| (e.src, e.label, e.dst));
        b.sort_unstable_by_key(|e| (e.src, e.label, e.dst));
        assert_eq!(a, b, "same edges under the same ids");
    }
}
