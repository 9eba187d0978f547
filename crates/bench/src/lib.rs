//! # kgreach-bench — the paper's evaluation harness
//!
//! One binary per table/figure of the paper's §6 (see DESIGN.md's
//! per-experiment index):
//!
//! | target | regenerates |
//! |--------|-------------|
//! | `table2` | Table 2 — local vs traditional indexing time/space on D0'–D5' |
//! | `fig5` | Figure 5 — sampling-tree indexing time vs density and `|V|` |
//! | `fig10_14` | Figures 10–14 — S1–S5 query performance on D1'–D5' |
//! | `fig15` | Figure 15 — random-constraint magnitudes on the YAGO-like KG |
//! | `all_experiments` | everything above, in EXPERIMENTS.md order |
//!
//! Datasets are geometrically scaled replicas of the paper's (their D1–D5
//! are 3.7M–18.9M vertices; defaults here are laptop-sized with identical
//! density and the same linear progression — pass `--scale` to grow them).
//! Absolute numbers differ from the paper's testbed; the *shapes* (who
//! wins, growth trends, budget blow-ups) are the reproduction target.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use kgreach::{Algorithm, LocalIndex, LocalIndexConfig, LscrEngine, QueryOptions, VsgOrder};
use kgreach_datagen::lubm::{self, LubmConfig};
use kgreach_datagen::queries::{GeneratedQuery, QueryGenConfig, Workload};
use kgreach_graph::{snapshot, Graph};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A named dataset specification (the paper's D0–D5, scaled).
#[derive(Clone, Debug)]
pub struct DatasetSpec {
    /// Name, e.g. `D1'`.
    pub name: String,
    /// Target vertex count.
    pub target_vertices: usize,
    /// Generator seed.
    pub seed: u64,
}

/// The scaled D0'–D5' LUBM replicas: D0' is the small indexing-comparison
/// dataset; D1'–D5' grow linearly like the paper's 3.7M→18.9M sequence.
pub fn lubm_datasets(scale: f64) -> Vec<DatasetSpec> {
    let base = |v: usize| ((v as f64) * scale) as usize;
    vec![
        DatasetSpec { name: "D0'".into(), target_vertices: base(1_600), seed: 100 },
        DatasetSpec { name: "D1'".into(), target_vertices: base(12_000), seed: 101 },
        DatasetSpec { name: "D2'".into(), target_vertices: base(24_000), seed: 102 },
        DatasetSpec { name: "D3'".into(), target_vertices: base(36_000), seed: 103 },
        DatasetSpec { name: "D4'".into(), target_vertices: base(48_000), seed: 104 },
        DatasetSpec { name: "D5'".into(), target_vertices: base(60_000), seed: 105 },
    ]
}

/// Where generated benchmark graphs are memoized as binary snapshots:
/// `$KGREACH_SNAPSHOT_DIR` if set, else `target/kg-snapshots` at the
/// workspace root — anchored via this crate's manifest dir, not the CWD,
/// because cargo runs benches from the package dir but `cargo run` from
/// wherever the user stands. CI caches this directory keyed by
/// [`kgreach_datagen::DATAGEN_VERSION`].
pub fn snapshot_cache_dir() -> PathBuf {
    std::env::var_os("KGREACH_SNAPSHOT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/kg-snapshots"))
}

/// Loads the graph memoized under `key` in `dir`, or generates it with
/// `build` and writes the snapshot through for the next run.
///
/// The cache is strictly best-effort: an unreadable/corrupt snapshot is
/// discarded and regenerated, and a failed write never fails the caller.
/// Files are written to a temp name and renamed so concurrently running
/// experiment binaries cannot observe half-written snapshots. Keys embed
/// [`kgreach_datagen::DATAGEN_VERSION`], so bumping a generator
/// invalidates every cached graph.
pub fn cached_graph_in(dir: &Path, key: &str, build: impl FnOnce() -> Graph) -> Graph {
    let file = format!("{key}-dgv{}.kgsnap", kgreach_datagen::DATAGEN_VERSION);
    let path = dir.join(&file);
    match snapshot::load_graph_snapshot(&path) {
        Ok(g) => return g,
        Err(kgreach_graph::GraphError::Io(_)) => {} // cache miss
        Err(e) => eprintln!("# discarding stale snapshot cache {}: {e}", path.display()),
    }
    let g = build();
    if std::fs::create_dir_all(dir).is_ok() {
        let tmp = dir.join(format!(".{file}.{}.tmp", std::process::id()));
        if snapshot::save_graph_snapshot(&g, &tmp).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    g
}

/// [`cached_graph_in`] under the default [`snapshot_cache_dir`].
pub fn cached_graph(key: &str, build: impl FnOnce() -> Graph) -> Graph {
    cached_graph_in(&snapshot_cache_dir(), key, build)
}

/// Generates the LUBM replica for a spec — generated once, memoized on
/// disk as a binary snapshot, loaded on every later run.
pub fn build_lubm(spec: &DatasetSpec) -> Graph {
    cached_graph(&format!("lubm-{}-{}", spec.target_vertices, spec.seed), || {
        lubm::generate(&LubmConfig::sized(spec.target_vertices, spec.seed))
            .expect("LUBM generation fits the label bitset")
    })
}

/// Measured performance of one algorithm over one query group.
#[derive(Clone, Debug, Default)]
pub struct GroupResult {
    /// Mean running time per query.
    pub avg_time: Duration,
    /// Mean passed-vertex count (the paper's second metric).
    pub avg_passed: f64,
    /// Queries measured.
    pub queries: usize,
    /// Answers that disagreed with the generated ground truth (must be 0).
    pub wrong: usize,
}

/// The rows of a query-performance table (Figs. 10–15): label, algorithm
/// and the options it runs under.
///
/// `UIS` is the paper's Algorithm 1 — the one-frontier switch
/// (`QueryOptions::one_frontier`) keeps its backward and candidate sides
/// off, so the passed-vertex ordering of the figures is still the paper's
/// experiment — and `UIS (default)` beside it is what the library runs by
/// default, so the departure shows instead of hiding in the `UIS` row. UIS\* gets the paper's "disordered" `V(S,G)` semantics via a
/// seeded shuffle; the rest run with default options.
pub fn figure_rows() -> [(&'static str, Algorithm, QueryOptions); 5] {
    let defaults = QueryOptions::default;
    [
        ("UIS", Algorithm::Uis, defaults().with_one_frontier(true)),
        ("UIS (default)", Algorithm::Uis, defaults()),
        ("UIS*", Algorithm::UisStar, defaults().with_vsg_order(VsgOrder::Shuffled(0xD15C0))),
        ("INS", Algorithm::Ins, defaults()),
        ("Auto", Algorithm::Auto, defaults()),
    ]
}

/// Runs `algorithm` under `opts` over a query group through a fresh
/// [`kgreach::Session`] on the shared engine, verifying answers against
/// the generated ground truth.
pub fn run_group(
    engine: &LscrEngine,
    queries: &[GeneratedQuery],
    algorithm: Algorithm,
    opts: &QueryOptions,
) -> GroupResult {
    let mut session = engine.session();
    let mut total_time = Duration::ZERO;
    let mut total_passed = 0usize;
    let mut wrong = 0usize;
    for gq in queries {
        let outcome = session
            .answer_with_options(&gq.query, algorithm, opts)
            .expect("generated query compiles");
        total_time += outcome.elapsed;
        total_passed += outcome.stats.passed_vertices;
        if outcome.answer != gq.expected {
            wrong += 1;
        }
    }
    let n = queries.len().max(1);
    GroupResult {
        avg_time: total_time / n as u32,
        avg_passed: total_passed as f64 / n as f64,
        queries: queries.len(),
        wrong,
    }
}

/// Wraps a generated dataset and its timed local index into a shared
/// engine — the standard setup step of every experiment binary.
pub fn engine_with_index(g: Graph, index: LocalIndex) -> LscrEngine {
    let engine = LscrEngine::new(g);
    engine.set_local_index(index).expect("index was built for this graph");
    engine
}

/// Builds a local index for a dataset, returning it with its build time.
pub fn build_local_index(g: &Graph, seed: u64) -> (LocalIndex, Duration) {
    let start = Instant::now();
    let index =
        LocalIndex::build(g, &LocalIndexConfig { num_landmarks: None, seed, ..Default::default() });
    let elapsed = start.elapsed();
    (index, elapsed)
}

/// Generates the evaluation workload for one (dataset, constraint) cell.
pub fn build_workload(
    g: &Graph,
    constraint: &kgreach::SubstructureConstraint,
    queries_per_group: usize,
    seed: u64,
) -> Workload {
    kgreach_datagen::queries::generate_workload(
        g,
        constraint,
        &QueryGenConfig {
            num_true: queries_per_group,
            num_false: queries_per_group,
            seed,
            max_attempts: queries_per_group * 4_000,
            enforce_difficulty: true,
        },
    )
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Formats a byte count as mebibytes.
pub fn mib(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// Prints a markdown-style table row.
pub fn print_row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a markdown-style table header (with separator line).
pub fn print_header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_datagen::constraints::s3;

    #[test]
    fn dataset_specs_scale() {
        let d = lubm_datasets(1.0);
        assert_eq!(d.len(), 6);
        assert_eq!(d[1].target_vertices, 12_000);
        let half = lubm_datasets(0.5);
        assert_eq!(half[1].target_vertices, 6_000);
    }

    #[test]
    fn cached_graph_memoizes_and_survives_corruption() {
        let dir =
            std::env::temp_dir().join(format!("kgreach-bench-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let spec = DatasetSpec { name: "T".into(), target_vertices: 400, seed: 3 };
        let make =
            || lubm::generate(&LubmConfig::sized(spec.target_vertices, spec.seed)).expect("fits");
        let mut builds = 0usize;
        let g1 = cached_graph_in(&dir, "test-lubm", || {
            builds += 1;
            make()
        });
        let g2 = cached_graph_in(&dir, "test-lubm", || {
            builds += 1;
            make()
        });
        assert_eq!(builds, 1, "second call must load the memoized snapshot");
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        // Corrupt the cached file: the cache regenerates instead of failing.
        let cached: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "kgsnap"))
            .collect();
        assert_eq!(cached.len(), 1);
        std::fs::write(&cached[0], b"garbage").unwrap();
        let g3 = cached_graph_in(&dir, "test-lubm", || {
            builds += 1;
            make()
        });
        assert_eq!(builds, 2, "corrupt snapshot must be regenerated");
        assert_eq!(g3.fingerprint(), g1.fingerprint());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(Duration::from_millis(2)), "2.000");
        assert_eq!(mib(1024 * 1024), "1.00");
    }

    #[test]
    fn end_to_end_cell_runs() {
        // One tiny cell through the whole pipeline: generate, index, run
        // every row of the figures, verify zero wrong answers.
        let spec = DatasetSpec { name: "T".into(), target_vertices: 1_000, seed: 9 };
        let g = build_lubm(&spec);
        let (index, _) = build_local_index(&g, 1);
        let w = kgreach_datagen::queries::generate_workload(
            &g,
            &s3(),
            &QueryGenConfig {
                num_true: 4,
                num_false: 4,
                seed: 5,
                max_attempts: 40_000,
                enforce_difficulty: false,
            },
        );
        assert!(!w.true_queries.is_empty());
        let engine = engine_with_index(g, index);
        for (row, alg, opts) in figure_rows() {
            let r = run_group(&engine, &w.true_queries, alg, &opts);
            assert_eq!(r.wrong, 0, "{row} wrong answers on true group");
            let r = run_group(&engine, &w.false_queries, alg, &opts);
            assert_eq!(r.wrong, 0, "{row} wrong answers on false group");
        }
    }
}
