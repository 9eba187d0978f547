//! Evaluation-query generation — the paper's §6.1.1 protocol.
//!
//! Generating an LSCR query that actually stresses a search algorithm is
//! "intricate" (§6.1.1): near targets answer in a few steps, and sloppy
//! label-constraint sampling confounds the variable under study. The
//! protocol reproduced here:
//!
//! * **label-size stratification** — label constraints have sizes uniform
//!   over `[0.2t, 0.8t]` (`t = |𝓛|`), distributed evenly across the
//!   sub-ranges `[0.2t,0.4t)`, `[0.4t,0.6t)`, `[0.6t,0.8t]`;
//! * **distance filtering** — targets are drawn outside the `log|V|`-round
//!   BFS ball of the source;
//! * **difficulty filtering** — the candidate is answered with UIS as
//!   the paper prints it (one frontier) and discarded when its search tree
//!   `|T|` is smaller than a random threshold in
//!   `[10·log|V|, |V|/(10·log|V|)]`;
//! * **false-type balancing** — false queries are kept in equal thirds of
//!   the three failure shapes: `s ↛_L t ∧ s ⇝_S t`, `s ⇝_L t ∧ s ↛_S t`,
//!   and `s ↛_L t ∧ s ↛_S t`.

use kgreach::{CompiledLscrQuery, LscrQuery, SubstructureConstraint};
use kgreach_graph::traverse::{bfs_first_expansions, lcr_reachable, EpochMask};
use kgreach_graph::{Graph, LabelSet, VertexId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Which way a false query fails (the §6.1.1 three possibilities).
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum FalseKind {
    /// `s ↛_L t` but `s ⇝_S t` — labels are the obstacle.
    LabelBlocked,
    /// `s ⇝_L t` but `s ↛_S t` — the substructure is the obstacle.
    SubstructureBlocked,
    /// Neither reachability holds.
    BothBlocked,
}

/// A generated evaluation query with its ground-truth answer.
#[derive(Clone, Debug)]
pub struct GeneratedQuery {
    /// The query.
    pub query: LscrQuery,
    /// Ground-truth answer (established by UIS during generation and
    /// independently checkable with the oracle).
    pub expected: bool,
    /// For false queries, the failure shape.
    pub false_kind: Option<FalseKind>,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct QueryGenConfig {
    /// True queries to produce (`|Q_t|`, 1000 in the paper).
    pub num_true: usize,
    /// False queries to produce (`|Q_f|`, 1000 in the paper).
    pub num_false: usize,
    /// RNG seed.
    pub seed: u64,
    /// Attempt cap (generation aborts gracefully when the graph cannot
    /// yield enough hard queries).
    pub max_attempts: usize,
    /// Enforce the `|T|` difficulty filter (disable on tiny test graphs).
    pub enforce_difficulty: bool,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            num_true: 50,
            num_false: 50,
            seed: 0x9e3779b9,
            max_attempts: 200_000,
            enforce_difficulty: true,
        }
    }
}

/// A generated workload: `Q_t` and `Q_f` for one (dataset, constraint)
/// pair.
#[derive(Clone, Debug)]
pub struct Workload {
    /// True queries.
    pub true_queries: Vec<GeneratedQuery>,
    /// False queries (balanced across [`FalseKind`]s).
    pub false_queries: Vec<GeneratedQuery>,
    /// Attempts consumed.
    pub attempts: usize,
}

/// Generates a workload for `constraint` on `g` per the §6.1.1 protocol.
pub fn generate_workload(
    g: &Graph,
    constraint: &SubstructureConstraint,
    config: &QueryGenConfig,
) -> Workload {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let n = g.num_vertices();
    let t = g.num_labels();
    assert!(n >= 2 && t >= 1, "graph too small for query generation");
    let log_v = (n as f64).log2().max(1.0);

    let all_labels = g.all_labels();

    let mut true_queries = Vec::with_capacity(config.num_true);
    let mut false_queries: Vec<GeneratedQuery> = Vec::with_capacity(config.num_false);
    let mut false_counts = [0usize; 3];
    let per_kind = config.num_false.div_ceil(3);
    let mut stratum = 0usize;
    let mut attempts = 0usize;

    let mut fwd_mask = EpochMask::new(n);
    let mut scratch = kgreach::SearchScratch::new(n);
    let algorithm_1 = kgreach::QueryOptions::default().with_one_frontier(true);

    while (true_queries.len() < config.num_true || false_queries.len() < config.num_false)
        && attempts < config.max_attempts
    {
        attempts += 1;

        // Stratified label-constraint size.
        let (lo, hi) = match stratum % 3 {
            0 => (0.2, 0.4),
            1 => (0.4, 0.6),
            _ => (0.6, 0.8),
        };
        stratum += 1;
        let frac = rng.gen_range(lo..hi);
        let size = ((t as f64 * frac).round() as usize).clamp(1, t);
        let mut label_ids: Vec<u16> = (0..t as u16).collect();
        label_ids.shuffle(&mut rng);
        let labels: LabelSet =
            label_ids[..size].iter().map(|&i| kgreach_graph::LabelId(i)).collect();

        // Source, then a target outside the log|V|-expansion BFS ball.
        let s = VertexId(rng.gen_range(0..n as u32));
        let near = bfs_first_expansions(g, s, log_v as usize);
        if near.len() >= n {
            continue; // everything is near; hopeless source
        }
        fwd_mask.reset();
        for &v in &near {
            fwd_mask.insert(v);
        }
        let t_vertex = {
            let mut found = None;
            for _ in 0..32 {
                let cand = VertexId(rng.gen_range(0..n as u32));
                if !fwd_mask.contains(cand) {
                    found = Some(cand);
                    break;
                }
            }
            match found {
                Some(v) => v,
                None => continue,
            }
        };

        let query = LscrQuery::new(s, t_vertex, labels, constraint.clone());
        let cq = match query.compile(g) {
            Ok(cq) => cq,
            Err(_) => continue,
        };

        // Classify with UIS and apply the difficulty filter. `|T|` is the
        // search tree of Algorithm 1, so UIS runs as printed: one frontier.
        let outcome = kgreach::uis::answer_with(g, &cq, &mut scratch, &algorithm_1);
        if config.enforce_difficulty {
            let min_lo = (10.0 * log_v) as usize;
            let min_hi = ((n as f64) / (10.0 * log_v)) as usize;
            if min_lo < min_hi {
                let min = rng.gen_range(min_lo..=min_hi);
                if outcome.stats.pushes < min {
                    continue;
                }
            }
        }

        if outcome.answer {
            if true_queries.len() < config.num_true {
                true_queries.push(GeneratedQuery { query, expected: true, false_kind: None });
            }
        } else if false_queries.len() < config.num_false {
            // Determine the failure shape for balancing.
            let l_reaches = lcr_reachable(g, s, t_vertex, labels);
            // `s ⇝_S t`: the LSCR query itself under the full label set.
            let s_query = CompiledLscrQuery { label_constraint: all_labels, ..cq };
            let s_reaches = kgreach::oracle::answer(g, &s_query).answer;
            let kind = match (l_reaches, s_reaches) {
                (false, true) => FalseKind::LabelBlocked,
                (true, false) => FalseKind::SubstructureBlocked,
                (false, false) => FalseKind::BothBlocked,
                (true, true) => {
                    // L-path and S-path exist separately but no joint one;
                    // rare and outside the paper's three bins — skip.
                    continue;
                }
            };
            let slot = kind as usize;
            // Balance kinds into thirds; once half the attempt budget is
            // spent, accept whatever the graph still yields (small graphs
            // cannot always produce all three shapes).
            let relaxed = attempts > config.max_attempts / 2;
            if false_counts[slot] < per_kind || relaxed {
                false_counts[slot] += 1;
                false_queries.push(GeneratedQuery {
                    query,
                    expected: false,
                    false_kind: Some(kind),
                });
            }
        }
    }

    Workload { true_queries, false_queries, attempts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::{s1, s3};
    use crate::lubm::{generate, LubmConfig};
    use kgreach::{Algorithm, QueryOptions};

    fn lubm() -> Graph {
        generate(&LubmConfig { universities: 2, departments: 4, seed: 3 }).unwrap()
    }

    fn config(n: usize) -> QueryGenConfig {
        QueryGenConfig {
            num_true: n,
            num_false: n,
            seed: 99,
            max_attempts: 50_000,
            enforce_difficulty: false,
        }
    }

    #[test]
    fn generates_requested_counts() {
        let g = lubm();
        let w = generate_workload(&g, &s3(), &config(10));
        assert_eq!(w.true_queries.len(), 10);
        assert_eq!(w.false_queries.len(), 10);
        assert!(w.attempts >= 20);
    }

    #[test]
    fn ground_truth_matches_oracle() {
        let g = lubm();
        let w = generate_workload(&g, &s3(), &config(8));
        let engine = kgreach::LscrEngine::new(g);
        let opts = QueryOptions::default();
        let mut session = engine.session();
        for q in w.true_queries.iter().chain(&w.false_queries) {
            let compiled = engine.compile(&q.query).unwrap();
            let out = session
                .answer_compiled(&engine.graph(), &compiled, Algorithm::Oracle, &opts)
                .unwrap();
            assert_eq!(out.answer, q.expected);
        }
    }

    #[test]
    fn false_kinds_are_mixed() {
        // Strict thirds are enforced while the attempt budget lasts; the
        // generator then relaxes to whatever shapes the graph yields (LUBM
        // rarely produces SubstructureBlocked under S3's 12% selectivity).
        // The workload must still fill, with more than one failure shape.
        let g = lubm();
        let w = generate_workload(&g, &s3(), &config(9));
        assert_eq!(w.false_queries.len(), 9);
        let mut counts = std::collections::HashMap::new();
        for q in &w.false_queries {
            *counts.entry(q.false_kind.unwrap()).or_insert(0usize) += 1;
        }
        assert!(counts.len() >= 2, "only one failure shape: {counts:?}");
    }

    #[test]
    fn label_sizes_stratified() {
        let g = lubm();
        let w = generate_workload(&g, &s1(), &config(12));
        let t = g.num_labels() as f64;
        for q in w.true_queries.iter().chain(&w.false_queries) {
            let size = q.query.label_constraint.len() as f64;
            assert!(
                size >= (0.2 * t).floor() && size <= (0.8 * t).ceil(),
                "size {size} outside [0.2t, 0.8t]"
            );
        }
    }

    #[test]
    fn difficulty_filter_prunes() {
        let g = lubm();
        let mut cfg = config(5);
        cfg.enforce_difficulty = true;
        cfg.max_attempts = 20_000;
        let w = generate_workload(&g, &s3(), &cfg);
        // The filter may reduce yield but never produces wrong answers.
        let engine = kgreach::LscrEngine::new(g);
        let opts = QueryOptions::default();
        let mut session = engine.session();
        for q in w.true_queries.iter().chain(&w.false_queries) {
            let compiled = engine.compile(&q.query).unwrap();
            let out = session
                .answer_compiled(&engine.graph(), &compiled, Algorithm::Oracle, &opts)
                .unwrap();
            assert_eq!(out.answer, q.expected);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = lubm();
        let a = generate_workload(&g, &s3(), &config(5));
        let b = generate_workload(&g, &s3(), &config(5));
        assert_eq!(a.attempts, b.attempts);
        for (x, y) in a.true_queries.iter().zip(&b.true_queries) {
            assert_eq!(x.query.source, y.query.source);
            assert_eq!(x.query.target, y.query.target);
            assert_eq!(x.query.label_constraint, y.query.label_constraint);
        }
    }
}
