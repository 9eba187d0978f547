//! Landmark selection and graph partitioning (paper Algorithm 3, lines 1-2
//! and 25-34).
//!
//! The local index narrows each landmark's precomputation from the whole KG
//! to one subgraph. This module builds the bijection `F : I → 𝒢`:
//!
//! * **`LandmarkSelect`** — landmarks are *not* the highest-degree vertices
//!   (in a KG those are class/vocabulary hubs whose incident edges carry
//!   only RDF vocabulary labels, making the index useless for ordinary
//!   label constraints — paper §5.1.2). Instead, classes are sampled from
//!   the RDFS schema `LS` and `k` *instances* of the selected classes are
//!   marked evenly, with `k = log|V| · √|V|` by default.
//! * **`BFSTraverse`** — a round-robin multi-source BFS from all landmarks
//!   simultaneously; each vertex `w` reached first by landmark `u` gets the
//!   attribute `w.AF = u`, i.e. joins subgraph `F(u)`. Partitions grow one
//!   vertex per turn, keeping them balanced. Vertices unreachable from
//!   every landmark stay unassigned.

use kgreach_graph::fxhash::fx_set_with_capacity;
use kgreach_graph::{Graph, VertexId};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// Sentinel "no partition" ordinal.
pub(crate) const NO_PARTITION: u32 = u32::MAX;

/// The bijection `F`: landmark set `I` plus the per-vertex attribute `AF`.
#[derive(Clone, Debug)]
pub struct Partition {
    landmarks: Vec<VertexId>,
    af: Vec<u32>,
    landmark_flag: Vec<bool>,
}

impl Partition {
    /// Reassembles a partition from its landmark list and raw `AF` array
    /// (snapshot decoding); the landmark flags are rederived. Returns
    /// `None` if the landmark list holds duplicates or ids outside `af` —
    /// corrupt data, since `partition_graph` can produce neither.
    pub(crate) fn from_parts(landmarks: Vec<VertexId>, af: Vec<u32>) -> Option<Partition> {
        let mut landmark_flag = vec![false; af.len()];
        for &u in &landmarks {
            let flag = landmark_flag.get_mut(u.index())?;
            if std::mem::replace(flag, true) {
                return None; // duplicate landmark
            }
        }
        Some(Partition { landmarks, af, landmark_flag })
    }

    /// The raw per-vertex `AF` array, [`NO_PARTITION`] for unassigned
    /// vertices (snapshot encoding).
    pub(crate) fn af_slice(&self) -> &[u32] {
        &self.af
    }

    /// Extends the `AF` array to cover `n` vertices; the new slots are
    /// unassigned. Dynamic updates intern vertices after the partition
    /// was computed — they stay outside every subgraph (INS treats them
    /// through its ordinary frontier expansion) until a full index
    /// rebuild re-partitions. Never shrinks.
    pub(crate) fn extend_to(&mut self, n: usize) {
        if n > self.af.len() {
            self.af.resize(n, NO_PARTITION);
            self.landmark_flag.resize(n, false);
        }
    }

    /// The landmark set `I`, by ordinal.
    pub fn landmarks(&self) -> &[VertexId] {
        &self.landmarks
    }

    /// `|I|`.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// The partition ordinal of `v` (`v.AF`), or `None` if `v` was not
    /// reached by any landmark.
    #[inline(always)]
    pub fn af(&self, v: VertexId) -> Option<u32> {
        let a = self.af[v.index()];
        (a != NO_PARTITION).then_some(a)
    }

    /// Whether `v` is a landmark.
    #[inline(always)]
    pub fn is_landmark(&self, v: VertexId) -> bool {
        self.landmark_flag[v.index()]
    }

    /// The landmark vertex owning partition `ordinal`.
    pub fn landmark(&self, ordinal: u32) -> VertexId {
        self.landmarks[ordinal as usize]
    }

    /// The landmark owning `v`'s partition, if assigned.
    #[inline]
    pub(crate) fn landmark_of(&self, v: VertexId) -> Option<VertexId> {
        self.af(v).map(|o| self.landmarks[o as usize])
    }

    /// Number of vertices assigned to any partition.
    pub(crate) fn num_assigned(&self) -> usize {
        self.af.iter().filter(|&&a| a != NO_PARTITION).count()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.af.capacity() * 4
            + self.landmark_flag.capacity()
            + self.landmarks.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// The paper's default landmark count `k = log|V| · √|V|` (base-2 log),
/// clamped to `[1, |V|]`.
pub fn default_num_landmarks(num_vertices: usize) -> usize {
    if num_vertices == 0 {
        return 0;
    }
    let n = num_vertices as f64;
    let k = n.log2() * n.sqrt();
    (k as usize).clamp(1, num_vertices)
}

/// `LandmarkSelect(LS, k)`: samples classes from the schema, then marks `k`
/// instances of the selected classes evenly (round-robin across classes).
///
/// A small *coverage quota* — `k / 128`, at least one slot once `k ≥ 2`
/// (a lone landmark stays with the class spread, which is what makes
/// `k = 1` deterministic on a single-instance schema) — is reserved for
/// the vertices with the best rare-label coverage, scored
/// `Σ_{l ∈ out-mask(v)} |V| / label_vertex_counts[l]` (rarer labels
/// weigh more). Narrow label constraints draw from labels only a
/// handful of vertices carry, and a landmark whose out-edges cover such
/// a label is far more likely to own the partitions those queries
/// traverse — which is what lets `Check(II[u], t*)` fire instead of
/// degenerating to plain BFS. The quota stays a *tiny minority* on
/// purpose, and is filled *after* the class spread has drawn its random
/// stream: the bulk of the layout keeps the paper's randomized class
/// spread, which broad-`L` workloads depend on — coverage-heavy
/// vertices cluster, and measurements show that handing them even a
/// sixteenth of the slots reshapes partitions enough to slow the
/// full-alphabet LUBM rows severalfold.
///
/// The coverage top-up also doubles as the fallback when the schema
/// provides fewer than `k` instances (general edge-labeled graphs
/// without RDFS typing), so INS degrades gracefully rather than
/// failing.
pub(crate) fn select_landmarks<R: Rng>(g: &Graph, k: usize, rng: &mut R) -> Vec<VertexId> {
    let k = k.min(g.num_vertices());
    if k == 0 {
        return Vec::new();
    }
    let schema = g.schema();
    let mut chosen: Vec<VertexId> = Vec::with_capacity(k);
    let mut taken = fx_set_with_capacity::<VertexId>(k);

    let counts = g.label_vertex_counts();
    let n = g.num_vertices().max(1) as u64;
    let coverage = |v: VertexId| -> u64 {
        g.out_label_mask(v)
            .iter()
            .map(|l| n / counts.get(l.index()).copied().unwrap_or(0).max(1) as u64)
            .sum()
    };

    // Randomly select a set of classes (a random half, at least one).
    // This runs *before* any coverage work so the class spread draws the
    // same random stream whether or not a quota follows — the bulk of
    // the layout stays stable under the quota knob.
    let mut classes: Vec<VertexId> =
        schema.classes().iter().copied().filter(|&c| !schema.instances_of(c).is_empty()).collect();
    classes.shuffle(rng);
    let selected = classes.len().div_ceil(2).max(1).min(classes.len());
    let mut cursors: Vec<(usize, &[VertexId])> =
        classes[..selected].iter().map(|&c| (0usize, schema.instances_of(c))).collect();

    // Evenly mark instances for all non-quota slots: one per selected
    // class per round.
    let quota = (k / 128).max(1).min(k / 2);
    let spread_slots = k - quota.min(k);
    let mut progressed = true;
    while chosen.len() < spread_slots && progressed {
        progressed = false;
        for (cursor, instances) in cursors.iter_mut() {
            while *cursor < instances.len() {
                let cand = instances[*cursor];
                *cursor += 1;
                if taken.insert(cand) {
                    chosen.push(cand);
                    progressed = true;
                    break;
                }
            }
            if chosen.len() >= spread_slots {
                break;
            }
        }
    }

    // The coverage quota tops up with the best rare-label coverers,
    // graph-wide. Shuffle then stable-sort so equal scores stay in
    // random order and different seeds explore different ties.
    if chosen.len() < k {
        let mut by_coverage: Vec<VertexId> = g.vertices().filter(|v| !taken.contains(v)).collect();
        by_coverage.shuffle(rng);
        by_coverage.sort_by_key(|&v| std::cmp::Reverse(coverage(v)));
        let missing = k - chosen.len();
        for v in by_coverage.into_iter().take(missing) {
            taken.insert(v);
            chosen.push(v);
        }
    }
    chosen
}

/// Highest-degree landmark selection — the traditional strategy of \[19\]
/// that §5.1.2 argues is wrong for KGs (it picks class/vocabulary hubs).
/// Provided for the ablation benchmark comparing selection strategies.
pub fn select_landmarks_by_degree(g: &Graph, k: usize) -> Vec<VertexId> {
    let k = k.min(g.num_vertices());
    let mut by_degree: Vec<VertexId> = g.vertices().collect();
    by_degree.sort_unstable_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    by_degree.truncate(k);
    by_degree
}

/// `BFSTraverse(I)`: round-robin multi-source BFS assigning `AF`
/// (Algorithm 3, lines 25-34).
pub(crate) fn partition_graph(g: &Graph, landmarks: Vec<VertexId>) -> Partition {
    let n = g.num_vertices();
    let mut af = vec![NO_PARTITION; n];
    let mut landmark_flag = vec![false; n];
    let mut queues: Vec<VecDeque<VertexId>> = Vec::with_capacity(landmarks.len());
    let mut active: VecDeque<u32> = VecDeque::with_capacity(landmarks.len());

    for (i, &u) in landmarks.iter().enumerate() {
        debug_assert!(!landmark_flag[u.index()], "duplicate landmark {u}");
        af[u.index()] = i as u32;
        landmark_flag[u.index()] = true;
        queues.push(VecDeque::from([u]));
        active.push_back(i as u32);
    }

    // Each turn expands exactly one vertex of one landmark's region.
    while let Some(ord) = active.pop_front() {
        let v = queues[ord as usize].pop_front().expect("active queue is non-empty");
        for e in g.out_neighbors(v) {
            let w = e.vertex;
            if af[w.index()] == NO_PARTITION {
                af[w.index()] = ord;
                queues[ord as usize].push_back(w);
            }
        }
        if !queues[ord as usize].is_empty() {
            active.push_back(ord);
        }
    }

    Partition { landmarks, af, landmark_flag }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgreach_graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    impl Partition {
        /// Members of partition `ordinal` (an O(|V|) scan).
        fn members(&self, ordinal: u32) -> Vec<VertexId> {
            self.af
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a == ordinal)
                .map(|(i, _)| VertexId::from_index(i))
                .collect()
        }
    }

    #[test]
    fn a_landmark_claims_everything_it_reaches() {
        let g = crate::fixtures::figure3();
        let v0 = g.vertex_id("v0").unwrap();
        let part = partition_graph(&g, vec![v0]);
        assert!(part.is_landmark(v0));
        // Everything v0 reaches joins its subgraph F(v0).
        assert_eq!(part.num_assigned(), 5);
    }

    fn typed_graph() -> Graph {
        // Two classes with instances, plus a chain hanging off each instance.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_triple(&format!("prof{i}"), "rdf:type", "Professor");
            b.add_triple(&format!("student{i}"), "rdf:type", "Student");
            b.add_triple(&format!("prof{i}"), "advises", &format!("student{i}"));
            b.add_triple(&format!("student{i}"), "takes", &format!("course{i}"));
        }
        b.build().unwrap()
    }

    #[test]
    fn default_k_formula() {
        assert_eq!(default_num_landmarks(0), 0);
        assert_eq!(default_num_landmarks(1), 1); // clamped up

        // |V| = 1024: log2 = 10, sqrt = 32 → 320.
        assert_eq!(default_num_landmarks(1024), 320);
        assert!(default_num_landmarks(100) <= 100);
    }

    #[test]
    fn select_prefers_schema_instances() {
        let g = typed_graph();
        let mut rng = SmallRng::seed_from_u64(7);
        let lm = select_landmarks(&g, 3, &mut rng);
        assert_eq!(lm.len(), 3);
        // All landmarks are typed instances (profN / studentN), not classes
        // or courses.
        for &v in &lm {
            let name = g.vertex_name(v);
            assert!(
                name.starts_with("prof") || name.starts_with("student"),
                "unexpected landmark {name}"
            );
        }
        // No duplicates.
        let mut dedup = lm.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), lm.len());
    }

    #[test]
    fn select_biases_toward_rare_label_coverage() {
        // Only the `rare` instances carry a label that exists almost
        // nowhere else; everything else carries an ubiquitous one. The
        // coverage quota must land at least one slot on a rare instance —
        // under every seed, so narrow-L queries (which draw from the rare
        // labels) get a landmark whose Check can actually fire. The
        // remaining slots stay with the randomized class spread, so the
        // full layout is deliberately *not* pinned.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_triple(&format!("hub{i}"), "rdf:type", "Hub");
            b.add_triple(&format!("hub{i}"), "common", &format!("sink{i}"));
        }
        for i in 0..2 {
            b.add_triple(&format!("rare{i}"), "rdf:type", "Rare");
            b.add_triple(&format!("rare{i}"), "needle", &format!("sink{i}"));
        }
        for i in 0..20 {
            b.add_triple(&format!("c{i}"), "common", &format!("c{}", i + 1));
        }
        let g = b.build().unwrap();
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let lm = select_landmarks(&g, 2, &mut rng);
            assert_eq!(lm.len(), 2, "seed {seed}");
            let names: Vec<&str> = lm.iter().map(|&v| g.vertex_name(v)).collect();
            assert!(
                names.iter().any(|n| n.starts_with("rare")),
                "seed {seed}: coverage quota missed the rare instances ({names:?})"
            );
        }
    }

    #[test]
    fn select_falls_back_without_schema() {
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("b", "p", "c");
        let g = b.build().unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let lm = select_landmarks(&g, 2, &mut rng);
        assert_eq!(lm.len(), 2);
    }

    #[test]
    fn select_caps_at_num_vertices() {
        let g = typed_graph();
        let mut rng = SmallRng::seed_from_u64(1);
        let lm = select_landmarks(&g, 10_000, &mut rng);
        assert_eq!(lm.len(), g.num_vertices());
    }

    #[test]
    fn partition_assigns_af() {
        let g = typed_graph();
        let p0 = g.vertex_id("prof0").unwrap();
        let p1 = g.vertex_id("prof1").unwrap();
        let part = partition_graph(&g, vec![p0, p1]);
        assert_eq!(part.num_landmarks(), 2);
        assert!(part.is_landmark(p0));
        assert_eq!(part.af(p0), Some(0));
        assert_eq!(part.landmark(1), p1);
        assert_eq!(part.landmark_of(p0), Some(p0));
        // prof0's chain lands in partition 0.
        let s0 = g.vertex_id("student0").unwrap();
        let c0 = g.vertex_id("course0").unwrap();
        assert_eq!(part.af(s0), Some(0));
        assert_eq!(part.af(c0), Some(0));
        // prof2 is untouched by either landmark region? prof2 has no
        // in-edges from the landmark chains, so it stays unassigned.
        let p2 = g.vertex_id("prof2").unwrap();
        assert_eq!(part.af(p2), None);
        assert!(!part.is_landmark(p2));
        assert_eq!(part.landmark_of(p2), None);
    }

    #[test]
    fn partition_balanced_on_shared_region() {
        // Two landmarks racing down a shared chain split it roughly evenly.
        let mut b = GraphBuilder::new();
        b.add_triple("lm0", "p", "n0");
        b.add_triple("lm1", "p", "n0");
        for i in 0..20 {
            b.add_triple(&format!("n{i}"), "p", &format!("n{}", i + 1));
        }
        let g = b.build().unwrap();
        let l0 = g.vertex_id("lm0").unwrap();
        let l1 = g.vertex_id("lm1").unwrap();
        let part = partition_graph(&g, vec![l0, l1]);
        assert_eq!(part.num_assigned(), g.num_vertices());
        // The chain is claimed by whoever reached n0 first; both partitions
        // are non-empty.
        assert!(!part.members(0).is_empty());
        assert!(!part.members(1).is_empty());
    }

    #[test]
    fn members_and_counts_consistent() {
        let g = typed_graph();
        let p0 = g.vertex_id("prof0").unwrap();
        let part = partition_graph(&g, vec![p0]);
        let m = part.members(0);
        assert_eq!(m.len(), part.num_assigned());
        assert!(m.contains(&p0));
        assert!(part.heap_bytes() > 0);
    }

    #[test]
    fn empty_landmarks() {
        let g = typed_graph();
        let part = partition_graph(&g, vec![]);
        assert_eq!(part.num_landmarks(), 0);
        assert_eq!(part.num_assigned(), 0);
    }
}
