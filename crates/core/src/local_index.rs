//! The local index (paper §5.1, Algorithm 3).
//!
//! For each landmark `u`, the index entry `II[u] ∪ EIT[u] ∪ D[u]` is
//! computed *only within the subgraph `F(u)`*:
//!
//! * `II[u]` — for every vertex `v ∈ F(u)`, the CMS `M(u, v | F(u))`:
//!   minimal label sets of intra-partition paths `u → v`
//!   (Definition 5.1). Used by INS's `Check` and `Cut`.
//! * `EI[u]` — for every *exit* target `w ∉ F(u)` reached by an edge
//!   `(v, l, w)` with `v ∈ F(u)`, the minimal sets `M(u,v|F(u)) ∪ {l}`.
//!   Only materialized transiently.
//! * `EIT[u]` — `EI[u]` reversed into (label set → exit-vertex list) form
//!   for query-time efficiency (Theorem 5.1: if `L_u ⊆ L`, `u ⇝_L v` for
//!   every `v` in the pair's list). Used by INS's `Push`.
//! * `D[u]` — per target partition `F(v)`, the number of `EI[u]` entries
//!   landing in `F(v)`: the correlation degree between the two subgraphs,
//!   which INS's priorities use as the distance estimate
//!   `ρ(s,t) = D(s.AF, t.AF)`. The paper calls `ρ` a distance but `D`
//!   counts *connections*; we treat larger counts as closer (more exit
//!   edges ⇒ easier to cross), our reading where the paper is ambiguous.
//!
//! Because each landmark's BFS is confined to its partition, total
//! indexing cost is bounded by `O(2^|𝓛|(|E| + |V| log 2^|𝓛|))`
//! (Theorem 5.3) — independent of the number of landmarks, unlike the
//! traditional whole-graph landmark indexing it replaces.
//!
//! Even so, a build is far too expensive to repeat on every process
//! start: [`LocalIndex::save`]/[`LocalIndex::load`] persist the whole
//! index — partition, CMS entries, correlation rows and the embedded
//! [`GraphFingerprint`] — in the checksummed binary container of
//! [`kgreach_graph::snapshot`], and installing a loaded index against
//! the wrong graph is rejected through the engine's fingerprint check
//! ([`QueryError::IndexGraphMismatch`](crate::QueryError::IndexGraphMismatch)).
//!
//! ```
//! use kgreach::{LocalIndex, LocalIndexConfig};
//! use kgreach::fixtures::figure3;
//!
//! let g = figure3();
//! let config = LocalIndexConfig { num_landmarks: Some(2), seed: 7, ..Default::default() };
//! let index = LocalIndex::build(&g, &config);
//! assert_eq!(index.stats().num_landmarks, 2);
//! assert_eq!(index.graph_fingerprint(), g.fingerprint());
//! ```

use crate::partition::{
    default_num_landmarks, partition_graph, select_landmarks, Partition, NO_PARTITION,
};
use kgreach_graph::fsio;
use kgreach_graph::fxhash::FxHashMap;
use kgreach_graph::snapshot::{
    ArtifactKind, PayloadBuf, PayloadCursor, SectionReader, SectionWriter,
};
use kgreach_graph::{Cms, Dir, Graph, GraphFingerprint, LabelSet, VertexId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration for [`LocalIndex::build`].
#[derive(Clone, Debug)]
pub struct LocalIndexConfig {
    /// Number of landmarks `k`; `None` uses the paper's
    /// `k = log|V|·√|V|`.
    pub num_landmarks: Option<usize>,
    /// RNG seed for class/landmark sampling (builds are deterministic
    /// given the seed).
    pub seed: u64,
    /// [`LocalIndex::patched`]'s staleness budget: past this fraction of
    /// `|I|` touched partitions, repair gives up and a rebuild is due. The
    /// engine does not read it: an update drops the index.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub staleness_budget: f64,
    /// Worker threads for the per-landmark `LocalFullIndex` loop
    /// (Algorithm 3, lines 3-4). Each landmark's entry is independent,
    /// so the loop parallelizes without synchronization; results are
    /// merged in ordinal order, making the built index — including its
    /// serialized bytes — identical for every thread count. `0` and `1`
    /// both mean sequential.
    pub build_threads: usize,
}

impl Default for LocalIndexConfig {
    fn default() -> Self {
        LocalIndexConfig {
            num_landmarks: None,
            seed: 0x5ca1ab1e,
            staleness_budget: 0.5,
            build_threads: 1,
        }
    }
}

/// One landmark's persistent entry: `II[u] ∪ EIT[u]`.
#[derive(Clone, Debug, Default)]
pub struct LandmarkEntry {
    /// `(v, M(u,v|F(u)))` pairs, sorted by `v` for binary search.
    ii: Vec<(VertexId, Cms)>,
    /// `(label set, end of its exit vertices in exits)` pairs, sorted by
    /// label-set bits.
    eit: Vec<(LabelSet, u32)>,
    /// Every `EIT` pair's exit vertices, concatenated in pair order, each
    /// pair's run sorted.
    exits: Vec<VertexId>,
}

impl LandmarkEntry {
    /// The CMS from the landmark to `v` within the partition, if any.
    pub fn ii_cms(&self, v: VertexId) -> Option<&Cms> {
        self.ii.binary_search_by_key(&v, |(w, _)| *w).ok().map(|i| &self.ii[i].1)
    }

    /// The paper's `Check(II[u], t*)`: whether the landmark reaches `t*`
    /// within its partition under label constraint `l`.
    #[inline]
    pub fn check(&self, t_star: VertexId, l: LabelSet) -> bool {
        self.ii_cms(t_star).is_some_and(|cms| cms.covers(l))
    }

    /// Iterates `II[u]` pairs.
    pub fn ii_pairs(&self) -> impl Iterator<Item = (VertexId, &Cms)> {
        self.ii.iter().map(|(v, c)| (*v, c))
    }

    /// Iterates `EIT[u]` pairs.
    pub fn eit_pairs(&self) -> impl Iterator<Item = (LabelSet, &[VertexId])> {
        let mut start = 0;
        self.eit.iter().map(move |&(l, end)| {
            let exits = &self.exits[start..end as usize];
            start = end as usize;
            (l, exits)
        })
    }

    /// Appends an `EIT` pair; pairs come in label-set order.
    fn push_eit(&mut self, l: LabelSet, exits: &[VertexId]) {
        self.exits.extend_from_slice(exits);
        let end = u32::try_from(self.exits.len()).expect("an entry's exits fit u32 offsets");
        self.eit.push((l, end));
    }

    /// Number of `II` pairs.
    pub fn num_ii(&self) -> usize {
        self.ii.len()
    }

    /// Number of `EIT` pairs.
    pub(crate) fn num_eit(&self) -> usize {
        self.eit.len()
    }

    /// Approximate heap footprint in bytes.
    pub fn heap_bytes(&self) -> usize {
        let ii: usize = self
            .ii
            .iter()
            .map(|(_, c)| std::mem::size_of::<(VertexId, Cms)>() + c.heap_bytes())
            .sum();
        let eit = self.eit.capacity() * std::mem::size_of::<(LabelSet, u32)>()
            + self.exits.capacity() * std::mem::size_of::<VertexId>();
        ii + eit
    }
}

/// Metadata about one index build, reported by the Table 2 experiment.
#[derive(Clone, Debug)]
pub struct IndexBuildStats {
    /// Wall-clock build time.
    pub elapsed: Duration,
    /// Approximate index size in bytes (entries + partition + D).
    pub bytes: usize,
    /// Number of landmarks `|I|`.
    pub num_landmarks: usize,
    /// Total `II` pairs across landmarks.
    pub ii_pairs: usize,
    /// Total `EIT` pairs across landmarks.
    pub eit_pairs: usize,
    /// Vertices assigned to some partition.
    pub assigned_vertices: usize,
}

/// The complete local index over one graph.
#[derive(Clone, Debug)]
pub struct LocalIndex {
    partition: Partition,
    /// One shared entry per landmark. `Arc` so incremental maintenance
    /// ([`patched`](Self::patched)) shares every untouched entry between
    /// the old and new index instead of deep-cloning the whole index per
    /// update batch.
    entries: Vec<Arc<LandmarkEntry>>,
    d: Vec<FxHashMap<u32, u32>>,
    stats: IndexBuildStats,
    fingerprint: GraphFingerprint,
}

impl LocalIndex {
    /// Builds the index (Algorithm 3).
    pub fn build(g: &Graph, config: &LocalIndexConfig) -> LocalIndex {
        let k = config.num_landmarks.unwrap_or_else(|| default_num_landmarks(g.num_vertices()));
        let mut rng = SmallRng::seed_from_u64(config.seed);
        // Line 1: landmark selection from the schema.
        let landmarks = select_landmarks(g, k, &mut rng);
        Self::build_with_landmarks_threaded(g, landmarks, config.build_threads)
    }

    /// Builds the index over an explicit landmark set (used by tests and
    /// the landmark-selection ablation; Algorithm 3 minus line 1).
    pub fn build_with_landmarks(g: &Graph, landmarks: Vec<VertexId>) -> LocalIndex {
        Self::build_with_landmarks_threaded(g, landmarks, 1)
    }

    /// [`build_with_landmarks`](Self::build_with_landmarks) with an
    /// explicit worker-thread count for the per-landmark loop. The
    /// result is identical — entry for entry and byte for byte once
    /// [`with_elapsed`](Self::with_elapsed) normalizes the wall time —
    /// for every `threads` value: workers take static contiguous ordinal
    /// chunks and results merge back in ordinal order.
    fn build_with_landmarks_threaded(
        g: &Graph,
        landmarks: Vec<VertexId>,
        threads: usize,
    ) -> LocalIndex {
        let start = Instant::now();
        // Line 2: BFSTraverse builds F / AF.
        let partition = partition_graph(g, landmarks);

        // Lines 3-4: LocalFullIndex per landmark. Each iteration is a
        // pure function of (g, partition, ord), so the loop fans out
        // across scoped threads with no shared mutable state.
        let k = partition.num_landmarks();
        let mut entries = Vec::with_capacity(k);
        let mut d: Vec<FxHashMap<u32, u32>> = Vec::with_capacity(k);
        if threads <= 1 || k <= 1 {
            for ord in 0..k as u32 {
                let (entry, d_row) = local_full_index(g, &partition, ord);
                entries.push(Arc::new(entry));
                d.push(d_row);
            }
        } else {
            let workers = threads.min(k);
            let chunk = k.div_ceil(workers);
            let part = &partition;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        let lo = w * chunk;
                        let hi = (lo + chunk).min(k);
                        s.spawn(move || {
                            (lo..hi)
                                .map(|ord| local_full_index(g, part, ord as u32))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // Joining in spawn order restores ordinal order exactly.
                for handle in handles {
                    for (entry, d_row) in handle.join().expect("index build worker panicked") {
                        entries.push(Arc::new(entry));
                        d.push(d_row);
                    }
                }
            });
        }

        let ii_pairs = entries.iter().map(|e| e.num_ii()).sum();
        let eit_pairs = entries.iter().map(|e| e.num_eit()).sum();
        let bytes = entries.iter().map(|e| e.heap_bytes()).sum::<usize>()
            + partition.heap_bytes()
            + d.iter().map(|m| m.len() * 8 + 16).sum::<usize>();
        let stats = IndexBuildStats {
            elapsed: start.elapsed(),
            bytes,
            num_landmarks: partition.num_landmarks(),
            ii_pairs,
            eit_pairs,
            assigned_vertices: partition.num_assigned(),
        };
        LocalIndex { partition, entries, d, stats, fingerprint: g.fingerprint() }
    }

    /// The partition (`F`, `AF`).
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The entry of landmark `ordinal`.
    pub fn entry(&self, ordinal: u32) -> &LandmarkEntry {
        &self.entries[ordinal as usize]
    }

    /// The entry of a landmark vertex, if `v` is one.
    pub(crate) fn entry_of(&self, v: VertexId) -> Option<&LandmarkEntry> {
        if self.partition.is_landmark(v) {
            self.partition.af(v).map(|o| self.entry(o))
        } else {
            None
        }
    }

    /// The correlation degree `D(a, b)` between partitions: number of exit
    /// entries of `F(a)` landing in `F(b)`; same-partition correlation is
    /// `u32::MAX` (maximal — no crossing needed).
    pub fn correlation(&self, a: u32, b: u32) -> u32 {
        if a == b {
            return u32::MAX;
        }
        if a == NO_PARTITION || b == NO_PARTITION {
            return 0;
        }
        self.d.get(a as usize).and_then(|row| row.get(&b)).copied().unwrap_or(0)
    }

    /// The INS distance estimate `ρ(s,t) = D(s.AF, t.AF)` folded into a
    /// "smaller is closer" key: `0` for the same partition, decreasing in
    /// the correlation count otherwise, `u32::MAX` when unrelated.
    pub(crate) fn rho(&self, s: VertexId, t: VertexId) -> u32 {
        let a = self.partition.af(s).unwrap_or(NO_PARTITION);
        let b = self.partition.af(t).unwrap_or(NO_PARTITION);
        if a == NO_PARTITION || b == NO_PARTITION {
            return u32::MAX;
        }
        if a == b {
            return 0;
        }
        let corr = self.correlation(a, b);
        u32::MAX - corr.min(u32::MAX - 1)
    }

    /// Build statistics.
    pub fn stats(&self) -> &IndexBuildStats {
        &self.stats
    }

    /// Returns the same index with `stats.elapsed` replaced. Wall-clock
    /// build time is the only non-deterministic field that
    /// [`save`](Self::save) persists, so normalizing it (e.g. to zero)
    /// makes snapshots byte-comparable across runs and thread counts —
    /// the determinism contract of
    /// [`LocalIndexConfig::build_threads`].
    pub fn with_elapsed(mut self, elapsed: Duration) -> LocalIndex {
        self.stats.elapsed = elapsed;
        self
    }

    /// The fingerprint of the graph this index was built for. Engines
    /// reject prebuilt indexes whose fingerprint does not match their
    /// graph (see [`LscrEngine::set_local_index`](crate::LscrEngine::set_local_index)).
    pub fn graph_fingerprint(&self) -> GraphFingerprint {
        self.fingerprint
    }

    /// Incrementally repairs the index for an updated graph, returning a
    /// patched copy — or `None` when the batch is too large for repair to
    /// beat a rebuild (the caller then runs [`build`](Self::build)).
    ///
    /// `touched_sources` are the vertices whose *out*-adjacency changed
    /// (`UpdateSummary::touched_sources`). A landmark's local BFS only
    /// ever traverses out-edges of its own partition members, so the set
    /// of landmark entries a batch can invalidate is exactly
    /// `{AF(v) : v ∈ touched_sources}` — each such partition gets its
    /// `II`/`EIT`/`D` recomputed from scratch by the same
    /// `LocalFullIndex` routine a full build runs, confined to the
    /// *existing* partition shape. Vertices interned after the partition
    /// was computed stay unassigned (sound: INS expands them through
    /// ordinary frontier traversal) until a rebuild re-partitions.
    ///
    /// Repair gives bit-identical entries to a fresh build **over the
    /// same partition**; the fallback exists because the partition shape
    /// itself (assignment, balance, landmark choice) drifts from what a
    /// fresh build would pick, and repairing more than
    /// `staleness_budget · |I|` partitions costs more than rebuilding.
    ///
    /// The engine does not call it:
    /// [`LscrEngine::apply_update`](crate::LscrEngine::apply_update) drops
    /// the index, and the next INS query builds a fresh one.
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn patched(
        &self,
        g: &Graph,
        touched_sources: &[VertexId],
        staleness_budget: f64,
    ) -> Option<(LocalIndex, usize)> {
        let k = self.partition.num_landmarks();
        let mut partition = self.partition.clone();
        partition.extend_to(g.num_vertices());
        let mut touched: Vec<u32> = touched_sources
            .iter()
            .filter_map(|&v| self.partition.af_slice().get(v.index()).copied())
            .filter(|&a| a != NO_PARTITION)
            .collect();
        touched.sort_unstable();
        touched.dedup();
        if touched.len() as f64 > staleness_budget * k as f64 {
            return None;
        }
        // Untouched entries are shared with `self` (refcount bumps, no
        // deep copy): patching cost scales with the touched partitions,
        // not with the index size.
        let mut entries = self.entries.clone();
        let mut d = self.d.clone();
        for &ord in &touched {
            let (entry, row) = local_full_index(g, &partition, ord);
            entries[ord as usize] = Arc::new(entry);
            d[ord as usize] = row;
        }
        let ii_pairs = entries.iter().map(|e| e.num_ii()).sum();
        let eit_pairs = entries.iter().map(|e| e.num_eit()).sum();
        let bytes = entries.iter().map(|e| e.heap_bytes()).sum::<usize>()
            + partition.heap_bytes()
            + d.iter().map(|m| m.len() * 8 + 16).sum::<usize>();
        let stats = IndexBuildStats {
            elapsed: self.stats.elapsed,
            bytes,
            num_landmarks: k,
            ii_pairs,
            eit_pairs,
            assigned_vertices: partition.num_assigned(),
        };
        let repaired = touched.len();
        Some((LocalIndex { partition, entries, d, stats, fingerprint: g.fingerprint() }, repaired))
    }
}

/// Section order of a local-index artifact (snapshot format v1): meta,
/// partition, landmark entries, correlation rows. Tags 1–7 belong to the
/// graph artifact (see `kgreach_graph::snapshot`) and tag 15 to the
/// engine container's index-presence flag (see `engine/persist.rs`), so
/// older engine snapshots, which embed these sections after the flag, mix
/// all three tag families without ambiguity.
const TAG_INDEX_META: u16 = 16;
const TAG_INDEX_PARTITION: u16 = 17;
const TAG_INDEX_ENTRIES: u16 = 18;
const TAG_INDEX_D: u16 = 19;

impl LocalIndex {
    /// Writes the index sections of snapshot format v1 into an open
    /// container: the body of [`save`](Self::save).
    fn write_sections<W: Write>(&self, w: &mut SectionWriter<W>) -> kgreach_graph::Result<()> {
        let fp = self.fingerprint;
        let mut meta = PayloadBuf::with_capacity(80);
        meta.put_usize(fp.num_vertices);
        meta.put_usize(fp.num_edges);
        meta.put_usize(fp.num_labels);
        meta.put_u64(fp.edge_hash);
        meta.put_usize(self.partition.num_landmarks());
        meta.put_u64(self.stats.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
        meta.put_usize(self.stats.bytes);
        meta.put_usize(self.stats.ii_pairs);
        meta.put_usize(self.stats.eit_pairs);
        meta.put_usize(self.stats.assigned_vertices);
        w.section(TAG_INDEX_META, meta.as_slice())?;

        let af = self.partition.af_slice();
        let mut part = PayloadBuf::with_capacity(self.partition.num_landmarks() * 4 + af.len() * 4);
        for &u in self.partition.landmarks() {
            part.put_u32(u.0);
        }
        part.put_usize(af.len());
        for &a in af {
            part.put_u32(a);
        }
        w.section(TAG_INDEX_PARTITION, part.as_slice())?;

        let mut entries = PayloadBuf::new();
        for entry in &self.entries {
            entries.put_usize(entry.ii.len());
            for (v, cms) in &entry.ii {
                entries.put_u32(v.0);
                entries.put_u16(cms.len() as u16);
                for set in cms.iter() {
                    entries.put_u64(set.bits());
                }
            }
            entries.put_usize(entry.eit.len());
            for (set, vs) in entry.eit_pairs() {
                entries.put_u64(set.bits());
                entries.put_usize(vs.len());
                for v in vs {
                    entries.put_u32(v.0);
                }
            }
        }
        w.section(TAG_INDEX_ENTRIES, entries.as_slice())?;

        let mut d = PayloadBuf::new();
        for row in &self.d {
            // Hash-map iteration order is unspecified; sort so equal
            // indexes encode to identical bytes.
            let mut pairs: Vec<(u32, u32)> = row.iter().map(|(&k, &v)| (k, v)).collect();
            pairs.sort_unstable();
            d.put_usize(pairs.len());
            for (k, v) in pairs {
                d.put_u32(k);
                d.put_u32(v);
            }
        }
        w.section(TAG_INDEX_D, d.as_slice())
    }

    /// Reads the index sections of snapshot format v1 from an open
    /// container, revalidating every structural invariant the INS search
    /// relies on. Counterpart of [`write_sections`](Self::write_sections);
    /// an older engine snapshot embeds the same sections after its flag.
    pub(crate) fn read_sections(r: &mut SectionReader<'_>) -> kgreach_graph::Result<LocalIndex> {
        let mut meta = PayloadCursor::new(r.section(TAG_INDEX_META, "index-meta")?, "index-meta");
        let fingerprint = GraphFingerprint {
            num_vertices: meta.get_usize()?,
            num_edges: meta.get_usize()?,
            num_labels: meta.get_usize()?,
            edge_hash: meta.get_u64()?,
        };
        let num_landmarks = meta.get_usize()?;
        let stats = IndexBuildStats {
            elapsed: Duration::from_nanos(meta.get_u64()?),
            bytes: meta.get_usize()?,
            num_landmarks,
            ii_pairs: meta.get_usize()?,
            eit_pairs: meta.get_usize()?,
            assigned_vertices: meta.get_usize()?,
        };
        let num_vertices = fingerprint.num_vertices;
        let num_labels = fingerprint.num_labels;
        if num_vertices > u32::MAX as usize || num_labels > kgreach_graph::MAX_LABELS {
            return Err(meta.corrupt("fingerprint counts out of range"));
        }
        if num_landmarks > num_vertices {
            return Err(
                meta.corrupt(format!("{num_landmarks} landmarks exceed |V| = {num_vertices}"))
            );
        }
        meta.finish()?;
        let label_mask = LabelSet::all(num_labels).bits();

        let mut part = PayloadCursor::new(
            r.section(TAG_INDEX_PARTITION, "index-partition")?,
            "index-partition",
        );
        let mut landmarks = Vec::with_capacity(num_landmarks.min(1 << 20));
        for _ in 0..num_landmarks {
            let u = part.get_u32()?;
            if u as usize >= num_vertices {
                return Err(part.corrupt(format!("landmark id {u} out of range")));
            }
            landmarks.push(VertexId(u));
        }
        let af_len = part.get_usize()?;
        if af_len != num_vertices {
            return Err(part
                .corrupt(format!("AF array has {af_len} entries, expected |V| = {num_vertices}")));
        }
        let mut af = Vec::with_capacity(af_len.min(1 << 24));
        for i in 0..af_len {
            let a = part.get_u32()?;
            if a != NO_PARTITION && a as usize >= num_landmarks {
                return Err(part.corrupt(format!("AF[{i}] = {a} names no landmark")));
            }
            af.push(a);
        }
        for (ord, u) in landmarks.iter().enumerate() {
            if af[u.index()] != ord as u32 {
                return Err(
                    part.corrupt(format!("landmark {u} is not assigned to its own partition"))
                );
            }
        }
        let err = part.corrupt("duplicate landmark");
        part.finish()?;
        let partition = Partition::from_parts(landmarks, af).ok_or(err)?;

        let mut cur =
            PayloadCursor::new(r.section(TAG_INDEX_ENTRIES, "index-entries")?, "index-entries");
        let mut entries = Vec::with_capacity(num_landmarks.min(1 << 20));
        let (mut sets, mut exits) = (Vec::new(), Vec::new());
        for _ in 0..num_landmarks {
            let ii_len = cur.get_usize()?;
            let mut ii = Vec::with_capacity(ii_len.min(1 << 20));
            let mut prev: Option<VertexId> = None;
            for _ in 0..ii_len {
                let v = VertexId(cur.get_u32()?);
                if v.index() >= num_vertices {
                    return Err(cur.corrupt(format!("II vertex id {v} out of range")));
                }
                // ii_cms binary-searches this list — enforce the strictly
                // sorted order it needs.
                if prev.is_some_and(|p| p >= v) {
                    return Err(cur.corrupt("II pairs are not sorted by vertex"));
                }
                prev = Some(v);
                let num_sets = cur.get_u16()? as usize;
                sets.clear();
                for _ in 0..num_sets {
                    let bits = cur.get_u64()?;
                    if bits & !label_mask != 0 {
                        return Err(cur.corrupt("CMS label set uses labels outside 𝓛"));
                    }
                    sets.push(LabelSet::from_bits(bits));
                }
                let cms = Cms::from_canonical_sets(&sets)
                    .ok_or_else(|| cur.corrupt("stored CMS is not a canonical antichain"))?;
                ii.push((v, cms));
            }
            let eit_len = cur.get_usize()?;
            let mut entry = LandmarkEntry {
                ii,
                eit: Vec::with_capacity(eit_len.min(1 << 20)),
                exits: Vec::new(),
            };
            for _ in 0..eit_len {
                let bits = cur.get_u64()?;
                if bits & !label_mask != 0 {
                    return Err(cur.corrupt("EIT label set uses labels outside 𝓛"));
                }
                let num_vs = cur.get_usize()?;
                exits.clear();
                for _ in 0..num_vs {
                    let v = VertexId(cur.get_u32()?);
                    if v.index() >= num_vertices {
                        return Err(cur.corrupt(format!("EIT vertex id {v} out of range")));
                    }
                    exits.push(v);
                }
                entry.push_eit(LabelSet::from_bits(bits), &exits);
            }
            entry.exits.shrink_to_fit();
            entries.push(Arc::new(entry));
        }
        cur.finish()?;

        let mut cur = PayloadCursor::new(r.section(TAG_INDEX_D, "index-d")?, "index-d");
        let mut d: Vec<FxHashMap<u32, u32>> = Vec::with_capacity(num_landmarks.min(1 << 20));
        for _ in 0..num_landmarks {
            let len = cur.get_usize()?;
            let mut row = FxHashMap::default();
            for _ in 0..len {
                let k = cur.get_u32()?;
                let v = cur.get_u32()?;
                if k != NO_PARTITION && k as usize >= num_landmarks {
                    return Err(cur.corrupt(format!("D row references partition {k}")));
                }
                if row.insert(k, v).is_some() {
                    return Err(cur.corrupt(format!("D row repeats partition {k}")));
                }
            }
            d.push(row);
        }
        cur.finish()?;

        // The persisted pair totals double as an integrity check over the
        // decoded entries.
        let ii_pairs: usize = entries.iter().map(|e| e.num_ii()).sum();
        let eit_pairs: usize = entries.iter().map(|e| e.num_eit()).sum();
        if ii_pairs != stats.ii_pairs || eit_pairs != stats.eit_pairs {
            return Err(kgreach_graph::GraphError::SnapshotCorrupt {
                section: "index-entries",
                message: format!(
                    "entry totals ({ii_pairs} II, {eit_pairs} EIT) disagree with meta \
                     ({} II, {} EIT)",
                    stats.ii_pairs, stats.eit_pairs
                ),
            });
        }
        Ok(LocalIndex { partition, entries, d, stats, fingerprint })
    }

    /// Writes a complete local-index snapshot (header + sections + end
    /// marker), the persistent form of an Algorithm 3 build; an engine
    /// snapshot holds no index. The embedded [`GraphFingerprint`] travels
    /// with the index;
    /// [`LscrEngine::set_local_index`](crate::LscrEngine::set_local_index)
    /// rejects a loaded index whose fingerprint does not match the
    /// engine's graph.
    pub fn save<W: Write>(&self, writer: W) -> kgreach_graph::Result<()> {
        let mut w = SectionWriter::new(BufWriter::new(writer), ArtifactKind::LocalIndex)?;
        self.write_sections(&mut w)?;
        w.finish()?;
        Ok(())
    }

    /// Reads a complete local-index snapshot written by
    /// [`save`](Self::save) from memory.
    pub fn load(bytes: &[u8]) -> kgreach_graph::Result<LocalIndex> {
        let mut r = SectionReader::new(bytes)?;
        r.expect_kind(ArtifactKind::LocalIndex)?;
        let index = Self::read_sections(&mut r)?;
        r.end()?;
        Ok(index)
    }

    /// Saves a local-index snapshot to a file path, atomically
    /// ([`fsio::install`]).
    ///
    /// Kept only for `crates/kgbench/src/api.rs`; ROADMAP item 1(c) deletes it.
    pub fn save_file(&self, path: impl AsRef<Path>) -> kgreach_graph::Result<()> {
        fsio::install(path.as_ref(), |file| self.save(file)).map(drop)
    }

    /// Loads a local-index snapshot from a file path: one bulk read, then
    /// [`load`](Self::load) over the buffer.
    pub fn load_file(path: impl AsRef<Path>) -> kgreach_graph::Result<LocalIndex> {
        Self::load(&std::fs::read(path)?)
    }
}

/// `LocalFullIndex(u)` (Algorithm 3, lines 5-15): CMS BFS confined to the
/// landmark's partition, producing its `II`/`EIT` entry and `D` row.
fn local_full_index(
    g: &Graph,
    partition: &Partition,
    ord: u32,
) -> (LandmarkEntry, FxHashMap<u32, u32>) {
    let u = partition.landmark(ord);
    let mut ii: FxHashMap<VertexId, Cms> = FxHashMap::default();
    let mut ei: FxHashMap<VertexId, Cms> = FxHashMap::default();
    let mut queue: VecDeque<(VertexId, LabelSet)> = VecDeque::new();
    queue.push_back((u, LabelSet::EMPTY));

    while let Some((v, l)) = queue.pop_front() {
        // Insert(v, L, II[u]): the landmark's own (u, ∅) pair is "fresh"
        // without being stored (Algorithm 3 line 17).
        let fresh = if v == u && l.is_empty() { true } else { ii.entry(v).or_default().insert(l) };
        if !fresh {
            continue;
        }
        // Expand by label runs: all edges of a run share a label, so the
        // path label set `L(p) ∪ {l}` is computed once per run instead of
        // once per edge.
        for (label, run) in g.label_runs(Dir::Out, v) {
            let l2 = l.with(label);
            for e in run {
                let w = e.vertex;
                if partition.af(w) == Some(ord) {
                    queue.push_back((w, l2));
                } else {
                    ei.entry(w).or_default().insert(l2);
                }
            }
        }
    }

    // Line 15: derive EIT[u] and D[u] from EI[u].
    let mut eit: FxHashMap<LabelSet, Vec<VertexId>> = FxHashMap::default();
    let mut d: FxHashMap<u32, u32> = FxHashMap::default();
    for (&w, cms) in &ei {
        for l in cms.iter() {
            eit.entry(l).or_default().push(w);
        }
        if let Some(b) = partition.af(w) {
            *d.entry(b).or_insert(0) += 1;
        }
    }

    let mut ii_vec: Vec<(VertexId, Cms)> = ii.into_iter().collect();
    ii_vec.sort_unstable_by_key(|(v, _)| *v);
    let mut eit_vec: Vec<(LabelSet, Vec<VertexId>)> = eit.into_iter().collect();
    eit_vec.sort_unstable_by_key(|(l, _)| l.bits());
    let mut entry = LandmarkEntry {
        ii: ii_vec,
        eit: Vec::with_capacity(eit_vec.len()),
        exits: Vec::with_capacity(eit_vec.iter().map(|(_, vs)| vs.len()).sum()),
    };
    for (l, mut vs) in eit_vec {
        vs.sort_unstable();
        entry.push_eit(l, &vs);
    }
    (entry, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3;
    use kgreach_graph::GraphBuilder;

    /// Index with every vertex of figure3 reachable from v0.
    fn index_from(g: &Graph, landmarks: &[&str]) -> LocalIndex {
        let ids: Vec<VertexId> = landmarks.iter().map(|n| g.vertex_id(n).unwrap()).collect();
        let partition = partition_graph(g, ids);
        let mut entries = Vec::new();
        let mut d = Vec::new();
        for ord in 0..partition.num_landmarks() as u32 {
            let (e, row) = local_full_index(g, &partition, ord);
            entries.push(Arc::new(e));
            d.push(row);
        }
        let stats = IndexBuildStats {
            elapsed: Duration::ZERO,
            bytes: 0,
            num_landmarks: partition.num_landmarks(),
            ii_pairs: entries.iter().map(|e| e.num_ii()).sum(),
            eit_pairs: entries.iter().map(|e| e.num_eit()).sum(),
            assigned_vertices: partition.num_assigned(),
        };
        LocalIndex { partition, entries, d, stats, fingerprint: g.fingerprint() }
    }

    #[test]
    fn single_landmark_covers_reachable_region() {
        let g = figure3();
        let idx = index_from(&g, &["v0"]);
        let entry = idx.entry(0);
        // v0 reaches v1..v4; II holds a CMS for each.
        assert_eq!(entry.num_ii(), 4);
        // M(v0, v3 | F(v0)) = {{friendOf}} — the paper's Definition 5.1
        // worked example (F(v0) is the whole reachable region here).
        let v3 = g.vertex_id("v3").unwrap();
        let cms = entry.ii_cms(v3).unwrap();
        let friend = g.label_set(&["friendOf"]);
        assert!(cms.covers(friend));
        assert_eq!(cms.len(), 1);
        // M(v0, v4): the paper's three minimal sets.
        let v4 = g.vertex_id("v4").unwrap();
        let cms = entry.ii_cms(v4).unwrap();
        assert_eq!(cms.len(), 3);
        assert!(cms.covers(g.label_set(&["friendOf", "likes"])));
        assert!(cms.covers(g.label_set(&["advisorOf", "follows"])));
        assert!(cms.covers(g.label_set(&["likes", "follows"])));
        assert!(!cms.covers(g.label_set(&["likes"])));
    }

    #[test]
    fn check_implements_theorem_5_1() {
        let g = figure3();
        let idx = index_from(&g, &["v0"]);
        let entry = idx.entry(0);
        let v4 = g.vertex_id("v4").unwrap();
        assert!(entry.check(v4, g.label_set(&["likes", "follows"])));
        assert!(!entry.check(v4, g.label_set(&["likes", "hates"])));
        // Unknown vertex: v0 itself is not in II (no cycle back).
        let v0 = g.vertex_id("v0").unwrap();
        assert!(!entry.check(v0, g.all_labels()));
    }

    #[test]
    fn two_partitions_with_exit_edges() {
        // lm0's region exits into lm1's region.
        let mut b = GraphBuilder::new();
        b.add_triple("lm0", "a", "x");
        b.add_triple("x", "b", "lm1"); // exit edge from F(lm0) to lm1
        b.add_triple("lm1", "c", "y");
        let g = b.build().unwrap();
        let idx = index_from(&g, &["lm0", "lm1"]);
        let e0 = idx.entry(0);
        // EIT[lm0] holds the exit label set {a, b} → [lm1].
        let ab = g.label_set(&["a", "b"]);
        let pairs: Vec<_> = e0.eit_pairs().collect();
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].0, ab);
        assert_eq!(pairs[0].1, &[g.vertex_id("lm1").unwrap()]);
        // D(0, 1) counts that exit entry; correlation is symmetric in
        // spirit but directional in value.
        assert_eq!(idx.correlation(0, 1), 1);
        assert_eq!(idx.correlation(1, 0), 0);
        assert_eq!(idx.correlation(0, 0), u32::MAX);
        // rho: same partition 0; cross partition smaller with higher D.
        let lm0 = g.vertex_id("lm0").unwrap();
        let lm1 = g.vertex_id("lm1").unwrap();
        let y = g.vertex_id("y").unwrap();
        assert_eq!(idx.rho(lm0, lm0), 0);
        assert!(idx.rho(lm0, lm1) < u32::MAX);
        assert!(idx.rho(lm0, y) < idx.rho(y, lm0).max(1)); // 1→0 has D=0
    }

    #[test]
    fn cycles_terminate_and_index_self() {
        let mut b = GraphBuilder::new();
        b.add_triple("u", "p", "a");
        b.add_triple("a", "q", "u"); // cycle back to the landmark
        let g = b.build().unwrap();
        let idx = index_from(&g, &["u"]);
        let entry = idx.entry(0);
        // The landmark reappears in II with the cycle's label set.
        let u = g.vertex_id("u").unwrap();
        let cms = entry.ii_cms(u).unwrap();
        assert!(cms.covers(g.label_set(&["p", "q"])));
    }

    #[test]
    fn multigraph_minimality() {
        // Two parallel routes with different labels; a shortcut label set
        // must evict the longer one... and incomparable sets coexist.
        let mut b = GraphBuilder::new();
        b.add_triple("u", "long1", "m");
        b.add_triple("m", "long2", "t");
        b.add_triple("u", "short", "t");
        let g = b.build().unwrap();
        let idx = index_from(&g, &["u"]);
        let t = g.vertex_id("t").unwrap();
        let cms = idx.entry(0).ii_cms(t).unwrap();
        assert_eq!(cms.len(), 2); // {short} and {long1, long2}
        assert!(cms.covers(g.label_set(&["short"])));
        assert!(cms.covers(g.label_set(&["long1", "long2"])));
    }

    #[test]
    fn build_full_pipeline() {
        let g = figure3();
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(2), seed: 42, ..Default::default() },
        );
        assert_eq!(idx.stats().num_landmarks, 2);
        assert!(idx.stats().bytes > 0);
        assert!(idx.stats().assigned_vertices >= 2);
        assert_eq!(idx.partition().num_landmarks(), 2);
        // entry_of answers for landmarks only.
        let lm = idx.partition().landmarks()[0];
        assert!(idx.entry_of(lm).is_some());
        let non_lm = g.vertices().find(|v| !idx.partition().is_landmark(*v)).unwrap();
        assert!(idx.entry_of(non_lm).is_none());
    }

    #[test]
    fn snapshot_roundtrip_is_identity() {
        let g = figure3();
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(2), seed: 42, ..Default::default() },
        );
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        let loaded = LocalIndex::load(&bytes[..]).unwrap();
        assert_eq!(loaded.graph_fingerprint(), idx.graph_fingerprint());
        assert_eq!(loaded.partition().landmarks(), idx.partition().landmarks());
        assert_eq!(loaded.partition().num_assigned(), idx.partition().num_assigned());
        assert_eq!(loaded.stats().ii_pairs, idx.stats().ii_pairs);
        assert_eq!(loaded.stats().eit_pairs, idx.stats().eit_pairs);
        assert_eq!(loaded.stats().elapsed, idx.stats().elapsed);
        for ord in 0..idx.partition().num_landmarks() as u32 {
            let (a, b) = (idx.entry(ord), loaded.entry(ord));
            let a_ii: Vec<_> = a.ii_pairs().map(|(v, c)| (v, c.clone())).collect();
            let b_ii: Vec<_> = b.ii_pairs().map(|(v, c)| (v, c.clone())).collect();
            assert_eq!(a_ii, b_ii);
            let a_eit: Vec<_> = a.eit_pairs().collect();
            let b_eit: Vec<_> = b.eit_pairs().collect();
            assert_eq!(a_eit, b_eit);
        }
        for a in 0..2 {
            for b in 0..2 {
                assert_eq!(loaded.correlation(a, b), idx.correlation(a, b));
            }
        }
        // Serialization is canonical: saving the loaded index reproduces
        // the same bytes.
        let mut again = Vec::new();
        loaded.save(&mut again).unwrap();
        assert_eq!(again, bytes);
    }

    #[test]
    fn snapshot_corruption_is_typed() {
        use kgreach_graph::GraphError;
        let g = figure3();
        let idx = LocalIndex::build(
            &g,
            &LocalIndexConfig { num_landmarks: Some(2), seed: 42, ..Default::default() },
        );
        let mut bytes = Vec::new();
        idx.save(&mut bytes).unwrap();
        // Every single-byte flip past the header is rejected, never a panic.
        for i in 12..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(LocalIndex::load(&mutated[..]).is_err(), "flip at byte {i} undetected");
        }
        // Every truncation is rejected.
        for len in 0..bytes.len() {
            assert!(LocalIndex::load(&bytes[..len]).is_err(), "truncation to {len} undetected");
        }
        // So is anything after the end marker: a stray byte, a second index.
        for tail in [&[0u8][..], &bytes[..]] {
            assert!(matches!(
                LocalIndex::load(&[&bytes[..], tail].concat()),
                Err(GraphError::SnapshotCorrupt { section: "end", .. })
            ));
        }
        // A graph snapshot is not an index snapshot.
        let mut graph_bytes = Vec::new();
        kgreach_graph::snapshot::write_graph_snapshot(&g, &mut graph_bytes).unwrap();
        assert!(matches!(LocalIndex::load(&graph_bytes[..]), Err(GraphError::SnapshotKind { .. })));
    }

    #[test]
    fn threaded_build_is_deterministic() {
        // The same landmarks built with 1, 2, 3 and 8 workers must
        // produce byte-identical snapshots (after normalizing the only
        // wall-clock field) and identical build statistics.
        let g = figure3();
        let config = LocalIndexConfig { num_landmarks: Some(3), seed: 7, ..Default::default() };
        let reference = LocalIndex::build(&g, &config).with_elapsed(Duration::ZERO);
        let mut reference_bytes = Vec::new();
        reference.save(&mut reference_bytes).unwrap();
        for threads in [0, 1, 2, 3, 8] {
            let idx = LocalIndex::build(&g, &LocalIndexConfig { build_threads: threads, ..config })
                .with_elapsed(Duration::ZERO);
            let mut bytes = Vec::new();
            idx.save(&mut bytes).unwrap();
            assert_eq!(bytes, reference_bytes, "{threads}-thread build diverged");
            assert_eq!(idx.stats().bytes, reference.stats().bytes);
            assert_eq!(idx.stats().num_landmarks, reference.stats().num_landmarks);
            assert_eq!(idx.stats().ii_pairs, reference.stats().ii_pairs);
            assert_eq!(idx.stats().eit_pairs, reference.stats().eit_pairs);
            assert_eq!(idx.stats().assigned_vertices, reference.stats().assigned_vertices);
        }
    }

    #[test]
    fn build_deterministic_under_seed() {
        let g = figure3();
        let c = LocalIndexConfig { num_landmarks: Some(3), seed: 9, ..Default::default() };
        let a = LocalIndex::build(&g, &c);
        let b = LocalIndex::build(&g, &c);
        assert_eq!(a.partition().landmarks(), b.partition().landmarks());
        assert_eq!(a.stats().ii_pairs, b.stats().ii_pairs);
    }

    #[test]
    fn ii_consistency_against_brute_force() {
        // Theorem 5.2: II entries must match CMS computed by exhaustive
        // path enumeration restricted to the partition.
        let g = figure3();
        let idx = index_from(&g, &["v0"]);
        let entry = idx.entry(0);
        // Brute force: enumerate all simple-ish paths (bounded length) from
        // v0 and collect minimal label sets per target.
        let v0 = g.vertex_id("v0").unwrap();
        let mut brute: FxHashMap<VertexId, Cms> = FxHashMap::default();
        let mut stack = vec![(v0, LabelSet::EMPTY, 0usize)];
        while let Some((v, l, depth)) = stack.pop() {
            if depth > 6 {
                continue;
            }
            for e in g.out_neighbors(v) {
                let l2 = l.with(e.label);
                brute.entry(e.vertex).or_default().insert(l2);
                stack.push((e.vertex, l2, depth + 1));
            }
        }
        for (v, cms) in &brute {
            let indexed = entry.ii_cms(*v).unwrap();
            // Same coverage for every subset isn't cheap to test fully;
            // antichains being equal is.
            let a: Vec<LabelSet> = indexed.iter().collect();
            let b: Vec<LabelSet> = cms.iter().collect();
            assert_eq!(a, b, "CMS mismatch at {}", g.vertex_name(*v));
        }
    }
}
