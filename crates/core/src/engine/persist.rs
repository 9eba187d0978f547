//! Engine snapshots: saving the served graph, restoring an engine from
//! one, and hot-swapping a running engine's state to one.

use super::{EngineState, LscrEngine};
use crate::local_index::LocalIndex;
use crate::query::QueryError;
use kgreach_graph::fsio;
use kgreach_graph::snapshot::{
    self, ArtifactKind, PayloadBuf, PayloadCursor, SectionReader, SectionWriter,
};
use kgreach_sync::{Arc, PoisonError};
use std::io::{BufWriter, Write};
use std::path::Path;

/// Tag of the engine snapshot's index-presence section, after the graph
/// sections (1–7). Written as `0`; an older file's `1` is followed by the
/// index sections (16–19).
const TAG_ENGINE_HAS_INDEX: u16 = 15;

impl LscrEngine {
    /// Writes an engine snapshot: the graph and nothing derived from it.
    /// Restoring with [`from_snapshot`](Self::from_snapshot) rebuilds no
    /// adjacency, which is the cold-start path for serving processes (see
    /// the `cold_start` bench: snapshot load vs text parse).
    ///
    /// The local index and the constraint plans are not persisted: no
    /// served query reads the index (`Auto` is UIS), and a forced INS
    /// query builds it for the graph it pins.
    pub fn save_snapshot<W: Write>(&self, writer: W) -> Result<(), QueryError> {
        let graph = self.graph();
        let mut w = SectionWriter::new(BufWriter::new(writer), ArtifactKind::Engine)?;
        // A live graph is compacted on the fly by the encoder.
        snapshot::write_graph_sections(&graph, &mut w)?;
        let mut flag = PayloadBuf::new();
        flag.put_u8(0);
        w.section(TAG_ENGINE_HAS_INDEX, flag.as_slice())?;
        w.finish().map_err(QueryError::from)?;
        Ok(())
    }

    /// Restores an engine written by [`save_snapshot`](Self::save_snapshot),
    /// without rebuilding the graph. The restored engine has no index, and
    /// uses the default [`LocalIndexConfig`](crate::LocalIndexConfig) when
    /// a forced INS query builds one. An older file that embeds an index is
    /// still read: its index sections are decoded, so the checksum chain
    /// is verified to the end marker, and then dropped.
    pub fn from_snapshot(bytes: &[u8]) -> Result<LscrEngine, QueryError> {
        let mut r = SectionReader::new(bytes)?;
        r.expect_kind(ArtifactKind::Engine)?;
        let graph = snapshot::read_graph_sections(&mut r)?;
        let mut flag = PayloadCursor::new(
            r.section(TAG_ENGINE_HAS_INDEX, "engine-index-flag")?,
            "engine-index-flag",
        );
        match flag.get_u8()? {
            0 => {}
            1 => drop(LocalIndex::read_sections(&mut r)?),
            byte => return Err(flag.corrupt(format!("index flag byte is {byte}")).into()),
        }
        flag.finish()?;
        r.end()?;
        Ok(LscrEngine::new(graph))
    }

    /// Hot-swaps the engine's served state with the graph from an engine
    /// snapshot, without interrupting service: queries running
    /// concurrently finish against the old state, queries started after
    /// this returns see the new one — the same atomic-swap discipline as
    /// [`apply_update`](Self::apply_update). The new state starts with no
    /// index and no plans, as after an update.
    ///
    /// On any error (a corrupt snapshot) the engine is left serving its
    /// current state untouched. The reloaded graph starts a
    /// [`lineage`](crate::Graph::lineage) of its own, since its ids may
    /// name other vertices: no cache bound to the old graph — compiled
    /// plans with their `SCck` and `V(S,G)` memos — is read against it,
    /// and a compiled query a caller held from before is refused with
    /// [`QueryError::IdSpaceMismatch`] (or, when its ids do not fit the
    /// new graph, [`QueryError::Graph`]). Its content epoch is advanced
    /// strictly past the replaced graph's
    /// ([`Graph::advance_epoch_to`](crate::Graph::advance_epoch_to)), so
    /// the engine's epoch only grows.
    ///
    /// Returns the fresh content epoch. On a durable engine, reload
    /// through [`DurableEngine::reload_from_snapshot`](crate::DurableEngine::reload_from_snapshot)
    /// instead, or a restart recovers the replaced state.
    pub fn reload_from_snapshot(&self, bytes: &[u8]) -> Result<u64, QueryError> {
        // Decode fully before taking any lock: a corrupt snapshot must
        // not stall or damage serving.
        Ok(self.install(LscrEngine::from_snapshot(bytes)?))
    }

    /// Swaps in the graph of `staged`, an engine decoded from a snapshot,
    /// as [`reload_from_snapshot`](Self::reload_from_snapshot) describes.
    /// Returns the fresh content epoch.
    pub(crate) fn install(&self, staged: LscrEngine) -> u64 {
        let _updates = self.writer();
        let mut graph = staged.state.into_inner().unwrap_or_else(PoisonError::into_inner).graph;
        let g = Arc::make_mut(&mut graph);
        g.advance_epoch_to(self.graph_epoch() + 1);
        let epoch = g.epoch();
        self.swap_state(EngineState::new(graph));
        epoch
    }

    /// Saves an engine snapshot to a file path through [`fsio::install`]:
    /// the file is written under a temp name, fsynced and renamed over
    /// `path`, so a reader of `path` sees the old snapshot or the new one,
    /// whole.
    pub fn save_snapshot_file(&self, path: impl AsRef<Path>) -> Result<(), QueryError> {
        fsio::install(path.as_ref(), |file| self.save_snapshot(file)).map(drop)
    }

    /// Restores an engine snapshot from a file path: one bulk read, then
    /// [`from_snapshot`](Self::from_snapshot) over the buffer.
    pub fn from_snapshot_file(path: impl AsRef<Path>) -> Result<LscrEngine, QueryError> {
        let bytes = std::fs::read(path).map_err(kgreach_graph::GraphError::from)?;
        Self::from_snapshot(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{all_labels_query, answer, figure3};
    use crate::local_index::LocalIndexConfig;
    use crate::query::LscrQuery;
    use crate::{Algorithm, SubstructureConstraint};

    #[test]
    fn engine_snapshot_roundtrip() {
        let engine = LscrEngine::with_index_config(
            figure3(),
            LocalIndexConfig { num_landmarks: Some(2), seed: 4, ..Default::default() },
        );
        let q = all_labels_query(&engine.graph(), "v0", "v4");

        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        let restored = LscrEngine::from_snapshot(&bytes[..]).unwrap();
        assert!(restored.local_index_if_built().is_none());
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(answer(&restored, &q, Algorithm::Uis).unwrap().answer);

        // A built index changes no byte, and a forced INS on the restored
        // engine builds its own.
        let _ = engine.local_index();
        let mut indexed = Vec::new();
        engine.save_snapshot(&mut indexed).unwrap();
        assert_eq!(indexed, bytes, "the snapshot holds the graph alone");
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert_eq!(
                answer(&restored, &q, alg).unwrap().answer,
                answer(&engine, &q, alg).unwrap().answer,
                "{alg} disagrees after snapshot restore"
            );
        }
        let idx = restored.local_index_if_built().expect("the forced INS built the index");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
    }

    #[test]
    fn engine_snapshot_file_roundtrip() {
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let dir = std::env::temp_dir().join("kgreach_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.kgsnap");
        engine.save_snapshot_file(&path).unwrap();
        let restored = LscrEngine::from_snapshot_file(&path).unwrap();
        assert_eq!(restored.graph().fingerprint(), engine.graph().fingerprint());
        assert!(restored.local_index_if_built().is_none());
        std::fs::remove_file(&path).ok();
        // Missing file surfaces as a typed graph/io error.
        assert!(matches!(
            LscrEngine::from_snapshot_file(dir.join("missing.kgsnap")),
            Err(QueryError::Graph(kgreach_graph::GraphError::Io(_)))
        ));
    }

    #[test]
    fn reload_from_snapshot_swaps_state_and_advances_epoch() {
        // Serving engine: figure3 with an index and a cached plan.
        let engine = LscrEngine::new(figure3());
        let _ = engine.local_index();
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        assert!(answer(&engine, &q, Algorithm::Ins).unwrap().answer);
        assert_eq!(engine.cached_plans(), 1);

        // Replacement snapshot: a different graph entirely.
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("a", "likes", "b");
        b.add_triple("b", "likes", "c");
        let other = LscrEngine::new(b.build().unwrap());
        let _ = other.local_index();
        let mut bytes = Vec::new();
        other.save_snapshot(&mut bytes).unwrap();

        let epoch = engine.reload_from_snapshot(&bytes[..]).unwrap();
        assert_eq!(epoch, 1, "reload must advance past the replaced epoch 0");
        assert_eq!(engine.graph_epoch(), 1);
        assert_eq!(engine.cached_plans(), 0, "plan cache invalidated on reload");
        assert_eq!(engine.graph().fingerprint(), other.graph().fingerprint());
        assert!(engine.local_index_if_built().is_none(), "a reload starts with no index");

        // Answers now follow the new content for every algorithm (the
        // constraint is re-resolved against the new graph: b satisfies
        // it and sits on the a → c path).
        let g = engine.graph();
        let q2 = LscrQuery::new(
            g.vertex_id("a").unwrap(),
            g.vertex_id("c").unwrap(),
            g.all_labels(),
            SubstructureConstraint::parse("SELECT ?x WHERE { ?x <likes> <c> . }").unwrap(),
        );
        for alg in [Algorithm::Uis, Algorithm::UisStar, Algorithm::Ins, Algorithm::Auto] {
            assert!(answer(&engine, &q2, alg).unwrap().answer, "{alg} after reload");
        }
        let idx = engine.local_index_if_built().expect("the forced INS built the index");
        assert_eq!(idx.graph_fingerprint(), engine.graph().fingerprint());
    }

    #[test]
    fn failed_reload_leaves_engine_serving() {
        let engine = LscrEngine::new(figure3());
        let q = all_labels_query(&engine.graph(), "v0", "v4");
        let fp = engine.graph().fingerprint();
        // Not a snapshot at all.
        assert!(engine.reload_from_snapshot(&b"garbage"[..]).is_err());
        // Truncated snapshot.
        let mut bytes = Vec::new();
        engine.save_snapshot(&mut bytes).unwrap();
        bytes.truncate(bytes.len() / 2);
        assert!(engine.reload_from_snapshot(&bytes[..]).is_err());
        assert_eq!(engine.graph().fingerprint(), fp, "state untouched on failed reload");
        assert_eq!(engine.graph_epoch(), 0);
        assert!(answer(&engine, &q, Algorithm::Uis).unwrap().answer);
    }
}
