//! Durability around [`LscrEngine`]: write-ahead logging, checkpointing
//! and crash recovery.
//!
//! A [`DurableEngine`] pairs a live engine with a data directory holding
//! exactly two kinds of artifact:
//!
//! ```text
//! <data-dir>/checkpoint-<seq>.kgsnap   engine snapshot covering log seq ≤ <seq>
//! <data-dir>/wal.log                   update records seq > the checkpoint's
//! ```
//!
//! Every content-changing [`UpdateBatch`] is appended to the write-ahead
//! log (`kgreach_graph::wal`) after it is applied to a private copy of
//! the graph and before that copy is served, all **before**
//! [`DurableEngine::apply_update`] returns — callers that acknowledge
//! after that return therefore never acknowledge an update a restart can
//! lose (modulo the chosen [`FsyncPolicy`]'s power-failure window), and
//! no query reads an update the log refused. When
//! the log outgrows [`WalConfig::checkpoint_bytes`], a checkpoint rolls
//! the engine state into a fresh snapshot and rotates the log. A hot
//! reload ([`DurableEngine::reload_from_snapshot`]) is a checkpoint too:
//! the reloaded state is written as the checkpoint before it is served.
//!
//! Recovery is two-phase so a server can bind its socket early and gate
//! readiness: [`DurableEngine::recover`] loads the newest checkpoint
//! (cheap, bounded by snapshot size) and yields a [`DurableRecovery`]
//! whose engine serves the *checkpoint* state; calling
//! [`DurableRecovery::replay`] then re-applies the log — truncating a
//! torn tail, skipping records the checkpoint already covers (replay
//! idempotence via sequence numbers), and surfacing mid-log corruption
//! as the typed [`GraphError::WalCorrupt`] — and promotes the pair into
//! a ready [`DurableEngine`].
//!
//! Crash windows are closed by ordering, not luck: a checkpoint is
//! installed whole (`kgreach_graph::fsio::install`: a temp file, fsynced,
//! renamed, and the directory fsynced) *before* the log rotates, so the
//! newest checkpoint on disk always covers at least the rotated log's base
//! sequence; a crash between the two leaves the old log in place, and
//! replay's sequence-number skip makes re-applying its prefix a no-op. A
//! crash mid-install can leave a `*.tmp` file; recovery removes it.

use crate::engine::{LscrEngine, UpdateOutcome};
use crate::query::QueryError;
use kgreach_graph::wal::{FsyncPolicy, Wal, WalReplay};
use kgreach_graph::{GraphError, UpdateBatch};
use kgreach_sync::{Arc, Mutex, MutexGuard};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// File name of the active write-ahead log inside a data directory.
pub const WAL_FILE: &str = "wal.log";

/// Durability configuration for [`DurableEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalConfig {
    /// When appended records reach the disk platter (see
    /// [`FsyncPolicy`]); governs what a *power* failure can lose —
    /// process crashes lose nothing acknowledged under any policy.
    pub fsync: FsyncPolicy,
    /// Roll a checkpoint and rotate the log once `wal.log` exceeds this
    /// many bytes. Bounds both recovery replay time and disk footprint.
    pub checkpoint_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> Self {
        WalConfig { fsync: FsyncPolicy::Always, checkpoint_bytes: 64 << 20 }
    }
}

/// What [`DurableRecovery::replay`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number covered by the checkpoint that seeded the engine.
    pub checkpoint_seq: u64,
    /// Records re-applied from the log.
    pub replayed: u64,
    /// Records skipped because the checkpoint already covered their
    /// sequence number (the idempotence path).
    pub skipped: u64,
    /// Torn-tail bytes truncated off the log.
    pub truncated_bytes: u64,
    /// Wall-clock recovery time (checkpoint load + replay).
    pub elapsed: Duration,
}

/// What one checkpoint did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Sequence number the new checkpoint covers.
    pub seq: u64,
    /// Bytes of log retired by the rotation.
    pub retired_wal_bytes: u64,
    /// Wall-clock time to write the snapshot and rotate the log.
    pub elapsed: Duration,
}

/// Receipt for one durably applied update batch.
#[derive(Debug)]
pub struct DurableOutcome {
    /// The engine's in-memory outcome (summary, epoch, compaction).
    pub outcome: UpdateOutcome,
    /// Log sequence number assigned to the batch — `None` for an
    /// all-no-op batch, which changes nothing and is not logged.
    pub seq: Option<u64>,
    /// Whether the record had been fsynced when this call returned, i.e.
    /// whether the acknowledgement is durable against power loss (always
    /// `true` for unlogged no-op batches; see [`FsyncPolicy`]).
    pub durable: bool,
}

/// Counters and gauges describing the durability subsystem, snapshotted
/// under the internal lock (consistent with each other).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurableStats {
    /// Sequence number of the last applied-and-logged update.
    pub last_seq: u64,
    /// Sequence number covered by the current checkpoint.
    pub checkpoint_seq: u64,
    /// Current size of `wal.log` in bytes (header included).
    pub wal_bytes: u64,
    /// Records appended since this process opened the log.
    pub wal_appends: u64,
    /// Fsyncs issued on the log since this process opened it.
    pub wal_fsyncs: u64,
    /// Checkpoints rolled since this process opened the directory.
    pub checkpoints: u64,
    /// Duration of the most recent checkpoint, in nanoseconds (0 before
    /// the first).
    pub last_checkpoint_nanos: u64,
    /// Records replayed by recovery at startup.
    pub recovery_replayed: u64,
    /// Torn-tail bytes truncated by recovery at startup.
    pub recovery_truncated_bytes: u64,
    /// Wall-clock recovery duration at startup, in nanoseconds.
    pub recovery_nanos: u64,
}

struct DurableState {
    wal: Wal,
    /// Sequence number of the last update applied to the engine — always
    /// equal to `wal.last_seq()` outside this module's critical sections.
    applied_seq: u64,
    checkpoint_seq: u64,
    checkpoints: u64,
    last_checkpoint_nanos: u64,
    recovery: RecoveryReport,
}

/// Phase 1 of recovery: the checkpoint is loaded, the log is not yet
/// replayed. See [`DurableEngine::recover`].
pub struct DurableRecovery {
    engine: Arc<LscrEngine>,
    dir: PathBuf,
    config: WalConfig,
    checkpoint_seq: u64,
    started: Instant,
}

impl DurableRecovery {
    /// The engine, currently serving the checkpoint state. Callers may
    /// bind sockets and answer *introspection* traffic against it, but
    /// must gate data traffic until [`replay`](Self::replay) returns —
    /// acknowledged updates newer than the checkpoint are still only in
    /// the log.
    pub fn engine(&self) -> Arc<LscrEngine> {
        Arc::clone(&self.engine)
    }

    /// Sequence number covered by the checkpoint that seeded the engine.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Phase 2: replays the log over the checkpoint (truncating a torn
    /// tail on disk, skipping already-covered sequence numbers) and
    /// returns the ready engine. Mid-log corruption and sequence gaps
    /// are typed errors; nothing is half-applied on failure — the caller
    /// should refuse to serve rather than serve a prefix.
    pub fn replay(self) -> Result<(DurableEngine, RecoveryReport), QueryError> {
        let wal_path = self.dir.join(WAL_FILE);
        let (wal, replay) = if wal_path.exists() {
            Wal::open(&wal_path, self.config.fsync)?
        } else {
            // Only an init crash (or operator deletion) leaves no log;
            // root a fresh one at the checkpoint. `Wal::create` installs
            // it whole, so a crash here can't leave a torn header at the
            // log's path (which would need operator surgery).
            let wal = Wal::create(&wal_path, self.checkpoint_seq, self.config.fsync)?;
            (wal, WalReplay { base_seq: self.checkpoint_seq, ..WalReplay::default() })
        };
        let mut applied_seq = self.checkpoint_seq;
        let mut replayed = 0u64;
        let mut skipped = 0u64;
        for (seq, batch) in &replay.records {
            if *seq <= self.checkpoint_seq {
                skipped += 1;
                continue;
            }
            if *seq != applied_seq + 1 {
                return Err(GraphError::WalCorrupt {
                    offset: 0,
                    message: format!(
                        "log starts at seq {seq} but the newest checkpoint covers only \
                         {applied_seq} — records in between are missing"
                    ),
                }
                .into());
            }
            self.engine.apply_update(batch)?;
            applied_seq = *seq;
            replayed += 1;
        }
        let report = RecoveryReport {
            checkpoint_seq: self.checkpoint_seq,
            replayed,
            skipped,
            truncated_bytes: replay.truncated_bytes,
            elapsed: self.started.elapsed(),
        };
        let engine = DurableEngine {
            engine: self.engine,
            dir: self.dir,
            config: self.config,
            inner: Mutex::new(DurableState {
                wal,
                applied_seq,
                checkpoint_seq: self.checkpoint_seq,
                checkpoints: 0,
                last_checkpoint_nanos: 0,
                recovery: report.clone(),
            }),
        };
        Ok((engine, report))
    }
}

/// A crash-safe [`LscrEngine`]: updates are write-ahead logged to a data
/// directory and replayed over the newest checkpoint on restart. Queries
/// go straight to [`engine`](Self::engine) — durability only intercepts
/// the update path.
pub struct DurableEngine {
    engine: Arc<LscrEngine>,
    dir: PathBuf,
    config: WalConfig,
    inner: Mutex<DurableState>,
}

impl std::fmt::Debug for DurableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("data_dir", &self.dir)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl DurableEngine {
    /// Phase 1 of recovery: loads the newest checkpoint in `dir`, or —
    /// for an empty/new directory — builds the initial engine via `init`
    /// and persists it as checkpoint 0 before returning. The log is not
    /// yet replayed; finish with [`DurableRecovery::replay`].
    pub fn recover(
        dir: impl AsRef<Path>,
        config: WalConfig,
        init: impl FnOnce() -> Result<LscrEngine, QueryError>,
    ) -> Result<DurableRecovery, QueryError> {
        let started = Instant::now();
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(GraphError::from)?;
        // A crash mid-install leaves its temp file; nothing else here ends
        // in `.tmp`. Directories are left alone.
        for entry in fs::read_dir(&dir).map_err(GraphError::from)?.flatten() {
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            }
        }
        let (engine, checkpoint_seq) = match newest_checkpoint(&dir)? {
            Some((seq, path)) => (LscrEngine::from_snapshot_file(path)?, seq),
            None => {
                let engine = init()?;
                engine.save_snapshot_file(dir.join(checkpoint_name(0)))?;
                (engine, 0)
            }
        };
        Ok(DurableRecovery { engine: Arc::new(engine), dir, config, checkpoint_seq, started })
    }

    /// Convenience for tests and embedders: recover *and* replay in one
    /// call (no readiness gating between the phases).
    pub fn open(
        dir: impl AsRef<Path>,
        config: WalConfig,
        init: impl FnOnce() -> Result<LscrEngine, QueryError>,
    ) -> Result<(DurableEngine, RecoveryReport), QueryError> {
        DurableEngine::recover(dir, config, init)?.replay()
    }

    /// The wrapped engine (share it freely for queries).
    pub fn engine(&self) -> Arc<LscrEngine> {
        Arc::clone(&self.engine)
    }

    /// The data directory this engine persists into.
    pub fn data_dir(&self) -> &Path {
        &self.dir
    }

    /// Applies a batch to a private copy of the served graph, appends it
    /// to the log, and only then swaps the copy in, returning once the
    /// record is written (and fsynced, per policy). The contract for
    /// callers acknowledging updates: acknowledge **after** this returns,
    /// and a restart will replay the batch; a crash *before* the append
    /// loses only a batch nobody was told succeeded. A failed append is
    /// an error and swaps nothing: the batch is neither acknowledged nor
    /// served. Failed batches (validation errors) are applied nowhere and
    /// logged never; all-no-op batches are acknowledged without logging
    /// (replaying them would change nothing).
    ///
    /// The append is the durable point. A size-triggered checkpoint that
    /// fails after it does not fail the call: the batch is served and
    /// recovered either way, and the log stays un-rotated for the next
    /// trigger — visible as [`DurableStats::wal_bytes`] past the threshold
    /// with [`DurableStats::checkpoints`] flat.
    pub fn apply_update(&self, batch: &UpdateBatch) -> Result<DurableOutcome, QueryError> {
        let (mut st, writable) = self.state();
        writable?;
        let (outcome, append) = self.engine.update_logged(batch, || Ok(st.wal.append(batch)?))?;
        let Some(append) = append else {
            return Ok(DurableOutcome { outcome, seq: None, durable: true });
        };
        st.applied_seq = append.seq;
        if st.wal.len_bytes() > self.config.checkpoint_bytes {
            let _ = self.checkpoint_locked(&mut st);
        }
        Ok(DurableOutcome { outcome, seq: Some(append.seq), durable: append.synced })
    }

    /// [`LscrEngine::reload_from_snapshot`], made durable: the decoded
    /// snapshot is written as the checkpoint at the current sequence
    /// number before it is swapped in, and the log is rotated after. A
    /// restart recovers the reloaded state plus the updates applied after
    /// it. If the snapshot does not decode or its checkpoint cannot be
    /// written, the old state is still both served and what a restart
    /// recovers. The written checkpoint is the durable point: a rotation
    /// that fails after it leaves the old log for the next trigger, and
    /// the reload still succeeds.
    pub fn reload_from_snapshot(&self, bytes: &[u8]) -> Result<u64, QueryError> {
        let staged = LscrEngine::from_snapshot(bytes)?;
        let (mut st, writable) = self.state();
        writable?;
        let started = Instant::now();
        staged.save_snapshot_file(self.dir.join(checkpoint_name(st.applied_seq)))?;
        // The newest checkpoint is the reloaded state now, rotated log or
        // not: replay skips every record the old log holds.
        let epoch = self.engine.install(staged);
        let _ = self.rotate_locked(&mut st, started);
        Ok(epoch)
    }

    /// Fsyncs any unsynced log records (regardless of policy). Returns
    /// whether a sync was actually issued.
    pub fn flush(&self) -> Result<bool, QueryError> {
        let (mut st, writable) = self.state();
        writable?;
        Ok(st.wal.flush()?)
    }

    /// Rolls a checkpoint now: snapshots the engine, installs it as the
    /// newest checkpoint, rotates the log. Returns `None` when the
    /// checkpoint already covers every logged record (nothing to do).
    pub fn checkpoint(&self) -> Result<Option<CheckpointReport>, QueryError> {
        let (mut st, writable) = self.state();
        writable?;
        if st.applied_seq == st.checkpoint_seq {
            return Ok(None);
        }
        self.checkpoint_locked(&mut st).map(Some)
    }

    /// Graceful shutdown: flush the log, then checkpoint so the next
    /// start recovers without replay.
    pub fn shutdown(&self) -> Result<Option<CheckpointReport>, QueryError> {
        self.flush()?;
        self.checkpoint()
    }

    /// Consistent snapshot of the durability counters.
    pub fn stats(&self) -> DurableStats {
        let (st, _) = self.state();
        DurableStats {
            last_seq: st.applied_seq,
            checkpoint_seq: st.checkpoint_seq,
            wal_bytes: st.wal.len_bytes(),
            wal_appends: st.wal.appends(),
            wal_fsyncs: st.wal.syncs(),
            checkpoints: st.checkpoints,
            last_checkpoint_nanos: st.last_checkpoint_nanos,
            recovery_replayed: st.recovery.replayed,
            recovery_truncated_bytes: st.recovery.truncated_bytes,
            recovery_nanos: st.recovery.elapsed.as_nanos().min(u128::from(u64::MAX)) as u64,
        }
    }

    /// The configured durability parameters.
    pub fn config(&self) -> &WalConfig {
        &self.config
    }

    /// The durability state, and whether it may be written. A thread that
    /// panicked holding this lock may have left the log, the checkpoint
    /// and the served graph disagreeing, so once it is poisoned every
    /// write is refused with [`GraphError::Io`] until a restart recovers
    /// from the log; [`stats`](Self::stats) alone reads through.
    fn state(&self) -> (MutexGuard<'_, DurableState>, Result<(), QueryError>) {
        match self.inner.lock() {
            Ok(st) => (st, Ok(())),
            Err(poisoned) => {
                let refused = GraphError::Io(
                    "a thread panicked holding the durability lock; writes are refused: \
                     restart to recover from the log"
                        .into(),
                );
                (poisoned.into_inner(), Err(refused.into()))
            }
        }
    }

    fn checkpoint_locked(&self, st: &mut DurableState) -> Result<CheckpointReport, QueryError> {
        let started = Instant::now();
        self.engine.save_snapshot_file(self.dir.join(checkpoint_name(st.applied_seq)))?;
        self.rotate_locked(st, started)
    }

    /// Roots a fresh log at `st.applied_seq`, which the checkpoint just
    /// written covers, and retires the older checkpoints.
    fn rotate_locked(
        &self,
        st: &mut DurableState,
        started: Instant,
    ) -> Result<CheckpointReport, QueryError> {
        let seq = st.applied_seq;
        let retired_wal_bytes = st.wal.len_bytes();
        // The new checkpoint is durable; now replace the log. A crash at
        // any point leaves either the old complete log (prefix re-replay
        // is a sequence-number no-op) or the new empty one.
        let wal_path = self.dir.join(WAL_FILE);
        let created = Wal::create(&wal_path, seq, self.config.fsync);
        if created.is_err() {
            // A failed directory sync comes after the rename: appends go
            // to whichever log the path names now.
            if let Ok((wal, _)) = Wal::open(&wal_path, self.config.fsync) {
                st.wal = wal;
            }
        }
        st.wal = created?;
        st.checkpoint_seq = seq;
        st.checkpoints += 1;
        let elapsed = started.elapsed();
        st.last_checkpoint_nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        // Old checkpoints are garbage now; losing a race with a crash
        // here is harmless (recovery picks the newest).
        for (old_seq, path) in checkpoints(&self.dir)? {
            if old_seq < seq {
                let _ = fs::remove_file(path);
            }
        }
        Ok(CheckpointReport { seq, retired_wal_bytes, elapsed })
    }
}

/// Name of the checkpoint file covering log sequence `seq`.
fn checkpoint_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}.kgsnap")
}

/// All `checkpoint-<seq>.kgsnap` entries in `dir`, unsorted.
fn checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, QueryError> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir).map_err(GraphError::from)? {
        let entry = entry.map_err(GraphError::from)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(seq) = name
            .strip_prefix("checkpoint-")
            .and_then(|rest| rest.strip_suffix(".kgsnap"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((seq, entry.path()));
    }
    Ok(found)
}

/// The newest checkpoint in `dir`, if any.
fn newest_checkpoint(dir: &Path) -> Result<Option<(u64, PathBuf)>, QueryError> {
    Ok(checkpoints(dir)?.into_iter().max_by_key(|(seq, _)| *seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure3;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("kgdurable-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn batch(i: u64) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.insert(&format!("wal-s{i}"), "wal-p", &format!("wal-o{i}"));
        b
    }

    fn small_config() -> WalConfig {
        WalConfig { fsync: FsyncPolicy::Off, ..WalConfig::default() }
    }

    #[test]
    fn init_then_recover_round_trips_updates() {
        let dir = tmp_dir("roundtrip");
        let (d, report) =
            DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
                .expect("init");
        assert_eq!(report.replayed, 0);
        for i in 0..5 {
            let out = d.apply_update(&batch(i)).expect("apply");
            assert_eq!(out.seq, Some(i + 1));
            assert_eq!(out.outcome.summary.edges_inserted, 1);
        }
        let edges_before = d.engine().graph().num_edges();
        drop(d); // simulated crash: no flush, no checkpoint

        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                .expect("recover");
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.replayed, 5);
        assert_eq!(report.skipped, 0);
        assert_eq!(d.engine().graph().num_edges(), edges_before);
        assert!(d.engine().graph().vertex_id("wal-s4").is_some());
        // Appends resume past the replayed records.
        assert_eq!(d.apply_update(&batch(9)).expect("apply").seq, Some(6));
    }

    #[test]
    fn noop_batches_are_acknowledged_but_not_logged() {
        let dir = tmp_dir("noop");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        d.apply_update(&batch(0)).expect("apply");
        let mut dup = UpdateBatch::new();
        dup.insert("wal-s0", "wal-p", "wal-o0"); // already present
        let out = d.apply_update(&dup).expect("apply no-op");
        assert_eq!(out.seq, None);
        assert!(out.durable);
        assert_eq!(out.outcome.summary.noop_inserts, 1);
        assert_eq!(d.stats().last_seq, 1, "no-op consumed no sequence number");
    }

    #[test]
    fn failed_batches_poison_nothing() {
        let dir = tmp_dir("failed");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        let mut bad = UpdateBatch::new();
        for i in 0..kgreach_graph::MAX_LABELS + 1 {
            bad.insert("s", &format!("label-{i}"), "o");
        }
        assert!(d.apply_update(&bad).is_err());
        assert_eq!(d.stats().last_seq, 0);
        let epoch = d.engine().graph_epoch();
        drop(d);
        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                .expect("recover");
        assert_eq!(report.replayed, 0, "failed batch never reached the log");
        assert_eq!(d.engine().graph_epoch(), epoch);
    }

    #[test]
    fn checkpoint_rotates_log_and_survives_restart() {
        let dir = tmp_dir("checkpoint");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        for i in 0..4 {
            d.apply_update(&batch(i)).expect("apply");
        }
        let report = d.checkpoint().expect("checkpoint").expect("did work");
        assert_eq!(report.seq, 4);
        assert!(d.checkpoint().expect("second checkpoint").is_none(), "nothing new to cover");
        let stats = d.stats();
        assert_eq!(stats.checkpoint_seq, 4);
        assert_eq!(stats.checkpoints, 1);
        d.apply_update(&batch(9)).expect("apply past checkpoint");
        drop(d);

        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                .expect("recover");
        assert_eq!(report.checkpoint_seq, 4);
        assert_eq!(report.replayed, 1, "only the post-checkpoint record replays");
        assert!(d.engine().graph().vertex_id("wal-s9").is_some());
        assert!(d.engine().graph().vertex_id("wal-s3").is_some(), "checkpoint content present");
    }

    #[test]
    fn auto_checkpoint_past_byte_threshold() {
        let dir = tmp_dir("auto-checkpoint");
        let config = WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: 256 };
        let (d, _) =
            DurableEngine::open(&dir, config, || Ok(LscrEngine::new(figure3()))).expect("init");
        for i in 0..16 {
            d.apply_update(&batch(i)).expect("apply");
        }
        let stats = d.stats();
        assert!(stats.checkpoints >= 1, "byte threshold should have tripped");
        assert!(stats.wal_bytes <= 512, "log rotates instead of growing unboundedly");
        assert_eq!(stats.last_seq, 16);
        drop(d);
        let (d, _) = DurableEngine::open(
            &dir,
            WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: 256 },
            || panic!("init must not rerun"),
        )
        .expect("recover");
        for i in 0..16 {
            assert!(d.engine().graph().vertex_id(&format!("wal-s{i}")).is_some(), "lost {i}");
        }
    }

    #[test]
    fn crash_between_checkpoint_and_rotation_skips_duplicates() {
        let dir = tmp_dir("dup-skip");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        for i in 0..3 {
            d.apply_update(&batch(i)).expect("apply");
        }
        // Simulate the crash window: a checkpoint covering seq 3 lands,
        // but the log still holds records 1..=3.
        let wal_before = fs::read(dir.join(WAL_FILE)).expect("read log");
        d.engine().save_snapshot_file(dir.join(checkpoint_name(3))).expect("manual checkpoint");
        drop(d);
        fs::write(dir.join(WAL_FILE), &wal_before).expect("restore pre-rotation log");

        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                .expect("recover");
        assert_eq!(report.checkpoint_seq, 3);
        assert_eq!(report.skipped, 3, "all logged records were already covered");
        assert_eq!(report.replayed, 0);
        // Content is intact and the next append continues the sequence.
        assert!(d.engine().graph().vertex_id("wal-s2").is_some());
        // The stale log's base_seq is still 0, so the next record is 4.
        assert_eq!(d.apply_update(&batch(7)).expect("apply").seq, Some(4));
    }

    #[test]
    fn shutdown_flushes_and_checkpoints() {
        let dir = tmp_dir("shutdown");
        let config = WalConfig { fsync: FsyncPolicy::Batch, ..WalConfig::default() };
        let (d, _) =
            DurableEngine::open(&dir, config, || Ok(LscrEngine::new(figure3()))).expect("init");
        d.apply_update(&batch(0)).expect("apply");
        let report = d.shutdown().expect("shutdown").expect("did checkpoint");
        assert_eq!(report.seq, 1);
        drop(d);
        let (_, report) = DurableEngine::open(
            &dir,
            WalConfig { fsync: FsyncPolicy::Batch, ..WalConfig::default() },
            || panic!("init must not rerun"),
        )
        .expect("recover");
        assert_eq!(report.replayed, 0, "clean shutdown leaves nothing to replay");
        assert_eq!(report.checkpoint_seq, 1);
    }

    #[test]
    fn two_phase_recovery_exposes_checkpoint_state_before_replay() {
        let dir = tmp_dir("two-phase");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        d.apply_update(&batch(0)).expect("apply");
        drop(d);
        let recovery =
            DurableEngine::recover(&dir, small_config(), || panic!("no init")).expect("phase 1");
        // Phase 1 serves the checkpoint: the logged update is not visible.
        assert!(recovery.engine().graph().vertex_id("wal-s0").is_none());
        let (d, report) = recovery.replay().expect("phase 2");
        assert_eq!(report.replayed, 1);
        assert!(d.engine().graph().vertex_id("wal-s0").is_some());
    }

    /// Every triple of the served graph, by name, sorted.
    fn triples(engine: &LscrEngine) -> Vec<(String, String, String)> {
        let g = engine.graph();
        let name = |v| g.vertex_name(v).to_owned();
        let mut out: Vec<_> = g
            .edges()
            .map(|e| (name(e.src), g.label_name(e.label).to_owned(), name(e.dst)))
            .collect();
        out.sort();
        out
    }

    /// A snapshot of a one-edge graph, to reload.
    fn one_edge_snapshot() -> Vec<u8> {
        let mut b = kgreach_graph::GraphBuilder::new();
        b.add_triple("reloaded-a", "p", "reloaded-b");
        let mut snapshot = Vec::new();
        LscrEngine::new(b.build().unwrap()).save_snapshot(&mut snapshot).expect("save");
        snapshot
    }

    #[test]
    fn reload_survives_restart_with_later_updates() {
        let dir = tmp_dir("reload");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        d.apply_update(&batch(0)).expect("pre-reload update");
        d.reload_from_snapshot(&one_edge_snapshot()).expect("reload");
        d.apply_update(&batch(1)).expect("post-reload update");
        let served = triples(&d.engine());
        assert_eq!(served.len(), 2, "the reloaded edge and the later update: {served:?}");
        drop(d); // simulated crash: no flush, no checkpoint

        let (d, _) = DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
            .expect("recover");
        assert_eq!(triples(&d.engine()), served, "recovered a state that was never served");
    }

    // A directory where a checkpoint's temp file goes fails its write
    // (`EISDIR`, root included); one where the new log's goes fails the
    // rotation after the checkpoint has landed.

    /// The temp file name `fsio::install` writes `file` under.
    fn tmp_name(file: &str) -> String {
        format!("{file}.{}.tmp", std::process::id())
    }

    #[test]
    fn size_triggered_checkpoint_failure_still_acks_the_update() {
        // Each trigger checkpoints at its own sequence number, under its
        // own temp name: block every one the run reaches.
        let checkpoint_tmps = (1..=17).map(|seq| tmp_name(&checkpoint_name(seq))).collect();
        for blocks in [checkpoint_tmps, vec![tmp_name(WAL_FILE)]] {
            let blocked = &blocks[0];
            let dir = tmp_dir(&format!("ack-{blocked}"));
            let config = WalConfig { fsync: FsyncPolicy::Off, checkpoint_bytes: 256 };
            let (d, _) =
                DurableEngine::open(&dir, config.clone(), || Ok(LscrEngine::new(figure3())))
                    .expect("init");
            for block in &blocks {
                fs::create_dir(dir.join(block)).expect("block");
            }
            for i in 0..16 {
                let out = d.apply_update(&batch(i)).expect("logged, so acknowledged");
                assert_eq!(out.seq, Some(i + 1), "{blocked}");
            }
            let stats = d.stats();
            assert_eq!(stats.checkpoints, 0, "{blocked}");
            assert!(stats.wal_bytes > 256, "{blocked}: the log waits for the next trigger");
            let served = triples(&d.engine());
            drop(d); // simulated crash, the log un-rotated
            let (d, _) = DurableEngine::open(&dir, config, || panic!("init must not rerun"))
                .expect("recover");
            assert_eq!(triples(&d.engine()), served, "{blocked}: an acknowledged update was lost");
            // Unblocked, the next trigger rotates.
            for block in &blocks {
                fs::remove_dir(dir.join(block)).expect("unblock");
            }
            d.apply_update(&batch(16)).expect("apply");
            assert_eq!(d.stats().checkpoints, 1, "{blocked}");
        }
    }

    #[test]
    fn reload_reports_success_past_its_checkpoint() {
        // A failed checkpoint write fails the reload; a failed rotation
        // after the checkpoint does not.
        for (blocked, reloads) in
            [(tmp_name(&checkpoint_name(1)), false), (tmp_name(WAL_FILE), true)]
        {
            let dir = tmp_dir(&format!("reload-{blocked}"));
            let (d, _) =
                DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
                    .expect("init");
            d.apply_update(&batch(0)).expect("pre-reload update");
            let before = triples(&d.engine());
            fs::create_dir(dir.join(&blocked)).expect("block");
            assert_eq!(d.reload_from_snapshot(&one_edge_snapshot()).is_ok(), reloads, "{blocked}");
            d.apply_update(&batch(1)).expect("post-reload update");
            let served = triples(&d.engine());
            let want = if reloads { 2 } else { before.len() + 1 };
            assert_eq!(served.len(), want, "{blocked}: {served:?}");
            drop(d); // simulated crash
            let (d, _) =
                DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                    .expect("recover");
            assert_eq!(triples(&d.engine()), served, "{blocked}: recovered a state never served");
        }
    }

    #[test]
    fn updates_and_replay_drop_the_index() {
        let dir = tmp_dir("with-index");
        let (d, _) = DurableEngine::open(&dir, small_config(), || {
            let engine = LscrEngine::new(figure3());
            engine.local_index();
            Ok(engine)
        })
        .expect("init");
        d.apply_update(&batch(0)).expect("apply");
        assert!(d.engine().local_index_if_built().is_none(), "an update drops the index");
        drop(d);
        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("no init")).expect("recover");
        assert_eq!((report.checkpoint_seq, report.replayed), (0, 1));
        assert!(d.engine().local_index_if_built().is_none(), "replay drops the index");
        d.engine().local_index();
        assert!(d.checkpoint().expect("checkpoint").is_some());
        drop(d);
        let (d, _) =
            DurableEngine::open(&dir, small_config(), || panic!("no init")).expect("recover");
        assert!(!d.engine().info().index_built, "a checkpoint holds no index");
    }

    #[test]
    fn a_panic_under_the_durability_lock_refuses_writes_until_a_restart() {
        let dir = tmp_dir("poisoned");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        for i in 0..3 {
            d.apply_update(&batch(i)).expect("apply");
        }
        let served = triples(&d.engine());
        let seeded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = d.inner.lock();
            panic!("seeded panic under the durability lock");
        }));
        assert!(seeded.is_err());
        let refused = |e: QueryError| match e {
            QueryError::Graph(GraphError::Io(message)) => {
                assert!(message.contains("restart to recover from the log"), "{message}")
            }
            other => panic!("expected an i/o refusal, got {other:?}"),
        };
        refused(d.apply_update(&batch(3)).expect_err("update"));
        refused(d.reload_from_snapshot(&one_edge_snapshot()).expect_err("reload"));
        refused(d.checkpoint().expect_err("checkpoint"));
        refused(d.flush().expect_err("flush"));
        refused(d.shutdown().expect_err("shutdown"));
        assert_eq!(d.stats().last_seq, 3, "stats read through");
        assert_eq!(triples(&d.engine()), served, "a refused write is not served");
        drop(d);
        let (d, _) = DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
            .expect("recover");
        assert_eq!(triples(&d.engine()), served);
        d.apply_update(&batch(3)).expect("a restart takes writes again");
    }

    #[test]
    fn a_failed_checkpoint_or_rotation_leaves_no_temp_file() {
        // A directory at the checkpoint's final name fails its rename; one
        // at the log's fails the rotation's.
        for blocked in [checkpoint_name(1), WAL_FILE.into()] {
            let tmp = tmp_name(&blocked);
            let dir = tmp_dir(&format!("tmp-{tmp}"));
            let (d, _) =
                DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
                    .expect("init");
            d.apply_update(&batch(0)).expect("apply");
            let _ = fs::remove_file(dir.join(&blocked));
            fs::create_dir(dir.join(&blocked)).expect("block");
            assert!(d.checkpoint().is_err(), "{blocked}");
            assert!(!dir.join(&tmp).exists(), "{tmp} left behind");
        }
    }

    #[test]
    fn a_reopen_removes_the_temp_files_a_crash_left() {
        let dir = tmp_dir("strays");
        let (d, _) = DurableEngine::open(&dir, small_config(), || Ok(LscrEngine::new(figure3())))
            .expect("init");
        d.apply_update(&batch(0)).expect("apply");
        drop(d);
        // What a crash mid-install leaves, from this process or another.
        let strays = [
            tmp_name(&checkpoint_name(1)),
            format!("{WAL_FILE}.4194304.tmp"),
            "checkpoint.tmp".to_string(),
        ];
        for stray in &strays {
            fs::write(dir.join(stray), b"torn").expect("plant");
        }
        let (d, report) =
            DurableEngine::open(&dir, small_config(), || panic!("init must not rerun"))
                .expect("recover");
        assert_eq!(report.replayed, 1);
        assert!(d.engine().graph().vertex_id("wal-s0").is_some());
        for stray in &strays {
            assert!(!dir.join(stray).exists(), "{stray} survived a reopen");
        }
    }
}
