//! The write-ahead update log: durability for dynamic graphs.
//!
//! A [`Wal`] persists every content-changing [`UpdateBatch`] *before* the
//! caller acknowledges it, so a crash loses at most the updates that were
//! never acknowledged. Recovery replays the log over the last engine
//! snapshot (the *checkpoint*); the two artifacts together reconstruct
//! exactly the acknowledged state.
//!
//! ## On-disk format
//!
//! A log file is a fixed header followed by back-to-back records:
//!
//! ```text
//! header:  magic "KGWAL\r\n\0" (8) | version u16 LE | reserved (6) | base_seq u64 LE
//! record:  seq u64 LE | len u32 LE | head_crc u32 LE | payload (len) | body_crc u64 LE
//! ```
//!
//! `base_seq` is the sequence number already covered by the checkpoint the
//! log starts after; records carry `base_seq + 1, base_seq + 2, …` in
//! strictly increasing order. The checksums chain exactly like the
//! snapshot container's sections: `head_crc` is the low half of
//! `XXH64(seq ‖ len, seed = chain)`, `body_crc` is
//! `XXH64(payload, seed = chain ^ seq)`, and each record's `body_crc`
//! becomes the next record's `chain`. The chain is seeded from `base_seq`,
//! so a record can neither be spliced in from another log nor reordered
//! within its own — either breaks the seed of everything after it.
//!
//! ## Torn tails vs corruption
//!
//! A crash mid-append leaves a byte-level *prefix* of the final record
//! (`write` syscalls on a local file persist prefixes, never holes), so
//! recovery classifies damage by where the bytes stop:
//!
//! * the file ends before a record frame completes, and every completed
//!   checksum up to that point verifies → a **torn tail**: the partial
//!   record was never acknowledged, [`Wal::open`] truncates it and the log
//!   stays usable;
//! * a *complete* frame fails a checksum, or a sequence number breaks the
//!   monotone chain → **corruption** ([`GraphError::WalCorrupt`]):
//!   acknowledged records are damaged, recovery refuses to guess.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] trades durability for append latency: `Always` fsyncs
//! every append (an acknowledged update survives power loss), `Batch`
//! fsyncs every `BATCH_SYNC_EVERY` appends and on [`Wal::flush`]
//! (bounded loss on power failure, none on process crash), `Off` never
//! fsyncs (no loss on process crash, page-cache loss on power failure).
//! [`WalAppend::synced`] reports per append whether the record was durable
//! at acknowledgement time.

use crate::delta::{UpdateBatch, UpdateOp};
use crate::error::{GraphError, Result};
use crate::snapshot::{xxh64, PayloadBuf, PayloadCursor};
use crate::triples::Triple;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Magic bytes opening every WAL file.
pub(crate) const WAL_MAGIC: [u8; 8] = *b"KGWAL\r\n\0";

/// Current (and only) WAL format version.
pub(crate) const WAL_FORMAT_VERSION: u16 = 1;

/// Size of the fixed file header in bytes.
pub const WAL_HEADER_BYTES: u64 = 24;

/// Size of a record's fixed frame head (`seq | len | head_crc`) in bytes.
const FRAME_HEAD_BYTES: usize = 16;

/// Under [`FsyncPolicy::Batch`], fsync once per this many appends (and on
/// explicit [`Wal::flush`]).
pub(crate) const BATCH_SYNC_EVERY: usize = 8;

/// Chain seed for the first record; mixed with `base_seq` so logs rooted
/// at different checkpoints chain differently from byte one.
const CHAIN_INIT: u64 = 0x6b67_7761_6c00_0001;

/// Hard cap on one record's payload (64 MiB) — a length prefix past this
/// is treated as corruption rather than attempted as an allocation.
const MAX_RECORD_BYTES: u32 = 64 << 20;

/// When (not whether) appended records reach the disk platter.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every append: an acknowledged update survives power
    /// loss. The slowest option — each ack pays a device flush.
    Always,
    /// `fsync` every `BATCH_SYNC_EVERY` appends and on [`Wal::flush`]:
    /// bounded loss on power failure, none on process crash.
    Batch,
    /// Never `fsync` (the OS flushes the page cache on its own schedule):
    /// no loss on process crash, page-cache loss on power failure.
    Off,
}

impl FsyncPolicy {
    /// Parses the CLI spelling (`always` / `batch` / `off`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "always" => Some(FsyncPolicy::Always),
            "batch" => Some(FsyncPolicy::Batch),
            "off" => Some(FsyncPolicy::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FsyncPolicy::Always => "always",
            FsyncPolicy::Batch => "batch",
            FsyncPolicy::Off => "off",
        })
    }
}

/// Receipt for one appended record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalAppend {
    /// The record's sequence number.
    pub seq: u64,
    /// Whether the record had been fsynced when `append` returned — i.e.
    /// whether the acknowledgement the caller is about to send is durable
    /// against power loss, not just process crash.
    pub synced: bool,
}

/// Everything [`Wal::open`] recovered from an existing log.
#[derive(Debug)]
pub struct WalReplay {
    /// Sequence number covered by the checkpoint this log starts after.
    pub base_seq: u64,
    /// The validated records, in sequence order.
    pub records: Vec<(u64, UpdateBatch)>,
    /// Bytes of torn tail truncated off the file (0 for a clean log).
    pub truncated_bytes: u64,
}

/// An open write-ahead log, positioned for appends.
#[derive(Debug)]
pub struct Wal {
    file: File,
    policy: FsyncPolicy,
    next_seq: u64,
    chain: u64,
    len_bytes: u64,
    appends: u64,
    syncs: u64,
    unsynced: usize,
    /// Set when a failed append could not be cut back off the file:
    /// every later append through this handle is refused.
    broken: bool,
    /// A fault the next append meets, for the fault tests.
    #[cfg(test)]
    fault: Option<tests::Fault>,
}

impl Wal {
    /// Creates a fresh log at `path` (truncating any existing file) rooted
    /// at checkpoint sequence `base_seq`; the header is written and synced
    /// before this returns.
    pub fn create(path: &Path, base_seq: u64, policy: FsyncPolicy) -> Result<Wal> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER_BYTES as usize);
        header.extend_from_slice(&WAL_MAGIC);
        header.extend_from_slice(&WAL_FORMAT_VERSION.to_le_bytes());
        header.extend_from_slice(&[0u8; 6]);
        header.extend_from_slice(&base_seq.to_le_bytes());
        file.write_all(&header)?;
        file.sync_all()?;
        fsync_parent_dir(path)?;
        Ok(Wal {
            file,
            policy,
            next_seq: base_seq + 1,
            chain: CHAIN_INIT ^ base_seq,
            len_bytes: WAL_HEADER_BYTES,
            appends: 0,
            syncs: 1,
            unsynced: 0,
            broken: false,
            #[cfg(test)]
            fault: None,
        })
    }

    /// Opens an existing log: validates the header, scans and verifies
    /// every record, truncates a torn tail off the file, and returns the
    /// log positioned for appends together with the recovered records.
    ///
    /// Mid-log damage — a complete record failing its checksum, a
    /// sequence break, an undecodable payload — is
    /// [`GraphError::WalCorrupt`]; only a crash-truncated *final* record
    /// is repaired (by truncation), because nothing after it can have
    /// been acknowledged.
    pub fn open(path: &Path, policy: FsyncPolicy) -> Result<(Wal, WalReplay)> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        if bytes.len() < WAL_HEADER_BYTES as usize {
            // Even the header is truncated: unusable regardless of content.
            if bytes.len() >= WAL_MAGIC.len() && bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
                return Err(GraphError::WalBadMagic);
            }
            return Err(GraphError::WalCorrupt {
                offset: 0,
                message: format!("file header truncated at {} bytes", bytes.len()),
            });
        }
        if bytes[..8] != WAL_MAGIC {
            return Err(GraphError::WalBadMagic);
        }
        let version = u16::from_le_bytes([bytes[8], bytes[9]]);
        if version != WAL_FORMAT_VERSION {
            return Err(GraphError::WalVersion { found: version, supported: WAL_FORMAT_VERSION });
        }
        let base_seq = u64::from_le_bytes(bytes[16..24].try_into().expect("8 header bytes"));

        let mut chain = CHAIN_INIT ^ base_seq;
        let mut next_seq = base_seq + 1;
        let mut records = Vec::new();
        let mut off = WAL_HEADER_BYTES as usize;
        // `off` trails the scan at the start of the last fully-validated
        // record boundary; everything past it at loop exit is torn tail.
        loop {
            let rest = &bytes[off..];
            if rest.is_empty() {
                break; // clean end
            }
            if rest.len() < FRAME_HEAD_BYTES {
                break; // torn mid-head
            }
            let seq = u64::from_le_bytes(rest[..8].try_into().expect("frame head"));
            let len = u32::from_le_bytes(rest[8..12].try_into().expect("frame head"));
            let head_crc = u32::from_le_bytes(rest[12..16].try_into().expect("frame head"));
            let want_head = xxh64(&rest[..12], chain) as u32;
            if head_crc != want_head {
                return Err(GraphError::WalCorrupt {
                    offset: off as u64,
                    message: format!(
                        "record head checksum mismatch (stored {head_crc:#010x}, computed \
                         {want_head:#010x})"
                    ),
                });
            }
            if seq != next_seq {
                return Err(GraphError::WalCorrupt {
                    offset: off as u64,
                    message: format!(
                        "sequence break: record carries seq {seq}, expected \
                                      {next_seq}"
                    ),
                });
            }
            if len > MAX_RECORD_BYTES {
                return Err(GraphError::WalCorrupt {
                    offset: off as u64,
                    message: format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
                });
            }
            let full = FRAME_HEAD_BYTES + len as usize + 8;
            if rest.len() < full {
                break; // torn mid-payload or mid-body-checksum
            }
            let payload = &rest[FRAME_HEAD_BYTES..FRAME_HEAD_BYTES + len as usize];
            let body_crc =
                u64::from_le_bytes(rest[full - 8..full].try_into().expect("body checksum"));
            let want_body = xxh64(payload, chain ^ seq);
            if body_crc != want_body {
                return Err(GraphError::WalCorrupt {
                    offset: off as u64,
                    message: format!(
                        "record body checksum mismatch (stored {body_crc:#018x}, computed \
                         {want_body:#018x})"
                    ),
                });
            }
            let batch = decode_batch(payload, off as u64)?;
            records.push((seq, batch));
            chain = body_crc;
            next_seq += 1;
            off += full;
        }

        let truncated = (bytes.len() - off) as u64;
        if truncated > 0 {
            file.set_len(off as u64)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        let wal = Wal {
            file,
            policy,
            next_seq,
            chain,
            len_bytes: off as u64,
            appends: 0,
            syncs: if truncated > 0 { 1 } else { 0 },
            unsynced: 0,
            broken: false,
            #[cfg(test)]
            fault: None,
        };
        Ok((wal, WalReplay { base_seq, records, truncated_bytes: truncated }))
    }

    /// Appends one batch as the next record and returns its sequence
    /// number plus whether the bytes were fsynced before return (per the
    /// log's [`FsyncPolicy`]). The caller must not acknowledge the update
    /// before this returns.
    ///
    /// An append is all or nothing: `Ok` means the record is in the log;
    /// on `Err` (a failed write or sync) the file is cut back to its
    /// length before the call and the handle is unchanged, so the next
    /// append lands where this one would have. If the cut fails too,
    /// every later append through this handle fails.
    pub fn append(&mut self, batch: &UpdateBatch) -> Result<WalAppend> {
        if self.broken {
            return Err(GraphError::Io(
                "write-ahead log refuses appends: a failed append could not be cut back off it"
                    .into(),
            ));
        }
        let seq = self.next_seq;
        let payload = encode_batch(batch);
        let mut frame = Vec::with_capacity(FRAME_HEAD_BYTES + payload.len() + 8);
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let head_crc = xxh64(&frame[..12], self.chain) as u32;
        frame.extend_from_slice(&head_crc.to_le_bytes());
        frame.extend_from_slice(&payload);
        let body_crc = xxh64(&payload, self.chain ^ seq);
        frame.extend_from_slice(&body_crc.to_le_bytes());
        let synced = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch => self.unsynced + 1 >= BATCH_SYNC_EVERY,
            FsyncPolicy::Off => false,
        };
        if let Err(e) = self.write_frame(&frame, synced) {
            self.broken = self.cut_back().is_err();
            return Err(e.into());
        }

        self.next_seq += 1;
        self.chain = body_crc;
        self.len_bytes += frame.len() as u64;
        self.appends += 1;
        if synced {
            self.syncs += 1;
            self.unsynced = 0;
        } else {
            self.unsynced += 1;
        }
        Ok(WalAppend { seq, synced })
    }

    /// Writes `frame` at the end of the log, then syncs it if `sync`.
    fn write_frame(&mut self, frame: &[u8], sync: bool) -> std::io::Result<()> {
        // The fault is consumed by the cut that follows its failure.
        #[cfg(test)]
        match self.fault {
            Some(tests::Fault::ShortWrite(n) | tests::Fault::ShortWriteUncut(n)) => {
                self.file.write_all(&frame[..n])?;
                return Err(std::io::Error::other("injected short write"));
            }
            Some(tests::Fault::Sync) => {
                self.file.write_all(frame)?;
                return Err(std::io::Error::other("injected sync failure"));
            }
            None => {}
        }
        self.file.write_all(frame)?;
        if sync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Cuts the file back to `len_bytes`, the end of the last record, and
    /// moves the write cursor there.
    fn cut_back(&mut self) -> std::io::Result<()> {
        #[cfg(test)]
        if let Some(tests::Fault::ShortWriteUncut(_)) = self.fault.take() {
            return Err(std::io::Error::other("injected cut failure"));
        }
        self.file.set_len(self.len_bytes)?;
        self.file.seek(SeekFrom::Start(self.len_bytes))?;
        Ok(())
    }

    /// Fsyncs any unsynced appends (meaningful under `Batch`; a no-op
    /// under `Always` when nothing is pending, and an *explicit* sync
    /// under `Off` — shutdown paths call this regardless of policy).
    /// Returns whether a sync was actually issued.
    pub fn flush(&mut self) -> Result<bool> {
        if self.unsynced == 0 {
            return Ok(false);
        }
        self.file.sync_data()?;
        self.syncs += 1;
        self.unsynced = 0;
        Ok(true)
    }

    /// Sequence number of the *last* record in the log (`base_seq` when
    /// the log is empty).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Current file length in bytes (header included) — the input to
    /// checkpoint-triggering policies.
    pub fn len_bytes(&self) -> u64 {
        self.len_bytes
    }

    /// Records appended through this handle (not counting recovered ones).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsyncs issued through this handle.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Serializes a batch into a record payload (op count, then per op a tag
/// byte and the three names).
fn encode_batch(batch: &UpdateBatch) -> Vec<u8> {
    let mut buf = PayloadBuf::with_capacity(16 + batch.len() * 48);
    buf.put_u32(batch.len() as u32);
    for op in batch.ops() {
        let (tag, t) = match op {
            UpdateOp::Insert(t) => (0u8, t),
            UpdateOp::Delete(t) => (1u8, t),
        };
        buf.put_u8(tag);
        buf.put_str(&t.subject);
        buf.put_str(&t.predicate);
        buf.put_str(&t.object);
    }
    buf.as_slice().to_vec()
}

/// Decodes a record payload; malformed content is [`GraphError::WalCorrupt`]
/// at the record's file offset.
fn decode_batch(payload: &[u8], offset: u64) -> Result<UpdateBatch> {
    let corrupt = |e: GraphError| match e {
        GraphError::SnapshotCorrupt { message, .. } => GraphError::WalCorrupt { offset, message },
        other => other,
    };
    let mut c = PayloadCursor::new(payload, "wal-record");
    let n = c.get_u32().map_err(corrupt)?;
    let mut batch = UpdateBatch::new();
    for _ in 0..n {
        let tag = c.get_u8().map_err(corrupt)?;
        let subject = c.get_str().map_err(corrupt)?;
        let predicate = c.get_str().map_err(corrupt)?;
        let object = c.get_str().map_err(corrupt)?;
        let triple = Triple::new(subject, predicate, object);
        match tag {
            0 => batch.push(UpdateOp::Insert(triple)),
            1 => batch.push(UpdateOp::Delete(triple)),
            other => {
                return Err(GraphError::WalCorrupt {
                    offset,
                    message: format!("unknown record op tag {other}"),
                })
            }
        };
    }
    c.finish().map_err(corrupt)?;
    Ok(batch)
}

/// Fsyncs the directory containing `path`, making a freshly created or
/// renamed entry itself durable (file data syncs don't cover the dirent).
pub fn fsync_parent_dir(path: &Path) -> Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fault injected into one append.
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Fault {
        /// The frame's write stops after this many bytes and fails.
        ShortWrite(usize),
        /// The frame is written and its sync fails.
        Sync,
        /// As `ShortWrite`, and cutting the partial frame back fails too.
        ShortWriteUncut(usize),
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kgwal-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("wal.log")
    }

    fn batch(i: u64) -> UpdateBatch {
        let mut b = UpdateBatch::new();
        b.insert(&format!("s{i}"), "p", &format!("o{i}"));
        b.delete(&format!("s{i}"), "q", "gone");
        b
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        for i in 0..5 {
            let a = w.append(&batch(i)).expect("append");
            assert_eq!(a.seq, i + 1);
            assert!(!a.synced);
        }
        drop(w);
        let (w, replay) = Wal::open(&path, FsyncPolicy::Off).expect("open");
        assert_eq!(replay.base_seq, 0);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.records.len(), 5);
        for (i, (seq, b)) in replay.records.iter().enumerate() {
            assert_eq!(*seq, i as u64 + 1);
            assert_eq!(b.ops(), batch(i as u64).ops());
        }
        assert_eq!(w.last_seq(), 5);
    }

    #[test]
    fn append_resumes_after_open() {
        let path = tmp("resume");
        let mut w = Wal::create(&path, 7, FsyncPolicy::Off).expect("create");
        w.append(&batch(0)).expect("append");
        drop(w);
        let (mut w, replay) = Wal::open(&path, FsyncPolicy::Off).expect("open");
        assert_eq!(replay.records.len(), 1);
        assert_eq!(w.append(&batch(1)).expect("append").seq, 9);
        drop(w);
        let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("reopen");
        assert_eq!(replay.records.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn every_torn_tail_truncates_cleanly() {
        let path = tmp("torn");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        for i in 0..3 {
            w.append(&batch(i)).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read log");
        // End offset of each complete record, derived from the len fields.
        let mut boundaries = vec![WAL_HEADER_BYTES as usize];
        while *boundaries.last().expect("non-empty") < bytes.len() {
            let off = *boundaries.last().expect("non-empty");
            let len = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().expect("len field"))
                as usize;
            boundaries.push(off + FRAME_HEAD_BYTES + len + 8);
        }
        // Any prefix that keeps the header is either a clean log or a torn
        // tail; recovery must never error, and must keep exactly the
        // records whose last byte made it to disk.
        for cut in WAL_HEADER_BYTES as usize..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).expect("write prefix");
            let (_, replay) = Wal::open(&path, FsyncPolicy::Off)
                .unwrap_or_else(|e| panic!("cut at {cut}: unexpected error {e}"));
            for (i, (seq, b)) in replay.records.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
                assert_eq!(b.ops(), batch(i as u64).ops());
            }
            let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), complete, "cut at {cut}: wrong record count");
            assert_eq!(
                replay.truncated_bytes as usize,
                cut - boundaries[complete],
                "cut at {cut}: wrong truncation length"
            );
            // The truncation is physical: reopening finds a clean log.
            let (_, again) = Wal::open(&path, FsyncPolicy::Off).expect("reopen after repair");
            assert_eq!(again.records.len(), replay.records.len());
            assert_eq!(again.truncated_bytes, 0);
        }
    }

    #[test]
    fn header_truncation_is_typed() {
        let path = tmp("torn-header");
        let w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        drop(w);
        let bytes = std::fs::read(&path).expect("read log");
        for cut in 0..WAL_HEADER_BYTES as usize {
            std::fs::write(&path, &bytes[..cut]).expect("write prefix");
            let err = Wal::open(&path, FsyncPolicy::Off).expect_err("truncated header");
            assert!(
                matches!(err, GraphError::WalCorrupt { .. } | GraphError::WalBadMagic),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let path = tmp("magic");
        drop(Wal::create(&path, 0, FsyncPolicy::Off).expect("create"));
        let mut bytes = std::fs::read(&path).expect("read log");
        let orig = bytes.clone();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(Wal::open(&path, FsyncPolicy::Off), Err(GraphError::WalBadMagic)));
        let mut bytes = orig;
        bytes[8] = 0xfe;
        std::fs::write(&path, &bytes).expect("write");
        assert!(matches!(
            Wal::open(&path, FsyncPolicy::Off),
            Err(GraphError::WalVersion { found: 0xfe, supported: WAL_FORMAT_VERSION })
        ));
    }

    #[test]
    fn mid_log_bit_flips_are_corruption() {
        let path = tmp("flip");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        for i in 0..2 {
            w.append(&batch(i)).expect("append");
        }
        drop(w);
        let bytes = std::fs::read(&path).expect("read log");
        // Flip every bit of the FIRST record (a complete, non-tail record):
        // recovery must fail typed, never panic, never silently drop it.
        let first_record_end = {
            let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("open");
            assert_eq!(replay.records.len(), 2);
            // Find it by re-scanning: header + head + payload + crc of rec 1.
            let len = u32::from_le_bytes(
                bytes[WAL_HEADER_BYTES as usize + 8..WAL_HEADER_BYTES as usize + 12]
                    .try_into()
                    .expect("len field"),
            ) as usize;
            WAL_HEADER_BYTES as usize + FRAME_HEAD_BYTES + len + 8
        };
        for i in WAL_HEADER_BYTES as usize..first_record_end {
            for bit in 0..8 {
                let mut mangled = bytes.clone();
                mangled[i] ^= 1 << bit;
                std::fs::write(&path, &mangled).expect("write");
                let err = Wal::open(&path, FsyncPolicy::Off)
                    .expect_err(&format!("bit {bit} of byte {i} flipped"));
                assert!(
                    matches!(err, GraphError::WalCorrupt { .. }),
                    "byte {i} bit {bit}: unexpected {err:?}"
                );
            }
        }
    }

    #[test]
    fn spliced_record_from_another_log_is_corruption() {
        let path_a = tmp("splice-a");
        let path_b = tmp("splice-b");
        let mut a = Wal::create(&path_a, 0, FsyncPolicy::Off).expect("create a");
        let mut b = Wal::create(&path_b, 0, FsyncPolicy::Off).expect("create b");
        a.append(&batch(0)).expect("append");
        a.append(&batch(1)).expect("append");
        // B's first record differs from A's, so B's chain state at seq 2
        // differs — splicing B's (structurally valid) record 2 into A must
        // fail the chained checksum even though seq and framing line up.
        b.append(&batch(5)).expect("append");
        b.append(&batch(9)).expect("append");
        drop(a);
        drop(b);
        let bytes_a = std::fs::read(&path_a).expect("read a");
        let bytes_b = std::fs::read(&path_b).expect("read b");
        let rec1_end = {
            let len = u32::from_le_bytes(
                bytes_a[WAL_HEADER_BYTES as usize + 8..WAL_HEADER_BYTES as usize + 12]
                    .try_into()
                    .expect("len field"),
            ) as usize;
            WAL_HEADER_BYTES as usize + FRAME_HEAD_BYTES + len + 8
        };
        // Graft log B's record 2 after log A's record 1.
        let mut spliced = bytes_a[..rec1_end].to_vec();
        spliced.extend_from_slice(&bytes_b[rec1_end..]);
        std::fs::write(&path_a, &spliced).expect("write spliced");
        let err = Wal::open(&path_a, FsyncPolicy::Off).expect_err("spliced record");
        assert!(matches!(err, GraphError::WalCorrupt { .. }), "unexpected {err:?}");
    }

    #[test]
    fn fsync_policies_report_sync_state() {
        let path = tmp("fsync");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Always).expect("create");
        assert!(w.append(&batch(0)).expect("append").synced);
        assert!(!w.flush().expect("flush"));
        drop(w);

        let path = tmp("fsync-batch");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Batch).expect("create");
        for i in 0..BATCH_SYNC_EVERY as u64 - 1 {
            assert!(!w.append(&batch(i)).expect("append").synced);
        }
        assert!(w.append(&batch(99)).expect("append").synced, "batch boundary syncs");
        assert!(!w.flush().expect("nothing pending"));
        assert!(!w.append(&batch(100)).expect("append").synced);
        assert!(w.flush().expect("explicit flush syncs"));
    }

    #[test]
    fn empty_batch_round_trips() {
        let path = tmp("empty-batch");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        w.append(&UpdateBatch::new()).expect("append");
        drop(w);
        let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("open");
        assert_eq!(replay.records.len(), 1);
        assert!(replay.records[0].1.is_empty());
    }

    #[test]
    fn hostile_names_round_trip() {
        let path = tmp("hostile");
        let mut b = UpdateBatch::new();
        b.insert("a b\nc", "p\"q\\r", "o\r\n");
        b.insert("", "", "");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        w.append(&b).expect("append");
        drop(w);
        let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("open");
        assert_eq!(replay.records[0].1.ops(), b.ops());
    }

    #[test]
    fn a_failed_append_leaves_the_log_as_it_was() {
        let path = tmp("append-faults");
        let frame = FRAME_HEAD_BYTES + encode_batch(&batch(1)).len() + 8;
        let faults = (0..=frame).map(Fault::ShortWrite).chain([Fault::Sync]);
        for fault in faults {
            let mut w = Wal::create(&path, 0, FsyncPolicy::Always).expect("create");
            w.append(&batch(0)).expect("append");
            let before = (w.last_seq(), w.len_bytes(), w.appends(), w.syncs());
            w.fault = Some(fault);
            assert!(w.append(&batch(1)).is_err(), "{fault:?}: the append failed");
            assert_eq!((w.last_seq(), w.len_bytes(), w.appends(), w.syncs()), before, "{fault:?}");
            assert_eq!(std::fs::metadata(&path).expect("stat").len(), before.1, "{fault:?}");
            assert_eq!(w.append(&batch(2)).expect("the next append").seq, 2, "{fault:?}");
            drop(w);
            let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("reopen");
            assert_eq!(replay.truncated_bytes, 0, "{fault:?}");
            let seqs: Vec<u64> = replay.records.iter().map(|(seq, _)| *seq).collect();
            assert_eq!(seqs, [1, 2], "{fault:?}");
            assert_eq!(replay.records[1].1.ops(), batch(2).ops(), "{fault:?}");
        }
    }

    #[test]
    fn a_failed_append_that_cannot_be_cut_back_refuses_every_later_one() {
        let path = tmp("append-uncut");
        let mut w = Wal::create(&path, 0, FsyncPolicy::Off).expect("create");
        w.append(&batch(0)).expect("append");
        w.fault = Some(Fault::ShortWriteUncut(21));
        assert!(w.append(&batch(1)).is_err());
        for i in 2..4 {
            assert!(matches!(w.append(&batch(i)), Err(GraphError::Io(_))), "append {i}");
        }
        assert_eq!(w.last_seq(), 1);
        drop(w);
        // The partial frame is a torn tail: recovery cuts it off.
        let (_, replay) = Wal::open(&path, FsyncPolicy::Off).expect("reopen");
        assert_eq!(replay.truncated_bytes, 21);
        assert_eq!(replay.records.len(), 1);
    }
}
