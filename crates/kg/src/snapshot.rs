//! Versioned, checksummed binary snapshots of graph-shaped artifacts.
//!
//! The text triple format ([`crate::io`]) is the portable interchange
//! path, but re-parsing and re-interning millions of lines on every
//! process start is exactly the cold-start cost the reachability-indexing
//! literature warns about. This module defines a compact binary container
//! that round-trips a frozen [`Graph`] — dictionaries, CSR adjacency in
//! both directions, the RDFS schema layer and the per-label edge
//! histogram — in one sequential pass, and exposes the same framing
//! ([`SectionWriter`] / [`SectionReader`]) to downstream crates so other
//! artifacts (the `kgreach` local index, whole engines) serialize into
//! the identical container.
//!
//! # Container layout
//!
//! ```text
//! header   := MAGIC (8 bytes) | format version (u16 LE) | artifact kind (u8) | reserved (u8)
//! section  := tag (u16 LE) | payload length (u64 LE) | payload | XXH64(payload, seed = chain ^ tag)
//! file     := header section* end-section
//! ```
//!
//! Every multi-byte integer is little-endian. The end marker is a normal
//! section with tag 0 and an empty payload, so truncation anywhere —
//! including between sections — is detected. Each section carries an
//! [XXH64] checksum of its payload, seeded with the running **checksum
//! chain** XORed with the section tag; the chain starts at a fixed
//! constant and becomes the previous section's checksum after every
//! frame. Seeding by tag stops a checksum validating a payload that slid
//! to a different section; chaining makes every checksum transitively
//! cover all preceding file content, so a valid frame *spliced in from a
//! different snapshot* fails its own or the following section's checksum
//! instead of being silently accepted. A flipped bit anywhere surfaces as
//! a typed [`GraphError::SnapshotCorrupt`], never as a panic or a
//! silently wrong graph.
//!
//! # Compatibility policy
//!
//! The header pins `(magic, version, kind)`. Readers reject files whose
//! magic is wrong ([`GraphError::SnapshotBadMagic`]), whose version is
//! newer than [`FORMAT_VERSION`] ([`GraphError::SnapshotVersion`]) or
//! whose artifact kind differs from what the caller asked for
//! ([`GraphError::SnapshotKind`]). Any layout change bumps
//! [`FORMAT_VERSION`]; there is no in-place migration — snapshots are
//! caches of regenerable artifacts, so the recovery path is "rebuild and
//! re-save".
//!
//! Beyond checksums, the graph decoder re-validates every structural
//! invariant the query algorithms rely on (offset monotonicity, id
//! ranges, per-vertex label ordering, dictionary uniqueness) and finally
//! recomputes the [`GraphFingerprint`] edge hash, so a snapshot that
//! decodes successfully is indistinguishable from the graph that was
//! saved.
//!
//! [XXH64]: https://github.com/Cyan4973/xxHash
//!
//! ```
//! use kgreach_graph::{snapshot, GraphBuilder};
//!
//! let mut b = GraphBuilder::new();
//! b.add_triple("alice", "knows", "bob");
//! let g = b.build().unwrap();
//!
//! let mut bytes = Vec::new();
//! snapshot::write_graph_snapshot(&g, &mut bytes).unwrap();
//! let restored = snapshot::read_graph_snapshot(&bytes[..]).unwrap();
//! assert_eq!(restored.fingerprint(), g.fingerprint());
//! assert_eq!(restored.vertex_id("alice"), g.vertex_id("alice"));
//! ```

use crate::csr::{Csr, LabeledTarget};
use crate::dict::Dict;
use crate::error::{GraphError, Result};
use crate::graph::{Graph, GraphFingerprint};
use crate::ids::{LabelId, VertexId};
use crate::labelset::MAX_LABELS;
use crate::schema::Schema;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// First bytes of every snapshot file. The trailing `\r\n` catches
/// newline-mangling transports the same way the PNG magic does.
pub const MAGIC: [u8; 8] = *b"KGSNAP\r\n";

/// Highest container format version this build writes and reads.
pub const FORMAT_VERSION: u16 = 1;

/// Tag of the end-of-sections marker.
const END_TAG: u16 = 0;

/// What a snapshot file holds. One file holds exactly one artifact; the
/// kind byte in the header lets loaders fail fast on the wrong file
/// instead of misinterpreting sections.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ArtifactKind {
    /// A frozen [`Graph`].
    Graph = 1,
    /// A `kgreach` local index (partition + landmark entries).
    LocalIndex = 2,
    /// A whole serving engine: a graph followed by an optional local
    /// index, restored together without any rebuild.
    Engine = 3,
}

impl ArtifactKind {
    fn from_u8(byte: u8) -> Option<ArtifactKind> {
        match byte {
            1 => Some(ArtifactKind::Graph),
            2 => Some(ArtifactKind::LocalIndex),
            3 => Some(ArtifactKind::Engine),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// XXH64
// ---------------------------------------------------------------------------

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xxh_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline]
fn xxh_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xxh_round(0, val)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

#[inline]
fn read_u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4-byte slice"))
}

/// The XXH64 hash of `data` under `seed` — the checksum guarding every
/// snapshot section. This is the reference algorithm (verified against
/// the published test vectors), vendored because the dependency policy
/// forbids external hashing crates.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let mut chunks = data.chunks_exact(32);
    let mut hash = if data.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        for chunk in &mut chunks {
            v1 = xxh_round(v1, read_u64_le(&chunk[0..8]));
            v2 = xxh_round(v2, read_u64_le(&chunk[8..16]));
            v3 = xxh_round(v3, read_u64_le(&chunk[16..24]));
            v4 = xxh_round(v4, read_u64_le(&chunk[24..32]));
        }
        let mut h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xxh_merge_round(h, v1);
        h = xxh_merge_round(h, v2);
        h = xxh_merge_round(h, v3);
        xxh_merge_round(h, v4)
    } else {
        seed.wrapping_add(PRIME64_5)
    };

    hash = hash.wrapping_add(data.len() as u64);
    let mut rem = chunks.remainder();
    if data.len() < 32 {
        rem = data;
    }
    while rem.len() >= 8 {
        hash ^= xxh_round(0, read_u64_le(rem));
        hash = hash.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        rem = &rem[8..];
    }
    if rem.len() >= 4 {
        hash ^= u64::from(read_u32_le(rem)).wrapping_mul(PRIME64_1);
        hash = hash.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        rem = &rem[4..];
    }
    for &byte in rem {
        hash ^= u64::from(byte).wrapping_mul(PRIME64_5);
        hash = hash.rotate_left(11).wrapping_mul(PRIME64_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME64_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME64_3);
    hash ^ (hash >> 32)
}

// ---------------------------------------------------------------------------
// Section framing
// ---------------------------------------------------------------------------

/// Initial value of the per-file checksum chain (an arbitrary non-zero
/// constant so the first section's seed is not just its tag).
const CHAIN_INIT: u64 = 0x6B67_736E_6170_0001; // "kgsnap" + 1

/// Seed of a section's checksum: the running chain value mixed with the
/// section tag. Because the chain is the *previous section's checksum*,
/// every checksum transitively covers all preceding file content — a
/// valid frame spliced in from another snapshot fails its own checksum
/// (different chain) or breaks the next section's.
#[inline]
fn chain_seed(chain: u64, tag: u16) -> u64 {
    chain ^ u64::from(tag)
}

/// Writes one snapshot container: header, then checksummed sections, then
/// the end marker via [`finish`](Self::finish).
#[derive(Debug)]
pub struct SectionWriter<W: Write> {
    inner: W,
    chain: u64,
}

impl<W: Write> SectionWriter<W> {
    /// Starts a container of the given artifact kind (writes the header).
    pub fn new(mut inner: W, kind: ArtifactKind) -> Result<SectionWriter<W>> {
        inner.write_all(&MAGIC)?;
        inner.write_all(&FORMAT_VERSION.to_le_bytes())?;
        inner.write_all(&[kind as u8, 0])?;
        Ok(SectionWriter { inner, chain: CHAIN_INIT })
    }

    fn write_raw(&mut self, tag: u16, payload: &[u8]) -> Result<()> {
        self.inner.write_all(&tag.to_le_bytes())?;
        self.inner.write_all(&(payload.len() as u64).to_le_bytes())?;
        self.inner.write_all(payload)?;
        let sum = xxh64(payload, chain_seed(self.chain, tag));
        self.chain = sum;
        self.inner.write_all(&sum.to_le_bytes())?;
        Ok(())
    }

    /// Appends one section. Tag 0 is reserved for the end marker.
    pub fn section(&mut self, tag: u16, payload: &[u8]) -> Result<()> {
        debug_assert_ne!(tag, END_TAG, "section tag 0 is the end marker");
        self.write_raw(tag, payload)
    }

    /// Writes the end marker, flushes, and returns the inner writer.
    pub fn finish(mut self) -> Result<W> {
        self.write_raw(END_TAG, &[])?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn truncated(section: &'static str) -> GraphError {
    GraphError::SnapshotCorrupt { section, message: "file is truncated".into() }
}

/// Reads one snapshot container written by [`SectionWriter`] from an
/// in-memory byte slice, validating the header up front and each
/// section's length and chained checksum as it is consumed. Section
/// payloads are borrowed from the buffer, never copied (one CSR section
/// of a multi-million-edge snapshot is tens of MiB). All failure modes
/// are typed [`GraphError`]s; corrupt input never panics. The usual way
/// to obtain the slice is [`std::fs::read`] (see [`load_graph_snapshot`]);
/// a caller holding a [`std::io::Read`] calls `read_to_end` first.
#[derive(Debug)]
pub struct SectionReader<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: ArtifactKind,
    chain: u64,
}

impl<'a> SectionReader<'a> {
    /// Opens a container held in memory: validates magic, version, and
    /// the kind byte.
    pub fn new(buf: &'a [u8]) -> Result<SectionReader<'a>> {
        // A buffer too short to hold the magic is, a fortiori, not a
        // snapshot — report bad magic, not truncation.
        if buf.len() < MAGIC.len() || buf[..MAGIC.len()] != MAGIC {
            return Err(GraphError::SnapshotBadMagic);
        }
        if buf.len() < 12 {
            return Err(truncated("header"));
        }
        let version = u16::from_le_bytes([buf[8], buf[9]]);
        if version != FORMAT_VERSION {
            return Err(GraphError::SnapshotVersion { found: version, supported: FORMAT_VERSION });
        }
        let kind = ArtifactKind::from_u8(buf[10]).ok_or(GraphError::SnapshotCorrupt {
            section: "header",
            message: format!("unknown artifact kind byte {}", buf[10]),
        })?;
        Ok(SectionReader { buf, pos: 12, kind, chain: CHAIN_INIT })
    }

    /// Rejects the container unless it holds the expected artifact.
    pub fn expect_kind(&self, expected: ArtifactKind) -> Result<()> {
        if self.kind == expected {
            Ok(())
        } else {
            Err(GraphError::SnapshotKind { expected: expected as u8, found: self.kind as u8 })
        }
    }

    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(truncated(section));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_frame(&mut self, section: &'static str) -> Result<(u16, &'a [u8])> {
        let tag = u16::from_le_bytes(self.take(2, section)?.try_into().expect("2-byte slice"));
        let len = u64::from_le_bytes(self.take(8, section)?.try_into().expect("8-byte slice"));
        // A corrupted length field that exceeds the remaining bytes is a
        // truncation.
        if len > (self.buf.len() - self.pos) as u64 {
            return Err(truncated(section));
        }
        let payload = self.take(len as usize, section)?;
        let expected = u64::from_le_bytes(self.take(8, section)?.try_into().expect("8-byte slice"));
        let actual = xxh64(payload, chain_seed(self.chain, tag));
        if expected != actual {
            return Err(GraphError::SnapshotCorrupt {
                section,
                message: format!(
                    "checksum mismatch (stored {expected:016x}, computed {actual:016x})"
                ),
            });
        }
        self.chain = actual;
        Ok((tag, payload))
    }

    /// Reads the next section, requiring it to carry `expected_tag`; the
    /// returned payload borrows from the underlying buffer.
    pub fn section(&mut self, expected_tag: u16, section: &'static str) -> Result<&'a [u8]> {
        let (tag, payload) = self.read_frame(section)?;
        if tag != expected_tag {
            return Err(GraphError::SnapshotCorrupt {
                section,
                message: format!("expected section tag {expected_tag}, found {tag}"),
            });
        }
        Ok(payload)
    }

    /// Consumes the end marker, which must be the last bytes of the
    /// buffer (trailing garbage is corruption, not slack).
    pub fn end(mut self) -> Result<()> {
        let (tag, payload) = self.read_frame("end")?;
        if tag != END_TAG || !payload.is_empty() {
            return Err(GraphError::SnapshotCorrupt {
                section: "end",
                message: format!("expected end marker, found section tag {tag}"),
            });
        }
        let trailing = self.buf.len() - self.pos;
        if trailing != 0 {
            return Err(GraphError::SnapshotCorrupt {
                section: "end",
                message: format!("{trailing} trailing bytes after the end marker"),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Payload encoding/decoding
// ---------------------------------------------------------------------------

/// Builds one section payload from primitive little-endian fields.
#[derive(Debug, Default)]
pub struct PayloadBuf {
    buf: Vec<u8>,
}

impl PayloadBuf {
    /// Creates an empty payload buffer.
    pub fn new() -> PayloadBuf {
        PayloadBuf::default()
    }

    /// Creates a payload buffer with a capacity hint.
    pub fn with_capacity(cap: usize) -> PayloadBuf {
        PayloadBuf { buf: Vec::with_capacity(cap) }
    }

    /// Appends a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub(crate) fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// The encoded bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Decodes one section payload; every accessor returns a typed
/// [`GraphError::SnapshotCorrupt`] on under- or overrun.
#[derive(Debug)]
pub struct PayloadCursor<'a> {
    buf: &'a [u8],
    section: &'static str,
}

impl<'a> PayloadCursor<'a> {
    /// Wraps a payload for decoding; `section` labels decode errors.
    pub fn new(buf: &'a [u8], section: &'static str) -> PayloadCursor<'a> {
        PayloadCursor { buf, section }
    }

    /// Builds a decode error attributed to this payload's section.
    pub fn corrupt(&self, message: impl Into<String>) -> GraphError {
        GraphError::SnapshotCorrupt { section: self.section, message: message.into() }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < n {
            return Err(self.corrupt("payload is shorter than its encoding requires"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2-byte slice")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// Reads a `u64` and converts it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| self.corrupt(format!("value {v} overflows usize")))
    }

    /// Reads `n` raw bytes — the bulk path for fixed-stride arrays,
    /// where per-field accessor calls would dominate decode time.
    pub(crate) fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| self.corrupt("string is not valid UTF-8"))
    }

    /// Asserts the payload was fully consumed (trailing garbage is
    /// corruption, not slack).
    pub fn finish(self) -> Result<()> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(GraphError::SnapshotCorrupt {
                section: self.section,
                message: format!("{} trailing bytes after the last field", self.buf.len()),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// Graph sections
// ---------------------------------------------------------------------------

/// Section order of a graph artifact (format v1): meta, vertex names,
/// label names, out-CSR, in-CSR, schema, label histogram.
const TAG_GRAPH_META: u16 = 1;
const TAG_GRAPH_VERTICES: u16 = 2;
const TAG_GRAPH_LABELS: u16 = 3;
const TAG_GRAPH_OUT: u16 = 4;
const TAG_GRAPH_IN: u16 = 5;
const TAG_GRAPH_SCHEMA: u16 = 6;
const TAG_GRAPH_HISTOGRAM: u16 = 7;

/// `Option<LabelId>` sentinel in the schema section.
const NO_LABEL: u16 = u16::MAX;

fn encode_dict(dict: &Dict) -> PayloadBuf {
    let mut p = PayloadBuf::with_capacity(8 + dict.len() * 16);
    p.put_usize(dict.len());
    for (_, name) in dict.iter() {
        p.put_str(name);
    }
    p
}

fn decode_dict(payload: &[u8], section: &'static str, expected_len: usize) -> Result<Dict> {
    let mut c = PayloadCursor::new(payload, section);
    let count = c.get_usize()?;
    if count != expected_len {
        return Err(c.corrupt(format!("dictionary holds {count} names, meta says {expected_len}")));
    }
    let mut names: Vec<&str> = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        // Borrowed from the payload; `from_names` copies them into the
        // dictionary's one string.
        let len = c.get_u32()? as usize;
        let name = std::str::from_utf8(c.get_bytes(len)?)
            .map_err(|_| c.corrupt("dictionary name is not valid UTF-8"))?;
        names.push(name);
    }
    let err = c.corrupt("dictionary holds duplicate names");
    c.finish()?;
    Dict::from_names(&names).ok_or(err)
}

fn encode_csr(csr: &Csr) -> PayloadBuf {
    let mut p = PayloadBuf::with_capacity(csr.offsets().len() * 4 + csr.targets().len() * 6 + 16);
    p.put_usize(csr.offsets().len());
    for &off in csr.offsets() {
        p.put_u32(off);
    }
    p.put_usize(csr.targets().len());
    for t in csr.targets() {
        p.put_u16(t.label.0);
        p.put_u32(t.vertex.0);
    }
    p
}

fn decode_csr(
    payload: &[u8],
    section: &'static str,
    num_vertices: usize,
    num_edges: usize,
    num_labels: usize,
) -> Result<Csr> {
    let mut c = PayloadCursor::new(payload, section);
    let num_offsets = c.get_usize()?;
    if num_offsets != num_vertices + 1 {
        return Err(c.corrupt(format!(
            "offset array has {num_offsets} entries, expected |V|+1 = {}",
            num_vertices + 1
        )));
    }
    // Bulk-decode both fixed-stride arrays: one bounds check per array
    // instead of one per element (snapshot load is the cold-start path
    // the whole module exists to make fast).
    let off_bytes = c.get_bytes(num_offsets * 4)?;
    let mut offsets = Vec::with_capacity(num_offsets);
    offsets.extend(
        off_bytes.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4-byte chunk"))),
    );
    if offsets[0] != 0 {
        return Err(c.corrupt("first offset is not 0"));
    }
    if let Some(i) = offsets.windows(2).position(|w| w[0] > w[1]) {
        return Err(c.corrupt(format!("offsets decrease at index {}", i + 1)));
    }
    if offsets[num_vertices] as usize != num_edges {
        return Err(c.corrupt(format!(
            "last offset {} does not equal |E| = {num_edges}",
            offsets[num_vertices]
        )));
    }
    let num_targets = c.get_usize()?;
    if num_targets != num_edges {
        return Err(c.corrupt(format!("{num_targets} targets stored, meta says {num_edges}")));
    }
    let target_bytes = c.get_bytes(num_targets * 6)?;
    let mut targets = Vec::with_capacity(num_targets);
    for chunk in target_bytes.chunks_exact(6) {
        let label = u16::from_le_bytes([chunk[0], chunk[1]]);
        let vertex = u32::from_le_bytes([chunk[2], chunk[3], chunk[4], chunk[5]]);
        if label as usize >= num_labels {
            return Err(c.corrupt(format!("label id {label} out of range")));
        }
        if vertex as usize >= num_vertices {
            return Err(c.corrupt(format!("vertex id {vertex} out of range")));
        }
        targets.push(LabeledTarget { label: LabelId(label), vertex: VertexId(vertex) });
    }
    // Per-vertex (label, vertex) ordering is what neighbors_with_label's
    // binary search relies on — a violation would mean silently wrong
    // query answers, so it is rejected here.
    for v in 0..num_vertices {
        let lo = offsets[v] as usize;
        let hi = offsets[v + 1] as usize;
        let slice = &targets[lo..hi];
        if slice.windows(2).any(|w| (w[0].label, w[0].vertex) > (w[1].label, w[1].vertex)) {
            return Err(c.corrupt(format!("adjacency of vertex {v} is not label-sorted")));
        }
    }
    c.finish()?;
    Ok(Csr::from_parts(offsets, targets))
}

fn encode_schema(schema: &Schema) -> PayloadBuf {
    let mut p = PayloadBuf::new();
    for slot in [schema.type_label, schema.subclass_label, schema.domain_label, schema.range_label]
    {
        p.put_u16(slot.map_or(NO_LABEL, |l| l.0));
    }
    p.put_usize(schema.num_classes());
    for (class, instances) in schema.iter_classes() {
        p.put_u32(class.0);
        p.put_usize(instances.len());
        for inst in instances {
            p.put_u32(inst.0);
        }
    }
    p
}

fn decode_schema(payload: &[u8], num_vertices: usize, num_labels: usize) -> Result<Schema> {
    let mut c = PayloadCursor::new(payload, "schema");
    let mut schema = Schema::default();
    let mut slots = [None; 4];
    for slot in &mut slots {
        let raw = c.get_u16()?;
        if raw != NO_LABEL {
            if raw as usize >= num_labels {
                return Err(c.corrupt(format!("vocabulary label id {raw} out of range")));
            }
            *slot = Some(LabelId(raw));
        }
    }
    [schema.type_label, schema.subclass_label, schema.domain_label, schema.range_label] = slots;
    let num_classes = c.get_usize()?;
    for _ in 0..num_classes {
        let class = c.get_u32()?;
        if class as usize >= num_vertices {
            return Err(c.corrupt(format!("class vertex id {class} out of range")));
        }
        schema.add_class(VertexId(class));
        let num_instances = c.get_usize()?;
        for _ in 0..num_instances {
            let inst = c.get_u32()?;
            if inst as usize >= num_vertices {
                return Err(c.corrupt(format!("instance vertex id {inst} out of range")));
            }
            schema.add_instance(VertexId(class), VertexId(inst));
        }
    }
    c.finish()?;
    Ok(schema)
}

/// Writes the graph sections of format v1 into an open container. Most
/// callers want [`write_graph_snapshot`]; this entry point exists so
/// composite artifacts (engine snapshots) can embed a graph.
///
/// A live graph (one with a delta overlay of
/// applied updates) is **compacted on the fly**: the snapshot format
/// stores only clean CSR arrays, so the merged view is re-frozen into a
/// temporary and encoded — ids, schema, statistics and the fingerprint
/// are identical to the live graph's, and loading yields a compact graph
/// with the same content (the overlay and the epoch counter are serving
/// state, not data, and are not persisted).
pub fn write_graph_sections<W: Write>(g: &Graph, w: &mut SectionWriter<W>) -> Result<()> {
    if g.has_overlay() {
        let compacted = g.compacted();
        return write_graph_sections(&compacted, w);
    }
    let fp = g.fingerprint();
    let mut meta = PayloadBuf::with_capacity(32);
    meta.put_usize(fp.num_vertices);
    meta.put_usize(fp.num_edges);
    meta.put_usize(fp.num_labels);
    meta.put_u64(fp.edge_hash);
    w.section(TAG_GRAPH_META, meta.as_slice())?;

    w.section(TAG_GRAPH_VERTICES, encode_dict(g.vertex_dict()).as_slice())?;
    w.section(TAG_GRAPH_LABELS, encode_dict(g.label_dict()).as_slice())?;
    w.section(TAG_GRAPH_OUT, encode_csr(g.out_csr()).as_slice())?;
    w.section(TAG_GRAPH_IN, encode_csr(g.in_csr()).as_slice())?;
    w.section(TAG_GRAPH_SCHEMA, encode_schema(g.schema()).as_slice())?;

    let histogram = g.label_histogram();
    let mut hist = PayloadBuf::with_capacity(8 + histogram.len() * 8);
    hist.put_usize(histogram.len());
    for &count in histogram {
        hist.put_usize(count);
    }
    w.section(TAG_GRAPH_HISTOGRAM, hist.as_slice())
}

/// Reads the graph sections of format v1 from an open container,
/// revalidating every structural invariant and the fingerprint.
/// Counterpart of [`write_graph_sections`].
pub fn read_graph_sections(r: &mut SectionReader<'_>) -> Result<Graph> {
    let mut meta = PayloadCursor::new(r.section(TAG_GRAPH_META, "meta")?, "meta");
    let num_vertices = meta.get_usize()?;
    let num_edges = meta.get_usize()?;
    let num_labels = meta.get_usize()?;
    let edge_hash = meta.get_u64()?;
    if num_labels > MAX_LABELS {
        return Err(meta.corrupt(format!("{num_labels} labels exceed MAX_LABELS {MAX_LABELS}")));
    }
    if num_vertices > u32::MAX as usize || num_edges > u32::MAX as usize {
        return Err(meta.corrupt("vertex or edge count overflows the 32-bit id space"));
    }
    meta.finish()?;
    let stored = GraphFingerprint { num_vertices, num_edges, num_labels, edge_hash };

    let vertex_dict =
        decode_dict(r.section(TAG_GRAPH_VERTICES, "vertices")?, "vertices", num_vertices)?;
    let label_dict = decode_dict(r.section(TAG_GRAPH_LABELS, "labels")?, "labels", num_labels)?;
    let out = decode_csr(
        r.section(TAG_GRAPH_OUT, "out-csr")?,
        "out-csr",
        num_vertices,
        num_edges,
        num_labels,
    )?;
    let inn = decode_csr(
        r.section(TAG_GRAPH_IN, "in-csr")?,
        "in-csr",
        num_vertices,
        num_edges,
        num_labels,
    )?;
    let schema = decode_schema(r.section(TAG_GRAPH_SCHEMA, "schema")?, num_vertices, num_labels)?;

    let mut hist = PayloadCursor::new(r.section(TAG_GRAPH_HISTOGRAM, "histogram")?, "histogram");
    let hist_len = hist.get_usize()?;
    if hist_len != num_labels {
        return Err(
            hist.corrupt(format!("histogram has {hist_len} buckets, meta says {num_labels}"))
        );
    }
    let mut histogram = vec![0usize; num_labels];
    for bucket in &mut histogram {
        *bucket = hist.get_usize()?;
    }
    let mut observed = vec![0usize; num_labels];
    for t in out.targets() {
        observed[t.label.index()] += 1;
    }
    if observed != histogram {
        return Err(hist.corrupt("label histogram disagrees with the stored adjacency"));
    }
    hist.finish()?;

    let g = Graph::from_parts(vertex_dict, label_dict, out, inn, schema, histogram);
    let actual = g.fingerprint();
    if actual != stored {
        return Err(GraphError::SnapshotCorrupt {
            section: "meta",
            message: format!("fingerprint mismatch: stored [{stored}], recomputed [{actual}]"),
        });
    }
    Ok(g)
}

/// Writes a complete graph snapshot (header + sections + end marker).
pub fn write_graph_snapshot<W: Write>(g: &Graph, writer: W) -> Result<()> {
    let mut w = SectionWriter::new(BufWriter::new(writer), ArtifactKind::Graph)?;
    write_graph_sections(g, &mut w)?;
    w.finish()?;
    Ok(())
}

/// Reads a complete graph snapshot written by [`write_graph_snapshot`]
/// from memory.
pub fn read_graph_snapshot(bytes: &[u8]) -> Result<Graph> {
    let mut r = SectionReader::new(bytes)?;
    r.expect_kind(ArtifactKind::Graph)?;
    let g = read_graph_sections(&mut r)?;
    r.end()?;
    Ok(g)
}

/// Saves a graph snapshot to a file path.
pub fn save_graph_snapshot(g: &Graph, path: impl AsRef<Path>) -> Result<()> {
    write_graph_snapshot(g, File::create(path)?)
}

/// Loads a graph snapshot from a file path: one bulk read, then
/// [`read_graph_snapshot`] over the buffer.
pub fn load_graph_snapshot(path: impl AsRef<Path>) -> Result<Graph> {
    read_graph_snapshot(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn sample() -> Graph {
        let mut b = GraphBuilder::new();
        b.add_triple("alice", "knows", "bob");
        b.add_triple("bob", "knows", "carol");
        b.add_triple("carol", "likes", "alice");
        b.add_triple("alice", "rdf:type", "Person");
        b.add_triple("Person", "rdfs:subClassOf", "Agent");
        b.build().unwrap()
    }

    fn snapshot_bytes(g: &Graph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_graph_snapshot(g, &mut bytes).unwrap();
        bytes
    }

    #[test]
    fn xxh64_reference_vectors() {
        // Published reference vectors for the XXH64 algorithm.
        assert_eq!(xxh64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"Nobody inspects the spammish repetition", 0), 0xFBCE_A83C_8A37_8BF1);
        // Seeds change the hash; equal input+seed is deterministic.
        assert_ne!(xxh64(b"abc", 0), xxh64(b"abc", 1));
        assert_eq!(xxh64(b"abc", 7), xxh64(b"abc", 7));
    }

    #[test]
    fn graph_roundtrip_is_identity() {
        let g = sample();
        let bytes = snapshot_bytes(&g);
        let g2 = read_graph_snapshot(&bytes[..]).unwrap();
        assert_eq!(g2.fingerprint(), g.fingerprint());
        // Dictionaries: same names at the same ids.
        for v in g.vertices() {
            assert_eq!(g2.vertex_name(v), g.vertex_name(v));
        }
        for l in 0..g.num_labels() as u16 {
            assert_eq!(g2.label_name(LabelId(l)), g.label_name(LabelId(l)));
        }
        // Adjacency, both directions.
        for v in g.vertices() {
            assert_eq!(g2.out_neighbors(v), g.out_neighbors(v));
            assert_eq!(g2.in_neighbors(v), g.in_neighbors(v));
        }
        // Schema.
        assert_eq!(g2.schema().type_label, g.schema().type_label);
        assert_eq!(g2.schema().subclass_label, g.schema().subclass_label);
        assert_eq!(g2.schema().num_classes(), g.schema().num_classes());
        for (class, instances) in g.schema().iter_classes() {
            assert_eq!(g2.schema().instances_of(class), instances);
        }
    }

    #[test]
    fn empty_graph_roundtrips() {
        let g = GraphBuilder::new().build().unwrap();
        let g2 = read_graph_snapshot(&snapshot_bytes(&g)[..]).unwrap();
        assert_eq!(g2.num_vertices(), 0);
        assert_eq!(g2.num_edges(), 0);
        assert_eq!(g2.fingerprint(), g.fingerprint());
    }

    #[test]
    fn file_roundtrip() {
        let g = sample();
        let dir = std::env::temp_dir().join("kgreach_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.kgsnap");
        save_graph_snapshot(&g, &path).unwrap();
        let g2 = load_graph_snapshot(&path).unwrap();
        assert_eq!(g2.fingerprint(), g.fingerprint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = snapshot_bytes(&sample());
        bytes[0] ^= 0xFF;
        assert!(matches!(read_graph_snapshot(&bytes[..]), Err(GraphError::SnapshotBadMagic)));
        // Not even a full header.
        assert!(matches!(read_graph_snapshot(&b"KG"[..]), Err(GraphError::SnapshotBadMagic)));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = snapshot_bytes(&sample());
        bytes[8] = 0xFF; // low byte of the version field
        match read_graph_snapshot(&bytes[..]) {
            Err(GraphError::SnapshotVersion { found, supported }) => {
                assert_eq!(found, 0x00FF);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected SnapshotVersion, got {other:?}"),
        }
    }

    #[test]
    fn wrong_artifact_kind_rejected() {
        let g = sample();
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(&mut bytes, ArtifactKind::LocalIndex).unwrap();
        write_graph_sections(&g, &mut w).unwrap();
        w.finish().unwrap();
        match read_graph_snapshot(&bytes[..]) {
            Err(GraphError::SnapshotKind { expected, found }) => {
                assert_eq!(expected, ArtifactKind::Graph as u8);
                assert_eq!(found, ArtifactKind::LocalIndex as u8);
            }
            other => panic!("expected SnapshotKind, got {other:?}"),
        }
    }

    #[test]
    fn every_flipped_byte_is_detected() {
        // Flip each byte after the header: the result must be a typed
        // error (checksum/structure), never a panic and never Ok with a
        // different graph.
        let bytes = snapshot_bytes(&sample());
        for i in 12..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            assert!(read_graph_snapshot(&mutated[..]).is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = snapshot_bytes(&sample());
        for len in 0..bytes.len() {
            match read_graph_snapshot(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("truncation to {len} bytes went undetected"),
            }
        }
    }

    /// Byte ranges of each section frame `(tag, start..end)` in a
    /// snapshot, walked from the raw framing.
    fn frame_ranges(bytes: &[u8]) -> Vec<(u16, std::ops::Range<usize>)> {
        let mut pos = 12; // header
        let mut out = Vec::new();
        while pos < bytes.len() {
            let tag = u16::from_le_bytes([bytes[pos], bytes[pos + 1]]);
            let len = u64::from_le_bytes(bytes[pos + 2..pos + 10].try_into().unwrap()) as usize;
            let end = pos + 10 + len + 8;
            out.push((tag, pos..end));
            pos = end;
            if tag == END_TAG {
                break;
            }
        }
        out
    }

    /// Replaces the `idx`-th section frame of `dst` with the `idx`-th
    /// frame of `src`.
    fn splice_frame(dst: &[u8], src: &[u8], idx: usize) -> Vec<u8> {
        let (_, d) = frame_ranges(dst)[idx].clone();
        let (_, s) = frame_ranges(src)[idx].clone();
        let mut out = Vec::with_capacity(dst.len());
        out.extend_from_slice(&dst[..d.start]);
        out.extend_from_slice(&src[s.clone()]);
        out.extend_from_slice(&dst[d.end..]);
        out
    }

    #[test]
    fn spliced_sections_from_another_snapshot_rejected() {
        // Two graphs with identical |V|/|E|/|L| and identical dictionaries
        // but different edges. Every intact section frame transplanted
        // from B's snapshot into A's must be rejected (checksum chain),
        // never accepted as a silent chimera of the two graphs.
        let mut a = GraphBuilder::new();
        a.add_triple("a", "p", "b");
        a.add_triple("b", "p", "c");
        let a = a.build().unwrap();
        let mut b = GraphBuilder::new();
        b.add_triple("a", "p", "b");
        b.add_triple("c", "p", "b");
        let b = b.build().unwrap();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        assert_ne!(a.fingerprint(), b.fingerprint(), "fixture sanity: edges differ");

        let bytes_a = snapshot_bytes(&a);
        let bytes_b = snapshot_bytes(&b);
        let frames = frame_ranges(&bytes_a).len();
        assert_eq!(frames, 8, "7 graph sections + end marker");
        for idx in 0..frames {
            let chimera = splice_frame(&bytes_a, &bytes_b, idx);
            assert!(
                read_graph_snapshot(&chimera[..]).is_err(),
                "section {idx} spliced from a different snapshot was accepted"
            );
        }
    }

    #[test]
    fn spliced_dictionary_is_caught_by_the_chain() {
        // The hardest splice: two graphs that are structurally identical
        // (equal fingerprints, equal meta section) and differ only in
        // vertex names. The transplanted vertex-dict frame itself carries
        // a *valid* checksum under the shared prefix — the chain catches
        // the swap at the next section instead.
        let mut a = GraphBuilder::new();
        a.add_triple("a", "p", "b");
        let a = a.build().unwrap();
        let mut b = GraphBuilder::new();
        b.add_triple("x", "p", "y");
        let b = b.build().unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "fixture sanity: same structure");

        let bytes_a = snapshot_bytes(&a);
        let bytes_b = snapshot_bytes(&b);
        let chimera = splice_frame(&bytes_a, &bytes_b, 1); // vertex dict
        assert!(
            read_graph_snapshot(&chimera[..]).is_err(),
            "vertex dictionary spliced between structurally equal snapshots was accepted"
        );
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // A payload longer than its fields is corruption, not slack.
        let mut bytes = Vec::new();
        let mut w = SectionWriter::new(&mut bytes, ArtifactKind::Graph).unwrap();
        let mut meta = PayloadBuf::new();
        meta.put_usize(0);
        meta.put_usize(0);
        meta.put_usize(0);
        meta.put_u64(0);
        meta.put_u8(0xAB); // extra byte
        w.section(TAG_GRAPH_META, meta.as_slice()).unwrap();
        w.finish().unwrap();
        match read_graph_snapshot(&bytes[..]) {
            Err(GraphError::SnapshotCorrupt { section, .. }) => assert_eq!(section, "meta"),
            other => panic!("expected SnapshotCorrupt, got {other:?}"),
        }
        // So are bytes after the end marker: one stray byte, or a whole
        // second snapshot.
        let bytes = snapshot_bytes(&sample());
        for tail in [&[0u8][..], &bytes[..]] {
            match read_graph_snapshot(&[&bytes[..], tail].concat()) {
                Err(GraphError::SnapshotCorrupt { section, message }) => {
                    assert_eq!(section, "end");
                    assert_eq!(
                        message,
                        format!("{} trailing bytes after the end marker", tail.len())
                    );
                }
                other => panic!("expected SnapshotCorrupt, got {other:?}"),
            }
        }
    }
}
