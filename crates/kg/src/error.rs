//! Error types for the knowledge-graph substrate.

use std::fmt;

/// Errors raised while building or loading a knowledge graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The graph uses more distinct edge labels than the label-set
    /// machinery supports (see [`MAX_LABELS`][crate::MAX_LABELS]).
    TooManyLabels {
        /// Number of labels requested.
        requested: usize,
        /// Maximum supported.
        max: usize,
    },
    /// A vertex id referenced by an edge or query is out of range.
    VertexOutOfRange {
        /// The offending id.
        id: u32,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// A serialized graph file could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description.
        message: String,
    },
    /// An I/O error, stringified (keeps the error type `Clone + Eq`).
    Io(String),
    /// A binary snapshot file does not start with the snapshot magic —
    /// it is not a snapshot at all (or was mangled in transit).
    SnapshotBadMagic,
    /// A binary snapshot was written by a newer (or otherwise unknown)
    /// format version than this build supports.
    SnapshotVersion {
        /// Version found in the file header.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// A binary snapshot holds a different artifact than the caller asked
    /// for (e.g. a local-index snapshot fed to the graph loader).
    SnapshotKind {
        /// Artifact kind the caller expected (see `snapshot::ArtifactKind`).
        expected: u8,
        /// Artifact kind found in the file header.
        found: u8,
    },
    /// A binary snapshot is corrupt: truncated, failed a section checksum,
    /// or violated a structural invariant on decode. Never panics, never
    /// yields a half-built value — the snapshot is rejected wholesale.
    SnapshotCorrupt {
        /// The section being decoded when corruption was detected.
        section: &'static str,
        /// Human-readable description of the failure.
        message: String,
    },
    /// A write-ahead log file does not start with the WAL magic — it is
    /// not a log at all (or was mangled in transit).
    WalBadMagic,
    /// A write-ahead log was written by a newer (or otherwise unknown)
    /// format version than this build supports.
    WalVersion {
        /// Version found in the file header.
        found: u16,
        /// Highest version this build reads.
        supported: u16,
    },
    /// A write-ahead log is corrupt *mid-stream*: a complete record failed
    /// its checksum, its sequence number broke the monotone chain, or its
    /// payload did not decode. Distinct from a torn tail (a crash-truncated
    /// final record), which recovery truncates silently — mid-log damage
    /// means acknowledged records after the damage point would be lost, so
    /// it is always surfaced as this typed error, never repaired.
    WalCorrupt {
        /// Byte offset of the record where corruption was detected.
        offset: u64,
        /// Human-readable description of the failure.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::TooManyLabels { requested, max } => write!(
                f,
                "graph has {requested} distinct edge labels, but at most {max} are supported"
            ),
            GraphError::VertexOutOfRange { id, num_vertices } => {
                write!(f, "vertex id {id} out of range (graph has {num_vertices} vertices)")
            }
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(e) => write!(f, "i/o error: {e}"),
            GraphError::SnapshotBadMagic => {
                write!(f, "not a kgreach snapshot (bad magic bytes)")
            }
            GraphError::SnapshotVersion { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads up to \
                 version {supported})"
            ),
            GraphError::SnapshotKind { expected, found } => {
                write!(f, "snapshot holds artifact kind {found}, expected kind {expected}")
            }
            GraphError::SnapshotCorrupt { section, message } => {
                write!(f, "corrupt snapshot ({section} section): {message}")
            }
            GraphError::WalBadMagic => {
                write!(f, "not a kgreach write-ahead log (bad magic bytes)")
            }
            GraphError::WalVersion { found, supported } => write!(
                f,
                "write-ahead log format version {found} is not supported (this build reads up \
                 to version {supported})"
            ),
            GraphError::WalCorrupt { offset, message } => {
                write!(f, "corrupt write-ahead log (record at byte {offset}): {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

/// Convenience alias for graph-substrate results.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::TooManyLabels { requested: 90, max: 64 };
        assert!(e.to_string().contains("90"));
        assert!(e.to_string().contains("64"));

        let e = GraphError::VertexOutOfRange { id: 5, num_vertices: 3 };
        assert!(e.to_string().contains("vertex id 5"));

        let e = GraphError::Parse { line: 12, message: "bad triple".into() };
        assert!(e.to_string().contains("line 12"));
    }

    #[test]
    fn snapshot_errors_are_informative() {
        assert!(GraphError::SnapshotBadMagic.to_string().contains("magic"));
        let e = GraphError::SnapshotVersion { found: 9, supported: 1 };
        assert!(e.to_string().contains('9') && e.to_string().contains('1'));
        let e = GraphError::SnapshotKind { expected: 1, found: 2 };
        assert!(e.to_string().contains("kind 2"));
        let e = GraphError::SnapshotCorrupt { section: "meta", message: "checksum".into() };
        assert!(e.to_string().contains("meta") && e.to_string().contains("checksum"));
    }

    #[test]
    fn wal_errors_are_informative() {
        assert!(GraphError::WalBadMagic.to_string().contains("magic"));
        let e = GraphError::WalVersion { found: 7, supported: 1 };
        assert!(e.to_string().contains('7') && e.to_string().contains('1'));
        let e = GraphError::WalCorrupt { offset: 42, message: "checksum mismatch".into() };
        assert!(e.to_string().contains("42") && e.to_string().contains("checksum"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}
