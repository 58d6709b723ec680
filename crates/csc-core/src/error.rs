//! Error types for the CSC index.

use csc_graph::GraphError;
use csc_labeling::LabelingError;
use std::fmt;

/// Errors from building, querying, or maintaining a [`CscIndex`](crate::CscIndex).
///
/// A write fails only when it cannot be applied (a graph error, a
/// labeling overflow), when the writer is poisoned, or when its own
/// deadline passed at admission; no error refuses a write for load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CscError {
    /// A graph-level problem (bad vertex, duplicate/missing edge, ...).
    Graph(GraphError),
    /// A labeling-level problem (capacity overflow).
    Labeling(LabelingError),
    /// The index was left inconsistent by an earlier failed update or a
    /// panic caught on the write path, and must be recovered (from
    /// checkpoint + WAL, or by a rebuild) before further writes. `detail`
    /// names what went wrong.
    Poisoned {
        /// What poisoned the writer (the failed operation or the caught
        /// panic message).
        detail: String,
    },
    /// A persisted byte stream (checkpoint or WAL) failed its framing or
    /// checksum validation: the file is truncated, bit-flipped, or not
    /// what its header claims. Recovery falls back to the previous valid
    /// checkpoint.
    Corrupt {
        /// Which framed section failed (`"magic"`, `"edges"`, `"labels"`,
        /// `"wal-record"`, ...).
        section: String,
        /// What exactly failed (length mismatch, CRC mismatch, ...).
        detail: String,
    },
    /// A serialization problem (unknown format version, unsupported
    /// field value) — the bytes are well-formed but unusable.
    Serial(String),
    /// A degenerate configuration rejected by
    /// [`CscConfig::validate`](crate::CscConfig::validate).
    Config(String),
    /// A deadline-bounded operation found its deadline passed at one of
    /// its clock checks and was aborted: at admission, or, in a read
    /// sweep, at the check before every 16th vertex. The aborted
    /// operation had **no observable effect**: reads write nothing shared,
    /// writes abort only before their commit point (see
    /// `docs/ARCHITECTURE.md`, "Resource guards").
    DeadlineExceeded,
    /// An I/O operation on the durability plane (WAL append/fsync,
    /// checkpoint write/rename/dir-sync) failed and exhausted its
    /// retries. Carries the [`std::io::ErrorKind`] so callers can
    /// distinguish persistent exhaustion (`ENOSPC`) from transient
    /// failures.
    Io {
        /// The instrumented operation that failed (`"wal.append"`,
        /// `"checkpoint.dirsync"`, ...).
        op: String,
        /// The kind of the underlying [`std::io::Error`].
        kind: std::io::ErrorKind,
        /// The underlying error's message.
        detail: String,
    },
}

impl CscError {
    /// Shorthand for a [`CscError::Corrupt`] with owned strings.
    pub fn corrupt(section: impl Into<String>, detail: impl Into<String>) -> Self {
        CscError::Corrupt {
            section: section.into(),
            detail: detail.into(),
        }
    }

    /// Shorthand for a [`CscError::Poisoned`] with an owned detail.
    pub fn poisoned(detail: impl Into<String>) -> Self {
        CscError::Poisoned {
            detail: detail.into(),
        }
    }

    /// Wraps an [`std::io::Error`] from the named durability operation.
    pub fn io(op: impl Into<String>, e: &std::io::Error) -> Self {
        CscError::Io {
            op: op.into(),
            kind: e.kind(),
            detail: e.to_string(),
        }
    }

    /// `true` for errors worth a bounded retry: transient I/O failures.
    /// Corruption, config, and graph errors are deterministic and retries
    /// would only repeat them; `ENOSPC`-style exhaustion is persistent
    /// until an operator intervenes.
    pub fn is_transient_io(&self) -> bool {
        use std::io::ErrorKind as K;
        match self {
            CscError::Io { kind, .. } => !matches!(
                kind,
                K::StorageFull
                    | K::QuotaExceeded
                    | K::ReadOnlyFilesystem
                    | K::PermissionDenied
                    | K::Unsupported
                    | K::NotFound
            ),
            _ => false,
        }
    }
}

impl fmt::Display for CscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CscError::Graph(e) => write!(f, "graph error: {e}"),
            CscError::Labeling(e) => write!(f, "labeling error: {e}"),
            CscError::Poisoned { detail } => write!(
                f,
                "index is poisoned ({detail}); recover or rebuild it before writing"
            ),
            CscError::Corrupt { section, detail } => {
                write!(f, "corrupt {section}: {detail}")
            }
            CscError::Serial(msg) => write!(f, "serialization error: {msg}"),
            CscError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            CscError::DeadlineExceeded => {
                write!(
                    f,
                    "deadline exceeded; the operation was aborted with no effect"
                )
            }
            CscError::Io { op, kind, detail } => {
                write!(f, "i/o error during {op} ({kind:?}): {detail}")
            }
        }
    }
}

impl std::error::Error for CscError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CscError::Graph(e) => Some(e),
            CscError::Labeling(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for CscError {
    fn from(e: GraphError) -> Self {
        CscError::Graph(e)
    }
}

impl From<LabelingError> for CscError {
    fn from(e: LabelingError) -> Self {
        CscError::Labeling(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csc_graph::VertexId;

    #[test]
    fn conversions_and_messages() {
        let e: CscError = GraphError::SelfLoop(VertexId(1)).into();
        assert!(e.to_string().contains("self-loop"));
        assert!(std::error::Error::source(&e).is_some());
        let p = CscError::poisoned("panic in apply_batch: boom");
        assert!(p.to_string().contains("boom"), "{p}");
        assert!(p.to_string().contains("recover"), "{p}");
        assert!(CscError::Serial("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let c = CscError::corrupt("labels", "crc mismatch");
        assert_eq!(c.to_string(), "corrupt labels: crc mismatch");
        assert!(matches!(c, CscError::Corrupt { .. }));
    }
}
