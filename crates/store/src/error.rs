//! Store error type.

use std::fmt;

/// Everything that can go wrong writing or reading a trace store.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// A malformed store file (bad magic, truncated chunk, bad varint).
    Format(String),
    /// A record pushed out of time order — the chunk codec
    /// delta-encodes timestamps and the footer's per-chunk time ranges
    /// must be disjoint, so writers require nondecreasing `micros`.
    OutOfOrder {
        /// Timestamp of the previously accepted record.
        prev: u64,
        /// The offending earlier timestamp.
        next: u64,
    },
    /// A live segment chain refused work because an earlier seal — or
    /// a write to its hot segment, or a compaction pass a seal started
    /// — failed. The records of that segment are not in the durable
    /// trace, so nothing the chain would produce afterwards could be
    /// trusted; the first failure itself was returned once, as it
    /// happened.
    Poisoned {
        /// The segment whose write or seal failed.
        segment: std::path::PathBuf,
        /// That first failure, as displayed.
        cause: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(msg) => write!(f, "malformed store: {msg}"),
            StoreError::OutOfOrder { prev, next } => write!(
                f,
                "record pushed out of time order: {next} after {prev} (sort the stream first)"
            ),
            StoreError::Poisoned { segment, cause } => write!(
                f,
                "segment chain refuses work: {} failed earlier: {cause}",
                segment.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;
