//! The store's typed errors over the shared filesystem seam.
//!
//! Every byte `TrackStore` reads or writes flows through one injectable
//! [`otif_core::durable::Io`]: [`otif_core::durable::RealIo`] in
//! production, [`otif_core::durable::FaultyIo`] in tests and the
//! robustness bench. The engine's run journal uses the same seam, so a
//! fault plan addresses both directories the same way.
//!
//! Errors are typed ([`StoreError`]) so callers can tell corruption
//! from absence from plain I/O failure — the distinction drives
//! quarantine, retry and degraded-answer decisions upstream. An
//! [`std::io::Error`] converts by its kind: `NotFound` is
//! [`StoreError::Missing`], anything else [`StoreError::Io`].

use std::fmt;
use std::io;

/// A typed store failure: I/O, corruption, absence, quarantine or a
/// store-level invariant violation. Replaces the stringly errors the
/// serving tier used before.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Underlying I/O failure (possibly transient — the store retries
    /// reads with deterministic backoff before giving up).
    Io {
        /// OS / injected error description, naming the path.
        detail: String,
    },
    /// File bytes do not match the catalog's content fingerprint.
    Corrupt {
        /// Clip whose payload failed verification.
        clip: usize,
        /// Fingerprint the catalog expects.
        expected: u64,
        /// Fingerprint of the bytes actually on disk.
        actual: u64,
    },
    /// A file or catalog entry that should exist does not.
    Missing {
        /// What is missing (path or catalog description).
        what: String,
    },
    /// The clip was quarantined (by `load()` verification or fsck);
    /// its payload is not served until repaired.
    Quarantined {
        /// The quarantined clip.
        clip: usize,
    },
    /// A store-level invariant does not hold (bad journal record,
    /// non-dense ids, unparsable payload that passed its checksum).
    Invalid {
        /// Description of the violated invariant.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { detail } => write!(f, "i/o error: {detail}"),
            StoreError::Corrupt {
                clip,
                expected,
                actual,
            } => write!(
                f,
                "clip {clip} is corrupt: fingerprint {actual:#018x} != cataloged {expected:#018x}"
            ),
            StoreError::Missing { what } => write!(f, "missing: {what}"),
            StoreError::Quarantined { clip } => write!(f, "clip {clip} is quarantined"),
            StoreError::Invalid { detail } => write!(f, "store invariant violated: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<StoreError> for String {
    fn from(e: StoreError) -> String {
        e.to_string()
    }
}

impl StoreError {
    /// Whether a retry with backoff can plausibly help (plain I/O
    /// failures only — corruption and absence are permanent).
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io { .. })
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        match e.kind() {
            io::ErrorKind::NotFound => StoreError::Missing {
                what: e.to_string(),
            },
            _ => StoreError::Io {
                detail: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_core::durable::{FaultyIo, Io, IoFaultPlan, IoOp, RealIo};

    #[test]
    fn missing_file_is_missing_and_permanent() {
        let path = std::env::temp_dir().join(format!("otif-io-nope-{}.json", std::process::id()));
        let err = StoreError::from(RealIo.read(&path).unwrap_err());
        assert!(matches!(err, StoreError::Missing { .. }), "{err}");
        assert!(!err.is_transient());
    }

    #[test]
    fn injected_failure_is_transient_io() {
        let io = FaultyIo::new(RealIo, IoFaultPlan::error_at(IoOp::Read, 0));
        let err = StoreError::from(io.read(std::path::Path::new("x")).unwrap_err());
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(err.is_transient());
    }
}
