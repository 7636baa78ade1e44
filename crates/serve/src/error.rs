//! Typed errors for the snapshot store and the query daemon.
//!
//! Loading a snapshot consumes externally-shaped bytes, and running a server
//! touches the network: both must fail closed with values, never panics — a
//! truncated file or a dropped socket is an expected input here, not a bug.

use std::fmt;
use std::io;

use topple_vantage::wire::WireError;

/// Anything that stops a `tpls` snapshot or a `tpld` delta from being
/// written or read back.
///
/// Both containers share one frame ([`crate::frame`]) and one payload
/// reader, so they share one error vocabulary. Their bytes are
/// externally shaped (a delta is often POSTed over the network), so every
/// decode failure is a typed value, never a panic.
#[derive(Debug)]
pub enum ContainerError {
    /// The underlying file could not be read or written.
    Io(io::Error),
    /// The bytes do not start with the expected magic — they are some
    /// other format entirely.
    BadMagic {
        /// The magic of the format being read.
        expected: [u8; 4],
        /// The first four bytes found.
        found: [u8; 4],
    },
    /// The container is from an unknown format revision.
    UnsupportedVersion {
        /// The version the header declares.
        found: u16,
    },
    /// The bytes end before the structure they declare (truncated copy,
    /// interrupted write).
    Truncated {
        /// Bytes the decoder needed.
        need: u64,
        /// Bytes actually available.
        have: u64,
    },
    /// The payload checksum does not match the header — bit rot or an
    /// in-place edit.
    ChecksumMismatch {
        /// Checksum the header promises.
        expected: u32,
        /// Checksum of the bytes present.
        found: u32,
    },
    /// The container decodes but violates a structural invariant.
    Malformed {
        /// Which invariant failed.
        context: &'static str,
    },
    /// Decoding finished but bytes remain — the declared length lies.
    TrailingBytes {
        /// Leftover byte count.
        extra: u64,
    },
    /// A delta declares a base world that is not the one being served.
    BaseMismatch {
        /// Which identity field disagreed.
        context: &'static str,
    },
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Io(e) => write!(f, "container io: {e}"),
            ContainerError::BadMagic { expected, found } => write!(
                f,
                "not a {} container (magic {found:02x?})",
                String::from_utf8_lossy(expected)
            ),
            ContainerError::UnsupportedVersion { found } => {
                write!(f, "unsupported container version {found}")
            }
            ContainerError::Truncated { need, have } => {
                write!(f, "container truncated: need {need} bytes, have {have}")
            }
            ContainerError::ChecksumMismatch { expected, found } => write!(
                f,
                "container checksum mismatch: header says {expected:08x}, payload is {found:08x}"
            ),
            ContainerError::Malformed { context } => write!(f, "container malformed: {context}"),
            ContainerError::TrailingBytes { extra } => {
                write!(f, "container has {extra} bytes past the declared payload")
            }
            ContainerError::BaseMismatch { context } => {
                write!(f, "delta targets a different base: {context}")
            }
        }
    }
}

impl std::error::Error for ContainerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ContainerError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ContainerError {
    fn from(e: io::Error) -> Self {
        ContainerError::Io(e)
    }
}

impl From<WireError> for ContainerError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated { need, have } => ContainerError::Truncated { need, have },
            WireError::Malformed { context } => ContainerError::Malformed { context },
            WireError::TrailingBytes { extra } => ContainerError::TrailingBytes { extra },
        }
    }
}

/// Anything that stops the live store from accepting or applying an ingest.
#[derive(Debug)]
pub enum LiveError {
    /// The submitted bytes are not a valid delta.
    Delta(ContainerError),
    /// The delta covers a day index outside the serving world's window.
    DayOutOfRange {
        /// The offending day index.
        day: u32,
        /// Days in the world's window.
        window: u32,
    },
    /// The rebuild pipeline rejected the accumulated shards.
    Rebuild(topple_core::CoreError),
    /// The background engine failed its base verification or died; the
    /// store keeps serving its last good snapshot but accepts no ingests.
    Poisoned(String),
}

impl fmt::Display for LiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiveError::Delta(e) => write!(f, "ingest rejected: {e}"),
            LiveError::DayOutOfRange { day, window } => {
                write!(f, "delta day {day} outside the {window}-day window")
            }
            LiveError::Rebuild(e) => write!(f, "live rebuild failed: {e}"),
            LiveError::Poisoned(why) => write!(f, "live store poisoned: {why}"),
        }
    }
}

impl std::error::Error for LiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LiveError::Delta(e) => Some(e),
            LiveError::Rebuild(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ContainerError> for LiveError {
    fn from(e: ContainerError) -> Self {
        LiveError::Delta(e)
    }
}

/// Anything that stops the query daemon from binding or draining cleanly.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or configuring the listening socket failed.
    Bind {
        /// The address requested.
        addr: String,
        /// The underlying error.
        source: io::Error,
    },
    /// The listener's local address could not be determined.
    Listener(io::Error),
    /// The readiness event loop failed (epoll creation, registration, or
    /// wait) — infrastructure, not a per-connection condition.
    Reactor(io::Error),
    /// Graceful drain exceeded its deadline with connections still holding
    /// unflushed responses.
    DrainTimeout {
        /// Connections whose buffered responses could not be written out
        /// before the deadline passed.
        stuck_connections: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Bind { addr, source } => write!(f, "bind {addr}: {source}"),
            ServeError::Listener(e) => write!(f, "listener: {e}"),
            ServeError::Reactor(e) => write!(f, "event loop: {e}"),
            ServeError::DrainTimeout { stuck_connections } => {
                write!(
                    f,
                    "drain deadline passed with {stuck_connections} connections unflushed"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Bind { source, .. } => Some(source),
            ServeError::Listener(e) => Some(e),
            ServeError::Reactor(e) => Some(e),
            ServeError::DrainTimeout { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_every_variant() {
        let cases: Vec<ContainerError> = vec![
            ContainerError::Io(io::Error::new(io::ErrorKind::NotFound, "gone")),
            ContainerError::BadMagic {
                expected: *b"TPLS",
                found: *b"ELF\x7f",
            },
            ContainerError::UnsupportedVersion { found: 9 },
            ContainerError::Truncated { need: 10, have: 3 },
            ContainerError::ChecksumMismatch {
                expected: 1,
                found: 2,
            },
            ContainerError::Malformed {
                context: "cf_prefix must start at 0",
            },
            ContainerError::TrailingBytes { extra: 7 },
            ContainerError::BaseMismatch { context: "seed" },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(ContainerError::BadMagic {
            expected: *b"TPLD",
            found: *b"TPLS"
        }
        .to_string()
        .contains("not a TPLD container"));
        assert!(ServeError::DrainTimeout {
            stuck_connections: 2
        }
        .to_string()
        .contains("2 connections"));
        assert!(ServeError::Reactor(io::Error::other("epoll gone"))
            .to_string()
            .contains("event loop"));
    }

    #[test]
    fn live_errors_display() {
        assert!(
            LiveError::Delta(ContainerError::BaseMismatch { context: "seed" })
                .to_string()
                .contains("ingest rejected")
        );
        assert!(LiveError::DayOutOfRange {
            day: 30,
            window: 28
        }
        .to_string()
        .contains("30"));
        assert!(LiveError::Poisoned("verify failed".to_owned())
            .to_string()
            .contains("poisoned"));
    }
}
