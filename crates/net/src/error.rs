//! Typed errors for the networking substrate.
//!
//! Session and transport failures used to be signalled with ad-hoc values
//! (`bool` returns from sends, bare `Option<u64>` for stale views).  The RPC
//! layer needs to put these on the wire, so they are now proper error enums
//! with a stable [`StatusCode`] mapping: `shadowfax-rpc` encodes a
//! [`SessionError`]/[`TransportError`] as a one-byte status in its reply
//! frames and reconstructs the typed error on the client side.

use std::error::Error;
use std::fmt;

/// One-byte status codes used by wire protocols to carry typed errors.
///
/// The numeric values are part of the wire format — append new codes, never
/// renumber existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum StatusCode {
    /// The operation succeeded.
    Ok = 0,
    /// The batch's view number did not match the server's serving view.
    StaleView = 1,
    /// No server / listener exists at the requested address.
    UnknownAddress = 2,
    /// The peer endpoint is gone (socket closed, endpoint dropped).
    PeerClosed = 3,
    /// An OS-level I/O failure on a real socket.
    Io = 4,
    /// A frame failed structural validation (bad tag, trailing bytes, UTF-8).
    Malformed = 5,
    /// A frame exceeded the receiver's size limit.
    Oversized = 6,
    /// The server could not execute a control operation.
    ControlFailed = 7,
    /// The request referenced a log address beyond what the addressed log
    /// has ever covered (`TIER_READ`s against the shared tier).
    OutOfRange = 8,
}

impl StatusCode {
    /// Parses a wire byte back into a status code.
    pub fn from_u8(v: u8) -> Option<StatusCode> {
        Some(match v {
            0 => StatusCode::Ok,
            1 => StatusCode::StaleView,
            2 => StatusCode::UnknownAddress,
            3 => StatusCode::PeerClosed,
            4 => StatusCode::Io,
            5 => StatusCode::Malformed,
            6 => StatusCode::Oversized,
            7 => StatusCode::ControlFailed,
            8 => StatusCode::OutOfRange,
            _ => return None,
        })
    }

    /// The wire representation.
    pub fn as_u8(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StatusCode::Ok => "ok",
            StatusCode::StaleView => "stale view",
            StatusCode::UnknownAddress => "unknown address",
            StatusCode::PeerClosed => "peer closed",
            StatusCode::Io => "i/o error",
            StatusCode::Malformed => "malformed frame",
            StatusCode::Oversized => "oversized frame",
            StatusCode::ControlFailed => "control operation failed",
            StatusCode::OutOfRange => "log address out of range",
        };
        f.write_str(s)
    }
}

/// Errors raised by a [`Transport`](crate::Transport) while opening links or
/// moving batches across them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No listener / server is reachable at the address.
    ConnectionRefused {
        /// The address that was dialled.
        addr: String,
    },
    /// The peer endpoint has been closed or dropped.
    PeerClosed,
    /// An OS-level I/O failure (real sockets only).
    Io(String),
    /// The peer sent a frame that failed validation.
    Malformed(String),
    /// The peer sent a frame larger than this endpoint accepts.
    Oversized {
        /// Declared frame length.
        len: usize,
        /// This endpoint's limit.
        max: usize,
    },
}

impl TransportError {
    /// The wire status code for this error.
    pub fn status_code(&self) -> StatusCode {
        match self {
            TransportError::ConnectionRefused { .. } => StatusCode::UnknownAddress,
            TransportError::PeerClosed => StatusCode::PeerClosed,
            TransportError::Io(_) => StatusCode::Io,
            TransportError::Malformed(_) => StatusCode::Malformed,
            TransportError::Oversized { .. } => StatusCode::Oversized,
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::ConnectionRefused { addr } => {
                write!(f, "connection refused: no listener at {addr}")
            }
            TransportError::PeerClosed => f.write_str("peer endpoint closed"),
            TransportError::Io(msg) => write!(f, "i/o error: {msg}"),
            TransportError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            TransportError::Oversized { len, max } => {
                write!(
                    f,
                    "oversized frame: {len} bytes exceeds the {max}-byte limit"
                )
            }
        }
    }
}

impl Error for TransportError {}

/// Errors surfaced by a client session (the core crate's `ClientSession`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The server rejected a batch because the session's view is stale.  The
    /// client library must refresh ownership mappings and re-route the parked
    /// operations (paper §3.2).
    StaleView {
        /// The view the session stamped on the rejected batch.
        session_view: u64,
        /// The server's current view, reported in the rejection.
        server_view: u64,
    },
    /// The underlying link failed.
    Transport(TransportError),
}

impl SessionError {
    /// The wire status code for this error.
    pub fn status_code(&self) -> StatusCode {
        match self {
            SessionError::StaleView { .. } => StatusCode::StaleView,
            SessionError::Transport(t) => t.status_code(),
        }
    }
}

impl From<TransportError> for SessionError {
    fn from(e: TransportError) -> Self {
        SessionError::Transport(e)
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::StaleView { session_view, server_view } => write!(
                f,
                "batch rejected: session view {session_view} is stale (server is at view {server_view})"
            ),
            SessionError::Transport(t) => write!(f, "transport failure: {t}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Transport(t) => Some(t),
            SessionError::StaleView { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_codes_roundtrip() {
        for code in [
            StatusCode::Ok,
            StatusCode::StaleView,
            StatusCode::UnknownAddress,
            StatusCode::PeerClosed,
            StatusCode::Io,
            StatusCode::Malformed,
            StatusCode::Oversized,
            StatusCode::ControlFailed,
            StatusCode::OutOfRange,
        ] {
            assert_eq!(StatusCode::from_u8(code.as_u8()), Some(code));
        }
        assert_eq!(StatusCode::from_u8(200), None);
    }

    #[test]
    fn errors_map_to_stable_codes() {
        assert_eq!(
            SessionError::StaleView {
                session_view: 1,
                server_view: 2
            }
            .status_code(),
            StatusCode::StaleView
        );
        assert_eq!(
            TransportError::ConnectionRefused {
                addr: "sv0/t0".into()
            }
            .status_code(),
            StatusCode::UnknownAddress
        );
        assert_eq!(
            SessionError::from(TransportError::PeerClosed).status_code(),
            StatusCode::PeerClosed
        );
    }

    #[test]
    fn display_is_informative() {
        let e = SessionError::StaleView {
            session_view: 3,
            server_view: 9,
        };
        let s = e.to_string();
        assert!(s.contains('3') && s.contains('9'), "{s}");
    }
}
