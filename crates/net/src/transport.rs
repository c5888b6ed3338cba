//! The transport seam: one non-blocking byte stream, two fabrics.
//!
//! A [`Transport`] dials a server dispatch thread and hands back a
//! [`ByteStream`]; everything above it — the codec, framing, client
//! sessions, serving — is written once, against bytes, in the core crate.
//! Two fabrics implement it:
//!
//! * the in-process [`SimNetwork`] (zero-cost byte pipes), and
//! * real TCP sockets (`TcpTransport` in the `shadowfax-rpc` crate).
//!
//! Addresses are strings.  The simulated fabric uses bare fabric addresses
//! (`"sv0/t3"`); the TCP transport prefixes a socket address
//! (`"127.0.0.1:4870/sv0/t3"`) and forwards the fabric part in its HELLO
//! frame so the serving process can bind the connection to a dispatch
//! thread.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;

use crate::error::TransportError;
use crate::sim::{Connection, SimNetwork};

/// A non-blocking, bidirectional byte stream: a read with nothing buffered
/// returns `WouldBlock`, a read after the peer hung up and everything it
/// sent was read returns `Ok(0)`, and a write toward a peer that is gone
/// fails.
pub trait ByteStream: Read + Write + Send {
    /// The descriptor a reactor watches for readiness.  `None` for an
    /// in-process pipe: its writer runs the listener's
    /// [`Waker`](crate::Waker) instead.
    fn raw_fd(&self) -> Option<RawFd>;
}

impl ByteStream for TcpStream {
    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.as_raw_fd())
    }
}

impl ByteStream for UnixStream {
    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.as_raw_fd())
    }
}

impl ByteStream for Connection {
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }
}

/// A client-side transport: dials the dispatch thread at an address.
///
/// Implementations: [`SimNetwork`] (in-process fabric) and
/// `shadowfax_rpc::TcpTransport` (real sockets).
pub trait Transport: Send + Sync {
    /// Opens a stream to the server dispatch thread at `addr`, ready to
    /// carry request frames.
    fn connect_link(&self, addr: &str) -> Result<Box<dyn ByteStream>, TransportError>;
}

impl Transport for SimNetwork {
    fn connect_link(&self, addr: &str) -> Result<Box<dyn ByteStream>, TransportError> {
        match self.connect(addr) {
            Some(conn) => Ok(Box::new(conn)),
            None => Err(TransportError::ConnectionRefused {
                addr: addr.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_network_dials_a_byte_stream_without_an_fd() {
        let net = SimNetwork::new();
        let listener = net.listen("sv0/t0");
        let mut link = net.connect_link("sv0/t0").expect("listener registered");
        assert_eq!(link.raw_fd(), None);
        link.write_all(b"frame").unwrap();
        let mut server = listener.try_accept().unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"frame");
    }

    #[test]
    fn connect_link_to_unknown_address_is_typed() {
        let net = SimNetwork::new();
        match net.connect_link("nowhere") {
            Err(TransportError::ConnectionRefused { addr }) => assert_eq!(addr, "nowhere"),
            Err(other) => panic!("expected ConnectionRefused, got {other:?}"),
            Ok(_) => panic!("expected ConnectionRefused, got a link"),
        }
    }
}
