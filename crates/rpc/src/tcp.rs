//! The real-socket transport: [`TcpTransport`] dials serving processes and
//! hands back non-blocking TCP streams.  The core crate frames client
//! batches and migration messages onto them exactly as onto the in-process
//! sim pipe.
//!
//! Link addresses are `"<socket-addr>/<fabric-addr>"`, e.g.
//! `"127.0.0.1:4870/sv0/t1"`: the socket part names the serving process, the
//! fabric part names the dispatch thread inside it.  The first frame on a
//! data connection is a HELLO carrying the fabric part; the first frame on
//! a migration connection is a MIG_HELLO naming the server and thread.

use std::io::{ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use shadowfax::wire::{encode_frame, WireMsg};
use shadowfax::{MigrationConnector, ServerId};
use shadowfax_net::{ByteStream, Transport, TransportError};

/// Splits `"host:port/fabric/addr"` into the socket and fabric parts.
pub(crate) fn split_link_addr(addr: &str) -> Result<(&str, &str), TransportError> {
    match addr.split_once('/') {
        Some((sock, fabric)) if !sock.is_empty() && !fabric.is_empty() => Ok((sock, fabric)),
        _ => Err(TransportError::Malformed(format!(
            "link address {addr:?} is not of the form <socket-addr>/<fabric-addr>"
        ))),
    }
}

fn io_err(e: std::io::Error) -> TransportError {
    TransportError::Io(e.to_string())
}

/// A transport that opens real TCP connections to a serving process.
#[derive(Debug, Clone)]
pub struct TcpTransport {
    /// Dial timeout.
    pub connect_timeout: Duration,
}

impl Default for TcpTransport {
    fn default() -> Self {
        TcpTransport {
            connect_timeout: Duration::from_secs(5),
        }
    }
}

impl TcpTransport {
    /// Dials `sock_addr` and writes `hello` while the socket still blocks,
    /// then switches it to the non-blocking regime links expect.  A refused
    /// dial is reported against `addr`.
    fn dial(
        &self,
        sock_addr: &str,
        addr: &str,
        hello: &WireMsg,
    ) -> Result<TcpStream, TransportError> {
        let target = sock_addr
            .to_socket_addrs()
            .map_err(io_err)?
            .next()
            .ok_or_else(|| {
                TransportError::Malformed(format!("unresolvable address {sock_addr:?}"))
            })?;
        let mut stream =
            TcpStream::connect_timeout(&target, self.connect_timeout).map_err(|e| {
                if e.kind() == ErrorKind::ConnectionRefused {
                    TransportError::ConnectionRefused {
                        addr: addr.to_string(),
                    }
                } else {
                    io_err(e)
                }
            })?;
        stream.set_nodelay(true).map_err(io_err)?;
        stream.write_all(&encode_frame(hello)).map_err(io_err)?;
        stream.set_nonblocking(true).map_err(io_err)?;
        Ok(stream)
    }
}

/// The production migration routing rule: every peer is another serving
/// process, dialled at its registered socket address over a dedicated
/// connection bound (by its MIG_HELLO frame) to one of the peer's dispatch
/// threads.
impl MigrationConnector for TcpTransport {
    fn connect_migration(
        &self,
        address: &str,
        server: ServerId,
        thread: usize,
    ) -> Option<Box<dyn ByteStream>> {
        let hello = WireMsg::MigHello {
            server: server.0,
            thread: thread as u32,
        };
        let stream = self.dial(address, address, &hello).ok()?;
        Some(Box::new(stream))
    }
}

impl Transport for TcpTransport {
    fn connect_link(&self, addr: &str) -> Result<Box<dyn ByteStream>, TransportError> {
        let (sock, fabric) = split_link_addr(addr)?;
        let hello = WireMsg::Hello {
            fabric_addr: fabric.to_string(),
        };
        Ok(Box::new(self.dial(sock, addr, &hello)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax::wire::{FrameDecoder, MAX_FRAME_BYTES};
    use std::io::Read;

    #[test]
    fn link_addr_splitting() {
        let (sock, fabric) = split_link_addr("127.0.0.1:4870/sv0/t1").unwrap();
        assert_eq!(sock, "127.0.0.1:4870");
        assert_eq!(fabric, "sv0/t1");
        assert!(split_link_addr("no-slash").is_err());
        assert!(split_link_addr("/sv0").is_err());
        assert!(split_link_addr("1.2.3.4:1/").is_err());
    }

    #[test]
    fn connect_to_dead_port_is_refused() {
        let transport = TcpTransport {
            connect_timeout: Duration::from_millis(500),
        };
        // Bind-then-drop to find a port with nothing listening.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let err = match transport.connect_link(&format!("127.0.0.1:{port}/sv0/t0")) {
            Err(err) => err,
            Ok(_) => panic!("dialled a port with nothing listening"),
        };
        assert!(
            matches!(
                err,
                TransportError::ConnectionRefused { .. } | TransportError::Io(_)
            ),
            "unexpected error: {err:?}"
        );
    }

    /// The first frame the serving process sees on a fresh connection.
    fn first_frame(listener: &std::net::TcpListener) -> WireMsg {
        let (mut stream, _) = listener.accept().unwrap();
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut chunk = [0u8; 256];
        loop {
            if let Some(msg) = decoder.next_msg().unwrap() {
                return msg;
            }
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "the dialler hung up before its hello");
            decoder.extend(&chunk[..n]);
        }
    }

    #[test]
    fn each_dial_opens_with_its_hello_and_leaves_a_non_blocking_stream() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let transport = TcpTransport::default();

        let mut data = transport.connect_link(&format!("{addr}/sv7/t0")).unwrap();
        let err = data.read(&mut [0u8; 8]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock);
        assert!(data.raw_fd().is_some());
        let hello = WireMsg::Hello {
            fabric_addr: "sv7/t0".into(),
        };
        assert_eq!(first_frame(&listener), hello);

        let migration = transport.connect_migration(&addr.to_string(), ServerId(3), 1);
        assert!(migration.is_some());
        let mig_hello = WireMsg::MigHello {
            server: 3,
            thread: 1,
        };
        assert_eq!(first_frame(&listener), mig_hello);
    }
}
