//! The wire: the one codec every Shadowfax connection speaks, the framed
//! stream a connection is served through, and the two links built on them.
//!
//! Both fabrics carry bytes — TCP sockets between processes, and the
//! in-process sim pipe ([`shadowfax_net::SimNetwork`]) inside one — and
//! both run this code, so every tier-1 test that moves a request or a
//! migrated record crosses the same encode, framing and decode as a
//! production request.

mod codec;
mod framed;
mod link;

pub use codec::{
    decode_frame, encode_frame, CodecError, FrameDecoder, Role, WireBrokerPeer, WireBrokerStatus,
    WireMigrationState, WireMsg, WireOwnership, WireServerInfo, WireTierLog, WireTierStatus,
    MAX_FRAME_BYTES,
};
pub use framed::{ConnMetrics, Framed, OUTBOUND_BUDGET_BYTES};
pub(crate) use link::{KvLatency, PeerLink, ServedKvLink, DATA_SEND_BUDGET, MIGRATION_SEND_BUDGET};

/// Playing the far end of a link in tests: frames read from and written to
/// a sim pipe.
#[cfg(test)]
pub(crate) mod testing {
    use std::io::Write;

    use shadowfax_net::{BatchReply, Connection, RequestBatch, SimNetwork};

    use super::framed::drain_socket;
    use super::*;

    /// The far end of a sim pipe, speaking frames.
    pub(crate) struct FramedPeer {
        conn: Connection,
        decoder: FrameDecoder,
    }

    impl FramedPeer {
        pub(crate) fn new(conn: Connection) -> Self {
            FramedPeer {
                conn,
                decoder: FrameDecoder::new(MAX_FRAME_BYTES),
            }
        }

        /// Every complete frame the pipe holds.
        pub(crate) fn frames(&mut self) -> Vec<WireMsg> {
            let _ = drain_socket(&mut self.conn, &mut self.decoder, |_, _| true);
            std::iter::from_fn(|| self.decoder.next_msg().expect("a well-formed frame")).collect()
        }

        /// Every request batch the pipe holds.
        pub(crate) fn batches(&mut self) -> Vec<RequestBatch> {
            let batch = |msg| match msg {
                WireMsg::Batch(batch) => batch,
                other => panic!("expected a request batch, got {other:?}"),
            };
            self.frames().into_iter().map(batch).collect()
        }

        /// Writes one frame; `false` if the link's end is gone.
        pub(crate) fn send(&mut self, msg: &WireMsg) -> bool {
            self.conn.write_all(&encode_frame(msg)).is_ok()
        }

        pub(crate) fn reply(&mut self, reply: BatchReply) -> bool {
            self.send(&WireMsg::Reply(reply))
        }

        /// Writes raw bytes (half a frame, garbage).
        pub(crate) fn write_raw(&mut self, bytes: &[u8]) {
            self.conn.write_all(bytes).expect("the link's end is alive");
        }
    }

    /// A client data link over a fresh sim pipe, and the pipe's far end.
    pub(crate) fn sim_pair() -> (PeerLink, FramedPeer) {
        let net = SimNetwork::new();
        let listener = net.listen("srv");
        let conn = net.connect("srv").expect("listener registered");
        let server = listener.try_accept().expect("connection accepted");
        let link = PeerLink::new(Box::new(conn), "srv".into(), DATA_SEND_BUDGET);
        (link, FramedPeer::new(server))
    }
}
