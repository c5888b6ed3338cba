//! The out-of-process Shadowfax client: `shadowfax::ShadowfaxClient` over
//! the control plane and TCP.
//!
//! [`RemoteClient`] lives in a different OS process from the cluster.  Its
//! ownership source is a serving process's control plane: snapshots are
//! fetched with `GET_OWNERSHIP` over a [`CtrlClient`], and its sessions run
//! over [`TcpTransport`] links.  Routing, batching, view stamping, parking
//! on rejection and re-routing after a refresh are the one client in
//! `shadowfax::client`; this module holds only what TCP needs: the dial
//! address of each server, the connect, and the `RpcError`-typed helpers.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::Duration;

use shadowfax::wire::WireOwnership;
use shadowfax::{
    ClientConfig, HashRange, KvRequest, KvResponse, OwnershipSnapshot, OwnershipSource, RangeSet,
    ServerId, ServerMeta, SessionConfig, ShadowfaxClient,
};

use crate::ctrl::{CtrlClient, RpcError};
use crate::tcp::TcpTransport;

/// Configuration of a [`RemoteClient`].
#[derive(Debug, Clone)]
pub struct RemoteClientConfig {
    /// Socket address of the serving process (`"127.0.0.1:4870"`).
    pub server_addr: String,
    /// This client thread's id; spreads clients across dispatch threads.
    pub thread_id: usize,
    /// Session batching/pipelining parameters.
    pub session: SessionConfig,
    /// Dial, control-roundtrip and synchronous-operation timeout.
    pub timeout: Duration,
}

impl RemoteClientConfig {
    /// A default configuration pointed at `server_addr`.
    pub fn new(server_addr: impl Into<String>) -> Self {
        RemoteClientConfig {
            server_addr: server_addr.into(),
            thread_id: 0,
            session: SessionConfig::default(),
            timeout: Duration::from_secs(5),
        }
    }
}

/// A serving process's control plane as an ownership source.
pub struct ControlPlaneOwnership {
    ctrl: CtrlClient,
    /// The process the client bootstrapped from; it serves the servers
    /// registered with bare fabric addresses.
    bootstrap: String,
    /// The last snapshot fetched, as the wire carried it.
    wire: WireOwnership,
}

impl OwnershipSource for ControlPlaneOwnership {
    type Error = RpcError;

    fn fetch(&mut self) -> Result<OwnershipSnapshot, RpcError> {
        self.wire = self.ctrl.ownership()?;
        Ok(routes(&self.wire, &self.bootstrap))
    }
}

/// `true` if a registered address is a socket address (`"10.0.0.7:4871"`)
/// rather than a fabric name (`"sv1"`, never a colon).  A serving process
/// registers what it hosts under fabric names and every peer under a
/// socket address, so this is how a remote client learns which servers its
/// bootstrap process hosts.
fn is_socket_address(address: &str) -> bool {
    address.contains(':')
}

/// `wire` as a snapshot whose addresses are dial bases.  A server
/// registered with a socket address lives in another serving process than
/// the bootstrap one and is dialled directly (its fabric address is
/// `sv<id>` by convention); fabric names are dialled at the address the
/// client bootstrapped from.  Inverted ranges come from outside the process
/// and are dropped, never asserted on.
fn routes(wire: &WireOwnership, bootstrap: &str) -> OwnershipSnapshot {
    let servers = wire.servers.iter().map(|s| {
        let address = if is_socket_address(&s.address) {
            format!("{}/sv{}", s.address, s.id)
        } else {
            format!("{bootstrap}/{}", s.address)
        };
        let ranges = s.ranges.iter().filter(|(start, end)| start <= end);
        let meta = ServerMeta {
            view: s.view,
            owned: RangeSet::from_ranges(ranges.map(|&(start, end)| HashRange::new(start, end))),
            address,
            threads: s.threads as usize,
        };
        (ServerId(s.id), meta)
    });
    OwnershipSnapshot {
        servers: servers.collect(),
    }
}

/// A per-thread Shadowfax client speaking the TCP wire protocol: the one
/// client over [`ControlPlaneOwnership`], plus what only TCP needs.
#[derive(Debug)]
pub struct RemoteClient {
    client: ShadowfaxClient<ControlPlaneOwnership>,
    timeout: Duration,
}

impl Deref for RemoteClient {
    type Target = ShadowfaxClient<ControlPlaneOwnership>;

    fn deref(&self) -> &Self::Target {
        &self.client
    }
}

impl DerefMut for RemoteClient {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.client
    }
}

impl RemoteClient {
    /// Connects the control plane and fetches the initial ownership
    /// snapshot.
    pub fn connect(config: RemoteClientConfig) -> Result<Self, RpcError> {
        let source = ControlPlaneOwnership {
            ctrl: CtrlClient::connect(&config.server_addr, config.timeout)?,
            bootstrap: config.server_addr,
            wire: WireOwnership::default(),
        };
        let transport = Arc::new(TcpTransport {
            connect_timeout: config.timeout,
        });
        let client_config = ClientConfig {
            thread_id: config.thread_id,
            session: config.session,
        };
        Ok(RemoteClient {
            client: ShadowfaxClient::with_source(client_config, source, transport)?,
            timeout: config.timeout,
        })
    }

    /// The cached ownership snapshot, as the wire carried it.
    pub fn ownership(&self) -> &WireOwnership {
        &self.client.source().wire
    }

    /// Direct access to the control plane (migrations, pings).
    pub fn ctrl(&mut self) -> &mut CtrlClient {
        &mut self.client.source_mut().ctrl
    }

    /// [`ShadowfaxClient::try_poll`].
    pub fn poll(&mut self) -> Result<usize, RpcError> {
        self.client.try_poll()
    }

    /// [`ShadowfaxClient::try_drain`].
    pub fn drain(&mut self, timeout: Duration) -> Result<bool, RpcError> {
        self.client.try_drain(timeout)
    }

    /// Runs `request` synchronously and narrows the response with `expect`.
    fn sync<T>(
        &mut self,
        request: KvRequest,
        expect: impl FnOnce(KvResponse) -> Result<T, KvResponse>,
    ) -> Result<T, RpcError> {
        let response = self.client.execute_sync(request, self.timeout)?;
        expect(response)
            .map_err(|other| RpcError::Protocol(format!("unexpected response: {other:?}")))
    }

    /// Synchronously reads a key.
    pub fn get(&mut self, key: u64) -> Result<Option<Vec<u8>>, RpcError> {
        self.sync(KvRequest::Read { key }, |r| match r {
            KvResponse::Value(v) => Ok(v),
            other => Err(other),
        })
    }

    /// Synchronously writes a key.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> Result<(), RpcError> {
        self.sync(KvRequest::Upsert { key, value }, |r| match r {
            KvResponse::Ok => Ok(()),
            other => Err(other),
        })
    }

    /// Synchronously deletes a key; returns whether it existed.
    pub fn delete(&mut self, key: u64) -> Result<bool, RpcError> {
        self.sync(KvRequest::Delete { key }, |r| match r {
            KvResponse::Deleted(existed) => Ok(existed),
            other => Err(other),
        })
    }

    /// Synchronously increments a key's counter; returns the new value.
    pub fn rmw_add(&mut self, key: u64, delta: u64) -> Result<u64, RpcError> {
        self.sync(KvRequest::RmwAdd { key, delta }, |r| match r {
            KvResponse::Counter(c) => Ok(c),
            other => Err(other),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax::wire::WireServerInfo;

    #[test]
    fn routes_dial_peers_directly_and_drop_inverted_ranges() {
        let server = |id, address: &str, ranges| WireServerInfo {
            id,
            address: address.to_string(),
            threads: 2,
            view: 3,
            ranges,
        };
        let wire = WireOwnership {
            servers: vec![
                server(0, "sv0", vec![(0, 100), (500, 400)]),
                server(1, "10.0.0.7:4871", vec![(100, u64::MAX)]),
            ],
        };
        let snapshot = routes(&wire, "127.0.0.1:4870");
        let sv0 = snapshot.server(ServerId(0)).unwrap();
        assert_eq!(sv0.address, "127.0.0.1:4870/sv0");
        assert_eq!(sv0.owned.ranges(), &[HashRange::new(0, 100)]);
        assert_eq!((sv0.view, sv0.threads), (3, 2));
        assert_eq!(
            snapshot.server(ServerId(1)).unwrap().address,
            "10.0.0.7:4871/sv1"
        );
        assert_eq!(snapshot.owner_of(450), Some((ServerId(1), 3)));
        assert_eq!(snapshot.owner_of(50), Some((ServerId(0), 3)));
    }
}
