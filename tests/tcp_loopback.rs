//! Loopback TCP integration: a live 2-server cluster served over real
//! sockets, driven by pipelined batches through `TcpTransport`, including
//! the stale-view rejection path after a migration.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{Cluster, ClusterConfig};
use shadowfax_net::{KvRequest, SessionConfig, StatusCode};
use shadowfax_rpc::{
    decode_frame, ControlPlane, CtrlClient, RemoteClient, RemoteClientConfig, RpcServer,
    RpcServerConfig, WireMsg, MAX_FRAME_BYTES,
};

fn start_stack() -> (Arc<Cluster>, shadowfax_rpc::RpcServerHandle, String) {
    let cluster = Arc::new(Cluster::start(ClusterConfig::two_server_test()));
    let rpc = RpcServer::serve(
        ControlPlane::new(Arc::clone(&cluster)),
        RpcServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = rpc.local_addr().to_string();
    (cluster, rpc, addr)
}

fn stop_stack(cluster: Arc<Cluster>, rpc: shadowfax_rpc::RpcServerHandle) {
    rpc.shutdown();
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced after rpc shutdown"),
    }
}

#[test]
fn kv_operations_over_real_tcp() {
    let (cluster, rpc, addr) = start_stack();
    {
        let mut client = RemoteClient::connect(RemoteClientConfig::new(&addr)).unwrap();
        client.ctrl().ping().unwrap();

        client.put(7, b"hello over tcp".to_vec()).unwrap();
        assert_eq!(
            client.get(7).unwrap().as_deref(),
            Some(&b"hello over tcp"[..])
        );
        assert_eq!(client.rmw_add(100, 5).unwrap(), 5);
        assert_eq!(client.rmw_add(100, 2).unwrap(), 7);
        assert!(client.delete(7).unwrap());
        assert_eq!(client.get(7).unwrap(), None);
        assert!(!client.delete(7).unwrap());
    }
    stop_stack(cluster, rpc);
}

/// The four stats frames retired from the protocol (`0x2A`/`0x2B`,
/// `0x42`/`0x43`) are unknown kinds like any other: the server names the
/// tag in a `Malformed` answer, closes that connection and keeps serving.
#[test]
fn retired_frame_kinds_are_answered_as_unknown_tags() {
    let (cluster, rpc, addr) = start_stack();
    for tag in [0x2A, 0x2B, 0x40, 0x41, 0x42, 0x43, 0x7F] {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(&[1, 0, 0, 0, tag])
            .expect("send the frame");
        let mut answer = Vec::new();
        stream.read_to_end(&mut answer).expect("answer, then EOF");
        match decode_frame(&answer, MAX_FRAME_BYTES).expect("one frame") {
            (WireMsg::CtrlErr { status, message }, consumed) => {
                assert_eq!(status, StatusCode::Malformed);
                assert!(
                    message.contains(&format!("unknown tag {tag:#04x}")),
                    "{message}"
                );
                assert_eq!(consumed, answer.len(), "nothing behind the error");
            }
            other => panic!("tag {tag:#04x}: unexpected answer {other:?}"),
        }
    }
    let mut ctrl = CtrlClient::connect(&addr, Duration::from_secs(5)).expect("connect");
    ctrl.ping().expect("the server keeps serving");
    stop_stack(cluster, rpc);
}

#[test]
fn pipelined_batches_over_tcp() {
    let (cluster, rpc, addr) = start_stack();
    {
        let mut config = RemoteClientConfig::new(&addr);
        // Small batches and a deep pipeline so multiple batches are in
        // flight on the socket at once.
        config.session = SessionConfig {
            max_batch_ops: 16,
            max_batch_bytes: usize::MAX,
            max_inflight_batches: 8,
        };
        let mut client = RemoteClient::connect(config).unwrap();

        let completed = Arc::new(AtomicU64::new(0));
        let total = 2000u64;
        let mut max_inflight = 0usize;
        for key in 0..total {
            let completed = Arc::clone(&completed);
            client.issue(
                KvRequest::Upsert {
                    key,
                    value: vec![1u8; 64],
                },
                Box::new(move |_| {
                    completed.fetch_add(1, Ordering::Relaxed);
                }),
            );
            max_inflight = max_inflight.max(client.max_inflight_batches());
        }
        client.flush();
        let deadline = Instant::now() + Duration::from_secs(30);
        while completed.load(Ordering::Relaxed) < total {
            assert!(Instant::now() < deadline, "timed out draining the pipeline");
            client.poll().unwrap();
            max_inflight = max_inflight.max(client.max_inflight_batches());
        }
        assert!(
            max_inflight > 1,
            "expected >1 batch in flight on a session, saw {max_inflight}"
        );
        let stats = client.stats();
        assert_eq!(stats.completed, total);
        // flush() coalesces the whole buffer once a pipeline slot frees, so
        // the exact batch count varies with timing; pipelining just requires
        // that the ops spread across several batches.
        let batches: u64 = client.session_stats().iter().map(|s| s.batches_sent).sum();
        assert!(batches > 1, "everything went out in one batch");

        // Spot-check durability of the writes through a fresh client.
        let mut check = RemoteClient::connect(RemoteClientConfig::new(&addr)).unwrap();
        assert_eq!(check.get(1234).unwrap().as_deref(), Some(&[1u8; 64][..]));
    }
    stop_stack(cluster, rpc);
}

#[test]
fn migration_triggers_stale_view_rejection_and_rerouting() {
    let (cluster, rpc, addr) = start_stack();
    {
        let mut client = RemoteClient::connect(RemoteClientConfig::new(&addr)).unwrap();

        // Seed data while server 0 owns the whole space.
        for key in 0..200u64 {
            client.put(key, key.to_le_bytes().to_vec()).unwrap();
        }
        let view_before: Vec<u64> = client.ownership().servers.iter().map(|s| s.view).collect();

        // Move half of server 0's range to the idle server 1 over the
        // control plane (the client's cached views are now stale).
        client.ctrl().migrate_fraction(0, 1, 0.5).unwrap();
        assert!(
            cluster.wait_for_migrations(Duration::from_secs(60)),
            "migration did not complete"
        );

        // Drive reads with the stale session views: the server must reject
        // at least one batch, and the client must refresh + re-route until
        // every read completes with the right value.
        for key in 0..200u64 {
            let got = client.get(key).unwrap();
            assert_eq!(
                got.as_deref(),
                Some(&key.to_le_bytes()[..]),
                "key {key} lost across migration"
            );
        }
        let stats = client.stats();
        assert!(
            stats.batches_rejected >= 1,
            "expected at least one stale-view rejection, saw {stats:?}"
        );
        assert!(
            stats.ownership_refreshes >= 1,
            "client never refreshed ownership"
        );

        let own = client.ownership();
        let views_after: Vec<u64> = own.servers.iter().map(|s| s.view).collect();
        assert_ne!(view_before, views_after, "views did not advance");
        assert!(
            own.server(1).map(|s| !s.ranges.is_empty()).unwrap_or(false),
            "server 1 owns nothing after the migration"
        );
    }
    stop_stack(cluster, rpc);
}
