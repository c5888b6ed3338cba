//! Broker failure and re-election, in-process.
//!
//! Two `Cluster`s in this test process, each behind a real `RpcServer` on
//! loopback and each running a `Coordinator`: process A hosts global
//! server 0 (rank 0, so it is the initial broker), process B hosts server
//! 1 (rank 1, follower).  The test
//!
//! * replicates a pending migration recorded at the broker into the
//!   follower's store, then asserts the fan-out goes quiet — once the
//!   follower holds identical content, no-op ticks push zero `META_MERGE`
//!   bytes (skip-if-current compares merged content, not just epoch),
//! * kills the broker (RPC front end and coordinator both) mid-migration,
//! * observes the typed-unavailability window: while every better-ranked
//!   candidate is unreachable but not yet past the liveness budget, the
//!   follower's control plane refuses an operator's `CancelMigration`
//!   with `MetaError::CoordinatorUnavailable`'s text, naming the silent
//!   broker,
//! * asserts the follower then promotes itself — role flips to broker,
//!   the cluster epoch is bumped past everything the dead broker stamped,
//!   and `broker.elections` increments — with the replicated ownership
//!   map (and the pending dependency) intact,
//! * and finally drives a mutation through the new broker, over the same
//!   control connection: cancelling the orphaned migration rolls ownership
//!   back to the source.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{parse_peer_spec, Cluster, ClusterConfig, ClusterLayout, ServerId};
use shadowfax_net::{LivenessConfig, StatusCode};
use shadowfax_rpc::{
    ControlPlane, Coordinator, CoordinatorConfig, CtrlClient, Role, RpcError, RpcServer,
    RpcServerConfig,
};

mod util;
use util::free_port;

/// One single-server cluster that knows the other process's server as a
/// socket-addressed peer.
fn half_cluster(base_id: u32, peer_id: u32, peer_addr: &str) -> Arc<Cluster> {
    let mut config = ClusterConfig::two_server_test();
    config.servers = 1;
    config.base_id = base_id;
    config.layout = ClusterLayout::ScaleOut;
    config.peers = vec![
        parse_peer_spec(&format!("id={peer_id},addr={peer_addr},threads=2")).expect("peer spec"),
    ];
    Arc::new(Cluster::start(config))
}

/// Coordinator timings sized so the test observes both phases: probes fail
/// fast (~200 ms) but the liveness budget holds the follower back for
/// ~1 s, leaving a wide typed-unavailability window before promotion.
fn coordinator_config(
    self_addr: &str,
    self_rank: u32,
    peer_addr: &str,
    peer_rank: u32,
) -> CoordinatorConfig {
    let mut config = CoordinatorConfig::new(self_addr.to_string(), self_rank);
    config.peers = vec![(peer_addr.to_string(), peer_rank)];
    config.tick = Duration::from_millis(40);
    config.probe_timeout = Duration::from_millis(200);
    config.liveness = LivenessConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_budget: 25,
    };
    config
}

#[test]
fn killing_the_broker_promotes_the_follower_at_a_bumped_epoch() {
    let addr_a = format!("127.0.0.1:{}", free_port());
    let addr_b = format!("127.0.0.1:{}", free_port());
    let cluster_a = half_cluster(0, 1, &addr_b);
    let cluster_b = half_cluster(1, 0, &addr_a);

    let coord_a = Coordinator::spawn(
        Arc::clone(&cluster_a),
        coordinator_config(&addr_a, 0, &addr_b, 1),
    );
    let coord_b = Coordinator::spawn(
        Arc::clone(&cluster_b),
        coordinator_config(&addr_b, 1, &addr_a, 0),
    );
    let rpc_a = RpcServer::serve(
        ControlPlane {
            cluster: Arc::clone(&cluster_a),
            coordinator: Some(Arc::clone(&coord_a)),
            tier: None,
        },
        RpcServerConfig {
            listen: addr_a.clone(),
            ..RpcServerConfig::default()
        },
    )
    .expect("bind rpc server A");
    let rpc_b = RpcServer::serve(
        ControlPlane {
            cluster: Arc::clone(&cluster_b),
            coordinator: Some(Arc::clone(&coord_b)),
            tier: None,
        },
        RpcServerConfig {
            listen: addr_b.clone(),
            ..RpcServerConfig::default()
        },
    )
    .expect("bind rpc server B");

    // Static ranks give the initial roles before any probe completes.
    assert_eq!(coord_a.status().role, Role::Broker);
    assert_eq!(coord_b.status().role, Role::Follower);
    assert_eq!(coord_b.status().broker_addr, addr_a);

    // A migration recorded at the broker: server 0 starts losing 25% of
    // its range to server 1.  The pending dependency must replicate into
    // the follower's store.
    let moving = cluster_a
        .meta()
        .snapshot()
        .server(ServerId(0))
        .expect("server 0 registered")
        .owned
        .ranges()[0]
        .take_fraction(0.25);
    let (migration_id, ..) = cluster_a
        .meta()
        .transfer_ownership(ServerId(0), ServerId(1), &[moving])
        .expect("record migration at the broker");
    let replicated = Instant::now() + Duration::from_secs(10);
    loop {
        match cluster_b.meta().migration_state(migration_id) {
            Ok(Some(dep)) => {
                assert!(!dep.cancelled && !dep.is_complete());
                break;
            }
            _ => {
                assert!(
                    Instant::now() < replicated,
                    "pending migration never replicated to the follower"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    assert_eq!(
        cluster_b.meta().owner_of(moving.start).map(|(id, _)| id),
        Some(ServerId(1)),
        "the follower's replica must show the transferred ownership"
    );

    // With the follower fully caught up, the fan-out must go quiet: a
    // no-op tick sends zero META_MERGE bytes.  (The replica content hash
    // gates the push — epoch alone would keep re-shipping the full store
    // whenever the follower's acked epoch trails by an election bump.)
    // Give the in-flight tick a moment to finish counting, then watch
    // ~10 ticks pass without a byte.
    std::thread::sleep(Duration::from_millis(100));
    let pushed_before = cluster_a
        .metrics()
        .snapshot()
        .counter("broker.merge.push_bytes")
        .unwrap_or(0);
    std::thread::sleep(Duration::from_millis(400));
    let pushed_after = cluster_a
        .metrics()
        .snapshot()
        .counter("broker.merge.push_bytes")
        .unwrap_or(0);
    assert_eq!(
        pushed_after, pushed_before,
        "no-op ticks must not ship META_MERGE bytes to a caught-up follower"
    );

    // Kill the broker: front end first (so probes fail), then its loop.
    let epoch_before = cluster_b.meta().epoch();
    rpc_a.shutdown();
    coord_a.shutdown();

    // The follower walks through the typed-unavailability window (broker
    // unreachable, not yet declared dead: operator mutations refused with
    // the typed error) and then promotes itself.  The probe cancels an id
    // nobody issued, so an election racing between the status read and
    // the call mutates nothing: the new broker answers "unknown".
    let mut ctrl_b = CtrlClient::connect(&addr_b, Duration::from_secs(5)).expect("connect to B");
    let mut saw_unavailable = false;
    let promoted = Instant::now() + Duration::from_secs(20);
    loop {
        let status = coord_b.status();
        if status.role == Role::Broker {
            break;
        }
        let broker_unreachable = status
            .peers
            .iter()
            .any(|p| p.addr == addr_a && !p.reachable);
        if status.role == Role::Follower && broker_unreachable {
            match ctrl_b.cancel_migration(u64::MAX) {
                Err(RpcError::Remote { status, message })
                    if message.contains("coordinator unavailable") =>
                {
                    assert_eq!(status, StatusCode::ControlFailed);
                    assert!(
                        message.contains(&addr_a),
                        "unavailability must name the silent broker: {message}"
                    );
                    saw_unavailable = true;
                }
                Err(RpcError::Remote { message, .. }) if message.contains("unknown migration") => {}
                other => panic!("expected the coordinator-unavailable refusal, got {other:?}"),
            }
        }
        assert!(
            Instant::now() < promoted,
            "the follower never promoted itself after the broker died"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        saw_unavailable,
        "the typed-unavailability window was never observed"
    );

    // Promotion bumped the epoch past everything the dead broker stamped
    // and counted an election.
    assert!(
        cluster_b.meta().epoch() > epoch_before,
        "promotion must bump the cluster epoch"
    );
    let snap = cluster_b.metrics().snapshot();
    assert_eq!(
        snap.counter("broker.elections"),
        Some(1),
        "exactly one election: {:?}",
        snap.counters
    );

    // The replicated map survived the failover intact: both servers, the
    // transferred range, and the still-pending dependency.
    let owners = cluster_b.meta().snapshot();
    assert!(owners.server(ServerId(0)).is_some());
    assert_eq!(
        owners
            .server(ServerId(1))
            .map(|m| m.owned.contains(moving.start)),
        Some(true),
        "ownership replicated from the dead broker must survive"
    );
    let dep = cluster_b
        .meta()
        .migration_state(migration_id)
        .expect("dep lookup")
        .expect("dep retained");
    assert!(!dep.cancelled && !dep.is_complete());

    // Mutations flow through the new broker: cancelling the orphaned
    // migration rolls ownership back to the source.
    ctrl_b
        .cancel_migration(migration_id)
        .expect("cancel through the new broker");
    assert_eq!(
        cluster_b.meta().owner_of(moving.start).map(|(id, _)| id),
        Some(ServerId(0)),
        "cancellation must roll the range back to the source"
    );

    drop(ctrl_b);
    rpc_b.shutdown();
    coord_b.shutdown();
    drop(coord_a);
    drop(coord_b);
    for cluster in [cluster_a, cluster_b] {
        if let Ok(cluster) = Arc::try_unwrap(cluster) {
            cluster.shutdown();
        }
    }
}
