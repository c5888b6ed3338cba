//! The broker gate, through the path operators use.
//!
//! One serving process, built as a *follower*: it hosts global server 1
//! and knows server 0 — the better-ranked broker candidate — at an address
//! where nothing listens.  Between the first failed probe and the
//! liveness budget running out, the control plane refuses the two operator
//! mutations it serves, `Migrate` and `CancelMigration`, with the typed
//! coordinator-unavailable failure naming the silent broker; once the
//! follower has promoted itself, the same cancellation is accepted and
//! rolls ownership back.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{parse_peer_spec, Cluster, ClusterConfig, ClusterLayout, ServerId};
use shadowfax_net::{LivenessConfig, StatusCode};
use shadowfax_rpc::{
    ControlPlane, Coordinator, CoordinatorConfig, CtrlClient, Role, RpcError, RpcServer,
    RpcServerConfig,
};

/// A loopback address nothing listens on.
fn dead_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    listener.local_addr().expect("local addr").to_string()
}

fn assert_refused_naming(result: Result<impl std::fmt::Debug, RpcError>, broker: &str) {
    match result {
        Err(RpcError::Remote { status, message }) => {
            assert_eq!(status, StatusCode::ControlFailed);
            assert!(
                message.contains("coordinator unavailable") && message.contains(broker),
                "the refusal must name the silent broker {broker}: {message}"
            );
        }
        other => panic!("the mutation was not refused inside the window: {other:?}"),
    }
}

#[test]
fn a_follower_refuses_operator_mutations_until_it_promotes_itself() {
    let broker_addr = dead_addr();
    let mut config = ClusterConfig::two_server_test();
    config.servers = 1;
    config.base_id = 1;
    config.layout = ClusterLayout::Partitioned;
    config.peers =
        vec![parse_peer_spec(&format!("id=0,addr={broker_addr},threads=2")).expect("peer spec")];
    let cluster = Arc::new(Cluster::start(config));

    // A pending migration out of the local server, recorded at the store:
    // the dependency the operator will try to cancel.
    let moving = cluster
        .meta()
        .snapshot()
        .server(ServerId(1))
        .expect("server 1 registered")
        .owned
        .ranges()[0]
        .take_fraction(0.25);
    let (migration_id, ..) = cluster
        .meta()
        .transfer_ownership(ServerId(1), ServerId(0), &[moving])
        .expect("record migration");

    // Probes of the dead broker fail at once; the liveness budget keeps
    // the follower from promoting itself for two seconds — the window.
    let listen = dead_addr();
    let mut coordinator_config = CoordinatorConfig::new(listen.clone(), 1);
    coordinator_config.peers = vec![(broker_addr.clone(), 0)];
    coordinator_config.tick = Duration::from_millis(20);
    coordinator_config.probe_timeout = Duration::from_millis(200);
    coordinator_config.liveness = LivenessConfig {
        heartbeat_interval: Duration::from_millis(40),
        miss_budget: 50,
    };
    let coordinator = Coordinator::spawn(Arc::clone(&cluster), coordinator_config);
    let rpc = RpcServer::serve(
        ControlPlane {
            cluster: Arc::clone(&cluster),
            coordinator: Some(Arc::clone(&coordinator)),
            tier: None,
        },
        RpcServerConfig {
            listen,
            ..RpcServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut ctrl = CtrlClient::connect(&rpc.local_addr().to_string(), Duration::from_secs(5))
        .expect("connect");

    // Inside the window: follower, broker seen unreachable.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = ctrl.broker_status().expect("broker status");
        assert_eq!(status.role, Role::Follower, "promoted before the window");
        if status.peers.iter().any(|p| !p.reachable) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the dead broker was never probed"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_refused_naming(ctrl.migrate_fraction(1, 0, 0.5), &broker_addr);
    assert_refused_naming(ctrl.cancel_migration(migration_id), &broker_addr);
    let dep = cluster.meta().migration_state(migration_id).unwrap();
    assert!(
        dep.is_some_and(|dep| !dep.cancelled),
        "a refused cancellation must not touch the dependency"
    );
    // Reads are not gated.
    ctrl.migration_status(migration_id)
        .expect("status inside the window");
    ctrl.ownership().expect("ownership inside the window");

    // After promotion the same cancellation goes through.
    let deadline = Instant::now() + Duration::from_secs(30);
    while ctrl.broker_status().expect("broker status").role != Role::Broker {
        assert!(
            Instant::now() < deadline,
            "the follower never promoted itself"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    ctrl.cancel_migration(migration_id)
        .expect("cancel through the new broker");
    assert_eq!(
        cluster.meta().owner_of(moving.start).map(|(id, _)| id),
        Some(ServerId(1)),
        "cancellation must roll the range back to the source"
    );

    drop(ctrl);
    rpc.shutdown();
    coordinator.shutdown();
    drop(coordinator);
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced after shutdown"),
    }
}
