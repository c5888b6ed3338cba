//! Golden bytes for the wire format.
//!
//! `golden/wire_frames.hex` holds one fixed sample per frame kind and per
//! variant of every tagged payload (`KvRequest`, `KvResponse`, `BatchReply`,
//! `MigrationMsg`, `MigratedItem`, `MigrationAckPhase`, `StatusCode`),
//! captured from the hand-written codec this repo had before the field
//! table.  The file is the wire format's pin: a codec change that alters one
//! byte of it is a protocol change, not a refactor.  Entry names are paths of
//! variant names (`Migration/Ack/Prepared`); the codec's own unit tests check
//! those names against the field table so no tag goes unpinned.
//!
//! To pin a new frame, add its sample below and paste the `name = hex` line
//! the failing assertion prints.  Never edit an existing line.

use shadowfax::wire::{
    decode_frame, encode_frame, Role, WireBrokerPeer, WireBrokerStatus, WireMigrationState,
    WireMsg, WireOwnership, WireServerInfo, WireTierLog, WireTierStatus, MAX_FRAME_BYTES,
};
use shadowfax::{
    ChainFetchQuery, ChainFetchReply, HashRange, MetaReplica, MigratedItem, MigrationAckPhase,
    MigrationDep, MigrationMsg, RangeSet, ServerId, ServerMeta,
};
use shadowfax_net::{BatchReply, KvRequest, KvResponse, RequestBatch, StatusCode};
use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot, TimelineEvent};
use shadowfax_storage::TierRecord;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The `name = hex` lines of the golden file, in file order.
fn golden() -> Vec<(&'static str, &'static str)> {
    include_str!("golden/wire_frames.hex")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_once(" = ").expect("`name = hex` line"))
        .collect()
}

fn batch(op: KvRequest) -> WireMsg {
    WireMsg::Batch(RequestBatch {
        view: 7,
        seq: 42,
        ops: vec![op],
    })
}

fn executed(result: KvResponse) -> WireMsg {
    WireMsg::Reply(BatchReply::Executed {
        seq: 42,
        results: vec![result],
    })
}

fn ctrl_err(status: StatusCode) -> WireMsg {
    WireMsg::CtrlErr {
        status,
        message: "view 3 < 4".into(),
    }
}

fn ack(phase: MigrationAckPhase) -> WireMsg {
    WireMsg::Migration(MigrationMsg::Ack {
        migration_id: 7,
        phase,
    })
}

fn record_batch(item: MigratedItem) -> WireMsg {
    WireMsg::Migration(MigrationMsg::PushRecordBatch {
        migration_id: 7,
        target_view: 2,
        items: vec![item],
    })
}

fn dep(id: u64, source: u32, target: u32, range: (u64, u64), flags: [bool; 3]) -> MigrationDep {
    MigrationDep {
        id,
        source: ServerId(source),
        target: ServerId(target),
        ranges: vec![HashRange::new(range.0, range.1)],
        source_complete: flags[0],
        target_complete: flags[1],
        cancelled: flags[2],
    }
}

fn replica() -> MetaReplica {
    let server = |id, view, address: &str, start, end| {
        (
            ServerId(id),
            ServerMeta {
                view,
                owned: RangeSet::from_ranges([HashRange::new(start, end)]),
                address: address.into(),
                threads: 2,
            },
        )
    };
    MetaReplica {
        epoch: 17,
        next_migration_seq: 3,
        servers: vec![
            server(0, 4, "127.0.0.1:4870", 0, 1 << 60),
            server(1, 3, "127.0.0.1:4871", 1 << 60, u64::MAX),
        ],
        pending: vec![dep(1 << 40, 1, 0, (1 << 60, 1 << 61), [true, false, false])],
        completed: vec![dep(0, 0, 1, (0, 1 << 10), [true, true, false])],
        cancelled: vec![dep(1, 0, 1, (1 << 10, 1 << 11), [false, false, true])],
    }
}

/// One fixed sample per golden entry, in file order.
fn samples() -> Vec<(&'static str, WireMsg)> {
    let two_ranges = || {
        vec![
            HashRange::new(0, 1 << 62),
            HashRange::new(1 << 63, u64::MAX),
        ]
    };
    vec![
        (
            "Hello",
            WireMsg::Hello {
                fabric_addr: "sv0/t3".into(),
            },
        ),
        (
            "Batch",
            WireMsg::Batch(RequestBatch {
                view: 7,
                seq: 42,
                ops: vec![
                    KvRequest::Read { key: 1 },
                    KvRequest::RmwAdd { key: 3, delta: 5 },
                ],
            }),
        ),
        ("Batch/Read", batch(KvRequest::Read { key: 1 })),
        (
            "Batch/Upsert",
            batch(KvRequest::Upsert {
                key: 2,
                value: vec![9, 8, 7],
            }),
        ),
        (
            "Batch/RmwAdd",
            batch(KvRequest::RmwAdd { key: 3, delta: 5 }),
        ),
        ("Batch/Delete", batch(KvRequest::Delete { key: 4 })),
        (
            "Reply/Executed",
            WireMsg::Reply(BatchReply::Executed {
                seq: 42,
                results: vec![KvResponse::Ok, KvResponse::Counter(12)],
            }),
        ),
        (
            "Reply/Executed/ValueNone",
            executed(KvResponse::Value(None)),
        ),
        (
            "Reply/Executed/ValueSome",
            executed(KvResponse::Value(Some(b"abc".to_vec()))),
        ),
        ("Reply/Executed/Counter", executed(KvResponse::Counter(12))),
        ("Reply/Executed/Ok", executed(KvResponse::Ok)),
        (
            "Reply/Executed/Deleted",
            executed(KvResponse::Deleted(true)),
        ),
        ("Reply/Executed/Pending", executed(KvResponse::Pending)),
        (
            "Reply/Executed/Error",
            executed(KvResponse::Error("boom".into())),
        ),
        (
            "Reply/Rejected",
            WireMsg::Reply(BatchReply::Rejected {
                seq: 9,
                server_view: 3,
            }),
        ),
        ("GetOwnership", WireMsg::GetOwnership),
        (
            "Ownership",
            WireMsg::Ownership(WireOwnership {
                servers: vec![WireServerInfo {
                    id: 0,
                    address: "sv0".into(),
                    threads: 2,
                    view: 4,
                    ranges: vec![(0, 1 << 63), (u64::MAX / 2 + 1, u64::MAX)],
                }],
            }),
        ),
        (
            "Migrate",
            WireMsg::Migrate {
                source: 0,
                target: 1,
                fraction: 0.25,
            },
        ),
        ("CtrlOk", WireMsg::CtrlOk { value: 17 }),
        ("CtrlErr/Ok", ctrl_err(StatusCode::Ok)),
        ("CtrlErr/StaleView", ctrl_err(StatusCode::StaleView)),
        (
            "CtrlErr/UnknownAddress",
            ctrl_err(StatusCode::UnknownAddress),
        ),
        ("CtrlErr/PeerClosed", ctrl_err(StatusCode::PeerClosed)),
        ("CtrlErr/Io", ctrl_err(StatusCode::Io)),
        ("CtrlErr/Malformed", ctrl_err(StatusCode::Malformed)),
        ("CtrlErr/Oversized", ctrl_err(StatusCode::Oversized)),
        ("CtrlErr/ControlFailed", ctrl_err(StatusCode::ControlFailed)),
        ("CtrlErr/OutOfRange", ctrl_err(StatusCode::OutOfRange)),
        ("Ping", WireMsg::Ping(0xDEAD)),
        ("Pong", WireMsg::Pong(0xBEEF)),
        (
            "MigrationStatus",
            WireMsg::MigrationStatus { migration_id: 7 },
        ),
        (
            "MigrationState",
            WireMsg::MigrationState(WireMigrationState {
                migration_id: 7,
                complete: false,
                source_complete: true,
                target_complete: false,
                cancelled: true,
            }),
        ),
        (
            "CancelMigration",
            WireMsg::CancelMigration { migration_id: 7 },
        ),
        (
            "MigHello",
            WireMsg::MigHello {
                server: 1,
                thread: 3,
            },
        ),
        (
            "Migration/PrepForTransfer",
            WireMsg::Migration(MigrationMsg::PrepForTransfer {
                migration_id: 7,
                ranges: two_ranges(),
                source: ServerId(5),
                target_view: 2,
            }),
        ),
        (
            "Migration/TakeOwnership",
            WireMsg::Migration(MigrationMsg::TakeOwnership {
                migration_id: 7,
                ranges: two_ranges(),
                target_view: 2,
            }),
        ),
        (
            "Migration/PushHotRecords",
            WireMsg::Migration(MigrationMsg::PushHotRecords {
                migration_id: 7,
                target_view: 2,
                records: vec![(1, vec![0xAA; 4]), (2, Vec::new())],
            }),
        ),
        (
            "Migration/PushRecordBatch/Record",
            record_batch(MigratedItem::Record {
                key: 3,
                value: vec![0xBB; 4],
            }),
        ),
        (
            "Migration/PushRecordBatch/Indirection",
            record_batch(MigratedItem::Indirection {
                representative_hash: 0xFFEE,
                payload: vec![1, 2, 3],
            }),
        ),
        (
            "Migration/CompleteMigration",
            WireMsg::Migration(MigrationMsg::CompleteMigration {
                migration_id: 7,
                target_view: 2,
                total_items: 12345,
            }),
        ),
        ("Migration/Ack/Prepared", ack(MigrationAckPhase::Prepared)),
        (
            "Migration/Ack/OwnershipReceived",
            ack(MigrationAckPhase::OwnershipReceived),
        ),
        ("Migration/Ack/Completed", ack(MigrationAckPhase::Completed)),
        (
            "Migration/CompactionHandoff",
            WireMsg::Migration(MigrationMsg::CompactionHandoff {
                key: 9,
                value: vec![4; 4],
            }),
        ),
        (
            "Migration/Heartbeat",
            WireMsg::Migration(MigrationMsg::Heartbeat {
                migration_id: 7,
                view: 2,
            }),
        ),
        (
            "Migration/HeartbeatAck",
            WireMsg::Migration(MigrationMsg::HeartbeatAck {
                migration_id: 7,
                view: 3,
            }),
        ),
        (
            "Migration/CancelMigration",
            WireMsg::Migration(MigrationMsg::CancelMigration {
                migration_id: 7,
                view: 2,
            }),
        ),
        (
            "FetchChain",
            WireMsg::FetchChain(ChainFetchQuery {
                requester: 1,
                view: 7,
                log: 3,
                address: 0x9_4000,
                max_records: 256,
            }),
        ),
        (
            "ChainRecords",
            WireMsg::ChainRecords(ChainFetchReply {
                log: 3,
                address: 0x40,
                next: 0x1234,
                records: vec![
                    TierRecord {
                        key: 11,
                        flags: 0x0102,
                        value: vec![0xEE; 4],
                    },
                    TierRecord {
                        key: 12,
                        flags: 1,
                        value: Vec::new(),
                    },
                ],
            }),
        ),
        ("GetMetrics", WireMsg::GetMetrics),
        (
            "Metrics",
            WireMsg::Metrics(MetricsSnapshot {
                version: 1,
                uptime_micros: 5_250_000,
                counters: vec![
                    ("sv0.migration.cancelled".into(), 1),
                    ("tier.chain.served".into(), 42),
                ],
                gauges: vec![("sv0.ops.pending".into(), 3)],
                histograms: vec![HistogramSnapshot {
                    name: "rpc.latency.read".into(),
                    count: 2,
                    total_ns: 3_000,
                    max_ns: 2_000,
                    buckets: vec![(32, 1), (64, 1)],
                }],
                events: vec![TimelineEvent {
                    at_micros: 10,
                    name: "migration.phase".into(),
                    label: "sampling".into(),
                    id: 7,
                }],
            }),
        ),
        (
            "GetMetricsNs",
            WireMsg::GetMetricsNs {
                prefix: "tier.".into(),
            },
        ),
        ("GetMetaReplica", WireMsg::GetMetaReplica),
        ("MetaReplicaMsg", WireMsg::MetaReplicaMsg(replica())),
        ("MetaMerge", WireMsg::MetaMerge(replica())),
        (
            "MetaAck",
            WireMsg::MetaAck {
                epoch: 17,
                changed: true,
            },
        ),
        ("GetBrokerStatus", WireMsg::GetBrokerStatus),
        (
            "BrokerStatus",
            WireMsg::BrokerStatus(WireBrokerStatus {
                role: Role::Follower,
                broker_addr: "127.0.0.1:4870".into(),
                epoch: 17,
                peers: vec![
                    WireBrokerPeer {
                        addr: "127.0.0.1:4871".into(),
                        acked_epoch: 17,
                        reachable: true,
                    },
                    WireBrokerPeer {
                        addr: "127.0.0.1:4872".into(),
                        acked_epoch: 9,
                        reachable: false,
                    },
                ],
                tier_addr: "127.0.0.1:4900".into(),
                tier_reachable: true,
                cancel_escalated: 2,
            }),
        ),
        ("TierLease", WireMsg::TierLease { log: 3, holder: 1 }),
        (
            "TierAppend",
            WireMsg::TierAppend {
                log: 3,
                lease: 7,
                offset: 0x4_0000,
                data: vec![0xCC; 6],
            },
        ),
        (
            "TierRead",
            WireMsg::TierRead {
                log: 3,
                offset: 64,
                len: 4096,
            },
        ),
        (
            "TierData",
            WireMsg::TierData {
                log: 3,
                offset: 64,
                data: vec![0xDD; 6],
            },
        ),
        ("GetTierStatus", WireMsg::GetTierStatus),
        (
            "TierStatus",
            WireMsg::TierStatus(WireTierStatus {
                appends: 120,
                reads: 4096,
                rejected_stale_lease: 1,
                logs: vec![
                    WireTierLog {
                        log: 0,
                        extent: 1 << 20,
                        lease: 3,
                        holder: 0,
                    },
                    WireTierLog {
                        log: 2,
                        extent: 64,
                        lease: 0,
                        holder: 0,
                    },
                ],
            }),
        ),
    ]
}

#[test]
fn every_sample_encodes_to_its_golden_bytes_and_decodes_back() {
    let (golden, samples) = (golden(), samples());
    let names = |it: &mut dyn Iterator<Item = &'static str>| it.collect::<Vec<_>>();
    assert_eq!(
        names(&mut samples.iter().map(|s| s.0)),
        names(&mut golden.iter().map(|g| g.0)),
        "samples and golden entries must pair up one to one, in file order"
    );
    for ((name, msg), (_, want)) in samples.iter().zip(&golden) {
        let frame = encode_frame(msg);
        assert_eq!(
            hex(&frame),
            *want,
            "wire bytes changed; actual line:\n{name} = {}",
            hex(&frame)
        );
        let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
        assert_eq!(decoded, Ok((msg.clone(), frame.len())), "{name}");
    }
}
