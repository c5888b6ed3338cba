//! The data plane after the hand-off: a client connection's socket is owned
//! and served by the dispatch thread its HELLO names.
//!
//! * Nothing is lost across the hand-off: batches pipelined behind the
//!   HELLO in the same TCP segment reach the dispatch thread inside the
//!   decoder the I/O thread hands over, and are answered in order.
//! * Slow-reader isolation moved with the socket (the data-plane twin of
//!   `slow_reader.rs`): a client that floods batches and never reads a
//!   reply is dropped when its outbound buffer passes
//!   `OUTBOUND_BUDGET_BYTES` (`rpc.conns.dropped_slow_reader`), while a
//!   sibling session on the *same dispatch thread* keeps answering fast.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{Cluster, ClusterConfig, ServerId};
use shadowfax_net::{BatchReply, KvRequest, KvResponse, RequestBatch};
use shadowfax_rpc::{
    encode_frame, ControlPlane, FrameDecoder, RemoteClient, RemoteClientConfig, RpcServer,
    RpcServerConfig, RpcServerHandle, WireMsg, MAX_FRAME_BYTES, OUTBOUND_BUDGET_BYTES,
};

/// A two-server cluster whose servers run one dispatch thread each (so
/// every data connection to server 0 shares `sv0/t0`) behind a loopback
/// front end with one control I/O thread.
fn start_stack() -> (Arc<Cluster>, RpcServerHandle, String) {
    let mut config = ClusterConfig::two_server_test();
    config.server_template.threads = 1;
    let cluster = Arc::new(Cluster::start(config));
    let rpc = RpcServer::serve(
        ControlPlane::new(Arc::clone(&cluster)),
        RpcServerConfig {
            io_threads: 1,
            ..RpcServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = rpc.local_addr().to_string();
    (cluster, rpc, addr)
}

fn stop_stack(cluster: Arc<Cluster>, rpc: RpcServerHandle) {
    rpc.shutdown();
    match Arc::try_unwrap(cluster) {
        Ok(cluster) => cluster.shutdown(),
        Err(_) => panic!("cluster still referenced after rpc shutdown"),
    }
}

fn hello() -> Vec<u8> {
    encode_frame(&WireMsg::Hello {
        fabric_addr: "sv0/t0".to_string(),
    })
}

#[test]
fn batches_pipelined_behind_the_hello_survive_the_hand_off() {
    let (cluster, rpc, addr) = start_stack();
    let view = cluster.server(ServerId(0)).unwrap().serving_view();

    // One write: the HELLO and every batch, more of them than one service
    // pass handles, so the I/O thread necessarily reads batches it must
    // not touch.
    const BATCHES: u64 = 600;
    let mut bytes = hello();
    for seq in 1..=BATCHES {
        let ops = vec![KvRequest::RmwAdd { key: 42, delta: 1 }];
        bytes.extend(encode_frame(&WireMsg::Batch(RequestBatch {
            view,
            seq,
            ops,
        })));
    }
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    stream.write_all(&bytes).expect("send HELLO and batches");

    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
    let mut chunk = [0u8; 16 * 1024];
    let mut next = 1u64;
    while next <= BATCHES {
        let n = stream.read(&mut chunk).expect("read replies");
        assert!(n > 0, "server closed after {} replies", next - 1);
        decoder.extend(&chunk[..n]);
        while let Some(msg) = decoder.next_msg().expect("decode reply") {
            match msg {
                WireMsg::Reply(BatchReply::Executed { seq, results }) => {
                    // In order, none lost, none executed twice.
                    assert_eq!(seq, next);
                    assert_eq!(results, vec![KvResponse::Counter(next)]);
                    next += 1;
                }
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
    drop(stream);
    stop_stack(cluster, rpc);
}

#[test]
fn data_plane_slow_reader_is_dropped_without_stalling_its_sibling() {
    let (cluster, rpc, addr) = start_stack();
    let view = cluster.server(ServerId(0)).unwrap().serving_view();
    let metrics = Arc::clone(cluster.metrics());

    // The well-behaved sibling; its preload is what the victim reads back.
    const KEYS: u64 = 4;
    let mut config = RemoteClientConfig::new(&addr);
    config.timeout = Duration::from_secs(10);
    let mut sibling = RemoteClient::connect(config).expect("connect sibling");
    for key in 0..KEYS {
        sibling.put(key, vec![0x5a; 1024]).expect("preload");
    }

    // The victim: one batch of 4 reads costs 50 bytes to send and 4 KiB
    // to answer.  It floods them and never reads a byte.
    let victim_addr = addr.clone();
    let flooder = std::thread::spawn(move || {
        let victim = TcpStream::connect(&victim_addr).expect("connect victim");
        (&victim).write_all(&hello()).expect("victim HELLO");
        // Nonblocking: a full kernel buffer (the server throttling a
        // backlogged connection) must not end the flood; only a hard
        // error means the server dropped us.
        victim.set_nonblocking(true).expect("victim nonblocking");
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut seq = 0u64;
        while Instant::now() < deadline {
            seq += 1;
            let ops = (0..KEYS).map(|key| KvRequest::Read { key }).collect();
            let frame = encode_frame(&WireMsg::Batch(RequestBatch { view, seq, ops }));
            let mut off = 0usize;
            while off < frame.len() {
                match (&victim).write(&frame[off..]) {
                    Ok(0) => return true,
                    Ok(n) => off += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return false;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => return true, // dropped by the server
                }
            }
        }
        false
    });

    // Meanwhile the sibling keeps its round trips on the same dispatch
    // thread: the victim's passes are bounded and its socket never blocks
    // the thread.
    let dropped = metrics.counter("rpc.conns.dropped_slow_reader");
    let deadline = Instant::now() + Duration::from_secs(90);
    let mut sibling_ops = 0u64;
    let mut worst_op = Duration::ZERO;
    while dropped.value() == 0 {
        let op_start = Instant::now();
        let value = sibling.get(0).expect("sibling read during the flood");
        let took = op_start.elapsed();
        worst_op = worst_op.max(took);
        sibling_ops += 1;
        assert_eq!(value.map(|v| v.len()), Some(1024));
        assert!(
            took < Duration::from_secs(1),
            "sibling round trip took {took:?} during the flood"
        );
        assert!(
            Instant::now() < deadline,
            "the slow reader was never dropped"
        );
    }
    assert!(
        flooder.join().expect("flooder thread"),
        "the victim's writes never failed, so it was not dropped"
    );

    // The drop was the budget path: the buffer really did absorb replies
    // up to the budget first.
    let hwm = metrics.gauge("rpc.conns.outbuf_hwm_bytes").value();
    assert!(
        hwm as usize > OUTBOUND_BUDGET_BYTES / 2,
        "outbound high-water mark only reached {hwm} bytes"
    );
    // Its pended state went with it, and the sibling is still healthy.
    sibling.put(8, b"still here".to_vec()).expect("post-drop");
    assert_eq!(
        sibling.get(8).expect("post-drop read").as_deref(),
        Some(&b"still here"[..])
    );
    println!(
        "SLOW_READER_DATA sibling_ops_during_flood={sibling_ops} worst_op_ms={} \
         outbuf_hwm_bytes={hwm}",
        worst_op.as_millis()
    );
    drop(sibling);
    stop_stack(cluster, rpc);
}
