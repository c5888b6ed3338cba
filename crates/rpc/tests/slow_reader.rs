//! Slow-reader isolation on the control plane (`data_plane.rs` has the
//! data-plane twin).
//!
//! One client floods the server with control requests and never reads a
//! single reply; its connection's outbound buffer crosses the budget and
//! the server drops it (`rpc.conns.dropped_slow_reader`).  The metrics
//! connection sharing the *same* control I/O thread (`--io-threads 1`)
//! keeps being answered throughout, and a sibling client's data
//! operations never stall either.

use std::io::{ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use shadowfax_net::KvRequest;
use shadowfax_rpc::{encode_frame, WireMsg};
use shadowfax_rpc::{CtrlClient, RemoteClient, RemoteClientConfig};

mod util;
use util::ServerSpawn;

#[test]
fn slow_reader_is_dropped_without_stalling_siblings() {
    let server = ServerSpawn {
        log_name: "slow_reader".into(),
        threads: 2,
        // One control I/O thread: the victim, the sibling's ownership
        // lookups, and the metrics connection all share it, so any stall
        // is visible.
        io_threads: Some(1),
        ..ServerSpawn::default()
    }
    .spawn();

    // The well-behaved sibling, connected before the flood starts.
    let mut config = RemoteClientConfig::new(server.addr.clone());
    config.timeout = Duration::from_secs(10);
    let mut sibling = RemoteClient::connect(config).expect("connect sibling client");
    sibling.issue(
        KvRequest::Upsert {
            key: 7,
            value: b"healthy".to_vec(),
        },
        Box::new(|_| {}),
    );
    assert!(
        sibling.drain(Duration::from_secs(10)).expect("preload"),
        "sibling preload did not drain"
    );

    // The victim: blast GET_METRICS frames (tiny request, multi-KB reply)
    // and never read a byte back.  Replies pile up in the connection's
    // outbound buffer until the budget drops it; the writer then sees a
    // reset and exits.
    let victim_addr = server.addr.clone();
    let flooder = std::thread::spawn(move || {
        let victim = TcpStream::connect(&victim_addr).expect("connect victim");
        // Nonblocking with explicit offset tracking: a full kernel buffer
        // (WouldBlock) must NOT end the flood — on a loaded machine the
        // server can lag for seconds, and giving up then closes the
        // socket and turns the drop into a generic hangup instead of the
        // budget path this test exists to prove.  Only a hard error
        // (reset/broken pipe) means the server dropped us.
        victim.set_nonblocking(true).expect("victim nonblocking");
        let frame = encode_frame(&WireMsg::GetMetrics);
        // Batch the tiny frames so each write syscall carries many.
        let burst: Vec<u8> = frame
            .iter()
            .copied()
            .cycle()
            .take(frame.len() * 1024)
            .collect();
        let deadline = Instant::now() + Duration::from_secs(120);
        let mut off = 0usize;
        while Instant::now() < deadline {
            match (&victim).write(&burst[off..]) {
                Ok(0) => return true,
                Ok(n) => {
                    off += n;
                    if off == burst.len() {
                        off = 0;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return true, // dropped by the server
            }
        }
        false
    });

    // Meanwhile the sibling keeps being served, and the metrics connection
    // keeps being answered by the very I/O thread the victim floods: the
    // loop never blocks on the victim's socket.
    let mut ctrl =
        CtrlClient::connect(&server.addr, Duration::from_secs(10)).expect("ctrl connect");
    let deadline = Instant::now() + Duration::from_secs(90);
    let mut sibling_ops = 0u64;
    let mut worst_op = Duration::ZERO;
    let dropped = loop {
        let op_start = Instant::now();
        let value = sibling.get(7).expect("sibling read during flood");
        let took = op_start.elapsed();
        worst_op = worst_op.max(took);
        sibling_ops += 1;
        assert_eq!(value.as_deref(), Some(&b"healthy"[..]));
        assert!(
            took < Duration::from_secs(3),
            "sibling operation took {took:?} during the flood"
        );
        let snap = ctrl.metrics_ns("rpc.conns").expect("conn metrics");
        let dropped = snap.counter("rpc.conns.dropped_slow_reader").unwrap_or(0);
        if dropped >= 1 {
            break snap;
        }
        assert!(
            Instant::now() < deadline,
            "slow reader was never dropped; conns snapshot: {snap:?}"
        );
    };
    assert!(
        flooder.join().expect("flooder thread"),
        "the victim's writes never failed, so it was not dropped"
    );

    // The drop was the budget path, not a generic hangup, and the buffer
    // really was absorbing replies before it tripped.
    assert!(
        dropped.gauge("rpc.conns.outbuf_hwm_bytes").unwrap_or(0) > 1_000_000,
        "outbound high-water mark never grew: {dropped:?}"
    );

    // The sibling is still healthy after the drop.
    sibling.issue(
        KvRequest::Upsert {
            key: 8,
            value: b"still here".to_vec(),
        },
        Box::new(|_| {}),
    );
    assert!(
        sibling.drain(Duration::from_secs(10)).expect("post-drop"),
        "sibling writes did not drain after the slow reader was dropped"
    );
    assert_eq!(
        sibling.get(8).expect("post-drop read").as_deref(),
        Some(&b"still here"[..])
    );
    println!(
        "SLOW_READER sibling_ops_during_flood={sibling_ops} worst_op_ms={} \
         outbuf_hwm_bytes={}",
        worst_op.as_millis(),
        dropped.gauge("rpc.conns.outbuf_hwm_bytes").unwrap_or(0)
    );
}
