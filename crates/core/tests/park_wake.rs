//! Park/wake race test for the dispatch threads.
//!
//! A dispatch thread with nothing to do blocks in its reactor; everything
//! that can give it work from another thread must wake it, with no window
//! in which a wake-up is lost.  This test alternates 10,000 times between
//! letting the threads go idle and delivering exactly one piece of work
//! through one of the four routes that exist:
//!
//! * a batch over the in-process fabric (the listener's waker),
//! * a batch on an adopted socket (reactor readiness),
//! * `start_migration` (which every thread of the source must notice),
//! * shutdown.
//!
//! Half the deliveries wait until a thread has parked since the previous
//! one (the work finds a blocked thread); the other half go out at once
//! and race the thread's descent into the park.  Every delivery must be
//! answered within one second — a lost wake-up would hang forever.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use shadowfax::{Cluster, ClusterConfig, ServerId};
use shadowfax_net::{BatchReply, KvLink, RequestBatch, ServerKvLink, Transport, TransportError};
use shadowfax_obs::Counter;

const STEPS: usize = 10_000;
const STEP_DEADLINE: Duration = Duration::from_secs(1);
/// A shutdown (and a fresh cluster) every this many steps.
const SHUTDOWN_EVERY: usize = 500;
/// A migration every this many steps.
const MIGRATE_EVERY: usize = 50;

/// The serving end of a socket pair speaking a 16-byte request (view, seq)
/// and an 8-byte reply (seq): the smallest real-fd `ServerKvLink`.
struct PipeLink {
    stream: UnixStream,
    buf: Vec<u8>,
}

impl ServerKvLink for PipeLink {
    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.stream.as_raw_fd())
    }

    fn try_recv_batch(&mut self) -> Result<Option<RequestBatch>, TransportError> {
        // Edge-triggered registration: read until the socket runs dry.
        let mut chunk = [0u8; 256];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(TransportError::PeerClosed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(TransportError::Io(e.to_string())),
            }
        }
        if self.buf.len() < 16 {
            return Ok(None);
        }
        let word = |i: usize| u64::from_le_bytes(self.buf[i..i + 8].try_into().unwrap());
        let (view, seq) = (word(0), word(8));
        self.buf.drain(..16);
        let ops = Vec::new();
        Ok(Some(RequestBatch { view, seq, ops }))
    }

    fn send_reply(&mut self, reply: BatchReply) -> Result<(), TransportError> {
        self.stream
            .write_all(&reply.seq().to_le_bytes())
            .map_err(|e| TransportError::Io(e.to_string()))
    }
}

/// One cluster with, per dispatch thread of server 0, a fabric link and an
/// adopted socket.
struct Rig {
    cluster: Cluster,
    sim: Vec<Box<dyn KvLink>>,
    pipes: Vec<UnixStream>,
    parks: Counter,
}

impl Rig {
    fn start(threads: usize) -> Rig {
        let mut config = ClusterConfig::two_server_test();
        config.server_template.threads = threads;
        config.server_template.migration.sampling_duration = Duration::from_millis(1);
        let cluster = Cluster::start(config);
        let server = cluster.server(ServerId(0)).unwrap();
        let mut sim = Vec::new();
        let mut pipes = Vec::new();
        for t in 0..threads {
            sim.push(
                cluster
                    .kv_network()
                    .connect_link(&server.thread_address(t))
                    .unwrap(),
            );
            let (client, served) = UnixStream::pair().unwrap();
            served.set_nonblocking(true).unwrap();
            client.set_read_timeout(Some(STEP_DEADLINE)).unwrap();
            server.dispatch_handle(t).adopt_kv(Box::new(PipeLink {
                stream: served,
                buf: Vec::new(),
            }));
            pipes.push(client);
        }
        let parks = cluster.metrics().counter("sv0.dispatch.parks");
        Rig {
            cluster,
            sim,
            pipes,
            parks,
        }
    }

    fn wakes(&self, by: &str) -> u64 {
        let name = format!("sv0.dispatch.wakes_{by}");
        self.cluster.metrics().counter(&name).value()
    }
}

fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + STEP_DEADLINE;
    while !done() {
        assert!(Instant::now() < deadline, "{what} within {STEP_DEADLINE:?}");
        std::thread::yield_now();
    }
}

fn alternate(threads: usize) {
    let mut rig = Rig::start(threads);
    let mut parks_seen = 0;
    // Parks ended by a notify / by socket readiness, over all the clusters
    // this run goes through.
    let mut wakes = (0, 0);
    for step in 0..STEPS {
        // Steps 0,1 wait for a park, steps 2,3 do not, and so on, so each
        // route is exercised against both a blocked and a racing thread.
        if (step / 2) % 2 == 0 {
            wait_until(&format!("step {step}: no thread parked"), || {
                rig.parks.value() > parks_seen
            });
        }
        parks_seen = rig.parks.value();
        let t = step % threads;
        let seq = step as u64 + 1;
        let view = rig.cluster.server(ServerId(0)).unwrap().serving_view();
        if step % SHUTDOWN_EVERY == SHUTDOWN_EVERY - 1 {
            wakes.0 += rig.wakes("signal");
            wakes.1 += rig.wakes("socket");
            let started = Instant::now();
            rig.cluster.shutdown();
            let took = started.elapsed();
            assert!(took < STEP_DEADLINE, "step {step}: shutdown took {took:?}");
            rig = Rig::start(threads);
            parks_seen = 0;
        } else if step % MIGRATE_EVERY == MIGRATE_EVERY - 1 {
            // Completes only if every thread of the source comes back: the
            // transfer cut waits for all of their loop generations, and
            // each ships its own region.
            rig.cluster
                .migrate_fraction(ServerId(0), ServerId(1), 0.05)
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert!(
                rig.cluster.wait_for_migrations(STEP_DEADLINE),
                "step {step}: migration did not complete within {STEP_DEADLINE:?}"
            );
        } else if step % 2 == 0 {
            let ops = Vec::new();
            rig.sim[t]
                .send_batch(RequestBatch { view, seq, ops })
                .unwrap();
            let mut reply = None;
            wait_until(&format!("step {step}: no reply on the fabric link"), || {
                reply = rig.sim[t].try_recv_reply().unwrap();
                reply.is_some()
            });
            assert_eq!(reply.unwrap().seq(), seq);
        } else {
            let mut frame = [0u8; 16];
            frame[..8].copy_from_slice(&view.to_le_bytes());
            frame[8..].copy_from_slice(&seq.to_le_bytes());
            rig.pipes[t].write_all(&frame).unwrap();
            let mut answer = [0u8; 8];
            rig.pipes[t]
                .read_exact(&mut answer)
                .unwrap_or_else(|e| panic!("step {step}: no reply on the adopted socket: {e}"));
            assert_eq!(u64::from_le_bytes(answer), seq);
        }
    }
    rig.cluster.shutdown();
    // Both wake mechanisms really were what answered (not a spinning thread).
    assert!(wakes.0 > 1_000, "only {} wakes by notify", wakes.0);
    assert!(
        wakes.1 > 1_000,
        "only {} wakes by socket readiness",
        wakes.1
    );
}

#[test]
fn ten_thousand_alternations_on_one_dispatch_thread() {
    alternate(1);
}

#[test]
fn ten_thousand_alternations_on_four_dispatch_threads() {
    alternate(4);
}
