//! Park/wake race test for the dispatch threads.
//!
//! A dispatch thread with nothing to do blocks in its reactor; everything
//! that can give it work from another thread must wake it, with no window
//! in which a wake-up is lost.  This test alternates 10,000 times between
//! letting the threads go idle and delivering exactly one piece of work
//! through one of the four routes that exist:
//!
//! * a batch over the in-process fabric (the listener's waker),
//! * a batch on an adopted socket (reactor readiness) — both real frames,
//!   served through the same `Framed` link,
//! * `start_migration` (which every thread of the source must notice),
//! * shutdown.
//!
//! Half the deliveries wait until a thread has parked since the previous
//! one (the work finds a blocked thread); the other half go out at once
//! and race the thread's descent into the park.  Every delivery must be
//! answered within one second — a lost wake-up would hang forever.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use shadowfax::wire::{encode_frame, FrameDecoder, Framed, WireMsg, MAX_FRAME_BYTES};
use shadowfax::{Cluster, ClusterConfig, ServerId};
use shadowfax_net::{BatchReply, Connection, RequestBatch};
use shadowfax_obs::Counter;

const STEPS: usize = 10_000;
const STEP_DEADLINE: Duration = Duration::from_secs(1);
/// A shutdown (and a fresh cluster) every this many steps.
const SHUTDOWN_EVERY: usize = 500;
/// A migration every this many steps.
const MIGRATE_EVERY: usize = 50;

/// The client's end of a data connection, driven by hand: request frames
/// out, reply frames in.
struct Peer<S> {
    stream: S,
    decoder: FrameDecoder,
}

impl<S: Read + Write> Peer<S> {
    fn new(stream: S) -> Self {
        Peer {
            stream,
            decoder: FrameDecoder::new(MAX_FRAME_BYTES),
        }
    }

    /// Sends one batch and waits (within the step deadline) for its reply.
    fn round_trip(&mut self, batch: RequestBatch, what: &str) -> BatchReply {
        self.stream
            .write_all(&encode_frame(&WireMsg::Batch(batch)))
            .unwrap();
        let deadline = Instant::now() + STEP_DEADLINE;
        let mut chunk = [0u8; 256];
        loop {
            match self.decoder.next_msg().unwrap() {
                Some(WireMsg::Reply(reply)) => return reply,
                Some(other) => panic!("{what}: unexpected frame {other:?}"),
                None => {}
            }
            assert!(Instant::now() < deadline, "{what} within {STEP_DEADLINE:?}");
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("{what}: the server hung up"),
                Ok(n) => self.decoder.extend(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    std::thread::yield_now()
                }
                Err(e) => panic!("{what}: {e}"),
            }
        }
    }
}

/// One cluster with, per dispatch thread of server 0, a fabric pipe and an
/// adopted socket, both carrying real frames.
struct Rig {
    cluster: Cluster,
    sim: Vec<Peer<Connection>>,
    pipes: Vec<Peer<UnixStream>>,
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
            let conn = cluster.network().connect(&server.thread_address(t));
            sim.push(Peer::new(conn.unwrap()));
            let (client, served) = UnixStream::pair().unwrap();
            served.set_nonblocking(true).unwrap();
            client.set_read_timeout(Some(STEP_DEADLINE)).unwrap();
            let io = Framed::new(Box::new(served), MAX_FRAME_BYTES, None);
            server.dispatch_handle(t).adopt_kv(io);
            pipes.push(Peer::new(client));
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
        } else {
            let ops = Vec::new();
            let batch = RequestBatch { view, seq, ops };
            let reply = if step % 2 == 0 {
                let what = format!("step {step}: a reply on the fabric pipe");
                rig.sim[t].round_trip(batch, &what)
            } else {
                let what = format!("step {step}: a reply on the adopted socket");
                rig.pipes[t].round_trip(batch, &what)
            };
            assert_eq!(reply.seq(), seq);
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
