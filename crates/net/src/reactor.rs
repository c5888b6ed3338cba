//! A minimal readiness-driven reactor over Linux `epoll`.
//!
//! The serving front ends (the RPC server's I/O threads, the tier
//! daemon's event loop) need exactly four things from the OS: register a
//! socket for readiness, wait for events without burning CPU, flush
//! writes when the peer drains its buffer, and be woken from another
//! thread.  This module provides them with direct `extern "C"` syscall
//! bindings — no `mio`, no `libc` crate (this environment has no registry
//! access; the workspace's `shims/` crates follow the same pattern) — so
//! the event loop costs nothing per *idle* connection: a process holding
//! 100k quiet sockets sits blocked in `epoll_wait`.
//!
//! * [`Reactor`] — an `epoll` instance plus an `eventfd` wakeup channel.
//! * [`Interest`] — read/write readiness interest, registered
//!   edge-triggered (`EPOLLET`): the kernel reports each readiness
//!   *transition* once, so callers must drain sockets to `WouldBlock`.
//! * [`Token`] — the caller-chosen 63-bit id attached to a registration
//!   and handed back on each [`Event`].
//! * [`Reactor::wake`] — cross-thread injection: makes a concurrent (or
//!   the next) [`Reactor::poll`] return immediately with its `woken` flag
//!   set.  Used to hand new connections to an I/O thread and to interrupt
//!   blocked loops at shutdown.
//!
//! [`raise_nofile_limit`] lives here too: a front end sized for tens of
//! thousands of sockets is pointless under the default 1024-fd soft
//! limit, so the server binaries raise the soft limit to the hard limit
//! at startup.

use std::io;
use std::os::raw::{c_int, c_uint, c_void};
use std::os::unix::io::RawFd;
use std::time::Duration;

// Direct syscall bindings.  These symbols come from the C runtime the
// Rust standard library already links against on Linux.
extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`.  Packed on x86, naturally aligned elsewhere —
/// the kernel ABI, not a choice.
#[repr(C)]
#[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

/// The token the `epoll` registration for the wakeup `eventfd` carries;
/// reserved, never surfaced as an [`Event`].
const WAKE_DATA: u64 = u64::MAX;

/// A caller-chosen identifier attached to a registered file descriptor
/// and echoed back on every [`Event`] for it.  `u64::MAX` is reserved
/// for the reactor's internal wakeup channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

impl Token {
    /// The token for slot `idx` of a connection slab in its generation
    /// `gen`.  Folding the generation in means a readiness event for a
    /// closed connection can never reach the slot's next tenant.
    pub fn for_slot(idx: u32, gen: u32) -> Token {
        Token(((gen as u64) << 32) | idx as u64)
    }

    /// The `(idx, gen)` a [`Token::for_slot`] token was built from.
    pub fn slot(self) -> (u32, u32) {
        (self.0 as u32, (self.0 >> 32) as u32)
    }
}

/// Which readiness transitions a registration subscribes to.  All
/// registrations are edge-triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Report when the socket becomes readable (or the peer closes).
    pub readable: bool,
    /// Report when the socket becomes writable again.
    pub writable: bool,
}

impl Interest {
    /// Read-readiness only (the steady state of a served connection).
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Read- and write-readiness (a connection with buffered output
    /// waiting for the peer to drain its socket).
    pub const READABLE_WRITABLE: Interest = Interest {
        readable: true,
        writable: true,
    };

    fn bits(self) -> u32 {
        let mut bits = EPOLLET | EPOLLRDHUP;
        if self.readable {
            bits |= EPOLLIN;
        }
        if self.writable {
            bits |= EPOLLOUT;
        }
        bits
    }
}

/// One readiness transition reported by [`Reactor::poll`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the file descriptor was registered with.
    pub token: Token,
    /// The socket has bytes (or an EOF) to read.
    pub readable: bool,
    /// The socket can accept writes again.
    pub writable: bool,
    /// The kernel reported an error or hangup; the connection is over
    /// (a final read still drains anything buffered).
    pub error: bool,
}

/// An `epoll` instance plus an `eventfd` wakeup channel.
///
/// Shareable across threads (`register`/`wake` from anywhere); `poll` is
/// meant to be driven by one loop thread.
pub struct Reactor {
    epfd: RawFd,
    wakefd: RawFd,
}

// Both fds are plain kernel handles; every operation on them is
// thread-safe at the syscall level.
unsafe impl Send for Reactor {}
unsafe impl Sync for Reactor {}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("epfd", &self.epfd)
            .field("wakefd", &self.wakefd)
            .finish()
    }
}

fn syscall_result(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

impl Reactor {
    /// Creates the epoll instance and its wakeup `eventfd`.
    pub fn new() -> io::Result<Reactor> {
        let epfd = syscall_result(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        let wakefd = match syscall_result(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) }) {
            Ok(fd) => fd,
            Err(e) => {
                unsafe { close(epfd) };
                return Err(e);
            }
        };
        let reactor = Reactor { epfd, wakefd };
        // The wakeup channel is level-triggered on purpose: a wake posted
        // between polls must still be visible to the next poll.
        let mut ev = EpollEvent {
            events: EPOLLIN,
            data: WAKE_DATA,
        };
        syscall_result(unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &mut ev) })?;
        Ok(reactor)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        debug_assert_ne!(token.0, WAKE_DATA, "token u64::MAX is reserved");
        let mut ev = EpollEvent {
            events: interest.bits(),
            data: token.0,
        };
        syscall_result(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Registers `fd` (edge-triggered) under `token`.
    pub fn register(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest set of an already registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd`'s registration.  Closing a registered fd removes it
    /// implicitly; this is for keeping a long-lived fd without events.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut ev = EpollEvent { events: 0, data: 0 };
        syscall_result(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
    }

    /// Makes a concurrent (or the next) [`Reactor::poll`] return
    /// immediately with its `woken` flag set.  Callable from any thread;
    /// wakes coalesce.
    pub fn wake(&self) {
        let one: u64 = 1;
        // A full eventfd counter (EAGAIN) already guarantees the next
        // poll returns immediately; nothing to handle.
        unsafe { write(self.wakefd, (&one as *const u64).cast(), 8) };
    }

    /// Waits for readiness transitions, appending them to `events`
    /// (cleared first).  `None` blocks until an event or a wake;
    /// sub-millisecond timeouts round up to 1ms (use `Some(ZERO)` for a
    /// non-blocking harvest).  Returns whether [`Reactor::wake`] fired.
    pub fn poll(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<bool> {
        events.clear();
        let timeout_ms: c_int = match timeout {
            None => -1,
            Some(d) => {
                let micros = d.as_micros();
                micros.div_ceil(1000).min(i32::MAX as u128) as c_int
            }
        };
        const MAX_EVENTS: usize = 1024;
        let mut raw: [EpollEvent; MAX_EVENTS] = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            let ret =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as c_int, timeout_ms) };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        let mut woken = false;
        for ev in raw.iter().take(n) {
            // Copy out of the (possibly packed) ABI struct before use.
            let (bits, data) = (ev.events, ev.data);
            if data == WAKE_DATA {
                woken = true;
                self.drain_wake();
                continue;
            }
            events.push(Event {
                token: Token(data),
                readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0,
                writable: bits & EPOLLOUT != 0,
                error: bits & (EPOLLERR | EPOLLHUP) != 0,
            });
        }
        Ok(woken)
    }

    fn drain_wake(&self) {
        let mut counter: u64 = 0;
        unsafe { read(self.wakefd, (&mut counter as *mut u64).cast(), 8) };
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe {
            close(self.wakefd);
            close(self.epfd);
        }
    }
}

/// Raises this process's soft open-file limit to its hard limit and
/// returns the resulting soft limit.  A readiness-driven front end is
/// sized for tens of thousands of sockets; the default 1024-fd soft
/// limit would cap it long before the reactor breaks a sweat.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = Rlimit { cur: 0, max: 0 };
    syscall_result(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.cur < lim.max {
        let raised = Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
            lim.cur = lim.max;
        }
    }
    Ok(lim.cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::Instant;

    #[test]
    fn listener_readiness_fires_on_connect() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(listener.as_raw_fd(), Token(7), Interest::READABLE)
            .expect("register");

        let mut events = Vec::new();
        // Nothing pending: a short poll times out with no events.
        let woken = reactor
            .poll(&mut events, Some(Duration::from_millis(10)))
            .expect("poll");
        assert!(!woken);
        assert!(events.is_empty());

        let _client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            if !events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "no readiness for a connect");
        }
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readable);
    }

    #[test]
    fn edge_triggered_read_reports_each_arrival_once() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");
        reactor
            .register(served.as_raw_fd(), Token(1), Interest::READABLE)
            .expect("register");

        client.write_all(b"ping").expect("write");
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            if !events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "no readiness for buffered bytes");
        }
        assert!(events[0].readable);
        // Without draining the socket, the edge does not re-fire.
        reactor
            .poll(&mut events, Some(Duration::from_millis(50)))
            .expect("poll");
        assert!(events.is_empty(), "edge-triggered event fired twice");
        // Drain, write again: a fresh edge arrives.
        let mut buf = [0u8; 16];
        let mut served_read = &served;
        assert_eq!(served_read.read(&mut buf).expect("drain"), 4);
        client.write_all(b"pong").expect("write again");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            if !events.is_empty() {
                break;
            }
            assert!(Instant::now() < deadline, "no fresh edge after drain");
        }
    }

    #[test]
    fn wake_interrupts_a_blocked_poll() {
        let reactor = std::sync::Arc::new(Reactor::new().expect("reactor"));
        let waker = std::sync::Arc::clone(&reactor);
        let waited = std::thread::spawn(move || {
            let mut events = Vec::new();
            let start = Instant::now();
            let woken = waker.poll(&mut events, None).expect("blocked poll");
            (woken, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(100));
        reactor.wake();
        let (woken, elapsed) = waited.join().expect("join poller");
        assert!(woken, "wake flag not reported");
        assert!(elapsed < Duration::from_secs(5), "wake did not interrupt");
        // A wake with no poll in flight is caught by the next poll.
        reactor.wake();
        let mut events = Vec::new();
        let woken = reactor
            .poll(&mut events, Some(Duration::from_secs(5)))
            .expect("poll");
        assert!(woken, "pending wake lost between polls");
    }

    #[test]
    fn writable_edge_fires_when_the_peer_drains() {
        let reactor = Reactor::new().expect("reactor");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        let (served, _) = listener.accept().expect("accept");
        served.set_nonblocking(true).expect("nonblocking");

        // Fill the kernel send buffer until WouldBlock.
        let chunk = [0u8; 64 * 1024];
        let mut served_write = &served;
        loop {
            match served_write.write(&chunk) {
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("fill write failed: {e}"),
            }
        }
        reactor
            .register(served.as_raw_fd(), Token(3), Interest::READABLE_WRITABLE)
            .expect("register");

        // Drain the peer: a writable edge must arrive.
        let drainer = std::thread::spawn(move || {
            let mut sink = [0u8; 64 * 1024];
            client
                .set_read_timeout(Some(Duration::from_millis(200)))
                .expect("read timeout");
            loop {
                match client.read(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        let mut events = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_writable = false;
        while Instant::now() < deadline && !saw_writable {
            reactor
                .poll(&mut events, Some(Duration::from_millis(50)))
                .expect("poll");
            saw_writable = events.iter().any(|e| e.writable);
        }
        drop(served);
        drainer.join().expect("join drainer");
        assert!(saw_writable, "no writable edge after the peer drained");
    }

    #[test]
    fn nofile_limit_is_at_least_the_default() {
        let limit = raise_nofile_limit().expect("rlimit");
        assert!(limit >= 1024, "soft nofile limit {limit} below the default");
    }
}
