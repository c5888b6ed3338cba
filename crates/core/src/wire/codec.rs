//! The length-prefixed binary wire codec.
//!
//! Every frame on a Shadowfax connection — a TCP socket or an in-process
//! sim pipe — is:
//!
//! ```text
//! ┌───────────────┬──────────┬─────────────────┐
//! │ length: u32le │ kind: u8 │ payload (bytes) │
//! └───────────────┴──────────┴─────────────────┘
//! ```
//!
//! where `length` counts the kind byte plus the payload.  All integers are
//! little-endian; a `bool` is one byte; an `f64` travels as its bits;
//! strings and byte strings are a `u32` length followed by the bytes;
//! sequences are a `u32` count followed by the items.
//!
//! The layout of every frame and payload is written down once, in the
//! `wire!` field table below: tag byte and fields **in wire order**.
//! Encode, decode and the test generator are derived from the table (the
//! build environment has no serde format crates); what each frame is *for*
//! is documented on its [`WireMsg`] variant.  The tags are part of the wire
//! format — append a tag, never renumber, and a retired tag stays reserved —
//! and `crates/core/tests/golden/wire_frames.hex` pins the bytes of every one of them.

use shadowfax_net::{BatchReply, KvRequest, KvResponse, RequestBatch, StatusCode};
use shadowfax_obs::{HistogramSnapshot, MetricsSnapshot, TimelineEvent};

use crate::{
    HashRange, MetaReplica, MigratedItem, MigrationAckPhase, MigrationDep, MigrationMsg, RangeSet,
    ServerId, ServerMeta,
};

/// Default per-frame size limit (16 MiB): far above any sane batch, low
/// enough that a corrupt length prefix cannot OOM the receiver.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Errors from encoding or decoding frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The payload ended before the structure it claims to carry.
    Truncated,
    /// A frame declared a length above the receiver's limit.
    Oversized {
        /// Declared body length.
        len: usize,
        /// The receiver's limit.
        max: usize,
    },
    /// An unknown tag byte.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A structurally well-formed field held a semantically invalid value
    /// (e.g. an inverted hash range).
    Invalid {
        /// What was being decoded.
        context: &'static str,
    },
    /// A frame's payload was longer than the structure it carries.
    TrailingBytes {
        /// Number of undecoded bytes left over.
        count: usize,
    },
}

impl CodecError {
    /// The wire status code reported back to a peer that sent this garbage.
    pub fn status_code(&self) -> StatusCode {
        match self {
            CodecError::Oversized { .. } => StatusCode::Oversized,
            _ => StatusCode::Malformed,
        }
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => f.write_str("frame payload truncated"),
            CodecError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte limit")
            }
            CodecError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            CodecError::BadUtf8 => f.write_str("string field is not valid UTF-8"),
            CodecError::Invalid { context } => {
                write!(f, "semantically invalid value while decoding {context}")
            }
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete frame body")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Ownership metadata for one server, as carried on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireServerInfo {
    /// The server's cluster-wide id.
    pub id: u32,
    /// The server's fabric base address (`"sv0"`); dispatch thread `t`
    /// listens at `"sv0/t{t}"`.
    pub address: String,
    /// Number of dispatch threads.
    pub threads: u32,
    /// The server's current view number.
    pub view: u64,
    /// Owned hash ranges as `[start, end)` pairs.
    pub ranges: Vec<(u64, u64)>,
}

impl WireServerInfo {
    /// `true` if `hash` falls in one of this server's owned ranges.
    /// Delegates to [`HashRange::contains`] so client-side
    /// routing can never diverge from server-side ownership validation.
    pub fn owns_hash(&self, hash: u64) -> bool {
        self.ranges.iter().any(|&(start, end)| {
            // Guard against hostile wire data; HashRange::new asserts on
            // inverted ranges.
            start <= end && HashRange { start, end }.contains(hash)
        })
    }
}

/// A consistent ownership snapshot, as carried on the wire.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireOwnership {
    /// Every registered server.
    pub servers: Vec<WireServerInfo>,
}

impl WireOwnership {
    /// The server owning `hash`, if any.
    pub fn owner_of(&self, hash: u64) -> Option<&WireServerInfo> {
        self.servers.iter().find(|s| s.owns_hash(hash))
    }

    /// The metadata of server `id`.
    pub fn server(&self, id: u32) -> Option<&WireServerInfo> {
        self.servers.iter().find(|s| s.id == id)
    }
}

/// Every message that can travel on a Shadowfax connection.
#[derive(Debug, Clone, PartialEq)]
pub enum WireMsg {
    /// First frame on a data connection: binds it to the dispatch thread
    /// listening at `fabric_addr` (e.g. `"sv0/t1"`).
    Hello {
        /// Fabric address of the target dispatch thread.
        fabric_addr: String,
    },
    /// A pipelined request batch (client → server).
    Batch(RequestBatch),
    /// The reply to one batch (server → client).
    Reply(BatchReply),
    /// Request the current ownership snapshot (control plane).
    GetOwnership,
    /// The ownership snapshot (control plane reply).
    Ownership(WireOwnership),
    /// Trigger a migration of `fraction` of `source`'s first owned range to
    /// `target` (control plane; the out-of-process stand-in for poking the
    /// metadata store / operator API).
    Migrate {
        /// Source server id.
        source: u32,
        /// Target server id.
        target: u32,
        /// Fraction of the source's first owned range to move, in `[0, 1]`.
        fraction: f64,
    },
    /// Control operation succeeded; `value` is operation-specific (e.g. the
    /// migration id).
    CtrlOk {
        /// Operation-specific result.
        value: u64,
    },
    /// Control or protocol failure, with the typed status and a message.
    CtrlErr {
        /// The typed status code.
        status: StatusCode,
        /// Human-readable detail.
        message: String,
    },
    /// Liveness probe carrying an opaque token.
    Ping(u64),
    /// Liveness reply echoing the token.
    Pong(u64),
    /// Query the state of a migration by id (control plane).
    MigrationStatus {
        /// The id returned by [`WireMsg::Migrate`]'s `CtrlOk`.
        migration_id: u64,
    },
    /// The state of a migration (control plane reply).
    MigrationState(WireMigrationState),
    /// Cancel an in-flight migration (control plane; the operator-driven
    /// path — liveness-triggered cancellation runs inside the serving
    /// processes).  Answered with [`WireMsg::CtrlOk`] carrying the
    /// migration id, or a [`WireMsg::CtrlErr`] if the migration is unknown
    /// or already durably complete.
    CancelMigration {
        /// The migration to cancel.
        migration_id: u64,
    },
    /// First frame on a dedicated migration connection: binds it to
    /// dispatch thread `thread` of local server `server` in the receiving
    /// process.
    MigHello {
        /// The target server's cluster-wide id.
        server: u32,
        /// The dispatch thread the connection terminates on.
        thread: u32,
    },
    /// A migration-protocol message (either direction on a migration
    /// connection).
    Migration(MigrationMsg),
    /// Request a full metrics snapshot: every registry counter family,
    /// gauge, latency histogram, and the migration event timeline
    /// (control plane; `shadowfax-cli metrics`).
    GetMetrics,
    /// The versioned metrics snapshot answering [`WireMsg::GetMetrics`].
    /// The snapshot's own `version` field is the schema version — decoders
    /// accept any value and surface it to the caller.
    Metrics(MetricsSnapshot),
    /// Request a metrics snapshot filtered to names starting with `prefix`
    /// (`""` pulls everything, same as [`WireMsg::GetMetrics`]).  Answered
    /// with [`WireMsg::Metrics`].
    GetMetricsNs {
        /// The name prefix to keep (counters, gauges, histograms; timeline
        /// events are filtered on their `name` field).
        prefix: String,
    },
    /// Request the receiving process's epoch-tagged metadata replica
    /// (broker pull path).  Answered with [`WireMsg::MetaReplicaMsg`].
    GetMetaReplica,
    /// A full metadata replica (reply to [`WireMsg::GetMetaReplica`]).
    MetaReplicaMsg(MetaReplica),
    /// Merge this epoch-tagged replica into the receiving process's store
    /// (broker fan-out path).  Answered with [`WireMsg::MetaAck`].
    MetaMerge(MetaReplica),
    /// The receiver's post-merge epoch; `changed` reports whether the merge
    /// altered local state.  The broker retries fan-out to a peer until the
    /// acked epoch catches up with its own.
    MetaAck {
        /// The receiver's epoch after the merge.
        epoch: u64,
        /// Whether the merge changed the receiver's store.
        changed: bool,
    },
    /// Request the coordinator role and convergence state of the receiving
    /// process (control plane; `shadowfax-cli cluster status`).
    GetBrokerStatus,
    /// The coordinator status (reply to [`WireMsg::GetBrokerStatus`]).
    BrokerStatus(WireBrokerStatus),
    /// Acquire (or take over) the write lease on one tier log (serving
    /// process → tier daemon).  Answered with [`WireMsg::CtrlOk`] carrying
    /// the granted lease id; every grant bumps the id, so a previous holder
    /// whose lease was taken over gets [`StatusCode::StaleView`] on its
    /// next append.
    TierLease {
        /// The tier log to lease (the hosting server's global id).
        log: u64,
        /// The requesting process's identity (its base global server id).
        holder: u64,
    },
    /// Append `data` at `offset` of tier log `log` under write lease
    /// `lease` (serving process → tier daemon).  Answered with
    /// [`WireMsg::CtrlOk`] carrying the log's post-append written extent,
    /// or a [`WireMsg::CtrlErr`] with [`StatusCode::StaleView`] when the
    /// lease was superseded.
    TierAppend {
        /// The tier log being appended to.
        log: u64,
        /// The lease id granted by [`WireMsg::TierLease`].
        lease: u64,
        /// Byte offset of the append (the spill path writes at the log's
        /// own allocation addresses, so this is not forced contiguous).
        offset: u64,
        /// The bytes to write.
        data: Vec<u8>,
    },
    /// Read `len` bytes at `offset` of tier log `log` (any process → tier
    /// daemon, or → the serving process hosting the log; no lease needed).
    /// Answered with [`WireMsg::TierData`], or a [`WireMsg::CtrlErr`] with
    /// [`StatusCode::OutOfRange`] for an unknown log, a read beyond its
    /// written extent, or one longer than the per-read cap.
    TierRead {
        /// The tier log to read.
        log: u64,
        /// Byte offset of the read.
        offset: u64,
        /// Number of bytes to read.
        len: u32,
    },
    /// The bytes answering a [`WireMsg::TierRead`].
    TierData {
        /// The tier log read.
        log: u64,
        /// The offset read.
        offset: u64,
        /// The bytes.
        data: Vec<u8>,
    },
    /// Request the tier daemon's per-log status
    /// (`shadowfax-cli tier status`).
    GetTierStatus,
    /// The tier daemon status (reply to [`WireMsg::GetTierStatus`]).
    TierStatus(WireTierStatus),
}

/// One peer's convergence state, as carried in [`WireBrokerStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBrokerPeer {
    /// The peer process's control address.
    pub addr: String,
    /// The latest epoch the peer acked a fan-out at (0 = never).
    pub acked_epoch: u64,
    /// Whether the last probe/fan-out to the peer succeeded.
    pub reachable: bool,
}

/// A process's current role in the metadata replication protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Role {
    /// No socket-addressed peers (or no coordinator running): the local
    /// store is the whole cluster.
    #[default]
    Solo,
    /// This process owns the authoritative map and drives convergence.
    Broker,
    /// Another process is the broker; this one merges what it is pushed.
    Follower,
}

impl Role {
    /// Human-readable role name.
    pub fn name(self) -> &'static str {
        match self {
            Role::Solo => "solo",
            Role::Broker => "broker",
            Role::Follower => "follower",
        }
    }
}

/// A process's coordinator role and convergence state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBrokerStatus {
    /// The process's role.
    pub role: Role,
    /// The control address of the process currently acting as broker
    /// (empty when unknown, e.g. mid-election).
    pub broker_addr: String,
    /// The local store's cluster epoch.
    pub epoch: u64,
    /// Per-peer convergence, broker role only (followers report empty).
    pub peers: Vec<WireBrokerPeer>,
    /// The shared tier daemon this process reads spilled chains from
    /// (empty when none is configured and foreign logs are read from their
    /// owners).
    pub tier_addr: String,
    /// Whether the tier daemon answered this process's last append/read
    /// (`false` also when no daemon is configured).
    pub tier_reachable: bool,
    /// Cancellation relays the coordinator gave up on after the retry cap
    /// (dep × peer pairs presumed permanently dead; 0 when healthy).
    pub cancel_escalated: u64,
}

/// Per-log state of the shared tier daemon, as carried in
/// [`WireTierStatus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTierLog {
    /// The tier log id (the hosting server's global id).
    pub log: u64,
    /// The log's written extent in bytes (chunk-granular).
    pub extent: u64,
    /// The current write lease id (0 = never leased).
    pub lease: u64,
    /// The lease holder's identity (base global server id; 0 when never
    /// leased).
    pub holder: u64,
}

/// The shared tier daemon's status, answering [`WireMsg::GetTierStatus`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTierStatus {
    /// Appends the daemon served since start.
    pub appends: u64,
    /// Reads the daemon served since start.
    pub reads: u64,
    /// Appends rejected for a superseded lease.
    pub rejected_stale_lease: u64,
    /// Every log the daemon hosts.
    pub logs: Vec<WireTierLog>,
}

/// The state of one migration, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMigrationState {
    /// The migration id.
    pub migration_id: u64,
    /// `true` once both sides have completed and the dependency has been
    /// garbage collected from the metadata store.
    pub complete: bool,
    /// `true` once the source has checkpointed and finished its role.
    pub source_complete: bool,
    /// `true` once the target has checkpointed and finished its role.
    pub target_complete: bool,
    /// `true` if the migration was cancelled and ownership rolled back to
    /// the source (mutually exclusive with `complete`).
    pub cancelled: bool,
}

// ---------------------------------------------------------------------------
// The wire trait and the primitives of the format
// ---------------------------------------------------------------------------

/// A bounds-checked cursor over one frame body.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn slice(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated);
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.slice(N)?.try_into().expect("slice(N) is N bytes long"))
    }

    #[inline]
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }
}

/// How a type lies on the wire.  Everything the codec can send implements
/// it: the primitives below by hand, the frames and payloads through the
/// `wire!` field table, the few irregular payloads by hand after the table.
///
/// The impls on the data path are `#[inline]`: rustc puts the generic ones
/// (sequences, pairs) in another codegen unit than the rest, and without
/// the hint every field of every op in a batch costs a call (measured on
/// 64-op RMW batches: encode 5.4 -> 6.7 ns per op).
trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Decodes one value, advancing `r` past it.
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// A random valid value (the property tests' generator).
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self;

    /// `(variant, tag byte)` for every tag this type puts on the wire;
    /// empty for untagged types.
    #[cfg(test)]
    fn tags() -> Vec<(String, u8)> {
        Vec::new()
    }
}

macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
                    #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
                    #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut StdRng) -> Self {
                rng.gen::<u64>() as $int
            }
        }
    )*};
}
// No `u8`: a lone byte on the wire is always a tag or a bounded code, which
// its owner checks, and `Vec<u8>` is a byte string, not a sequence.
wire_int!(u16, u32, u64);

impl Wire for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.u8()? != 0)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen()
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
    /// Finite values only: NaN would break the equality a round trip
    /// asserts (the bits of any value are preserved either way).
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        rng.gen_range(0u64..1001) as f64 / 1000.0
    }
}

impl Wire for Vec<u8> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::get(r)? as usize;
        Ok(r.slice(len)?.to_vec())
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        (0..rng.gen_range(0u64..49))
            .map(|_| rng.gen::<u32>() as u8)
            .collect()
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        String::from_utf8(Vec::get(r)?).map_err(|_| CodecError::BadUtf8)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        (0..rng.gen_range(0u64..25))
            .map(|_| char::from(b'a' + rng.gen_range(0u64..26) as u8))
            .collect()
    }
}

fn put_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).put(out);
    for item in items {
        item.put(out);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let count = u32::get(r)? as usize;
        // Capped, so a corrupt count cannot force a huge allocation before
        // the (truncated) payload is noticed.
        let mut items = Vec::with_capacity(count.min(4096));
        for _ in 0..count {
            items.push(T::get(r)?);
        }
        Ok(items)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        (0..rng.gen_range(0u64..5))
            .map(|_| T::arbitrary(rng))
            .collect()
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::get(r)?, B::get(r)?))
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        (A::arbitrary(rng), B::arbitrary(rng))
    }
}

// ---------------------------------------------------------------------------
// The field table
// ---------------------------------------------------------------------------

/// Derives [`Wire`] from one declaration of a type's layout.
///
/// * `struct T { field: type, … }` — the fields in wire order (which need
///   not be the struct's order; a tuple struct's field is `0`).
/// * `enum T("context") { Variant = tag body, … }` — one tag byte, then the
///   body: `{ field: type, … }` for a struct variant (`{}` for a unit
///   variant), `(type)` for a one-field tuple variant.  An unknown tag is
///   rejected as `BadTag { context }`.
///
/// The types are the fields' own types: they pick the `Wire` impl and the
/// compiler checks them against the definition.
macro_rules! wire {
    (struct $T:ident { $($f:tt: $ty:ty),* $(,)? }) => {
        impl Wire for $T {
                    #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                $(<$ty as Wire>::put(&self.$f, out);)*
            }
                    #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Self { $($f: <$ty as Wire>::get(r)?),* })
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut StdRng) -> Self {
                Self { $($f: <$ty as Wire>::arbitrary(rng)),* }
            }
        }
    };
    (enum $T:ident($ctx:literal) { $($V:ident = $tag:literal $body:tt),* $(,)? }) => {
        impl Wire for $T {
                    #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $(wire!(@pat $T::$V v $body) => {
                        out.push($tag);
                        wire!(@put out v $body);
                    })*
                }
            }
                    #[inline]
            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                match r.u8()? {
                    $($tag => Ok(wire!(@get r $T::$V $body)),)*
                    tag => Err(CodecError::BadTag { context: $ctx, tag }),
                }
            }
            #[cfg(test)]
            fn arbitrary(rng: &mut StdRng) -> Self {
                let tags = Self::tags();
                match tags[rng.gen_range(0..tags.len())].1 {
                    $($tag => wire!(@arbitrary rng $T::$V $body),)*
                    _ => unreachable!("tags() lists exactly the arms above"),
                }
            }
            #[cfg(test)]
            fn tags() -> Vec<(String, u8)> {
                vec![$((stringify!($V).to_string(), $tag)),*]
            }
        }
    };
    (@pat $T:ident::$V:ident $v:ident { $($f:ident: $ty:ty),* }) => { $T::$V { $($f),* } };
    (@pat $T:ident::$V:ident $v:ident ($ty:ty)) => { $T::$V($v) };
    (@put $out:ident $v:ident { $($f:ident: $ty:ty),* }) => { $(<$ty as Wire>::put($f, $out);)* };
    (@put $out:ident $v:ident ($ty:ty)) => { <$ty as Wire>::put($v, $out) };
    (@get $r:ident $T:ident::$V:ident { $($f:ident: $ty:ty),* }) => {
        $T::$V { $($f: <$ty as Wire>::get($r)?),* }
    };
    (@get $r:ident $T:ident::$V:ident ($ty:ty)) => { $T::$V(<$ty as Wire>::get($r)?) };
    (@arbitrary $g:ident $T:ident::$V:ident { $($f:ident: $ty:ty),* }) => {
        $T::$V { $($f: <$ty as Wire>::arbitrary($g)),* }
    };
    (@arbitrary $g:ident $T:ident::$V:ident ($ty:ty)) => { $T::$V(<$ty as Wire>::arbitrary($g)) };
}

wire! { enum WireMsg("frame kind") {
    Batch = 0x01 (RequestBatch),
    Reply = 0x02 (BatchReply),
    Hello = 0x10 { fabric_addr: String },
    GetOwnership = 0x20 {},
    Ownership = 0x21 (WireOwnership),
    Migrate = 0x22 { source: u32, target: u32, fraction: f64 },
    CtrlOk = 0x23 { value: u64 },
    CtrlErr = 0x24 { status: StatusCode, message: String },
    Ping = 0x25 (u64),
    Pong = 0x26 (u64),
    MigrationStatus = 0x27 { migration_id: u64 },
    MigrationState = 0x28 (WireMigrationState),
    CancelMigration = 0x29 { migration_id: u64 },
    // 0x2A, 0x2B: reserved tags, never reuse (the retired GET_CANCEL_STATS /
    // CANCEL_STATS pair; GetMetricsNs serves those counters).
    MigHello = 0x30 { server: u32, thread: u32 },
    Migration = 0x31 (MigrationMsg),
    // 0x40, 0x41: reserved tags, never reuse (the retired FETCH_CHAIN /
    // CHAIN_RECORDS pair; TierRead reads a peer's log instead).
    // 0x42, 0x43: reserved tags, never reuse (the retired GET_TIER_STATS /
    // TIER_STATS pair; GetMetricsNs serves those counters).
    GetMetrics = 0x50 {},
    Metrics = 0x51 (MetricsSnapshot),
    GetMetricsNs = 0x52 { prefix: String },
    GetMetaReplica = 0x53 {},
    MetaReplicaMsg = 0x54 (MetaReplica),
    MetaMerge = 0x55 (MetaReplica),
    MetaAck = 0x56 { epoch: u64, changed: bool },
    GetBrokerStatus = 0x57 {},
    BrokerStatus = 0x58 (WireBrokerStatus),
    TierLease = 0x60 { log: u64, holder: u64 },
    TierAppend = 0x61 { log: u64, lease: u64, offset: u64, data: Vec<u8> },
    TierRead = 0x62 { log: u64, offset: u64, len: u32 },
    TierData = 0x63 { log: u64, offset: u64, data: Vec<u8> },
    GetTierStatus = 0x64 {},
    TierStatus = 0x65 (WireTierStatus),
}}

// The data plane.  (`KvResponse` is irregular and follows the table.)
wire! { struct RequestBatch { view: u64, seq: u64, ops: Vec<KvRequest> } }
wire! { enum KvRequest("KvRequest") {
    Read = 0 { key: u64 },
    Upsert = 1 { key: u64, value: Vec<u8> },
    RmwAdd = 2 { key: u64, delta: u64 },
    Delete = 3 { key: u64 },
}}
wire! { enum BatchReply("BatchReply") {
    Executed = 0 { seq: u64, results: Vec<KvResponse> },
    Rejected = 1 { seq: u64, server_view: u64 },
}}

// The control plane.
wire! { struct WireOwnership { servers: Vec<WireServerInfo> } }
wire! { struct WireServerInfo {
    id: u32, address: String, threads: u32, view: u64, ranges: Vec<(u64, u64)>,
}}
wire! { struct WireMigrationState {
    migration_id: u64, complete: bool, source_complete: bool, target_complete: bool, cancelled: bool,
}}

// The migration plane.
wire! { enum MigrationMsg("MigrationMsg") {
    PrepForTransfer = 0 { migration_id: u64, target_view: u64, source: ServerId, ranges: Vec<HashRange> },
    TakeOwnership = 1 { migration_id: u64, target_view: u64, ranges: Vec<HashRange> },
    PushHotRecords = 2 { migration_id: u64, target_view: u64, records: Vec<(u64, Vec<u8>)> },
    PushRecordBatch = 3 { migration_id: u64, target_view: u64, items: Vec<MigratedItem> },
    CompleteMigration = 4 { migration_id: u64, target_view: u64, total_items: u64 },
    Ack = 5 { migration_id: u64, phase: MigrationAckPhase },
    CompactionHandoff = 6 { key: u64, value: Vec<u8> },
    Heartbeat = 7 { migration_id: u64, view: u64 },
    HeartbeatAck = 8 { migration_id: u64, view: u64 },
    CancelMigration = 9 { migration_id: u64, view: u64 },
}}
wire! { enum MigratedItem("MigratedItem") {
    Record = 0 { key: u64, value: Vec<u8> },
    Indirection = 1 { representative_hash: u64, payload: Vec<u8> },
}}
wire! { enum MigrationAckPhase("MigrationAckPhase") {
    Prepared = 0 {},
    OwnershipReceived = 1 {},
    Completed = 2 {},
}}

// Telemetry.
wire! { struct MetricsSnapshot {
    version: u32,
    uptime_micros: u64,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<HistogramSnapshot>,
    events: Vec<TimelineEvent>,
}}
wire! { struct HistogramSnapshot {
    name: String, count: u64, total_ns: u64, max_ns: u64, buckets: Vec<(u32, u64)>,
}}
wire! { struct TimelineEvent { at_micros: u64, name: String, label: String, id: u64 } }

// Metadata replication.  A replica's server entry is laid out like a
// `WireServerInfo`: the id, then the `ServerMeta` fields in this order.
wire! { struct ServerId { 0: u32 } }
wire! { struct ServerMeta { address: String, threads: usize, view: u64, owned: RangeSet } }
wire! { struct MetaReplica {
    epoch: u64,
    next_migration_seq: u64,
    servers: Vec<(ServerId, ServerMeta)>,
    pending: Vec<MigrationDep>,
    completed: Vec<MigrationDep>,
    cancelled: Vec<MigrationDep>,
}}
wire! { struct MigrationDep {
    id: u64,
    source: ServerId,
    target: ServerId,
    ranges: Vec<HashRange>,
    source_complete: bool,
    target_complete: bool,
    cancelled: bool,
}}
wire! { struct WireBrokerStatus {
    role: Role,
    broker_addr: String,
    epoch: u64,
    peers: Vec<WireBrokerPeer>,
    tier_addr: String,
    tier_reachable: bool,
    cancel_escalated: u64,
}}
wire! { enum Role("broker role") { Solo = 0 {}, Broker = 1 {}, Follower = 2 {} } }
wire! { struct WireBrokerPeer { addr: String, acked_epoch: u64, reachable: bool } }

// The tier daemon.
wire! { struct WireTierStatus {
    appends: u64, reads: u64, rejected_stale_lease: u64, logs: Vec<WireTierLog>,
}}
wire! { struct WireTierLog { log: u64, extent: u64, lease: u64, holder: u64 } }

// ---------------------------------------------------------------------------
// Irregular payloads: a check or a conversion the table cannot state
// ---------------------------------------------------------------------------

/// A count that is small by construction (dispatch threads per server)
/// and travels as a `u32`.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u32).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u32::get(r)? as usize)
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        u32::arbitrary(rng) as usize
    }
}

/// `start`, `end`; an inverted range is rejected here, before it reaches
/// range arithmetic that assumes `start <= end`.
impl Wire for HashRange {
    fn put(&self, out: &mut Vec<u8>) {
        self.start.put(out);
        self.end.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (start, end) = <(u64, u64)>::get(r)?;
        if start > end {
            return Err(CodecError::Invalid {
                context: "HashRange",
            });
        }
        Ok(HashRange { start, end })
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        let (a, b) = <(u64, u64)>::arbitrary(rng);
        HashRange::new(a.min(b), a.max(b))
    }
}

/// A sequence of ranges, re-normalised on arrival.
impl Wire for RangeSet {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self.ranges(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(RangeSet::from_ranges(Vec::<HashRange>::get(r)?))
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        RangeSet::from_ranges(Vec::<HashRange>::arbitrary(rng))
    }
}

/// One byte; a value `StatusCode::from_u8` does not know is a bad tag.
impl Wire for StatusCode {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.as_u8());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.u8()?;
        StatusCode::from_u8(tag).ok_or(CodecError::BadTag {
            context: "StatusCode",
            tag,
        })
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        let tags = Self::tags();
        StatusCode::from_u8(tags[rng.gen_range(0..tags.len())].1).expect("a listed code")
    }
    #[cfg(test)]
    fn tags() -> Vec<(String, u8)> {
        let named = |tag| StatusCode::from_u8(tag).map(|code| (format!("{code:?}"), tag));
        (0..=u8::MAX).filter_map(named).collect()
    }
}

/// One tag byte, then the payload — but `Value` spends two tags, one per
/// arm of its `Option`, which is what keeps it out of the table.
impl Wire for KvResponse {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            KvResponse::Value(None) => out.push(0),
            KvResponse::Value(Some(value)) => {
                out.push(1);
                value.put(out);
            }
            KvResponse::Counter(counter) => {
                out.push(2);
                counter.put(out);
            }
            KvResponse::Ok => out.push(3),
            KvResponse::Deleted(existed) => {
                out.push(4);
                existed.put(out);
            }
            KvResponse::Pending => out.push(5),
            KvResponse::Error(message) => {
                out.push(6);
                message.put(out);
            }
        }
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            0 => KvResponse::Value(None),
            1 => KvResponse::Value(Some(Wire::get(r)?)),
            2 => KvResponse::Counter(Wire::get(r)?),
            3 => KvResponse::Ok,
            4 => KvResponse::Deleted(Wire::get(r)?),
            5 => KvResponse::Pending,
            6 => KvResponse::Error(Wire::get(r)?),
            tag => {
                return Err(CodecError::BadTag {
                    context: "KvResponse",
                    tag,
                })
            }
        })
    }
    #[cfg(test)]
    fn arbitrary(rng: &mut StdRng) -> Self {
        match rng.gen_range(0u64..7) {
            0 => KvResponse::Value(None),
            1 => KvResponse::Value(Some(Wire::arbitrary(rng))),
            2 => KvResponse::Counter(Wire::arbitrary(rng)),
            3 => KvResponse::Ok,
            4 => KvResponse::Deleted(Wire::arbitrary(rng)),
            5 => KvResponse::Pending,
            _ => KvResponse::Error(Wire::arbitrary(rng)),
        }
    }
    #[cfg(test)]
    fn tags() -> Vec<(String, u8)> {
        let names = "ValueNone ValueSome Counter Ok Deleted Pending Error";
        names.split(' ').map(String::from).zip(0..).collect()
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Encodes `msg` as one complete frame (length prefix included).
pub fn encode_frame(msg: &WireMsg) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    msg.put(&mut body);
    let mut frame = Vec::with_capacity(4 + body.len());
    (body.len() as u32).put(&mut frame);
    frame.extend_from_slice(&body);
    frame
}

fn decode_body(body: &[u8]) -> Result<WireMsg, CodecError> {
    let mut r = Reader { buf: body, pos: 0 };
    let msg = WireMsg::get(&mut r)?;
    if r.remaining() > 0 {
        return Err(CodecError::TrailingBytes {
            count: r.remaining(),
        });
    }
    Ok(msg)
}

/// The body length declared by the prefix at the head of `buf`: `None`
/// until all four prefix bytes are there, [`CodecError::Oversized`] above
/// `max_frame` — from the prefix alone, whatever follows it.
fn declared_len(buf: &[u8], max_frame: usize) -> Result<Option<usize>, CodecError> {
    let Some(prefix) = buf.first_chunk::<4>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > max_frame {
        return Err(CodecError::Oversized {
            len,
            max: max_frame,
        });
    }
    Ok(Some(len))
}

/// An incremental frame decoder: feed it raw socket bytes with
/// [`FrameDecoder::extend`], pull complete messages with
/// [`FrameDecoder::next_msg`].
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_frame: usize,
}

impl FrameDecoder {
    /// Creates a decoder enforcing `max_frame` as the body-length limit.
    pub fn new(max_frame: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            max_frame,
        }
    }

    /// Appends raw bytes read from the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet decoded.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether `next_msg` would make progress right now: a complete
    /// frame is buffered (or an oversized length prefix is waiting to be
    /// surfaced as an error).  `false` means the buffer holds at most a
    /// partial frame — more socket bytes are required before any frame
    /// can decode.
    pub fn has_complete_frame(&self) -> bool {
        match declared_len(&self.buf, self.max_frame) {
            Ok(Some(len)) => self.buf.len() >= 4 + len,
            Ok(None) => false,
            Err(_) => true,
        }
    }

    /// Decodes the next complete message, if a full frame has arrived.
    ///
    /// A frame whose declared length exceeds the limit fails with
    /// [`CodecError::Oversized`] *before* its payload is buffered, so a
    /// corrupt or hostile length prefix cannot balloon memory.
    pub fn next_msg(&mut self) -> Result<Option<WireMsg>, CodecError> {
        let Some(len) = declared_len(&self.buf, self.max_frame)? else {
            return Ok(None);
        };
        let Some(body) = self.buf.get(4..4 + len) else {
            return Ok(None);
        };
        let msg = decode_body(body)?;
        self.buf.drain(..4 + len);
        Ok(Some(msg))
    }
}

/// Decodes one complete frame from `bytes` (convenience for tests and
/// blocking paths).  Returns the message and the number of bytes consumed.
pub fn decode_frame(bytes: &[u8], max_frame: usize) -> Result<(WireMsg, usize), CodecError> {
    let len = declared_len(bytes, max_frame)?.ok_or(CodecError::Truncated)?;
    let body = bytes.get(4..4 + len).ok_or(CodecError::Truncated)?;
    Ok((decode_body(body)?, 4 + len))
}

// For the `arbitrary` generators above (compiled for tests only).
#[cfg(test)]
use rand::{rngs::StdRng, Rng};

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// `n` random frames from the derived generator; every failure is
    /// reproducible from the seed.
    fn random_msgs(seed: u64, n: usize) -> Vec<WireMsg> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| WireMsg::arbitrary(&mut rng)).collect()
    }

    fn assert_generator_covers<T: Wire>() {
        let mut rng = StdRng::seed_from_u64(0xC0DEC);
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for _ in 0..4000 {
            out.clear();
            T::arbitrary(&mut rng).put(&mut out);
            seen.insert(out[0]);
        }
        let want = T::tags().into_iter().map(|t| t.1).collect();
        let name = std::any::type_name::<T>();
        assert_eq!(seen, want, "{name}: generated tags differ from the table's");
    }

    #[test]
    fn generator_covers_every_tag_in_the_table() {
        assert_eq!(WireMsg::tags().len(), 30, "frame kinds on the wire");
        assert_generator_covers::<WireMsg>();
        assert_generator_covers::<KvRequest>();
        assert_generator_covers::<KvResponse>();
        assert_generator_covers::<BatchReply>();
        assert_generator_covers::<MigrationMsg>();
        assert_generator_covers::<MigratedItem>();
        assert_generator_covers::<MigrationAckPhase>();
        assert_generator_covers::<StatusCode>();
        assert_generator_covers::<Role>();
    }

    /// Every tag of every tagged type has a golden sample named after its
    /// variant, with that tag byte where the layout puts it.
    #[test]
    fn golden_file_pins_every_tag_in_the_table() {
        let golden: Vec<(&str, Vec<u8>)> = include_str!("../../tests/golden/wire_frames.hex")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (name, hex) = l.split_once(" = ").expect("`name = hex` line");
                let byte = |i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits");
                (name, (0..hex.len()).step_by(2).map(byte).collect())
            })
            .collect();
        // (tags, name prefix of the samples, offset of the tag in the frame:
        // 4 length bytes, then the fixed-size fields in front of the tag)
        let tagged = [
            (WireMsg::tags(), "", 4),
            (KvRequest::tags(), "Batch/", 4 + 1 + 8 + 8 + 4),
            (BatchReply::tags(), "Reply/", 4 + 1),
            (KvResponse::tags(), "Reply/Executed/", 4 + 1 + 1 + 8 + 4),
            (StatusCode::tags(), "CtrlErr/", 4 + 1),
            (MigrationMsg::tags(), "Migration/", 4 + 1),
            (MigrationAckPhase::tags(), "Migration/Ack/", 4 + 1 + 1 + 8),
            (
                MigratedItem::tags(),
                "Migration/PushRecordBatch/",
                4 + 1 + 1 + 8 + 8 + 4,
            ),
        ];
        for (tags, prefix, offset) in tagged {
            for (variant, tag) in tags {
                let path = format!("{prefix}{variant}");
                let mut samples = golden.iter().filter(|(name, _)| {
                    name.strip_prefix(path.as_str())
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
                });
                let (name, bytes) = samples
                    .next()
                    .unwrap_or_else(|| panic!("no golden sample for {path} (tag {tag:#04x})"));
                assert_eq!(bytes[offset], tag, "{name}: tag byte at offset {offset}");
                assert!(samples.all(|(_, bytes)| bytes[offset] == tag), "{path}/*");
            }
        }
    }

    #[test]
    fn random_frames_roundtrip_exactly() {
        for msg in random_msgs(0xF00D, 4000) {
            let frame = encode_frame(&msg);
            let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
            assert_eq!(decoded, Ok((msg, frame.len())));
        }
    }

    #[test]
    fn random_frame_streams_survive_arbitrary_chunking() {
        for case in 0..24 {
            let mut rng = StdRng::seed_from_u64(0x5EED + case);
            let msgs = random_msgs(case, 40);
            let stream: Vec<u8> = msgs.iter().flat_map(encode_frame).collect();
            let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
            let mut got = Vec::new();
            let mut rest = stream.as_slice();
            while !rest.is_empty() {
                let (chunk, tail) = rest.split_at(rng.gen_range(1..98).min(rest.len()));
                decoder.extend(chunk);
                rest = tail;
                while let Some(msg) = decoder.next_msg().unwrap() {
                    got.push(msg);
                }
            }
            assert_eq!(got, msgs, "case {case}");
            assert_eq!(decoder.buffered(), 0, "case {case}");
        }
    }

    /// Cut anywhere, a frame is `Truncated` — both when the length prefix
    /// still promises the whole frame (the frame-level check) and when it
    /// lies and claims exactly what is left (so a field's own bounds check
    /// has to notice the body ran out).
    #[test]
    fn every_strict_prefix_is_rejected_as_truncated() {
        for msg in random_msgs(0x7D0, 600) {
            let frame = encode_frame(&msg);
            for cut in 0..frame.len() {
                let mut prefix = frame[..cut].to_vec();
                let honest = decode_frame(&prefix, MAX_FRAME_BYTES);
                assert_eq!(honest, Err(CodecError::Truncated), "{msg:?} cut at {cut}");
                if cut >= 4 {
                    prefix[..4].copy_from_slice(&(cut as u32 - 4).to_le_bytes());
                    let lying = decode_frame(&prefix, MAX_FRAME_BYTES);
                    assert_eq!(
                        lying,
                        Err(CodecError::Truncated),
                        "{msg:?} body cut at {cut}"
                    );
                }
            }
        }
    }

    /// Whichever way a flipped bit falls — a different valid message or a
    /// typed error — decoding must not panic and must not over-consume.
    #[test]
    fn single_byte_corruption_never_panics() {
        let mut rng = StdRng::seed_from_u64(0xBADF00D);
        for msg in random_msgs(0xBAD, 4000) {
            let mut frame = encode_frame(&msg);
            let at = rng.gen_range(0..frame.len());
            frame[at] ^= 1 << rng.gen_range(0u32..8);
            if let Ok((_, consumed)) = decode_frame(&frame, MAX_FRAME_BYTES) {
                assert!(consumed <= frame.len(), "{msg:?} corrupted at {at}");
            }
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_from_the_prefix_alone() {
        let mut rng = StdRng::seed_from_u64(0xB16);
        for _ in 0..50 {
            let max = rng.gen_range(16usize..65536);
            let len = max + rng.gen_range(1usize..1 << 20);
            let mut decoder = FrameDecoder::new(max);
            decoder.extend(&(len as u32).to_le_bytes());
            assert!(decoder.has_complete_frame(), "an error is ready to surface");
            assert_eq!(decoder.next_msg(), Err(CodecError::Oversized { len, max }));
        }
    }

    #[test]
    fn oversized_record_batch_is_rejected_before_buffering() {
        // A record batch whose frame exceeds the receiver's limit must fail
        // from the length prefix alone, before any payload is buffered.
        let big = WireMsg::Migration(MigrationMsg::PushRecordBatch {
            migration_id: 1,
            target_view: 2,
            items: (0..64)
                .map(|k| MigratedItem::Record {
                    key: k,
                    value: vec![0; 1024],
                })
                .collect(),
        });
        let frame = encode_frame(&big);
        let max = 4 * 1024;
        assert!(frame.len() > max);
        let mut decoder = FrameDecoder::new(max);
        decoder.extend(&frame[..4]);
        let len = frame.len() - 4;
        assert_eq!(decoder.next_msg(), Err(CodecError::Oversized { len, max }));
        // The same frame decodes fine under the default limit.
        let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
        assert_eq!(decoded, Ok((big, frame.len())));
    }

    fn sample_batch() -> WireMsg {
        WireMsg::Batch(RequestBatch {
            view: 7,
            seq: 42,
            ops: vec![
                KvRequest::Read { key: 1 },
                KvRequest::Upsert {
                    key: 2,
                    value: vec![9u8; 300],
                },
            ],
        })
    }

    #[test]
    fn incremental_decoder_handles_split_and_coalesced_frames() {
        let mut stream = encode_frame(&WireMsg::Ping(1));
        stream.extend_from_slice(&encode_frame(&sample_batch()));
        let mut decoder = FrameDecoder::new(MAX_FRAME_BYTES);
        let mut got = Vec::new();
        // Deliver the byte stream 3 bytes at a time.
        for chunk in stream.chunks(3) {
            assert!(!decoder.has_complete_frame());
            decoder.extend(chunk);
            while let Some(msg) = decoder.next_msg().unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got, [WireMsg::Ping(1), sample_batch()]);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn a_lying_inner_length_is_rejected() {
        // A value length that claims more bytes than the body holds.
        let mut frame = encode_frame(&sample_batch());
        let value_len_at = frame.len() - 300 - 4;
        frame[value_len_at..value_len_at + 4].copy_from_slice(&301u32.to_le_bytes());
        let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
        assert_eq!(decoded, Err(CodecError::Truncated));
        // A sequence count that claims more items than the body holds, and
        // far more than may be pre-allocated.
        let mut frame = encode_frame(&sample_batch());
        frame[4 + 1 + 8 + 8..][..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
        assert_eq!(decoded, Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_frame(&WireMsg::Ping(1));
        // Append junk inside the declared length.
        frame.extend_from_slice(&[0xAB, 0xCD]);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_le_bytes());
        let decoded = decode_frame(&frame, MAX_FRAME_BYTES);
        assert_eq!(decoded, Err(CodecError::TrailingBytes { count: 2 }));
    }

    /// Decodes `msg` with the byte at `at` replaced by `tag`.
    fn with_byte(msg: &WireMsg, at: usize, tag: u8) -> Result<(WireMsg, usize), CodecError> {
        let mut frame = encode_frame(msg);
        frame[at] = tag;
        decode_frame(&frame, MAX_FRAME_BYTES)
    }

    #[test]
    fn unknown_and_retired_tags_are_rejected() {
        let bad = |context, tag| Err(CodecError::BadTag { context, tag });
        // 0x7F was never assigned; the others carried retired frames and
        // must stay unknown.
        for tag in [0x7F, 0x2A, 0x2B, 0x40, 0x41, 0x42, 0x43] {
            assert_eq!(with_byte(&WireMsg::Ping(1), 4, tag), bad("frame kind", tag));
        }
        let ack = WireMsg::Migration(MigrationMsg::Ack {
            migration_id: 1,
            phase: MigrationAckPhase::Completed,
        });
        assert_eq!(with_byte(&ack, 5, 0x7E), bad("MigrationMsg", 0x7E));
        assert_eq!(with_byte(&ack, 14, 9), bad("MigrationAckPhase", 9));
        let err = WireMsg::CtrlErr {
            status: StatusCode::Io,
            message: String::new(),
        };
        assert_eq!(with_byte(&err, 5, 9), bad("StatusCode", 9));
    }

    #[test]
    fn unknown_broker_role_is_rejected() {
        let status = WireMsg::BrokerStatus(WireBrokerStatus::default());
        // The role byte is the first payload byte.
        let decoded = with_byte(&status, 5, 3);
        let bad_role = CodecError::BadTag {
            context: "broker role",
            tag: 3,
        };
        assert_eq!(decoded, Err(bad_role));
    }

    #[test]
    fn inverted_wire_ranges_are_rejected() {
        let msg = WireMsg::Migration(MigrationMsg::TakeOwnership {
            migration_id: 1,
            ranges: vec![HashRange::new(10, 20)],
            target_view: 2,
        });
        let mut frame = encode_frame(&msg);
        // Swap start and end: the body is kind(1) + subtag(1) + id(8) +
        // view(8) + count(4), then the range.
        let start_at = 4 + 1 + 1 + 8 + 8 + 4;
        frame[start_at..start_at + 8].copy_from_slice(&20u64.to_le_bytes());
        frame[start_at + 8..start_at + 16].copy_from_slice(&10u64.to_le_bytes());
        assert_eq!(
            decode_frame(&frame, MAX_FRAME_BYTES),
            Err(CodecError::Invalid {
                context: "HashRange"
            })
        );
    }

    #[test]
    fn inverted_replica_dep_range_is_rejected() {
        // A struct literal, not `HashRange::new`, to get the inverted range
        // past the constructor's assert: the decoder is what must stop it.
        let inverted = vec![HashRange { start: 100, end: 5 }];
        let dep = MigrationDep {
            id: 1,
            source: ServerId(0),
            target: ServerId(1),
            ranges: inverted.clone(),
            source_complete: false,
            target_complete: false,
            cancelled: false,
        };
        let in_dep = MetaReplica {
            pending: vec![dep],
            ..MetaReplica::default()
        };
        // A server entry's ranges take the same check before `RangeSet`
        // normalises them.
        let mut server_entry = Vec::new();
        ServerId(0).put(&mut server_entry);
        String::from("sv0").put(&mut server_entry);
        (2u32, 1u64).put(&mut server_entry);
        inverted.put(&mut server_entry);
        let mut in_server = encode_frame(&WireMsg::MetaMerge(MetaReplica::default()));
        // An empty replica ends in four zero counts; make the first one 1
        // and splice the entry in behind it.
        let servers_at = in_server.len() - 16;
        in_server[servers_at] = 1;
        in_server.splice(servers_at + 4..servers_at + 4, server_entry);
        let len = (in_server.len() - 4) as u32;
        in_server[..4].copy_from_slice(&len.to_le_bytes());
        for frame in [encode_frame(&WireMsg::MetaMerge(in_dep)), in_server] {
            assert_eq!(
                decode_frame(&frame, MAX_FRAME_BYTES),
                Err(CodecError::Invalid {
                    context: "HashRange"
                })
            );
        }
    }

    #[test]
    fn ownership_routing_matches_hash_range_semantics() {
        let server = |id, address: &str, range| WireServerInfo {
            id,
            address: address.into(),
            threads: 1,
            view: 1,
            ranges: vec![range],
        };
        let own = WireOwnership {
            servers: vec![
                server(0, "sv0", (0, 100)),
                server(1, "sv1", (100, u64::MAX)),
            ],
        };
        assert_eq!(own.owner_of(0).unwrap().id, 0);
        assert_eq!(own.owner_of(99).unwrap().id, 0);
        assert_eq!(own.owner_of(100).unwrap().id, 1);
        // Top of the hash space belongs to the range ending at u64::MAX.
        assert_eq!(own.owner_of(u64::MAX).unwrap().id, 1);
        assert_eq!(own.server(1).unwrap().address, "sv1");
    }
}
