//! Unified telemetry layer for the Shadowfax reproduction.
//!
//! The paper's evaluation (Figs. 10–13) is entirely about *measured*
//! behaviour — per-server throughput over time during scale-out, the
//! source/target impact windows around an ownership cut, and bytes moved
//! versus bytes avoided by indirection.  This crate gives every layer one
//! uniform way to expose that state:
//!
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s, and log-linear
//!   latency [`Histogram`]s.  Recording is a relaxed atomic add into a
//!   per-thread shard; shards are merged only when a snapshot is taken, so
//!   the serving hot path never contends on a shared cache line.
//! * [`EventTimeline`] — structured migration-lifecycle events (sampling →
//!   prep → push → ownership-cut → complete/cancelled) stamped with
//!   microseconds since process start, so impact windows (Fig. 11) can be
//!   reconstructed from a single snapshot.
//! * [`MetricsSnapshot`] — a versioned, order-deterministic copy of the
//!   whole registry with a text exposition ([`MetricsSnapshot::render_text`])
//!   and a hand-rolled JSON encoding ([`MetricsSnapshot::to_json`]) for the
//!   `GET_METRICS` control frame, the CLI `metrics` verb, and the checked-in
//!   `BENCH_*.json` perf trajectories.
//!
//! ## Naming scheme
//!
//! Metric names are dot-separated, lowercase, most-general prefix first:
//! per-server families are prefixed `sv{id}.` (e.g.
//! `sv0.migration.cancelled`), process-wide families by their subsystem
//! (`tier.peer.reads_served`, `rpc.latency.read`).  Histograms record
//! nanoseconds; gauges are instantaneous values; counters only go up.

#![warn(missing_docs)]

mod metrics;
mod registry;
mod snapshot;
mod timeline;

pub use metrics::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use registry::MetricsRegistry;
pub use snapshot::{json_escape, HistogramSnapshot, MetricsSnapshot, SNAPSHOT_VERSION};
pub use timeline::{EventTimeline, TimelineEvent};
