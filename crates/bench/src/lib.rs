//! Benchmark harness for the Shadowfax reproduction.
//!
//! Every table and figure in the paper's evaluation (§4) has a corresponding
//! binary under `src/bin/`; this library holds the shared machinery:
//!
//! * [`calibrate`] — measures this machine's primitive costs (FASTER
//!   operation service times under Zipfian and uniform keys, the partitioned
//!   baseline's local and cross-core costs, per-batch validation costs).
//! * [`profile`] — the paper's Table 2 transports as CPU-cost and delay
//!   profiles.  Only [`model`] reads them: no live transport charges a
//!   modelled cost.
//! * [`model`] — combines the measured costs with those transport
//!   cost profiles to produce the thread-scaling and latency results
//!   (Figures 8–9, Table 2, Figure 15, and the 8-server scaling claim).  The
//!   evaluation machine has a single vCPU, so multi-core scaling cannot be
//!   observed directly; the model reproduces the *shape* the paper reports
//!   from the same cost structure (see DESIGN.md §1).
//! * [`timeline`] — runs live scale-out experiments on an in-process cluster
//!   (real server threads, real migrations) and samples per-server
//!   throughput, pending-operation counts, and migration traffic
//!   (Figures 10–14).
//! * [`report`] — ASCII table / CSV output helpers so each binary prints the
//!   same rows or series the paper's figure shows.

#![warn(missing_docs)]

pub mod calibrate;
pub mod model;
pub mod profile;
pub mod report;
pub mod timeline;
