//! YCSB-style workload generation and measurement helpers.
//!
//! The paper's evaluation (§4.1) uses a dataset of 250 million records with
//! 8-byte keys and 256-byte values, driven by YCSB workload F (read-modify-
//! write: read a record, increment a counter inside it, write it back), with
//! keys drawn from YCSB's default Zipfian distribution (θ = 0.99) or, for the
//! Seastar comparison, a uniform distribution.
//!
//! This crate provides those pieces: key distributions ([`ZipfianGenerator`],
//! [`UniformGenerator`]), operation mixes ([`WorkloadMix`]) and a request
//! stream ([`WorkloadGenerator`]).

#![warn(missing_docs)]

mod distribution;
mod workload;

pub use distribution::{KeyDistribution, ScrambledZipfian, UniformGenerator, ZipfianGenerator};
pub use workload::{Operation, WorkloadConfig, WorkloadGenerator, WorkloadMix};
