//! Microbenchmarks over the core data structures and hot paths: hash-index
//! probes, FASTER ops, epoch protection/cuts, Zipfian key generation, and
//! batch validation/encoding.
//!
//! The build environment has no registry access, so instead of criterion this
//! uses a small self-contained harness (`harness = false` in Cargo.toml):
//! each case is warmed up, then timed over a fixed wall-clock window and
//! reported as ns/op and Mops/s.  Run with `cargo bench -p shadowfax-bench`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use shadowfax::{HashRange, RangeSet};
use shadowfax_epoch::EpochManager;
use shadowfax_faster::{Faster, FasterConfig, KeyHash};
use shadowfax_net::{KvRequest, RequestBatch};
use shadowfax_storage::SimSsd;
use shadowfax_workload::{WorkloadConfig, WorkloadGenerator};

/// Times `op` for roughly `window`, returning (iterations, elapsed).
fn run_case<T>(name: &str, elements_per_iter: u64, mut op: impl FnMut() -> T) {
    // Warm-up.
    let warm_until = Instant::now() + Duration::from_millis(200);
    while Instant::now() < warm_until {
        std::hint::black_box(op());
    }
    let window = Duration::from_millis(800);
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed() < window {
        // Amortize the clock read over a small inner loop.
        for _ in 0..64 {
            std::hint::black_box(op());
        }
        iters += 64;
    }
    let elapsed = start.elapsed();
    let elements = iters * elements_per_iter;
    let ns_per_elem = elapsed.as_nanos() as f64 / elements as f64;
    let mops = elements as f64 / elapsed.as_secs_f64() / 1e6;
    println!("{name:<44} {ns_per_elem:>10.1} ns/op {mops:>10.2} Mops/s");
}

fn bench_faster_ops() {
    let mut config = FasterConfig::small_for_tests();
    config.table_bits = 16;
    config.log.page_bits = 20;
    config.log.memory_pages = 64;
    config.log.mutable_pages = 48;
    let store = Faster::standalone(config, Arc::new(SimSsd::new(1 << 30)));
    let session = store.start_session();
    let value = vec![0u8; 256];
    for k in 0..100_000u64 {
        session.upsert(k, &value).unwrap();
    }
    let mut key = 0u64;
    run_case("faster/read_in_memory", 1, || {
        key = (key + 7919) % 100_000;
        session.read(key).unwrap()
    });
    run_case("faster/rmw_add_in_place", 1, || {
        key = (key + 104729) % 100_000;
        session.rmw_add(key, 1, &value).unwrap()
    });
    run_case("faster/upsert_same_size", 1, || {
        key = (key + 15485863) % 100_000;
        session.upsert(key, &value).unwrap()
    });
}

fn bench_epoch() {
    let epoch = Arc::new(EpochManager::new());
    let thread = epoch.register();
    run_case("epoch/protect_unprotect", 1, || {
        let g = thread.protect();
        drop(g);
    });
    run_case("epoch/bump_with_action_uncontended", 1, || {
        epoch.bump_with_action(|| {})
    });
}

fn bench_workload() {
    let mut zipf = WorkloadGenerator::new(WorkloadConfig::ycsb_f(10_000_000));
    run_case("workload/zipfian_next_key", 1, || zipf.next_key());
    let mut uniform = WorkloadGenerator::new(WorkloadConfig::ycsb_f_uniform(10_000_000));
    run_case("workload/uniform_next_key", 1, || uniform.next_key());
}

fn bench_validation() {
    let batch = RequestBatch {
        view: 3,
        seq: 1,
        ops: (0..64u64)
            .map(|k| KvRequest::RmwAdd { key: k, delta: 1 })
            .collect(),
    };
    let owned = RangeSet::from_ranges(HashRange::FULL.split(512).into_iter().step_by(2));
    run_case("validation/view_validation_per_batch", 64, || {
        std::hint::black_box(batch.view) == std::hint::black_box(3u64)
    });
    run_case("validation/hash_validation_256_splits", 64, || {
        batch
            .ops
            .iter()
            .filter(|op| owned.contains(KeyHash::of(op.key()).raw()))
            .count()
    });
    run_case("validation/batch_wire_size", 64, || batch.wire_size());
}

fn bench_hash_index() {
    use shadowfax_faster::HashIndex;
    let idx = HashIndex::new(16);
    for key in 0..50_000u64 {
        let h = KeyHash::of(key);
        let (slot, entry) = idx.find_or_create_entry(h);
        if entry.address == shadowfax_faster::INVALID_ADDRESS {
            let _ = idx.try_update_entry(slot, entry, shadowfax_faster::Address::new(64 + key * 8));
        }
    }
    let mut key = 0u64;
    run_case("hash_index/find_entry_hit", 1, || {
        key = (key + 12289) % 50_000;
        idx.find_entry(KeyHash::of(key))
    });
    run_case("hash_index/key_hash", 1, || {
        key = key.wrapping_add(1);
        KeyHash::of(key)
    });
}

fn main() {
    println!("{:<44} {:>13} {:>17}", "benchmark", "latency", "throughput");
    bench_faster_ops();
    bench_epoch();
    bench_workload();
    bench_validation();
    bench_hash_index();
}
