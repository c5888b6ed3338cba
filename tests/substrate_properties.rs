//! Cross-crate randomized-invariant tests over the substrates: the FASTER
//! store against a model map, HybridLog region invariants, hash-range set
//! algebra, and checkpoint/recovery round trips.
//!
//! These were originally `proptest` properties; the build environment has no
//! registry access, so they run the same invariants over deterministic
//! seeded-PRNG cases instead (every failure is reproducible from the case
//! number).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shadowfax::{HashRange, RangeSet};
use shadowfax_epoch::EpochManager;
use shadowfax_faster::{recover_from_checkpoint, take_checkpoint, Faster, FasterConfig, KeyHash};
use shadowfax_hlog::{HybridLog, LogConfig, RecordFlags, INVALID_ADDRESS};
use shadowfax_storage::SimSsd;

#[derive(Debug, Clone)]
enum ModelOp {
    Upsert(u64, u8, u8),
    RmwAdd(u64, u8),
    Delete(u64),
    Read(u64),
}

fn random_op(rng: &mut StdRng) -> ModelOp {
    match rng.gen_range(0u32..4) {
        0 => ModelOp::Upsert(
            rng.gen_range(0u64..64),
            rng.gen::<u32>() as u8,
            rng.gen_range(1u64..32) as u8,
        ),
        1 => ModelOp::RmwAdd(rng.gen_range(0u64..64), rng.gen_range(1u64..16) as u8),
        2 => ModelOp::Delete(rng.gen_range(0u64..64)),
        _ => ModelOp::Read(rng.gen_range(0u64..64)),
    }
}

/// FASTER behaves like a map for any sequence of operations: every read
/// agrees with a model HashMap, including after deletes and re-insertions.
#[test]
fn faster_matches_model_map() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0xFA57E4 + case);
        let n_ops = rng.gen_range(1u64..300) as usize;
        let store = Faster::standalone(
            FasterConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 28)),
        );
        let session = store.start_session();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for _ in 0..n_ops {
            match random_op(&mut rng) {
                ModelOp::Upsert(k, b, l) => {
                    let v = vec![b; l as usize];
                    session.upsert(k, &v).unwrap();
                    model.insert(k, v);
                }
                ModelOp::RmwAdd(k, d) => {
                    session.rmw_add(k, d as u64, &[0u8; 8]).unwrap();
                    let entry = model.entry(k).or_insert_with(|| vec![0u8; 8]);
                    if entry.len() < 8 {
                        entry.resize(8, 0);
                    }
                    let c =
                        u64::from_le_bytes(entry[0..8].try_into().unwrap()).wrapping_add(d as u64);
                    entry[0..8].copy_from_slice(&c.to_le_bytes());
                }
                ModelOp::Delete(k) => {
                    session.delete(k).unwrap();
                    model.remove(&k);
                }
                ModelOp::Read(k) => {
                    assert_eq!(
                        session.read(k).unwrap(),
                        model.get(&k).cloned(),
                        "case {case}"
                    );
                }
            }
        }
        for (k, v) in &model {
            let read = session.read(*k).unwrap();
            assert_eq!(read.as_ref(), Some(v), "case {case}");
        }
    }
}

/// The same model check over a log that spills to the simulated SSD: values
/// of about 200 bytes over 300 keys on the test-sized log.  After a load of
/// every key, 15 of 16 operations go to a hot tenth of them: the versions
/// of a hot key cross both the read-only and the head address, and a cold
/// key's version ages into the stable region before the next touch.  Part-way
/// through, the floor of a quarter of the hash space is raised, which kills
/// every version of its keys already in the log; the model forgets them.
/// A closing upsert-only phase never reads stable storage: an upsert looks
/// for a version to update in place, and none lies below the read-only
/// address.
#[test]
fn faster_matches_model_map_over_a_spilled_log() {
    const KEYS: u64 = 300;
    let dead_range = (0, u64::MAX / 4);
    for case in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(0x5B111ED + case);
        let store = Faster::standalone(
            FasterConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 28)),
        );
        let session = store.start_session();
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        let check_all = |model: &HashMap<u64, Vec<u8>>, phase: &str| {
            for k in 0..KEYS {
                let read = session.read(k).unwrap();
                assert_eq!(
                    read.as_ref(),
                    model.get(&k),
                    "case {case}, {phase}, key {k}"
                );
            }
        };
        for k in 0..KEYS {
            let v = vec![k as u8; 200];
            session.upsert(k, &v).unwrap();
            model.insert(k, v);
        }
        for i in 0..5000 {
            if i == 2500 {
                store.raise_floors(&[dead_range]);
                model.retain(|k, _| KeyHash::of(*k).raw() >= dead_range.1);
            }
            let k = match rng.gen_range(0u32..16) {
                0 => rng.gen_range(0..KEYS),
                _ => rng.gen_range(0..KEYS / 10),
            };
            match rng.gen_range(0u32..8) {
                0..=3 => {
                    let v = vec![rng.gen::<u32>() as u8; rng.gen_range(190..210)];
                    session.upsert(k, &v).unwrap();
                    model.insert(k, v);
                }
                4 => {
                    let d = rng.gen_range(1u64..16);
                    let counter = session.rmw_add(k, d, &[0u8; 200]).unwrap();
                    let entry = model.entry(k).or_insert_with(|| vec![0u8; 200]);
                    let c = u64::from_le_bytes(entry[0..8].try_into().unwrap()).wrapping_add(d);
                    entry[0..8].copy_from_slice(&c.to_le_bytes());
                    assert_eq!(counter, c, "case {case}, op {i}");
                }
                5 => {
                    let existed = session.delete(k).unwrap();
                    assert_eq!(existed, model.remove(&k).is_some(), "case {case}, op {i}");
                }
                _ => {
                    let read = session.read(k).unwrap();
                    assert_eq!(read.as_ref(), model.get(&k), "case {case}, op {i}");
                }
            }
        }
        let log = store.log().stats();
        assert!(log.head > log.begin, "case {case}: the log never spilled");
        check_all(&model, "mixed");
        assert!(
            store.stats().snapshot().stable_reads > 0,
            "case {case}: no read reached the stable region"
        );

        let stable_reads = store.stats().snapshot().stable_reads;
        for _ in 0..2000 {
            let k = rng.gen_range(0..KEYS);
            let v = vec![rng.gen::<u32>() as u8; rng.gen_range(190..210)];
            session.upsert(k, &v).unwrap();
            model.insert(k, v);
        }
        assert_eq!(
            store.stats().snapshot().stable_reads,
            stable_reads,
            "case {case}: an upsert read stable storage"
        );
        check_all(&model, "upserts");
    }
}

/// Appending arbitrary records never violates the log's region ordering
/// invariants, and every appended record reads back intact.
#[test]
fn hybridlog_region_invariants() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x4106 + case);
        let n_values = rng.gen_range(1u64..200) as usize;
        let epoch = Arc::new(EpochManager::new());
        let log = HybridLog::new(
            LogConfig::small_for_tests(),
            Arc::new(SimSsd::new(1 << 28)),
            None,
            Arc::clone(&epoch),
        );
        let t = epoch.register();
        let mut appended = Vec::new();
        for _ in 0..n_values {
            let key: u64 = rng.gen();
            let len = rng.gen_range(1u64..512) as usize;
            let value = vec![(key % 251) as u8; len];
            let addr = log
                .append(key, &value, INVALID_ADDRESS, 1, RecordFlags::empty(), &t)
                .unwrap();
            appended.push((key, value, addr));
            let s = log.stats();
            assert!(s.begin <= s.safe_head, "case {case}");
            assert!(s.safe_head <= s.head, "case {case}");
            assert!(s.head <= s.read_only, "case {case}");
            assert!(s.read_only <= s.tail, "case {case}");
        }
        let g = t.protect();
        for (key, value, addr) in appended {
            let rec = log.read_record(addr, &g).unwrap();
            assert_eq!(rec.key(), key, "case {case}");
            assert_eq!(rec.value(), &value[..], "case {case}");
        }
    }
}

/// RangeSet add/remove behaves like set algebra over the hash space.
#[test]
fn rangeset_add_remove_is_set_algebra() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0x5E7 + case);
        let n_cuts = rng.gen_range(2u64..10) as usize;
        let mut cut_points: BTreeSet<u64> = BTreeSet::new();
        while cut_points.len() < n_cuts {
            cut_points.insert(rng.gen_range(1u64..u64::MAX - 1));
        }
        let probes: Vec<u64> = (0..32).map(|_| rng.gen()).collect();

        let cuts: Vec<u64> = cut_points.into_iter().collect();
        let ranges: Vec<HashRange> = cuts
            .windows(2)
            .map(|w| HashRange::new(w[0], w[1]))
            .collect();
        let mut set = RangeSet::full();
        set.remove(&ranges);
        for p in &probes {
            let in_removed = ranges.iter().any(|r| r.contains(*p));
            assert_eq!(set.contains(*p), !in_removed, "case {case}");
        }
        set.add(&ranges);
        assert_eq!(set, RangeSet::full(), "case {case}");
    }
}

/// Every key hashes into exactly one part of any even partition of the hash
/// space (the routing invariant clients and servers rely on).
#[test]
fn partition_routes_every_key_exactly_once() {
    let mut rng = StdRng::seed_from_u64(0x9A97);
    for _ in 0..256 {
        let key: u64 = rng.gen();
        let parts = rng.gen_range(1u64..16) as usize;
        let ranges = HashRange::FULL.split(parts);
        let hash = KeyHash::of(key).raw();
        let owners = ranges.iter().filter(|r| r.contains(hash)).count();
        assert_eq!(owners, 1, "key {key} parts {parts}");
    }
}

#[test]
fn checkpoint_recover_roundtrip_preserves_counters() {
    let ssd: Arc<SimSsd> = Arc::new(SimSsd::new(1 << 28));
    let store = Faster::new(
        FasterConfig::small_for_tests(),
        ssd.clone(),
        None,
        Arc::new(EpochManager::new()),
    );
    let session = store.start_session();
    for k in 0..500u64 {
        session.rmw_add(k, k, &[0u8; 8]).unwrap();
    }
    let cp = take_checkpoint(&store, &session);
    let recovered = Faster::new(
        FasterConfig::small_for_tests(),
        ssd,
        None,
        Arc::new(EpochManager::new()),
    );
    recover_from_checkpoint(&recovered, &cp);
    let session2 = recovered.start_session();
    for k in (0..500u64).step_by(23) {
        let v = session2.read(k).unwrap().unwrap();
        assert_eq!(u64::from_le_bytes(v[0..8].try_into().unwrap()), k);
    }
}

#[test]
fn epoch_actions_fire_once_under_thread_churn() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let epoch = Arc::new(EpochManager::new());
    let fired = Arc::new(AtomicUsize::new(0));
    for round in 0..20 {
        let worker = {
            let epoch = Arc::clone(&epoch);
            std::thread::spawn(move || {
                let t = epoch.register();
                for _ in 0..100 {
                    let _g = t.protect();
                }
            })
        };
        let f = Arc::clone(&fired);
        epoch.bump_with_action(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        worker.join().unwrap();
        epoch.try_drain();
        assert_eq!(fired.load(Ordering::SeqCst), round + 1);
    }
}
