//! Randomized property tests over cluster layouts and their textual specs.
//!
//! Written in the same style as the wire codec's property suite in the RPC
//! crate: the invariants were conceived as `proptest` properties, but the build
//! environment has no registry access, so they run over deterministic
//! seeded-PRNG cases instead — every failure is reproducible from the case
//! number.  The invariants:
//!
//! * **every** layout that resolves does so to a full partition of the
//!   hash space: disjoint ranges, no gaps, every registered id present,
//! * explicit layouts and `--peer` specs round-trip through their textual
//!   specs (`Display` / format → parse is the identity),
//! * overlaps, gaps, duplicate ids, and assignments to unknown ids are
//!   rejected with the matching typed [`LayoutError`] — never a panic,
//! * arbitrary garbage and random single-character corruption of valid
//!   specs never panic the parsers (the same corruption discipline the
//!   codec's property suite applies to wire frames).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use shadowfax::{
    parse_peer_spec, validate_partition, ClusterLayout, HashRange, LayoutError, RangeSet, ServerId,
};

/// Asserts the resolved map is a partition: every member id present, and
/// the union of all ranges tiles `[0, u64::MAX]` with no overlap.
fn assert_partition(map: &BTreeMap<ServerId, RangeSet>, ids: &[ServerId], context: &str) {
    for id in ids {
        assert!(map.contains_key(id), "{context}: id {} missing", id.0);
    }
    // The library's own validator must agree...
    validate_partition(map).unwrap_or_else(|e| panic!("{context}: not a partition: {e}"));
    // ... and so must a from-scratch reconstruction.
    let mut all: Vec<HashRange> = map
        .values()
        .flat_map(|rs| rs.ranges().iter().copied())
        .collect();
    all.sort();
    let mut cursor = 0u64;
    for r in &all {
        assert_eq!(r.start, cursor, "{context}: hole or overlap at {r}");
        cursor = r.end;
    }
    assert_eq!(cursor, u64::MAX, "{context}: top of the space unowned");
    let total: u64 = map.values().map(|rs| rs.total_width()).sum();
    assert_eq!(total, u64::MAX, "{context}: widths do not sum to the space");
}

/// Random distinct ids, sorted.
fn random_ids(rng: &mut StdRng, max_count: u64) -> Vec<ServerId> {
    let n = rng.gen_range(1u64..max_count + 1) as usize;
    let mut ids: Vec<u32> = Vec::new();
    while ids.len() < n {
        let id = rng.gen_range(0u64..64) as u32;
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids.sort_unstable();
    ids.into_iter().map(ServerId).collect()
}

/// Random cut points splitting the full space into `ids.len()` or more
/// contiguous slices, dealt round-robin to the ids: a valid explicit
/// layout where ids may own several disjoint ranges.
fn random_explicit(rng: &mut StdRng, ids: &[ServerId]) -> Vec<(ServerId, RangeSet)> {
    let slices = ids.len() + rng.gen_range(0u64..4) as usize;
    let mut cuts: Vec<u64> = (1..slices).map(|_| rng.gen::<u64>()).collect();
    cuts.push(0);
    cuts.push(u64::MAX);
    cuts.sort_unstable();
    cuts.dedup();
    let mut per_id: Vec<Vec<HashRange>> = vec![Vec::new(); ids.len()];
    for (i, pair) in cuts.windows(2).enumerate() {
        per_id[i % ids.len()].push(HashRange::new(pair[0], pair[1]));
    }
    ids.iter()
        .zip(per_id)
        .filter(|(_, ranges)| !ranges.is_empty())
        .map(|(id, ranges)| (*id, RangeSet::from_ranges(ranges)))
        .collect()
}

#[test]
fn partitioned_layouts_always_tile_the_space() {
    let mut rng = StdRng::seed_from_u64(0x1a_0001);
    for case in 0..400 {
        let ids = random_ids(&mut rng, 12);
        let map = ClusterLayout::Partitioned
            .resolve(&ids)
            .unwrap_or_else(|e| panic!("case {case}: partitioned resolve failed: {e}"));
        assert_partition(&map, &ids, &format!("case {case} (partitioned)"));
    }
}

#[test]
fn explicit_layouts_tile_the_space_and_roundtrip_their_specs() {
    let mut rng = StdRng::seed_from_u64(0x1a_0002);
    for case in 0..400 {
        let ids = random_ids(&mut rng, 8);
        let layout = ClusterLayout::Explicit(random_explicit(&mut rng, &ids));
        let map = layout
            .resolve(&ids)
            .unwrap_or_else(|e| panic!("case {case}: explicit resolve failed: {e}"));
        assert_partition(&map, &ids, &format!("case {case} (explicit)"));

        // Display -> parse is the identity, and the re-parsed layout
        // resolves to the same map.
        let spec = layout.to_string();
        let reparsed = ClusterLayout::from_spec(&spec)
            .unwrap_or_else(|e| panic!("case {case}: spec {spec:?} failed to re-parse: {e}"));
        assert_eq!(reparsed, layout, "case {case}: spec {spec:?}");
        assert_eq!(
            reparsed.resolve(&ids).unwrap(),
            map,
            "case {case}: re-parsed layout resolves differently"
        );
    }
}

#[test]
fn scale_out_resolves_iff_server_zero_is_registered() {
    let mut rng = StdRng::seed_from_u64(0x1a_0003);
    for case in 0..200 {
        let ids = random_ids(&mut rng, 6);
        let result = ClusterLayout::ScaleOut.resolve(&ids);
        if ids.contains(&ServerId(0)) {
            let map = result.unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_partition(&map, &ids, &format!("case {case} (scale-out)"));
            assert_eq!(map[&ServerId(0)], RangeSet::full());
        } else {
            assert!(
                matches!(result, Err(LayoutError::Gap { .. })),
                "case {case}: scale-out without id 0 resolved: {result:?}"
            );
        }
    }
}

#[test]
fn mutated_layouts_are_rejected_with_typed_errors() {
    let mut rng = StdRng::seed_from_u64(0x1a_0004);
    let mut overlaps = 0u32;
    let mut gaps = 0u32;
    for case in 0..400 {
        let ids = random_ids(&mut rng, 6);
        let mut assigned = random_explicit(&mut rng, &ids);
        let victim = rng.gen_range(0u64..assigned.len() as u64) as usize;
        let ranges: Vec<HashRange> = assigned[victim].1.ranges().to_vec();
        let r = ranges[rng.gen_range(0u64..ranges.len() as u64) as usize];
        match rng.gen_range(0u64..3) {
            // Stretch a range downward into its neighbour: overlap
            // (unless it already starts at 0).
            0 if r.start > 0 => {
                let mut rs = assigned[victim].1.clone();
                rs.add(&[HashRange::new(r.start - 1, r.start)]);
                assigned[victim].1 = rs;
                let err = ClusterLayout::Explicit(assigned.clone())
                    .resolve(&ids)
                    .expect_err("overlap must not resolve");
                // The stretched range may instead have *filled a gap*
                // created by... no: the base layout tiled the space, so
                // growing any range can only collide.
                assert!(
                    matches!(err, LayoutError::Overlap { .. }),
                    "case {case}: expected Overlap, got {err}"
                );
                overlaps += 1;
            }
            // Drop an entire assignment: gap (the base layout gave every
            // listed id at least one range).
            1 => {
                let dropped = assigned.remove(victim);
                if assigned.is_empty() {
                    continue;
                }
                let err = ClusterLayout::Explicit(assigned.clone())
                    .resolve(&ids)
                    .expect_err("dropped assignment must leave a gap");
                assert!(
                    matches!(err, LayoutError::Gap { .. }),
                    "case {case}: expected Gap after dropping {dropped:?}, got {err}"
                );
                gaps += 1;
            }
            // Duplicate an assignment entry: conflicting assignment.
            _ => {
                let dup = assigned[victim].clone();
                assigned.push(dup);
                let err = ClusterLayout::Explicit(assigned.clone())
                    .resolve(&ids)
                    .expect_err("duplicate assignment must not resolve");
                assert!(
                    matches!(err, LayoutError::ConflictingAssignment(_)),
                    "case {case}: expected ConflictingAssignment, got {err}"
                );
            }
        }
    }
    assert!(
        overlaps > 50,
        "mutation mix degenerate: {overlaps} overlaps"
    );
    assert!(gaps > 50, "mutation mix degenerate: {gaps} gaps");
}

#[test]
fn peer_specs_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x1a_0005);
    for case in 0..400 {
        let id = rng.gen_range(0u64..1024) as u32;
        let port = 1024 + rng.gen_range(0u64..60000);
        let threads = 1 + rng.gen_range(0u64..8) as usize;
        let spec = format!("id={id},addr=127.0.0.1:{port},threads={threads}");
        let peer = parse_peer_spec(&spec)
            .unwrap_or_else(|e| panic!("case {case}: spec {spec:?} rejected: {e}"));
        assert_eq!(peer.id, ServerId(id), "case {case}");
        assert_eq!(peer.address, format!("127.0.0.1:{port}"), "case {case}");
        assert_eq!(peer.threads, threads, "case {case}");
    }
}

#[test]
fn corrupted_and_garbage_specs_never_panic() {
    let mut rng = StdRng::seed_from_u64(0x1a_0006);
    let alphabet: Vec<char> = "0123456789abcdefx=,-+:.idowns autofllne ".chars().collect();
    let mut rejected = 0u64;
    for _ in 0..2000 {
        // Pure garbage.
        let len = rng.gen_range(0u64..40) as usize;
        let garbage: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0u64..alphabet.len() as u64) as usize])
            .collect();
        if ClusterLayout::from_spec(&garbage).is_err() {
            rejected += 1;
        }
        let _ = parse_peer_spec(&garbage);

        // Single-character corruption of a valid spec.
        let ids = random_ids(&mut rng, 4);
        let valid = ClusterLayout::Explicit(random_explicit(&mut rng, &ids)).to_string();
        let mut chars: Vec<char> = valid.chars().collect();
        let pos = rng.gen_range(0u64..chars.len() as u64) as usize;
        chars[pos] = alphabet[rng.gen_range(0u64..alphabet.len() as u64) as usize];
        let corrupted: String = chars.into_iter().collect();
        // Must either parse (the corruption kept it well-formed) or fail
        // with the typed spec error — never panic.
        match ClusterLayout::from_spec(&corrupted) {
            Ok(_) => {}
            Err(LayoutError::Spec { .. }) => {}
            Err(other) => panic!("corrupted spec {corrupted:?}: unexpected error {other:?}"),
        }
    }
    assert!(rejected > 1000, "garbage generator degenerate: {rejected}");
}
