//! Cluster-wide initial ownership layouts.
//!
//! The paper's deployments assume every server owns a slice of the hash
//! space from the moment it boots; migrations then *rebalance* load between
//! any pair of owners.  [`ClusterLayout`] makes that first assignment a
//! first-class, validated object: it is resolved over the set of **global**
//! server ids (the process's own server plus every peer), so every process
//! in a multi-process deployment derives the same ownership map from the
//! same `--layout`.
//!
//! Three layouts exist:
//!
//! * [`ClusterLayout::ScaleOut`] — server 0 owns the full space and every
//!   other id idles (the Figure 10 scale-out experiments, and the historical
//!   default).
//! * [`ClusterLayout::Partitioned`] — the space is split evenly across every
//!   registered global id, in id order.
//! * [`ClusterLayout::Explicit`] — per-id range lists, spelled out.
//!
//! [`ClusterLayout::resolve`] validates the map it produces: ids must be
//! unique, ranges must not overlap, and the union must cover the full hash
//! space — violations surface as typed [`LayoutError`]s, never panics.
//!
//! This module also owns the *textual* forms used by `shadowfax-server`
//! (`--layout`, `--peer`): parsing is strict and round-trips with the
//! `Display` impls, which the layout property tests fuzz.

use std::collections::BTreeMap;

use crate::hash_range::{partition_space_among, HashRange, RangeSet};
use crate::ServerId;

/// How the initial ownership of the hash space is assigned across the
/// cluster's global server ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ClusterLayout {
    /// Server 0 owns the full hash space; every other server starts idle as
    /// a scale-out target (the historical default).
    #[default]
    ScaleOut,
    /// The full hash space split evenly across every registered global id
    /// (local servers and peers alike), in ascending id order.
    Partitioned,
    /// Explicit per-id range lists.  Ids absent from the list start idle;
    /// the listed ranges must be disjoint and cover the full space.
    Explicit(Vec<(ServerId, RangeSet)>),
}

/// Why a layout failed to parse or resolve.
///
/// Non-exhaustive so new failure modes can be added without breaking
/// downstream matches; Display phrasing is lowercase-first with no
/// trailing period (audited by the rpc crate's error-surface test).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// The same global id was registered twice (e.g. a peer colliding with
    /// a local server).
    DuplicateServer(ServerId),
    /// An explicit assignment names an id that is neither hosted locally
    /// nor registered as a peer.
    UnknownServer(ServerId),
    /// An id appears more than once in an explicit assignment list.
    ConflictingAssignment(ServerId),
    /// Two owners claim overlapping slices of the hash space.
    Overlap {
        /// One claimant.
        a: ServerId,
        /// The other claimant.
        b: ServerId,
        /// Where their claims collide.
        range: HashRange,
    },
    /// Nobody owns `[start, end)`.
    Gap {
        /// Start of the unowned hole.
        start: u64,
        /// End of the unowned hole.
        end: u64,
    },
    /// The cluster has no servers at all.
    NoServers,
    /// A textual spec failed to parse.
    Spec {
        /// What was being parsed (`"--layout"`, `"--peer"`, ...).
        context: &'static str,
        /// The offending input (or the part of it that failed).
        input: String,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::DuplicateServer(id) => {
                write!(f, "server id {} registered twice", id.0)
            }
            LayoutError::UnknownServer(id) => write!(
                f,
                "layout assigns ranges to server id {} but no such server is registered",
                id.0
            ),
            LayoutError::ConflictingAssignment(id) => {
                write!(f, "server id {} assigned ranges more than once", id.0)
            }
            LayoutError::Overlap { a, b, range } => write!(
                f,
                "servers {} and {} both claim {range}",
                a.0.min(b.0),
                a.0.max(b.0)
            ),
            LayoutError::Gap { start, end } => {
                write!(f, "no server owns [{start:#x}, {end:#x})")
            }
            LayoutError::NoServers => f.write_str("the layout has no servers"),
            LayoutError::Spec { context, input } => {
                write!(f, "malformed {context} spec {input:?}")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl ClusterLayout {
    /// Resolves the layout over the cluster's global membership (`members`:
    /// every global id, local and peer alike) into one [`RangeSet`] per id.
    ///
    /// # Errors
    ///
    /// Typed [`LayoutError`]s for duplicate ids, assignments to unknown
    /// ids, overlapping claims, and coverage gaps — the resolved map always
    /// covers the full hash space with disjoint ranges.
    pub fn resolve(
        &self,
        members: &[ServerId],
    ) -> Result<BTreeMap<ServerId, RangeSet>, LayoutError> {
        if members.is_empty() {
            return Err(LayoutError::NoServers);
        }
        let mut assignment: BTreeMap<ServerId, RangeSet> = BTreeMap::new();
        for id in members {
            if assignment.insert(*id, RangeSet::empty()).is_some() {
                return Err(LayoutError::DuplicateServer(*id));
            }
        }
        match self {
            ClusterLayout::ScaleOut => {
                if let Some(owned) = assignment.get_mut(&ServerId(0)) {
                    *owned = RangeSet::full();
                }
                // No server 0 anywhere: the coverage check below reports
                // the hole as a typed Gap.
            }
            ClusterLayout::Partitioned => {
                let ids: Vec<ServerId> = assignment.keys().copied().collect();
                for (id, part) in partition_space_among(&ids) {
                    assignment.insert(id, RangeSet::from_ranges([part]));
                }
            }
            ClusterLayout::Explicit(assigned) => {
                let mut seen = Vec::new();
                for (id, ranges) in assigned {
                    if seen.contains(id) {
                        return Err(LayoutError::ConflictingAssignment(*id));
                    }
                    seen.push(*id);
                    match assignment.get_mut(id) {
                        Some(owned) => *owned = ranges.clone(),
                        None => return Err(LayoutError::UnknownServer(*id)),
                    }
                }
            }
        }
        validate_partition(&assignment)?;
        Ok(assignment)
    }

    /// Parses a `--layout` spec: `scale-out`, `partitioned`, or an explicit
    /// assignment list `0=0x0-0x8000000000000000,1=0x8000000000000000-0xffffffffffffffff`
    /// (multiple ranges per id joined with `+`; `none` marks an id idle).
    pub fn from_spec(spec: &str) -> Result<Self, LayoutError> {
        let bad = |input: &str| LayoutError::Spec {
            context: "--layout",
            input: input.to_string(),
        };
        match spec {
            "scale-out" | "scaleout" => return Ok(ClusterLayout::ScaleOut),
            "partitioned" | "balanced" => return Ok(ClusterLayout::Partitioned),
            "" => return Err(bad(spec)),
            _ => {}
        }
        let mut assigned = Vec::new();
        for field in spec.split(',') {
            let (id, ranges) = field.split_once('=').ok_or_else(|| bad(field))?;
            let id: u32 = id.parse().map_err(|_| bad(field))?;
            let ranges = parse_ranges_spec(ranges)?;
            assigned.push((ServerId(id), ranges));
        }
        Ok(ClusterLayout::Explicit(assigned))
    }
}

impl std::fmt::Display for ClusterLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterLayout::ScaleOut => f.write_str("scale-out"),
            ClusterLayout::Partitioned => f.write_str("partitioned"),
            ClusterLayout::Explicit(assigned) => {
                for (i, (id, ranges)) in assigned.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}={}", id.0, format_ranges_spec(ranges))?;
                }
                Ok(())
            }
        }
    }
}

/// Parses a `+`-joined list of `START-END` hash ranges (hex, `0x` prefix
/// optional; `END` exclusive, with `0xffffffffffffffff` meaning "to the
/// top").  `none` is the empty set.  Rejects inverted and empty ranges.
fn parse_ranges_spec(spec: &str) -> Result<RangeSet, LayoutError> {
    let bad = |input: &str| LayoutError::Spec {
        context: "--layout",
        input: input.to_string(),
    };
    if spec == "none" {
        return Ok(RangeSet::empty());
    }
    let mut ranges = Vec::new();
    for part in spec.split('+') {
        let (start, end) = part.split_once('-').ok_or_else(|| bad(part))?;
        let parse_hex = |s: &str| -> Result<u64, LayoutError> {
            let digits = s.strip_prefix("0x").unwrap_or(s);
            if digits.is_empty() {
                return Err(bad(part));
            }
            u64::from_str_radix(digits, 16).map_err(|_| bad(part))
        };
        let start = parse_hex(start)?;
        let end = parse_hex(end)?;
        if start >= end {
            return Err(bad(part));
        }
        ranges.push(HashRange { start, end });
    }
    Ok(RangeSet::from_ranges(ranges))
}

/// The canonical textual form of a range set (inverse of
/// the `--layout` range parser): `0x0-0x7fff+0xc000-0xffff`, or `none` when
/// empty.
pub fn format_ranges_spec(ranges: &RangeSet) -> String {
    if ranges.is_empty() {
        return "none".to_string();
    }
    ranges
        .ranges()
        .iter()
        .map(|r| format!("{:#x}-{:#x}", r.start, r.end))
        .collect::<Vec<_>>()
        .join("+")
}

/// Parses a `--peer` spec, e.g. `id=1,addr=127.0.0.1:4871,threads=2`.
/// `id` and `addr` are required and `threads` defaults to 2; a key given
/// twice is rejected rather than silently overwritten.  The peer's ranges
/// come from the cluster layout, which every process is given alike.
pub fn parse_peer_spec(spec: &str) -> Result<crate::cluster::PeerServer, LayoutError> {
    let bad = |input: &str| LayoutError::Spec {
        context: "--peer",
        input: input.to_string(),
    };
    let mut id = None;
    let mut addr = None;
    let mut threads = None;
    let mut seen = Vec::new();
    for field in spec.split(',') {
        let (key, value) = field.split_once('=').ok_or_else(|| bad(field))?;
        if seen.contains(&key) {
            return Err(bad(field));
        }
        seen.push(key);
        match key {
            "id" => id = Some(value.parse::<u32>().map_err(|_| bad(field))?),
            "addr" if !value.is_empty() => addr = Some(value.to_string()),
            "threads" => match value.parse() {
                Ok(0) | Err(_) => return Err(bad(field)),
                Ok(n) => threads = Some(n),
            },
            _ => return Err(bad(field)),
        }
    }
    Ok(crate::cluster::PeerServer {
        id: ServerId(id.ok_or_else(|| bad(spec))?),
        address: addr.ok_or_else(|| bad(spec))?,
        threads: threads.unwrap_or(2),
    })
}

/// Checks that `assignment` tiles the full hash space: no two ids claim
/// overlapping ranges and no hash value is left unowned.
pub fn validate_partition(assignment: &BTreeMap<ServerId, RangeSet>) -> Result<(), LayoutError> {
    let mut claims: Vec<(u64, u64, ServerId)> = Vec::new();
    for (id, owned) in assignment {
        for r in owned.ranges() {
            claims.push((r.start, r.end, *id));
        }
    }
    claims.sort_unstable();
    let mut cursor = 0u64;
    let mut last_owner: Option<ServerId> = None;
    for (start, end, id) in claims {
        match start.cmp(&cursor) {
            std::cmp::Ordering::Less => {
                return Err(LayoutError::Overlap {
                    a: last_owner.unwrap_or(id),
                    b: id,
                    range: HashRange::new(start, cursor.min(end)),
                });
            }
            std::cmp::Ordering::Greater => {
                return Err(LayoutError::Gap {
                    start: cursor,
                    end: start,
                });
            }
            std::cmp::Ordering::Equal => {}
        }
        cursor = end;
        last_owner = Some(id);
    }
    if cursor != u64::MAX {
        return Err(LayoutError::Gap {
            start: cursor,
            end: u64::MAX,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(ids: &[u32]) -> Vec<ServerId> {
        ids.iter().map(|&id| ServerId(id)).collect()
    }

    #[test]
    fn scale_out_gives_everything_to_server_zero() {
        let map = ClusterLayout::ScaleOut
            .resolve(&members(&[0, 1, 2]))
            .unwrap();
        assert_eq!(map[&ServerId(0)], RangeSet::full());
        assert!(map[&ServerId(1)].is_empty());
        assert!(map[&ServerId(2)].is_empty());
    }

    #[test]
    fn scale_out_without_server_zero_is_a_gap() {
        let err = ClusterLayout::ScaleOut
            .resolve(&members(&[1, 2]))
            .unwrap_err();
        assert_eq!(
            err,
            LayoutError::Gap {
                start: 0,
                end: u64::MAX
            }
        );
    }

    #[test]
    fn partitioned_splits_across_global_ids_in_id_order() {
        // Ids out of order and non-contiguous: the split follows sorted ids.
        let map = ClusterLayout::Partitioned
            .resolve(&members(&[7, 0, 3]))
            .unwrap();
        assert_eq!(map.len(), 3);
        let r0 = map[&ServerId(0)].ranges()[0];
        let r3 = map[&ServerId(3)].ranges()[0];
        let r7 = map[&ServerId(7)].ranges()[0];
        assert_eq!(r0.start, 0);
        assert_eq!(r0.end, r3.start);
        assert_eq!(r3.end, r7.start);
        assert_eq!(r7.end, u64::MAX);
    }

    #[test]
    fn overlap_and_gap_are_typed_errors() {
        let cut = 1u64 << 63;
        let overlap = ClusterLayout::Explicit(vec![
            (
                ServerId(0),
                RangeSet::from_ranges([HashRange::new(0, cut + 10)]),
            ),
            (
                ServerId(1),
                RangeSet::from_ranges([HashRange::new(cut, u64::MAX)]),
            ),
        ])
        .resolve(&members(&[0, 1]))
        .unwrap_err();
        assert!(matches!(overlap, LayoutError::Overlap { .. }), "{overlap}");

        let gap = ClusterLayout::Explicit(vec![
            (ServerId(0), RangeSet::from_ranges([HashRange::new(0, cut)])),
            (
                ServerId(1),
                RangeSet::from_ranges([HashRange::new(cut + 10, u64::MAX)]),
            ),
        ])
        .resolve(&members(&[0, 1]))
        .unwrap_err();
        assert_eq!(
            gap,
            LayoutError::Gap {
                start: cut,
                end: cut + 10
            }
        );
    }

    #[test]
    fn duplicate_and_unknown_ids_are_typed_errors() {
        assert_eq!(
            ClusterLayout::ScaleOut
                .resolve(&members(&[0, 0]))
                .unwrap_err(),
            LayoutError::DuplicateServer(ServerId(0))
        );
        assert_eq!(
            ClusterLayout::Explicit(vec![(ServerId(9), RangeSet::full())])
                .resolve(&members(&[0]))
                .unwrap_err(),
            LayoutError::UnknownServer(ServerId(9))
        );
        assert_eq!(
            ClusterLayout::Explicit(vec![
                (ServerId(0), RangeSet::full()),
                (ServerId(0), RangeSet::full())
            ])
            .resolve(&members(&[0]))
            .unwrap_err(),
            LayoutError::ConflictingAssignment(ServerId(0))
        );
        assert_eq!(
            ClusterLayout::ScaleOut.resolve(&[]).unwrap_err(),
            LayoutError::NoServers
        );
    }

    #[test]
    fn layout_specs_parse_and_roundtrip() {
        assert_eq!(
            ClusterLayout::from_spec("scale-out").unwrap(),
            ClusterLayout::ScaleOut
        );
        assert_eq!(
            ClusterLayout::from_spec("partitioned").unwrap(),
            ClusterLayout::Partitioned
        );
        let explicit = ClusterLayout::from_spec(
            "0=0x0-0x8000000000000000,1=0x8000000000000000-0xffffffffffffffff",
        )
        .unwrap();
        match &explicit {
            ClusterLayout::Explicit(assigned) => {
                assert_eq!(assigned.len(), 2);
                assert_eq!(assigned[0].0, ServerId(0));
                assert_eq!(assigned[0].1.ranges(), &[HashRange::new(0, 1 << 63)]);
            }
            other => panic!("expected Explicit, got {other:?}"),
        }
        for layout in [
            ClusterLayout::ScaleOut,
            ClusterLayout::Partitioned,
            explicit,
        ] {
            assert_eq!(
                ClusterLayout::from_spec(&layout.to_string()).unwrap(),
                layout
            );
        }
    }

    #[test]
    fn garbage_specs_are_rejected_without_panicking() {
        for bad in [
            "",
            "bogus",
            "0=",
            "0=0x10-0x5",  // inverted
            "0=0x10-0x10", // empty
            "0=10..20",    // wrong separator
            "0=0x-0x5",    // no digits
            "x=0x0-0x5",   // bad id
            "0=0x0-0xzz",  // bad hex
            "0=0x0-0x5,,", // empty field
            "0:0x0-0x5",   // wrong assignment separator
        ] {
            assert!(
                matches!(ClusterLayout::from_spec(bad), Err(LayoutError::Spec { .. })),
                "spec {bad:?} was not rejected"
            );
        }
        for bad in ["", "garbage", "0x5-0x1", "0x1+0x5"] {
            assert!(
                parse_ranges_spec(bad).is_err(),
                "ranges spec {bad:?} was not rejected"
            );
        }
    }

    #[test]
    fn peer_specs_parse_with_defaults_and_reject_garbage() {
        let peer = parse_peer_spec("id=3,addr=127.0.0.1:4871").unwrap();
        assert_eq!(peer.id, ServerId(3));
        assert_eq!(peer.address, "127.0.0.1:4871");
        assert_eq!(peer.threads, 2);

        let peer = parse_peer_spec("id=1,addr=h:1,threads=4").unwrap();
        assert_eq!(peer.threads, 4);

        for bad in [
            "",
            "id=1",                              // missing addr
            "addr=h:1",                          // missing id
            "id=x,addr=h:1",                     // bad id
            "id=1,addr=",                        // empty addr
            "id=1,addr=h:1,threads=0",           // zero threads
            "id=1,addr=h:1,threads=abc",         // bad threads
            "id=1,addr=h:1,owns=none",           // owns= is gone: --layout assigns
            "id=1,addr=h:1,color=red",           // unknown field
            "id=1,addr=h:1,id=2",                // repeated id
            "id=1,addr=h:1,addr=h:2",            // repeated addr
            "id=1,addr=h:1,threads=2,threads=4", // repeated threads
            "id=1 addr=h:1",                     // wrong field separator
        ] {
            assert!(
                matches!(parse_peer_spec(bad), Err(LayoutError::Spec { .. })),
                "peer spec {bad:?} was not rejected"
            );
        }
    }
}
