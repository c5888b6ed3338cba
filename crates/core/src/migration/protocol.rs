//! The migration protocol (paper §3.3) as two sans-I/O state machines.
//!
//! Neither machine reads a clock, owns a link or touches a store: each has
//! one `step(now, event) -> actions` function, and an action whose outcome
//! the protocol depends on is answered with an event.  Each has one cancel
//! edge, taken from any live state.  README "The migration protocol over
//! the wire" has both state tables.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use shadowfax_net::{LivenessConfig, PeerLiveness};

use crate::config::{MigrationConfig, MigrationMode};
use crate::hash_range::{HashRange, RangeSet};
use crate::messages::{MigratedItem, MigrationAckPhase, MigrationMsg};
use crate::migration::{MigrationReport, MigrationRole};
use crate::ServerId;

/// Where the source of a migration is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum SourcePhase {
    Sampling,
    Prepare,
    Transfer,
    Migrate,
    DiskScan,
    Complete,
    AwaitingFinalAck,
    Done,
    Cancelled,
}

impl SourcePhase {
    /// The label this phase is stamped under on the `migration.phase`
    /// timeline (a cancellation is stamped when it is noted).
    pub(crate) fn label(self) -> Option<&'static str> {
        match self {
            SourcePhase::Sampling => Some("sampling"),
            SourcePhase::Prepare => Some("prepare"),
            SourcePhase::Transfer => Some("transfer"),
            SourcePhase::Migrate => Some("migrate"),
            SourcePhase::DiskScan => Some("disk-scan"),
            SourcePhase::Complete => Some("complete"),
            _ => None,
        }
    }
}

/// What the source's driver observed.
#[derive(Debug)]
pub(crate) enum SourceEvent {
    /// One pass of dispatch thread 0.
    Tick,
    /// The epoch cut the machine scheduled has completed.
    CutReached,
    /// Every dispatch thread crossed an operation boundary after the view
    /// flip, so no batch accepted in the old view is still executing.
    ViewFlipCrossed,
    /// Every thread's region is shipped: this many items in all.
    RegionsDrained(u64),
    /// The Rocksteady disk scan is shipped: this many items in all.
    DiskScanDone(u64),
    /// A message from the target, on the control link or a records link.
    Received(MigrationMsg),
    /// The control link failed or closed.
    LinkError(String),
    /// An operator, or a peer's relay, cancels the migration.
    Cancel(String),
    /// The answer to [`SourceAction::CancelAtStore`]: did this cancel
    /// resolve the dependency?
    StoreCancelled(bool),
}

/// What the source's driver must do, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum SourceAction {
    /// Send on the control link (a failure is a link error).
    Send(MigrationMsg),
    /// Send a `Heartbeat` stamped with the serving view.
    Heartbeat,
    /// Take an epoch cut, then report [`SourceEvent::CutReached`].
    ScheduleCut,
    /// The same, for the ownership-transfer cut: inside it the server moves
    /// into its new view and gives up the ranges, unless the migration was
    /// cancelled first.
    ScheduleViewFlip,
    /// End sampling and send the hot set's current values.
    ShipHotSet,
    Checkpoint,
    MarkComplete(ServerId),
    /// Keep the source's report: the migration took this long.
    RecordReport(Duration),
    EndSampling,
    /// Cancel at the metadata store, then report
    /// [`SourceEvent::StoreCancelled`].
    CancelAtStore,
    RefreshOwnership,
    /// Count and log the cancellation: why, and the heartbeats missed.
    NoteCancellation(String, u64),
}

/// The source side of one migration.
#[derive(Debug)]
pub(crate) struct SourceMachine {
    migration_id: u64,
    source: ServerId,
    target: ServerId,
    ranges: Vec<HashRange>,
    /// The view the metadata store assigned the target.
    target_view: u64,
    mode: MigrationMode,
    started: Instant,
    /// When Sampling may end; `None` once its cut is scheduled.
    sampling_ends: Option<Instant>,
    phase: SourcePhase,
    total_items: u64,
    /// The target's liveness: any message from it is proof of life.
    liveness: PeerLiveness,
    /// The cancel edge's reason, and whether this side had completed, until
    /// the store answers.
    cancelled: Option<(String, bool)>,
}

impl SourceMachine {
    pub(crate) fn new(
        now: Instant,
        config: &MigrationConfig,
        migration_id: u64,
        source: ServerId,
        target: ServerId,
        ranges: Vec<HashRange>,
        target_view: u64,
    ) -> Self {
        SourceMachine {
            migration_id,
            source,
            target,
            ranges,
            target_view,
            mode: config.mode,
            started: now,
            sampling_ends: Some(now + config.sampling_duration),
            phase: SourcePhase::Sampling,
            total_items: 0,
            liveness: PeerLiveness::new(config.liveness, now),
            cancelled: None,
        }
    }

    pub(crate) fn phase(&self) -> SourcePhase {
        self.phase
    }

    pub(crate) fn step(&mut self, now: Instant, event: SourceEvent) -> Vec<SourceAction> {
        use MigrationMsg as M;
        use SourceAction as A;
        use SourceEvent as E;
        use SourcePhase as P;
        let id = self.migration_id;
        match (self.phase, event) {
            (P::Cancelled, E::StoreCancelled(won)) => self.roll_back(won),
            (P::Done | P::Cancelled, _) => Vec::new(),
            (_, E::Cancel(reason)) => self.cancel(reason),
            (_, E::LinkError(error)) => {
                self.cancel(format!("target {} declared dead: {error}", self.target))
            }
            (_, E::Tick) => self.tick(now),
            (at, E::Received(msg)) => {
                self.liveness.record_recv(now);
                match msg {
                    M::CancelMigration { migration_id, .. } if migration_id == id => {
                        self.cancel("target requested cancellation".into())
                    }
                    M::Ack {
                        migration_id,
                        phase: MigrationAckPhase::Completed,
                    } if migration_id == id && at == P::AwaitingFinalAck => {
                        // A target in another OS process cannot reach this
                        // process's metadata store, so the source marks its
                        // side complete (idempotent in-process).
                        self.phase = P::Done;
                        vec![A::MarkComplete(self.target)]
                    }
                    _ => Vec::new(),
                }
            }
            (P::Sampling, E::CutReached) => {
                self.phase = P::Prepare;
                let prep = M::PrepForTransfer {
                    migration_id: id,
                    ranges: self.ranges.clone(),
                    source: self.source,
                    target_view: self.target_view,
                };
                vec![A::Send(prep), A::ScheduleViewFlip]
            }
            (P::Prepare, E::CutReached) => {
                self.phase = P::Transfer;
                Vec::new()
            }
            (P::Transfer, E::ViewFlipCrossed) => {
                // The control link is ordered, so the target always sees the
                // ownership flip before the hot set that follows it.
                self.phase = P::Migrate;
                let take = M::TakeOwnership {
                    migration_id: id,
                    ranges: self.ranges.clone(),
                    target_view: self.target_view,
                };
                vec![A::Send(take), A::ShipHotSet]
            }
            (P::Migrate, E::RegionsDrained(total_items))
            | (P::DiskScan, E::DiskScanDone(total_items)) => {
                self.total_items = total_items;
                self.phase = match (self.phase, self.mode) {
                    (P::Migrate, MigrationMode::Rocksteady) => P::DiskScan,
                    _ => P::Complete,
                };
                Vec::new()
            }
            // An event the current phase does not wait for.
            _ => Vec::new(),
        }
    }

    /// Liveness, heartbeats, and the two phases that advance on a tick.
    fn tick(&mut self, now: Instant) -> Vec<SourceAction> {
        use SourceAction as A;
        if let Some(reason) = self.liveness.check_dead(now) {
            return self.cancel(format!("target {} declared dead: {reason}", self.target));
        }
        let mut actions = Vec::new();
        if self.liveness.heartbeat_due(now) {
            actions.push(A::Heartbeat);
        }
        match self.phase {
            SourcePhase::Sampling if self.sampling_ends.is_some_and(|end| now >= end) => {
                // Prepare is entered over a global cut: every dispatch thread
                // has finished its part of Sampling first.
                self.sampling_ends = None;
                actions.push(A::ScheduleCut);
            }
            SourcePhase::Complete => {
                // Checkpoint so the post-migration state is independently
                // recoverable, then mark this side complete (§3.3.1).
                self.phase = SourcePhase::AwaitingFinalAck;
                let complete = MigrationMsg::CompleteMigration {
                    migration_id: self.migration_id,
                    target_view: self.target_view,
                    total_items: self.total_items,
                };
                let duration = now.saturating_duration_since(self.started);
                actions.extend([
                    A::Send(complete),
                    A::Checkpoint,
                    A::MarkComplete(self.source),
                    A::RecordReport(duration),
                ]);
            }
            _ => {}
        }
        actions
    }

    /// The source's one cancel edge: cancel at the metadata store (the
    /// ranges return to the source, both views advance), then roll back once
    /// it has answered.  Records never leave the source's log, so re-owning
    /// the ranges loses nothing.
    fn cancel(&mut self, reason: String) -> Vec<SourceAction> {
        let mut actions = Vec::new();
        // Sampling runs until the hot set ships.
        if self.phase <= SourcePhase::Transfer {
            actions.push(SourceAction::EndSampling);
        }
        actions.push(SourceAction::CancelAtStore);
        self.cancelled = Some((reason, self.phase == SourcePhase::AwaitingFinalAck));
        self.phase = SourcePhase::Cancelled;
        actions
    }

    fn roll_back(&mut self, won: bool) -> Vec<SourceAction> {
        use SourceAction as A;
        match self.cancelled.take() {
            // The dependency resolved before the cancel reached the store
            // (the final ack can also arrive on a records link): nothing to
            // roll back, and a fence would wedge the healthy target.
            Some((_, true)) if !won => Vec::new(),
            // Lost before this side completed, the dependency was already
            // cancelled elsewhere, so the fence is safe either way.
            Some((reason, _)) => vec![
                // Best effort: a still-reachable target rolls back too, and
                // one that never heard of the migration adopts the fence.
                A::Send(MigrationMsg::CancelMigration {
                    migration_id: self.migration_id,
                    view: self.target_view,
                }),
                // The post-cancellation state is the new recovery point;
                // re-adopting the store's map bumps the serving view, which
                // fences every frame a revived target sends from the dead
                // epoch.
                A::Checkpoint,
                A::RefreshOwnership,
                A::NoteCancellation(reason, self.liveness.heartbeats_missed()),
            ],
            None => Vec::new(),
        }
    }
}

/// How the target treats requests in the migrating ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PendMode {
    /// Prepared: ownership transfer is imminent, so everything pends.
    PendAll,
    /// Receiving: only operations whose record has not arrived yet pend.
    PendMissing,
}

/// What the target's driver observed.
#[derive(Debug)]
pub(crate) enum TargetEvent {
    /// One pass of dispatch thread 0.
    Tick,
    /// A message from a source on any migration link, and the view this
    /// server serves.
    Received(MigrationMsg, u64),
    /// `(migration, count)`: the items of one [`TargetAction::Insert`] are
    /// in the store.
    Inserted(u64, u64),
    /// A migration's [`TargetAction::AdoptRanges`] has run: the ranges'
    /// floors are up, so its items may go in.
    Adopted(u64),
    /// An operator cancels a migration, for a reason.
    Cancel(u64, String),
}

/// What the target's driver must do, in order.
#[derive(Debug, PartialEq)]
pub(crate) enum TargetAction {
    /// Answer on the link the message arrived on.
    Reply(MigrationMsg),
    /// Take responsibility for a migration's ranges and serve at least the
    /// view, then report [`TargetEvent::Adopted`].
    AdoptRanges(u64, Vec<HashRange>, u64),
    AdoptView(u64),
    /// Insert a migration's shipped items, then report
    /// [`TargetEvent::Inserted`].
    Insert(u64, Vec<MigratedItem>),
    InsertHot(Vec<(u64, Vec<u8>)>),
    Checkpoint,
    MarkComplete(u64),
    RecordReport(MigrationReport),
    /// Cancel a migration at the metadata store and adopt its map, or — a
    /// target that cannot reach the store — give its ranges back and advance
    /// the view by one, the transition the store records.
    CancelAtStore(u64, RangeSet),
    /// Have dispatch threads re-check pended batches against ownership.
    BumpPendFlush,
    RelayCancel(ServerId, u64),
    NoteCancellation {
        migration_id: u64,
        reason: String,
        rolled_back: u64,
        missed: u64,
    },
}

/// The target side of migrations at one server: at most one incoming
/// migration, plus the items of batches that beat its `PrepForTransfer`.
#[derive(Debug)]
pub(crate) struct TargetMachine {
    /// Twice the source's budget, so the source — which also sees transport
    /// errors first — wins the race to cancel cleanly at the store.
    liveness: LivenessConfig,
    current: Option<Incoming>,
    /// Items received per migration before its ranges are adopted (records
    /// links can beat the control link over TCP), held until then: inserted
    /// before the floor goes up, they would land below it and be dead.
    strays: HashMap<u64, Vec<MigratedItem>>,
}

#[derive(Debug)]
struct Incoming {
    migration_id: u64,
    source: ServerId,
    ranges: RangeSet,
    mode: PendMode,
    /// Items inserted so far (records + indirection records).
    items_received: u64,
    /// The total the source announced in `CompleteMigration`.
    expected_items: Option<u64>,
    /// [`TargetEvent::Adopted`] arrived: items go straight in.
    adopted: bool,
    started: Instant,
    liveness: PeerLiveness,
}

impl TargetMachine {
    pub(crate) fn new(source_liveness: LivenessConfig) -> Self {
        TargetMachine {
            liveness: LivenessConfig {
                miss_budget: source_liveness.miss_budget.max(1) * 2,
                ..source_liveness
            },
            current: None,
            strays: HashMap::new(),
        }
    }

    pub(crate) fn is_active(&self) -> bool {
        self.current.is_some()
    }

    /// The pending rule for `hash`, if it is in the migrating ranges.
    pub(crate) fn pend_mode(&self, hash: u64) -> Option<PendMode> {
        let m = self.current.as_ref()?;
        m.ranges.contains(hash).then_some(m.mode)
    }

    /// The incoming migration, if it is `migration_id`, noting that its
    /// source was heard from at `now`.
    fn heard(&mut self, migration_id: u64, now: Option<Instant>) -> Option<&mut Incoming> {
        let m = self
            .current
            .as_mut()
            .filter(|m| m.migration_id == migration_id)?;
        if let Some(now) = now {
            m.liveness.record_recv(now);
        }
        Some(m)
    }

    pub(crate) fn step(&mut self, now: Instant, event: TargetEvent) -> Vec<TargetAction> {
        use MigrationMsg as M;
        use TargetAction as A;
        let (msg, view) = match event {
            TargetEvent::Received(msg, view) => (msg, view),
            TargetEvent::Tick => return self.check_source(now),
            TargetEvent::Cancel(migration_id, reason) => {
                return self.cancel(migration_id, reason, 0, false)
            }
            TargetEvent::Inserted(migration_id, count) => {
                if let Some(m) = self.heard(migration_id, None) {
                    m.items_received += count;
                }
                return self.finalize(now);
            }
            TargetEvent::Adopted(migration_id) => {
                let Some(m) = self.heard(migration_id, None) else {
                    return Vec::new();
                };
                m.adopted = true;
                let held = self.strays.remove(&migration_id).into_iter();
                return held.map(|items| A::Insert(migration_id, items)).collect();
            }
        };
        let seen = Some(now);
        match msg {
            M::PrepForTransfer {
                migration_id,
                ranges,
                source,
                target_view,
            } => {
                // A prepare tagged with a view older than the one already
                // served is from a dead migration epoch.
                if target_view < view {
                    return Vec::new();
                }
                // Strays of *other* migrations are from dead epochs (a
                // target receives one migration at a time) and dropped.
                self.strays.retain(|&id, _| id == migration_id);
                self.current = Some(Incoming {
                    migration_id,
                    source,
                    ranges: RangeSet::from_ranges(ranges.iter().copied()),
                    mode: PendMode::PendAll,
                    items_received: 0,
                    expected_items: None,
                    adopted: false,
                    started: now,
                    liveness: PeerLiveness::new(self.liveness, now),
                });
                vec![
                    A::AdoptRanges(migration_id, ranges, target_view),
                    ack(migration_id, MigrationAckPhase::Prepared),
                ]
            }
            M::TakeOwnership {
                migration_id,
                target_view,
                ..
            } => {
                // The source stopped serving the ranges.
                if let Some(m) = self.heard(migration_id, seen) {
                    m.mode = PendMode::PendMissing;
                }
                let ack = ack(migration_id, MigrationAckPhase::OwnershipReceived);
                vec![A::AdoptView(target_view), ack]
            }
            // Only the migration being received takes a hot set, once
            // adopted: a delayed push from a cancelled one must not resurrect
            // stale values (the Migrate phase ships every record again).
            M::PushHotRecords {
                migration_id,
                records,
                ..
            } if self.heard(migration_id, seen).is_some_and(|m| m.adopted) => {
                vec![A::InsertHot(records)]
            }
            // A batch tagged with a view older than the one already served
            // is from a dead migration epoch.
            M::PushRecordBatch {
                migration_id,
                target_view,
                items,
            } if target_view >= view => {
                if self.heard(migration_id, seen).is_some_and(|m| m.adopted) {
                    vec![A::Insert(migration_id, items)]
                } else {
                    self.strays.entry(migration_id).or_default().extend(items);
                    Vec::new()
                }
            }
            M::CompleteMigration {
                migration_id,
                total_items,
                ..
            } => {
                if let Some(m) = self.heard(migration_id, seen) {
                    m.expected_items = Some(total_items);
                }
                self.finalize(now)
            }
            M::Heartbeat { migration_id, .. } => {
                self.heard(migration_id, seen);
                vec![A::Reply(M::HeartbeatAck { migration_id, view })]
            }
            // The id is the gate: ids are never reused, so a replayed cancel
            // from a dead epoch matches no incoming migration.  Deliberately
            // no view comparison — this server's view can advance for an
            // unrelated migration, which must not mask a legitimate cancel.
            M::CancelMigration {
                migration_id,
                view: fence,
            } => {
                if self.heard(migration_id, None).is_some() {
                    let reason = "peer cancelled the migration".into();
                    self.cancel(migration_id, reason, 0, false)
                } else if fence > 0 {
                    // Cancelled before this server heard of it: the store
                    // has still moved this server's registration one past
                    // the view it was assigned.  Adopt that fence, or every
                    // batch stamped with the registered view is rejected as
                    // stale forever.
                    vec![A::AdoptView(fence + 1)]
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        }
    }

    /// Finalizes the incoming migration once the source has announced its
    /// total and every announced item is in the store.  The Completed ack
    /// goes back on the link that delivered the last message; acking any
    /// earlier would let the source resolve the dependency while batches
    /// are still in flight.
    fn finalize(&mut self, now: Instant) -> Vec<TargetAction> {
        let ready = |m: &mut Incoming| m.expected_items.is_some_and(|n| m.items_received >= n);
        let Some(m) = self.current.take_if(ready) else {
            return Vec::new();
        };
        let migration_id = m.migration_id;
        vec![
            TargetAction::Checkpoint,
            TargetAction::MarkComplete(migration_id),
            TargetAction::RecordReport(MigrationReport {
                migration_id,
                role: MigrationRole::Target,
                bytes_from_memory: 0,
                records_moved: m.items_received,
                indirection_records: 0,
                ssd_bytes_scanned: 0,
                duration_ms: now.saturating_duration_since(m.started).as_millis() as u64,
            }),
            ack(migration_id, MigrationAckPhase::Completed),
        ]
    }

    /// The target's timeout edge: a source silent for twice its own budget
    /// is dead.  Every heartbeat interval of that budget counts as missed.
    fn check_source(&mut self, now: Instant) -> Vec<TargetAction> {
        let Some(m) = self.current.as_mut() else {
            return Vec::new();
        };
        let Some(reason) = m.liveness.check_dead(now) else {
            return Vec::new();
        };
        let reason = format!("source {} declared dead: {reason}", m.source);
        let (migration_id, missed) = (m.migration_id, self.liveness.miss_budget);
        self.cancel(migration_id, reason, missed.into(), true)
    }

    /// The target's one cancel edge.  Only a cancel the target decided on
    /// itself is relayed: otherwise the source already knows.
    fn cancel(
        &mut self,
        migration_id: u64,
        reason: String,
        missed: u64,
        relay: bool,
    ) -> Vec<TargetAction> {
        use TargetAction as A;
        let Some(m) = self.current.take_if(|m| m.migration_id == migration_id) else {
            return Vec::new();
        };
        let mut actions = vec![
            // Either way the serving view ends one past the assigned one, so
            // both sides agree on the fence.
            A::CancelAtStore(migration_id, m.ranges),
            // Batches that pended for the ranges are orphaned now.  The flush
            // must follow the rollback: a dispatch thread consumes the signal
            // once per bump, and checking against the old map rejects nothing.
            A::BumpPendFlush,
            A::Checkpoint,
            A::NoteCancellation {
                migration_id,
                reason,
                rolled_back: m.items_received,
                missed,
            },
        ];
        if relay {
            // A stalled (not dead) source then cancels at once instead of
            // waiting out its own budget.
            actions.push(A::RelayCancel(m.source, migration_id));
        }
        actions
    }
}

fn ack(migration_id: u64, phase: MigrationAckPhase) -> TargetAction {
    TargetAction::Reply(MigrationMsg::Ack {
        migration_id,
        phase,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadowfax_net::LivenessConfig;

    use MigrationMsg as M;
    use SourceAction as A;
    use SourceEvent as E;
    use SourcePhase as P;
    use TargetAction as T;
    use TargetEvent as TE;

    const MS: Duration = Duration::from_millis(1);
    const ID: u64 = 7;
    const SOURCE: ServerId = ServerId(0);
    const TARGET: ServerId = ServerId(1);
    const TARGET_VIEW: u64 = 3;

    fn ranges() -> Vec<HashRange> {
        vec![HashRange::new(0, 1 << 62)]
    }

    /// Sampling 20 ms; heartbeats every 10 ms, dead after 5 silent ones.
    fn config(mode: MigrationMode) -> MigrationConfig {
        MigrationConfig {
            mode,
            sampling_duration: 20 * MS,
            liveness: LivenessConfig {
                heartbeat_interval: 10 * MS,
                miss_budget: 5,
            },
            ..MigrationConfig::default()
        }
    }

    fn source(mode: MigrationMode, t0: Instant) -> SourceMachine {
        SourceMachine::new(t0, &config(mode), ID, SOURCE, TARGET, ranges(), TARGET_VIEW)
    }

    fn completed() -> M {
        M::Ack {
            migration_id: ID,
            phase: MigrationAckPhase::Completed,
        }
    }

    /// A source driven to `phase` with a live target: every step lands
    /// within one heartbeat interval of `t0`, and the target is heard from
    /// at each.  Returns the machine and the time of its last step.
    fn source_at(phase: SourcePhase, mode: MigrationMode, t0: Instant) -> (SourceMachine, Instant) {
        let mut m = source(mode, t0);
        let script = [
            (20, E::Tick),
            (21, E::CutReached),
            (22, E::CutReached),
            (23, E::ViewFlipCrossed),
            (24, E::RegionsDrained(40)),
            (25, E::DiskScanDone(42)),
            (26, E::Tick),
        ];
        let mut now = t0;
        for (at, event) in script {
            if m.phase() == phase {
                break;
            }
            now = t0 + at * MS;
            m.step(
                now,
                E::Received(M::HeartbeatAck {
                    migration_id: ID,
                    view: 1,
                }),
            );
            m.step(now, event);
        }
        assert_eq!(m.phase(), phase, "the script did not reach {phase:?}");
        (m, now)
    }

    #[test]
    fn the_source_walks_every_phase_to_done() {
        let t0 = Instant::now();
        let mut m = source(MigrationMode::Shadowfax, t0);
        assert!(m.step(t0 + 5 * MS, E::Tick).is_empty(), "still sampling");
        assert_eq!(
            m.step(t0 + 20 * MS, E::Tick),
            vec![A::Heartbeat, A::ScheduleCut]
        );
        assert!(m.step(t0 + 21 * MS, E::Tick).is_empty(), "one cut only");
        assert_eq!(
            m.step(t0 + 22 * MS, E::CutReached),
            vec![
                A::Send(M::PrepForTransfer {
                    migration_id: ID,
                    ranges: ranges(),
                    source: SOURCE,
                    target_view: TARGET_VIEW,
                }),
                A::ScheduleViewFlip,
            ]
        );
        assert_eq!(m.phase(), P::Prepare);
        assert!(
            m.step(t0 + 23 * MS, E::ViewFlipCrossed).is_empty(),
            "no flip yet"
        );
        assert!(m.step(t0 + 24 * MS, E::CutReached).is_empty());
        assert_eq!(m.phase(), P::Transfer);
        assert_eq!(
            m.step(t0 + 25 * MS, E::ViewFlipCrossed),
            vec![
                A::Send(M::TakeOwnership {
                    migration_id: ID,
                    ranges: ranges(),
                    target_view: TARGET_VIEW,
                }),
                A::ShipHotSet,
            ]
        );
        assert_eq!(m.phase(), P::Migrate);
        assert!(m.step(t0 + 26 * MS, E::RegionsDrained(40)).is_empty());
        assert_eq!(m.phase(), P::Complete);
        assert_eq!(
            m.step(t0 + 27 * MS, E::Tick),
            vec![
                A::Send(M::CompleteMigration {
                    migration_id: ID,
                    target_view: TARGET_VIEW,
                    total_items: 40,
                }),
                A::Checkpoint,
                A::MarkComplete(SOURCE),
                A::RecordReport(27 * MS),
            ]
        );
        assert_eq!(m.phase(), P::AwaitingFinalAck);
        assert_eq!(
            m.step(t0 + 28 * MS, E::Received(completed())),
            vec![A::MarkComplete(TARGET)]
        );
        assert_eq!(m.phase(), P::Done);
        assert!(m.step(t0 + 29 * MS, E::Cancel("late".into())).is_empty());
        assert!(m.step(t0 + 29 * MS, E::Tick).is_empty());
    }

    #[test]
    fn rocksteady_passes_through_disk_scan() {
        let t0 = Instant::now();
        let (mut m, now) = source_at(P::Migrate, MigrationMode::Rocksteady, t0);
        assert!(m.step(now, E::RegionsDrained(40)).is_empty());
        assert_eq!(m.phase(), P::DiskScan);
        assert!(m.step(now, E::Tick).is_empty(), "the scan is not done");
        assert!(m.step(now, E::DiskScanDone(42)).is_empty());
        assert_eq!(m.phase(), P::Complete);
        let actions = m.step(now, E::Tick);
        assert_eq!(
            actions[0],
            A::Send(M::CompleteMigration {
                migration_id: ID,
                target_view: TARGET_VIEW,
                total_items: 42,
            }),
            "the total announced includes what the scan shipped"
        );
    }

    /// The source's one cancel edge, taken from every live phase.
    #[test]
    fn the_source_cancels_from_every_phase() {
        let cases = [
            (P::Sampling, MigrationMode::Shadowfax),
            (P::Prepare, MigrationMode::Shadowfax),
            (P::Transfer, MigrationMode::Shadowfax),
            (P::Migrate, MigrationMode::Shadowfax),
            (P::DiskScan, MigrationMode::Rocksteady),
            (P::Complete, MigrationMode::Shadowfax),
            (P::AwaitingFinalAck, MigrationMode::Shadowfax),
        ];
        for (phase, mode) in cases {
            let (mut m, now) = source_at(phase, mode, Instant::now());
            let mut expected = Vec::new();
            if phase <= P::Transfer {
                expected.push(A::EndSampling);
            }
            expected.push(A::CancelAtStore);
            assert_eq!(
                m.step(now, E::Cancel("operator".into())),
                expected,
                "{phase:?}"
            );
            assert_eq!(m.phase(), P::Cancelled, "{phase:?}");
            // The edge is taken once.
            assert!(
                m.step(now, E::Cancel("again".into())).is_empty(),
                "{phase:?}"
            );
            assert!(
                m.step(now, E::Received(completed())).is_empty(),
                "{phase:?}"
            );
            assert_eq!(
                m.step(now, E::StoreCancelled(true)),
                vec![
                    A::Send(M::CancelMigration {
                        migration_id: ID,
                        view: TARGET_VIEW,
                    }),
                    A::Checkpoint,
                    A::RefreshOwnership,
                    A::NoteCancellation("operator".into(), 0),
                ],
                "{phase:?}"
            );
            assert!(
                m.step(now, E::StoreCancelled(true)).is_empty(),
                "a replayed answer rolls nothing back twice ({phase:?})"
            );
        }
    }

    /// Lost at the store before the source completed: the dependency was
    /// already cancelled elsewhere, so the source still rolls back and
    /// offers the fence, which matches the store's registration.
    #[test]
    fn a_cancel_that_lost_at_the_store_still_rolls_back() {
        let (mut m, now) = source_at(P::Migrate, MigrationMode::Shadowfax, Instant::now());
        m.step(now, E::Cancel("operator".into()));
        let actions = m.step(now, E::StoreCancelled(false));
        assert_eq!(
            actions[0],
            A::Send(M::CancelMigration {
                migration_id: ID,
                view: TARGET_VIEW,
            })
        );
        assert_eq!(actions.len(), 4);
    }

    /// Lost at the store after the source completed: the dependency
    /// resolved first, so nothing is rolled back.
    #[test]
    fn a_cancel_that_lost_to_completion_rolls_nothing_back() {
        let (mut m, now) = source_at(
            P::AwaitingFinalAck,
            MigrationMode::Shadowfax,
            Instant::now(),
        );
        assert_eq!(
            m.step(now, E::Cancel("late".into())),
            vec![A::CancelAtStore]
        );
        assert!(m.step(now, E::StoreCancelled(false)).is_empty());
    }

    #[test]
    fn the_final_ack_completes_whichever_link_carried_it() {
        // The driver forwards records-link messages as `Received` too.
        let (mut m, now) = source_at(P::Migrate, MigrationMode::Shadowfax, Instant::now());
        assert!(
            m.step(now, E::Received(completed())).is_empty(),
            "not awaited yet"
        );
        let (mut m, now) = source_at(
            P::AwaitingFinalAck,
            MigrationMode::Shadowfax,
            Instant::now(),
        );
        let other = M::Ack {
            migration_id: ID + 1,
            phase: MigrationAckPhase::Completed,
        };
        assert!(
            m.step(now, E::Received(other)).is_empty(),
            "another migration's ack"
        );
        assert_eq!(
            m.step(now, E::Received(completed())),
            vec![A::MarkComplete(TARGET)]
        );
    }

    #[test]
    fn a_silent_target_is_cancelled_after_the_budget() {
        let t0 = Instant::now();
        let (mut m, mut now) = source_at(P::Migrate, MigrationMode::Shadowfax, t0);
        let heard = now;
        let actions = loop {
            now += MS;
            let actions = m.step(now, E::Tick);
            if actions.contains(&A::CancelAtStore) {
                break actions;
            }
        };
        assert_eq!(now - heard, 51 * MS, "cancelled past 5 x 10 ms of silence");
        assert_eq!(actions, vec![A::CancelAtStore]);
        let rollback = m.step(now, E::StoreCancelled(true));
        match &rollback[3] {
            A::NoteCancellation(reason, missed) => {
                assert!(reason.contains("declared dead"), "{reason}");
                assert_eq!(*missed, 4, "heartbeats sent at 10..=40 ms went unanswered");
            }
            other => panic!("expected the note, got {other:?}"),
        }
    }

    #[test]
    fn a_link_error_or_a_cancel_request_cancels_at_once() {
        let (mut m, now) = source_at(P::Transfer, MigrationMode::Shadowfax, Instant::now());
        m.step(now, E::LinkError("connection reset".into()));
        assert_eq!(m.phase(), P::Cancelled);
        let note = m.step(now, E::StoreCancelled(true)).pop();
        assert!(
            matches!(&note, Some(A::NoteCancellation(reason, _)) if reason.contains("connection reset")),
            "{note:?}"
        );

        let (mut m, now) = source_at(
            P::AwaitingFinalAck,
            MigrationMode::Shadowfax,
            Instant::now(),
        );
        let request = M::CancelMigration {
            migration_id: ID,
            view: 0,
        };
        assert_eq!(m.step(now, E::Received(request)), vec![A::CancelAtStore]);
    }

    /// A source that was not scheduled for 10 s probes before it blames
    /// the target.
    #[test]
    fn a_stalled_source_heartbeats_instead_of_cancelling() {
        let (mut m, now) = source_at(P::Migrate, MigrationMode::Shadowfax, Instant::now());
        let resumed = now + Duration::from_secs(10);
        assert_eq!(m.step(resumed, E::Tick), vec![A::Heartbeat]);
        assert_eq!(m.phase(), P::Migrate);
    }

    // ------------------------------------------------------------------
    // Target
    // ------------------------------------------------------------------

    /// Dead after twice the source's 5 x 10 ms.
    fn target() -> TargetMachine {
        TargetMachine::new(config(MigrationMode::Shadowfax).liveness)
    }

    fn received(msg: M, view: u64) -> TargetEvent {
        TE::Received(msg, view)
    }

    fn prep(target_view: u64) -> M {
        M::PrepForTransfer {
            migration_id: ID,
            ranges: ranges(),
            source: SOURCE,
            target_view,
        }
    }

    fn batch(target_view: u64, n: u64) -> M {
        M::PushRecordBatch {
            migration_id: ID,
            target_view,
            items: (0..n)
                .map(|key| MigratedItem::Record {
                    key,
                    value: vec![1],
                })
                .collect(),
        }
    }

    fn inserted(migration_id: u64, actions: Vec<TargetAction>) -> TargetEvent {
        match actions.as_slice() {
            [T::Insert(_, items)] => TE::Inserted(migration_id, items.len() as u64),
            other => panic!("expected one insert, got {other:?}"),
        }
    }

    fn prepared(t0: Instant) -> TargetMachine {
        let mut t = target();
        assert_eq!(
            t.step(t0, received(prep(TARGET_VIEW), 1)),
            vec![
                T::AdoptRanges(ID, ranges(), TARGET_VIEW),
                ack(ID, MigrationAckPhase::Prepared),
            ]
        );
        assert!(t.step(t0, TE::Adopted(ID)).is_empty());
        t
    }

    #[test]
    fn the_target_prepares_receives_and_finalizes() {
        let t0 = Instant::now();
        let mut t = prepared(t0);
        assert_eq!(t.pend_mode(1), Some(PendMode::PendAll));
        assert_eq!(t.pend_mode(u64::MAX), None, "outside the ranges");
        let take = M::TakeOwnership {
            migration_id: ID,
            ranges: ranges(),
            target_view: TARGET_VIEW,
        };
        assert_eq!(
            t.step(t0, received(take, TARGET_VIEW)),
            vec![
                T::AdoptView(TARGET_VIEW),
                ack(ID, MigrationAckPhase::OwnershipReceived),
            ]
        );
        assert_eq!(t.pend_mode(1), Some(PendMode::PendMissing));
        let hot = M::PushHotRecords {
            migration_id: ID,
            target_view: TARGET_VIEW,
            records: vec![(5, vec![5])],
        };
        assert_eq!(
            t.step(t0, received(hot, TARGET_VIEW)),
            vec![T::InsertHot(vec![(5, vec![5])])]
        );
        let first = t.step(t0, received(batch(TARGET_VIEW, 2), TARGET_VIEW));
        assert!(t.step(t0, inserted(ID, first)).is_empty());
        let complete = M::CompleteMigration {
            migration_id: ID,
            target_view: TARGET_VIEW,
            total_items: 3,
        };
        assert!(
            t.step(t0, received(complete, TARGET_VIEW)).is_empty(),
            "one announced item is still in flight"
        );
        let last = t.step(t0, received(batch(TARGET_VIEW, 1), TARGET_VIEW));
        let finalized = t.step(t0 + 4 * MS, inserted(ID, last));
        assert_eq!(
            finalized,
            vec![
                T::Checkpoint,
                T::MarkComplete(ID),
                T::RecordReport(MigrationReport {
                    migration_id: ID,
                    role: MigrationRole::Target,
                    bytes_from_memory: 0,
                    records_moved: 3,
                    indirection_records: 0,
                    ssd_bytes_scanned: 0,
                    duration_ms: 4,
                }),
                T::Reply(completed()),
            ]
        );
        assert!(!t.is_active());
        assert_eq!(t.pend_mode(1), None);
    }

    /// Items go in only after `AdoptRanges` has raised the floors: those
    /// that beat the prepare and those stepped between the prepare and the
    /// end of its `AdoptRanges`, which another thread may still be running.
    #[test]
    fn batches_wait_for_the_ranges_to_be_adopted() {
        let t0 = Instant::now();
        let mut t = target();
        assert!(t.step(t0, received(batch(TARGET_VIEW, 4), 1)).is_empty());
        assert!(!t.is_active());
        assert_eq!(
            t.step(t0, received(prep(TARGET_VIEW), 1)),
            vec![
                T::AdoptRanges(ID, ranges(), TARGET_VIEW),
                ack(ID, MigrationAckPhase::Prepared),
            ]
        );
        assert!(
            t.step(t0, received(batch(TARGET_VIEW, 2), TARGET_VIEW))
                .is_empty(),
            "a batch stepped before the adoption ran is held"
        );
        let hot = M::PushHotRecords {
            migration_id: ID,
            target_view: TARGET_VIEW,
            records: vec![(5, vec![5])],
        };
        assert!(
            t.step(t0, received(hot, TARGET_VIEW)).is_empty(),
            "a hot set before the adoption is dropped; the Migrate phase ships it again"
        );
        let held = t.step(t0, TE::Adopted(ID));
        assert!(
            matches!(held.as_slice(), [T::Insert(ID, items)] if items.len() == 6),
            "both held batches go in once the ranges are adopted: {held:?}"
        );
        assert!(t.step(t0, inserted(ID, held)).is_empty());
        let later = t.step(t0, received(batch(TARGET_VIEW, 1), TARGET_VIEW));
        assert!(t.step(t0, inserted(ID, later)).is_empty());
        let complete = M::CompleteMigration {
            migration_id: ID,
            target_view: TARGET_VIEW,
            total_items: 7,
        };
        let finalized = t.step(t0, received(complete, TARGET_VIEW));
        assert_eq!(finalized.last(), Some(&T::Reply(completed())));
    }

    #[test]
    fn a_stale_view_prepare_or_batch_is_ignored() {
        let t0 = Instant::now();
        let mut t = target();
        assert!(t
            .step(t0, received(prep(TARGET_VIEW), TARGET_VIEW + 1))
            .is_empty());
        assert!(!t.is_active());
        assert!(t
            .step(t0, received(batch(TARGET_VIEW, 1), TARGET_VIEW + 1))
            .is_empty());
        // A hot set for a migration not being received is dropped too.
        let hot = M::PushHotRecords {
            migration_id: ID,
            target_view: TARGET_VIEW,
            records: vec![(5, vec![5])],
        };
        assert!(t.step(t0, received(hot, TARGET_VIEW)).is_empty());
    }

    /// The target's timeout edge: twice the source's budget of silence,
    /// and not one tick less.
    #[test]
    fn the_target_cancels_at_twice_the_silence_budget() {
        let t0 = Instant::now();
        let mut t = prepared(t0);
        let mut now = t0;
        while now < t0 + 100 * MS {
            now += MS;
            assert!(
                t.step(now, TE::Tick).is_empty(),
                "cancelled at {:?}",
                now - t0
            );
        }
        let rollback = t.step(now + MS, TE::Tick);
        assert!(!t.is_active());
        assert_eq!(
            rollback[..3],
            [
                T::CancelAtStore(ID, RangeSet::from_ranges(ranges())),
                T::BumpPendFlush,
                T::Checkpoint,
            ]
        );
        assert!(
            matches!(
                &rollback[3],
                T::NoteCancellation {
                    missed: 10,
                    rolled_back: 0,
                    ..
                }
            ),
            "{:?}",
            rollback[3]
        );
        assert_eq!(
            rollback[4],
            T::RelayCancel(SOURCE, ID),
            "a cancel the target decided on is relayed"
        );
    }

    #[test]
    fn a_source_message_restarts_the_target_deadline() {
        let t0 = Instant::now();
        let mut t = prepared(t0);
        let mut now = t0;
        while now < t0 + 300 * MS {
            now += MS;
            if (now - t0).as_millis().is_multiple_of(50) {
                let beat = M::Heartbeat {
                    migration_id: ID,
                    view: 1,
                };
                assert_eq!(
                    t.step(now, received(beat, TARGET_VIEW)),
                    vec![T::Reply(M::HeartbeatAck {
                        migration_id: ID,
                        view: TARGET_VIEW,
                    })]
                );
            }
            assert!(t.step(now, TE::Tick).is_empty());
        }
    }

    #[test]
    fn a_peer_cancel_rolls_back_once_and_its_replay_is_harmless() {
        let t0 = Instant::now();
        let mut t = prepared(t0);
        let cancel = || {
            received(
                M::CancelMigration {
                    migration_id: ID,
                    view: TARGET_VIEW,
                },
                TARGET_VIEW,
            )
        };
        let rollback = t.step(t0, cancel());
        assert_eq!(
            rollback[0],
            T::CancelAtStore(ID, RangeSet::from_ranges(ranges()))
        );
        assert_eq!(rollback.len(), 4, "the source already knows: no relay");
        // The replay finds no incoming migration: it only re-offers the
        // fence the rollback already reached (the driver applies it with
        // `fetch_max`).
        assert_eq!(t.step(t0, cancel()), vec![T::AdoptView(TARGET_VIEW + 1)]);
    }

    #[test]
    fn a_cancel_for_a_never_prepared_migration_fences_the_view() {
        let t0 = Instant::now();
        let mut t = target();
        let cancel = |view| {
            received(
                M::CancelMigration {
                    migration_id: ID,
                    view,
                },
                1,
            )
        };
        assert_eq!(
            t.step(t0, cancel(TARGET_VIEW)),
            vec![T::AdoptView(TARGET_VIEW + 1)]
        );
        assert!(t.step(t0, cancel(0)).is_empty(), "a relay with no fence");
    }

    #[test]
    fn an_operator_cancel_matches_by_id() {
        let t0 = Instant::now();
        let mut t = prepared(t0);
        let cancel = |migration_id| TE::Cancel(migration_id, "operator request".into());
        assert!(t.step(t0, cancel(ID + 1)).is_empty());
        assert!(t.is_active());
        assert_eq!(t.step(t0, cancel(ID)).len(), 4);
        assert!(!t.is_active());
    }
}
