//! Peer liveness for long-lived control links (heartbeats with a miss
//! budget).
//!
//! A migration couples two servers for seconds: the source must notice a
//! target that died mid-transfer (and vice versa) or the migration wedges
//! forever with its recovery dependency pending at the metadata store
//! (paper §3.3.1).  Two signals decide that a peer is dead:
//!
//! * **explicit transport death** — a TCP link reports `PeerClosed`/EOF or
//!   an I/O error, or a sim connection's peer endpoint was dropped.  The
//!   observer acts on it at once, without waiting for silence.
//! * **heartbeat silence** — the link looks open but nothing has arrived
//!   for [`LivenessConfig::miss_budget`] heartbeat intervals (a hung peer,
//!   a half-open connection).  The prober sends a heartbeat every
//!   [`LivenessConfig::heartbeat_interval`] and counts the silence.
//!
//! [`PeerLiveness`] is sans-I/O, told the observer's `now`; the layers above
//! decide *what* to send as a heartbeat and what to do about a dead peer.
//! Of a gap between two looks by the observer, at most one heartbeat
//! interval is the peer's silence: a stalled observer sent none to answer.

use std::time::{Duration, Instant};

/// Tuning for a [`PeerLiveness`] monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessConfig {
    /// How often the prober sends a heartbeat on the monitored link.
    pub heartbeat_interval: Duration,
    /// How many consecutive silent intervals are tolerated before the peer
    /// is declared dead.
    pub miss_budget: u32,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        // Generous enough that a CI scheduler hiccup on a healthy peer never
        // trips it (explicit transport death catches real crashes much
        // faster); small enough that a hung peer is caught in seconds.
        LivenessConfig {
            heartbeat_interval: Duration::from_millis(200),
            miss_budget: 15,
        }
    }
}

impl LivenessConfig {
    /// The silence after which the peer is declared dead.
    pub fn deadline(&self) -> Duration {
        self.heartbeat_interval * self.miss_budget.max(1)
    }
}

/// Liveness bookkeeping for one peer on one link.
///
/// Not internally synchronized: callers hold it under whatever lock guards
/// the link itself.
#[derive(Debug)]
pub struct PeerLiveness {
    config: LivenessConfig,
    last_recv: Instant,
    last_send: Instant,
    last_seen: Instant,
    missed: u64,
    dead: Option<String>,
}

impl PeerLiveness {
    /// Starts monitoring at `now`: the peer is considered fresh.
    pub fn new(config: LivenessConfig, now: Instant) -> Self {
        PeerLiveness {
            config,
            last_recv: now,
            last_send: now,
            last_seen: now,
            missed: 0,
            dead: None,
        }
    }

    fn observe(&mut self, now: Instant) {
        let gap = now.saturating_duration_since(self.last_seen);
        self.last_recv += gap.saturating_sub(self.config.heartbeat_interval);
        self.last_seen = self.last_seen.max(now);
    }

    /// Records that *any* message arrived from the peer (heartbeat replies
    /// and ordinary protocol traffic both count as proof of life).
    pub fn record_recv(&mut self, now: Instant) {
        self.observe(now);
        self.last_recv = self.last_recv.max(now);
    }

    /// `true` when it is time to send the next heartbeat; also advances the
    /// send clock and, if the peer has been silent for more than one
    /// interval, counts a miss.
    pub fn heartbeat_due(&mut self, now: Instant) -> bool {
        self.observe(now);
        if now.saturating_duration_since(self.last_send) < self.config.heartbeat_interval {
            return false;
        }
        if now.saturating_duration_since(self.last_recv) > self.config.heartbeat_interval {
            self.missed += 1;
        }
        self.last_send = now;
        true
    }

    /// Returns the death reason once the peer has been silent past the miss
    /// budget; death is sticky.
    pub fn check_dead(&mut self, now: Instant) -> Option<String> {
        self.observe(now);
        if let Some(reason) = &self.dead {
            return Some(reason.clone());
        }
        let silent = now.saturating_duration_since(self.last_recv);
        if silent > self.config.deadline() {
            let reason = format!(
                "peer silent for {silent:?} (budget: {} x {:?})",
                self.config.miss_budget, self.config.heartbeat_interval
            );
            self.dead = Some(reason.clone());
            return Some(reason);
        }
        None
    }

    /// Heartbeat intervals that elapsed without hearing from the peer.
    pub fn heartbeats_missed(&self) -> u64 {
        self.missed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    fn fast() -> LivenessConfig {
        LivenessConfig {
            heartbeat_interval: 50 * MS,
            miss_budget: 10,
        }
    }

    #[test]
    fn fresh_peer_is_alive_and_heartbeats_pace_the_interval() {
        let t0 = Instant::now();
        let mut live = PeerLiveness::new(fast(), t0);
        assert!(live.check_dead(t0).is_none());
        // Immediately after creation the send clock is fresh.
        assert!(!live.heartbeat_due(t0 + 10 * MS));
        assert!(live.heartbeat_due(t0 + 50 * MS));
        // The clock advanced; the next one is not due yet.
        assert!(!live.heartbeat_due(t0 + 60 * MS));
        assert!(live.heartbeat_due(t0 + 100 * MS));
    }

    #[test]
    fn silence_past_the_budget_is_death_and_receipt_resets_it() {
        // Deadline: 3 x 40ms = 120ms, observed every 10ms.
        let config = LivenessConfig {
            heartbeat_interval: 40 * MS,
            miss_budget: 3,
        };
        let t0 = Instant::now();
        let mut live = PeerLiveness::new(config, t0);
        let mut t = t0;
        while t < t0 + 120 * MS {
            assert!(live.check_dead(t).is_none(), "dead at {:?}", t - t0);
            t += 10 * MS;
        }
        // A receipt restarts the deadline.
        live.record_recv(t);
        let heard = t;
        while t <= heard + 120 * MS {
            assert!(live.check_dead(t).is_none(), "dead at {:?}", t - heard);
            t += 10 * MS;
        }
        let reason = live.check_dead(t).expect("deadline exceeded");
        assert!(reason.contains("silent"), "{reason}");
        // Death is sticky even if a late message shows up.
        live.record_recv(t + MS);
        assert!(live.check_dead(t + MS).is_some());
    }

    #[test]
    fn misses_are_counted_while_the_peer_is_silent() {
        let t0 = Instant::now();
        let mut live = PeerLiveness::new(fast(), t0);
        let mut t = t0;
        while t < t0 + 160 * MS {
            t += 10 * MS;
            let _ = live.heartbeat_due(t);
        }
        // Heartbeats went out at 50, 100 and 150 ms; the peer had been
        // silent for more than an interval at the last two.
        assert_eq!(live.heartbeats_missed(), 2);
        // A fresh receipt at probe time stops the counting.
        live.record_recv(t0 + 200 * MS);
        assert!(live.heartbeat_due(t0 + 200 * MS));
        assert_eq!(live.heartbeats_missed(), 2);
    }

    #[test]
    fn default_config_deadline_is_the_product() {
        let c = LivenessConfig::default();
        assert_eq!(c.deadline(), c.heartbeat_interval * c.miss_budget);
    }

    /// The false positive a starved observer used to raise: it was not
    /// scheduled for 10 s, then found the peer "silent for 10 s (budget:
    /// 15 x 200ms)" without having sent a heartbeat in that time.  Now it
    /// sends one and waits the budget out in its own running time.
    #[test]
    fn a_stalled_observer_heartbeats_and_waits_the_budget_before_declaring_death() {
        let config = LivenessConfig::default();
        let t0 = Instant::now();
        let mut live = PeerLiveness::new(config, t0);
        let resumed = t0 + Duration::from_secs(10);
        assert!(
            live.check_dead(resumed).is_none(),
            "the stall is not silence"
        );
        assert!(
            live.heartbeat_due(resumed),
            "a stalled observer probes first"
        );
        assert_eq!(live.heartbeats_missed(), 0, "the stall is not a miss");
        // The observer runs again, every 10 ms; the peer stays silent.
        let mut t = resumed;
        let reason = loop {
            t += 10 * MS;
            let _ = live.heartbeat_due(t);
            if let Some(reason) = live.check_dead(t) {
                break reason;
            }
        };
        // The gap counted as one interval; the rest of the budget had to
        // pass in running time.
        let waited = t - resumed;
        assert!(
            waited > config.deadline() - config.heartbeat_interval && waited <= config.deadline(),
            "declared dead {waited:?} after resuming: {reason}"
        );
    }

    /// The stall rule charges at most one interval per gap; it does not
    /// blind an observer that looks less often than once an interval.
    #[test]
    fn a_slow_observer_still_declares_a_silent_peer_dead() {
        let config = fast();
        let t0 = Instant::now();
        let mut live = PeerLiveness::new(config, t0);
        let mut looks = 0;
        let mut t = t0;
        while live.check_dead(t).is_none() {
            t += 3 * config.heartbeat_interval;
            looks += 1;
            assert!(looks <= config.miss_budget + 1, "never declared dead");
        }
    }
}
