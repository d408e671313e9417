//! Output-interface queue disciplines: drop-tail FIFO and RED.
//!
//! Protocol χ validates exactly this object (dissertation Figure 6.1): the
//! queue `Q` of an output interface, with a byte limit `q_limit`, fed by the
//! neighbours and drained at link speed. Chapter 6 evaluates both a
//! deterministic drop-tail queue (§6.4) and the probabilistic Random Early
//! Detection discipline (§6.5).
//!
//! [`OutputQueueState`] is the only code that knows a discipline's
//! arithmetic — the limit check, RED's EWMA with its idle-time decay, and
//! the Floyd–Jacobson drop rule. Two callers step it: the engine's queues,
//! and χ's validator (`fatih_core::chi`), which replays the same core from
//! what the monitors observed. [`offer`](OutputQueueState::offer) takes
//! the decision up to the early-drop draw and says which branch it took;
//! whoever decides the packet's fate reports a drop with
//! [`commit_drop`](OutputQueueState::commit_drop), which restarts RED's
//! `count`. The engine reports the drops it draws, χ the drops it observes
//! as a missing exit.

use crate::time::SimTime;

/// RED parameters (Floyd–Jacobson), in bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// No drops while the average queue is below this.
    pub min_threshold: f64,
    /// Forced drop above this average.
    pub max_threshold: f64,
    /// Drop probability as the average reaches `max_threshold`.
    pub max_p: f64,
    /// EWMA weight for the average queue size.
    pub weight: f64,
    /// Mean packet size, used for the idle-time decay.
    pub mean_packet_size: f64,
}

impl Default for RedParams {
    /// Matches the §6.5.3 experiments: thresholds placed so the attack
    /// triggers at 45,000 / 54,000 bytes fall between them.
    fn default() -> Self {
        Self {
            min_threshold: 30_000.0,
            max_threshold: 60_000.0,
            max_p: 0.1,
            weight: 0.002,
            mean_packet_size: 1_000.0,
        }
    }
}

/// Queue discipline configuration for one output interface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueueDiscipline {
    /// Plain FIFO: drop arrivals that would overflow the byte limit.
    DropTail,
    /// Random Early Detection over the byte-limit FIFO.
    Red(RedParams),
}

/// The branch a discipline took for an arriving packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Offer {
    /// Enqueue it: it fits, and RED's average, if any, is below
    /// `min_threshold`.
    Accept,
    /// Drop it: it would overflow the byte limit, or RED's average is at
    /// or above `max_threshold`.
    Forced,
    /// RED's middle band: drop it with this probability.
    Early(f64),
}

/// The byte-accounting state of one output queue.
///
/// The caller owns the actual packet FIFO; this object takes the
/// accept/drop decision and tracks occupancy and RED state.
///
/// # Examples
///
/// ```
/// use fatih_sim::queue::{Offer, OutputQueueState, QueueDiscipline};
/// use fatih_sim::SimTime;
///
/// let mut q = OutputQueueState::new(QueueDiscipline::DropTail, 3_000, 1_000_000_000);
/// for _ in 0..3 {
///     assert_eq!(q.offer(1_000, SimTime::ZERO), Offer::Accept);
///     q.commit_enqueue(1_000);
/// }
/// // Fourth kilobyte packet overflows the 3 kB limit:
/// assert_eq!(q.offer(1_000, SimTime::ZERO), Offer::Forced);
/// q.commit_drop();
/// ```
#[derive(Debug, Clone)]
pub struct OutputQueueState {
    discipline: QueueDiscipline,
    limit_bytes: u32,
    len_bytes: u32,
    bandwidth_bps: u64,
    // RED state.
    avg: f64,
    avg_seeded: bool,
    count_since_drop: i64,
    idle_since: Option<SimTime>,
}

impl OutputQueueState {
    /// Creates queue state for an interface with the given byte limit and
    /// drain bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if the limit or bandwidth is zero.
    pub fn new(discipline: QueueDiscipline, limit_bytes: u32, bandwidth_bps: u64) -> Self {
        assert!(limit_bytes > 0, "queue limit must be positive");
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        Self {
            discipline,
            limit_bytes,
            len_bytes: 0,
            bandwidth_bps,
            avg: 0.0,
            avg_seeded: false,
            count_since_drop: -1,
            idle_since: Some(SimTime::ZERO),
        }
    }

    /// Current occupancy in bytes.
    pub fn len_bytes(&self) -> u32 {
        self.len_bytes
    }

    /// Configured byte limit.
    pub fn limit_bytes(&self) -> u32 {
        self.limit_bytes
    }

    /// Occupancy as a fraction of the limit.
    pub fn fill_fraction(&self) -> f64 {
        self.len_bytes as f64 / self.limit_bytes as f64
    }

    /// RED's current average queue size, if the discipline is RED.
    pub fn red_avg(&self) -> Option<f64> {
        match self.discipline {
            QueueDiscipline::Red(_) => Some(self.avg),
            QueueDiscipline::DropTail => None,
        }
    }

    /// The configured discipline.
    pub fn discipline(&self) -> QueueDiscipline {
        self.discipline
    }

    /// Decides the fate of an arriving packet of `size` bytes as far as
    /// the discipline can without a coin: accept, forced drop, or early
    /// drop with a probability the caller draws against (or, replaying,
    /// observes). Does **not** change occupancy; call
    /// [`commit_enqueue`](Self::commit_enqueue) after enqueueing, or
    /// [`commit_drop`](Self::commit_drop) after dropping.
    ///
    /// RED semantics follow Floyd–Jacobson: EWMA update on every arrival
    /// (with idle-time decay), geometric inter-drop spreading via the
    /// `count` variable, forced drop above `max_threshold`, and overflow
    /// drop when the instantaneous queue is full.
    pub fn offer(&mut self, size: u32, now: SimTime) -> Offer {
        let overflow = u64::from(self.len_bytes) + u64::from(size) > u64::from(self.limit_bytes);
        let QueueDiscipline::Red(p) = self.discipline else {
            return if overflow {
                Offer::Forced
            } else {
                Offer::Accept
            };
        };
        self.update_avg(&p, now);
        if overflow {
            self.count_since_drop = 0;
            return Offer::Forced;
        }
        if self.avg < p.min_threshold {
            self.count_since_drop = -1;
            return Offer::Accept;
        }
        if self.avg >= p.max_threshold {
            self.count_since_drop = 0;
            return Offer::Forced;
        }
        self.count_since_drop += 1;
        let pb = p.max_p * (self.avg - p.min_threshold) / (p.max_threshold - p.min_threshold);
        let denom = 1.0 - self.count_since_drop as f64 * pb;
        Offer::Early(if denom <= 0.0 {
            1.0
        } else {
            (pb / denom).min(1.0)
        })
    }

    fn update_avg(&mut self, p: &RedParams, now: SimTime) {
        if let Some(idle_start) = self.idle_since.take() {
            if self.avg_seeded {
                // Age the average as if m small packets had drained during
                // the idle period.
                let idle_ns = now.since(idle_start).as_ns();
                let drain_ns_per_pkt = p.mean_packet_size * 8.0 * 1e9 / self.bandwidth_bps as f64;
                let m = (idle_ns as f64 / drain_ns_per_pkt).floor().min(1e6) as i32;
                self.avg *= (1.0 - p.weight).powi(m);
            }
        }
        if self.avg_seeded {
            self.avg += p.weight * (self.len_bytes as f64 - self.avg);
        } else {
            self.avg = self.len_bytes as f64;
            self.avg_seeded = true;
        }
    }

    /// Records that the packet just offered was dropped: RED's `count`
    /// restarts at zero.
    pub fn commit_drop(&mut self) {
        self.count_since_drop = 0;
    }

    /// Records that a packet of `size` bytes was enqueued.
    ///
    /// # Panics
    ///
    /// Panics if this would exceed the configured limit (the engine must
    /// only commit accepted offers).
    pub fn commit_enqueue(&mut self, size: u32) {
        assert!(
            self.len_bytes + size <= self.limit_bytes,
            "enqueue past limit: {} + {size} > {}",
            self.len_bytes,
            self.limit_bytes
        );
        self.replay_enqueue(size);
    }

    /// Records that a packet of `size` bytes finished transmission and left
    /// the queue; `now` marks the start of a possible idle period.
    ///
    /// # Panics
    ///
    /// Panics on underflow (dequeue without matching enqueue).
    pub fn commit_dequeue(&mut self, size: u32, now: SimTime) {
        assert!(self.len_bytes >= size, "queue byte underflow");
        self.replay_dequeue(size, now);
    }

    /// [`commit_enqueue`](Self::commit_enqueue) for a replay, which takes
    /// what the monitors saw leave the queue: no limit check.
    pub fn replay_enqueue(&mut self, size: u32) {
        self.len_bytes = self.len_bytes.saturating_add(size);
    }

    /// [`commit_dequeue`](Self::commit_dequeue) for a replay: occupancy
    /// saturates at zero, since skewed monitor clocks can order an exit
    /// before its entry and a fingerprint shared by a retransmission can
    /// drain twice.
    pub fn replay_dequeue(&mut self, size: u32, now: SimTime) {
        self.len_bytes = self.len_bytes.saturating_sub(size);
        if self.len_bytes == 0 {
            self.idle_since = Some(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// An offer as the engine makes it: the early-drop draw, then
    /// `commit_drop` for every drop.
    #[derive(Debug, PartialEq)]
    enum Verdict {
        Accept,
        CongestionDrop {
            red_avg: Option<f64>,
            drop_probability: f64,
        },
    }

    fn offer(q: &mut OutputQueueState, size: u32, now: SimTime, rng: &mut StdRng) -> Verdict {
        let drop_probability = match q.offer(size, now) {
            Offer::Accept => return Verdict::Accept,
            Offer::Forced => 1.0,
            Offer::Early(p) if rng.gen_bool(p) => p,
            Offer::Early(_) => return Verdict::Accept,
        };
        q.commit_drop();
        Verdict::CongestionDrop {
            red_avg: q.red_avg(),
            drop_probability,
        }
    }

    #[test]
    fn drop_tail_accepts_until_full() {
        let mut q = OutputQueueState::new(QueueDiscipline::DropTail, 2500, 1_000_000);
        let mut r = rng();
        assert_eq!(offer(&mut q, 1000, SimTime::ZERO, &mut r), Verdict::Accept);
        q.commit_enqueue(1000);
        assert_eq!(offer(&mut q, 1000, SimTime::ZERO, &mut r), Verdict::Accept);
        q.commit_enqueue(1000);
        assert!(matches!(
            offer(&mut q, 1000, SimTime::ZERO, &mut r),
            Verdict::CongestionDrop {
                drop_probability, ..
            } if drop_probability == 1.0
        ));
        // A smaller packet still fits.
        assert_eq!(offer(&mut q, 500, SimTime::ZERO, &mut r), Verdict::Accept);
    }

    #[test]
    fn dequeue_frees_space() {
        let mut q = OutputQueueState::new(QueueDiscipline::DropTail, 1000, 1_000_000);
        let mut r = rng();
        q.commit_enqueue(1000);
        assert!(matches!(
            offer(&mut q, 1, SimTime::ZERO, &mut r),
            Verdict::CongestionDrop { .. }
        ));
        q.commit_dequeue(1000, SimTime::from_ms(1));
        assert_eq!(
            offer(&mut q, 1000, SimTime::from_ms(1), &mut r),
            Verdict::Accept
        );
    }

    #[test]
    fn red_no_drops_below_min_threshold() {
        let p = RedParams::default();
        let mut q = OutputQueueState::new(QueueDiscipline::Red(p), 90_000, 100_000_000);
        let mut r = rng();
        // Stay well below min_threshold: 10 packets of 1000 B.
        for i in 0..10 {
            let v = offer(&mut q, 1000, SimTime::from_us(i * 100), &mut r);
            assert_eq!(v, Verdict::Accept, "packet {i}");
            q.commit_enqueue(1000);
        }
        assert!(q.red_avg().unwrap() < p.min_threshold);
    }

    #[test]
    fn red_drops_probabilistically_between_thresholds() {
        let p = RedParams::default();
        let mut q = OutputQueueState::new(QueueDiscipline::Red(p), 90_000, 100_000_000);
        let mut r = rng();
        // Pump the queue into the 30k..60k band and hold it there.
        let mut drops = 0;
        let mut offers = 0;
        for i in 0..5_000u64 {
            match offer(&mut q, 1000, SimTime::from_us(i), &mut r) {
                Verdict::Accept => {
                    q.commit_enqueue(1000);
                    // Drain to hold occupancy around 45 kB.
                    if q.len_bytes() > 45_000 {
                        q.commit_dequeue(1000, SimTime::from_us(i));
                    }
                }
                Verdict::CongestionDrop { red_avg, .. } => {
                    drops += 1;
                    assert!(red_avg.unwrap() >= p.min_threshold);
                }
            }
            offers += 1;
        }
        assert!(drops > 0, "expected early drops");
        assert!(drops < offers / 2, "too many drops: {drops}/{offers}");
    }

    #[test]
    fn red_forced_drop_above_max_threshold() {
        let p = RedParams {
            min_threshold: 1_000.0,
            max_threshold: 2_000.0,
            weight: 1.0, // avg == instantaneous for the test
            ..RedParams::default()
        };
        let mut q = OutputQueueState::new(QueueDiscipline::Red(p), 90_000, 100_000_000);
        let mut r = rng();
        for _ in 0..3 {
            if let Verdict::Accept = offer(&mut q, 1000, SimTime::ZERO, &mut r) {
                q.commit_enqueue(1000);
            }
        }
        // avg == len >= 2000 now: forced drop.
        assert!(matches!(
            offer(&mut q, 1000, SimTime::ZERO, &mut r),
            Verdict::CongestionDrop {
                drop_probability, ..
            } if drop_probability == 1.0
        ));
    }

    #[test]
    fn red_idle_decay_reduces_average() {
        let p = RedParams {
            weight: 0.5,
            ..RedParams::default()
        };
        let mut q = OutputQueueState::new(QueueDiscipline::Red(p), 90_000, 8_000_000); // 1 B/us
        let mut r = rng();
        for i in 0..40 {
            if offer(&mut q, 1000, SimTime::from_us(i), &mut r) == Verdict::Accept {
                q.commit_enqueue(1000);
            }
        }
        let avg_before = q.red_avg().unwrap();
        // Drain fully, then go idle a long time.
        let len = q.len_bytes();
        q.commit_dequeue(len, SimTime::from_ms(1));
        let _ = offer(&mut q, 1000, SimTime::from_secs(1), &mut r);
        assert!(
            q.red_avg().unwrap() < avg_before / 10.0,
            "idle decay failed: {} -> {}",
            avg_before,
            q.red_avg().unwrap()
        );
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dequeue_underflow_panics() {
        let mut q = OutputQueueState::new(QueueDiscipline::DropTail, 1000, 1_000_000);
        q.commit_dequeue(1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "past limit")]
    fn enqueue_past_limit_panics() {
        let mut q = OutputQueueState::new(QueueDiscipline::DropTail, 1000, 1_000_000);
        q.commit_enqueue(1001);
    }
}
