//! Reliable delivery, the part with no I/O in it: which frames are
//! outstanding, when each is due again, when its sender gives up, and
//! which received frames are duplicates.
//!
//! A host sends a frame itself and [`track`](Retransmitter::track)s it;
//! feeds acknowledgments to [`on_ack`](Retransmitter::on_ack); asks
//! [`accept`](Retransmitter::accept) whether a received frame is new; and
//! calls [`poll`](Retransmitter::poll) with its clock, re-sending what
//! that hands back and learning which frames ran out of attempts —
//! which the protocols above turn into a timeout accusation. Time is
//! nanoseconds on whatever axis the host keeps. The live runtime's
//! `Router` is its one host: it owns no transport and re-sends, as it
//! first sends, through `Router::step`'s outputs, whether a shard or the
//! simulator carries them.

use fatih_topology::RouterId;
use std::collections::{BTreeMap, VecDeque};

/// When to retransmit and when to give up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Initial retransmission timeout; doubles per retry.
    pub rto_ns: u64,
    /// Ceiling on the backed-off delay.
    pub max_backoff_ns: u64,
    /// Transmission attempts (first send included) before giving up.
    pub max_attempts: u32,
}

impl RetryPolicy {
    /// The delay after `attempts` transmissions:
    /// `min(rto · 2^(attempts−1), max_backoff)`, saturating, so no retry
    /// count and no timeout can overflow it.
    pub fn backoff(&self, attempts: u32) -> u64 {
        // 2^63 ns already exceeds any u64 time span, so the shift itself
        // is clamped before the saturating multiply.
        let doublings = attempts.saturating_sub(1).min(63);
        self.rto_ns
            .saturating_mul(1u64 << doublings)
            .min(self.max_backoff_ns)
    }

    /// How long after its first transmission a frame's sender abandons
    /// it: the sum of `backoff(1..=max_attempts)`.
    fn lifetime_ns(&self) -> u64 {
        // Past 64 transmissions the delay no longer changes: no need to
        // walk a huge budget.
        let head = self.max_attempts.min(64);
        let tail = u64::from(self.max_attempts - head);
        (1..=head)
            .fold(0u64, |sum, n| sum.saturating_add(self.backoff(n)))
            .saturating_add(self.backoff(head).saturating_mul(tail))
    }
}

/// A tracked frame, as the host gets it back when it is acknowledged or
/// out of attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tracked<M> {
    /// The id it was tracked under.
    pub id: u64,
    /// Where it was going.
    pub dst: RouterId,
    /// What the host tracked with it.
    pub msg: M,
    /// Transmissions made, the first included.
    pub attempts: u32,
    /// When the next one was due.
    pub next_retry_ns: u64,
}

/// Sender-side retransmission state and receiver-side duplicate
/// suppression. `M` is whatever the host needs to send a frame again.
///
/// Both tables are ordered maps: what [`poll`](Self::poll) hands back, and
/// in which order, depends on the frames tracked and the times given and
/// on nothing else.
#[derive(Debug)]
pub struct Retransmitter<M> {
    policy: RetryPolicy,
    lifetime_ns: u64,
    outstanding: BTreeMap<u64, Tracked<M>>,
    /// (source, id) of every frame accepted within the last
    /// [`RetryPolicy::lifetime_ns`], with the time of its first receipt.
    seen: BTreeMap<(RouterId, u64), u64>,
    /// The same entries in receipt order, for expiry.
    seen_order: VecDeque<(u64, RouterId, u64)>,
}

impl<M> Retransmitter<M> {
    /// A retransmitter with nothing outstanding and nothing seen.
    ///
    /// # Panics
    ///
    /// Panics if the policy allows no attempt or has a zero timeout.
    pub fn new(policy: RetryPolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        assert!(policy.rto_ns > 0, "rto must be positive");
        Self {
            policy,
            lifetime_ns: policy.lifetime_ns(),
            outstanding: BTreeMap::new(),
            seen: BTreeMap::new(),
            seen_order: VecDeque::new(),
        }
    }

    /// Registers a frame the host has just sent for the first time.
    pub fn track(&mut self, id: u64, dst: RouterId, msg: M, now_ns: u64) {
        let frame = Tracked {
            id,
            dst,
            msg,
            attempts: 1,
            next_retry_ns: now_ns.saturating_add(self.policy.backoff(1)),
        };
        self.outstanding.insert(id, frame);
    }

    /// Processes an acknowledgment: the frame it settles, or `None` for a
    /// stale or foreign one.
    pub fn on_ack(&mut self, id: u64) -> Option<Tracked<M>> {
        self.outstanding.remove(&id)
    }

    /// Frames awaiting acknowledgment.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether the frame `(src, id)`, received at `now_ns`, is new: true
    /// the first time, false for retransmissions and duplicates.
    ///
    /// A pair is remembered for as long as its sender can still retransmit
    /// it — the policy's whole backoff schedule, counted from the first
    /// receipt, which is no earlier than the first transmission; the last
    /// backoff of the schedule, after which nothing is sent, is the margin
    /// for transit and for a host that polls late. Then it is forgotten,
    /// so the history follows the traffic of one such span, not of the run.
    /// `now_ns` must not decrease from call to call.
    pub fn accept(&mut self, src: RouterId, id: u64, now_ns: u64) -> bool {
        while let Some(&(at, s, i)) = self.seen_order.front() {
            if now_ns.saturating_sub(at) < self.lifetime_ns {
                break;
            }
            self.seen_order.pop_front();
            // Unless the peer's history was forgotten and the pair seen
            // anew since.
            if self.seen.get(&(s, i)) == Some(&at) {
                self.seen.remove(&(s, i));
            }
        }
        if self.seen.contains_key(&(src, id)) {
            return false;
        }
        self.seen.insert((src, id), now_ns);
        self.seen_order.push_back((now_ns, src, id));
        true
    }

    /// Hands every frame due at `now_ns` to `resend` for another
    /// transmission, in id order, and returns those whose attempts had run
    /// out instead (no longer tracked).
    pub fn poll(
        &mut self,
        now_ns: u64,
        mut resend: impl FnMut(u64, RouterId, &M),
    ) -> Vec<Tracked<M>> {
        let due: Vec<u64> = self
            .outstanding
            .values()
            .filter(|frame| frame.next_retry_ns <= now_ns)
            .map(|frame| frame.id)
            .collect();
        let mut exhausted = Vec::new();
        for id in due {
            let frame = self.outstanding.get_mut(&id).expect("just listed");
            if frame.attempts < self.policy.max_attempts {
                frame.attempts += 1;
                frame.next_retry_ns = now_ns.saturating_add(self.policy.backoff(frame.attempts));
                resend(id, frame.dst, &frame.msg);
            } else {
                exhausted.extend(self.outstanding.remove(&id));
            }
        }
        exhausted
    }

    /// Drops every outstanding frame addressed to `dst`: a peer that was
    /// convicted, left or crashed will never acknowledge, and nothing
    /// should keep retransmitting to it. Returns how many were dropped.
    pub fn purge_peer(&mut self, dst: RouterId) -> usize {
        let before = self.outstanding.len();
        self.outstanding.retain(|_, frame| frame.dst != dst);
        before - self.outstanding.len()
    }

    /// Forgets the duplicate-suppression history for `src`, so a restarted
    /// peer's fresh id space is not shadowed by its previous incarnation's.
    pub fn forget_peer_history(&mut self, src: RouterId) {
        self.seen.retain(|(s, _), _| *s != src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    fn rid(v: u32) -> RouterId {
        RouterId::from(v)
    }

    fn policy(rto_ms: u64, cap_ms: u64, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            rto_ns: rto_ms * MS,
            max_backoff_ns: cap_ms * MS,
            max_attempts,
        }
    }

    /// Polls at every millisecond up to `until_ms`; returns the times (ms)
    /// frame 1 was re-sent at and the time it was given up on, if it was.
    fn schedule(r: &mut Retransmitter<()>, until_ms: u64) -> (Vec<u64>, Option<u64>) {
        let (mut resent, mut gave_up) = (vec![], None);
        for t in 1..=until_ms {
            let exhausted = r.poll(t * MS, |id, _, _| {
                assert_eq!(id, 1);
                resent.push(t);
            });
            if !exhausted.is_empty() {
                gave_up = Some(t);
            }
        }
        (resent, gave_up)
    }

    #[test]
    fn backoff_doubles_is_capped_and_saturates() {
        let doubling = policy(100, 450, 99);
        for (attempts, ms) in [(0, 100), (1, 100), (2, 200), (3, 400), (4, 450), (40, 450)] {
            assert_eq!(doubling.backoff(attempts), ms * MS, "attempt {attempts}");
        }
        // An absurd timeout and any attempt count: never an overflow,
        // never past the ceiling, never zero.
        let absurd = policy(400_000_000, 30_000, 6);
        for attempts in [1, 2, 16, 17, 63, 64, 65, 1000, u32::MAX] {
            assert_eq!(absurd.backoff(attempts), 30_000 * MS, "attempt {attempts}");
        }
        let uncapped = RetryPolicy {
            rto_ns: 1,
            max_backoff_ns: u64::MAX,
            max_attempts: 6,
        };
        assert_eq!(uncapped.backoff(64), 1u64 << 63);
        assert_eq!(uncapped.backoff(u32::MAX), 1u64 << 63);
        // The lifetime is the whole schedule, however large the budget.
        assert_eq!(policy(25, 100, 8).lifetime_ns(), (25 + 50 + 6 * 100) * MS);
        assert_eq!(policy(50, 5_000, 6).lifetime_ns(), 3_150 * MS);
        assert_eq!(
            policy(10, 40, u32::MAX).lifetime_ns(),
            (10 + 20 + 40 * (u64::from(u32::MAX) - 2)) * MS
        );
        assert_eq!(uncapped.lifetime_ns(), 1 + 2 + 4 + 8 + 16 + 32);
    }

    #[test]
    fn retries_follow_the_backoff_until_the_budget_is_spent() {
        // (rto, cap, attempts) → re-sent at, given up at (ms after send).
        let cases = [
            // Doubling: attempts at 0, 100, 300, 700; given up at 1500.
            ((100, 5_000, 4), vec![100, 300, 700], 1_500),
            // A low ceiling keeps a big budget short: 8 retries ≤ 200 ms
            // apart (uncapped doubling would need 25.5 s).
            (
                (100, 200, 9),
                vec![100, 300, 500, 700, 900, 1_100, 1_300, 1_500],
                1_700,
            ),
            // One attempt: never re-sent, given up after one timeout.
            ((10, 20, 1), vec![], 10),
        ];
        for ((rto, cap, max), resent, gave_up) in cases {
            let mut r = Retransmitter::new(policy(rto, cap, max));
            r.track(1, rid(2), (), 0);
            assert_eq!(schedule(&mut r, 3_000), (resent, Some(gave_up)));
            assert_eq!(r.outstanding(), 0);
        }
    }

    #[test]
    fn a_late_poll_backs_off_from_when_it_ran() {
        let mut r = Retransmitter::new(policy(10, 40, 3));
        r.track(1, rid(2), "frame", 0);
        // Due at 10 ms, polled at 25: due again 20 ms after the late
        // re-send, not after its deadline.
        let mut sent = vec![];
        for t in [9, 25, 44, 45] {
            let exhausted = r.poll(t * MS, |id, dst, m| sent.push((t, id, dst, *m)));
            assert!(exhausted.is_empty());
        }
        assert_eq!(sent, [(25, 1, rid(2), "frame"), (45, 1, rid(2), "frame")]);
        let exhausted = r.poll(u64::MAX, |_, _, _| panic!("the budget is spent"));
        let gone = Tracked {
            id: 1,
            dst: rid(2),
            msg: "frame",
            attempts: 3,
            next_retry_ns: 85 * MS,
        };
        assert_eq!(exhausted, [gone]);
    }

    #[test]
    fn an_ack_stops_retries_and_settles_once() {
        let mut r = Retransmitter::new(policy(25, 100, 8));
        r.track(7, rid(1), "frame", 0);
        assert_eq!(r.outstanding(), 1);
        let mut sent = vec![];
        r.poll(30 * MS, |id, dst, m| sent.push((id, dst, *m)));
        assert_eq!(sent, [(7, rid(1), "frame")], "what was tracked is re-sent");
        let settled = r.on_ack(7).expect("outstanding");
        assert_eq!(
            (settled.dst, settled.msg, settled.attempts),
            (rid(1), "frame", 2)
        );
        assert!(r.on_ack(7).is_none(), "second ack is stale");
        assert!(r.on_ack(8).is_none(), "never tracked");
        assert_eq!(r.outstanding(), 0);
        let exhausted = r.poll(u64::MAX, |_, _, _| panic!("re-sent an acked frame"));
        assert!(exhausted.is_empty());
    }

    #[test]
    fn due_frames_are_handed_back_in_id_order() {
        let mut r = Retransmitter::new(policy(10, 10, 2));
        for id in [9, 3, 7, 1] {
            r.track(id, rid(id as u32), (), 0);
        }
        let mut order = vec![];
        r.poll(10 * MS, |id, dst, _| order.push((id, dst)));
        assert_eq!(order, [(1, rid(1)), (3, rid(3)), (7, rid(7)), (9, rid(9))]);
        let exhausted: Vec<u64> = r.poll(20 * MS, |_, _, _| {}).iter().map(|s| s.id).collect();
        assert_eq!(exhausted, [1, 3, 7, 9]);
    }

    #[test]
    fn duplicates_are_suppressed_by_source_and_id() {
        let mut r = Retransmitter::<()>::new(policy(25, 100, 8));
        assert!(r.accept(rid(1), 5, 0));
        assert!(!r.accept(rid(1), 5, MS));
        assert!(r.accept(rid(2), 5, MS), "same id, different source");
        assert!(r.accept(rid(1), 6, MS));
    }

    #[test]
    fn purge_cancels_what_was_going_to_a_peer_and_nothing_else() {
        let mut r = Retransmitter::new(policy(25, 100, 8));
        r.track(1, rid(2), (), 0);
        r.track(2, rid(2), (), 0);
        r.track(3, rid(3), (), 0);
        assert_eq!(r.purge_peer(rid(2)), 2);
        assert_eq!(r.purge_peer(rid(2)), 0, "idempotent");
        assert_eq!(r.outstanding(), 1);
        // The purged frames can neither be re-sent nor run out.
        let mut resent = vec![];
        let exhausted = r.poll(u64::MAX / 2, |id, dst, _| resent.push((id, dst)));
        assert!(exhausted.is_empty());
        assert_eq!(resent, [(3, rid(3))]);
    }

    #[test]
    fn forgetting_a_peer_reopens_its_id_space_only() {
        let mut r = Retransmitter::<()>::new(policy(25, 100, 8));
        assert!(r.accept(rid(1), 5, 0));
        assert!(r.accept(rid(2), 5, 0));
        r.forget_peer_history(rid(1));
        assert!(r.accept(rid(1), 5, 10 * MS), "restarted peer reuses its id");
        assert!(!r.accept(rid(2), 5, 10 * MS), "other peers' history kept");
        // The forgotten entry's expiry must not take the fresh one with
        // it: the pair stays suppressed for a lifetime from its re-receipt.
        let lifetime = policy(25, 100, 8).lifetime_ns();
        assert!(!r.accept(rid(1), 5, lifetime + 9 * MS));
        assert!(r.accept(rid(1), 5, lifetime + 10 * MS));
    }

    /// Hours of traffic: the history holds what one sender lifetime admits
    /// and no more, and a retransmission inside the lifetime is suppressed
    /// to the last nanosecond of it.
    #[test]
    fn dedup_history_is_bounded_by_the_sender_lifetime() {
        let p = policy(25, 100, 8);
        let lifetime = p.lifetime_ns();
        let mut r = Retransmitter::<()>::new(p);
        let gap = 1_000 * MS; // a frame a second, for 10 000 s
        let admits = (lifetime / gap + 1) as usize;
        for id in 0..10_000u64 {
            let now = id * gap;
            assert!(r.accept(rid((id % 3) as u32), id, now));
            // Its own retransmissions arrive while the sender still tries.
            assert!(!r.accept(rid((id % 3) as u32), id, now + lifetime - 1));
            assert!(
                r.seen.len() <= admits + 1,
                "{} held at id {id}",
                r.seen.len()
            );
            assert_eq!(r.seen.len(), r.seen_order.len());
        }
        // Past the lifetime the sender has given up; the id is forgotten.
        assert!(r.accept(rid(0), 9_999, 9_999 * gap + lifetime));

        // A burst is held whole while it is young and dropped whole after.
        let t0 = 20_000 * gap;
        for id in 0..500u64 {
            assert!(r.accept(rid(7), id, t0 + id));
        }
        assert_eq!(r.seen.len(), 500);
        assert!(!r.accept(rid(7), 0, t0 + lifetime - 1));
        assert!(r.accept(rid(8), 0, t0 + 2 * lifetime));
        assert_eq!((r.seen.len(), r.seen_order.len()), (1, 1));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn a_policy_without_attempts_is_refused() {
        Retransmitter::<()>::new(policy(25, 100, 0));
    }
}
