//! The round rule: which observations a round judges, how far back the
//! reports it compares must reach, and what may be forgotten afterwards.
//!
//! A round that ends at instant `e_r` has the maturity cutoff
//! `c_r = e_r − lag`, where `lag` bounds the transit time between two
//! recorders. Round `r` **judges** what either recorder observed in
//! `(c_{r−1}, c_r]`, on its own clock; the reports compared **hold** what
//! was observed after `c_{r−1} − lag` — one lag of look-back, so a packet
//! in flight across `c_{r−1}` still finds its upstream entry; and once the
//! round is judged everything at or before `c_r − lag`, where the next
//! round's look-back opens, is **forgotten**. Every observation falls in
//! exactly one judged window, so a packet is lost or fabricated in exactly
//! one round and a record holds one round of traffic, not a run's.
//!
//! [`Window`] is the only place this arithmetic lives. The simulator-hosted
//! detectors ([`crate::pi2`], [`crate::pik2`]) build it from the instants
//! their rounds end at, the live runtime from its fixed schedule
//! ([`Window::of_round`]); all three judge through [`Window::judge`].

use crate::monitor::{Held, Report};
use crate::policy::{tv_pair, PairVerdict};
use fatih_sim::SimTime;
use fatih_validation::tv_order;
use std::ops::Range;

/// One round's view of a sliding-window record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// `c_{r−1}`, exclusive; `None` for a first round, which judges
    /// everything up to its cutoff (observations stamped 0 included).
    judged_from: Option<SimTime>,
    /// `c_r`, inclusive.
    cutoff: SimTime,
    lag: SimTime,
}

impl Window {
    /// The window of the round that ends at `end`, the round before it
    /// having ended at `prev_end` (`None`: there was none).
    pub fn closing(prev_end: Option<SimTime>, end: SimTime, lag: SimTime) -> Self {
        Self {
            judged_from: prev_end.map(|e| e.since(lag)),
            cutoff: end.since(lag),
            lag,
        }
    }

    /// The window of round `r` on a schedule of `tau`-long rounds that
    /// starts at time 0.
    pub fn of_round(r: u64, tau: SimTime, lag: SimTime) -> Self {
        Self::closing((r > 0).then(|| tau * r), tau * (r + 1), lag)
    }

    /// The round of a schedule of `tau`-long rounds from time 0 whose
    /// judged window holds an observation at `t`: the one
    /// [`of_round`](Self::of_round) window that does.
    pub fn round_of(t: SimTime, tau: SimTime, lag: SimTime) -> u64 {
        match t.as_ns() {
            0 => 0,
            ns => (ns + lag.as_ns()).div_ceil(tau.as_ns()) - 1,
        }
    }

    /// `c_r`, where the judged window closes, inclusive.
    pub fn cutoff(&self) -> SimTime {
        self.cutoff
    }

    /// Where the reports this round compares open, exclusive: one lag
    /// before the judged window. `None` while that reaches back past time
    /// 0 — the report is everything recorded.
    pub fn held_from(&self) -> Option<SimTime> {
        self.lag_before(self.judged_from?)
    }

    /// Where the entries this round judges lie in a held record's.
    pub fn judged_span(&self, held: &Held<'_>) -> Range<usize> {
        let upto = |t: SimTime| held.upto(t);
        self.judged_from.map_or(0, upto)..upto(self.cutoff)
    }

    /// Everything at or before this instant is read by no later round and
    /// can be pruned once this one is judged; `None` while nothing is.
    pub fn forget_horizon(&self) -> Option<SimTime> {
        self.lag_before(self.cutoff)
    }

    /// One lag before `t`, unless that is before time 0.
    fn lag_before(&self, t: SimTime) -> Option<SimTime> {
        let ns = t.as_ns().checked_sub(self.lag.as_ns())?;
        Some(SimTime::from_ns(ns))
    }

    /// `TV(π, info(up), info(down))` over this round's judged window: see
    /// [`tv_pair`].
    pub fn judge(
        &self,
        upstream: Option<&Report>,
        downstream: Option<&Report>,
        fabrication_floor: SimTime,
    ) -> PairVerdict {
        tv_pair(
            upstream,
            downstream,
            self.judged_from,
            self.cutoff,
            fabrication_floor,
        )
    }

    /// The order metric of §2.2.1 over this round's judged window: how
    /// many of the packets `upstream` judges and `downstream` holds arrive
    /// out of order, lost and fabricated packets left out.
    pub fn reordered(&self, upstream: &Report, downstream: &Report) -> usize {
        let judged = upstream.window(self.judged_from, Some(self.cutoff));
        tv_order(&judged.to_ordered(), &downstream.to_ordered()).reordered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: fn(u64) -> SimTime = SimTime::from_ms;

    #[test]
    fn consecutive_windows_tile_the_time_axis() {
        let (tau, lag) = (MS(200), MS(50));
        let w0 = Window::of_round(0, tau, lag);
        let w1 = Window::of_round(1, tau, lag);
        let w2 = Window::of_round(2, tau, lag);
        // Round 0 has no lower bound and no look-back.
        assert_eq!((w0.judged_from, w0.cutoff), (None, MS(150)));
        assert_eq!((w0.held_from(), w0.forget_horizon()), (None, Some(MS(100))));
        // Each round opens where the one before closed, holds one lag more,
        // and forgets up to where the next one's look-back opens.
        assert_eq!((w1.judged_from, w1.cutoff), (Some(MS(150)), MS(350)));
        assert_eq!(w1.held_from(), w0.forget_horizon());
        assert_eq!(w2.judged_from, Some(w1.cutoff));
        assert_eq!(w2.held_from(), w1.forget_horizon());
        // Built from round-end instants, the same windows.
        assert_eq!(Window::closing(None, MS(200), lag), w0);
        assert_eq!(Window::closing(Some(MS(200)), MS(400), lag), w1);
    }

    /// Every instant, edges and time 0 included, lies in the judged window
    /// of the round `round_of` names, and in no other.
    #[test]
    fn round_of_names_the_one_window_that_judges_an_instant() {
        for (tau, lag) in [(200, 50), (100, 150), (100, 99), (300, 0)] {
            let (tau, lag) = (SimTime::from_ns(tau), SimTime::from_ns(lag));
            for ns in 0..1_000 {
                let t = SimTime::from_ns(ns);
                let judges = |r: u64| {
                    let w = Window::of_round(r, tau, lag);
                    w.judged_from.is_none_or(|from| t > from) && t <= w.cutoff
                };
                let r = Window::round_of(t, tau, lag);
                assert!(judges(r), "{t:?} not in round {r}'s window");
                assert!(
                    (0..r + 3).all(|k| k == r || !judges(k)),
                    "{t:?} judged twice"
                );
            }
        }
    }

    #[test]
    fn a_lag_longer_than_the_round_saturates_at_time_zero() {
        let w = Window::of_round(1, MS(100), MS(150));
        assert_eq!((w.judged_from, w.cutoff), (Some(MS(0)), MS(50)));
        assert_eq!((w.held_from(), w.forget_horizon()), (None, None));
    }
}
