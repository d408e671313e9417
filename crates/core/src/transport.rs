//! Reliable control-plane delivery: per-message acknowledgment,
//! retransmission with exponential backoff, bounded retries and duplicate
//! suppression.
//!
//! The detection protocols exchange summaries and alerts over the very
//! network they monitor (§5.1.1), so control messages see the same loss,
//! duplication, reordering and corruption the fault plan injects
//! ([`fatih_sim::FaultPlan`]). This module recovers exactly-once delivery
//! semantics on top of that lossy substrate — or reports *exhaustion* when
//! the retry budget runs out, which the protocols above convert into a
//! timeout-as-accusation suspicion against the silent peer.
//!
//! Design notes:
//!
//! * When to retransmit, when to give up and what is a duplicate is
//!   [`crate::reliable::Retransmitter`]'s business — the same core the live
//!   runtime hosts; this module gives it the simulator's clock and control
//!   packets.
//! * Message ids ride in the simulated packet's `seq` field; the high bit
//!   marks acknowledgments. Payload bytes travel out-of-band in the
//!   transport's own table (simulated packets are content stand-ins; the
//!   in-flight `payload_tag` models a MAC over the real bytes, so a
//!   corrupted copy arrives with `intact == false` and is discarded —
//!   retransmission supplies a clean copy).
//! * One [`ReliableTransport`] instance serves every router in a
//!   simulation, mirroring how the detectors are driven as a global
//!   harness; state is still kept per (sender, message).

use crate::reliable::{Retransmitter, RetryPolicy};
use fatih_sim::{Network, SimTime};
use fatih_topology::RouterId;

/// High bit of the packet `seq` field marks an acknowledgment; the low 63
/// bits carry the message id.
const ACK_BIT: u64 = 1 << 63;

/// Tuning knobs for the reliable transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Initial retransmission timeout; doubles per retry up to
    /// [`max_backoff`](Self::max_backoff).
    pub rto: SimTime,
    /// Maximum transmission attempts (first send included) before the
    /// message is declared [`TransportEvent::Exhausted`].
    pub max_attempts: u32,
    /// Ceiling on the retransmission delay: the exponential backoff is
    /// computed with saturating arithmetic and clamped here, so a large
    /// retry count (or an absurd `rto`) can never overflow the delay.
    pub max_backoff: SimTime,
    /// Wire size of a data-bearing control message, bytes.
    pub msg_size: u32,
    /// Wire size of an acknowledgment, bytes.
    pub ack_size: u32,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            rto: SimTime::from_ms(50),
            max_attempts: 6,
            max_backoff: SimTime::from_secs(5),
            msg_size: 256,
            ack_size: 64,
        }
    }
}

/// A message handed up to the receiving protocol exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportMsg {
    /// Transport-level message id.
    pub msg: u64,
    /// Originating router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
    /// The application payload.
    pub payload: Vec<u8>,
    /// Delivery time of the first intact copy.
    pub at: SimTime,
}

/// Sender-side lifecycle notifications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// The peer acknowledged the message.
    Delivered {
        /// Message id.
        msg: u64,
        /// Sender.
        src: RouterId,
        /// Receiver.
        dst: RouterId,
        /// Time the acknowledgment arrived back.
        at: SimTime,
        /// Transmission attempts used (1 = no retransmission needed).
        attempts: u32,
    },
    /// The retry budget ran out with no acknowledgment. The protocols
    /// above treat this as evidence against the path to the peer
    /// (timeout-as-accusation, §4.2.2's strong completeness under an
    /// eventually-quiescent fault environment).
    Exhausted {
        /// Message id.
        msg: u64,
        /// Sender.
        src: RouterId,
        /// Receiver that never acknowledged.
        dst: RouterId,
        /// Attempts made (equals `max_attempts`).
        attempts: u32,
        /// Time the budget was exhausted.
        at: SimTime,
    },
}

/// What the transport keeps of a message until it is acknowledged.
#[derive(Debug)]
struct Sent {
    src: RouterId,
    payload: Vec<u8>,
}

/// Ack/retransmit reliable delivery over [`Network::send_control`].
#[derive(Debug)]
pub struct ReliableTransport {
    config: TransportConfig,
    next_msg: u64,
    retransmitter: Retransmitter<Sent>,
    inbox: Vec<TransportMsg>,
    events: Vec<TransportEvent>,
}

impl ReliableTransport {
    /// Creates a transport with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config` allows no attempt or has a zero `rto`.
    pub fn new(config: TransportConfig) -> Self {
        let policy = RetryPolicy {
            rto_ns: config.rto.as_ns(),
            max_backoff_ns: config.max_backoff.as_ns(),
            max_attempts: config.max_attempts,
        };
        Self {
            config,
            next_msg: 0,
            retransmitter: Retransmitter::new(policy),
            inbox: Vec::new(),
            events: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TransportConfig {
        &self.config
    }

    /// Sends `payload` from `from` to `to`, returning the message id. The
    /// first copy goes on the wire immediately; [`pump`](Self::pump)
    /// drives retransmission until acknowledgment or exhaustion.
    pub fn send(
        &mut self,
        net: &mut Network,
        from: RouterId,
        to: RouterId,
        payload: Vec<u8>,
    ) -> u64 {
        let msg = self.next_msg;
        assert!(msg & ACK_BIT == 0, "message id space exhausted");
        self.next_msg += 1;
        net.send_control(from, to, self.config.msg_size, msg);
        let sent = Sent { src: from, payload };
        self.retransmitter.track(msg, to, sent, net.now().as_ns());
        msg
    }

    /// Processes every control delivery since the last call and fires any
    /// due retransmissions. Call after each `run_until` slice; a
    /// convenience loop is [`run`](Self::run).
    pub fn pump(&mut self, net: &mut Network) {
        let now = net.now();
        for d in net.take_control_deliveries() {
            if !d.intact {
                // Corrupted in flight: drop silently, the sender's timer
                // will supply a fresh copy.
                continue;
            }
            if d.seq & ACK_BIT != 0 {
                let msg = d.seq & !ACK_BIT;
                // `d.from` is the acknowledging peer; the outstanding
                // entry lives at the original sender (`d.to`).
                if let Some(acked) = self.retransmitter.on_ack(msg) {
                    self.events.push(TransportEvent::Delivered {
                        msg,
                        src: acked.msg.src,
                        dst: acked.dst,
                        at: d.at,
                        attempts: acked.attempts,
                    });
                }
                continue;
            }
            let msg = d.seq;
            // Always (re-)acknowledge: the previous ack may have been
            // lost, and acks are idempotent.
            net.send_control(d.to, d.from, self.config.ack_size, ACK_BIT | msg);
            if !self.retransmitter.accept(d.from, msg, now.as_ns()) {
                continue; // duplicate — already handed up
            }
            let sent = self.retransmitter.get(msg);
            let payload = sent.map(|s| s.payload.clone()).unwrap_or_default();
            self.inbox.push(TransportMsg {
                msg,
                from: d.from,
                to: d.to,
                payload,
                at: d.at,
            });
        }

        let size = self.config.msg_size;
        let resend = |msg, dst, sent: &Sent| {
            net.send_control(sent.src, dst, size, msg);
        };
        let exhausted = self.retransmitter.poll(now.as_ns(), resend);
        for gone in exhausted {
            self.events.push(TransportEvent::Exhausted {
                msg: gone.id,
                src: gone.msg.src,
                dst: gone.dst,
                attempts: gone.attempts,
                at: now,
            });
        }
    }

    /// Advances the simulation to `until` in `step`-sized slices, pumping
    /// the transport between slices so acks and retransmissions interleave
    /// with traffic. `tap` sees every simulator observation.
    pub fn run<F: FnMut(&fatih_sim::TapEvent)>(
        &mut self,
        net: &mut Network,
        until: SimTime,
        step: SimTime,
        mut tap: F,
    ) {
        assert!(step > SimTime::ZERO, "step must be positive");
        while net.now() < until {
            let slice = (net.now() + step).min(until);
            net.run_until(slice, &mut tap);
            self.pump(net);
        }
    }

    /// Messages delivered (exactly once each) since the last call.
    pub fn take_inbox(&mut self) -> Vec<TransportMsg> {
        std::mem::take(&mut self.inbox)
    }

    /// Sender-side events (delivered / exhausted) since the last call.
    pub fn take_events(&mut self) -> Vec<TransportEvent> {
        std::mem::take(&mut self.events)
    }

    /// Messages still awaiting acknowledgment.
    pub fn outstanding(&self) -> usize {
        self.retransmitter.outstanding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatih_sim::{FaultPlan, LinkFaults};
    use fatih_topology::builtin;

    fn net_line(n: usize) -> (Network, Vec<RouterId>) {
        let topo = builtin::line(n);
        let ids: Vec<RouterId> = (0..n)
            .map(|i| topo.router_by_name(&format!("n{i}")).unwrap())
            .collect();
        (Network::new(topo, 9), ids)
    }

    fn drive(t: &mut ReliableTransport, net: &mut Network, secs: u64) {
        let until = net.now() + SimTime::from_secs(secs);
        t.run(net, until, SimTime::from_ms(10), |_| {});
    }

    #[test]
    fn clean_network_delivers_first_try() {
        let (mut net, ids) = net_line(4);
        let mut t = ReliableTransport::new(TransportConfig::default());
        let msg = t.send(&mut net, ids[0], ids[3], b"summary".to_vec());
        drive(&mut t, &mut net, 1);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox[0].msg, msg);
        assert_eq!(inbox[0].from, ids[0]);
        assert_eq!(inbox[0].payload, b"summary");
        let events = t.take_events();
        assert!(
            matches!(events[..], [TransportEvent::Delivered { attempts: 1, .. }]),
            "{events:?}"
        );
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn heavy_loss_recovered_by_retransmission() {
        let (mut net, ids) = net_line(3);
        // Loss on the forward path only; the ack path stays clean so
        // every message can eventually confirm.
        let lossy = LinkFaults {
            loss: 0.4,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(5)
                .with_link_faults(ids[0], ids[1], lossy)
                .with_link_faults(ids[1], ids[2], lossy),
        ));
        let mut t = ReliableTransport::new(TransportConfig {
            max_attempts: 10,
            ..TransportConfig::default()
        });
        for i in 0..20u64 {
            t.send(&mut net, ids[0], ids[2], vec![i as u8]);
        }
        drive(&mut t, &mut net, 60);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 20, "all messages delivered despite loss");
        let events = t.take_events();
        let delivered = events
            .iter()
            .filter(|e| matches!(e, TransportEvent::Delivered { .. }))
            .count();
        assert_eq!(delivered, 20);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::Delivered { attempts, .. } if *attempts > 1)),
            "40% loss per link should force at least one retransmission"
        );
    }

    #[test]
    fn lost_acks_cause_retries_but_not_duplicate_delivery() {
        let (mut net, ids) = net_line(3);
        // Loss on the *return* path only: data always arrives, acks
        // frequently die, so the sender retransmits already-delivered
        // messages — the receiver must hand each up exactly once.
        let lossy = LinkFaults {
            loss: 0.5,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(8)
                .with_link_faults(ids[2], ids[1], lossy)
                .with_link_faults(ids[1], ids[0], lossy),
        ));
        let mut t = ReliableTransport::new(TransportConfig {
            max_attempts: 10,
            ..TransportConfig::default()
        });
        for i in 0..15u64 {
            t.send(&mut net, ids[0], ids[2], vec![i as u8]);
        }
        drive(&mut t, &mut net, 120);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 15, "exactly-once delivery despite retries");
        let events = t.take_events();
        assert_eq!(events.len(), 15, "every message resolves: {events:?}");
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TransportEvent::Delivered { attempts, .. } if *attempts > 1)),
            "lost acks should force data retransmission"
        );
    }

    #[test]
    fn duplication_suppressed_to_exactly_once() {
        let (mut net, ids) = net_line(3);
        net.set_fault_plan(Some(FaultPlan::new(7).with_default_link_faults(
            LinkFaults {
                duplicate: 0.9,
                ..LinkFaults::NONE
            },
        )));
        let mut t = ReliableTransport::new(TransportConfig::default());
        for i in 0..10u64 {
            t.send(&mut net, ids[0], ids[2], vec![i as u8]);
        }
        drive(&mut t, &mut net, 10);
        assert!(
            net.ground_truth().fault_duplicated > 0,
            "the plan should actually duplicate"
        );
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 10, "duplicates must be suppressed");
    }

    #[test]
    fn corruption_recovered_with_intact_copy() {
        let (mut net, ids) = net_line(3);
        let noisy = LinkFaults {
            corrupt: 0.3,
            ..LinkFaults::NONE
        };
        net.set_fault_plan(Some(
            FaultPlan::new(11)
                .with_link_faults(ids[0], ids[1], noisy)
                .with_link_faults(ids[1], ids[2], noisy),
        ));
        let mut t = ReliableTransport::new(TransportConfig {
            max_attempts: 10,
            ..TransportConfig::default()
        });
        for i in 0..10u64 {
            t.send(&mut net, ids[0], ids[2], vec![i as u8]);
        }
        drive(&mut t, &mut net, 60);
        assert!(net.ground_truth().fault_corrupted > 0);
        assert_eq!(t.take_inbox().len(), 10);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn dead_link_exhausts_retry_budget() {
        let (mut net, ids) = net_line(2);
        // Link down for the whole run.
        net.set_fault_plan(Some(FaultPlan::new(1).with_link_flap(
            ids[0],
            ids[1],
            SimTime::ZERO,
            SimTime::from_secs(3600),
        )));
        let cfg = TransportConfig::default();
        let mut t = ReliableTransport::new(cfg);
        let msg = t.send(&mut net, ids[0], ids[1], b"alert".to_vec());
        drive(&mut t, &mut net, 60);
        let events = t.take_events();
        assert!(
            matches!(
                events[..],
                [TransportEvent::Exhausted { msg: m, attempts, .. }]
                    if m == msg && attempts == cfg.max_attempts
            ),
            "{events:?}"
        );
        assert!(t.take_inbox().is_empty());
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn crash_window_delays_but_does_not_lose_messages() {
        let (mut net, ids) = net_line(3);
        // The middle router is down for the first 200 ms; retransmission
        // rides out the outage.
        net.set_fault_plan(Some(FaultPlan::new(2).with_crash(
            ids[1],
            SimTime::ZERO,
            SimTime::from_ms(200),
        )));
        let mut t = ReliableTransport::new(TransportConfig::default());
        t.send(&mut net, ids[0], ids[2], b"through".to_vec());
        drive(&mut t, &mut net, 10);
        let inbox = t.take_inbox();
        assert_eq!(inbox.len(), 1);
        assert!(inbox[0].at >= SimTime::from_ms(200), "{:?}", inbox[0].at);
        assert!(matches!(
            t.take_events()[..],
            [TransportEvent::Delivered { attempts, .. }] if attempts > 1
        ));
    }
}
