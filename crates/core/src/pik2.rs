//! Protocol Πk+2 (dissertation §5.2, Figure 5.3): a strong-complete,
//! accurate failure detector with precision k+2 and far lower overhead
//! than Π2.
//!
//! Only the two *end* routers of each monitored x-segment (3 ≤ x ≤ k+2)
//! collect and exchange traffic information, authenticated with their
//! pairwise key, over the segment itself. A failed or missing exchange, or
//! a failed `TV`, makes both ends suspect the whole segment π. Because
//! every run of ≤ k faulty routers is bracketed by correct ends at *some*
//! monitored length, completeness holds; because the suspicion names the
//! whole segment, precision degrades to k+2 (Appendix B.3). Unlike Π2,
//! the ends may secretly subsample (§5.2.1), though no host here does.
//!
//! The exchange is one per-router, sans-I/O value, [`Pik2Node`]: which
//! segments this router ends, what their other ends have told it about
//! which round, who may tell it anything at all, the Appendix A digest
//! resolution and the verdicts, judged on conservation of content. It
//! owns no clock, socket, key or counter; a host closes its rounds, hands
//! it what arrived — having authenticated the sender — and reads it the
//! record through a `&SegmentMonitorSet` — the running digests of a
//! streamed record, which holds whole only what a segment in dispute
//! needs, or a record of whole windows. Its one host is the live
//! runtime's sans-I/O `Router` (`fatih-net`), stepped by a shard over
//! sockets or by the simulator's clock (`SimHost`), which adds sealed
//! frames, retransmission, metrics, alerts and the response. What a host
//! puts on its wire is a [`Message`], whose bytes are laid out here and
//! nowhere else.

use crate::monitor::{Report, SegmentMonitorSet};
use crate::policy::{PairVerdict, Policy, Thresholds};
use crate::rounds::Window;
use crate::wire::{WireEncoder, WireError, WireReader};
use fatih_crypto::Fingerprint;
use fatih_sim::SimTime;
use fatih_topology::{PathSegment, RouterId};
use fatih_validation::digest::{diff_digests, ContentDigest};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

/// The sketch capacity a round-end digest goes out at when the configured
/// one is larger: the first `PREFIX + 2` evaluations of the full sketch.
/// Honest rounds differ by a handful of packets at most, so the full
/// capacity goes out only when the prefix cannot certify (DESIGN.md,
/// "Prefix first, full capacity on demand", derives the 4).
const PREFIX: usize = 4;

/// What one end of a segment tells the other about a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evidence {
    /// What the sender's record holds for the round.
    Summary(Report),
    /// Fixed-size Appendix A digests of the sender's record: a round end
    /// sends them at a short prefix of its capacity, and the full capacity
    /// only when a prefix did not certify.
    Digest {
        /// Of the slice the round judges.
        judged: ContentDigest,
        /// Of everything the record holds for the round.
        held: ContentDigest,
    },
    /// The sender could not resolve a digest: it asks for the summary.
    Pull,
}

/// Which form a piece of [`Evidence`] takes. A [`Message`]'s bytes do not
/// say; what carries them does — the frame's type byte on the live wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvidenceKind {
    /// [`Evidence::Summary`].
    Summary,
    /// [`Evidence::Digest`].
    Digest,
    /// [`Evidence::Pull`].
    Pull,
}

/// The Πk+2 exchange message — `info(r, π, τ)` of Figure 5.3, or the
/// Appendix A stand-ins for it: what one end of `segment` tells the other
/// about `round`. A host authenticates it with the ends' pairwise key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// The round the evidence is about.
    pub round: u64,
    /// The monitored segment.
    pub segment: PathSegment,
    /// What the sender says.
    pub evidence: Evidence,
}

impl Message {
    /// Appends the message's wire form: round, segment, then the report's
    /// canonical bytes, the judged and the held digest, or nothing.
    pub fn encode_into(&self, e: &mut WireEncoder) {
        e.u64(self.round).segment(&self.segment);
        match &self.evidence {
            Evidence::Summary(report) => {
                e.bytes(&report.encode());
            }
            Evidence::Digest { judged, held } => {
                e.digest(judged).digest(held);
            }
            Evidence::Pull => {}
        }
    }

    /// Reads [`encode_into`](Self::encode_into)'s output for evidence of
    /// the given kind. Never panics, and allocates for nothing the input
    /// does not hold.
    pub fn decode_from(kind: EvidenceKind, rd: &mut WireReader<'_>) -> Result<Self, WireError> {
        let round = rd.u64()?;
        let segment = rd.segment()?;
        let evidence = match kind {
            EvidenceKind::Summary => {
                Evidence::Summary(Report::decode(rd.bytes()?).ok_or(WireError::Invalid)?)
            }
            EvidenceKind::Digest => Evidence::Digest {
                judged: rd.digest()?,
                held: rd.digest()?,
            },
            EvidenceKind::Pull => Evidence::Pull,
        };
        Ok(Self {
            round,
            segment,
            evidence,
        })
    }
}

/// What a node did with a piece of evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Received {
    /// Kept for the round's evaluation.
    Stored,
    /// Answer the sender with this: a [`Evidence::Pull`] for a digest at
    /// the full capacity that did not resolve, the [`Evidence::Summary`] a
    /// pull asked for, or — for a prefix that did not certify — this end's
    /// [`Evidence::Digest`] at the full capacity. Only the first two put
    /// the segment in dispute.
    Reply(Evidence),
    /// Kept for the round's evaluation, as [`Stored`](Self::Stored), and
    /// answer the sender with this end's full-capacity digest: the
    /// sender's full digest asks for it, and this end has not sent it.
    StoredAndReply(Evidence),
    /// Kept as the round's count bound until something better comes: a
    /// prefix that did not certify, from a peer this end has sent its
    /// full-capacity digest already. The full digests decide.
    Escalated,
    /// Dropped: a digest whose sketch is larger than this end's configured
    /// capacity, which this end does not reconcile.
    Refused,
    /// Dropped: this router ends no such segment (a peer on another route
    /// epoch monitors different ones).
    Unknown,
    /// Dropped: the sender is not the segment's other end, and nobody else
    /// may speak for it, whoever the transport says they are.
    Foreign,
    /// Dropped: the round is evaluated already — the verdict is out and
    /// the record it would be read against is pruned.
    Stale,
    /// Taken as notice that the segment is in dispute, and nothing more:
    /// this end's record does not hold the round whole, so it can neither
    /// answer a pull for it nor judge a summary against it. The round is
    /// judged on what its digests certified.
    Disputed,
}

/// One end's verdict on one segment for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Judged {
    /// Index of the segment in the planned list.
    pub segment: usize,
    /// The segment's other end.
    pub peer: RouterId,
    /// `TV` over the round's window; ⊥ if the peer was not heard from.
    /// Empty when the round was judged on counts.
    pub verdict: PairVerdict,
    /// Lower bounds on the round's (lost, fabricated) counts when it was
    /// judged on them alone: its digests certified no difference and no
    /// summary could be judged against this end's record.
    pub bound: Option<(usize, usize)>,
    /// Whether the verdict conserves content within the thresholds.
    pub passed: bool,
}

impl Judged {
    /// Packets judged lost: the verdict's, or the bound's.
    pub fn lost(&self) -> usize {
        self.bound.map_or(self.verdict.lost.len(), |b| b.0)
    }

    /// Packets judged fabricated: the verdict's, or the bound's.
    pub fn fabricated(&self) -> usize {
        self.bound.map_or(self.verdict.fabricated.len(), |b| b.1)
    }
}

/// One segment this router is an end of.
#[derive(Debug, Clone, Copy)]
struct EndRole {
    seg: usize,
    peer: RouterId,
    /// Whether this router is the segment's source (upstream recorder).
    upstream: bool,
}

/// What the peer's evidence for a (round, segment) came to: its report,
/// the verdict decoded from its digests, certified equal to what the
/// report would have given, or — digests that certified nothing — the
/// (lost, fabricated) bounds their counts give.
#[derive(Debug, Clone)]
enum Heard {
    Report(Report),
    Verdict(PairVerdict),
    Bound(usize, usize),
}

/// One router's part in Πk+2: see the module documentation.
#[derive(Debug, Clone)]
pub struct Pik2Node {
    id: RouterId,
    /// The capacity of this node's digest sketches; `None`: it sends
    /// summaries.
    sketch: Option<usize>,
    roles: BTreeMap<PathSegment, EndRole>,
    heard: BTreeMap<(u64, usize), Heard>,
    /// The full-capacity (judged, held) digests this node closed each
    /// (round, segment) with, which a peer's digest is resolved against.
    said: BTreeMap<(u64, usize), (ContentDigest, ContentDigest)>,
    /// The (round, segment)s this node has sent its full-capacity digest
    /// for: at most once each.
    sent_full: BTreeSet<(u64, usize)>,
    /// The last round evaluated; evidence for it or an earlier one is
    /// stale.
    evaluated: Option<u64>,
}

impl Pik2Node {
    /// The node of router `id` under the planned `segments`, telling its
    /// peers about its rounds in summaries (`sketch` `None`) or in digests
    /// with sketches of capacity `sketch`.
    ///
    /// # Panics
    ///
    /// Panics if `sketch` is `Some(0)`.
    pub fn new(id: RouterId, segments: &[PathSegment], sketch: Option<usize>) -> Self {
        assert!(sketch != Some(0), "sketch capacity must be positive");
        let mut node = Self {
            id,
            sketch,
            roles: BTreeMap::new(),
            heard: BTreeMap::new(),
            said: BTreeMap::new(),
            sent_full: BTreeSet::new(),
            evaluated: None,
        };
        node.replan(segments);
        node
    }

    /// The monitored segments changed (and the host's record with them).
    /// Evidence from before is void — the segments it described no longer
    /// exist — and the count of evaluated rounds starts afresh with the
    /// emptied record.
    pub fn replan(&mut self, segments: &[PathSegment]) {
        self.roles.clear();
        for (seg, s) in segments.iter().enumerate() {
            let (peer, upstream) = match s.ends() {
                (a, b) if a == self.id => (b, true),
                (a, b) if b == self.id => (a, false),
                _ => continue,
            };
            let role = EndRole {
                seg,
                peer,
                upstream,
            };
            self.roles.insert(s.clone(), role);
        }
        self.heard.clear();
        self.said.clear();
        self.sent_full.clear();
        self.evaluated = None;
    }

    /// What this router's record of segment `seg` holds for the round of
    /// `window`. Trimmed here, where it is read, and not by the pruning:
    /// a peer may send its round-`r` evidence before this router's own
    /// round `r` closes.
    fn held(&self, seg: usize, window: Window, record: &SegmentMonitorSet) -> Report {
        record.report_after(self.id, seg, window.held_from())
    }

    /// Whether a digest goes out at a prefix first: the configured
    /// capacity is larger than [`PREFIX`].
    fn escalates(&self) -> bool {
        self.sketch.is_some_and(|capacity| capacity > PREFIX)
    }

    /// Round `round`, of `window`, closed: for every segment this router
    /// ends, (the other end, the segment's index in the planned list, what
    /// to tell it) — summaries, or digests at a prefix of the node's
    /// capacity, 4 or less. The node keeps the full-capacity digests until
    /// the round is over.
    pub fn close_round(
        &mut self,
        round: u64,
        window: Window,
        record: &SegmentMonitorSet,
    ) -> Vec<(RouterId, usize, Evidence)> {
        let mut out = Vec::with_capacity(self.roles.len());
        for role in self.roles.values() {
            let Some(capacity) = self.sketch else {
                let held = self.held(role.seg, window, record);
                out.push((role.peer, role.seg, Evidence::Summary(held)));
                continue;
            };
            let (judged, held) = (record.digests(self.id, role.seg, round, window, capacity))
                .expect("a segment end digests its own rounds at its own capacity");
            let prefix = capacity.min(PREFIX);
            let said = Evidence::Digest {
                judged: judged.prefix(prefix),
                held: held.prefix(prefix),
            };
            if self.evaluated.is_none_or(|done| round > done) {
                (self.said).insert((round, role.seg), (judged, held));
            }
            out.push((role.peer, role.seg, said));
        }
        out
    }

    /// Takes in `evidence` about `round` of `segment` from `from`, whom
    /// the host has authenticated; `window` is that round's. Only the
    /// segment's other end is heard, and only until the round is
    /// evaluated.
    pub fn receive(
        &mut self,
        from: RouterId,
        round: u64,
        segment: &PathSegment,
        evidence: Evidence,
        window: Window,
        record: &SegmentMonitorSet,
    ) -> Received {
        let Some(&role) = self.roles.get(segment) else {
            return Received::Unknown;
        };
        if from != role.peer {
            return Received::Foreign;
        }
        if self.evaluated.is_some_and(|done| round <= done) {
            return Received::Stale;
        }
        let key = (round, role.seg);
        let whole = record.holds_whole(self.id, role.seg, window);
        let heard = match evidence {
            Evidence::Summary(_) if !whole => return Received::Disputed,
            Evidence::Summary(report) => Heard::Report(report),
            Evidence::Digest { judged, held } => {
                return self.receive_digest(role, round, window, [&judged, &held], record)
            }
            Evidence::Pull if !whole => return Received::Disputed,
            Evidence::Pull => {
                let held = self.held(role.seg, window, record);
                return Received::Reply(Evidence::Summary(held));
            }
        };
        self.heard.insert(key, heard);
        Received::Stored
    }

    /// Takes in a peer's (judged, held) digest pair for `round`: a prefix
    /// or the full capacity. A pair that certifies is stored. One that
    /// does not is judged on its counts unless something better comes;
    /// a prefix whose counts lie within the configured capacity is
    /// answered with this end's full digest (once per round and segment),
    /// anything else with a pull. A full digest that certifies asks for
    /// this end's in return, unless it went out already.
    fn receive_digest(
        &mut self,
        role: EndRole,
        round: u64,
        window: Window,
        peer: [&ContentDigest; 2],
        record: &SegmentMonitorSet,
    ) -> Received {
        let key = (round, role.seg);
        let capacities = peer.map(|d| d.sketch().capacity());
        let largest = capacities[0].max(capacities[1]);
        if self.sketch.is_some_and(|capacity| largest > capacity) {
            return Received::Refused;
        }
        // This end's side at the full capacity: what it said for the
        // round, or digests of its record if the peer closed first.
        let capacity = self.sketch.unwrap_or(largest);
        let mine = match self.said.get(&key) {
            Some(said) => said.clone(),
            None => match record.digests(self.id, role.seg, round, window, capacity) {
                Some(digests) => digests,
                None => return Received::Reply(Evidence::Pull),
            },
        };
        let prefixes = [mine.0.prefix(capacities[0]), mine.1.prefix(capacities[1])];
        let full = !self.escalates() || capacities == [capacity; 2];
        let full_digest = |(judged, held)| Evidence::Digest { judged, held };
        match self.resolve_digest(role, window, peer, [&prefixes[0], &prefixes[1]], record) {
            Ok(verdict) => {
                self.heard.insert(key, Heard::Verdict(verdict));
                if full && self.escalates() && self.sent_full.insert(key) {
                    return Received::StoredAndReply(full_digest(mine));
                }
                Received::Stored
            }
            Err((lost, fabricated)) => {
                // Judged on the counts unless something better comes: a
                // summary, or a digest that resolves.
                self.heard
                    .entry(key)
                    .or_insert(Heard::Bound(lost, fabricated));
                let apart = |d: &ContentDigest, m: &ContentDigest| {
                    d.sketch().len().abs_diff(m.sketch().len())
                };
                let gap = apart(peer[0], &prefixes[0]).max(apart(peer[1], &prefixes[1]));
                if full || gap > capacity as u64 {
                    Received::Reply(Evidence::Pull)
                } else if self.sent_full.insert(key) {
                    Received::Reply(full_digest(mine))
                } else {
                    Received::Escalated
                }
            }
        }
    }

    /// Attempts to decode the round verdict from a peer's digest pair.
    ///
    /// The exchange reconciles like-with-like — the peer's judged-slice
    /// digest against this end's judged slice, held window against held
    /// window — so the sketch only has to span the *discrepancy* (losses,
    /// packets in flight across a window edge), never the window itself;
    /// that is why both ends hold the same window although only the
    /// upstream end needs the look-back. This end's side is what it said
    /// for the round, or digests of its record if the peer closed first.
    /// The verdict is `tv_pair`'s, `lost = judged(up) ∖ held(down)`,
    /// `fabricated = judged(down) ∖ held(up)`, over multisets. A certified
    /// difference holds each fingerprint once, so per fingerprint `x` (with
    /// `J ⊆ H` at both ends): `x` of `H_mine ∖ H_peer` is in
    /// `J_mine ∖ H_peer` iff every copy of `x` this end holds is judged,
    /// and `x` of `J_peer ∖ J_mine` is in `J_peer ∖ H_mine` iff the same
    /// holds. So the one scan reads `H_mine ∖ J_mine` only — the look-back
    /// strip and the tail, all a streamed record holds exactly.
    ///
    /// `Err` whenever either digest fails certification, with the
    /// (lost, fabricated) lower bounds `|J_up| − |H_down|` and
    /// `|J_down| − |H_up|` (a multiset difference is never smaller than
    /// the difference of the sizes). `mine` are this end's digests at the
    /// peer's capacities.
    fn resolve_digest(
        &self,
        role: EndRole,
        window: Window,
        [judged_d, held_d]: [&ContentDigest; 2],
        [my_judged, my_held]: [&ContentDigest; 2],
        record: &SegmentMonitorSet,
    ) -> Result<PairVerdict, (usize, usize)> {
        // The polynomial splitting wants random points, not secret ones: a
        // function of the input keeps the verdict one too.
        let mut rng = StdRng::seed_from_u64(held_d.mix_sum());
        let certified = diff_digests(judged_d, my_judged, &mut rng)
            .zip(diff_digests(held_d, my_held, &mut rng));
        let Some(((j_add, _), (_, h_rem))) = certified else {
            let gap = |judged: &ContentDigest, held: &ContentDigest| {
                judged.flow().packets.saturating_sub(held.flow().packets) as usize
            };
            let (mine, theirs) = (gap(my_judged, held_d), gap(judged_d, my_held));
            return Err(if role.upstream {
                (mine, theirs)
            } else {
                (theirs, mine)
            });
        };
        // One scan of the record outside the judged slice marks what of
        // `j_add` and `h_rem` this end holds unjudged; none if both are
        // empty.
        let mut unjudged = BTreeSet::new();
        if !(h_rem.is_empty() && j_add.is_empty()) {
            let held = record.held_after(self.id, role.seg, window.held_from());
            let judged = window.judged_span(&held);
            let fps = held.fingerprints();
            for &fp in fps[..judged.start].iter().chain(&fps[judged.end..]) {
                let wanted = |set: &[Fingerprint]| set.binary_search(&fp).is_ok();
                if wanted(&j_add) || wanted(&h_rem) {
                    unjudged.insert(fp);
                }
            }
        }
        let judged_only = |fp: &Fingerprint| !unjudged.contains(fp);
        let mine: Vec<_> = h_rem.into_iter().filter(judged_only).collect();
        let theirs: Vec<_> = j_add.into_iter().filter(judged_only).collect();
        let (lost, fabricated) = if role.upstream {
            (mine, theirs)
        } else {
            (theirs, mine)
        };
        Ok(PairVerdict {
            lost,
            fabricated,
            bottom: false,
        })
    }

    /// Judges `round` — `window` is its — on every segment this router
    /// ends, a peer not heard from reading as ⊥ (the timeout-as-accusation
    /// rule), and retires the round. The policy is conservation of content:
    /// every loss or fabrication counts, however old the entry.
    pub fn evaluate(
        &mut self,
        round: u64,
        window: Window,
        thresholds: &Thresholds,
        record: &SegmentMonitorSet,
    ) -> Vec<Judged> {
        let mut out = Vec::with_capacity(self.roles.len());
        for role in self.roles.values() {
            let heard = self.heard.remove(&(round, role.seg));
            let (verdict, bound) = match heard {
                Some(Heard::Verdict(decoded)) => (decoded, None),
                Some(Heard::Bound(lost, fabricated)) => {
                    (PairVerdict::default(), Some((lost, fabricated)))
                }
                heard => {
                    let peer = match &heard {
                        Some(Heard::Report(report)) => Some(report),
                        _ => None,
                    };
                    let mine = self.held(role.seg, window, record);
                    let (up, down) = if role.upstream {
                        (Some(&mine), peer)
                    } else {
                        (peer, Some(&mine))
                    };
                    (window.judge(up, down, SimTime::ZERO), None)
                }
            };
            let passed = match bound {
                Some((lost, fabricated)) => fabricated == 0 && lost <= thresholds.loss,
                None => verdict.passes(Policy::Content, thresholds),
            };
            out.push(Judged {
                segment: role.seg,
                peer: role.peer,
                verdict,
                bound,
                passed,
            });
        }
        self.retire(round);
        out
    }

    /// `round` is over, with a verdict or (a host's amnesty round) without:
    /// evidence for it or an earlier round is stale from here on, and
    /// whatever arrived for them is dropped.
    pub fn retire(&mut self, round: u64) {
        self.evaluated = Some(round);
        self.heard.retain(|&(r, _), _| r > round);
        self.said.retain(|&(r, _), _| r > round);
        self.sent_full.retain(|&(r, _)| r > round);
    }

    /// Whether waiting longer would tell `round`'s evaluation nothing:
    /// every segment's other end has been heard from, or the round is
    /// over.
    pub fn is_settled(&self, round: u64) -> bool {
        self.evaluated.is_some_and(|done| round <= done)
            || (self.roles.values()).all(|role| self.heard.contains_key(&(round, role.seg)))
    }
}
