//! The host of the live runtime: shards of [`Router`]s, each served by
//! one thread, and [`LiveDeployment`], which sets a run up, serves shard 0
//! on the caller's thread and gathers what the other shards report.
//!
//! A shard owns all of its routers' I/O: the sockets and their `epoll`
//! set, one [`Schedule`] of its routers' deadlines, the clock, the event
//! channel and the mailbox fastpath. It sleeps until a socket is readable
//! or a router's deadline is due, steps routers with the instant and the
//! frame or the timeout, and sends what they said, serving a frame's next
//! hop on the shard at once. Each router keeps its own schedule; the
//! shard only asks it when it is next due. The shard's stop is one more
//! entry on that schedule, and on shard 0 so are the round snapshots.
//!
//! Every shard starts its rounds at one epoch, which shard 0 fixes once
//! the last of the others is ready to serve: [`await_epoch`] and
//! [`fix_epoch`].

use crate::mailbox::{mailboxes, MailboxRouter, ShardMailbox};
use crate::poller;
use crate::router::{flow_pairs, routers, Input, Outputs, Router};
use crate::runtime::{LiveConfig, LiveEvent, LiveOutcome, LiveSpec, LiveStats, NetMetrics};
use crate::timer::Schedule;
use crate::transport::Transport;
use fatih_obs::{MetricsRegistry, MetricsSnapshot, TraceBuffer, TraceJournal, TraceKind};
use fatih_topology::{PathSegment, RouterId, Topology};
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deploys the Πk+2 runtime over real transports. The calling thread
/// serves shard 0 itself, so a deployment of one shard starts no thread.
///
/// # Examples
///
/// A clean one-round deployment over the in-memory loopback hub. The
/// outcome carries the protocol verdicts ([`LiveOutcome::suspicions`]),
/// the final metrics snapshot, per-round snapshots, and the merged trace
/// journal:
///
/// ```
/// use fatih_net::runtime::{FlowSpec, LiveConfig, LiveDeployment, LiveSpec};
/// use fatih_net::transport::LoopbackHub;
/// use fatih_topology::builtin;
/// use std::time::Duration;
///
/// let topo = builtin::line(3);
/// let ids: Vec<_> = topo.routers().collect();
/// let spec = LiveSpec {
///     flows: vec![FlowSpec::new(ids[0], ids[2], 500, Duration::from_millis(5))],
///     ..LiveSpec::default()
/// };
/// let cfg = LiveConfig {
///     tau: Duration::from_millis(120),
///     exchange_budget: Duration::from_millis(80),
///     maturity_lag: Duration::from_millis(30),
///     rounds: 1,
///     ..LiveConfig::default()
/// };
/// let outcome = LiveDeployment::run(&topo, &spec, &cfg, LoopbackHub::group(&ids));
/// assert!(outcome.suspicions.is_empty(), "clean run accuses nobody");
/// assert!(outcome.stats.data_delivered > 0);
/// assert_eq!(outcome.round_metrics.len(), 1);
/// assert_eq!(
///     outcome.metrics.counter("net.frames_sent"),
///     outcome.stats.frames_sent
/// );
/// assert!(!outcome.trace.is_empty());
/// ```
#[derive(Debug)]
pub struct LiveDeployment;

impl LiveDeployment {
    /// Runs `cfg.rounds` wall-clock rounds of Πk+2 end-to-end validation
    /// over the given transports (one per router, matched by
    /// [`Transport::local`]), injecting `spec`'s traffic and droppers.
    /// The routers are partitioned round-robin across `cfg.shards`
    /// shards: the calling thread serves shard 0, and one thread is
    /// spawned for each other shard. Every transport has been dropped,
    /// and every spawned thread joined, when this returns.
    ///
    /// # Panics
    ///
    /// Panics if the transport set does not cover the topology's routers
    /// exactly, or if a flow endpoint has no route.
    pub fn run<T: Transport + 'static>(
        topo: &Topology,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        transports: Vec<T>,
    ) -> LiveOutcome {
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let Prepared {
            shard_nodes,
            mailboxes,
            segments,
        } = Self::prepare(topo, spec, cfg, transports, &metrics);

        // Every round finishes before a shard stops: final evaluation
        // fires at rounds·τ + budget after the epoch, and the slack lets
        // the last alerts cross the wire.
        let stop = cfg.tau * (cfg.rounds as u32) + cfg.exchange_budget + Duration::from_millis(300);
        let stop_ns = stop.as_nanos() as u64;
        let (event_tx, event_rx) = mpsc::channel::<LiveEvent>();
        let (ready_tx, ready_rx) = mpsc::channel();

        let mut shards = (shard_nodes.into_iter().zip(mailboxes).enumerate())
            .map(|(s, (nodes, mb))| (s, Shard::new(s as u32, nodes, *cfg, mb, metrics.clone())));
        let (_, mut first) = shards.next().expect("at least one shard");
        let workers: Vec<_> = shards
            .map(|(s, shard)| {
                let (tx, ready) = (event_tx.clone(), ready_tx.clone());
                std::thread::Builder::new()
                    .name(format!("shard-{s}"))
                    .spawn(move || shard.run(stop_ns, || await_epoch(ready), &tx).0)
                    .expect("spawn shard thread")
            })
            .collect();
        drop(ready_tx);
        // The caller serves shard 0: it fixes the epoch once the others
        // are ready and takes the round snapshots on its schedule. Its
        // transports are dropped when it returns, as a worker's are
        // before its join.
        first.snapshots = Some(RoundSnapshots::new(&registry, cfg));
        let (first_trace, round_metrics) = first.run(stop_ns, || fix_epoch(ready_rx), &event_tx);
        drop(event_tx);

        let mut buffers = Vec::with_capacity(workers.len() + 1);
        buffers.push(first_trace);
        for h in workers {
            buffers.push(h.join().expect("shard thread panicked"));
        }
        let trace = TraceJournal::from_buffers(buffers);
        let events: Vec<LiveEvent> = event_rx.iter().collect();
        let suspicions = events
            .iter()
            .filter_map(|e| match e {
                LiveEvent::SuspicionRaised { suspicion, .. } => Some(suspicion.clone()),
                _ => None,
            })
            .collect();
        let metrics = registry.snapshot();
        LiveOutcome {
            suspicions,
            events,
            stats: LiveStats::from_snapshot(&metrics),
            metrics,
            round_metrics,
            trace,
            segments,
        }
    }

    /// Everything a run sets up before its clock starts: one router per
    /// router of the topology — built *before* the epoch is fixed, so that
    /// monitor construction for hundreds of routers does not eat into
    /// round 0 — dealt round-robin onto the shards with its transport.
    fn prepare<T: Transport>(
        topo: &Topology,
        spec: &LiveSpec,
        cfg: &LiveConfig,
        transports: Vec<T>,
        metrics: &NetMetrics,
    ) -> Prepared<T> {
        let mut by_router: HashMap<RouterId, T> =
            transports.into_iter().map(|t| (t.local(), t)).collect();
        let (routers, segments) = routers(topo, spec, &flow_pairs(spec), cfg, metrics);
        assert_eq!(
            by_router.len(),
            routers.len(),
            "need exactly one transport per router"
        );
        let n_shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get().saturating_sub(1))
                .unwrap_or(1)
        } else {
            cfg.shards
        }
        .clamp(1, routers.len().max(1));

        let mailboxes = if cfg.mailbox_fastpath {
            let shard_of = (routers.iter().enumerate())
                .map(|(i, r)| (r.id, i % n_shards))
                .collect();
            let (mut to, boxes) = mailboxes(shard_of, n_shards);
            to.attach_counters(metrics.mailbox_frames.clone());
            boxes.into_iter().map(|b| Some((to.clone(), b))).collect()
        } else {
            (0..n_shards).map(|_| None).collect()
        };
        let mut shard_nodes: Vec<Vec<(Router, T)>> = (0..n_shards).map(|_| Vec::new()).collect();
        for (i, router) in routers.into_iter().enumerate() {
            let transport = by_router.remove(&router.id).expect("transport per router");
            shard_nodes[i % n_shards].push((router, transport));
        }
        Prepared {
            shard_nodes,
            mailboxes,
            segments,
        }
    }
}

/// A spawned shard's half of the start protocol: it tells shard 0 that it
/// is ready to serve, through `ready`, and returns the epoch shard 0 then
/// fixes.
fn await_epoch(ready: mpsc::Sender<mpsc::Sender<Instant>>) -> Instant {
    let (go, epoch) = mpsc::channel();
    ready.send(go).expect("shard 0 awaits the other shards");
    // Shard 0 waits for every sender to be gone.
    drop(ready);
    epoch.recv().expect("shard 0 fixes the epoch")
}

/// Shard 0's half, on the caller's thread, once it is ready itself: when
/// every shard holding a sender of `ready` has signalled (or died trying),
/// reads the clock once and hands that instant to each of them as the
/// epoch. With no other shard, nothing is waited for.
fn fix_epoch(ready: mpsc::Receiver<mpsc::Sender<Instant>>) -> Instant {
    let shards: Vec<mpsc::Sender<Instant>> = ready.iter().collect();
    let epoch = Instant::now();
    for go in shards {
        let _ = go.send(epoch);
    }
    epoch
}

/// What [`LiveDeployment::prepare`] hands to `run`.
struct Prepared<T: Transport> {
    /// The routers of each shard with their transports, in shard order.
    shard_nodes: Vec<Vec<(Router, T)>>,
    /// Each shard's ends of the mailbox fabric, when the fastpath is on.
    mailboxes: Vec<Option<(MailboxRouter, ShardMailbox)>>,
    /// The segments under monitoring.
    segments: Vec<PathSegment>,
}

/// Per-node receive bound: how many frames one node may drain per pass
/// before yielding to its shard-mates.
const RECV_SWEEP: usize = 64;

/// Longest an idle shard waits while something it serves cannot wake it:
/// an endpoint that is not in the poll set, or a mailbox.
const SWEEP_WAIT_NS: u64 = 500_000;

/// Longest a shard asks its poller to wait. Linux lets a poll timeout run
/// late by the larger of the thread's timer slack (50 µs by default) and
/// 0.1 % of the timeout (`select_estimate_accuracy`, fs/select.c). A wait
/// of at most 1 000 × 50 µs therefore ends within 50 µs of its deadline,
/// where the ≈ 300 ms drain before the stop, waited in one piece, ended
/// about 0.3 ms late.
const MAX_WAIT_NS: u64 = 50_000_000;

/// How long after a round's evaluation deadline shard 0 snapshots the
/// registry for that round.
const SNAPSHOT_LAG: Duration = Duration::from_millis(50);

/// Shard 0's round snapshots: the deployment's registry, read at
/// `(r+1)·τ + budget + 50 ms` after the epoch for each round `r`, one
/// more entry on the shard's schedule. Callers diff neighbouring
/// snapshots into per-round costs.
struct RoundSnapshots {
    registry: MetricsRegistry,
    /// Each round's instant, and the snapshot filled then. Every name is
    /// in place before the epoch, so filling one allocates nothing.
    rounds: Vec<(u64, MetricsSnapshot)>,
    /// How many have been filled.
    taken: usize,
}

impl RoundSnapshots {
    fn new(registry: &MetricsRegistry, cfg: &LiveConfig) -> Self {
        let names = registry.snapshot();
        let tau = cfg.tau.as_nanos() as u64;
        let after = (cfg.exchange_budget + SNAPSHOT_LAG).as_nanos() as u64;
        let rounds = (1..=cfg.rounds)
            .map(|r| (r * tau + after, names.clone()))
            .collect();
        Self {
            registry: registry.clone(),
            rounds,
            taken: 0,
        }
    }

    /// When the next snapshot is due; `None` once every one is taken.
    fn due(&self) -> Option<u64> {
        self.rounds.get(self.taken).map(|&(at, _)| at)
    }

    /// Fills the next snapshot.
    fn take(&mut self) {
        if let Some((_, snap)) = self.rounds.get_mut(self.taken) {
            self.registry.snapshot_into(snap);
            self.taken += 1;
        }
    }

    /// Every round's snapshot; those whose instant the shard did not
    /// reach — every transport closed under it first — are taken now.
    fn into_rounds(mut self) -> Vec<MetricsSnapshot> {
        while self.due().is_some() {
            self.take();
        }
        self.rounds.into_iter().map(|(_, snap)| snap).collect()
    }
}

/// One thread's shard of routers.
struct Shard<T: Transport> {
    nodes: Vec<Router>,
    /// Each node's endpoint.
    links: Vec<T>,
    /// Per node: its endpoint errored out, and the shard no longer polls it.
    closed: Vec<bool>,
    index_of: HashMap<RouterId, usize>,
    /// Open endpoints that are not in this shard's poll set: nothing
    /// announces their frames, so every pass polls them. Whether an
    /// endpoint can be waited on is its own business — it registers on
    /// first poll or it does not — and it leaves this list once it has.
    swept: Vec<usize>,
    /// Nodes a shard-mate sent a frame to, one entry per frame, served
    /// depth-first: a pass pops the top one, takes one frame, and pushes
    /// every shard-mate the node sent to, so a forwarded frame is received
    /// next, whatever the index of the router it went to.
    work: Vec<usize>,
    /// Per node: the frames shard-mates sent it that no poll has looked
    /// for yet. A node is polled once per such frame, and never for a
    /// frame nobody sent. An entry of `work` whose node has none left is
    /// skipped.
    due: Vec<u32>,
    /// Per node: the poller or the sweep reported it readable, or it
    /// yielded with frames left — how many, nothing says — so it is polled
    /// until it comes back empty.
    reported: Vec<bool>,
    /// Reported nodes, polled one frame at a time once `work` is empty, so
    /// each frame's hops on the shard are served before the next frame.
    drain: Vec<usize>,
    /// Per node: the pass it last received in, and how many frames it
    /// took in that pass.
    taken: Vec<(u64, usize)>,
    /// Nodes that took [`RECV_SWEEP`] frames in this pass: they are
    /// reported, and open the next pass.
    yielded: Vec<usize>,
    /// Passes made so far.
    passes: u64,
    /// Endpoints whose transport has not errored out.
    open: usize,
    /// When the last wait returned: the shard has been busy since.
    woke: u64,
    /// Scratch for the poller's answer.
    ready: Vec<RouterId>,
    /// Where every node's frames are received: one buffer for the shard.
    recv_buf: Vec<u8>,
    /// Every node's deadline by index, the stop as index `nodes.len()`,
    /// and the next round snapshot as index `nodes.len() + 1`.
    schedule: Schedule,
    /// Shard 0's round snapshots; `None` on every other shard.
    snapshots: Option<RoundSnapshots>,
    /// The fastpath: the sending half to every shard, and this one's
    /// receiving half.
    mailbox: Option<(MailboxRouter, ShardMailbox)>,
    /// Time zero of the shard's clock: when it was built, until the start
    /// protocol fixes the deployment's.
    epoch: Instant,
    metrics: NetMetrics,
    /// What the step in progress says. Its trace ring is this shard's:
    /// written only by its thread, handed back when the shard stops.
    out: Outputs,
}

impl<T: Transport> Shard<T> {
    fn new(
        shard: u32,
        nodes: Vec<(Router, T)>,
        cfg: LiveConfig,
        mailbox: Option<(MailboxRouter, ShardMailbox)>,
        metrics: NetMetrics,
    ) -> Self {
        let (nodes, links): (Vec<Router>, Vec<T>) = nodes.into_iter().unzip();
        let index_of = nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
        let mut schedule = Schedule::new(nodes.len() + 2);
        for (i, node) in nodes.iter().enumerate() {
            schedule.arm(i, node.deadline());
        }
        Self {
            swept: (0..nodes.len()).collect(),
            work: Vec::new(),
            due: vec![0; nodes.len()],
            reported: vec![false; nodes.len()],
            drain: Vec::new(),
            taken: vec![(0, 0); nodes.len()],
            yielded: Vec::new(),
            passes: 0,
            closed: vec![false; nodes.len()],
            open: nodes.len(),
            woke: 0,
            ready: Vec::new(),
            recv_buf: Vec::new(),
            nodes,
            links,
            index_of,
            schedule,
            snapshots: None,
            mailbox,
            epoch: Instant::now(),
            metrics,
            out: Outputs::new(TraceBuffer::new(shard, cfg.trace_capacity)),
        }
    }

    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.epoch)
            .as_nanos() as u64
    }

    /// Installs the shard's poller, learns the epoch from `start` — the
    /// shard's half of the start protocol — and serves the shard from
    /// there until `stop_ns` after it. Returns the shard's trace ring and,
    /// on shard 0, the round snapshots.
    fn run(
        mut self,
        stop_ns: u64,
        start: impl FnOnce() -> Instant,
        events: &mpsc::Sender<LiveEvent>,
    ) -> (TraceBuffer, Vec<MetricsSnapshot>) {
        let n = self.nodes.len();
        self.schedule.arm(n, Some(stop_ns));
        let first_snapshot = self.snapshots.as_ref().and_then(RoundSnapshots::due);
        self.schedule.arm(n + 1, first_snapshot);
        // This shard's sockets find the poller through the thread, so
        // they register through whatever wraps them.
        let poller = poller::install();
        self.epoch = start();
        let now = self.now_ns();
        for node in &self.nodes {
            let by = u32::from(node.id);
            (self.out.trace).record(now, TraceKind::RoundStart, by, 0, 0);
        }
        let mut handled = 0;
        // Until every transport closed under us, or the stop. Timeouts
        // run after the pass, so a pump reads the acks already queued
        // before it resends; what they send a shard-mate is served at once.
        while self.open > 0 {
            self.wait(&poller, handled);
            handled = self.pass(&poller, events);
            if !self.fire_timeouts(events) {
                break;
            }
            if !self.work.is_empty() {
                handled += self.pass(&poller, events);
            }
        }

        for (node, link) in self.nodes.iter_mut().zip(&self.links) {
            node.finish();
            self.metrics.wire_bytes_sent.add(link.bytes_sent());
            self.metrics.wire_bytes_recv.add(link.bytes_recv());
        }
        (self.metrics.shard_busy_ns).add(self.now_ns().saturating_sub(self.woke));
        let rounds = self
            .snapshots
            .map_or_else(Vec::new, RoundSnapshots::into_rounds);
        (self.out.trace, rounds)
    }

    /// Steps node `ni` with `input` at `now` — timing the step against
    /// the clock if it ran a stage — sends the frames it produced and
    /// counts each one due at the shard-mate it went to, in send order, so
    /// the last one sent to is on top, and re-arms the node.
    fn step(&mut self, ni: usize, now: u64, input: Input<'_>, events: &mpsc::Sender<LiveEvent>) {
        // A timeout steps at its batch's instant; its stage starts now.
        let started = match input {
            Input::Timeout => self.now_ns(),
            _ => now,
        };
        self.nodes[ni].step(now, input, &mut self.out);
        let timed = std::mem::take(&mut self.out.timed);
        if timed.contains(&true) {
            let spent = self.now_ns().saturating_sub(started);
            let m = &self.metrics;
            let stages = [&m.round_end_ns, &m.round_eval_ns, &m.digest_resolve_ns];
            for (stage, _) in stages.iter().zip(timed).filter(|(_, ran)| *ran) {
                stage.record(spent);
            }
        }
        for (dst, at) in self.out.frames.drain(..) {
            let bytes = &self.out.bytes[at];
            let mailed =
                (self.mailbox.as_ref()).is_some_and(|(to, _)| to.deliver(dst, bytes.to_vec()));
            if !mailed {
                let _ = self.links[ni].send(dst, bytes);
                if let Some(&di) = self.index_of.get(&dst) {
                    self.due[di] += 1;
                    self.work.push(di);
                }
            }
        }
        self.out.bytes.clear();
        for event in self.out.events.drain(..) {
            let _ = events.send(event);
        }
        self.schedule.arm(ni, self.nodes[ni].deadline());
    }

    /// Steps every node whose deadline has come with a timeout, all at one
    /// instant, in index order, and takes a round snapshot that has come;
    /// an entry whose node is not due any more steps nobody. Returns false
    /// once the stop is due.
    fn fire_timeouts(&mut self, events: &mpsc::Sender<LiveEvent>) -> bool {
        let now = self.now_ns();
        // The two indices past the last node are the stop, due once it
        // pops, and the next round snapshot.
        let (stop, snapshot) = (self.nodes.len(), self.nodes.len() + 1);
        while let Some(i) = (self.schedule).next_due(now, |i| match self.nodes.get(i) {
            Some(node) => node.deadline(),
            None if i == stop => Some(now),
            None => self.snapshots.as_ref().and_then(RoundSnapshots::due),
        }) {
            if i == stop {
                return false;
            }
            if i == snapshot {
                let rounds = self.snapshots.as_mut().expect("armed on shard 0 only");
                rounds.take();
                self.schedule.arm(snapshot, rounds.due());
                continue;
            }
            self.step(i, now, Input::Timeout, events);
        }
        true
    }

    /// Blocks until a socket of this shard is readable or the next timer
    /// is due, and reports the readable nodes. It does not block while
    /// work is queued. `handled` is what the previous pass got done.
    /// Counts the time since the previous wait as busy.
    fn wait(&mut self, poller: &poller::Installed, handled: usize) {
        let now = self.now_ns();
        (self.metrics.shard_busy_ns).add(now.saturating_sub(self.woke));
        let wait = self.wait_ns(now, handled);
        if wait > 0 {
            self.metrics.shard_waits.inc();
        }
        self.ready.clear();
        if poller.wait(Duration::from_nanos(wait), &mut self.ready) {
            self.metrics.shard_sleeps.inc();
        }
        self.woke = self.now_ns();
        // Only this shard's endpoints are ever polled on this thread.
        for i in 0..self.ready.len() {
            self.report(self.index_of[&self.ready[i]]);
        }
    }

    /// The timeout [`wait`](Self::wait) gives the poller at `now`: none
    /// while work is queued, else until the next entry on the schedule, at
    /// most [`MAX_WAIT_NS`].
    fn wait_ns(&self, now: u64, handled: usize) -> u64 {
        // Only a shard driven by hand has no stop on its schedule.
        let until_timer = (self.schedule.next_deadline())
            .map_or(SWEEP_WAIT_NS, |d| d.saturating_sub(now))
            .min(MAX_WAIT_NS);
        // Nothing announces a frame for a swept endpoint or the mailbox:
        // while the last pass found work there may be more, and an idle
        // wait stays short.
        let swept = self.mailbox.is_some() || !self.swept.is_empty();
        match (swept, handled) {
            _ if !self.work.is_empty() || !self.drain.is_empty() => 0,
            (false, _) => until_timer,
            (true, 0) => until_timer.min(SWEEP_WAIT_NS),
            (true, _) => 0,
        }
    }

    /// Marks node `ni` to be polled until it comes back empty.
    fn report(&mut self, ni: usize) {
        if !std::mem::replace(&mut self.reported[ni], true) {
            self.drain.push(ni);
        }
    }

    /// One receive pass, run to completion: drains the mailbox, then
    /// serves each frame a shard-mate sent, depth-first, so a frame
    /// forwarded to a shard-mate is received before anything else and a
    /// packet crosses every hop on this shard, one packet after another.
    /// A node is polled once per such frame. Once that work is done, each
    /// reported node is polled until it comes back empty, one frame at a
    /// time, each frame's hops served before the next. A node that took
    /// [`RECV_SWEEP`] frames yields, and opens the next pass. Returns the
    /// number of frames handled.
    fn pass(&mut self, poller: &poller::Installed, events: &mpsc::Sender<LiveEvent>) -> usize {
        self.metrics.shard_passes.inc();
        self.passes += 1;
        let mut handled = 0usize;
        if let Some(envelopes) = self.mailbox.as_mut().map(|(_, mb)| mb.drain(512)) {
            for env in envelopes {
                if let Some(&ni) = self.index_of.get(&env.dst) {
                    self.step(ni, self.now_ns(), Input::Frame(&env.bytes), events);
                    handled += 1;
                }
            }
        }
        for i in 0..self.swept.len() {
            self.report(self.swept[i]);
        }
        let (mut polls, mut empty) = (0u64, 0u64);
        loop {
            let (ni, sent) = match self.work.pop() {
                Some(ni) => (ni, true),
                None => match self.drain.pop() {
                    Some(ni) => (ni, false),
                    None => break,
                },
            };
            let taken = &mut self.taken[ni];
            if taken.0 != self.passes {
                *taken = (self.passes, 0);
            }
            let stale = if sent {
                self.due[ni] == 0
            } else {
                !self.reported[ni]
            };
            if stale || self.closed[ni] || taken.1 == RECV_SWEEP {
                continue;
            }
            if sent {
                self.due[ni] -= 1;
            }
            polls += 1;
            // A crashed node is still drained (its frames fall on the
            // floor): a readable socket nobody reads would end every wait
            // at once.
            match self.links[ni].recv_into(&mut self.recv_buf) {
                Ok(Some(n)) => {
                    taken.1 += 1;
                    if taken.1 == RECV_SWEEP {
                        self.reported[ni] = true;
                        self.yielded.push(ni);
                    } else if !sent {
                        self.drain.push(ni);
                    }
                    let buf = std::mem::take(&mut self.recv_buf);
                    self.step(ni, self.now_ns(), Input::Frame(&buf[..n]), events);
                    self.recv_buf = buf;
                    handled += 1;
                }
                Ok(None) => {
                    empty += 1;
                    // Nothing is left that anybody sent.
                    (self.due[ni], self.reported[ni]) = (0, false);
                }
                Err(_) => {
                    empty += 1;
                    (self.due[ni], self.reported[ni]) = (0, false);
                    self.closed[ni] = true;
                    self.open -= 1;
                    poller.deregister(self.nodes[ni].id);
                }
            }
        }
        std::mem::swap(&mut self.drain, &mut self.yielded);
        let (nodes, closed) = (&self.nodes, &self.closed);
        self.swept
            .retain(|&ni| !closed[ni] && !poller.is_registered(nodes[ni].id));
        self.metrics.recv_polls.add(polls);
        self.metrics.recv_polls_empty.add(empty);
        handled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::FlowSpec;
    use crate::transport::{LoopbackHub, NetError, UdpNet};
    use fatih_topology::builtin;
    use std::collections::HashSet;
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;

    /// Round length of a hand-driven shard: no round work falls due unless
    /// a test moves the clock there.
    const TAU: Duration = Duration::from_secs(3_600);

    /// Every router of `topo` on one hand-driven shard over real sockets,
    /// carrying one packet every [`INTERVAL`] on each (source,
    /// destination) index pair of `flows`.
    #[cfg(target_os = "linux")]
    fn udp_shard(topo: &Topology, flows: &[(usize, usize)]) -> (Shard<UdpNet>, MetricsRegistry) {
        udp_shard_every(topo, flows, INTERVAL)
    }

    /// Flow interval of a hand-driven shard.
    const INTERVAL: Duration = Duration::from_millis(100);

    /// [`udp_shard`], one packet every `interval`.
    #[cfg(target_os = "linux")]
    fn udp_shard_every(
        topo: &Topology,
        flows: &[(usize, usize)],
        interval: Duration,
    ) -> (Shard<UdpNet>, MetricsRegistry) {
        let ids: Vec<RouterId> = topo.routers().collect();
        let transports = UdpNet::bind_group(&ids).expect("bind loopback sockets");
        shard_over(topo, flows, interval, transports)
    }

    /// [`udp_shard_every`] over the given endpoints, one per router.
    #[cfg(target_os = "linux")]
    fn shard_over<T: Transport>(
        topo: &Topology,
        flows: &[(usize, usize)],
        interval: Duration,
        transports: Vec<T>,
    ) -> (Shard<T>, MetricsRegistry) {
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: (flows.iter())
                .map(|&(s, d)| FlowSpec::new(ids[s], ids[d], 800, interval))
                .collect(),
            ..LiveSpec::default()
        };
        let cfg = LiveConfig {
            tau: TAU,
            exchange_budget: Duration::from_secs(1),
            shards: 1,
            response: false,
            ..LiveConfig::default()
        };
        let registry = MetricsRegistry::new();
        let metrics = NetMetrics::registered(&registry);
        let mut prepared = LiveDeployment::prepare(topo, &spec, &cfg, transports, &metrics);
        let nodes = prepared.shard_nodes.remove(0);
        let shard = Shard::new(0, nodes, cfg, None, metrics);
        (shard, registry)
    }

    /// The shard's clock moves on to `at`, unless it is there already.
    #[cfg(target_os = "linux")]
    fn clock_to<T: Transport>(shard: &mut Shard<T>, at: u64) {
        shard.epoch -= Duration::from_nanos(at.saturating_sub(shard.now_ns()));
    }

    /// What a flow tick does: the clock moves on to node `ni`'s deadline
    /// and the shard fires what is due there.
    #[cfg(target_os = "linux")]
    fn tick<T: Transport>(shard: &mut Shard<T>, ni: usize, events: &mpsc::Sender<LiveEvent>) {
        let at = shard.nodes[ni].deadline().expect("a flow tick");
        clock_to(shard, at);
        assert!(shard.fire_timeouts(events));
    }

    /// Drives one shard by hand, pass by pass, over real sockets: a packet
    /// injected at the head of a 6-line reaches its tail within *one*
    /// pass, because every hop marks the next router due before the pass
    /// gets to it; an idle pass polls nobody; and a crashed router's
    /// socket is still drained, so it cannot keep the poller awake.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_forwarded_frame_is_received_within_the_same_pass() {
        let (mut shard, registry) = udp_shard(&builtin::line(6), &[(0, 5)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let counter = |name: &str| registry.snapshot().counter(name);

        // Nothing is in flight: the first pass sweeps every endpoint once,
        // which is when each joins the poll set.
        assert_eq!(shard.pass(&poller, &events), 0);
        assert_eq!(counter("net.recv_polls"), 6);
        assert!(shard.swept.is_empty());

        // Router 0's flow ticks: it injects one packet.
        tick(&mut shard, 0, &events);
        assert_eq!(shard.due, [0, 1, 0, 0, 0, 0]);
        assert_eq!(shard.pass(&poller, &events), 5, "five hops, one pass");
        assert_eq!(counter("net.data_delivered"), 1);
        assert_eq!(counter("net.shard_passes"), 2);
        // One frame at each of routers 1..=5, and no empty poll.
        assert_eq!(counter("net.recv_polls"), 6 + 5);

        // Idle: the wait runs out with nothing readable, the pass visits
        // nobody.
        shard.wait(&poller, 5);
        assert_eq!(shard.pass(&poller, &events), 0);
        assert_eq!(counter("net.recv_polls"), 6 + 5);
        assert_eq!(counter("net.shard_waits"), 1);

        // Router 3 crashes: the next packet dies there, but its frame is
        // taken off the socket all the same and the shard goes quiet.
        shard.nodes[3].alive = false;
        tick(&mut shard, 0, &events);
        assert_eq!(shard.pass(&poller, &events), 3);
        assert_eq!(counter("net.data_delivered"), 1);
        shard.wait(&poller, 3);
        assert!(shard.due.iter().all(|&d| d == 0), "{:?}", shard.due);
        assert!(shard.drain.is_empty(), "{:?}", shard.reported);
    }

    /// The other way along the 6-line: every hop goes to a lower-indexed
    /// router, and the packet still crosses in one pass, because a pass
    /// serves each frame's next hop at once, whatever its index. (Served
    /// in index order, each hop waited for the next pass: five passes.)
    #[cfg(target_os = "linux")]
    #[test]
    fn a_packet_crosses_a_descending_line_in_one_pass() {
        let (mut shard, registry) = udp_shard(&builtin::line(6), &[(5, 0)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let counter = |name: &str| registry.snapshot().counter(name);

        assert_eq!(shard.pass(&poller, &events), 0);
        tick(&mut shard, 5, &events);
        assert_eq!(shard.pass(&poller, &events), 5, "five hops, one pass");
        assert_eq!(counter("net.data_delivered"), 1);
        assert_eq!(counter("net.shard_passes"), 2);
        // One frame at each of routers 4..=0, and no empty poll.
        assert_eq!(counter("net.recv_polls"), 6 + 5);
    }

    /// A router with frames from outside the shard — sent past every step,
    /// as another shard's router would, and reported by the poller — that
    /// also gets a shard-mate's frame is emptied within that pass, the
    /// shard-mate's frame and all. Polled only once per frame a shard-mate
    /// sent, it would keep one frame queued behind each new packet, for
    /// ever.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_reported_router_is_emptied_in_the_pass_a_shard_mate_sends_it_a_frame() {
        let (mut shard, registry) = udp_shard(&builtin::line(3), &[(0, 2)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let delivered = || registry.snapshot().counter("net.data_delivered");

        assert_eq!(shard.pass(&poller, &events), 0);
        // Three of router 0's packets reach router 1's socket, and the
        // shard forgets it sent them: to it they came from outside.
        for _ in 0..3 {
            tick(&mut shard, 0, &events);
        }
        shard.due[1] = 0;
        shard.work.clear();
        shard.wait(&poller, 0);
        assert!(shard.reported[1], "the poller reports router 1");
        // A fourth comes from a shard-mate.
        tick(&mut shard, 0, &events);
        assert_eq!(
            shard.pass(&poller, &events),
            8,
            "four packets, two hops each"
        );
        assert_eq!(delivered(), 4);
        shard.wait(&poller, 8);
        assert_eq!(shard.pass(&poller, &events), 0, "nothing was left");
    }

    /// A [`UdpNet`] endpoint that logs its router, in one log its group
    /// shares, each time it receives a frame: the order the shard served
    /// the routers in.
    #[cfg(target_os = "linux")]
    struct Logged {
        inner: UdpNet,
        log: Arc<Mutex<Vec<RouterId>>>,
    }

    #[cfg(target_os = "linux")]
    impl Transport for Logged {
        fn local(&self) -> RouterId {
            self.inner.local()
        }

        fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
            self.inner.send(dst, frame)
        }

        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
            self.inner.try_recv()
        }

        fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
            let got = self.inner.recv_into(buf)?;
            if got.is_some() {
                self.log.lock().unwrap().push(self.local());
            }
            Ok(got)
        }
    }

    /// Two flows that tick together on one shard, 3 → 0 and 7 → 4 on an
    /// 8-line: the first packet is delivered before the second one's
    /// second hop is received. Served in index order they crossed in lock
    /// step, a hop of each per pass, and finished together.
    #[cfg(target_os = "linux")]
    #[test]
    fn packets_that_tick_together_complete_one_after_the_other() {
        let topo = builtin::line(8);
        let ids: Vec<RouterId> = topo.routers().collect();
        let log = Arc::new(Mutex::new(Vec::new()));
        let transports = (UdpNet::bind_group(&ids).expect("bind loopback sockets"))
            .into_iter()
            .map(|inner| Logged {
                inner,
                log: Arc::clone(&log),
            })
            .collect();
        let (mut shard, registry) = shard_over(&topo, &[(3, 0), (7, 4)], INTERVAL, transports);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        assert_eq!(shard.nodes[3].deadline(), shard.nodes[7].deadline());
        tick(&mut shard, 3, &events);
        while shard.pass(&poller, &events) > 0 {}
        assert_eq!(registry.snapshot().counter("net.data_delivered"), 2);

        let received = log.lock().unwrap().clone();
        // Each router of the two paths is on one of them only.
        let at = |i: usize| {
            let id = shard.nodes[i].id;
            (received.iter().position(|&r| r == id)).expect("received a frame")
        };
        let (first_sink, other_second_hop) = if at(0) < at(4) { (0, 5) } else { (4, 1) };
        assert!(
            at(first_sink) < at(other_second_hop),
            "frames received in order: {received:?}"
        );
    }

    /// The start protocol: a shard held back 50 ms before it says it is
    /// ready does not find the epoch already past. Every shard gets the
    /// one epoch, and it is no earlier than the last ready signal.
    #[test]
    fn the_epoch_is_fixed_once_the_last_shard_is_ready() {
        let (ready_tx, ready_rx) = mpsc::channel();
        let shards: Vec<_> = (0..3)
            .map(|s| {
                let ready = ready_tx.clone();
                std::thread::spawn(move || {
                    if s == 1 {
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    let ready_at = Instant::now();
                    (ready_at, await_epoch(ready))
                })
            })
            .collect();
        drop(ready_tx);
        let epoch = fix_epoch(ready_rx);
        for shard in shards {
            let (ready_at, theirs) = shard.join().expect("shard thread");
            assert_eq!(theirs, epoch);
            assert!(ready_at <= epoch, "the epoch came before a shard was ready");
        }
    }

    /// An endpoint that notes, in one set its group shares, the thread of
    /// every send and receive.
    struct Threaded<T> {
        inner: T,
        threads: Arc<Mutex<HashSet<ThreadId>>>,
    }

    impl<T: Transport> Threaded<T> {
        fn noted(&self) {
            self.threads
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
        }
    }

    impl<T: Transport> Transport for Threaded<T> {
        fn local(&self) -> RouterId {
            self.inner.local()
        }

        fn send(&mut self, dst: RouterId, frame: &[u8]) -> Result<(), NetError> {
            self.noted();
            self.inner.send(dst, frame)
        }

        fn try_recv(&mut self) -> Result<Option<Vec<u8>>, NetError> {
            self.noted();
            self.inner.try_recv()
        }

        fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<usize>, NetError> {
            self.noted();
            self.inner.recv_into(buf)
        }
    }

    /// The caller's thread serves shard 0: with one shard every send and
    /// receive is made on it, so no thread was started, and with two
    /// exactly one other thread serves. Either way the run hands back one
    /// round snapshot a round, each holding what the one before it held
    /// and more, and the final snapshot holds at least the last.
    #[test]
    fn the_caller_serves_shard_0_and_takes_a_snapshot_a_round() {
        let topo = builtin::line(4);
        let ids: Vec<RouterId> = topo.routers().collect();
        let spec = LiveSpec {
            flows: vec![FlowSpec::new(ids[0], ids[3], 500, Duration::from_millis(5))],
            ..LiveSpec::default()
        };
        for shards in [1, 2] {
            let cfg = LiveConfig {
                tau: Duration::from_millis(100),
                exchange_budget: Duration::from_millis(60),
                maturity_lag: Duration::from_millis(20),
                rounds: 3,
                shards,
                response: false,
                ..LiveConfig::default()
            };
            let threads = Arc::new(Mutex::new(HashSet::new()));
            let transports = (LoopbackHub::group(&ids).into_iter())
                .map(|inner| Threaded {
                    inner,
                    threads: Arc::clone(&threads),
                })
                .collect();
            let outcome = LiveDeployment::run(&topo, &spec, &cfg, transports);
            let threads = threads.lock().unwrap().clone();
            assert_eq!(threads.len(), shards, "{shards} shards: {threads:?}");
            assert!(threads.contains(&std::thread::current().id()));

            assert_eq!(outcome.round_metrics.len(), cfg.rounds as usize);
            let snapshots = (outcome.round_metrics.iter()).chain([&outcome.metrics]);
            for (earlier, later) in snapshots.clone().zip(snapshots.skip(1)) {
                for (name, &value) in &earlier.counters {
                    assert!(later.counter(name) >= value, "{name} went back");
                }
            }
            let delivered = |r: usize| outcome.round_metrics[r].counter("net.data_delivered");
            assert!(0 < delivered(0) && delivered(0) < delivered(2));
        }
    }

    /// However far off the next entry on its schedule, an idle shard asks
    /// its poller for at most [`MAX_WAIT_NS`], so the kernel's slack on the
    /// wait stays its 50 µs timer slack; a nearer entry is waited for to
    /// the nanosecond.
    #[cfg(target_os = "linux")]
    #[test]
    fn no_wait_is_longer_than_fifty_milliseconds() {
        let (mut shard, _registry) = udp_shard_every(&builtin::line(3), &[], INTERVAL);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        // The first pass puts every endpoint in the poll set.
        assert_eq!(shard.pass(&poller, &events), 0);
        let stop = shard.nodes.len();
        shard.schedule.arm(stop, Some(10_000_000_000));
        assert_eq!(MAX_WAIT_NS, 50_000_000);
        assert_eq!(shard.wait_ns(0, 0), MAX_WAIT_NS);
        assert_eq!(shard.wait_ns(9_990_000_000, 0), 10_000_000);
        assert_eq!(shard.wait_ns(10_000_000_000, 0), 0);
    }

    /// A router's pump is on its schedule only while it awaits an ack:
    /// forwarding data arms none; a round end's reliable summaries arm one
    /// at each sending end, before its evaluation; their acks come back in
    /// the next pass, which leaves those entries stale, and when they fall
    /// due they step nobody and resend nothing.
    #[cfg(target_os = "linux")]
    #[test]
    fn the_pump_is_armed_only_while_a_frame_awaits_its_ack() {
        // One packet: the flow's next tick comes after this test's rounds.
        let (mut shard, registry) = udp_shard_every(&builtin::line(3), &[(0, 2)], TAU * 2);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let (tau, budget) = (TAU.as_nanos() as u64, 1_000_000_000);
        let fired = |shard: &Shard<UdpNet>| shard.out.trace.recorded(TraceKind::TimerFired);
        assert_eq!(shard.pass(&poller, &events), 0);
        tick(&mut shard, 0, &events);
        assert_eq!(shard.pass(&poller, &events), 2);
        for node in 1..3 {
            assert_eq!(
                shard.nodes[node].deadline(),
                Some(tau),
                "data alone arms no pump"
            );
        }

        clock_to(&mut shard, tau);
        assert!(shard.fire_timeouts(&events));
        let ended = fired(&shard);
        let pumps: Vec<u64> = [0, 2]
            .map(|n| shard.nodes[n].deadline().expect("a pump"))
            .into();
        assert!(
            pumps.iter().all(|&d| tau < d && d < tau + budget),
            "{pumps:?}"
        );
        assert_eq!(
            shard.nodes[1].deadline(),
            Some(tau + budget),
            "router 1 sent nothing"
        );

        while shard.pass(&poller, &events) > 0 {}
        for node in 0..3 {
            assert_eq!(shard.nodes[node].deadline(), Some(tau + budget), "acked");
        }
        // The stale entries fall due: nobody is stepped, and each is
        // replaced by its router's evaluation.
        clock_to(&mut shard, pumps[0].max(pumps[1]));
        assert!(shard.fire_timeouts(&events));
        assert_eq!(fired(&shard), ended, "a stale entry steps nobody");
        assert_eq!(registry.snapshot().counter("net.retransmits"), 0);
        assert_eq!(shard.schedule.next_deadline(), Some(tau + budget));
    }

    /// A node with more than `RECV_SWEEP` frames queued takes that many in
    /// one pass and yields; it opens the next pass, with no wait between.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_node_yields_after_its_receive_bound_and_opens_the_next_pass() {
        let (mut shard, registry) = udp_shard(&builtin::line(3), &[(0, 2)]);
        let (events, _event_rx) = mpsc::channel();
        let poller = poller::install();
        let delivered = || registry.snapshot().counter("net.data_delivered");

        assert_eq!(shard.pass(&poller, &events), 0);
        let queued = RECV_SWEEP + 6;
        for _ in 0..queued {
            tick(&mut shard, 0, &events);
        }
        // Router 1 takes its bound; each frame it forwards is delivered.
        assert_eq!(shard.pass(&poller, &events), 2 * RECV_SWEEP);
        assert_eq!(delivered(), RECV_SWEEP as u64);
        assert_eq!(shard.pass(&poller, &events), 2 * (queued - RECV_SWEEP));
        assert_eq!(delivered(), queued as u64);
        assert_eq!(shard.pass(&poller, &events), 0);
    }
}
