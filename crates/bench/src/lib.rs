//! Shared harness code for the figure regenerators and the release gates.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! dissertation's evaluation (see `DESIGN.md` for the full index); this
//! library holds what they share: aligned table printing, CSV output under
//! `results/` ([`publish`]), and the Protocol χ round-by-round experiment harness used
//! by Figures 6.3, 6.5–6.9, 6.11–6.16 and the §6.4.3 comparison. The
//! scenarios of the live verdict gates live here too, one copy for both
//! hosts ([`scenario`], [`add_dropper`], [`churn_scenario`] and their
//! configurations, over [`rocketfuel_like`] and [`pick_flows`]):
//! `tests/gates.rs` deploys them over UDP, the workspace root's
//! `tests/conviction_recovery.rs` and `tests/verdict_gates.rs` on
//! `SimHost`. So do the chaos sweep's draw of link faults and churn
//! ([`transient_chaos`]) and the operation counts behind Chapter 7's
//! overhead table, which `tab_state` renders.

use fatih_core::chi::{ChiConfig, QueueValidator};
use fatih_core::monitor::{Report, ReportEntry};
use fatih_core::pik2::{Evidence, Message};
use fatih_core::threshold::ThresholdDetector;
use fatih_crypto::{Fingerprint, KeyStore};
use fatih_net::codec::{encode_frame, Frame, WireMessage};
use fatih_net::runtime::{
    ChurnAction, ChurnEvent, DropperSpec, FlowSpec, LiveConfig, LiveSpec, SummaryMode,
};
use fatih_sim::{
    Attack, AttackKind, FaultPlan, LinkFaults, Network, Packet, QueueDiscipline, SimTime,
    TcpConfig, VictimFilter,
};
use fatih_stats::Summary;
use fatih_topology::{builtin, LinkParams, PathSegment, RouterId, Routes, Topology};
use fatih_validation::digest::ContentDigest;
use fatih_validation::summary::ContentSummary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Renders a table with left-aligned first column and right-aligned rest.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    for (n, row) in std::iter::once(&header).chain(rows).enumerate() {
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", cell, w = widths[i]);
            } else {
                let _ = write!(out, "  {:>w$}", cell, w = widths[i]);
            }
        }
        out.push('\n');
        if n == 0 {
            let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
            out.push_str(&"-".repeat(total));
            out.push('\n');
        }
    }
    out
}

/// Writes rows as CSV into `results/<name>.csv` (relative to the workspace
/// root when run via `cargo run`), creating the directory if needed, and
/// prints the path written; a filesystem that refuses is skipped silently.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let path = dir.join(format!("{name}.csv"));
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, body))
        .is_ok()
    {
        println!("(csv: {})\n", path.display());
    }
}

/// Prints rows as a table ([`render_table`]) and writes them as
/// `results/<name>.csv` ([`write_csv`]).
pub fn publish(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("{}", render_table(headers, rows));
    write_csv(name, headers, rows);
}

/// A Sprintlink-proportioned ISP graph with `n` routers: AS1239's 972
/// duplex links per 315 routers (≈ 3.1 per router) under its degree cap
/// of 45. The graph is fixed per size.
pub fn rocketfuel_like(n: usize) -> Topology {
    let links = (n * 972 / 315).max(n - 1);
    builtin::isp_like("isp", n, links, 45, 0xF00D ^ n as u64)
}

/// Picks `want` flows for a live deployment whose routed paths span at
/// least `min_len` routers, so every flow produces multi-segment Πk+2
/// monitoring. Small dense topologies may not have paths that long; the
/// requirement degrades one router at a time (never below 3 — one full
/// k+2 segment) until the quota fills. The link-state routes consulted
/// here are the paths a clean deployment forwards on ([one
/// rule](fatih_topology::routing#the-rule)), so a caller may pick its
/// mid-path dropper or off-path actor from them as well.
pub fn pick_flows(
    topo: &Topology,
    want: usize,
    min_len: usize,
    interval: Duration,
    seed: u64,
) -> Vec<FlowSpec> {
    let ids: Vec<RouterId> = topo.routers().collect();
    let routes = topo.link_state_routes();
    let mut rng = StdRng::seed_from_u64(seed ^ ids.len() as u64);
    let mut flows = Vec::with_capacity(want);
    let mut used: BTreeSet<(RouterId, RouterId)> = BTreeSet::new();
    let mut need = min_len;
    while flows.len() < want {
        let mut attempts = 0;
        while flows.len() < want && attempts < 20_000 {
            attempts += 1;
            let s = ids[rng.gen_range(0..ids.len())];
            let d = ids[rng.gen_range(0..ids.len())];
            if s == d || used.contains(&(s, d)) {
                continue;
            }
            let Some(path) = routes.path(s, d) else {
                continue;
            };
            if path.len() < need {
                continue;
            }
            used.insert((s, d));
            flows.push(FlowSpec::new(s, d, 1000, interval));
        }
        if flows.len() < want {
            assert!(
                need > 3,
                "could not find {want} monitored flows even at length >= 3"
            );
            need -= 1;
        }
    }
    flows
}

/// The router count the live verdict gates are enforced at.
pub const GATE_ROUTERS: usize = 128;

/// `Reconcile` mode with a sketch capacity that spans clean-run
/// differences (boundary crossers + in-flight packets) with generous
/// headroom.
pub const RECONCILE: SummaryMode = SummaryMode::Reconcile { capacity: 32 };

/// Seeds which routers carry the scale scenarios' flows.
pub const SCALE_FLOW_SEED: u64 = 0x5CA1E;

/// Seeds which routers carry the response and churn scenarios' flows.
pub const CHURN_FLOW_SEED: u64 = 0xC0FFEE;

/// The round the conviction scenario's dropper starts in; the rounds
/// before it are the pre-attack baseline. It is late enough that a
/// baseline window of a whole round closes before it on either host: the
/// live deployment's snapshots, taken after each round's evaluation
/// deadline, trail the round they follow by `exchange_budget` + 50 ms.
pub const ATTACK_ROUND: usize = 3;

/// `n` Sprintlink-shaped routers carrying `n / 16` (at least 4) flows
/// every 4 ms, each routed over `min_len` or more routers, picked by `seed`.
pub fn scenario(n: usize, min_len: usize, seed: u64) -> (Topology, LiveSpec) {
    let topo = rocketfuel_like(n);
    let flows = pick_flows(
        &topo,
        (n / 16).max(4),
        min_len,
        Duration::from_millis(4),
        seed,
    );
    let spec = LiveSpec {
        flows,
        ..LiveSpec::default()
    };
    (topo, spec)
}

/// Makes the middle router of flow 0's routed path drop 30 % of its
/// transit from round `from` on; returns that router.
pub fn add_dropper(topo: &Topology, spec: &mut LiveSpec, from: u64) -> RouterId {
    let flow = spec.flows[0];
    let routes = topo.link_state_routes();
    let path = routes.path(flow.src, flow.dst).expect("routed flow");
    let router = path.routers()[path.len() / 2];
    spec.droppers = vec![DropperSpec {
        router,
        rate: 0.3,
        seed: 77,
        active_from: from,
    }];
    router
}

/// Two default-timed rounds in `summary` mode, detection only: a reroute
/// around the dropper mid-measurement would skew the control-byte
/// comparison, and the response path has its own gate.
pub fn detect_only(summary: SummaryMode) -> LiveConfig {
    LiveConfig {
        rounds: 2,
        summary,
        response: false,
        ..LiveConfig::default()
    }
}

/// 200 ms rounds, so each scenario takes seconds; response on.
pub fn churn_cfg(rounds: u64) -> LiveConfig {
    LiveConfig {
        tau: Duration::from_millis(200),
        exchange_budget: Duration::from_millis(120),
        maturity_lag: Duration::from_millis(50),
        rounds,
        ..LiveConfig::default()
    }
}

/// `actor` performs `action` `ms` milliseconds into the run.
pub fn churn(ms: u64, actor: RouterId, action: ChurnAction) -> ChurnEvent {
    ChurnEvent {
        at: Duration::from_millis(ms),
        actor,
        action,
    }
}

/// [`scenario`] with flows of 4 or more routers, plus a router no flow's
/// path touches (so churning it never frames honest traffic) with at least
/// two links, and its first neighbour.
pub fn churn_scenario(n: usize) -> (Topology, LiveSpec, RouterId, RouterId) {
    let (topo, spec) = scenario(n, 4, CHURN_FLOW_SEED);
    let routes = topo.link_state_routes();
    let on_path: BTreeSet<RouterId> = (spec.flows.iter())
        .filter_map(|f| routes.path(f.src, f.dst))
        .flat_map(|p| p.routers().to_vec())
        .collect();
    let actor = topo
        .routers()
        .find(|&r| !on_path.contains(&r) && topo.neighbors(r).len() >= 2)
        .expect("an off-path router with degree >= 2");
    let peer = topo.neighbors(actor)[0].0;
    (topo, spec, actor, peer)
}

/// Transient chaos over `topo`, drawn from `seed` and over by `horizon`:
/// the plan gives every link moderate control-fault probabilities (loss
/// below 0.15, duplication and reordering below 0.10, corruption below
/// 0.05) until `horizon`, and the churn script takes one to three link
/// flaps, each a `LinkDown` and a `LinkUp` by both ends (one link's
/// overlapping flaps merged into one outage), and with even odds
/// a crash-restart: a `Crash`, a `ReportDown` by the router's first
/// neighbour at that instant and a `Restart`. Every outage starts in the
/// first half of the horizon and is over by its end. Identical `(seed,
/// topo, horizon)` draw identical plans and scripts.
///
/// The loss bound is chosen so that a retry budget of six or more attempts
/// exhausts with probability ≤ 0.15⁶ ≈ 1.1 × 10⁻⁵ per message.
pub fn transient_chaos(
    seed: u64,
    topo: &Topology,
    horizon: SimTime,
) -> (FaultPlan, Vec<ChurnEvent>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA17_F1A6);
    let mut plan = FaultPlan::new(seed);
    for link in topo.links() {
        plan = plan.with_link_faults(
            link.from,
            link.to,
            LinkFaults {
                loss: rng.gen_range(0.0..0.15),
                duplicate: rng.gen_range(0.0..0.10),
                corrupt: rng.gen_range(0.0..0.05),
                reorder: rng.gen_range(0.0..0.10),
                reorder_delay: SimTime::from_ms(rng.gen_range(1u64..20)),
            },
        );
    }
    let half = horizon.as_ns() / 2;
    let outage = |rng: &mut StdRng| {
        let down = rng.gen_range(0..half.max(1));
        let up = (down + rng.gen_range(1..half.max(2))).min(horizon.as_ns());
        (Duration::from_nanos(down), Duration::from_nanos(up))
    };
    let step = |at, actor, action| ChurnEvent { at, actor, action };
    let links: Vec<_> = topo.links().map(|l| (l.from, l.to)).collect();
    let mut flaps: Vec<_> = (0..rng.gen_range(1usize..4))
        .map(|_| {
            let (a, b) = links[rng.gen_range(0..links.len())];
            let (down, up) = outage(&mut rng);
            ((a.min(b), a.max(b)), down, up)
        })
        .collect();
    // A link's overlapping flaps are one outage: its first `LinkUp` would
    // end them all.
    flaps.sort_unstable();
    let mut outages: Vec<((RouterId, RouterId), Duration, Duration)> = Vec::new();
    for (link, down, up) in flaps {
        match outages.last_mut() {
            Some((last, _, end)) if *last == link && down <= *end => *end = up.max(*end),
            _ => outages.push((link, down, up)),
        }
    }
    let mut script = Vec::new();
    for ((a, b), down, up) in outages {
        for (end, peer) in [(a, b), (b, a)] {
            script.push(step(down, end, ChurnAction::LinkDown(peer)));
            script.push(step(up, end, ChurnAction::LinkUp(peer)));
        }
    }
    if rng.gen_bool(0.5) && topo.router_count() > 2 {
        let router = RouterId::from(rng.gen_range(0u32..topo.router_count() as u32));
        let (down, up) = outage(&mut rng);
        script.push(step(down, router, ChurnAction::Crash));
        if let Some(&(witness, _)) = topo.neighbors(router).first() {
            script.push(step(down, witness, ChurnAction::ReportDown(router)));
        }
        script.push(step(up, router, ChurnAction::Restart));
    }
    (plan.with_probabilistic_until(horizon), script)
}

/// Figures 5.2 and 5.4: the maximum, mean and median number of segments
/// `count` gives a router under `AdjacentFault(k)`, k = 1..8, on the
/// Sprintlink and EBONE shapes, each written as `results/<csv>_<shape>.csv`.
pub fn segment_count_figure(title: &str, csv: &str, count: fn(&Routes, usize) -> Vec<usize>) {
    for (name, topo) in [
        ("sprintlink", builtin::sprintlink_like(1)),
        ("ebone", builtin::ebone_like(1)),
    ] {
        println!(
            "== {title} — {name}: {} routers, {} links, mean degree {:.2}, max {} ==",
            topo.router_count(),
            topo.duplex_link_count(),
            topo.mean_degree(),
            topo.max_degree()
        );
        let routes = topo.link_state_routes();
        let mut rows = Vec::new();
        for k in 1..=8usize {
            let s = Summary::from_iter(count(&routes, k).iter().map(|&c| c as f64));
            rows.push(vec![
                k.to_string(),
                format!("{:.0}", s.max()),
                format!("{:.1}", s.mean()),
                format!("{:.0}", s.median()),
            ]);
            eprintln!("  k={k} done");
        }
        let headers = ["k", "max |Pr|", "avg |Pr|", "median |Pr|"];
        publish(&format!("{csv}_{name}"), &headers, &rows);
    }
}

/// Fingerprints one packet costs under Πk+2 (§5.2) on a routed path of
/// `routers` routers: one at each end of every monitored x-segment of the
/// path, 3 ≤ x ≤ k+2. Data frames carry no MAC, so this is all the keyed
/// hashing a forwarded packet causes.
pub fn fingerprints_per_packet(routers: usize, k: usize) -> usize {
    (3..=routers.min(k + 2))
        .map(|x| 2 * (routers + 1 - x))
        .sum()
}

/// What one end of a monitored 3-router segment sends in a round, each as
/// the length of a real sealed frame from `encode_frame`: a `Full` summary
/// of `entries` entries (`None` past `MAX_FRAME`), a `Reconcile{capacity}`
/// digest pair, and the ack it returns for its peer's frame.
pub fn control_frame_lens(entries: u64, capacity: usize) -> (Option<usize>, usize, usize) {
    let mut keys = KeyStore::with_seed(1);
    (0..3).for_each(|r| keys.register(r));
    let entries = (0..entries).map(|i| ReportEntry {
        fingerprint: Fingerprint::new(i * 131 + 7),
        size: 1000,
        time: SimTime::from_ns(i),
    });
    let report = Report {
        entries: entries.collect(),
    };
    let digest = ContentDigest::of(&report.to_content(), capacity);
    let segment = PathSegment::new((0..3).map(RouterId::from).collect());
    let len = |msg| {
        let (src, dst) = (RouterId::from(0), RouterId::from(2));
        let frame = Frame {
            src,
            dst,
            seq: 1,
            msg,
        };
        encode_frame(&frame, &keys).ok().map(|bytes| bytes.len())
    };
    let pik2 = |evidence| {
        let segment = segment.clone();
        len(WireMessage::Pik2(Message {
            round: 1,
            segment,
            evidence,
        }))
    };
    let judged = digest.clone();
    (
        pik2(Evidence::Summary(report)),
        pik2(Evidence::Digest {
            judged,
            held: digest,
        })
        .expect("a digest fits a frame"),
        len(WireMessage::Ack { msg_id: 1 }).expect("an ack fits a frame"),
    )
}

/// Points a `Reconcile{capacity}` digest evaluates its characteristic
/// polynomial at: the field multiplications each distinct entry costs it.
pub fn sketch_points(capacity: usize) -> usize {
    let digest = ContentDigest::of(&ContentSummary::default(), capacity);
    digest.sketch().evals().len()
}

/// Dolev–Strong's cost for one broadcast among `n` participants, all
/// correct, tolerating f ≥ 1 faults (`fatih_core::consensus::dolev_strong`):
/// the sender signs and sends to the other n − 1, each of them checks that
/// signature, signs and relays to its n − 1 others, who check both
/// signatures and extract nothing new. Returns (messages, signatures made,
/// signature checks).
pub fn dolev_strong_counts(n: usize) -> (usize, usize, usize) {
    let relays = (n - 1) * (n - 1);
    (n - 1 + relays, n, n - 1 + 2 * relays)
}

/// Workload shape for the χ experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Constant-bit-rate sources (NS-style simulation, Fig 6.3).
    Cbr {
        /// Inter-packet gap per source in microseconds.
        interval_us: u64,
    },
    /// TCP file transfers (the Emulab setup of §6.4.2), plus a victim host
    /// repeatedly opening fresh connections (for the SYN attack).
    Tcp,
}

/// Which attack the compromised router r runs (§6.4.2 / §6.5.3 numbering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChiAttack {
    /// No attack (Figs 6.5 / 6.11).
    None,
    /// Drop `fraction` of the selected flows (Fig 6.6: 20%).
    DropFraction(f64),
    /// Drop selected flows when the queue is `fill` full (Figs 6.7/6.8).
    QueueConditional(f64),
    /// Drop selected flows when RED's average exceeds `bytes`
    /// with probability `fraction` (Figs 6.12–6.15).
    AvgQueueConditional {
        /// Average-queue trigger in bytes.
        bytes: f64,
        /// Drop probability once triggered.
        fraction: f64,
    },
    /// Drop SYNs toward the victim (Fig 6.9 / Fig 6.16).
    SynDrop,
}

/// One validation round's observable outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRow {
    /// Round index (1-based).
    pub round: usize,
    /// Round end time in seconds.
    pub t_end: f64,
    /// Packets forwarded through the monitored queue.
    pub forwarded: usize,
    /// Missing packets judged this round.
    pub drops: usize,
    /// Drops individually consistent with congestion.
    pub congestion_consistent: usize,
    /// Highest single-loss confidence.
    pub max_single_confidence: f64,
    /// Combined-test confidence, if it ran.
    pub combined_confidence: Option<f64>,
    /// Honest-replay outcome mismatches (drop-tail mode).
    pub mismatches: usize,
    /// χ's verdict for the round.
    pub detected: bool,
    /// Ground truth: malicious drops at r so far (cumulative).
    pub truth_malicious: u64,
    /// Ground truth: congestive drops at r so far (cumulative).
    pub truth_congestive: u64,
}

impl RoundRow {
    /// Formats the row for the standard per-round table.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.round.to_string(),
            format!("{:.0}", self.t_end),
            self.forwarded.to_string(),
            self.drops.to_string(),
            self.congestion_consistent.to_string(),
            format!("{:.3}", self.max_single_confidence),
            self.combined_confidence
                .map(|c| format!("{c:.3}"))
                .unwrap_or_else(|| "-".into()),
            self.mismatches.to_string(),
            if self.detected { "YES" } else { "no" }.into(),
            self.truth_malicious.to_string(),
            self.truth_congestive.to_string(),
        ]
    }

    /// Headers matching [`cells`](Self::cells).
    pub fn headers() -> Vec<&'static str> {
        vec![
            "round", "t(s)", "fwd", "drops", "cong-ok", "c_single", "c_comb", "mismatch", "detect",
            "mal(GT)", "cong(GT)",
        ]
    }
}

/// Configuration of one χ experiment run on the Fig 6.4 fan-in topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChiExperiment {
    /// Source routers feeding the bottleneck.
    pub sources: usize,
    /// Bottleneck queue limit in bytes.
    pub q_limit: u32,
    /// Bottleneck bandwidth in bits/s.
    pub bandwidth_bps: u64,
    /// The bottleneck's queue discipline, which χ replays.
    pub discipline: QueueDiscipline,
    /// Workload shape.
    pub workload: Workload,
    /// The attack at router r.
    pub attack: ChiAttack,
    /// When set (TCP workload), the victim is a constant-rate application
    /// flow at this packet rate instead of a TCP flow — a victim that does
    /// not back off, like the dissertation's "selected flows" whose drops
    /// keep accumulating evidence.
    pub victim_cbr_pps: Option<u32>,
    /// Validation round length.
    pub round: SimTime,
    /// Number of rounds to run.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ChiExperiment {
    fn default() -> Self {
        Self {
            sources: 3,
            q_limit: 64_000,
            bandwidth_bps: 8_000_000,
            discipline: QueueDiscipline::DropTail,
            workload: Workload::Cbr { interval_us: 1_100 },
            attack: ChiAttack::None,
            victim_cbr_pps: None,
            round: SimTime::from_secs(5),
            rounds: 10,
            seed: 11,
        }
    }
}

/// The result of a χ experiment: per-round rows plus final ground truth.
#[derive(Debug, Clone)]
pub struct ChiOutcome {
    /// Per-round observations.
    pub rows: Vec<RoundRow>,
    /// Final ground truth.
    pub truth: fatih_sim::GroundTruth,
}

impl ChiOutcome {
    /// Whether any round detected the router.
    pub fn detected(&self) -> bool {
        self.rows.iter().any(|r| r.detected)
    }

    /// Number of detecting rounds.
    pub fn detected_rounds(&self) -> usize {
        self.rows.iter().filter(|r| r.detected).count()
    }
}

impl ChiExperiment {
    /// The Fig 6.4 network this experiment runs on, with its key store and
    /// the monitored queue `r → rd`, before any traffic.
    pub fn network(&self) -> (Network, KeyStore, RouterId, RouterId) {
        let bottleneck = LinkParams {
            bandwidth_bps: self.bandwidth_bps,
            queue_limit_bytes: self.q_limit,
            ..LinkParams::default()
        };
        let topo = builtin::fan_in(self.sources, bottleneck);
        let mut ks = KeyStore::with_seed(self.seed);
        for r in topo.routers() {
            ks.register(r.into());
        }
        let r = topo.router_by_name("r").expect("fan_in names");
        let rd = topo.router_by_name("rd").expect("fan_in names");
        let mut net = Network::new(topo, self.seed);
        net.set_queue_discipline(r, rd, self.discipline);
        (net, ks, r, rd)
    }

    /// Builds the network, runs the rounds, and reports.
    pub fn run(&self) -> ChiOutcome {
        let (mut net, ks, r, rd) = self.network();
        let cfg = ChiConfig::default();
        let mut validator = QueueValidator::new(net.topology(), &ks, r, rd, self.discipline, cfg);
        let victim_flows = self.spawn_workload(&mut net, rd);
        self.install_attack(&mut net, r, rd, &victim_flows);

        let hop = next_hop_after(net.routes().clone(), r);
        let mut rows = Vec::with_capacity(self.rounds);
        for round in 1..=self.rounds {
            let end = self.round * round as u64;
            net.run_until(end, |ev| validator.observe(ev, &hop));
            let verdict = validator.end_round(end);
            let truth = net.ground_truth();
            rows.push(RoundRow {
                round,
                t_end: end.as_secs_f64(),
                forwarded: verdict.forwarded,
                drops: verdict.total_drops(),
                congestion_consistent: verdict.congestion_consistent,
                max_single_confidence: verdict.max_single_confidence(),
                combined_confidence: verdict.combined_confidence,
                mismatches: verdict.outcome_mismatches,
                detected: verdict.detected,
                truth_malicious: truth.malicious_drops,
                truth_congestive: truth.congestive_drops,
            });
        }
        ChiOutcome {
            rows,
            truth: net.ground_truth(),
        }
    }

    /// Runs one scenario of Figures 6.5–6.16: prints the per-round table
    /// under `title`, writes it as `results/<csv>.csv`, prints the ground
    /// truth, and asserts χ's verdict — quiet without an attack, detecting
    /// any attack that dropped a packet.
    pub fn run_scenario(&self, csv: &str, title: &str) {
        let out = self.run();
        println!("== {title} ==");
        let rows: Vec<Vec<String>> = out.rows.iter().map(RoundRow::cells).collect();
        publish(csv, &RoundRow::headers(), &rows);
        println!(
            "ground truth: {} malicious, {} congestive drops — detected in {}/{} rounds\n",
            out.truth.malicious_drops,
            out.truth.congestive_drops,
            out.detected_rounds(),
            out.rows.len()
        );
        match self.attack {
            ChiAttack::None => assert!(!out.detected(), "FALSE POSITIVE without an attack"),
            _ => assert!(
                out.truth.malicious_drops == 0 || out.detected(),
                "attack escaped detection"
            ),
        }
    }

    /// Spawns the configured workload; returns the victim flow ids.
    pub fn spawn_workload(&self, net: &mut Network, rd: RouterId) -> Vec<fatih_sim::FlowId> {
        let mut victims = Vec::new();
        let horizon = self.round * self.rounds as u64;
        match self.workload {
            Workload::Cbr { interval_us } => {
                for i in 0..self.sources {
                    let s = net
                        .topology()
                        .router_by_name(&format!("s{i}"))
                        .expect("source name");
                    let f = net.add_cbr_flow(
                        s,
                        rd,
                        1000,
                        SimTime::from_us(interval_us),
                        SimTime::from_us(137 * i as u64),
                        Some(horizon),
                    );
                    if i == 0 {
                        victims.push(f);
                    }
                }
            }
            Workload::Tcp => {
                for i in 0..self.sources {
                    let s = net
                        .topology()
                        .router_by_name(&format!("s{i}"))
                        .expect("source name");
                    let f = net.add_tcp_flow(
                        s,
                        rd,
                        TcpConfig::default(),
                        SimTime::from_ms(13 * i as u64),
                        1u64 << 40, // effectively unbounded transfer
                    );
                    if i == 0 && self.victim_cbr_pps.is_none() {
                        victims.push(f);
                    }
                }
                if let Some(pps) = self.victim_cbr_pps {
                    let s0 = net.topology().router_by_name("s0").expect("source");
                    let f = net.add_cbr_flow(
                        s0,
                        rd,
                        1000,
                        SimTime::from_ns(1_000_000_000 / pps as u64),
                        SimTime::ZERO,
                        Some(horizon),
                    );
                    victims.push(f);
                }
                // The SYN-attack victim: s0 keeps opening fresh
                // connections through r.
                if matches!(self.attack, ChiAttack::SynDrop) {
                    let s0 = net.topology().router_by_name("s0").expect("source");
                    for j in 0..self.rounds as u64 {
                        let f = net.add_tcp_flow(
                            s0,
                            rd,
                            TcpConfig::default(),
                            self.round * j + SimTime::from_ms(500),
                            5,
                        );
                        victims.push(f);
                    }
                }
            }
        }
        victims
    }

    /// Installs the configured attack at router `r`.
    pub fn install_attack(
        &self,
        net: &mut Network,
        r: RouterId,
        rd: RouterId,
        victims: &[fatih_sim::FlowId],
    ) {
        let filter = VictimFilter::flows(victims.iter().copied());
        let attack = match self.attack {
            ChiAttack::None => return,
            ChiAttack::DropFraction(fraction) => Attack {
                victims: filter,
                kind: AttackKind::Drop { fraction },
            },
            ChiAttack::QueueConditional(fill) => Attack {
                victims: filter,
                kind: AttackKind::DropWhenQueueAbove {
                    fill,
                    fraction: 1.0,
                },
            },
            ChiAttack::AvgQueueConditional { bytes, fraction } => Attack {
                victims: filter,
                kind: AttackKind::DropWhenAvgQueueAbove {
                    avg_bytes: bytes,
                    fraction,
                },
            },
            ChiAttack::SynDrop => Attack::drop_syns_to(rd),
        };
        net.set_attacks(r, vec![attack]);
    }
}

/// Where χ's monitors predict a packet leaves router `r`: its next hop
/// after `r` on `routes`.
fn next_hop_after(routes: Routes, r: RouterId) -> impl Fn(&Packet) -> Option<RouterId> {
    move |p| routes.path(p.src, p.dst)?.next_after(r)
}

/// Runs the same scenario past a static-threshold detector instead of χ
/// (§6.4.3). Returns per-round (loss fraction, detected).
pub fn run_threshold_baseline(exp: &ChiExperiment, threshold: f64) -> Vec<(f64, bool)> {
    let (mut net, ks, r, rd) = exp.network();
    let mut det = ThresholdDetector::new(net.topology(), &ks, r, rd, threshold);
    let victims = exp.spawn_workload(&mut net, rd);
    exp.install_attack(&mut net, r, rd, &victims);
    let hop = next_hop_after(net.routes().clone(), r);
    let mut out = Vec::new();
    for round in 1..=exp.rounds {
        let end = exp.round * round as u64;
        net.run_until(end, |ev| det.observe(ev, &hop));
        let v = det.end_round(end);
        out.push((v.loss_fraction, v.detected));
    }
    out
}

/// Protocol χ's replay of one congested round on `fan_in(3)`: three
/// 1 000 B sources every 1.1 ms for 5 s into an 8 Mb/s, 16 kB bottleneck
/// (seed 9), judged once at 6 s. Returns the queue entries and exits it
/// replayed — one fingerprint each — and the losses it judged.
pub fn chi_replay_counts() -> (usize, usize, usize) {
    let exp = ChiExperiment {
        q_limit: 16_000,
        seed: 9,
        ..ChiExperiment::default()
    };
    let (mut net, ks, r, rd) = exp.network();
    let cfg = ChiConfig::default();
    let mut v = QueueValidator::new(net.topology(), &ks, r, rd, exp.discipline, cfg);
    for i in 0..3 {
        let s = net.topology().router_by_name(&format!("s{i}"));
        let (gap, end) = (SimTime::from_us(1_100), Some(SimTime::from_secs(5)));
        net.add_cbr_flow(s.expect("source name"), rd, 1000, gap, SimTime::ZERO, end);
    }
    let hop = next_hop_after(net.routes().clone(), r);
    let end = SimTime::from_secs(6);
    net.run_until(end, |ev| v.observe(ev, &hop));
    let verdict = v.end_round(end);
    let (fwd, lost) = (verdict.forwarded, verdict.total_drops());
    (fwd + lost, fwd + verdict.fabricated, lost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "23".into()],
            ],
        );
        assert!(t.contains("long-name"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn chi_experiment_clean_run_has_no_detection() {
        let exp = ChiExperiment {
            rounds: 3,
            round: SimTime::from_secs(2),
            ..ChiExperiment::default()
        };
        let out = exp.run();
        assert_eq!(out.rows.len(), 3);
        assert!(!out.detected(), "{:?}", out.rows);
        assert_eq!(out.truth.malicious_drops, 0);
    }

    #[test]
    fn chi_experiment_attack_run_detects() {
        let exp = ChiExperiment {
            attack: ChiAttack::DropFraction(0.2),
            rounds: 3,
            round: SimTime::from_secs(2),
            ..ChiExperiment::default()
        };
        let out = exp.run();
        assert!(out.truth.malicious_drops > 0);
        assert!(out.detected());
    }

    #[test]
    fn threshold_baseline_runs() {
        let exp = ChiExperiment {
            rounds: 2,
            round: SimTime::from_secs(2),
            ..ChiExperiment::default()
        };
        let rows = run_threshold_baseline(&exp, 0.1);
        assert_eq!(rows.len(), 2);
    }
}
