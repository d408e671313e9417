//! Shared harness code for the figure regenerators and the release gates.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! dissertation's evaluation (see `DESIGN.md` for the full index); this
//! library holds what they share: aligned table printing, CSV output under
//! `results/`, and the Protocol χ round-by-round experiment harness used
//! by Figures 6.3, 6.5–6.9, 6.11–6.16 and the §6.4.3 comparison. The
//! live-deployment inputs of `tests/gates.rs` ([`rocketfuel_like`],
//! [`pick_flows`]) live here too.

use fatih_core::chi::{ChiConfig, QueueModel, QueueValidator};
use fatih_core::threshold::ThresholdDetector;
use fatih_crypto::KeyStore;
use fatih_net::runtime::FlowSpec;
use fatih_sim::{Attack, AttackKind, Network, RedParams, SimTime, TcpConfig, VictimFilter};
use fatih_topology::{builtin, LinkParams, RouterId, Topology};
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
    for (i, h) in headers.iter().enumerate() {
        if i == 0 {
            let _ = write!(out, "{:<w$}", h, w = widths[i]);
        } else {
            let _ = write!(out, "  {:>w$}", h, w = widths[i]);
        }
    }
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i == 0 {
                let _ = write!(out, "{:<w$}", cell, w = widths[i]);
            } else {
                let _ = write!(out, "  {:>w$}", cell, w = widths[i]);
            }
        }
        out.push('\n');
    }
    out
}

/// Writes rows as CSV into `results/<name>.csv` (relative to the workspace
/// root when run via `cargo run`), creating the directory if needed.
/// Returns the path written, or `None` if the filesystem refused.
pub fn write_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) -> Option<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{name}.csv"));
    let mut body = headers.join(",");
    body.push('\n');
    for row in rows {
        body.push_str(&row.join(","));
        body.push('\n');
    }
    std::fs::write(&path, body).ok()?;
    Some(path)
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
    /// RED parameters; `None` = drop-tail.
    pub red: Option<RedParams>,
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
            red: None,
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
    /// Builds the network, runs the rounds, and reports.
    pub fn run(&self) -> ChiOutcome {
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
        let model = match self.red {
            Some(p) => QueueModel::Red(p),
            None => QueueModel::DropTail,
        };
        let mut validator = QueueValidator::new(&topo, &ks, r, rd, model, ChiConfig::default());
        let mut net = Network::new(topo, self.seed);
        if let Some(p) = self.red {
            net.set_queue_discipline(r, rd, fatih_sim::QueueDiscipline::Red(p));
        }
        let victim_flows = self.spawn_workload(&mut net, rd);
        self.install_attack(&mut net, r, rd, &victim_flows);

        let routes = net.routes().clone();
        let mut rows = Vec::with_capacity(self.rounds);
        for round in 1..=self.rounds {
            let end = self.round * round as u64;
            net.run_until(end, |ev| {
                validator.observe(ev, |p| {
                    routes
                        .path(p.src, p.dst)
                        .and_then(|path| path.next_after(r))
                })
            });
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

/// Runs the same scenario past a static-threshold detector instead of χ
/// (§6.4.3). Returns per-round (loss fraction, detected).
pub fn run_threshold_baseline(exp: &ChiExperiment, threshold: f64) -> Vec<(f64, bool)> {
    let bottleneck = LinkParams {
        bandwidth_bps: exp.bandwidth_bps,
        queue_limit_bytes: exp.q_limit,
        ..LinkParams::default()
    };
    let topo = builtin::fan_in(exp.sources, bottleneck);
    let mut ks = KeyStore::with_seed(exp.seed);
    for r in topo.routers() {
        ks.register(r.into());
    }
    let r = topo.router_by_name("r").expect("fan_in names");
    let rd = topo.router_by_name("rd").expect("fan_in names");
    let mut det = ThresholdDetector::new(&topo, &ks, r, rd, threshold);
    let mut net = Network::new(topo, exp.seed);
    if let Some(p) = exp.red {
        net.set_queue_discipline(r, rd, fatih_sim::QueueDiscipline::Red(p));
    }
    let victims = exp.spawn_workload(&mut net, rd);
    exp.install_attack(&mut net, r, rd, &victims);
    let routes = net.routes().clone();
    let mut out = Vec::new();
    for round in 1..=exp.rounds {
        let end = exp.round * round as u64;
        net.run_until(end, |ev| {
            det.observe(ev, |p| {
                routes
                    .path(p.src, p.dst)
                    .and_then(|path| path.next_after(r))
            })
        });
        let v = det.end_round(end);
        out.push((v.loss_fraction, v.detected));
    }
    out
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
