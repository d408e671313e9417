//! The four workloads. Names and settings are fixed — later issues cite
//! them — and the seed is the only source of randomness: the program under
//! test receives nothing but the generated `Topology` / `LiveSpec` /
//! `LiveConfig`.
//!
//! Common settings: UDP over the host's loopback interface (no real link),
//! `exchange_budget` 300 ms, `maturity_lag` 60 ms, `k = 1`, default
//! thresholds and reliable-delivery policy, mailbox fastpath off, at most
//! two shards (the sandbox has two cores and the main thread sleeps).
//! Frames carry packet headers only — `size` is metadata and every encoded
//! data frame has one fixed length — so packet size is not a traffic
//! dimension of this system and is not swept.

use crate::probe::ProbeSetup;
use fatih_net::runtime::{DropperSpec, FlowSpec, LiveConfig, LiveSpec, SummaryMode};
use fatih_topology::{builtin, DynamicTopology, Path, PathSegment, RouterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Duration;

/// Workload names, in the order the suite interleaves them.
pub const NAMES: [&str; 4] = [
    "sat-line6",
    "paced-isp64",
    "ctl-full-isp128",
    "attack-isp64",
];

/// Sketch capacity of `Reconcile` mode, as scalebench uses.
const SKETCH_CAPACITY: usize = 32;
/// Routers on every ISP flow's path (4 hops, 3 monitored 3-segments).
const PATH_ROUTERS: usize = 5;
/// Trace ring large enough that `PacketTap` events never overwrite the
/// accusation and link-state events `attack-isp64` reads back.
const ATTACK_TRACE_CAPACITY: usize = 1 << 21;
/// What `LiveDeployment::run` waits after the last evaluation deadline.
const DRAIN: Duration = Duration::from_millis(300);

/// The compromised router of `attack-isp64`.
#[derive(Debug, Clone, Copy)]
pub struct Attack {
    /// Mid-path router of flow 0, taken from the runtime's own routing.
    pub dropper: RouterId,
    /// First round it drops in.
    pub onset_round: u64,
}

/// One generated workload: exactly what `LiveDeployment::run` is given.
#[derive(Debug, Clone)]
pub struct Workload {
    /// One of [`NAMES`].
    pub name: &'static str,
    /// The network.
    pub topo: Topology,
    /// Flows and adversary.
    pub spec: LiveSpec,
    /// Protocol timing and policy.
    pub cfg: LiveConfig,
    /// Offered load in packets per second; `None` for the closed loop,
    /// whose rate is whatever the loop sustains.
    pub nominal_pps: Option<f64>,
    /// Latency-stamp every n-th packet.
    pub sample_every: u64,
    /// The attack, on `attack-isp64`.
    pub attack: Option<Attack>,
}

impl Workload {
    /// Seconds during which flows inject: `rounds · τ`.
    pub fn measured_seconds(&self) -> f64 {
        self.cfg.tau.as_secs_f64() * self.cfg.rounds as f64
    }

    /// Wall time `LiveDeployment::run` is asked to take for `cfg`: the
    /// rounds, the last exchange budget and the drain. Anything beyond it
    /// is set-up.
    pub fn schedule(cfg: &LiveConfig) -> Duration {
        cfg.tau * cfg.rounds as u32 + cfg.exchange_budget + DRAIN
    }

    /// The same deployment cut to one 200 ms round: the set-up cycle. It
    /// builds everything the measured run builds (sockets, keys, routes,
    /// monitors, threads) and fills allocator, socket and page caches.
    pub fn setup_cycle_cfg(&self) -> LiveConfig {
        LiveConfig {
            tau: Duration::from_millis(200),
            exchange_budget: Duration::from_millis(100),
            rounds: 1,
            ..self.cfg
        }
    }

    /// Probe settings for this workload's flow endpoints.
    pub fn probe_setup(&self, traced: bool) -> ProbeSetup {
        ProbeSetup {
            sources: self.spec.flows.iter().map(|f| f.src).collect(),
            sinks: self.spec.flows.iter().map(|f| f.dst).collect(),
            sample_every: self.sample_every,
            traced,
        }
    }

    /// The (source, destination) pairs of the flows.
    pub fn flow_pairs(&self) -> Vec<(RouterId, RouterId)> {
        self.spec.flows.iter().map(|f| (f.src, f.dst)).collect()
    }
}

/// Sprintlink-proportioned topology (972 links / 315 routers, degree cap
/// 45) — the very graph scalebench sweeps at this size. The graph is fixed
/// per size; the seed picks which of its routers carry the flows.
fn isp(n: usize) -> Topology {
    builtin::isp_like("isp", n, n * 972 / 315, 45, 0xF00D ^ n as u64)
}

/// How many hops of `path` are *not* served within the sweep that produced
/// them. A shard polls its routers in index order, so a frame sent to a
/// later router of the same shard is received in the same sweep; one sent
/// to an earlier router waits for the next loop iteration, and one sent to
/// another shard (routers are dealt `index % shards`, as
/// `LiveDeployment::run` deals them) for that shard's next sweep.
fn deferred_hops(path: &Path, shards: usize) -> usize {
    path.routers()
        .windows(2)
        .filter(|w| {
            let (a, b) = (w[0].index(), w[1].index());
            if shards > 1 {
                a % shards != b % shards
            } else {
                b < a
            }
        })
        .count()
}

/// The monitored 3-segments of a [`PATH_ROUTERS`]-router path (`k = 1`).
fn segments_of(path: &Path) -> impl Iterator<Item = PathSegment> + '_ {
    path.routers()
        .windows(3)
        .map(|w| PathSegment::new(w.to_vec()))
}

/// Seed-picked flows that are alike in everything the metrics depend on,
/// so that which routers carry them is all that varies from seed to seed:
///
/// * no two share a source or a sink;
/// * every *runtime* path (`DynamicTopology::path`, not
///   `link_state_routes`: the two break ties differently) has exactly
///   [`PATH_ROUTERS`] routers — 4 hops, three monitored segments;
/// * exactly two of the four hops are deferred ([`deferred_hops`]): on the
///   two-shard workload cross-shard hops, on one shard hops against the
///   sweep order — what packet latency mostly consists of;
/// * no two flows share a monitored segment, so every deployment exchanges
///   summaries for exactly `3 × want` segments.
fn pick_flows(
    topo: &Topology,
    want: usize,
    shards: usize,
    interval: Duration,
    rng: &mut StdRng,
) -> Result<Vec<FlowSpec>, String> {
    let ids: Vec<RouterId> = topo.routers().collect();
    let routes = topo.link_state_routes();
    let mut dynamic = DynamicTopology::new(topo.clone());
    let (mut sources, mut sinks, mut monitored) = (HashSet::new(), HashSet::new(), HashSet::new());
    let mut flows = Vec::with_capacity(want);
    for _ in 0..200_000 {
        if flows.len() == want {
            return Ok(flows);
        }
        let s = ids[rng.gen_range(0..ids.len())];
        let d = ids[rng.gen_range(0..ids.len())];
        if s == d || sources.contains(&s) || sinks.contains(&d) {
            continue;
        }
        // Both routings are shortest-path, so the cheap all-pairs table
        // settles the length; only survivors pay for the avoidance path.
        if routes.path(s, d).map_or(0, |p| p.len()) != PATH_ROUTERS {
            continue;
        }
        let Ok(path) = dynamic.path(s, d) else {
            continue;
        };
        if path.len() != PATH_ROUTERS
            || deferred_hops(&path, shards) != 2
            || segments_of(&path).any(|seg| monitored.contains(&seg))
        {
            continue;
        }
        sources.insert(s);
        sinks.insert(d);
        monitored.extend(segments_of(&path));
        flows.push(FlowSpec::new(s, d, 1000, interval));
    }
    Err(format!(
        "found only {} of {want} flows with {PATH_ROUTERS}-router paths",
        flows.len()
    ))
}

/// The index of a flow whose mid-path router can be compromised so that
/// the response converges in **one** conviction cycle: the router is on no
/// other flow's path, and once the segment around it is excluded every flow
/// is still routable on a path that avoids it. Otherwise the number of
/// exclusions flooded (each costs ≈ 6 control bytes per packet of the run)
/// would depend on the seed.
fn single_conviction_flow(topo: &Topology, flows: &[FlowSpec]) -> Option<usize> {
    let pairs: Vec<(RouterId, RouterId)> = flows.iter().map(|f| (f.src, f.dst)).collect();
    let before = DynamicTopology::new(topo.clone()).paths_for(pairs.iter().copied());
    (0..flows.len()).find(|&i| {
        let path = &before[&pairs[i]];
        let dropper = path.routers()[PATH_ROUTERS / 2];
        let elsewhere = pairs
            .iter()
            .enumerate()
            .any(|(j, pair)| j != i && before[pair].routers().contains(&dropper));
        if elsewhere {
            return false;
        }
        let mut after = DynamicTopology::new(topo.clone());
        after.exclude_segment(PathSegment::new(path.routers()[1..4].to_vec()));
        let rerouted = after.paths_for(pairs.iter().copied());
        rerouted.len() == pairs.len() && rerouted.values().all(|p| !p.routers().contains(&dropper))
    })
}

/// Generates workload `name` from `seed`, with `seconds` of rounds.
pub fn generate(name: &str, seed: u64, seconds: u64) -> Result<Workload, String> {
    if seconds < 3 {
        return Err("--seconds must be at least 3 (three rounds of one second)".into());
    }
    let Some(name) = NAMES.into_iter().find(|n| *n == name) else {
        return Err(format!("unknown workload {name:?}; one of {NAMES:?}"));
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xFA71_4B3C);
    let second = Duration::from_secs(1);
    let base = LiveConfig {
        k: 1,
        tau: second,
        exchange_budget: Duration::from_millis(300),
        maturity_lag: Duration::from_millis(60),
        rounds: seconds,
        key_seed: LiveConfig::default().key_seed ^ seed,
        shards: 1,
        summary: SummaryMode::Reconcile {
            capacity: SKETCH_CAPACITY,
        },
        mailbox_fastpath: false,
        response: false,
        ..LiveConfig::default()
    };
    let isp_workload =
        |n: usize, flows: usize, interval_ms: u64, cfg: LiveConfig, rng: &mut StdRng| {
            let topo = isp(n);
            let interval = Duration::from_millis(interval_ms);
            let flows = pick_flows(&topo, flows, cfg.shards, interval, rng)?;
            let nominal = flows.len() as f64 * 1000.0 / interval_ms as f64;
            Ok::<_, String>(Workload {
                name,
                topo,
                spec: LiveSpec {
                    flows,
                    ..LiveSpec::default()
                },
                cfg,
                nominal_pps: Some(nominal),
                sample_every: 1,
                attack: None,
            })
        };
    match name {
        "sat-line6" => {
            // Closed loop: with a 1 µs interval the flow tick is due on
            // every shard-loop iteration, and on one shard the packet
            // crosses all five hops within the same sweep, so exactly one
            // packet is in flight and no socket queue can overflow. Three
            // long rounds keep round-end work to three occurrences.
            let topo = builtin::line(6);
            let ids: Vec<RouterId> = topo.routers().collect();
            Ok(Workload {
                name,
                spec: LiveSpec {
                    flows: vec![FlowSpec::new(
                        ids[0],
                        ids[5],
                        1000,
                        Duration::from_micros(1),
                    )],
                    ..LiveSpec::default()
                },
                topo,
                cfg: LiveConfig {
                    tau: second * seconds as u32 / 3,
                    rounds: 3,
                    ..base
                },
                nominal_pps: None,
                sample_every: 8,
                attack: None,
            })
        }
        "paced-isp64" => isp_workload(64, 8, 4, LiveConfig { shards: 2, ..base }, &mut rng),
        "ctl-full-isp128" => {
            // 1 000 pkts/s keeps cumulative Full summaries under the
            // MAX_FRAME cliff (≈2 300 entries per segment) for 12 rounds.
            let cfg = LiveConfig {
                summary: SummaryMode::Full,
                ..base
            };
            isp_workload(128, 8, 8, cfg, &mut rng)
        }
        "attack-isp64" => {
            let cfg = LiveConfig {
                response: true,
                trace_capacity: ATTACK_TRACE_CAPACITY,
                ..base
            };
            // Redraw until some flow can host the dropper (see
            // `single_conviction_flow`); that flow becomes flow 0.
            let mut w = loop {
                let mut w = isp_workload(64, 8, 4, cfg, &mut rng)?;
                if let Some(i) = single_conviction_flow(&w.topo, &w.spec.flows) {
                    w.spec.flows.swap(0, i);
                    break w;
                }
            };
            let f0 = w.spec.flows[0];
            let path = DynamicTopology::new(w.topo.clone())
                .path(f0.src, f0.dst)
                .map_err(|e| format!("flow 0 lost its route: {e:?}"))?;
            let attack = Attack {
                dropper: path.routers()[PATH_ROUTERS / 2],
                onset_round: seconds / 3,
            };
            w.spec.droppers = vec![DropperSpec {
                router: attack.dropper,
                rate: 0.3,
                seed: rng.gen(),
                active_from: attack.onset_round,
            }];
            w.attack = Some(attack);
            Ok(w)
        }
        _ => unreachable!("name was matched against NAMES"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
        for name in NAMES {
            let a = generate(name, 7, 12).unwrap();
            let b = generate(name, 7, 12).unwrap();
            assert_eq!(a.flow_pairs(), b.flow_pairs(), "{name}");
            assert_eq!(a.cfg.key_seed, b.cfg.key_seed);
            assert_eq!(a.topo.duplex_link_count(), b.topo.duplex_link_count());
            let c = generate(name, 8, 12).unwrap();
            assert_ne!(a.cfg.key_seed, c.cfg.key_seed);
            if name != "sat-line6" {
                assert_ne!(a.flow_pairs(), c.flow_pairs(), "{name}");
            }
        }
    }

    #[test]
    fn every_workload_runs_twelve_seconds_of_rounds() {
        for name in NAMES {
            let w = generate(name, 1, 12).unwrap();
            assert_eq!(w.measured_seconds(), 12.0, "{name}");
            assert_eq!(Workload::schedule(&w.cfg), Duration::from_millis(12_600));
            assert_eq!(
                Workload::schedule(&w.setup_cycle_cfg()),
                Duration::from_millis(600)
            );
            assert!(w.cfg.shards <= 2 && !w.cfg.mailbox_fastpath && w.cfg.k == 1);
        }
        assert!(generate("sat-line6", 1, 2).is_err());
        assert!(generate("no-such", 1, 12).is_err());
    }

    #[test]
    fn isp_flows_have_five_router_paths_on_the_runtime_routing() {
        for (name, nominal) in [
            ("paced-isp64", 2_000.0),
            ("ctl-full-isp128", 1_000.0),
            ("attack-isp64", 2_000.0),
        ] {
            for seed in 1..=40 {
                let w = generate(name, seed, 12).unwrap();
                assert_eq!(w.nominal_pps, Some(nominal));
                assert_eq!(w.spec.flows.len(), 8);
                let mut dynamic = DynamicTopology::new(w.topo.clone());
                let (mut sources, mut sinks, mut monitored) =
                    (HashSet::new(), HashSet::new(), HashSet::new());
                for (s, d) in w.flow_pairs() {
                    let path = dynamic.path(s, d).unwrap();
                    assert_eq!(path.len(), PATH_ROUTERS);
                    assert_eq!(deferred_hops(&path, w.cfg.shards), 2);
                    assert!(sources.insert(s) && sinks.insert(d));
                    assert!(segments_of(&path).all(|seg| monitored.insert(seg)));
                }
            }
        }
    }

    #[test]
    fn the_dropper_sits_mid_path_of_flow_zero_only() {
        let w = generate("attack-isp64", 3, 12).unwrap();
        let attack = w.attack.unwrap();
        let mut dynamic = DynamicTopology::new(w.topo.clone());
        let paths = dynamic.paths_for(w.flow_pairs());
        let path = &paths[&w.flow_pairs()[0]];
        assert_eq!(path.routers()[2], attack.dropper);
        let crossing = paths
            .values()
            .filter(|p| p.routers().contains(&attack.dropper))
            .count();
        assert_eq!(crossing, 1, "only flow 0 crosses the dropper");
        // One exclusion reroutes everything around it.
        dynamic.exclude_segment(PathSegment::new(path.routers()[1..4].to_vec()));
        let rerouted = dynamic.paths_for(w.flow_pairs());
        assert_eq!(rerouted.len(), 8);
        assert!(rerouted
            .values()
            .all(|p| !p.routers().contains(&attack.dropper)));
        assert_eq!(attack.onset_round, 4);
        assert_eq!(w.spec.droppers[0].active_from, 4);
        assert!(w.cfg.response && w.cfg.trace_capacity >= 1 << 21);
        assert_eq!(
            generate("attack-isp64", 3, 3)
                .unwrap()
                .attack
                .unwrap()
                .onset_round,
            1
        );
    }
}
