//! Route work counted, not timed: a destination's routes are searched when
//! something is routed to it, once per table, and the simulator's host
//! searches each route epoch's routes once however many routers move to
//! it. `fatih_topology::searches_on_this_thread` counts the searches.

use fatih::net::{LiveConfig, LiveSpec, SimHost};
use fatih::obs::TraceKind;
use fatih::protocols::policy::Thresholds;
use fatih::sim::{Attack, Network, SimTime};
use fatih::topology::{builtin, searches_on_this_thread, DynamicTopology, LinkParams};
use fatih::topology::{RouterId, Topology};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

fn isp(n: usize) -> Topology {
    builtin::isp_like("isp", n, n * 972 / 315, 45, 0xF00D ^ n as u64)
}

/// Building the table searches nothing; the first route toward a
/// destination searches once, and every later one toward it reuses that
/// column, whichever thread asked first.
#[test]
fn a_column_is_searched_when_first_asked_for_and_kept() {
    // a - b - c, with a dearer direct a - c link.
    let mut t = Topology::new();
    let [a, b, c] = ["a", "b", "c"].map(|name| t.add_router(name));
    let cost = |cost| LinkParams {
        cost,
        ..LinkParams::default()
    };
    t.add_duplex_link(a, b, cost(1));
    t.add_duplex_link(b, c, cost(1));
    t.add_duplex_link(a, c, cost(5));
    let before = searches_on_this_thread();
    let searched = || searches_on_this_thread() - before;
    let r = t.link_state_routes();
    assert_eq!(searched(), 0, "no column until one is asked for");
    assert_eq!(r.next_hop(a, c), Some(b));
    assert_eq!(searched(), 1, "one next_hop, one column");
    assert_eq!(r.cost(a, c), Some(2));
    assert_eq!(r.path(b, c).unwrap().routers(), &[b, c]);
    assert_eq!(r.next_hop(c, c), None);
    assert_eq!(searched(), 1, "the column toward c is kept");
    assert_eq!(r.path(c, a).unwrap().routers(), &[c, b, a]);
    assert_eq!(searched(), 2);
    let shared = Arc::new(r);
    let elsewhere = Arc::clone(&shared);
    std::thread::spawn(move || assert_eq!(elsewhere.next_hop(a, b), Some(b)))
        .join()
        .unwrap();
    assert_eq!(searched(), 2, "the other thread's search is its own");
    assert_eq!(shared.path(a, b).unwrap().routers(), &[a, b]);
    assert_eq!(searched(), 2, "and its column is shared");
}

/// A column built on demand, whichever destination is asked for first, is
/// the clean overlay's `paths_for` toward that destination, ties included,
/// and costs one search. The graphs are the ones `DynamicTopology`'s own
/// tests route on: tie-free and tie-rich builtins, the two ISP-like graphs
/// fatihbench deploys on, and seeded random meshes.
#[test]
fn each_column_on_demand_is_the_clean_overlays_route() {
    let mut graphs = vec![
        builtin::abilene(),
        builtin::sprintlink_like(1),
        builtin::ebone_like(1),
        isp(64),
        isp(128),
        builtin::ring(8),
        builtin::grid(4, 5),
    ];
    graphs.extend((0..6).map(|seed| builtin::random_connected(40, 30, seed)));
    for t in graphs {
        let mut d = DynamicTopology::new(t.clone());
        let routes = t.link_state_routes();
        for dst in (0..t.router_count() as u32).rev().map(RouterId::from) {
            let expected = d.paths_for(t.routers().map(|s| (s, dst)));
            let before = searches_on_this_thread();
            for s in t.routers().filter(|&s| s != dst) {
                assert_eq!(routes.path(s, dst).as_ref(), expected.get(&(s, dst)));
            }
            assert_eq!(searches_on_this_thread() - before, 1, "toward {dst}");
        }
    }
}

/// A conviction on 64 routers searches each route epoch's routes once, one
/// search per destination, however many routers move to it. The rest of
/// the run's route work is counted too: the link-state columns stranded
/// and simulated packets ask for (at most one per destination in each of
/// the two tables) and each router's plan of the one flow, at deployment
/// and at every rebuild.
#[test]
fn a_conviction_searches_each_epochs_routes_once() {
    let topo = isp(64);
    let n = topo.router_count() as u64;
    let routes = topo.link_state_routes();
    let path = (topo.routers())
        .flat_map(|s| topo.routers().map(move |d| (s, d)))
        .find_map(|(s, d)| routes.path(s, d).filter(|p| p.len() >= 5))
        .expect("a route of five routers");
    let before = searches_on_this_thread();
    let mut net = Network::new(topo, 1);
    let flow = net.add_cbr_flow(
        path.source(),
        path.sink(),
        1000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    let dropper = path.routers()[2];
    net.set_attacks(dropper, vec![Attack::drop_flows([flow], 0.3)]);
    let cfg = LiveConfig {
        tau: Duration::from_secs(1),
        exchange_budget: Duration::from_millis(500),
        maturity_lag: Duration::from_millis(100),
        thresholds: Thresholds::default(),
        trace_capacity: 1 << 17,
        ..LiveConfig::default()
    };
    let mut host = SimHost::new(&mut net, &LiveSpec::default(), cfg);
    host.run(&mut net, SimTime::from_secs(3));
    let searches = searches_on_this_thread() - before;
    let excluded = host.excluded_segments();
    assert!(!excluded.is_empty(), "no conviction");
    assert!(excluded.iter().all(|s| s.contains(dropper)));
    let trace = host.trace();
    assert_eq!(trace.dropped(), 0);
    let epochs: BTreeSet<u64> = (trace.events().iter())
        .filter(|e| e.kind == TraceKind::EpochTransition)
        .map(|e| e.value)
        .collect();
    let rebuilds = host.metrics().counter("net.epoch_transitions");
    assert!(
        rebuilds >= n - 1,
        "{rebuilds} rebuilds: the exclusion did not reach every router"
    );
    let budget = n * epochs.len() as u64 + 2 * n + (1 + rebuilds);
    assert!(
        searches <= budget,
        "{searches} searches for {} epochs and {rebuilds} rebuilds: budget {budget}",
        epochs.len()
    );
}
