//! Baselines versus the paper's protocols: WATCHERS (conservation of
//! flow, §3.1) misses a packet-*modification* attack entirely — the byte
//! counts balance — while Protocol Π2's conservation-of-content
//! validation catches it with precision 2.
//!
//! ```sh
//! cargo run --release --example watchers_vs_pi
//! ```

use fatih::baselines::watchers::{WatchersConfig, WatchersDetector};
use fatih::crypto::KeyStore;
use fatih::protocols::pi2::{Pi2Config, Pi2Detector};
use fatih::protocols::spec::SpecCheck;
use fatih::sim::{Attack, AttackKind, Network, SimTime, VictimFilter};
use fatih::topology::builtin;
use std::collections::BTreeSet;

fn main() {
    let topo = builtin::line(5);
    let ids: Vec<_> = topo.routers().collect();
    let mut ks = KeyStore::with_seed(12);
    for r in topo.routers() {
        ks.register(r.into());
    }

    let mut net = Network::new(topo, 31);
    let flow = net.add_cbr_flow(
        ids[0],
        ids[4],
        1_000,
        SimTime::from_ms(2),
        SimTime::ZERO,
        None,
    );
    // n2 modifies half the packets in transit: same volume, different
    // content — the man-in-the-middle case of §1.
    net.set_attacks(
        ids[2],
        vec![Attack {
            victims: VictimFilter::flows([flow]),
            kind: AttackKind::Modify { fraction: 0.5 },
        }],
    );

    let mut watchers = WatchersDetector::new(net.topology(), WatchersConfig::default());
    let mut pi2 = Pi2Detector::new(net.routes(), ks, Pi2Config::default());

    let end = SimTime::from_secs(5);
    net.run_until(end, |ev| {
        watchers.observe(ev);
        pi2.observe(ev);
    });
    let w_sus = watchers.end_round(end);
    let p_sus = pi2.end_round(end);

    let faulty: BTreeSet<_> = [ids[2]].into_iter().collect();
    let w_check = SpecCheck::evaluate(&w_sus, &faulty);
    let p_check = SpecCheck::evaluate(&p_sus, &faulty);

    println!(
        "attack: router {} modifies 50% of transit packets\n",
        ids[2]
    );
    println!(
        "WATCHERS (conservation of flow):    {} suspicions — modifier caught: {}",
        w_sus.len(),
        w_check.is_complete()
    );
    println!(
        "Protocol Π2 (conservation of content): {} suspicions — modifier caught: {} (precision {})",
        p_sus.len(),
        p_check.is_complete(),
        p_check.max_precision
    );
    assert!(
        !w_check.is_complete(),
        "flow counters must balance under pure modification"
    );
    assert!(p_check.is_complete() && p_check.is_accurate(2));
    println!(
        "\nconservation of flow counts bytes and the books balance; only a\n\
         content policy (fingerprints) exposes the modification (§2.4.1)."
    );
}
