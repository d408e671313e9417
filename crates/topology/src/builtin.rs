//! Built-in topologies used by the dissertation's evaluation.
//!
//! * [`abilene`] — the 11-PoP Abilene backbone of Figure 5.6, with
//!   delay-proportional metrics arranged so the primary Sunnyvale→New York
//!   route (25 ms one way) runs through Kansas City and the detour via
//!   Los Angeles/Houston/Atlanta costs 28 ms — the two latencies visible in
//!   Figure 5.7.
//! * [`sprintlink_like`] / [`ebone_like`] — synthetic stand-ins for the
//!   Rocketfuel-measured Sprintlink (315 routers, 972 links, mean degree
//!   6.17, max 45) and EBONE (87 routers, 161 links, mean 3.70, max 11)
//!   maps used by Figures 5.2/5.4. See `DESIGN.md`, substitution 1.
//! * [`line()`], [`ring`], [`grid`], [`fan_in`], [`random_connected`] —
//!   generic fixtures for tests and the Protocol χ experiments (Fig 6.4's
//!   "simple topology" is [`fan_in`]).

use crate::graph::{LinkParams, RouterId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Abilene Internet2 backbone (Figure 5.6): 11 PoPs, 14 duplex links,
/// delay-proportional link metrics.
///
/// # Examples
///
/// ```
/// let t = fatih_topology::builtin::abilene();
/// assert_eq!(t.router_count(), 11);
/// assert_eq!(t.duplex_link_count(), 14);
/// assert!(t.is_connected());
/// ```
pub fn abilene() -> Topology {
    let mut t = Topology::new();
    let names = [
        "Seattle",
        "Sunnyvale",
        "LosAngeles",
        "Denver",
        "KansasCity",
        "Houston",
        "Chicago",
        "Indianapolis",
        "Atlanta",
        "WashingtonDC",
        "NewYork",
    ];
    for n in names {
        t.add_router(n);
    }
    // (a, b, one-way delay ms) — chosen so the two coast-to-coast routes
    // cost 25 ms (via Kansas City) and 28 ms (via LA/Houston/Atlanta).
    let links = [
        ("Seattle", "Sunnyvale", 7u64),
        ("Seattle", "Denver", 10),
        ("Sunnyvale", "LosAngeles", 3),
        ("Sunnyvale", "Denver", 5),
        ("LosAngeles", "Houston", 8),
        ("Denver", "KansasCity", 5),
        ("KansasCity", "Houston", 7),
        ("KansasCity", "Indianapolis", 5),
        ("Houston", "Atlanta", 7),
        ("Indianapolis", "Chicago", 4),
        ("Indianapolis", "Atlanta", 6),
        ("Chicago", "NewYork", 6),
        ("Atlanta", "WashingtonDC", 5),
        ("WashingtonDC", "NewYork", 5),
    ];
    for (a, b, ms) in links {
        let a = t.router_by_name(a).expect("known PoP");
        let b = t.router_by_name(b).expect("known PoP");
        t.add_duplex_link(a, b, LinkParams::with_delay_ms(ms));
    }
    t
}

/// A synthetic ISP map shaped like Rocketfuel's Sprintlink (AS1239)
/// measurement: 315 routers, 972 duplex links, mean degree ≈ 6.2,
/// maximum degree capped at 45.
pub fn sprintlink_like(seed: u64) -> Topology {
    isp_like("sl", 315, 972, 45, seed)
}

/// A synthetic ISP map shaped like Rocketfuel's EBONE (AS1755)
/// measurement: 87 routers, 161 duplex links, mean degree ≈ 3.7,
/// maximum degree capped at 11.
pub fn ebone_like(seed: u64) -> Topology {
    isp_like("eb", 87, 161, 11, seed)
}

/// Preferential-attachment ISP generator: a spanning tree grown with
/// degree-proportional attachment (hub-and-spoke structure), densified
/// with extra degree-biased links up to the target count, under a hard
/// per-router degree cap.
///
/// # Panics
///
/// Panics if the target link count is below `routers − 1` (can't connect)
/// or above what the degree cap permits.
pub fn isp_like(
    prefix: &str,
    routers: usize,
    duplex_links: usize,
    max_degree: usize,
    seed: u64,
) -> Topology {
    assert!(routers >= 2, "need at least two routers");
    assert!(
        duplex_links >= routers - 1,
        "need at least {} links to connect {routers} routers",
        routers - 1
    );
    assert!(
        duplex_links * 2 <= routers * max_degree,
        "degree cap {max_degree} cannot host {duplex_links} duplex links"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let ids: Vec<RouterId> = (0..routers)
        .map(|i| t.add_router(&format!("{prefix}{i}")))
        .collect();

    let mut degree = vec![0usize; routers];
    let add = |t: &mut Topology, degree: &mut Vec<usize>, a: usize, b: usize| {
        t.add_duplex_link(ids[a], ids[b], LinkParams::default());
        degree[a] += 1;
        degree[b] += 1;
    };

    // Spanning tree with preferential attachment.
    add(&mut t, &mut degree, 0, 1);
    for i in 2..routers {
        // Choose target ∝ (degree + 1) among already-attached nodes with
        // headroom under the cap.
        let total: usize = degree[..i]
            .iter()
            .map(|&d| if d < max_degree { d + 1 } else { 0 })
            .sum();
        let mut pick = rng.gen_range(0..total);
        let mut target = 0;
        for (j, &d) in degree[..i].iter().enumerate() {
            let w = if d < max_degree { d + 1 } else { 0 };
            if pick < w {
                target = j;
                break;
            }
            pick -= w;
        }
        add(&mut t, &mut degree, i, target);
    }

    // Densify with degree-biased extra links.
    let mut placed = routers - 1;
    let mut attempts = 0usize;
    while placed < duplex_links {
        attempts += 1;
        assert!(
            attempts < duplex_links * 1000,
            "generator failed to place links under the degree cap"
        );
        // One endpoint degree-biased (hubs), one uniform (spokes).
        let total: usize = degree
            .iter()
            .map(|&d| if d < max_degree { d + 1 } else { 0 })
            .sum();
        let mut pick = rng.gen_range(0..total);
        let mut a = 0;
        for (j, &d) in degree.iter().enumerate() {
            let w = if d < max_degree { d + 1 } else { 0 };
            if pick < w {
                a = j;
                break;
            }
            pick -= w;
        }
        let b = rng.gen_range(0..routers);
        if a == b || degree[b] >= max_degree || t.has_link(ids[a], ids[b]) {
            continue;
        }
        add(&mut t, &mut degree, a, b);
        placed += 1;
    }
    t
}

/// A line of `n` routers: `n0 — n1 — … — n(n−1)`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize) -> Topology {
    assert!(n >= 2, "a line needs at least two routers");
    let mut t = Topology::new();
    let ids: Vec<RouterId> = (0..n).map(|i| t.add_router(&format!("n{i}"))).collect();
    for w in ids.windows(2) {
        t.add_duplex_link(w[0], w[1], LinkParams::default());
    }
    t
}

/// A ring of `n` routers.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "a ring needs at least three routers");
    let mut t = line(n);
    let first = t.router_by_name("n0").expect("line names");
    let last = t
        .router_by_name(&format!("n{}", n - 1))
        .expect("line names");
    t.add_duplex_link(first, last, LinkParams::default());
    t
}

/// A `w × h` grid (Manhattan mesh).
///
/// # Panics
///
/// Panics if either dimension is zero or the grid has fewer than 2 nodes.
pub fn grid(w: usize, h: usize) -> Topology {
    assert!(w >= 1 && h >= 1 && w * h >= 2, "grid too small");
    let mut t = Topology::new();
    let mut ids = Vec::with_capacity(w * h);
    for y in 0..h {
        for x in 0..w {
            ids.push(t.add_router(&format!("g{x}_{y}")));
        }
    }
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.add_duplex_link(ids[i], ids[i + 1], LinkParams::default());
            }
            if y + 1 < h {
                t.add_duplex_link(ids[i], ids[i + w], LinkParams::default());
            }
        }
    }
    t
}

/// The "simple topology" of Figure 6.4: `n` source routers feeding a
/// monitored router `r` whose single output interface leads to `r_d`.
/// Routers are named `s0..s(n−1)`, `r`, and `rd`.
///
/// The source links are fast relative to the `r → rd` bottleneck
/// (`bottleneck` parameters), so congestion happens exactly in `r`'s output
/// queue — the queue Protocol χ validates.
///
/// # Panics
///
/// Panics if `sources == 0`.
pub fn fan_in(sources: usize, bottleneck: LinkParams) -> Topology {
    assert!(sources >= 1, "need at least one source");
    let mut t = Topology::new();
    let srcs: Vec<RouterId> = (0..sources)
        .map(|i| t.add_router(&format!("s{i}")))
        .collect();
    let r = t.add_router("r");
    let rd = t.add_router("rd");
    let fast = LinkParams {
        bandwidth_bps: bottleneck.bandwidth_bps * 10,
        ..LinkParams::default()
    };
    for s in srcs {
        t.add_duplex_link(s, r, fast);
    }
    t.add_duplex_link(r, rd, bottleneck);
    t
}

/// A random connected graph: a random spanning tree plus `extra` random
/// duplex links.
pub fn random_connected(n: usize, extra: usize, seed: u64) -> Topology {
    assert!(n >= 2, "need at least two routers");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let ids: Vec<RouterId> = (0..n).map(|i| t.add_router(&format!("n{i}"))).collect();
    for i in 1..n {
        let j = rng.gen_range(0..i);
        t.add_duplex_link(ids[i], ids[j], LinkParams::default());
    }
    let mut placed = 0;
    let mut attempts = 0;
    while placed < extra && attempts < extra * 100 + 100 {
        attempts += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b && !t.has_link(ids[a], ids[b]) {
            t.add_duplex_link(ids[a], ids[b], LinkParams::default());
            placed += 1;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_shape() {
        let t = abilene();
        assert_eq!(t.router_count(), 11);
        assert_eq!(t.duplex_link_count(), 14);
        assert!(t.is_connected());
    }

    #[test]
    fn abilene_primary_route_matches_fig_5_7() {
        let t = abilene();
        let r = t.link_state_routes();
        let by = |n: &str| t.router_by_name(n).unwrap();
        let p = r.path(by("Sunnyvale"), by("NewYork")).unwrap();
        let names: Vec<&str> = p.routers().iter().map(|&id| t.name(id)).collect();
        assert_eq!(
            names,
            [
                "Sunnyvale",
                "Denver",
                "KansasCity",
                "Indianapolis",
                "Chicago",
                "NewYork"
            ]
        );
        assert_eq!(r.cost(by("Sunnyvale"), by("NewYork")), Some(25));
    }

    #[test]
    fn abilene_detour_costs_28() {
        use crate::dynamic::DynamicTopology;
        use crate::segments::PathSegment;
        let t = abilene();
        let by = |n: &str| t.router_by_name(n).unwrap();
        let mut av = DynamicTopology::new(t.clone());
        av.exclude_segment(PathSegment::new(vec![
            by("Denver"),
            by("KansasCity"),
            by("Indianapolis"),
        ]));
        let p = av.path(by("Sunnyvale"), by("NewYork")).unwrap();
        let names: Vec<&str> = p.routers().iter().map(|&id| t.name(id)).collect();
        assert_eq!(
            names,
            [
                "Sunnyvale",
                "LosAngeles",
                "Houston",
                "Atlanta",
                "WashingtonDC",
                "NewYork"
            ]
        );
    }

    #[test]
    fn sprintlink_like_matches_rocketfuel_statistics() {
        let t = sprintlink_like(1);
        assert_eq!(t.router_count(), 315);
        assert_eq!(t.duplex_link_count(), 972);
        assert!(t.is_connected());
        assert!(t.max_degree() <= 45);
        // Mean duplex degree 2·972/315 ≈ 6.17.
        assert!((t.mean_degree() - 6.17).abs() < 0.1);
        // Heavy tail: some hub should get close to the cap.
        assert!(t.max_degree() >= 25, "max degree {}", t.max_degree());
    }

    #[test]
    fn ebone_like_matches_rocketfuel_statistics() {
        let t = ebone_like(1);
        assert_eq!(t.router_count(), 87);
        assert_eq!(t.duplex_link_count(), 161);
        assert!(t.is_connected());
        assert!(t.max_degree() <= 11);
        assert!((t.mean_degree() - 3.70).abs() < 0.1);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a = ebone_like(7);
        let b = ebone_like(7);
        let la: Vec<_> = a.links().map(|l| (l.from, l.to)).collect();
        let lb: Vec<_> = b.links().map(|l| (l.from, l.to)).collect();
        assert_eq!(la, lb);
        let c = ebone_like(8);
        let lc: Vec<_> = c.links().map(|l| (l.from, l.to)).collect();
        assert_ne!(la, lc);
    }

    #[test]
    fn line_ring_grid_shapes() {
        assert_eq!(line(5).duplex_link_count(), 4);
        assert_eq!(ring(5).duplex_link_count(), 5);
        let g = grid(3, 4);
        assert_eq!(g.router_count(), 12);
        assert_eq!(g.duplex_link_count(), 3 * 4 * 2 - 3 - 4); // 17
        assert!(g.is_connected());
    }

    #[test]
    fn fan_in_shape() {
        let t = fan_in(3, LinkParams::default());
        assert_eq!(t.router_count(), 5);
        assert_eq!(t.duplex_link_count(), 4);
        let r = t.router_by_name("r").unwrap();
        assert_eq!(t.degree(r), 4);
        // Sources route to rd through r.
        let routes = t.link_state_routes();
        let s0 = t.router_by_name("s0").unwrap();
        let rd = t.router_by_name("rd").unwrap();
        assert_eq!(routes.path(s0, rd).unwrap().routers(), &[s0, r, rd]);
    }

    #[test]
    fn random_connected_is_connected() {
        for seed in 0..5 {
            let t = random_connected(30, 15, seed);
            assert!(t.is_connected(), "seed {seed}");
        }
    }
}
