//! The network model of dissertation §4.1: individual routers
//! interconnected by directional point-to-point links.

/// A router identity. Stable for the lifetime of a [`Topology`];
/// convertible to `u32` for the key infrastructure.
///
/// # Examples
///
/// ```
/// use fatih_topology::{RouterId, Topology};
/// let mut t = Topology::new();
/// let a = t.add_router("a");
/// assert_eq!(u32::from(a), 0);
/// assert_eq!(RouterId::from(0u32), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(pub(crate) u32);

impl RouterId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<RouterId> for u32 {
    fn from(r: RouterId) -> u32 {
        r.0
    }
}

impl From<u32> for RouterId {
    fn from(v: u32) -> RouterId {
        RouterId(v)
    }
}

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Physical parameters of a directional link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkParams {
    /// Link bandwidth in bits per second.
    pub bandwidth_bps: u64,
    /// Propagation delay in nanoseconds.
    pub delay_ns: u64,
    /// Routing metric (OSPF-style cost).
    pub cost: u32,
    /// Output-queue capacity in bytes at the transmitting interface.
    pub queue_limit_bytes: u32,
}

impl Default for LinkParams {
    /// A 100 Mbit/s, 1 ms, cost-1 link with a 64 kB output buffer — the
    /// scale of the dissertation's Emulab experiments.
    fn default() -> Self {
        Self {
            bandwidth_bps: 100_000_000,
            delay_ns: 1_000_000,
            cost: 1,
            queue_limit_bytes: 64 * 1024,
        }
    }
}

impl LinkParams {
    /// Convenience constructor with delay given in milliseconds and cost
    /// equal to that delay (delay-proportional metrics, as in the Abilene
    /// configuration of §5.3.2).
    pub fn with_delay_ms(delay_ms: u64) -> Self {
        Self {
            delay_ns: delay_ms * 1_000_000,
            cost: delay_ms.max(1) as u32,
            ..Self::default()
        }
    }

    /// Transmission time of `bytes` on this link, in nanoseconds.
    pub fn tx_time_ns(&self, bytes: u32) -> u64 {
        (bytes as u64 * 8).saturating_mul(1_000_000_000) / self.bandwidth_bps
    }
}

/// A directed link `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Link {
    /// Transmitting router.
    pub from: RouterId,
    /// Receiving router.
    pub to: RouterId,
    /// Physical parameters.
    pub params: LinkParams,
}

/// A network of routers and directional point-to-point links (§4.1's
/// directed-graph model; broadcast channels are represented as collections
/// of point-to-point links).
///
/// # Examples
///
/// ```
/// use fatih_topology::{LinkParams, Topology};
/// let mut t = Topology::new();
/// let a = t.add_router("a");
/// let b = t.add_router("b");
/// t.add_duplex_link(a, b, LinkParams::default());
/// assert_eq!(t.router_count(), 2);
/// assert_eq!(t.duplex_link_count(), 1);
/// assert!(t.has_link(a, b) && t.has_link(b, a));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    names: Vec<String>,
    adjacency: Vec<Vec<(RouterId, LinkParams)>>,
    /// `incoming[w]`: the `(u, cost)` of every link `u → w` — what a
    /// search toward a destination walks.
    incoming: Vec<Vec<(RouterId, u32)>>,
    directed_links: usize,
}

impl Topology {
    /// An empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a router with a human-readable name, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (names are used for lookups in
    /// examples and figure regenerators, so collisions are bugs).
    pub fn add_router(&mut self, name: &str) -> RouterId {
        assert!(
            self.router_by_name(name).is_none(),
            "duplicate router name {name:?}"
        );
        let id = RouterId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.adjacency.push(Vec::new());
        self.incoming.push(Vec::new());
        id
    }

    /// Adds a directional link.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, unknown routers, or duplicate links.
    pub fn add_link(&mut self, from: RouterId, to: RouterId, params: LinkParams) {
        assert_ne!(from, to, "self-loop on {from}");
        assert!(from.index() < self.names.len(), "unknown router {from}");
        assert!(to.index() < self.names.len(), "unknown router {to}");
        assert!(!self.has_link(from, to), "duplicate link {from} -> {to}");
        self.adjacency[from.index()].push((to, params));
        self.incoming[to.index()].push((from, params.cost));
        self.directed_links += 1;
    }

    /// Adds a pair of directional links with identical parameters (the
    /// usual way to model a physical duplex link).
    pub fn add_duplex_link(&mut self, a: RouterId, b: RouterId, params: LinkParams) {
        self.add_link(a, b, params);
        self.add_link(b, a, params);
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directional links.
    pub fn link_count(&self) -> usize {
        self.directed_links
    }

    /// Number of duplex links (directional count halved, rounded down).
    pub fn duplex_link_count(&self) -> usize {
        self.directed_links / 2
    }

    /// All router ids.
    pub fn routers(&self) -> impl Iterator<Item = RouterId> + '_ {
        (0..self.names.len() as u32).map(RouterId)
    }

    /// The router's configured name.
    ///
    /// # Panics
    ///
    /// Panics on an id from another topology.
    pub fn name(&self, r: RouterId) -> &str {
        &self.names[r.index()]
    }

    /// Looks up a router by name.
    pub fn router_by_name(&self, name: &str) -> Option<RouterId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| RouterId(i as u32))
    }

    /// Outgoing neighbours of `r` with link parameters.
    pub fn neighbors(&self, r: RouterId) -> &[(RouterId, LinkParams)] {
        &self.adjacency[r.index()]
    }

    /// Incoming neighbours of `r`: the far end and routing cost of every
    /// link *into* `r`.
    pub(crate) fn in_neighbors(&self, r: RouterId) -> &[(RouterId, u32)] {
        &self.incoming[r.index()]
    }

    /// Out-degree of `r`.
    pub fn degree(&self, r: RouterId) -> usize {
        self.adjacency[r.index()].len()
    }

    /// Maximum out-degree across the network (the `R` of the §5.1.1
    /// overhead analysis).
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean out-degree.
    pub fn mean_degree(&self) -> f64 {
        if self.names.is_empty() {
            0.0
        } else {
            self.directed_links as f64 / self.names.len() as f64
        }
    }

    /// Whether a directional link exists.
    pub fn has_link(&self, from: RouterId, to: RouterId) -> bool {
        self.link(from, to).is_some()
    }

    /// Parameters of the link `from → to`, if present.
    pub fn link(&self, from: RouterId, to: RouterId) -> Option<LinkParams> {
        self.adjacency
            .get(from.index())?
            .iter()
            .find(|(n, _)| *n == to)
            .map(|(_, p)| *p)
    }

    /// All directed links.
    pub fn links(&self) -> impl Iterator<Item = Link> + '_ {
        self.adjacency.iter().enumerate().flat_map(|(i, nbrs)| {
            nbrs.iter().map(move |(to, params)| Link {
                from: RouterId(i as u32),
                to: *to,
                params: *params,
            })
        })
    }

    /// Whether the underlying undirected graph is connected (the *good
    /// path* assumption of §2.1.3 requires at least this much).
    pub fn is_connected(&self) -> bool {
        if self.names.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.names.len()];
        let mut stack = vec![RouterId(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(r) = stack.pop() {
            for &(n, _) in self.neighbors(r) {
                if !seen[n.index()] {
                    seen[n.index()] = true;
                    count += 1;
                    stack.push(n);
                }
            }
        }
        count == self.names.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Topology, RouterId, RouterId, RouterId) {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let c = t.add_router("c");
        t.add_duplex_link(a, b, LinkParams::default());
        t.add_duplex_link(b, c, LinkParams::default());
        t.add_duplex_link(c, a, LinkParams::default());
        (t, a, b, c)
    }

    #[test]
    fn build_and_query() {
        let (t, a, b, c) = triangle();
        assert_eq!(t.router_count(), 3);
        assert_eq!(t.link_count(), 6);
        assert_eq!(t.duplex_link_count(), 3);
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.max_degree(), 2);
        assert!((t.mean_degree() - 2.0).abs() < 1e-12);
        assert_eq!(t.name(b), "b");
        assert_eq!(t.router_by_name("c"), Some(c));
        assert_eq!(t.router_by_name("zz"), None);
        assert!(t.is_connected());
    }

    #[test]
    fn asymmetric_links_allowed() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        t.add_link(a, b, LinkParams::default());
        assert!(t.has_link(a, b));
        assert!(!t.has_link(b, a));
    }

    #[test]
    fn disconnected_detected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        let _c = t.add_router("island");
        t.add_duplex_link(a, b, LinkParams::default());
        assert!(!t.is_connected());
    }

    #[test]
    fn links_iterator_counts_directed() {
        let (t, ..) = triangle();
        assert_eq!(t.links().count(), 6);
    }

    #[test]
    fn tx_time_is_bits_over_bandwidth() {
        let p = LinkParams {
            bandwidth_bps: 8_000_000, // 1 byte/us
            ..LinkParams::default()
        };
        assert_eq!(p.tx_time_ns(1000), 1_000_000);
    }

    #[test]
    #[should_panic(expected = "duplicate router name")]
    fn duplicate_names_rejected() {
        let mut t = Topology::new();
        t.add_router("a");
        t.add_router("a");
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        t.add_link(a, a, LinkParams::default());
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_router("a");
        let b = t.add_router("b");
        t.add_link(a, b, LinkParams::default());
        t.add_link(a, b, LinkParams::default());
    }
}
