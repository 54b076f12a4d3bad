//! Topology generators for storm rounds.
//!
//! The star-ring family of [`rtcac_net::builders`] covers the paper's
//! reference fabric; storm rounds also need *shapes the admission
//! paths were never tuned for*. The deterministic generators
//! (star-of-star-rings, fat-tree) live in `rtcac_net::builders`; this
//! module adds the seeded sparse-WAN generator and the kind selector
//! the fuzzer draws from.

use rtcac_net::{builders, NetError, NodeId, SimRng, Topology};

/// The topology families a storm round can draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// Two-level hierarchy: a top ring of region hubs, each hanging a
    /// star-ring of its own (`rtcac_net::builders::star_of_star_rings`).
    StarOfRings,
    /// A k-ary fat-tree (core/aggregation/edge) with hosts on the
    /// edge switches (`rtcac_net::builders::fat_tree`).
    FatTree,
    /// A seeded sparse WAN: a random spanning tree over the switches
    /// plus a few chord links, one terminal per switch.
    SparseWan,
}

impl TopologyKind {
    /// Every generator, in the order the `mixed` CLI mode cycles.
    pub const ALL: [TopologyKind; 3] = [
        TopologyKind::StarOfRings,
        TopologyKind::FatTree,
        TopologyKind::SparseWan,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::StarOfRings => "star-of-rings",
            TopologyKind::FatTree => "fat-tree",
            TopologyKind::SparseWan => "wan",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(name: &str) -> Option<TopologyKind> {
        TopologyKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A modest instance of `kind`, sized from seeded draws — small
/// enough that a fuzz round stays fast, varied enough that shard
/// counts, route lengths, and branch degrees differ between rounds.
///
/// # Errors
///
/// Propagates [`NetError`] from the underlying builders (unreachable
/// for the parameter ranges drawn here).
pub fn generate_topology(kind: TopologyKind, rng: &mut SimRng) -> Result<Topology, NetError> {
    generate_topology_sized(kind, rng, None)
}

/// [`generate_topology`] with an optional switch budget. With
/// `nodes = None` the fuzzer's small seeded draws apply; with
/// `Some(budget)` each family is sized to land *near* `budget`
/// switches (each generator's combinatorics quantize the count — a
/// fat-tree needs `5k²/4` switches for even `k` — so the realized
/// count is the closest shape at or under the budget, never more than
/// a constant factor below it).
///
/// # Errors
///
/// Propagates [`NetError`] from the underlying builders (unreachable
/// for the parameter ranges produced here).
pub fn generate_topology_sized(
    kind: TopologyKind,
    rng: &mut SimRng,
    nodes: Option<usize>,
) -> Result<Topology, NetError> {
    let Some(budget) = nodes else {
        return match kind {
            TopologyKind::StarOfRings => {
                let regions = 2 + rng.gen_below(2) as usize;
                let ring_nodes = 2 + rng.gen_below(2) as usize;
                let terminals = 1 + rng.gen_below(2) as usize;
                builders::star_of_star_rings(regions, ring_nodes, terminals)
            }
            TopologyKind::FatTree => builders::fat_tree(4),
            TopologyKind::SparseWan => {
                let switches = 5 + rng.gen_below(6) as usize;
                let chords = 1 + rng.gen_below(3) as usize;
                sparse_wan(rng, switches, chords)
            }
        };
    };
    let budget = budget.max(4);
    match kind {
        TopologyKind::StarOfRings => {
            // switches = regions × (ring_nodes + 1); a square-ish
            // split keeps both the top ring and the per-region rings
            // proportional to √budget.
            let regions = isqrt(budget).max(2);
            let ring_nodes = (budget / regions).saturating_sub(1).max(2);
            builders::star_of_star_rings(regions, ring_nodes, 1)
        }
        TopologyKind::FatTree => {
            // switches = 5k²/4 for even k ≥ 2.
            let k = (isqrt(budget * 4 / 5) & !1).max(2);
            builders::fat_tree(k)
        }
        TopologyKind::SparseWan => sparse_wan(rng, budget, budget / 4),
    }
}

/// Integer square root: the largest `r` with `r * r <= n`.
fn isqrt(n: usize) -> usize {
    if n < 2 {
        return n;
    }
    let mut r = n / 2;
    loop {
        let next = (r + n / r) / 2;
        if next >= r {
            return r;
        }
        r = next;
    }
}

/// A seeded sparse WAN: `switches` switch nodes joined by a random
/// spanning tree (every switch after the first picks a random earlier
/// switch as its uplink), plus up to `chords` extra duplex links
/// between random non-adjacent switches, and one terminal per switch.
/// Equal seeds give equal graphs.
///
/// # Errors
///
/// Propagates [`NetError`] from link insertion (unreachable for
/// `switches >= 2`).
pub fn sparse_wan(rng: &mut SimRng, switches: usize, chords: usize) -> Result<Topology, NetError> {
    let switches = switches.max(2);
    let mut topology = Topology::new();
    let ids: Vec<NodeId> = (0..switches)
        .map(|i| topology.add_switch(format!("w{i}")))
        .collect();
    let mut adjacent: Vec<(usize, usize)> = Vec::new();
    for i in 1..switches {
        let up = rng.gen_below(i as u64) as usize;
        topology.add_duplex(ids[i], ids[up])?;
        adjacent.push((up.min(i), up.max(i)));
    }
    for _ in 0..chords {
        let a = rng.gen_below(switches as u64) as usize;
        let b = rng.gen_below(switches as u64) as usize;
        let key = (a.min(b), a.max(b));
        if a != b && !adjacent.contains(&key) {
            topology.add_duplex(ids[a], ids[b])?;
            adjacent.push(key);
        }
    }
    for (i, &switch) in ids.iter().enumerate() {
        let host = topology.add_end_system(format!("w{i}h"));
        topology.add_duplex(host, switch)?;
    }
    Ok(topology)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in TopologyKind::ALL {
            assert_eq!(TopologyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(TopologyKind::parse("nonsense"), None);
    }

    #[test]
    fn sparse_wan_is_connected_and_deterministic() {
        let mut rng = SimRng::seed_from_u64(11);
        let t = sparse_wan(&mut rng, 9, 3).unwrap();
        assert_eq!(t.switches().count(), 9);
        assert_eq!(t.end_systems().count(), 9);
        // Spanning tree construction ⇒ every terminal reaches every
        // other terminal.
        let hosts: Vec<NodeId> = t.end_systems().map(|n| n.id()).collect();
        for &to in &hosts[1..] {
            assert!(t.shortest_route(hosts[0], to).is_ok());
        }
        // Equal seeds give byte-equal graphs.
        let mut rng2 = SimRng::seed_from_u64(11);
        let t2 = sparse_wan(&mut rng2, 9, 3).unwrap();
        assert_eq!(t.links().len(), t2.links().len());
        assert_eq!(
            t.nodes().iter().map(|n| n.name()).collect::<Vec<_>>(),
            t2.nodes().iter().map(|n| n.name()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generate_topology_covers_every_kind() {
        let mut rng = SimRng::seed_from_u64(5);
        for kind in TopologyKind::ALL {
            let t = generate_topology(kind, &mut rng).unwrap();
            assert!(t.switches().count() >= 2, "{kind}: too few switches");
            assert!(t.end_systems().count() >= 2, "{kind}: too few terminals");
        }
    }

    /// The lifted-caps satellite: every family must scale to a
    /// thousand-switch fabric, landing near (and never over 2× under)
    /// the requested budget.
    #[test]
    fn sized_generation_reaches_a_thousand_switches() {
        for kind in TopologyKind::ALL {
            let mut rng = SimRng::seed_from_u64(0x1000);
            let t = generate_topology_sized(kind, &mut rng, Some(1000)).unwrap();
            let switches = t.switches().count();
            assert!(
                (500..=1000).contains(&switches),
                "{kind}: {switches} switches for a budget of 1000"
            );
            assert!(t.end_systems().count() >= 2, "{kind}: too few terminals");
        }
    }

    #[test]
    fn sized_generation_is_deterministic_and_handles_tiny_budgets() {
        for kind in TopologyKind::ALL {
            for budget in [1, 4, 37] {
                let mut a = SimRng::seed_from_u64(9);
                let mut b = SimRng::seed_from_u64(9);
                let ta = generate_topology_sized(kind, &mut a, Some(budget)).unwrap();
                let tb = generate_topology_sized(kind, &mut b, Some(budget)).unwrap();
                assert!(ta.switches().count() >= 2);
                assert_eq!(
                    ta.nodes().iter().map(|n| n.name()).collect::<Vec<_>>(),
                    tb.nodes().iter().map(|n| n.name()).collect::<Vec<_>>(),
                    "{kind} budget {budget}: not deterministic"
                );
            }
        }
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0..2000usize {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n, "isqrt({n}) = {r}");
        }
    }
}
