//! Scheduled fault plans: which element fails or heals at which step.

use rtcac_net::{LinkId, NodeId, SimRng, Topology};

/// One health transition of a network element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Marks a link down.
    LinkDown(LinkId),
    /// Marks a link up again.
    LinkUp(LinkId),
    /// Marks a node down.
    NodeDown(NodeId),
    /// Marks a node up again.
    NodeUp(NodeId),
}

impl std::fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEvent::LinkDown(link) => write!(f, "link {link} DOWN"),
            FaultEvent::LinkUp(link) => write!(f, "link {link} UP"),
            FaultEvent::NodeDown(node) => write!(f, "node {node} DOWN"),
            FaultEvent::NodeUp(node) => write!(f, "node {node} UP"),
        }
    }
}

/// An ordered schedule of [`FaultEvent`]s, each pinned to the chaos
/// step at which it fires. Steps are the chaos driver's discrete time;
/// multiple events may share a step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<(u64, FaultEvent)>,
}

/// At most this many elements are concurrently down in a random plan,
/// so the network keeps enough capacity for crankback to have
/// somewhere to go.
pub const MAX_CONCURRENT_DOWN: usize = 2;

impl FaultPlan {
    /// A plan from explicit `(step, event)` pairs; the pairs are
    /// sorted by step (stably, preserving same-step order).
    pub fn new(mut events: Vec<(u64, FaultEvent)>) -> FaultPlan {
        events.sort_by_key(|&(step, _)| step);
        FaultPlan { events }
    }

    /// The scheduled events in firing order.
    pub fn events(&self) -> &[(u64, FaultEvent)] {
        &self.events
    }

    /// A seeded random plan over `steps` chaos steps: each step fires
    /// a fault event with probability `rate_percent`/100. Failures hit
    /// random links (any) and switch nodes (1 in 4 events); once
    /// [`MAX_CONCURRENT_DOWN`] elements are down, or with a coin flip
    /// while anything is down, the event heals a random down element
    /// instead. Equal seeds give equal plans.
    pub fn random(topology: &Topology, seed: u64, steps: u64, rate_percent: u64) -> FaultPlan {
        let mut rng = SimRng::seed_from_u64(seed);
        let links: Vec<LinkId> = topology.links().iter().map(|l| l.id()).collect();
        let switches: Vec<NodeId> = topology.switches().map(|n| n.id()).collect();
        let mut down_links: Vec<LinkId> = Vec::new();
        let mut down_nodes: Vec<NodeId> = Vec::new();
        let mut events = Vec::new();
        for step in 0..steps {
            if rng.gen_below(100) >= rate_percent.min(100) {
                continue;
            }
            let downs = down_links.len() + down_nodes.len();
            let heal = downs >= MAX_CONCURRENT_DOWN || (downs > 0 && rng.gen_below(2) == 1);
            let event = if heal {
                let pick = rng.gen_below(downs as u64) as usize;
                if pick < down_links.len() {
                    FaultEvent::LinkUp(down_links.remove(pick))
                } else {
                    FaultEvent::NodeUp(down_nodes.remove(pick - down_links.len()))
                }
            } else if !switches.is_empty() && rng.gen_below(4) == 0 {
                let node = switches[rng.gen_below(switches.len() as u64) as usize];
                if down_nodes.contains(&node) {
                    continue;
                }
                down_nodes.push(node);
                FaultEvent::NodeDown(node)
            } else if !links.is_empty() {
                let link = links[rng.gen_below(links.len() as u64) as usize];
                if down_links.contains(&link) {
                    continue;
                }
                down_links.push(link);
                FaultEvent::LinkDown(link)
            } else {
                continue;
            };
            events.push((step, event));
        }
        FaultPlan { events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_net::builders;

    #[test]
    fn equal_seeds_give_equal_plans() {
        let sr = builders::dual_star_ring(8, 1).unwrap();
        let a = FaultPlan::random(sr.topology(), 7, 100, 30);
        let b = FaultPlan::random(sr.topology(), 7, 100, 30);
        assert_eq!(a, b);
        assert!(!a.events().is_empty(), "a 30% rate over 100 steps fires");
        let c = FaultPlan::random(sr.topology(), 8, 100, 30);
        assert_ne!(a, c, "distinct seeds diverge");
    }

    #[test]
    fn random_plan_caps_concurrent_failures_and_balances_heals() {
        let sr = builders::dual_star_ring(8, 1).unwrap();
        let plan = FaultPlan::random(sr.topology(), 3, 500, 50);
        let mut down: usize = 0;
        for &(_, event) in plan.events() {
            match event {
                FaultEvent::LinkDown(_) | FaultEvent::NodeDown(_) => down += 1,
                FaultEvent::LinkUp(_) | FaultEvent::NodeUp(_) => {
                    down = down.checked_sub(1).expect("heal without failure")
                }
            }
            assert!(down <= MAX_CONCURRENT_DOWN);
        }
    }

    #[test]
    fn explicit_plans_sort_by_step() {
        let sr = builders::dual_star_ring(4, 1).unwrap();
        let link = sr.ring_link(0).unwrap();
        let plan = FaultPlan::new(vec![
            (9, FaultEvent::LinkUp(link)),
            (2, FaultEvent::LinkDown(link)),
        ]);
        assert_eq!(plan.events()[0].0, 2);
        assert_eq!(plan.events()[1].0, 9);
    }
}
