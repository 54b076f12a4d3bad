//! Time-varying impairment profiles.
//!
//! A profile compiles into a deterministic stream of `(slot, event)`
//! pairs over the fuzzer's discrete time. Fail/heal events drive the
//! health overlay (the same transitions a [`crate::FaultPlan`]
//! fires); degrade/restore events drive the CDV-inflation seam of the
//! admission paths — a degraded link adds jitter that *tightens*
//! Algorithm 4.1's bounds for every connection priced across it until
//! the link is restored.
//!
//! Every compiled schedule ends clean: whatever it failed it heals,
//! whatever it degraded it restores, so a storm round's final audits
//! (no orphans, guarantees intact, original decisions restored) run
//! against a healthy network.

use rtcac_net::{LinkId, NodeId, SimRng, Topology};

/// The impairment shapes a storm round can schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileKind {
    /// One inter-switch link flaps down/up on a fixed period.
    Flap,
    /// A few links brown out: CDV inflation ramps up in stages, then
    /// every link is restored at once.
    Brownout,
    /// One link degrades, then fails outright, then heals, then
    /// restores — the full degrade-then-heal arc.
    DegradeHeal,
    /// A correlated regional outage: one switch and an adjacent
    /// inter-switch link fail together and heal together.
    Regional,
}

impl ProfileKind {
    /// Every profile, in the order the `mixed` CLI mode cycles.
    pub const ALL: [ProfileKind; 4] = [
        ProfileKind::Flap,
        ProfileKind::Brownout,
        ProfileKind::DegradeHeal,
        ProfileKind::Regional,
    ];

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            ProfileKind::Flap => "flap",
            ProfileKind::Brownout => "brownout",
            ProfileKind::DegradeHeal => "degrade-heal",
            ProfileKind::Regional => "regional",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(name: &str) -> Option<ProfileKind> {
        ProfileKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for ProfileKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One scheduled impairment transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImpairmentEvent {
    /// Mark a link down.
    FailLink(LinkId),
    /// Restore a failed link.
    HealLink(LinkId),
    /// Mark a node down.
    FailNode(NodeId),
    /// Restore a failed node.
    HealNode(NodeId),
    /// Add `cells` of CDV inflation on a link.
    DegradeLink(LinkId, u64),
    /// Clear a link's CDV inflation.
    RestoreLink(LinkId),
}

/// Inter-switch links of `topology`, the only targets profiles touch
/// (impairing an access link just severs one terminal; impairing the
/// fabric is what stresses rerouting and repricing).
fn fabric_links(topology: &Topology) -> Vec<LinkId> {
    topology
        .links()
        .iter()
        .filter(|l| {
            let from_switch = topology.node(l.from()).map(|n| n.is_switch());
            let to_switch = topology.node(l.to()).map(|n| n.is_switch());
            matches!((from_switch, to_switch), (Ok(true), Ok(true)))
        })
        .map(|l| l.id())
        .collect()
}

/// Compiles `kind` against `topology` into a deterministic `(slot,
/// event)` schedule spanning `span` fuzzer slots. Equal seeds give
/// equal schedules; every schedule heals and restores everything it
/// impaired by its final slot.
pub fn compile_profile(
    kind: ProfileKind,
    topology: &Topology,
    rng: &mut SimRng,
    span: u64,
) -> Vec<(u64, ImpairmentEvent)> {
    let fabric = fabric_links(topology);
    if fabric.is_empty() {
        return Vec::new();
    }
    let span = span.max(6);
    let pick = |rng: &mut SimRng| fabric[rng.gen_below(fabric.len() as u64) as usize];
    let mut events = Vec::new();
    match kind {
        ProfileKind::Flap => {
            let link = pick(rng);
            let period = (span / 6).max(1);
            let mut down = false;
            let mut slot = period;
            while slot < span {
                events.push((
                    slot,
                    if down {
                        ImpairmentEvent::HealLink(link)
                    } else {
                        ImpairmentEvent::FailLink(link)
                    },
                ));
                down = !down;
                slot += period;
            }
            if down {
                events.push((span, ImpairmentEvent::HealLink(link)));
            }
        }
        ProfileKind::Brownout => {
            let mut targets = vec![pick(rng)];
            let second = pick(rng);
            if second != targets[0] {
                targets.push(second);
            }
            for (stage, cells) in [16u64, 48, 96].into_iter().enumerate() {
                let slot = span * (stage as u64 + 1) / 5;
                for &link in &targets {
                    events.push((slot, ImpairmentEvent::DegradeLink(link, cells)));
                }
            }
            for &link in &targets {
                events.push((span * 4 / 5, ImpairmentEvent::RestoreLink(link)));
            }
        }
        ProfileKind::DegradeHeal => {
            let link = pick(rng);
            events.push((span / 5, ImpairmentEvent::DegradeLink(link, 32)));
            events.push((span * 2 / 5, ImpairmentEvent::FailLink(link)));
            events.push((span * 3 / 5, ImpairmentEvent::HealLink(link)));
            events.push((span * 4 / 5, ImpairmentEvent::RestoreLink(link)));
        }
        ProfileKind::Regional => {
            let link = pick(rng);
            // The region is the link's tail switch: take the switch
            // and the fabric link down together, heal together —
            // correlated, not independent, failures.
            if let Ok(l) = topology.link(link) {
                let node = l.from();
                events.push((span / 3, ImpairmentEvent::FailLink(link)));
                events.push((span / 3, ImpairmentEvent::FailNode(node)));
                events.push((span * 2 / 3, ImpairmentEvent::HealNode(node)));
                events.push((span * 2 / 3, ImpairmentEvent::HealLink(link)));
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::sparse_wan;
    use std::collections::BTreeMap;

    fn test_topology() -> Topology {
        let mut rng = SimRng::seed_from_u64(3);
        sparse_wan(&mut rng, 8, 2).unwrap()
    }

    #[test]
    fn profiles_round_trip_their_names() {
        for kind in ProfileKind::ALL {
            assert_eq!(ProfileKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ProfileKind::parse("sunny"), None);
    }

    /// Replays a schedule's health/degradation state transitions and
    /// asserts it ends fully healed and restored.
    fn assert_ends_clean(events: &[(u64, ImpairmentEvent)]) {
        let mut down_links: BTreeMap<LinkId, ()> = BTreeMap::new();
        let mut down_nodes: BTreeMap<NodeId, ()> = BTreeMap::new();
        let mut degraded: BTreeMap<LinkId, u64> = BTreeMap::new();
        let mut sorted = events.to_vec();
        sorted.sort_by_key(|&(slot, _)| slot);
        for (_, event) in sorted {
            match event {
                ImpairmentEvent::FailLink(l) => drop(down_links.insert(l, ())),
                ImpairmentEvent::HealLink(l) => drop(down_links.remove(&l)),
                ImpairmentEvent::FailNode(n) => drop(down_nodes.insert(n, ())),
                ImpairmentEvent::HealNode(n) => drop(down_nodes.remove(&n)),
                ImpairmentEvent::DegradeLink(l, cells) => drop(degraded.insert(l, cells)),
                ImpairmentEvent::RestoreLink(l) => drop(degraded.remove(&l)),
            }
        }
        assert!(down_links.is_empty(), "links left down");
        assert!(down_nodes.is_empty(), "nodes left down");
        assert!(degraded.is_empty(), "links left degraded");
    }

    #[test]
    fn every_profile_compiles_deterministically_and_ends_clean() {
        let topology = test_topology();
        for kind in ProfileKind::ALL {
            let mut a = SimRng::seed_from_u64(17);
            let mut b = SimRng::seed_from_u64(17);
            let ea = compile_profile(kind, &topology, &mut a, 60);
            let eb = compile_profile(kind, &topology, &mut b, 60);
            assert_eq!(ea, eb, "{kind}: schedules diverge for equal seeds");
            assert!(!ea.is_empty(), "{kind}: empty schedule");
            assert_ends_clean(&ea);
        }
    }

    #[test]
    fn flap_alternates_and_brownout_stages_ramp() {
        let topology = test_topology();
        let mut rng = SimRng::seed_from_u64(2);
        let flaps = compile_profile(ProfileKind::Flap, &topology, &mut rng, 60);
        let fails = flaps
            .iter()
            .filter(|(_, e)| matches!(e, ImpairmentEvent::FailLink(_)))
            .count();
        let heals = flaps
            .iter()
            .filter(|(_, e)| matches!(e, ImpairmentEvent::HealLink(_)))
            .count();
        assert_eq!(fails, heals, "every flap down has an up");
        assert!(fails >= 2, "a flap profile flaps more than once");

        let mut rng = SimRng::seed_from_u64(2);
        let brown = compile_profile(ProfileKind::Brownout, &topology, &mut rng, 60);
        let stages: Vec<u64> = brown
            .iter()
            .filter_map(|(_, e)| match e {
                ImpairmentEvent::DegradeLink(_, cells) => Some(*cells),
                _ => None,
            })
            .collect();
        assert!(stages.windows(2).all(|w| w[0] <= w[1]), "stages ramp up");
    }
}
