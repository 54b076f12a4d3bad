//! The differential scenario fuzzer: seeded, *valid* `.rtcac`
//! scenario files over generated topologies.
//!
//! [`generate`] draws a topology, compiles an impairment profile into
//! interleaved fault/degrade directives, and fills the slots between
//! them with connects (unicast, explicit-route, crankback, multicast
//! trees) and releases whose arrival intensity follows the
//! self-similar background source. The output is a *structured*
//! scenario — [`StormScenario`] holds the directive list, renders the
//! scenario text ([`StormScenario::emit`]), and supports subsetting
//! ([`StormScenario::retain`]) so a failing scenario can be
//! delta-minimized while staying parseable.
//!
//! Every directive also carries a resolution-independent signature
//! ([`StormScenario::signature`]): the *resolved* link set of each
//! connect plus its request parameters. The CLI re-derives the same
//! canonical form from the parsed scenario, so emit → parse →
//! signature round-trips prove the emitter and the parser agree about
//! what every directive means — not just that the text parses.

use std::collections::BTreeMap;

use rtcac_net::{LinkId, MulticastTree, NetError, NodeId, SimRng, Topology};

use crate::impairment::{compile_profile, ImpairmentEvent, ProfileKind};
use crate::topo::{generate_topology_sized, TopologyKind};
use crate::traffic::LrdVbrSource;

/// How a generated connect names its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectForm {
    /// `connect NAME from=A to=B` — breadth-first shortest route.
    Shortest {
        /// Source terminal name.
        from: String,
        /// Destination terminal name.
        to: String,
    },
    /// `connect NAME route=l1,l2,…` — the links spelled out.
    ExplicitRoute {
        /// Link names in path order.
        links: Vec<String>,
    },
    /// `connect NAME from=A to=B crankback=N` — shortest route with an
    /// ATM crankback retry budget.
    Crankback {
        /// Source terminal name.
        from: String,
        /// Destination terminal name.
        to: String,
        /// Retry budget.
        budget: usize,
    },
    /// `mconnect NAME tree=l1,l2,…` — a multicast tree spelled out.
    Tree {
        /// Tree links.
        links: Vec<String>,
    },
    /// `connect-mcast NAME ROOT L1,L2` — shortest tree grown from the
    /// root to the named leaves.
    Mcast {
        /// Root terminal name.
        root: String,
        /// Leaf terminal names.
        leaves: Vec<String>,
    },
}

/// One generated scenario directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// A connection setup in one of the [`ConnectForm`]s.
    Connect {
        /// Scenario-local connection name.
        name: String,
        /// The emitted form.
        form: ConnectForm,
        /// Canonical contract text (`cbr:1/8` or `vbr:1/4,1/16,8`).
        contract: String,
        /// Explicit priority level, when emitted.
        priority: Option<u8>,
        /// Explicit delay bound in cells, when emitted.
        delay: Option<u64>,
        /// Whether this connect is a multicast tree.
        multicast: bool,
        /// The links the form resolves to, in the order the parser's
        /// resolution produces — the signature's ground truth.
        resolved_links: Vec<String>,
    },
    /// `release NAME` — tear the named connection down.
    Release {
        /// The connect directive's name.
        name: String,
    },
    /// `fail-link NAME`.
    FailLink {
        /// Link name.
        link: String,
    },
    /// `heal-link NAME`.
    HealLink {
        /// Link name.
        link: String,
    },
    /// `fail-node NAME`.
    FailNode {
        /// Node name.
        node: String,
    },
    /// `heal-node NAME`.
    HealNode {
        /// Node name.
        node: String,
    },
    /// `degrade-link NAME cdv=N` — CDV inflation on a link.
    DegradeLink {
        /// Link name.
        link: String,
        /// Extra CDV in cells.
        cells: u64,
    },
    /// `restore-link NAME` — clear a link's CDV inflation.
    RestoreLink {
        /// Link name.
        link: String,
    },
    /// `chaos seed=N steps=N rate=P` — an embedded chaos session.
    Chaos {
        /// Chaos seed.
        seed: u64,
        /// Chaos steps.
        steps: u64,
        /// Fault rate percent.
        rate: u64,
    },
}

impl Directive {
    /// The scenario line this directive emits.
    fn emit(&self) -> String {
        match self {
            Directive::Connect {
                name,
                form,
                contract,
                priority,
                delay,
                ..
            } => {
                let mut line = match form {
                    ConnectForm::Shortest { from, to } => {
                        format!("connect {name} from={from} to={to}")
                    }
                    ConnectForm::ExplicitRoute { links } => {
                        format!("connect {name} route={}", links.join(","))
                    }
                    ConnectForm::Crankback { from, to, budget } => {
                        format!("connect {name} from={from} to={to} crankback={budget}")
                    }
                    ConnectForm::Tree { links } => {
                        format!("mconnect {name} tree={}", links.join(","))
                    }
                    ConnectForm::Mcast { root, leaves } => {
                        format!("connect-mcast {name} {root} {}", leaves.join(","))
                    }
                };
                line.push_str(&format!(" contract={contract}"));
                if let Some(p) = priority {
                    line.push_str(&format!(" priority={p}"));
                }
                if let Some(d) = delay {
                    line.push_str(&format!(" delay={d}"));
                }
                line
            }
            Directive::Release { name } => format!("release {name}"),
            Directive::FailLink { link } => format!("fail-link {link}"),
            Directive::HealLink { link } => format!("heal-link {link}"),
            Directive::FailNode { node } => format!("fail-node {node}"),
            Directive::HealNode { node } => format!("heal-node {node}"),
            Directive::DegradeLink { link, cells } => format!("degrade-link {link} cdv={cells}"),
            Directive::RestoreLink { link } => format!("restore-link {link}"),
            Directive::Chaos { seed, steps, rate } => {
                format!("chaos seed={seed} steps={steps} rate={rate}")
            }
        }
    }

    /// The canonical, resolution-independent description the CLI
    /// re-derives from a parsed scenario (see the module docs).
    fn signature(&self) -> String {
        match self {
            Directive::Connect {
                name,
                contract,
                priority,
                delay,
                multicast,
                resolved_links,
                form,
                ..
            } => {
                let kind = if *multicast { "tree" } else { "unicast" };
                let crankback = match form {
                    ConnectForm::Crankback { budget, .. } => budget.to_string(),
                    _ => "-".into(),
                };
                format!(
                    "connect {name} {kind} links={} contract={contract} priority={} delay={} crankback={crankback}",
                    resolved_links.join(","),
                    priority.unwrap_or(0),
                    delay.unwrap_or(1_000_000),
                )
            }
            other => other.emit(),
        }
    }
}

/// Configuration of one fuzz round.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The topology family to draw.
    pub topology: TopologyKind,
    /// The impairment profile to schedule, if any.
    pub profile: Option<ProfileKind>,
    /// Fuzzer time slots — connect volume scales with this.
    pub slots: u64,
    /// Whether a round may append an embedded `chaos` directive.
    pub allow_chaos: bool,
    /// Optional switch budget: `None` keeps the small seeded draws
    /// that make fuzz rounds fast; `Some(n)` sizes the topology to
    /// roughly `n` switches (see
    /// [`generate_topology_sized`](crate::generate_topology_sized)).
    pub nodes: Option<usize>,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            topology: TopologyKind::SparseWan,
            profile: None,
            slots: 20,
            allow_chaos: true,
            nodes: None,
        }
    }
}

/// A generated scenario: header (topology + policy) and directive
/// list, structured so the minimizer can subset it.
#[derive(Debug, Clone)]
pub struct StormScenario {
    /// Policy, switch, endsystem, and link lines, in file order.
    pub header: Vec<String>,
    /// The generated directives, in file order.
    pub directives: Vec<Directive>,
}

impl StormScenario {
    /// Renders the scenario file text.
    pub fn emit(&self) -> String {
        let mut text = String::new();
        for line in &self.header {
            text.push_str(line);
            text.push('\n');
        }
        text.push('\n');
        for directive in &self.directives {
            text.push_str(&directive.emit());
            text.push('\n');
        }
        text
    }

    /// The canonical directive signatures, in file order.
    pub fn signature(&self) -> Vec<String> {
        self.directives.iter().map(Directive::signature).collect()
    }

    /// A subset scenario keeping directive `i` iff `keep[i]`, with
    /// dangling `release` directives (whose connect was dropped)
    /// removed so the subset still parses. `keep` may be shorter than
    /// the directive list; missing entries drop.
    pub fn retain(&self, keep: &[bool]) -> StormScenario {
        let mut kept_names: Vec<&str> = Vec::new();
        let mut directives = Vec::new();
        for (i, directive) in self.directives.iter().enumerate() {
            if !keep.get(i).copied().unwrap_or(false) {
                continue;
            }
            match directive {
                Directive::Connect { name, .. } => {
                    kept_names.push(name);
                    directives.push(directive.clone());
                }
                Directive::Release { name } => {
                    if kept_names.iter().any(|n| n == name) {
                        directives.push(directive.clone());
                    }
                }
                _ => directives.push(directive.clone()),
            }
        }
        StormScenario {
            header: self.header.clone(),
            directives,
        }
    }
}

/// Generates one seeded scenario. Equal `(seed, config)` give equal
/// scenarios — a storm violation replays from its seed alone.
///
/// # Errors
///
/// Propagates [`NetError`] from topology generation or route
/// resolution (unreachable over the connected generated graphs).
pub fn generate(seed: u64, config: &FuzzConfig) -> Result<StormScenario, NetError> {
    let mut rng = SimRng::seed_from_u64(seed);
    let topology = generate_topology_sized(config.topology, &mut rng, config.nodes)?;

    let link_names: BTreeMap<LinkId, String> = topology
        .links()
        .iter()
        .enumerate()
        .map(|(i, l)| (l.id(), format!("l{i}")))
        .collect();
    let node_name = |id: NodeId| -> String {
        topology
            .node(id)
            .map_or_else(|_| id.to_string(), |n| n.name().to_owned())
    };
    let link_name = |id: LinkId| -> String {
        link_names
            .get(&id)
            .cloned()
            .unwrap_or_else(|| id.to_string())
    };

    // Header: policy, switches (uniform bounds; two levels half the
    // time so priority=1 connects are exercised), terminals, links —
    // nodes and links in id order, so re-parsing reproduces the ids.
    let soft = rng.gen_below(10) == 0;
    let levels = 1 + rng.gen_below(2) as u8;
    let base = 24 + 8 * rng.gen_below(6);
    let bounds = if levels == 2 {
        format!("{base},{}", base * 2)
    } else {
        format!("{base}")
    };
    let mut header = vec![format!("policy {}", if soft { "soft" } else { "hard" })];
    for node in topology.nodes() {
        if node.is_switch() {
            header.push(format!("switch {} bounds={bounds}", node.name()));
        } else {
            header.push(format!("endsystem {}", node.name()));
        }
    }
    for link in topology.links() {
        header.push(format!(
            "link {} {} {}",
            link_name(link.id()),
            node_name(link.from()),
            node_name(link.to()),
        ));
    }

    let terminals: Vec<NodeId> = topology.end_systems().map(|n| n.id()).collect();
    let span = config.slots.max(4);
    let mut events: Vec<(u64, ImpairmentEvent)> = match config.profile {
        Some(kind) => compile_profile(kind, &topology, &mut rng, span),
        None => Vec::new(),
    };
    events.sort_by_key(|&(slot, _)| slot);
    let lrd = LrdVbrSource::new(&mut rng, 4);

    let mut directives: Vec<Directive> = Vec::new();
    let mut live: Vec<usize> = Vec::new();
    let mut next_conn = 0usize;
    let mut event_i = 0usize;
    for slot in 0..=span {
        while event_i < events.len() && events[event_i].0 <= slot {
            directives.push(directive_of_event(
                events[event_i].1,
                &node_name,
                &link_name,
            ));
            event_i += 1;
        }
        if slot == span {
            break;
        }
        // Background intensity modulates how many connects arrive in
        // this slot: 1..=3 of them, bursting with the LRD source.
        let connects = 1 + (lrd.intensity(slot) * 2 / lrd.sources() as u64).min(2);
        for _ in 0..connects {
            let directive = gen_connect(
                &mut rng, &topology, &terminals, &node_name, &link_name, levels, next_conn,
            )?;
            live.push(directives.len());
            directives.push(directive);
            next_conn += 1;
        }
        if !live.is_empty() && rng.gen_below(100) < 30 {
            let pick = rng.gen_below(live.len() as u64) as usize;
            let idx = live.swap_remove(pick);
            if let Directive::Connect { name, .. } = &directives[idx] {
                let name = name.clone();
                directives.push(Directive::Release { name });
            }
        }
    }
    if config.allow_chaos && rng.gen_below(100) < 8 {
        directives.push(Directive::Chaos {
            seed: rng.gen_below(1_000_000),
            steps: 24,
            rate: 30,
        });
    }
    Ok(StormScenario { header, directives })
}

/// Translates a compiled impairment event into its directive.
fn directive_of_event(
    event: ImpairmentEvent,
    node_name: &impl Fn(NodeId) -> String,
    link_name: &impl Fn(LinkId) -> String,
) -> Directive {
    match event {
        ImpairmentEvent::FailLink(l) => Directive::FailLink { link: link_name(l) },
        ImpairmentEvent::HealLink(l) => Directive::HealLink { link: link_name(l) },
        ImpairmentEvent::FailNode(n) => Directive::FailNode { node: node_name(n) },
        ImpairmentEvent::HealNode(n) => Directive::HealNode { node: node_name(n) },
        ImpairmentEvent::DegradeLink(l, cells) => Directive::DegradeLink {
            link: link_name(l),
            cells,
        },
        ImpairmentEvent::RestoreLink(l) => Directive::RestoreLink { link: link_name(l) },
    }
}

/// Draws one connect directive: seeded endpoints, form, contract,
/// priority, and delay. The resolved link set is computed with the
/// same breadth-first searches the parser uses, so the signature is
/// the parser's ground truth.
fn gen_connect(
    rng: &mut SimRng,
    topology: &Topology,
    terminals: &[NodeId],
    node_name: &impl Fn(NodeId) -> String,
    link_name: &impl Fn(LinkId) -> String,
    levels: u8,
    index: usize,
) -> Result<Directive, NetError> {
    let name = format!("c{index}");
    let pick = |rng: &mut SimRng| terminals[rng.gen_below(terminals.len() as u64) as usize];
    let from = pick(rng);
    let mut to = pick(rng);
    while to == from {
        to = pick(rng);
    }
    let roll = rng.gen_below(100);
    let want_tree = roll >= 80 && terminals.len() >= 3;
    let (form, multicast, resolved_links) = if want_tree {
        let root = from;
        let mut leaves = vec![to];
        let mut extra = pick(rng);
        while extra == root || extra == leaves[0] {
            extra = pick(rng);
        }
        leaves.push(extra);
        let tree = MulticastTree::shortest_tree(topology, root, &leaves)?;
        let links: Vec<String> = tree.links().iter().map(|&l| link_name(l)).collect();
        if roll < 90 {
            (
                ConnectForm::Mcast {
                    root: node_name(root),
                    leaves: leaves.iter().map(|&n| node_name(n)).collect(),
                },
                true,
                links,
            )
        } else {
            (
                ConnectForm::Tree {
                    links: links.clone(),
                },
                true,
                links,
            )
        }
    } else {
        let route = topology.shortest_route(from, to)?;
        let links: Vec<String> = route.links().iter().map(|&l| link_name(l)).collect();
        if roll < 55 {
            (
                ConnectForm::Shortest {
                    from: node_name(from),
                    to: node_name(to),
                },
                false,
                links,
            )
        } else if roll < 70 {
            (
                ConnectForm::ExplicitRoute {
                    links: links.clone(),
                },
                false,
                links,
            )
        } else {
            (
                ConnectForm::Crankback {
                    from: node_name(from),
                    to: node_name(to),
                    budget: 1 + rng.gen_below(3) as usize,
                },
                false,
                links,
            )
        }
    };
    let contract = if rng.gen_below(100) < 60 {
        format!("cbr:1/{}", 1u64 << (2 + rng.gen_below(5)))
    } else {
        let pcr_log = 2 + rng.gen_below(3);
        let scr_log = pcr_log + 1 + rng.gen_below(3);
        format!(
            "vbr:1/{},1/{},{}",
            1u64 << pcr_log,
            1u64 << scr_log,
            2 + rng.gen_below(15)
        )
    };
    let priority = (levels == 2 && rng.gen_below(100) < 25).then_some(1u8);
    let delay = match rng.gen_below(100) {
        0..=59 => None,
        60..=84 => Some(64u64 << rng.gen_below(3)),
        _ => Some(4 + rng.gen_below(24)),
    };
    Ok(Directive::Connect {
        name,
        form,
        contract,
        priority,
        delay,
        multicast,
        resolved_links,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let config = FuzzConfig::default();
        let a = generate(42, &config).unwrap();
        let b = generate(42, &config).unwrap();
        assert_eq!(a.emit(), b.emit());
        assert_eq!(a.signature(), b.signature());
        assert_ne!(a.emit(), generate(43, &config).unwrap().emit());
    }

    #[test]
    fn scenarios_cover_the_directive_space() {
        // Across a seed sweep every directive family must appear —
        // a fuzzer that silently stops emitting trees or releases
        // loses coverage without failing anything.
        let mut saw_tree = false;
        let mut saw_crankback = false;
        let mut saw_release = false;
        let mut saw_fault = false;
        let mut saw_degrade = false;
        for seed in 0..40 {
            let config = FuzzConfig {
                profile: Some(ProfileKind::ALL[seed as usize % 4]),
                ..FuzzConfig::default()
            };
            let s = generate(seed, &config).unwrap();
            for d in &s.directives {
                match d {
                    Directive::Connect {
                        multicast, form, ..
                    } => {
                        saw_tree |= *multicast;
                        saw_crankback |= matches!(form, ConnectForm::Crankback { .. });
                    }
                    Directive::Release { .. } => saw_release = true,
                    Directive::FailLink { .. } | Directive::FailNode { .. } => saw_fault = true,
                    Directive::DegradeLink { .. } => saw_degrade = true,
                    _ => {}
                }
            }
        }
        assert!(saw_tree, "no multicast connects generated");
        assert!(saw_crankback, "no crankback connects generated");
        assert!(saw_release, "no releases generated");
        assert!(saw_fault, "no fault directives generated");
        assert!(saw_degrade, "no degrade directives generated");
    }

    #[test]
    fn retain_drops_dangling_releases() {
        let config = FuzzConfig::default();
        let mut scenario = None;
        // Find a seed whose scenario has a release.
        for seed in 0..50 {
            let s = generate(seed, &config).unwrap();
            if s.directives
                .iter()
                .any(|d| matches!(d, Directive::Release { .. }))
            {
                scenario = Some(s);
                break;
            }
        }
        let scenario = scenario.expect("some seed yields a release");
        // Keep only the releases: every one of them dangles, so the
        // subset must drop them all.
        let keep: Vec<bool> = scenario
            .directives
            .iter()
            .map(|d| matches!(d, Directive::Release { .. }))
            .collect();
        let subset = scenario.retain(&keep);
        assert!(subset.directives.is_empty());
        // Keeping everything keeps everything.
        let all = vec![true; scenario.directives.len()];
        assert_eq!(
            scenario.retain(&all).directives.len(),
            scenario.directives.len()
        );
    }

    #[test]
    fn every_topology_kind_generates() {
        for (i, kind) in TopologyKind::ALL.into_iter().enumerate() {
            let config = FuzzConfig {
                topology: kind,
                ..FuzzConfig::default()
            };
            let s = generate(100 + i as u64, &config).unwrap();
            assert!(!s.directives.is_empty(), "{kind}: no directives");
            assert!(s.header.iter().any(|l| l.starts_with("switch ")));
        }
    }
}
