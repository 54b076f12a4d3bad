//! The scenario file format: a line-based description of a network and
//! the connections to establish over it.
//!
//! ```text
//! # comments start with '#'; blank lines are ignored.
//! policy hard                      # or: policy soft
//!
//! switch s1 bounds=32,64           # one queue bound per priority level
//! endsystem h1
//! endsystem h2
//!
//! link up   h1 s1                  # link NAME FROM TO [capacity=a/b]
//! link down s1 h2
//!
//! # connect NAME route=LINK,LINK,… contract=cbr:PCR | vbr:PCR,SCR,MBS
//! #         [priority=N] [delay=CELLS]
//! connect c1 route=up,down contract=cbr:1/8 priority=0 delay=64
//! connect c2 route=up,down contract=vbr:1/4,1/20,8 delay=128
//!
//! # Or let breadth-first search pick the shortest route:
//! connect c3 from=h1 to=h2 contract=cbr:1/16
//!
//! # Point-to-multipoint: a tree of links (cells duplicate at branch
//! # switches).
//! mconnect b1 tree=up,down,down2 contract=cbr:1/32 delay=96
//!
//! # Or name the root and leaves and let breadth-first search grow the
//! # shortest tree:
//! connect-mcast b2 h1 h2,h3 contract=cbr:1/32 delay=96
//!
//! # Fault directives interleave with connects in file order ('rtcac
//! # check' replays them): fail/heal a named element, or re-issue a
//! # setup with ATM crankback so it routes around dead elements.
//! fail-link down
//! connect c4 from=h1 to=h2 crankback=2 contract=cbr:1/16
//! heal-link down
//! fail-node s1
//! heal-node s1
//!
//! # A seeded chaos session over this scenario's topology (engine
//! # churn + random fail/heal, audited for orphans and guarantees).
//! chaos seed=7 steps=100 rate=25
//! ```
//!
//! Rates are exact rationals (`1/8` or decimals like `0.125`),
//! normalized to the link bandwidth; delays are in cell times.

use std::collections::BTreeMap;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{Priority, SwitchConfig};
use rtcac_net::{LinkId, MulticastTree, NodeId, Route, Topology};
use rtcac_rational::Ratio;
use rtcac_signaling::{CdvPolicy, SetupRequest};

use crate::CliError;

/// How a connection's cells travel.
#[derive(Debug, Clone)]
pub enum RouteKind {
    /// A unicast path.
    Unicast(Route),
    /// A point-to-multipoint tree.
    Multicast(MulticastTree),
}

/// One connection to establish.
#[derive(Debug, Clone)]
pub struct ConnectionSpec {
    /// Scenario-local name.
    pub name: String,
    /// The validated route or tree.
    pub route: RouteKind,
    /// The setup request (contract, priority, delay bound).
    pub request: SetupRequest,
    /// Crankback retry budget (`crankback=N`): when set, the setup is
    /// re-routed around rejecting or dead elements up to N times
    /// instead of being issued on the fixed route.
    pub crankback: Option<usize>,
}

/// One step of a scenario replay, in file order. Plain connect-only
/// scenarios produce one `Connect` per connection; fault directives
/// interleave failures, repairs, and chaos sessions between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioAction {
    /// Establish `connections[i]`.
    Connect(usize),
    /// Fail a link (tears down connections routed over it).
    FailLink(LinkId),
    /// Restore a failed link.
    HealLink(LinkId),
    /// Fail a switch or end system.
    FailNode(NodeId),
    /// Restore a failed node.
    HealNode(NodeId),
    /// Tear down `connections[i]`, if it is established.
    Release(usize),
    /// Add CDV inflation on a link: subsequent setups across it are
    /// priced with the extra jitter (tightening admission).
    DegradeLink(LinkId, Time),
    /// Clear a link's CDV inflation.
    RestoreLink(LinkId),
    /// Run a seeded chaos session over the scenario's topology.
    Chaos {
        /// Seed for both the fault plan and the traffic churn.
        seed: u64,
        /// Number of chaos steps.
        steps: u64,
        /// Percent chance of a fault event per step.
        rate: u64,
    },
}

/// A parsed scenario: topology, per-switch configs, CDV policy and the
/// ordered connection list.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network graph.
    pub topology: Topology,
    /// Per-switch queue configuration.
    pub switch_configs: BTreeMap<NodeId, SwitchConfig>,
    /// CDV accumulation policy.
    pub policy: CdvPolicy,
    /// Connections in file order.
    pub connections: Vec<ConnectionSpec>,
    /// The replay script: connects and fault directives in file order.
    pub actions: Vec<ScenarioAction>,
    names: BTreeMap<String, NodeId>,
    link_names: BTreeMap<String, LinkId>,
}

impl Scenario {
    /// Parses a scenario from text.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Parse`] with the offending line number, or
    /// [`CliError::Unknown`] for dangling references.
    pub fn parse(text: &str) -> Result<Scenario, CliError> {
        let mut topology = Topology::new();
        let mut names: BTreeMap<String, NodeId> = BTreeMap::new();
        let mut link_names: BTreeMap<String, LinkId> = BTreeMap::new();
        let mut switch_configs = BTreeMap::new();
        let mut policy = CdvPolicy::Hard;
        // Connects and fault directives reference links by name, so
        // both are resolved in a second pass once every link exists —
        // queued together to preserve their file-order interleaving.
        let mut pending: Vec<(usize, Vec<String>)> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let tokens: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
            let err = |message: String| CliError::Parse {
                line: line_no,
                message,
            };
            match tokens[0].as_str() {
                "policy" => {
                    policy = match tokens.get(1).map(String::as_str) {
                        Some("hard") => CdvPolicy::Hard,
                        Some("soft") => CdvPolicy::SoftSqrt,
                        other => {
                            return Err(err(format!(
                                "policy must be 'hard' or 'soft', got {other:?}"
                            )))
                        }
                    };
                }
                "switch" => {
                    let name = tokens
                        .get(1)
                        .ok_or_else(|| err("switch needs a name".into()))?;
                    if names.contains_key(name) {
                        return Err(err(format!("duplicate node '{name}'")));
                    }
                    let mut bounds = vec![Time::from_integer(32)];
                    for opt in &tokens[2..] {
                        if let Some(list) = opt.strip_prefix("bounds=") {
                            bounds = list
                                .split(',')
                                .map(|b| {
                                    b.parse::<Ratio>()
                                        .map(Time::new)
                                        .map_err(|e| err(format!("bad bound '{b}': {e}")))
                                })
                                .collect::<Result<Vec<Time>, CliError>>()?;
                        } else {
                            return Err(err(format!("unknown switch option '{opt}'")));
                        }
                    }
                    let id = topology.add_switch(name.clone());
                    let config = SwitchConfig::with_bounds(bounds).map_err(CliError::domain)?;
                    switch_configs.insert(id, config);
                    names.insert(name.clone(), id);
                }
                "endsystem" => {
                    let name = tokens
                        .get(1)
                        .ok_or_else(|| err("endsystem needs a name".into()))?;
                    if names.contains_key(name) {
                        return Err(err(format!("duplicate node '{name}'")));
                    }
                    let id = topology.add_end_system(name.clone());
                    names.insert(name.clone(), id);
                }
                "link" => {
                    let [_, name, from, to] = &tokens[..] else {
                        let mut it = tokens.iter().skip(1);
                        let (Some(name), Some(from), Some(to)) = (it.next(), it.next(), it.next())
                        else {
                            return Err(err("link needs NAME FROM TO".into()));
                        };
                        let capacity = parse_capacity(&tokens[4..], line_no)?;
                        add_link(
                            &mut topology,
                            &mut link_names,
                            &names,
                            name,
                            from,
                            to,
                            capacity,
                            line_no,
                        )?;
                        continue;
                    };
                    add_link(
                        &mut topology,
                        &mut link_names,
                        &names,
                        name,
                        from,
                        to,
                        Rate::FULL,
                        line_no,
                    )?;
                }
                "connect" | "mconnect" | "connect-mcast" | "fail-link" | "heal-link"
                | "fail-node" | "heal-node" | "degrade-link" | "restore-link" | "release"
                | "chaos" => pending.push((line_no, tokens)),
                other => return Err(err(format!("unknown directive '{other}'"))),
            }
        }

        // Second pass: resolve connects and fault directives.
        let mut connections = Vec::new();
        let mut actions = Vec::with_capacity(pending.len());
        for (line_no, tokens) in pending {
            match tokens[0].as_str() {
                "connect" | "mconnect" => {
                    connections.push(parse_connect(
                        &topology,
                        &names,
                        &link_names,
                        &tokens,
                        line_no,
                    )?);
                    actions.push(ScenarioAction::Connect(connections.len() - 1));
                }
                "connect-mcast" => {
                    connections.push(parse_connect_mcast(&topology, &names, &tokens, line_no)?);
                    actions.push(ScenarioAction::Connect(connections.len() - 1));
                }
                "chaos" => actions.push(parse_chaos(&tokens, line_no)?),
                "release" => actions.push(parse_release(&connections, &tokens, line_no)?),
                "degrade-link" => {
                    actions.push(parse_degrade(&link_names, &tokens, line_no)?);
                }
                "restore-link" => {
                    let link =
                        resolve_link_directive("restore-link", &link_names, &tokens, line_no)?;
                    actions.push(ScenarioAction::RestoreLink(link));
                }
                fault => actions.push(parse_fault(fault, &names, &link_names, &tokens, line_no)?),
            }
        }

        Ok(Scenario {
            topology,
            switch_configs,
            policy,
            connections,
            actions,
            names,
            link_names,
        })
    }

    /// Whether every directive is a plain connect — the only kind of
    /// scenario `rtcac simulate` and `snapshot save` take; anything else
    /// (release, degrade/restore, fail/heal, chaos) needs `rtcac check`.
    pub fn is_connect_only(&self) -> bool {
        self.first_non_connect().is_none()
    }

    /// The first directive that is not a connect, as
    /// [`Scenario::directive_label`] renders it.
    pub(crate) fn first_non_connect(&self) -> Option<String> {
        self.actions
            .iter()
            .find(|a| !matches!(a, ScenarioAction::Connect(_)))
            .map(|a| self.directive_label(a))
    }

    /// The canonical text of a directive: its keyword and operands, by
    /// scenario name (a connect is abbreviated to its name).
    pub(crate) fn directive_label(&self, action: &ScenarioAction) -> String {
        let link = |l| self.link_name(l).unwrap_or("?");
        let node = |n| self.node_name(n).unwrap_or("?");
        match *action {
            ScenarioAction::Connect(i) => format!("connect {}", self.connections[i].name),
            ScenarioAction::Release(i) => format!("release {}", self.connections[i].name),
            ScenarioAction::FailLink(l) => format!("fail-link {}", link(l)),
            ScenarioAction::HealLink(l) => format!("heal-link {}", link(l)),
            ScenarioAction::FailNode(n) => format!("fail-node {}", node(n)),
            ScenarioAction::HealNode(n) => format!("heal-node {}", node(n)),
            ScenarioAction::DegradeLink(l, cdv) => format!("degrade-link {} cdv={cdv}", link(l)),
            ScenarioAction::RestoreLink(l) => format!("restore-link {}", link(l)),
            ScenarioAction::Chaos { seed, steps, rate } => {
                format!("chaos seed={seed} steps={steps} rate={rate}")
            }
        }
    }

    /// Looks up a node by scenario name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Looks up a link by scenario name.
    pub fn link(&self, name: &str) -> Option<LinkId> {
        self.link_names.get(name).copied()
    }

    /// The scenario name of a link, for reporting.
    pub fn link_name(&self, id: LinkId) -> Option<&str> {
        self.link_names
            .iter()
            .find(|(_, &l)| l == id)
            .map(|(n, _)| n.as_str())
    }

    /// The scenario name of a node, for reporting.
    pub fn node_name(&self, id: NodeId) -> Option<&str> {
        self.names
            .iter()
            .find(|(_, &n)| n == id)
            .map(|(n, _)| n.as_str())
    }
}

/// Resolves a `fail-link`/`heal-link`/`fail-node`/`heal-node`
/// directive against the named elements.
fn parse_fault(
    directive: &str,
    names: &BTreeMap<String, NodeId>,
    link_names: &BTreeMap<String, LinkId>,
    tokens: &[String],
    line: usize,
) -> Result<ScenarioAction, CliError> {
    let name = tokens.get(1).ok_or_else(|| CliError::Parse {
        line,
        message: format!("{directive} needs an element name"),
    })?;
    if let Some(extra) = tokens.get(2) {
        return Err(CliError::Parse {
            line,
            message: format!("unexpected token '{extra}' after {directive} {name}"),
        });
    }
    match directive {
        "fail-link" | "heal-link" => {
            let link = *link_names.get(name).ok_or(CliError::Unknown {
                kind: "link",
                name: name.clone(),
                line,
            })?;
            Ok(if directive == "fail-link" {
                ScenarioAction::FailLink(link)
            } else {
                ScenarioAction::HealLink(link)
            })
        }
        _ => {
            let node = *names.get(name).ok_or(CliError::Unknown {
                kind: "node",
                name: name.clone(),
                line,
            })?;
            Ok(if directive == "fail-node" {
                ScenarioAction::FailNode(node)
            } else {
                ScenarioAction::HealNode(node)
            })
        }
    }
}

/// Resolves `release NAME` against the connections defined so far —
/// a release can only name a connect that appears earlier in the
/// file, matching replay order.
fn parse_release(
    connections: &[ConnectionSpec],
    tokens: &[String],
    line: usize,
) -> Result<ScenarioAction, CliError> {
    let name = tokens.get(1).ok_or_else(|| CliError::Parse {
        line,
        message: "release needs a connection name".into(),
    })?;
    if let Some(extra) = tokens.get(2) {
        return Err(CliError::Parse {
            line,
            message: format!("unexpected token '{extra}' after release {name}"),
        });
    }
    let index = connections
        .iter()
        .position(|spec| &spec.name == name)
        .ok_or(CliError::Unknown {
            kind: "connection",
            name: name.clone(),
            line,
        })?;
    Ok(ScenarioAction::Release(index))
}

/// Resolves the link name of a single-argument link directive,
/// rejecting trailing tokens.
fn resolve_link_directive(
    directive: &str,
    link_names: &BTreeMap<String, LinkId>,
    tokens: &[String],
    line: usize,
) -> Result<LinkId, CliError> {
    let name = tokens.get(1).ok_or_else(|| CliError::Parse {
        line,
        message: format!("{directive} needs a link name"),
    })?;
    let extra_at = if directive == "degrade-link" { 3 } else { 2 };
    if let Some(extra) = tokens.get(extra_at) {
        return Err(CliError::Parse {
            line,
            message: format!("unexpected token '{extra}' after {directive} {name}"),
        });
    }
    link_names.get(name).copied().ok_or(CliError::Unknown {
        kind: "link",
        name: name.clone(),
        line,
    })
}

/// Parses `degrade-link NAME cdv=CELLS` (CELLS must be non-negative).
fn parse_degrade(
    link_names: &BTreeMap<String, LinkId>,
    tokens: &[String],
    line: usize,
) -> Result<ScenarioAction, CliError> {
    let err = |message: String| CliError::Parse { line, message };
    let link = resolve_link_directive("degrade-link", link_names, tokens, line)?;
    let opt = tokens
        .get(2)
        .ok_or_else(|| err("degrade-link needs cdv=CELLS".into()))?;
    let value = opt
        .strip_prefix("cdv=")
        .ok_or_else(|| err(format!("unknown degrade-link option '{opt}'")))?;
    let cells = value
        .parse::<Ratio>()
        .map(Time::new)
        .map_err(|e| err(format!("bad cdv '{value}': {e}")))?;
    if cells < Time::ZERO {
        return Err(err(format!("cdv must be non-negative, got '{value}'")));
    }
    Ok(ScenarioAction::DegradeLink(link, cells))
}

/// Parses `chaos [seed=N] [steps=N] [rate=P]`.
fn parse_chaos(tokens: &[String], line: usize) -> Result<ScenarioAction, CliError> {
    let err = |message: String| CliError::Parse { line, message };
    let (mut seed, mut steps, mut rate) = (1u64, 100u64, 25u64);
    for opt in &tokens[1..] {
        let (key, value) = opt
            .split_once('=')
            .ok_or_else(|| err(format!("unknown chaos option '{opt}'")))?;
        let parsed: u64 = value
            .parse()
            .map_err(|_| err(format!("bad chaos value '{opt}'")))?;
        match key {
            "seed" => seed = parsed,
            "steps" => steps = parsed,
            "rate" => {
                if parsed > 100 {
                    return Err(err(format!("chaos rate must be 0..=100, got {parsed}")));
                }
                rate = parsed;
            }
            _ => return Err(err(format!("unknown chaos option '{opt}'"))),
        }
    }
    Ok(ScenarioAction::Chaos { seed, steps, rate })
}

#[allow(clippy::too_many_arguments)]
fn add_link(
    topology: &mut Topology,
    link_names: &mut BTreeMap<String, LinkId>,
    names: &BTreeMap<String, NodeId>,
    name: &str,
    from: &str,
    to: &str,
    capacity: Rate,
    line: usize,
) -> Result<(), CliError> {
    if link_names.contains_key(name) {
        return Err(CliError::Parse {
            line,
            message: format!("duplicate link '{name}'"),
        });
    }
    let from = *names.get(from).ok_or_else(|| CliError::Unknown {
        kind: "node",
        name: from.into(),
        line,
    })?;
    let to = *names.get(to).ok_or_else(|| CliError::Unknown {
        kind: "node",
        name: to.into(),
        line,
    })?;
    let id = topology
        .add_link_with_capacity(from, to, capacity)
        .map_err(CliError::domain)?;
    link_names.insert(name.to_owned(), id);
    Ok(())
}

fn parse_capacity(options: &[String], line: usize) -> Result<Rate, CliError> {
    match options.first() {
        None => Ok(Rate::FULL),
        Some(opt) => match opt.strip_prefix("capacity=") {
            Some(v) => v
                .parse::<Ratio>()
                .map(Rate::new)
                .map_err(|e| CliError::Parse {
                    line,
                    message: format!("bad capacity '{v}': {e}"),
                }),
            None => Err(CliError::Parse {
                line,
                message: format!("unknown link option '{opt}'"),
            }),
        },
    }
}

fn parse_connect(
    topology: &Topology,
    node_names: &BTreeMap<String, NodeId>,
    link_names: &BTreeMap<String, LinkId>,
    tokens: &[String],
    line: usize,
) -> Result<ConnectionSpec, CliError> {
    let err = |message: String| CliError::Parse { line, message };
    let multicast = tokens[0] == "mconnect";
    let name = tokens
        .get(1)
        .ok_or_else(|| err("connect needs a name".into()))?
        .clone();
    let mut route: Option<RouteKind> = None;
    let mut from: Option<NodeId> = None;
    let mut to: Option<NodeId> = None;
    let mut contract: Option<TrafficContract> = None;
    let mut priority = Priority::HIGHEST;
    let mut delay = Time::from_integer(1_000_000);
    let mut crankback: Option<usize> = None;
    let resolve_links = |list: &str| -> Result<Vec<LinkId>, CliError> {
        list.split(',')
            .map(|n| {
                link_names.get(n).copied().ok_or(CliError::Unknown {
                    kind: "link",
                    name: n.into(),
                    line,
                })
            })
            .collect()
    };
    let resolve_node = |n: &str| -> Result<NodeId, CliError> {
        node_names.get(n).copied().ok_or(CliError::Unknown {
            kind: "node",
            name: n.into(),
            line,
        })
    };
    for opt in &tokens[2..] {
        if let Some(list) = opt.strip_prefix("route=") {
            let links = resolve_links(list)?;
            route = Some(RouteKind::Unicast(
                Route::new(topology, links).map_err(CliError::domain)?,
            ));
        } else if let Some(list) = opt.strip_prefix("tree=") {
            let links = resolve_links(list)?;
            route = Some(RouteKind::Multicast(
                MulticastTree::new(topology, links).map_err(CliError::domain)?,
            ));
        } else if let Some(n) = opt.strip_prefix("from=") {
            from = Some(resolve_node(n)?);
        } else if let Some(n) = opt.strip_prefix("to=") {
            to = Some(resolve_node(n)?);
        } else if let Some(spec) = opt.strip_prefix("contract=") {
            contract = Some(parse_contract(spec, line)?);
        } else if let Some(p) = opt.strip_prefix("priority=") {
            let level: u8 = p.parse().map_err(|_| err(format!("bad priority '{p}'")))?;
            priority = Priority::new(level);
        } else if let Some(d) = opt.strip_prefix("delay=") {
            delay = d
                .parse::<Ratio>()
                .map(Time::new)
                .map_err(|e| err(format!("bad delay '{d}': {e}")))?;
        } else if let Some(n) = opt.strip_prefix("crankback=") {
            let retries: usize = n
                .parse()
                .map_err(|_| err(format!("bad crankback budget '{n}'")))?;
            crankback = Some(retries);
        } else {
            return Err(err(format!("unknown connect option '{opt}'")));
        }
    }
    let route = match (route, from, to) {
        (Some(r), None, None) => r,
        (None, Some(from), Some(to)) if !multicast => RouteKind::Unicast(
            topology
                .shortest_route(from, to)
                .map_err(CliError::domain)?,
        ),
        (None, _, _) if multicast => {
            return Err(err("mconnect needs tree=".into()));
        }
        _ => return Err(err("connect needs either route=/tree= or from=+to=".into())),
    };
    if multicast && matches!(route, RouteKind::Unicast(_)) {
        return Err(err("mconnect needs tree=, not route=".into()));
    }
    if multicast && crankback.is_some() {
        return Err(err("crankback= applies to unicast connects only".into()));
    }
    let contract = contract.ok_or_else(|| err("connect needs contract=".into()))?;
    Ok(ConnectionSpec {
        name,
        route,
        request: SetupRequest::new(contract, priority, delay),
        crankback,
    })
}

/// Parses `connect-mcast NAME ROOT LEAF[,LEAF…] contract=…
/// [priority=N] [delay=CELLS]`: the tree is grown with breadth-first
/// shortest paths from the root to every named leaf
/// (see [`MulticastTree::shortest_tree`]).
fn parse_connect_mcast(
    topology: &Topology,
    node_names: &BTreeMap<String, NodeId>,
    tokens: &[String],
    line: usize,
) -> Result<ConnectionSpec, CliError> {
    let err = |message: String| CliError::Parse { line, message };
    let resolve_node = |n: &str| -> Result<NodeId, CliError> {
        node_names.get(n).copied().ok_or(CliError::Unknown {
            kind: "node",
            name: n.into(),
            line,
        })
    };
    let name = tokens
        .get(1)
        .ok_or_else(|| err("connect-mcast needs a name".into()))?
        .clone();
    let root = tokens
        .get(2)
        .ok_or_else(|| err("connect-mcast needs ROOT LEAF[,LEAF…]".into()))?;
    let root = resolve_node(root)?;
    let leaf_list = tokens
        .get(3)
        .ok_or_else(|| err("connect-mcast needs LEAF[,LEAF…] after the root".into()))?;
    let leaves = leaf_list
        .split(',')
        .map(&resolve_node)
        .collect::<Result<Vec<NodeId>, CliError>>()?;
    let tree = MulticastTree::shortest_tree(topology, root, &leaves).map_err(CliError::domain)?;
    let mut contract: Option<TrafficContract> = None;
    let mut priority = Priority::HIGHEST;
    let mut delay = Time::from_integer(1_000_000);
    for opt in &tokens[4..] {
        if let Some(spec) = opt.strip_prefix("contract=") {
            contract = Some(parse_contract(spec, line)?);
        } else if let Some(p) = opt.strip_prefix("priority=") {
            let level: u8 = p.parse().map_err(|_| err(format!("bad priority '{p}'")))?;
            priority = Priority::new(level);
        } else if let Some(d) = opt.strip_prefix("delay=") {
            delay = d
                .parse::<Ratio>()
                .map(Time::new)
                .map_err(|e| err(format!("bad delay '{d}': {e}")))?;
        } else {
            return Err(err(format!("unknown connect-mcast option '{opt}'")));
        }
    }
    let contract = contract.ok_or_else(|| err("connect-mcast needs contract=".into()))?;
    Ok(ConnectionSpec {
        name,
        route: RouteKind::Multicast(tree),
        request: SetupRequest::new(contract, priority, delay),
        crankback: None,
    })
}

fn parse_contract(spec: &str, line: usize) -> Result<TrafficContract, CliError> {
    let err = |message: String| CliError::Parse { line, message };
    if let Some(rate) = spec.strip_prefix("cbr:") {
        let pcr: Ratio = rate
            .parse()
            .map_err(|e| err(format!("bad cbr rate '{rate}': {e}")))?;
        return Ok(TrafficContract::Cbr(
            CbrParams::new(Rate::new(pcr)).map_err(CliError::domain)?,
        ));
    }
    if let Some(params) = spec.strip_prefix("vbr:") {
        let parts: Vec<&str> = params.split(',').collect();
        let [pcr, scr, mbs] = parts[..] else {
            return Err(err(format!("vbr needs PCR,SCR,MBS, got '{params}'")));
        };
        let pcr: Ratio = pcr
            .parse()
            .map_err(|e| err(format!("bad vbr pcr '{pcr}': {e}")))?;
        let scr: Ratio = scr
            .parse()
            .map_err(|e| err(format!("bad vbr scr '{scr}': {e}")))?;
        let mbs: u64 = mbs
            .parse()
            .map_err(|_| err(format!("bad vbr mbs '{mbs}'")))?;
        return Ok(TrafficContract::Vbr(
            VbrParams::new(Rate::new(pcr), Rate::new(scr), mbs).map_err(CliError::domain)?,
        ));
    }
    Err(err(format!(
        "contract must be cbr:… or vbr:…, got '{spec}'"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
# a two-switch line
policy soft
switch s1 bounds=32,64
switch s2 bounds=32,64
endsystem h1
endsystem h2
link up   h1 s1
link mid  s1 s2   # inter-switch
link down s2 h2
connect c1 route=up,mid,down contract=cbr:1/8 priority=0 delay=64
connect c2 route=up,mid,down contract=vbr:1/4,1/20,8 priority=1 delay=0.5
"#;

    #[test]
    fn parses_complete_scenario() {
        let s = Scenario::parse(GOOD).unwrap();
        assert_eq!(s.topology.switches().count(), 2);
        assert_eq!(s.topology.end_systems().count(), 2);
        assert_eq!(s.topology.links().len(), 3);
        assert_eq!(s.connections.len(), 2);
        assert_eq!(s.policy, CdvPolicy::SoftSqrt);
        let c2 = &s.connections[1];
        assert_eq!(c2.request.priority(), Priority::new(1));
        assert_eq!(c2.request.contract().mbs(), 8);
        assert!(s.node("s1").is_some());
        assert!(s.link("mid").is_some());
        assert_eq!(s.link_name(s.link("mid").unwrap()), Some("mid"));
    }

    #[test]
    fn default_policy_is_hard() {
        let s = Scenario::parse("switch s1\n").unwrap();
        assert_eq!(s.policy, CdvPolicy::Hard);
        // Default bound is one 32-cell level.
        let id = s.node("s1").unwrap();
        assert_eq!(
            s.switch_configs[&id].bound(Priority::HIGHEST).unwrap(),
            Time::from_integer(32)
        );
    }

    #[test]
    fn reports_line_numbers() {
        let bad = "switch s1\nnonsense here\n";
        match Scenario::parse(bad) {
            Err(CliError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_duplicates_and_unknowns() {
        assert!(matches!(
            Scenario::parse("switch a\nswitch a\n"),
            Err(CliError::Parse { .. })
        ));
        assert!(matches!(
            Scenario::parse("switch a\nlink l a b\n"),
            Err(CliError::Unknown { kind: "node", .. })
        ));
        assert!(matches!(
            Scenario::parse(
                "endsystem h\nswitch s\nlink up h s\nconnect c route=up,ghost contract=cbr:1/8\n"
            ),
            Err(CliError::Unknown { kind: "link", .. })
        ));
    }

    #[test]
    fn malformed_scenarios_report_line_and_token() {
        // Dangling link reference: the error names the token and the
        // line the reference appears on (not the line the link was
        // expected to be defined on).
        let err = Scenario::parse(
            "endsystem h\nswitch s\nlink up h s\n\nconnect c route=up,ghost contract=cbr:1/8\n",
        )
        .unwrap_err();
        match &err {
            CliError::Unknown { kind, name, line } => {
                assert_eq!(*kind, "link");
                assert_eq!(name, "ghost");
                assert_eq!(*line, 5);
            }
            other => panic!("expected unknown-link error, got {other:?}"),
        }
        assert_eq!(err.to_string(), "unknown link 'ghost' on line 5");

        // Dangling node reference in a link directive.
        let err = Scenario::parse("switch a\nlink l a b\n").unwrap_err();
        assert_eq!(err.to_string(), "unknown node 'b' on line 2");

        // A bad directive still carries its line and the offending
        // token in the message.
        let err = Scenario::parse("switch s1\n\nbogus stuff\n").unwrap_err();
        match &err {
            CliError::Parse { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("'bogus'"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }

        // A bad option value names the token too.
        let err =
            Scenario::parse("endsystem h\nswitch s\nlink up h s capacity=nonsense\n").unwrap_err();
        match &err {
            CliError::Parse { line, message } => {
                assert_eq!(*line, 3);
                assert!(message.contains("'nonsense'"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_contracts() {
        let base = "endsystem h\nswitch s\nendsystem d\nlink up h s\nlink down s d\n";
        for bad in [
            "connect c route=up,down contract=cbr:5/1\n", // pcr > 1
            "connect c route=up,down contract=vbr:1/4,1/2,8\n", // scr > pcr
            "connect c route=up,down contract=vbr:1/4,1/8\n", // missing mbs
            "connect c route=up,down contract=xyz:1\n",
            "connect c route=up,down\n",    // missing contract
            "connect c contract=cbr:1/8\n", // missing route
        ] {
            let text = format!("{base}{bad}");
            assert!(Scenario::parse(&text).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn auto_route_and_multicast() {
        let text = "\nswitch s\nendsystem h1\nendsystem h2\nendsystem h3\n\
link up h1 s\nlink d2 s h2\nlink d3 s h3\n\
connect auto from=h1 to=h2 contract=cbr:1/16\n\
mconnect cast tree=up,d2,d3 contract=cbr:1/32 delay=64\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.connections.len(), 2);
        match &s.connections[0].route {
            RouteKind::Unicast(r) => assert_eq!(r.hops(), 2),
            other => panic!("expected unicast, got {other:?}"),
        }
        match &s.connections[1].route {
            RouteKind::Multicast(t) => assert_eq!(t.leaves().len(), 2),
            other => panic!("expected multicast, got {other:?}"),
        }
        // mconnect without tree= is rejected.
        assert!(Scenario::parse(
            "switch s\nendsystem h\nlink up h s\nmconnect x from=h to=s contract=cbr:1/8\n"
        )
        .is_err());
    }

    #[test]
    fn connect_mcast_grows_shortest_tree() {
        let text = "\nswitch s\nendsystem h1\nendsystem h2\nendsystem h3\n\
link up h1 s\nlink d2 s h2\nlink d3 s h3\n\
connect-mcast cast h1 h2,h3 contract=cbr:1/32 priority=0 delay=96\n";
        let s = Scenario::parse(text).unwrap();
        assert_eq!(s.connections.len(), 1);
        let spec = &s.connections[0];
        assert_eq!(spec.name, "cast");
        assert_eq!(spec.crankback, None);
        assert_eq!(spec.request.delay_bound(), Time::from_integer(96));
        match &spec.route {
            RouteKind::Multicast(t) => {
                assert_eq!(t.root(), s.node("h1").unwrap());
                assert_eq!(t.leaves(), &[s.node("h2").unwrap(), s.node("h3").unwrap()]);
            }
            other => panic!("expected multicast, got {other:?}"),
        }
    }

    #[test]
    fn malformed_connect_mcast_reports_line_and_token() {
        let base = "switch s\nendsystem h1\nendsystem h2\nlink up h1 s\nlink d s h2\n";
        // Unknown leaf carries the reference line.
        let err = Scenario::parse(&format!(
            "{base}connect-mcast m h1 ghost contract=cbr:1/8\n"
        ))
        .unwrap_err();
        assert_eq!(err.to_string(), "unknown node 'ghost' on line 6");
        // Missing pieces and bad options are parse errors on line 6.
        for bad in [
            "connect-mcast\n",
            "connect-mcast m\n",
            "connect-mcast m h1\n",
            "connect-mcast m h1 h2\n",         // missing contract
            "connect-mcast m h1 h2 bogus=1\n", // unknown option
            "connect-mcast m h1 h2 contract=cbr:1/8 priority=x\n",
            "connect-mcast m h1 h1 contract=cbr:1/8\n", // root as leaf
        ] {
            let err = Scenario::parse(&format!("{base}{bad}")).unwrap_err();
            if let CliError::Parse { line, .. } = &err {
                assert_eq!(*line, 6, "{bad}");
            }
        }
    }

    #[test]
    fn decimal_rates_and_capacity() {
        let s = Scenario::parse("endsystem h\nswitch s\nlink up h s capacity=0.5\n").unwrap();
        let l = s.link("up").unwrap();
        assert_eq!(
            s.topology.link(l).unwrap().capacity(),
            Rate::new(rtcac_rational::ratio(1, 2))
        );
    }

    #[test]
    fn fault_directives_interleave_in_file_order() {
        let text = "\
switch s1\nswitch s2\nendsystem h1\nendsystem h2\n\
link up h1 s1\nlink mid s1 s2\nlink down s2 h2\n\
connect before route=up,mid,down contract=cbr:1/8\n\
fail-link mid\n\
connect retry from=h1 to=h2 crankback=2 contract=cbr:1/8\n\
heal-link mid\n\
fail-node s2\n\
heal-node s2\n\
chaos seed=7 steps=50 rate=30\n";
        let s = Scenario::parse(text).unwrap();
        assert!(!s.is_connect_only());
        assert_eq!(s.connections.len(), 2);
        assert_eq!(s.connections[0].crankback, None);
        assert_eq!(s.connections[1].crankback, Some(2));
        let mid = s.link("mid").unwrap();
        let s2 = s.node("s2").unwrap();
        assert_eq!(
            s.actions,
            vec![
                ScenarioAction::Connect(0),
                ScenarioAction::FailLink(mid),
                ScenarioAction::Connect(1),
                ScenarioAction::HealLink(mid),
                ScenarioAction::FailNode(s2),
                ScenarioAction::HealNode(s2),
                ScenarioAction::Chaos {
                    seed: 7,
                    steps: 50,
                    rate: 30
                },
            ]
        );
        assert_eq!(s.node_name(s2), Some("s2"));

        // A connect-only scenario has no fault actions.
        let plain = Scenario::parse(GOOD).unwrap();
        assert!(plain.is_connect_only());
        assert_eq!(
            plain.actions,
            vec![ScenarioAction::Connect(0), ScenarioAction::Connect(1)]
        );
    }

    #[test]
    fn malformed_fault_directives_are_rejected() {
        let base = "switch s\nendsystem h\nlink up h s\n";
        // Unknown element names carry the reference line.
        let err = Scenario::parse(&format!("{base}fail-link ghost\n")).unwrap_err();
        assert_eq!(err.to_string(), "unknown link 'ghost' on line 4");
        let err = Scenario::parse(&format!("{base}fail-node ghost\n")).unwrap_err();
        assert_eq!(err.to_string(), "unknown node 'ghost' on line 4");
        // Missing or trailing tokens name the directive / token.
        let err = Scenario::parse(&format!("{base}heal-link\n")).unwrap_err();
        assert_parse_error(&err, 4, "heal-link");
        let err = Scenario::parse(&format!("{base}fail-link up extra\n")).unwrap_err();
        assert_parse_error(&err, 4, "'extra'");
        let err = Scenario::parse(&format!("{base}heal-node\n")).unwrap_err();
        assert_parse_error(&err, 4, "heal-node");
        // Bad chaos options carry the offending token.
        let err = Scenario::parse(&format!("{base}chaos bogus\n")).unwrap_err();
        assert_parse_error(&err, 4, "'bogus'");
        let err = Scenario::parse(&format!("{base}chaos seed=x\n")).unwrap_err();
        assert_parse_error(&err, 4, "'seed=x'");
        let err = Scenario::parse(&format!("{base}chaos rate=150\n")).unwrap_err();
        assert_parse_error(&err, 4, "150");
        // Crankback is unicast-only and must be a number.
        let err = Scenario::parse(&format!(
            "{base}endsystem h2\nlink d s h2\nmconnect m tree=up,d crankback=1 contract=cbr:1/8\n"
        ))
        .unwrap_err();
        assert_parse_error(&err, 6, "crankback=");
        let err = Scenario::parse(&format!(
            "{base}endsystem h2\nlink d s h2\nconnect c route=up,d crankback=no contract=cbr:1/8\n"
        ))
        .unwrap_err();
        assert_parse_error(&err, 6, "'no'");
    }

    /// Asserts a [`CliError::Parse`] at `line` whose message names
    /// `token`.
    fn assert_parse_error(err: &CliError, want_line: usize, token: &str) {
        match err {
            CliError::Parse { line, message } => {
                assert_eq!(*line, want_line, "{err}");
                assert!(message.contains(token), "missing '{token}' in: {message}");
            }
            other => panic!("expected parse error naming '{token}', got {other:?}"),
        }
    }

    #[test]
    fn malformed_storm_directives_report_line_and_token() {
        // Every directive the storm fuzzer can emit reports its line
        // and the offending token on a parse failure.
        let base = "switch s\nendsystem h\nlink up h s\n\
connect c route=up contract=cbr:1/8\n";

        // release: missing name, trailing token, unknown connection.
        let err = Scenario::parse(&format!("{base}release\n")).unwrap_err();
        assert_parse_error(&err, 5, "release needs a connection name");
        let err = Scenario::parse(&format!("{base}release c extra\n")).unwrap_err();
        assert_parse_error(&err, 5, "'extra'");
        let err = Scenario::parse(&format!("{base}release ghost\n")).unwrap_err();
        assert_eq!(err.to_string(), "unknown connection 'ghost' on line 5");
        // A release may only name a connect that appears *earlier*.
        let fwd = "switch s\nendsystem h\nlink up h s\nrelease c\n\
connect c route=up contract=cbr:1/8\n";
        let err = Scenario::parse(fwd).unwrap_err();
        assert_eq!(err.to_string(), "unknown connection 'c' on line 4");

        // degrade-link: missing link, unknown link, missing/bad cdv=.
        let err = Scenario::parse(&format!("{base}degrade-link\n")).unwrap_err();
        assert_parse_error(&err, 5, "degrade-link needs a link name");
        let err = Scenario::parse(&format!("{base}degrade-link ghost cdv=4\n")).unwrap_err();
        assert_eq!(err.to_string(), "unknown link 'ghost' on line 5");
        let err = Scenario::parse(&format!("{base}degrade-link up\n")).unwrap_err();
        assert_parse_error(&err, 5, "cdv=CELLS");
        let err = Scenario::parse(&format!("{base}degrade-link up bogus=4\n")).unwrap_err();
        assert_parse_error(&err, 5, "'bogus=4'");
        let err = Scenario::parse(&format!("{base}degrade-link up cdv=junk\n")).unwrap_err();
        assert_parse_error(&err, 5, "'junk'");
        let err = Scenario::parse(&format!("{base}degrade-link up cdv=-3\n")).unwrap_err();
        assert_parse_error(&err, 5, "'-3'");
        let err = Scenario::parse(&format!("{base}degrade-link up cdv=4 extra\n")).unwrap_err();
        assert_parse_error(&err, 5, "'extra'");

        // restore-link: missing link, unknown link, trailing token.
        let err = Scenario::parse(&format!("{base}restore-link\n")).unwrap_err();
        assert_parse_error(&err, 5, "restore-link needs a link name");
        let err = Scenario::parse(&format!("{base}restore-link ghost\n")).unwrap_err();
        assert_eq!(err.to_string(), "unknown link 'ghost' on line 5");
        let err = Scenario::parse(&format!("{base}restore-link up extra\n")).unwrap_err();
        assert_parse_error(&err, 5, "'extra'");

        // Degrade/restore round-trip on the happy path.
        let s =
            Scenario::parse(&format!("{base}degrade-link up cdv=3/2\nrestore-link up\n")).unwrap();
        let up = s.link("up").unwrap();
        assert_eq!(
            s.actions,
            vec![
                ScenarioAction::Connect(0),
                ScenarioAction::DegradeLink(up, Time::new(rtcac_rational::ratio(3, 2))),
                ScenarioAction::RestoreLink(up),
            ]
        );
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let s = Scenario::parse("\n# hi\n  # indented comment\nswitch s1 # trailing\n").unwrap();
        assert_eq!(s.topology.switches().count(), 1);
    }
}
