//! The slotted simulation engine.

use std::collections::BTreeMap;
use std::sync::Arc;

use rtcac_bitstream::TrafficContract;
use rtcac_cac::{ConnectionId, Priority};
use rtcac_net::{LinkId, MulticastTree, NodeId, Route, Topology};
use rtcac_signaling::Network;

use crate::queue::QueuedCell;
use crate::stats::{ConnectionStats, PortStats};
use crate::SimRng;
use crate::{PriorityFifo, ShapedSource, SimError, SimReport, TrafficPattern};

#[derive(Debug, Clone)]
struct SimConnection {
    forwarding: Forwarding,
    priority: Priority,
    source: ShapedSource,
}

/// How a connection's cells find their way.
#[derive(Debug, Clone)]
enum Forwarding {
    /// Unicast: an ordered list of links.
    Path(Vec<LinkId>),
    /// Point-to-multipoint: entry links from the source, and the tree
    /// links departing each forwarding node (cells duplicate there).
    Tree {
        entry: Vec<LinkId>,
        next: BTreeMap<NodeId, Vec<LinkId>>,
    },
}

/// A cell travelling between nodes.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    connection: ConnectionId,
    /// For paths: the index of the next link. For trees: the link just
    /// crossed (its head decides duplication or delivery).
    via: Via,
    emitted: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Via {
    Hop(usize),
    Link(LinkId),
}

/// A reproducible, slotted, cell-level simulation over a topology.
///
/// Assemble with [`Simulation::new`] (or [`Simulation::from_network`]
/// to mirror a set of CAC-established connections), add connections,
/// then [`Simulation::run`]. Running does not consume the scenario:
/// each run restarts from slot 0 with fresh source and queue state, so
/// parameter sweeps can reuse one `Simulation`.
#[derive(Debug, Clone)]
pub struct Simulation {
    link_to: Vec<NodeId>,
    link_from: Vec<NodeId>,
    node_is_switch: Vec<bool>,
    levels: u8,
    queue_capacity: Option<usize>,
    jitter: Option<Jitter>,
    connections: BTreeMap<ConnectionId, SimConnection>,
    registry: Option<Arc<rtcac_obs::Registry>>,
}

/// Bounded random propagation jitter injected on switch output links,
/// emulating the cell delay variation the CAC analysis budgets for.
#[derive(Debug, Clone, Copy)]
struct Jitter {
    max_slots: u64,
    seed: u64,
}

impl Simulation {
    /// Creates an empty scenario over a topology with unbounded queues
    /// and a single priority level (levels grow automatically as
    /// connections are added).
    pub fn new(topology: &Topology) -> Simulation {
        Simulation {
            link_to: topology.links().iter().map(|l| l.to()).collect(),
            link_from: topology.links().iter().map(|l| l.from()).collect(),
            node_is_switch: topology.nodes().iter().map(|n| n.is_switch()).collect(),
            levels: 1,
            queue_capacity: None,
            jitter: None,
            connections: BTreeMap::new(),
            registry: None,
        }
    }

    /// Publishes each run's aggregate counters and queue-depth gauges
    /// to an explicit [`rtcac_obs::Registry`] instead of the
    /// process-global one.
    pub fn set_registry(&mut self, registry: Arc<rtcac_obs::Registry>) {
        self.registry = Some(registry);
    }

    /// Mirrors all connections established in a CAC-managed network as
    /// greedy (worst-case) sources — the canonical bound-validation
    /// scenario.
    pub fn from_network(network: &Network) -> Simulation {
        let mut sim = Simulation::new(network.topology());
        for info in network.connections() {
            sim.add_connection(
                info.id(),
                info.route().clone(),
                info.request().priority(),
                info.request().contract(),
                TrafficPattern::Greedy,
            )
            .expect("established connections have valid routes");
        }
        sim
    }

    /// Bounds every priority queue at every port to `capacity` cells
    /// (cells overflowing are dropped and counted). `None` restores
    /// unbounded queues.
    pub fn set_queue_capacity(&mut self, capacity: Option<usize>) {
        self.queue_capacity = capacity;
    }

    /// Injects bounded, order-preserving random propagation jitter of
    /// up to `max_slots` extra slots on every *switch* output link
    /// (access links from end systems stay jitter-free: the analysis
    /// assumes sources are shaped with zero upstream CDV).
    ///
    /// This emulates the cell delay variation a real network exhibits,
    /// driving measured delays closer to the worst case the analysis
    /// budgets for. Runs remain deterministic for a given `seed`.
    pub fn set_link_jitter(&mut self, max_slots: u64, seed: u64) {
        self.jitter = if max_slots == 0 {
            None
        } else {
            Some(Jitter { max_slots, seed })
        };
    }

    /// Registers a connection: its route, priority, traffic contract
    /// and emission pattern.
    ///
    /// # Errors
    ///
    /// - [`SimError::DuplicateConnection`] for a reused id;
    /// - [`SimError::UnknownLink`] if the route references a link
    ///   outside the topology this simulation was built from;
    /// - [`SimError::ForwardThroughEndSystem`] if an intermediate node
    ///   is not a switch.
    pub fn add_connection(
        &mut self,
        id: ConnectionId,
        route: Route,
        priority: Priority,
        contract: TrafficContract,
        pattern: TrafficPattern,
    ) -> Result<(), SimError> {
        if self.connections.contains_key(&id) {
            return Err(SimError::DuplicateConnection(id));
        }
        let links = route.links().to_vec();
        for (i, &l) in links.iter().enumerate() {
            let to = *self
                .link_to
                .get(l.index())
                .ok_or(SimError::UnknownLink(l))?;
            let is_last = i + 1 == links.len();
            if !is_last && !self.node_is_switch[to.index()] {
                return Err(SimError::ForwardThroughEndSystem(to));
            }
        }
        self.levels = self.levels.max(priority.level() + 1);
        self.connections.insert(
            id,
            SimConnection {
                forwarding: Forwarding::Path(links),
                priority,
                source: ShapedSource::new(&contract, pattern),
            },
        );
        Ok(())
    }

    /// Registers a point-to-multipoint connection: cells duplicate at
    /// every tree branch switch and are delivered at every leaf.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::add_connection`].
    pub fn add_multicast(
        &mut self,
        id: ConnectionId,
        tree: &MulticastTree,
        priority: Priority,
        contract: TrafficContract,
        pattern: TrafficPattern,
    ) -> Result<(), SimError> {
        if self.connections.contains_key(&id) {
            return Err(SimError::DuplicateConnection(id));
        }
        let mut next: BTreeMap<NodeId, Vec<LinkId>> = BTreeMap::new();
        for &l in tree.links() {
            let from = *self
                .link_from
                .get(l.index())
                .ok_or(SimError::UnknownLink(l))?;
            next.entry(from).or_default().push(l);
        }
        for (&node, outs) in &next {
            if node != tree.root() && !outs.is_empty() && !self.node_is_switch[node.index()] {
                return Err(SimError::ForwardThroughEndSystem(node));
            }
        }
        let entry = next.remove(&tree.root()).unwrap_or_default();
        if entry.is_empty() {
            return Err(SimError::UnknownLink(tree.links()[0]));
        }
        self.levels = self.levels.max(priority.level() + 1);
        self.connections.insert(
            id,
            SimConnection {
                forwarding: Forwarding::Tree { entry, next },
                priority,
                source: ShapedSource::new(&contract, pattern),
            },
        );
        Ok(())
    }

    /// Runs the scenario for `slots` cell times from a cold start and
    /// returns the measurements.
    pub fn run(&self, slots: u64) -> SimReport {
        let mut sources: BTreeMap<ConnectionId, ShapedSource> = self
            .connections
            .iter()
            .map(|(&id, c)| (id, c.source.clone()))
            .collect();
        let mut ports: BTreeMap<LinkId, PriorityFifo> = BTreeMap::new();
        let mut arrivals: BTreeMap<u64, Vec<Arrival>> = BTreeMap::new();
        let mut jitter_rng = self.jitter.map(|j| SimRng::seed_from_u64(j.seed));
        // Earliest slot each link may next deliver a cell at, so that
        // jitter never reorders cells or exceeds one cell per slot.
        let mut link_free: BTreeMap<LinkId, u64> = BTreeMap::new();
        let mut port_stats: BTreeMap<(LinkId, Priority), PortStats> = BTreeMap::new();
        let mut conn_stats: BTreeMap<ConnectionId, ConnectionStats> = self
            .connections
            .keys()
            .map(|&id| (id, ConnectionStats::default()))
            .collect();

        for now in 0..slots {
            // 1. Deliver cells that finished crossing a link: sink them
            //    or enqueue at the next output port(s), duplicating at
            //    multicast branches.
            if let Some(batch) = arrivals.remove(&now) {
                for arrival in batch {
                    let conn = &self.connections[&arrival.connection];
                    let next_links: Vec<(LinkId, Via)> = match (&conn.forwarding, arrival.via) {
                        (Forwarding::Path(route), Via::Hop(k)) => {
                            if k == route.len() {
                                Vec::new()
                            } else {
                                vec![(route[k], Via::Hop(k))]
                            }
                        }
                        (Forwarding::Tree { next, .. }, Via::Link(l)) => {
                            let node = self.link_to[l.index()];
                            next.get(&node)
                                .map(|outs| outs.iter().map(|&o| (o, Via::Link(o))).collect())
                                .unwrap_or_default()
                        }
                        _ => unreachable!("forwarding kind matches arrival kind"),
                    };
                    if next_links.is_empty() {
                        let stats = conn_stats.get_mut(&arrival.connection).expect("known");
                        stats.delivered += 1;
                        let delay = now - arrival.emitted;
                        stats.total_delay += delay;
                        stats.max_delay = stats.max_delay.max(delay);
                        *stats.histogram.entry(delay).or_insert(0) += 1;
                    } else {
                        let copies = next_links.len() as u64 - 1;
                        if copies > 0 {
                            conn_stats
                                .get_mut(&arrival.connection)
                                .expect("known")
                                .duplicated += copies;
                        }
                        for (link, via) in next_links {
                            self.enqueue(
                                &mut ports,
                                &mut conn_stats,
                                link,
                                conn.priority,
                                QueuedCell {
                                    connection: arrival.connection,
                                    via,
                                    enqueued: now,
                                    emitted: arrival.emitted,
                                },
                            );
                        }
                    }
                }
            }

            // 2. Sources emit into their access link output port(s).
            for (&id, source) in sources.iter_mut() {
                if source.emit(now) {
                    let conn = &self.connections[&id];
                    conn_stats.get_mut(&id).expect("known").emitted += 1;
                    let entries: Vec<(LinkId, Via)> = match &conn.forwarding {
                        Forwarding::Path(route) => vec![(route[0], Via::Hop(0))],
                        Forwarding::Tree { entry, .. } => {
                            entry.iter().map(|&l| (l, Via::Link(l))).collect()
                        }
                    };
                    let copies = entries.len() as u64 - 1;
                    if copies > 0 {
                        conn_stats.get_mut(&id).expect("known").duplicated += copies;
                    }
                    for (link, via) in entries {
                        self.enqueue(
                            &mut ports,
                            &mut conn_stats,
                            link,
                            conn.priority,
                            QueuedCell {
                                connection: id,
                                via,
                                enqueued: now,
                                emitted: now,
                            },
                        );
                    }
                }
            }

            // 3. Every port transmits at most one cell; it arrives at
            //    the far end of the link in the next slot, plus any
            //    injected jitter (switch links only, order-preserving).
            for (&link, port) in ports.iter_mut() {
                if let Some((priority, cell)) = port.dequeue() {
                    let stats = port_stats.entry((link, priority)).or_default();
                    stats.transmitted += 1;
                    let delay = now - cell.enqueued;
                    stats.total_delay += delay;
                    stats.max_delay = stats.max_delay.max(delay);
                    let mut arrive = now + 1;
                    if let (Some(j), Some(rng)) = (self.jitter, jitter_rng.as_mut()) {
                        let from_is_switch = self
                            .link_from
                            .get(link.index())
                            .map(|n| self.node_is_switch[n.index()])
                            .unwrap_or(false);
                        if from_is_switch {
                            arrive += rng.gen_below(j.max_slots + 1);
                        }
                    }
                    let free = link_free.entry(link).or_insert(0);
                    let arrive = arrive.max(*free);
                    *free = arrive + 1;
                    let via = match cell.via {
                        Via::Hop(k) => Via::Hop(k + 1),
                        Via::Link(l) => Via::Link(l),
                    };
                    arrivals.entry(arrive).or_default().push(Arrival {
                        connection: cell.connection,
                        via,
                        emitted: cell.emitted,
                    });
                }
            }
        }

        // Fold queue-side counters into the report.
        for (&link, port) in &ports {
            for level in 0..self.levels {
                let p = Priority::new(level);
                let occupancy = port.max_occupancy(p);
                if occupancy > 0 {
                    port_stats.entry((link, p)).or_default().max_occupancy = occupancy;
                }
            }
            if port.drops() > 0 {
                // Attribute drops to the lowest level for accounting;
                // per-connection drops are already tracked exactly.
                port_stats
                    .entry((link, Priority::HIGHEST))
                    .or_default()
                    .drops += port.drops();
            }
        }
        for stats in conn_stats.values_mut() {
            stats.in_flight = stats.emitted + stats.duplicated - stats.delivered - stats.dropped;
        }

        self.publish_observability(&port_stats, &conn_stats, slots);

        SimReport {
            ports: port_stats,
            connections: conn_stats,
            slots,
        }
    }

    /// End-of-run observability fold (cold path: once per `run`, after
    /// the slot loop). Counters accumulate across runs; queue-depth
    /// gauges keep the maximum ever observed.
    fn publish_observability(
        &self,
        port_stats: &BTreeMap<(LinkId, Priority), PortStats>,
        conn_stats: &BTreeMap<ConnectionId, ConnectionStats>,
        slots: u64,
    ) {
        let registry: &rtcac_obs::Registry = match &self.registry {
            Some(r) => r,
            None => match rtcac_obs::global() {
                Some(r) => r,
                None => return,
            },
        };
        registry.counter("sim_runs_total").inc();
        registry.counter("sim_slots_total").add(slots);
        let mut emitted = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for stats in conn_stats.values() {
            emitted += stats.emitted + stats.duplicated;
            delivered += stats.delivered;
            dropped += stats.dropped;
        }
        registry.counter("sim_cells_emitted_total").add(emitted);
        registry.counter("sim_cells_delivered_total").add(delivered);
        registry.counter("sim_cells_dropped_total").add(dropped);
        let delay = registry.histogram("sim_port_max_delay_slots");
        for (&(_, priority), stats) in port_stats {
            let label = priority.level().to_string();
            registry
                .gauge_with("sim_queue_depth_max_cells", &[("priority", &label)])
                .record_max(stats.max_occupancy as u64);
            delay.record(stats.max_delay);
        }
    }

    fn enqueue(
        &self,
        ports: &mut BTreeMap<LinkId, PriorityFifo>,
        conn_stats: &mut BTreeMap<ConnectionId, ConnectionStats>,
        link: LinkId,
        priority: Priority,
        cell: QueuedCell,
    ) {
        let port = ports
            .entry(link)
            .or_insert_with(|| PriorityFifo::new(self.levels, self.queue_capacity));
        if !port.enqueue(priority, cell) {
            conn_stats.get_mut(&cell.connection).expect("known").dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate};
    use rtcac_net::builders;
    use rtcac_rational::ratio;

    fn cbr(n: i128, d: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(n, d))).unwrap())
    }

    fn line_scenario() -> (Simulation, Route, Vec<LinkId>) {
        let (topology, src, sw, dst) = builders::line(2).unwrap();
        let route = Route::from_nodes(&topology, [src, sw[0], sw[1], dst]).unwrap();
        let links = route.links().to_vec();
        (Simulation::new(&topology), route, links)
    }

    #[test]
    fn single_cbr_flows_through_line() {
        let (mut sim, route, links) = line_scenario();
        sim.add_connection(
            ConnectionId::new(1),
            route,
            Priority::HIGHEST,
            cbr(1, 4),
            TrafficPattern::Greedy,
        )
        .unwrap();
        let report = sim.run(1_000);
        let c = report.connection(ConnectionId::new(1)).unwrap();
        // ~250 cells, three hops of one slot each.
        assert!(c.emitted >= 249);
        assert!(c.delivered >= c.emitted - 3);
        assert_eq!(c.dropped, 0);
        // One connection alone never queues: every hop delay is 0 and
        // end-to-end delay equals the 3 transmission slots.
        assert_eq!(c.max_delay, 3);
        for &l in &links {
            let p = report.port(l, Priority::HIGHEST).unwrap();
            assert_eq!(p.max_delay, 0, "unexpected queueing at {l}");
        }
    }

    #[test]
    fn two_sources_contend_at_shared_port() {
        // Two terminals feed one switch; both at rate 1/2 onto the same
        // output link: the link is exactly full and one cell of
        // queueing appears.
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let b = t.add_end_system("b");
        let s = t.add_switch("s");
        let d = t.add_end_system("d");
        t.add_link(a, s).unwrap();
        t.add_link(b, s).unwrap();
        let shared = t.add_link(s, d).unwrap();
        let ra = Route::from_nodes(&t, [a, s, d]).unwrap();
        let rb = Route::from_nodes(&t, [b, s, d]).unwrap();
        let mut sim = Simulation::new(&t);
        sim.add_connection(
            ConnectionId::new(1),
            ra,
            Priority::HIGHEST,
            cbr(1, 2),
            TrafficPattern::Greedy,
        )
        .unwrap();
        sim.add_connection(
            ConnectionId::new(2),
            rb,
            Priority::HIGHEST,
            cbr(1, 2),
            TrafficPattern::Greedy,
        )
        .unwrap();
        let report = sim.run(2_000);
        let port = report.port(shared, Priority::HIGHEST).unwrap();
        // Both sources emit in the same slots; one cell always waits.
        assert_eq!(port.max_delay, 1);
        assert!(report.total_drops() == 0);
        // Utilization: the shared link carries ~1 cell per slot.
        assert!(port.transmitted >= 1_990);
    }

    #[test]
    fn priority_preempts_lower_class() {
        // A full-rate high-priority source starves a low-priority one
        // at a shared port.
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let b = t.add_end_system("b");
        let s = t.add_switch("s");
        let d = t.add_end_system("d");
        t.add_link(a, s).unwrap();
        t.add_link(b, s).unwrap();
        t.add_link(s, d).unwrap();
        let ra = Route::from_nodes(&t, [a, s, d]).unwrap();
        let rb = Route::from_nodes(&t, [b, s, d]).unwrap();
        let mut sim = Simulation::new(&t);
        sim.add_connection(
            ConnectionId::new(1),
            ra,
            Priority::HIGHEST,
            cbr(9, 10),
            TrafficPattern::Greedy,
        )
        .unwrap();
        sim.add_connection(
            ConnectionId::new(2),
            rb,
            Priority::new(1),
            cbr(1, 10),
            TrafficPattern::Greedy,
        )
        .unwrap();
        let report = sim.run(5_000);
        let hi = report.connection(ConnectionId::new(1)).unwrap();
        let lo = report.connection(ConnectionId::new(2)).unwrap();
        // High priority keeps its delay tiny; low priority waits more.
        assert!(hi.max_delay <= 4);
        assert!(lo.max_delay >= hi.max_delay);
        assert_eq!(report.total_drops(), 0);
    }

    #[test]
    fn queue_capacity_causes_drops() {
        // Two full-rate sources into one output: 2 cells/slot arrive, 1
        // leaves; a 4-cell queue must overflow.
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let b = t.add_end_system("b");
        let s = t.add_switch("s");
        let d = t.add_end_system("d");
        t.add_link(a, s).unwrap();
        t.add_link(b, s).unwrap();
        t.add_link(s, d).unwrap();
        let ra = Route::from_nodes(&t, [a, s, d]).unwrap();
        let rb = Route::from_nodes(&t, [b, s, d]).unwrap();
        let mut sim = Simulation::new(&t);
        sim.set_queue_capacity(Some(4));
        for (id, r) in [(1, ra), (2, rb)] {
            sim.add_connection(
                ConnectionId::new(id),
                r,
                Priority::HIGHEST,
                cbr(1, 1),
                TrafficPattern::Greedy,
            )
            .unwrap();
        }
        let report = sim.run(200);
        assert!(report.total_drops() > 0);
        let dropped: u64 = report.connections().map(|(_, c)| c.dropped).sum();
        assert_eq!(dropped, report.total_drops());
    }

    #[test]
    fn run_publishes_drop_counters_and_depth_gauges() {
        // Same overloaded fan-in as `queue_capacity_causes_drops`, but
        // with an explicit registry: the published counters must match
        // the report exactly.
        let mut t = Topology::new();
        let a = t.add_end_system("a");
        let b = t.add_end_system("b");
        let s = t.add_switch("s");
        let d = t.add_end_system("d");
        t.add_link(a, s).unwrap();
        t.add_link(b, s).unwrap();
        t.add_link(s, d).unwrap();
        let ra = Route::from_nodes(&t, [a, s, d]).unwrap();
        let rb = Route::from_nodes(&t, [b, s, d]).unwrap();
        let mut sim = Simulation::new(&t);
        sim.set_queue_capacity(Some(4));
        for (id, r) in [(1, ra), (2, rb)] {
            sim.add_connection(
                ConnectionId::new(id),
                r,
                Priority::HIGHEST,
                cbr(1, 1),
                TrafficPattern::Greedy,
            )
            .unwrap();
        }
        let registry = Arc::new(rtcac_obs::Registry::new());
        sim.set_registry(Arc::clone(&registry));
        let report = sim.run(200);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("sim_runs_total"), Some(1));
        assert_eq!(snap.counter("sim_slots_total"), Some(200));
        assert_eq!(
            snap.counter("sim_cells_dropped_total"),
            Some(report.total_drops())
        );
        let emitted: u64 = report
            .connections()
            .map(|(_, c)| c.emitted + c.duplicated)
            .sum();
        assert_eq!(snap.counter("sim_cells_emitted_total"), Some(emitted));
        // The bounded queue saturated: the depth gauge shows it.
        assert_eq!(
            snap.gauge("sim_queue_depth_max_cells"),
            None,
            "gauge is labelled"
        );
        let depth = snap
            .gauges
            .iter()
            .find(|(id, _)| id.name() == "sim_queue_depth_max_cells")
            .map(|&(_, v)| v)
            .unwrap();
        // A cell is admitted while at most `capacity` cells sit ahead
        // of it, so a saturated queue holds capacity + 1 cells.
        assert_eq!(depth, 5);
    }

    #[test]
    fn add_connection_validation() {
        let (mut sim, route, _) = line_scenario();
        sim.add_connection(
            ConnectionId::new(1),
            route.clone(),
            Priority::HIGHEST,
            cbr(1, 4),
            TrafficPattern::Greedy,
        )
        .unwrap();
        assert!(matches!(
            sim.add_connection(
                ConnectionId::new(1),
                route,
                Priority::HIGHEST,
                cbr(1, 4),
                TrafficPattern::Greedy,
            ),
            Err(SimError::DuplicateConnection(_))
        ));
    }

    #[test]
    fn run_is_deterministic_and_repeatable() {
        let (mut sim, route, _) = line_scenario();
        sim.add_connection(
            ConnectionId::new(1),
            route,
            Priority::HIGHEST,
            cbr(1, 3),
            TrafficPattern::Random {
                p_percent: 50,
                seed: 1234,
            },
        )
        .unwrap();
        let a = sim.run(3_000);
        let b = sim.run(3_000);
        let ca = a.connection(ConnectionId::new(1)).unwrap();
        let cb = b.connection(ConnectionId::new(1)).unwrap();
        assert_eq!(ca, cb);
        assert!(ca.emitted > 0);
    }

    #[test]
    fn conservation_of_cells() {
        let (mut sim, route, _) = line_scenario();
        sim.add_connection(
            ConnectionId::new(1),
            route,
            Priority::HIGHEST,
            cbr(1, 2),
            TrafficPattern::Greedy,
        )
        .unwrap();
        let report = sim.run(777);
        let c = report.connection(ConnectionId::new(1)).unwrap();
        assert_eq!(c.emitted, c.delivered + c.in_flight + c.dropped);
    }
}
