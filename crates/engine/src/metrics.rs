//! Pre-resolved observability handles for the engine hot path.
//!
//! Every handle is resolved once at engine construction; the admission
//! path never touches the registry again. With no registry installed
//! all handles are no-ops, `live` is false, and the hot path performs
//! neither clock reads nor atomic updates — instrumentation cost is a
//! handful of branches.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rtcac_net::NodeId;
use rtcac_obs::{Counter, Exemplar, Gauge, Histogram, Registry};

/// The engine's metric handles (all no-op by default).
#[derive(Debug, Default)]
pub(crate) struct EngineMetrics {
    /// Whether any registry backs these handles (gates clock reads).
    pub live: bool,
    /// Kept for the event ring (abort events).
    pub registry: Option<Arc<Registry>>,
    pub submitted: Counter,
    pub admitted: Counter,
    pub rejected: Counter,
    pub aborted: Counter,
    pub released: Counter,
    pub errored: Counter,
    pub rerouted: Counter,
    pub failed_over: Counter,
    pub mcast_submitted: Counter,
    pub mcast_admitted: Counter,
    pub mcast_rejected: Counter,
    pub reject_qos: Counter,
    pub reject_switch: Counter,
    pub reject_route_down: Counter,
    pub reject_draining: Counter,
    /// Most-recent rejected trace per reason — lets an operator jump
    /// from "rejects/s spiked" to a concrete trace's provenance.
    pub exemplar_qos: Exemplar,
    pub exemplar_switch: Exemplar,
    pub exemplar_route_down: Exemplar,
    pub exemplar_draining: Exemplar,
    pub link_failures: Counter,
    pub link_heals: Counter,
    pub node_failures: Counter,
    pub node_heals: Counter,
    pub orphaned: Gauge,
    pub reserve_ns: Histogram,
    pub commit_ns: Histogram,
    pub rollback_ns: Histogram,
    pub reroute_ns: Histogram,
    pub lock_wait_ns: BTreeMap<NodeId, Histogram>,
    /// Lock-health watchdog: how long each setup/release held its full
    /// set of shard locks, and how often a hold exceeded the engine's
    /// configured threshold (see
    /// `AdmissionEngine::set_lock_hold_threshold_ns`).
    pub lock_hold_ns: Histogram,
    pub lock_hold_long: Counter,
}

impl EngineMetrics {
    /// Handles resolved against `registry`, with one lock-wait
    /// histogram per switch shard.
    pub fn from_registry(
        registry: Arc<Registry>,
        nodes: impl Iterator<Item = NodeId>,
    ) -> EngineMetrics {
        let r = &*registry;
        let lock_wait_ns = nodes
            .map(|node| {
                let shard = node.to_string();
                (
                    node,
                    r.histogram_with("engine_shard_lock_wait_ns", &[("shard", &shard)]),
                )
            })
            .collect();
        EngineMetrics {
            live: true,
            submitted: r.counter("engine_setups_submitted_total"),
            admitted: r.counter("engine_setups_admitted_total"),
            rejected: r.counter("engine_setups_rejected_total"),
            aborted: r.counter("engine_setups_aborted_total"),
            released: r.counter("engine_released_total"),
            errored: r.counter("engine_setup_errors_total"),
            rerouted: r.counter("engine_setups_rerouted_total"),
            failed_over: r.counter("engine_failed_over_total"),
            mcast_submitted: r.counter("engine_mcast_setups_submitted_total"),
            mcast_admitted: r.counter("engine_mcast_setups_admitted_total"),
            mcast_rejected: r.counter("engine_mcast_setups_rejected_total"),
            reject_qos: r.counter_with("engine_rejections_total", &[("reason", "qos")]),
            reject_switch: r.counter_with("engine_rejections_total", &[("reason", "switch")]),
            reject_route_down: r
                .counter_with("engine_rejections_total", &[("reason", "route_down")]),
            reject_draining: r.counter_with("engine_rejections_total", &[("reason", "draining")]),
            exemplar_qos: r.exemplar_with("engine_rejections_total", &[("reason", "qos")]),
            exemplar_switch: r.exemplar_with("engine_rejections_total", &[("reason", "switch")]),
            exemplar_route_down: r
                .exemplar_with("engine_rejections_total", &[("reason", "route_down")]),
            exemplar_draining: r
                .exemplar_with("engine_rejections_total", &[("reason", "draining")]),
            link_failures: r.counter_with("engine_element_failures_total", &[("element", "link")]),
            link_heals: r.counter_with("engine_element_heals_total", &[("element", "link")]),
            node_failures: r.counter_with("engine_element_failures_total", &[("element", "node")]),
            node_heals: r.counter_with("engine_element_heals_total", &[("element", "node")]),
            orphaned: r.gauge("engine_orphaned_reservations"),
            reserve_ns: r.histogram("engine_reserve_ns"),
            commit_ns: r.histogram("engine_commit_ns"),
            rollback_ns: r.histogram("engine_rollback_ns"),
            reroute_ns: r.histogram("engine_reroute_ns"),
            lock_wait_ns,
            lock_hold_ns: r.histogram("engine_lock_hold_ns"),
            lock_hold_long: r.counter("engine_lock_hold_long_total"),
            registry: Some(registry),
        }
    }

    /// A phase start time — `None` (no clock read) when not live.
    pub fn start(&self) -> Option<Instant> {
        self.live.then(Instant::now)
    }

    /// Records the elapsed time since a [`EngineMetrics::start`] mark.
    pub fn record_since(&self, start: Option<Instant>, histogram: &Histogram) {
        if let Some(start) = start {
            histogram.record_duration(start.elapsed());
        }
    }

    /// Records an abort event into the registry's event ring, if any.
    pub fn record_abort_event(&self, detail: String) {
        if let Some(r) = &self.registry {
            r.events().record("engine.abort", detail);
        }
    }
}
