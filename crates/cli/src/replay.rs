//! One scenario replay.
//!
//! The paper's CAC is one procedure, and the workspace has one
//! admission core with two setup drivers — the serial signaling
//! [`Network`] and the concurrent sharded [`AdmissionEngine`]. This
//! module is the one place a scenario file is *replayed* through
//! either: the [`Driver`] trait names what a replay needs from a
//! driver, and [`Replay`] owns the only driver-mutating `match` over
//! [`ScenarioAction`], the established-connection map and the id
//! allocation. Every directive yields one typed [`Step`]; `check`,
//! `check --engine`, `trace`, `why` and `snapshot save` render or
//! consume that stream in file order, and `storm`
//! steps two replays in lock-step and demands equal steps. A new
//! directive is added here, once.

use std::collections::BTreeMap;
use std::sync::Arc;

use rtcac_bitstream::Time;
use rtcac_cac::{AdmissionReport, ConnectionId, FailureImpact, GuaranteeViolation, Priority};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::{LinkId, NodeId};
use rtcac_obs::Tracer;
use rtcac_signaling::{CrankbackPolicy, MulticastOutcome, Network, SetupOutcome, SignalError};
use rtcac_storm::{endpoint_pairs, run_chaos, ChaosReport, FaultPlan};

use crate::commands::build_engine;
use crate::scenario::{ConnectionSpec, RouteKind, Scenario, ScenarioAction};
use crate::CliError;

/// How an established connection left its submitted route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Detour {
    /// The serial walk's ATM crankback (`crankback=N` connects only).
    Crankback {
        /// Attempts refused before the one that connected.
        rejected: usize,
        /// Deterministic backoff accounted across the retries.
        backoff_cells: u64,
    },
    /// The engine's reroute search off a dead route.
    Rerouted {
        /// Alternate routes tried before one stuck.
        attempts: usize,
    },
}

/// What replaying one directive did — driver-neutral, so the serial and
/// the engine replay of one scenario can be compared step for step
/// (connection ids are deliberately absent: multicast and crankback
/// setups allocate them per driver). A step says what happened; the
/// directive it answers says to what.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Step {
    Connected {
        /// Index into [`Scenario::connections`].
        index: usize,
        delay: Time,
        detour: Option<Detour>,
    },
    Rejected {
        index: usize,
        reason: String,
        crankback_attempts: Option<usize>,
    },
    Released {
        /// Whether the connection was still established (a fault may
        /// have torn it down since).
        live: bool,
    },
    Failed {
        changed: bool,
        torn_down: usize,
    },
    Healed {
        changed: bool,
    },
    Degraded {
        link: LinkId,
        /// The new CDV inflation; `None` for `restore-link`.
        cdv: Option<Time>,
    },
    Chaos {
        seed: u64,
        steps: u64,
        rate: u64,
        report: ChaosReport,
    },
}

/// What a scenario replay needs from a setup driver.
pub(crate) trait Driver {
    /// Sets up `connections[index]`: the [`Step::Connected`] or
    /// [`Step::Rejected`] it produced and, when established, the id to
    /// release it by. `explicit_id` (unicast only) makes two drivers
    /// price the same connection under the same id, which is what lets
    /// their ledgers be compared byte for byte.
    fn connect(
        &mut self,
        index: usize,
        spec: &ConnectionSpec,
        explicit_id: Option<ConnectionId>,
    ) -> Result<(Step, Option<ConnectionId>), CliError>;

    /// Tears `id` down if it is still established (a fault may have
    /// done so already); returns whether it was.
    fn release(&mut self, id: ConnectionId) -> Result<bool, CliError>;

    fn set_link_cdv_inflation(&mut self, link: LinkId, cdv: Time) -> Result<(), CliError>;
    fn fail_link(&mut self, link: LinkId) -> Result<FailureImpact, CliError>;
    fn heal_link(&mut self, link: LinkId) -> Result<bool, CliError>;
    fn fail_node(&mut self, node: NodeId) -> Result<FailureImpact, CliError>;
    fn heal_node(&mut self, node: NodeId) -> Result<bool, CliError>;

    /// The per-hop ledger of the most recent connect that reached
    /// pricing.
    fn admission_report(&self) -> Option<AdmissionReport>;

    /// The safety audits: orphaned reservations (count) and violated
    /// guarantees.
    fn audit(&self) -> Result<(usize, Vec<GuaranteeViolation>), CliError>;

    /// The computed worst-case queueing delay of one output port under
    /// the established connections (zero on an idle port).
    fn computed_bound(
        &self,
        node: NodeId,
        link: LinkId,
        priority: Priority,
    ) -> Result<Time, CliError>;
}

fn connected(
    index: usize,
    id: ConnectionId,
    delay: Time,
    detour: Option<Detour>,
) -> (Step, Option<ConnectionId>) {
    let step = Step::Connected {
        index,
        delay,
        detour,
    };
    (step, Some(id))
}

fn rejected(
    index: usize,
    reason: impl ToString,
    crankback_attempts: Option<usize>,
) -> (Step, Option<ConnectionId>) {
    let step = Step::Rejected {
        index,
        reason: reason.to_string(),
        crankback_attempts,
    };
    (step, None)
}

impl Driver for Network {
    fn connect(
        &mut self,
        index: usize,
        spec: &ConnectionSpec,
        explicit_id: Option<ConnectionId>,
    ) -> Result<(Step, Option<ConnectionId>), CliError> {
        let route = match &spec.route {
            RouteKind::Unicast(route) => route,
            RouteKind::Multicast(tree) => {
                let outcome = self.setup_multicast(tree, spec.request);
                return Ok(match outcome.map_err(CliError::domain)? {
                    MulticastOutcome::Connected(info) => {
                        connected(index, info.id(), info.guaranteed_delay(), None)
                    }
                    MulticastOutcome::Rejected(why) => rejected(index, why, None),
                });
            }
        };
        let Some(max_retries) = spec.crankback else {
            let outcome = match explicit_id {
                Some(id) => self.setup_with_id(id, route, spec.request),
                None => self.setup(route, spec.request),
            };
            return Ok(match outcome.map_err(CliError::domain)? {
                SetupOutcome::Connected(info) => {
                    connected(index, info.id(), info.guaranteed_delay(), None)
                }
                SetupOutcome::Rejected(why) => rejected(index, why, None),
            });
        };
        let from = route.source(self.topology()).map_err(CliError::domain)?;
        let to = route
            .destination(self.topology())
            .map_err(CliError::domain)?;
        let policy = CrankbackPolicy {
            max_retries,
            ..CrankbackPolicy::default()
        };
        Ok(match self.setup_crankback(from, to, spec.request, policy) {
            Ok(search) => match search.outcome {
                SetupOutcome::Connected(info) => {
                    let detour = Detour::Crankback {
                        rejected: search.attempts.len(),
                        backoff_cells: search.backoff_cells,
                    };
                    connected(index, info.id(), info.guaranteed_delay(), Some(detour))
                }
                SetupOutcome::Rejected(why) => rejected(index, why, Some(search.attempts.len())),
            },
            // No healthy route at all is a verdict — the engine answers
            // the same setup with a rejection — not a replay failure.
            Err(e @ SignalError::Net(_)) => rejected(index, e, Some(0)),
            Err(e) => return Err(CliError::domain(e)),
        })
    }

    fn release(&mut self, id: ConnectionId) -> Result<bool, CliError> {
        if self.connection(id).is_some() {
            self.teardown(id).map_err(CliError::domain)?;
        } else if self.multicast_connection(id).is_some() {
            self.teardown_multicast(id).map_err(CliError::domain)?;
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    fn set_link_cdv_inflation(&mut self, link: LinkId, cdv: Time) -> Result<(), CliError> {
        Network::set_link_cdv_inflation(self, link, cdv).map_err(CliError::domain)
    }

    fn fail_link(&mut self, link: LinkId) -> Result<FailureImpact, CliError> {
        Network::fail_link(self, link).map_err(CliError::domain)
    }

    fn heal_link(&mut self, link: LinkId) -> Result<bool, CliError> {
        Network::heal_link(self, link).map_err(CliError::domain)
    }

    fn fail_node(&mut self, node: NodeId) -> Result<FailureImpact, CliError> {
        Network::fail_node(self, node).map_err(CliError::domain)
    }

    fn heal_node(&mut self, node: NodeId) -> Result<bool, CliError> {
        Network::heal_node(self, node).map_err(CliError::domain)
    }

    /// The serial walk keeps one ledger, reset by every unicast setup;
    /// a multicast setup leaves the previous one in place.
    fn admission_report(&self) -> Option<AdmissionReport> {
        self.last_admission_report().cloned()
    }

    fn audit(&self) -> Result<(usize, Vec<GuaranteeViolation>), CliError> {
        let broken = self.verify_guarantees().map_err(CliError::domain)?;
        Ok((self.orphaned_reservations().len(), broken))
    }

    fn computed_bound(
        &self,
        node: NodeId,
        link: LinkId,
        priority: Priority,
    ) -> Result<Time, CliError> {
        let switch = self.switch(node).map_err(CliError::domain)?;
        switch
            .computed_bound(link, priority)
            .map_err(CliError::domain)
    }
}

/// The concurrent engine as a replay driver. Its two constructors are
/// the two reroute policies a replay runs under — not an option anyone
/// sets.
pub(crate) struct EngineDriver {
    pub(crate) engine: Arc<AdmissionEngine>,
    /// Whether the reroute budget is pinned to what the serial walk
    /// does (see [`EngineDriver::lockstep`]).
    lockstep: bool,
    last_connect: Option<ConnectionId>,
}

impl EngineDriver {
    /// The engine as `check --engine`, `trace --engine` and
    /// `snapshot save` drive it: the reroute budget stays
    /// at the engine's default, so a setup submitted on a *dead* route
    /// is rerouted by the engine's own search and a `crankback=` budget
    /// on the spec changes nothing — the engine, not the scenario,
    /// decides the attempts.
    pub(crate) fn new(engine: Arc<AdmissionEngine>) -> EngineDriver {
        EngineDriver {
            engine,
            lockstep: false,
            last_connect: None,
        }
    }

    /// The engine as `storm` drives it beside the serial walk: ledgers
    /// are captured, and the reroute budget is pinned to 0 because the
    /// serial driver never reroutes a plain connect off a dead route —
    /// a `crankback=N` connect raises it to N for that one setup.
    pub(crate) fn lockstep(engine: Arc<AdmissionEngine>) -> EngineDriver {
        engine.set_capture_reports(true);
        engine.set_reroute_budget(0);
        EngineDriver {
            lockstep: true,
            ..EngineDriver::new(engine)
        }
    }
}

impl Driver for EngineDriver {
    fn connect(
        &mut self,
        index: usize,
        spec: &ConnectionSpec,
        explicit_id: Option<ConnectionId>,
    ) -> Result<(Step, Option<ConnectionId>), CliError> {
        let raised = spec.crankback.filter(|_| self.lockstep);
        if let Some(retries) = raised {
            self.engine.set_reroute_budget(retries as u64);
        }
        let outcome = match (&spec.route, explicit_id) {
            (RouteKind::Unicast(route), Some(id)) => {
                self.engine.admit_with_id(id, route, spec.request)
            }
            (RouteKind::Unicast(route), None) => self.engine.admit(route, spec.request),
            (RouteKind::Multicast(tree), _) => self.engine.admit_multicast(tree, spec.request),
        };
        if raised.is_some() {
            self.engine.set_reroute_budget(0);
        }
        let outcome = outcome.map_err(CliError::domain)?;
        let (EngineOutcome::Admitted { id, .. }
        | EngineOutcome::Rerouted { id, .. }
        | EngineOutcome::Rejected { id, .. }) = outcome;
        self.last_connect = Some(id);
        Ok(match outcome {
            EngineOutcome::Admitted {
                guaranteed_delay, ..
            } => connected(index, id, guaranteed_delay, None),
            EngineOutcome::Rerouted {
                guaranteed_delay,
                attempts,
                ..
            } => {
                let detour = Detour::Rerouted { attempts };
                connected(index, id, guaranteed_delay, Some(detour))
            }
            EngineOutcome::Rejected { rejection, .. } => rejected(index, rejection, None),
        })
    }

    fn release(&mut self, id: ConnectionId) -> Result<bool, CliError> {
        // A fault may have torn the connection down since it was
        // established; the registry probe keeps the replay in lockstep
        // with the serial driver.
        if self.engine.per_leaf_bounds(id).is_none() {
            return Ok(false);
        }
        self.engine.release(id).map_err(CliError::domain)?;
        Ok(true)
    }

    fn set_link_cdv_inflation(&mut self, link: LinkId, cdv: Time) -> Result<(), CliError> {
        let set = self.engine.set_link_cdv_inflation(link, cdv);
        set.map_err(CliError::domain)
    }

    fn fail_link(&mut self, link: LinkId) -> Result<FailureImpact, CliError> {
        self.engine.fail_link(link).map_err(CliError::domain)
    }

    fn heal_link(&mut self, link: LinkId) -> Result<bool, CliError> {
        self.engine.heal_link(link).map_err(CliError::domain)
    }

    fn fail_node(&mut self, node: NodeId) -> Result<FailureImpact, CliError> {
        self.engine.fail_node(node).map_err(CliError::domain)
    }

    fn heal_node(&mut self, node: NodeId) -> Result<bool, CliError> {
        self.engine.heal_node(node).map_err(CliError::domain)
    }

    /// `None` unless ledgers are captured ([`EngineDriver::lockstep`]).
    fn admission_report(&self) -> Option<AdmissionReport> {
        self.engine.admission_report(self.last_connect?)
    }

    /// Also publishes the orphan count to the
    /// `engine_orphaned_reservations` gauge.
    fn audit(&self) -> Result<(usize, Vec<GuaranteeViolation>), CliError> {
        let broken = self.engine.verify_guarantees().map_err(CliError::domain)?;
        Ok((self.engine.publish_orphan_audit(), broken))
    }

    fn computed_bound(
        &self,
        node: NodeId,
        link: LinkId,
        priority: Priority,
    ) -> Result<Time, CliError> {
        self.engine
            .computed_bound(node, link, priority)
            .map_err(CliError::domain)
    }
}

/// Explicit connection ids start far above anything the drivers'
/// internal allocators hand out, so multicast and crankback setups
/// (which allocate their own ids on each side) can never collide with
/// the shared ids a lock-step comparison depends on.
const EXPLICIT_ID_BASE: u64 = 1 << 40;

/// A scenario being replayed, directive by directive, through one
/// driver.
pub(crate) struct Replay<'a, D> {
    pub(crate) scenario: &'a Scenario,
    pub(crate) driver: D,
    /// The id each connection was established under (it may have been
    /// torn down since), by index into [`Scenario::connections`].
    pub(crate) established: BTreeMap<usize, ConnectionId>,
    /// The next explicit id, when the replay hands them out.
    next_id: Option<u64>,
    chaos_tracer: Option<Tracer>,
}

impl<'a, D: Driver> Replay<'a, D> {
    /// A replay whose driver allocates connection ids itself. Embedded
    /// `chaos` sessions are observed by `chaos_tracer`, if given.
    pub(crate) fn new(
        scenario: &'a Scenario,
        driver: D,
        chaos_tracer: Option<&Tracer>,
    ) -> Replay<'a, D> {
        Replay {
            scenario,
            driver,
            established: BTreeMap::new(),
            next_id: None,
            chaos_tracer: chaos_tracer.cloned(),
        }
    }

    /// A replay that submits every plain unicast connect under an
    /// explicit id drawn from a fixed sequence — two such replays of
    /// one scenario price the same connections under the same ids.
    pub(crate) fn with_explicit_ids(scenario: &'a Scenario, driver: D) -> Replay<'a, D> {
        Replay {
            next_id: Some(EXPLICIT_ID_BASE),
            ..Replay::new(scenario, driver, None)
        }
    }

    /// Replays one directive.
    pub(crate) fn step(&mut self, action: &ScenarioAction) -> Result<Step, CliError> {
        Ok(match *action {
            ScenarioAction::Connect(index) => {
                let spec = &self.scenario.connections[index];
                // Crankback setups search their own route and allocate
                // their own id on each driver.
                let explicit_id = match (&mut self.next_id, spec.crankback) {
                    (Some(next), None) => {
                        let id = ConnectionId::new(*next);
                        *next += 1;
                        Some(id)
                    }
                    _ => None,
                };
                let (step, id) = self.driver.connect(index, spec, explicit_id)?;
                if let Some(id) = id {
                    self.established.insert(index, id);
                }
                step
            }
            ScenarioAction::Release(index) => Step::Released {
                live: match self.established.get(&index) {
                    Some(&id) => self.driver.release(id)?,
                    None => false,
                },
            },
            ScenarioAction::DegradeLink(link, cdv) => {
                self.driver.set_link_cdv_inflation(link, cdv)?;
                let cdv = Some(cdv);
                Step::Degraded { link, cdv }
            }
            ScenarioAction::RestoreLink(link) => {
                self.driver.set_link_cdv_inflation(link, Time::ZERO)?;
                Step::Degraded { link, cdv: None }
            }
            ScenarioAction::FailLink(link) => failed(&self.driver.fail_link(link)?),
            ScenarioAction::FailNode(node) => failed(&self.driver.fail_node(node)?),
            ScenarioAction::HealLink(link) => Step::Healed {
                changed: self.driver.heal_link(link)?,
            },
            ScenarioAction::HealNode(node) => Step::Healed {
                changed: self.driver.heal_node(node)?,
            },
            ScenarioAction::Chaos { seed, steps, rate } => {
                let tracer = self.chaos_tracer.as_ref();
                let chaos = ChaosSession::new(self.scenario, seed, steps, rate, tracer)?;
                let report = run_chaos(&chaos.engine, &chaos.endpoints, &chaos.plan, seed, steps)
                    .map_err(CliError::domain)?;
                Step::Chaos {
                    seed,
                    steps,
                    rate,
                    report,
                }
            }
        })
    }
}

fn failed(impact: &FailureImpact) -> Step {
    Step::Failed {
        changed: impact.is_changed(),
        torn_down: impact.torn_down().len(),
    }
}

/// A `chaos` directive made ready to run: a fresh admission engine
/// built over the scenario's topology and switch configs (independent
/// of any replaying driver's state), the end-system pairs its churn
/// draws from, and its seeded fault plan. Every runner of the directive
/// starts here.
pub(crate) struct ChaosSession {
    pub(crate) engine: AdmissionEngine,
    pub(crate) endpoints: Vec<(NodeId, NodeId)>,
    pub(crate) plan: FaultPlan,
}

impl ChaosSession {
    /// The session of `chaos seed=… steps=… rate=…` over `scenario`,
    /// observed by `tracer`, if given.
    pub(crate) fn new(
        scenario: &Scenario,
        seed: u64,
        steps: u64,
        rate: u64,
        tracer: Option<&Tracer>,
    ) -> Result<ChaosSession, CliError> {
        let mut engine = build_engine(scenario, None)?;
        if let Some(tracer) = tracer {
            engine.set_tracer(tracer.clone());
        }
        let endpoints = endpoint_pairs(engine.topology());
        let plan = FaultPlan::random(engine.topology(), seed, steps, rate);
        Ok(ChaosSession {
            engine,
            endpoints,
            plan,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::build_network;
    use rtcac_net::SimRng;
    use rtcac_storm::{generate, ConnectForm, Directive, FuzzConfig, ProfileKind, TopologyKind};

    /// The parity oracle, stated on its own: without crankback
    /// connects (whose two search strategies may legitimately differ),
    /// the serial walk and the lock-stepped engine answer every
    /// directive of a generated scenario with equal [`Step`]s.
    #[test]
    fn both_drivers_yield_equal_steps_over_200_generated_scenarios() {
        let mut rng = SimRng::seed_from_u64(0x57E9);
        let mut compared = 0;
        for case in 0..200usize {
            let config = FuzzConfig {
                topology: TopologyKind::ALL[case % TopologyKind::ALL.len()],
                profile: match case % 5 {
                    0 => None,
                    k => Some(ProfileKind::ALL[k - 1]),
                },
                ..FuzzConfig::default()
            };
            let seed = rng.next_u64();
            let storm = generate(seed, &config).expect("generate");
            let keep: Vec<bool> = storm
                .directives
                .iter()
                .map(|d| {
                    let form = match d {
                        Directive::Connect { form, .. } => Some(form),
                        _ => None,
                    };
                    !matches!(form, Some(ConnectForm::Crankback { .. }))
                })
                .collect();
            let scenario = Scenario::parse(&storm.retain(&keep).emit()).expect("parses");
            assert!(scenario.connections.iter().all(|c| c.crankback.is_none()));

            let network = build_network(&scenario).unwrap();
            let engine = Arc::new(build_engine(&scenario, None).unwrap());
            let mut serial = Replay::with_explicit_ids(&scenario, network);
            let mut sharded = Replay::with_explicit_ids(&scenario, EngineDriver::lockstep(engine));
            let actions = scenario.actions.iter();
            let serial_steps: Vec<Step> =
                actions.clone().map(|a| serial.step(a).unwrap()).collect();
            let sharded_steps: Vec<Step> = actions.map(|a| sharded.step(a).unwrap()).collect();
            assert_eq!(
                serial_steps, sharded_steps,
                "case {case} (seed {seed}) diverged"
            );
            compared += serial_steps.len();
        }
        assert!(compared > 2_000, "only {compared} steps compared");
    }
}
