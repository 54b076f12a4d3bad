//! The snapshot's section codecs.
//!
//! # Byte layout (format versions 1 and 2)
//!
//! A snapshot is the shared sectioned container of
//! [`rtcac_obs::codec`] (magic, u16 version, section directory with
//! per-section FNV-1a 64, payloads, whole-file FNV-1a 64) with magic
//! `RTSN`. Fields are written with the shared `Enc`/`Dec` and exact
//! rationals with [`crate::codec`]. Both versions have exactly six
//! sections, all mandatory:
//!
//! | id | section  | contents |
//! |----|----------|----------|
//! | 1  | meta     | origin label, CDV policy, reroute budget, next id, drain flag |
//! | 2  | topology | every node (kind, name) and link (from, to, capacity) |
//! | 3  | switches | per shard: config, table epoch, admitted connection legs |
//! | 4  | registry | per connection: shape links, queueing points, bounds, per-leaf delays |
//! | 5  | health   | down links/nodes, health epoch |
//! | 6  | counters | the eleven outcome counters |
//!
//! Versions differ only in the switches section. Version 1 repeats the
//! full `(contract, CDV)` pair on every leg; version 2 mirrors the
//! switch's in-memory contract intern: each shard carries a dedup table
//! of its distinct `(contract, CDV)` pairs in first-use order, and each
//! leg references a table index — a shard with a million legs over a
//! handful of contracts shrinks by roughly the contract size per leg.
//! The table is derived from the legs at encode time, so the in-memory
//! state structs are version-free.
//!
//! **Version policy:** a reader refuses any version it does not know
//! (`SnapError::UnsupportedVersion`) rather than best-effort decoding —
//! admission state is a contract ledger, and guessing at it voids
//! guarantees. This build reads versions [`MIN_VERSION`]..=[`VERSION`]
//! and writes only [`VERSION`] (except [`encode_with_version`], for
//! downgrade tooling); readers are only ever written for explicit
//! versions.
//!
//! Encoding is a pure function of the document — no timestamps, no
//! randomness — so `snapshot → restore → snapshot` is byte-identical.

use rtcac_cac::{ConnectionId, ConnectionRequest, Priority, SwitchConfig};
use rtcac_engine::{ConnectionState, EngineState, EngineStats, HealthOverlayState, SwitchState};
use rtcac_net::{LinkId, NodeId, NodeKind, Topology};
use rtcac_rational::Ratio;
use rtcac_signaling::CdvPolicy;

use rtcac_obs::codec::{Container, Dec, Enc};

use crate::codec::{DecExact as _, EncExact as _};
use crate::SnapError;

pub use rtcac_obs::codec::SectionInfo;

/// The container magic.
pub const MAGIC: [u8; 4] = *b"RTSN";
/// The newest format version this build reads and the only one it
/// writes.
pub const VERSION: u16 = 2;
/// The oldest format version this build still reads.
pub const MIN_VERSION: u16 = 1;
/// Decode refuses files larger than this (a forged length can not
/// force a giant allocation).
pub const MAX_SNAPSHOT: u64 = 256 << 20;

const CONTAINER: Container = Container {
    magic: MAGIC,
    versions: MIN_VERSION..=VERSION,
    sections: &[
        (1, "meta"),
        (2, "topology"),
        (3, "switches"),
        (4, "registry"),
        (5, "health"),
        (6, "counters"),
    ],
    max_len: MAX_SNAPSHOT,
};

/// Snapshot metadata: who wrote it. Deliberately free of timestamps so
/// encoding stays deterministic; file age is the file's mtime.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapMeta {
    /// The writing process, e.g. `rtcac-serve` or `rtcac-cli`.
    pub origin: String,
}

/// A self-contained, rebuildable description of a [`Topology`]: node
/// and link ids are assigned sequentially by insertion, so replaying
/// the lists through the topology builder reproduces the graph with
/// identical ids.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologySpec {
    /// Every node in id order: `(is_switch, name)`.
    pub nodes: Vec<(bool, String)>,
    /// Every link in id order: `(from, to, capacity)`.
    pub links: Vec<(u32, u32, Ratio)>,
}

impl TopologySpec {
    /// Captures a topology.
    pub fn of(topology: &Topology) -> TopologySpec {
        TopologySpec {
            nodes: topology
                .nodes()
                .iter()
                .map(|n| (n.is_switch(), n.name().to_string()))
                .collect(),
            links: topology
                .links()
                .iter()
                .map(|l| {
                    (
                        l.from().index() as u32,
                        l.to().index() as u32,
                        l.capacity().as_ratio(),
                    )
                })
                .collect(),
        }
    }

    /// Rebuilds the topology.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::BadPayload`] when a link references a
    /// missing node or has a non-positive capacity.
    pub fn build(&self) -> Result<Topology, SnapError> {
        let mut topology = Topology::new();
        for (is_switch, name) in &self.nodes {
            let kind = if *is_switch {
                NodeKind::Switch
            } else {
                NodeKind::EndSystem
            };
            topology.add_node(name.clone(), kind);
        }
        for &(from, to, capacity) in &self.links {
            topology
                .add_link_with_capacity(
                    NodeId::external(from),
                    NodeId::external(to),
                    rtcac_bitstream::Rate::new(capacity),
                )
                .map_err(|_| SnapError::BadPayload("invalid topology link"))?;
        }
        Ok(topology)
    }

    /// Whether `topology` is structurally identical to this spec —
    /// the gate an in-place restore uses before adopting state.
    pub fn matches(&self, topology: &Topology) -> bool {
        *self == TopologySpec::of(topology)
    }
}

/// One decoded snapshot: metadata, the topology it was taken over, and
/// the full engine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDoc {
    /// Writer metadata.
    pub meta: SnapMeta,
    /// The topology the state belongs to.
    pub topology: TopologySpec,
    /// The engine state at the cut.
    pub state: EngineState,
}

// ── encode ──────────────────────────────────────────────────────────

/// Encodes a snapshot into its container bytes (a pure function of the
/// document), always at the newest format version.
pub fn encode(doc: &SnapshotDoc) -> Vec<u8> {
    encode_at(doc, VERSION)
}

/// Encodes a snapshot at an explicit supported format version — for
/// downgrade tooling and cross-version compatibility tests. Normal
/// writers use [`encode`].
///
/// # Errors
///
/// [`SnapError::UnsupportedVersion`] when `version` is outside
/// [`MIN_VERSION`]..=[`VERSION`].
pub fn encode_with_version(doc: &SnapshotDoc, version: u16) -> Result<Vec<u8>, SnapError> {
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    Ok(encode_at(doc, version))
}

fn encode_at(doc: &SnapshotDoc, version: u16) -> Vec<u8> {
    CONTAINER.write(
        version,
        &[
            encode_meta(&doc.meta, &doc.state),
            encode_topology(&doc.topology),
            encode_switches(&doc.state.switches, version),
            encode_registry(&doc.state.connections),
            encode_health(&doc.state.health),
            encode_counters(&doc.state.counters),
        ],
    )
}

fn encode_meta(meta: &SnapMeta, state: &EngineState) -> Vec<u8> {
    Enc::new()
        .string(&meta.origin)
        .u8(match state.policy {
            CdvPolicy::Hard => 0,
            CdvPolicy::SoftSqrt => 1,
        })
        .u64(state.reroute_budget)
        .u64(state.next_id)
        .flag(state.draining)
        .finish()
}

fn encode_topology(spec: &TopologySpec) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(spec.nodes.len() as u32);
    for (is_switch, name) in &spec.nodes {
        enc.flag(*is_switch).string(name);
    }
    enc.u32(spec.links.len() as u32);
    for &(from, to, capacity) in &spec.links {
        enc.u32(from).u32(to).ratio(capacity);
    }
    enc.finish()
}

fn encode_config(enc: &mut Enc, config: &SwitchConfig) {
    enc.u8(config.levels());
    for priority in config.priorities() {
        enc.time(config.bound(priority).expect("listed priority has a bound"));
    }
    match config.quantization() {
        Some(grid) => enc.flag(true).i128(grid),
        None => enc.flag(false),
    };
}

/// The switches codec. Per shard: node, config, epoch, then the legs.
/// Version 1 repeats the full `(contract, CDV)` pair on every leg.
/// Version 2 first writes a dedup table of the shard's distinct pairs
/// in first-use order, and each leg references a table index; the table
/// is derived from the legs at encode time, so it is deterministic for
/// a given leg order.
fn encode_switches(switches: &[SwitchState], version: u16) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(switches.len() as u32);
    for shard in switches {
        enc.u32(shard.node.index() as u32);
        encode_config(&mut enc, &shard.config);
        enc.u64(shard.epoch);
        let refs = (version > 1).then(|| encode_contract_table(&mut enc, &shard.legs));
        enc.u32(shard.legs.len() as u32);
        for (i, (id, request)) in shard.legs.iter().enumerate() {
            enc.u64(id.raw());
            match &refs {
                Some(refs) => enc.u32(refs[i]),
                None => enc.contract(request.contract()).time(request.cdv()),
            };
            enc.u32(request.in_link().index() as u32)
                .u32(request.out_link().index() as u32)
                .u8(request.priority().level());
        }
    }
    enc.finish()
}

/// Writes version 2's per-shard dedup table and returns each leg's
/// table index — first occurrence assigns the index.
fn encode_contract_table(enc: &mut Enc, legs: &[(ConnectionId, ConnectionRequest)]) -> Vec<u32> {
    let mut table = Vec::new();
    let mut lookup = std::collections::BTreeMap::new();
    let refs = legs
        .iter()
        .map(|(_, request)| {
            let key = (request.contract(), request.cdv());
            *lookup.entry(key).or_insert_with(|| {
                table.push(key);
                (table.len() - 1) as u32
            })
        })
        .collect();
    enc.u32(table.len() as u32);
    for &(contract, cdv) in &table {
        enc.contract(contract).time(cdv);
    }
    refs
}

fn encode_registry(connections: &[ConnectionState]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(connections.len() as u32);
    for conn in connections {
        enc.u64(conn.id.raw())
            .flag(conn.multicast)
            .u32_list(conn.links.iter().map(|l| l.index() as u32));
        enc.u32(conn.points.len() as u32);
        for &(node, link) in &conn.points {
            enc.u32(node.index() as u32).u32(link.index() as u32);
        }
        enc.u8(conn.priority.level())
            .time(conn.delay_bound)
            .time(conn.guaranteed_delay);
        enc.u32(conn.per_leaf.len() as u32);
        for &(leaf, delay) in &conn.per_leaf {
            enc.u32(leaf.index() as u32).time(delay);
        }
    }
    enc.finish()
}

fn encode_health(health: &HealthOverlayState) -> Vec<u8> {
    Enc::new()
        .u32_list(health.down_links.iter().map(|l| l.index() as u32))
        .u32_list(health.down_nodes.iter().map(|n| n.index() as u32))
        .u64(health.epoch)
        .finish()
}

fn encode_counters(counters: &EngineStats) -> Vec<u8> {
    let mut enc = Enc::new();
    for v in [
        counters.submitted,
        counters.admitted,
        counters.rejected,
        counters.aborted,
        counters.errored,
        counters.rerouted,
        counters.released,
        counters.failed_over,
        counters.mcast_submitted,
        counters.mcast_admitted,
        counters.mcast_rejected,
    ] {
        enc.u64(v);
    }
    enc.finish()
}

// ── decode ──────────────────────────────────────────────────────────

/// Parses and verifies the container header like [`parse_header`],
/// returning only the section directory.
pub fn parse_sections(bytes: &[u8]) -> Result<Vec<SectionInfo>, SnapError> {
    parse_header(bytes).map(|(_, sections)| sections)
}

/// Parses and verifies the container header: magic, version, section
/// directory bounds, per-section checksums and the whole-file checksum.
/// Returns the format version and the directory without decoding any
/// payload — `inspect` stops here.
pub fn parse_header(bytes: &[u8]) -> Result<(u16, Vec<SectionInfo>), SnapError> {
    Ok(CONTAINER.parse(bytes)?)
}

/// Decodes a full snapshot: header and checksum verification via
/// [`parse_header`], then every section payload (each consumed
/// exactly) with the switches codec picked by the file's version.
///
/// # Errors
///
/// Any [`SnapError`] decode variant; never panics on hostile input.
pub fn decode(bytes: &[u8]) -> Result<SnapshotDoc, SnapError> {
    let (version, sections) = parse_header(bytes)?;
    let payload = |idx: usize| sections[idx].payload(bytes);
    let (meta, policy, reroute_budget, next_id, draining) = decode_meta(payload(0))?;
    let topology = decode_topology(payload(1))?;
    let switches = decode_switches(payload(2), version)?;
    let connections = decode_registry(payload(3))?;
    let health = decode_health(payload(4))?;
    let counters = decode_counters(payload(5))?;
    Ok(SnapshotDoc {
        meta,
        topology,
        state: EngineState {
            policy,
            reroute_budget,
            next_id,
            draining,
            health,
            switches,
            connections,
            counters,
        },
    })
}

type MetaFields = (SnapMeta, CdvPolicy, u64, u64, bool);

fn decode_meta(bytes: &[u8]) -> Result<MetaFields, SnapError> {
    let mut dec = Dec::new(bytes);
    let origin = dec.string()?;
    let policy = match dec.u8()? {
        0 => CdvPolicy::Hard,
        1 => CdvPolicy::SoftSqrt,
        _ => return Err(SnapError::BadPayload("unknown CDV policy tag")),
    };
    let reroute_budget = dec.u64()?;
    let next_id = dec.u64()?;
    let draining = dec.flag()?;
    dec.expect_end()?;
    Ok((
        SnapMeta { origin },
        policy,
        reroute_budget,
        next_id,
        draining,
    ))
}

fn decode_topology(bytes: &[u8]) -> Result<TopologySpec, SnapError> {
    let mut dec = Dec::new(bytes);
    let nodes = dec.list(5, |d| Ok((d.flag()?, d.string()?)))?;
    let links = dec.list(4 + 4 + 32, |d| Ok((d.u32()?, d.u32()?, d.ratio()?)))?;
    dec.expect_end()?;
    Ok(TopologySpec { nodes, links })
}

fn decode_config(dec: &mut Dec<'_>) -> Result<SwitchConfig, SnapError> {
    let levels = dec.u8()?;
    let mut bounds = Vec::with_capacity(dec.check_count(u32::from(levels), 32)?);
    for _ in 0..levels {
        bounds.push(dec.time()?);
    }
    let config = SwitchConfig::with_bounds(bounds)
        .map_err(|_| SnapError::BadPayload("invalid switch bounds"))?;
    if dec.flag()? {
        let grid = dec.i128()?;
        config
            .with_quantization(grid)
            .map_err(|_| SnapError::BadPayload("invalid quantization grid"))
    } else {
        Ok(config)
    }
}

/// The switches decoder for either version (see [`encode_switches`]).
fn decode_switches(bytes: &[u8], version: u16) -> Result<Vec<SwitchState>, SnapError> {
    // Minimum encoded sizes of a shard and of a leg, per version.
    let v1 = version == 1;
    let (shard_min, leg_min) = if v1 {
        (4 + 1 + 1 + 8 + 4, 8 + 1 + 32 + 32 + 4 + 4 + 1)
    } else {
        (4 + 1 + 1 + 8 + 4 + 4, 8 + 4 + 4 + 4 + 1)
    };
    let mut dec = Dec::new(bytes);
    let count = dec.count(shard_min)?;
    let mut switches = Vec::with_capacity(count);
    for _ in 0..count {
        let node = NodeId::external(dec.u32()?);
        let config = decode_config(&mut dec)?;
        let epoch = dec.u64()?;
        let table = if v1 {
            Vec::new()
        } else {
            dec.list(1 + 32 + 32, |d| Ok((d.contract()?, d.time()?)))?
        };
        let leg_count = dec.count(leg_min)?;
        let mut legs = Vec::with_capacity(leg_count);
        for _ in 0..leg_count {
            let id = ConnectionId::new(dec.u64()?);
            let (contract, cdv) = if v1 {
                (dec.contract()?, dec.time()?)
            } else {
                *table
                    .get(dec.u32()? as usize)
                    .ok_or(SnapError::BadPayload("leg references a missing contract"))?
            };
            let in_link = LinkId::external(dec.u32()?);
            let out_link = LinkId::external(dec.u32()?);
            let priority = Priority::new(dec.u8()?);
            legs.push((
                id,
                ConnectionRequest::new(contract, cdv, in_link, out_link, priority),
            ));
        }
        switches.push(SwitchState {
            node,
            config,
            epoch,
            legs,
        });
    }
    dec.expect_end()?;
    Ok(switches)
}

fn decode_registry(bytes: &[u8]) -> Result<Vec<ConnectionState>, SnapError> {
    let mut dec = Dec::new(bytes);
    let count = dec.count(8 + 1 + 4 + 4 + 1 + 32 + 32 + 4)?;
    let mut connections = Vec::with_capacity(count);
    for _ in 0..count {
        let id = ConnectionId::new(dec.u64()?);
        let multicast = dec.flag()?;
        let links = dec.u32_list()?.into_iter().map(LinkId::external).collect();
        let points = dec.list(8, |d| {
            Ok((NodeId::external(d.u32()?), LinkId::external(d.u32()?)))
        })?;
        let priority = Priority::new(dec.u8()?);
        let delay_bound = dec.time()?;
        let guaranteed_delay = dec.time()?;
        let per_leaf = dec.list(4 + 32, |d| Ok((NodeId::external(d.u32()?), d.time()?)))?;
        connections.push(ConnectionState {
            id,
            multicast,
            links,
            points,
            priority,
            delay_bound,
            guaranteed_delay,
            per_leaf,
        });
    }
    dec.expect_end()?;
    Ok(connections)
}

fn decode_health(bytes: &[u8]) -> Result<HealthOverlayState, SnapError> {
    let mut dec = Dec::new(bytes);
    let down_links = dec.u32_list()?.into_iter().map(LinkId::external).collect();
    let down_nodes = dec.u32_list()?.into_iter().map(NodeId::external).collect();
    let epoch = dec.u64()?;
    dec.expect_end()?;
    Ok(HealthOverlayState {
        down_links,
        down_nodes,
        epoch,
    })
}

fn decode_counters(bytes: &[u8]) -> Result<EngineStats, SnapError> {
    let mut dec = Dec::new(bytes);
    let counters = EngineStats {
        submitted: dec.u64()?,
        admitted: dec.u64()?,
        rejected: dec.u64()?,
        aborted: dec.u64()?,
        errored: dec.u64()?,
        rerouted: dec.u64()?,
        released: dec.u64()?,
        failed_over: dec.u64()?,
        mcast_submitted: dec.u64()?,
        mcast_admitted: dec.u64()?,
        mcast_rejected: dec.u64()?,
    };
    dec.expect_end()?;
    Ok(counters)
}
