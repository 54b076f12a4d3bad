//! The versioned snapshot container and its section codecs.
//!
//! # Byte layout (format versions 1 and 2)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "RTSN"
//! 4       2     format version (u16 BE) — forward-refusing
//! 6       1     section count
//! 7       25×N  section directory: id u8, offset u64, len u64, fnv64 u64
//! …       …     section payloads (contiguous, directory order)
//! end-8   8     whole-file FNV-1a 64 over every preceding byte
//! ```
//!
//! Both versions have exactly six sections, all mandatory:
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

use crate::codec::{Dec, Enc};
use crate::fnv64;
use crate::SnapError;

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

const SECTION_IDS: [(u8, &str); 6] = [
    (1, "meta"),
    (2, "topology"),
    (3, "switches"),
    (4, "registry"),
    (5, "health"),
    (6, "counters"),
];

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

/// One section directory entry, as parsed from the container header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section id.
    pub id: u8,
    /// The section name (`"meta"`, `"topology"`, …).
    pub name: &'static str,
    /// Absolute payload offset.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// The stored FNV-1a 64 checksum of the payload.
    pub checksum: u64,
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
    let switches = match version {
        1 => encode_switches_v1(&doc.state.switches),
        _ => encode_switches(&doc.state.switches),
    };
    let payloads: Vec<(u8, Vec<u8>)> = vec![
        (1, encode_meta(&doc.meta, &doc.state)),
        (2, encode_topology(&doc.topology)),
        (3, switches),
        (4, encode_registry(&doc.state.connections)),
        (5, encode_health(&doc.state.health)),
        (6, encode_counters(&doc.state.counters)),
    ];
    let mut header = Enc::new();
    for &b in &MAGIC {
        header.u8(b);
    }
    header.u16(version);
    header.u8(payloads.len() as u8);
    let dir_start = 4 + 2 + 1;
    let mut offset = (dir_start + payloads.len() * 25) as u64;
    for (id, payload) in &payloads {
        header
            .u8(*id)
            .u64(offset)
            .u64(payload.len() as u64)
            .u64(fnv64(payload));
        offset += payload.len() as u64;
    }
    let mut bytes = header.finish();
    for (_, payload) in &payloads {
        bytes.extend_from_slice(payload);
    }
    let file_sum = fnv64(&bytes);
    bytes.extend_from_slice(&file_sum.to_be_bytes());
    bytes
}

fn encode_meta(meta: &SnapMeta, state: &EngineState) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.string(&meta.origin)
        .u8(match state.policy {
            CdvPolicy::Hard => 0,
            CdvPolicy::SoftSqrt => 1,
        })
        .u64(state.reroute_budget)
        .u64(state.next_id)
        .flag(state.draining);
    enc.finish()
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

/// The version-2 switches codec: per shard, a dedup table of distinct
/// `(contract, CDV)` pairs in first-use order, then legs referencing
/// table indices. Derived from the legs at encode time — first
/// occurrence assigns the index — so it is deterministic for a given
/// leg order.
fn encode_switches(switches: &[SwitchState]) -> Vec<u8> {
    use std::collections::BTreeMap;
    let mut enc = Enc::new();
    enc.u32(switches.len() as u32);
    for shard in switches {
        enc.u32(shard.node.index() as u32);
        encode_config(&mut enc, &shard.config);
        enc.u64(shard.epoch);
        let mut table: Vec<(rtcac_bitstream::TrafficContract, rtcac_bitstream::Time)> = Vec::new();
        let mut lookup = BTreeMap::new();
        let refs: Vec<u32> = shard
            .legs
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
            encode_contract(&mut enc, contract);
            enc.time(cdv);
        }
        enc.u32(shard.legs.len() as u32);
        for ((id, request), entry) in shard.legs.iter().zip(refs) {
            enc.u64(id.raw())
                .u32(entry)
                .u32(request.in_link().index() as u32)
                .u32(request.out_link().index() as u32)
                .u8(request.priority().level());
        }
    }
    enc.finish()
}

/// The version-1 switches codec: the full `(contract, CDV)` pair
/// repeated on every leg. Kept for [`encode_with_version`] and its
/// cross-version tests.
fn encode_switches_v1(switches: &[SwitchState]) -> Vec<u8> {
    let mut enc = Enc::new();
    enc.u32(switches.len() as u32);
    for shard in switches {
        enc.u32(shard.node.index() as u32);
        encode_config(&mut enc, &shard.config);
        enc.u64(shard.epoch);
        enc.u32(shard.legs.len() as u32);
        for (id, request) in &shard.legs {
            enc.u64(id.raw());
            encode_contract(&mut enc, request.contract());
            enc.time(request.cdv())
                .u32(request.in_link().index() as u32)
                .u32(request.out_link().index() as u32)
                .u8(request.priority().level());
        }
    }
    enc.finish()
}

fn encode_contract(enc: &mut Enc, contract: rtcac_bitstream::TrafficContract) {
    use rtcac_bitstream::TrafficContract;
    match contract {
        TrafficContract::Cbr(p) => {
            enc.u8(0).rate(p.pcr());
        }
        TrafficContract::Vbr(p) => {
            enc.u8(1).rate(p.pcr()).rate(p.scr()).u64(p.mbs());
        }
    }
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
    let mut enc = Enc::new();
    enc.u32_list(health.down_links.iter().map(|l| l.index() as u32))
        .u32_list(health.down_nodes.iter().map(|n| n.index() as u32))
        .u64(health.epoch);
    enc.finish()
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
    if bytes.len() as u64 > MAX_SNAPSHOT {
        return Err(SnapError::Oversized {
            len: bytes.len() as u64,
            max: MAX_SNAPSHOT,
        });
    }
    if bytes.len() < 4 || bytes[..4] != MAGIC {
        return Err(SnapError::BadMagic);
    }
    if bytes.len() < 4 + 2 + 1 + 8 {
        return Err(SnapError::Truncated {
            needed: 4 + 2 + 1 + 8,
            remaining: bytes.len(),
        });
    }
    let mut head = Dec::new(&bytes[4..7]);
    let version = head.u16()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapError::UnsupportedVersion {
            got: version,
            supported: VERSION,
        });
    }
    let body_end = bytes.len() - 8;
    let stored_sum = u64::from_be_bytes(bytes[body_end..].try_into().unwrap());
    if fnv64(&bytes[..body_end]) != stored_sum {
        return Err(SnapError::ChecksumMismatch { over: "file" });
    }
    let count = head.u8()? as usize;
    if count != SECTION_IDS.len() {
        return Err(SnapError::BadSection("snapshot has exactly six sections"));
    }
    let dir_end = 7 + count * 25;
    if dir_end > body_end {
        return Err(SnapError::Truncated {
            needed: dir_end + 8,
            remaining: bytes.len(),
        });
    }
    let mut dec = Dec::new(&bytes[7..dir_end]);
    let mut sections = Vec::with_capacity(count);
    let mut expected_offset = dir_end as u64;
    for &(expected_id, name) in &SECTION_IDS {
        let id = dec.u8()?;
        let offset = dec.u64()?;
        let len = dec.u64()?;
        let checksum = dec.u64()?;
        if id != expected_id {
            return Err(SnapError::BadSection("unknown or out-of-order section id"));
        }
        if offset != expected_offset {
            return Err(SnapError::BadSection("sections must be contiguous"));
        }
        let end = offset
            .checked_add(len)
            .ok_or(SnapError::BadSection("section extent overflows the file"))?;
        if end > body_end as u64 {
            return Err(SnapError::BadSection("section extends past the payload"));
        }
        let payload = &bytes[offset as usize..end as usize];
        if fnv64(payload) != checksum {
            return Err(SnapError::ChecksumMismatch { over: name });
        }
        expected_offset = end;
        sections.push(SectionInfo {
            id,
            name,
            offset,
            len,
            checksum,
        });
    }
    if expected_offset != body_end as u64 {
        return Err(SnapError::BadSection("payload bytes outside any section"));
    }
    Ok((version, sections))
}

/// Decodes a full snapshot: header and checksum verification via
/// [`parse_header`], then every section payload (each consumed
/// exactly) with the switches codec picked by the file's version.
pub fn decode(bytes: &[u8]) -> Result<SnapshotDoc, SnapError> {
    let (version, sections) = parse_header(bytes)?;
    let payload = |idx: usize| {
        &bytes[sections[idx].offset as usize..(sections[idx].offset + sections[idx].len) as usize]
    };
    let (meta, policy, reroute_budget, next_id, draining) = decode_meta(payload(0))?;
    let topology = decode_topology(payload(1))?;
    let switches = match version {
        1 => decode_switches_v1(payload(2))?,
        _ => decode_switches(payload(2))?,
    };
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
    let node_count = dec.u32()?;
    let node_count = dec.check_count(node_count, 5)?;
    let mut nodes = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let is_switch = dec.flag()?;
        let name = dec.string()?;
        nodes.push((is_switch, name));
    }
    let link_count = dec.u32()?;
    let link_count = dec.check_count(link_count, 4 + 4 + 32)?;
    let mut links = Vec::with_capacity(link_count);
    for _ in 0..link_count {
        let from = dec.u32()?;
        let to = dec.u32()?;
        let capacity = dec.ratio()?;
        links.push((from, to, capacity));
    }
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

fn decode_contract(dec: &mut Dec<'_>) -> Result<rtcac_bitstream::TrafficContract, SnapError> {
    use rtcac_bitstream::{CbrParams, TrafficContract, VbrParams};
    match dec.u8()? {
        0 => {
            let pcr = dec.rate()?;
            CbrParams::new(pcr)
                .map(TrafficContract::Cbr)
                .map_err(|_| SnapError::BadPayload("invalid CBR parameters"))
        }
        1 => {
            let pcr = dec.rate()?;
            let scr = dec.rate()?;
            let mbs = dec.u64()?;
            VbrParams::new(pcr, scr, mbs)
                .map(TrafficContract::Vbr)
                .map_err(|_| SnapError::BadPayload("invalid VBR parameters"))
        }
        _ => Err(SnapError::BadPayload("unknown contract tag")),
    }
}

/// The version-2 switches decoder: dedup table first, then legs
/// referencing table indices.
fn decode_switches(bytes: &[u8]) -> Result<Vec<SwitchState>, SnapError> {
    let mut dec = Dec::new(bytes);
    let count = dec.u32()?;
    let count = dec.check_count(count, 4 + 1 + 1 + 8 + 4 + 4)?;
    let mut switches = Vec::with_capacity(count);
    for _ in 0..count {
        let node = NodeId::external(dec.u32()?);
        let config = decode_config(&mut dec)?;
        let epoch = dec.u64()?;
        let table_count = dec.u32()?;
        let table_count = dec.check_count(table_count, 1 + 32 + 32)?;
        let mut table = Vec::with_capacity(table_count);
        for _ in 0..table_count {
            let contract = decode_contract(&mut dec)?;
            let cdv = dec.time()?;
            table.push((contract, cdv));
        }
        let leg_count = dec.u32()?;
        let leg_count = dec.check_count(leg_count, 8 + 4 + 4 + 4 + 1)?;
        let mut legs = Vec::with_capacity(leg_count);
        for _ in 0..leg_count {
            let id = ConnectionId::new(dec.u64()?);
            let entry = dec.u32()? as usize;
            let &(contract, cdv) = table
                .get(entry)
                .ok_or(SnapError::BadPayload("leg references a missing contract"))?;
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

/// The version-1 switches decoder: full contract on every leg.
fn decode_switches_v1(bytes: &[u8]) -> Result<Vec<SwitchState>, SnapError> {
    let mut dec = Dec::new(bytes);
    let count = dec.u32()?;
    let count = dec.check_count(count, 4 + 1 + 1 + 8 + 4)?;
    let mut switches = Vec::with_capacity(count);
    for _ in 0..count {
        let node = NodeId::external(dec.u32()?);
        let config = decode_config(&mut dec)?;
        let epoch = dec.u64()?;
        let leg_count = dec.u32()?;
        let leg_count = dec.check_count(leg_count, 8 + 1 + 32 + 32 + 4 + 4 + 1)?;
        let mut legs = Vec::with_capacity(leg_count);
        for _ in 0..leg_count {
            let id = ConnectionId::new(dec.u64()?);
            let contract = decode_contract(&mut dec)?;
            let cdv = dec.time()?;
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
    let count = dec.u32()?;
    let count = dec.check_count(count, 8 + 1 + 4 + 4 + 1 + 32 + 32 + 4)?;
    let mut connections = Vec::with_capacity(count);
    for _ in 0..count {
        let id = ConnectionId::new(dec.u64()?);
        let multicast = dec.flag()?;
        let links = dec.u32_list()?.into_iter().map(LinkId::external).collect();
        let point_count = dec.u32()?;
        let point_count = dec.check_count(point_count, 8)?;
        let mut points = Vec::with_capacity(point_count);
        for _ in 0..point_count {
            let node = NodeId::external(dec.u32()?);
            let link = LinkId::external(dec.u32()?);
            points.push((node, link));
        }
        let priority = Priority::new(dec.u8()?);
        let delay_bound = dec.time()?;
        let guaranteed_delay = dec.time()?;
        let leaf_count = dec.u32()?;
        let leaf_count = dec.check_count(leaf_count, 4 + 32)?;
        let mut per_leaf = Vec::with_capacity(leaf_count);
        for _ in 0..leaf_count {
            let leaf = NodeId::external(dec.u32()?);
            let delay = dec.time()?;
            per_leaf.push((leaf, delay));
        }
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
