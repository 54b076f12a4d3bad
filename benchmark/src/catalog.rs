//! The metric catalogue: every name this benchmark prints, with its
//! unit, direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` at the repository root repeats the same names; a
//! test keeps the two in step.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the admission service would see. Reported as the
/// median over a run's rounds.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "paced_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "admit_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "admit_p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "resident_bytes_per_conn",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.02,
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A metric of one layer, from the traced run. No bound: layer metrics
/// explain an end-to-end change, they do not gate one.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 59] = [
    lower("rational.add_ns", "ns"),
    lower("rational.mul_ns", "ns"),
    lower("rational.cmp_ns", "ns"),
    lower("rational.den_bits_max", "count"),
    lower("bitstream.worst_case_ns", "ns"),
    lower("bitstream.delay_ns", "ns"),
    lower("bitstream.mux_ns", "ns"),
    lower("bitstream.demux_ns", "ns"),
    lower("bitstream.filter_ns", "ns"),
    lower("bitstream.delay_bound_ns", "ns"),
    lower("bitstream.agg_segments_p50", "count"),
    lower("cac.check_ns_p50", "ns"),
    lower("cac.admit_ns_p50", "ns"),
    lower("cac.release_ns_p50", "ns"),
    lower("cac.price_ns_p50", "ns"),
    lower("cac.hops_per_setup", "count"),
    lower("cac.legs_per_port_p50", "count"),
    higher("cac.sof_hit_ratio", "ratio"),
    lower("net.route_new_ns", "ns"),
    lower("net.route_plan_ns", "ns"),
    lower("signaling.setup_ns_p50", "ns"),
    lower("signaling.teardown_ns_p50", "ns"),
    lower("engine.admit_ns_p50", "ns"),
    lower("engine.admit_ns_p99", "ns"),
    lower("engine.release_ns_p50", "ns"),
    lower("engine.reserve_ns_p50", "ns"),
    lower("engine.commit_ns_p50", "ns"),
    lower("engine.lock_wait_ns_p99", "ns"),
    lower("engine.lock_hold_ns_p99", "ns"),
    lower("engine.rollback_ns_p50", "ns"),
    lower("engine.pool_admit_ns_p50", "ns"),
    lower("engine.pool_self_ns", "ns"),
    lower("engine.self_ns", "ns"),
    lower("engine.reject_share", "ratio"),
    lower("engine.rollback_share", "ratio"),
    higher("engine.contended_speedup", "ratio"),
    lower("serve.req_encode_ns", "ns"),
    lower("serve.req_decode_ns", "ns"),
    lower("serve.resp_encode_ns", "ns"),
    lower("serve.resp_decode_ns", "ns"),
    lower("serve.setup_frame_bytes", "bytes"),
    lower("serve.reply_frame_bytes", "bytes"),
    lower("serve.rtt_floor_ns_p50", "ns"),
    lower("serve.wire_ns_p50", "ns"),
    lower("serve.self_ns", "ns"),
    lower("serve.sat_p50_us", "us"),
    lower("serve.paced_p99_us", "us"),
    lower("serve.gen_late_p99_us", "us"),
    lower("serve.backlog_max", "count"),
    lower("serve.cleanup_released", "count"),
    lower("snap.encode_ns", "ns"),
    lower("snap.decode_ns", "ns"),
    lower("snap.restore_ns", "ns"),
    lower("snap.bytes_per_conn", "bytes"),
    lower("obs.registry_overhead_pct", "%"),
    lower("obs.snapshot_ns", "ns"),
    lower("trace.overhead_pct", "%"),
    lower("ledger.residual_pct", "%"),
    lower("failed_share", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::SPECS;
    use crate::json::{parse, Value};

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(SPECS.iter().map(|s| (s.name, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
    }

    /// `BENCHMARK.json` sits one directory above this package. In a
    /// directory that holds only the benchmark it is still there.
    #[test]
    fn benchmark_json_repeats_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let field = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);
        let listed = |key: &str| doc.get(key).unwrap().as_arr().unwrap().to_vec();

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
            assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound));
            assert_eq!(got.as_obj().unwrap().len(), 4);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "unit").as_deref(), Some(want.unit));
            assert_eq!(field(got, "better").as_deref(), Some(want.better.as_str()));
            assert_eq!(got.as_obj().unwrap().len(), 3);
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), SPECS.len());
        for (got, want) in workloads.iter().zip(&SPECS) {
            assert_eq!(field(got, "name").as_deref(), Some(want.name));
            assert_eq!(field(got, "why").as_deref(), Some(want.why));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::run::RUN_SECONDS as f64)
        );
    }
}
