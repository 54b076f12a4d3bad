//! Byte-stability pin: the FNV-1a 64 and length of a fixed flight dump
//! with every section populated. A codec refactor that moves a single
//! byte fails here.

use rtcac_obs::flight::fnv64;
use rtcac_obs::{
    Event, EventsSnapshot, FlightDump, HistogramSnapshot, MetricId, SpanId, SpanRecord, TickDelta,
    TraceId,
};

fn pinned_dump() -> FlightDump {
    let mut hist = HistogramSnapshot::default();
    hist.buckets[3] = 2;
    hist.buckets[10] = 1;
    hist.count = 3;
    hist.sum = 1030;
    hist.max = 1000;
    let qos = MetricId::with_labels("engine_rejections_total", &[("reason", "qos")]);
    FlightDump {
        reason: "lock_hold".into(),
        detail: "1 over-threshold lock hold".into(),
        seq: 3,
        trigger_tick: 9,
        forced: false,
        ticks: vec![
            TickDelta {
                tick: 8,
                elapsed_ms: 1000,
                counters: vec![(MetricId::new("engine_setups_submitted_total"), 100)],
                gauges: vec![(MetricId::new("engine_resident_bytes"), 1 << 20)],
                histograms: vec![],
            },
            TickDelta {
                tick: 9,
                elapsed_ms: 1001,
                counters: vec![(qos.clone(), 3)],
                gauges: vec![],
                histograms: vec![(MetricId::new("engine_reserve_ns"), hist)],
            },
        ],
        events: EventsSnapshot {
            events: vec![Event {
                seq: 17,
                name: "setup",
                detail: "conn 1 admitted".into(),
            }],
            recorded: 18,
            dropped: 1,
            evicted: 0,
        },
        spans: vec![
            SpanRecord {
                trace: TraceId::new(9),
                span: SpanId::new(1),
                parent: None,
                name: "engine.admit",
                begin_ns: 10,
                end_ns: 90,
                attrs: vec![("outcome", "admitted".into())],
            },
            SpanRecord {
                trace: TraceId::new(9),
                span: SpanId::new(2),
                parent: Some(SpanId::new(1)),
                name: "reserve",
                begin_ns: 20,
                end_ns: 60,
                attrs: vec![],
            },
        ],
        gauges: vec![(MetricId::new("engine_orphaned_reservations"), 0), (qos, 4)],
    }
}

#[test]
fn flight_dump_bytes_are_pinned() {
    let bytes = pinned_dump().encode();
    assert_eq!(
        (bytes.len(), fnv64(&bytes)),
        (738, 6_440_765_820_902_255_063),
        "flight dump bytes moved"
    );
    assert_eq!(FlightDump::decode(&bytes).unwrap().encode(), bytes);
}
