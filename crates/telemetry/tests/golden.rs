//! Golden-file tests: the exporters' output is a public contract — trace
//! viewers and scripts parse it — so a hand-built log must render
//! byte-for-byte identically, forever. Quantile values reflect the
//! log-bucketed histogram's bucket midpoints, not exact inputs.

use mts_sim::{Dur, Time};
use mts_telemetry::trace::{chrome_trace, jsonl, track, ArgValue};
use mts_telemetry::Label::{Num, Str};
use mts_telemetry::{Hop, MetricsRegistry, NicEndpoint, TraceEvent, TraceLog};

/// The first event is derived from a recorded hop, as a run's are; the
/// second is built by hand, with a placement and an argument list no hop
/// produces, so the format is pinned apart from the hop vocabulary.
fn sample_trace() -> Vec<TraceEvent> {
    let mut log = TraceLog::new();
    log.record(
        7,
        Time::from_nanos(20_101),
        Hop::NicSwitch {
            pf: 0,
            from: NicEndpoint::Wire,
            to: NicEndpoint::VswitchVf { vswitch: 1 },
            hairpin: false,
        },
        None,
    );
    let by_hand = TraceEvent {
        at: Time::from_nanos(21_000),
        name: "vswitch.forward",
        cat: "vswitch",
        pid: track::VSWITCH_BASE + 1,
        tid: 3,
        dur: Some(Dur::nanos(1_250)),
        args: [
            Some(("frame", ArgValue::U64(7))),
            Some(("cache_hit", ArgValue::U64(1))),
            None,
            None,
        ],
    };
    log.iter().chain([by_hand]).collect()
}

fn sample_metrics() -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    m.counter_add("mts_drops_total", &[("cause", Str("vf-unclaimed"))], 3);
    m.counter_add("mts_tenant_rx_total", &[("tenant", Num(0))], 100);
    m.counter_add("mts_tenant_rx_total", &[("tenant", Num(1))], 96);
    m.gauge_max(
        "mts_vswitch_ring_hwm",
        &[("vswitch", Num(0)), ("port", Num(2))],
        5.0,
    );
    for v in [1000, 2000, 3000, 4000] {
        m.observe("mts_e2e_latency_ns", &[], v);
    }
    m
}

#[test]
fn chrome_trace_golden() {
    let expected = concat!(
        "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n",
        "{\"name\":\"nic.switch\",\"cat\":\"nic\",\"ph\":\"i\",\"s\":\"t\",",
        "\"ts\":20.101,\"pid\":2,\"tid\":0,\"args\":{\"frame\":7,",
        "\"from\":\"wire\",\"to\":\"vswitch-vf:1\",\"hairpin\":0}},\n",
        "{\"name\":\"vswitch.forward\",\"cat\":\"vswitch\",\"ph\":\"X\",",
        "\"ts\":21,\"dur\":1.250,\"pid\":101,\"tid\":3,",
        "\"args\":{\"frame\":7,\"cache_hit\":1}}\n",
        "]}\n",
    );
    assert_eq!(chrome_trace(sample_trace().into_iter()), expected);
}

#[test]
fn jsonl_golden() {
    let expected = concat!(
        "{\"t_ns\":20101,\"name\":\"nic.switch\",\"cat\":\"nic\",\"pid\":2,",
        "\"tid\":0,\"args\":{\"frame\":7,\"from\":\"wire\",",
        "\"to\":\"vswitch-vf:1\",\"hairpin\":0}}\n",
        "{\"t_ns\":21000,\"name\":\"vswitch.forward\",\"cat\":\"vswitch\",",
        "\"pid\":101,\"tid\":3,\"dur_ns\":1250,",
        "\"args\":{\"frame\":7,\"cache_hit\":1}}\n",
    );
    assert_eq!(jsonl(sample_trace().into_iter()), expected);
}

#[test]
fn prometheus_golden() {
    let expected = "\
# TYPE mts_drops_total counter
mts_drops_total{cause=\"vf-unclaimed\"} 3
# TYPE mts_tenant_rx_total counter
mts_tenant_rx_total{tenant=\"0\"} 100
mts_tenant_rx_total{tenant=\"1\"} 96
# TYPE mts_vswitch_ring_hwm gauge
mts_vswitch_ring_hwm{port=\"2\",vswitch=\"0\"} 5
# TYPE mts_e2e_latency_ns histogram
mts_e2e_latency_ns_bucket{le=\"100\"} 0
mts_e2e_latency_ns_bucket{le=\"1000\"} 1
mts_e2e_latency_ns_bucket{le=\"10000\"} 4
mts_e2e_latency_ns_bucket{le=\"100000\"} 4
mts_e2e_latency_ns_bucket{le=\"1000000\"} 4
mts_e2e_latency_ns_bucket{le=\"10000000\"} 4
mts_e2e_latency_ns_bucket{le=\"100000000\"} 4
mts_e2e_latency_ns_bucket{le=\"1000000000\"} 4
mts_e2e_latency_ns_bucket{le=\"+Inf\"} 4
mts_e2e_latency_ns{quantile=\"0.5\"} 1984
mts_e2e_latency_ns{quantile=\"0.9\"} 3968
mts_e2e_latency_ns{quantile=\"0.99\"} 3968
mts_e2e_latency_ns{quantile=\"0.999\"} 3968
mts_e2e_latency_ns_sum 10000
mts_e2e_latency_ns_count 4
";
    assert_eq!(sample_metrics().render_prometheus(), expected);
}

#[test]
fn metrics_jsonl_golden() {
    let expected = concat!(
        "{\"kind\":\"counter\",\"name\":\"mts_drops_total\",",
        "\"labels\":{\"cause\":\"vf-unclaimed\"},\"value\":3}\n",
        "{\"kind\":\"counter\",\"name\":\"mts_tenant_rx_total\",",
        "\"labels\":{\"tenant\":\"0\"},\"value\":100}\n",
        "{\"kind\":\"counter\",\"name\":\"mts_tenant_rx_total\",",
        "\"labels\":{\"tenant\":\"1\"},\"value\":96}\n",
        "{\"kind\":\"gauge\",\"name\":\"mts_vswitch_ring_hwm\",",
        "\"labels\":{\"port\":\"2\",\"vswitch\":\"0\"},\"value\":5}\n",
        "{\"kind\":\"histogram\",\"name\":\"mts_e2e_latency_ns\",\"labels\":{},",
        "\"count\":4,\"min\":1000,\"p50\":1984,\"p90\":3968,\"p99\":3968,",
        "\"p999\":3968,\"max\":4000}\n",
    );
    assert_eq!(sample_metrics().render_jsonl(), expected);
}

#[test]
fn renders_are_idempotent() {
    let events = sample_trace();
    assert_eq!(
        chrome_trace(events.iter().copied()),
        chrome_trace(events.iter().copied())
    );
    let m = sample_metrics();
    assert_eq!(m.render_prometheus(), m.render_prometheus());
}
