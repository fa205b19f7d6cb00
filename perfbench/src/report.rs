//! Metric names, the result a workload returns, and how it is printed.
//!
//! Every workload reports every end-to-end metric; each workload's doc
//! comment says what its "op" is. The last stdout line is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`).

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, measured with tracing off. These
/// are the gated ones: each repeats within its bound on a 2-core VM.
pub const END_TO_END: [(&str, &str); 7] = [
    ("latency_p50_us", "us"),
    ("fail_ratio", "ratio"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("wire_bytes_per_op", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// End-to-end metrics printed with the others but not gated: the p99
/// of a few thousand samples on a 2-core VM is set by how many hypervisor
/// steal stalls (5–15 ms each) land in the run, so its run-to-run spread
/// (IQR/median near 1) is wider than any bound a gate may use.
pub const REPORTED: [(&str, &str); 1] = [("latency_p99_us", "us")];

/// Per-layer metrics `(name, unit, end-to-end metric it should move)`,
/// measured in the traced run.
pub const PER_LAYER: [(&str, &str, &str); 32] = [
    (
        "relayd.relay.runq_wait_us_per_op",
        "us",
        "latency_p99_us (live)",
    ),
    (
        "relayd.relay.datagrams_per_op",
        "count",
        "cpu_us_per_op, latency_p50_us (live-fetch)",
    ),
    (
        "relayd.auth.cpu_us_per_op",
        "us",
        "latency_p50_us (live-push)",
    ),
    (
        "relayd.gen.host_self_us_per_op",
        "us",
        "latency_p50_us (live-fetch)",
    ),
    (
        "relayd.gen.lock_wait_us_p99",
        "us",
        "latency_p99_us (live-fetch)",
    ),
    ("relayd.gen.lateness_us_p99", "us", "none: generator health"),
    ("relayd.gen.cpu_share", "ratio", "none: generator health"),
    (
        "host.steal_share",
        "ratio",
        "none: high means the tail measures the host",
    ),
    (
        "core.stub.self_us_per_op",
        "us",
        "latency_p50_us (live-fetch)",
    ),
    ("core.stub.self_s", "s", "sim.join_per_s"),
    ("core.stub.calls", "count", "sim.join_per_s"),
    (
        "core.relay_edge.self_s",
        "s",
        "sim.push_per_s, sim.join_per_s",
    ),
    (
        "core.relay_edge.calls",
        "count",
        "sim.push_per_s, sim.join_per_s",
    ),
    (
        "core.relay_mid.self_s",
        "s",
        "sim.push_per_s, sim.join_per_s",
    ),
    (
        "core.relay_mid.calls",
        "count",
        "sim.push_per_s, sim.join_per_s",
    ),
    ("core.auth.self_s", "s", "sim.push_per_s, sim.join_per_s"),
    ("core.auth.calls", "count", "sim.push_per_s, sim.join_per_s"),
    ("netsim.events", "count", "ops_per_s (sim-metro)"),
    ("netsim.sched.self_s", "s", "ops_per_s (sim-metro)"),
    (
        "netsim.link.bytes_per_update.auth_mid",
        "B",
        "wire_bytes_per_op (sim-metro)",
    ),
    (
        "netsim.link.bytes_per_update.mid_edge",
        "B",
        "wire_bytes_per_op (sim-metro)",
    ),
    (
        "netsim.link.bytes_per_update.edge_stub",
        "B",
        "wire_bytes_per_op (sim-metro)",
    ),
    (
        "moqt.relay.objects_forwarded",
        "count",
        "wire_bytes_per_op, sim.push_per_s",
    ),
    ("moqt.relay.upstream_fetches", "count", "sim.join_per_s"),
    (
        "moqt.relay.fetch_coalesced_ratio",
        "ratio",
        "sim.join_per_s",
    ),
    (
        "moqt.relay.fetch_cache_hit_ratio",
        "ratio",
        "sim.join_per_s",
    ),
    ("moqt.session.drops", "count", "fail_ratio; must be 0"),
    ("core.relay.state_bytes_per_sub", "B", "peak_rss_mb"),
    ("sim.join_per_s", "1/s", "end to end (sim-metro join phase)"),
    ("sim.push_per_s", "1/s", "end to end (sim-metro push phase)"),
    (
        "bench.with_node.self_s",
        "s",
        "none: the benchmark's own calls",
    ),
    (
        "bench.observer.self_s",
        "s",
        "none: the benchmark's own bookkeeping",
    ),
];

/// One measured end-to-end value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`END_TO_END`].
    pub name: &'static str,
    /// Value in the metric's unit.
    pub value: f64,
    /// Samples behind the value (ops for a ratio or rate).
    pub samples: u64,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// Short name.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// Everything one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed (refused, unanswered by the deadline, never delivered).
    pub failed: u64,
    /// End-to-end metrics, in [`END_TO_END`] order.
    pub end_to_end: Vec<Metric>,
    /// Per-layer values by name; `Err` holds why a value cannot be
    /// measured on this workload.
    pub per_layer: Vec<(&'static str, Result<f64, &'static str>)>,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Extra report lines (layout, reconciliation).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(&REPORTED).any(|(n, _)| *n == name),
            "unknown end-to-end metric {name}"
        );
        self.end_to_end.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Records a per-layer value (or why there is none), replacing any
    /// earlier one.
    pub fn layer(&mut self, name: &'static str, value: Result<f64, &'static str>) {
        assert!(
            PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.per_layer.retain(|(n, _)| *n != name);
        self.per_layer.push((name, value));
    }

    /// Records an output check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.checks.push(Check { name, ok, detail });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The value of an end-to-end metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The value of a per-layer metric.
    pub fn get_layer(&self, name: &str) -> Option<f64> {
        self.per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.ok())
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&REPORTED)
        .map(|(n, u)| (*n, *u))
        .chain(PER_LAYER.iter().map(|(n, u, _)| (*n, *u)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .expect("registered metric")
}

/// Human-readable end-to-end table plus checks.
pub fn print_end_to_end(workload: &str, o: &Outcome) {
    println!("== {workload}: end to end (tracing off)");
    for m in &o.end_to_end {
        let gated = END_TO_END.iter().any(|(n, _)| *n == m.name);
        println!(
            "  {:<20} {:>16.4} {:<6} n={}{}",
            m.name,
            m.value,
            unit_of(m.name),
            m.samples,
            if gated { "" } else { "  (reported, not gated)" }
        );
    }
    println!(
        "  attempted={} failed={} fail_ratio={:.4}",
        o.attempted,
        o.failed,
        o.failed as f64 / o.attempted.max(1) as f64
    );
    for c in &o.checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {mark} {:<28} {}", c.name, c.detail);
    }
    for n in &o.notes {
        println!("  {n}");
    }
}

/// Human-readable per-layer table.
pub fn print_per_layer(workload: &str, o: &Outcome) {
    println!("== {workload}: per layer (traced run)");
    for (name, unit, moves) in PER_LAYER {
        let v = o
            .per_layer
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(Err("not reported"));
        match v {
            Ok(v) => println!("  {name:<40} {v:>16.4} {unit:<6} moves {moves}"),
            Err(why) => println!("  {name:<40} {:>16} {unit:<6} n/a: {why}", "-"),
        }
    }
}

/// Tracing overhead per end-to-end metric: traced vs untraced pass.
pub fn print_overhead(base: &Outcome, traced: &Outcome) {
    println!("== tracing overhead (traced vs untraced pass)");
    for &(name, unit) in END_TO_END.iter().chain(&REPORTED) {
        if let (Some(b), Some(t)) = (base.get(name), traced.get(name)) {
            let pct = if b != 0.0 { (t - b) / b * 100.0 } else { 0.0 };
            println!("  {name:<20} untraced {b:>14.4} traced {t:>14.4} {unit:<6} {pct:+.1}%");
        }
    }
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric values must be finite, got {v}");
    format!("{v}")
}

/// The final JSON line: end-to-end metrics (trace off) or per-layer
/// metrics (trace on). A per-layer value that cannot be measured on this
/// workload is written as 0; the table above says why.
pub fn json_line(correct: bool, o: &Outcome, per_layer: bool) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    let mut first = true;
    let mut push = |name: &str, value: f64| {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(value),
            unit_of(name)
        );
    };
    if per_layer {
        for (name, _, _) in PER_LAYER {
            let v = o.get_layer(name).unwrap_or(0.0);
            push(name, v);
        }
    } else {
        for (name, _) in END_TO_END {
            push(name, o.get(name).expect("every end-to-end metric measured"));
        }
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_metric() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.metric(name, 1.5 + i as f64, 10);
        }
        o.metric("latency_p99_us", 99.0, 10);
        o.layer("netsim.events", Ok(42.0));
        o.layer("moqt.session.drops", Err("not exposed"));
        let e2e = json_line(true, &o, false);
        assert!(e2e.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1"));
        assert!(e2e.contains("\"setup_s\": {\"value\": 7.5, \"unit\": \"s\"}"));
        assert!(!e2e.contains("latency_p99_us"));
        assert_eq!(e2e.matches("\"unit\"").count(), END_TO_END.len());
        let layers = json_line(false, &o, true);
        assert!(layers.contains("\"netsim.events\": {\"value\": 42, \"unit\": \"count\"}"));
        assert!(layers.contains("\"moqt.session.drops\": {\"value\": 0,"));
        assert_eq!(layers.matches("\"unit\"").count(), PER_LAYER.len());
    }
}
