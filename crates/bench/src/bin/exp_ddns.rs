//! E6 — §5.3 DDNS: "this would yield a globally distributed application
//! layer update traffic of some 5.5 Gbps, which is negligible at global
//! scale."
//!
//! Two parts: (a) the paper's analytic estimate, reproduced from
//! [`DdnsScenario`]; (b) a scaled micro-simulation — one DDNS
//! authoritative server, one relay, S subscribers (the
//! [`RelayTreeSpec::ddns`] preset) — validating the per-update byte
//! count and the relay fan-out the analytic model assumes. (The full
//! 3-tier tree version lives in `exp_tree_scenario`.)
//!
//! Run with `--smoke` for a scaled-down CI variant and `--check` to emit
//! the machine-readable invariant summary (`results/ci_ddns.json`) and
//! exit nonzero on any violation.
//!
//! [`RelayTreeSpec::ddns`]: moqdns_workload::scenarios::RelayTreeSpec::ddns

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_stats::{format_bps, Table};
use moqdns_workload::scenarios::{DdnsScenario, RelayTreeSpec};
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    let mut gate = InvariantGate::new("ddns", &opts);
    report::heading("E6 / §5.3 — Dynamic DNS update traffic");

    // (a) The paper's arithmetic.
    let s = DdnsScenario::default();
    let mut t = Table::new(
        "Analytic estimate (paper parameters)",
        &["parameter", "value"],
    );
    t.push(&["DDNS users".to_string(), s.users.to_string()]);
    t.push(&[
        "interested users each".to_string(),
        s.interested_per_user.to_string(),
    ]);
    t.push(&["relays per path".to_string(), s.relays_per_path.to_string()]);
    t.push(&[
        "updates per day".to_string(),
        format!("{}", s.updates_per_day),
    ]);
    t.push(&["update size".to_string(), format!("{} B", s.update_size)]);
    t.push(&[
        "global update traffic".to_string(),
        format!("{} (paper: ~5.5 Gbps)", format_bps(s.global_bps())),
    ]);
    report::emit(&t, "exp_ddns_analytic");

    // (b) Micro-simulation: 1 DDNS zone behind a relay, S interested
    // subscribers, 2 updates.
    let spec = if opts.smoke {
        RelayTreeSpec::ddns().smoke()
    } else {
        RelayTreeSpec::ddns()
    };
    let subs_n = spec.stub_count();
    let mut w = RelayWorld::build(&spec, 61, 0);
    let (auth, relay) = (w.auth, w.edges()[0]);
    w.sim.stats_mut().reset();
    let t0 = w.sim.now();

    // Two updates (the per-day rate, compressed).
    for (i, octet) in [50u8, 51].into_iter().enumerate() {
        w.schedule_update(t0 + spec.update_interval * (i as u32 + 1), 0, octet);
    }
    w.sim.run_for(Duration::from_secs(40));

    let delivered = w.delivered_updates();
    let auth_egress = w.sim.stats().between(auth, relay);
    let relay_fanout: u64 = w
        .stubs
        .iter()
        .map(|s| w.sim.stats().between(relay, *s).bytes)
        .sum();
    let agg = w.relay(relay).aggregation_factor();

    let mut t2 = Table::new(
        format!("Micro-simulation: 1 DDNS record, 1 relay, {subs_n} subscribers, 2 updates"),
        &["metric", "value"],
    );
    t2.push(&[
        format!("updates delivered (expect 2 × {subs_n} = {})", 2 * subs_n),
        delivered.to_string(),
    ]);
    t2.push(&[
        format!("relay aggregation factor (expect {subs_n})"),
        format!("{agg:.0}"),
    ]);
    t2.push(&[
        "auth→relay bytes (1 upstream copy per update)".to_string(),
        auth_egress.bytes.to_string(),
    ]);
    t2.push(&[
        "relay→subscribers bytes (fan-out)".to_string(),
        relay_fanout.to_string(),
    ]);
    report::emit(&t2, "exp_ddns_sim");

    gate.check_eq("complete_delivery", 2 * subs_n as u64, delivered);
    gate.check_true(
        "relay_aggregates_to_one_upstream_sub",
        (agg - subs_n as f64).abs() < 1e-9,
        format!("aggregation factor {agg:.0}"),
    );
    // Forwarded-copy accounting for the CI baseline diff: the relay turns
    // one upstream copy per update into exactly one copy per subscriber.
    let forwarded = w.relay(relay).stats().objects_forwarded;
    gate.check_eq("relay_forwarded_copies", 2 * subs_n as u64, forwarded);
    gate.metric("deliveries", delivered);
    gate.metric("relay_objects_forwarded", forwarded);
    gate.metric("auth_to_relay_datagrams", auth_egress.delivered);
    println!(
        "The relay turns 1 upstream update into {subs_n} downstream copies — the \
         aggregation the paper's 5.5 Gbps estimate assumes."
    );
    gate.finish();
}
