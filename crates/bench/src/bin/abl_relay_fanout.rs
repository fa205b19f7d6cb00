//! A3 — ablation (§3): relay aggregation and caching.
//!
//! S subscribers of the same record, once connected directly to the
//! authoritative server and once through a MoQT relay. The relay must (a)
//! aggregate S downstream subscriptions into one upstream subscription,
//! (b) keep the authoritative server's egress constant in S, and (c)
//! serve late joiners' fetches from its object cache.
//!
//! Topologies are the [`RelayTreeSpec::relay_fanout`] preset (auth →
//! relay → subs, or auth → subs).
//!
//! Run with `--smoke` for a scaled-down CI variant (fewer subscriber
//! counts, fewer updates) and `--check` to emit the machine-readable
//! invariant summary (`results/ci_relay_fanout.json`) and exit nonzero
//! on any violation.
//!
//! [`RelayTreeSpec::relay_fanout`]: moqdns_workload::scenarios::RelayTreeSpec::relay_fanout

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::{Cohort, RelayWorld};
use moqdns_stats::Table;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn build(n_subs: usize, via_relay: bool, seed: u64, smoke: bool) -> RelayWorld {
    RelayWorld::build(&spec(n_subs, via_relay, smoke), seed, 0)
}

fn spec(n_subs: usize, via_relay: bool, smoke: bool) -> RelayTreeSpec {
    let spec = RelayTreeSpec::relay_fanout(n_subs, via_relay);
    if smoke {
        spec.smoke()
    } else {
        spec
    }
}

/// Schedules the spec's updates one update interval apart and runs 10 s
/// past the last.
fn push_updates(w: &mut RelayWorld) {
    let n = w.spec.updates_per_track;
    let (t0, gap) = (w.sim.now(), w.spec.update_interval);
    w.sim.stats_mut().reset();
    for i in 0..n {
        w.schedule_update(t0 + gap * (i as u32 + 1), 0, (i % 200) as u8 + 1);
    }
    w.sim.run_for(gap * n as u32 + Duration::from_secs(10));
}

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("A3 / §3 — relay fan-out: aggregation and caching");
    let mut gate = InvariantGate::new("relay_fanout", &opts);

    let updates = spec(1, false, opts.smoke).updates_per_track;
    let sub_counts: &[usize] = if opts.smoke { &[1, 5] } else { &[1, 5, 20] };
    let mut t = Table::new(
        format!("{updates} updates to S subscribers: authoritative egress bytes"),
        &[
            "S",
            "direct: auth egress",
            "via relay: auth egress",
            "relay egress",
            "agg factor",
        ],
    );
    for (i, s) in sub_counts.iter().enumerate() {
        // Direct.
        let mut direct = build(*s, false, 300 + i as u64, opts.smoke);
        push_updates(&mut direct);
        let direct_egress = direct.sim.stats().bytes_out_of(direct.auth);
        let delivered = direct.delivered_updates();
        gate.check_eq(
            &format!("s{s}_direct_delivery"),
            updates * *s as u64,
            delivered,
        );

        // Via relay.
        let mut relayed = build(*s, true, 400 + i as u64, opts.smoke);
        push_updates(&mut relayed);
        let relay_id = relayed.edges()[0];
        let auth_egress = relayed.sim.stats().bytes_out_of(relayed.auth);
        let relay_egress = relayed.sim.stats().bytes_out_of(relay_id);
        let delivered = relayed.delivered_updates();
        gate.check_eq(
            &format!("s{s}_relayed_delivery"),
            updates * *s as u64,
            delivered,
        );
        // The relay's whole point: S downstream subscriptions cost ONE
        // upstream subscription, so the origin pushes each update once.
        let relay = relayed.relay(relay_id);
        gate.check_eq(
            &format!("s{s}_single_upstream_subscription"),
            1,
            relay.upstream_subscription_count() as u64,
        );
        let agg = relay.aggregation_factor();
        gate.check_eq(&format!("s{s}_aggregation_factor"), *s as u64, agg as u64);
        if *s > 1 {
            // Aggregation keeps the origin cheaper than direct fan-out.
            gate.check_true(
                &format!("s{s}_origin_egress_shrinks"),
                auth_egress < direct_egress,
                format!("relayed {auth_egress} B < direct {direct_egress} B"),
            );
        }
        gate.metric(&format!("s{s}_direct_auth_egress_bytes"), direct_egress);
        gate.metric(&format!("s{s}_relayed_auth_egress_bytes"), auth_egress);
        gate.metric(&format!("s{s}_relay_egress_bytes"), relay_egress);

        t.push(&[
            s.to_string(),
            direct_egress.to_string(),
            auth_egress.to_string(),
            relay_egress.to_string(),
            format!("{agg:.0}"),
        ]);
    }
    report::emit(&t, "abl_relay_fanout");

    // Cache: a late joiner's fetch is served by the relay without touching
    // the authoritative server.
    // Three updates whatever the scale: the smoke spec.
    let mut b = build(3, true, 777, true);
    push_updates(&mut b);
    let relay_id = b.edges()[0];
    b.sim.stats_mut().reset();
    let (_, late) = b.attach(relay_id, None, &Cohort::new("late-joiner", 1, 999));
    b.sim.run_for(Duration::from_secs(5));
    let fetched = b.cohort_fetched(&late) > 0;
    let auth_touched = b.sim.stats().between(relay_id, b.auth).datagrams;
    let hits = b.relay(relay_id).stats().fetch_cache_hits;
    println!(
        "Late joiner: fetch answered = {fetched}, relay cache hits = {hits}, \
         relay→auth datagrams during join = {auth_touched} (cache absorbed the fetch)."
    );
    gate.check_true(
        "late_joiner_served_from_cache",
        fetched,
        format!("fetch answered = {fetched}"),
    );
    gate.check_ge("late_joiner_cache_hits", 1, hits);
    gate.check_eq("late_join_auth_datagrams", 0, auth_touched);
    gate.metric("late_joiner_cache_hits", hits);
    gate.finish();
}
