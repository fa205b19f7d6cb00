//! E10 — §3 + §5.3: the paper's relay distribution trees, *simulated*.
//!
//! §5.3's DDNS/CDN arithmetic assumes "5 MoQ relays on average" per
//! distribution path and relays that aggregate subscriptions so an update
//! crosses each link once. The closed-form numbers live in
//! `moqdns_workload::scenarios`; this binary instantiates the scaled-down
//! tree worlds (auth → tier-1 relays → edge relays → stubs) in `netsim`
//! and *measures* what the arithmetic assumes:
//!
//! 1. every stub receives every update (complete delivery),
//! 2. each auth→tier1 and tier1→edge link carries ONE copy of each
//!    update (the §3 aggregation invariant — intermediate hops must not
//!    multiply delivered copies),
//! 3. the joining-fetch stampede at build time coalesces to one upstream
//!    fetch per relay per track (the pending-fetch table at work),
//! 4. killing a tier-1 relay mid-run re-routes its edge relays to the
//!    surviving tier-1 (failover policy) without losing later updates.
//!
//! Run with `--smoke` for the tiny CI variant and `--check` to emit the
//! machine-readable invariant summary (`results/ci_tree.json`) and exit
//! nonzero on any violation.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_netsim::NodeFault;
use moqdns_stats::Table;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E10 / §3+§5.3 — simulated relay distribution trees");
    let mut gate = InvariantGate::new("tree", &opts);

    let shrink = |s: RelayTreeSpec| if opts.smoke { s.smoke() } else { s };
    for spec in [RelayTreeSpec::ddns_tree(), RelayTreeSpec::cdn_tree()] {
        run_tree(&shrink(spec), &mut gate);
    }
    failover_drill(shrink(RelayTreeSpec::ddns_tree()), &mut gate);
    gate.finish();
}

fn run_tree(spec: &RelayTreeSpec, gate: &mut InvariantGate) {
    let mut w = RelayWorld::build(spec, 71, 0);
    let name = spec.name;

    // Settled: every stub's joining fetch was answered through the tree,
    // and the stampede coalesced to one upstream fetch per relay per
    // track (instead of one per stub).
    gate.check_ge(
        &format!("{name}_joining_fetches_answered"),
        w.stubs.len() as u64,
        w.fetched_total(),
    );
    for (t, ids) in spec.relays.iter().zip(&w.relays) {
        let label = &t.name;
        let fetches = w.relay_sum(ids, |r| r.stats().upstream_fetches);
        gate.check_le(
            &format!("{name}_{label}_stampede_fetch_bound"),
            ids.len() as u64 * spec.tracks as u64,
            fetches,
        );
        gate.metric(&format!("{name}_{label}_upstream_fetches"), fetches);
    }

    // Measured window: only update traffic from here on.
    w.sim.stats_mut().reset();
    let baseline = w.delivered_updates();

    for round in 0..spec.updates_per_track {
        w.update_round((round as usize * spec.tracks) as u8 + 1);
    }
    w.sim.run_for(Duration::from_secs(5));

    // (1) Complete delivery.
    let delivered = w.delivered_updates() - baseline;
    gate.check_eq(
        &format!("{name}_complete_delivery"),
        spec.expected_deliveries(),
        delivered,
    );
    gate.metric(&format!("{name}_deliveries"), delivered);

    // (2) One copy per upstream link: each relay-to-relay link carried the
    // same number of update datagrams (no multiplication down the tree),
    // and the per-link payload is in the single-copy range.
    let links = w.upstream_links();
    let mut t_links = Table::new(
        format!(
            "{}: per-link update traffic ({} updates, {} stubs)",
            name,
            spec.total_updates(),
            spec.stub_count()
        ),
        &[
            "link",
            "delivered dgrams",
            "delivered bytes",
            "bytes/update",
        ],
    );
    let mut per_link_bytes = Vec::new();
    for &(parent, child) in &links {
        let s = w.sim.stats().between(parent, child);
        per_link_bytes.push(s.delivered_bytes);
        t_links.push(&[
            format!("{} -> {}", w.sim.node_name(parent), w.sim.node_name(child)),
            s.delivered.to_string(),
            s.delivered_bytes.to_string(),
            format!(
                "{:.0}",
                s.delivered_bytes as f64 / spec.total_updates() as f64
            ),
        ]);
    }
    report::emit(&t_links, &format!("exp_tree_{name}_links"));
    let min = *per_link_bytes.iter().min().unwrap();
    let max = *per_link_bytes.iter().max().unwrap();
    gate.check_true(
        &format!("{name}_one_copy_per_link"),
        max < 2 * min,
        format!("per-link bytes min={min} max={max}"),
    );

    // The §3 invariant at the object level: relays opened exactly one
    // upstream subscription per track, and forwarded exactly one copy per
    // downstream subscriber.
    for &id in w.cores() {
        let r = w.relay(id);
        gate.check_eq(
            &format!("{name}_tier1_upstream_subs"),
            spec.tracks as u64,
            r.upstream_subscription_count() as u64,
        );
    }
    let mut edge_forwarded = 0;
    for &id in w.edges() {
        let r = w.relay(id);
        gate.check_eq(
            &format!("{name}_edge_upstream_subs"),
            spec.tracks as u64,
            r.upstream_subscription_count() as u64,
        );
        gate.check_eq(
            &format!("{name}_edge_forwards"),
            spec.edge_forwards(),
            r.stats().objects_forwarded,
        );
        edge_forwarded += r.stats().objects_forwarded;
    }
    gate.metric(&format!("{name}_edge_objects_forwarded"), edge_forwarded);

    // (3) Per-tier stats table (cache hits, aggregated subs, forwards).
    let mut t_tiers = Table::new(
        format!("{}: per-tier relay stats", name),
        &[
            "tier",
            "relays",
            "policy",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "cache hit",
            "cache miss",
            "coalesced",
            "up fetches",
            "reroutes",
            "agg factor",
        ],
    );
    for (tier, ids) in w.tier_stats().into_iter().zip(&w.relays) {
        let policy = w.relay(ids[0]).policy_name();
        t_tiers.push(&[
            tier.tier.clone(),
            tier.relays.to_string(),
            policy.to_string(),
            tier.totals.downstream_subscribes.to_string(),
            tier.upstream_subscriptions.to_string(),
            tier.totals.objects_forwarded.to_string(),
            tier.totals.fetch_cache_hits.to_string(),
            tier.totals.fetch_cache_misses.to_string(),
            tier.totals.fetch_coalesced.to_string(),
            tier.totals.upstream_fetches.to_string(),
            tier.totals.reroutes.to_string(),
            format!("{:.1}", tier.aggregation_factor()),
        ]);
    }
    report::emit(&t_tiers, &format!("exp_tree_{name}_tiers"));

    println!(
        "{}: {} updates crossed every upstream link once; origin egress is {}x \
         below per-stub unicast (the §5.3 aggregation saving).\n",
        name,
        spec.total_updates(),
        spec.origin_saving()
    );
}

fn failover_drill(spec: RelayTreeSpec, gate: &mut InvariantGate) {
    report::heading("Failover: killing tier1[0] mid-run");
    let mut w = RelayWorld::build(&spec, 72, 0);

    // Phase 1: one update round with both tier-1 relays alive.
    for track in 0..spec.tracks {
        w.update_track(track, 211);
    }
    w.sim.run_for(Duration::from_secs(5));
    let after_phase1 = w.delivered_updates();

    // Kill the first tier-1 relay; its edge children must fail over.
    w.fault(w.cores()[0], NodeFault::Crash);
    w.sim.run_for(Duration::from_secs(5));

    // Phase 2: another round, now on the degraded tree.
    for track in 0..spec.tracks {
        w.update_track(track, 212);
    }
    w.sim.run_for(Duration::from_secs(10));

    let phase2 = w.delivered_updates() - after_phase1;
    let expected = spec.tracks as u64 * w.stubs.len() as u64;
    gate.check_eq("failover_zero_post_kill_loss", expected, phase2);

    let reroutes = w.relay_sum(w.edges(), |r| r.stats().reroutes);
    // Half the edge relays had tier1[0] as primary; each re-routed every
    // track.
    let expected_reroutes = (w.edges().len() as u64 / 2) * spec.tracks as u64;
    gate.check_eq("failover_edge_reroutes", expected_reroutes, reroutes);
    gate.metric("failover_post_kill_deliveries", phase2);
    gate.metric("failover_reroutes", reroutes);

    let mut t = Table::new(
        "Failover drill (1 tier-1 relay killed mid-run)",
        &["metric", "value"],
    );
    t.push(&[
        "updates delivered post-kill".to_string(),
        format!("{phase2} (expected {expected})"),
    ]);
    t.push(&["edge reroutes".to_string(), reroutes.to_string()]);
    t.push(&[
        "surviving tier1 upstream subs".to_string(),
        w.relay(w.cores()[1])
            .upstream_subscription_count()
            .to_string(),
    ]);
    report::emit(&t, "exp_tree_failover");
    println!("Stubs converged on the surviving path; no update was lost after the kill.\n");
}
