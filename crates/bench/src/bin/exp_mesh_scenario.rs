//! E11 — §3 + §5.3: the standing multi-region hash-shard mesh.
//!
//! The paper's distribution argument needs more than a single tree: §5.3
//! assumes deep multi-relay paths and relays that aggregate *all*
//! downstream demand. This binary instantiates the mesh preset of
//! [`RelayTreeSpec`] — origin → K core relays (one hash shard each) →
//! per-region edge relays sharding tracks across all cores → stubs — and
//! machine-checks:
//!
//! 1. **stampede coalescing**: all stubs issue joining fetches for the
//!    same tracks at once, yet each edge opens exactly one upstream fetch
//!    per track and the whole core tier opens one per track system-wide
//!    (the waiter list fans the single result out to every stub);
//! 2. **one copy per link under sharding**: during update rounds each
//!    update enters every edge over exactly one core→edge link, and the
//!    origin pushes exactly one copy per update toward the home core;
//! 3. **kill + revive**: shutting a core down mid-run ring-walks its
//!    shard to surviving cores with zero loss, and reviving it makes
//!    every edge *rebalance* the shard back home — again with zero loss.
//!
//! Run with `--smoke` for the tiny CI variant and `--check` to emit the
//! machine-readable invariant summary (`results/ci_mesh.json`) and exit
//! nonzero on any violation.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_netsim::NodeFault;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E11 / §3+§5.3 — multi-region hash-shard relay mesh");
    let spec = if opts.smoke {
        RelayTreeSpec::mesh().smoke()
    } else {
        RelayTreeSpec::mesh()
    };
    let mut gate = InvariantGate::new("mesh", &opts);

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to every track with a joining fetch at t=0:
    // stubs × tracks concurrent fetches slam into cold caches.
    let mut w = RelayWorld::build(&spec, 81, 0);
    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    for (i, &e) in w.edges().iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_fetches"),
            spec.edge_fetches(i),
            w.relay(e).stats().upstream_fetches,
        );
    }
    let tiers = w.tier_stats();
    let (core_tier, edge_tier) = (&tiers[0], &tiers[1]);
    gate.check_eq(
        "core_tier_upstream_fetches",
        spec.tracks as u64,
        core_tier.totals.upstream_fetches,
    );
    gate.check_eq(
        "edge_tier_waiters_served",
        edge_tier.totals.fetch_cache_misses - edge_tier.totals.upstream_fetches,
        edge_tier.totals.fetch_coalesced,
    );
    gate.metric("stampede_edge_misses", edge_tier.totals.fetch_cache_misses);
    gate.metric("stampede_edge_coalesced", edge_tier.totals.fetch_coalesced);
    gate.metric(
        "stampede_edge_upstream_fetches",
        edge_tier.totals.upstream_fetches,
    );
    gate.metric(
        "stampede_core_upstream_fetches",
        core_tier.totals.upstream_fetches,
    );
    gate.metric("stampede_naive_edge_fetches", spec.subscription_count());
    println!(
        "Stampede: {} joining fetches entered the edge tier; coalescing opened \
         only {} edge-upstream fetches and {} origin fetches (naive: {}).\n",
        edge_tier.totals.fetch_cache_misses,
        edge_tier.totals.upstream_fetches,
        core_tier.totals.upstream_fetches,
        spec.subscription_count()
    );

    // ---- Measured update rounds: one copy per link under sharding ----
    w.sim.stats_mut().reset();
    let baseline = w.delivered_updates();
    for round in 0..spec.updates_per_track {
        w.update_round(10 + (round as u8) * 16);
    }
    w.sim.run_for(Duration::from_secs(5));
    gate.check_eq(
        "complete_delivery",
        spec.expected_deliveries(),
        w.delivered_updates() - baseline,
    );
    // Origin egress: each update leaves the origin once, toward the home
    // core of its track's shard — per core, its shard's share exactly.
    for (c, &core) in w.cores().iter().enumerate() {
        let got = w.sim.stats().between(w.auth, core).delivered;
        gate.check_eq(
            &format!("origin_to_core{c}_one_copy"),
            spec.updates_per_track * w.shard_size(c) as u64,
            got,
        );
    }
    // Edge ingress: each update enters each edge exactly once, over the
    // single core→edge link its shard selects.
    for (i, &e) in w.edges().iter().enumerate() {
        let into_edge = w
            .cores()
            .iter()
            .map(|&c| w.sim.stats().between(c, e).delivered)
            .sum();
        gate.check_eq(
            &format!("into_edge{i}_one_copy"),
            spec.total_updates(),
            into_edge,
        );
    }
    for (c, &core) in w.cores().iter().enumerate() {
        gate.check_eq(
            &format!("core{c}_upstream_subs"),
            w.shard_size(c) as u64,
            w.relay(core).upstream_subscription_count() as u64,
        );
    }
    gate.metric("update_deliveries", w.delivered_updates() - baseline);
    gate.metric("origin_egress_copies", w.delivered_into_cores());

    // ---- Kill + revive drill -----------------------------------------
    // The victim: the home core of track 0 (guaranteed non-empty shard).
    let victim = w.home_core(0);
    let victim_shard = w.shard_size(victim) as u64;
    report::heading(&format!(
        "Drill: killing core{victim} (shard of {victim_shard} tracks), then reviving it"
    ));
    let before_kill = w.delivered_updates();
    w.fault(w.cores()[victim], NodeFault::Crash);
    w.sim.run_for(Duration::from_secs(5));
    let reroutes = w.relay_sum(w.edges(), |r| r.stats().reroutes);
    gate.check_eq(
        "kill_reroutes",
        w.edges().len() as u64 * victim_shard,
        reroutes,
    );
    w.update_round(200);
    w.sim.run_for(Duration::from_secs(5));
    gate.check_eq(
        "zero_post_kill_loss",
        spec.tracks as u64 * spec.stub_count() as u64,
        w.delivered_updates() - before_kill,
    );

    // Revive: edge recovery probes re-attach and every edge rebalances
    // the victim's shard back onto it.
    let before_revive = w.delivered_updates();
    w.fault(w.cores()[victim], NodeFault::Restart);
    w.sim.run_for(Duration::from_secs(20));
    let rebalances = w.relay_sum(w.edges(), |r| r.stats().rebalances);
    gate.check_eq(
        "recovery_rebalances",
        w.edges().len() as u64 * victim_shard,
        rebalances,
    );
    gate.check_eq(
        "revived_core_reclaimed_shard",
        victim_shard,
        w.relay(w.cores()[victim]).upstream_subscription_count() as u64,
    );
    for (i, &e) in w.edges().iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_subs_after_recovery"),
            spec.tracks as u64,
            w.relay(e).upstream_subscription_count() as u64,
        );
    }
    w.update_round(230);
    w.sim.run_for(Duration::from_secs(5));
    gate.check_eq(
        "zero_post_recovery_loss",
        spec.tracks as u64 * spec.stub_count() as u64,
        w.delivered_updates() - before_revive,
    );
    gate.metric("drill_reroutes", reroutes);
    gate.metric("drill_rebalances", rebalances);

    // ---- Tables -------------------------------------------------------
    let tiers = w.tier_stats();
    let t = report::tier_table(
        format!(
            "{}: per-tier relay stats ({} cores, {} edges, {} stubs)",
            spec.name,
            spec.shards(),
            spec.edge_count(),
            spec.stub_count()
        ),
        &tiers,
        &[
            "tier",
            "relays",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "fetch miss",
            "coalesced",
            "up fetches",
            "waiters served",
            "reroutes",
            "rebalances",
        ],
    );
    report::emit(&t, "exp_mesh_tiers");
    for tier in &tiers {
        gate.metric(
            &format!("{}_objects_forwarded", tier.tier),
            tier.totals.objects_forwarded,
        );
    }

    println!(
        "Mesh survived a core kill (ring-walk reroutes) and a revival \
         (shard rebalanced home) with zero update loss.\n"
    );
    gate.finish();
}
