//! E12 — §3 + §5.3: cross-region core federation — cores serve each
//! other, not just the origin.
//!
//! The mesh scenario (E11) lets every edge attach to every core, so the
//! shard routing happens at the edges. A production multi-region
//! deployment cannot do that: edges attach *regionally* and the core
//! tier itself must resolve non-home tracks. This binary instantiates
//! the federation preset of [`RelayTreeSpec`] — origin → K regional
//! cores (full-mesh peer links, one hash shard each) → region-local
//! edges → stubs — and machine-checks:
//!
//! 1. **origin offload**: under the all-stubs-join-all-tracks stampede,
//!    each non-home core fetches a shard's tracks from the home *peer*
//!    exactly once, and the origin sees exactly one fetch per track
//!    (from its home core) — quantified against the naive per-region
//!    escalation a non-federated deployment would produce;
//! 2. **one copy per link under federation**: updates leave the origin
//!    once (toward the home core) and enter every non-home core exactly
//!    once, over its peer link — subscriber counts never multiply
//!    inter-region traffic. The slower peer links make the asymmetry
//!    visible: remote-region stubs receive updates later than the home
//!    region by roughly the extra peer-hop delay;
//! 3. **origin independence**: after killing the origin mid-run, a
//!    brand-new edge + stubs in *every* region still get full service
//!    for every already-published track, region-to-region, with zero
//!    loss.
//!
//! Run with `--smoke` for the tiny CI variant and `--check` to emit the
//! machine-readable invariant summary (`results/ci_federation.json`) and
//! exit nonzero on any violation.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::{RelayWorld, TreeStub};
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E12 / §3+§5.3 — cross-region core federation");
    let spec = if opts.smoke {
        RelayTreeSpec::federation().smoke()
    } else {
        RelayTreeSpec::federation()
    };
    let mut gate = InvariantGate::new("federation", &opts);

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to every track through its regional edge at
    // t=0. Each core must resolve non-home tracks over peer links.
    let mut w = RelayWorld::build(&spec, 91, 0);
    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    let mut peer_fetch_total = 0;
    let mut origin_fetch_total = 0;
    for (c, &core) in w.cores().iter().enumerate() {
        let s = w.relay(core).stats();
        let origin_fetches = s.upstream_fetches - s.peer_fetches;
        // Every track homed on a *peer* shard was fetched from its home
        // core exactly once, however many regional edges stampeded.
        gate.check_eq(
            &format!("core{c}_peer_fetches"),
            (spec.tracks - w.shard_size(c)) as u64,
            s.peer_fetches,
        );
        // Only the home shard's tracks ever reached the origin.
        gate.check_eq(
            &format!("core{c}_origin_fetches"),
            w.shard_size(c) as u64,
            origin_fetches,
        );
        peer_fetch_total += s.peer_fetches;
        origin_fetch_total += origin_fetches;
    }
    gate.check_eq(
        "peer_fetch_total",
        spec.peer_fetch_total(),
        peer_fetch_total,
    );
    gate.check_eq("origin_fetch_total", spec.tracks as u64, origin_fetch_total);
    for (i, &e) in w.edges().iter().enumerate() {
        gate.check_eq(
            &format!("edge{i}_upstream_fetches"),
            spec.tracks as u64,
            w.relay(e).stats().upstream_fetches,
        );
    }
    let measured_offload = 100 * peer_fetch_total / (peer_fetch_total + origin_fetch_total);
    gate.check_eq(
        "origin_offload_percent",
        spec.offload_percent(),
        measured_offload,
    );
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    gate.metric("stampede_naive_origin_fetches", spec.naive_origin_fetches());
    gate.metric("origin_offload_percent", measured_offload);
    println!(
        "Stampede: {} origin fetches (naive regional escalation: {}); \
         {} shard fetches served core-to-core — {}% origin offload.\n",
        origin_fetch_total,
        spec.naive_origin_fetches(),
        peer_fetch_total,
        measured_offload
    );

    // ---- Measured update rounds: one copy per link under federation --
    w.sim.stats_mut().reset();
    let baseline = w.delivered_updates();
    let peer_objects_before: Vec<u64> = w
        .cores()
        .iter()
        .map(|&c| w.relay(c).stats().peer_objects)
        .collect();
    for round in 0..spec.updates_per_track {
        w.update_round(10 + (round as u8) * 16);
    }
    w.sim.run_for(Duration::from_secs(5));
    gate.check_eq(
        "complete_delivery",
        spec.expected_deliveries(),
        w.delivered_updates() - baseline,
    );
    // Origin egress: one copy per update, toward the home core only.
    for (c, &core) in w.cores().iter().enumerate() {
        let got = w.sim.stats().between(w.auth, core).delivered;
        gate.check_eq(
            &format!("origin_to_core{c}_one_copy"),
            spec.updates_per_track * w.shard_size(c) as u64,
            got,
        );
        // Peer-link ingress: every non-home update entered this core
        // exactly once, over the peer link from its home core.
        let peer_objs = w.relay(core).stats().peer_objects - peer_objects_before[c];
        gate.check_eq(
            &format!("core{c}_peer_ingress_one_copy"),
            spec.updates_per_track * (spec.tracks - w.shard_size(c)) as u64,
            peer_objs,
        );
    }
    gate.metric("update_deliveries", w.delivered_updates() - baseline);
    gate.metric("origin_egress_copies", w.delivered_into_cores());

    // ---- Latency asymmetry: remote regions lag by the peer hop -------
    // One update of track 0: its home region receives it straight off
    // the origin→home-core path; every other region pays the extra
    // (slower) core→core peer hop.
    let home = w.home_core(0);
    let remote = (home + 1) % spec.regions();
    let t0 = w.sim.now();
    w.update_track(0, 199);
    w.sim.run_for(Duration::from_secs(3));
    let region_latency = |w: &RelayWorld, region: usize| -> u64 {
        w.region_stubs(region)
            .iter()
            .filter_map(|&s| w.sim.node_ref::<TreeStub>(s).last_update_at)
            .map(|at| (at - t0).as_micros() as u64)
            .max()
            .unwrap_or(0)
    };
    let home_us = region_latency(&w, home);
    let remote_us = region_latency(&w, remote);
    gate.check_true(
        "remote_region_lags_home_region",
        remote_us > home_us,
        format!("home {home_us}us < remote {remote_us}us"),
    );
    gate.metric("home_region_delivery_us", home_us);
    gate.metric("remote_region_delivery_us", remote_us);
    println!(
        "Latency asymmetry: home region {:.1} ms, remote region {:.1} ms \
         (inter-region links {:?} vs intra {:?}).\n",
        home_us as f64 / 1000.0,
        remote_us as f64 / 1000.0,
        spec.peer_delay,
        spec.link_delay
    );

    // ---- Origin-kill drill: published tracks keep flowing ------------
    report::heading("Drill: killing the origin, then cold-joining every region");
    w.kill_origin();
    w.sim.run_for(Duration::from_secs(3));
    // The core tier keeps its region-to-region subscriptions: only the
    // origin-bound parent subscriptions are gone.
    for (c, &core) in w.cores().iter().enumerate() {
        gate.check_eq(
            &format!("core{c}_peer_subs_survive_origin_death"),
            (spec.tracks - w.shard_size(c)) as u64,
            w.relay(core).peer_subscription_count() as u64,
        );
    }
    // A brand-new edge with fresh stubs in every region: all joining
    // fetches for already-published tracks must be answered from the
    // core tier's caches — the origin is dead, so any loss here would be
    // real loss.
    let late_per_edge = 2usize;
    let mut late_stubs = Vec::new();
    for region in 0..spec.regions() {
        let (_edge, stubs) = w.add_late_edge(region, late_per_edge);
        late_stubs.extend(stubs);
    }
    w.sim.run_for(Duration::from_secs(5));
    let late_fetched = w.cohort_fetched(&late_stubs);
    gate.check_eq(
        "post_kill_zero_loss_for_published_tracks",
        (spec.regions() * late_per_edge * spec.tracks) as u64,
        late_fetched,
    );
    gate.metric("post_kill_late_fetches_answered", late_fetched);
    println!(
        "Origin died; {} cold joining fetches across {} regions were all \
         served from the federated core tier.\n",
        late_fetched,
        spec.regions()
    );

    // ---- Tables -------------------------------------------------------
    let tiers = w.tier_stats();
    let t = report::tier_table(
        format!(
            "{}: per-tier relay stats ({} federated cores/regions x {} edges, {} stubs)",
            spec.name,
            spec.regions(),
            spec.edge_count() / spec.regions(),
            spec.stub_count()
        ),
        &tiers,
        &[
            "tier",
            "relays",
            "down subs",
            "up subs (live)",
            "objects fwd",
            "up fetches",
            "peer fetches",
            "peer objects",
            "origin offload",
            "reroutes",
            "rebalances",
        ],
    );
    report::emit(&t, "exp_federation_tiers");
    for tier in &tiers {
        gate.metric(
            &format!("{}_objects_forwarded", tier.tier),
            tier.totals.objects_forwarded,
        );
        gate.metric(
            &format!("{}_peer_objects", tier.tier),
            tier.totals.peer_objects,
        );
    }

    println!(
        "Federation held: origin offloaded, one copy per inter-region link, \
         and full region-to-region service after the origin died.\n"
    );
    gate.finish();
}
