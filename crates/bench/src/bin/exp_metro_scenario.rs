//! E13 — the metro-scale federation: ~10,000 stubs over ~64 tracks on
//! the cross-region core-federation topology.
//!
//! Every other scenario in the CI matrix tops out at ~64 stubs; this one
//! grows the federation shape two orders of magnitude (the metro preset
//! of [`RelayTreeSpec`]: 1
//! origin → 3 federated cores → 12 region-local edges → 9,996 stubs,
//! each subscribing to an 8-track slice of the 64-track space) and
//! re-checks the federation invariants at that scale:
//!
//! 1. **stampede coalescing** — ~80k concurrent joining fetches collapse
//!    to 64 upstream fetches per edge and 64 fetches at the origin;
//! 2. **one copy per link** — each update leaves the origin once (to its
//!    home core) and crosses each home→peer core link once, with ~10k
//!    subscribers below;
//! 3. **origin independence** — after killing the origin, cold edges +
//!    stubs joining in every region get every published track with zero
//!    loss.
//!
//! The full-size run doubles as the wall-clock benchmark the simulator's
//! data plane is graded on (see `BENCH_PR5.json`); the binary prints its
//! own phase timings. Run with `--smoke` for the tiny CI variant and
//! `--check` for the machine-readable gate (`results/ci_metro.json`).
//!
//! [`RelayTreeSpec`]: moqdns_workload::scenarios::RelayTreeSpec

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::{Duration, Instant};

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E13 / §3+§5.3 — metro-scale federation (~10k stubs)");
    let spec = if opts.smoke {
        RelayTreeSpec::metro().smoke()
    } else {
        RelayTreeSpec::metro()
    };
    let mut gate = InvariantGate::new("metro", &opts);
    let wall_start = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    // Every stub subscribes to its track slice through its regional edge
    // at t=0: the largest coalescing stampede in the matrix.
    let t_build = Instant::now();
    let mut w = RelayWorld::build(&spec, 92, opts.par);
    let build_ms = t_build.elapsed().as_millis();
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
        gate.check_eq(
            &format!("core{c}_peer_fetches"),
            (spec.tracks - w.shard_size(c)) as u64,
            s.peer_fetches,
        );
        gate.check_eq(
            &format!("core{c}_origin_fetches"),
            w.shard_size(c) as u64,
            origin_fetches,
        );
        peer_fetch_total += s.peer_fetches;
        origin_fetch_total += origin_fetches;
    }
    gate.check_eq("origin_fetch_total", spec.tracks as u64, origin_fetch_total);
    // Edge-tier coalescing, aggregated (12 × 64 checks would drown the
    // summary): every edge opens exactly one fetch per track.
    let edge_fetches = w.relay_sum(w.edges(), |r| r.stats().upstream_fetches);
    gate.check_eq(
        "edge_tier_upstream_fetches",
        spec.edge_fetch_total(),
        edge_fetches,
    );
    gate.metric("stampede_naive_fetches", spec.subscription_count());
    gate.metric("stampede_edge_fetches", edge_fetches);
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    println!(
        "Stampede: {} naive joining fetches coalesced to {} edge fetches, \
         {} peer fetches, {} origin fetches ({} stubs; build+stampede {} ms).\n",
        spec.subscription_count(),
        edge_fetches,
        peer_fetch_total,
        origin_fetch_total,
        spec.stub_count(),
        build_ms,
    );

    // ---- Measured update rounds: one copy per link at metro scale ----
    let t_rounds = Instant::now();
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
    w.sim.run_for(Duration::from_secs(2));
    let rounds_ms = t_rounds.elapsed().as_millis();
    gate.check_eq(
        "complete_delivery",
        spec.expected_deliveries(),
        w.delivered_updates() - baseline,
    );
    for (c, &core) in w.cores().iter().enumerate() {
        let got = w.sim.stats().between(w.auth, core).delivered;
        gate.check_eq(
            &format!("origin_to_core{c}_one_copy"),
            spec.updates_per_track * w.shard_size(c) as u64,
            got,
        );
        let peer_objs = w.relay(core).stats().peer_objects - peer_objects_before[c];
        gate.check_eq(
            &format!("core{c}_peer_ingress_one_copy"),
            spec.updates_per_track * (spec.tracks - w.shard_size(c)) as u64,
            peer_objs,
        );
    }
    gate.metric("update_deliveries", w.delivered_updates() - baseline);
    println!(
        "Update rounds: {} deliveries to {} stubs with one copy per \
         inter-region link ({} ms).\n",
        w.delivered_updates() - baseline,
        spec.stub_count(),
        rounds_ms,
    );

    // ---- Origin-kill drill: published tracks keep flowing ------------
    report::heading("Drill: killing the origin, then cold-joining every region");
    let t_drill = Instant::now();
    w.kill_origin();
    w.sim.run_for(Duration::from_secs(2));
    let late_per_edge = 4usize;
    let mut late_stubs = Vec::new();
    for region in 0..spec.regions() {
        let (_edge, stubs) = w.add_late_edge(region, late_per_edge);
        late_stubs.extend(stubs);
    }
    w.sim.run_for(Duration::from_secs(5));
    let late_fetched = w.cohort_fetched(&late_stubs);
    let drill_ms = t_drill.elapsed().as_millis();
    gate.check_eq(
        "post_kill_zero_loss_for_published_tracks",
        spec.cohort_subscriptions(spec.regions() * late_per_edge),
        late_fetched,
    );
    gate.metric("post_kill_late_fetches_answered", late_fetched);
    println!(
        "Origin died; {} cold joining fetches across {} regions were all \
         served from the federated core tier ({} ms).\n",
        late_fetched,
        spec.regions(),
        drill_ms,
    );

    // ---- Tables -------------------------------------------------------
    let tiers = w.tier_stats();
    let t = report::tier_table(
        format!(
            "{}: per-tier relay stats ({} cores x {} edges, {} stubs over {} tracks)",
            spec.name,
            spec.regions(),
            spec.edge_count() / spec.regions(),
            spec.stub_count(),
            spec.tracks,
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
        ],
    );
    report::emit(&t, "exp_metro_tiers");
    for tier in &tiers {
        gate.metric(
            &format!("{}_objects_forwarded", tier.tier),
            tier.totals.objects_forwarded,
        );
    }

    // Wall clock is printed, not a gate metric: the baseline diff must
    // stay machine-independent (CI enforces the budget with `timeout`).
    println!(
        "Metro run complete in {:.2} s wall clock (build {} ms, rounds {} ms, drill {} ms).\n",
        wall_start.elapsed().as_secs_f64(),
        build_ms,
        rounds_ms,
        drill_ms,
    );
    gate.finish();
}
