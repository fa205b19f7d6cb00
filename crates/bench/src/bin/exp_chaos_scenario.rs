//! E14 — the chaos drill: a composed, seeded fault plan on the
//! metro-scale federation, gating the recovery invariants the paper's
//! always-on distribution tree depends on.
//!
//! The world is the metro federation ([`RelayTreeSpec::chaos`]) plus a
//! *chaos edge* in region 0 carrying a
//! cohort of short-idle, auto-redialing stubs (the crash target). Four
//! phases, each pushing a full update round:
//!
//! 1. **clean round** — baseline: complete delivery, zero regressions;
//! 2. **uplink flap** — the busiest core's origin uplink goes to 100 %
//!    loss through the middle of an update round. Objects ride reliable
//!    streams, so the round must deliver *completely* after the heal,
//!    with no duplicate delivery (per-stub, per-track version sequences
//!    never regress);
//! 3. **region partition** — one region is cut off (origin uplink + all
//!    core peer links) for 10 s with a round pushed mid-partition; the
//!    isolated region drains completely on reunion;
//! 4. **edge crash/restart** — the chaos edge gets CONNECTION_CLOSE'd
//!    and goes dark mid-run, then restarts. The cohort must redial a
//!    *bounded* number of times, rejoin with a joining fetch that brings
//!    it current, and see the post-recovery round in full; the edge's
//!    session count and state size must return to their steady-state
//!    envelope (no leaked sessions from the chaos).
//!
//! Fault windows apply at simulation barriers and loss draws are
//! per-link deterministic, so the whole drill replays bit-identically
//! single-threaded and sharded (`--par N`; pinned by `parallel_parity`).
//! Run with `--smoke` for the CI variant and `--check` for the
//! machine-readable gate (`results/ci_chaos.json`).
//!
//! [`RelayTreeSpec::chaos`]: moqdns_workload::scenarios::RelayTreeSpec::chaos

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::{Duration, Instant};

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E14 / robustness — composed fault plan on the metro federation");
    let spec = if opts.smoke {
        RelayTreeSpec::chaos().smoke()
    } else {
        RelayTreeSpec::chaos()
    };
    let drill = spec.chaos.expect("the chaos preset has a drill");
    let cohort_subs = spec.cohort_subscriptions(drill.stubs);
    let mut gate = InvariantGate::new("chaos", &opts);
    let wall = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    let t_build = Instant::now();
    let mut w = RelayWorld::build(&spec, 93, opts.par);
    let build_ms = t_build.elapsed().as_millis();
    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    gate.check_eq(
        "chaos_cohort_joining_fetches",
        cohort_subs,
        w.chaos_fetched(),
    );
    println!(
        "Built metro + chaos edge: {} stubs plus a {}-stub redial cohort \
         (idle {:?}, redial {:?}; build {} ms).\n",
        spec.stub_count(),
        drill.stubs,
        drill.stub_idle,
        drill.stub_redial,
        build_ms,
    );

    // ---- Phase 1: clean round ----------------------------------------
    let t1 = Instant::now();
    w.update_round(10);
    w.sim.run_for(Duration::from_secs(2));
    gate.check_eq(
        "clean_round_delivery",
        spec.subscription_count(),
        w.delivered_updates(),
    );
    gate.check_eq("clean_chaos_delivery", cohort_subs, w.chaos_delivered());
    gate.check_eq("clean_regressions", 0, w.total_regressions());
    // Steady-state envelope for the crash drill's high-water gate.
    let edge = w.chaos_edge.expect("the chaos world has a chaos edge");
    let steady_sessions = w.relay(edge).session_count();
    let steady_state = w.relay(edge).state_size_estimate();
    gate.metric("edge_steady_sessions", steady_sessions as u64);
    gate.metric("edge_steady_state", steady_state as u64);
    println!(
        "Clean round: complete delivery incl. chaos cohort ({} ms).\n",
        t1.elapsed().as_millis()
    );

    // ---- Phase 2: flap the busiest core's origin uplink --------------
    report::heading("Drill: flapping the busiest origin uplink through a round");
    let t2 = Instant::now();
    let busiest = w.busiest_core();
    w.flap_drill(30);
    gate.check_eq(
        "flap_eventual_delivery",
        2 * spec.subscription_count(),
        w.delivered_updates(),
    );
    gate.check_eq("flap_chaos_delivery", 2 * cohort_subs, w.chaos_delivered());
    gate.check_eq("flap_no_duplicates", 0, w.total_regressions());
    println!(
        "Flapped auth<->core{busiest} ({:?} at 100% loss) across a round: \
         every object delivered exactly once after the heal ({} ms).\n",
        drill.flap_len,
        t2.elapsed().as_millis(),
    );

    // ---- Phase 3: partition one region -------------------------------
    report::heading("Drill: partitioning a region for 10 s mid-round");
    let t3 = Instant::now();
    w.partition_drill(50);
    gate.check_eq(
        "partition_eventual_delivery",
        3 * spec.subscription_count(),
        w.delivered_updates(),
    );
    gate.check_eq(
        "partition_chaos_delivery",
        3 * cohort_subs,
        w.chaos_delivered(),
    );
    gate.check_eq("partition_no_duplicates", 0, w.total_regressions());
    println!(
        "Partitioned region {} for {:?} across a round: the isolated \
         region drained completely on reunion ({} ms).\n",
        drill.partition_region,
        drill.partition_len,
        t3.elapsed().as_millis(),
    );

    // ---- Phase 4: crash + restart the chaos edge ---------------------
    report::heading("Drill: crashing the chaos edge, restarting, reconverging");
    let t4 = Instant::now();
    w.crash_drill(70, 90);
    // Original stubs saw all 5 rounds; the cohort was disconnected for
    // the mid-downtime round (its rejoin fetch brings it current) and
    // must see the post-recovery round in full.
    gate.check_eq(
        "crash_bystander_delivery",
        5 * spec.subscription_count(),
        w.delivered_updates(),
    );
    gate.check_eq(
        "crash_chaos_post_recovery_delivery",
        4 * cohort_subs,
        w.chaos_delivered(),
    );
    gate.check_eq("crash_no_duplicates", 0, w.total_regressions());
    // Rejoin: one fresh joining fetch per (stub, track) on top of the
    // stampede ones.
    gate.check_eq("crash_rejoin_fetches", 2 * cohort_subs, w.chaos_fetched());
    let redials = w.chaos_redials();
    let redialed = redials.iter().filter(|&&r| r >= 1).count();
    gate.check_eq("crash_every_stub_redialed", drill.stubs, redialed);
    gate.check_le(
        "crash_redials_bounded",
        drill.stubs as u64 * drill.redials_per_stub_bound(),
        redials.iter().sum(),
    );
    gate.metric("crash_total_redials", redials.iter().sum());
    // State high-water: the recovered edge returns to its steady-state
    // envelope — same cohort, same subscriptions, no leaked sessions.
    gate.check_eq(
        "crash_edge_sessions_recovered",
        steady_sessions as u64,
        w.relay(edge).session_count() as u64,
    );
    let recovered_state = w.relay(edge).state_size_estimate() as u64;
    gate.check_le(
        "crash_edge_state_high_water",
        (steady_state as u64).saturating_mul(3) / 2,
        recovered_state,
    );
    gate.metric("edge_recovered_state", recovered_state);
    println!(
        "Crashed the chaos edge for {:?}: {} total redials across {} \
         stubs, all re-attached and current after restart ({} ms).\n",
        drill.edge_downtime,
        redials.iter().sum::<u64>(),
        drill.stubs,
        t4.elapsed().as_millis(),
    );

    // ---- Tables -------------------------------------------------------
    let tiers = w.tier_stats();
    let t = report::tier_table(
        format!(
            "{}: per-tier relay stats after the full fault sequence",
            spec.name
        ),
        &tiers,
        &[
            "tier",
            "relays",
            "down subs",
            "objects fwd",
            "up fetches",
            "redials",
            "failed dials",
        ],
    );
    let relay_redials = tiers.iter().map(|t| t.totals.redials).sum();
    report::emit(&t, "exp_chaos_tiers");
    // Relay-tier uplink redials: none of these faults severs a relay's
    // established uplink long enough to close it (long-idle transports),
    // so the tier stays quiet — the bounded redial *storm* behavior is
    // pinned by `fetch_coalescing::redial_storm_is_counted_and_bounded`.
    gate.check_le("relay_tier_redials", 4, relay_redials);
    gate.metric("relay_tier_redials", relay_redials);

    println!(
        "Chaos run complete in {:.2} s wall clock.\n",
        wall.elapsed().as_secs_f64()
    );
    gate.finish();
}
