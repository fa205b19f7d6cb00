//! E14 — the planet-scale federation: ~100,000 resident stubs across 24
//! regions with Zipf-popular demand and diurnal join/leave waves.
//!
//! The metro scenario (E13) proved the federation invariants at ~10k
//! stubs with *flat* demand. This one grows the population another order
//! of magnitude (the planet preset of [`RelayTreeSpec`]: 24 cores → 192
//! edges → 100,032 stubs over 96 tracks) and adds the two workload
//! dimensions a planet actually has:
//!
//! * **Zipf popularity** — stub demand concentrates on head-ranked
//!   tracks (ranks from `workload::toplist`), so tail slices are absent
//!   under many edges. Every expectation below is therefore *computed*
//!   from the spec's quantile assignment, never assumed dense;
//! * **diurnal waves** — transient cohorts join every edge, subscribe
//!   popular slices, receive a round of updates, and leave. Departed
//!   stubs must receive nothing further and the edge tier must give the
//!   session state back.
//!
//! The invariants re-checked at this scale: stampede coalescing (~800k
//! joining fetches collapse to the computed per-edge slice coverage),
//! one copy per inter-region link, complete zero-loss delivery for
//! residents *and* waves, and state reclamation at dusk.
//!
//! The full-size run doubles as the wall-clock benchmark for the
//! parallel simulator: `--par N` runs one region-group per worker
//! (`moqdns_netsim::ParSim`) with a bit-identical event history, so the
//! gate and baseline are the same no matter the worker count. Run with
//! `--smoke` for the tiny CI variant and `--check` for the
//! machine-readable gate (`results/ci_planet.json`).
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
    report::heading("E14 / §3+§5.3 — planet-scale federation (Zipf demand, diurnal waves)");
    let spec = if opts.smoke {
        RelayTreeSpec::planet().smoke()
    } else {
        RelayTreeSpec::planet()
    };
    let mut gate = InvariantGate::new("planet", &opts);
    let wall_start = Instant::now();

    // ---- Build + joining-fetch stampede ------------------------------
    let t_build = Instant::now();
    let mut w = RelayWorld::build(&spec, 92, opts.par);
    let build_ms = t_build.elapsed().as_millis();

    // Demand maps: which tracks each region wants (Zipf-thinned) and
    // where each track is homed. All invariants derive from these.
    let home: Vec<usize> = (0..spec.tracks).map(|t| w.home_core(t)).collect();
    let demanded = spec.demanded_tracks();
    let region_tracks: Vec<Vec<bool>> =
        (0..spec.regions()).map(|r| spec.region_tracks(r)).collect();
    let origin_fetch_expected = |c: usize| -> u64 {
        (0..spec.tracks)
            .filter(|&t| home[t] == c && demanded[t])
            .count() as u64
    };
    let peer_fetch_expected = |c: usize| -> u64 {
        (0..spec.tracks)
            .filter(|&t| region_tracks[c][t] && home[t] != c)
            .count() as u64
    };

    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    let edge_fetch_sum = |w: &RelayWorld| w.relay_sum(w.edges(), |r| r.stats().upstream_fetches);
    gate.check_eq(
        "edge_tier_upstream_fetches",
        spec.edge_fetch_total(),
        edge_fetch_sum(&w),
    );
    // Core-tier fetch routing, exact per core but summarized as one
    // mismatch count (24 regions × 2 checks would drown the gate).
    let mut origin_fetch_total = 0;
    let mut peer_fetch_total = 0;
    let mut fetch_mismatches = 0u64;
    for (c, &core) in w.cores().iter().enumerate() {
        let s = w.relay(core).stats();
        let origin_fetches = s.upstream_fetches - s.peer_fetches;
        if origin_fetches != origin_fetch_expected(c) || s.peer_fetches != peer_fetch_expected(c) {
            fetch_mismatches += 1;
        }
        origin_fetch_total += origin_fetches;
        peer_fetch_total += s.peer_fetches;
    }
    gate.check_eq("per_core_fetch_mismatches", 0, fetch_mismatches);
    gate.check_eq(
        "origin_fetch_total",
        (0..spec.regions()).map(origin_fetch_expected).sum::<u64>(),
        origin_fetch_total,
    );
    gate.check_eq(
        "peer_fetch_total",
        (0..spec.regions()).map(peer_fetch_expected).sum::<u64>(),
        peer_fetch_total,
    );
    // The Zipf skew is real: the head slice holds an outsized share of
    // the resident population, the tail slice a sliver.
    let head = spec.slice_population(0) as u64;
    let tail = spec.slice_population(spec.slices() - 1) as u64;
    gate.check_true(
        "zipf_head_dominates_tail",
        head > 2 * tail,
        format!("head slice {head} stubs vs tail slice {tail}"),
    );
    gate.metric("stampede_naive_fetches", spec.subscription_count());
    gate.metric("stampede_edge_fetches", edge_fetch_sum(&w));
    gate.metric("stampede_peer_fetches", peer_fetch_total);
    gate.metric("stampede_origin_fetches", origin_fetch_total);
    gate.metric("zipf_head_slice_population", head);
    gate.metric("zipf_tail_slice_population", tail);
    println!(
        "Stampede: {} naive joining fetches coalesced to {} edge fetches, \
         {} peer fetches, {} origin fetches ({} stubs; build+stampede {} ms).\n",
        spec.subscription_count(),
        edge_fetch_sum(&w),
        peer_fetch_total,
        origin_fetch_total,
        spec.stub_count(),
        build_ms,
    );

    // ---- Measured update rounds: one copy per link at planet scale ---
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
    // One copy per inter-region link, Zipf-aware: origin→core carries
    // only the tracks homed there that anyone demands; peer ingress only
    // the tracks the region demands from elsewhere.
    let mut copy_mismatches = 0u64;
    for (c, &core) in w.cores().iter().enumerate() {
        let got = w.sim.stats().between(w.auth, core).delivered;
        let want = spec.updates_per_track * origin_fetch_expected(c);
        let peer_objs = w.relay(core).stats().peer_objects - peer_objects_before[c];
        let peer_want = spec.updates_per_track * peer_fetch_expected(c);
        if got != want || peer_objs != peer_want {
            copy_mismatches += 1;
        }
    }
    gate.check_eq("per_core_one_copy_mismatches", 0, copy_mismatches);
    gate.metric("update_deliveries", w.delivered_updates() - baseline);
    println!(
        "Update rounds: {} deliveries to {} stubs with one copy per \
         inter-region link ({} ms).\n",
        w.delivered_updates() - baseline,
        spec.stub_count(),
        rounds_ms,
    );

    // ---- Diurnal join/leave waves ------------------------------------
    report::heading("Diurnal waves: transient cohorts join, receive, leave");
    let t_waves = Instant::now();
    let edge_session_sum = |w: &RelayWorld| w.relay_sum(w.edges(), |r| r.session_count() as u64);
    for wave in 0..spec.waves.count {
        // Dawn: the cohort joins every edge and its joining fetches must
        // all be answered (from edge caches/aggregation — only slices no
        // resident covers escalate upstream).
        let pre_sessions = edge_session_sum(&w);
        let pre_edge_fetches = edge_fetch_sum(&w);
        let cohort = w.add_wave();
        w.sim.run_for(spec.update_interval * 2);
        gate.check_eq(
            &format!("wave{wave}_fetches_answered"),
            spec.wave_subscription_count(),
            w.cohort_fetched(&cohort),
        );
        let fetch_delta = edge_fetch_sum(&w) - pre_edge_fetches;
        if wave == 0 {
            // First dawn against the resident-only edge state: the delta
            // is exactly the Zipf-novel slices, computed from the spec.
            gate.check_eq(
                "wave0_edge_fetch_delta",
                spec.wave_edge_fetch_delta(),
                fetch_delta,
            );
        } else {
            // Later dawns re-demand tracks the first wave already pulled:
            // the edge cache still holds their groups after the dusk
            // prune, so a rejoining wave costs zero upstream fetches.
            gate.check_eq(&format!("wave{wave}_edge_fetch_delta"), 0, fetch_delta);
        }

        // Midday: one update round must reach residents AND the wave,
        // each exactly once per subscription.
        let resident_before = w.delivered_updates();
        let wave_before = w.cohort_updates(&cohort);
        w.update_round(100 + (wave as u8) * 16);
        w.sim.run_for(Duration::from_secs(2));
        gate.check_eq(
            &format!("wave{wave}_round_resident_delivery"),
            spec.subscription_count(),
            w.delivered_updates() - resident_before,
        );
        gate.check_eq(
            &format!("wave{wave}_round_wave_delivery"),
            spec.wave_subscription_count(),
            w.cohort_updates(&cohort) - wave_before,
        );

        // Dusk: the cohort leaves; the edge tier must reclaim exactly
        // the sessions the wave added, and a further round must deliver
        // to residents only — departed stubs receive nothing.
        w.leave_wave(&cohort);
        w.sim.run_for(spec.update_interval);
        gate.check_eq(
            &format!("wave{wave}_sessions_reclaimed"),
            pre_sessions,
            edge_session_sum(&w),
        );
        let frozen = w.cohort_updates(&cohort);
        let resident_before = w.delivered_updates();
        w.update_round(140 + (wave as u8) * 16);
        w.sim.run_for(Duration::from_secs(2));
        gate.check_eq(
            &format!("wave{wave}_post_leave_resident_delivery"),
            spec.subscription_count(),
            w.delivered_updates() - resident_before,
        );
        gate.check_eq(
            &format!("wave{wave}_departed_receive_nothing"),
            frozen,
            w.cohort_updates(&cohort),
        );
        println!(
            "Wave {wave}: {} transient stubs joined ({} novel edge fetches), \
             received their round, left; edge sessions back to {}.",
            cohort.len(),
            fetch_delta,
            pre_sessions,
        );
    }
    let waves_ms = t_waves.elapsed().as_millis();
    println!();

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
    report::emit(&t, "exp_planet_tiers");
    for tier in &tiers {
        gate.metric(
            &format!("{}_objects_forwarded", tier.tier),
            tier.totals.objects_forwarded,
        );
    }

    // Wall clock is printed, not a gate metric: the baseline diff must
    // stay machine-independent (CI enforces the budget with `timeout`).
    println!(
        "Planet run complete in {:.2} s wall clock, {} workers \
         (build {} ms, rounds {} ms, waves {} ms).\n",
        wall_start.elapsed().as_secs_f64(),
        w.sim.workers(),
        build_ms,
        rounds_ms,
        waves_ms,
    );
    gate.finish();
}
