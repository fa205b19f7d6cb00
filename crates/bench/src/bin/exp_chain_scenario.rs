//! E13 — §5.3: the paper's depth-5 relay chain, gate-checked.
//!
//! §5.3 assumes distribution paths "involving 5 MoQ relays on average".
//! The 3-tier tree (E10) and the mesh (E11) check aggregation at breadth;
//! this drill checks it at **depth**: a straight origin → hop1 → … →
//! hop5 → stubs chain (the `chain` preset of `RelayTreeSpec`), where any
//! relay that failed to aggregate would multiply traffic at *every*
//! following hop. Machine-checked:
//!
//! 1. the joining-fetch stampede collapses to ONE upstream fetch per
//!    track at every hop (the deepest hop absorbs the stubs' stampede,
//!    each following hop sees exactly one fetch per track);
//! 2. each update crosses every hop link exactly once (one datagram per
//!    update per link), however many stubs subscribe below;
//! 3. every stub receives every update (complete end-to-end delivery
//!    through all 5 hops).
//!
//! Run with `--smoke` for the tiny CI variant and `--check` to emit the
//! machine-readable invariant summary (`results/ci_chain.json`) and exit
//! nonzero on any violation.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::RelayWorld;
use moqdns_stats::Table;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E13 / §5.3 — depth-5 relay chain");
    let spec = if opts.smoke {
        RelayTreeSpec::chain().smoke()
    } else {
        RelayTreeSpec::chain()
    };
    let mut gate = InvariantGate::new("chain", &opts);

    // Build + settle: connections, joining-fetch stampede, chained
    // subscriptions.
    let mut w = RelayWorld::build(&spec, 51, 0);
    let hops: Vec<_> = w.relays.iter().map(|tier| tier[0]).collect();
    let n_stubs = spec.stub_count();

    // ---- Stampede at depth -------------------------------------------
    gate.check_eq(
        "stampede_fetches_answered",
        spec.subscription_count(),
        w.fetched_total(),
    );
    for (i, &h) in hops.iter().enumerate() {
        let s = w.relay(h).stats();
        // One upstream fetch per track per hop: the deepest hop coalesces
        // the stub stampede; each hop above sees exactly one per track.
        gate.check_eq(
            &format!("hop{}_upstream_fetches", i + 1),
            spec.tracks as u64,
            s.upstream_fetches,
        );
    }
    let deepest = w.relay(*hops.last().unwrap()).stats();
    gate.check_eq(
        "deepest_hop_coalesced",
        (n_stubs * spec.tracks - spec.tracks) as u64,
        deepest.fetch_coalesced,
    );
    gate.metric("stampede_deepest_misses", deepest.fetch_cache_misses);
    gate.metric("stampede_deepest_coalesced", deepest.fetch_coalesced);

    // ---- Update rounds: one copy per hop link ------------------------
    w.sim.stats_mut().reset();
    let baseline = w.delivered_updates();
    for round in 0..spec.updates_per_track {
        w.update_round(10 + round as u8 * 16);
    }
    w.sim.run_for(Duration::from_secs(5));

    let delivered = w.delivered_updates() - baseline;
    gate.check_eq("complete_delivery", spec.expected_deliveries(), delivered);
    // One datagram per update per hop link, at every depth.
    let mut upstream = w.auth;
    for (i, &h) in hops.iter().enumerate() {
        let got = w.sim.stats().between(upstream, h).delivered;
        gate.check_eq(
            &format!("into_hop{}_one_copy_per_update", i + 1),
            spec.total_updates(),
            got,
        );
        gate.metric(&format!("hop{}_link_datagrams", i + 1), got);
        upstream = h;
    }
    gate.metric("update_deliveries", delivered);

    // ---- Table --------------------------------------------------------
    let mut t = Table::new(
        format!(
            "{}: depth-{} chain, {} tracks x {} updates to {} stubs",
            spec.name,
            hops.len(),
            spec.tracks,
            spec.updates_per_track,
            n_stubs
        ),
        &[
            "hop",
            "fetch miss",
            "coalesced",
            "up fetches",
            "objects fwd",
        ],
    );
    for (i, &h) in hops.iter().enumerate() {
        let s = w.relay(h).stats();
        t.push(&[
            format!("hop{}", i + 1),
            s.fetch_cache_misses.to_string(),
            s.fetch_coalesced.to_string(),
            s.upstream_fetches.to_string(),
            s.objects_forwarded.to_string(),
        ]);
    }
    report::emit(&t, "exp_chain_hops");

    println!(
        "Depth-{} chain: one fetch per track per hop, one copy per update \
         per link, {}/{} deliveries.\n",
        hops.len(),
        delivered,
        spec.expected_deliveries()
    );
    gate.finish();
}
