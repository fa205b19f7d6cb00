//! Parallel-simulation parity: the sharded ([`ParSim`]-backed) builds of
//! the standing multi-region worlds must be *indistinguishable* from the
//! single-threaded CI-baseline builds — identical delivery digests and
//! identical gate metrics — for 1, 2, and N workers.
//!
//! This is the end-to-end check of the conservative-lookahead contract
//! (`moqdns_netsim::par`): within a shard execution order is exactly the
//! single-threaded order, and cross-shard datagrams carry sender-composed
//! scheduler keys, so the merged event history is the same history the
//! global scheduler would have produced.

use moqdns_bench::worlds::{RelayWorld, SimHandle};
use moqdns_workload::scenarios::RelayTreeSpec;

/// Everything we compare between a single-threaded and a sharded run.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    delivered_updates: u64,
    fetched_or_cores: u64,
    total_datagrams: u64,
    total_bytes: u64,
    digest: u64,
    now_nanos: u64,
}

fn run_federation(workers: usize) -> Observed {
    let spec = RelayTreeSpec::federation().smoke();
    let mut w = RelayWorld::build(&spec, 7, workers);
    // The digest is enabled post-settle in every variant, so it covers
    // the same (dynamic) phase of the run: three update rounds plus an
    // origin kill and a late joiner.
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.update_round(20);
    w.kill_origin();
    let (_, _) = w.add_late_edge(1, 2);
    w.update_round(30);
    Observed {
        delivered_updates: w.delivered_updates(),
        fetched_or_cores: w.delivered_into_cores(),
        total_datagrams: w.sim.stats().total_datagrams(),
        total_bytes: w.sim.stats().total_bytes(),
        digest: w.sim.delivery_digest(),
        now_nanos: w.sim.now().as_nanos(),
    }
}

fn run_metro(workers: usize) -> Observed {
    let spec = RelayTreeSpec::metro().smoke();
    let mut w = RelayWorld::build(&spec, 7, workers);
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.update_round(20);
    Observed {
        delivered_updates: w.delivered_updates(),
        fetched_or_cores: w.fetched_total(),
        total_datagrams: w.sim.stats().total_datagrams(),
        total_bytes: w.sim.stats().total_bytes(),
        digest: w.sim.delivery_digest(),
        now_nanos: w.sim.now().as_nanos(),
    }
}

#[test]
fn federation_parallel_matches_single() {
    let single = run_federation(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 2, 3] {
        let par = run_federation(workers);
        assert_eq!(single, par, "federation diverged at W={workers}");
    }
}

#[test]
fn metro_parallel_matches_single() {
    let single = run_metro(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 2, 3] {
        let par = run_metro(workers);
        assert_eq!(single, par, "metro diverged at W={workers}");
    }
}

/// The full four-phase chaos drill (clean round, uplink flap, region
/// partition, edge crash/restart) with an *active fault plan* — the
/// end-to-end pin that faults applied at barriers plus per-link loss
/// draws keep the sharded event history bit-identical.
fn run_chaos(workers: usize) -> (Observed, u64, u64) {
    let spec = RelayTreeSpec::chaos().smoke();
    let mut w = RelayWorld::build(&spec, 7, workers);
    w.sim.enable_delivery_digest();
    w.update_round(10);
    w.flap_drill(30);
    w.partition_drill(50);
    w.crash_drill(70, 90);
    let obs = Observed {
        delivered_updates: w.delivered_updates() + w.chaos_delivered(),
        fetched_or_cores: w.fetched_total() + w.chaos_fetched(),
        total_datagrams: w.sim.stats().total_datagrams(),
        total_bytes: w.sim.stats().total_bytes(),
        digest: w.sim.delivery_digest(),
        now_nanos: w.sim.now().as_nanos(),
    };
    (obs, w.chaos_redials().iter().sum(), w.total_regressions())
}

#[test]
fn chaos_drill_parallel_matches_single() {
    let single = run_chaos(0);
    assert!(
        single.0.delivered_updates > 0,
        "world must actually deliver"
    );
    assert!(single.1 > 0, "the crash drill must force redials");
    assert_eq!(single.2, 0, "no duplicate delivery under faults");
    for workers in [1, 2, 3] {
        let par = run_chaos(workers);
        assert_eq!(single, par, "chaos drill diverged at W={workers}");
    }
}

fn run_planet(workers: usize) -> Observed {
    let spec = RelayTreeSpec::planet().smoke();
    let mut w = RelayWorld::build(&spec, 7, workers);
    w.sim.enable_delivery_digest();
    // One resident round, then a full diurnal wave (dawn → midday round
    // → dusk) — the wave path adds nodes and closes connections mid-run,
    // which must also be bit-identical under sharding.
    w.update_round(10);
    let cohort = w.add_wave();
    w.sim.run_until(w.sim.now() + spec.update_interval * 2);
    w.update_round(20);
    w.leave_wave(&cohort);
    w.sim.run_until(w.sim.now() + spec.update_interval);
    w.update_round(30);
    Observed {
        delivered_updates: w.delivered_updates() + w.cohort_updates(&cohort),
        fetched_or_cores: w.fetched_total() + w.cohort_fetched(&cohort),
        total_datagrams: w.sim.stats().total_datagrams(),
        total_bytes: w.sim.stats().total_bytes(),
        digest: w.sim.delivery_digest(),
        now_nanos: w.sim.now().as_nanos(),
    }
}

#[test]
fn planet_parallel_matches_single() {
    let single = run_planet(0);
    assert!(single.delivered_updates > 0, "world must actually deliver");
    assert!(single.digest != 0, "digest must cover the dynamic phase");
    for workers in [1, 4] {
        let par = run_planet(workers);
        assert_eq!(single, par, "planet diverged at W={workers}");
    }
}

#[test]
fn worker_count_is_clamped_to_regions() {
    // Requesting more shards than regions must not leave empty shards
    // (an empty shard would register no cross-shard link and poison the
    // lookahead bound) — the builder clamps to the region count.
    let spec = RelayTreeSpec::federation().smoke();
    let w = RelayWorld::build(&spec, 7, 64);
    assert_eq!(w.sim.workers(), spec.regions());
    match &w.sim {
        SimHandle::Par(p) => assert_eq!(p.workers(), spec.regions()),
        SimHandle::Single(_) => panic!("expected the sharded variant"),
    }
}
