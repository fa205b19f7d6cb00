//! E14 — protocol-hardening drill: honest tiers must survive attack.
//!
//! Three hostile clients from `moqdns_core::adversary` take turns
//! attacking one edge relay of a small origin → core → edge → stub tree
//! (fresh world per attack, same scenario):
//!
//! * **byzantine** — garbage control bytes, bogus-alias datagrams,
//!   duplicate request ids. The session state machine must poison and
//!   close (counting `violations` / `dropped_datagrams`), never
//!   resynchronize or crash;
//! * **slow-loris** — subscribes to every track and never drains. The
//!   per-session backlog bound must evict it, reclaiming the state it
//!   made the relay hold;
//! * **fetch-bomb** — bursts of standalone FETCHes for cold tracks. The
//!   per-session fetch budget must throttle (`throttled_fetches`) and
//!   finally evict (`evicted_sessions`).
//!
//! The survival invariants, machine-checked per attack:
//!
//! 1. **zero honest loss** — every honest stub sees every update of
//!    every track, exactly as in an attack-free run;
//! 2. **bounded state** — the attacked edge ends no bigger than its
//!    untargeted twin plus one session-backlog allowance;
//! 3. **attack fingerprinted** — each attack shows up in its hardening
//!    counter, not in honest-path metrics.
//!
//! Run with `--smoke` for the CI variant and `--check` to emit the
//! machine-readable summary (`results/ci_adversarial.json`) and exit
//! nonzero on any violation.

use moqdns_bench::cli::BenchOpts;
use moqdns_bench::gate::InvariantGate;
use moqdns_bench::report;
use moqdns_bench::worlds::{AttackKind, RelayWorld};
use moqdns_core::adversary::{ByzantineNode, FetchBombNode, SlowLorisNode};
use moqdns_core::MOQT_PORT;
use moqdns_netsim::Addr;
use moqdns_stats::Table;
use moqdns_workload::scenarios::RelayTreeSpec;
use std::time::Duration;

fn main() {
    let opts = BenchOpts::from_args();
    report::heading("E14 — adversarial survival drill");
    let spec = if opts.smoke {
        RelayTreeSpec::adversarial().smoke()
    } else {
        RelayTreeSpec::adversarial()
    };
    let backlog = spec.relays[1]
        .limits
        .expect("hardened edges")
        .session_backlog;
    let mut gate = InvariantGate::new("adversarial", &opts);

    let mut table = Table::new(
        format!(
            "{}: {} tracks x {} updates to {} honest stubs, one attacker per run",
            spec.name,
            spec.tracks,
            spec.updates_per_track,
            spec.stub_count()
        ),
        &[
            "attack",
            "delivered",
            "violations",
            "dropped dg",
            "throttled",
            "evicted",
            "edge state B",
        ],
    );

    for (i, attack) in [
        AttackKind::Byzantine,
        AttackKind::SlowLoris,
        AttackKind::FetchBomb,
    ]
    .into_iter()
    .enumerate()
    {
        let label = attack.label();
        // Settle the honest tree, then let the attacker reach its target.
        let mut world = RelayWorld::build(&spec, 71 + i as u64, 0);
        let (target, twin) = (world.edges()[0], world.edges()[1]);
        let node = attack.node(&spec, Addr::new(target, MOQT_PORT), world.questions.clone());
        let attacker = world.attach_node(target, format!("attacker-{label}"), node);
        world.sim.run_for(Duration::from_secs(1));

        let baseline = world.delivered_updates();
        for round in 0..spec.updates_per_track {
            world.update_round(10u8.wrapping_add((round as u8).wrapping_mul(13)));
        }
        world.sim.run_for(Duration::from_secs(5));
        let delivered = world.delivered_updates() - baseline;
        let stats = world.relay(target).stats();
        let state = world.relay(target).state_size_estimate();
        let twin_state = world.relay(twin).state_size_estimate();

        // 1. Zero honest loss: the attacked tree still delivers every
        //    update to every honest stub.
        gate.check_eq(
            &format!("{label}_honest_delivery"),
            spec.expected_deliveries(),
            delivered,
        );
        // 2. Bounded state: whatever the attacker made the edge hold has
        //    been reclaimed — the attacked edge ends within one backlog
        //    allowance of its untargeted twin.
        gate.check_le(
            &format!("{label}_edge_state_bounded"),
            twin_state as u64 + backlog as u64,
            state as u64,
        );

        // 3. The attack left its fingerprint in the right counter.
        match attack {
            AttackKind::Byzantine => {
                gate.check_ge("byzantine_violations", 1, stats.violations);
                gate.check_ge("byzantine_dropped_datagrams", 1, stats.dropped_datagrams);
                let (closed, garbage, bogus, dups) =
                    world.sim.with_node::<ByzantineNode, _>(attacker, |a, _| {
                        (
                            a.closed_by_peer,
                            a.garbage_bursts,
                            a.bogus_datagrams,
                            a.duplicate_requests,
                        )
                    });
                gate.check_ge("byzantine_sessions_closed", 1, closed);
                gate.metric("byzantine_garbage_bursts", garbage);
                gate.metric("byzantine_bogus_datagrams", bogus);
                gate.metric("byzantine_duplicate_requests", dups);
                gate.metric("byzantine_sessions_closed", closed);
            }
            AttackKind::SlowLoris => {
                gate.check_ge("slow_loris_evictions", 1, stats.evicted_sessions);
                let (subs, swallowed) = world
                    .sim
                    .with_node::<SlowLorisNode, _>(attacker, |a, _| (a.subs_sent, a.swallowed));
                gate.check_ge("slow_loris_subscribed", spec.tracks as u64, subs);
                gate.metric("slow_loris_swallowed", swallowed);
            }
            AttackKind::FetchBomb => {
                gate.check_ge("fetch_bomb_throttled", 1, stats.throttled_fetches);
                gate.check_ge("fetch_bomb_evictions", 1, stats.evicted_sessions);
                let (sent, rejected, closed) =
                    world.sim.with_node::<FetchBombNode, _>(attacker, |a, _| {
                        (a.fetches_sent, a.fetches_rejected, a.closed_by_peer)
                    });
                gate.check_ge(
                    "fetch_bomb_rejections_observed",
                    spec.throttles_per_burst(),
                    rejected,
                );
                gate.metric("fetch_bomb_fetches_sent", sent);
                gate.metric("fetch_bomb_sessions_closed", closed);
            }
        }

        gate.metric(&format!("{label}_delivered"), delivered);
        gate.metric(&format!("{label}_violations"), stats.violations);
        gate.metric(
            &format!("{label}_dropped_datagrams"),
            stats.dropped_datagrams,
        );
        gate.metric(
            &format!("{label}_throttled_fetches"),
            stats.throttled_fetches,
        );
        gate.metric(&format!("{label}_evicted_sessions"), stats.evicted_sessions);
        gate.metric(&format!("{label}_edge_state_bytes"), state as u64);

        table.push(&[
            label.to_string(),
            format!("{}/{}", delivered, spec.expected_deliveries()),
            stats.violations.to_string(),
            stats.dropped_datagrams.to_string(),
            stats.throttled_fetches.to_string(),
            stats.evicted_sessions.to_string(),
            state.to_string(),
        ]);
    }

    report::emit(&table, "exp_adversarial_attacks");
    println!(
        "Survival drill: honest tiers kept full delivery under all three \
         attacks; attackers isolated via poison/throttle/evict.\n"
    );
    gate.finish();
}
