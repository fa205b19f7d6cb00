//! Dynamic DNS (paper §1/§5.3): a home user's IP address changes; everyone
//! who cares learns about it at push latency through a MoQ relay, and the
//! update traffic is tiny.
//!
//!     cargo run --example ddns_home_server

use moqdns::stats::format_bps;
use moqdns::workload::scenarios::{DdnsScenario, RelayTreeSpec, StubTier, TrackNaming};
use moqdns_bench::worlds::{RelayWorld, TreeStub};
use std::time::Duration;

fn main() {
    // The paper's back-of-envelope first.
    let s = DdnsScenario::default();
    println!(
        "paper estimate: {} users x {} interested x {} updates/day x {} B \
         => {} globally (\"negligible at global scale\")\n",
        s.users,
        s.interested_per_user,
        s.updates_per_day,
        s.update_size,
        format_bps(s.global_bps())
    );

    // Now the mechanics, at home scale: 1 home server, 1 relay, 5 friends
    // subscribed to the home record through it.
    let ddns = RelayTreeSpec::ddns();
    let spec = RelayTreeSpec {
        naming: TrackNaming::Label("myhome"),
        stubs: StubTier {
            per_edge: 5,
            ..ddns.stubs
        },
        link_delay: Duration::from_millis(20),
        ..ddns
    };
    let mut w = RelayWorld::build(&spec, 42, 0);
    let (auth, relay, friend0) = (w.auth, w.edges()[0], w.stubs[0]);

    // The ISP renumbers the home connection twice today.
    for octet in [77, 142] {
        w.sim.run_for(Duration::from_secs(30));
        let changed = w.sim.now();
        w.update_track(0, octet);
        w.sim.run_for(Duration::from_secs(1));
        let friend = w.sim.node_ref::<TreeStub>(friend0);
        let latency = friend.last_update_at.map(|at| at - changed);
        println!(
            "[{changed}] home IP changed -> 203.0.113.{octet}; friend0 pushed \
             update #{} after {:?}",
            friend.updates,
            latency.unwrap_or(Duration::MAX)
        );
    }

    println!(
        "\nrelay aggregation: {} downstream subscriptions -> 1 upstream (factor {:.0})",
        w.stubs.len(),
        w.relay(relay).aggregation_factor()
    );
    let up = w.sim.stats().between(auth, relay).bytes;
    println!(
        "anchor egress for 2 updates to {} friends: {up} bytes (one copy per update)",
        w.stubs.len()
    );
}
