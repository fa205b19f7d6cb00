//! `sim-metro`: a two-tier relay tree at metro scale in the single-
//! threaded `Simulator`, built from `netsim::{Simulator, topo::TopoBuilder}`
//! and `core::{AuthServer, RelayNode, StubResolver}` only.
//!
//! Why: the mirror of the live workloads. Scheduler and per-node protocol
//! CPU across about 10k connections dominate and there are no sockets, so
//! an optimisation of `netsim` or of the core state machines shows here
//! and not in `live-*`, and an io-layer one shows there and not here.
//!
//! Shape: 1 auth → 4 mid relays → 32 edge relays (8 per mid) → 6,144
//! stubs (192 per edge). Each stub subscribes to a slice of 2 distinct
//! tracks out of 64, drawn Zipf(1.0) from the seed, and its access link
//! delay is drawn uniform in 2–30 ms. A join phase (handshake, SETUP,
//! subscribe and a joining-fetch stampede, every stub starting within
//! 500 ms of virtual time) is followed by a push phase of 18 update rounds
//! of all 64 tracks, one virtual second apart.
//!
//! Op: one subscription answered (join) or one (stub, track, version)
//! delivered (push). Latency is the virtual-time update lag, publish to
//! `UpdateSample.received`, over delivered updates: the paper's headline
//! quantity in the simulator's clock. Wall-clock cost shows in
//! `ops_per_s` and `cpu_us_per_op`.
//!
//! Baseline at the parent commit: 64 tracks × 18 rounds carry more than
//! 1,024 uni streams on every mid and edge uplink, so the tree goes deaf
//! after round 15 (ROADMAP item 1) and `fail_ratio` counts the shortfall
//! (0.158: 3 of 18 rounds never arrive). Each stub costs about 48 KB of
//! connection state (the stub's and its edge's), so the tree peaks near
//! 400 MB; that, and a scenario's ~8 s on one core, is why the tree has
//! 6,144 stubs with 2-track slices rather than 10k.

use crate::procfs;
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::timed::Timed;
use crate::trace;
use crate::{Args, Rng};
use moqdns_core::metrics::AnswerSource;
use moqdns_core::{AuthServer, RelayNode, StubMode, StubResolver, MOQT_PORT};
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_netsim::topo::TopoBuilder;
use moqdns_netsim::{splitmix64, Addr, LinkConfig, NodeId, SimTime, Simulator, Topology};
use moqdns_quic::TransportConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const ZONE: &str = "metro.moqdns.test";
const MIDS: usize = 4;
const EDGES: usize = 32;
const STUBS: usize = 6_144;
const TRACKS: usize = 64;
const SLICE: usize = 2;
const ZIPF_S: f64 = 1.0;
const JOIN_WINDOW: Duration = Duration::from_millis(500);
/// Join phase length (stampede plus settling).
const JOIN_END: Duration = Duration::from_millis(1500);
const ROUNDS: u64 = 18;
const ROUND_GAP: Duration = Duration::from_secs(1);
/// Virtual time per `run_until` slice (one span each when traced).
const SLICE_STEP: Duration = Duration::from_millis(10);
/// Relay object cache per track.
const RELAY_CACHE: usize = 4;
/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: usize = 15;

fn track(i: usize) -> Name {
    format!("t{i}.{ZONE}").parse().expect("valid track name")
}

fn txt(round: u64, at: SimTime) -> RData {
    RData::TXT(vec![
        format!("v={round}").into_bytes(),
        format!("ts={}", at.as_nanos()).into_bytes(),
    ])
}

fn transport() -> TransportConfig {
    TransportConfig::default()
        .idle_timeout(Duration::from_secs(3600))
        .keep_alive(Duration::from_secs(25))
}

/// The seeded inputs: each stub's track slice and access delay.
#[derive(Debug, Clone)]
struct Inputs {
    slices: Vec<Vec<usize>>,
    access: Vec<Duration>,
    join_at: Vec<Duration>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let weights: Vec<f64> = (0..TRACKS)
            .map(|k| 1.0 / ((k + 1) as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(TRACKS);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        let mut slices = Vec::with_capacity(STUBS);
        let mut access = Vec::with_capacity(STUBS);
        let mut join_at = Vec::with_capacity(STUBS);
        for _ in 0..STUBS {
            let mut slice = Vec::with_capacity(SLICE);
            while slice.len() < SLICE {
                let u = rng.f64();
                let t = cdf.partition_point(|&c| c < u).min(TRACKS - 1);
                if !slice.contains(&t) {
                    slice.push(t);
                }
            }
            slices.push(slice);
            access.push(Duration::from_micros(2_000 + rng.below(28_000)));
            join_at.push(Duration::from_micros(
                rng.below(JOIN_WINDOW.as_micros() as u64),
            ));
        }
        Inputs {
            slices,
            access,
            join_at,
        }
    }
}

/// A built tree.
struct World {
    sim: Simulator,
    topo: Topology,
    auth: NodeId,
    mids: Vec<NodeId>,
    edges: Vec<NodeId>,
    stubs: Vec<NodeId>,
}

fn build(seed: u64, inputs: &Inputs) -> World {
    let mut sim = Simulator::new(seed);
    let mut zone = Zone::with_default_soa(ZONE.parse().expect("valid zone"));
    for i in 0..TRACKS {
        zone.add_record(Record::new(track(i), 60, txt(0, SimTime::ZERO)));
    }
    let topo = TopoBuilder::new()
        .tier("auth", 1, 0, LinkConfig::instant())
        .tier(
            "mid",
            MIDS,
            1,
            LinkConfig::with_delay(Duration::from_millis(20)),
        )
        .tier(
            "edge",
            EDGES,
            1,
            LinkConfig::with_delay(Duration::from_millis(8)),
        )
        .tier(
            "stub",
            STUBS,
            1,
            LinkConfig::with_delay(Duration::from_millis(5)),
        )
        .build(&mut sim, |sim, ctx| {
            let up = |i: usize| Addr::new(ctx.parents[i], MOQT_PORT);
            // Node seeds pick QUIC connection ids (first cid = seed · K), so
            // they must look random, as real ids do: nearby seeds such as
            // `base + i` collide across tiers, and an edge that accepts a
            // stub whose cid equals its own uplink's loses that uplink.
            let s = splitmix64(splitmix64(seed) ^ ((ctx.tier as u64) << 48) ^ ctx.index as u64);
            let node: Box<dyn moqdns_netsim::Node> = match ctx.tier_name {
                "auth" => Box::new(Timed::new(
                    AuthServer::new(Authority::single(zone.clone()), transport(), s),
                    "core.auth",
                )),
                "mid" => Box::new(Timed::new(
                    RelayNode::new(up(0), RELAY_CACHE, s).tier("mid"),
                    "core.relay_mid",
                )),
                "edge" => Box::new(Timed::new(
                    RelayNode::new(up(0), RELAY_CACHE, s).tier("edge"),
                    "core.relay_edge",
                )),
                _ => Box::new(Timed::new(
                    StubResolver::new(StubMode::Moqt, up(0), s),
                    "core.stub",
                )),
            };
            sim.add_node(ctx.name.clone(), node)
        });
    let stubs = topo.tier_named("stub").to_vec();
    for (i, &s) in stubs.iter().enumerate() {
        let edge = topo.parents_of(s)[0];
        sim.set_link(s, edge, LinkConfig::with_delay(inputs.access[i]));
    }
    World {
        auth: topo.tier_named("auth")[0],
        mids: topo.tier_named("mid").to_vec(),
        edges: topo.tier_named("edge").to_vec(),
        stubs,
        topo,
        sim,
    }
}

/// Runs the simulator to `end` in traced slices; returns events run.
fn run_to(sim: &mut Simulator, end: SimTime) -> u64 {
    let mut events = 0;
    while sim.now() < end {
        let next = (sim.now() + SLICE_STEP).min(end);
        let _s = trace::span("netsim.run_until", None);
        events += sim.run_until(next);
    }
    events
}

/// One scenario's measurements.
struct Scenario {
    setup: Duration,
    join_wall: Duration,
    push_wall: Duration,
    joins: u64,
    delivered: u64,
    expected: u64,
    cpu_ns: u64,
    events: u64,
    lags_us: Vec<f64>,
    tier_bytes: [u64; 3],
    checks: Vec<(&'static str, bool, String)>,
    relay: RelayTotals,
}

#[derive(Debug, Default, Clone, Copy)]
struct RelayTotals {
    objects_forwarded: u64,
    upstream_fetches: u64,
    coalesced: u64,
    hits: u64,
    misses: u64,
    drops: u64,
    state_bytes: u64,
    downstream_subs: u64,
}

fn thread_cpu_ns() -> Result<u64, String> {
    procfs::this_thread_cpu()
        .map(|c| c.run_ns)
        .map_err(|e| format!("/proc/thread-self/schedstat: {e}"))
}

/// Schedules every stub's subscriptions (each with its joining fetch) and
/// runs the join phase; returns the events it ran.
fn join(w: &mut World, inputs: &Inputs, questions: &[Question]) -> u64 {
    let _phase = trace::phase("phase.join");
    for (i, &id) in w.stubs.iter().enumerate() {
        let qs: Vec<Question> = inputs.slices[i]
            .iter()
            .map(|&t| questions[t].clone())
            .collect();
        let at = SimTime::ZERO + inputs.join_at[i];
        w.sim.schedule_at(at, move |sim| {
            let _s = trace::span("core.stub", Some(i as u64));
            sim.with_node::<StubResolver, _>(id, |stub, ctx| {
                for q in qs {
                    stub.lookup(ctx, q);
                }
            });
        });
    }
    run_to(&mut w.sim, SimTime::ZERO + JOIN_END)
}

fn questions() -> Vec<Question> {
    (0..TRACKS)
        .map(|i| Question::new(track(i), RecordType::TXT))
        .collect()
}

/// Builds the tree and runs its join phase, untimed: the first scenario
/// in a process otherwise pays for faulting in a few hundred MB that
/// every later one reuses.
fn warm_up(seed: u64, inputs: &Inputs) {
    let mut w = build(seed, inputs);
    join(&mut w, inputs, &questions());
}

fn scenario(seed: u64, inputs: &Inputs) -> Result<Scenario, String> {
    let t0 = Instant::now();
    let mut w = build(seed, inputs);
    let setup = t0.elapsed();
    let cpu0 = thread_cpu_ns()?;
    let questions = questions();
    let tj = Instant::now();
    let mut events = join(&mut w, inputs, &questions);
    let join_wall = tj.elapsed();
    let joins: u64 = w
        .stubs
        .iter()
        .map(|&id| {
            let stub: &StubResolver = w.sim.node_ref(id);
            stub.metrics
                .lookups
                .iter()
                .filter(|l| l.source == AnswerSource::Moqt && l.ok)
                .count() as u64
        })
        .sum();
    w.sim.stats_mut().reset();

    // Push: every round republishes all tracks; record each round's group.
    let push_phase = trace::phase("phase.push");
    let auth = w.auth;
    let groups = Arc::new(Mutex::new(BTreeMap::new()));
    for r in 1..=ROUNDS {
        let at = SimTime::ZERO + JOIN_END + ROUND_GAP * r as u32;
        let groups = Arc::clone(&groups);
        w.sim.schedule_at(at, move |sim| {
            let _s = trace::span("core.auth", Some(r));
            let g = sim.with_node::<AuthServer, _>(auth, |a, ctx| {
                let now = ctx.now();
                a.update_zone(ctx, |authority| {
                    for i in 0..TRACKS {
                        let name = track(i);
                        if let Some(z) = authority.find_zone_mut(&name) {
                            z.set_records(
                                &name,
                                RecordType::TXT,
                                vec![Record::new(name.clone(), 60, txt(r, now))],
                            );
                        }
                    }
                });
                a.authority().zone_version_for(&track(0))
            });
            if let Some(g) = g {
                groups.lock().expect("round groups").insert(g, (r, at));
            }
        });
    }
    let tp = Instant::now();
    let end = SimTime::ZERO + JOIN_END + ROUND_GAP * (ROUNDS as u32 + 1);
    events += run_to(&mut w.sim, end);
    let push_wall = tp.elapsed();
    drop(push_phase);
    let cpu_ns = thread_cpu_ns()? - cpu0;
    let groups = groups.lock().expect("round groups").clone();
    let a = assess(&w, inputs, &questions, &groups);
    Ok(Scenario {
        setup,
        join_wall,
        push_wall,
        joins,
        delivered: a.delivered,
        expected: (STUBS * SLICE) as u64 * ROUNDS,
        cpu_ns,
        events,
        lags_us: a.lags_us,
        tier_bytes: tier_bytes(&w),
        checks: a.checks,
        relay: a.relay,
    })
}

struct Assessment {
    delivered: u64,
    lags_us: Vec<f64>,
    checks: Vec<(&'static str, bool, String)>,
    relay: RelayTotals,
}

/// Counts deliveries and checks the tree's outputs: versions strictly
/// monotone per (stub, track); exactly one copy of each update on every
/// relay uplink; no session drops.
fn assess(
    w: &World,
    inputs: &Inputs,
    questions: &[Question],
    groups: &BTreeMap<u64, (u64, SimTime)>,
) -> Assessment {
    let track_of: BTreeMap<&Question, usize> =
        questions.iter().enumerate().map(|(i, q)| (q, i)).collect();
    let mut delivered = 0u64;
    let mut lags = Vec::new();
    let mut non_monotone = 0u64;
    let mut unmapped = 0u64;
    // Per edge: track → (subscribers, rounds some subscriber received).
    let mut per_edge: BTreeMap<NodeId, BTreeMap<usize, (u64, BTreeSet<u64>)>> = BTreeMap::new();
    for (i, &s) in w.stubs.iter().enumerate() {
        let edge = w.topo.parents_of(s)[0];
        let e = per_edge.entry(edge).or_default();
        for &t in &inputs.slices[i] {
            e.entry(t).or_default().0 += 1;
        }
        let stub: &StubResolver = w.sim.node_ref(s);
        let mut last: BTreeMap<usize, u64> = BTreeMap::new();
        for u in &stub.metrics.updates {
            let Some(&t) = track_of.get(&u.question) else {
                unmapped += 1;
                continue;
            };
            if last.get(&t).is_some_and(|&g| u.version <= g) {
                non_monotone += 1;
            }
            last.insert(t, u.version);
            let Some(&(round, at)) = groups.get(&u.version) else {
                unmapped += 1;
                continue;
            };
            delivered += 1;
            lags.push(u.received.saturating_duration_since(at).as_secs_f64() * 1e6);
            e.entry(t).or_default().1.insert(round);
        }
    }

    let mut relay = RelayTotals::default();
    let mut copy_mismatch = Vec::new();
    let mut sub_mismatch = Vec::new();
    let mut tracks_under_mid: BTreeMap<NodeId, BTreeSet<usize>> = BTreeMap::new();
    for &e in &w.edges {
        let node: &RelayNode = w.sim.node_ref(e);
        let st = node.stats();
        let tracks = per_edge.get(&e).cloned().unwrap_or_default();
        // One copy per uplink: each version that arrives is forwarded once
        // per downstream subscriber, so the forwards are exactly
        // Σ_track |rounds received| × subscribers. A duplicate upstream
        // copy would add to the left side; a lost subscription would
        // subtract from it.
        let expect: u64 = tracks
            .values()
            .map(|(subs, rounds)| subs * rounds.len() as u64)
            .sum();
        if st.objects_forwarded != expect {
            copy_mismatch.push(format!("{e}: {} vs {expect}", st.objects_forwarded));
        }
        let n_tracks = tracks.len();
        if node.parent_subscription_count() != n_tracks || st.upstream_subscribes != n_tracks as u64
        {
            sub_mismatch.push(format!(
                "{e}: {} live / {} opened upstream for {n_tracks} tracks",
                node.parent_subscription_count(),
                st.upstream_subscribes
            ));
        }
        let mid = w.topo.parents_of(e)[0];
        tracks_under_mid
            .entry(mid)
            .or_default()
            .extend(tracks.keys());
    }
    for &m in &w.mids {
        let node: &RelayNode = w.sim.node_ref(m);
        let st = node.stats();
        let n_tracks = tracks_under_mid.get(&m).map_or(0, |t| t.len());
        if node.parent_subscription_count() != n_tracks || st.upstream_subscribes != n_tracks as u64
        {
            sub_mismatch.push(format!(
                "{m}: {} live / {} opened upstream for {n_tracks} tracks",
                node.parent_subscription_count(),
                st.upstream_subscribes
            ));
        }
    }
    for &r in w.mids.iter().chain(&w.edges) {
        let node: &RelayNode = w.sim.node_ref(r);
        let st = node.stats();
        relay.objects_forwarded += st.objects_forwarded;
        relay.upstream_fetches += st.upstream_fetches;
        relay.coalesced += st.fetch_coalesced;
        relay.hits += st.fetch_cache_hits;
        relay.misses += st.fetch_cache_misses;
        relay.drops += st.violations + st.dropped_datagrams;
        relay.state_bytes += node.state_size_estimate() as u64;
        relay.downstream_subs += st.downstream_subscribes;
    }
    let auth: &AuthServer = w.sim.node_ref(w.auth);
    let mid_tracks: usize = tracks_under_mid.values().map(BTreeSet::len).sum();
    let checks = vec![
        (
            "versions_strictly_monotone",
            non_monotone == 0,
            format!(
                "{non_monotone} pushes not newer than the previous one for their (stub, track)"
            ),
        ),
        (
            "pushes_are_published_rounds",
            unmapped == 0,
            format!("{unmapped} pushes with a group that is no published round"),
        ),
        (
            "one_copy_per_edge_uplink",
            copy_mismatch.is_empty(),
            format!("edge forwards vs Σ rounds received × subscribers: {copy_mismatch:?}"),
        ),
        (
            "one_upstream_sub_per_track",
            sub_mismatch.is_empty() && auth.stats.subscriptions_accepted == mid_tracks as u64,
            format!(
                "relays holding other than one uplink subscription per track: {sub_mismatch:?}; \
                 auth accepted {} for {mid_tracks} mid tracks",
                auth.stats.subscriptions_accepted
            ),
        ),
        (
            "session_drops_zero",
            relay.drops == 0,
            format!("moqt.session.drops = {}", relay.drops),
        ),
    ];
    Assessment {
        delivered,
        lags_us: lags,
        checks,
        relay,
    }
}

/// Push-phase link bytes (both directions) per tier: auth–mid, mid–edge,
/// edge–stub.
fn tier_bytes(w: &World) -> [u64; 3] {
    let stats = w.sim.stats();
    let mut out = [0u64; 3];
    for (parent, child) in w.topo.edges() {
        let tier = if parent == w.auth {
            0
        } else if w.mids.contains(&parent) {
            1
        } else {
            2
        };
        out[tier] += stats.between(child, parent).bytes + stats.between(parent, child).bytes;
    }
    out
}

/// Runs one pass of `sim-metro`: as many scenarios as fit in `seconds`
/// (one when traced), plus set-up-only builds until there are
/// [`MIN_SETUPS`] set-ups.
pub fn run(args: &Args, traced: bool, seconds: u64) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.seed);
    if !traced {
        warm_up(args.seed, &inputs);
    }
    // Scenarios back to back while the next one, as long as the last,
    // still ends inside `seconds` (always at least one).
    let t0 = Instant::now();
    let mut runs = Vec::new();
    loop {
        let t = Instant::now();
        runs.push(scenario(args.seed, &inputs)?);
        if traced || t0.elapsed() + t.elapsed() > Duration::from_secs(seconds) {
            break;
        }
    }
    let spans = trace::take();
    let mut setups: Vec<f64> = runs.iter().map(|s| s.setup.as_secs_f64()).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        let w = build(args.seed, &inputs);
        setups.push(t.elapsed().as_secs_f64());
        drop(w);
    }
    let first = &runs[0];
    let subs = (STUBS * SLICE) as u64;
    let mut out = Outcome {
        attempted: first.expected + subs,
        failed: first.expected.saturating_sub(first.delivered) + subs.saturating_sub(first.joins),
        ..Outcome::default()
    };
    for (name, ok, detail) in &first.checks {
        out.check(name, *ok, detail.clone());
    }
    let differ = runs[1..]
        .iter()
        .filter(|s| (s.delivered, s.events) != (first.delivered, first.events))
        .count();
    out.check(
        "scenarios_repeat_exactly",
        differ == 0,
        format!(
            "{differ} of {} repeat scenarios differ in deliveries or events",
            runs.len() - 1
        ),
    );
    let ops = first.joins + first.delivered;
    let lag = Samples::new(first.lags_us.clone());
    let n = lag.len() as u64;
    out.metric("latency_p50_us", lag.get(50.0).ok_or("no deliveries")?, n);
    out.metric(
        "latency_p99_us",
        lag.get(99.0).ok_or("fewer than 1,000 deliveries: no p99")?,
        n,
    );
    out.metric(
        "fail_ratio",
        out.failed as f64 / out.attempted as f64,
        out.attempted,
    );
    let per_run = |f: &dyn Fn(&Scenario) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    out.metric(
        "ops_per_s",
        per_run(&|s| ops as f64 / (s.join_wall + s.push_wall).as_secs_f64()),
        ops * runs.len() as u64,
    );
    out.metric(
        "cpu_us_per_op",
        per_run(&|s| s.cpu_ns as f64 / 1e3 / ops as f64),
        ops * runs.len() as u64,
    );
    out.metric(
        "wire_bytes_per_op",
        first.tier_bytes.iter().sum::<u64>() as f64 / first.delivered.max(1) as f64,
        first.delivered,
    );
    let rss = procfs::peak_rss_mb(std::process::id()).map_err(|e| e.to_string())?;
    out.metric("peak_rss_mb", rss, 1);
    out.metric("setup_s", median(&setups), setups.len() as u64);

    let (kernel, cpu) = procfs::kernel_and_cpu();
    out.notes.push(format!(
        "layout: nproc={} kernel={kernel} cpu=\"{cpu}\" link=simulated threads(sim=1) \
         scenarios={} stubs={STUBS} tracks={TRACKS} rounds={ROUNDS}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        runs.len()
    ));
    out.notes.push(format!(
        "scenario: joins={} delivered={}/{} events={} join_wall={:.3}s push_wall={:.3}s",
        first.joins,
        first.delivered,
        first.expected,
        first.events,
        first.join_wall.as_secs_f64(),
        first.push_wall.as_secs_f64()
    ));

    // Per-layer values (the traced pass supplies the span-based ones).
    let d = first.delivered.max(1) as f64;
    let r = first.relay;
    out.layer(
        "sim.join_per_s",
        Ok(per_run(&|s| s.joins as f64 / s.join_wall.as_secs_f64())),
    );
    out.layer(
        "sim.push_per_s",
        Ok(per_run(&|s| s.delivered as f64 / s.push_wall.as_secs_f64())),
    );
    out.layer("netsim.events", Ok(first.events as f64));
    out.layer(
        "netsim.link.bytes_per_update.auth_mid",
        Ok(first.tier_bytes[0] as f64 / d),
    );
    out.layer(
        "netsim.link.bytes_per_update.mid_edge",
        Ok(first.tier_bytes[1] as f64 / d),
    );
    out.layer(
        "netsim.link.bytes_per_update.edge_stub",
        Ok(first.tier_bytes[2] as f64 / d),
    );
    out.layer(
        "moqt.relay.objects_forwarded",
        Ok(r.objects_forwarded as f64),
    );
    out.layer("moqt.relay.upstream_fetches", Ok(r.upstream_fetches as f64));
    out.layer(
        "moqt.relay.fetch_coalesced_ratio",
        Ok(r.coalesced as f64 / r.misses.max(1) as f64),
    );
    out.layer(
        "moqt.relay.fetch_cache_hit_ratio",
        Ok(r.hits as f64 / (r.hits + r.misses).max(1) as f64),
    );
    out.layer("moqt.session.drops", Ok(r.drops as f64));
    out.layer(
        "core.relay.state_bytes_per_sub",
        Ok(r.state_bytes as f64 / r.downstream_subs.max(1) as f64),
    );
    for name in LIVE_ONLY {
        out.layer(name, Err("live daemons only"));
    }
    if traced {
        let t = trace::by_name(&spans);
        let get = |n: &str| t.get(n).copied().unwrap_or_default();
        for (layer, name) in [
            ("core.stub", ("core.stub.self_s", "core.stub.calls")),
            (
                "core.relay_edge",
                ("core.relay_edge.self_s", "core.relay_edge.calls"),
            ),
            (
                "core.relay_mid",
                ("core.relay_mid.self_s", "core.relay_mid.calls"),
            ),
            ("core.auth", ("core.auth.self_s", "core.auth.calls")),
        ] {
            let (own, _, calls) = get(layer);
            out.layer(name.0, Ok(own as f64 / 1e9));
            out.layer(name.1, Ok(calls as f64));
        }
        out.layer(
            "core.stub.self_us_per_op",
            Ok(get("core.stub").0 as f64 / 1e3 / ops as f64),
        );
        out.layer(
            "netsim.sched.self_s",
            Ok(get("netsim.run_until").0 as f64 / 1e9),
        );
        let with_node: u64 = spans
            .iter()
            .zip(trace::self_times(&spans))
            .filter(|(s, _)| s.op.is_some())
            .map(|(_, o)| o)
            .sum();
        out.layer("bench.with_node.self_s", Ok(with_node as f64 / 1e9));
        out.layer(
            "bench.observer.self_s",
            Err("no observers in the simulator"),
        );
        crate::write_spans(args, &spans);
    }
    Ok(out)
}

/// Per-layer rows only the live workloads can measure.
const LIVE_ONLY: [&str; 7] = [
    "relayd.relay.runq_wait_us_per_op",
    "relayd.relay.datagrams_per_op",
    "relayd.auth.cpu_us_per_op",
    "relayd.gen.host_self_us_per_op",
    "relayd.gen.lock_wait_us_p99",
    "relayd.gen.lateness_us_p99",
    "relayd.gen.cpu_share",
];
