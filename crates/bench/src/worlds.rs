//! Reusable simulated worlds for the experiments.
//!
//! * [`World`] — the E1–E9 resolution hierarchy (root → TLD → auth,
//!   recursive, stubs) built from a [`WorldSpec`];
//! * [`RelayWorld`] — the one relay-tree world every gated tree-family
//!   scenario runs, built from a [`RelayTreeSpec`] preset on a
//!   [`SimHandle`] (single-threaded or region-sharded);
//! * [`TreeStub`] — the counting MoQT subscriber leaf of those trees.

use moqdns_core::adversary::{ByzantineNode, FetchBombNode, SlowLorisNode};
use moqdns_core::auth::AuthServer;
use moqdns_core::mapping::{track_from_question, RequestFlags};
use moqdns_core::metrics::TierRelayStats;
use moqdns_core::node_ip;
use moqdns_core::recursive::{RecursiveConfig, RecursiveResolver, UpstreamMode};
use moqdns_core::relay_node::RelayNode;
use moqdns_core::stack::{MoqtStack, StackEvent};
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::teardown::TeardownPolicy;
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::name::Name;
use moqdns_dns::rdata::RData;
use moqdns_dns::resolver::RootHint;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_dns::server::Authority;
use moqdns_dns::zone::Zone;
use moqdns_moqt::relay::{track_hash, Failover, HashShard, RelayLimits, RoutePolicy, StaticParent};
use moqdns_moqt::session::SessionEvent;
use moqdns_netsim::topo::{ParentMode, TopoBuilder, TopoHost};
use moqdns_netsim::{
    run_plan, Addr, Ctx, FaultPlan, FaultPlanBuilder, LinkConfig, Node, NodeFault, NodeId, ParSim,
    Payload, SimTime, Simulator, Topology,
};
use moqdns_quic::{ConnHandle, TransportConfig};
use moqdns_workload::scenarios::{
    ChaosDrill, RelayPolicy, RelayTreeSpec, Slicing, ATTACKER_SEED, CHAOS_EDGE_SEED,
    CHAOS_STUB_SEED, WAVE_SEED, WAVE_SEED_STRIDE,
};
use std::any::Any;
use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::time::Duration;

/// Parameters of the standard three-level hierarchy world.
#[derive(Clone)]
pub struct WorldSpec {
    /// RNG seed.
    pub seed: u64,
    /// One-way delay of every link.
    pub link_delay: Duration,
    /// Recursive resolver upstream transport.
    pub mode: UpstreamMode,
    /// Stub transport.
    pub stub_mode: StubMode,
    /// Number of stub resolvers.
    pub n_stubs: usize,
    /// Host names (under example.com) with their TTLs.
    pub records: Vec<(String, u32)>,
    /// Enable §5.2 pipelined MoQT requests.
    pub pipeline: bool,
    /// Stub subscription teardown policy.
    pub stub_policy: TeardownPolicy,
    /// Recursive poll-proxy mode (§4.5).
    pub poll_proxy: bool,
    /// Override the recursive's MoQT step timeout (deep-space paths).
    pub moqt_step_timeout: Option<Duration>,
    /// Override the UDP retransmission timeout everywhere (deep space).
    pub udp_rto: Option<Duration>,
    /// Transport config for the authoritative servers (deep-space paths
    /// need long idle timeouts — the TIPTOP QUIC profile).
    pub auth_transport: Option<TransportConfig>,
}

impl Default for WorldSpec {
    fn default() -> WorldSpec {
        WorldSpec {
            seed: 1,
            link_delay: Duration::from_millis(10),
            mode: UpstreamMode::Moqt,
            stub_mode: StubMode::Moqt,
            n_stubs: 1,
            records: vec![("www".into(), 300)],
            pipeline: false,
            stub_policy: TeardownPolicy::Never,
            poll_proxy: false,
            moqt_step_timeout: None,
            udp_rto: None,
            auth_transport: None,
        }
    }
}

/// The built world.
pub struct World {
    /// The simulator.
    pub sim: Simulator,
    /// Root nameserver node.
    pub root: NodeId,
    /// TLD (.com) nameserver node.
    pub tld: NodeId,
    /// example.com authoritative node.
    pub auth: NodeId,
    /// Recursive resolver node.
    pub recursive: NodeId,
    /// Stub resolver nodes.
    pub stubs: Vec<NodeId>,
}

impl World {
    /// Builds the standard world from `spec`.
    pub fn build(spec: &WorldSpec) -> World {
        let mut sim = Simulator::new(spec.seed);
        sim.set_default_link(LinkConfig::with_delay(spec.link_delay));

        // Dense ids: root=0, tld=1, auth=2, recursive=3, stubs=4…
        let root_id = NodeId::from_index(0);
        let tld_id = NodeId::from_index(1);
        let auth_id = NodeId::from_index(2);

        let mut root_zone = Zone::with_default_soa(Name::root());
        root_zone.add_record(Record::new(
            "com".parse().unwrap(),
            86_400,
            RData::NS("ns.tld".parse().unwrap()),
        ));
        root_zone.add_record(Record::new(
            "ns.tld".parse().unwrap(),
            86_400,
            RData::A(node_ip(tld_id)),
        ));

        let mut tld_zone = Zone::with_default_soa("com".parse().unwrap());
        tld_zone.add_record(Record::new(
            "example.com".parse().unwrap(),
            86_400,
            RData::NS("ns1.example.com".parse().unwrap()),
        ));
        tld_zone.add_record(Record::new(
            "ns1.example.com".parse().unwrap(),
            86_400,
            RData::A(node_ip(auth_id)),
        ));

        let mut ex_zone = Zone::with_default_soa("example.com".parse().unwrap());
        for (i, (host, ttl)) in spec.records.iter().enumerate() {
            let name: Name = format!("{host}.example.com").parse().unwrap();
            let octet = (i % 250) as u8 + 1;
            ex_zone.add_record(Record::new(
                name,
                *ttl,
                RData::A(Ipv4Addr::new(192, 0, 2, octet)),
            ));
        }

        let auth_transport = spec.auth_transport.clone().unwrap_or_default();
        let root = sim.add_node(
            "root",
            Box::new(AuthServer::new(
                Authority::single(root_zone),
                auth_transport.clone(),
                11,
            )),
        );
        let tld = sim.add_node(
            "tld",
            Box::new(AuthServer::new(
                Authority::single(tld_zone),
                auth_transport.clone(),
                12,
            )),
        );
        let auth = sim.add_node(
            "auth",
            Box::new(AuthServer::new(
                Authority::single(ex_zone),
                auth_transport,
                13,
            )),
        );
        assert_eq!((root, tld, auth), (root_id, tld_id, auth_id));

        let roots = vec![RootHint {
            name: "a.root-servers.net".parse().unwrap(),
            addr: IpAddr::V4(node_ip(root)),
        }];
        let mut rec_cfg = RecursiveConfig::new(spec.mode, roots, 21);
        rec_cfg.poll_proxy = spec.poll_proxy;
        if let Some(t) = spec.moqt_step_timeout {
            rec_cfg.moqt_step_timeout = t;
        }
        if let Some(r) = spec.udp_rto {
            rec_cfg.udp_rto = r;
        }
        let mut rec = RecursiveResolver::new(rec_cfg);
        rec.set_pipeline(spec.pipeline);
        let recursive = sim.add_node("recursive", Box::new(rec));

        let mut stubs = Vec::with_capacity(spec.n_stubs);
        for i in 0..spec.n_stubs {
            let mut stub = StubResolver::with_policy(
                spec.stub_mode,
                Addr::new(recursive, 0),
                31 + i as u64,
                spec.stub_policy,
            );
            stub.set_pipeline(spec.pipeline);
            if let Some(r) = spec.udp_rto {
                stub.set_udp_rto(r);
            }
            stubs.push(sim.add_node(format!("stub{i}"), Box::new(stub)));
        }
        // Nodes with periodic sweep timers never go idle; just run the
        // start events.
        sim.run_for(Duration::from_millis(1));
        World {
            sim,
            root,
            tld,
            auth,
            recursive,
            stubs,
        }
    }

    /// The question for host `host` (under example.com).
    pub fn question(host: &str) -> Question {
        Question::new(
            format!("{host}.example.com").parse().unwrap(),
            RecordType::A,
        )
    }

    /// Issues a lookup from stub `i` and runs the sim for `settle`.
    pub fn lookup(&mut self, stub_index: usize, host: &str, settle: Duration) {
        let stub = self.stubs[stub_index];
        let q = Self::question(host);
        self.sim.with_node::<StubResolver, _>(stub, |s, ctx| {
            s.lookup(ctx, q);
        });
        let deadline = self.sim.now() + settle;
        self.sim.run_until(deadline);
    }

    /// Replaces host's A record at the authoritative server with a new
    /// address, triggering pushes. Returns the change time.
    pub fn update_record(&mut self, host: &str, new_octet: u8) -> moqdns_netsim::SimTime {
        let change_time = self.sim.now();
        let name: Name = format!("{host}.example.com").parse().unwrap();
        let ttl = 300;
        self.sim.with_node::<AuthServer, _>(self.auth, |a, ctx| {
            a.update_zone(ctx, |auth| {
                if let Some(z) = auth.find_zone_mut(&name) {
                    z.set_records(
                        &name,
                        RecordType::A,
                        vec![Record::new(
                            name.clone(),
                            ttl,
                            RData::A(Ipv4Addr::new(198, 51, 100, new_octet)),
                        )],
                    );
                }
            });
        });
        change_time
    }
}

/// A bare MoQT subscriber leaf for relay-tree worlds: connects to its
/// parent (an edge relay or server), subscribes to every question with a
/// joining fetch, and counts what arrives. Shared by the tree-scenario
/// binaries and the relay ablations so each doesn't hand-roll its own.
pub struct TreeStub {
    stack: MoqtStack,
    server: Option<Addr>,
    questions: Vec<Question>,
    /// Pushed updates received, total.
    pub updates: u64,
    /// Joining fetches answered with at least one object.
    pub fetched: u64,
    /// Pushed updates whose group id did not advance past the highest
    /// version already seen on that track — a duplicate or out-of-order
    /// delivery. The chaos drills gate this at zero: a link flap or a
    /// redial must never replay an already-delivered version.
    pub regressions: u64,
    /// Times the stub re-dialed its parent after losing the connection
    /// (only when [`TreeStub::redial_after`] is configured).
    pub redials: u64,
    /// Sim time the most recent pushed update arrived (per-region
    /// delivery latency: remote regions lag by the inter-region delay).
    pub last_update_at: Option<SimTime>,
    /// Subscription request id -> question index.
    sub_to_track: HashMap<u64, usize>,
    /// Highest group id delivered per question index (None until the
    /// first push).
    last_group: Vec<Option<u64>>,
    /// The live connection to the parent, if any.
    conn: Option<ConnHandle>,
    /// When set, a lost connection re-dials after this delay instead of
    /// staying dark — the crash/restart drills need leaves that come
    /// back. `None` (the default) keeps the historical never-reconnect
    /// behavior of every standing world.
    redial_delay: Option<Duration>,
}

/// Timer token the stub uses for its own redial alarm (distinct from
/// anything the QUIC stack arms; stack timers tolerate spurious
/// wakeups, so the shared `on_timer` pump stays correct).
const TOKEN_STUB_REDIAL: u64 = 0x5EED_D1A1;

impl TreeStub {
    /// A stub that will subscribe to `questions` at `server`, with the
    /// historical long-idle transport (patient: a partition never kills
    /// the connection, QUIC retransmission drains it on heal).
    pub fn new(server: Addr, questions: Vec<Question>, seed: u64) -> TreeStub {
        TreeStub::with_transport(
            server,
            questions,
            seed,
            TransportConfig::default()
                .idle_timeout(Duration::from_secs(3600))
                .keep_alive(Duration::from_secs(25)),
        )
    }

    /// A stub with an explicit transport config. The chaos drills use a
    /// short idle timeout so a dial into a crashed parent fails fast
    /// (PTO probes, then idle timeout, then the redial timer) instead of
    /// probing into the void for an hour.
    pub fn with_transport(
        server: Addr,
        questions: Vec<Question>,
        seed: u64,
        transport: TransportConfig,
    ) -> TreeStub {
        let n = questions.len();
        TreeStub {
            stack: MoqtStack::client(transport, seed),
            server: Some(server),
            questions,
            updates: 0,
            fetched: 0,
            regressions: 0,
            redials: 0,
            last_update_at: None,
            sub_to_track: HashMap::new(),
            last_group: vec![None; n],
            conn: None,
            redial_delay: None,
        }
    }

    /// Makes the stub re-dial its parent `delay` after a connection
    /// loss (and keep retrying at that cadence until it sticks).
    pub fn redial_after(mut self, delay: Duration) -> TreeStub {
        self.redial_delay = Some(delay);
        self
    }

    /// The stub goes offline: every connection closes (the
    /// CONNECTION_CLOSE lands at the relay, which tears the session and
    /// its subscriptions down) and it never reconnects. Used by the
    /// diurnal-wave drills — a departed stub must receive nothing more.
    pub fn leave(&mut self, ctx: &mut Ctx<'_>) {
        self.server = None;
        self.conn = None;
        self.stack.close_all(ctx, 0, "diurnal leave");
    }

    /// Connects to the parent and (re-)subscribes every question with a
    /// joining fetch. The per-track version high-water marks survive, so
    /// a post-redial replay of an old version still counts as a
    /// regression.
    fn dial(&mut self, ctx: &mut Ctx<'_>) {
        let Some(server) = self.server else { return };
        let Some(h) = self.stack.connect(ctx.now(), server, false) else {
            return;
        };
        self.conn = Some(h);
        self.sub_to_track.clear();
        for (i, q) in self.questions.clone().iter().enumerate() {
            let track = track_from_question(q, RequestFlags::iterative()).unwrap();
            if let Some((sess, conn)) = self.stack.session_conn(h) {
                let (sub_id, _fetch_id) = sess.subscribe_with_joining_fetch(conn, track, 1);
                self.sub_to_track.insert(sub_id, i);
            }
        }
        let now = ctx.now();
        let evs = self.stack.flush(ctx);
        self.collect(ctx, now, evs);
    }

    fn collect(&mut self, ctx: &mut Ctx<'_>, now: SimTime, evs: Vec<StackEvent>) {
        for e in evs {
            match e {
                StackEvent::Session(_, SessionEvent::SubscriptionObject { request_id, object }) => {
                    self.updates += 1;
                    self.last_update_at = Some(now);
                    if let Some(&i) = self.sub_to_track.get(&request_id) {
                        let g = object.group_id;
                        match self.last_group[i] {
                            Some(prev) if g <= prev => self.regressions += 1,
                            _ => self.last_group[i] = Some(g),
                        }
                    }
                }
                StackEvent::Session(_, SessionEvent::FetchObjects { objects, .. })
                    if !objects.is_empty() =>
                {
                    self.fetched += 1;
                }
                StackEvent::Closed(h) if self.conn == Some(h) => {
                    self.conn = None;
                    if let (Some(delay), Some(_)) = (self.redial_delay, self.server) {
                        ctx.set_timer(delay, TOKEN_STUB_REDIAL);
                    }
                }
                _ => {}
            }
        }
    }
}

impl Node for TreeStub {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.dial(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, from: Addr, _to: u16, d: Payload) {
        let now = ctx.now();
        let evs = self.stack.on_datagram(ctx, from, &d);
        self.collect(ctx, now, evs);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, t: u64) {
        if t == TOKEN_STUB_REDIAL && self.conn.is_none() && self.server.is_some() {
            self.redials += 1;
            self.dial(ctx);
            if self.conn.is_none() {
                // The dial itself failed (endpoint exhausted?): retry.
                ctx.set_timer(
                    self.redial_delay.unwrap_or(Duration::from_millis(500)),
                    TOKEN_STUB_REDIAL,
                );
            }
        }
        let now = ctx.now();
        let evs = self.stack.on_timer(ctx);
        self.collect(ctx, now, evs);
    }
    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
    fn as_any_ref(&self) -> &dyn Any {
        self
    }
}

/// Either a single-threaded [`Simulator`] or a sharded [`ParSim`].
///
/// [`RelayWorld`] builds against this handle so one construction path
/// drives both the CI-baseline run (single-threaded, bit-exact against
/// committed results) and the parallel run (one worker per region group,
/// conservative-lookahead barriers — see `moqdns_netsim::par`). Node
/// creation names the owning shard; the single-threaded variant ignores
/// it. Because every link in these worlds is lossless (the simulator's
/// RNG is never consulted on a lossless transmit) and every node carries
/// its own seeded RNG, the two variants produce identical delivery
/// traces — pinned by the `parallel_parity` tests for 1, 2, and N
/// workers.
pub enum SimHandle {
    /// One global event loop — the exact CI-baseline event stream.
    /// (Boxed: the simulator is hundreds of bytes of inline state and
    /// this enum is stored by value in every world.)
    Single(Box<Simulator>),
    /// Sharded, synchronized at conservative-lookahead barriers.
    Par(ParSim),
}

impl SimHandle {
    /// Creates a handle: `workers == 0` builds the single-threaded
    /// simulator, `workers >= 1` the sharded one (1 shard replays the
    /// exact single-threaded event stream through the parallel plumbing).
    pub fn new(seed: u64, workers: usize) -> SimHandle {
        if workers == 0 {
            SimHandle::Single(Box::new(Simulator::new(seed)))
        } else {
            SimHandle::Par(ParSim::new(seed, workers))
        }
    }

    /// Number of shards (1 for the single-threaded variant).
    pub fn workers(&self) -> usize {
        match self {
            SimHandle::Single(_) => 1,
            SimHandle::Par(p) => p.workers(),
        }
    }

    /// Adds a node owned by `shard` (ignored single-threaded).
    pub fn add_node(
        &mut self,
        shard: usize,
        name: impl Into<String>,
        node: Box<dyn Node>,
    ) -> NodeId {
        match self {
            SimHandle::Single(s) => s.add_node(name, node),
            SimHandle::Par(p) => p.add_node(shard, name, node),
        }
    }

    /// The shard owning `id` (0 single-threaded).
    pub fn shard_of(&self, id: NodeId) -> usize {
        match self {
            SimHandle::Single(_) => 0,
            SimHandle::Par(p) => p.owner_of(id),
        }
    }

    /// Sets the link configuration used for pairs without an override.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_default_link(cfg),
            SimHandle::Par(p) => p.set_default_link(cfg),
        }
    }

    /// Sets both directions of the link between `a` and `b`.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_link(a, b, cfg),
            SimHandle::Par(p) => p.set_link(a, b, cfg),
        }
    }

    /// Sets only the `src -> dst` direction of a link (asymmetric fault
    /// windows; the chaos plane uses this through
    /// [`moqdns_netsim::FaultHost`]).
    pub fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        match self {
            SimHandle::Single(s) => s.set_link_directed(src, dst, cfg),
            SimHandle::Par(p) => p.set_link_directed(src, dst, cfg),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        match self {
            SimHandle::Single(s) => s.now(),
            SimHandle::Par(p) => p.now(),
        }
    }

    /// Runs events until `deadline` (inclusive); returns events executed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        match self {
            SimHandle::Single(s) => s.run_until(deadline),
            SimHandle::Par(p) => p.run_until(deadline),
        }
    }

    /// Runs for `d` of simulated time from now.
    pub fn run_for(&mut self, d: Duration) -> u64 {
        match self {
            SimHandle::Single(s) => s.run_for(d),
            SimHandle::Par(p) => p.run_for(d),
        }
    }

    /// Runs `f` with mutable access to the concrete node `T` at `id`.
    pub fn with_node<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        match self {
            SimHandle::Single(s) => s.with_node(id, f),
            SimHandle::Par(p) => p.with_node(id, f),
        }
    }

    /// Immutable access to the concrete node `T` at `id`.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        match self {
            SimHandle::Single(s) => s.node_ref(id),
            SimHandle::Par(p) => p.node_ref(id),
        }
    }

    /// Human-readable node name.
    pub fn node_name(&self, id: NodeId) -> &str {
        match self {
            SimHandle::Single(s) => s.node_name(id),
            SimHandle::Par(p) => p.node_name(id),
        }
    }

    /// Traffic counters (merged across shards when sharded).
    pub fn stats(&self) -> moqdns_netsim::TrafficStats<'_> {
        match self {
            SimHandle::Single(s) => s.stats(),
            SimHandle::Par(p) => p.stats(),
        }
    }

    /// Mutable traffic counters (e.g. to reset after warm-up).
    pub fn stats_mut(&mut self) -> moqdns_netsim::TrafficStatsMut<'_> {
        match self {
            SimHandle::Single(s) => s.stats_mut(),
            SimHandle::Par(p) => p.stats_mut(),
        }
    }

    /// Enables the order-independent delivery digest.
    pub fn enable_delivery_digest(&mut self) {
        match self {
            SimHandle::Single(s) => s.enable_delivery_digest(),
            SimHandle::Par(p) => p.enable_delivery_digest(),
        }
    }

    /// The delivery digest (wrapping sum across shards when sharded).
    pub fn delivery_digest(&self) -> u64 {
        match self {
            SimHandle::Single(s) => s.delivery_digest(),
            SimHandle::Par(p) => p.delivery_digest(),
        }
    }
}

impl TopoHost for SimHandle {
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        SimHandle::set_link(self, a, b, cfg);
    }
}

impl moqdns_netsim::FaultHost for SimHandle {
    fn now(&self) -> SimTime {
        SimHandle::now(self)
    }
    fn run_until(&mut self, deadline: SimTime) {
        SimHandle::run_until(self, deadline);
    }
    fn set_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        SimHandle::set_link(self, a, b, cfg);
    }
    fn set_link_directed(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        SimHandle::set_link_directed(self, src, dst, cfg);
    }
}

/// Applies a [`moqdns_netsim::NodeFault`] to a [`RelayNode`] living in
/// `sim` — the
/// `on_node` callback the relay-tree chaos drills hand to
/// [`moqdns_netsim::run_plan`]. Crash sends CONNECTION_CLOSE everywhere
/// and goes dark ([`RelayNode::shutdown`]); restart re-initializes the
/// relay in place ([`RelayNode::revive`]) with its cumulative stats
/// intact.
pub fn apply_relay_fault(sim: &mut SimHandle, node: NodeId, fault: NodeFault) {
    sim.with_node::<RelayNode, _>(node, |relay, ctx| match fault {
        // Guarded so replaying an already-applied plan prefix (the
        // drills drive one plan in segments, pausing mid-window to push
        // an update round) is a no-op rather than a second shutdown or a
        // state-wiping double revive.
        NodeFault::Crash if !relay.is_dead() => relay.shutdown(ctx),
        NodeFault::Restart if relay.is_dead() => relay.revive(),
        _ => {}
    });
}

/// Which attacker hangs off the first edge relay of the hardening drill's
/// [`RelayWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Garbage control bytes, bogus-alias datagrams, duplicate request
    /// ids — the state machine must poison + close, counting violations.
    Byzantine,
    /// Subscribes to everything, then never drains — the backlog bound
    /// must evict the session.
    SlowLoris,
    /// Stampedes cold tracks with standalone fetches — the per-session
    /// fetch budget must throttle, then evict.
    FetchBomb,
}

impl AttackKind {
    /// Stable label for tables and gate metric names.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Byzantine => "byzantine",
            AttackKind::SlowLoris => "slow_loris",
            AttackKind::FetchBomb => "fetch_bomb",
        }
    }
}

impl AttackKind {
    /// The attacker node aimed at `target`, configured from the spec's
    /// [`Attack`](moqdns_workload::scenarios::Attack) (the slow-loris
    /// subscribes to `questions`).
    pub fn node(
        self,
        spec: &RelayTreeSpec,
        target: Addr,
        questions: Vec<Question>,
    ) -> Box<dyn Node> {
        let a = spec.attack.expect("the spec has no attacker");
        match self {
            AttackKind::Byzantine => {
                Box::new(ByzantineNode::new(target, a.interval, ATTACKER_SEED))
            }
            AttackKind::SlowLoris => Box::new(SlowLorisNode::new(target, questions, ATTACKER_SEED)),
            AttackKind::FetchBomb => Box::new(FetchBombNode::new(
                target,
                a.interval,
                a.fetch_burst,
                ATTACKER_SEED,
            )),
        }
    }
}

/// Stubs joining a built [`RelayWorld`] mid-run: a late edge's cold
/// cohort, the chaos redial cohort, a diurnal wave, a late joiner.
#[derive(Debug, Clone)]
pub struct Cohort {
    /// Stub `i` is named `"{name}{i}"`.
    pub name: String,
    /// Stubs in the cohort.
    pub stubs: usize,
    /// Stub `i` is seeded `seed + i`.
    pub seed: u64,
    /// Stub `i` takes the wave slice [`RelayTreeSpec::wave_slice_of`]
    /// instead of slice `i % slices`.
    pub wave: bool,
    /// Short-idle transport `(idle, keep_alive)` plus a redial delay, for
    /// stubs that must come back after their parent crashes; `None` keeps
    /// the patient hour-idle default.
    pub redial: Option<(Duration, Duration, Duration)>,
}

impl Cohort {
    /// `stubs` patient stubs named `"{name}{i}"`, seeded from `seed`,
    /// each on slice `i % slices`.
    pub fn new(name: impl Into<String>, stubs: usize, seed: u64) -> Cohort {
        Cohort {
            name: name.into(),
            stubs,
            seed,
            wave: false,
            redial: None,
        }
    }
}

/// The one simulated relay-tree world, built from a [`RelayTreeSpec`]:
///
/// ```text
///                 auth (origin)
///                /      |      \          relay tiers, top-down, each
///           tier[0] ══ tier[0] ══ …       StaticParent / Failover /
///             |  \       |                HashShard; a federated tier
///           tier[1] …  tier[1] …          full-mesh peers and anchors
///             |           |               one region per relay
///           stubs       stubs             (TreeStub leaves, sliced)
/// ```
///
/// Nodes are created tier by tier through `netsim::topo`, so every link's
/// traffic is observable through `sim.stats()`. The world runs on
/// [`SimHandle`]: `workers = 0` is the single-threaded CI-baseline
/// simulator, `workers >= 1` shards it by region (a node runs on its
/// region's shard `region % workers`; only the inter-region links cross
/// shards) with a bit-identical event history.
///
/// The verbs every scenario shares live here once: update a track or a
/// round, crash or restart a node ([`RelayWorld::fault`]), attach an
/// edge with a stub cohort ([`RelayWorld::attach`]), sum stub counters
/// over a node set, and per-tier relay stats. The chaos world's fault
/// drills are seeded [`FaultPlan`]s driven over
/// it.
pub struct RelayWorld {
    /// The simulator (single-threaded or sharded).
    pub sim: SimHandle,
    /// Tier/parent/peer bookkeeping from the builder.
    pub topo: Topology,
    /// The spec this world was built from.
    pub spec: RelayTreeSpec,
    /// Origin (authoritative) server node.
    pub auth: NodeId,
    /// Relay nodes, one list per relay tier (top-down).
    pub relays: Vec<Vec<NodeId>>,
    /// Resident stub nodes: stub `j` hangs off edge `j % edge_count` and
    /// subscribes to slice `spec.slice_of_stub(j)`.
    pub stubs: Vec<NodeId>,
    /// The questions, one per track.
    pub questions: Vec<Question>,
    /// The chaos world's crash-target edge (region 0).
    pub chaos_edge: Option<NodeId>,
    /// The redial cohort below [`RelayWorld::chaos_edge`].
    pub chaos_stubs: Vec<NodeId>,
    apex: Name,
    late_edges: usize,
    waves_added: usize,
}

/// Sets `name`'s A record to `addr` at the origin, triggering pushes.
fn set_record(auth: &mut AuthServer, ctx: &mut Ctx<'_>, apex: &Name, name: &Name, addr: Ipv4Addr) {
    auth.update_zone(ctx, |authority| {
        if let Some(z) = authority.find_zone_mut(apex) {
            z.set_records(
                name,
                RecordType::A,
                vec![Record::new(name.clone(), 60, RData::A(addr))],
            );
        }
    });
}

impl RelayWorld {
    /// Builds the world from `spec` on `workers` shards (`0` =
    /// single-threaded; clamped to the region count) and settles it for
    /// `spec.settle`: stubs connected, joining fetches answered, parent
    /// and peer subscriptions in place. A chaos spec then attaches the
    /// chaos edge and its redial cohort and settles again.
    pub fn build(spec: &RelayTreeSpec, seed: u64, workers: usize) -> RelayWorld {
        if let Slicing::Walk { .. } = spec.slicing {
            assert!(
                spec.stubs.per_edge >= spec.slices(),
                "every edge must see every slice for the fetch invariants"
            );
        }
        let mut sim = SimHandle::new(seed, workers.min(spec.regions()));
        let w = sim.workers();
        let intra = LinkConfig::with_delay(spec.link_delay);
        let inter = LinkConfig::with_delay(spec.peer_delay);
        sim.set_default_link(intra);

        let apex: Name = spec.apex.parse().unwrap();
        let mut zone = Zone::with_default_soa(apex.clone());
        let names = spec.track_names(seed);
        for (i, name) in names.iter().enumerate() {
            let addr = Ipv4Addr::new(192, 0, 2, (i % 250) as u8 + 1);
            zone.add_record(Record::new(name.clone(), 60, RData::A(addr)));
        }
        let questions: Vec<Question> = names
            .into_iter()
            .map(|name| Question::new(name, RecordType::A))
            .collect();

        let mut b = TopoBuilder::new().tier(spec.auth.name, 1, 0, intra);
        let mut above = 1;
        // First node id of each relay tier: creation is dense and
        // tier-ordered (auth = 0, asserted per node below), so a federated
        // core's peer addresses are known before its siblings exist.
        let mut first_id = Vec::new();
        for t in &spec.relays {
            first_id.push(first_id.last().map_or(1, |&f| f + above));
            let (parents, mode) = match t.policy {
                RelayPolicy::StaticParent => (1, ParentMode::Rotate),
                RelayPolicy::Failover => (2, ParentMode::Rotate),
                RelayPolicy::HashShard => (above, ParentMode::Aligned),
            };
            let link = if t.federated { inter } else { intra };
            b = b.tier_with_mode(t.name.clone(), t.count, parents, link, mode);
            above = t.count;
        }
        b = b.tier(spec.stubs.name, spec.stub_count(), 1, intra);
        for t in spec.relays.iter().filter(|t| t.federated) {
            b = b.peer_full_mesh(t.name.clone(), inter);
        }

        let auth_transport = match spec.auth.keep_alive {
            Some(k) => TransportConfig::default()
                .idle_timeout(Duration::from_secs(3600))
                .keep_alive(k),
            None => TransportConfig::default(),
        };
        // Region of every node created so far (by node index): a
        // federated relay anchors its own, everyone else inherits its
        // primary parent's. Shard = region % workers.
        let mut region: Vec<usize> = Vec::new();
        let topo = b.build(&mut sim, |sim, ctx| {
            let up = |i: usize| Addr::new(ctx.parents[i], MOQT_PORT);
            let inherited = ctx.parents.first().map_or(0, |p| region[p.index()]);
            let (node, reg): (Box<dyn Node>, usize) = match ctx.tier {
                0 => (
                    Box::new(AuthServer::new(
                        Authority::single(zone.clone()),
                        auth_transport.clone(),
                        spec.auth.seed,
                    )),
                    0,
                ),
                t if t <= spec.relays.len() => {
                    let tier = &spec.relays[t - 1];
                    let policy: Box<dyn RoutePolicy> = match tier.policy {
                        RelayPolicy::StaticParent => Box::new(StaticParent),
                        RelayPolicy::Failover => Box::new(Failover),
                        RelayPolicy::HashShard => Box::new(HashShard),
                    };
                    let parents = (0..ctx.parents.len()).map(up).collect();
                    let seed = tier.seed + ctx.index as u64;
                    let mut relay =
                        RelayNode::with_policy(parents, policy, 0, seed).tier(&tier.name);
                    if tier.federated {
                        let peers = (0..tier.count)
                            .filter(|&s| s != ctx.index)
                            .map(|s| Addr::new(NodeId::from_index(first_id[t - 1] + s), MOQT_PORT))
                            .collect();
                        relay = relay.peers(peers, ctx.index);
                    }
                    if let Some(l) = tier.limits {
                        relay = relay
                            .limits(RelayLimits {
                                max_outstanding_fetches_per_session: l.max_outstanding_fetches,
                                evict_after_throttles: l.evict_after_throttles,
                            })
                            .session_backlog(l.session_backlog);
                    }
                    let reg = if tier.federated { ctx.index } else { inherited };
                    (Box::new(relay), reg)
                }
                _ => {
                    let qs = spec
                        .slice_tracks(spec.slice_of_stub(ctx.index))
                        .map(|t| questions[t].clone())
                        .collect();
                    let seed = spec.stubs.seed + ctx.index as u64;
                    (Box::new(TreeStub::new(up(0), qs, seed)), inherited)
                }
            };
            let id = sim.add_node(reg % w, ctx.name.clone(), node);
            assert_eq!(id.index(), region.len(), "dense tier-ordered node ids");
            region.push(reg);
            id
        });

        let mut world = RelayWorld {
            auth: topo.tier(0)[0],
            stubs: topo.tier(spec.relays.len() + 1).to_vec(),
            relays: (1..=spec.relays.len())
                .map(|t| topo.tier(t).to_vec())
                .collect(),
            sim,
            topo,
            spec: spec.clone(),
            questions,
            chaos_edge: None,
            chaos_stubs: Vec::new(),
            apex,
            late_edges: 0,
            waves_added: 0,
        };
        world.sim.run_for(spec.settle);
        if let Some(c) = spec.chaos {
            let cohort = Cohort {
                redial: Some((c.stub_idle, c.stub_keep_alive, c.stub_redial)),
                ..Cohort::new("chaos-stub", c.stubs, CHAOS_STUB_SEED)
            };
            let core = world.cores()[0];
            let (edge, stubs) = world.attach(core, Some(("chaos-edge", CHAOS_EDGE_SEED)), &cohort);
            world.chaos_edge = Some(edge);
            world.chaos_stubs = stubs;
            world.sim.run_for(c.settle);
        }
        world
    }

    /// The first relay tier (the cores / hash shards).
    pub fn cores(&self) -> &[NodeId] {
        self.relays.first().map_or(&[], Vec::as_slice)
    }

    /// The last relay tier (the edges the stubs hang off).
    pub fn edges(&self) -> &[NodeId] {
        self.relays.last().map_or(&[], Vec::as_slice)
    }

    /// The relay node at `id`.
    pub fn relay(&self, id: NodeId) -> &RelayNode {
        self.sim.node_ref::<RelayNode>(id)
    }

    fn update_addr(&self, octet: u8) -> Ipv4Addr {
        let [a, b, c] = self.spec.update_net;
        Ipv4Addr::new(a, b, c, octet)
    }

    /// Replaces track `i`'s A record at the origin, triggering a push
    /// through the tree.
    pub fn update_track(&mut self, i: usize, octet: u8) {
        let (apex, name, addr) = (
            &self.apex,
            &self.questions[i].qname,
            self.update_addr(octet),
        );
        self.sim
            .with_node::<AuthServer, _>(self.auth, |a, ctx| set_record(a, ctx, apex, name, addr));
    }

    /// Schedules [`RelayWorld::update_track`] at absolute time `at`, as
    /// an event of the single-threaded simulator.
    pub fn schedule_update(&mut self, at: SimTime, i: usize, octet: u8) {
        let (auth, apex, name) = (
            self.auth,
            self.apex.clone(),
            self.questions[i].qname.clone(),
        );
        let addr = self.update_addr(octet);
        let SimHandle::Single(sim) = &mut self.sim else {
            panic!("scheduled updates need the single-threaded simulator");
        };
        sim.schedule_at(at, move |sim| {
            sim.with_node::<AuthServer, _>(auth, |a, ctx| set_record(a, ctx, &apex, &name, addr));
        });
    }

    /// Pushes one round of updates (track `i` gets `octet_base + i`)
    /// without advancing time — the chaos drills push mid-fault-window
    /// and let the fault plan drive the clock.
    pub fn push_round(&mut self, octet_base: u8) {
        for i in 0..self.questions.len() {
            self.update_track(i, octet_base.wrapping_add(i as u8));
        }
    }

    /// Pushes one round of updates and settles for the update interval.
    pub fn update_round(&mut self, octet_base: u8) {
        self.push_round(octet_base);
        self.sim.run_for(self.spec.update_interval);
    }

    /// Applies a crash or restart to `node`: relays through
    /// [`apply_relay_fault`]; the origin can only crash (it goes dark
    /// for good).
    pub fn fault(&mut self, node: NodeId, fault: NodeFault) {
        if node == self.auth {
            assert_eq!(fault, NodeFault::Crash, "the origin never restarts");
            self.sim
                .with_node::<AuthServer, _>(node, |a, ctx| a.shutdown(ctx));
        } else {
            apply_relay_fault(&mut self.sim, node, fault);
        }
    }

    /// Kills the origin mid-run.
    pub fn kill_origin(&mut self) {
        self.fault(self.auth, NodeFault::Crash);
    }

    /// Attaches `node` below `parent`: it runs on the parent's shard and
    /// links to it over the intra-region delay.
    pub fn attach_node(
        &mut self,
        parent: NodeId,
        name: impl Into<String>,
        node: Box<dyn Node>,
    ) -> NodeId {
        let id = self.sim.add_node(self.sim.shard_of(parent), name, node);
        self.sim
            .set_link(id, parent, LinkConfig::with_delay(self.spec.link_delay));
        id
    }

    /// Attaches `cohort` below `parent` — behind a fresh edge relay when
    /// `edge` names one (`(name, seed)`; its tier label is the name
    /// without a trailing index), straight to `parent` otherwise. Returns
    /// the cohort's parent and its stubs; run the sim to let their joins
    /// settle.
    pub fn attach(
        &mut self,
        parent: NodeId,
        edge: Option<(&str, u64)>,
        cohort: &Cohort,
    ) -> (NodeId, Vec<NodeId>) {
        let parent = match edge {
            Some((name, seed)) => {
                let label = name.trim_end_matches(|c: char| c.is_ascii_digit());
                let relay = RelayNode::new(Addr::new(parent, MOQT_PORT), 0, seed).tier(label);
                self.attach_node(parent, name, Box::new(relay))
            }
            None => parent,
        };
        let stubs = (0..cohort.stubs)
            .map(|i| {
                let slice = if cohort.wave {
                    self.spec.wave_slice_of(i)
                } else {
                    i % self.spec.slices()
                };
                let qs = self
                    .spec
                    .slice_tracks(slice)
                    .map(|t| self.questions[t].clone())
                    .collect();
                let server = Addr::new(parent, MOQT_PORT);
                let seed = cohort.seed + i as u64;
                let stub = match cohort.redial {
                    None => TreeStub::new(server, qs, seed),
                    Some((idle, keep_alive, redial)) => {
                        let t = TransportConfig::default()
                            .idle_timeout(idle)
                            .keep_alive(keep_alive);
                        TreeStub::with_transport(server, qs, seed, t).redial_after(redial)
                    }
                };
                self.attach_node(parent, format!("{}{i}", cohort.name), Box::new(stub))
            })
            .collect();
        (parent, stubs)
    }

    /// Adds a brand-new edge relay in `region` with `stubs` fresh stubs
    /// (stub `i` takes slice `i % slices`) — a cold cache joining after,
    /// e.g., the origin died. Seeds come from `spec.late`.
    pub fn add_late_edge(&mut self, region: usize, stubs: usize) -> (NodeId, Vec<NodeId>) {
        let n = self.late_edges;
        self.late_edges += 1;
        let l = self.spec.late;
        let cohort = Cohort::new(
            format!("late-stub{n}-"),
            stubs,
            l.stub_seed + n as u64 * l.stride,
        );
        let core = self.cores()[region];
        self.attach(
            core,
            Some((&format!("late-edge{n}"), l.edge_seed + n as u64)),
            &cohort,
        )
    }

    /// A diurnal wave dawns: `spec.waves.stubs_per_edge` transient stubs
    /// join under *every* edge, each subscribing its Zipf-popular slice.
    /// Returns the cohort (run the sim to let their joins settle).
    pub fn add_wave(&mut self) -> Vec<NodeId> {
        let wave = self.waves_added;
        self.waves_added += 1;
        let wv = self.spec.waves;
        let edges = self.edges().to_vec();
        let mut all = Vec::new();
        for (e, &edge) in edges.iter().enumerate() {
            let cohort = Cohort {
                wave: true,
                ..Cohort::new(
                    format!("wave{wave}-e{e}-"),
                    wv.stubs_per_edge,
                    WAVE_SEED + (wave * edges.len() + e) as u64 * WAVE_SEED_STRIDE,
                )
            };
            all.extend(self.attach(edge, None, &cohort).1);
        }
        all
    }

    /// The wave's dusk: every cohort stub goes offline (connections
    /// close; the edges tear their sessions down).
    pub fn leave_wave(&mut self, cohort: &[NodeId]) {
        for &s in cohort {
            self.sim
                .with_node::<TreeStub, _>(s, |stub, ctx| stub.leave(ctx));
        }
    }

    fn stub_sum(&self, nodes: &[NodeId], f: impl Fn(&TreeStub) -> u64) -> u64 {
        nodes
            .iter()
            .map(|&s| f(self.sim.node_ref::<TreeStub>(s)))
            .sum()
    }

    /// Pushed updates received across a stub set.
    pub fn cohort_updates(&self, nodes: &[NodeId]) -> u64 {
        self.stub_sum(nodes, |s| s.updates)
    }

    /// Fetch responses (joining + rejoin) answered across a stub set.
    pub fn cohort_fetched(&self, nodes: &[NodeId]) -> u64 {
        self.stub_sum(nodes, |s| s.fetched)
    }

    /// Duplicate / out-of-order deliveries across a stub set.
    pub fn cohort_regressions(&self, nodes: &[NodeId]) -> u64 {
        self.stub_sum(nodes, |s| s.regressions)
    }

    /// Pushed updates received across the resident stubs.
    pub fn delivered_updates(&self) -> u64 {
        self.cohort_updates(&self.stubs)
    }

    /// Joining fetches answered across the resident stubs.
    pub fn fetched_total(&self) -> u64 {
        self.cohort_fetched(&self.stubs)
    }

    /// Sums `f` over a relay set (e.g. upstream fetches of the edge tier).
    pub fn relay_sum(&self, nodes: &[NodeId], f: impl Fn(&RelayNode) -> u64) -> u64 {
        nodes.iter().map(|&r| f(self.relay(r))).sum()
    }

    /// Update datagrams delivered from the origin into the first tier.
    pub fn delivered_into_cores(&self) -> u64 {
        self.cores()
            .iter()
            .map(|&c| self.sim.stats().between(self.auth, c).delivered)
            .sum()
    }

    /// Per-tier relay stats, one entry per relay tier (top-down).
    pub fn tier_stats(&self) -> Vec<TierRelayStats> {
        self.spec
            .relays
            .iter()
            .zip(&self.relays)
            .map(|(t, ids)| {
                let mut tier = TierRelayStats::new(&t.name);
                for &id in ids {
                    let r = self.relay(id);
                    tier.accumulate(r.stats(), r.upstream_subscription_count());
                }
                tier
            })
            .collect()
    }

    /// The relay-to-relay links (origin→first tier and every primary
    /// relay→relay attachment) — the links the §3 one-copy invariant
    /// constrains. Stub attachments carry the fan-out and are excluded.
    pub fn upstream_links(&self) -> Vec<(NodeId, NodeId)> {
        self.topo
            .primary_edges()
            .filter(|(_, child)| self.relays.iter().any(|t| t.contains(child)))
            .collect()
    }

    /// The home core (hash shard) of track `i` — identical everywhere.
    pub fn home_core(&self, i: usize) -> usize {
        let track = track_from_question(&self.questions[i], RequestFlags::iterative()).unwrap();
        (track_hash(&track) % self.spec.shards() as u64) as usize
    }

    /// Tracks homed on core `c`.
    pub fn shard_size(&self, c: usize) -> usize {
        (0..self.questions.len())
            .filter(|&i| self.home_core(i) == c)
            .count()
    }

    /// Resident stubs whose edge lives in `region`.
    pub fn region_stubs(&self, region: usize) -> Vec<NodeId> {
        let edges = self.spec.edge_count();
        self.stubs
            .iter()
            .enumerate()
            .filter(|(j, _)| self.spec.region_of_edge(j % edges) == region)
            .map(|(_, &s)| s)
            .collect()
    }

    fn drill(&self) -> ChaosDrill {
        self.spec.chaos.expect("not a chaos world")
    }

    /// Pushed updates received across the chaos cohort.
    pub fn chaos_delivered(&self) -> u64 {
        self.cohort_updates(&self.chaos_stubs)
    }

    /// Fetch responses (joining + rejoin) answered across the cohort.
    pub fn chaos_fetched(&self) -> u64 {
        self.cohort_fetched(&self.chaos_stubs)
    }

    /// Per-stub redial counts for the cohort.
    pub fn chaos_redials(&self) -> Vec<u64> {
        self.chaos_stubs
            .iter()
            .map(|&s| self.sim.node_ref::<TreeStub>(s).redials)
            .collect()
    }

    /// Duplicate / out-of-order deliveries across the cohort **and** the
    /// resident stubs — the no-duplicate-across-faults invariant.
    pub fn total_regressions(&self) -> u64 {
        self.cohort_regressions(&self.chaos_stubs) + self.cohort_regressions(&self.stubs)
    }

    /// The core carrying the most hash-homed tracks — its origin uplink
    /// is the highest-impact link to flap.
    pub fn busiest_core(&self) -> usize {
        (0..self.spec.regions())
            .max_by_key(|&c| self.shard_size(c))
            .unwrap_or(0)
    }

    /// **Drill 1 — uplink flap.** Flaps the busiest core's origin uplink
    /// (loss → 1.0 both ways, delay untouched so the sharded lookahead
    /// bound holds) for the drill's `flap_len`, pushing one full update
    /// round mid-flap. The round's objects ride reliable streams, so they
    /// retransmit and deliver completely after the heal.
    pub fn flap_drill(&mut self, octet: u8) {
        let c = self.drill();
        let core = self.cores()[self.busiest_core()];
        let inter = LinkConfig::with_delay(self.spec.peer_delay);
        let t0 = self.sim.now() + Duration::from_secs(1);
        let t1 = t0 + c.flap_len;
        let plan = FaultPlanBuilder::new(c.fault_seed)
            .window_jitter(Duration::from_millis(50))
            .flap(self.auth, core, inter, t0, t1)
            .build();
        self.drive_segmented(&plan, t0 + c.flap_len / 2, octet, t1 + c.settle);
    }

    /// **Drill 2 — region partition.** Cuts every link into the drill's
    /// `partition_region` (origin uplink + all core peer links;
    /// intra-region links stay up) for `partition_len`, pushing one round
    /// mid-partition. The isolated region drains completely on reunion.
    pub fn partition_drill(&mut self, octet: u8) {
        let c = self.drill();
        let r = c.partition_region.min(self.spec.regions() - 1);
        let core = self.cores()[r];
        let inter = LinkConfig::with_delay(self.spec.peer_delay);
        let mut cut = vec![(self.auth, core, inter)];
        for (o, &peer) in self.cores().iter().enumerate() {
            if o != r {
                cut.push((peer, core, inter));
            }
        }
        let t0 = self.sim.now() + Duration::from_secs(1);
        let t1 = t0 + c.partition_len;
        let plan = FaultPlanBuilder::new(c.fault_seed ^ 0x2)
            .window_jitter(Duration::from_millis(50))
            .partition(&cut, t0, t1)
            .build();
        self.drive_segmented(&plan, t0 + c.partition_len / 2, octet, t1 + c.settle);
    }

    /// **Drill 3 — edge crash/restart.** Crashes the chaos edge
    /// (CONNECTION_CLOSE to every peer, then dark) for `edge_downtime`,
    /// pushing one round mid-downtime (the cohort is disconnected and must
    /// *not* receive it as a push — the rejoin fetch brings it current
    /// instead), restarting it, and settling long enough for every cohort
    /// stub to redial, re-handshake and resubscribe. Then pushes a
    /// post-recovery round that must reach the whole cohort.
    pub fn crash_drill(&mut self, mid_octet: u8, post_octet: u8) {
        let c = self.drill();
        let edge = self.chaos_edge.expect("chaos world has a chaos edge");
        let t0 = self.sim.now() + Duration::from_secs(1);
        let t1 = t0 + c.edge_downtime;
        let plan = FaultPlanBuilder::new(c.fault_seed ^ 0x3)
            .crash(edge, t0)
            .restart(edge, t1)
            .build();
        // Reconnect slack: a redial can land just before the restart and
        // only complete on a capped PTO retransmit of its ClientHello —
        // give the stragglers one idle-timeout cycle plus settle.
        let end = t1 + c.stub_idle + c.stub_redial + c.settle;
        self.drive_segmented(&plan, t0 + c.edge_downtime / 2, mid_octet, end);
        self.push_round(post_octet);
        self.sim.run_for(c.settle);
    }

    /// Drives `plan` to `mid`, pushes one update round, then drives it to
    /// `end`. The second segment re-applies the plan's already-applied
    /// prefix — safe: set-link events are idempotent config writes and
    /// [`apply_relay_fault`] guards crash/restart on the relay's state.
    fn drive_segmented(&mut self, plan: &FaultPlan, mid: SimTime, octet: u8, end: SimTime) {
        run_plan(&mut self.sim, plan, mid, apply_relay_fault);
        self.push_round(octet);
        run_plan(&mut self.sim, plan, end, apply_relay_fault);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every preset builds at smoke scale with the node counts its spec
    /// derives, and every resident (and chaos-cohort) joining fetch is
    /// answered.
    #[test]
    fn every_preset_builds_with_its_derived_counts() {
        for spec in [
            RelayTreeSpec::ddns_tree(),
            RelayTreeSpec::cdn_tree(),
            RelayTreeSpec::mesh(),
            RelayTreeSpec::federation(),
            RelayTreeSpec::metro(),
            RelayTreeSpec::planet(),
            RelayTreeSpec::chaos(),
            RelayTreeSpec::adversarial(),
            RelayTreeSpec::chain(),
            RelayTreeSpec::ddns(),
            RelayTreeSpec::relay_fanout(5, true),
            RelayTreeSpec::relay_fanout(5, false),
        ] {
            let spec = spec.smoke();
            let w = RelayWorld::build(&spec, 7, 0);
            let name = spec.name;
            assert_eq!(w.topo.tier_named(spec.auth.name), [w.auth], "{name}");
            for (tier, ids) in spec.relays.iter().zip(&w.relays) {
                assert_eq!(w.topo.tier_named(&tier.name), ids.as_slice(), "{name}");
                assert_eq!(ids.len(), tier.count, "{name}: {}", tier.name);
            }
            assert_eq!(w.stubs.len(), spec.stub_count(), "{name}");
            assert_eq!(w.fetched_total(), spec.subscription_count(), "{name}");
            let cohort = spec.chaos.map_or(0, |c| c.stubs);
            assert_eq!(w.chaos_stubs.len(), cohort, "{name}");
            assert_eq!(
                w.chaos_fetched(),
                spec.cohort_subscriptions(cohort),
                "{name}"
            );
        }
    }
}
