//! The §5.3 use-case parameter sets, with the paper's back-of-envelope
//! arithmetic reproduced exactly (experiments E6–E8), plus
//! [`RelayTreeSpec`]: one declarative description of every *simulated*
//! relay tree (auth → relay tiers → stubs) the gated scenarios run, with
//! one preset per scenario and every gate expectation derived from it.

use crate::toplist::Toplist;
use moqdns_dns::name::Name;
use std::time::Duration;

/// Dynamic DNS (paper §5.3, first scenario).
///
/// "Let us assume 100M users worldwide with 1,000 other users each
/// interested in their hosted services and involving 5 MoQ relays on
/// average. At two IP address updates per day and 300 B update size, this
/// would yield a globally distributed application layer update traffic of
/// some 5.5 Gbps."
#[derive(Debug, Clone, Copy)]
pub struct DdnsScenario {
    /// DDNS users hosting services.
    pub users: u64,
    /// Subscribers interested in each user's records.
    pub interested_per_user: u64,
    /// Average MoQ relays on each distribution path.
    pub relays_per_path: u64,
    /// Record updates per user per day.
    pub updates_per_day: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DdnsScenario {
    fn default() -> DdnsScenario {
        DdnsScenario {
            users: 100_000_000,
            interested_per_user: 1_000,
            relays_per_path: 5,
            updates_per_day: 2.0,
            update_size: 300,
        }
    }
}

impl DdnsScenario {
    /// Deliveries per day across the system: each update reaches every
    /// interested party once (the relay tree aggregates the distribution,
    /// so intermediate hops do not multiply delivered copies — this is the
    /// paper's arithmetic, which lands at ≈5.5 Gbps).
    pub fn messages_per_day(&self) -> f64 {
        self.users as f64 * self.updates_per_day * self.interested_per_user as f64
    }

    /// Hop-count-weighted transmissions per day: the same traffic counted
    /// at every relay hop (an upper bound on infrastructure load).
    pub fn hop_transmissions_per_day(&self) -> f64 {
        self.messages_per_day() * self.relays_per_path as f64
    }

    /// Global application-layer update traffic in bits per second — the
    /// paper's ≈5.5 Gbps figure.
    pub fn global_bps(&self) -> f64 {
        self.messages_per_day() * self.update_size as f64 * 8.0 / 86_400.0
    }
}

/// CDN load balancing via short-TTL records (paper §5.3, second scenario).
///
/// "Conservatively assuming that a stub resolver subscribes to 1,000
/// different domains and all domains are updated at the lowest observed
/// clustered TTL of 10 s with 300 B per update, we obtain a downstream
/// update traffic of 240 kbps."
#[derive(Debug, Clone, Copy)]
pub struct CdnScenario {
    /// Domains a stub resolver is subscribed to.
    pub subscribed_domains: u64,
    /// Update interval (the lowest observed clustered TTL).
    pub update_interval: Duration,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for CdnScenario {
    fn default() -> CdnScenario {
        CdnScenario {
            subscribed_domains: 1_000,
            update_interval: Duration::from_secs(10),
            update_size: 300,
        }
    }
}

impl CdnScenario {
    /// Downstream update traffic at one stub, bits per second — the
    /// paper's 240 kbps figure.
    pub fn stub_downstream_bps(&self) -> f64 {
        self.subscribed_domains as f64 * self.update_size as f64 * 8.0
            / self.update_interval.as_secs_f64()
    }
}

/// Deep space DNS replication (paper §5.3, third scenario; TIPTOP WG).
#[derive(Debug, Clone, Copy)]
pub struct DeepSpaceScenario {
    /// One-way light delay to the remote site (Mars: ~3 to ~22 minutes).
    pub one_way_delay: Duration,
    /// Domains replicated to the remote resolver.
    pub replicated_domains: u64,
    /// Update rate cap after throttling high-churn (load-balancing) records
    /// (§5.3: "forwarding of records for domains observed to provide high
    /// update rates could be throttled").
    pub max_updates_per_domain_per_hour: f64,
    /// Bytes per pushed update.
    pub update_size: u64,
}

impl Default for DeepSpaceScenario {
    fn default() -> DeepSpaceScenario {
        DeepSpaceScenario {
            one_way_delay: Duration::from_secs(8 * 60), // Mars, mid-range
            replicated_domains: 10_000,
            max_updates_per_domain_per_hour: 1.0,
            update_size: 300,
        }
    }
}

impl DeepSpaceScenario {
    /// Lookup latency without replication: a classic recursive lookup needs
    /// at least one round trip to Earth.
    pub fn lookup_latency_unreplicated(&self) -> Duration {
        self.one_way_delay * 2
    }

    /// Lookup latency with pub/sub replication: the record is already on
    /// the remote resolver.
    pub fn lookup_latency_replicated(&self) -> Duration {
        Duration::ZERO
    }

    /// Throttled update traffic on the deep-space link, bits per second.
    pub fn link_bps(&self) -> f64 {
        self.replicated_domains as f64
            * self.max_updates_per_domain_per_hour
            * self.update_size as f64
            * 8.0
            / 3600.0
    }
}

/// How track `i` is named under the zone apex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackNaming {
    /// `r{i}.<apex>`.
    Indexed,
    /// One track, `<label>.<apex>`.
    Label(&'static str),
    /// Toplist rank order: track `i` takes the first label of toplist
    /// rank `i + 1` (generated from the world seed).
    Toplist,
}

/// Which tracks stub `j` subscribes to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slicing {
    /// Every stub subscribes to every track.
    All,
    /// The track space is cut into `per_stub`-track slices and stub `j`
    /// takes slice `(j / edges) % slices`: consecutive stubs under one
    /// edge walk consecutive slices, so every edge sees every slice when
    /// it has at least `slices` stubs.
    Walk {
        /// Tracks per slice.
        per_stub: usize,
    },
    /// Rank slices picked by Zipf quantile with exponent `s`: the head
    /// slices hold most subscribers, tail slices thin out.
    Zipf {
        /// Tracks per slice.
        per_stub: usize,
        /// Zipf exponent (must match the toplist's).
        s: f64,
    },
}

/// How a relay tier picks its uplink per track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayPolicy {
    /// One parent: the round-robin primary in the tier above.
    StaticParent,
    /// Two parents (primary, then the next one round-robin) with
    /// failover between them.
    Failover,
    /// Every relay of the tier above in aligned order, tracks hash-sharded
    /// across them: uplink `i` names the same parent at every child.
    HashShard,
}

/// The origin tier.
#[derive(Debug, Clone, Copy)]
pub struct AuthTier {
    /// Tier (and node-name) label.
    pub name: &'static str,
    /// Stack seed.
    pub seed: u64,
    /// Keep-alive of the hour-idle origin transport; `None` runs the
    /// default transport.
    pub keep_alive: Option<Duration>,
}

/// Per-session abuse limits of a hardened relay tier.
#[derive(Debug, Clone, Copy)]
pub struct EdgeLimits {
    /// Outstanding upstream fetches one session may hold before
    /// throttling.
    pub max_outstanding_fetches: u32,
    /// Throttles a session survives before eviction.
    pub evict_after_throttles: u32,
    /// Bound on per-session unacked send backlog (bytes); a publish that
    /// finds the session above it evicts the session.
    pub session_backlog: usize,
}

/// One relay tier, attached below the tier above it.
#[derive(Debug, Clone)]
pub struct RelayTier {
    /// Tier label: topology tier name, node-name prefix and stats label.
    pub name: String,
    /// Relays in the tier.
    pub count: usize,
    /// Uplink policy (also fixes how many parents each relay gets).
    pub policy: RelayPolicy,
    /// A cross-region core federation: full-mesh peer links, slow
    /// inter-region uplinks, and relay `s` anchors region `s` (the
    /// region-to-shard rule: everything below it runs on shard `s % W`).
    pub federated: bool,
    /// Relay `j` is seeded `seed + j`.
    pub seed: u64,
    /// Tightened abuse limits, if any.
    pub limits: Option<EdgeLimits>,
}

impl RelayTier {
    /// A plain tier of `count` relays.
    pub fn new(name: impl Into<String>, count: usize, policy: RelayPolicy, seed: u64) -> RelayTier {
        RelayTier {
            name: name.into(),
            count,
            policy,
            federated: false,
            seed,
            limits: None,
        }
    }

    /// Makes this tier the federated core tier.
    pub fn federated(self) -> RelayTier {
        RelayTier {
            federated: true,
            ..self
        }
    }
}

/// The leaf tier: `per_edge` stubs under every relay of the last tier
/// (or under the origin when there are no relay tiers).
#[derive(Debug, Clone, Copy)]
pub struct StubTier {
    /// Tier label.
    pub name: &'static str,
    /// Stubs per parent.
    pub per_edge: usize,
    /// Stub `j` is seeded `seed + j`.
    pub seed: u64,
}

/// Seeds of the cold edges (and their stubs) joining after an origin
/// kill: late edge `n` is seeded `edge_seed + n`, its stub `i`
/// `stub_seed + n * stride + i`.
#[derive(Debug, Clone, Copy)]
pub struct LateJoin {
    /// Edge seed base.
    pub edge_seed: u64,
    /// Stub seed base.
    pub stub_seed: u64,
    /// Seed stride between successive late edges' cohorts.
    pub stride: u64,
}

/// Diurnal join/leave waves: each wave adds `stubs_per_edge` transient
/// stubs under every edge, stub `i` of wave `w` under edge `e` seeded
/// `WAVE_SEED + (w * edges + e) * WAVE_SEED_STRIDE + i`.
#[derive(Debug, Clone, Copy)]
pub struct Waves {
    /// Waves the scenario drives.
    pub count: usize,
    /// Transient stubs each wave adds under every edge.
    pub stubs_per_edge: usize,
}

/// Seed base of the diurnal wave cohorts.
pub const WAVE_SEED: u64 = 500_000;
/// Seed stride between successive (wave, edge) cohorts.
pub const WAVE_SEED_STRIDE: u64 = 1024;
/// Seed of the chaos drill's crash-target edge.
pub const CHAOS_EDGE_SEED: u64 = 5000;
/// Chaos cohort stub `i` is seeded `CHAOS_STUB_SEED + i`.
pub const CHAOS_STUB_SEED: u64 = 8000;
/// Stack seed of the hardening drill's attacker.
pub const ATTACKER_SEED: u64 = 900;

/// The chaos drill: an extra crash-target edge in region 0 with a cohort
/// of short-idle, auto-redialing stubs, and the fault windows driven over
/// the world (uplink flap, region partition, edge crash/restart).
#[derive(Debug, Clone, Copy)]
pub struct ChaosDrill {
    /// Subscribers on the crash-target edge (the redial cohort).
    pub stubs: usize,
    /// Idle timeout for the redial cohort: short, so a dial into a dead
    /// edge fails fast instead of probing into the void for an hour.
    pub stub_idle: Duration,
    /// Keep-alive interval for the redial cohort.
    pub stub_keep_alive: Duration,
    /// Redial cadence of the cohort after a lost connection.
    pub stub_redial: Duration,
    /// Length of the uplink flap window (covers an update round).
    pub flap_len: Duration,
    /// The region isolated by the partition drill.
    pub partition_region: usize,
    /// How long the partition holds.
    pub partition_len: Duration,
    /// How long the crashed edge stays down before its restart.
    pub edge_downtime: Duration,
    /// Settle time after the cohort joins and after each fault heals.
    pub settle: Duration,
    /// Seed for the fault plan's deterministic window jitter.
    pub fault_seed: u64,
}

impl ChaosDrill {
    /// Upper bound on dial attempts per cohort stub across the whole
    /// run: the downtime divided by the fastest possible
    /// redial-and-time-out cycle, plus slack for the reconnect race.
    pub fn redials_per_stub_bound(&self) -> u64 {
        let cycle = (self.stub_idle + self.stub_redial).as_millis().max(1);
        (self.edge_downtime.as_millis() / cycle) as u64 + 3
    }
}

/// The attacker of the hardening drill (it targets the first edge).
#[derive(Debug, Clone, Copy)]
pub struct Attack {
    /// Attack cadence (byzantine + fetch-bomb tick).
    pub interval: Duration,
    /// Standalone cold-track FETCHes per fetch-bomb tick.
    pub fetch_burst: u32,
}

/// Caps the CI smoke variant applies (`usize::MAX`/`u64::MAX` = keep).
#[derive(Debug, Clone, Copy)]
pub struct Smoke {
    /// Relays in the last relay tier.
    pub edges: usize,
    /// Stubs per edge.
    pub stubs_per_edge: usize,
    /// Tracks.
    pub tracks: usize,
    /// Tracks per slice.
    pub tracks_per_stub: usize,
    /// Update rounds.
    pub updates_per_track: u64,
    /// Wave stubs per edge.
    pub wave_stubs_per_edge: usize,
}

/// No smoke caps: every count kept.
const KEEP: Smoke = Smoke {
    edges: usize::MAX,
    stubs_per_edge: usize::MAX,
    tracks: usize::MAX,
    tracks_per_stub: usize::MAX,
    updates_per_track: u64::MAX,
    wave_stubs_per_edge: usize::MAX,
};

/// One simulated relay tree, as data: `moqdns-bench` builds it into a
/// `RelayWorld` (one `TopoBuilder` tier per entry, node creation in tier
/// order) and every gated tree-family scenario is a preset below.
///
/// Every node seed, node name, link delay and creation order is part of
/// the spec, so a preset replays its scenario's event stream exactly, and
/// every gate expectation (deliveries, coalesced-fetch bounds, Zipf
/// demand maps) is a pure function of it.
#[derive(Debug, Clone)]
pub struct RelayTreeSpec {
    /// Scenario label.
    pub name: &'static str,
    /// Zone apex the tracks live under.
    pub apex: &'static str,
    /// Track naming.
    pub naming: TrackNaming,
    /// Distinct records (tracks).
    pub tracks: usize,
    /// Which tracks each stub subscribes to.
    pub slicing: Slicing,
    /// Updated records get `A <update_net>.<octet>`.
    pub update_net: [u8; 3],
    /// The origin.
    pub auth: AuthTier,
    /// Relay tiers, top-down.
    pub relays: Vec<RelayTier>,
    /// The leaf tier.
    pub stubs: StubTier,
    /// One-way delay of every intra-region link (and the default link).
    pub link_delay: Duration,
    /// One-way delay of inter-region links (federated uplinks and peer
    /// links) — deliberately slower so the latency asymmetry shows.
    pub peer_delay: Duration,
    /// Simulated time the build runs before anyone measures.
    pub settle: Duration,
    /// Update rounds pushed per track during the measured window.
    pub updates_per_track: u64,
    /// Gap between update rounds.
    pub update_interval: Duration,
    /// Cold edges joining mid-run.
    pub late: LateJoin,
    /// Diurnal waves.
    pub waves: Waves,
    /// The chaos drill, if this is the chaos world.
    pub chaos: Option<ChaosDrill>,
    /// The attacker, if this is the hardening drill.
    pub attack: Option<Attack>,
    /// The caps [`RelayTreeSpec::smoke`] applies.
    pub smoke_caps: Smoke,
}

/// Long-lived origin transport with the standard 25 s keep-alive.
const AUTH: AuthTier = AuthTier {
    name: "auth",
    seed: 11,
    keep_alive: Some(Duration::from_secs(25)),
};

/// One stub per edge, seeded from 100.
const STUBS: StubTier = StubTier {
    name: "stub",
    per_edge: 1,
    seed: 100,
};

impl RelayTreeSpec {
    /// The skeleton every preset starts from: no relays, one track.
    fn base(name: &'static str, apex: &'static str) -> RelayTreeSpec {
        RelayTreeSpec {
            name,
            apex,
            naming: TrackNaming::Indexed,
            tracks: 1,
            slicing: Slicing::All,
            update_net: [198, 51, 100],
            auth: AUTH,
            relays: Vec::new(),
            stubs: STUBS,
            link_delay: Duration::from_millis(15),
            peer_delay: Duration::from_millis(15),
            settle: Duration::from_secs(5),
            updates_per_track: 1,
            update_interval: Duration::from_secs(5),
            late: LateJoin {
                edge_seed: 600,
                stub_seed: 700,
                stride: 16,
            },
            waves: Waves {
                count: 0,
                stubs_per_edge: 0,
            },
            chaos: None,
            attack: None,
            smoke_caps: KEEP,
        }
    }

    /// The §5.3 3-tier tree (auth → 2 tier-1 relays → 4 failover edges →
    /// stubs), common to the DDNS and CDN flavours.
    fn tree(name: &'static str, stubs_per_edge: usize, tracks: usize) -> RelayTreeSpec {
        RelayTreeSpec {
            tracks,
            relays: vec![
                RelayTier::new("tier1", 2, RelayPolicy::StaticParent, 40),
                RelayTier::new("edge", 4, RelayPolicy::Failover, 60),
            ],
            stubs: StubTier {
                per_edge: stubs_per_edge,
                ..STUBS
            },
            smoke_caps: Smoke {
                stubs_per_edge: 2,
                tracks: 2,
                updates_per_track: 2,
                ..KEEP
            },
            ..Self::base(name, "tree.example")
        }
    }

    /// DDNS flavour (§5.3 first scenario, scaled down): few records with
    /// a burst of address changes, fanned out through the tree.
    pub fn ddns_tree() -> RelayTreeSpec {
        RelayTreeSpec {
            updates_per_track: 3,
            ..Self::tree("ddns-tree", 16, 2)
        }
    }

    /// CDN flavour (§5.3 second scenario, scaled down): more records on a
    /// short-TTL update cadence.
    pub fn cdn_tree() -> RelayTreeSpec {
        RelayTreeSpec {
            updates_per_track: 2,
            update_interval: Duration::from_secs(10),
            ..Self::tree("cdn-tree", 8, 8)
        }
    }

    /// The multi-region hash-shard mesh: origin → 3 cores (one shard
    /// each) → 3 regions × 2 edges hash-sharding across *all* cores →
    /// stubs. Pins that sharding preserves aggregation, that a joining
    /// stampede coalesces to one fetch per track, and that a core kill
    /// ring-walks its shard and a revival rebalances it home.
    pub fn mesh() -> RelayTreeSpec {
        RelayTreeSpec {
            tracks: 6,
            relays: vec![
                RelayTier::new("core", 3, RelayPolicy::StaticParent, 40),
                RelayTier::new("edge", 6, RelayPolicy::HashShard, 60),
            ],
            stubs: StubTier {
                per_edge: 8,
                ..STUBS
            },
            updates_per_track: 3,
            smoke_caps: Smoke {
                edges: 4,
                stubs_per_edge: 2,
                tracks: 4,
                updates_per_track: 2,
                ..KEEP
            },
            ..Self::base("mesh", "mesh.example")
        }
    }

    /// The cross-region core federation: origin → 3 federated cores (one
    /// shard each, full-mesh peer links) → 2 region-local edges per
    /// region → stubs. Pins origin offload (non-home cores fetch from the
    /// home *peer*), one copy per inter-region link, and origin
    /// independence (cold edges joining after the origin dies are served
    /// region-to-region).
    pub fn federation() -> RelayTreeSpec {
        RelayTreeSpec {
            tracks: 6,
            relays: vec![
                RelayTier::new("core", 3, RelayPolicy::StaticParent, 40).federated(),
                RelayTier::new("edge", 6, RelayPolicy::StaticParent, 60),
            ],
            stubs: StubTier {
                per_edge: 4,
                ..STUBS
            },
            link_delay: Duration::from_millis(10),
            peer_delay: Duration::from_millis(40),
            updates_per_track: 3,
            smoke_caps: Smoke {
                stubs_per_edge: 2,
                tracks: 4,
                updates_per_track: 2,
                ..KEEP
            },
            ..Self::base("federation", "fed.example")
        }
    }

    /// The metro-scale federation: 3 regions × 4 edges × 833 stubs =
    /// 9,996 subscribers over 64 tracks, each stub on an 8-track slice.
    /// Its full-size run is the simulator's wall-clock benchmark.
    pub fn metro() -> RelayTreeSpec {
        RelayTreeSpec {
            tracks: 64,
            slicing: Slicing::Walk { per_stub: 8 },
            auth: AuthTier {
                keep_alive: Some(Duration::from_secs(60)),
                ..AUTH
            },
            relays: vec![
                RelayTier::new("core", 3, RelayPolicy::StaticParent, 40).federated(),
                RelayTier::new("edge", 12, RelayPolicy::StaticParent, 60),
            ],
            stubs: StubTier {
                per_edge: 833,
                ..STUBS
            },
            link_delay: Duration::from_millis(5),
            peer_delay: Duration::from_millis(30),
            settle: Duration::from_secs(10),
            updates_per_track: 2,
            update_interval: Duration::from_secs(2),
            late: LateJoin {
                edge_seed: 6000,
                stub_seed: 7000,
                stride: 64,
            },
            smoke_caps: Smoke {
                edges: 6,
                stubs_per_edge: 8,
                tracks: 16,
                tracks_per_stub: 2,
                ..KEEP
            },
            ..Self::base("metro", "metro.example")
        }
    }

    /// The planet-scale federation: 24 regions × 8 edges × 521 stubs =
    /// 100,032 residents over 96 toplist-named tracks with Zipf-popular
    /// slices, plus 2 diurnal waves of 16 transient stubs per edge.
    /// Smoke keeps the 24 regions, 12 slices and 2 waves.
    pub fn planet() -> RelayTreeSpec {
        RelayTreeSpec {
            naming: TrackNaming::Toplist,
            tracks: 96,
            slicing: Slicing::Zipf {
                per_stub: 8,
                s: 1.0,
            },
            relays: vec![
                RelayTier::new("core", 24, RelayPolicy::StaticParent, 40).federated(),
                RelayTier::new("edge", 192, RelayPolicy::StaticParent, 60),
            ],
            stubs: StubTier {
                per_edge: 521,
                ..STUBS
            },
            waves: Waves {
                count: 2,
                stubs_per_edge: 16,
            },
            smoke_caps: Smoke {
                edges: 24,
                stubs_per_edge: 12,
                tracks: 24,
                tracks_per_stub: 2,
                wave_stubs_per_edge: 2,
                ..KEEP
            },
            ..Self::metro()
        }
        .named("planet", "planet.example")
    }

    /// The chaos drill on the metro world: flap the busiest origin→core
    /// uplink through a round, partition one region for 10 s, and
    /// crash+restart an edge with a live redial cohort below it. Smoke
    /// shrinks only the metro population; every fault window keeps its
    /// full length.
    pub fn chaos() -> RelayTreeSpec {
        RelayTreeSpec {
            chaos: Some(ChaosDrill {
                stubs: 8,
                stub_idle: Duration::from_secs(4),
                stub_keep_alive: Duration::from_secs(1),
                stub_redial: Duration::from_millis(500),
                flap_len: Duration::from_secs(3),
                partition_region: 1,
                partition_len: Duration::from_secs(10),
                edge_downtime: Duration::from_secs(12),
                settle: Duration::from_secs(5),
                fault_seed: 0xC4A05,
            }),
            ..Self::metro()
        }
        .named("chaos", "metro.example")
    }

    /// The paper's depth-5 relay chain ("involving 5 MoQ relays on
    /// average", §5.3): origin → hop1 … hop5 → stubs.
    pub fn chain() -> RelayTreeSpec {
        RelayTreeSpec {
            tracks: 4,
            relays: (1..=5)
                .map(|i| RelayTier::new(format!("hop{i}"), 1, RelayPolicy::StaticParent, 40))
                .collect(),
            stubs: StubTier {
                per_edge: 8,
                ..STUBS
            },
            link_delay: Duration::from_millis(10),
            updates_per_track: 3,
            update_interval: Duration::from_secs(2),
            smoke_caps: Smoke {
                stubs_per_edge: 3,
                tracks: 2,
                updates_per_track: 2,
                ..KEEP
            },
            ..Self::base("chain", "chain.example")
        }
    }

    /// The hardening drill: origin → core → 2 edges with tightened abuse
    /// limits → honest stubs, one attacker on the first edge. Smoke keeps
    /// the 8 update rounds: the slow-loris eviction needs enough
    /// pushed-and-unacked updates to cross the backlog bound.
    pub fn adversarial() -> RelayTreeSpec {
        let mut edge = RelayTier::new("edge", 2, RelayPolicy::StaticParent, 60);
        edge.limits = Some(EdgeLimits {
            max_outstanding_fetches: 16,
            evict_after_throttles: 64,
            session_backlog: 4 * 1024,
        });
        RelayTreeSpec {
            tracks: 8,
            relays: vec![
                RelayTier::new("core", 1, RelayPolicy::StaticParent, 40),
                edge,
            ],
            stubs: StubTier {
                per_edge: 3,
                ..STUBS
            },
            link_delay: Duration::from_millis(10),
            updates_per_track: 8,
            update_interval: Duration::from_secs(2),
            attack: Some(Attack {
                interval: Duration::from_millis(500),
                fetch_burst: 48,
            }),
            smoke_caps: Smoke {
                stubs_per_edge: 2,
                tracks: 6,
                ..KEEP
            },
            ..Self::base("adversarial", "adv.example")
        }
    }

    /// The E6 DDNS micro-simulation: one DDNS record behind one relay,
    /// 20 interested subscribers (5 in smoke), two address changes.
    pub fn ddns() -> RelayTreeSpec {
        RelayTreeSpec {
            naming: TrackNaming::Label("home"),
            update_net: [203, 0, 113],
            auth: AuthTier {
                name: "ddns-auth",
                seed: 1,
                keep_alive: None,
            },
            relays: vec![RelayTier::new("relay", 1, RelayPolicy::StaticParent, 2)],
            stubs: StubTier {
                name: "sub",
                per_edge: 20,
                seed: 10,
            },
            updates_per_track: 2,
            update_interval: Duration::from_secs(10),
            smoke_caps: Smoke {
                stubs_per_edge: 5,
                ..KEEP
            },
            ..Self::base("ddns", "ddns.example")
        }
    }

    /// The A3 fan-out ablation: `subs` subscribers of one record, through
    /// one relay or straight off the origin, 10 updates (3 in smoke).
    pub fn relay_fanout(subs: usize, via_relay: bool) -> RelayTreeSpec {
        RelayTreeSpec {
            naming: TrackNaming::Label("www"),
            update_net: [203, 0, 113],
            auth: AuthTier {
                seed: 1,
                keep_alive: None,
                ..AUTH
            },
            relays: if via_relay {
                vec![RelayTier::new("relay", 1, RelayPolicy::StaticParent, 2)]
            } else {
                Vec::new()
            },
            stubs: StubTier {
                name: "sub",
                per_edge: subs,
                seed: 100,
            },
            updates_per_track: 10,
            update_interval: Duration::from_secs(1),
            smoke_caps: Smoke {
                updates_per_track: 3,
                ..KEEP
            },
            ..Self::base("relay_fanout", "pop.example")
        }
    }

    fn named(self, name: &'static str, apex: &'static str) -> RelayTreeSpec {
        RelayTreeSpec { name, apex, ..self }
    }

    /// The CI smoke variant: the preset's caps applied, shape kept.
    pub fn smoke(mut self) -> RelayTreeSpec {
        let c = self.smoke_caps;
        if let Some(edge) = self.relays.last_mut() {
            edge.count = edge.count.min(c.edges);
        }
        self.stubs.per_edge = self.stubs.per_edge.min(c.stubs_per_edge);
        self.tracks = self.tracks.min(c.tracks);
        if let Slicing::Walk { per_stub } | Slicing::Zipf { per_stub, .. } = &mut self.slicing {
            *per_stub = (*per_stub).min(c.tracks_per_stub);
        }
        self.updates_per_track = self.updates_per_track.min(c.updates_per_track);
        self.waves.stubs_per_edge = self.waves.stubs_per_edge.min(c.wave_stubs_per_edge);
        self
    }

    /// The zone records, one per track, named per [`TrackNaming`].
    /// `seed` is the world seed (it generates the toplist).
    pub fn track_names(&self, seed: u64) -> Vec<Name> {
        let name = |first: &str| format!("{first}.{}", self.apex).parse().unwrap();
        match self.naming {
            TrackNaming::Indexed => (0..self.tracks).map(|i| name(&format!("r{i}"))).collect(),
            TrackNaming::Label(label) => {
                assert_eq!(self.tracks, 1, "a labelled spec has one track");
                vec![name(label)]
            }
            TrackNaming::Toplist => {
                let toplist = Toplist::generate(self.tracks, seed);
                if let Slicing::Zipf { s, .. } = self.slicing {
                    assert_eq!(
                        toplist.zipf_exponent(),
                        s,
                        "spec popularity must match the toplist's Zipf exponent"
                    );
                }
                toplist
                    .domains()
                    .iter()
                    .map(|d| name(d.name.to_string().split('.').next().expect("non-empty")))
                    .collect()
            }
        }
    }

    /// Relays of the first tier (the hash shards, when sharding).
    pub fn shards(&self) -> usize {
        self.relays.first().map_or(1, |t| t.count)
    }

    /// Regions: one per relay of the federated tier (1 without one).
    pub fn regions(&self) -> usize {
        self.relays
            .iter()
            .find(|t| t.federated)
            .map_or(1, |t| t.count)
    }

    /// The tier the stubs hang off: relays of the last relay tier (1 —
    /// the origin — with no relay tiers).
    pub fn edge_count(&self) -> usize {
        self.relays.last().map_or(1, |t| t.count)
    }

    /// The region edge `j` serves (the builder wires edge `j`'s parent
    /// round-robin: core `j % regions`).
    pub fn region_of_edge(&self, j: usize) -> usize {
        j % self.regions()
    }

    /// Total resident stubs.
    pub fn stub_count(&self) -> usize {
        self.edge_count() * self.stubs.per_edge
    }

    /// Tracks each stub subscribes to.
    pub fn tracks_per_stub(&self) -> usize {
        match self.slicing {
            Slicing::All => self.tracks,
            Slicing::Walk { per_stub } | Slicing::Zipf { per_stub, .. } => per_stub,
        }
    }

    /// Distinct track slices (`tracks / tracks_per_stub`; exact).
    pub fn slices(&self) -> usize {
        let per = self.tracks_per_stub();
        assert!(
            per > 0 && self.tracks.is_multiple_of(per),
            "tracks_per_stub must divide tracks"
        );
        self.tracks / per
    }

    /// The track indices of slice `s`.
    pub fn slice_tracks(&self, s: usize) -> std::ops::Range<usize> {
        let per = self.tracks_per_stub();
        s * per..(s + 1) * per
    }

    /// The slice at popularity quantile `u ∈ [0, 1)`: low `u` lands on
    /// the head slices, which hold most of the Zipf mass (slice 0 for
    /// unweighted slicing).
    pub fn slice_at_quantile(&self, u: f64) -> usize {
        let Slicing::Zipf { s: zipf, .. } = self.slicing else {
            return 0;
        };
        // Cumulative weight per slice: `cum[s]` sums `1/rank^s` over every
        // track of slices `0..=s` (track `t` has rank `t + 1`).
        let mut cum = Vec::with_capacity(self.slices());
        let mut acc = 0.0;
        for s in 0..self.slices() {
            for t in self.slice_tracks(s) {
                acc += 1.0 / ((t + 1) as f64).powf(zipf);
            }
            cum.push(acc);
        }
        let total = *cum.last().expect("at least one slice");
        cum.partition_point(|w| *w <= u * total)
            .min(self.slices() - 1)
    }

    /// The slice resident stub `j` (global index) subscribes to. A pure
    /// function of `j`, so every subscriber-count expectation below is
    /// computable.
    pub fn slice_of_stub(&self, j: usize) -> usize {
        match self.slicing {
            Slicing::All => 0,
            Slicing::Walk { .. } => (j / self.edge_count()) % self.slices(),
            Slicing::Zipf { .. } => {
                self.slice_at_quantile((j as f64 + 0.5) / self.stub_count() as f64)
            }
        }
    }

    /// The slice the `i`-th transient stub of a wave subscribes to (the
    /// same per-edge cohort shape for every wave and edge).
    pub fn wave_slice_of(&self, i: usize) -> usize {
        self.slice_at_quantile((i as f64 + 0.5) / self.waves.stubs_per_edge as f64)
    }

    /// Total resident (stub, track) subscriptions — the joining-fetch
    /// stampede size (the naive fetch count coalescing absorbs) and the
    /// per-round resident delivery count.
    pub fn subscription_count(&self) -> u64 {
        self.stub_count() as u64 * self.tracks_per_stub() as u64
    }

    /// Updates pushed at the origin over the measured rounds.
    pub fn total_updates(&self) -> u64 {
        self.updates_per_track * self.tracks as u64
    }

    /// Deliveries the measured rounds must produce: every stub sees every
    /// update of every track it subscribes to, exactly once.
    pub fn expected_deliveries(&self) -> u64 {
        self.updates_per_track * self.subscription_count()
    }

    /// Update objects any single edge relay forwards over the measured
    /// rounds (one copy per subscribed stub).
    pub fn edge_forwards(&self) -> u64 {
        self.updates_per_track * (self.tracks_per_stub() * self.stubs.per_edge) as u64
    }

    /// Copies of one update a relay-free deployment would send from the
    /// origin (one per stub) over the copies the first relay tier takes:
    /// the paper's aggregation saving at the origin.
    pub fn origin_saving(&self) -> f64 {
        self.stub_count() as f64 / self.shards() as f64
    }

    /// Resident stubs subscribed to slice `s`.
    pub fn slice_population(&self, s: usize) -> usize {
        (0..self.stub_count())
            .filter(|&j| self.slice_of_stub(j) == s)
            .count()
    }

    /// Which slices are present under edge `e` (resident population).
    /// Zipf-tail slices are absent under many edges — that is the point.
    pub fn slices_under_edge(&self, e: usize) -> Vec<bool> {
        let mut present = vec![false; self.slices()];
        let ec = self.edge_count();
        for l in 0..self.stubs.per_edge {
            present[self.slice_of_stub(e + l * ec)] = true;
        }
        present
    }

    /// Which slices a wave cohort subscribes (identical for every edge).
    pub fn wave_slices(&self) -> Vec<bool> {
        let mut present = vec![false; self.slices()];
        for i in 0..self.waves.stubs_per_edge {
            present[self.wave_slice_of(i)] = true;
        }
        present
    }

    /// Which tracks are demanded in region `r` (union over its edges).
    pub fn region_tracks(&self, r: usize) -> Vec<bool> {
        let mut present = vec![false; self.tracks];
        for e in (0..self.edge_count()).filter(|&e| self.region_of_edge(e) == r) {
            for (s, _) in self
                .slices_under_edge(e)
                .iter()
                .enumerate()
                .filter(|p| *p.1)
            {
                for t in self.slice_tracks(s) {
                    present[t] = true;
                }
            }
        }
        present
    }

    /// Which tracks are demanded *anywhere* (some region wants them).
    pub fn demanded_tracks(&self) -> Vec<bool> {
        let mut present = vec![false; self.tracks];
        for r in 0..self.regions() {
            for (t, &p) in self.region_tracks(r).iter().enumerate() {
                present[t] |= p;
            }
        }
        present
    }

    /// Upstream fetches edge `e` opens under the resident stampede: one
    /// per track of each slice present under it, however many stubs join
    /// at once.
    pub fn edge_fetches(&self, e: usize) -> u64 {
        let n = self.slices_under_edge(e).iter().filter(|&&p| p).count();
        (n * self.tracks_per_stub()) as u64
    }

    /// Upstream fetches the whole edge tier opens under the stampede.
    pub fn edge_fetch_total(&self) -> u64 {
        (0..self.edge_count()).map(|e| self.edge_fetches(e)).sum()
    }

    /// Extra upstream fetches the edge tier opens when a wave joins:
    /// only slices the wave demands that the edge's residents do *not*
    /// cover need a fetch; everything else is served from the edge.
    pub fn wave_edge_fetch_delta(&self) -> u64 {
        let wave = self.wave_slices();
        (0..self.edge_count())
            .map(|e| {
                let under = self.slices_under_edge(e);
                let novel = wave.iter().zip(&under).filter(|&(&w, &u)| w && !u).count();
                (novel * self.tracks_per_stub()) as u64
            })
            .sum()
    }

    /// Transient (stub, track) subscriptions one wave adds system-wide.
    pub fn wave_subscription_count(&self) -> u64 {
        (self.edge_count() * self.waves.stubs_per_edge * self.tracks_per_stub()) as u64
    }

    /// Peer fetches a densely demanded federation's core tier opens
    /// during the stampede: each core fetches every track *not* homed on
    /// it from the home peer, exactly once.
    pub fn peer_fetch_total(&self) -> u64 {
        (self.regions() as u64 - 1) * self.tracks as u64
    }

    /// Fetches the origin would see if the regional cores were *not*
    /// federated (every core escalates every regional miss).
    pub fn naive_origin_fetches(&self) -> u64 {
        self.regions() as u64 * self.tracks as u64
    }

    /// Origin offload of the stampede as a percentage: the share of
    /// would-be origin fetches served core-to-core instead.
    pub fn offload_percent(&self) -> u64 {
        100 * self.peer_fetch_total() / self.naive_origin_fetches()
    }

    /// (stub, track) subscriptions held by `stubs` stubs that each take
    /// one slice — e.g. the chaos cohort's deliveries per round.
    pub fn cohort_subscriptions(&self, stubs: usize) -> u64 {
        (stubs * self.tracks_per_stub()) as u64
    }

    /// Throttles one fetch-bomb burst must produce once the first edge's
    /// budget is exhausted (burst size minus the outstanding allowance).
    pub fn throttles_per_burst(&self) -> u64 {
        let (Some(attack), Some(limits)) = (self.attack, self.relays.last().and_then(|t| t.limits))
        else {
            return 0;
        };
        attack
            .fetch_burst
            .saturating_sub(limits.max_outstanding_fetches) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_scenario_arithmetic() {
        let s = RelayTreeSpec::federation();
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.stub_count(), 24);
        assert_eq!(s.total_updates(), 18);
        assert_eq!(s.expected_deliveries(), 18 * 24);
        // The offload headline: 18 naive origin fetches shrink to 6; the
        // other 12 are served core-to-core.
        assert_eq!(s.peer_fetch_total(), 12);
        assert_eq!(s.tracks, 6, "one origin fetch per track");
        assert_eq!(s.naive_origin_fetches(), 18);
        assert_eq!(s.offload_percent(), 66);
    }

    #[test]
    fn federation_scenario_smoke_keeps_shards() {
        let s = RelayTreeSpec::federation().smoke();
        assert!(s.stub_count() <= 12);
        assert!(s.total_updates() <= 8);
        assert_eq!(s.regions(), 3, "shard map unchanged");
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
    }

    #[test]
    fn metro_scenario_arithmetic() {
        let s = RelayTreeSpec::metro();
        assert_eq!(s.edge_count(), 12);
        assert_eq!(s.stub_count(), 9_996, "~10k stubs");
        assert_eq!(s.slices(), 8);
        assert_eq!(s.subscription_count(), 9_996 * 8);
        assert_eq!(s.expected_deliveries(), 2 * 9_996 * 8);
        assert_eq!(s.edge_fetches(0), 64);
        assert_eq!(s.tracks, 64, "one origin fetch per track");
        // The coalescing headline: ~80k naive joining fetches become 64
        // at the origin.
        assert_eq!(s.subscription_count(), 79_968);
        // Every edge sees every slice: consecutive stubs under one edge
        // walk consecutive slices.
        assert!(s.stubs.per_edge >= s.slices());
        for e in 0..s.edge_count() {
            let mut seen = vec![false; s.slices()];
            for k in 0..s.slices() {
                seen[s.slice_of_stub(e + k * s.edge_count())] = true;
            }
            assert!(seen.iter().all(|&b| b), "edge {e} misses a slice");
        }
        assert_eq!(s.edge_fetch_total(), 12 * 64);
    }

    #[test]
    fn metro_scenario_smoke_keeps_shape() {
        let s = RelayTreeSpec::metro().smoke();
        assert_eq!(s.regions(), 3, "shard map unchanged");
        assert_eq!(s.slices(), 8, "slice machinery unchanged");
        assert!(s.stub_count() <= 48);
        assert!(
            s.stubs.per_edge >= s.slices(),
            "every edge sees every slice"
        );
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
    }

    #[test]
    fn planet_scenario_arithmetic() {
        let s = RelayTreeSpec::planet();
        assert_eq!(s.edge_count(), 192);
        assert_eq!(s.stub_count(), 100_032, "~100k resident stubs");
        assert_eq!(s.slices(), 12);
        assert_eq!(s.subscription_count(), 100_032 * 8);
        assert_eq!(s.expected_deliveries(), 2 * 100_032 * 8);
        assert_eq!(s.wave_subscription_count(), 192 * 16 * 8);
        // Zipf skew: the head slice dwarfs the tail slice, and the
        // populations cover the whole resident population.
        let pops: Vec<usize> = (0..s.slices()).map(|x| s.slice_population(x)).collect();
        assert_eq!(pops.iter().sum::<usize>(), s.stub_count());
        assert!(
            pops[0] > 10 * pops[s.slices() - 1],
            "head {} vs tail {}",
            pops[0],
            pops[s.slices() - 1]
        );
        // Every slice has someone at full scale, so every track is
        // demanded somewhere.
        assert!(pops.iter().all(|&p| p > 0));
        assert!(s.demanded_tracks().iter().all(|&d| d));
        // At full scale the per-edge quantile grid (1/521 spacing) is
        // finer than the thinnest slice band, so every edge still covers
        // every slice and the fetch total hits the dense bound exactly.
        assert_eq!(s.edge_fetch_total(), (s.edge_count() * s.tracks) as u64);
    }

    #[test]
    fn planet_scenario_smoke_keeps_shape() {
        let s = RelayTreeSpec::planet().smoke();
        assert_eq!(s.regions(), 24, "dozens of regions is the shape");
        assert_eq!(s.slices(), 12, "slice machinery unchanged");
        assert_eq!(s.waves.count, 2, "diurnal waves preserved");
        assert!(s.stub_count() <= 300);
        assert!(s.peer_delay > s.link_delay, "asymmetry preserved");
        // Quantile assignment stays total and in-range.
        for j in 0..s.stub_count() {
            assert!(s.slice_of_stub(j) < s.slices());
        }
        for i in 0..s.waves.stubs_per_edge {
            assert!(s.wave_slice_of(i) < s.slices());
        }
        // In the sparse smoke shape (12 stubs per edge, 8.3% quantile
        // spacing) Zipf-tail slices ARE absent under some edges — the
        // effect the planet exists to exercise.
        assert!(s.edge_fetch_total() < (s.edge_count() * s.tracks) as u64);
        // Yet system-wide every slice still has subscribers, so every
        // track is demanded somewhere.
        assert!((0..s.slices()).all(|x| s.slice_population(x) > 0));
        assert!(s.demanded_tracks().iter().all(|&d| d));
    }

    #[test]
    fn planet_quantiles_are_monotone_and_popular_heavy() {
        let s = RelayTreeSpec::planet();
        // Monotone: later quantiles never map to earlier slices.
        let mut last = 0;
        for k in 0..100 {
            let sl = s.slice_at_quantile(k as f64 / 100.0);
            assert!(sl >= last);
            last = sl;
        }
        // Popular-heavy: the median subscriber sits in the head slices.
        assert!(s.slice_at_quantile(0.5) < s.slices() / 2);
        // Wave cohorts lean on the head too but still reach past it.
        let wave = s.wave_slices();
        assert!(wave[0], "waves always demand the head slice");
    }

    #[test]
    fn chain_scenario_arithmetic() {
        let s = RelayTreeSpec::chain();
        assert_eq!(s.relays.len(), 5, "the paper's average path length");
        assert_eq!(s.total_updates(), 12);
        assert_eq!(s.expected_deliveries(), 96);
        let sm = s.smoke();
        assert_eq!(sm.relays.len(), 5, "depth is the point of the drill");
        assert!(sm.expected_deliveries() <= 12);
    }

    #[test]
    fn mesh_scenario_arithmetic() {
        let s = RelayTreeSpec::mesh();
        assert_eq!(s.edge_count(), 6);
        assert_eq!(s.stub_count(), 48);
        assert_eq!(s.total_updates(), 18);
        assert_eq!(s.expected_deliveries(), 18 * 48);
        // The stampede bound: 6 tracks -> 6 upstream fetches per edge and
        // 6 across the whole core tier, vs 288 naive edge escalations.
        assert_eq!(s.edge_fetches(0), 6);
        assert_eq!(s.tracks, 6);
        assert_eq!(s.subscription_count(), 288);
    }

    #[test]
    fn mesh_scenario_smoke_shrinks() {
        let s = RelayTreeSpec::mesh().smoke();
        assert!(s.stub_count() <= 8);
        assert!(s.total_updates() <= 8);
        // Shape is preserved — the shard count stays put.
        assert_eq!(s.shards(), 3);
        assert_eq!(s.relays[1].policy, RelayPolicy::HashShard);
    }

    #[test]
    fn tree_scenario_arithmetic() {
        let s = RelayTreeSpec::ddns_tree();
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.relays.iter().map(|t| t.count).sum::<usize>(), 6);
        assert_eq!(s.stub_count(), 64);
        assert_eq!(s.total_updates(), 6);
        assert_eq!(s.expected_deliveries(), 6 * 64);
        // Origin egress shrinks from 64 copies to 2 per update.
        assert!((s.origin_saving() - 32.0).abs() < 1e-9);
        // Each edge serves 16 stubs.
        assert_eq!(s.edge_forwards(), 96);
    }

    #[test]
    fn tree_scenario_smoke_shrinks() {
        let s = RelayTreeSpec::cdn_tree().smoke();
        assert!(s.stub_count() <= 8);
        assert!(s.total_updates() <= 4);
        // Shape is preserved — only volume shrinks.
        assert_eq!(s.shards(), 2);
        assert_eq!(s.edge_count(), 4);
    }

    #[test]
    fn adversarial_scenario_arithmetic() {
        let s = RelayTreeSpec::adversarial();
        assert_eq!(s.stub_count(), 6);
        assert_eq!(s.total_updates(), 64);
        assert_eq!(s.expected_deliveries(), 64 * 6);
        // Budget math: a 48-fetch burst against a 16-slot allowance
        // throttles 32 times per tick.
        assert_eq!(s.throttles_per_burst(), 32);
    }

    #[test]
    fn adversarial_scenario_smoke_keeps_attack_shape() {
        let s = RelayTreeSpec::adversarial().smoke();
        assert!(s.stub_count() <= 4);
        // The limits, cadence, and round count survive the shrink — they
        // are what make the attacks trip their defenses.
        assert_eq!(s.updates_per_track, 8, "loris needs the full rounds");
        assert_eq!(s.attack.unwrap().fetch_burst, 48);
        let limits = s.relays[1].limits.unwrap();
        assert_eq!(limits.max_outstanding_fetches, 16);
        assert_eq!(limits.session_backlog, 4 * 1024);
        assert!(s.throttles_per_burst() > 0);
    }

    #[test]
    fn ddns_matches_paper_5_5_gbps() {
        let s = DdnsScenario::default();
        let gbps = s.global_bps() / 1e9;
        // 100e6 * 2 * 1000 * 5 * 300 B * 8 / 86400 s = 5.55… Gbps.
        assert!((5.0..6.0).contains(&gbps), "{gbps} Gbps");
        assert!((gbps - 5.555).abs() < 0.1);
    }

    #[test]
    fn cdn_matches_paper_240_kbps() {
        let s = CdnScenario::default();
        let kbps = s.stub_downstream_bps() / 1e3;
        // 1000 * 300 B * 8 / 10 s = 240 kbps exactly.
        assert!((kbps - 240.0).abs() < 1e-9, "{kbps} kbps");
    }

    #[test]
    fn deep_space_round_trip_vs_replicated() {
        let s = DeepSpaceScenario::default();
        assert_eq!(
            s.lookup_latency_unreplicated(),
            Duration::from_secs(16 * 60)
        );
        assert_eq!(s.lookup_latency_replicated(), Duration::ZERO);
        // Throttled updates keep the link load tiny.
        assert!(s.link_bps() < 10_000.0, "{} bps", s.link_bps());
    }

    #[test]
    fn scaling_behaviour() {
        let mut s = DdnsScenario::default();
        let base = s.global_bps();
        s.users *= 2;
        assert!(
            (s.global_bps() / base - 2.0).abs() < 1e-9,
            "linear in users"
        );
    }
}
