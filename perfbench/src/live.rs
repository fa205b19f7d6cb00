//! The two live workloads: the shipped `moqdns-relayd` binary runs twice,
//! as auth and as relay, and this process hosts two `StubResolver`s
//! behind one UDP socket through the public `relayd::netio` API.
//!
//! Load shape: one generator process with two threads (this pacing thread
//! and one `LiveHost` io worker), two client QUIC connections over one
//! socket, DCID-demuxed. Both daemons run with `--workers 1`, so the
//! whole plane fits the 2-core machines it was tuned on without the
//! daemons' shards fighting the generator for cores.
//!
//! Neither workload is sized to stay under the QUIC lifetime cap of 1,024
//! streams per connection (ROADMAP item 1): both carry more than that on
//! every run, and the shortfall counts in `fail_ratio`.

use crate::pace::{due_latency, Pacer};
use crate::procfs::{self, Cpu};
use crate::report::Outcome;
use crate::stats::{median, Samples};
use crate::timed::Timed;
use crate::trace;
use crate::{Args, Rng};
use moqdns_core::metrics::AnswerSource;
use moqdns_core::stub::{StubMode, StubResolver};
use moqdns_core::MOQT_PORT;
use moqdns_dns::message::Question;
use moqdns_dns::rdata::RData;
use moqdns_dns::rr::{Record, RecordType};
use moqdns_netsim::{Addr, NodeId};
use moqdns_relayd::daemon::{track_name, unix_nanos};
use moqdns_relayd::netio::{HostCore, LiveHost};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fs;
use std::net::{SocketAddr, UdpSocket};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Zone the auth daemon serves (its default).
const ZONE: &str = "live.moqdns.test";
/// Client connections (one stub each), all behind one socket.
const CLIENTS: usize = 2;
/// Daemon `--workers`.
const AUTH_WORKERS: usize = 1;
const RELAY_WORKERS: usize = 1;
/// Relay object cache per track (the daemon default).
const RELAY_CACHE: usize = 4;
/// A fetch answered later than this after its due time failed.
const DEADLINE: Duration = Duration::from_millis(500);
/// Wait after the last op for answers in flight.
const GRACE: Duration = Duration::from_millis(500);
/// Auth start-up to its first round. Set-up finishes well inside it, so
/// every joining fetch answers round 0 and every round is pushed.
const START_DELAY: Duration = Duration::from_millis(300);
/// How long before a fetch is due the pacer stops sleeping and yields.
const SPIN: Duration = Duration::from_micros(200);
/// Set-ups per run at least; `setup_s` is their median.
const MIN_SETUPS: u64 = 30;
/// Bound on waiting for a daemon's `listening` line or the joins.
const READY_TIMEOUT: Duration = Duration::from_secs(10);

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `live-fetch`: open-loop standalone fetches on long-lived sessions.
    ///
    /// Why: reads are what a resolver does most; this puts nearly all of
    /// its work in `relayd::netio`, `netsim::live`, per-fetch QUIC stream
    /// open and `moqt::relay` cache-hit fetches, and almost none in
    /// fan-out or the sim scheduler. Op: one `StubResolver::probe` fetch,
    /// due at `start + i / 500` s, round-robin over a seeded order of
    /// (client, track); latency runs from the due time to the answer.
    /// 500/s sits below the tail cliff: 250–750/s gave p50 ≈ 150 µs and
    /// p99 of 1.4–4.7 ms on a 2-core loopback box, while 1,000/s gave
    /// p99 of 75–375 ms with up to 24 % unanswered, cause not attributed.
    /// The auth also republishes every track once a second, so answers
    /// have versions to regress from.
    ///
    /// Baseline at the parent commit: a client connection answers about
    /// 1,017 fetches and then no more (the 1,024-stream lifetime cap,
    /// minus the streams set-up used). Here the once-a-second pushes spend
    /// streams too: 944 per connection, so 1,888 of the 2,500 fetches of
    /// each 5 s window are answered and `fail_ratio` reads 0.245.
    Fetch,
    /// `live-push`: the auth republishes all 8 tracks every 25 ms and the
    /// relay fans each object out to both clients, which subscribe to
    /// every track.
    ///
    /// Why: the same QUIC/MoQT layers in the other direction (the server
    /// opens one uni stream per pushed object; the relay fans it out),
    /// and the paper's headline claim: how soon a subscriber holds the
    /// latest version. Op: one (client, track, version) the auth
    /// published; latency runs from the TXT `ts=` publish stamp to
    /// `UpdateSample.received`, on the same host clock.
    ///
    /// Baseline at the parent commit: the relay's *upstream* connection
    /// reaches the stream cap at version 127 (8 tracks × 127 objects),
    /// after which the whole relay is deaf: every subscriber stops at v127
    /// of the 200 rounds each 5 s window publishes, and `fail_ratio`
    /// reads 0.365.
    Push,
}

/// Sizing of one live workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    tracks: usize,
    /// Fetches per second (`live-fetch` only).
    fetch_rate: f64,
    /// Auth republish interval.
    interval: Duration,
}

impl Spec {
    fn of(kind: Kind) -> Spec {
        match kind {
            Kind::Fetch => Spec {
                tracks: 16,
                fetch_rate: 500.0,
                interval: Duration::from_millis(1000),
            },
            Kind::Push => Spec {
                tracks: 8,
                fetch_rate: 0.0,
                interval: Duration::from_millis(25),
            },
        }
    }

    /// Rounds the auth publishes in a window of `length`.
    fn rounds(&self, length: Duration) -> u64 {
        (length.as_millis() / self.interval.as_millis()) as u64
    }
}

// ---------------------------------------------------------------------
// Daemons
// ---------------------------------------------------------------------

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}
const SIGTERM: i32 = 15;

/// A `moqdns-relayd` child whose stdout goes to a log file (read for the
/// `listening` and exit lines, so no reader thread is needed).
struct Daemon {
    child: Option<Child>,
    log: PathBuf,
    pid: u32,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(relayd: &Path, args: &[String], log: PathBuf) -> Result<Daemon, String> {
        let out = fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(relayd)
            .args(args)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", relayd.display()))?;
        let pid = child.id();
        let mut d = Daemon {
            child: Some(child),
            log,
            pid,
            addr: "0.0.0.0:0".parse().expect("valid placeholder"),
        };
        let t = Instant::now();
        loop {
            let text = fs::read_to_string(&d.log).unwrap_or_default();
            if let Some(addr) = text.lines().find_map(|l| {
                let rest = l.split_once("listening on ")?.1;
                rest.split_whitespace().next()?.parse().ok()
            }) {
                d.addr = addr;
                return Ok(d);
            }
            if let Some(Ok(Some(status))) = d.child.as_mut().map(|c| c.try_wait()) {
                return Err(format!("daemon exited early ({status}): {text}"));
            }
            if t.elapsed() > READY_TIMEOUT {
                return Err(format!("daemon not listening after {READY_TIMEOUT:?}"));
            }
            // Set-up time is a metric: poll without sleeping, so a timer
            // wake-up's lateness (large and load-dependent on a VM) does
            // not land in it.
            std::thread::yield_now();
        }
    }

    /// Sends SIGTERM: the daemon starts its drain.
    fn terminate(&self) {
        if let Some(child) = &self.child {
            // SAFETY: `kill` only sends a signal; the pid is our own child,
            // which has not been reaped yet, so it cannot name another
            // process.
            unsafe {
                kill(child.id() as i32, SIGTERM);
            }
        }
    }

    /// Waits out the drain [`Daemon::terminate`] started; returns
    /// `(clean, rx, tx)` from the daemon's exit line.
    fn wait_stopped(mut self) -> Result<(bool, u64, u64), String> {
        let mut child = self.child.take().expect("running daemon");
        let t = Instant::now();
        let status = loop {
            if let Some(s) = child.try_wait().map_err(|e| e.to_string())? {
                break s;
            }
            if t.elapsed() > Duration::from_secs(10) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon did not drain within 10 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let text = fs::read_to_string(&self.log).unwrap_or_default();
        let field = |key: &str| -> u64 {
            text.lines()
                .rev()
                .find_map(|l| {
                    let rest = l.split_once(key)?.1;
                    rest.split(|c: char| !c.is_ascii_digit())
                        .next()?
                        .parse()
                        .ok()
                })
                .unwrap_or(0)
        };
        Ok((status.success(), field("rx="), field("tx=")))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

// ---------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------

/// What the observer collects for one client.
#[derive(Debug, Default)]
struct ClientObs {
    seen_lookups: usize,
    seen_updates: usize,
    /// Joining fetches answered.
    joined: usize,
    /// Bytes of every datagram delivered to this client.
    rx_bytes: u64,
    /// `(track, v)` → TXT `ts=` stamp of that published version.
    stamps: HashMap<(usize, u64), u128>,
}

type Obs = Arc<Mutex<Vec<ClientObs>>>;

/// Parses `["v=<n>", "ts=<nanos>"]` out of a TXT answer.
fn parse_txt(records: &[Record]) -> Option<(u64, u128)> {
    records.iter().find_map(|r| {
        let RData::TXT(strings) = &r.rdata else {
            return None;
        };
        let (mut v, mut ts) = (None, None);
        for s in strings {
            let s = std::str::from_utf8(s).ok()?;
            if let Some(x) = s.strip_prefix("v=") {
                v = x.parse().ok();
            } else if let Some(x) = s.strip_prefix("ts=") {
                ts = x.parse().ok();
            }
        }
        Some((v?, ts?))
    })
}

/// The observer for client `c`: counts joins and delivered bytes, and
/// reads the TXT stamp of each pushed version while the answer still
/// holds it.
fn observer(
    c: usize,
    obs: Obs,
    tracks: Arc<BTreeMap<Question, usize>>,
) -> impl FnMut(&StubResolver, usize) + Send + 'static {
    move |stub, bytes| {
        let mut all = obs.lock().expect("observer state");
        let o = &mut all[c];
        o.rx_bytes += bytes as u64;
        let lookups = &stub.metrics.lookups[o.seen_lookups..];
        o.joined += lookups
            .iter()
            .filter(|l| l.source == AnswerSource::Moqt && l.ok)
            .count();
        o.seen_lookups = stub.metrics.lookups.len();
        let fresh = &stub.metrics.updates[o.seen_updates..];
        for (i, u) in fresh.iter().enumerate() {
            // Only the newest update of a question is still in the answer.
            if fresh[i + 1..].iter().any(|w| w.question == u.question) {
                continue;
            }
            let (Some(&t), Some((v, ts))) = (
                tracks.get(&u.question),
                stub.answer(&u.question).and_then(parse_txt),
            ) else {
                continue;
            };
            o.stamps.insert((t, v), ts);
        }
        o.seen_updates = stub.metrics.updates.len();
    }
}

/// Daemons plus the in-process generator, ready to measure.
struct Rig {
    auth: Daemon,
    relay: Daemon,
    host: LiveHost,
    clients: Vec<NodeId>,
    questions: Vec<Question>,
    obs: Obs,
    setup: Duration,
    /// TXT versions the joining fetches answered (round 0 only).
    join_versions: BTreeSet<u64>,
    /// When the auth process was started (its round clock's origin, to
    /// within its start-up time).
    auth_started: Instant,
    /// Unix nanoseconds at the host clock's zero.
    unix_at_zero: i128,
}

fn set_up(args: &Args, spec: &Spec, rounds: u64, k: usize) -> Result<Rig, String> {
    let t0 = Instant::now();
    let seed = args.seed;
    let out = &args.out;
    let auth = Daemon::spawn(
        &args.relayd,
        &[
            "--mode".into(),
            "auth".into(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            AUTH_WORKERS.to_string(),
            "--tracks".into(),
            spec.tracks.to_string(),
            "--rounds".into(),
            rounds.to_string(),
            "--interval-ms".into(),
            spec.interval.as_millis().to_string(),
            "--start-delay-ms".into(),
            START_DELAY.as_millis().to_string(),
            "--seed".into(),
            seed.to_string(),
        ],
        out.join(format!("auth-{k}.log")),
    )?;
    let auth_started = t0;
    let relay = Daemon::spawn(
        &args.relayd,
        &[
            "--mode".into(),
            "relay".into(),
            "--listen".into(),
            "127.0.0.1:0".into(),
            "--workers".into(),
            RELAY_WORKERS.to_string(),
            "--parent".into(),
            auth.addr.to_string(),
            "--cache".into(),
            RELAY_CACHE.to_string(),
            "--seed".into(),
            seed.wrapping_add(1).to_string(),
        ],
        out.join(format!("relay-{k}.log")),
    )?;

    let questions: Vec<Question> = (0..spec.tracks)
        .map(|t| Question::new(track_name(ZONE, t), RecordType::TXT))
        .collect();
    let track_of: Arc<BTreeMap<Question, usize>> = Arc::new(
        questions
            .iter()
            .enumerate()
            .map(|(i, q)| (q.clone(), i))
            .collect(),
    );
    let obs: Obs = Arc::new(Mutex::new(
        (0..CLIENTS).map(|_| ClientObs::default()).collect(),
    ));
    let mut core = HostCore::new(seed, false);
    let server = core.register_remote(relay.addr);
    let clients: Vec<NodeId> = (0..CLIENTS)
        .map(|c| {
            let stub = StubResolver::new(
                StubMode::Moqt,
                Addr::new(server, MOQT_PORT),
                moqdns_netsim::splitmix64(seed ^ ((k as u64) << 32) ^ c as u64),
            );
            let node = Timed::new(stub, "core.stub").observe(observer(
                c,
                Arc::clone(&obs),
                Arc::clone(&track_of),
            ));
            core.live().add_node(format!("client{c}"), Box::new(node))
        })
        .collect();
    let socket = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let host = LiveHost::start(core, vec![socket], vec![clients.clone()]);
    let unix_at_zero = unix_nanos() as i128 - host.now().as_nanos() as i128;

    host.with_core(|core| {
        for &id in &clients {
            core.live().with_node::<StubResolver, _>(id, |stub, ctx| {
                for q in &questions {
                    stub.lookup(ctx, q.clone());
                }
            });
        }
    });
    let want = CLIENTS * spec.tracks;
    let t = Instant::now();
    loop {
        let joined: usize = obs
            .lock()
            .expect("observer state")
            .iter()
            .map(|o| o.joined)
            .sum();
        if joined >= want {
            break;
        }
        if t.elapsed() > READY_TIMEOUT {
            return Err(format!("only {joined}/{want} joins answered"));
        }
        std::thread::yield_now();
    }
    let setup = t0.elapsed();
    let join_versions = host.with_core(|core| {
        let live = core.live();
        clients
            .iter()
            .flat_map(|&id| {
                let stub: &StubResolver = live.node_ref(id);
                questions
                    .iter()
                    .filter_map(|q| stub.answer(q).and_then(parse_txt).map(|(v, _)| v))
                    .collect::<Vec<_>>()
            })
            .collect()
    });
    Ok(Rig {
        auth,
        relay,
        host,
        clients,
        questions,
        obs,
        setup,
        join_versions,
        auth_started,
        unix_at_zero,
    })
}

/// One issued fetch.
#[derive(Debug, Clone)]
struct Op {
    client: usize,
    track: usize,
    due: Duration,
    /// Host-clock nanoseconds at issue (`None`: the stub refused to issue).
    issued: Option<u64>,
    /// TXT version the stub held for the track at issue.
    held: Option<u64>,
    /// `(finished ns, ok, group)` once answered.
    answer: Option<(u64, bool, Option<u64>)>,
}

/// Resource counters sampled at a window's edges.
#[derive(Debug, Clone, Copy)]
struct Counters {
    wall: Instant,
    relay: Cpu,
    auth: Cpu,
    generator: Cpu,
    worker: Cpu,
    rx_bytes: u64,
}

fn sample(rig: &Rig) -> Result<Counters, String> {
    let me = std::process::id();
    let e = |x: std::io::Error| x.to_string();
    Ok(Counters {
        wall: Instant::now(),
        relay: procfs::process_cpu(rig.relay.pid).map_err(e)?,
        auth: procfs::process_cpu(rig.auth.pid).map_err(e)?,
        generator: procfs::process_cpu(me).map_err(e)?,
        worker: procfs::named_thread_cpu(me, "udp-worker-0").map_err(e)?,
        rx_bytes: rig
            .obs
            .lock()
            .expect("observer state")
            .iter()
            .map(|o| o.rx_bytes)
            .sum(),
    })
}

/// What one measured window produced.
#[derive(Debug, Default)]
struct Window {
    attempted: u64,
    failed: u64,
    /// Ops completed: fetches answered in time, or versions delivered.
    completed: u64,
    /// Latency of every completed op with a known start (µs).
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    lock_wait_us: Vec<f64>,
    checks: Vec<(&'static str, bool, String)>,
    note: String,
    /// Wall time between the counter samples.
    sampled: Duration,
    relay: Cpu,
    auth: Cpu,
    generator: Cpu,
    worker: Cpu,
    rx_bytes: u64,
    relay_datagrams: u64,
    relay_rss_mb: f64,
}

/// Measured windows per run: 5 s each (at least one), every one on fresh
/// daemons and fresh client connections, so every connection meets the
/// stream cap and no window inherits a deaf one.
fn windows(seconds: u64) -> (u64, Duration) {
    let n = (seconds / 5).max(1);
    (n, Duration::from_secs(seconds) / n as u32)
}

/// Runs one pass of a live workload for `seconds`.
pub fn run(args: &Args, kind: Kind, traced: bool, seconds: u64) -> Result<Outcome, String> {
    let spec = Spec::of(kind);
    let (n, length) = windows(seconds);
    let mut out = Outcome::default();
    // Set-up-only rounds first (they also warm the page cache and the
    // allocator); the daemons are killed, not drained, to keep them cheap.
    let mut setups = Vec::new();
    for k in n..MIN_SETUPS.max(n) {
        let rig = set_up(args, &spec, 0, k as usize)?;
        setups.push(rig.setup.as_secs_f64());
    }
    let mut all = Vec::new();
    for k in 0..n {
        let rig = set_up(args, &spec, spec.rounds(length), k as usize)?;
        if k == 0 {
            out.notes.push(layout(&rig));
        }
        let mut w = match kind {
            Kind::Fetch => fetch_window(args.seed ^ k, &spec, &rig, length)?,
            Kind::Push => push_window(&spec, &rig, length)?,
        };
        setups.push(rig.setup.as_secs_f64());
        w.relay_rss_mb = procfs::peak_rss_mb(rig.relay.pid).map_err(|e| e.to_string())?;
        let (clean, rx, tx) = tear_down(rig)?;
        w.relay_datagrams = rx + tx;
        w.checks.push((
            "clean_drain",
            clean,
            "auth, relay and io worker stopped cleanly".into(),
        ));
        if w.latency_us.len() < 1000 {
            return Err(format!(
                "window {k}: {} latency samples, fewer than the 1,000 a p99 needs",
                w.latency_us.len()
            ));
        }
        all.push(w);
    }
    aggregate(&mut out, &all);
    out.metric("setup_s", median(&setups), setups.len() as u64);
    if traced {
        let spans = trace::take();
        live_layers(&mut out, &spans, &all);
        crate::write_spans(args, &spans);
    }
    for name in SIM_ONLY {
        out.layer(name, Err("simulator only"));
    }
    Ok(out)
}

fn aggregate(out: &mut Outcome, all: &[Window]) {
    let sum = |f: &dyn Fn(&Window) -> u64| all.iter().map(f).sum::<u64>();
    let per_window = |f: &dyn Fn(&Window) -> f64| median(&all.iter().map(f).collect::<Vec<_>>());
    let ops = sum(&|w| w.completed);
    let n = ops as f64;
    out.attempted = sum(&|w| w.attempted);
    out.failed = sum(&|w| w.failed);
    // Latency: the median over windows of each window's percentile, so
    // one window hit by a scheduler stall cannot move the figure alone.
    let pct = |p: f64| {
        per_window(&|w| {
            Samples::new(w.latency_us.clone())
                .get(p)
                .expect("checked ≥ 1,000")
        })
    };
    out.metric("latency_p50_us", pct(50.0), ops);
    out.metric("latency_p99_us", pct(99.0), ops);
    out.metric(
        "fail_ratio",
        out.failed as f64 / out.attempted as f64,
        out.attempted,
    );
    // Per wall second between the counter samples (window plus grace).
    let sampled: f64 = all.iter().map(|w| w.sampled.as_secs_f64()).sum();
    out.metric("ops_per_s", n / sampled, ops);
    out.metric(
        "cpu_us_per_op",
        sum(&|w| w.relay.run_ns) as f64 / 1e3 / n,
        ops,
    );
    out.metric("wire_bytes_per_op", sum(&|w| w.rx_bytes) as f64 / n, ops);
    out.metric(
        "peak_rss_mb",
        per_window(&|w| w.relay_rss_mb),
        all.len() as u64,
    );

    // Checks hold only if they held in every window.
    let mut names: Vec<&'static str> = Vec::new();
    for w in all {
        for c in &w.checks {
            if !names.contains(&c.0) {
                names.push(c.0);
            }
        }
    }
    for name in names {
        let cs: Vec<_> = all
            .iter()
            .flat_map(|w| w.checks.iter())
            .filter(|c| c.0 == name)
            .collect();
        let bad = cs.iter().find(|c| !c.1);
        let c = bad.unwrap_or(&cs[0]);
        out.check(
            name,
            bad.is_none(),
            format!("{} (of {} windows)", c.2, all.len()),
        );
    }
    for (k, w) in all.iter().enumerate() {
        let l = Samples::new(w.latency_us.clone());
        let (p, v) = l.tail().expect("checked ≥ 1,000");
        out.notes
            .push(format!("window {k}: {} p{p}={v:.0}us", w.note));
    }
    let pooled = Samples::new(
        all.iter()
            .flat_map(|w| w.latency_us.iter().copied())
            .collect(),
    );
    if let Some((p, v)) = pooled.tail() {
        out.notes.push(format!(
            "tail over all windows: p{p} = {v:.0} us of {} ops",
            pooled.len()
        ));
    }

    out.layer(
        "relayd.relay.runq_wait_us_per_op",
        Ok(sum(&|w| w.relay.wait_ns) as f64 / 1e3 / n),
    );
    out.layer(
        "relayd.relay.datagrams_per_op",
        Ok(sum(&|w| w.relay_datagrams) as f64 / n),
    );
    out.layer(
        "relayd.auth.cpu_us_per_op",
        Ok(sum(&|w| w.auth.run_ns) as f64 / 1e3 / n),
    );
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    out.layer(
        "relayd.gen.cpu_share",
        Ok(sum(&|w| w.generator.run_ns) as f64 / 1e9 / (sampled * nproc as f64)),
    );
    let pooled = |f: &dyn Fn(&Window) -> &Vec<f64>| {
        Samples::new(all.iter().flat_map(|w| f(w).iter().copied()).collect())
    };
    let why = "no paced ops: the auth drives live-push";
    out.layer(
        "relayd.gen.lateness_us_p99",
        pooled(&|w| &w.lateness_us).get(99.0).ok_or(why),
    );
    out.layer(
        "relayd.gen.lock_wait_us_p99",
        pooled(&|w| &w.lock_wait_us).get(99.0).ok_or(why),
    );
}

/// Per-layer rows that only the simulator can measure from outside.
const SIM_ONLY: [&str; 19] = [
    "core.relay_edge.self_s",
    "core.relay_edge.calls",
    "core.relay_mid.self_s",
    "core.relay_mid.calls",
    "core.auth.self_s",
    "core.auth.calls",
    "netsim.events",
    "netsim.sched.self_s",
    "netsim.link.bytes_per_update.auth_mid",
    "netsim.link.bytes_per_update.mid_edge",
    "netsim.link.bytes_per_update.edge_stub",
    "moqt.relay.objects_forwarded",
    "moqt.relay.upstream_fetches",
    "moqt.relay.fetch_coalesced_ratio",
    "moqt.relay.fetch_cache_hit_ratio",
    "moqt.session.drops",
    "core.relay.state_bytes_per_sub",
    "sim.join_per_s",
    "sim.push_per_s",
];

/// Span-derived rows: stub self time, and the io worker's own time (its
/// CPU less the node callbacks it ran, which hang directly off a phase).
fn live_layers(out: &mut Outcome, spans: &[trace::Span], all: &[Window]) {
    let own = trace::self_times(spans);
    let root = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        i
    };
    let (mut stub_self, mut stub_calls, mut on_worker, mut with_node, mut observer) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for (i, s) in spans.iter().enumerate() {
        if spans[root(i)].name != "phase.measure" {
            continue;
        }
        match s.name {
            "core.stub" => {
                stub_self += own[i];
                stub_calls += s.calls;
                if s.op.is_some() {
                    with_node += own[i];
                }
            }
            "bench.observer" => observer += own[i],
            _ => continue,
        }
        if s.parent.is_some_and(|p| spans[p].name == "phase.measure") {
            on_worker += s.busy_ns;
        }
    }
    let n = all.iter().map(|w| w.completed).sum::<u64>() as f64;
    let worker: u64 = all.iter().map(|w| w.worker.run_ns).sum();
    out.layer("core.stub.self_us_per_op", Ok(stub_self as f64 / 1e3 / n));
    out.layer("core.stub.self_s", Ok(stub_self as f64 / 1e9));
    out.layer("core.stub.calls", Ok(stub_calls as f64));
    out.layer(
        "relayd.gen.host_self_us_per_op",
        Ok(worker.saturating_sub(on_worker) as f64 / 1e3 / n),
    );
    out.layer("bench.with_node.self_s", Ok(with_node as f64 / 1e9));
    out.layer("bench.observer.self_s", Ok(observer as f64 / 1e9));
}

fn wait_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Stops the generator, then both daemons (their drains overlap); returns
/// `(clean, relay rx, relay tx)`.
fn tear_down(rig: Rig) -> Result<(bool, u64, u64), String> {
    let host_clean = rig.host.stop();
    rig.relay.terminate();
    rig.auth.terminate();
    let (relay_clean, rx, tx) = rig.relay.wait_stopped()?;
    let (auth_clean, _, _) = rig.auth.wait_stopped()?;
    Ok((host_clean && relay_clean && auth_clean, rx, tx))
}

fn layout(rig: &Rig) -> String {
    let threads = |pid: u32| procfs::status_field(pid, "Threads").unwrap_or(0);
    let (kernel, cpu) = procfs::kernel_and_cpu();
    format!(
        "layout: nproc={} kernel={kernel} cpu=\"{cpu}\" link=loopback(127.0.0.1) \
         threads(generator={} relay={} auth={}) workers(relay={RELAY_WORKERS} auth={AUTH_WORKERS}) \
         clients={CLIENTS} sockets=1 mmsg={}",
        std::thread::available_parallelism().map_or(0, |p| p.get()),
        threads(std::process::id()),
        threads(rig.relay.pid),
        threads(rig.auth.pid),
        if std::env::var_os("MOQDNS_NO_MMSG").is_none() {
            "on"
        } else {
            "off(MOQDNS_NO_MMSG set)"
        },
    )
}

/// Round `r` of a track is group `g0 + tracks·r`: the auth bumps its
/// zone version once per track per round. `g0` is the group every
/// joining fetch saw, which the check below pins to TXT round 0.
fn round_of(g0: Option<u64>, tracks: usize, group: u64) -> Option<u64> {
    let d = group.checked_sub(g0?)?;
    (d % tracks as u64 == 0).then_some(d / tracks as u64)
}

fn joins_check(w: &mut Window, rig: &Rig, groups: &BTreeSet<u64>) {
    w.checks.push((
        "joins_answer_round_0",
        groups.len() == 1 && rig.join_versions.iter().eq([0].iter()),
        format!(
            "joining fetches saw groups {groups:?}, TXT versions {:?}",
            rig.join_versions
        ),
    ));
}

// ---------------------------------------------------------------------
// live-fetch
// ---------------------------------------------------------------------

/// Sleeps until shortly before `due` on the host clock, then yields until
/// it: a timer wake-up alone lands ~80 µs late on a VM, and that lateness
/// would count in every fetch's latency.
fn wait_for(rig: &Rig, due: Duration) {
    loop {
        let now = rig.host.now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
            _ => std::thread::yield_now(),
        }
    }
}

/// Issues fetches open-loop for `length`, then harvests them.
fn fetch_window(seed: u64, spec: &Spec, rig: &Rig, length: Duration) -> Result<Window, String> {
    let mut pairs: Vec<(usize, usize)> = (0..CLIENTS)
        .flat_map(|c| (0..spec.tracks).map(move |t| (c, t)))
        .collect();
    Rng::new(seed).shuffle(&mut pairs);
    let mut w = Window::default();
    let phase = trace::phase("phase.measure");
    let before = sample(rig)?;
    let start = rig.host.now();
    let end = start + length;
    let mut pacer = Pacer::new(start, spec.fetch_rate);
    let mut ops: Vec<Op> = Vec::new();
    loop {
        let now = rig.host.now();
        for i in pacer.take_due(now.min(end)) {
            let (client, track) = pairs[i as usize % pairs.len()];
            let (id, q) = (rig.clients[client], &rig.questions[track]);
            let _w = trace::span("relayd.with_core", Some(i));
            let called = Instant::now();
            let (issued, held) = rig.host.with_core(|core| {
                w.lock_wait_us.push(called.elapsed().as_secs_f64() * 1e6);
                let _s = trace::span("core.stub", Some(i));
                let live = core.live();
                let held = live
                    .node_ref::<StubResolver>(id)
                    .answer(q)
                    .and_then(parse_txt)
                    .map(|(v, _)| v);
                let issued = live.with_node::<StubResolver, _>(id, |stub, ctx| {
                    let at = ctx.now().as_nanos();
                    stub.probe(ctx, q.clone()).then_some(at)
                });
                (issued, held)
            });
            ops.push(Op {
                client,
                track,
                due: pacer.due(i),
                issued,
                held,
                answer: None,
            });
        }
        if now >= end {
            break;
        }
        wait_for(rig, pacer.next_due().min(end));
    }
    std::thread::sleep(GRACE);
    let after = sample(rig)?;
    drop(phase);
    w.set_counters(&before, &after);
    harvest_fetch(rig, spec, ops, &mut w);
    Ok(w)
}

impl Window {
    fn set_counters(&mut self, before: &Counters, after: &Counters) {
        self.sampled = after.wall - before.wall;
        self.relay = after.relay.since(before.relay);
        self.auth = after.auth.since(before.auth);
        self.generator = after.generator.since(before.generator);
        self.worker = after.worker.since(before.worker);
        self.rx_bytes = after.rx_bytes - before.rx_bytes;
    }
}

fn harvest_fetch(rig: &Rig, spec: &Spec, mut ops: Vec<Op>, w: &mut Window) {
    // Match each answered probe to its op by (client, track, issue time).
    let track_of: BTreeMap<&Question, usize> = rig
        .questions
        .iter()
        .enumerate()
        .map(|(i, q)| (q, i))
        .collect();
    let mut by_issue: HashMap<(usize, usize, u64), VecDeque<usize>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if let Some(at) = op.issued {
            by_issue
                .entry((op.client, op.track, at))
                .or_default()
                .push_back(i);
        }
    }
    let first_issue = ops
        .iter()
        .filter_map(|o| o.issued)
        .min()
        .unwrap_or(u64::MAX);
    let mut join_groups = BTreeSet::new();
    rig.host.with_core(|core| {
        for (c, &id) in rig.clients.iter().enumerate() {
            let stub: &StubResolver = core.live().node_ref(id);
            for l in &stub.metrics.lookups {
                if l.source != AnswerSource::Moqt {
                    continue;
                }
                let Some(&t) = track_of.get(&l.question) else {
                    continue;
                };
                if l.started.as_nanos() < first_issue {
                    join_groups.extend(l.version);
                    continue;
                }
                let key = (c, t, l.started.as_nanos());
                if let Some(i) = by_issue.get_mut(&key).and_then(VecDeque::pop_front) {
                    ops[i].answer = Some((l.finished.as_nanos(), l.ok, l.version));
                }
            }
        }
    });

    let g0 = join_groups.iter().next().copied();
    let (mut regress, mut unmapped, mut refused) = (0u64, 0u64, 0u64);
    for op in &ops {
        if let Some(at) = op.issued {
            w.lateness_us
                .push(due_latency(op.due, Duration::from_nanos(at)).as_secs_f64() * 1e6);
        }
        let Some((finished, ok, group)) = op.answer else {
            continue;
        };
        if !ok {
            refused += 1;
            continue;
        }
        let lat = due_latency(op.due, Duration::from_nanos(finished));
        if lat > DEADLINE {
            continue;
        }
        w.latency_us.push(lat.as_secs_f64() * 1e6);
        match group.and_then(|g| round_of(g0, spec.tracks, g)) {
            Some(r) if op.held.is_some_and(|h| r < h) => regress += 1,
            Some(_) => {}
            None => unmapped += 1,
        }
    }
    w.attempted = ops.len() as u64;
    w.completed = w.latency_us.len() as u64;
    w.failed = w.attempted - w.completed;
    w.note = format!(
        "fetches issued={} answered_in_deadline={} refused={refused} per_connection={:.0} \
         lateness_p50={:.0}us",
        ops.iter().filter(|o| o.issued.is_some()).count(),
        w.completed,
        w.completed as f64 / CLIENTS as f64,
        Samples::new(w.lateness_us.clone()).get(50.0).unwrap_or(0.0)
    );
    joins_check(w, rig, &join_groups);
    w.checks.push((
        "answers_never_regress",
        regress == 0,
        format!("{regress} answers older than the version the stub held"),
    ));
    w.checks.push((
        "answers_are_published_rounds",
        unmapped == 0,
        format!("{unmapped} answers with a group that is no published round"),
    ));
}

// ---------------------------------------------------------------------
// live-push
// ---------------------------------------------------------------------

/// Waits out the auth's rounds for `length`, then harvests deliveries.
fn push_window(spec: &Spec, rig: &Rig, length: Duration) -> Result<Window, String> {
    let mut w = Window::default();
    let first = rig.auth_started + START_DELAY;
    wait_until(first);
    let phase = trace::phase("phase.measure");
    let before = sample(rig)?;
    wait_until(first + length + GRACE);
    let after = sample(rig)?;
    drop(phase);
    w.set_counters(&before, &after);
    harvest_push(rig, spec, spec.rounds(length), &mut w);
    Ok(w)
}

/// One (client, track) as a stub saw it.
struct Seen {
    track: usize,
    /// Group the joining fetch answered.
    join: Option<u64>,
    /// Pushed `(group, received ns)`, in arrival order.
    pushed: Vec<(u64, u64)>,
}

fn harvest_push(rig: &Rig, spec: &Spec, rounds: u64, w: &mut Window) {
    let mut seen: Vec<Seen> = Vec::new();
    rig.host.with_core(|core| {
        for &id in &rig.clients {
            let stub: &StubResolver = core.live().node_ref(id);
            for (track, q) in rig.questions.iter().enumerate() {
                let join = stub
                    .metrics
                    .lookups
                    .iter()
                    .find(|l| &l.question == q && l.source == AnswerSource::Moqt && l.ok)
                    .and_then(|l| l.version);
                let pushed = stub
                    .metrics
                    .updates
                    .iter()
                    .filter(|u| &u.question == q)
                    .map(|u| (u.version, u.received.as_nanos()))
                    .collect();
                seen.push(Seen {
                    track,
                    join,
                    pushed,
                });
            }
        }
    });
    let stamps: HashMap<(usize, u64), u128> = {
        let obs = rig.obs.lock().expect("observer state");
        let mut m = HashMap::new();
        for o in obs.iter() {
            for (&k, &ts) in &o.stamps {
                m.entry(k).or_insert(ts);
            }
        }
        m
    };
    let joins: BTreeSet<u64> = seen.iter().filter_map(|s| s.join).collect();
    let g0 = joins.iter().next().copied();
    let (mut delivered, mut non_monotone, mut unmapped, mut unstamped) = (0u64, 0u64, 0u64, 0u64);
    let mut newest = 0;
    for s in &seen {
        let mut last: Option<u64> = None;
        for &(g, received) in &s.pushed {
            if last.is_some_and(|l| g <= l) {
                non_monotone += 1;
            }
            last = Some(g);
            let Some(round) = round_of(g0, spec.tracks, g).filter(|r| (1..=rounds).contains(r))
            else {
                unmapped += 1;
                continue;
            };
            delivered += 1;
            newest = newest.max(round);
            match stamps.get(&(s.track, round)) {
                Some(&ts) => {
                    let at = rig.unix_at_zero + received as i128;
                    w.latency_us.push((at - ts as i128).max(0) as f64 / 1e3);
                }
                None => unstamped += 1,
            }
        }
    }
    w.attempted = CLIENTS as u64 * spec.tracks as u64 * rounds;
    w.completed = delivered;
    w.failed = w.attempted.saturating_sub(delivered);
    w.note = format!(
        "pushes rounds={rounds} delivered={delivered} newest_round_held={newest} \
         stamped={} unstamped={unstamped}",
        w.latency_us.len()
    );
    joins_check(w, rig, &joins);
    w.checks.push((
        "versions_strictly_monotone",
        non_monotone == 0,
        format!("{non_monotone} pushes not newer than the previous one for their (client, track)"),
    ));
    w.checks.push((
        "pushes_are_published_rounds",
        unmapped == 0,
        format!("{unmapped} pushes with a group that is no published round"),
    ));
}
