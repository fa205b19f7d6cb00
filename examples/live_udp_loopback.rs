//! The same protocol nodes over **real UDP sockets** — proof the sans-io
//! cores are a transport, not just a simulation artifact.
//!
//!     cargo run --release --example live_udp_loopback
//!
//! An `AuthServer` and a `StubResolver` — the nodes the simulator
//! experiments measure — each run behind a `relayd::netio::LiveHost`, the
//! production io path of `moqdns-relayd`, on 127.0.0.1. The stub
//! subscribes to a DNS question with a joining FETCH, gets the current
//! record, and receives one pushed update. Then the crash drill: the
//! server host stops *without* sending CONNECTION_CLOSE (the in-process
//! analog of `kill -9`), the stub — running a short idle timeout, §5.1's
//! liveness contract — detects the dead peer and redials, and a fresh
//! server on the same address serves the redial's joining FETCH, which
//! recovers the record changed while the server was down.
//!
//! The full-process version of the drill (SIGKILL a relay daemon mid-run,
//! restart it, gate that every auto-redialing client reconverges) is
//! `ci/live_chaos.sh`. Exits nonzero if any step fails.

use moqdns::core::{AuthServer, StubMode, StubResolver, TeardownPolicy, MOQT_PORT};
use moqdns::dns::message::Question;
use moqdns::dns::name::Name;
use moqdns::dns::rdata::RData;
use moqdns::dns::rr::{Record, RecordType};
use moqdns::dns::server::Authority;
use moqdns::dns::zone::Zone;
use moqdns::netsim::{Addr, NodeId};
use moqdns::quic::TransportConfig;
use moqdns_relayd::netio::{HostCore, LiveHost};
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

const HOST: &str = "www.example.com";

fn fail(step: &str) -> ! {
    eprintln!("live_udp_loopback: FAILED: {step}");
    std::process::exit(1)
}

fn address(octet: u8) -> RData {
    RData::A(Ipv4Addr::new(192, 0, 2, octet))
}

/// An authoritative server for example.com (`www` at `192.0.2.<octet>`)
/// behind one socket bound to `addr`.
fn start_server(addr: &str, octet: u8, seed: u64) -> (LiveHost, NodeId, SocketAddr) {
    let mut zone = Zone::with_default_soa("example.com".parse().unwrap());
    zone.add_record(Record::new(HOST.parse().unwrap(), 300, address(octet)));
    let mut core = HostCore::new(seed, true);
    let auth = AuthServer::new(Authority::single(zone), TransportConfig::default(), seed);
    let node = core.live().add_node("auth", Box::new(auth));
    let socket = UdpSocket::bind(addr).unwrap_or_else(|e| fail(&format!("bind {addr}: {e}")));
    let local = socket.local_addr().expect("bound socket has an address");
    (
        LiveHost::start(core, vec![socket], vec![vec![node]]),
        node,
        local,
    )
}

/// Polls `check` against `host`'s core every 5 ms until it yields a
/// value, failing the example after `timeout`.
fn wait_for<T>(
    host: &LiveHost,
    timeout: Duration,
    step: &str,
    mut check: impl FnMut(&mut HostCore) -> Option<T>,
) -> T {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if let Some(v) = host.with_core(&mut check) {
            return v;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    fail(step)
}

fn main() {
    let (server, auth, server_addr) = start_server("127.0.0.1:0", 1, 2);
    println!("MoQT nameserver listening on {server_addr}");

    // Short idle timeout: a SIGKILLed peer sends nothing, so this timer
    // *is* the crash detector (the keep-alive holds it off while the peer
    // is alive). After a loss the stub redials and re-subscribes.
    let mut core = HostCore::new(1, false);
    let remote = core.register_remote(server_addr);
    let transport = TransportConfig::default()
        .idle_timeout(Duration::from_millis(600))
        .keep_alive(Duration::from_millis(200));
    let stub = StubResolver::with_transport(
        StubMode::Moqt,
        Addr::new(remote, MOQT_PORT),
        1,
        TeardownPolicy::Never,
        transport,
    )
    .redial_after(Duration::from_millis(250));
    let stub = core.live().add_node("stub", Box::new(stub));
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap_or_else(|e| fail(&format!("bind: {e}")));
    let client = LiveHost::start(core, vec![socket], vec![vec![stub]]);

    let name: Name = HOST.parse().unwrap();
    let question = Question::new(name.clone(), RecordType::A);
    let answer = |octet: u8| {
        let q = question.clone();
        move |core: &mut HostCore| {
            let s: &StubResolver = core.live().node_ref(stub);
            let records = s.answer(&q)?;
            records
                .iter()
                .find(|r| r.rdata == address(octet))
                .map(Record::to_string)
        }
    };

    client.with_core(|core| {
        core.live()
            .with_node::<StubResolver, _>(stub, |s, ctx| s.lookup(ctx, question.clone()));
    });
    println!("[client] SUBSCRIBE + joining FETCH for {question}");
    let initial = wait_for(&client, Duration::from_secs(5), "joining fetch", answer(1));
    println!("[client] initial answer: {initial}");

    server.with_core(|core| {
        core.live().with_node::<AuthServer, _>(auth, |a, ctx| {
            a.update_zone(ctx, |authority| {
                if let Some(z) = authority.find_zone_mut(&name) {
                    let r = Record::new(name.clone(), 300, address(99));
                    z.set_records(&name, RecordType::A, vec![r]);
                }
            });
        });
    });
    println!("[server] record changed -> pushing v2");
    let pushed = wait_for(&client, Duration::from_secs(5), "pushed update", answer(99));
    println!("[client] pushed update: {pushed}");
    println!("\nReal packets, real sockets, same state machines.");

    // --- crash drill: silent server death, detection, redial ---
    // Stopping the host joins its io workers and closes the socket
    // without a CONNECTION_CLOSE — exactly like `kill -9` on a daemon.
    println!("\n[chaos] killing the server (no CONNECTION_CLOSE sent)");
    server.stop();
    wait_for(
        &client,
        Duration::from_secs(5),
        "idle-timeout detection",
        |core| {
            let s: &StubResolver = core.live().node_ref(stub);
            (s.redials > 0).then_some(())
        },
    );
    println!("[client] peer declared dead by idle timeout; redialing");

    // A brand-new server image on the same address — none of its
    // predecessor's connections, and a record changed while it was down.
    // The redial's joining FETCH is what recovers it.
    let (server, _, _) = start_server(&server_addr.to_string(), 100, 3);
    println!("[chaos] server restarted on {server_addr}");
    let recovered = wait_for(
        &client,
        Duration::from_secs(10),
        "redial + joining fetch",
        answer(100),
    );
    println!("[client] recovered answer from restarted server: {recovered}");
    if !(client.stop() && server.stop()) {
        fail("clean io-worker drain");
    }
    println!("\nCrash, silence, detection, redial — recovery is part of the protocol.");
}
