//! The event-driven connection plane (DESIGN.md §13): bounded I/O
//! threads, sharded fast-path dispatch, eager reaping under churn, and
//! resilience to short-read fault injection at the transport.

mod common;

use common::{connect, start};
use da_proto::command::DeviceCommand;
use da_proto::fault::{FaultKind, FaultPlan, FaultyDuplex};
use da_proto::types::{DeviceClass, SoundType, WireType};
use da_server::{AudioServer, ServerConfig};
use std::time::Duration;

/// Serialises this file's tests, so no other test's server runs while
/// one of them counts server threads.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // The guarded value is `()`, so a panicked holder leaves nothing
    // inconsistent behind.
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// OS threads of this process that belong to a server: every server
/// thread is named `da-*`. The test harness's own threads, including
/// those of tests waiting on [`SERIAL`], are not counted.
fn server_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc tasks")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("da-"))
        .count()
}

/// Waits until exactly `n` server threads exist: a thread names itself
/// only once it runs, so a count taken right after start may miss some.
fn await_server_threads(n: usize) -> bool {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server_threads() != n {
        if std::time::Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

#[test]
fn fast_path_carries_single_client_traffic() {
    let _serial = serial();
    let (server, mut conn) = start();
    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    let pcm = da_dsp::tone::sine(8000, 440.0, 1600, 3000);
    let sound = conn.upload_pcm(SoundType::TELEPHONE, &pcm).unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound)).unwrap();
    // map_loud punts (activation is cross-shard); everything above is
    // own-shard and must have run on the fast path.
    conn.map_loud(loud).unwrap();
    // Requests without replies are fire-and-forget; Sync round-trips,
    // so everything before it has been dispatched once it returns.
    conn.sync().unwrap();
    let (fast, slow) = server
        .control()
        .with_core(|c| (c.tel.metrics.dispatch_fast_total.get(), c.tel.metrics.dispatch_slow_total.get()));
    assert!(fast >= 5, "expected fast-path dispatches, saw {fast}");
    assert!(slow >= 1, "map_loud must punt to the slow path, saw {slow}");
    server.shutdown();
}

#[test]
fn io_threads_bounded_by_worker_pool() {
    let _serial = serial();
    let before = server_threads();
    let server = AudioServer::start(ServerConfig {
        io_workers: 2,
        ..ServerConfig::default()
    })
    .expect("server");
    assert_eq!(server.io_workers(), 2);
    // 32 concurrent clients: thread-per-client would add 64 threads
    // here; the plane adds exactly io_workers + engine, regardless.
    let conns: Vec<_> = (0..32).map(|i| connect(&server, &format!("swarm-{i}"))).collect();
    let during = server_threads();
    assert!(
        during <= before + 3,
        "I/O threads must be O(workers): {before} -> {during} with 32 clients"
    );
    let workers = server
        .control()
        .with_core(|c| c.tel.metrics.conn_plane_workers.get());
    assert_eq!(workers, 2);
    drop(conns);
    server.shutdown();
}

#[test]
fn connection_churn_reaps_eagerly() {
    let _serial = serial();
    let server = AudioServer::start(ServerConfig::default()).expect("server");
    let control = server.control();
    // The I/O workers plus the engine.
    let baseline = server.io_workers() + 1;
    assert!(await_server_threads(baseline), "server threads never all started");
    // 60 connect/work/disconnect cycles. Under the old model each cycle
    // spawned two threads whose handles accumulated until shutdown;
    // the plane must reap every finished connection as it dies.
    for i in 0..60 {
        let mut conn = connect(&server, &format!("churn-{i}"));
        let loud = conn.create_loud(None).unwrap();
        let _ = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
        drop(conn);
    }
    // All sessions must drain from the core and the plane.
    assert!(
        control.run_until(Duration::from_secs(10), |c| c.clients.is_empty()),
        "churned clients leaked from the core"
    );
    assert!(
        control.run_until(Duration::from_secs(10), |c| {
            c.tel.metrics.conn_plane_connections.get() == 0
        }),
        "plane still tracks connections after churn"
    );
    let after = server_threads();
    assert!(
        after <= baseline + 1,
        "thread count grew under churn: {baseline} -> {after}"
    );
    server.shutdown();
}

#[test]
fn short_reads_never_corrupt_dispatch() {
    let _serial = serial();
    let server = AudioServer::start(ServerConfig::default()).expect("server");
    // Heavy short-read injection: every frame crossing the transport is
    // likely to arrive in several pieces, so the plane's incremental
    // reassembly is exercised on real traffic, not just scripted bytes.
    let plan = FaultPlan::quiet(42).with_rate(FaultKind::ShortRead, 900);
    let (duplex, stats) = FaultyDuplex::wrap(server.connect_pipe(), &plan);
    let mut conn = da_alib::Connection::establish(duplex, "short-read").expect("connect");
    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    // A multi-kilobyte upload guarantees fragmented request payloads.
    let pcm = da_dsp::tone::sine(8000, 600.0, 8000, 3000);
    let sound = conn.upload_pcm(SoundType::TELEPHONE, &pcm).unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound)).unwrap();
    assert!(stats.count(FaultKind::ShortRead) > 0, "plan injected no short reads");
    // The server's world must be fully consistent despite the torn I/O.
    server.control().with_core(|c| {
        da_server::validate::check(c).expect("invariants hold under short reads");
    });
    drop(conn);
    let control = server.control();
    assert!(
        control.run_until(Duration::from_secs(10), |c| c.clients.is_empty()),
        "short-read client leaked"
    );
    server.shutdown();
}
