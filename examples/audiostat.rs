//! audiostat: top-style server telemetry introspection.
//!
//! With a server address, connects over TCP and prints a statistics
//! snapshot every second (or once with `--once`):
//!
//! ```text
//! cargo run -p da-examples --bin audiostat -- 127.0.0.1:7700
//! cargo run -p da-examples --bin audiostat -- --once 127.0.0.1:7700
//! cargo run -p da-examples --bin audiostat -- --watch 127.0.0.1:7700
//! ```
//!
//! `--watch` adds the flight-recorder panel to every refresh: per-stage
//! latency attribution percentiles plus a waterfall of the worst
//! retained trace (DESIGN.md §15). `--frames N` bounds the refresh loop
//! to N frames, for scripted runs.
//!
//! With no address, starts an in-process demo server, runs a scripted
//! workload against it, and prints one snapshot (or, under `--watch`,
//! N refresh frames with live trace panels). In that mode the tool
//! doubles as a smoke test: it exits non-zero unless every headline
//! figure — per-opcode dispatch counts, tick percentiles, plan-cache hit
//! rate, per-client byte counters, connection-plane worker and dispatch
//! counts, and in watch mode a fully-stamped trace — came back non-zero.

use da_alib::Connection;
use da_proto::event::Event;
use da_proto::reply::TraceStage;
use da_server::core::ServerConfig;
use da_server::server::AudioServer;
use da_toolkit::builders::PlayLoud;
use da_toolkit::sounds::SoundHandle;
use da_toolkit::stats::StatsSnapshot;
use da_toolkit::traces::TraceReport;
use std::time::Duration;

/// How many traces each watch frame asks the server for.
const WATCH_TRACES: u32 = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    let watch_traces = args.iter().any(|a| a == "--watch");
    let frames = args
        .iter()
        .position(|a| a == "--frames")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse::<u64>().ok());
    let addr = args
        .iter()
        .enumerate()
        .find(|&(i, a)| {
            !a.starts_with("--") && args.get(i.wrapping_sub(1)).map(String::as_str) != Some("--frames")
        })
        .map(|(_, a)| a.clone());
    let ok = match addr {
        Some(addr) => watch(&addr, once, watch_traces, frames),
        None if watch_traces => demo_watch(frames.unwrap_or(3)),
        None => demo(),
    };
    if !ok {
        std::process::exit(1);
    }
}

/// Connects to a running server and prints snapshots; with
/// `watch_traces`, each refresh also renders the flight-recorder panel.
fn watch(addr: &str, once: bool, watch_traces: bool, frames: Option<u64>) -> bool {
    let mut conn = match Connection::open_tcp(addr, "audiostat") {
        Ok(c) => c,
        Err(e) => {
            eprintln!("audiostat: cannot connect to {addr}: {e}");
            return false;
        }
    };
    let mut rendered = 0u64;
    loop {
        match StatsSnapshot::fetch(&mut conn) {
            Ok(snap) => print!("{}", snap.render()),
            Err(e) => {
                eprintln!("audiostat: {e}");
                return false;
            }
        }
        if watch_traces {
            match TraceReport::fetch(&mut conn, WATCH_TRACES) {
                Ok(report) => {
                    println!();
                    print!("{}", report.render());
                }
                Err(e) => {
                    eprintln!("audiostat: {e}");
                    return false;
                }
            }
        }
        rendered += 1;
        if once || frames.is_some_and(|n| rendered >= n) {
            return true;
        }
        println!();
        std::thread::sleep(Duration::from_secs(1));
    }
}

/// Starts an in-process server and renders `frames` watch refreshes,
/// each driving a play through the engine so the flight recorder has a
/// fresh fully-stamped trace to waterfall. Smoke-fails unless one shows
/// every stage.
fn demo_watch(frames: u64) -> bool {
    let config = ServerConfig { manual_ticks: true, ..ServerConfig::default() };
    let server = AudioServer::start(config).expect("start server");
    let control = server.control();
    // Capture every request: a scripted three-frame run is far below the
    // default 1-in-16 sampling rate.
    control.with_core(|c| c.tel.recorder.set_sampling(1, 0));
    let mut conn =
        Connection::establish(server.connect_pipe(), "audiostat-watch").expect("connect");
    let play = PlayLoud::build(&mut conn, vec![]).expect("build play loud");
    // Short tone: it must finish (CommandDone) within one frame's ticks.
    let pcm = da_dsp::tone::sine(8000, 440.0, 800, 12000);
    let sound = SoundHandle::from_pcm(&mut conn, 8000, &pcm).expect("upload");

    let mut saw_full_trace = false;
    for frame in 0..frames.max(1) {
        play.play(&mut conn, sound.id).expect("play");
        conn.sync().expect("sync");
        control.tick_n(20);
        let loud = play.loud;
        conn.wait_event(Duration::from_secs(5), |e| {
            matches!(e, Event::CommandDone { loud: l, .. } if *l == loud)
        })
        .expect("command done");

        let snap = StatsSnapshot::fetch(&mut conn).expect("fetch stats");
        let report = TraceReport::fetch(&mut conn, WATCH_TRACES).expect("fetch traces");
        if report.traces.iter().any(|t| t.stages.len() == TraceStage::COUNT) {
            saw_full_trace = true;
        }
        print!("{}", snap.render());
        println!();
        print!("{}", report.render());
        if frame + 1 < frames {
            println!();
        }
    }
    play.stop(&mut conn).ok();
    conn.sync().ok();
    server.shutdown();
    if !saw_full_trace {
        eprintln!("audiostat: FAIL: no fully-stamped trace recorded in watch mode");
    }
    saw_full_trace
}

/// Starts an in-process server, exercises it, and prints one snapshot.
fn demo() -> bool {
    let config = ServerConfig { manual_ticks: true, ..ServerConfig::default() };
    let server = AudioServer::start(config).expect("start server");
    let control = server.control();
    let mut conn = Connection::establish(server.connect_pipe(), "audiostat-demo").expect("connect");

    // Scripted workload: build a playback LOUD, upload a tone, play it
    // while the engine ticks, and let a topology change force one plan
    // rebuild beyond the initial one.
    let play = PlayLoud::build(&mut conn, vec![]).expect("build play loud");
    let pcm = da_dsp::tone::sine(8000, 440.0, 4000, 12000);
    let sound = SoundHandle::from_pcm(&mut conn, 8000, &pcm).expect("upload");
    play.play(&mut conn, sound.id).expect("play");
    conn.sync().expect("sync");
    control.tick_n(20);
    let extra = PlayLoud::build(&mut conn, vec![]).expect("second loud");
    conn.sync().expect("sync");
    control.tick_n(20);
    // Replay a shared catalogue sound twice: the second play's decode
    // windows must come out of the transcode cache (DESIGN.md §17).
    let ring = conn.open_catalog_sound("system", "ring").expect("open catalogue sound");
    for _ in 0..2 {
        play.play(&mut conn, ring).expect("play catalogue sound");
        conn.sync().expect("sync");
        control.tick_n(10);
    }
    play.stop(&mut conn).ok();
    extra.stop(&mut conn).ok();
    conn.sync().expect("sync");

    let snap = StatsSnapshot::fetch(&mut conn).expect("fetch stats");
    print!("{}", snap.render());

    // Smoke-check the headline figures.
    let mut failures = Vec::new();
    if snap.opcode_counts().is_empty() {
        failures.push("no per-opcode dispatch counts".to_string());
    }
    if snap.tick_p50_us() == 0 || snap.tick_p99_us() == 0 {
        failures.push(format!(
            "zero tick percentiles (p50 {} us, p99 {} us)",
            snap.tick_p50_us(),
            snap.tick_p99_us()
        ));
    }
    match snap.plan_cache_hit_rate() {
        Some(rate) if rate > 0.0 => {}
        other => failures.push(format!("plan-cache hit rate not positive: {other:?}")),
    }
    if !snap.clients.iter().any(|c| c.bytes_in > 0 && c.bytes_out > 0) {
        failures.push("no client with non-zero byte counters".to_string());
    }
    // Connection-plane panel: the pool size is set at startup and every
    // request above has been dispatched (sync round-tripped), so both
    // figures must be live in the same QueryServerStats wire format.
    if snap.server.gauge("conn_plane_workers").unwrap_or(0) == 0 {
        failures.push("connection plane reports zero I/O workers".to_string());
    }
    let (fast, slow) = snap.dispatch_split();
    if fast + slow == 0 {
        failures.push("no dispatches counted on either path".to_string());
    }
    // Shared-store panel: the system catalogue is interned at startup
    // and the replayed catalogue sound must have hit the transcode cache.
    if snap.server.gauge("store_payloads").unwrap_or(0) == 0 {
        failures.push("shared store reports zero interned payloads".to_string());
    }
    match snap.transcode_hit_rate() {
        Some(rate) if rate > 0.0 => {}
        other => failures.push(format!("transcode hit rate not positive: {other:?}")),
    }
    // Activation panel: each of the two play LOUDs was mapped, and each
    // map walked the stack and bound the newly mapped root.
    let walks = snap.server.histogram("activation_us").map(|h| h.count).unwrap_or(0);
    let rebinds = snap.server.counter("activation_rebinds_total").unwrap_or(0);
    if walks < 2 || rebinds < 2 {
        failures.push(format!("activation panel not live: {walks} walks, {rebinds} rebinds"));
    }
    server.shutdown();
    for f in &failures {
        eprintln!("audiostat: FAIL: {f}");
    }
    failures.is_empty()
}
