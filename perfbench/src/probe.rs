//! The probe client of the `playback` and `transfer` workloads: a
//! closed loop, on its own connection and thread, timing what an
//! interactive client sees while the workload's load runs beside it.
//!
//! The probe connects, builds a mapped player→output LOUD, uploads a
//! 50 ms sound, and plays it until told to stop. One play is: a seeded
//! think time, `Sync`, Play (`Enqueue` + `StartQueue`), then
//! `PlayStarted` (timed from the `Enqueue`), then a `Sync` (each timed)
//! every 0.5–1.5 ms until `CommandDone`. The seeded pauses keep
//! requests from phase-locking to the engine tick. After the plays
//! comes the connect phase ([`connects`]).

use crate::client::{Client, Tally};
use crate::rng::Rng;
use crate::srv::Series;
use da_alib::Connection;
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::event::Event;
use da_proto::ids::{LoudId, SoundId, VDeviceId};
use da_proto::request::Request;
use da_proto::types::SoundType;
use da_server::AudioServer;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Connections timed in the connect phase.
const CONNECTS: usize = 40;

/// Shortest and longest seeded pause before each timed connect. Under
/// the `playback` load, each connection's arrival and departure makes
/// the engine rebuild the route plans of every stream, which stalls
/// the server for tens of milliseconds; the pause outlasts that stall.
const CONNECT_PAUSE_MS: (f64, f64) = (100.0, 140.0);

/// Longest seeded think time before a play.
const THINK_MAX_US: f64 = 10_000.0;

/// Probe sound length: 50 ms at 8 kHz.
const PROBE_FRAMES: usize = 400;

/// What the probe measured inside the window.
#[derive(Debug, Default)]
pub struct ProbeSamples {
    /// Connect plus setup handshake, ms.
    pub connect_ms: Vec<f64>,
    /// Enqueue → `PlayStarted`, ms.
    pub play_start_ms: Series,
    /// `Sync` round trips, µs.
    pub rtt_us: Series,
    /// Per play: when it ended, its requests, and its wall seconds.
    pub work: Vec<(Instant, u64, f64)>,
    /// Uploads finalized.
    pub uploads: u64,
}

/// Flags the workload's main thread uses to steer the probe.
pub struct Steer<'a> {
    /// Set when the window is open: samples are kept only then.
    pub measuring: &'a AtomicBool,
    /// Set to end the loop after the current play.
    pub stop: &'a AtomicBool,
}

/// Runs the probe against `server`: one session of plays until
/// `steer.stop`, then the connect phase.
pub fn run(
    server: &AudioServer,
    mut rng: Rng,
    steer: Steer<'_>,
    tally: &Tally,
    record: bool,
) -> (ProbeSamples, Option<crate::client::Recording>) {
    let mut out = ProbeSamples::default();
    let mut recording = None;
    match Connection::establish(server.connect_pipe(), "probe") {
        Ok(conn) => {
            let mut c = Client::new(conn);
            if record {
                c.record = Some(Default::default());
            }
            let _ = plays(&mut c, &mut rng, &steer, tally, &mut out);
            c.drain_errors(tally);
            recording = c.record.take();
        }
        Err(e) => {
            tally.attempt(1);
            tally.fail(format!("probe connect: {e:?}"));
        }
    }
    out.connect_ms = connects(server, &mut rng, tally);
    (out, recording)
}

/// The connect phase, after the window, with the load still running:
/// [`CONNECTS`] connections opened (timed: connect plus setup
/// handshake) and closed one at a time, each after a seeded pause of
/// [`CONNECT_PAUSE_MS`]. Kept apart from the plays so that connection
/// churn does not disturb the window.
///
/// Each connect starts just after an engine tick ends. A handshake
/// that lands during a tick waits for it; at 1024 streams about 40% do,
/// which splits the samples between two modes and leaves their median
/// swinging between them from run to run. Starting after a tick times
/// the handshake itself; the wait behind the tick is what `Sync`'s
/// tail (`rtt_p95_us`) measures.
fn connects(server: &AudioServer, rng: &mut Rng, tally: &Tally) -> Vec<f64> {
    let control = server.control();
    let mut samples = Vec::with_capacity(CONNECTS);
    let (lo, hi) = CONNECT_PAUSE_MS;
    for _ in 0..CONNECTS {
        std::thread::sleep(Duration::from_secs_f64((lo + (hi - lo) * rng.unit()) / 1e3));
        // `device_time` takes the core's read lock, so it waits out a
        // running tick; the loop ends as the next tick completes.
        let at = control.device_time();
        while control.device_time() == at {
            std::thread::sleep(Duration::from_micros(100));
        }
        tally.attempt(1);
        let t = Instant::now();
        match Connection::establish(server.connect_pipe(), "probe-connect") {
            Ok(conn) => {
                samples.push(t.elapsed().as_secs_f64() * 1e3);
                drop(conn);
            }
            Err(e) => tally.fail(format!("probe connect: {e:?}")),
        }
    }
    samples
}

/// The probe's LOUD and sound, then plays until `steer.stop`. Errors
/// were already counted.
fn plays(
    c: &mut Client,
    rng: &mut Rng,
    steer: &Steer<'_>,
    tally: &Tally,
    out: &mut ProbeSamples,
) -> Result<(), da_alib::AlibError> {
    let (loud, player) = c.build_play_loud(tally, true)?;
    let pcm = da_dsp::tone::sine(8000, 300.0 + 500.0 * rng.unit(), PROBE_FRAMES, 8000);
    let bytes = da_alib::connection::encode_for(SoundType::TELEPHONE, &pcm);
    let sound = c.upload(tally, SoundType::TELEPHONE, &bytes, bytes.len())?;
    c.round_trip(tally, Request::Sync)?;
    if steer.measuring.load(Ordering::Relaxed) {
        out.uploads += 1;
    }
    while !steer.stop.load(Ordering::Relaxed) {
        let (began, sent) = (Instant::now(), c.sent);
        std::thread::sleep(Duration::from_secs_f64(rng.unit() * THINK_MAX_US / 1e6));
        play_once(c, rng, (loud, player, sound), steer, tally, out)?;
        if steer.measuring.load(Ordering::Relaxed) {
            // The probe paces itself, so its rate is per wall second.
            out.work
                .push((Instant::now(), c.sent - sent, began.elapsed().as_secs_f64()));
        }
    }
    Ok(())
}

/// One timed play: `Sync`, Play → `PlayStarted`, `Sync`s until
/// `CommandDone`, checking the events arrive in that order.
fn play_once(
    c: &mut Client,
    rng: &mut Rng,
    (loud, player, sound): (LoudId, VDeviceId, SoundId),
    steer: &Steer<'_>,
    tally: &Tally,
    out: &mut ProbeSamples,
) -> Result<(), da_alib::AlibError> {
    let measuring = steer.measuring.load(Ordering::Relaxed);
    let mut rtt = Vec::new();
    c.timed(tally, Request::Sync, &mut rtt)?;
    let t = Instant::now();
    let play = QueueEntry::Device {
        vdev: player,
        cmd: DeviceCommand::Play(sound),
    };
    c.send(
        tally,
        Request::Enqueue {
            loud,
            entries: vec![play],
        },
    )?;
    c.send(tally, Request::StartQueue { loud })?;
    let started = c.wait_event(tally, "PlayStarted", |e| {
        matches!(e, Event::PlayStarted { vdev, .. } if *vdev == player)
            || matches!(e, Event::CommandDone { loud: l, .. } if *l == loud)
    })?;
    let play_start_ms = (Instant::now(), t.elapsed().as_secs_f64() * 1e3);
    tally.check(matches!(started, Event::PlayStarted { .. }), || {
        "probe: CommandDone arrived before PlayStarted".to_string()
    });
    // Sync every millisecond or so until the play completes.
    let done = loop {
        std::thread::sleep(Duration::from_micros(500 + rng.below(1000) as u64));
        c.timed(tally, Request::Sync, &mut rtt)?;
        let mut done = false;
        while let Some(ev) = c.poll_event(tally)? {
            done |= matches!(ev, Event::CommandDone { loud: l, .. } if l == loud);
        }
        if done || t.elapsed() > crate::client::WAIT {
            break done;
        }
    };
    tally.check(done, || {
        "probe: no CommandDone after PlayStarted".to_string()
    });
    if measuring {
        out.play_start_ms.push(play_start_ms);
        out.rtt_us.extend(rtt);
    }
    Ok(())
}
