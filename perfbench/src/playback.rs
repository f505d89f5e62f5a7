//! `playback`: the engine-heavy steady state.
//!
//! One load connection (in-process pipe) owns [`STREAMS`] mapped
//! player→output LOUDs, each playing a long sound from a seeded pool of
//! mixed types: the catalogue's `system/ring`, 8 kHz µ-law, 16 kHz
//! PCM-16 (resampled by the engine) and IMA ADPCM. The pool's decoded
//! size stays under the transcode-cache budget. One stream in
//! [`SYNC_EVERY`] selects SYNC events, which a second thread drains and
//! checks. The probe ([`crate::probe`]) times Play → `PlayStarted`,
//! `Sync` round trips and connects beside the load.

use crate::client::{play_loud_requests, upload_requests, Client, Tally};
use crate::probe::{self, Steer};
use crate::rng::Rng;
use crate::srv::{Clock, Srv};
use crate::{Cfg, Outcome, WARMUP};
use da_alib::Connection;
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::event::{Event, EventMask};
use da_proto::ids::{LoudId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{Encoding, QueueState, SoundType};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Concurrent streams.
pub const STREAMS: usize = 1024;

/// One stream in this many selects SYNC (~640 marks/s in total). More
/// overflow the load client's bounded event channel during set-up.
const SYNC_EVERY: usize = 16;

/// Upload block size for the pool.
const UPLOAD_CHUNK: usize = 64 * 1024;

/// A SyncMark position may fall back (a new play of the sound began)
/// only to below this many frames.
const RESTART_FRAMES: u64 = 4_000;

/// A sound in the pool.
pub struct PoolSound {
    stype: SoundType,
    data: Vec<u8>,
    secs: f64,
    /// Bound from the server catalogue rather than uploaded.
    catalog: bool,
}

/// Length of each uploaded pool sound. Fixed, so the pool's size, and
/// with it the memory and decode work, is the same for every seed.
const POOL_SOUND_S: f64 = 20.0;

/// The seeded pool: `system/ring` plus two long sounds of each uploaded
/// type, tones of seeded pitch.
pub fn pool(seed: u64) -> Vec<PoolSound> {
    let mut rng = Rng::new(seed).fork(1);
    let catalogs = da_server::sound::Catalogs::with_system_sounds();
    let ring = catalogs
        .get("system", "ring")
        .expect("system catalogue has a ring");
    let mut pool = vec![PoolSound {
        stype: ring.stype,
        data: ring.data.to_vec(),
        secs: ring.data.len() as f64 / 8000.0,
        catalog: true,
    }];
    let types = [
        SoundType::TELEPHONE,
        SoundType {
            encoding: Encoding::Pcm16,
            sample_rate: 16_000,
            channels: 1,
        },
        SoundType {
            encoding: Encoding::ImaAdpcm,
            sample_rate: 8_000,
            channels: 1,
        },
    ];
    for stype in types {
        for _ in 0..2 {
            let secs = POOL_SOUND_S;
            let frames = (secs * stype.sample_rate as f64) as usize;
            let freq = 200.0 + 1000.0 * rng.unit();
            let pcm = da_dsp::tone::sine(stype.sample_rate, freq, frames, 6000);
            let data = da_alib::connection::encode_for(stype, &pcm);
            pool.push(PoolSound {
                stype,
                data,
                secs,
                catalog: false,
            });
        }
    }
    let decoded: f64 = pool
        .iter()
        .map(|s| s.secs * s.stype.sample_rate as f64 * 2.0)
        .sum();
    assert!(
        decoded < da_server::store::TRANSCODE_CACHE_BYTES as f64,
        "pool decodes to {decoded} bytes, over the transcode-cache budget"
    );
    pool
}

/// The load connection's set-up requests: the pool, then every stream
/// with enough queued plays to outlast `cover_s` seconds, then the SYNC
/// selections. Selecting last keeps marks from filling the client's
/// bounded channel while the set-up burst is still being dispatched, which
/// would get the client evicted. Returns the requests and the root LOUDs.
pub fn setup_requests(
    seed: u64,
    pool: &[PoolSound],
    cover_s: f64,
    id: &mut dyn FnMut() -> u32,
) -> (Vec<Request>, Vec<LoudId>) {
    let mut rng = Rng::new(seed).fork(2);
    let mut reqs = Vec::new();
    let mut sounds = Vec::new();
    for s in pool {
        let sid = SoundId(id());
        if s.catalog {
            reqs.push(Request::OpenCatalogSound {
                id: sid,
                catalog: "system".into(),
                name: "ring".into(),
            });
        } else {
            reqs.extend(upload_requests(sid, s.stype, &s.data, UPLOAD_CHUNK));
        }
        sounds.push(sid);
    }
    let mut roots = Vec::with_capacity(STREAMS);
    let mut selects = Vec::new();
    for i in 0..STREAMS {
        let k = rng.below(pool.len());
        let (loud, player, output, wire) =
            (LoudId(id()), VDeviceId(id()), VDeviceId(id()), WireId(id()));
        reqs.extend(play_loud_requests(loud, player, output, wire, false));
        if i % SYNC_EVERY == 0 {
            selects.push(Request::SelectEvents {
                target: player.into(),
                mask: EventMask::SYNC,
            });
        }
        let plays = (cover_s / pool[k].secs).ceil() as usize;
        let entry = QueueEntry::Device {
            vdev: player,
            cmd: DeviceCommand::Play(sounds[k]),
        };
        reqs.push(Request::Enqueue {
            loud,
            entries: vec![entry; plays],
        });
        reqs.push(Request::StartQueue { loud });
        roots.push(loud);
    }
    reqs.extend(selects);
    (reqs, roots)
}

/// The requests the dispatch replay runs: the load's set-up plus a
/// probe's plays.
pub fn replay_script(seed: u64, id: &mut dyn FnMut() -> u32) -> Vec<Request> {
    let pool = pool(seed);
    let (mut reqs, _) = setup_requests(seed, &pool, 30.0, id);
    let (loud, player, output, wire) =
        (LoudId(id()), VDeviceId(id()), VDeviceId(id()), WireId(id()));
    reqs.extend(play_loud_requests(loud, player, output, wire, true));
    let sound = SoundId(id());
    reqs.extend(upload_requests(
        sound,
        SoundType::TELEPHONE,
        &[0xff; 400],
        400,
    ));
    for _ in 0..256 {
        let entry = QueueEntry::Device {
            vdev: player,
            cmd: DeviceCommand::Play(sound),
        };
        reqs.push(Request::Sync);
        reqs.push(Request::Enqueue {
            loud,
            entries: vec![entry],
        });
        reqs.push(Request::StartQueue { loud });
        reqs.extend(std::iter::repeat_n(Request::Sync, 4));
    }
    reqs
}

/// Starts a server and builds the load on it; the set-up time ends at
/// the reply to the fencing `Sync`.
fn set_up(
    cfg: &Cfg,
    pool: &[PoolSound],
    tally: &Tally,
) -> Result<(Srv, Client, Vec<LoudId>, f64), String> {
    let t = Instant::now();
    let srv = Srv::start(false, cfg.traced, cfg.io_workers).map_err(|e| format!("server: {e}"))?;
    let conn = Connection::establish(srv.server.connect_pipe(), "load")
        .map_err(|e| format!("load connection: {e:?}"))?;
    let mut load = Client::new(conn);
    let cover_s = cfg.seconds + 20.0;
    let (reqs, roots) = setup_requests(cfg.seed, pool, cover_s, &mut || load.id());
    for (i, req) in reqs.into_iter().enumerate() {
        load.send(tally, req)
            .map_err(|e| format!("load set-up: {e:?}"))?;
        if i % 256 == 255 {
            load.round_trip(tally, Request::Sync)
                .map_err(|e| format!("load set-up: {e:?}"))?;
            load.drain_errors(tally);
        }
    }
    load.round_trip(tally, Request::Sync)
        .map_err(|e| format!("load set-up: {e:?}"))?;
    load.drain_errors(tally);
    Ok((srv, load, roots, t.elapsed().as_secs_f64()))
}

/// Drains the load connection until `stop`, checking that each SYNC
/// stream's mark positions rise. Returns the client and marks seen
/// while measuring.
fn drain(mut load: Client, steer: Steer<'_>, tally: &Tally) -> (Client, u64) {
    let mut last: HashMap<VDeviceId, (u64, u64)> = HashMap::new();
    let mut marks = 0;
    while !steer.stop.load(Ordering::Relaxed) {
        match load.next_event(tally, Duration::from_millis(20)) {
            Ok(Some(Event::SyncMark {
                vdev,
                position,
                device_time,
                ..
            })) => {
                if let Some(&(pos, at)) = last.get(&vdev) {
                    let rises = position > pos || position < RESTART_FRAMES;
                    tally.check(rises && device_time > at, || {
                        format!(
                            "playback: SyncMark on {vdev:?} went from {pos}@{at} to \
                             {position}@{device_time}"
                        )
                    });
                }
                last.insert(vdev, (position, device_time));
                if steer.measuring.load(Ordering::Relaxed) {
                    marks += 1;
                }
            }
            Ok(_) => {}
            Err(_) => break, // counted by the client
        }
    }
    (load, marks)
}

/// Checks every load queue is still Started. Queries are pipelined in
/// batches that fit the client's bounded outbound channel.
fn check_queues(load: &mut Client, roots: &[LoudId], tally: &Tally) {
    for batch in roots.chunks(64) {
        let mut seqs = Vec::with_capacity(batch.len());
        for &loud in batch {
            match load.send(tally, Request::QueryQueue { loud }) {
                Ok(seq) => seqs.push((loud, seq)),
                Err(_) => return,
            }
        }
        for (loud, seq) in seqs {
            let reply = load.conn.wait_reply(seq);
            let ok = matches!(
                reply,
                Ok(Reply::QueueInfo {
                    state: QueueState::Started,
                    ..
                })
            );
            tally.check(ok, || {
                format!("playback: load queue {loud:?} answered {reply:?} at the end")
            });
        }
    }
    load.drain_errors(tally);
}

/// Runs the workload.
pub fn run(cfg: &Cfg, tally: &Tally) -> Result<Outcome, String> {
    let pool = pool(cfg.seed);
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..cfg.setups {
        let (srv, load, roots, secs) = set_up(cfg, &pool, tally)?;
        setup_s.push(secs);
        if i + 1 == cfg.setups {
            kept = Some((srv, load, roots));
        } else {
            drop(load);
            srv.stop();
        }
    }
    let (srv, load, roots) = kept.ok_or("no set-up ran")?;
    let (measuring, stop, stop_drain) = (
        AtomicBool::new(false),
        AtomicBool::new(false),
        AtomicBool::new(false),
    );
    let probe_rng = Rng::new(cfg.seed).fork(3);
    let (window, (mut load, marks), (probe, recording)) = std::thread::scope(|s| {
        let drainer = s.spawn(|| {
            drain(
                load,
                Steer {
                    measuring: &measuring,
                    stop: &stop_drain,
                },
                tally,
            )
        });
        let prober = s.spawn(|| {
            let steer = Steer {
                measuring: &measuring,
                stop: &stop,
            };
            probe::run(&srv.server, probe_rng, steer, tally, cfg.traced)
        });
        std::thread::sleep(WARMUP);
        measuring.store(true, Ordering::Relaxed);
        let window = Clock::open(&srv, cfg.seconds).sleep_out(&srv);
        measuring.store(false, Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
        // The drain outlives the probe's connect phase, so the load's
        // events keep flowing while connects are timed.
        let probed = prober.join();
        stop_drain.store(true, Ordering::Relaxed);
        match (drainer.join(), probed) {
            (Ok(d), Ok(p)) => (window, d, p),
            _ => panic!("a playback thread panicked"),
        }
    });
    check_queues(&mut load, &roots, tally);
    let wall = window.wall_s();
    drop(load);
    let ticks_ns = srv.stop();
    let notes = vec![
        "transport=pipe streams=1024 sync_streams=64 probe=pipe".to_string(),
        format!("sync_marks_per_s = {}", marks as f64 / wall),
    ];
    Ok(Outcome {
        setup_s,
        connect_ms: probe.connect_ms,
        play_start_ms: probe.play_start_ms,
        rtt_us: probe.rtt_us,
        work: probe.work,
        uploads: probe.uploads,
        window,
        ticks_ns,
        recording: recording.unwrap_or_default(),
        payloads: pool.into_iter().map(|s| (s.stype, s.data)).collect(),
        notes,
    })
}
