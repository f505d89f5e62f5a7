//! `transfer`: bulk sound bytes through the protocol and the store.
//!
//! A closed loop on one thread over an in-process pipe: create a sound,
//! write it in [`CHUNK`]-byte `WriteSoundData` blocks with `eof`, read
//! it back with `ReadSoundData` (each read timed) and compare, keep
//! [`LIVE`] sounds and delete the oldest. Sizes are a seeded log-uniform
//! mix from 1 KiB to 256 KiB, and about half the uploads repeat a live
//! sound's bytes, which the store must dedupe. The probe
//! ([`crate::probe`]) runs beside it on a second connection.

use crate::client::{upload_requests, Client, Tally};
use crate::probe::{self, Steer};
use crate::rng::Rng;
use crate::srv::{Clock, Series, Srv};
use crate::{Cfg, Outcome, WARMUP};
use da_alib::Connection;
use da_proto::ids::SoundId;
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::SoundType;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Upload block size.
const CHUNK: usize = 4096;

/// Read-back block size (alib's).
const READ_CHUNK: u32 = 64 * 1024;

/// Sounds kept alive.
const LIVE: usize = 32;

/// Smallest and largest upload, as powers of two.
const MIN_LOG2: f64 = 10.0;
const MAX_LOG2: f64 = 18.0;

/// Share of uploads that repeat a live sound.
const DUP_SHARE: f64 = 0.5;

/// The seeded upload sequence. Fresh uploads are slices of a random
/// buffer stamped with a serial number, so no two fresh uploads are
/// equal; a duplicate repeats a sound that is still live.
pub struct Uploads {
    rng: Rng,
    bytes: Vec<u8>,
    serial: u64,
    live: VecDeque<Arc<Vec<u8>>>,
}

/// One planned upload.
pub struct Upload {
    /// Its bytes.
    pub data: Arc<Vec<u8>>,
    /// Whether it repeats a live sound.
    pub dup: bool,
    /// Whether the oldest live sound is deleted after it.
    pub evicts: bool,
}

impl Uploads {
    /// The sequence for `seed`.
    pub fn new(seed: u64) -> Uploads {
        let mut rng = Rng::new(seed).fork(5);
        let mut bytes = vec![0u8; 1 << 20];
        rng.fill(&mut bytes);
        Uploads {
            rng,
            bytes,
            serial: 0,
            live: VecDeque::new(),
        }
    }

    /// The next upload.
    pub fn next_upload(&mut self) -> Upload {
        let dup = !self.live.is_empty() && self.rng.chance(DUP_SHARE);
        let data = if dup {
            Arc::clone(&self.live[self.rng.below(self.live.len())])
        } else {
            let len = 2f64.powf(MIN_LOG2 + (MAX_LOG2 - MIN_LOG2) * self.rng.unit()) as usize;
            let at = self.rng.below(self.bytes.len() - len);
            let mut data = self.bytes[at..at + len].to_vec();
            self.serial += 1;
            data[..8].copy_from_slice(&self.serial.to_le_bytes());
            Arc::new(data)
        };
        self.live.push_back(Arc::clone(&data));
        let evicts = self.live.len() > LIVE;
        if evicts {
            self.live.pop_front();
        }
        Upload { data, dup, evicts }
    }
}

/// The requests of one upload cycle.
fn cycle(id: SoundId, up: &Upload) -> Vec<Request> {
    upload_requests(id, SoundType::TELEPHONE, &up.data, CHUNK)
}

/// The requests the dispatch replay runs: the first 256 cycles.
pub fn replay_script(seed: u64, id: &mut dyn FnMut() -> u32) -> Vec<Request> {
    let mut plan = Uploads::new(seed);
    let mut live = VecDeque::new();
    let mut reqs = Vec::new();
    for _ in 0..256 {
        let up = plan.next_upload();
        let sid = SoundId(id());
        reqs.extend(cycle(sid, &up));
        for offset in (0..up.data.len()).step_by(READ_CHUNK as usize) {
            reqs.push(Request::ReadSoundData {
                id: sid,
                offset: offset as u64,
                len: READ_CHUNK,
            });
        }
        live.push_back(sid);
        if up.evicts {
            if let Some(old) = live.pop_front() {
                reqs.push(Request::DeleteSound { id: old });
            }
        }
    }
    reqs
}

/// Reads a sound back whole, timing each read.
fn read_back(
    c: &mut Client,
    tally: &Tally,
    id: SoundId,
    rtt_us: &mut Series,
) -> Result<Vec<u8>, da_alib::AlibError> {
    let mut out = Vec::new();
    loop {
        let req = Request::ReadSoundData {
            id,
            offset: out.len() as u64,
            len: READ_CHUNK,
        };
        match c.timed(tally, req, rtt_us)? {
            Reply::SoundData { data, at_end } => {
                let empty = data.is_empty();
                out.extend_from_slice(&data);
                if at_end || empty {
                    return Ok(out);
                }
            }
            other => {
                tally.check(false, || {
                    format!("transfer: ReadSoundData answered {other:?}")
                });
                return Ok(out);
            }
        }
    }
}

/// What the loop counted while measuring.
#[derive(Default)]
struct Counts {
    uploads: u64,
    dups: u64,
    bytes: u64,
}

/// Runs the workload.
pub fn run(cfg: &Cfg, tally: &Tally) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..cfg.setups {
        let t = Instant::now();
        let srv =
            Srv::start(false, cfg.traced, cfg.io_workers).map_err(|e| format!("server: {e}"))?;
        let conn = Connection::establish(srv.server.connect_pipe(), "transfer")
            .map_err(|e| format!("transfer connection: {e:?}"))?;
        let mut c = Client::new(conn);
        c.round_trip(tally, Request::Sync)
            .map_err(|e| format!("first sync: {e:?}"))?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == cfg.setups {
            kept = Some((srv, c));
        } else {
            drop(c);
            srv.stop();
        }
    }
    let (srv, mut c) = kept.ok_or("no set-up ran")?;
    let (measuring, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let probe_rng = Rng::new(cfg.seed).fork(3);
    let mut plan = Uploads::new(cfg.seed);
    let mut live: VecDeque<SoundId> = VecDeque::new();
    let (mut rtt_us, mut work) = (Vec::new(), Vec::new());
    let mut counts = Counts::default();
    let mut payloads = Vec::new();
    let (window, (probe, probe_recording)) = std::thread::scope(|s| {
        let prober = s.spawn(|| {
            let steer = Steer {
                measuring: &measuring,
                stop: &stop,
            };
            probe::run(&srv.server, probe_rng, steer, tally, cfg.traced)
        });
        let warm_until = Instant::now() + WARMUP;
        let mut clock: Option<Clock> = None;
        loop {
            if clock.is_none() && Instant::now() >= warm_until {
                measuring.store(true, Ordering::Relaxed);
                clock = Some(Clock::open(&srv, cfg.seconds));
                if cfg.traced {
                    c.record = Some(Default::default());
                }
            }
            let measured = match clock.as_mut().map(|k| k.poll(&srv)) {
                Some(true) => break,
                Some(false) => true,
                None => false,
            };
            let up = plan.next_upload();
            let id = SoundId(c.id());
            let (began, sent) = (Instant::now(), c.sent);
            let mut rtt = Vec::new();
            let cycle_ok = (|| {
                for req in cycle(id, &up) {
                    c.send(tally, req)?;
                }
                let back = read_back(&mut c, tally, id, &mut rtt)?;
                tally.check(back == *up.data, || {
                    format!(
                        "transfer: read back {} bytes differing from the {} written",
                        back.len(),
                        up.data.len()
                    )
                });
                live.push_back(id);
                if up.evicts {
                    if let Some(old) = live.pop_front() {
                        c.send(tally, Request::DeleteSound { id: old })?;
                    }
                }
                Ok::<_, da_alib::AlibError>(())
            })();
            if cycle_ok.is_err() {
                c.drain_errors(tally);
            }
            if measured {
                rtt_us.extend(rtt);
                work.push((Instant::now(), c.sent - sent, began.elapsed().as_secs_f64()));
                counts.uploads += 1;
                counts.dups += up.dup as u64;
                counts.bytes += 2 * up.data.len() as u64;
                if cfg.traced && payloads.len() < 256 {
                    payloads.push((SoundType::TELEPHONE, up.data.to_vec()));
                }
            }
        }
        let window = clock.expect("window opened").close(&srv);
        measuring.store(false, Ordering::Relaxed);
        stop.store(true, Ordering::Relaxed);
        let probe = prober.join().expect("probe thread panicked");
        (window, probe)
    });
    c.drain_errors(tally);
    let dedupe_hits = window.counter("store_dedupe_hits_total");
    tally.check(dedupe_hits == counts.dups, || {
        format!(
            "transfer: store counted {dedupe_hits} dedupe hits for {} duplicate uploads",
            counts.dups
        )
    });
    let mut recording = c.record.take().unwrap_or_default();
    if let Some(r) = probe_recording {
        recording.merge(r);
    }
    let wall = window.wall_s();
    drop(c);
    let ticks_ns = srv.stop();
    let notes = vec![
        "transport=pipe probe=pipe".to_string(),
        format!(
            "sound_mb_per_s = {} (bytes written plus read back)",
            counts.bytes as f64 / 1e6 / wall
        ),
        format!(
            "uploads = {}, duplicates = {}, store dedupe hits = {dedupe_hits}",
            counts.uploads, counts.dups
        ),
    ];
    Ok(Outcome {
        setup_s,
        connect_ms: probe.connect_ms,
        play_start_ms: probe.play_start_ms,
        rtt_us,
        work,
        uploads: counts.uploads + probe.uploads,
        window,
        ticks_ns,
        recording,
        payloads,
        notes,
    })
}
