//! `control`: the dispatch-heavy path with the engine idle, over TCP
//! loopback (the paper's remote-client case), from one thread.
//!
//! Each session connects (timed), builds a mapped LOUD tree (fast
//! path), binds a catalogue sound and plays it (Enqueue → `PlayStarted`
//! timed), queries the queue, interns an atom, sets and reads back a
//! property, lists the properties, names the atom, then unmaps and
//! destroys (slow path). Requests are
//! pipelined as alib does and fenced by `Sync`; every round trip is
//! timed. A seeded think time of up to [`THINK_MAX_MS`] precedes each
//! connect, so connects land at random phases of the connection
//! manager's accept poll instead of locking to it.

use crate::client::Recording;
use crate::client::{play_loud_requests, Client, Tally};
use crate::rng::Rng;
use crate::srv::{Clock, Series, Srv};
use crate::stats::percentile;
use crate::{Cfg, Outcome, WARMUP};
use da_alib::Connection;
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::event::Event;
use da_proto::ids::{Atom, LoudId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::QueueState;
use std::time::{Duration, Instant};

/// Longest seeded pause before a connect.
const THINK_MAX_MS: f64 = 10.0;

/// The predefined STRING atom, the property type.
const STRING: Atom = Atom(1);

/// Catalogue sounds a session may play.
const SOUNDS: [&str; 4] = ["ring", "beep", "dtmf-5", "silence-1s"];

/// One session's seeded choices.
struct Script {
    sound: &'static str,
    atom_name: String,
    value: Vec<u8>,
    think_ms: f64,
}

impl Script {
    fn new(rng: &mut Rng) -> Script {
        let sound = SOUNDS[rng.below(SOUNDS.len())];
        let atom_name = format!("PERFBENCH_{}", rng.below(64));
        let mut value = vec![0u8; 8 + rng.below(57)];
        rng.fill(&mut value);
        Script {
            sound,
            atom_name,
            value,
            think_ms: rng.unit() * THINK_MAX_MS,
        }
    }
}

/// Ids of one session's resources.
struct Ids {
    loud: LoudId,
    player: VDeviceId,
    output: VDeviceId,
    wire: WireId,
    sound: SoundId,
}

impl Ids {
    fn new(id: &mut dyn FnMut() -> u32) -> Ids {
        Ids {
            loud: LoudId(id()),
            player: VDeviceId(id()),
            output: VDeviceId(id()),
            wire: WireId(id()),
            sound: SoundId(id()),
        }
    }
}

/// Build: the LOUD tree, its event selections and mapping, the sound.
fn build(s: &Script, ids: &Ids) -> Vec<Request> {
    let mut reqs = play_loud_requests(ids.loud, ids.player, ids.output, ids.wire, true);
    reqs.push(Request::OpenCatalogSound {
        id: ids.sound,
        catalog: "system".into(),
        name: s.sound.into(),
    });
    reqs
}

/// Play: enqueue the sound and start the queue.
fn play(ids: &Ids) -> Vec<Request> {
    let entry = QueueEntry::Device {
        vdev: ids.player,
        cmd: DeviceCommand::Play(ids.sound),
    };
    vec![
        Request::Enqueue {
            loud: ids.loud,
            entries: vec![entry],
        },
        Request::StartQueue { loud: ids.loud },
    ]
}

/// The requests the dispatch replay runs: 256 sessions, in order, with
/// the replies' values filled in as the live run would.
pub fn replay_script(seed: u64, id: &mut dyn FnMut() -> u32) -> Vec<Request> {
    let mut rng = Rng::new(seed).fork(4);
    let mut reqs = Vec::new();
    for _ in 0..256 {
        let s = Script::new(&mut rng);
        let ids = Ids::new(id);
        reqs.extend(build(&s, &ids));
        reqs.push(Request::Sync);
        reqs.extend(play(&ids));
        reqs.push(Request::QueryQueue { loud: ids.loud });
        reqs.push(Request::InternAtom {
            name: s.atom_name.clone(),
        });
        // Atoms interned here get ids after the predefined ones; the
        // replay names STRING, which always exists.
        reqs.push(Request::ChangeProperty {
            target: ids.loud.into(),
            name: STRING,
            type_: STRING,
            value: s.value.clone(),
        });
        reqs.push(Request::GetProperty {
            target: ids.loud.into(),
            name: STRING,
        });
        reqs.push(Request::ListProperties {
            target: ids.loud.into(),
        });
        reqs.push(Request::GetAtomName { atom: STRING });
        reqs.push(Request::UnmapLoud { id: ids.loud });
        reqs.push(Request::DestroyLoud { id: ids.loud });
        reqs.push(Request::Sync);
    }
    reqs
}

/// What one session measured.
#[derive(Default)]
struct Session {
    connect_ms: f64,
    play_start_ms: Option<(Instant, f64)>,
    rtt_us: Series,
}

/// Runs one session; failures are counted in `tally`.
fn session(addr: &str, s: &Script, tally: &Tally, record: bool) -> Option<(Session, Client)> {
    let t = Instant::now();
    let conn = match Connection::open_tcp(addr, "control") {
        Ok(c) => c,
        Err(e) => {
            tally.attempt(1);
            tally.fail(format!("control connect: {e:?}"));
            return None;
        }
    };
    let mut out = Session {
        connect_ms: t.elapsed().as_secs_f64() * 1e3,
        ..Session::default()
    };
    let mut c = Client::new(conn);
    if record {
        c.record = Some(Default::default());
    }
    let _ = session_requests(&mut c, s, tally, &mut out);
    c.drain_errors(tally);
    Some((out, c))
}

fn session_requests(
    c: &mut Client,
    s: &Script,
    tally: &Tally,
    out: &mut Session,
) -> Result<(), da_alib::AlibError> {
    let ids = Ids::new(&mut || c.id());
    for req in build(s, &ids) {
        c.send(tally, req)?;
    }
    c.timed(tally, Request::Sync, &mut out.rtt_us)?;
    let t = Instant::now();
    for req in play(&ids) {
        c.send(tally, req)?;
    }
    let player = ids.player;
    c.wait_event(
        tally,
        "PlayStarted",
        |e| matches!(e, Event::PlayStarted { vdev, .. } if *vdev == player),
    )?;
    out.play_start_ms = Some((Instant::now(), t.elapsed().as_secs_f64() * 1e3));
    let reply = c.timed(
        tally,
        Request::QueryQueue { loud: ids.loud },
        &mut out.rtt_us,
    )?;
    tally.check(
        matches!(
            reply,
            Reply::QueueInfo {
                state: QueueState::Started,
                ..
            }
        ),
        || format!("control: QueryQueue after PlayStarted answered {reply:?}"),
    );
    let reply = c.timed(
        tally,
        Request::InternAtom {
            name: s.atom_name.clone(),
        },
        &mut out.rtt_us,
    )?;
    let Reply::Atom { atom } = reply else {
        tally.check(false, || format!("control: InternAtom answered {reply:?}"));
        return Ok(());
    };
    let target = ids.loud.into();
    c.send(
        tally,
        Request::ChangeProperty {
            target,
            name: atom,
            type_: STRING,
            value: s.value.clone(),
        },
    )?;
    let reply = c.timed(
        tally,
        Request::GetProperty { target, name: atom },
        &mut out.rtt_us,
    )?;
    tally.check(
        matches!(&reply, Reply::Property { property: Some(p) } if p.value == s.value && p.type_ == STRING),
        || format!("control: GetProperty answered {reply:?}, not the value set"),
    );
    let reply = c.timed(tally, Request::ListProperties { target }, &mut out.rtt_us)?;
    tally.check(
        matches!(&reply, Reply::PropertyList { names } if names.contains(&atom)),
        || format!("control: ListProperties answered {reply:?}, without {atom:?}"),
    );
    let reply = c.timed(tally, Request::GetAtomName { atom }, &mut out.rtt_us)?;
    tally.check(
        matches!(&reply, Reply::AtomName { name } if *name == s.atom_name),
        || {
            format!(
                "control: GetAtomName answered {reply:?}, not {}",
                s.atom_name
            )
        },
    );
    c.send(tally, Request::UnmapLoud { id: ids.loud })?;
    c.send(tally, Request::DestroyLoud { id: ids.loud })?;
    c.timed(tally, Request::Sync, &mut out.rtt_us)?;
    Ok(())
}

/// Runs the workload.
pub fn run(cfg: &Cfg, tally: &Tally) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..cfg.setups {
        // Sessions build all state, so set-up is the server start; the
        // first connect is already the first measured operation.
        let t = Instant::now();
        let srv =
            Srv::start(true, cfg.traced, cfg.io_workers).map_err(|e| format!("server: {e}"))?;
        let addr = srv.tcp_addr().ok_or("server has no TCP address")?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 == cfg.setups {
            kept = Some((srv, addr));
        } else {
            srv.stop();
        }
    }
    let (srv, addr) = kept.ok_or("no set-up ran")?;
    let mut rng = Rng::new(cfg.seed).fork(4);
    let (mut connect_ms, mut play_start_ms, mut rtt_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut work, mut late_ms, mut recording) = (Vec::new(), Vec::new(), Recording::default());
    let warm_until = Instant::now() + WARMUP;
    let mut clock: Option<Clock> = None;
    loop {
        if clock.is_none() && Instant::now() >= warm_until {
            clock = Some(Clock::open(&srv, cfg.seconds));
        }
        let measuring = match clock.as_mut().map(|k| k.poll(&srv)) {
            Some(true) => break,
            Some(false) => true,
            None => false,
        };
        let script = Script::new(&mut rng);
        let t = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(script.think_ms / 1e3));
        let slept_ms = t.elapsed().as_secs_f64() * 1e3;
        let began = Instant::now();
        let Some((s, mut c)) = session(&addr, &script, tally, measuring && cfg.traced) else {
            continue;
        };
        if measuring {
            late_ms.push(slept_ms - script.think_ms);
            connect_ms.push(s.connect_ms);
            play_start_ms.extend(s.play_start_ms);
            rtt_us.extend(s.rtt_us);
            work.push((Instant::now(), c.sent, began.elapsed().as_secs_f64()));
            if let Some(rec) = c.record.take() {
                recording.merge(rec);
            }
        }
    }
    let window = clock.expect("window opened").close(&srv);
    let ticks_ns = srv.stop();
    let notes = vec![
        format!("transport=tcp-loopback sessions={}", connect_ms.len()),
        format!(
            "connect schedule lateness: p50 {:.3} ms, max {:.3} ms over {} connects",
            percentile(&late_ms, 0.5),
            percentile(&late_ms, 1.0),
            late_ms.len()
        ),
    ];
    let payloads = da_server::sound::Catalogs::with_system_sounds()
        .sounds()
        .map(|s| (s.stype, s.data.to_vec()))
        .collect();
    Ok(Outcome {
        setup_s,
        connect_ms,
        play_start_ms,
        rtt_us,
        work,
        uploads: 0,
        window,
        ticks_ns,
        recording,
        payloads,
        notes,
    })
}
