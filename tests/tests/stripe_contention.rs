//! Real threads against the fast path's lock protocol (DESIGN.md §14).
//!
//! Four OS threads share one server: two send fast-path requests for
//! clients whose ids fall in the *same* shard (so they contend for one
//! stripe), one does the same for a client in another shard, and one
//! takes the core write lock for slow-path requests and manual engine
//! ticks. Every request must be answered, the structural invariants
//! must hold at the end, and in debug builds the shard borrow sanitizer
//! watches every view the threads open.

use crossbeam::channel::{unbounded, Receiver};
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::ids::{Atom, ClientId, LoudId, ResourceId, SoundId, VDeviceId, WireId};
use da_proto::request::Request;
use da_proto::types::{DeviceClass, SoundType, WireType};
use da_server::core::ServerMsg;
use da_server::dispatch::dispatch;
use da_server::shard::{sanitizer_active, SHARDS};
use da_server::{validate, AudioServer, ServerConfig, ServerControl};
use std::sync::Barrier;

const ROUNDS: u32 = 150;

/// Sends `reqs` as client `id` from seq `first` on, each on the fast
/// path or, when it punts, on the write-lock path (as the connection
/// plane does), with an engine tick after each when `tick` is set.
/// Returns how many the fast path took.
fn send(control: &ServerControl, id: ClientId, reqs: &[Request], first: u32, tick: bool) -> usize {
    let mut fast = 0;
    for (seq, request) in (first..).zip(reqs) {
        if control.fast_dispatch(id, seq, request) {
            fast += 1;
        } else {
            control.with_core(|c| dispatch(c, id, seq, request.clone()));
        }
        if tick {
            control.tick_n(1);
        }
    }
    fast
}

/// A client's set-up and per-round requests. A fast client owns a
/// mapped tree with a started queue and enqueues, writes and reads a
/// property and queries; the writer maps and unmaps a LOUD (an
/// activation walk over every tree) and asks for server stats.
fn script(base: u32, writer: bool) -> (Vec<Request>, Vec<Request>) {
    let (id, player, output) = (LoudId(base | 1), VDeviceId(base | 2), VDeviceId(base | 3));
    let sound = SoundId(base | 5);
    if writer {
        let toggle = [Request::MapLoud { id }, Request::UnmapLoud { id }];
        let rounds = toggle.into_iter().flat_map(|r| [r, Request::QueryServerStats]);
        let rounds = rounds.cycle().take(2 * ROUNDS as usize).collect();
        return (vec![Request::CreateLoud { id, parent: None }], rounds);
    }
    let device = |vdev, class| Request::CreateVDevice { id: vdev, loud: id, class, attrs: vec![] };
    let (src, dst, wire_type) = (player, output, WireType::Any);
    let setup = vec![
        Request::CreateLoud { id, parent: None },
        device(player, DeviceClass::Player),
        device(output, DeviceClass::Output),
        Request::CreateWire { id: WireId(base | 4), src, src_port: 0, dst, dst_port: 0, wire_type },
        Request::CreateSound { id: sound, stype: SoundType::TELEPHONE },
        Request::WriteSoundData { id: sound, data: vec![0x55; 400], eof: true },
        Request::MapLoud { id },
        Request::StartQueue { loud: id },
    ];
    let target = ResourceId::Loud(id);
    let entry = QueueEntry::Device { vdev: player, cmd: DeviceCommand::Play(sound) };
    let rounds = (0..ROUNDS).flat_map(|round| {
        let value = round.to_le_bytes().to_vec();
        [
            Request::Enqueue { loud: id, entries: vec![entry.clone()] },
            Request::ChangeProperty { target, name: Atom(3), type_: Atom(1), value },
            Request::GetProperty { target, name: Atom(3) },
            Request::QueryQueue { loud: id },
            Request::Sync,
        ]
    });
    (setup, rounds.collect())
}

/// Counts the replies queued for `id`; an error fails the test.
fn replies(rx: &Receiver<ServerMsg>, id: ClientId) -> usize {
    let mut n = 0;
    while let Ok(msg) = rx.try_recv() {
        match msg {
            ServerMsg::Reply(..) => n += 1,
            ServerMsg::Error(seq, e) => panic!("{id:?}: request {seq} failed: {e:?}"),
            ServerMsg::Event(_) | ServerMsg::Shutdown(_) => {}
        }
    }
    n
}

#[test]
fn same_shard_fast_paths_contend_with_the_write_lock_cleanly() {
    assert_eq!(sanitizer_active(), cfg!(debug_assertions));
    let config = ServerConfig { manual_ticks: true, io_workers: 1, ..ServerConfig::default() };
    let server = AudioServer::start(config).expect("server");
    let control = server.control();

    // Consecutive client ids: the first and the one `SHARDS` later share
    // a shard (fast-a, fast-b); the next two sit in others (fast-c, and
    // the writer at index 2).
    let clients: Vec<_> = (0..=SHARDS)
        .map(|i| {
            let (tx, rx) = unbounded();
            let (id, base, _mask) = control.with_core(|c| c.add_client(format!("c{i}"), tx));
            (id, base, rx)
        })
        .collect();
    let shard = |i: usize| clients[i].0 .0 as usize % SHARDS;
    assert_eq!(shard(0), shard(SHARDS));
    assert_ne!(shard(0), shard(1));
    let cast: Vec<_> =
        clients.into_iter().enumerate().filter(|&(i, _)| i <= 2 || i == SHARDS).collect();

    // Each thread sets its client up; the rounds start together.
    let start = Barrier::new(cast.len());
    std::thread::scope(|scope| {
        for (i, (id, base, rx)) in cast {
            let (control, start) = (&control, &start);
            scope.spawn(move || {
                let writer = i == 2;
                let (setup, rounds) = script(base, writer);
                send(control, id, &setup, 1, false);
                start.wait();
                let fast = send(control, id, &rounds, 100, writer);
                assert!(writer || fast == rounds.len(), "{id:?}: a round left the fast path");
                let owed = setup.iter().chain(&rounds).filter(|r| r.has_reply()).count();
                assert_eq!(replies(&rx, id), owed, "{id:?}: every request answered");
            });
        }
    });
    control.with_core(|c| {
        validate::check(c).expect("invariants after contention");
        // Every stripe a fast dispatch waited for, it also held and
        // released.
        let m = &c.tel.metrics;
        let (waits, holds) = (m.shard_lock_wait_us.snapshot(), m.shard_lock_hold_us.snapshot());
        assert!(waits.count >= u64::from(15 * ROUNDS), "{} stripe waits", waits.count);
        assert_eq!(waits.count, holds.count);
    });
    server.shutdown();
}
