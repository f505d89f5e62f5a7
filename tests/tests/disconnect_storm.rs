//! Connection-lifecycle hardening (DESIGN.md §12): a disconnect storm
//! must leave zero state behind, a server shutdown must flush every
//! pending reply, and a slow client must be evicted rather than allowed
//! to wedge the engine.

mod common;

use common::{connect, start};
use da_proto::codec::{Frame, FrameKind, WireWriter};
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::event::EventMask;
use da_proto::ids::{ClientId, LoudId, ResourceId, VDeviceId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::setup::{SetupReply, SetupRequest};
use da_proto::transport::Duplex;
use da_proto::types::{DeviceClass, SoundType, WireType};
use da_proto::{WireRead, WireWrite};
use da_server::core::ServerMsg;
use da_server::validate;
use da_server::AudioServer;
use std::time::Duration;

/// Counts of every per-client resource class in the core — the storm
/// must return all of them to their pre-storm values.
#[derive(Debug, PartialEq, Eq)]
struct StateFootprint {
    clients: usize,
    louds: usize,
    vdevs: usize,
    wires: usize,
    sounds: usize,
    properties: usize,
    selections: usize,
}

fn footprint(server: &AudioServer) -> StateFootprint {
    server.control().with_core(|c| StateFootprint {
        clients: c.clients.len(),
        louds: c.louds.len(),
        vdevs: c.vdevs.len(),
        wires: c.wires.len(),
        sounds: c.sounds.len(),
        properties: c.properties.len(),
        selections: c.clients.values().map(|cs| cs.selections.len()).sum(),
    })
}

fn req_frame(seq: u32, req: &Request) -> Frame {
    let mut w = WireWriter::new();
    w.u32(seq);
    req.write(&mut w);
    Frame { kind: FrameKind::Request, payload: w.finish() }
}

/// Performs the setup handshake on a raw duplex, bypassing Alib, so the
/// test can later send deliberately malformed frames.
fn raw_handshake(server: &AudioServer, name: &str) -> (Duplex, SetupReply) {
    let mut duplex = server.connect_pipe();
    let mut w = WireWriter::new();
    SetupRequest {
        protocol_major: da_proto::PROTOCOL_MAJOR,
        protocol_minor: da_proto::PROTOCOL_MINOR,
        client_name: name.to_string(),
    }
    .write(&mut w);
    duplex.send(&Frame { kind: FrameKind::Setup, payload: w.finish() }).expect("setup send");
    let setup = loop {
        match duplex.recv(Some(Duration::from_secs(5))).expect("setup recv") {
            Some(f) if f.kind == FrameKind::SetupReply => {
                break SetupReply::from_wire(&f.payload).expect("setup reply decodes");
            }
            Some(_) => continue,
            None => panic!("no setup reply"),
        }
    };
    (duplex, setup)
}

/// N clients build live state (mapped LOUD, running queue, selected
/// events, uploaded sound, properties), then all die messily at once:
/// half vanish with replies still in flight, half after emitting a torn
/// request frame. The server must shed every trace of them — V1–V15
/// clean, resource counts back to the pre-storm footprint — and keep
/// answering a fresh client.
#[test]
fn disconnect_storm_leaves_no_state_behind() {
    let (server, control_conn) = start();
    let control = server.control();
    let before = footprint(&server);
    let ticks_before = control.stats().ticks;

    // Half the storm: full Alib sessions with the richest state we can
    // give them, killed with requests outstanding ("mid-reply").
    let mut alib_clients = Vec::new();
    for i in 0..6 {
        let mut conn = connect(&server, &format!("storm-alib-{i}"));
        let loud = conn.create_loud(None).expect("loud");
        let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).expect("player");
        let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).expect("out");
        conn.create_wire(player, 0, out, 0, WireType::Any).expect("wire");
        conn.select_events(ResourceId::Loud(loud), EventMask::all()).expect("select");
        let sound =
            conn.upload_sound(SoundType::TELEPHONE, &[0x55u8; 400]).expect("sound");
        let atom = conn.intern_atom("STORM").expect("atom");
        conn.change_property(ResourceId::Sound(sound), atom, atom, vec![1, 2, 3])
            .expect("property");
        conn.map_loud(loud).expect("map");
        conn.enqueue(loud, vec![QueueEntry::Device { vdev: player, cmd: DeviceCommand::Play(sound) }])
            .expect("enqueue");
        conn.start_queue(loud).expect("start");
        conn.sync().expect("sync");
        // Leave replies in flight: these Syncs are answered into the
        // client channel but never read.
        for _ in 0..5 {
            conn.send(&Request::Sync).expect("pending sync");
        }
        alib_clients.push(conn);
    }

    // The other half: raw connections that die mid-frame — their last
    // transmission is a valid frame truncated partway through its
    // payload, exactly what a crash during a write produces.
    let mut raw_clients = Vec::new();
    for i in 0..6 {
        let (mut duplex, setup) = raw_handshake(&server, &format!("storm-raw-{i}"));
        let loud = LoudId(setup.id_base | 1);
        let vdev = VDeviceId(setup.id_base | 2);
        duplex.send(&req_frame(1, &Request::CreateLoud { id: loud, parent: None })).expect("loud");
        duplex
            .send(&req_frame(
                2,
                &Request::CreateVDevice {
                    id: vdev,
                    loud,
                    class: DeviceClass::Player,
                    attrs: vec![],
                },
            ))
            .expect("vdev");
        duplex
            .send(&req_frame(
                3,
                &Request::SelectEvents { target: ResourceId::Loud(loud), mask: EventMask::all() },
            ))
            .expect("select");
        duplex.send(&req_frame(4, &Request::MapLoud { id: loud })).expect("map");
        let whole = req_frame(5, &Request::Sync);
        let torn = Frame {
            kind: FrameKind::Request,
            payload: bytes::Bytes::from(whole.payload[..whole.payload.len() / 2].to_vec()),
        };
        duplex.send(&torn).expect("torn frame");
        raw_clients.push(duplex);
    }

    // Let the storm's requests land, then kill everyone at once.
    assert!(
        control.run_until(Duration::from_secs(5), |c| c.clients.len() == before.clients + 12),
        "all 12 storm clients should be registered"
    );
    drop(alib_clients);
    drop(raw_clients);

    // Every reader notices its dead transport and tears down fully.
    assert!(
        control.run_until(Duration::from_secs(10), |c| c.clients.len() == before.clients),
        "storm clients should all be removed"
    );
    let breaches = control.with_core(|c| validate::check_all(c));
    assert!(breaches.is_empty(), "invariants violated after storm: {breaches:?}");
    assert_eq!(footprint(&server), before, "storm leaked state");

    // The engine never stalled and the server still answers.
    assert!(control.stats().ticks > ticks_before, "engine stalled during storm");
    let mut probe = connect(&server, "post-storm-probe");
    probe.sync().expect("server still answers after the storm");

    drop(control_conn);
    server.shutdown();
}

/// Replies already queued when the server shuts down must still reach
/// the client: the writer drains its channel before exiting (the
/// historical race dropped whatever was still queued at the moment the
/// shutdown flag was observed).
#[test]
fn shutdown_flushes_all_pending_replies() {
    let (server, mut conn) = start();
    let control = server.control();
    let dispatched_before = control.with_core(|c| c.tel.metrics.dispatch_requests_total.get());

    let mut seqs = Vec::new();
    for _ in 0..64 {
        seqs.push(conn.send(&Request::Sync).expect("send sync"));
    }
    // All 64 answered into the client channel, none read yet.
    assert!(control.run_until(Duration::from_secs(5), |c| {
        c.tel.metrics.dispatch_requests_total.get() >= dispatched_before + 64
    }));
    server.shutdown();

    // Every reply must have been flushed to the transport before the
    // writer exited.
    for seq in seqs {
        let reply = conn.wait_reply(seq).expect("reply lost in shutdown");
        assert!(matches!(reply, Reply::Sync), "wrong reply for {seq}: {reply:?}");
    }
}

/// A client that stops reading while the server has replies to deliver
/// gets evicted once its transport and channel are both full — the
/// engine must never block on it, and eviction must leave no trace.
#[test]
fn slow_client_is_evicted_not_blocked() {
    let (server, conn) = start();
    let control = server.control();
    let client = control.with_core(|c| {
        assert_eq!(c.clients.len(), 1);
        ClientId(*c.clients.keys().next().expect("one client"))
    });

    // Fill the pipe (4096 frames) and the bounded channel (256) with
    // replies the client never reads; the overflow sets the eviction
    // flag. try_send semantics mean this loop cannot block the core.
    control.with_core(|c| {
        for i in 0..6000u32 {
            c.send_to_client(client, ServerMsg::Reply(i, Reply::Sync));
        }
    });

    // The reader polls the eviction flag and tears the connection down.
    assert!(
        control.run_until(Duration::from_secs(5), |c| c.clients.is_empty()),
        "slow client should be evicted"
    );
    let (evicted, breaches) = control.with_core(|c| {
        (c.tel.metrics.clients_evicted_total.get(), validate::check_all(c))
    });
    assert_eq!(evicted, 1, "eviction not counted");
    assert!(breaches.is_empty(), "invariants violated after eviction: {breaches:?}");

    // Unblock the writer (it is parked on the full pipe) by dropping
    // the client's receiving end, then shut down cleanly.
    drop(conn);
    server.shutdown();
}
