//! Multiple simultaneous clients sharing one speaker (paper §2: "the
//! multiplexing of output requests from a number of applications to a
//! single speaker, to be heard simultaneously").

mod common;

use common::{connect, start};
use da_proto::command::DeviceCommand;
use da_proto::event::{Event, EventMask};
use da_proto::types::{DeviceClass, SoundType, WireType};
use std::time::Duration;

struct ClientRig {
    conn: da_alib::Connection,
    loud: da_proto::LoudId,
    player: da_proto::VDeviceId,
}

fn rig(server: &da_server::AudioServer, name: &str) -> ClientRig {
    let mut conn = connect(server, name);
    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();
    ClientRig { conn, loud, player }
}

#[test]
fn four_clients_mix_on_one_speaker() {
    let (server, _first) = start();
    let control = server.control();
    control.set_speaker_capture(0, 400_000);

    let freqs = [400.0, 700.0, 1000.0, 1300.0];
    let mut rigs: Vec<ClientRig> = (0..4).map(|i| rig(&server, &format!("mix-{i}"))).collect();

    // Everyone uploads a 3 s tone and enqueues it.
    for (i, r) in rigs.iter_mut().enumerate() {
        let pcm = da_dsp::tone::sine(8000, freqs[i], 24_000, 6000);
        let sound = r.conn.upload_pcm(SoundType::TELEPHONE, &pcm).unwrap();
        r.conn.enqueue_cmd(r.loud, r.player, DeviceCommand::Play(sound)).unwrap();
    }
    // Start all queues as close together as request dispatch allows.
    for r in rigs.iter_mut() {
        r.conn.start_queue(r.loud).unwrap();
    }
    // Wait for all four to finish.
    for r in rigs.iter_mut() {
        r.conn
            .wait_event(Duration::from_secs(30), |e| matches!(e, Event::CommandDone { .. }))
            .unwrap();
    }
    control.run_until(Duration::from_secs(10), |c| {
        c.hw.speakers[0].captured().len() >= 24_000
    });
    let cap = control.take_captured(0);
    // In the middle of the 3 s of tones all four must be audible at
    // once — the server mixed the independent client streams. The
    // capture also holds the silence rendered before the first tone and
    // after the last, so the window is placed from the first tone sample.
    let tone_start = cap.iter().position(|&s| s != 0).expect("tones captured");
    let mid_start = tone_start + 8000;
    let mid = &cap[mid_start..(mid_start + 8000).min(cap.len())];
    for f in freqs {
        let p = da_dsp::analysis::goertzel_power(mid, 8000, f);
        assert!(p > 50_000.0, "{f} Hz missing from mix (power {p})");
    }
    server.shutdown();
}

#[test]
fn sixteen_clients_all_complete() {
    let (server, _first) = start();
    let mut rigs: Vec<ClientRig> =
        (0..16).map(|i| rig(&server, &format!("swarm-{i}"))).collect();
    for r in rigs.iter_mut() {
        let sound = r
            .conn
            .upload_pcm(SoundType::TELEPHONE, &da_dsp::tone::sine(8000, 600.0, 4000, 3000))
            .unwrap();
        r.conn.enqueue_cmd(r.loud, r.player, DeviceCommand::Play(sound)).unwrap();
        r.conn.start_queue(r.loud).unwrap();
    }
    for (i, r) in rigs.iter_mut().enumerate() {
        r.conn
            .wait_event(Duration::from_secs(60), |e| matches!(e, Event::CommandDone { .. }))
            .unwrap_or_else(|e| panic!("client {i} never finished: {e:?}"));
    }
    server.shutdown();
}

#[test]
fn clients_cannot_touch_each_others_resources() {
    let (server, mut a) = start();
    let mut b = connect(&server, "intruder");
    let la = a.create_loud(None).unwrap();
    a.sync().unwrap();
    // B tries to destroy A's LOUD.
    b.destroy_loud(la).unwrap();
    b.sync().unwrap();
    let (_, err) = b.take_error().expect("access must be denied");
    assert_eq!(err.code, da_proto::ErrorCode::BadAccess);
    // A's LOUD still exists.
    let (state, ..) = a.query_queue(la).unwrap();
    assert_eq!(state, da_proto::types::QueueState::Stopped);
    server.shutdown();
}

#[test]
fn properties_are_shared_between_clients() {
    // Properties "can be used to communicate information between
    // applications" (paper §5.8): B reads what A wrote.
    let (server, mut a) = start();
    let mut b = connect(&server, "reader");
    let la = a.create_loud(None).unwrap();
    let name = a.intern_atom("HANDOFF").unwrap();
    let string = a.intern_atom("STRING").unwrap();
    a.change_property(la, name, string, b"hello from a".to_vec()).unwrap();
    a.sync().unwrap();
    // B interns the same atom (stable across clients) and reads.
    let name_b = b.intern_atom("HANDOFF").unwrap();
    assert_eq!(name, name_b);
    let p = b.get_property(la, name_b).unwrap().expect("visible to b");
    assert_eq!(p.value, b"hello from a");
    server.shutdown();
}
