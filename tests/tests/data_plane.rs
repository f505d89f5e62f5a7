//! The engine data plane's port rings: what a device produces on an
//! unwired port is discarded each tick, and a stalled reader costs at
//! most one ring of audio, dropped oldest first and counted
//! (DESIGN.md §5).

use da_alib::Connection;
use da_proto::command::DeviceCommand;
use da_proto::types::{DeviceClass, Encoding, SoundType, WireType};
use da_server::{AudioServer, ServerConfig};

fn manual_server() -> (AudioServer, Connection) {
    let config = ServerConfig {
        manual_ticks: true,
        quantum_us: 10_000,
        ..ServerConfig::default()
    };
    let server = AudioServer::start(config).expect("server");
    let conn = Connection::establish(server.connect_pipe(), "data-plane").expect("connect");
    (server, conn)
}

/// A PCM-16 ramp 1, 2, 3, ... so every sample names its position.
fn ramp(frames: usize) -> Vec<i16> {
    (1..=frames).map(|i| i as i16).collect()
}

const PCM: SoundType = SoundType {
    encoding: Encoding::Pcm16,
    sample_rate: 8000,
    channels: 1,
};

#[test]
fn unwired_port_stays_empty_and_a_late_wire_starts_at_the_current_position() {
    let (server, mut conn) = manual_server();
    let control = server.control();
    control.set_speaker_capture(0, 1 << 20);
    let loud = conn.create_loud(None).unwrap();
    let player = conn
        .create_vdevice(loud, DeviceClass::Player, vec![])
        .unwrap();
    let out = conn
        .create_vdevice(loud, DeviceClass::Output, vec![])
        .unwrap();
    let pcm = ramp(8000);
    let sound = conn.upload_pcm(PCM, &pcm).unwrap();
    conn.map_loud(loud).unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound))
        .unwrap();
    conn.start_queue(loud).unwrap();
    conn.sync().unwrap();

    // 50 ticks = 4,000 frames played into an unwired port.
    control.tick_n(50);
    let backlog = control.with_core(|c| {
        let v = c.vdevs.get(&player.0).expect("player");
        c.dev_slot(v).expect("a playing device has a slot").src[0].len()
    });
    assert_eq!(backlog, 0, "an unwired source port kept {backlog} samples");
    assert!(control.take_captured(0).iter().all(|&s| s == 0));

    // A wire created mid-play carries audio from the current position.
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    conn.sync().unwrap();
    control.tick_n(10);
    let cap = control.take_captured(0);
    assert_eq!(
        cap,
        pcm[4000..4800],
        "the late wire did not start at frame 4000"
    );
    server.shutdown();
}

#[test]
fn stalled_consumer_keeps_one_ring_and_counts_what_it_drops() {
    let (server, mut conn) = manual_server();
    let control = server.control();
    control.set_speaker_capture(0, 1 << 20);
    let loud = conn.create_loud(None).unwrap();
    let player = conn
        .create_vdevice(loud, DeviceClass::Player, vec![])
        .unwrap();
    let out = conn
        .create_vdevice(loud, DeviceClass::Output, vec![])
        .unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    let pcm = ramp(8000);
    let sound = conn.upload_pcm(PCM, &pcm).unwrap();
    conn.map_loud(loud).unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound))
        .unwrap();
    conn.start_queue(loud).unwrap();
    conn.sync().unwrap();
    control.tick_n(10); // frames 0..800 reach the speaker
    assert_eq!(control.take_captured(0), pcm[..800]);

    // A paused output stops draining while the player runs on: 1,600
    // samples arrive, the 128-sample ring keeps the newest.
    conn.immediate(out, DeviceCommand::Pause).unwrap();
    conn.sync().unwrap();
    control.tick_n(20);
    let (held, capacity, dropped) = control.with_core(|c| {
        let v = c.vdevs.get(&out.0).expect("output");
        let ring = &c.dev_slot(v).expect("slot").sink[0];
        (
            ring.len(),
            ring.capacity(),
            c.tel.metrics.engine_ring_overflow_frames_total.get(),
        )
    });
    assert_eq!((held, capacity), (128, 128));
    assert_eq!(dropped, 1600 - 128);

    // Resumed, the output plays on one ring behind the player: routing
    // pushes the resume tick's 80 samples before the output drains, so
    // those drop the 80 oldest, and playback continues from frame 2352.
    conn.immediate(out, DeviceCommand::Resume).unwrap();
    conn.sync().unwrap();
    control.take_captured(0);
    control.tick_n(10);
    let cap = control.take_captured(0);
    assert_eq!(
        cap,
        pcm[2352..3152],
        "playback did not resume from the ring's oldest sample"
    );
    let dropped = control.with_core(|c| c.tel.metrics.engine_ring_overflow_frames_total.get());
    assert_eq!(dropped, 1600 - 128 + 80);
    server.shutdown();
}

#[test]
fn steady_routing_never_overflows_a_ring() {
    // Rings hold a quantum and a half; steady routing peaks at one
    // quantum plus a resampler's lead, across rates and a quantum that
    // does not divide the second.
    let config = ServerConfig {
        manual_ticks: true,
        quantum_us: 7_300,
        hw: da_hw::registry::HwSpec::desktop_hifi(),
        ..ServerConfig::default()
    };
    let server = AudioServer::start(config).expect("server");
    let control = server.control();
    let mut conn = Connection::establish(server.connect_pipe(), "steady").expect("connect");
    let loud = conn.create_loud(None).unwrap();
    let p8 = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let p16 = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let mixer = conn.create_vdevice(loud, DeviceClass::Mixer, vec![]).unwrap();
    let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).unwrap();
    let hifi = conn
        .create_vdevice(
            loud,
            DeviceClass::Output,
            vec![da_proto::types::Attribute::Name("hifi speaker".into())],
        )
        .unwrap();
    conn.create_wire(p8, 0, mixer, 0, WireType::Any).unwrap();
    conn.create_wire(p16, 0, mixer, 1, WireType::Any).unwrap();
    conn.create_wire(mixer, 0, out, 0, WireType::Any).unwrap();
    conn.create_wire(mixer, 0, hifi, 0, WireType::Any).unwrap();
    let s8 = conn.upload_pcm(PCM, &ramp(8000)).unwrap();
    let s16 = conn
        .upload_pcm(SoundType { sample_rate: 16_000, ..PCM }, &ramp(16_000))
        .unwrap();
    conn.map_loud(loud).unwrap();
    conn.enqueue(
        loud,
        vec![
            da_proto::command::QueueEntry::CoBegin,
            da_proto::command::QueueEntry::Device { vdev: p8, cmd: DeviceCommand::Play(s8) },
            da_proto::command::QueueEntry::Device { vdev: p16, cmd: DeviceCommand::Play(s16) },
            da_proto::command::QueueEntry::CoEnd,
        ],
    )
    .unwrap();
    conn.start_queue(loud).unwrap();
    conn.sync().unwrap();
    control.tick_n(150); // ~1.1 s: both plays run to the end
    let dropped = control.with_core(|c| c.tel.metrics.engine_ring_overflow_frames_total.get());
    assert_eq!(dropped, 0, "steady routing dropped {dropped} samples");
    server.shutdown();
}
