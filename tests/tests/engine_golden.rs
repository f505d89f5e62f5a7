//! Golden-output guard for the engine tick.
//!
//! One manual-tick rig exercises every routing path the engine has and
//! records, after each tick, an FNV-1a digest of what each speaker
//! rendered and of what the far end of a telephone call heard. The
//! expected digests live in `golden/engine_golden.txt`; any change to
//! the samples the engine produces — a dropped, inserted, reordered or
//! rescaled sample on any path — changes some tick's line.
//!
//! The rig has:
//! - an 8 kHz player and a 16 kHz player, the latter on a resampling
//!   wire into a mixer, started together under `CoBegin` with a delay;
//! - a crossbar feeding a DSP echo into the 8 kHz speaker and, through
//!   an 8 kHz → 44.1 kHz wire, the stereo hi-fi speaker;
//! - a queue pause and resume;
//! - deactivation by an exclusive preemptor and reactivation (§5.4);
//! - a streaming sound that underruns before its data arrives;
//! - a dialled call whose transmit path carries a played sound.

use da_alib::Connection;
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::types::{Attribute, DeviceClass, Encoding, SoundType, WireType};
use da_server::{AudioServer, ServerConfig};

const TICKS: u64 = 420;

fn fnv(samples: &[i16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in samples {
        for b in s.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn pcm(rate: u32) -> SoundType {
    SoundType { encoding: Encoding::Pcm16, sample_rate: rate, channels: 1 }
}

/// A deterministic test waveform: two detuned sawtooths, so every
/// sample differs from its neighbours and any shift shows.
fn wave(frames: usize, period_a: usize, period_b: usize) -> Vec<i16> {
    (0..frames)
        .map(|i| {
            let a = (i % period_a) as i32 * 6000 / period_a as i32 - 3000;
            let b = (i % period_b) as i32 * 4000 / period_b as i32 - 2000;
            (a + b + 1) as i16
        })
        .collect()
}

fn device(conn: &mut Connection, loud: da_proto::LoudId, class: DeviceClass) -> da_proto::VDeviceId {
    conn.create_vdevice(loud, class, vec![]).unwrap()
}

/// Runs the rig and returns one `tick speaker0 hifi line` line per tick.
fn run_rig() -> Vec<String> {
    let config = ServerConfig {
        manual_ticks: true,
        quantum_us: 10_000,
        hw: da_hw::registry::HwSpec::desktop_hifi(),
        ..ServerConfig::default()
    };
    let server = AudioServer::start(config).expect("server");
    let control = server.control();
    control.set_speaker_capture(0, 1 << 22);
    control.set_speaker_capture(1, 1 << 22);
    let mut a = Connection::establish(server.connect_pipe(), "golden").expect("connect");
    let mut b = Connection::establish(server.connect_pipe(), "preemptor").expect("connect");

    // Tree 1: p8 → mixer.0, p16 → mixer.1 (16 → 8 kHz), mixer → crossbar
    // in 0; crossbar out 0 → echo → speaker, out 1 → hi-fi speaker.
    let l1 = a.create_loud(None).unwrap();
    let p8 = device(&mut a, l1, DeviceClass::Player);
    let p16 = device(&mut a, l1, DeviceClass::Player);
    let mixer = device(&mut a, l1, DeviceClass::Mixer);
    let xbar = device(&mut a, l1, DeviceClass::Crossbar);
    let echo = device(&mut a, l1, DeviceClass::Dsp);
    let out = device(&mut a, l1, DeviceClass::Output);
    let hifi = a
        .create_vdevice(l1, DeviceClass::Output, vec![Attribute::Name("hifi speaker".into())])
        .unwrap();
    a.create_wire(p8, 0, mixer, 0, WireType::Any).unwrap();
    a.create_wire(p16, 0, mixer, 1, WireType::Any).unwrap();
    a.create_wire(mixer, 0, xbar, 0, WireType::Any).unwrap();
    a.create_wire(xbar, 0, echo, 0, WireType::Any).unwrap();
    a.create_wire(echo, 0, out, 0, WireType::Any).unwrap();
    a.create_wire(xbar, 1, hifi, 0, WireType::Any).unwrap();
    a.immediate(
        xbar,
        DeviceCommand::SetRoutes(vec![
            da_proto::command::CrossbarRoute { input: 0, output: 0, connected: true },
            da_proto::command::CrossbarRoute { input: 0, output: 1, connected: true },
        ]),
    )
    .unwrap();
    a.immediate(mixer, DeviceCommand::SetMixGain { input: 1, percent: 70 }).unwrap();
    let effect = a.intern_atom("EFFECT").unwrap();
    a.set_device_control(echo, effect, b"echo:400:350".to_vec()).unwrap();

    let s8 = a.upload_pcm(pcm(8000), &wave(12_000, 97, 131)).unwrap();
    let s16 = a.upload_pcm(pcm(16_000), &wave(16_000, 173, 59)).unwrap();
    let s8b = a
        .upload_pcm(
            SoundType { encoding: Encoding::ULaw, sample_rate: 8000, channels: 1 },
            &wave(4000, 211, 37),
        )
        .unwrap();
    a.enqueue(
        l1,
        vec![
            QueueEntry::CoBegin,
            QueueEntry::Device { vdev: p8, cmd: DeviceCommand::Play(s8) },
            QueueEntry::Delay { ms: 50 },
            QueueEntry::Device { vdev: p16, cmd: DeviceCommand::Play(s16) },
            QueueEntry::DelayEnd,
            QueueEntry::CoEnd,
            QueueEntry::Device { vdev: p8, cmd: DeviceCommand::Play(s8b) },
        ],
    )
    .unwrap();

    // Tree 2: a streaming sound on the hi-fi speaker. Only 0.2 s is
    // there at the start, so the player underruns until more arrives.
    let l2 = a.create_loud(None).unwrap();
    let ps = device(&mut a, l2, DeviceClass::Player);
    let out2 = a
        .create_vdevice(l2, DeviceClass::Output, vec![Attribute::Name("hifi speaker".into())])
        .unwrap();
    a.create_wire(ps, 0, out2, 0, WireType::Any).unwrap();
    let stream = wave(8000, 89, 23);
    let bytes: Vec<u8> = stream.iter().flat_map(|s| s.to_le_bytes()).collect();
    let ss = a.create_sound(pcm(8000)).unwrap();
    a.write_sound(ss, &bytes[..3200], false).unwrap();
    a.enqueue_cmd(l2, ps, DeviceCommand::Play(ss)).unwrap();

    // Tree 3: dial a far end that answers, then play into the line.
    let remote = control.add_remote_party("555-2000");
    control.with_party(remote, |p, _| p.auto_answer_after = Some(800));
    let l3 = a.create_loud(None).unwrap();
    let tel = device(&mut a, l3, DeviceClass::Telephone);
    let p3 = device(&mut a, l3, DeviceClass::Player);
    a.create_wire(p3, 0, tel, 0, WireType::Any).unwrap();
    let s3 = a.upload_pcm(pcm(8000), &wave(6000, 151, 41)).unwrap();
    a.enqueue(
        l3,
        vec![
            QueueEntry::Device { vdev: tel, cmd: DeviceCommand::Dial("555-2000".into()) },
            QueueEntry::Device { vdev: p3, cmd: DeviceCommand::Play(s3) },
        ],
    )
    .unwrap();

    for l in [l1, l2, l3] {
        a.map_loud(l).unwrap();
        a.start_queue(l).unwrap();
    }
    a.sync().unwrap();
    assert!(a.take_error().is_none());

    // The preemptor's tree: an exclusive claim on the 8 kHz speaker.
    let lb = b.create_loud(None).unwrap();
    b.create_vdevice(
        lb,
        DeviceClass::Output,
        vec![Attribute::Name("speaker".into()), Attribute::ExclusiveUse],
    )
    .unwrap();
    b.sync().unwrap();

    let mut lines = Vec::with_capacity(TICKS as usize);
    let mut heard = 0usize;
    for t in 0..TICKS {
        match t {
            60 => a.write_sound(ss, &bytes[3200..8000], false).unwrap(),
            90 => a.pause_queue(l1).unwrap(),
            110 => a.resume_queue(l1).unwrap(),
            130 => a.write_sound(ss, &bytes[8000..], true).unwrap(),
            150 => b.map_loud(lb).unwrap(),
            180 => b.unmap_loud(lb).unwrap(),
            _ => {}
        }
        a.sync().unwrap();
        b.sync().unwrap();
        control.tick_n(1);
        let s0 = fnv(&control.take_captured(0));
        let s1 = fnv(&control.take_captured(1));
        let line = control.with_party(remote, |p, _| {
            let h = fnv(&p.heard()[heard..]);
            heard = p.heard().len();
            h
        });
        lines.push(format!("{t} {s0:016x} {s1:016x} {line:016x}"));
    }
    assert!(a.take_error().is_none());
    assert!(b.take_error().is_none());
    drop((a, b));
    server.shutdown();
    lines
}

#[test]
fn engine_output_matches_golden_digests() {
    let got = run_rig();
    let want: Vec<&str> = include_str!("golden/engine_golden.txt").lines().collect();
    assert_eq!(want.len(), got.len(), "golden file has {} ticks", want.len());
    if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
        panic!(
            "engine output diverged at tick {i}\n  want {}\n  got  {}\nfull run:\n{}",
            want[i],
            got[i],
            got.join("\n")
        );
    }
}
