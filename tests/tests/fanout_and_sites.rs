//! Fan-out wiring (one source feeding several sinks) and the paper's
//! multi-server case: "a client can have multiple connections to one or
//! more audio servers" (§4.1), moving audio "between sites" (§1.3).

mod common;

use common::start_with_hw;
use da_alib::Connection;
use da_proto::command::{DeviceCommand, RecordTermination};
use da_proto::event::{Event, EventMask};
use da_proto::types::{Attribute, DeviceClass, SoundType, WireType};
use da_server::{AudioServer, ServerConfig};
use std::time::Duration;

#[test]
fn one_player_fans_out_to_two_speakers() {
    // Desktop-plus-hifi hardware: the same stream reaches both outputs.
    let (server, mut conn) = start_with_hw(da_hw::registry::HwSpec::desktop_hifi());
    let control = server.control();

    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let desk = conn
        .create_vdevice(loud, DeviceClass::Output, vec![Attribute::SampleRate(8000)])
        .unwrap();
    let hifi = conn
        .create_vdevice(loud, DeviceClass::Output, vec![Attribute::SampleRate(44_100)])
        .unwrap();
    conn.create_wire(player, 0, desk, 0, WireType::Any).unwrap();
    conn.create_wire(player, 0, hifi, 0, WireType::Any).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();

    let sound = conn
        .upload_pcm(SoundType::TELEPHONE, &da_dsp::tone::sine(8000, 440.0, 8000, 11_000))
        .unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound)).unwrap();
    conn.sync().unwrap();
    // Capture from just before the play starts: the free-running engine
    // can fill a capture armed at server start with set-up silence.
    control.set_speaker_capture(0, 200_000);
    control.set_speaker_capture(1, 800_000);
    conn.start_queue(loud).unwrap();
    conn.wait_event(Duration::from_secs(15), |e| matches!(e, Event::CommandDone { .. }))
        .unwrap();

    control.run_until(Duration::from_secs(5), |c| {
        c.hw.speakers[0].captured().len() >= 4000 && c.hw.speakers[1].captured().len() >= 20_000
    });
    let desk_cap = control.take_captured(0);
    let hifi_cap = control.take_captured(1);
    let p_desk = da_dsp::analysis::goertzel_power(&desk_cap, 8000, 440.0);
    let hifi_left: Vec<i16> = hifi_cap.iter().step_by(2).copied().collect();
    let p_hifi = da_dsp::analysis::goertzel_power(&hifi_left, 44_100, 440.0);
    assert!(p_desk > 100_000.0, "desk speaker silent: {p_desk}");
    assert!(p_hifi > 100_000.0, "hifi speaker silent: {p_hifi}");
    server.shutdown();
}

#[test]
fn one_input_fans_out_to_recorder_and_recognizer() {
    let (server, mut conn) = start_with_hw(da_hw::registry::HwSpec::desktop());
    let control = server.control();
    let tts = da_synth::tts::Synthesizer::new(8000);

    let loud = conn.create_loud(None).unwrap();
    let input = conn.create_vdevice(loud, DeviceClass::Input, vec![]).unwrap();
    let rec = conn.create_vdevice(loud, DeviceClass::Recorder, vec![]).unwrap();
    let recog = conn.create_vdevice(loud, DeviceClass::SpeechRecognizer, vec![]).unwrap();
    conn.create_wire(input, 0, rec, 0, WireType::Any).unwrap();
    conn.create_wire(input, 0, recog, 0, WireType::Any).unwrap();
    conn.select_events(rec, EventMask::DEVICE).unwrap();
    conn.select_events(recog, EventMask::DEVICE).unwrap();
    let template = conn.upload_pcm(SoundType::TELEPHONE, &tts.speak("stop")).unwrap();
    conn.immediate(recog, DeviceCommand::Train { word: "stop".into(), template }).unwrap();
    let sound = conn.create_sound(SoundType::TELEPHONE).unwrap();
    conn.enqueue_cmd(loud, rec, DeviceCommand::Record(sound, RecordTermination::MaxFrames(24_000)))
        .unwrap();
    conn.start_queue(loud).unwrap();
    conn.map_loud(loud).unwrap();
    conn.sync().unwrap();

    // Speak "stop" into the microphone: the recorder stores it AND the
    // recognizer detects it, from the same fanned-out stream.
    let mut utterance = vec![0i16; 2400];
    utterance.extend(tts.speak("stop"));
    utterance.extend(std::iter::repeat_n(0i16, 10_000));
    control.speak_into_microphone(0, &utterance);

    let word = conn
        .wait_event(Duration::from_secs(20), |e| matches!(e, Event::WordRecognized { .. }))
        .unwrap();
    match word {
        Event::WordRecognized { word, .. } => assert_eq!(word, "stop"),
        _ => unreachable!(),
    }
    conn.wait_event(Duration::from_secs(20), |e| matches!(e, Event::RecordStopped { .. }))
        .unwrap();
    let data = conn.read_sound_all(sound).unwrap();
    let pcm = da_alib::connection::decode_from(SoundType::TELEPHONE, &data);
    assert!(da_dsp::analysis::rms(&pcm) > 100.0, "recorder got nothing");
    server.shutdown();
}

#[test]
fn audio_moves_between_two_servers() {
    // Two independent workstations ("sites"): record a message on site A,
    // carry it over the client, play it on site B — the §1.3 requirement
    // that users "move audio between applications and transmit it between
    // sites".
    let site_a = AudioServer::start(ServerConfig::default()).expect("site a");
    let site_b = AudioServer::start(ServerConfig::default()).expect("site b");
    let mut conn_a = Connection::establish(site_a.connect_pipe(), "at-a").expect("a");
    let mut conn_b = Connection::establish(site_b.connect_pipe(), "at-b").expect("b");

    // Record a tone from site A's microphone.
    site_a.control().speak_into_microphone(0, &da_dsp::tone::sine(8000, 620.0, 16_000, 11_000));
    let loud_a = conn_a.create_loud(None).unwrap();
    let input = conn_a.create_vdevice(loud_a, DeviceClass::Input, vec![]).unwrap();
    let rec = conn_a.create_vdevice(loud_a, DeviceClass::Recorder, vec![]).unwrap();
    conn_a.create_wire(input, 0, rec, 0, WireType::Any).unwrap();
    conn_a.select_events(rec, EventMask::DEVICE).unwrap();
    let msg_a = conn_a.create_sound(SoundType::TELEPHONE).unwrap();
    conn_a.map_loud(loud_a).unwrap();
    conn_a
        .enqueue_cmd(loud_a, rec, DeviceCommand::Record(msg_a, RecordTermination::MaxFrames(8000)))
        .unwrap();
    conn_a.start_queue(loud_a).unwrap();
    conn_a
        .wait_event(Duration::from_secs(15), |e| matches!(e, Event::RecordStopped { .. }))
        .unwrap();

    // Transfer: download from A, upload to B.
    let data = conn_a.read_sound_all(msg_a).unwrap();
    assert_eq!(data.len(), 8000);
    let msg_b = conn_b.upload_sound(SoundType::TELEPHONE, &data).unwrap();

    // Play at site B and verify its speaker heard the tone.
    site_b.control().set_speaker_capture(0, 100_000);
    let loud_b = conn_b.create_loud(None).unwrap();
    let player = conn_b.create_vdevice(loud_b, DeviceClass::Player, vec![]).unwrap();
    let out = conn_b.create_vdevice(loud_b, DeviceClass::Output, vec![]).unwrap();
    conn_b.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    conn_b.select_events(loud_b, EventMask::QUEUE).unwrap();
    conn_b.map_loud(loud_b).unwrap();
    conn_b.enqueue_cmd(loud_b, player, DeviceCommand::Play(msg_b)).unwrap();
    conn_b.start_queue(loud_b).unwrap();
    conn_b
        .wait_event(Duration::from_secs(15), |e| matches!(e, Event::CommandDone { .. }))
        .unwrap();
    site_b.control().run_until(Duration::from_secs(5), |c| {
        c.hw.speakers[0].captured().len() >= 8000
    });
    let cap = site_b.control().take_captured(0);
    let p = da_dsp::analysis::goertzel_power(&cap, 8000, 620.0);
    assert!(p > 100_000.0, "site B never played site A's recording: {p}");
    site_a.shutdown();
    site_b.shutdown();
}

#[test]
fn malformed_tcp_bytes_do_not_crash_the_server() {
    let config =
        ServerConfig { tcp_addr: Some("127.0.0.1:0".to_string()), ..ServerConfig::default() };
    let server = AudioServer::start(config).expect("server");
    let addr = server.tcp_addr().unwrap();

    // An attacker writes garbage and disconnects.
    use std::io::Write;
    let mut evil = std::net::TcpStream::connect(addr).unwrap();
    evil.write_all(&[0xFF; 512]).unwrap();
    drop(evil);
    // Another writes a plausible frame header with absurd length.
    let mut evil2 = std::net::TcpStream::connect(addr).unwrap();
    evil2.write_all(&[0xFF, 0xFF, 0xFF, 0x7F, 0x01]).unwrap();
    drop(evil2);

    // A legitimate client still gets full service.
    let mut conn = Connection::open_tcp(&addr.to_string(), "legit").unwrap();
    let (vendor, ..) = conn.server_info().unwrap();
    assert!(vendor.contains("desktop-audio"));
    server.shutdown();
}
