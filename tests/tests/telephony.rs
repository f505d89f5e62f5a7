//! Telephony through the protocol: dialing, DTMF both directions, busy
//! and no-answer outcomes, CD-quality high-rate playback.

mod common;

use common::{start, start_with_hw};
use da_proto::command::DeviceCommand;
use da_proto::event::{CallState, Event, EventMask, QueueStopReason};
use da_proto::types::{Attribute, DeviceClass, Encoding, SoundType, WireType};
use std::time::Duration;

#[test]
fn outgoing_call_with_dtmf_both_ways() {
    let (server, mut conn) = start();
    let control = server.control();

    let loud = conn.create_loud(None).unwrap();
    let tel = conn.create_vdevice(loud, DeviceClass::Telephone, vec![]).unwrap();
    conn.select_events(tel, EventMask::DEVICE).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();
    conn.sync().unwrap();

    let remote = control.add_remote_party("555-2000");
    control.with_party(remote, |p, _| {
        p.auto_answer_after = Some(2000);
        p.send_dtmf("91");
    });

    conn.enqueue(
        loud,
        vec![
            da_proto::QueueEntry::Device {
                vdev: tel,
                cmd: DeviceCommand::Dial("555-2000".into()),
            },
            da_proto::QueueEntry::Device {
                vdev: tel,
                cmd: DeviceCommand::SendDtmf("34".into()),
            },
        ],
    )
    .unwrap();
    conn.start_queue(loud).unwrap();

    // We see dialing then connected.
    conn.wait_event(Duration::from_secs(15), |e| {
        matches!(e, Event::CallProgress { state: CallState::Dialing, .. })
    })
    .unwrap();
    conn.wait_event(Duration::from_secs(15), |e| {
        matches!(e, Event::CallProgress { state: CallState::Connected, .. })
    })
    .unwrap();

    // Their digits reach us as events.
    let mut got = Vec::new();
    while got.len() < 2 {
        match conn.next_event(Duration::from_secs(15)).unwrap() {
            Some(Event::DtmfReceived { digit, .. }) => got.push(digit),
            Some(_) => {}
            None => break,
        }
    }
    assert_eq!(got, b"91".to_vec());

    // Our digits reach them in-band.
    assert!(control.run_until(Duration::from_secs(10), |c| {
        let heard = c.remote_parties[remote].heard();
        let mut det = da_dsp::dtmf::Detector::new(8000);
        det.push(heard) == b"34".to_vec()
            || {
                let all = det.push(&[]);
                all == b"34".to_vec()
            }
    }) || {
        let heard = control.with_party(remote, |p, _| p.heard().to_vec());
        let mut det = da_dsp::dtmf::Detector::new(8000);
        let digits = det.push(&heard);
        digits == b"34".to_vec()
    });

    conn.immediate(tel, DeviceCommand::Stop).unwrap();
    conn.wait_event(Duration::from_secs(15), |e| {
        matches!(e, Event::CallProgress { state: CallState::HungUp, .. })
    })
    .unwrap();
    server.shutdown();
}

#[test]
fn dial_to_busy_number_stops_queue_with_error() {
    let (server, mut conn) = start();
    let loud = conn.create_loud(None).unwrap();
    let tel = conn.create_vdevice(loud, DeviceClass::Telephone, vec![]).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.select_events(tel, EventMask::DEVICE).unwrap();
    conn.map_loud(loud).unwrap();
    conn.enqueue_cmd(loud, tel, DeviceCommand::Dial("555-0000".into())).unwrap();
    conn.start_queue(loud).unwrap();
    let stopped = conn
        .wait_event(Duration::from_secs(15), |e| matches!(e, Event::QueueStopped { .. }))
        .unwrap();
    assert!(matches!(stopped, Event::QueueStopped { reason: QueueStopReason::Error, .. }));
    server.shutdown();
}

#[test]
fn no_answer_times_out() {
    let (server, mut conn) = start();
    let control = server.control();
    control.with_core(|c| c.hw.pstn.set_ring_timeout(8000)); // 1 s
    let _remote = control.add_remote_party("555-3000"); // never answers
    let loud = conn.create_loud(None).unwrap();
    let tel = conn.create_vdevice(loud, DeviceClass::Telephone, vec![]).unwrap();
    conn.select_events(tel, EventMask::DEVICE).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();
    conn.enqueue_cmd(loud, tel, DeviceCommand::Dial("555-3000".into())).unwrap();
    conn.start_queue(loud).unwrap();
    conn.wait_event(Duration::from_secs(15), |e| {
        matches!(e, Event::CallProgress { state: CallState::NoAnswer, .. })
    })
    .unwrap();
    server.shutdown();
}

#[test]
fn phone_number_attribute_selects_line() {
    // Two lines; the virtual device pins by number.
    let mut hw = da_hw::registry::HwSpec::desktop();
    hw.devices.push(da_hw::registry::DeviceSpec {
        name: "phone line 2".into(),
        kind: da_hw::registry::DeviceKind::PhoneLine {
            number: "555-0200".into(),
            caller_id: false,
        },
        domains: vec![2],
    });
    let (server, mut conn) = start_with_hw(hw);
    let loud = conn.create_loud(None).unwrap();
    let tel = conn
        .create_vdevice(
            loud,
            DeviceClass::Telephone,
            vec![Attribute::PhoneNumber("555-0200".into())],
        )
        .unwrap();
    conn.map_loud(loud).unwrap();
    conn.sync().unwrap();
    let (_, mapped) = conn.query_vdevice(tel).unwrap();
    // Device ids follow inventory order: line 2 is index 3.
    assert_eq!(mapped, Some(da_proto::DeviceId(3)));
    server.shutdown();
}

#[test]
fn cd_quality_playback_on_hifi_speaker() {
    // The 175 kB/s end of the paper's range (§1.1): 44.1 kHz stereo
    // PCM-16 through the hifi output.
    let (server, mut conn) = start_with_hw(da_hw::registry::HwSpec::desktop_hifi());
    let control = server.control();
    control.set_speaker_capture(1, 400_000); // hifi speaker is index 1

    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let out = conn
        .create_vdevice(loud, DeviceClass::Output, vec![Attribute::SampleRate(44_100)])
        .unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();

    // Half a second of stereo 440 Hz.
    let mono = da_dsp::tone::sine(44_100, 440.0, 22_050, 12000);
    let mut stereo = Vec::with_capacity(mono.len() * 2);
    for s in &mono {
        stereo.push(*s);
        stereo.push(*s);
    }
    let sound = conn.upload_pcm(SoundType::CD, &stereo).unwrap();
    let (stype, bytes, frames, _) = conn.query_sound(sound).unwrap();
    assert_eq!(stype.encoding, Encoding::Pcm16);
    assert_eq!(frames, 22_050);
    assert_eq!(bytes, 88_200);

    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound)).unwrap();
    conn.start_queue(loud).unwrap();
    conn.wait_event(Duration::from_secs(20), |e| matches!(e, Event::CommandDone { .. }))
        .unwrap();
    control.run_until(Duration::from_secs(10), |c| {
        c.hw.speakers[1].captured().len() >= 40_000
    });
    let cap = control.take_captured(1); // interleaved stereo
    let left: Vec<i16> = cap.iter().step_by(2).copied().collect();
    let p440 = da_dsp::analysis::goertzel_power(&left, 44_100, 440.0);
    let p880 = da_dsp::analysis::goertzel_power(&left, 44_100, 880.0);
    assert!(p440 > p880 * 20.0, "440 Hz {p440} vs 880 Hz {p880}");
    server.shutdown();
}

#[test]
fn telephone_quality_sound_reaches_hifi_speaker_resampled() {
    // An 8 kHz sound on the 44.1 kHz output: the wire resamples.
    let (server, mut conn) = start_with_hw(da_hw::registry::HwSpec::desktop_hifi());
    let control = server.control();
    let loud = conn.create_loud(None).unwrap();
    let player = conn.create_vdevice(loud, DeviceClass::Player, vec![]).unwrap();
    let out = conn
        .create_vdevice(loud, DeviceClass::Output, vec![Attribute::SampleRate(44_100)])
        .unwrap();
    conn.create_wire(player, 0, out, 0, WireType::Any).unwrap();
    conn.select_events(loud, EventMask::QUEUE).unwrap();
    conn.map_loud(loud).unwrap();
    let sound = conn
        .upload_pcm(SoundType::TELEPHONE, &da_dsp::tone::sine(8000, 440.0, 8000, 12000))
        .unwrap();
    conn.enqueue_cmd(loud, player, DeviceCommand::Play(sound)).unwrap();
    // The engine runs free and captures silence every tick until the
    // tone starts, and StartQueue can wait hundreds of ticks for the
    // core read lock on a loaded machine. So arm the capture only now,
    // with room for that wait, and measure from the tone's first
    // sample (kept on a left-channel boundary).
    control.set_speaker_capture(1, 2_000_000);
    let tone = |cap: &[i16]| cap.iter().position(|&x| x != 0).unwrap_or(cap.len()) & !1;
    conn.start_queue(loud).unwrap();
    conn.wait_event(Duration::from_secs(20), |e| matches!(e, Event::CommandDone { .. }))
        .unwrap();
    control.run_until(Duration::from_secs(10), |c| {
        let cap = c.hw.speakers[1].captured();
        cap.len() - tone(cap) >= 80_000
    });
    let cap = control.take_captured(1);
    let left: Vec<i16> = cap[tone(&cap)..].iter().step_by(2).copied().collect();
    let p440 = da_dsp::analysis::goertzel_power(&left, 44_100, 440.0);
    assert!(p440 > 100_000.0, "resampled tone missing: {p440}");
    server.shutdown();
}
