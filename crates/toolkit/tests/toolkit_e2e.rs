//! Toolkit scenarios against a live server: the §5.9 answering machine,
//! telephone dialogues, soundviewer synchronisation, manager policy.

use da_alib::Connection;
use da_proto::command::RecordTermination;
use da_proto::event::{Event, EventMask};
use da_proto::types::SoundType;
use da_server::{AudioServer, ServerConfig};
use da_toolkit::builders::{AnsweringMachine, PhoneLoud, PlayLoud, RecordLoud};
use da_toolkit::manager::{AllowAll, AudioManager, QuotaPolicy, Verdict};
use da_toolkit::soundviewer::Soundviewer;
use da_toolkit::sounds::SoundHandle;
use std::time::Duration;

fn start() -> (AudioServer, Connection) {
    let server = AudioServer::start(ServerConfig::default()).expect("server");
    let conn = Connection::establish(server.connect_pipe(), "toolkit-test").expect("connect");
    (server, conn)
}

#[test]
fn play_loud_builder_plays() {
    let (server, mut conn) = start();
    let control = server.control();
    control.set_speaker_capture(0, 50_000);
    let play = PlayLoud::build(&mut conn, vec![]).unwrap();
    let sound =
        SoundHandle::from_pcm(&mut conn, 8000, &da_dsp::tone::sine(8000, 600.0, 2400, 12000))
            .unwrap();
    play.play_blocking(&mut conn, sound.id, Duration::from_secs(10)).unwrap();
    // The capture also holds the silence the engine rendered while the
    // LOUD was built and the sound uploaded, however long that took, so
    // the tone is checked from its first sample on.
    let tone_start = |cap: &[i16]| cap.iter().position(|&s| s != 0);
    assert!(control.run_until(Duration::from_secs(5), |c| {
        let cap = c.hw.speakers[0].captured();
        tone_start(cap).is_some_and(|i| cap.len() >= i + 2400)
    }));
    let cap = control.take_captured(0);
    let start = tone_start(&cap).expect("tone captured");
    assert!(da_dsp::analysis::goertzel_power(&cap[start..start + 2400], 8000, 600.0) > 10_000.0);
    server.shutdown();
}

#[test]
fn record_loud_builder_records() {
    let (server, mut conn) = start();
    let control = server.control();
    control.speak_into_microphone(0, &da_dsp::tone::sine(8000, 350.0, 9000, 11000));
    let rec = RecordLoud::build(&mut conn, vec![]).unwrap();
    let sound = conn.create_sound(SoundType::TELEPHONE).unwrap();
    let frames = rec
        .record_blocking(
            &mut conn,
            sound,
            RecordTermination::MaxFrames(2400),
            Duration::from_secs(10),
        )
        .unwrap();
    assert!(frames >= 2400);
    let handle = SoundHandle::wrap(&mut conn, sound).unwrap();
    let pcm = handle.download_pcm(&mut conn).unwrap();
    assert!(da_dsp::analysis::goertzel_power(&pcm, 8000, 350.0) > 10_000.0);
    server.shutdown();
}

#[test]
fn answering_machine_full_call() {
    let (server, mut conn) = start();
    let control = server.control();

    // Build the §5.9 structure and its sounds.
    let am = AnsweringMachine::build(&mut conn, vec![]).unwrap();
    let greeting = SoundHandle::from_pcm(
        &mut conn,
        8000,
        &da_dsp::tone::sine(8000, 440.0, 8000, 12000), // 1 s "greeting"
    )
    .unwrap();
    let beep = SoundHandle::from_catalog(&mut conn, "system", "beep").unwrap();
    let message = conn.create_sound(SoundType::TELEPHONE).unwrap();
    am.arm(&mut conn, greeting.id, beep.id, message, RecordTermination::OnHangup).unwrap();

    // Monitor the device-LOUD telephone for rings while unmapped (§5.9
    // footnote).
    let (devices, _) = conn.query_device_loud().unwrap();
    let phone_dev = devices
        .iter()
        .find(|d| d.class == da_proto::types::DeviceClass::Telephone)
        .expect("phone in device loud");
    conn.select_events(phone_dev.id, EventMask::DEVICE).unwrap();
    // Synchronise so the selection is registered before the call arrives.
    conn.sync().unwrap();

    // A caller rings in, will speak a 500 Hz message then hang up.
    let caller = control.add_remote_party("555-7777");
    control.with_party(caller, |p, pstn| {
        // Politely wait out the greeting (1 s) and beep (250 ms) before
        // speaking the 2 s message.
        p.say(&vec![0i16; 12000]);
        p.say(&da_dsp::tone::sine(8000, 500.0, 16000, 12000));
        p.call(pstn, "555-0100");
    });

    // Ring arrives on the device LOUD.
    let ring = conn
        .wait_event(Duration::from_secs(10), |e| {
            matches!(
                e,
                Event::CallProgress { state: da_proto::event::CallState::Ringing, .. }
            )
        })
        .unwrap();
    match ring {
        Event::CallProgress { caller_id, .. } => {
            assert_eq!(caller_id.as_deref(), Some("555-7777"));
        }
        _ => unreachable!(),
    }

    // Engage: map, raise, start the preloaded queue.
    am.engage(&mut conn).unwrap();

    // Wait until the greeting+beep have played and recording starts.
    conn.wait_event(Duration::from_secs(20), |e| matches!(e, Event::RecordStarted { .. }))
        .unwrap();

    // Give the caller time to finish speaking, then hang up.
    control.run_until(Duration::from_secs(30), |c| {
        c.remote_parties[caller].pending_say() == 0
    });
    control.with_party(caller, |p, pstn| p.hang_up(pstn));

    // Recording terminates on hangup.
    let stopped = conn
        .wait_event(Duration::from_secs(20), |e| matches!(e, Event::RecordStopped { .. }))
        .unwrap();
    match stopped {
        Event::RecordStopped { reason, frames, .. } => {
            assert_eq!(reason, da_proto::event::RecordStopReason::Hangup);
            assert!(frames > 8000, "recorded only {frames} frames");
        }
        _ => unreachable!(),
    }

    // The message must contain the caller's 500 Hz tone.
    let handle = SoundHandle::wrap(&mut conn, message).unwrap();
    let pcm = handle.download_pcm(&mut conn).unwrap();
    let p500 = da_dsp::analysis::goertzel_power(&pcm, 8000, 500.0);
    let p440 = da_dsp::analysis::goertzel_power(&pcm, 8000, 440.0);
    assert!(p500 > p440 * 5.0, "message should be caller audio: {p500} vs greeting {p440}");

    // The caller must have heard the greeting (440 Hz) and the beep.
    let heard = control.with_party(caller, |p, _| p.heard().to_vec());
    let heard_greeting = da_dsp::analysis::goertzel_power(&heard, 8000, 440.0);
    assert!(heard_greeting > 10_000.0, "caller did not hear greeting");
    let heard_beep = da_dsp::analysis::goertzel_power(&heard, 8000, 1000.0);
    assert!(heard_beep > 1_000.0, "caller did not hear beep");

    am.disengage(&mut conn).unwrap();
    server.shutdown();
}

#[test]
fn phone_dialogue_speaks_and_hears_dtmf() {
    let (server, mut conn) = start();
    let control = server.control();

    let phone = PhoneLoud::build(&mut conn, vec![]).unwrap();

    // Remote party will auto-answer and send DTMF after hearing speech.
    let remote = control.add_remote_party("555-8888");
    control.with_party(remote, |p, _| {
        p.auto_answer_after = Some(4000); // answer after 0.5 s of ringing
        p.send_dtmf("42#");
    });

    let connected = phone.dial_blocking(&mut conn, "555-8888", Duration::from_secs(20)).unwrap();
    assert!(connected);

    phone.speak_blocking(&mut conn, "enter code", Duration::from_secs(30)).unwrap();

    // Collect the remote party's digits.
    let mut digits = Vec::new();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while digits.len() < 3 && std::time::Instant::now() < deadline {
        if let Some(Event::DtmfReceived { digit, .. }) =
            conn.next_event(Duration::from_millis(100)).unwrap()
        {
            digits.push(digit);
        }
    }
    assert_eq!(digits, b"42#".to_vec());

    phone.hang_up(&mut conn).unwrap();
    server.shutdown();
}

#[test]
fn dial_busy_reports_failure() {
    let (server, mut conn) = start();
    let phone = PhoneLoud::build(&mut conn, vec![]).unwrap();
    // No such number: the network returns busy.
    let connected = phone.dial_blocking(&mut conn, "000-0000", Duration::from_secs(20)).unwrap();
    assert!(!connected);
    phone.hang_up(&mut conn).unwrap();
    server.shutdown();
}

#[test]
fn soundviewer_follows_playback() {
    let (server, mut conn) = start();
    let play = PlayLoud::build(&mut conn, vec![]).unwrap();
    // 1 s of audio, sync marks every 100 ms → ~10 marks.
    let sound =
        SoundHandle::from_pcm(&mut conn, 8000, &da_dsp::tone::sine(8000, 440.0, 8000, 10000))
            .unwrap();
    let mut viewer = Soundviewer::new(play.player, sound.frames, 8000);
    play.play(&mut conn, sound.id).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    let mut done = false;
    while std::time::Instant::now() < deadline && !done {
        if let Some(ev) = conn.next_event(Duration::from_millis(100)).unwrap() {
            viewer.handle_event(&ev);
            done = matches!(ev, Event::CommandDone { .. });
        }
    }
    assert!(done, "playback never completed");
    assert!(viewer.marks_seen >= 8, "only {} sync marks", viewer.marks_seen);
    assert!(viewer.fraction() > 0.9, "viewer at {:.2}", viewer.fraction());
    let bar = viewer.render_ascii(20);
    assert!(bar.contains('█'), "{bar}");
    server.shutdown();
}

#[test]
fn audio_manager_policy_gates_maps() {
    let server = AudioServer::start(ServerConfig::default()).expect("server");
    let mut mgr_conn =
        Connection::establish(server.connect_pipe(), "audio-manager").expect("connect");
    let mut app_conn = Connection::establish(server.connect_pipe(), "app").expect("connect");

    let mut manager = AudioManager::attach(&mut mgr_conn, QuotaPolicy::new(1)).unwrap();

    // The app tries to map two LOUDs; the quota allows one.
    let l1 = app_conn.create_loud(None).unwrap();
    let l2 = app_conn.create_loud(None).unwrap();
    app_conn.select_events(l1, EventMask::LOUD_STATE).unwrap();
    app_conn.select_events(l2, EventMask::LOUD_STATE).unwrap();
    app_conn.map_loud(l1).unwrap();
    app_conn.map_loud(l2).unwrap();
    app_conn.sync().unwrap();

    manager.process(&mut mgr_conn, Duration::from_secs(2)).unwrap();
    let stats = manager.stats();
    assert_eq!(stats.maps_allowed, 1);
    assert_eq!(stats.maps_denied, 1);

    // Exactly one MapNotify arrived.
    let first = app_conn.next_event(Duration::from_secs(2)).unwrap();
    assert!(matches!(first, Some(Event::MapNotify { loud }) if loud == l1), "{first:?}");

    // A second manager cannot attach.
    let mut other = Connection::establish(server.connect_pipe(), "impostor").expect("connect");
    assert!(AudioManager::attach(&mut other, AllowAll).is_err());

    manager.detach(&mut mgr_conn).unwrap();
    server.shutdown();
}

#[test]
fn quota_policy_unit() {
    let mut p = QuotaPolicy::new(2);
    use da_proto::ids::{ClientId, LoudId};
    use da_toolkit::manager::MapPolicy;
    assert_eq!(p.on_map(LoudId(1), ClientId(1)), Verdict::Allow);
    assert_eq!(p.on_map(LoudId(2), ClientId(1)), Verdict::Allow);
    assert_eq!(p.on_map(LoudId(3), ClientId(1)), Verdict::Deny);
    assert_eq!(p.on_map(LoudId(4), ClientId(2)), Verdict::Allow);
    assert_eq!(p.on_raise(LoudId(3), ClientId(1)), Verdict::Allow);
}

#[test]
fn sound_handle_wav_roundtrip() {
    let (server, mut conn) = start();
    let pcm = da_dsp::tone::sine(8000, 440.0, 1600, 9000);
    let wav = da_dsp::wav::encode_pcm16(8000, 1, &pcm);
    let handle = SoundHandle::from_wav(&mut conn, &wav).unwrap();
    assert_eq!(handle.frames, 1600);
    assert_eq!(handle.duration(), Duration::from_millis(200));
    let back = handle.download_wav(&mut conn).unwrap();
    let decoded = da_dsp::wav::decode(&back).unwrap();
    assert_eq!(decoded.samples, pcm);
    server.shutdown();
}
