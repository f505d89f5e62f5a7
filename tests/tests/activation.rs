//! Active-stack scheduling, exclusivity and ambient domains (paper §5.4,
//! §5.8).

mod common;

use common::{connect, start, start_with_hw};
use da_proto::command::{DeviceCommand, RecordTermination};
use da_proto::event::{Event, EventMask, QueueStopReason};
use da_proto::types::{Attribute, DeviceClass, SoundType, WireType};
use std::time::Duration;

#[test]
fn exclusive_use_preempts_lower_loud() {
    let (server, mut a) = start();
    let mut b = connect(&server, "exclusive-app");

    // Client A maps a normal output LOUD and starts a long play.
    let la = a.create_loud(None).unwrap();
    let pa = a.create_vdevice(la, DeviceClass::Player, vec![]).unwrap();
    let oa = a.create_vdevice(la, DeviceClass::Output, vec![]).unwrap();
    a.create_wire(pa, 0, oa, 0, WireType::Any).unwrap();
    a.select_events(la, EventMask::QUEUE | EventMask::LOUD_STATE).unwrap();
    let sound = a
        .upload_pcm(SoundType::TELEPHONE, &da_dsp::tone::sine(8000, 500.0, 24_000, 10000))
        .unwrap();
    a.map_loud(la).unwrap();
    a.enqueue_cmd(la, pa, DeviceCommand::Play(sound)).unwrap();
    a.start_queue(la).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::QueueStarted { .. }))
        .unwrap();

    // Client B maps an exclusive-use output on top: A must deactivate.
    let lb = b.create_loud(None).unwrap();
    let _ob = b
        .create_vdevice(lb, DeviceClass::Output, vec![Attribute::ExclusiveUse])
        .unwrap();
    b.select_events(lb, EventMask::LOUD_STATE).unwrap();
    b.map_loud(lb).unwrap();
    b.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();

    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::DeactivateNotify { .. }))
        .unwrap();
    a.wait_event(Duration::from_secs(10), |e| {
        matches!(e, Event::QueuePaused { by_server: true, .. })
    })
    .unwrap();

    // B unmaps: A reactivates, its queue resumes, the play completes.
    b.unmap_loud(lb).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();
    a.wait_event(Duration::from_secs(30), |e| matches!(e, Event::CommandDone { .. }))
        .unwrap();
    server.shutdown();
}

#[test]
fn shared_output_activates_both() {
    // Without exclusivity, two LOUDs bind the same speaker and both stay
    // active ("the multiplexing of output requests from a number of
    // applications to a single speaker", paper §2).
    let (server, mut a) = start();
    let mut b = connect(&server, "second-app");
    let la = a.create_loud(None).unwrap();
    a.create_vdevice(la, DeviceClass::Output, vec![]).unwrap();
    a.select_events(la, EventMask::LOUD_STATE).unwrap();
    a.map_loud(la).unwrap();
    let lb = b.create_loud(None).unwrap();
    b.create_vdevice(lb, DeviceClass::Output, vec![]).unwrap();
    b.select_events(lb, EventMask::LOUD_STATE).unwrap();
    b.map_loud(lb).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();
    b.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();
    let stack = a.query_active_stack().unwrap();
    assert_eq!(stack.len(), 2);
    assert!(stack.iter().all(|e| e.active));
    server.shutdown();
}

#[test]
fn ambient_domain_exclusive_input() {
    // Speaker-phone hardware: its microphone shares the desktop domain
    // with the desk microphone. An exclusive-input claim on the desk mic
    // must deactivate a LOUD using the speaker-phone mic (paper §5.8).
    let (server, mut a) = start_with_hw(da_hw::registry::HwSpec::desktop_with_speakerphone());
    let mut b = connect(&server, "dictation");

    // A uses the speaker-phone mic (domains 0 and 2).
    let la = a.create_loud(None).unwrap();
    a.create_vdevice(
        la,
        DeviceClass::Input,
        vec![Attribute::Name("speakerphone mic".into())],
    )
    .unwrap();
    a.select_events(la, EventMask::LOUD_STATE).unwrap();
    a.map_loud(la).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();

    // B claims the desk microphone exclusively within its domain.
    let lb = b.create_loud(None).unwrap();
    b.create_vdevice(
        lb,
        DeviceClass::Input,
        vec![Attribute::Name("microphone".into()), Attribute::ExclusiveInput],
    )
    .unwrap();
    b.select_events(lb, EventMask::LOUD_STATE).unwrap();
    b.map_loud(lb).unwrap();
    b.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();

    // A's input shares domain 0 with the exclusive claim: deactivated.
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::DeactivateNotify { .. }))
        .unwrap();
    server.shutdown();
}

#[test]
fn raise_reorders_contention() {
    // Two LOUDs both want exclusive use of the one speaker; only the
    // higher one is active, and raising swaps them.
    let (server, mut a) = start();
    let mut b = connect(&server, "raiser");
    let la = a.create_loud(None).unwrap();
    a.create_vdevice(la, DeviceClass::Output, vec![Attribute::ExclusiveUse]).unwrap();
    a.select_events(la, EventMask::LOUD_STATE).unwrap();
    a.map_loud(la).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();

    let lb = b.create_loud(None).unwrap();
    b.create_vdevice(lb, DeviceClass::Output, vec![Attribute::ExclusiveUse]).unwrap();
    b.select_events(lb, EventMask::LOUD_STATE).unwrap();
    b.map_loud(lb).unwrap();
    // B maps on top, so B is active and A deactivates.
    b.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::DeactivateNotify { .. }))
        .unwrap();

    // A raises itself back to the top.
    a.raise_loud(la).unwrap();
    a.wait_event(Duration::from_secs(10), |e| matches!(e, Event::ActivateNotify { .. }))
        .unwrap();
    b.wait_event(Duration::from_secs(10), |e| matches!(e, Event::DeactivateNotify { .. }))
        .unwrap();

    let stack = a.query_active_stack().unwrap();
    assert_eq!(stack[0].loud, la);
    assert!(stack[0].active);
    assert!(!stack[1].active);
    server.shutdown();
}

#[test]
fn lower_yields_to_higher_priority() {
    // "Lower priority LOUDs can be put on the bottom of the stack to
    // yield to higher priority LOUDs" (paper §5.4).
    let (server, mut a) = start();
    let la = a.create_loud(None).unwrap();
    a.create_vdevice(la, DeviceClass::Output, vec![Attribute::ExclusiveUse]).unwrap();
    a.map_loud(la).unwrap();
    let lb = a.create_loud(None).unwrap();
    a.create_vdevice(lb, DeviceClass::Output, vec![Attribute::ExclusiveUse]).unwrap();
    a.map_loud(lb).unwrap();
    a.sync().unwrap();
    // lb mapped last → on top.
    let stack = a.query_active_stack().unwrap();
    assert_eq!(stack[0].loud, lb);
    a.lower_loud(lb).unwrap();
    a.sync().unwrap();
    let stack = a.query_active_stack().unwrap();
    assert_eq!(stack[0].loud, la);
    assert!(stack[0].active);
    assert!(!stack[1].active);
    server.shutdown();
}

#[test]
fn pinned_device_binding_reported() {
    // §5.3: map, query the chosen device, augment to pin it.
    let (server, mut conn) = start();
    let loud = conn.create_loud(None).unwrap();
    let out = conn.create_vdevice(loud, DeviceClass::Output, vec![]).unwrap();
    conn.map_loud(loud).unwrap();
    conn.sync().unwrap();
    let (_, mapped) = conn.query_vdevice(out).unwrap();
    let device = mapped.expect("mapped to a physical device");
    // Pin to the same device explicitly.
    conn.augment_vdevice(out, vec![Attribute::Device(device)]).unwrap();
    conn.sync().unwrap();
    let (attrs, mapped2) = conn.query_vdevice(out).unwrap();
    assert_eq!(mapped2, Some(device));
    assert!(attrs.iter().any(|a| matches!(a, Attribute::Device(d) if *d == device)));
    server.shutdown();
}

#[test]
fn client_disconnect_releases_resources() {
    let (server, mut a) = start();
    let mut b = connect(&server, "doomed");
    let lb = b.create_loud(None).unwrap();
    b.create_vdevice(lb, DeviceClass::Output, vec![Attribute::ExclusiveUse]).unwrap();
    b.map_loud(lb).unwrap();
    b.sync().unwrap();
    assert_eq!(a.query_active_stack().unwrap().len(), 1);
    drop(b); // connection closes; the server reaps everything
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let stack = a.query_active_stack().unwrap();
        if stack.is_empty() {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "resources not reaped");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

/// `Play` runs only on a player and `Record` only on a recorder. Queued
/// on a hardware device either one stops the queue with an error, like
/// an unknown sound, and the device keeps its bound hardware rate
/// rather than taking the sound's.
#[test]
fn play_or_record_on_hardware_device_stops_queue_with_error() {
    let (server, mut conn) = start();
    let control = server.control();
    let tone = da_dsp::tone::sine(44_100, 440.0, 4_410, 8000);
    let cd = conn.upload_pcm(SoundType::CD, &tone).unwrap();
    let rate_of = |v: da_proto::VDeviceId| {
        control.with_core(|c| c.vdevs.get(&v.0).map(|d| c.device_rate(d))).expect("vdev")
    };
    let cases = [
        (DeviceClass::Output, DeviceCommand::Play(cd)),
        (DeviceClass::Input, DeviceCommand::Record(cd, RecordTermination::MaxFrames(800))),
    ];
    for (class, cmd) in cases {
        let loud = conn.create_loud(None).unwrap();
        let dev = conn.create_vdevice(loud, class, vec![]).unwrap();
        conn.select_events(loud, EventMask::QUEUE).unwrap();
        conn.map_loud(loud).unwrap();
        conn.sync().unwrap();
        let bound = rate_of(dev);
        assert_eq!(bound, 8_000, "{class:?} binds the desktop's 8 kHz device");
        conn.enqueue_cmd(loud, dev, cmd).unwrap();
        conn.start_queue(loud).unwrap();
        let stopped = conn
            .wait_event(Duration::from_secs(10), |e| matches!(e, Event::QueueStopped { .. }))
            .unwrap();
        assert!(
            matches!(stopped, Event::QueueStopped { reason: QueueStopReason::Error, .. }),
            "{class:?}: {stopped:?}"
        );
        assert_eq!(rate_of(dev), bound, "{class:?} kept its hardware rate");
    }
    control.with_core(|c| da_server::validate::check(c)).expect("invariants hold");
    server.shutdown();
}

/// Activation claims hold one bit per physical device and one per
/// ambient domain. A spec with more of either is refused at startup
/// with a clear error instead of being silently truncated.
#[test]
fn oversize_hardware_spec_is_refused_at_startup() {
    use da_server::core::MAX_CLAIM_BITS;
    use da_server::{AudioServer, ServerConfig};
    let refused = |hw: da_hw::registry::HwSpec| {
        AudioServer::start(ServerConfig { hw, ..ServerConfig::default() })
            .err()
            .expect("oversize spec refused")
    };

    let mut many_devices = da_hw::registry::HwSpec::desktop();
    let speaker = many_devices.devices[0].clone();
    while many_devices.devices.len() <= MAX_CLAIM_BITS {
        many_devices.devices.push(speaker.clone());
    }
    let err = refused(many_devices);
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("65 physical devices"), "{err}");

    let mut many_domains = da_hw::registry::HwSpec::desktop();
    many_domains.devices[0].domains = (0..=MAX_CLAIM_BITS as u32).collect();
    let err = refused(many_domains);
    assert!(err.to_string().contains("65 ambient domains"), "{err}");

    // Exactly at the bound still starts.
    let mut at_bound = da_hw::registry::HwSpec::desktop();
    at_bound.devices[0].domains = (0..MAX_CLAIM_BITS as u32).collect();
    AudioServer::start(ServerConfig { hw: at_bound, ..ServerConfig::default() })
        .expect("64 domains fit")
        .shutdown();
}
