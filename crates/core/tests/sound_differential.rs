//! Differential suite: the sharded fast path and the write-lock path
//! must be observationally identical for every fast-eligible opcode
//! (the `Own`/`Global` rows of `fastpath::OPCODE_TOUCHES`).
//!
//! Each script runs on two fresh servers: once the way the connection
//! plane dispatches (fast path first, write lock when it punts) and
//! once under the write lock only. The per-client reply, error and
//! event streams and a digest of the final LOUD, device, wire, sound
//! and property state must match exactly. Scripts also send requests
//! from a client on another shard (a foreign parent, foreign wire
//! endpoints, foreign read and property targets) and `CreateVDevice`
//! on an active tree: the fast path punts those, so both servers must
//! give the same answers, error codes included.

use crossbeam::channel::{unbounded, Receiver};
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::error::ErrorCode;
use da_proto::event::EventMask;
use da_proto::ids::{Atom, ClientId, DeviceId, LoudId, ResourceId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{Attribute, DeviceClass, Encoding, SoundType, WireType};
use da_server::core::{Core, ServerConfig, ServerMsg};
use da_server::{dispatch, fastpath, validate};
use parking_lot::RwLock;

/// One scripted step: which client sends, and what.
type Step = (usize, Request);

/// Drains everything currently queued on a receiver.
fn drain(rx: &Receiver<ServerMsg>) -> Vec<ServerMsg> {
    let mut out = Vec::new();
    while let Ok(m) = rx.try_recv() {
        out.push(m);
    }
    out
}

struct Rig {
    core: RwLock<Core>,
    clients: Vec<(ClientId, Receiver<ServerMsg>)>,
}

fn rig(n_clients: usize) -> Rig {
    let mut core = Core::new(ServerConfig { manual_ticks: true, ..ServerConfig::default() });
    let clients = (0..n_clients)
        .map(|i| {
            let (tx, rx) = unbounded();
            let (client, _base, _mask) = core.add_client(format!("diff-{i}"), tx);
            (client, rx)
        })
        .collect();
    Rig { core: RwLock::new(core), clients }
}

/// Runs `script` through the fast path (slow fallback on punt, exactly
/// like the connection plane) and returns the per-client message
/// streams plus the final-state digest.
fn run_fast(script: &[Step]) -> (Vec<Vec<String>>, String) {
    let r = rig(2);
    for (seq, (who, req)) in script.iter().enumerate() {
        let client = r.clients[*who].0;
        if !fastpath::try_dispatch(&r.core, client, seq as u32, req) {
            dispatch::dispatch(&mut r.core.write(), client, seq as u32, req.clone());
        }
    }
    finish(r)
}

/// Runs `script` through the slow path only.
fn run_slow(script: &[Step]) -> (Vec<Vec<String>>, String) {
    let r = rig(2);
    for (seq, (who, req)) in script.iter().enumerate() {
        let client = r.clients[*who].0;
        dispatch::dispatch(&mut r.core.write(), client, seq as u32, req.clone());
    }
    finish(r)
}

fn finish(r: Rig) -> (Vec<Vec<String>>, String) {
    let core = r.core.read();
    let violations = validate::check_all(&core);
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
    let streams =
        r.clients.iter().map(|(_, rx)| drain(rx).into_iter().map(render).collect()).collect();
    (streams, digest(&core))
}

/// One message as compared across the two servers. `DeviceWires` and
/// `PropertyList` list `HashMap` contents, whose iteration order
/// differs between two servers, so their lists are sorted first.
fn render(m: ServerMsg) -> String {
    match m {
        ServerMsg::Reply(seq, Reply::DeviceWires { mut wires }) => {
            wires.sort_by_key(|w| w.0);
            format!("{:?}", ServerMsg::Reply(seq, Reply::DeviceWires { wires }))
        }
        ServerMsg::Reply(seq, Reply::PropertyList { mut names }) => {
            names.sort_by_key(|a| a.0);
            format!("{:?}", ServerMsg::Reply(seq, Reply::PropertyList { names }))
        }
        m => format!("{m:?}"),
    }
}

/// Final-state digest: the observable fields of every LOUD, device,
/// wire, sound and property, one line each, sorted.
fn digest(core: &Core) -> String {
    let mut lines: Vec<String> = Vec::new();
    for (id, l) in core.louds.iter() {
        lines.push(format!(
            "loud {id}: owner={} parent={:?} children={:?} vdevs={:?} mapped={} active={} \
             dirty={} queue={:?}",
            l.owner.0,
            l.parent,
            l.children,
            l.vdevs,
            l.mapped,
            l.active,
            l.dirty,
            l.queue.as_ref().map(|q| (q.state(), q.pending_len())),
        ));
    }
    for (id, v) in core.vdevs.iter() {
        lines.push(format!(
            "vdev {id}: owner={} loud={} root={} class={:?} attrs={:?} binding={:?} rate={} \
             sync={} paused={}",
            v.owner.0,
            v.loud,
            v.root,
            v.class,
            v.attrs,
            core.dev_slot(v).and_then(|d| d.binding),
            core.device_rate(v),
            v.sync_interval,
            core.dev_slot(v).is_some_and(|d| d.paused),
        ));
    }
    for (id, w) in core.wires.iter() {
        lines.push(format!(
            "wire {id}: owner={} {}:{} -> {}:{} {:?}",
            w.owner.0, w.src.0, w.src_port, w.dst.0, w.dst_port, w.wire_type,
        ));
    }
    for (id, s) in core.sounds.iter() {
        lines.push(format!(
            "sound {id}: owner={} stype={:?} bytes={} frames={} complete={}",
            s.owner.0,
            s.stype,
            s.len_bytes(),
            s.len_frames(),
            s.complete,
        ));
    }
    for (key, props) in core.properties.iter() {
        let mut ps: Vec<String> = props.values().map(|p| format!("{p:?}")).collect();
        ps.sort();
        lines.push(format!("props {key:?}: {ps:?}"));
    }
    lines.sort();
    lines.join("\n")
}

/// Asserts fast and slow runs of `script` are observationally equal.
fn assert_differential(script: &[Step]) {
    let (fast_msgs, fast_state) = run_fast(script);
    let (slow_msgs, slow_state) = run_slow(script);
    assert_eq!(fast_msgs, slow_msgs, "fast/slow reply streams differ");
    assert_eq!(fast_state, slow_state, "fast/slow final state differs");
}

/// Raw id `n` in the id range of the client in `slot` (client ids
/// start at 1: slot 0 is client 1, on shard 1; slot 1 is client 2, on
/// shard 2).
fn rid(slot: u32, n: u32) -> u32 {
    ((slot + 1) << 20) | n
}

fn sid(slot: u32, n: u32) -> SoundId {
    SoundId(rid(slot, n))
}

fn lid(slot: u32, n: u32) -> LoudId {
    LoudId(rid(slot, n))
}

fn vid(slot: u32, n: u32) -> VDeviceId {
    VDeviceId(rid(slot, n))
}

fn wid(slot: u32, n: u32) -> WireId {
    WireId(rid(slot, n))
}

fn root(id: LoudId) -> Request {
    Request::CreateLoud { id, parent: None }
}

fn device(id: VDeviceId, loud: LoudId, class: DeviceClass) -> Request {
    Request::CreateVDevice { id, loud, class, attrs: Vec::new() }
}

fn wire(id: WireId, src: VDeviceId, dst: VDeviceId) -> Request {
    Request::CreateWire { id, src, src_port: 0, dst, dst_port: 0, wire_type: WireType::Any }
}

/// The errors one client received, as `(step, code)`, when `script`
/// runs the way the connection plane dispatches it.
fn errors(script: &[Step], who: usize) -> Vec<(u32, ErrorCode)> {
    let r = rig(2);
    for (seq, (sender, req)) in script.iter().enumerate() {
        let client = r.clients[*sender].0;
        if !fastpath::try_dispatch(&r.core, client, seq as u32, req) {
            dispatch::dispatch(&mut r.core.write(), client, seq as u32, req.clone());
        }
    }
    drain(&r.clients[who].1)
        .into_iter()
        .filter_map(|m| match m {
            ServerMsg::Error(seq, e) => Some((seq, e.code)),
            _ => None,
        })
        .collect()
}

#[test]
fn all_six_sound_opcodes_are_differentially_equal() {
    let s1 = sid(0, 1);
    let s2 = sid(0, 2);
    let ulaw = SoundType::TELEPHONE;
    let script: Vec<Step> = vec![
        // Create: success, duplicate id, degenerate type.
        (0, Request::CreateSound { id: s1, stype: ulaw }),
        (0, Request::CreateSound { id: s1, stype: ulaw }),
        (0, Request::CreateSound { id: s2, stype: SoundType { channels: 0, ..ulaw } }),
        // Streaming write, mid-stream read (must not claim EOF), query.
        (0, Request::WriteSoundData { id: s1, data: vec![0x7F; 100], eof: false }),
        (0, Request::ReadSoundData { id: s1, offset: 0, len: 1000 }),
        (0, Request::QuerySound { id: s1 }),
        // Foreign client: not owner.
        (1, Request::WriteSoundData { id: s1, data: vec![1], eof: false }),
        // Final block, then write-after-complete, then full read.
        (0, Request::WriteSoundData { id: s1, data: vec![0x70; 50], eof: true }),
        (0, Request::WriteSoundData { id: s1, data: vec![2], eof: true }),
        (0, Request::ReadSoundData { id: s1, offset: 0, len: 1000 }),
        (0, Request::ReadSoundData { id: s1, offset: 120, len: 10 }),
        (0, Request::QuerySound { id: s1 }),
        // Catalogues: listing, bind, bad name, duplicate id, read, write.
        (0, Request::ListCatalog { catalog: String::new() }),
        (0, Request::ListCatalog { catalog: "system".into() }),
        (0, Request::OpenCatalogSound { id: s2, catalog: "system".into(), name: "beep".into() }),
        (0, Request::OpenCatalogSound { id: sid(0, 3), catalog: "system".into(), name: "nope".into() }),
        (0, Request::OpenCatalogSound { id: s2, catalog: "system".into(), name: "ring".into() }),
        (0, Request::ReadSoundData { id: s2, offset: 0, len: 64 }),
        (0, Request::WriteSoundData { id: s2, data: vec![3], eof: true }),
        (0, Request::QuerySound { id: s2 }),
        // Delete: success, then the id is gone for every opcode.
        (0, Request::DeleteSound { id: s1 }),
        (0, Request::DeleteSound { id: s1 }),
        (0, Request::ReadSoundData { id: s1, offset: 0, len: 10 }),
        (0, Request::QuerySound { id: s1 }),
        (0, Request::Sync),
    ];
    assert_differential(&script);
}

#[test]
fn adpcm_and_stereo_sounds_are_differentially_equal() {
    let s1 = sid(0, 1);
    let adpcm = SoundType { encoding: Encoding::ImaAdpcm, sample_rate: 8000, channels: 1 };
    let pcm = da_dsp::tone::sine(8000, 300.0, 400, 9000);
    let enc = da_dsp::adpcm::encode_slice(&pcm);
    let script: Vec<Step> = vec![
        (0, Request::CreateSound { id: s1, stype: adpcm }),
        (0, Request::WriteSoundData { id: s1, data: enc.clone(), eof: false }),
        (0, Request::ReadSoundData { id: s1, offset: 16, len: 32 }),
        (0, Request::WriteSoundData { id: s1, data: enc, eof: true }),
        (0, Request::ReadSoundData { id: s1, offset: 0, len: 4096 }),
        (0, Request::QuerySound { id: s1 }),
    ];
    assert_differential(&script);
}

/// Satellite regression: a streaming (incomplete) sound must never
/// report `at_end`, even when the read reaches the current tail — more
/// data may still arrive. Checked on both dispatch paths.
#[test]
fn streaming_read_does_not_report_eof_until_complete() {
    for fast in [false, true] {
        let r = rig(1);
        let client = r.clients[0].0;
        let s1 = sid(0, 1);
        let send = |seq: u32, req: Request| {
            if fast && fastpath::try_dispatch(&r.core, client, seq, &req) {
                return;
            }
            dispatch::dispatch(&mut r.core.write(), client, seq, req);
        };
        send(0, Request::CreateSound { id: s1, stype: SoundType::TELEPHONE });
        send(1, Request::WriteSoundData { id: s1, data: vec![0x7F; 64], eof: false });
        // Read the whole current tail: must NOT be the end yet.
        send(2, Request::ReadSoundData { id: s1, offset: 0, len: 64 });
        send(3, Request::WriteSoundData { id: s1, data: vec![0x7F; 64], eof: true });
        // Same read again: still not the end (64 < 128)...
        send(4, Request::ReadSoundData { id: s1, offset: 0, len: 64 });
        // ...but the full read of a complete sound is.
        send(5, Request::ReadSoundData { id: s1, offset: 0, len: 128 });
        let msgs = drain(&r.clients[0].1);
        let at_ends: Vec<bool> = msgs
            .iter()
            .filter_map(|m| match m {
                ServerMsg::Reply(_, da_proto::reply::Reply::SoundData { at_end, .. }) => {
                    Some(*at_end)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            at_ends,
            vec![false, false, true],
            "streaming at_end sequence wrong (fast={fast})"
        );
    }
}

/// Satellite regression: `WriteSoundData` growing a sound past
/// `MAX_SOUND_BYTES` is rejected with a typed error before any byte is
/// appended, on both dispatch paths, and counts the rejection metric.
#[test]
fn oversized_write_is_rejected_before_allocation() {
    for fast in [false, true] {
        let r = rig(1);
        let client = r.clients[0].0;
        let s1 = sid(0, 1);
        let send = |seq: u32, req: Request| {
            if fast && fastpath::try_dispatch(&r.core, client, seq, &req) {
                return;
            }
            dispatch::dispatch(&mut r.core.write(), client, seq, req);
        };
        send(0, Request::CreateSound { id: s1, stype: SoundType::TELEPHONE });
        send(1, Request::WriteSoundData { id: s1, data: vec![0; 1000], eof: false });
        let huge = vec![0u8; da_proto::types::MAX_SOUND_BYTES as usize - 500];
        send(2, Request::WriteSoundData { id: s1, data: huge, eof: false });
        let core = r.core.read();
        let s = core.sounds.get(&s1.0).expect("sound exists");
        assert_eq!(s.len_bytes(), 1000, "rejected write must not grow the sound (fast={fast})");
        assert!(!s.complete);
        assert_eq!(core.tel.metrics.sounds_rejected_oversize_total.get(), 1);
        let saw_bad_value = drain(&r.clients[0].1).iter().any(|m| {
            matches!(m, ServerMsg::Error(_, e) if e.code == da_proto::error::ErrorCode::BadValue)
        });
        assert!(saw_bad_value, "expected a BadValue error (fast={fast})");
    }
}

/// Tentpole behavior: finalizing identical uploads from different
/// clients (and uploads matching a catalogue sound) dedupes to one
/// shared payload, on both dispatch paths.
#[test]
fn eof_finalize_interns_identical_uploads() {
    for fast in [false, true] {
        let r = rig(2);
        let data = da_dsp::mulaw::encode_slice(&da_dsp::tone::sine(8000, 440.0, 800, 10000));
        for (slot, n) in [(0usize, 1u32), (1, 1)] {
            let client = r.clients[slot].0;
            let id = sid(slot as u32, n);
            let send = |seq: u32, req: Request| {
                if fast && fastpath::try_dispatch(&r.core, client, seq, &req) {
                    return;
                }
                dispatch::dispatch(&mut r.core.write(), client, seq, req);
            };
            send(0, Request::CreateSound { id, stype: SoundType::TELEPHONE });
            send(1, Request::WriteSoundData { id, data: data.clone(), eof: true });
        }
        let core = r.core.read();
        let a = core.sounds.get(&sid(0, 1).0).expect("sound a");
        let b = core.sounds.get(&sid(1, 1).0).expect("sound b");
        let (pa, pb) = (a.shared.as_ref().expect("a interned"), b.shared.as_ref().expect("b interned"));
        assert!(
            std::sync::Arc::ptr_eq(pa, pb),
            "identical uploads must share one payload (fast={fast})"
        );
        assert_eq!(a.content_hash, b.content_hash);
        assert!(core.tel.metrics.store_dedupe_hits_total.get() >= 1);
        assert!(core.store.snapshot().shared_bytes >= data.len());
        let violations = validate::check_all(&core);
        assert!(violations.is_empty(), "invariants violated: {violations:?}");
    }
}

#[test]
fn loud_device_and_wire_opcodes_are_differentially_equal() {
    let (l1, l2, l3, m1) = (lid(0, 1), lid(0, 2), lid(0, 3), lid(1, 1));
    let (player, out, d1, d2, rec) = (vid(0, 1), vid(0, 2), vid(0, 3), vid(0, 4), vid(0, 5));
    let theirs = vid(1, 1);
    let hifi = WireType::Digital(SoundType {
        encoding: Encoding::Pcm16,
        sample_rate: 44_100,
        channels: 1,
    });
    let script: Vec<Step> = vec![
        // 0-7 LOUDs: create, duplicate, child, missing parent, second
        // root, foreign root, foreign parent, foreign id range.
        (0, root(l1)),
        (0, root(l1)),
        (0, Request::CreateLoud { id: l2, parent: Some(l1) }),
        (0, Request::CreateLoud { id: lid(0, 9), parent: Some(lid(0, 99)) }),
        (0, root(l3)),
        (1, root(m1)),
        (0, Request::CreateLoud { id: lid(0, 4), parent: Some(m1) }),
        (0, root(lid(1, 7))),
        // 8-17 devices: hardware and software classes, duplicate, no
        // matching hardware, missing LOUD, foreign LOUD, foreign range.
        (0, device(player, l1, DeviceClass::Player)),
        (0, device(out, l2, DeviceClass::Output)),
        (0, device(d1, l2, DeviceClass::Dsp)),
        (0, device(d2, l2, DeviceClass::Dsp)),
        (0, device(rec, l3, DeviceClass::Recorder)),
        (0, device(player, l1, DeviceClass::Player)),
        (
            0,
            Request::CreateVDevice {
                id: vid(0, 6),
                loud: l1,
                class: DeviceClass::Output,
                attrs: vec![Attribute::Name("nowhere".into())],
            },
        ),
        (0, device(vid(0, 7), lid(0, 99), DeviceClass::Player)),
        (0, device(vid(0, 8), m1, DeviceClass::Player)),
        (1, device(theirs, m1, DeviceClass::Player)),
        // 18-24 attribute reads (own, foreign, missing), sync interval.
        (0, Request::QueryVDeviceAttributes { id: player }),
        (0, Request::QueryVDeviceAttributes { id: out }),
        (1, Request::QueryVDeviceAttributes { id: out }),
        (0, Request::QueryVDeviceAttributes { id: vid(0, 99) }),
        (0, Request::SetSyncInterval { vdev: player, interval_frames: 400 }),
        (1, Request::SetSyncInterval { vdev: player, interval_frames: 800 }),
        (0, Request::SetSyncInterval { vdev: vid(0, 99), interval_frames: 800 }),
        // 25-28 wires: a chain, a duplicate id.
        (0, wire(wid(0, 1), player, d1)),
        (0, wire(wid(0, 1), player, d2)),
        (0, wire(wid(0, 2), d1, d2)),
        (0, wire(wid(0, 3), d2, out)),
        // 29-39 refused wires: cycle, self, across trees, bad ports,
        // analog, type mismatch, foreign source, foreign sink, missing
        // source, foreign id range.
        (0, wire(wid(0, 4), d2, d1)),
        (0, wire(wid(0, 5), d1, d1)),
        (0, wire(wid(0, 6), player, rec)),
        (
            0,
            Request::CreateWire {
                id: wid(0, 7),
                src: player,
                src_port: 3,
                dst: d2,
                dst_port: 0,
                wire_type: WireType::Any,
            },
        ),
        (
            0,
            Request::CreateWire {
                id: wid(0, 8),
                src: player,
                src_port: 0,
                dst: d2,
                dst_port: 5,
                wire_type: WireType::Any,
            },
        ),
        (
            0,
            Request::CreateWire {
                id: wid(0, 9),
                src: player,
                src_port: 0,
                dst: d2,
                dst_port: 0,
                wire_type: WireType::Analog,
            },
        ),
        (
            0,
            Request::CreateWire {
                id: wid(0, 10),
                src: player,
                src_port: 0,
                dst: d2,
                dst_port: 0,
                wire_type: hifi,
            },
        ),
        (0, wire(wid(0, 11), theirs, d2)),
        (0, wire(wid(0, 12), player, theirs)),
        (0, wire(wid(0, 13), vid(0, 99), d2)),
        (0, wire(wid(1, 2), player, d2)),
        // 40-45 wire reads: own, foreign, missing.
        (0, Request::QueryWire { id: wid(0, 1) }),
        (1, Request::QueryWire { id: wid(0, 1) }),
        (0, Request::QueryWire { id: wid(0, 99) }),
        (0, Request::QueryDeviceWires { id: d1 }),
        (1, Request::QueryDeviceWires { id: d1 }),
        (0, Request::QueryDeviceWires { id: vid(0, 99) }),
        // 46-49 wire removal: foreign, own, again, then re-read.
        (1, Request::DestroyWire { id: wid(0, 2) }),
        (0, Request::DestroyWire { id: wid(0, 2) }),
        (0, Request::DestroyWire { id: wid(0, 2) }),
        (0, Request::QueryDeviceWires { id: d1 }),
        // 50-55 devices created on an active tree must bind at once.
        (0, Request::MapLoud { id: l1 }),
        (0, Request::QueryActiveStack),
        (0, device(vid(0, 10), l2, DeviceClass::Output)),
        (0, device(vid(0, 11), l1, DeviceClass::Player)),
        (0, Request::QueryVDeviceAttributes { id: vid(0, 10) }),
        (0, Request::Sync),
    ];
    assert_differential(&script);
    use ErrorCode::*;
    assert_eq!(
        errors(&script, 0),
        vec![
            (1, BadIdChoice),
            (3, BadLoud),
            (6, BadAccess),
            (7, BadIdChoice),
            (13, BadIdChoice),
            (14, DeviceBusy),
            (15, BadLoud),
            (16, BadAccess),
            (21, BadDevice),
            (24, BadDevice),
            (26, BadIdChoice),
            (29, BadMatch),
            (30, BadMatch),
            (31, BadMatch),
            (32, BadValue),
            (33, BadValue),
            (34, BadMatch),
            (35, BadMatch),
            (36, BadAccess),
            (37, BadAccess),
            (38, BadDevice),
            (39, BadIdChoice),
            (42, BadWire),
            (45, BadDevice),
            (48, BadWire),
        ]
    );
    assert_eq!(errors(&script, 1), vec![(23, BadAccess), (46, BadAccess)]);
}

#[test]
fn queue_opcodes_are_differentially_equal() {
    let (l1, l2) = (lid(0, 1), lid(0, 2));
    let (player, s1) = (vid(0, 1), sid(0, 1));
    let play = vec![QueueEntry::Device { vdev: player, cmd: DeviceCommand::Play(s1) }];
    let script: Vec<Step> = vec![
        // 0-6 a root with a child, a player and a sound; both clients
        // watch the root's queue.
        (0, root(l1)),
        (0, Request::CreateLoud { id: l2, parent: Some(l1) }),
        (0, device(player, l1, DeviceClass::Player)),
        (0, Request::CreateSound { id: s1, stype: SoundType::TELEPHONE }),
        (0, Request::WriteSoundData { id: s1, data: vec![0x7F; 400], eof: true }),
        (0, Request::SelectEvents { target: ResourceId::Loud(l1), mask: EventMask::QUEUE }),
        (1, Request::SelectEvents { target: ResourceId::Loud(l1), mask: EventMask::QUEUE }),
        // 7-10 enqueue: own root, child, missing, foreign.
        (0, Request::Enqueue { loud: l1, entries: play.clone() }),
        (0, Request::Enqueue { loud: l2, entries: play.clone() }),
        (0, Request::Enqueue { loud: lid(0, 99), entries: play.clone() }),
        (1, Request::Enqueue { loud: l1, entries: play }),
        // 11-14 queue reads: own, foreign, child, missing.
        (0, Request::QueryQueue { loud: l1 }),
        (1, Request::QueryQueue { loud: l1 }),
        (0, Request::QueryQueue { loud: l2 }),
        (0, Request::QueryQueue { loud: lid(0, 99) }),
        // 15-18 start: own, again, foreign, child.
        (0, Request::StartQueue { loud: l1 }),
        (0, Request::StartQueue { loud: l1 }),
        (1, Request::StartQueue { loud: l1 }),
        (0, Request::StartQueue { loud: l2 }),
        // 19-24 pause, start as resume, stop.
        (0, Request::PauseQueue { loud: l1 }),
        (0, Request::StartQueue { loud: l1 }),
        (0, Request::QueryQueue { loud: l1 }),
        (0, Request::StopQueue { loud: l1 }),
        (0, Request::QueryQueue { loud: l1 }),
        (0, Request::Sync),
    ];
    assert_differential(&script);
    use ErrorCode::*;
    assert_eq!(
        errors(&script, 0),
        vec![(8, BadLoud), (9, BadLoud), (13, BadLoud), (14, BadLoud), (18, BadLoud)]
    );
    assert_eq!(errors(&script, 1), vec![(10, BadAccess), (17, BadAccess)]);
}

#[test]
fn property_atom_and_misc_opcodes_are_differentially_equal() {
    let (l1, m1, player, s1) = (lid(0, 1), lid(1, 1), vid(0, 1), sid(0, 1));
    let (string, integer, priority, wm_name, unknown) =
        (Atom(1), Atom(2), Atom(4), Atom(5), Atom(999));
    let set = |target: ResourceId, name: Atom, type_: Atom, value: &[u8]| Request::ChangeProperty {
        target,
        name,
        type_,
        value: value.to_vec(),
    };
    let speaker = ResourceId::Device(DeviceId(0));
    let script: Vec<Step> = vec![
        // 0-6 targets, and property watchers on client 1's root.
        (0, root(l1)),
        (0, device(player, l1, DeviceClass::Player)),
        (0, Request::CreateSound { id: s1, stype: SoundType::TELEPHONE }),
        (1, root(m1)),
        (0, Request::SelectEvents { target: ResourceId::Loud(l1), mask: EventMask::PROPERTY }),
        (1, Request::SelectEvents { target: ResourceId::Loud(l1), mask: EventMask::PROPERTY }),
        (0, Request::SelectEvents { target: speaker, mask: EventMask::PROPERTY }),
        // 7-10 own writes on each target kind.
        (0, set(ResourceId::Loud(l1), wm_name, string, b"one")),
        (0, set(ResourceId::Loud(l1), priority, integer, &[1, 0, 0, 0])),
        (0, set(ResourceId::VDevice(player), wm_name, string, b"dev")),
        (0, set(ResourceId::Sound(s1), wm_name, string, b"snd")),
        // 11-15 refused writes: unknown name, unknown type, missing
        // LOUD, device and sound.
        (0, set(ResourceId::Loud(l1), unknown, string, b"x")),
        (0, set(ResourceId::Loud(l1), wm_name, unknown, b"x")),
        (0, set(ResourceId::Loud(lid(0, 99)), wm_name, string, b"x")),
        (0, set(ResourceId::VDevice(vid(0, 99)), wm_name, string, b"x")),
        (0, set(ResourceId::Sound(sid(0, 99)), wm_name, string, b"x")),
        // 16-19 foreign and physical-device targets.
        (1, set(ResourceId::Loud(l1), wm_name, string, b"foreign")),
        (0, set(ResourceId::Loud(m1), wm_name, string, b"theirs")),
        (0, set(speaker, wm_name, string, b"spk")),
        (0, set(ResourceId::Device(DeviceId(99)), wm_name, string, b"x")),
        // 20-27 reads: own, unknown name, foreign, device, lists.
        (0, Request::GetProperty { target: ResourceId::Loud(l1), name: wm_name }),
        (0, Request::GetProperty { target: ResourceId::Loud(l1), name: unknown }),
        (1, Request::GetProperty { target: ResourceId::Loud(l1), name: wm_name }),
        (0, Request::GetProperty { target: speaker, name: wm_name }),
        (0, Request::ListProperties { target: ResourceId::Loud(l1) }),
        (1, Request::ListProperties { target: ResourceId::Loud(l1) }),
        (0, Request::ListProperties { target: ResourceId::Sound(s1) }),
        (0, Request::ListProperties { target: ResourceId::Loud(lid(0, 99)) }),
        // 28-31 deletes: own, again, foreign; then the list again.
        (0, Request::DeleteProperty { target: ResourceId::Loud(l1), name: priority }),
        (0, Request::DeleteProperty { target: ResourceId::Loud(l1), name: priority }),
        (1, Request::DeleteProperty { target: ResourceId::Loud(l1), name: wm_name }),
        (0, Request::ListProperties { target: ResourceId::Loud(l1) }),
        // 32-36 atoms: known, zero, unknown, a fresh one used at once.
        (0, Request::GetAtomName { atom: wm_name }),
        (0, Request::GetAtomName { atom: Atom(0) }),
        (0, Request::GetAtomName { atom: unknown }),
        (0, Request::InternAtom { name: "DIFF_ATOM".into() }),
        (0, set(ResourceId::Loud(l1), Atom(12), string, b"fresh")),
        // 37-45 sounds read from another shard, ids outside the
        // sender's range, and the global opcodes.
        (1, Request::QuerySound { id: s1 }),
        (1, Request::ReadSoundData { id: s1, offset: 0, len: 16 }),
        (1, Request::CreateSound { id: sid(0, 5), stype: SoundType::TELEPHONE }),
        (
            1,
            Request::OpenCatalogSound {
                id: sid(0, 6),
                catalog: "system".into(),
                name: "beep".into(),
            },
        ),
        (0, Request::GetServerInfo),
        (1, Request::GetServerInfo),
        (0, Request::ListCatalog { catalog: "system".into() }),
        (0, Request::Sync),
        (1, Request::Sync),
    ];
    assert_differential(&script);
    use ErrorCode::*;
    assert_eq!(
        errors(&script, 0),
        vec![
            (11, BadAtom),
            (12, BadAtom),
            (13, BadLoud),
            (14, BadDevice),
            (15, BadSound),
            (19, BadDevice),
            (27, BadLoud),
            (33, BadAtom),
            (34, BadAtom),
        ]
    );
    assert_eq!(errors(&script, 1), vec![(39, BadIdChoice), (40, BadIdChoice)]);
}
