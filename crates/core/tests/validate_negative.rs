//! Negative tests for [`da_server::validate`]: seed structural
//! corruption directly into a [`Core`] — bypassing dispatch, which
//! would refuse it — and assert the checker reports the exact
//! invariant. This is what makes the validate oracle trustworthy: a
//! checker that never fires proves nothing.

use crossbeam::channel::unbounded;
use da_proto::ids::{ClientId, LoudId, VDeviceId, WireId};
use da_proto::request::Request;
use da_proto::types::{Attribute, DeviceClass, WireType};
use da_server::core::{Core, ServerConfig};
use da_server::dispatch::dispatch;
use da_server::loud::Loud;
use da_server::validate;
use da_server::wire::Wire;

/// A core with one client, one mapped root LOUD, and two mixer devices
/// in it — a minimal legal topology to corrupt.
fn seeded() -> (Core, ClientId, u32) {
    let mut core = Core::new(ServerConfig::default());
    let (tx, _rx) = unbounded();
    let (client, base, _mask) = core.add_client("neg".into(), tx);
    dispatch(&mut core, client, 0, Request::CreateLoud { id: LoudId(base + 1), parent: None });
    for slot in 0..2u32 {
        dispatch(&mut core, client, 0, Request::CreateVDevice {
            id: VDeviceId(base + 0x10 + slot),
            loud: LoudId(base + 1),
            class: DeviceClass::Mixer,
            attrs: Vec::new(),
        });
    }
    (core, client, base)
}

fn codes(core: &Core) -> Vec<&'static str> {
    validate::check_all(core).into_iter().map(|v| v.invariant).collect()
}

#[test]
fn clean_core_validates() {
    let (core, _client, _base) = seeded();
    assert_eq!(validate::check_all(&core), Vec::new());
}

/// Acceptance case: an `Analog` wire between client virtual devices is
/// illegal (paper §5.2 — analog paths exist only between hardware), and
/// the checker must say so.
#[test]
fn seeded_analog_wire_is_caught() {
    let (mut core, client, base) = seeded();
    let wire = Wire::new(
        WireId(base + 0x100),
        client,
        VDeviceId(base + 0x10),
        0,
        VDeviceId(base + 0x11),
        0,
        WireType::Analog,
    );
    core.wires.insert(wire.id.0, wire);
    let found = codes(&core);
    assert!(found.contains(&"V4"), "expected a V4 violation, got {found:?}");
}

#[test]
fn dangling_wire_endpoint_is_caught() {
    let (mut core, client, base) = seeded();
    let wire = Wire::new(
        WireId(base + 0x100),
        client,
        VDeviceId(base + 0x10),
        0,
        VDeviceId(base + 0xFF), // no such device
        0,
        WireType::Any,
    );
    core.wires.insert(wire.id.0, wire);
    let found = codes(&core);
    assert!(found.contains(&"V3"), "expected a V3 violation, got {found:?}");
}

#[test]
fn dangling_parent_is_caught() {
    let (mut core, client, base) = seeded();
    core.louds
        .insert(base + 2, Loud::new(LoudId(base + 2), client, Some(base + 0xDEAD)));
    let found = codes(&core);
    assert!(found.contains(&"V1"), "expected a V1 violation, got {found:?}");
}

#[test]
fn one_sided_child_link_is_caught() {
    let (mut core, client, base) = seeded();
    // Child claims a parent that does not list it back.
    core.louds.insert(base + 2, Loud::new(LoudId(base + 2), client, Some(base + 1)));
    let found = codes(&core);
    assert!(found.contains(&"V1"), "expected a V1 violation, got {found:?}");
}

#[test]
fn mapped_without_stack_entry_is_caught() {
    let (mut core, _client, base) = seeded();
    dispatch(&mut core, _client, 0, Request::MapLoud { id: LoudId(base + 1) });
    assert_eq!(validate::check_all(&core), Vec::new());
    // Corrupt: mapped flag without a stack entry.
    core.active_stack.retain(|&r| r != base + 1);
    let found = codes(&core);
    assert!(found.contains(&"V6"), "expected a V6 violation, got {found:?}");
}

/// V15: an attribute change that forgets to mark its root `dirty`
/// leaves a memoised bind the next activation walk would wrongly reuse.
#[test]
fn attribute_change_without_dirty_is_caught() {
    let (mut core, client, base) = seeded();
    let out = base + 0x12;
    dispatch(&mut core, client, 0, Request::CreateVDevice {
        id: VDeviceId(out),
        loud: LoudId(base + 1),
        class: DeviceClass::Output,
        attrs: Vec::new(),
    });
    dispatch(&mut core, client, 0, Request::MapLoud { id: LoudId(base + 1) });
    assert!(core.louds.get(&(base + 1)).unwrap().active);
    assert_eq!(validate::check_all(&core), Vec::new());
    // Corrupt: the speaker-bound output now asks for a name no speaker
    // has, so a fresh bind fails, but the root is not marked dirty.
    core.vdevs.get_mut(&out).unwrap().attrs.push(Attribute::Name("microphone".into()));
    let found = codes(&core);
    assert_eq!(found, vec!["V15"], "expected only a V15 violation");
    // Marking the root dirty is exactly what makes the change legal.
    core.louds.get_mut(&(base + 1)).unwrap().dirty = true;
    assert_eq!(validate::check_all(&core), Vec::new());
}

/// V10: after a plan build, every device names the slot holding its
/// streaming state. A device pointed at another device's slot is
/// flagged, as is the slot it abandoned.
#[test]
fn corrupt_slot_index_is_caught() {
    let (mut core, client, base) = seeded();
    dispatch(&mut core, client, 0, Request::MapLoud { id: LoudId(base + 1) });
    da_server::engine::tick(&mut core);
    assert_eq!(validate::check_all(&core), Vec::new());
    let (a, b) = (base + 0x10, base + 0x11);
    let b_slot = core.vdevs.get(&b).unwrap().slot;
    assert!(b_slot.is_some() && core.vdevs.get(&a).unwrap().slot != b_slot);
    // Corrupt: device A now names device B's slot.
    core.vdevs.get_mut(&a).unwrap().slot = b_slot;
    let found = validate::check_all(&core);
    let has = |text: &str| found.iter().any(|v| v.invariant == "V10" && v.detail.contains(text));
    assert!(has("share slot"), "{found:?}");
    assert!(has("no vdev points"), "{found:?}");
}

/// The debug-build dispatch hook turns any violation into a panic at
/// the offending request, so corruption cannot survive unnoticed past a
/// single dispatch in tests.
#[test]
#[cfg(debug_assertions)]
fn dispatch_hook_panics_on_corrupt_core() {
    let (mut core, client, base) = seeded();
    let wire = Wire::new(
        WireId(base + 0x100),
        client,
        VDeviceId(base + 0x10),
        0,
        VDeviceId(base + 0x11),
        0,
        WireType::Analog,
    );
    core.wires.insert(wire.id.0, wire);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        dispatch(&mut core, client, 0, Request::QueryQueue { loud: LoudId(base + 1) });
    }));
    let msg = *r.expect_err("hook must panic").downcast::<String>().unwrap();
    assert!(msg.contains("protocol invariant violated"), "{msg}");
    assert!(msg.contains("V4"), "{msg}");
}
