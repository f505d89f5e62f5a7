//! Model check of the protocol's structural invariants: drive an
//! arbitrary request sequence — topology mutation, device attributes,
//! mapping and activation requests, queue control, destruction — against
//! a bare [`Core`] and assert the full invariant set of
//! [`da_server::validate`] holds afterwards. Hardware devices carry
//! exclusivity and naming attributes, so the exclusive-use and
//! ambient-domain branches of activation run under the oracle (V15). Because
//! debug builds also re-check after *every* dispatch (the hook in
//! `dispatch()`), a violating intermediate state panics at the request
//! that caused it, making this a per-step model check, not just an
//! endpoint check.

use crossbeam::channel::unbounded;
use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::ids::{LoudId, SoundId, VDeviceId, WireId};
use da_proto::request::Request;
use da_proto::types::{Attribute, DeviceClass, WireType};
use da_server::core::{Core, ServerConfig};
use da_server::dispatch::dispatch;
use da_server::validate;
use proptest::prelude::*;

/// One request. Slots index small fixed id spaces; dispatch rejects the
/// many illegal combinations (wrong ids, cycles, non-roots) with errors
/// that must leave the structure unchanged — exactly what the oracle
/// checks.
#[derive(Debug, Clone)]
enum Op {
    CreateRoot { slot: u8 },
    CreateChild { slot: u8, parent: u8 },
    DestroyLoud { slot: u8 },
    CreateVDev { slot: u8, class: u8, loud: u8, attr: u8 },
    DestroyVDev { slot: u8 },
    Augment { slot: u8, attr: u8 },
    CreateWire { slot: u8, src: u8, sport: u8, dst: u8, dport: u8 },
    DestroyWire { slot: u8 },
    Map { loud: u8 },
    Unmap { loud: u8 },
    Raise { loud: u8 },
    Lower { loud: u8 },
    Activate { loud: u8 },
    Deactivate { loud: u8 },
    Enqueue { loud: u8, dev: u8, bracket: bool },
    StartQueue { loud: u8 },
    StopQueue { loud: u8 },
    PauseQueue { loud: u8 },
    ResumeQueue { loud: u8 },
    FlushQueue { loud: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u8..3).prop_map(|slot| Op::CreateRoot { slot }),
        2 => (0u8..6, 0u8..6).prop_map(|(slot, parent)| Op::CreateChild { slot, parent }),
        1 => (0u8..6).prop_map(|slot| Op::DestroyLoud { slot }),
        3 => (0u8..8, 0u8..7, 0u8..6, 0u8..5)
            .prop_map(|(slot, class, loud, attr)| Op::CreateVDev { slot, class, loud, attr }),
        1 => (0u8..8).prop_map(|slot| Op::DestroyVDev { slot }),
        1 => (0u8..8, 1u8..5).prop_map(|(slot, attr)| Op::Augment { slot, attr }),
        3 => (0u8..10, 0u8..8, 0u8..2, 0u8..8, 0u8..3)
            .prop_map(|(slot, src, sport, dst, dport)| Op::CreateWire {
                slot,
                src,
                sport,
                dst,
                dport,
            }),
        1 => (0u8..10).prop_map(|slot| Op::DestroyWire { slot }),
        2 => (0u8..6).prop_map(|loud| Op::Map { loud }),
        1 => (0u8..6).prop_map(|loud| Op::Unmap { loud }),
        1 => (0u8..6).prop_map(|loud| Op::Raise { loud }),
        1 => (0u8..6).prop_map(|loud| Op::Lower { loud }),
        1 => (0u8..6).prop_map(|loud| Op::Activate { loud }),
        1 => (0u8..6).prop_map(|loud| Op::Deactivate { loud }),
        2 => (0u8..6, 0u8..8, 0u8..2)
            .prop_map(|(loud, dev, b)| Op::Enqueue { loud, dev, bracket: b == 1 }),
        2 => (0u8..6).prop_map(|loud| Op::StartQueue { loud }),
        1 => (0u8..6).prop_map(|loud| Op::StopQueue { loud }),
        1 => (0u8..6).prop_map(|loud| Op::PauseQueue { loud }),
        1 => (0u8..6).prop_map(|loud| Op::ResumeQueue { loud }),
        1 => (0u8..6).prop_map(|loud| Op::FlushQueue { loud }),
    ]
}

fn class_of(idx: u8) -> DeviceClass {
    match idx % 7 {
        0 => DeviceClass::Mixer,
        1 => DeviceClass::Crossbar,
        2 => DeviceClass::Dsp,
        3 => DeviceClass::Player,
        4 => DeviceClass::Output,
        5 => DeviceClass::Input,
        _ => DeviceClass::Telephone,
    }
}

/// Attribute draw: none, the three exclusivity claims, or a name that
/// only the desktop microphone carries.
fn attrs_of(idx: u8) -> Vec<Attribute> {
    match idx % 5 {
        0 => Vec::new(),
        1 => vec![Attribute::ExclusiveUse],
        2 => vec![Attribute::ExclusiveInput],
        3 => vec![Attribute::ExclusiveOutput],
        _ => vec![Attribute::Name("microphone".into())],
    }
}

/// Activation churn: hardware devices with attributes in a few roots
/// and their children, mapped, restacked and augmented, so nearly every
/// step runs the memoised activation walk over competing claims.
fn arb_activation_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0u8..3).prop_map(|slot| Op::CreateRoot { slot }),
        1 => (3u8..5, 0u8..3).prop_map(|(slot, parent)| Op::CreateChild { slot, parent }),
        1 => (0u8..5).prop_map(|slot| Op::DestroyLoud { slot }),
        4 => (0u8..8, 4u8..7, 0u8..5, 0u8..5)
            .prop_map(|(slot, class, loud, attr)| Op::CreateVDev { slot, class, loud, attr }),
        1 => (0u8..8).prop_map(|slot| Op::DestroyVDev { slot }),
        3 => (0u8..8, 1u8..5).prop_map(|(slot, attr)| Op::Augment { slot, attr }),
        3 => (0u8..3).prop_map(|loud| Op::Map { loud }),
        1 => (0u8..3).prop_map(|loud| Op::Unmap { loud }),
        1 => (0u8..3).prop_map(|loud| Op::Raise { loud }),
        1 => (0u8..3).prop_map(|loud| Op::Lower { loud }),
        1 => (0u8..3).prop_map(|loud| Op::Activate { loud }),
        1 => (0u8..3).prop_map(|loud| Op::Deactivate { loud }),
    ]
}

/// Dispatches `ops` from one client against a fresh core. In debug
/// builds every dispatch also re-validates, so a violating step panics
/// at the request that caused it.
fn run(ops: Vec<Op>) -> Core {
    let mut core = Core::new(ServerConfig::default());
    let (tx, _rx) = unbounded();
    let (client, base, _mask) = core.add_client("model".into(), tx);
    let loud_id = |l: u8| LoudId(base + 1 + l as u32);
    let vdev_id = |s: u8| VDeviceId(base + 0x10 + s as u32);
    let wire_id = |s: u8| WireId(base + 0x100 + s as u32);
    for op in ops {
        let request = match op {
            Op::CreateRoot { slot } => {
                Request::CreateLoud { id: loud_id(slot), parent: None }
            }
            Op::CreateChild { slot, parent } => Request::CreateLoud {
                id: loud_id(slot),
                parent: Some(loud_id(parent)),
            },
            Op::DestroyLoud { slot } => Request::DestroyLoud { id: loud_id(slot) },
            Op::CreateVDev { slot, class, loud, attr } => Request::CreateVDevice {
                id: vdev_id(slot),
                loud: loud_id(loud),
                class: class_of(class),
                attrs: attrs_of(attr),
            },
            Op::DestroyVDev { slot } => Request::DestroyVDevice { id: vdev_id(slot) },
            Op::Augment { slot, attr } => {
                Request::AugmentVDevice { id: vdev_id(slot), attrs: attrs_of(attr) }
            }
            Op::CreateWire { slot, src, sport, dst, dport } => Request::CreateWire {
                id: wire_id(slot),
                src: vdev_id(src),
                src_port: sport,
                dst: vdev_id(dst),
                dst_port: dport,
                wire_type: WireType::Any,
            },
            Op::DestroyWire { slot } => Request::DestroyWire { id: wire_id(slot) },
            Op::Map { loud } => Request::MapLoud { id: loud_id(loud) },
            Op::Unmap { loud } => Request::UnmapLoud { id: loud_id(loud) },
            Op::Raise { loud } => Request::RaiseLoud { id: loud_id(loud) },
            Op::Lower { loud } => Request::LowerLoud { id: loud_id(loud) },
            Op::Activate { loud } => Request::RequestActivate { id: loud_id(loud) },
            Op::Deactivate { loud } => Request::RequestDeactivate { id: loud_id(loud) },
            Op::Enqueue { loud, dev, bracket } => {
                let cmd = QueueEntry::Device {
                    vdev: vdev_id(dev),
                    cmd: DeviceCommand::Play(SoundId(1)),
                };
                let entries = if bracket {
                    vec![QueueEntry::CoBegin, cmd, QueueEntry::CoEnd]
                } else {
                    vec![cmd]
                };
                Request::Enqueue { loud: loud_id(loud), entries }
            }
            Op::StartQueue { loud } => Request::StartQueue { loud: loud_id(loud) },
            Op::StopQueue { loud } => Request::StopQueue { loud: loud_id(loud) },
            Op::PauseQueue { loud } => Request::PauseQueue { loud: loud_id(loud) },
            Op::ResumeQueue { loud } => Request::ResumeQueue { loud: loud_id(loud) },
            Op::FlushQueue { loud } => Request::FlushQueue { loud: loud_id(loud) },
        };
        dispatch(&mut core, client, 0, request);
    }
    core
}

proptest! {
    #[test]
    fn invariants_hold_after_arbitrary_requests(ops in prop::collection::vec(arb_op(), 0..64)) {
        let violations = validate::check_all(&run(ops));
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn invariants_hold_under_activation_churn(
        ops in prop::collection::vec(arb_activation_op(), 0..48)
    ) {
        let violations = validate::check_all(&run(ops));
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    // Client teardown (the other big structural mutation path) also
    // preserves the invariants.
    #[test]
    fn invariants_hold_after_client_teardown(ops in prop::collection::vec(arb_op(), 0..32)) {
        let mut core = Core::new(ServerConfig::default());
        let (tx, _rx) = unbounded();
        let (client, base, _mask) = core.add_client("model".into(), tx);
        let loud_id = |l: u8| LoudId(base + 1 + l as u32);
        for op in ops {
            if let Op::CreateRoot { slot } = op {
                dispatch(&mut core, client, 0, Request::CreateLoud {
                    id: loud_id(slot),
                    parent: None,
                });
                dispatch(&mut core, client, 0, Request::MapLoud { id: loud_id(slot) });
            }
        }
        core.remove_client(client);
        let violations = validate::check_all(&core);
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }
}
