//! Property tests for the engine data plane: after an arbitrary
//! sequence of topology mutations (device/wire creation and destruction,
//! devices destroyed and re-created under the same id, mapping, raising,
//! unmapping) with plan refreshes interleaved at arbitrary points —
//! exactly what engine ticks do — the refreshed plans are identical to a
//! fresh recompute, and the slot slab to a fresh resolve (invariant
//! V10), however often slots were reclaimed and reused. This catches any
//! mutation path that forgets to bump `Core::topology_gen`: the final
//! `ensure_fresh` is a no-op unless the generation moved, so a missing
//! bump leaves the cache stale and the comparison fails.

use crossbeam::channel::unbounded;
use da_proto::ids::{LoudId, VDeviceId, WireId};
use da_proto::request::Request;
use da_proto::types::{DeviceClass, WireType};
use da_server::core::{Core, ServerConfig};
use da_server::dispatch::dispatch;
use da_server::plan::{build_route_plans, is_consumer, is_producer};
use da_server::validate;
use da_server::vdevice::HwBinding;
use proptest::prelude::*;

/// One topology mutation (or a simulated engine tick's cache refresh).
/// Slots index small fixed id spaces; many combinations are rejected by
/// dispatch (bad ports, cycles, duplicate ids) which is fine — errors
/// leave the topology unchanged.
#[derive(Debug, Clone)]
enum Op {
    CreateVDev { slot: u8, class: u8, loud: u8 },
    DestroyVDev { slot: u8 },
    CreateWire { slot: u8, src: u8, sport: u8, dst: u8, dport: u8 },
    DestroyWire { slot: u8 },
    /// Destroy a device, let a tick reclaim its slot, and create it
    /// again under the same id: the next assignment reuses the slot.
    Recreate { slot: u8, class: u8, loud: u8 },
    Map { loud: u8 },
    Unmap { loud: u8 },
    Raise { loud: u8 },
    /// An engine tick: refresh the cache if the generation moved.
    Sync,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..8, 0u8..8, 0u8..2)
            .prop_map(|(slot, class, loud)| Op::CreateVDev { slot, class, loud }),
        1 => (0u8..8).prop_map(|slot| Op::DestroyVDev { slot }),
        4 => (0u8..12, 0u8..8, 0u8..2, 0u8..8, 0u8..3)
            .prop_map(|(slot, src, sport, dst, dport)| Op::CreateWire {
                slot,
                src,
                sport,
                dst,
                dport,
            }),
        1 => (0u8..12).prop_map(|slot| Op::DestroyWire { slot }),
        2 => (0u8..8, 0u8..8, 0u8..2)
            .prop_map(|(slot, class, loud)| Op::Recreate { slot, class, loud }),
        2 => (0u8..2).prop_map(|loud| Op::Map { loud }),
        1 => (0u8..2).prop_map(|loud| Op::Unmap { loud }),
        1 => (0u8..2).prop_map(|loud| Op::Raise { loud }),
        2 => Just(Op::Sync),
    ]
}

/// Software classes plus the hardware-bound producers and consumers, so
/// the cache's producer/consumer split sees binding changes.
fn class_of(idx: u8) -> DeviceClass {
    match idx % 8 {
        0 => DeviceClass::Mixer,
        1 => DeviceClass::Crossbar,
        2 => DeviceClass::Dsp,
        3 => DeviceClass::Player,
        4 => DeviceClass::Recorder,
        5 => DeviceClass::Output,
        6 => DeviceClass::Input,
        _ => DeviceClass::Telephone,
    }
}

/// An engine tick's plan refresh: the core's own data plane, detached
/// for the rebuild exactly as the tick detaches it.
fn refresh(core: &mut Core) {
    let mut plane = std::mem::take(&mut core.plane);
    plane.ensure_fresh(core);
    core.plane = plane;
}

fn create(id: VDeviceId, loud: LoudId, class: u8) -> Request {
    Request::CreateVDevice { id, loud, class: class_of(class), attrs: Vec::new() }
}

proptest! {
    #[test]
    fn cached_plan_matches_fresh_recompute(ops in prop::collection::vec(arb_op(), 0..48)) {
        let mut core = Core::new(ServerConfig::default());
        let (tx, _rx) = unbounded();
        let (client, base, _mask) = core.add_client("prop".into(), tx);
        let loud_id = |l: u8| LoudId(base + 1 + l as u32);
        let vdev_id = |s: u8| VDeviceId(base + 0x10 + s as u32);
        let wire_id = |s: u8| WireId(base + 0x100 + s as u32);
        dispatch(&mut core, client, 0, Request::CreateLoud { id: loud_id(0), parent: None });
        dispatch(&mut core, client, 0, Request::CreateLoud { id: loud_id(1), parent: None });

        refresh(&mut core);

        for op in ops {
            match op {
                Op::CreateVDev { slot, class, loud } => {
                    dispatch(&mut core, client, 0, create(vdev_id(slot), loud_id(loud), class))
                }
                Op::Recreate { slot, class, loud } => {
                    dispatch(&mut core, client, 0, Request::DestroyVDevice { id: vdev_id(slot) });
                    refresh(&mut core);
                    dispatch(&mut core, client, 0, create(vdev_id(slot), loud_id(loud), class));
                }
                Op::DestroyVDev { slot } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::DestroyVDevice { id: vdev_id(slot) },
                ),
                Op::CreateWire { slot, src, sport, dst, dport } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::CreateWire {
                        id: wire_id(slot),
                        src: vdev_id(src),
                        src_port: sport,
                        dst: vdev_id(dst),
                        dst_port: dport,
                        wire_type: WireType::Any,
                    },
                ),
                Op::DestroyWire { slot } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::DestroyWire { id: wire_id(slot) },
                ),
                Op::Map { loud } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::MapLoud { id: loud_id(loud) },
                ),
                Op::Unmap { loud } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::UnmapLoud { id: loud_id(loud) },
                ),
                Op::Raise { loud } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::RaiseLoud { id: loud_id(loud) },
                ),
                Op::Sync => refresh(&mut core),
            }
        }

        // The next tick's refresh: a no-op unless the generation moved,
        // so a mutation path that forgot to invalidate leaves the cache
        // stale and the assertions below catch it.
        refresh(&mut core);

        let cache = &core.plane.plans;
        let expected_roots: Vec<u32> = core
            .active_stack
            .iter()
            .copied()
            .filter(|r| core.louds.get(r).map(|l| l.active) == Some(true))
            .collect();
        let cached_roots: Vec<u32> = cache.active_roots.iter().map(|r| r.root).collect();
        prop_assert_eq!(&cached_roots, &expected_roots);
        for r in &cache.active_roots {
            prop_assert_eq!(Some(r.slot), core.louds.get(&r.root).and_then(|l| l.slot));
        }
        prop_assert_eq!(&cache.routes, &build_route_plans(&core, &expected_roots));
        let binding = |v: &da_server::vdevice::VDev| core.dev_slot(v).and_then(|d| d.binding);
        let bound = |keep: fn(DeviceClass) -> bool| {
            let mut ids: Vec<(u32, u32)> = core
                .vdevs
                .values()
                .filter(|v| binding(v).is_some() && keep(v.class))
                .filter(|v| core.louds.get(&v.root).map(|l| l.active) == Some(true))
                .map(|v| (v.id.0, v.slot.expect("a refreshed device has a slot")))
                .collect();
            ids.sort_unstable();
            ids.into_iter().map(|(_, slot)| slot).collect::<Vec<u32>>()
        };
        prop_assert_eq!(&cache.producers, &bound(is_producer));
        prop_assert_eq!(&cache.consumers, &bound(is_consumer));
        for (i, &(_, line)) in cache.line_slots.iter().enumerate() {
            let mut bound: Vec<u32> = core
                .vdevs
                .values()
                .filter(|v| binding(v) == Some(HwBinding::Line(line)))
                .map(|v| v.id.0)
                .collect();
            bound.sort_unstable();
            prop_assert_eq!(&cache.line_bound[i], &bound);
        }
        // The slab is a fresh resolve: every planned id maps to the slot
        // holding its state, with no dangling or duplicate slots.
        let v10: Vec<_> =
            validate::check_all(&core).into_iter().filter(|v| v.invariant == "V10").collect();
        prop_assert!(v10.is_empty(), "{:?}", v10);
    }

    // The plan computation itself is deterministic: recomputing from the
    // same topology yields an identical plan (HashMap iteration order
    // must not leak into the result).
    #[test]
    fn plan_computation_is_deterministic(ops in prop::collection::vec(arb_op(), 0..32)) {
        let mut core = Core::new(ServerConfig::default());
        let (tx, _rx) = unbounded();
        let (client, base, _mask) = core.add_client("prop".into(), tx);
        let loud_id = |l: u8| LoudId(base + 1 + l as u32);
        dispatch(&mut core, client, 0, Request::CreateLoud { id: loud_id(0), parent: None });
        dispatch(&mut core, client, 0, Request::CreateLoud { id: loud_id(1), parent: None });
        for op in ops {
            match op {
                Op::CreateVDev { slot, class, loud } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::CreateVDevice {
                        id: VDeviceId(base + 0x10 + slot as u32),
                        loud: loud_id(loud),
                        class: class_of(class),
                        attrs: Vec::new(),
                    },
                ),
                Op::CreateWire { slot, src, sport, dst, dport } => dispatch(
                    &mut core,
                    client,
                    0,
                    Request::CreateWire {
                        id: WireId(base + 0x100 + slot as u32),
                        src: VDeviceId(base + 0x10 + src as u32),
                        src_port: sport,
                        dst: VDeviceId(base + 0x10 + dst as u32),
                        dst_port: dport,
                        wire_type: WireType::Any,
                    },
                ),
                _ => {}
            }
        }
        let roots = [loud_id(0).0, loud_id(1).0];
        let a = build_route_plans(&core, &roots);
        let b = build_route_plans(&core, &roots);
        prop_assert_eq!(&a, &b);
        for (plan, &root) in a.iter().zip(&roots) {
            // Every tree device appears exactly once in its tree's order.
            let mut vdevs = core.tree_vdevs(root);
            vdevs.sort_unstable();
            let mut planned: Vec<u32> = plan.order.iter().map(|d| d.vid).collect();
            planned.sort_unstable();
            prop_assert_eq!(planned, vdevs);
        }
    }
}
