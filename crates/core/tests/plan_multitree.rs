//! Hand-built multi-tree fixture for the one-pass plan builder: three
//! mapped roots whose wire ids interleave across trees, a fan-out port,
//! a mixer fed at two topological levels, and an unmapped root that
//! still has wires. Every active root's plan is asserted exactly, which
//! pins the per-tree bucketing of devices and edges (the property tests
//! only pin cache freshness).

use crossbeam::channel::unbounded;
use da_proto::ids::{LoudId, VDeviceId, WireId};
use da_proto::request::Request;
use da_proto::types::{DeviceClass, WireType};
use da_server::core::{Core, ServerConfig, ServerMsg};
use da_server::dispatch::dispatch;
use da_server::plan::{build_route_plans, PlanDevice, PlanPort, PlanWire, RoutePlan, NO_SLOT};

/// The slot a device's owner names (`NO_SLOT` before any plan build).
fn dev_slot(core: &Core, vid: u32) -> u32 {
    core.vdevs.get(&vid).and_then(|v| v.slot).unwrap_or(NO_SLOT)
}

fn port(core: &Core, port: u8, wires: &[(u32, u32, u8)]) -> PlanPort {
    PlanPort {
        port,
        wires: wires
            .iter()
            .map(|&(wire, dst, dst_port)| PlanWire {
                wire,
                slot: core.wires.get(&wire).and_then(|w| w.slot).unwrap_or(NO_SLOT),
                dst,
                dst_slot: dev_slot(core, dst),
                dst_port,
            })
            .collect(),
    }
}

fn device(core: &Core, vid: u32, ports: Vec<PlanPort>) -> PlanDevice {
    PlanDevice { vid, slot: dev_slot(core, vid), ports }
}

#[test]
fn one_pass_builder_buckets_interleaved_trees_exactly() {
    let mut core = Core::new(ServerConfig::default());
    let (tx, rx) = unbounded();
    let (client, base, _mask) = core.add_client("fixture".into(), tx);
    let loud = |n: u32| base + n;
    let dev = |n: u32| base + 0x10 + n;
    let wire = |n: u32| base + 0x100 + n;
    let mut reqs = Vec::new();

    // Roots A, B, C (mapped) and D (never mapped); B has a child LOUD.
    for (id, parent) in [(1, None), (2, None), (3, None), (4, None), (5, Some(2))] {
        reqs.push(Request::CreateLoud {
            id: LoudId(loud(id)),
            parent: parent.map(|p| LoudId(loud(p))),
        });
    }
    let devices = [
        // A: player fans out to a DSP and a mixer; the DSP feeds the
        // mixer's second sink, so the mixer sits one level below both.
        (0x00, 1, DeviceClass::Player),
        (0x01, 1, DeviceClass::Mixer),
        (0x02, 1, DeviceClass::Dsp),
        (0x03, 1, DeviceClass::Recorder),
        // B: the DSP lives in B's child LOUD.
        (0x10, 2, DeviceClass::Player),
        (0x11, 2, DeviceClass::Recorder),
        (0x12, 5, DeviceClass::Dsp),
        // C: one wired pair and one unwired mixer.
        (0x20, 3, DeviceClass::Player),
        (0x21, 3, DeviceClass::Recorder),
        (0x22, 3, DeviceClass::Mixer),
        // D: unmapped, but wired.
        (0x30, 4, DeviceClass::Player),
        (0x31, 4, DeviceClass::Recorder),
        (0x32, 4, DeviceClass::Mixer),
    ];
    for (n, l, class) in devices {
        reqs.push(Request::CreateVDevice {
            id: VDeviceId(dev(n)),
            loud: LoudId(loud(l)),
            class,
            attrs: Vec::new(),
        });
    }
    // Wire ids interleave across the four trees.
    let wires = [
        (1, 0x00, 0, 0x02, 0),  // A: fan-out, first by wire id
        (2, 0x10, 0, 0x12, 0),  // B
        (3, 0x20, 0, 0x21, 0),  // C
        (4, 0x00, 0, 0x01, 0),  // A: fan-out, second by wire id
        (5, 0x12, 0, 0x11, 0),  // B
        (6, 0x30, 0, 0x31, 0),  // D
        (7, 0x02, 0, 0x01, 1),  // A
        (9, 0x30, 0, 0x32, 1),  // D
        (10, 0x01, 0, 0x03, 0), // A
    ];
    for (w, src, src_port, dst, dst_port) in wires {
        reqs.push(Request::CreateWire {
            id: WireId(wire(w)),
            src: VDeviceId(dev(src)),
            src_port,
            dst: VDeviceId(dev(dst)),
            dst_port,
            wire_type: WireType::Any,
        });
    }
    for l in [1, 2, 3] {
        reqs.push(Request::MapLoud {
            id: LoudId(loud(l)),
        });
    }
    for (seq, req) in reqs.into_iter().enumerate() {
        dispatch(&mut core, client, seq as u32, req);
    }
    let errors: Vec<ServerMsg> = std::iter::from_fn(|| rx.try_recv().ok())
        .filter(|m| matches!(m, ServerMsg::Error(..)))
        .collect();
    assert!(errors.is_empty(), "fixture set-up failed: {errors:?}");

    // An engine tick's plan refresh, with the data plane detached as the
    // tick detaches it.
    let mut plane = std::mem::take(&mut core.plane);
    plane.ensure_fresh(&mut core);
    core.plane = plane;
    let core = &core;
    let cache = &core.plane.plans;
    let active: Vec<u32> = cache.active_roots.iter().map(|r| r.root).collect();
    let mut roots = active.clone();
    roots.sort_unstable();
    assert_eq!(
        roots,
        vec![loud(1), loud(2), loud(3)],
        "unmapped root D must not be active"
    );
    assert_eq!(cache.routes.len(), cache.active_roots.len());

    let expected = |root: u32| -> RoutePlan {
        let order = if root == loud(1) {
            vec![
                device(
                    core,
                    dev(0x00),
                    vec![port(core, 0, &[(wire(1), dev(0x02), 0), (wire(4), dev(0x01), 0)])],
                ),
                device(core, dev(0x02), vec![port(core, 0, &[(wire(7), dev(0x01), 1)])]),
                device(core, dev(0x01), vec![port(core, 0, &[(wire(10), dev(0x03), 0)])]),
                device(core, dev(0x03), vec![]),
            ]
        } else if root == loud(2) {
            vec![
                device(core, dev(0x10), vec![port(core, 0, &[(wire(2), dev(0x12), 0)])]),
                device(core, dev(0x12), vec![port(core, 0, &[(wire(5), dev(0x11), 0)])]),
                device(core, dev(0x11), vec![]),
            ]
        } else {
            vec![
                device(core, dev(0x20), vec![port(core, 0, &[(wire(3), dev(0x21), 0)])]),
                device(core, dev(0x21), vec![]),
                device(core, dev(0x22), vec![]),
            ]
        };
        RoutePlan { order }
    };
    for (plan, &root) in cache.routes.iter().zip(&active) {
        assert_eq!(plan, &expected(root), "plan for root {root}");
    }

    // No device or edge leaks into another tree's plan, and D's devices
    // and wires appear in no plan at all.
    let tree_of = |vid: u32| match vid - dev(0) {
        0x00..=0x0f => loud(1),
        0x10..=0x1f => loud(2),
        0x20..=0x2f => loud(3),
        _ => loud(4),
    };
    for (plan, &root) in cache.routes.iter().zip(&active) {
        for d in &plan.order {
            assert_eq!(
                tree_of(d.vid),
                root,
                "device {} leaked into root {root}",
                d.vid
            );
            for w in d.ports.iter().flat_map(|p| &p.wires) {
                assert_eq!(
                    tree_of(w.dst),
                    root,
                    "wire {} leaked into root {root}",
                    w.wire
                );
                assert!(
                    w.wire != wire(6) && w.wire != wire(9),
                    "unmapped root's wire planned"
                );
            }
        }
    }

    // A direct build over all four roots still gives D its own plan, so
    // its absence above comes from activation, not from the bucketing.
    let all = build_route_plans(core, &[loud(1), loud(2), loud(3), loud(4)]);
    assert_eq!(
        all[..3],
        [expected(loud(1)), expected(loud(2)), expected(loud(3))]
    );
    assert_eq!(
        all[3],
        RoutePlan {
            order: vec![
                device(
                    core,
                    dev(0x30),
                    vec![port(core, 0, &[(wire(6), dev(0x31), 0), (wire(9), dev(0x32), 1)])]
                ),
                device(core, dev(0x31), vec![]),
                device(core, dev(0x32), vec![]),
            ]
        }
    );
}
