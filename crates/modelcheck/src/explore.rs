//! Bounded explicit-state exploration (TLC-style) of the server model.
//!
//! The checker enumerates action sequences breadth-first from each seed
//! topology. [`Core`] is deliberately not `Clone` (it owns hardware and
//! channel state), so a state is *identified* by its canonical
//! [`fingerprint`] and *reconstructed* by replaying its trace from the
//! seed — sound because dispatch and the engine are deterministic
//! (virtual pacing, no wall-clock in the model path).
//!
//! The oracle, run after every transition:
//!
//! - every structural invariant of [`da_server::validate`] (V1–V15);
//! - **T1 (frozen queues, paper §5.5)**: a queue that was not `Started`
//!   before an engine tick is byte-identical after it — state,
//!   queue-relative time, pending depth and entry cursor all unchanged
//!   ("when a queue is paused, command queue relative time is
//!   suspended"; a stopped queue is equally inert).
//!
//! `CoBegin` depth returning to zero on drain and the active stack never
//! referencing a destroyed root are structural (V12 and V5/V11) and so
//! are re-checked on *every* action, not just ticks.
//!
//! A violating trace is shrunk by greedy single-deletion to a local
//! minimum and pretty-printed as a replayable regression test.

use crate::world::{Action, Seed, World};
use da_proto::codec::WireWrite;
use da_proto::types::QueueState;
use da_server::core::Core;
use da_server::queue::{CmdState, QNode, RunNode};
use da_server::validate;
use std::collections::{HashSet, VecDeque};
use std::fmt;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Canonical state fingerprint
// ---------------------------------------------------------------------------

/// FNV-1a accumulator over a canonical serialization of the state
/// vector.
struct Fp(u64);

impl Fp {
    fn new() -> Fp {
        Fp(0xcbf2_9ce4_8422_2325)
    }

    fn u8(&mut self, b: u8) {
        self.0 ^= u64::from(b);
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    fn bytes(&mut self, bs: &[u8]) {
        self.u32(bs.len() as u32);
        for &b in bs {
            self.u8(b);
        }
    }
}

fn queue_state_tag(s: QueueState) -> u8 {
    match s {
        QueueState::Started => 0,
        QueueState::Stopped => 1,
        QueueState::ClientPaused => 2,
        QueueState::ServerPaused => 3,
    }
}

fn hash_qnode(fp: &mut Fp, n: &QNode) {
    match n {
        QNode::Cmd { vdev, cmd, .. } => {
            // The lifetime `index` is monotonic bookkeeping, not state:
            // including it would make logically identical queues hash
            // apart after any earlier traffic.
            fp.u8(0);
            fp.u32(vdev.0);
            fp.bytes(&cmd.to_wire());
        }
        QNode::Par(children) => {
            fp.u8(1);
            fp.u32(children.len() as u32);
            for c in children {
                hash_qnode(fp, c);
            }
        }
        QNode::DelaySeg { ms, body } => {
            fp.u8(2);
            fp.u32(*ms);
            fp.u32(body.len() as u32);
            for c in body {
                hash_qnode(fp, c);
            }
        }
    }
}

fn hash_runnode(fp: &mut Fp, n: &RunNode) {
    match n {
        RunNode::Cmd { vdev, cmd, state, .. } => {
            fp.u8(0);
            fp.u32(vdev.0);
            fp.bytes(&cmd.to_wire());
            fp.u8(match state {
                CmdState::Waiting => 0,
                CmdState::Running => 1,
                CmdState::Done => 2,
            });
        }
        RunNode::Par { children } => {
            fp.u8(1);
            fp.u32(children.len() as u32);
            for c in children {
                hash_runnode(fp, c);
            }
        }
        RunNode::Delay { remaining, body, current } => {
            fp.u8(2);
            // The countdown itself is a monotone counter; only its
            // exhaustion changes what the engine will do next.
            fp.u8(u8::from(*remaining == 0));
            fp.u32(body.len() as u32);
            for c in body {
                hash_qnode(fp, c);
            }
            fp.u8(u8::from(current.is_some()));
            if let Some(c) = current {
                hash_runnode(fp, c);
            }
        }
    }
}

/// Canonical 64-bit fingerprint of the protocol-visible state vector.
///
/// Includes: LOUD forest shape, queue contents and state, virtual
/// devices (class, attributes, bindings, gain, pause/op flags), wires,
/// the active stack and manager worklists. Excludes every unbounded
/// monotone counter (`device_time`, `tick_index`, queue entry cursors,
/// telemetry) — with those included no two ticks would ever dedup and
/// bounded exploration would degenerate into a random walk.
pub fn fingerprint(core: &Core) -> u64 {
    let mut fp = Fp::new();

    let mut client_ids: Vec<u32> = core.clients.keys().copied().collect();
    client_ids.sort_unstable();
    fp.u32(client_ids.len() as u32);
    for id in client_ids {
        fp.u32(id);
        fp.u32(core.clients[&id].selections.len() as u32);
    }

    let mut loud_ids: Vec<u32> = core.louds.keys().copied().collect();
    loud_ids.sort_unstable();
    fp.u32(loud_ids.len() as u32);
    for id in loud_ids {
        let l = &core.louds[&id];
        fp.u32(id);
        fp.u32(l.parent.unwrap_or(0));
        let mut kids = l.children.clone();
        kids.sort_unstable();
        for k in kids {
            fp.u32(k);
        }
        fp.u8(u8::from(l.mapped));
        fp.u8(u8::from(l.active));
        match &l.queue {
            None => fp.u8(0),
            Some(q) => {
                fp.u8(1);
                fp.u8(queue_state_tag(q.state()));
                fp.u32(q.pending.len() as u32);
                for n in &q.pending {
                    hash_qnode(&mut fp, n);
                }
                fp.u32(q.raw_entries().len() as u32);
                for e in q.raw_entries() {
                    fp.bytes(&e.to_wire());
                }
                let running = core.running(l.id.0);
                fp.u8(u8::from(running.is_some()));
                if let Some(r) = running {
                    hash_runnode(&mut fp, r);
                }
                fp.u32(q.open_depth());
            }
        }
    }

    let mut vdev_ids: Vec<u32> = core.vdevs.keys().copied().collect();
    vdev_ids.sort_unstable();
    fp.u32(vdev_ids.len() as u32);
    for id in vdev_ids {
        let v = &core.vdevs[&id];
        fp.u32(id);
        fp.u32(v.loud);
        fp.u32(v.root);
        fp.bytes(&v.class.to_wire());
        fp.u32(v.attrs.len() as u32);
        for a in &v.attrs {
            fp.bytes(&a.to_wire());
        }
        // A device with no slot yet has a fresh slot's streaming state.
        let d = core.dev_slot(v);
        fp.u32(d.map_or(da_dsp::gain::UNITY, |d| d.gain_milli));
        match d.and_then(|d| d.binding) {
            None => fp.u8(0),
            Some(da_server::vdevice::HwBinding::Speaker(i)) => {
                fp.u8(1);
                fp.u32(i as u32);
            }
            Some(da_server::vdevice::HwBinding::Microphone(i)) => {
                fp.u8(2);
                fp.u32(i as u32);
            }
            Some(da_server::vdevice::HwBinding::Line(_)) => fp.u8(3),
            Some(da_server::vdevice::HwBinding::Software) => fp.u8(4),
        }
        fp.u32(core.device_rate(v));
        fp.u32(v.sync_interval);
        fp.u8(u8::from(d.is_some_and(|d| d.paused)));
        fp.u8(u8::from(d.is_some_and(|d| d.op.is_some())));
    }

    let mut wire_ids: Vec<u32> = core.wires.keys().copied().collect();
    wire_ids.sort_unstable();
    fp.u32(wire_ids.len() as u32);
    for id in wire_ids {
        let w = &core.wires[&id];
        fp.u32(id);
        fp.u32(w.src.0);
        fp.u8(w.src_port);
        fp.u32(w.dst.0);
        fp.u8(w.dst_port);
        fp.bytes(&w.wire_type.to_wire());
    }

    fp.u32(core.sounds.len() as u32);
    fp.u32(core.active_stack.len() as u32);
    for &r in &core.active_stack {
        fp.u32(r);
    }
    for list in [&core.pending_maps, &core.pending_raises] {
        fp.u32(list.len() as u32);
        for &r in list {
            fp.u32(r);
        }
    }
    fp.u32(core.redirect_client.unwrap_or(0));
    fp.0
}

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// One violated invariant, structural or temporal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Breach {
    /// Catalog identifier: `V1`..`V13` (structural, DESIGN.md §9) or
    /// `T1` (temporal, DESIGN.md §11).
    pub invariant: String,
    /// What exactly went wrong.
    pub detail: String,
}

impl fmt::Display for Breach {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// A deliberately broken engine, for proving the checker catches real
/// bugs (the "comment out a guard" fixture of the self-tests and CI
/// smoke run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The engine behaves as written.
    None,
    /// Simulates losing the §5.5 guard that exempts non-`Started` queues
    /// from stepping: after every tick, each `ServerPaused` queue is
    /// advanced (relative time bumped, a pending node consumed) exactly
    /// as if the engine had stepped it. Violates T1 and nothing
    /// structural.
    AdvanceServerPaused,
}

/// Applies one action *without* oracle checks (prefix replay), injecting
/// the fault after ticks so faulted replays reproduce faulted runs.
fn replay_action(w: &mut World, action: Action, fault: Fault) {
    w.apply(action);
    if action == Action::Tick && fault == Fault::AdvanceServerPaused {
        for l in w.core.louds.values_mut() {
            if let Some(q) = &mut l.queue {
                if q.state() == QueueState::ServerPaused {
                    q.relative_frames += 80;
                    q.pending.pop_front();
                }
            }
        }
    }
}

/// Applies one action and runs the full oracle, returning every breach.
fn apply_checked(w: &mut World, action: Action, fault: Fault) -> Vec<Breach> {
    let pre = if action == Action::Tick { Some(w.queue_snapshot()) } else { None };
    replay_action(w, action, fault);
    let mut out: Vec<Breach> = validate::check_all(&w.core)
        .into_iter()
        .map(|v| Breach { invariant: v.invariant.to_string(), detail: v.detail })
        .collect();
    if let Some(pre) = pre {
        let post = w.queue_snapshot();
        for &(root, state, rel, pending, cursor) in &pre {
            if state == QueueState::Started {
                continue;
            }
            match post.iter().find(|p| p.0 == root) {
                None => out.push(Breach {
                    invariant: "T1".into(),
                    detail: format!("queue of root {root} vanished during a tick"),
                }),
                Some(&(_, s2, rel2, pending2, cursor2)) => {
                    if (s2, rel2, pending2, cursor2) != (state, rel, pending, cursor) {
                        out.push(Breach {
                            invariant: "T1".into(),
                            detail: format!(
                                "{state:?} queue of root {root} advanced during a tick: \
                                 state {state:?}->{s2:?}, relative_frames {rel}->{rel2}, \
                                 pending {pending}->{pending2}, cursor {cursor}->{cursor2}"
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// Replays a trace from a seed with the full oracle at every step.
///
/// Returns the final world and the first step's breaches, if any (the
/// step index is in [`TraceBreach`]). Regression tests pin a
/// counterexample by asserting on the returned breaches.
pub fn replay(seed: Seed, fault: Fault, trace: &[Action]) -> (World, Option<TraceBreach>) {
    let mut w = World::new(seed);
    for (i, &a) in trace.iter().enumerate() {
        let breaches = apply_checked(&mut w, a, fault);
        if !breaches.is_empty() {
            return (w, Some(TraceBreach { step: i, breaches }));
        }
    }
    (w, None)
}

/// The first violating step of a replayed trace.
#[derive(Debug, Clone)]
pub struct TraceBreach {
    /// Index into the trace of the violating action.
    pub step: usize,
    /// Everything the oracle reported after that action.
    pub breaches: Vec<Breach>,
}

// ---------------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------------

/// Exploration budgets and fixtures.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seeds to explore (each gets an equal share of `max_states`).
    pub seeds: Vec<Seed>,
    /// Maximum trace length.
    pub max_depth: usize,
    /// Total deduplicated-state budget across all seeds.
    pub max_states: usize,
    /// Fault injection (CI runs `Fault::None`; the self-test proves the
    /// broken fixture is caught).
    pub fault: Fault,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            seeds: Seed::ALL.to_vec(),
            max_depth: 64,
            max_states: 50_000,
            fault: Fault::None,
        }
    }
}

/// A minimized violating trace, ready to print or replay.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Seed topology the trace starts from.
    pub seed: Seed,
    /// Identifier of the violated invariant.
    pub invariant: String,
    /// Violation detail from the oracle.
    pub detail: String,
    /// Minimized action sequence.
    pub trace: Vec<Action>,
}

impl Counterexample {
    /// Renders the counterexample as a human-readable report whose tail
    /// is a paste-ready regression test.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "counterexample in seed `{}` — violates {}\n  {}\n\ntrace ({} actions):\n",
            self.seed.name(),
            self.invariant,
            self.detail,
            self.trace.len()
        ));
        for (i, a) in self.trace.iter().enumerate() {
            s.push_str(&format!("  {:>3}. {a:?}\n", i + 1));
        }
        s.push_str("\nreplay as a test:\n");
        s.push_str("    use da_modelcheck::{explore, Action, Fault, Root, Seed};\n");
        s.push_str(&format!(
            "    let (_, breach) = explore::replay(Seed::{:?}, Fault::None, &[\n",
            self.seed
        ));
        for a in &self.trace {
            s.push_str(&format!("        Action::{a:?},\n"));
        }
        s.push_str("    ]);\n");
        s.push_str(&format!(
            "    assert!(breach.is_some(), \"expected a {} violation\");\n",
            self.invariant
        ));
        s
    }
}

/// Per-seed exploration statistics.
#[derive(Debug, Clone)]
pub struct SeedRun {
    /// The seed explored.
    pub seed: Seed,
    /// Deduplicated states visited (including the seed state).
    pub states: usize,
    /// Transitions expanded with the full oracle.
    pub transitions: u64,
    /// Total actions applied, including prefix replays (the real work
    /// figure for throughput).
    pub replayed_actions: u64,
    /// Deepest trace expanded.
    pub depth_reached: usize,
    /// First violation found, minimized. Exploration of this seed stops
    /// at the first violation.
    pub counterexample: Option<Counterexample>,
}

/// Aggregate result of [`explore`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-seed breakdown.
    pub seeds: Vec<SeedRun>,
    /// Wall time of the whole exploration.
    pub elapsed: Duration,
}

impl Report {
    /// Total deduplicated states across seeds.
    pub fn states(&self) -> usize {
        self.seeds.iter().map(|s| s.states).sum()
    }

    /// Total oracle-checked transitions.
    pub fn transitions(&self) -> u64 {
        self.seeds.iter().map(|s| s.transitions).sum()
    }

    /// Total applied actions including replays.
    pub fn replayed_actions(&self) -> u64 {
        self.seeds.iter().map(|s| s.replayed_actions).sum()
    }

    /// All counterexamples (at most one per seed).
    pub fn counterexamples(&self) -> Vec<&Counterexample> {
        self.seeds.iter().filter_map(|s| s.counterexample.as_ref()).collect()
    }

    /// States per second of wall time.
    pub fn states_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.states() as f64 / secs
        } else {
            0.0
        }
    }
}

/// Runs bounded BFS exploration over every seed in the config.
pub fn explore(cfg: &Config) -> Report {
    let started = Instant::now();
    let per_seed = cfg.max_states.div_ceil(cfg.seeds.len().max(1)).max(1);
    let seeds = cfg
        .seeds
        .iter()
        .map(|&seed| explore_seed(seed, per_seed, cfg.max_depth, cfg.fault))
        .collect();
    Report { seeds, elapsed: started.elapsed() }
}

fn explore_seed(seed: Seed, max_states: usize, max_depth: usize, fault: Fault) -> SeedRun {
    let alphabet = World::alphabet(seed);
    let mut run = SeedRun {
        seed,
        states: 0,
        transitions: 0,
        replayed_actions: 0,
        depth_reached: 0,
        counterexample: None,
    };

    let mut visited: HashSet<u64> = HashSet::new();
    let mut frontier: VecDeque<Vec<Action>> = VecDeque::new();
    let root = World::new(seed);
    visited.insert(fingerprint(&root.core));
    run.states = 1;
    frontier.push_back(Vec::new());

    'search: while let Some(trace) = frontier.pop_front() {
        if trace.len() >= max_depth {
            continue;
        }
        for &action in &alphabet {
            if run.states >= max_states {
                break 'search;
            }
            // Rebuild the predecessor by replay (Core is not Clone), then
            // take the candidate transition under the full oracle.
            let mut w = World::new(seed);
            for &p in &trace {
                replay_action(&mut w, p, fault);
            }
            run.replayed_actions += trace.len() as u64 + 1;
            let breaches = apply_checked(&mut w, action, fault);
            run.transitions += 1;
            if let Some(b) = breaches.first() {
                let mut full = trace.clone();
                full.push(action);
                let minimized = minimize(seed, fault, full, &b.invariant);
                let (_, tb) = replay(seed, fault, &minimized);
                let detail = tb
                    .and_then(|t| t.breaches.into_iter().next())
                    .map_or_else(|| b.detail.clone(), |b| b.detail);
                run.counterexample = Some(Counterexample {
                    seed,
                    invariant: b.invariant.clone(),
                    detail,
                    trace: minimized,
                });
                break 'search;
            }
            let h = fingerprint(&w.core);
            if visited.insert(h) {
                run.states += 1;
                let mut next = trace.clone();
                next.push(action);
                run.depth_reached = run.depth_reached.max(next.len());
                frontier.push_back(next);
            }
        }
    }
    run
}

/// Greedy single-deletion shrinking: drop any action whose removal
/// preserves a violation of the same invariant, until no single deletion
/// does. Also truncates past the first violating step.
fn minimize(seed: Seed, fault: Fault, mut trace: Vec<Action>, invariant: &str) -> Vec<Action> {
    let violates = |t: &[Action]| -> Option<usize> {
        let (_, tb) = replay(seed, fault, t);
        let tb = tb?;
        tb.breaches.iter().any(|b| b.invariant == invariant).then_some(tb.step)
    };
    if let Some(step) = violates(&trace) {
        trace.truncate(step + 1);
    }
    loop {
        let mut improved = false;
        for i in 0..trace.len() {
            let mut cand = trace.clone();
            cand.remove(i);
            if let Some(step) = violates(&cand) {
                cand.truncate(step + 1);
                trace = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return trace;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Root;

    #[test]
    fn small_clean_exploration_finds_no_violations() {
        let report = explore(&Config {
            seeds: vec![Seed::Solo],
            max_depth: 8,
            max_states: 300,
            fault: Fault::None,
        });
        assert!(report.counterexamples().is_empty(), "{:?}", report.counterexamples());
        assert_eq!(report.states(), 300, "state space exhausted before the budget");
        assert!(report.transitions() >= 300);
    }

    #[test]
    fn fingerprint_distinguishes_queue_states_but_not_tick_count() {
        let mut a = World::new(Seed::Solo);
        let mut b = World::new(Seed::Solo);
        assert_eq!(fingerprint(&a.core), fingerprint(&b.core));
        // Ticking an idle world moves only monotone counters.
        b.apply(Action::Tick);
        assert_eq!(fingerprint(&a.core), fingerprint(&b.core));
        // A queue-state change is visible.
        a.apply(Action::Start(Root::A));
        assert_ne!(fingerprint(&a.core), fingerprint(&b.core));
    }

    /// The acceptance fixture: a deliberately broken engine (the §5.5
    /// "don't step non-Started queues" guard gone) must produce a
    /// minimized, human-readable counterexample.
    #[test]
    fn broken_fixture_yields_minimized_counterexample() {
        let report = explore(&Config {
            seeds: vec![Seed::Solo],
            max_depth: 6,
            max_states: 10_000,
            fault: Fault::AdvanceServerPaused,
        });
        let cxs = report.counterexamples();
        assert_eq!(cxs.len(), 1, "fault not detected");
        let cx = cxs[0];
        assert_eq!(cx.invariant, "T1");
        // BFS finds a shortest trace; the known minimum is
        // Start, Unmap (server pause), Tick (faulty advance).
        assert_eq!(
            cx.trace,
            vec![Action::Start(Root::A), Action::Unmap(Root::A), Action::Tick],
            "not minimal: {:?}",
            cx.trace
        );
        let rendered = cx.render();
        assert!(rendered.contains("violates T1"), "{rendered}");
        assert!(rendered.contains("Action::Tick"), "{rendered}");
        assert!(rendered.contains("explore::replay(Seed::Solo"), "{rendered}");
    }

    /// Shrinking strips actions that do not contribute to the breach.
    #[test]
    fn minimization_removes_irrelevant_actions() {
        let bloated = vec![
            Action::EnqueuePlay(Root::A),
            Action::Start(Root::A),
            Action::Flush(Root::A),
            Action::Raise(Root::A),
            Action::Unmap(Root::A),
            Action::Tick,
            Action::Tick,
        ];
        let minimized =
            minimize(Seed::Solo, Fault::AdvanceServerPaused, bloated, "T1");
        assert_eq!(
            minimized,
            vec![Action::Start(Root::A), Action::Unmap(Root::A), Action::Tick]
        );
    }

    #[test]
    fn replay_reports_clean_traces_as_clean() {
        let (_, breach) = replay(
            Seed::Solo,
            Fault::None,
            &[Action::Start(Root::A), Action::Unmap(Root::A), Action::Tick],
        );
        assert!(breach.is_none(), "{breach:?}");
    }
}
