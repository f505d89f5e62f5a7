//! Command queues.
//!
//! Each root LOUD owns a command queue that synchronises the actions of
//! the virtual devices in its tree (paper §5.5). "Queues allow for the
//! sequential processing of commands within the server, without requiring
//! application notification and the associated round-trip communication."
//!
//! Entries arrive as a flat stream ([`da_proto::command::QueueEntry`])
//! possibly split across several `Enqueue` requests; the queue parses
//! complete top-level units — single commands, balanced
//! `CoBegin`/`CoEnd` brackets, balanced `Delay`/`DelayEnd` segments —
//! into [`QNode`] trees. An unbalanced tail stays raw until its closing
//! entry arrives. The four queue states of §5.5 are represented by
//! [`da_proto::types::QueueState`].

use da_proto::command::{DeviceCommand, QueueEntry};
use da_proto::ids::VDeviceId;
use da_proto::types::QueueState;
use std::collections::VecDeque;
use std::marker::PhantomData;

/// A parsed queue node.
#[derive(Debug, Clone, PartialEq)]
pub enum QNode {
    /// One device command.
    Cmd {
        /// Target device.
        vdev: VDeviceId,
        /// The command.
        cmd: DeviceCommand,
        /// Lifetime entry index (for `CommandDone` events).
        index: u32,
    },
    /// A `CoBegin`..`CoEnd` bracket: children start simultaneously; the
    /// bracket completes when all children complete.
    Par(Vec<QNode>),
    /// A `Delay`..`DelayEnd` segment: wait, then run the body
    /// sequentially.
    DelaySeg {
        /// Delay in milliseconds of queue-relative time.
        ms: u32,
        /// Sequential body.
        body: Vec<QNode>,
    },
}

/// Execution state of a started node.
#[derive(Debug)]
pub enum RunNode {
    /// A command in flight.
    Cmd {
        /// Target device.
        vdev: VDeviceId,
        /// The device's data-plane slot, resolved when the command
        /// installs ([`crate::plan::NO_SLOT`] while it waits).
        slot: u32,
        /// The command (kept for restart/abort bookkeeping).
        cmd: DeviceCommand,
        /// Lifetime entry index.
        index: u32,
        /// Progress.
        state: CmdState,
    },
    /// A parallel bracket in flight.
    Par {
        /// Child run states.
        children: Vec<RunNode>,
    },
    /// A delay segment in flight.
    Delay {
        /// Frames of delay left (at the queue's nominal rate).
        remaining: u64,
        /// Unstarted body nodes.
        body: VecDeque<QNode>,
        /// Currently running body node.
        current: Option<Box<RunNode>>,
    },
}

/// Progress of one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmdState {
    /// Waiting for its device to be free.
    Waiting,
    /// Installed on the device and running.
    Running,
    /// Finished.
    Done,
}

impl RunNode {
    /// Whether every command in this subtree has completed.
    pub fn done(&self) -> bool {
        match self {
            RunNode::Cmd { state, .. } => *state == CmdState::Done,
            RunNode::Par { children } => children.iter().all(|c| c.done()),
            RunNode::Delay { remaining, body, current } => {
                *remaining == 0
                    && body.is_empty()
                    && current.as_ref().is_none_or(|c| c.done())
            }
        }
    }

    /// Collects the devices with commands currently running in this
    /// subtree.
    pub fn running_devices(&self, out: &mut Vec<VDeviceId>) {
        match self {
            RunNode::Cmd { vdev, state, .. } => {
                if *state == CmdState::Running {
                    out.push(*vdev); // rt-ok: StopQueue path; scratch vector capacity amortizes across stops
                }
            }
            RunNode::Par { children } => {
                for c in children {
                    c.running_devices(out);
                }
            }
            RunNode::Delay { current, .. } => {
                if let Some(c) = current {
                    c.running_devices(out);
                }
            }
        }
    }
}

/// The per-root-LOUD command queue.
#[derive(Debug)]
pub struct CommandQueue {
    /// Raw entries not yet parseable (unbalanced tail).
    raw: VecDeque<QueueEntry>,
    /// Parsed, unstarted nodes.
    pub pending: VecDeque<QNode>,
    /// One of the four states of paper §5.5. Private: all transitions go
    /// through the typestate API ([`CommandQueue::typed`]) so that only
    /// the legal edges of the §5.5 state machine can be expressed.
    state: QueueState,
    /// Queue-relative time in frames at the nominal 8 kHz rate; suspends
    /// while paused (paper §5.5: "When a queue is paused, command queue
    /// relative time is suspended").
    pub relative_frames: u64,
    /// Next lifetime entry index.
    next_index: u32,
    /// Lifetime count of state transitions (mirrored into telemetry).
    pub transitions: u64,
    /// Lifetime count of entries accepted by `enqueue` (mirrored into
    /// telemetry).
    pub enqueued_entries: u64,
}

impl CommandQueue {
    /// Creates an empty, stopped queue.
    pub fn new() -> Self {
        CommandQueue {
            raw: VecDeque::new(),
            pending: VecDeque::new(),
            state: QueueState::Stopped,
            relative_frames: 0,
            next_index: 0,
            transitions: 0,
            enqueued_entries: 0,
        }
    }

    /// Appends entries and parses any newly completed top-level units.
    pub fn enqueue(&mut self, entries: Vec<QueueEntry>) {
        self.enqueued_entries += entries.len() as u64;
        self.raw.extend(entries);
        self.parse_available();
    }

    /// The current dynamic state (paper §5.5).
    pub fn state(&self) -> QueueState {
        self.state
    }

    /// Borrows the queue as its current typestate. Callers match on the
    /// returned [`TypedQueue`] and can then only invoke the transitions
    /// that are legal from that state — illegal edges (e.g. resuming a
    /// stopped queue) do not exist on the corresponding [`Queue`] type
    /// and fail to compile.
    pub fn typed(&mut self) -> TypedQueue<'_> {
        match self.state {
            QueueState::Stopped => TypedQueue::Stopped(Queue::wrap(self)),
            QueueState::Started => TypedQueue::Started(Queue::wrap(self)),
            QueueState::ClientPaused => TypedQueue::ClientPaused(Queue::wrap(self)),
            QueueState::ServerPaused => TypedQueue::ServerPaused(Queue::wrap(self)),
        }
    }

    /// Number of unstarted parsed nodes plus raw entries.
    pub fn pending_len(&self) -> u32 {
        (self.pending.len() + self.raw.len()) as u32
    }

    /// The raw entries not yet parsed into nodes (an unbalanced bracket
    /// tail), in enqueue order. Read-only: observers such as the model
    /// checker fingerprint queue contents without disturbing the parser.
    pub fn raw_entries(&self) -> impl ExactSizeIterator<Item = &QueueEntry> {
        self.raw.iter()
    }

    /// Lifetime entry cursor: the index the next parsed device command
    /// will receive. Monotonically non-decreasing; a frozen (paused or
    /// stopped) queue must not move it.
    pub fn entry_cursor(&self) -> u32 {
        self.next_index
    }

    /// Number of unmatched `CoBegin`/`Delay` openers in the raw tail.
    ///
    /// The parser consumes balanced units greedily, so all bracket
    /// imbalance lives in `raw`; a drained (idle) queue therefore always
    /// reports depth zero (paper §5.5 brackets).
    pub fn open_depth(&self) -> u32 {
        let mut depth = 0u32;
        for e in &self.raw {
            match e {
                QueueEntry::CoBegin | QueueEntry::Delay { .. } => depth += 1,
                QueueEntry::CoEnd | QueueEntry::DelayEnd => depth = depth.saturating_sub(1),
                QueueEntry::Device { .. } => {}
            }
        }
        depth
    }

    /// Discards everything not yet started (the `FlushQueue` request).
    pub fn flush(&mut self) {
        self.raw.clear();
        self.pending.clear();
    }

    /// Whether nothing is pending. (The node already running, if any,
    /// is engine state in the root's data-plane slot.)
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.raw.is_empty()
    }

    fn parse_available(&mut self) {
        loop { // rt-ok: bounded by raw.len(); each pass pops one entry or breaks
            match self.raw.front() {
                None => break,
                Some(QueueEntry::Device { .. }) => {
                    if let Some(QueueEntry::Device { vdev, cmd }) = self.raw.pop_front() {
                        let index = self.next_index;
                        self.next_index += 1;
                        self.pending.push_back(QNode::Cmd { vdev, cmd, index });
                    }
                }
                Some(QueueEntry::CoBegin) | Some(QueueEntry::Delay { .. }) => {
                    match self.try_parse_bracket() {
                        Some(node) => self.pending.push_back(node),
                        None => break, // unbalanced tail: wait for more
                    }
                }
                Some(QueueEntry::CoEnd) | Some(QueueEntry::DelayEnd) => {
                    // Stray closer with no opener: drop it.
                    self.raw.pop_front();
                }
            }
        }
    }

    /// Attempts to parse one complete bracket from the front of `raw`.
    /// Returns `None` (leaving `raw` untouched) when the bracket is not
    /// yet closed.
    fn try_parse_bracket(&mut self) -> Option<QNode> {
        // First, find the end of the balanced unit without consuming.
        let mut depth = 0usize;
        let mut end = None;
        for (i, e) in self.raw.iter().enumerate() {
            match e {
                QueueEntry::CoBegin | QueueEntry::Delay { .. } => depth += 1,
                QueueEntry::CoEnd | QueueEntry::DelayEnd => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(i);
                        break;
                    }
                }
                QueueEntry::Device { .. } => {}
            }
        }
        let end = end?;
        let unit: Vec<QueueEntry> = self.raw.drain(..=end).collect();
        let mut pos = 0usize;
        
        self.parse_node(&unit, &mut pos)
    }

    fn parse_node(&mut self, entries: &[QueueEntry], pos: &mut usize) -> Option<QNode> {
        // Either closer ends either bracket: the balance scan in
        // `try_parse_bracket` treats them interchangeably, so the
        // recursive parse must too or a mismatched pair (`CoBegin` ...
        // `DelayEnd`) would swallow following commands.
        let is_closer = |e: Option<&QueueEntry>| {
            matches!(e, Some(QueueEntry::CoEnd) | Some(QueueEntry::DelayEnd) | None)
        };
        match entries.get(*pos)? {
            QueueEntry::Device { vdev, cmd } => {
                let n = QNode::Cmd {
                    vdev: *vdev,
                    cmd: cmd.clone(),
                    index: self.next_index,
                };
                self.next_index += 1;
                *pos += 1;
                Some(n)
            }
            QueueEntry::CoBegin => {
                *pos += 1;
                let mut children = Vec::new();
                while !is_closer(entries.get(*pos)) {
                    match self.parse_node(entries, pos) {
                        Some(n) => children.push(n),
                        None => break,
                    }
                }
                if entries.get(*pos).is_some() {
                    *pos += 1; // consume the closer
                }
                Some(QNode::Par(children))
            }
            QueueEntry::Delay { ms } => {
                let ms = *ms;
                *pos += 1;
                let mut body = Vec::new();
                while !is_closer(entries.get(*pos)) {
                    match self.parse_node(entries, pos) {
                        Some(n) => body.push(n),
                        None => break,
                    }
                }
                if entries.get(*pos).is_some() {
                    *pos += 1; // consume the closer
                }
                Some(QNode::DelaySeg { ms, body })
            }
            QueueEntry::CoEnd | QueueEntry::DelayEnd => None,
        }
    }
}

impl Default for CommandQueue {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------------------------------
// Typestate transitions (paper §5.5)
// ---------------------------------------------------------------------------
//
// The four queue states are mirrored as zero-sized marker types so the
// legal-transition matrix is enforced by the compiler inside `core`:
//
//   Stopped      --start-->        Started
//   Started      --client_pause--> ClientPaused
//   Started      --server_pause--> ServerPaused
//   ClientPaused --resume-->       Started
//   ServerPaused --reactivate-->   Started
//   any          --stop-->         Stopped
//
// The dynamic [`QueueState`] enum remains the representation at the wire
// and dispatch boundary; [`CommandQueue::typed`] bridges from it into the
// typed world.

/// Marker: the queue is stopped (paper §5.5 "Stopped").
pub struct Stopped;
/// Marker: the queue is running (paper §5.5 "Started").
pub struct Started;
/// Marker: the client paused the queue with `PauseQueue`.
pub struct ClientPaused;
/// Marker: the server paused the queue because its root LOUD lost
/// activation (unmap or covered on the active stack).
pub struct ServerPaused;

/// A borrow of a [`CommandQueue`] whose state is pinned at type level.
/// Only the transitions legal from `S` are defined, so an illegal edge is
/// a compile error:
///
/// ```compile_fail
/// use da_server::queue::{CommandQueue, TypedQueue};
/// let mut q = CommandQueue::new();
/// if let TypedQueue::Stopped(t) = q.typed() {
///     t.resume(); // ERROR: no `resume` on Queue<'_, Stopped>
/// }
/// ```
///
/// ```compile_fail
/// use da_server::queue::{CommandQueue, TypedQueue};
/// let mut q = CommandQueue::new();
/// if let TypedQueue::ServerPaused(t) = q.typed() {
///     t.start(); // ERROR: a server-paused queue reactivates, it is not started
/// }
/// ```
pub struct Queue<'q, S> {
    q: &'q mut CommandQueue,
    _state: PhantomData<S>,
}

/// The runtime state of a queue lifted into the type system; the entry
/// point for all state transitions.
pub enum TypedQueue<'q> {
    /// The queue is stopped.
    Stopped(Queue<'q, Stopped>),
    /// The queue is running.
    Started(Queue<'q, Started>),
    /// The queue was paused by its owning client.
    ClientPaused(Queue<'q, ClientPaused>),
    /// The queue was paused by the server on deactivation.
    ServerPaused(Queue<'q, ServerPaused>),
}

impl<'q, S> Queue<'q, S> {
    fn wrap(q: &'q mut CommandQueue) -> Self {
        Queue { q, _state: PhantomData }
    }

    fn transition<T>(self, to: QueueState) -> Queue<'q, T> {
        self.q.state = to;
        self.q.transitions += 1;
        Queue { q: self.q, _state: PhantomData }
    }

    /// Stopping is legal from every state (paper §5.5: `StopQueue`
    /// "stops the queue"; the engine also stops a drained or failed
    /// queue regardless of how it was paused).
    pub fn stop(self) -> Queue<'q, Stopped> {
        self.transition(QueueState::Stopped)
    }
}

impl<'q> TypedQueue<'q> {
    /// Stops the queue from whichever state it is in. `StopQueue` and the
    /// engine's drain/error paths are the only transitions legal from all
    /// four states, so they get a convenience that erases the match.
    pub fn stop(self) -> Queue<'q, Stopped> {
        match self {
            TypedQueue::Stopped(t) => t.stop(),
            TypedQueue::Started(t) => t.stop(),
            TypedQueue::ClientPaused(t) => t.stop(),
            TypedQueue::ServerPaused(t) => t.stop(),
        }
    }
}

impl<'q> Queue<'q, Stopped> {
    /// `StartQueue` on a stopped queue: begins execution.
    pub fn start(self) -> Queue<'q, Started> {
        self.transition(QueueState::Started)
    }
}

impl<'q> Queue<'q, Started> {
    /// `PauseQueue`: the owning client suspends execution.
    pub fn client_pause(self) -> Queue<'q, ClientPaused> {
        self.transition(QueueState::ClientPaused)
    }

    /// The root LOUD lost activation (unmapped or covered): the server
    /// suspends execution until it is activated again.
    pub fn server_pause(self) -> Queue<'q, ServerPaused> {
        self.transition(QueueState::ServerPaused)
    }
}

impl<'q> Queue<'q, ClientPaused> {
    /// `ResumeQueue` (or `StartQueue`, which the protocol treats as a
    /// resume on a client-paused queue): execution continues.
    pub fn resume(self) -> Queue<'q, Started> {
        self.transition(QueueState::Started)
    }
}

impl<'q> Queue<'q, ServerPaused> {
    /// The root LOUD regained activation: execution continues.
    pub fn reactivate(self) -> Queue<'q, Started> {
        self.transition(QueueState::Started)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_proto::ids::SoundId;

    fn play(v: u32, s: u32) -> QueueEntry {
        QueueEntry::Device { vdev: VDeviceId(v), cmd: DeviceCommand::Play(SoundId(s)) }
    }

    #[test]
    fn flat_commands_parse_in_order() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![play(1, 10), play(1, 11)]);
        assert_eq!(q.pending.len(), 2);
        match &q.pending[0] {
            QNode::Cmd { index, .. } => assert_eq!(*index, 0),
            other => panic!("{other:?}"),
        }
        match &q.pending[1] {
            QNode::Cmd { index, .. } => assert_eq!(*index, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn cobegin_groups() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![
            QueueEntry::CoBegin,
            play(1, 10),
            play(2, 11),
            QueueEntry::CoEnd,
            play(1, 12),
        ]);
        assert_eq!(q.pending.len(), 2);
        match &q.pending[0] {
            QNode::Par(children) => assert_eq!(children.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn paper_delay_example_parses() {
        // The §5.5 example: cobegin { play A; delay 5s { play B; stop 1 } }
        // coend; the delay segment nests inside the cobegin.
        let mut q = CommandQueue::new();
        q.enqueue(vec![
            QueueEntry::CoBegin,
            play(1, 10),
            QueueEntry::Delay { ms: 5000 },
            play(2, 11),
            QueueEntry::Device { vdev: VDeviceId(1), cmd: DeviceCommand::Stop },
            QueueEntry::DelayEnd,
            QueueEntry::CoEnd,
        ]);
        assert_eq!(q.pending.len(), 1);
        match &q.pending[0] {
            QNode::Par(children) => {
                assert_eq!(children.len(), 2);
                assert!(matches!(children[0], QNode::Cmd { .. }));
                match &children[1] {
                    QNode::DelaySeg { ms, body } => {
                        assert_eq!(*ms, 5000);
                        assert_eq!(body.len(), 2);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unbalanced_bracket_waits_for_closer() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![QueueEntry::CoBegin, play(1, 10)]);
        assert_eq!(q.pending.len(), 0);
        assert_eq!(q.pending_len(), 2);
        q.enqueue(vec![QueueEntry::CoEnd]);
        assert_eq!(q.pending.len(), 1);
        assert!(matches!(q.pending[0], QNode::Par(_)));
    }

    #[test]
    fn stray_closers_dropped() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![QueueEntry::CoEnd, QueueEntry::DelayEnd, play(1, 10)]);
        assert_eq!(q.pending.len(), 1);
        assert!(matches!(q.pending[0], QNode::Cmd { .. }));
    }

    #[test]
    fn nested_cobegin() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![
            QueueEntry::CoBegin,
            QueueEntry::CoBegin,
            play(1, 10),
            QueueEntry::CoEnd,
            play(2, 11),
            QueueEntry::CoEnd,
        ]);
        assert_eq!(q.pending.len(), 1);
        match &q.pending[0] {
            QNode::Par(children) => {
                assert!(matches!(children[0], QNode::Par(_)));
                assert!(matches!(children[1], QNode::Cmd { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flush_discards_pending_and_raw() {
        let mut q = CommandQueue::new();
        q.enqueue(vec![play(1, 10), QueueEntry::CoBegin, play(1, 11)]);
        assert_eq!(q.pending_len(), 3);
        q.flush();
        assert_eq!(q.pending_len(), 0);
        assert!(q.idle());
    }

    #[test]
    fn run_node_done_logic() {
        let done_cmd = RunNode::Cmd {
            vdev: VDeviceId(1),
            slot: 0,
            cmd: DeviceCommand::Stop,
            index: 0,
            state: CmdState::Done,
        };
        assert!(done_cmd.done());
        let par = RunNode::Par {
            children: vec![
                RunNode::Cmd {
                    vdev: VDeviceId(1),
                    slot: 0,
                    cmd: DeviceCommand::Stop,
                    index: 0,
                    state: CmdState::Done,
                },
                RunNode::Cmd {
                    vdev: VDeviceId(2),
                    slot: 1,
                    cmd: DeviceCommand::Stop,
                    index: 1,
                    state: CmdState::Running,
                },
            ],
        };
        assert!(!par.done());
        let mut devs = Vec::new();
        par.running_devices(&mut devs);
        assert_eq!(devs, vec![VDeviceId(2)]);
    }

    #[test]
    fn delay_done_logic() {
        let d = RunNode::Delay { remaining: 0, body: VecDeque::new(), current: None };
        assert!(d.done());
        let d = RunNode::Delay { remaining: 5, body: VecDeque::new(), current: None };
        assert!(!d.done());
    }
}
