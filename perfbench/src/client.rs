//! A benchmark client: an alib [`Connection`] plus failure accounting
//! and, in traced runs, a record of the frames it exchanged.
//!
//! Nothing here panics on a server failure. Evictions
//! ([`AlibError::Connection`]), timeouts, server errors and failed
//! output checks are counted in a shared [`Tally`] and printed, and the
//! workload carries on where it can.

use crate::srv::Series;
use da_alib::{AlibError, Connection};
use da_proto::event::Event;
use da_proto::ids::{LoudId, SoundId, VDeviceId, WireId};
use da_proto::reply::Reply;
use da_proto::request::Request;
use da_proto::types::{DeviceClass, SoundType, WireType};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Longest a benchmark client waits for any one reply or event.
pub const WAIT: Duration = Duration::from_secs(5);

/// Most failures printed individually; the rest are only counted.
const PRINT_FAILURES: u64 = 20;

/// Operations attempted and failed, shared by every thread of a run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    first: Mutex<Vec<String>>,
}

impl Tally {
    /// Counts `n` attempted operations.
    pub fn attempt(&self, n: u64) {
        self.attempted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one failure and keeps its description for the report.
    pub fn fail(&self, what: impl Into<String>) {
        let n = self.failed.fetch_add(1, Ordering::Relaxed);
        if n < PRINT_FAILURES {
            self.first
                .lock()
                .expect("tally lock poisoned")
                .push(what.into());
        }
    }

    /// Counts one output check, failing it with `what` when `ok` is false.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempt(1);
        if !ok {
            self.fail(what());
        }
    }

    /// (attempted, failed) so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.attempted.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// The failures kept for printing.
    pub fn printed(&self) -> Vec<String> {
        self.first.lock().expect("tally lock poisoned").clone()
    }
}

/// Frames a traced client exchanged, kept for the proto replay.
#[derive(Debug, Default)]
pub struct Recording {
    /// Requests, as sent.
    pub requests: Vec<Request>,
    /// Replies, as received.
    pub replies: Vec<Reply>,
    /// Events, as received.
    pub events: Vec<Event>,
}

/// Frames of each kind a recording keeps: enough for a stable
/// per-frame mean, bounded so bulk uploads cannot balloon memory.
const RECORD_CAP: usize = 4096;

impl Recording {
    /// Appends `other`, respecting the cap.
    pub fn merge(&mut self, other: Recording) {
        fn take<T>(into: &mut Vec<T>, from: Vec<T>) {
            let room = RECORD_CAP.saturating_sub(into.len());
            into.extend(from.into_iter().take(room));
        }
        take(&mut self.requests, other.requests);
        take(&mut self.replies, other.replies);
        take(&mut self.events, other.events);
    }
}

/// A connection with counting and optional recording.
pub struct Client {
    /// The alib connection.
    pub conn: Connection,
    /// Requests sent since the counter was last taken.
    pub sent: u64,
    /// The frame record, when recording.
    pub record: Option<Recording>,
}

impl Client {
    /// Wraps an established connection.
    pub fn new(mut conn: Connection) -> Client {
        conn.timeout = WAIT;
        Client {
            conn,
            sent: 0,
            record: None,
        }
    }

    /// A fresh resource id from this client's range.
    pub fn id(&mut self) -> u32 {
        self.conn.alloc_id()
    }

    /// Sends a request without waiting.
    pub fn send(&mut self, tally: &Tally, req: Request) -> Result<u32, AlibError> {
        tally.attempt(1);
        self.sent += 1;
        if let Some(rec) = &mut self.record {
            if rec.requests.len() < RECORD_CAP {
                rec.requests.push(req.clone());
            }
        }
        let seq = self.conn.send(&req);
        if let Err(e) = &seq {
            tally.fail(format!("send {}: {e:?}", req_name(&req)));
        }
        seq
    }

    /// Sends a request and waits for its reply.
    pub fn round_trip(&mut self, tally: &Tally, req: Request) -> Result<Reply, AlibError> {
        let name = req_name(&req);
        let seq = self.send(tally, req)?;
        match self.conn.wait_reply(seq) {
            Ok(reply) => {
                if let Some(rec) = &mut self.record {
                    if rec.replies.len() < RECORD_CAP {
                        rec.replies.push(reply.clone());
                    }
                }
                Ok(reply)
            }
            Err(e) => {
                tally.fail(format!("{name}: {e:?}"));
                Err(e)
            }
        }
    }

    /// A round trip timed into `samples_us` (microseconds).
    pub fn timed(
        &mut self,
        tally: &Tally,
        req: Request,
        samples_us: &mut Series,
    ) -> Result<Reply, AlibError> {
        let t = Instant::now();
        let reply = self.round_trip(tally, req)?;
        samples_us.push((Instant::now(), t.elapsed().as_secs_f64() * 1e6));
        Ok(reply)
    }

    /// Waits for an event matching `pred`, keeping the others queued.
    pub fn wait_event(
        &mut self,
        tally: &Tally,
        what: &str,
        pred: impl FnMut(&Event) -> bool,
    ) -> Result<Event, AlibError> {
        match self.conn.wait_event(WAIT, pred) {
            Ok(ev) => {
                self.note_event(&ev);
                Ok(ev)
            }
            Err(e) => {
                tally.fail(format!("waiting for {what}: {e:?}"));
                Err(e)
            }
        }
    }

    /// Waits up to `timeout` for the next event.
    pub fn next_event(
        &mut self,
        tally: &Tally,
        timeout: Duration,
    ) -> Result<Option<Event>, AlibError> {
        match self.conn.next_event(timeout) {
            Ok(ev) => {
                if let Some(ev) = &ev {
                    self.note_event(ev);
                }
                Ok(ev)
            }
            Err(e) => {
                tally.fail(format!("waiting for events: {e:?}"));
                Err(e)
            }
        }
    }

    /// Takes the next already-received event, if any.
    pub fn poll_event(&mut self, tally: &Tally) -> Result<Option<Event>, AlibError> {
        match self.conn.poll_event() {
            Ok(ev) => {
                if let Some(ev) = &ev {
                    self.note_event(ev);
                }
                Ok(ev)
            }
            Err(e) => {
                tally.fail(format!("polling events: {e:?}"));
                Err(e)
            }
        }
    }

    fn note_event(&mut self, ev: &Event) {
        if let Some(rec) = &mut self.record {
            if rec.events.len() < RECORD_CAP {
                rec.events.push(ev.clone());
            }
        }
    }

    /// Counts every asynchronous error the server has sent so far.
    pub fn drain_errors(&mut self, tally: &Tally) {
        while let Some((seq, err)) = self.conn.take_error() {
            tally.fail(format!("server error on request {seq}: {err:?}"));
        }
    }

    // ---- request builders shared by the workloads --------------------------

    /// Sends the requests of a mapped player→output LOUD (the player's
    /// DEVICE events and the root's QUEUE events selected when
    /// `events`), without waiting.
    pub fn build_play_loud(
        &mut self,
        tally: &Tally,
        events: bool,
    ) -> Result<(LoudId, VDeviceId), AlibError> {
        let loud = LoudId(self.id());
        let player = VDeviceId(self.id());
        let output = VDeviceId(self.id());
        let wire = WireId(self.id());
        for req in play_loud_requests(loud, player, output, wire, events) {
            self.send(tally, req)?;
        }
        Ok((loud, player))
    }

    /// Creates a complete sound from `data`, written in `chunk`-byte
    /// `WriteSoundData` blocks with `eof` on the last, without waiting.
    pub fn upload(
        &mut self,
        tally: &Tally,
        stype: SoundType,
        data: &[u8],
        chunk: usize,
    ) -> Result<SoundId, AlibError> {
        let id = SoundId(self.id());
        for req in upload_requests(id, stype, data, chunk) {
            self.send(tally, req)?;
        }
        Ok(id)
    }
}

/// The requests that build and map a player→output LOUD.
pub fn play_loud_requests(
    loud: LoudId,
    player: VDeviceId,
    output: VDeviceId,
    wire: WireId,
    events: bool,
) -> Vec<Request> {
    use da_proto::event::EventMask;
    let mut reqs = vec![
        Request::CreateLoud {
            id: loud,
            parent: None,
        },
        Request::CreateVDevice {
            id: player,
            loud,
            class: DeviceClass::Player,
            attrs: vec![],
        },
        Request::CreateVDevice {
            id: output,
            loud,
            class: DeviceClass::Output,
            attrs: vec![],
        },
        Request::CreateWire {
            id: wire,
            src: player,
            src_port: 0,
            dst: output,
            dst_port: 0,
            wire_type: WireType::Any,
        },
    ];
    if events {
        reqs.push(Request::SelectEvents {
            target: loud.into(),
            mask: EventMask::QUEUE,
        });
        reqs.push(Request::SelectEvents {
            target: player.into(),
            mask: EventMask::DEVICE,
        });
    }
    reqs.push(Request::MapLoud { id: loud });
    reqs
}

/// The requests that create sound `id` and write `data` into it.
pub fn upload_requests(id: SoundId, stype: SoundType, data: &[u8], chunk: usize) -> Vec<Request> {
    let mut reqs = vec![Request::CreateSound { id, stype }];
    let blocks: Vec<&[u8]> = data.chunks(chunk.max(1)).collect();
    let last = blocks.len().saturating_sub(1);
    for (i, block) in blocks.iter().enumerate() {
        reqs.push(Request::WriteSoundData {
            id,
            data: block.to_vec(),
            eof: i == last,
        });
    }
    if blocks.is_empty() {
        reqs.push(Request::WriteSoundData {
            id,
            data: Vec::new(),
            eof: true,
        });
    }
    reqs
}

/// A request's opcode name, for failure reports.
pub fn req_name(req: &Request) -> &'static str {
    Request::NAMES
        .get(req.opcode() as usize)
        .copied()
        .unwrap_or("request")
}
