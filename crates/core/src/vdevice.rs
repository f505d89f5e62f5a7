//! Virtual devices: the protocol's device-independent building blocks.
//!
//! "The different classes of virtual devices are subclasses of a common
//! virtual device object class" (paper §6.1). Here the common object is
//! [`VDev`]; the subclass payload is [`ClassState`]. Virtual devices hold
//! *all* state for their operations, which is what lets the server
//! deactivate a LOUD and later restore its devices "to their state prior
//! to the moment the LOUD was deactivated" (paper §5.4): a deactivated
//! device simply stops being stepped by the engine, its state frozen in
//! place.

use da_dsp::dtmf::Detector as DtmfDetector;
use da_dsp::silence::PauseDetector;
use da_proto::command::RecordTermination;
use da_proto::ids::{Atom, ClientId, VDeviceId};
use da_proto::types::{Attribute, DeviceClass};
use da_synth::music::MusicSynth;
use da_synth::recog::Recognizer;
use da_synth::tts::Synthesizer;
use da_hw::pstn::LineId;
use std::collections::HashMap;

/// Which physical device a virtual device is bound to while active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwBinding {
    /// A speaker, by hardware index.
    Speaker(usize),
    /// A microphone, by hardware index.
    Microphone(usize),
    /// A telephone line.
    Line(LineId),
    /// A software device (player, recorder, mixer, ...): no physical
    /// resource needed (paper §5.9: "The player and recorder will be
    /// software devices, or algorithms").
    Software,
}

/// Class-specific device state.
#[derive(Debug)]
pub enum ClassState {
    /// External input (microphone).
    Input,
    /// External output (speaker).
    Output,
    /// Sound player.
    Player,
    /// Sound recorder.
    Recorder,
    /// Telephone line endpoint.
    Telephone(TelephoneState),
    /// N-to-1 mixer with per-input percentages.
    Mixer {
        /// Percent contribution per sink port.
        gains: Vec<u8>,
    },
    /// Text-to-speech engine.
    Synth(Box<Synthesizer>),
    /// Word recognizer.
    Recognizer(Box<Recognizer>),
    /// Note synthesizer.
    Music(Box<MusicSynth>),
    /// N-to-M routing switch.
    Crossbar {
        /// Connected (input, output) pairs.
        routes: std::collections::HashSet<(u8, u8)>,
    },
    /// Generic stream processor (device-control configured).
    Dsp {
        /// The active effect.
        effect: DspEffect,
    },
}

/// Effects selectable on a DSP device through the `EFFECT` device control
/// (paper §2: extensibility "to support new devices and signal processing
/// algorithms as they emerge" without protocol changes).
#[derive(Debug)]
pub enum DspEffect {
    /// Samples pass through with only the device gain applied.
    PassThrough,
    /// Feedback echo.
    Echo(da_dsp::effects::Echo),
    /// Single-pole low-pass filter.
    LowPass(da_dsp::effects::LowPass),
}

/// Telephone per-device runtime: in-band DTMF detection and call-state
/// tracking for event generation.
#[derive(Debug)]
pub struct TelephoneState {
    /// Detector running over received audio.
    pub dtmf: DtmfDetector,
    /// Last observed line state, for edge-triggered events.
    pub last_state: da_hw::pstn::LineState,
}

impl TelephoneState {
    /// Creates fresh telephone state.
    pub fn new() -> Self {
        TelephoneState {
            dtmf: DtmfDetector::new(da_hw::pstn::LINE_RATE),
            last_state: da_hw::pstn::LineState::OnHook,
        }
    }
}

impl Default for TelephoneState {
    fn default() -> Self {
        Self::new()
    }
}

/// A durational operation in progress on a device (driven by the command
/// queue, or for `SendDtmf` possibly issued immediately).
#[derive(Debug)]
pub enum ActiveOp {
    /// Playing a sound resource.
    Play {
        /// The sound's raw resource id.
        sound: u32,
        /// Next frame to emit.
        pos: u64,
        /// Whether `PlayStarted` has been emitted.
        started: bool,
        /// Frames of silence substituted due to streaming underrun.
        underrun: u64,
        /// Frame position of the last sync mark.
        last_sync: u64,
        /// Frames between sync marks, fixed when the play starts.
        sync_every: u64,
        /// The sound's length in frames and decoded PCM, pinned once the
        /// sound is complete and content-addressed (DESIGN.md §17), so a
        /// steady play reads it without looking the sound up.
        pcm: Option<(u64, std::sync::Arc<Vec<i16>>)>,
    },
    /// Playing a pre-rendered buffer (speech or music synthesis output).
    Render {
        /// Rendered samples.
        buf: Vec<i16>,
        /// Next sample to emit.
        pos: usize,
    },
    /// Recording into a sound resource.
    Record {
        /// The sound's raw resource id.
        sound: u32,
        /// Frames recorded so far.
        frames: u64,
        /// Termination condition.
        term: RecordTermination,
        /// Pause detector for `OnPause` termination.
        pause: PauseDetector,
        /// Frames to discard at the start (mid-tick seam alignment).
        skip: u64,
        /// Whether `RecordStarted` has been emitted.
        started: bool,
        /// Set when the feeding call hung up.
        hangup_seen: bool,
        /// Frame position of the last sync mark.
        last_sync: u64,
        /// Frames between sync marks, fixed when the recording starts.
        sync_every: u64,
        /// Automatic gain control, when the AGC device control is set
        /// (paper §5.1 recorder attributes).
        agc: Option<Box<da_dsp::agc::Agc>>,
        /// Remove long pauses from the finished recording (paper §5.1:
        /// "compress the recorded audio by removing pauses").
        compress_pauses: bool,
    },
    /// Dialing and awaiting call progress.
    Dial {
        /// The number to dial.
        number: String,
        /// Whether the dial has been issued to the line.
        issued: bool,
    },
    /// Waiting for (or having just performed) an answer.
    Answer,
    /// Emitting DTMF tones in-band.
    SendDtmf {
        /// Pre-rendered tone samples.
        buf: Vec<i16>,
        /// Next sample to emit.
        pos: usize,
    },
}

impl ActiveOp {
    /// Whether this operation produces samples on the device's source
    /// path toward other devices.
    pub fn is_producing(&self) -> bool {
        matches!(self, ActiveOp::Play { .. } | ActiveOp::Render { .. })
    }
}

/// The common virtual-device object: identity and configuration, the
/// control-plane half of a device. Everything the engine tick reads or
/// writes per stream lives in the device's [`DevSlot`] instead, reached
/// through [`VDev::slot`].
#[derive(Debug)]
pub struct VDev {
    /// Resource id.
    pub id: VDeviceId,
    /// Owning client.
    pub owner: ClientId,
    /// Containing LOUD (raw id).
    pub loud: u32,
    /// Root of the containing LOUD tree (raw id).
    pub root: u32,
    /// Device class.
    pub class: DeviceClass,
    /// Constraint attributes (grown by `AugmentVDevice`).
    pub attrs: Vec<Attribute>,
    /// Frames between sync marks (0 = default: 100 ms). Read when an
    /// operation starts, so a change applies from the next operation.
    pub sync_interval: u32,
    /// Device controls (paper §5.1): extension knobs by atom.
    pub controls: HashMap<Atom, Vec<u8>>,
    /// The device's slot in the engine data plane. Assigned under the
    /// write lock (plan build, activation, or a write-locked handler),
    /// so a device created since the last plan build may have none yet:
    /// its streaming state is then still the default [`DevSlot::new`]
    /// would give it.
    pub slot: Option<u32>,
}

/// Number of (source, sink) ports for a device of `class` with `attrs`.
pub fn port_counts(class: DeviceClass, attrs: &[Attribute]) -> (usize, usize) {
    let attr_srcs = attrs.iter().find_map(|a| match a {
        Attribute::SourcePorts(n) => Some(*n as usize),
        _ => None,
    });
    let attr_sinks = attrs.iter().find_map(|a| match a {
        Attribute::SinkPorts(n) => Some(*n as usize),
        _ => None,
    });
    let (d_src, d_sink) = match class {
        DeviceClass::Input => (1, 0),
        DeviceClass::Output => (0, 1),
        DeviceClass::Player => (1, 0),
        DeviceClass::Recorder => (0, 1),
        DeviceClass::Telephone => (1, 1),
        DeviceClass::Mixer => (1, 2),
        DeviceClass::SpeechSynthesizer => (1, 0),
        DeviceClass::SpeechRecognizer => (0, 1),
        DeviceClass::MusicSynthesizer => (1, 0),
        DeviceClass::Crossbar => (2, 2),
        DeviceClass::Dsp => (1, 1),
    };
    // Every port the class's engine code addresses must exist: attributes
    // may widen a device but never remove its mandatory ports (a Recorder
    // with zero sinks would be unusable — and uncrashable-into).
    let (min_src, min_sink) = (d_src.min(1), d_sink.min(1));
    (
        attr_srcs.unwrap_or(d_src).clamp(min_src, 16),
        attr_sinks.unwrap_or(d_sink).clamp(min_sink, 16),
    )
}

impl VDev {
    /// Creates a virtual device.
    pub fn new(
        id: VDeviceId,
        owner: ClientId,
        loud: u32,
        root: u32,
        class: DeviceClass,
        attrs: Vec<Attribute>,
    ) -> Self {
        VDev {
            id,
            owner,
            loud,
            root,
            class,
            attrs,
            sync_interval: 0,
            controls: HashMap::new(),
            slot: None,
        }
    }

    /// The operating rate the attributes ask for (8000 by default): a
    /// fresh slot's rate until activation or an operation sets another.
    pub fn initial_rate(&self) -> u32 {
        self.attrs
            .iter()
            .find_map(|a| match a {
                Attribute::SampleRate(r) => Some(*r),
                _ => None,
            })
            .unwrap_or(8000)
    }

    /// Sync-mark spacing in frames for an operation running at `rate`.
    pub fn sync_every(&self, rate: u32) -> u64 {
        if self.sync_interval > 0 {
            self.sync_interval as u64
        } else {
            (rate as u64) / 10
        }
    }

    /// Whether a source/sink port index is valid.
    pub fn has_port(&self, dir: da_proto::types::PortDir, index: u8) -> bool {
        let (srcs, sinks) = port_counts(self.class, &self.attrs);
        match dir {
            da_proto::types::PortDir::Source => (index as usize) < srcs,
            da_proto::types::PortDir::Sink => (index as usize) < sinks,
        }
    }
}

/// Most samples one port ring holds, whatever the rate and quantum: a
/// bound on what a client-chosen sample rate can make the server
/// reserve.
pub const MAX_RING: usize = 1 << 18;

/// Ring capacity for a port of a device running at `rate` under a
/// `quantum_us` tick: a quantum and a half of audio, rounded up to a
/// power of two. Each tick drains what the earlier phases pushed, so
/// one quantum plus a resampler's lead of a sample or two is the steady
/// peak; the rest is headroom.
pub fn ring_capacity(rate: u32, quantum_us: u64) -> usize {
    let per_tick = (rate as u64 * quantum_us).div_ceil(1_000_000) as usize + 1;
    (per_tick + per_tick / 2).next_power_of_two().min(MAX_RING)
}

/// A fixed-capacity sample ring: one device port's buffer.
///
/// Sized when its slot is built or its device's rate changes (both op
/// boundaries under the write lock), never in the steady tick.
/// **Overflow policy:** a push that does not fit drops the *oldest*
/// buffered samples and keeps the newest, so a stalled reader (a paused
/// consumer) holds at most one ring of latency rather than growing
/// without bound. [`PortRing::push_slice`] returns the dropped count, which
/// the engine adds to `engine_ring_overflow_frames_total`.
#[derive(Debug, Default)]
pub struct PortRing {
    buf: Box<[i16]>,
    head: usize,
    len: usize,
}

impl PortRing {
    /// An empty ring holding up to `capacity` samples (a power of two).
    // rt-ok(fn): rings are sized when a slot is built or its rate changes, op boundaries
    pub fn with_capacity(capacity: usize) -> Self {
        debug_assert!(capacity.is_power_of_two());
        PortRing { buf: vec![0; capacity].into_boxed_slice(), head: 0, len: 0 }
    }

    /// Samples the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Buffered samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards everything buffered.
    pub fn clear(&mut self) {
        self.head = 0;
        self.len = 0;
    }

    /// The buffered samples, oldest first, as two slices.
    pub fn as_slices(&self) -> (&[i16], &[i16]) {
        let cap = self.buf.len();
        if self.head + self.len <= cap {
            (&self.buf[self.head..self.head + self.len], &[])
        } else {
            (&self.buf[self.head..], &self.buf[..self.head + self.len - cap])
        }
    }

    /// Discards the `n` oldest samples (all of them if fewer are buffered).
    pub fn consume(&mut self, n: usize) {
        let n = n.min(self.len);
        self.len -= n;
        self.head = if self.len == 0 { 0 } else { (self.head + n) & (self.buf.len() - 1) };
    }

    /// Appends `samples`, dropping the oldest buffered samples when they
    /// do not all fit. Returns how many samples were dropped.
    pub fn push_slice(&mut self, samples: &[i16]) -> usize {
        let cap = self.buf.len();
        // Only the newest `cap` samples of an oversized push can survive.
        let skip = samples.len().saturating_sub(cap);
        let samples = &samples[skip..];
        let overflow = (self.len + samples.len()).saturating_sub(cap);
        self.consume(overflow);
        let tail = (self.head + self.len) & cap.wrapping_sub(1);
        let first = samples.len().min(cap - tail);
        self.buf[tail..tail + first].copy_from_slice(&samples[..first]);
        self.buf[..samples.len() - first].copy_from_slice(&samples[first..]);
        self.len += samples.len();
        skip + overflow
    }

    /// Copies up to `n` of the oldest samples into `out` (appending) and
    /// discards them, then pads `out` with silence to `n` appended
    /// samples. Allocation-free when `out` has capacity.
    pub fn drain_into(&mut self, n: usize, out: &mut Vec<i16>) {
        let have = self.len.min(n);
        let (a, b) = self.as_slices();
        let from_a = have.min(a.len());
        out.extend_from_slice(&a[..from_a]);
        out.extend_from_slice(&b[..have - from_a]);
        self.consume(have);
        out.resize(out.len() + (n - have), 0);
    }

    /// Grows the ring to hold at least `capacity` samples, keeping what
    /// is buffered. Never shrinks.
    // rt-ok(fn): rings grow only when a slot's rate changes, an op boundary
    pub fn reserve(&mut self, capacity: usize) {
        if capacity <= self.buf.len() {
            return;
        }
        let mut grown = PortRing::with_capacity(capacity.next_power_of_two());
        let (a, b) = self.as_slices();
        grown.push_slice(a);
        grown.push_slice(b);
        *self = grown;
    }
}

/// A device's streaming state: everything the engine tick reads or
/// writes for it, held in one dense [`crate::plan::Slab`] slot that the
/// tick indexes directly. Control-plane handlers reach it through
/// [`VDev::slot`], and only under the write lock.
#[derive(Debug)]
pub struct DevSlot {
    /// The device holding this slot ([`DevSlot::FREE`] when vacant).
    pub vid: u32,
    /// Root of the device's tree (fixed at creation).
    pub root: u32,
    /// Device class (fixed at creation).
    pub class: DeviceClass,
    /// Physical binding while the LOUD is active.
    pub binding: Option<HwBinding>,
    /// Operating sample rate: the hardware's while bound to it, else the
    /// attribute rate until an operation sets its sound's.
    pub rate: u32,
    /// Output gain in milli-units (1000 = unity).
    pub gain_milli: u32,
    /// Paused by an immediate `Pause` or a client queue pause.
    pub paused: bool,
    /// Current durational operation.
    pub op: Option<ActiveOp>,
    /// Class-specific state.
    pub state: ClassState,
    /// Source-port rings: samples produced this tick.
    pub src: Vec<PortRing>,
    /// Sink-port rings: samples delivered by wires.
    pub sink: Vec<PortRing>,
}

impl DevSlot {
    /// The `vid` of a vacant slot.
    pub const FREE: u32 = u32::MAX;

    /// The fresh streaming state of `v`, with port rings sized for its
    /// attribute rate under a `quantum_us` tick. The class payload is
    /// initialised with software engines where the class requires them.
    // rt-ok(fn): a slot is built once per device, at plan build or an op boundary
    pub fn new(v: &VDev, quantum_us: u64) -> Self {
        let (n_src, n_sink) = port_counts(v.class, &v.attrs);
        let rate = v.initial_rate();
        let state = match v.class {
            DeviceClass::Input => ClassState::Input,
            DeviceClass::Output => ClassState::Output,
            DeviceClass::Player => ClassState::Player,
            DeviceClass::Recorder => ClassState::Recorder,
            DeviceClass::Telephone => ClassState::Telephone(TelephoneState::new()),
            DeviceClass::Mixer => ClassState::Mixer { gains: vec![100; n_sink] },
            DeviceClass::SpeechSynthesizer => {
                ClassState::Synth(Box::new(Synthesizer::new(rate)))
            }
            DeviceClass::SpeechRecognizer => {
                ClassState::Recognizer(Box::new(Recognizer::new()))
            }
            DeviceClass::MusicSynthesizer => ClassState::Music(Box::new(MusicSynth::new(rate))),
            DeviceClass::Crossbar => ClassState::Crossbar { routes: Default::default() },
            DeviceClass::Dsp => ClassState::Dsp { effect: DspEffect::PassThrough },
        };
        let cap = ring_capacity(rate, quantum_us);
        DevSlot {
            vid: v.id.0,
            root: v.root,
            class: v.class,
            binding: None,
            rate,
            gain_milli: da_dsp::gain::UNITY,
            paused: false,
            op: None,
            state,
            src: (0..n_src).map(|_| PortRing::with_capacity(cap)).collect(),
            sink: (0..n_sink).map(|_| PortRing::with_capacity(cap)).collect(),
        }
    }

    /// A vacant slot, holding no buffers.
    pub fn vacant() -> Self {
        DevSlot {
            vid: Self::FREE,
            root: 0,
            class: DeviceClass::Player,
            binding: None,
            rate: 0,
            gain_milli: 0,
            paused: false,
            op: None,
            state: ClassState::Player,
            src: Vec::new(),
            sink: Vec::new(),
        }
    }

    /// Sets the operating rate, growing the port rings to hold
    /// [`ring_capacity`] at it. Runs at op boundaries and activation.
    pub fn set_rate(&mut self, rate: u32, quantum_us: u64) {
        self.rate = rate;
        let cap = ring_capacity(rate, quantum_us);
        for r in self.src.iter_mut().chain(self.sink.iter_mut()) {
            r.reserve(cap);
        }
    }

    /// Clears all port buffers (on stop, so stale audio never leaks into
    /// a later operation).
    pub fn clear_ports(&mut self) {
        for r in self.src.iter_mut().chain(self.sink.iter_mut()) {
            r.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(class: DeviceClass, attrs: Vec<Attribute>) -> VDev {
        VDev::new(VDeviceId(1), ClientId(1), 10, 10, class, attrs)
    }

    fn slot(class: DeviceClass, attrs: Vec<Attribute>) -> DevSlot {
        DevSlot::new(&dev(class, attrs), 10_000)
    }

    fn contents(r: &PortRing) -> Vec<i16> {
        let (a, b) = r.as_slices();
        [a, b].concat()
    }

    #[test]
    fn default_port_counts() {
        assert_eq!(port_counts(DeviceClass::Player, &[]), (1, 0));
        assert_eq!(port_counts(DeviceClass::Recorder, &[]), (0, 1));
        assert_eq!(port_counts(DeviceClass::Telephone, &[]), (1, 1));
        assert_eq!(port_counts(DeviceClass::Mixer, &[]), (1, 2));
        assert_eq!(port_counts(DeviceClass::Output, &[]), (0, 1));
    }

    #[test]
    fn zero_port_attributes_cannot_strip_mandatory_ports() {
        // A hostile client must not be able to make the engine index a
        // missing port.
        let attrs = vec![Attribute::SinkPorts(0), Attribute::SourcePorts(0)];
        assert_eq!(port_counts(DeviceClass::Recorder, &attrs), (0, 1));
        assert_eq!(port_counts(DeviceClass::Player, &attrs), (1, 0));
        assert_eq!(port_counts(DeviceClass::Telephone, &attrs), (1, 1));
        assert_eq!(port_counts(DeviceClass::Output, &attrs), (0, 1));
        assert_eq!(port_counts(DeviceClass::SpeechRecognizer, &attrs), (0, 1));
        let d = slot(DeviceClass::Recorder, attrs);
        assert_eq!(d.sink.len(), 1);
    }

    #[test]
    fn attr_port_counts_override() {
        let attrs = vec![Attribute::SinkPorts(4)];
        assert_eq!(port_counts(DeviceClass::Mixer, &attrs), (1, 4));
        let d = slot(DeviceClass::Mixer, attrs);
        assert_eq!(d.sink.len(), 4);
        if let ClassState::Mixer { gains } = &d.state {
            assert_eq!(gains.len(), 4);
        } else {
            panic!("expected mixer state");
        }
    }

    #[test]
    fn rate_from_attrs() {
        let d = slot(DeviceClass::Player, vec![Attribute::SampleRate(44_100)]);
        assert_eq!(d.rate, 44_100);
        let d = slot(DeviceClass::Player, vec![]);
        assert_eq!(d.rate, 8_000);
    }

    #[test]
    fn sync_interval_default_is_100ms() {
        let mut d = dev(DeviceClass::Player, vec![]);
        assert_eq!(d.sync_every(8000), 800);
        assert_eq!(d.sync_every(16_000), 1600);
        d.sync_interval = 123;
        assert_eq!(d.sync_every(16_000), 123);
    }

    #[test]
    fn drain_sink_pads_silence() {
        let mut r = PortRing::with_capacity(8);
        r.push_slice(&[1, 2, 3]);
        let mut out = Vec::new();
        r.drain_into(5, &mut out);
        assert_eq!(out, vec![1, 2, 3, 0, 0]);
        assert!(r.is_empty());
    }

    #[test]
    fn ring_wraps_and_drops_oldest_on_overflow() {
        let mut r = PortRing::with_capacity(4);
        assert_eq!(r.push_slice(&[1, 2, 3]), 0);
        r.consume(2);
        assert_eq!(r.push_slice(&[4, 5]), 0);
        assert_eq!(contents(&r), vec![3, 4, 5]);
        // Two more than fit: the two oldest go.
        assert_eq!(r.push_slice(&[6, 7, 8]), 2);
        assert_eq!(contents(&r), vec![5, 6, 7, 8]);
        // An oversized push keeps only its newest samples.
        assert_eq!(r.push_slice(&[9, 10, 11, 12, 13, 14]), 6);
        assert_eq!(contents(&r), vec![11, 12, 13, 14]);
    }

    #[test]
    fn ring_reserve_keeps_contents() {
        let mut r = PortRing::with_capacity(4);
        r.push_slice(&[1, 2, 3]);
        r.consume(2);
        r.push_slice(&[4, 5, 6]);
        r.reserve(6);
        assert_eq!(r.capacity(), 8);
        assert_eq!(contents(&r), vec![3, 4, 5, 6]);
    }

    #[test]
    fn ring_capacity_follows_rate_and_quantum() {
        assert_eq!(ring_capacity(8000, 10_000), 128);
        assert_eq!(ring_capacity(16_000, 10_000), 256);
        assert_eq!(ring_capacity(44_100, 10_000), 1024);
        assert_eq!(ring_capacity(u32::MAX, 10_000), MAX_RING);
        let mut d = slot(DeviceClass::Recorder, vec![]);
        d.set_rate(44_100, 10_000);
        assert_eq!(d.sink[0].capacity(), 1024);
    }

    #[test]
    fn port_validity() {
        use da_proto::types::PortDir;
        let d = dev(DeviceClass::Telephone, vec![]);
        assert!(d.has_port(PortDir::Source, 0));
        assert!(d.has_port(PortDir::Sink, 0));
        assert!(!d.has_port(PortDir::Source, 1));
        let o = dev(DeviceClass::Output, vec![]);
        assert!(!o.has_port(PortDir::Source, 0));
    }

    #[test]
    fn clear_ports_empties_buffers() {
        let mut d = slot(DeviceClass::Dsp, vec![]);
        d.src[0].push_slice(&[1, 2]);
        d.sink[0].push_slice(&[3]);
        d.clear_ports();
        assert!(d.src[0].is_empty());
        assert!(d.sink[0].is_empty());
    }
}
