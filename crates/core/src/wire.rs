//! Wires: the data paths between virtual devices.
//!
//! "Wires establish the flow of data between virtual devices... A wire
//! connects a source port of a virtual device to a sink port of another
//! virtual device" (paper §5.2). Each wire's streaming resampler, which
//! lets devices of different rates interconnect seamlessly, lives in its
//! [`WireSlot`] in the engine data plane.

use da_dsp::resample::Resampler;
use da_proto::ids::{ClientId, VDeviceId, WireId};
use da_proto::types::WireType;

/// One wire.
#[derive(Debug)]
pub struct Wire {
    /// Resource id.
    pub id: WireId,
    /// Owning client.
    pub owner: ClientId,
    /// Source (producing) device.
    pub src: VDeviceId,
    /// Source port index.
    pub src_port: u8,
    /// Sink (consuming) device.
    pub dst: VDeviceId,
    /// Sink port index.
    pub dst_port: u8,
    /// Declared data-path type (checked at creation, paper §5.2).
    pub wire_type: WireType,
    /// The wire's slot in the engine data plane, assigned at the first
    /// plan build after creation (under the write lock).
    pub slot: Option<u32>,
}

impl Wire {
    /// Creates a wire between two ports.
    pub fn new(
        id: WireId,
        owner: ClientId,
        src: VDeviceId,
        src_port: u8,
        dst: VDeviceId,
        dst_port: u8,
        wire_type: WireType,
    ) -> Self {
        Wire {
            id,
            owner,
            src,
            src_port,
            dst,
            dst_port,
            wire_type,
            slot: None,
        }
    }
}

/// A wire's streaming state: its rate adaptation, held in one dense
/// [`crate::plan::Slab`] slot so the tick reaches it without a lookup.
#[derive(Debug)]
pub struct WireSlot {
    /// The wire holding this slot ([`WireSlot::FREE`] when vacant).
    pub wire: u32,
    /// Rate adaptation state, rebuilt when endpoint rates change.
    resampler: Option<Resampler>,
    /// Rates the resampler was built for.
    rates: (u32, u32),
}

impl WireSlot {
    /// The `wire` of a vacant slot.
    pub const FREE: u32 = u32::MAX;

    /// Fresh streaming state for wire `wire`.
    pub fn new(wire: u32) -> Self {
        WireSlot { wire, resampler: None, rates: (0, 0) }
    }

    /// Marks the endpoints equal-rate: any stale resampler is dropped, so
    /// a later rate change starts a fresh one.
    pub fn bypass(&mut self) {
        self.resampler = None;
    }

    /// Resamples `samples` from `src_rate` to `dst_rate` (which differ;
    /// equal-rate endpoints [`WireSlot::bypass`] instead), appending to
    /// `out`: allocation-free when `out` has capacity. The resampler is
    /// rebuilt when the endpoint rates change.
    pub fn resample_into(
        &mut self,
        samples: &[i16],
        src_rate: u32,
        dst_rate: u32,
        out: &mut Vec<i16>,
    ) {
        if self.resampler.is_none() || self.rates != (src_rate, dst_rate) {
            self.resampler = Some(Resampler::new(src_rate, dst_rate));
            self.rates = (src_rate, dst_rate);
        }
        self.resampler.as_mut().expect("just set").push_into(samples, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire() -> WireSlot {
        WireSlot::new(1)
    }

    /// Equal-rate endpoints copy ring to ring in the engine; the wire
    /// only drops any resampler an earlier rate pair left.
    #[test]
    fn same_rate_passthrough() {
        let mut w = wire();
        w.resample_into(&[1, 2, 3], 8000, 16000, &mut Vec::new());
        assert!(w.resampler.is_some());
        w.bypass();
        assert!(w.resampler.is_none());
    }

    #[test]
    fn rate_adaptation_upsamples() {
        let mut w = wire();
        let mut out = Vec::new();
        for _ in 0..100 {
            w.resample_into(&[100; 80], 8000, 16000, &mut out);
        }
        // 8000 frames in -> ~16000 out (minus lookahead latency).
        assert!((out.len() as i64 - 16000).abs() < 8, "{}", out.len());
    }

    #[test]
    fn resampler_rebuilt_on_rate_change() {
        let mut w = wire();
        w.resample_into(&[0; 80], 8000, 16000, &mut Vec::new());
        assert_eq!(w.rates, (8000, 16000));
        w.resample_into(&[0; 80], 8000, 44100, &mut Vec::new());
        assert_eq!(w.rates, (8000, 44100));
    }
}
