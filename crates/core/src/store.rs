//! Content-addressed shared sound store and transcode cache
//! (DESIGN.md §17).
//!
//! The paper's catalogues (§5.1, §5.6) assume many clients replaying
//! the same server-side prompts. At that fan-out two costs dominate the
//! sound path: every binding carrying its own copy of the encoded
//! bytes, and every play re-running the decode leaf. The store removes
//! both:
//!
//! - **Payload interning.** Encoded bytes plus the [`SoundType`] hash
//!   (FNV-1a, dependency-free) to a 64-bit content key. Catalogue
//!   entries are adopted at server start; client uploads are interned
//!   when the final `WriteSoundData` block arrives (`eof`). Identical
//!   content resolves to one immutable `Arc<Vec<u8>>`, shared zero-copy
//!   across clients and shards. The map holds [`Weak`] references, so
//!   the store never extends a payload's lifetime: when the last sound
//!   bound to it dies, the bytes die with it.
//! - **Transcode cache.** A bounded LRU keyed by (content hash, target
//!   encoding, target rate) holding the fully decoded mono PCM of hot
//!   sounds. The engine's per-tick decode windows become slice copies
//!   after the first play, and ADPCM — which cannot be decoded from an
//!   arbitrary offset — is decoded exactly once per payload instead of
//!   once per window (the former O(n²) offset-read path). Eviction is
//!   by byte budget, least-recently-used first.
//!
//! Concurrency: the store is a *leaf* structure in the §13 locking
//! protocol. All state sits behind one private mutex whose critical
//! sections are map probes and bounded evictions — it never acquires
//! the core lock or a stripe, so it ranks strictly below both and may
//! be touched from the read-locked fast path, the write-locked slow
//! path, and the engine tick alike. The expensive work on a cache miss
//! (the full decode) runs *outside* the mutex.

use crate::sound::Sound;
use crate::telem::ServerMetrics;
use da_proto::types::{Encoding, SoundType};
use da_telemetry::{Counter, Gauge};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Instant;

/// Transcode-cache byte budget: decoded PCM retained across plays.
/// 8 MiB holds ~8 minutes of 8 kHz mono PCM-16 — far beyond the hot
/// prompt set — while bounding worst-case growth.
pub const TRANSCODE_CACHE_BYTES: usize = 8 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the sound's type fields followed by its encoded bytes.
/// The type participates so two byte-identical buffers with different
/// interpretations (e.g. µ-law vs PCM-8) never collide by construction.
pub fn content_hash(stype: SoundType, data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    eat(stype.encoding as u8); // discriminant of a fieldless enum
    for b in stype.sample_rate.to_le_bytes() {
        eat(b);
    }
    eat(stype.channels);
    for &b in data {
        eat(b);
    }
    h
}

/// One interned payload: a weak handle (the store never keeps bytes
/// alive) plus the length for accounting after the payload dies.
struct PayloadSlot {
    weak: Weak<Vec<u8>>,
    bytes: usize,
}

/// Transcode-cache key: content identity plus the target format. The
/// only variant produced today is mono PCM-16 at the sound's native
/// rate (what the engine's decode leaf consumes), but the key carries
/// the full target so resampled variants can share the same cache.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct TranscodeKey {
    hash: u64,
    encoding: Encoding,
    rate: u32,
}

/// One cached decode: the full mono PCM, its cost, and an LRU stamp.
struct CacheEntry {
    pcm: Arc<Vec<i16>>,
    bytes: usize,
    /// Wall time of the decode that built this entry, for the
    /// `transcode_us_saved_total` estimate.
    build_ns: u64,
    /// Total mono frames, for prorating the saved time per window.
    frames: u64,
    stamp: u64,
}

struct StoreInner {
    payloads: HashMap<u64, PayloadSlot>,
    /// Live interned bytes (sum over slots whose payload is alive).
    shared_bytes: usize,
    cache: HashMap<TranscodeKey, CacheEntry>,
    cache_bytes: usize,
    /// LRU clock, bumped on every cache touch.
    clock: u64,
    /// Sub-microsecond remainder of the saved-time estimate, carried so
    /// small windows still accumulate into the counter.
    carry_ns: u64,
    /// Payload-map size that triggers the next dead-slot sweep.
    next_sweep: usize,
}

/// Handles onto the store's metrics (registered once in
/// [`ServerMetrics::new`]; see DESIGN.md §10).
struct StoreMetrics {
    bytes_shared: Gauge,
    payloads: Gauge,
    dedupe_hits: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    cache_evictions: Counter,
    us_saved: Counter,
}

/// The server-wide content-addressed sound store. One per [`Core`],
/// interior-mutable so the read-locked fast path and the engine tick
/// can both use it through a shared reference.
///
/// [`Core`]: crate::core::Core
pub struct SoundStore {
    inner: Mutex<StoreInner>,
    budget: usize,
    m: StoreMetrics,
}

impl SoundStore {
    /// Creates an empty store holding pre-registered metric handles.
    pub fn new(metrics: &ServerMetrics) -> SoundStore {
        SoundStore::with_budget(metrics, TRANSCODE_CACHE_BYTES)
    }

    /// Creates a store with an explicit transcode-cache byte budget
    /// (tests exercise eviction with tiny budgets).
    pub fn with_budget(metrics: &ServerMetrics, budget: usize) -> SoundStore {
        SoundStore {
            inner: Mutex::new(StoreInner {
                payloads: HashMap::new(),
                shared_bytes: 0,
                cache: HashMap::new(),
                cache_bytes: 0,
                clock: 0,
                carry_ns: 0,
                next_sweep: 16,
            }),
            budget,
            m: StoreMetrics {
                bytes_shared: metrics.store_bytes_shared.clone(),
                payloads: metrics.store_payloads.clone(),
                dedupe_hits: metrics.store_dedupe_hits_total.clone(),
                cache_hits: metrics.transcode_cache_hits_total.clone(),
                cache_misses: metrics.transcode_cache_misses_total.clone(),
                cache_evictions: metrics.transcode_cache_evictions_total.clone(),
                us_saved: metrics.transcode_us_saved_total.clone(),
            },
        }
    }

    /// Interns freshly uploaded bytes, returning the shared payload and
    /// its content hash. If a live payload with identical content
    /// already exists (an earlier upload or an adopted catalogue
    /// entry), the caller's buffer is dropped and the existing `Arc` is
    /// returned — N identical uploads cost one allocation.
    pub fn intern_payload(&self, stype: SoundType, data: Vec<u8>) -> (Arc<Vec<u8>>, u64) {
        let hash = content_hash(stype, &data);
        let mut inner = self.inner.lock(); // rt-ok: leaf mutex below core/stripe; probe + insert, never held across a decode
        if let Some(slot) = inner.payloads.get(&hash) {
            if let Some(existing) = slot.weak.upgrade() {
                // Guard against a 64-bit collision: dedupe only on
                // byte-identical content (the compare is cheaper than
                // the decode the payload exists to amortize).
                if *existing == data {
                    self.m.dedupe_hits.inc();
                    return (existing, hash);
                }
                // Genuine collision: keep the resident payload, hand
                // the caller an unshared copy of its own bytes.
                return (Arc::new(data), hash);
            }
        }
        let arc = Arc::new(data);
        self.register(&mut inner, hash, &arc);
        (arc, hash)
    }

    /// Registers an already-shared payload (catalogue entries at server
    /// start) without copying.
    pub fn adopt(&self, hash: u64, data: &Arc<Vec<u8>>) {
        let mut inner = self.inner.lock();
        let live = inner
            .payloads
            .get(&hash)
            .is_some_and(|slot| slot.weak.strong_count() > 0);
        if !live {
            self.register(&mut inner, hash, data);
        }
    }

    /// Inserts `arc` into the payload map under `hash`, adjusting the
    /// shared-byte accounting and sweeping dead slots when due.
    fn register(&self, inner: &mut StoreInner, hash: u64, arc: &Arc<Vec<u8>>) {
        let bytes = arc.len();
        if let Some(old) = inner
            .payloads
            .insert(hash, PayloadSlot { weak: Arc::downgrade(arc), bytes })
        {
            // Replacing a dead slot: its bytes left `shared_bytes` when
            // it died only if a sweep has run since; reconcile here.
            if old.weak.strong_count() == 0 {
                inner.shared_bytes = inner.shared_bytes.saturating_sub(old.bytes);
            }
        }
        inner.shared_bytes += bytes;
        if inner.payloads.len() >= inner.next_sweep {
            Self::sweep(inner);
        }
        self.m.bytes_shared.set(inner.shared_bytes as i64); // cast within i64 range: bounded by live sound bytes
        self.m.payloads.set(inner.payloads.len() as i64);
    }

    /// Drops payload slots whose sounds have all died and re-derives
    /// the byte accounting. Amortized O(1): runs when the map doubles.
    fn sweep(inner: &mut StoreInner) {
        inner.payloads.retain(|_, slot| slot.weak.strong_count() > 0);
        inner.shared_bytes = inner.payloads.values().map(|s| s.bytes).sum();
        inner.next_sweep = (inner.payloads.len() * 2).max(16);
    }

    /// Refreshes the mirrored gauges (dead payloads swept, byte totals
    /// re-derived). Called at snapshot time by `telem::refresh_mirrors`
    /// so `QueryServerStats` never reports stale sharing figures.
    pub fn refresh_gauges(&self) {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        self.m.bytes_shared.set(inner.shared_bytes as i64); // cast within i64 range: bounded by live sound bytes
        self.m.payloads.set(inner.payloads.len() as i64);
    }

    /// Decodes `frames` mono sample frames of `snd` starting at frame
    /// `from`, appending linear PCM to `out`. Complete content-addressed
    /// sounds are served from the transcode cache — built with one full
    /// decode on first use, a bounded slice copy ever after (this is
    /// also what makes repeated ADPCM offset reads O(window) instead of
    /// O(sound)). Incomplete (streaming) sounds have unstable content
    /// and fall back to a direct windowed decode.
    ///
    /// `convert_ns` accumulates the wall time of real conversion work:
    /// the fallback decode, or the one-time cache build on a miss. A
    /// cache hit adds nothing — the slice copy is not a transcode, and
    /// skipping its two `Instant` reads keeps the steady-state tick
    /// cheap — so `dsp_convert_ns` honestly reads near-zero once the
    /// hot sounds are cached.
    pub fn decode_window(
        &self,
        snd: &Sound,
        from: u64,
        frames: u64,
        out: &mut Vec<i16>,
        convert_ns: &mut u64,
    ) {
        let Some(hash) = snd.content_hash.filter(|_| snd.complete) else {
            da_dsp::meter::DspMeter::timed(convert_ns, || {
                snd.decode_frames_into(from, frames, out);
            });
            return;
        };
        // Relax: the window copy appends into a pooled caller buffer
        // (capacity amortizes after warmup) and a cache miss builds the
        // decoded payload exactly once per sound.
        let _relax = crate::rt::AllocRelax::scope();
        let (pcm, built_ns) = self.cached_pcm(hash, snd, frames);
        *convert_ns += built_ns;
        let start = usize::try_from(from).unwrap_or(usize::MAX).min(pcm.len());
        let want = usize::try_from(frames).unwrap_or(usize::MAX);
        let end = start.saturating_add(want).min(pcm.len());
        out.extend_from_slice(&pcm[start..end]);
    }

    /// The whole decoded mono PCM of a complete, content-addressed
    /// sound, shared through the transcode cache; `None` for a sound
    /// still streaming or with recorder-private content. A play pins it
    /// once and copies windows from it without further lookups. A cache
    /// build's wall time is added to `convert_ns`.
    pub fn pin_pcm(&self, snd: &Sound, convert_ns: &mut u64) -> Option<Arc<Vec<i16>>> {
        let hash = snd.content_hash.filter(|_| snd.complete)?;
        // Relax: a miss builds the decoded payload exactly once per sound.
        let _relax = crate::rt::AllocRelax::scope();
        let (pcm, built_ns) = self.cached_pcm(hash, snd, snd.len_frames());
        *convert_ns += built_ns;
        Some(pcm)
    }

    /// The fully decoded mono PCM for `hash`, built from `snd` on a
    /// miss, plus the build's wall time (0 on a hit). `window_frames`
    /// sizes the saved-time estimate on a hit.
    fn cached_pcm(&self, hash: u64, snd: &Sound, window_frames: u64) -> (Arc<Vec<i16>>, u64) {
        let key = TranscodeKey {
            hash,
            encoding: Encoding::Pcm16,
            rate: snd.stype.sample_rate,
        };
        {
            let mut inner = self.inner.lock(); // rt-ok: leaf mutex below core/stripe; O(1) probe, decode happens outside
            inner.clock += 1;
            let stamp = inner.clock;
            if let Some(e) = inner.cache.get_mut(&key) {
                e.stamp = stamp;
                let pcm = Arc::clone(&e.pcm);
                // Saved ≈ the one-time decode cost, prorated over the
                // fraction of the sound this window covers.
                let saved_ns = e
                    .build_ns
                    .saturating_mul(window_frames)
                    .checked_div(e.frames.max(1))
                    .unwrap_or(0);
                self.m.cache_hits.inc();
                inner.carry_ns += saved_ns;
                if inner.carry_ns >= 1_000 {
                    self.m.us_saved.add(inner.carry_ns / 1_000);
                    inner.carry_ns %= 1_000;
                }
                return (pcm, 0);
            }
        }
        // Miss: decode the whole sound with the mutex released — the
        // build is the O(n) work the cache exists to amortize.
        self.m.cache_misses.inc();
        let started = Instant::now();
        let decoded = snd.decode_frames(0, snd.len_frames());
        let build_ns = started.elapsed().as_nanos() as u64; // cast within u64 range: one decode's wall time
        let bytes = decoded.len() * 2;
        let frames = decoded.len() as u64;
        let pcm = Arc::new(decoded);
        let mut inner = self.inner.lock(); // rt-ok: leaf mutex below core/stripe; insert + bounded LRU eviction
        inner.clock += 1;
        let stamp = inner.clock;
        if let Some(prev) = inner.cache.insert(
            key,
            CacheEntry { pcm: Arc::clone(&pcm), bytes, build_ns, frames, stamp },
        ) {
            // A racing builder got here first; its bytes leave with it.
            inner.cache_bytes = inner.cache_bytes.saturating_sub(prev.bytes);
        }
        inner.cache_bytes += bytes;
        while inner.cache_bytes > self.budget && inner.cache.len() > 1 {
            let victim = inner
                .cache
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            if let Some(gone) = inner.cache.remove(&victim) {
                inner.cache_bytes = inner.cache_bytes.saturating_sub(gone.bytes);
                self.m.cache_evictions.inc();
            }
        }
        (pcm, build_ns)
    }

    /// Point-in-time store figures for experiments and tests.
    pub fn snapshot(&self) -> StoreSnapshot {
        let mut inner = self.inner.lock();
        Self::sweep(&mut inner);
        StoreSnapshot {
            payloads: inner.payloads.len(),
            shared_bytes: inner.shared_bytes,
            cache_entries: inner.cache.len(),
            cache_bytes: inner.cache_bytes,
        }
    }
}

impl std::fmt::Debug for SoundStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("SoundStore")
            .field("payloads", &s.payloads)
            .field("shared_bytes", &s.shared_bytes)
            .field("cache_entries", &s.cache_entries)
            .field("cache_bytes", &s.cache_bytes)
            .finish()
    }
}

/// A point-in-time copy of the store's accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSnapshot {
    /// Live interned payloads.
    pub payloads: usize,
    /// Bytes across live interned payloads (each counted once).
    pub shared_bytes: usize,
    /// Resident transcode-cache entries.
    pub cache_entries: usize,
    /// Bytes of decoded PCM resident in the transcode cache.
    pub cache_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_proto::ids::{ClientId, SoundId};
    use da_telemetry::Registry;

    fn store() -> SoundStore {
        let reg = Registry::new();
        SoundStore::new(&ServerMetrics::new(&reg))
    }

    fn tone_bytes(freq: f64, frames: usize) -> Vec<u8> {
        da_dsp::mulaw::encode_slice(&da_dsp::tone::sine(8000, freq, frames, 10000))
    }

    #[test]
    fn identical_uploads_share_one_payload() {
        let s = store();
        let data = tone_bytes(440.0, 800);
        let (a, ha) = s.intern_payload(SoundType::TELEPHONE, data.clone());
        let (b, hb) = s.intern_payload(SoundType::TELEPHONE, data.clone());
        assert_eq!(ha, hb);
        assert!(Arc::ptr_eq(&a, &b), "identical content must dedupe to one Arc");
        assert_eq!(s.snapshot().payloads, 1);
        assert_eq!(s.snapshot().shared_bytes, data.len());
    }

    #[test]
    fn type_participates_in_identity() {
        let s = store();
        let data = tone_bytes(440.0, 800);
        let alaw = SoundType { encoding: Encoding::ALaw, ..SoundType::TELEPHONE };
        let (a, ha) = s.intern_payload(SoundType::TELEPHONE, data.clone());
        let (b, hb) = s.intern_payload(alaw, data);
        assert_ne!(ha, hb, "same bytes, different type: distinct content");
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn dead_payloads_are_swept() {
        let s = store();
        let (a, _) = s.intern_payload(SoundType::TELEPHONE, tone_bytes(440.0, 800));
        assert_eq!(s.snapshot().payloads, 1);
        drop(a);
        // The store held only a Weak: the payload is gone and a
        // snapshot-time sweep reflects that.
        let snap = s.snapshot();
        assert_eq!(snap.payloads, 0);
        assert_eq!(snap.shared_bytes, 0);
    }

    #[test]
    fn adopted_catalogue_bytes_dedupe_uploads() {
        let s = store();
        let data = tone_bytes(300.0, 400);
        let arc = Arc::new(data.clone());
        s.adopt(content_hash(SoundType::TELEPHONE, &data), &arc);
        let (shared, _) = s.intern_payload(SoundType::TELEPHONE, data);
        assert!(Arc::ptr_eq(&arc, &shared), "upload must reuse the catalogue Arc");
    }

    fn interned_sound(stype: SoundType, encoded: Vec<u8>, s: &SoundStore) -> Sound {
        let mut snd = Sound::new(SoundId(1), ClientId(1), stype);
        snd.append(&encoded, true);
        let (arc, hash) = s.intern_payload(stype, std::mem::take(&mut snd.data));
        snd.shared = Some(arc);
        snd.content_hash = Some(hash);
        snd
    }

    #[test]
    fn cached_windows_match_direct_decode() {
        let s = store();
        let stype = SoundType {
            encoding: Encoding::ImaAdpcm,
            sample_rate: 8000,
            channels: 1,
        };
        let pcm = da_dsp::tone::sine(8000, 300.0, 1000, 9000);
        let snd = interned_sound(stype, da_dsp::adpcm::encode_slice(&pcm), &s);
        let direct = snd.decode_frames(0, 1000);
        let mut ns = 0u64;
        for (from, frames) in [(0u64, 1000u64), (500, 100), (990, 50), (1000, 10), (4000, 5)] {
            let mut cached = Vec::new();
            s.decode_window(&snd, from, frames, &mut cached, &mut ns);
            let start = (from as usize).min(direct.len());
            let end = (start + frames as usize).min(direct.len());
            assert_eq!(cached, &direct[start..end], "window ({from}, {frames})");
        }
        // First window built the entry; the rest hit.
        assert_eq!(s.snapshot().cache_entries, 1);
    }

    #[test]
    fn incomplete_sounds_bypass_the_cache() {
        let s = store();
        let mut snd = Sound::new(SoundId(1), ClientId(1), SoundType::TELEPHONE);
        snd.append(&tone_bytes(440.0, 200), false);
        let mut out = Vec::new();
        let mut ns = 0u64;
        s.decode_window(&snd, 0, 200, &mut out, &mut ns);
        assert_eq!(out.len(), 200);
        assert_eq!(s.snapshot().cache_entries, 0, "streaming content must not be cached");
    }

    #[test]
    fn eviction_respects_the_byte_budget() {
        let reg = Registry::new();
        let metrics = ServerMetrics::new(&reg);
        // Budget fits one 800-frame decode (1600 B) but not two.
        let s = SoundStore::with_budget(&metrics, 2000);
        let a = interned_sound(SoundType::TELEPHONE, tone_bytes(440.0, 800), &s);
        let mut b = interned_sound(SoundType::TELEPHONE, tone_bytes(523.0, 800), &s);
        b.id = SoundId(2);
        let mut out = Vec::new();
        let mut ns = 0u64;
        s.decode_window(&a, 0, 10, &mut out, &mut ns);
        s.decode_window(&b, 0, 10, &mut out, &mut ns);
        let snap = s.snapshot();
        assert_eq!(snap.cache_entries, 1, "LRU must have evicted the older entry");
        assert!(snap.cache_bytes <= 2000);
        assert_eq!(metrics.transcode_cache_evictions_total.get(), 1);
        // The survivor is b; touching a again rebuilds (miss), not hits.
        let misses = metrics.transcode_cache_misses_total.get();
        s.decode_window(&a, 0, 10, &mut out, &mut ns);
        assert_eq!(metrics.transcode_cache_misses_total.get(), misses + 1);
    }

    #[test]
    fn hits_accumulate_saved_time() {
        let reg = Registry::new();
        let metrics = ServerMetrics::new(&reg);
        let s = SoundStore::with_budget(&metrics, TRANSCODE_CACHE_BYTES);
        let snd = interned_sound(SoundType::TELEPHONE, tone_bytes(440.0, 8000), &s);
        let mut out = Vec::new();
        let mut ns = 0u64;
        s.decode_window(&snd, 0, 8000, &mut out, &mut ns); // miss: builds
        for i in 0..100u64 {
            out.truncate(0);
            s.decode_window(&snd, i * 80, 8000, &mut out, &mut ns);
        }
        assert_eq!(metrics.transcode_cache_hits_total.get(), 100);
        assert_eq!(metrics.transcode_cache_misses_total.get(), 1);
    }
}
