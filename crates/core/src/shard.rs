//! Sharded resource maps and per-shard stripe locks (DESIGN.md §13).
//!
//! The core's resource maps (LOUDs, vdevices, wires, sounds, properties)
//! are partitioned into [`SHARDS`] shards by **owning client**: every
//! resource id carries its creator in the high bits (`id >> 20`), so one
//! client's resources always land in one shard. The fast dispatch path
//! takes the core `RwLock` in *read* mode plus the one stripe lock for
//! the requesting client's shard, and may then mutate that shard's
//! partition of every sharded map while reading (never writing) global
//! state. The slow path takes the core lock in *write* mode and sees the
//! exact pre-sharding world: `ShardedMap` keeps the `HashMap` surface the
//! rest of the server was written against.
//!
//! # Safety protocol
//!
//! `ShardedMap` stores each shard in an `UnsafeCell` so the fast path
//! can obtain `&mut HashMap` for *its* shard through a shared `&Core`.
//! The aliasing rules that make this sound:
//!
//! 1. **Write lock** (`core.write()`): unrestricted access, exactly the
//!    old single-mutex world. All `&self`/`&mut self` methods are safe.
//! 2. **Read lock** (`core.read()`): a thread may take a view of shard
//!    `s` ([`ShardedMap::view_mut`] with `Some(s)`) only while holding
//!    stripe `s` (see `ShardSet`), and while that view is live it must
//!    not touch the same map through any `&self` accessor. Different
//!    shards never alias (distinct `UnsafeCell`s); the same shard is
//!    serialised by its stripe; readers-vs-writer is excluded by the
//!    `RwLock` itself. A view of every shard (`view_mut(None)`) needs
//!    exclusive access to the map's owner, i.e. the write lock.
//! 3. Lock order is `core` → `stripe`, at most one stripe per thread.
//!
//! Both `view_mut` and the `ShardSet` of stripes are crate-private, and the
//! crate builds views only through `fastpath::ShardView`: its
//! `striped` constructor takes a core read guard and locks the shard's
//! stripe itself, its `exclusive` constructor takes `&mut Core`. Rules
//! 2 and 3 are therefore types, not conventions.
//!
//! # Borrow sanitizer (debug builds)
//!
//! What the types cannot see — a `&self` read of a shard while a view
//! of it is live — a dependency-free borrow sanitizer watches at
//! runtime (DESIGN.md §14). Each shard carries one atomic word (bit 31
//! = live exclusive view, low bits = live readers).
//! [`ShardedMap::view_mut`] returns a [`MapView`] guard that registers
//! a writer on each shard it covers for its lifetime; every `&self`
//! accessor opens a reader window around its `HashMap` operation.
//! Overlapping exclusive views or a read during an exclusive view panic
//! with a `shard sanitizer:` message instead of silently racing. The
//! whole mechanism is `#[cfg(debug_assertions)]`: release builds
//! compile the guard down to a plain reference with no atomics.

use std::cell::UnsafeCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

use crate::core::ResKey;

/// Whether the debug-build borrow sanitizer is compiled in. The soak
/// driver and CI assert on this so debug-profile runs can prove the
/// aliasing protocol was actually being watched.
pub const fn sanitizer_active() -> bool {
    cfg!(debug_assertions)
}

/// Sanitizer state: one word per shard. Bit 31 flags a live exclusive
/// [`MapView`]; the low 31 bits count live reader windows.
#[cfg(debug_assertions)]
struct ShardFlags {
    words: Vec<std::sync::atomic::AtomicU32>,
}

#[cfg(debug_assertions)]
const WRITER_BIT: u32 = 1 << 31;

#[cfg(debug_assertions)]
impl ShardFlags {
    fn new(n: usize) -> ShardFlags {
        ShardFlags { words: (0..n).map(|_| std::sync::atomic::AtomicU32::new(0)).collect() }
    }

    fn begin_read(&self, idx: usize) {
        use std::sync::atomic::Ordering;
        let prev = self.words[idx].fetch_add(1, Ordering::SeqCst);
        if prev & WRITER_BIT != 0 {
            self.words[idx].fetch_sub(1, Ordering::SeqCst);
            panic!(
                "shard sanitizer: shard {idx} read while an exclusive view is live \
                 (mut-while-shared aliasing)"
            );
        }
    }

    fn end_read(&self, idx: usize) {
        self.words[idx].fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
    }

    fn begin_write(&self, idx: usize) {
        use std::sync::atomic::Ordering;
        let prev = self.words[idx].fetch_or(WRITER_BIT, Ordering::SeqCst);
        if prev & WRITER_BIT != 0 {
            panic!(
                "shard sanitizer: overlapping views of shard {idx} (aliased &mut — \
                 a second exclusive view while one is live)"
            );
        }
        if prev != 0 {
            self.words[idx].fetch_and(!WRITER_BIT, Ordering::SeqCst);
            panic!(
                "shard sanitizer: view of shard {idx} taken while {prev} reader \
                 window(s) are open (mut-while-shared aliasing)"
            );
        }
    }

    fn end_write(&self, idx: usize) {
        self.words[idx].fetch_and(!WRITER_BIT, std::sync::atomic::Ordering::SeqCst);
    }

    fn assert_quiescent(&self, idx: usize) {
        let w = self.words[idx].load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            w == 0,
            "shard sanitizer: exclusive (&mut self) access to shard {idx} while a \
             view or reader window is live (word {w:#x})"
        );
    }
}

/// Shard count of the core's resource maps and its stripe set.
pub const SHARDS: usize = 8;

/// Client id space: resource ids are `client << ID_SHIFT | serial`.
pub const ID_SHIFT: u32 = 20;

/// Keys that know which shard they live in.
pub trait ShardKey: Copy + Eq + Hash {
    /// Owning-client number used for shard assignment.
    fn owner(&self) -> u32;
    /// Shard index for a table of `n` shards.
    fn shard_of(&self, n: usize) -> usize {
        // cast-ok: reduced mod n immediately.
        (self.owner() as usize) % n.max(1)
    }
}

/// Raw resource ids: the owning client sits in the high bits.
impl ShardKey for u32 {
    fn owner(&self) -> u32 {
        self >> ID_SHIFT
    }
}

/// Selection/property keys wrap a raw resource id. Device targets
/// (`ResKey(3, _)`) have small ids and all fall into shard 0; that is
/// fine because device-targeted requests never take the fast path.
impl ShardKey for ResKey {
    fn owner(&self) -> u32 {
        self.1 >> ID_SHIFT
    }
}

/// A `HashMap` partitioned into shards by [`ShardKey`].
///
/// All `&self` accessors are safe under the write lock or whenever no
/// concurrent [`view_mut`](Self::view_mut) view of the touched shard
/// exists (see the module-level safety protocol).
pub struct ShardedMap<K, V> {
    shards: Vec<UnsafeCell<HashMap<K, V>>>,
    #[cfg(debug_assertions)]
    flags: ShardFlags,
}

/// A [`ShardedMap`] as a dispatch handler sees it, returned by
/// [`ShardedMap::view_mut`]: exclusive access to one shard (the fast
/// path, under the core read lock and that shard's stripe) or to every
/// shard (the write-lock path), with each key routed to its own shard.
/// A single-shard view debug-asserts that every key it is asked for
/// lies in its shard.
///
/// In debug builds, constructing it registers an exclusive borrow with
/// the sanitizer word of each shard it covers and dropping it
/// unregisters; overlapping views and concurrent `&self` reads panic.
pub struct MapView<'a, K, V> {
    map: &'a ShardedMap<K, V>,
    /// The one shard covered, or `None` for every shard.
    only: Option<usize>,
}

impl<K, V> MapView<'_, K, V> {
    fn covered(&self) -> Range<usize> {
        self.map.covered(self.only)
    }

    fn part(&self, idx: usize) -> &HashMap<K, V> {
        // SAFETY: this view holds exclusive access to the shards it
        // covers (the `view_mut` contract), and `&self` keeps the
        // returned borrow shared.
        unsafe { &*self.map.shards[idx].get() }
    }

    fn part_mut(&mut self, idx: usize) -> &mut HashMap<K, V> {
        // SAFETY: as in `part`; `&mut self` makes the borrow unique.
        unsafe { &mut *self.map.shards[idx].get() }
    }

    /// Whether the view covers every shard (the write-lock form).
    pub fn spans_all(&self) -> bool {
        self.only.is_none()
    }
}

impl<K: ShardKey, V> MapView<'_, K, V> {
    /// The shard `key` lives in, which the view must cover. A
    /// single-shard view only ever touches its own shard, so even a key
    /// of another shard cannot reach memory the view does not hold.
    fn shard(&self, key: &K) -> usize {
        let idx = || self.map.shard_of(key);
        debug_assert!(
            self.only.is_none_or(|s| s == idx()),
            "shard view: key of shard {} asked of the view of shard {:?}",
            idx(),
            self.only
        );
        self.only.unwrap_or_else(idx)
    }

    /// Looks up a key.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.part(self.shard(key)).get(key)
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.part(self.shard(key)).contains_key(key)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.shard(key);
        self.part_mut(idx).get_mut(key)
    }

    /// Inserts, returning any previous value.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let idx = self.shard(&key);
        self.part_mut(idx).insert(key, value)
    }

    /// Removes a key.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.shard(key);
        self.part_mut(idx).remove(key)
    }

    /// Entry API on the key's shard.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let idx = self.shard(&key);
        self.part_mut(idx).entry(key)
    }

    /// Iterates the values of every covered shard.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.covered().flat_map(move |i| self.part(i).values())
    }
}

impl<K, V> Drop for MapView<'_, K, V> {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        for i in self.covered() {
            self.map.flags.end_write(i);
        }
    }
}

// SAFETY: a ShardedMap is a plain collection of HashMaps; cross-thread
// access is governed by the core RwLock + stripe protocol documented at
// module level, which prevents data races on any individual shard.
unsafe impl<K: Send, V: Send> Send for ShardedMap<K, V> {}
// SAFETY: see above — `&self` methods only race with `view_mut` views,
// and the lock protocol makes those mutually exclusive per shard. The
// accessors hand out `&K`/`&V` that shared-`&self` callers may use from
// many threads at once, so `K: Sync + V: Sync` is also required — with
// only `Send`, safe code could race a `Cell` value through `get()`.
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for ShardedMap<K, V> {}

impl<K, V> ShardedMap<K, V> {
    /// The shards a view of `only` (one shard, or all for `None`) covers.
    fn covered(&self, only: Option<usize>) -> Range<usize> {
        only.map_or(0..self.shards.len(), |s| s..s + 1)
    }
}

impl<K: ShardKey, V> ShardedMap<K, V> {
    /// An empty map with `n` shards (minimum 1).
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        ShardedMap {
            shards: (0..n).map(|_| UnsafeCell::new(HashMap::new())).collect(),
            #[cfg(debug_assertions)]
            flags: ShardFlags::new(n),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard index a key belongs to.
    pub fn shard_of(&self, key: &K) -> usize {
        key.shard_of(self.shards.len())
    }

    /// Runs `f` over one shard's `HashMap` inside a sanitizer reader
    /// window: the shared deref and the operation both happen while the
    /// shard's reader count is raised, so a concurrent exclusive view is
    /// caught in either direction (debug builds only).
    #[inline]
    fn with_shard<'s, R>(&'s self, idx: usize, f: impl FnOnce(&'s HashMap<K, V>) -> R) -> R {
        #[cfg(debug_assertions)]
        self.flags.begin_read(idx);
        // SAFETY: shared deref; callers uphold the module-level protocol
        // (no live `view_mut` view of this shard on another thread).
        let out = f(unsafe { &*self.shards[idx].get() });
        #[cfg(debug_assertions)]
        self.flags.end_read(idx);
        out
    }

    /// Debug-build check that shard `idx` has no live borrow at all —
    /// used by the `&mut self` (write-lock path) accessors, where a live
    /// [`MapView`] guard would mean a fast-path view leaked across into
    /// the write-lock world.
    fn debug_quiescent(&self, idx: usize) {
        #[cfg(debug_assertions)]
        self.flags.assert_quiescent(idx);
        #[cfg(not(debug_assertions))]
        let _ = idx;
    }

    fn debug_all_quiescent(&self) {
        #[cfg(debug_assertions)]
        for i in 0..self.shards.len() {
            self.flags.assert_quiescent(i);
        }
    }

    /// Exclusive, key-routed view of shard `only`, or of every shard
    /// when `None`, through a shared reference.
    ///
    /// # Safety
    ///
    /// For one shard the caller must hold the core lock in read mode
    /// *and* that shard's stripe; for every shard it must have
    /// exclusive access to the core (the write lock). Either way it must
    /// not access this map through any other method while the returned
    /// view is live.
    pub(crate) unsafe fn view_mut(&self, only: Option<usize>) -> MapView<'_, K, V> {
        #[cfg(debug_assertions)]
        for i in self.covered(only) {
            self.flags.begin_write(i);
        }
        MapView { map: self, only }
    }

    /// Looks up a key. The engine tick reaches its roots' queues and
    /// sounds through this and [`get_mut`](Self::get_mut), so both ask to
    /// be inlined whichever codegen unit the caller lands in.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.with_shard(self.shard_of(key), |m| m.get(key))
    }

    /// Whether the key is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.with_shard(self.shard_of(key), |m| m.contains_key(key))
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.with_shard(i, |m| m.len())).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|i| self.with_shard(i, |m| m.is_empty()))
    }

    /// Iterates all entries (shard-major order).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        (0..self.shards.len()).flat_map(|i| self.with_shard(i, |m| m.iter()))
    }

    /// Iterates all keys.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Iterates all values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Mutable lookup (write-lock path).
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = self.shard_of(key);
        self.debug_quiescent(idx);
        self.shards[idx].get_mut().get_mut(key)
    }

    /// Inserts, returning any previous value (write-lock path).
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let idx = self.shard_of(&key);
        self.debug_quiescent(idx);
        self.shards[idx].get_mut().insert(key, value)
    }

    /// Removes a key (write-lock path).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.shard_of(key);
        self.debug_quiescent(idx);
        self.shards[idx].get_mut().remove(key)
    }

    /// Entry API on the owning shard (write-lock path).
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        let idx = self.shard_of(&key);
        self.debug_quiescent(idx);
        self.shards[idx].get_mut().entry(key)
    }

    /// Keeps only entries the predicate accepts (write-lock path).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.debug_all_quiescent();
        for shard in &mut self.shards {
            shard.get_mut().retain(|k, v| f(k, v));
        }
    }

    /// Iterates all values mutably (write-lock path).
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.debug_all_quiescent();
        self.shards.iter_mut().flat_map(|s| s.get_mut().values_mut())
    }

    /// Iterates all entries mutably (write-lock path).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.debug_all_quiescent();
        self.shards.iter_mut().flat_map(|s| s.get_mut().iter_mut())
    }
}

impl<'a, K: ShardKey, V> IntoIterator for &'a ShardedMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Box<dyn Iterator<Item = (&'a K, &'a V)> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl<K: ShardKey, V> std::ops::Index<&K> for ShardedMap<K, V> {
    type Output = V;
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

impl<K: ShardKey + std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for ShardedMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// One stripe (plain mutex) per shard, taken by the fast path after the
/// core read lock. Lock order: `core` → `stripe`; a thread holds at most
/// one stripe at a time. Crate-private: `ShardView::striped` is the one
/// place that locks a stripe.
pub(crate) struct ShardSet {
    stripes: Vec<parking_lot::Mutex<()>>,
}

impl ShardSet {
    /// A set of `n` stripes (minimum 1).
    pub(crate) fn new(n: usize) -> Self {
        ShardSet { stripes: (0..n.max(1)).map(|_| parking_lot::Mutex::new(())).collect() }
    }

    /// Number of stripes.
    pub(crate) fn len(&self) -> usize {
        self.stripes.len()
    }

    /// The stripe mutex guarding shard `idx`.
    pub(crate) fn stripe(&self, idx: usize) -> &parking_lot::Mutex<()> {
        &self.stripes[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(client: u32, serial: u32) -> u32 {
        (client << ID_SHIFT) | serial
    }

    #[test]
    fn shard_assignment_follows_owner() {
        let m: ShardedMap<u32, &str> = ShardedMap::new(8);
        assert_eq!(m.shard_of(&id(1, 7)), 1);
        assert_eq!(m.shard_of(&id(9, 7)), 1); // 9 % 8
        assert_eq!(m.shard_of(&id(3, 0xFFFFF)), 3);
        // ResKey shards by the wrapped id's owner.
        let p: ShardedMap<ResKey, &str> = ShardedMap::new(8);
        assert_eq!(p.shard_of(&ResKey(0, id(5, 1))), 5);
        assert_eq!(p.shard_of(&ResKey(3, 2)), 0); // device keys: shard 0
    }

    #[test]
    fn hashmap_facade_roundtrip() {
        let mut m: ShardedMap<u32, String> = ShardedMap::new(4);
        assert!(m.is_empty());
        for c in 1..=6u32 {
            for s in 1..=3u32 {
                m.insert(id(c, s), format!("{c}/{s}"));
            }
        }
        assert_eq!(m.len(), 18);
        assert!(m.contains_key(&id(2, 2)));
        assert_eq!(m[&id(4, 1)], "4/1");
        assert_eq!(m.get(&id(6, 3)).map(String::as_str), Some("6/3"));
        assert_eq!(m.get_mut(&id(6, 3)).map(|v| v.push('!')), Some(()));
        assert_eq!(m.remove(&id(6, 3)).as_deref(), Some("6/3!"));
        assert_eq!(m.keys().count(), 17);
        assert_eq!(m.values().count(), 17);
        assert_eq!(m.iter().count(), 17);
        m.entry(id(1, 9)).or_insert_with(|| "late".into());
        m.retain(|k, _| k.owner() != 2);
        assert_eq!(m.len(), 15);
        for v in m.values_mut() {
            v.push('.');
        }
        assert_eq!(m[&id(1, 9)], "late.");
    }

    #[test]
    fn shard_mut_sees_only_its_partition() {
        let mut m: ShardedMap<u32, u32> = ShardedMap::new(4);
        m.insert(id(1, 1), 11);
        m.insert(id(2, 1), 21);
        m.insert(id(5, 1), 51); // 5 % 4 == 1: same shard as client 1
        // SAFETY: single-threaded test — no concurrent access at all.
        let mut view = unsafe { m.view_mut(Some(1)) };
        assert_eq!(view.values().count(), 2);
        view.insert(id(1, 2), 12);
        // Shard 2's entry is out of the view's sight.
        assert!(!view.values().any(|&v| v == 21));
        drop(view);
        assert_eq!(m.len(), 4);
        assert_eq!(m[&id(1, 2)], 12);
    }

    /// Seeded aliasing overlap: two exclusive views of the same shard.
    /// The debug-build sanitizer must refuse the second one.
    #[cfg(debug_assertions)]
    #[test]
    fn sanitizer_catches_overlapping_shard_mut() {
        let m: ShardedMap<u32, u32> = ShardedMap::new(4);
        // SAFETY: single-threaded; the aliasing overlap is the point —
        // the sanitizer panics before the second `&mut` materialises.
        let _live = unsafe { m.view_mut(Some(1)) };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // SAFETY: see above — never returns.
            let _second = unsafe { m.view_mut(Some(1)) };
        }))
        .expect_err("overlapping views must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("overlapping views"), "unexpected panic: {msg}");
        // A different shard is unaffected.
        // SAFETY: shard 2 has no live view.
        let _other = unsafe { m.view_mut(Some(2)) };
    }

    /// Mut-while-shared: a `&self` read of a shard with a live exclusive
    /// view must panic in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    fn sanitizer_catches_read_during_shard_mut() {
        let mut m: ShardedMap<u32, u32> = ShardedMap::new(4);
        m.insert(id(1, 1), 11);
        // SAFETY: single-threaded; the illegal read below is the point.
        let _live = unsafe { m.view_mut(Some(1)) };
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = m.get(&id(1, 1));
        }))
        .expect_err("reading a shard with a live view must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("mut-while-shared"), "unexpected panic: {msg}");
        // Reads of other shards stay legal while the view is live.
        assert_eq!(m.get(&id(2, 1)), None);
    }

    /// Dropping the guard ends the exclusive borrow: the same shard is
    /// immediately readable and re-borrowable again.
    #[test]
    fn sanitizer_releases_on_drop() {
        let mut m: ShardedMap<u32, u32> = ShardedMap::new(4);
        m.insert(id(1, 1), 11);
        for _ in 0..3 {
            // SAFETY: single-threaded test; views are strictly sequential.
            let mut view = unsafe { m.view_mut(Some(1)) };
            view.insert(id(1, 2), 12);
            drop(view);
            assert_eq!(m.get(&id(1, 1)), Some(&11));
        }
        assert!(sanitizer_active() == cfg!(debug_assertions));
    }

    #[test]
    fn stripes_are_independent() {
        let s = ShardSet::new(4);
        assert_eq!(s.len(), 4);
        let zero = s.stripe(0);
        let g = zero.lock();
        // A different stripe is still free while 0 is held.
        let one = s.stripe(1);
        assert!(one.try_lock().is_some());
        assert!(zero.try_lock().is_none());
        drop(g);
        assert!(zero.try_lock().is_some());
    }
}
