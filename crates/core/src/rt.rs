//! Real-time allocation sentinel (DESIGN.md §16).
//!
//! The dynamic half of the `xtask rtsafe` contract: in
//! `debug_assertions` builds the crate installs a global allocator that
//! delegates to [`System`] but watches a set of thread-local flags, so
//! the hot paths the static analyzer proves allocation-free are *also*
//! checked at runtime, across the whole test suite:
//!
//! - [`ScopedAllocGuard::arm`] — panic mode. Armed at the top of
//!   `engine::tick`; any allocation on the engine thread inside the
//!   scope panics unless it happens under an [`AllocRelax`] scope.
//!   Every `AllocRelax` in the engine corresponds to a justification
//!   marker the static `rtsafe` pass accepts — the two mechanisms are
//!   kept in lockstep by review, and a relax scope without a marker
//!   (or vice versa) is a PR defect.
//! - [`ScopedAllocGuard::count`] — count mode. Wrapped around the
//!   fast path's `exec_shard` call; allocations are tallied per-thread
//!   (readable via [`scope_allocs`]) instead of panicking, because
//!   creation/query arms legitimately allocate replies and resources.
//!   The zero-alloc suite asserts the *pure* opcodes tally zero.
//! - [`count_allocs`] — the counting gate the PR 1 zero-alloc tests
//!   used to carry in their own `#[global_allocator]`; it lives here
//!   now because a process gets exactly one global allocator.
//!
//! Release builds get the plain [`System`] allocator (no
//! `#[global_allocator]` attribute at all) and every guard constructor
//! compiles to a unit struct: zero overhead, enforced by the
//! `sentinel_is_compiled_out_of_release` test.

use std::alloc::{GlobalAlloc, Layout, System};
#[cfg(debug_assertions)]
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

#[cfg(debug_assertions)]
#[global_allocator]
static SENTINEL: SentinelAlloc = SentinelAlloc;

#[cfg(debug_assertions)]
thread_local! {
    /// Depth of armed (panic-mode) guards on this thread.
    static ARMED: Cell<u32> = const { Cell::new(0) };
    /// Depth of [`AllocRelax`] scopes on this thread.
    static RELAXED: Cell<u32> = const { Cell::new(0) };
    /// Depth of count-mode guards on this thread.
    static SCOPED: Cell<u32> = const { Cell::new(0) };
    /// Allocations seen under a count-mode guard on this thread.
    static SCOPE_ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// The [`count_allocs`] gate.
    static GATED: Cell<bool> = const { Cell::new(false) };
}

/// Allocations seen while [`count_allocs`]' gate was open, all threads
/// (the gate itself is per-thread, so only the measuring thread adds).
static GATE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

/// A [`System`]-delegating allocator that enforces/observes the RT
/// scopes. All bookkeeping is const-initialised thread-locals and one
/// atomic, so the hooks themselves never allocate.
pub struct SentinelAlloc;

#[cfg(debug_assertions)]
fn note_alloc() {
    // `try_with` because allocation can happen during TLS teardown.
    if GATED.try_with(Cell::get).unwrap_or(false) {
        GATE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    if SCOPED.try_with(Cell::get).unwrap_or(0) > 0 {
        let _ = SCOPE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
    if ARMED.try_with(Cell::get).unwrap_or(0) > 0
        && RELAXED.try_with(Cell::get).unwrap_or(0) == 0
    {
        // Disarm before panicking: boxing the panic payload allocates,
        // which would otherwise re-enter this hook and double-panic.
        let _ = ARMED.try_with(|c| c.set(0));
        panic!(
            "allocation inside an RT-armed scope — a tick-path allocation \
             outside any AllocRelax scope (DESIGN.md §16)"
        );
    }
}

// SAFETY: every operation delegates directly to `System`; the extra
// bookkeeping touches only const-initialised thread-locals and a
// relaxed atomic, and never allocates or unwinds except for the
// deliberate armed-scope panic (which disarms first).
unsafe impl GlobalAlloc for SentinelAlloc {
    // SAFETY: forwards the caller's contract unchanged to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        note_alloc();
        System.alloc(layout)
    }

    // SAFETY: forwards the caller's contract unchanged to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // SAFETY: forwards the caller's contract unchanged to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        #[cfg(debug_assertions)]
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards the caller's contract unchanged to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        #[cfg(debug_assertions)]
        note_alloc();
        System.alloc_zeroed(layout)
    }
}

/// Whether the sentinel allocator is installed (debug builds only).
/// Mirrors the §14 `sanitizer_active` treatment: CI's debug test step
/// asserts this so the suite can't silently run unwatched.
pub fn sentinel_active() -> bool {
    cfg!(debug_assertions)
}

/// An RT scope: panic mode ([`ScopedAllocGuard::arm`]) or count mode
/// ([`ScopedAllocGuard::count`]). Both nest; both are no-ops in release
/// builds.
#[must_use = "the guard protects only while it is alive"]
pub struct ScopedAllocGuard {
    #[cfg(debug_assertions)]
    panic_mode: bool,
}

impl ScopedAllocGuard {
    /// Panic mode: any allocation on this thread while the guard lives
    /// panics, unless inside an [`AllocRelax`] scope.
    pub fn arm() -> ScopedAllocGuard {
        #[cfg(debug_assertions)]
        ARMED.with(|c| c.set(c.get() + 1));
        ScopedAllocGuard {
            #[cfg(debug_assertions)]
            panic_mode: true,
        }
    }

    /// Count mode: allocations on this thread while the guard lives
    /// increment the tally behind [`scope_allocs`].
    pub fn count() -> ScopedAllocGuard {
        #[cfg(debug_assertions)]
        SCOPED.with(|c| c.set(c.get() + 1));
        ScopedAllocGuard {
            #[cfg(debug_assertions)]
            panic_mode: false,
        }
    }
}

impl Drop for ScopedAllocGuard {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.panic_mode {
            // `saturating_sub`: the armed-panic path zeroes the depth
            // before unwinding through this drop.
            ARMED.with(|c| c.set(c.get().saturating_sub(1)));
        } else {
            SCOPED.with(|c| c.set(c.get().saturating_sub(1)));
        }
    }
}

/// Total allocations this thread has made under count-mode guards.
/// Sample before and after to measure one region (the zero-alloc suite
/// measures the fast path's `exec_shard` through this).
pub fn scope_allocs() -> usize {
    #[cfg(debug_assertions)]
    {
        SCOPE_ALLOCS.with(Cell::get)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// A justified-allocation scope: inside it, an armed guard does not
/// panic. Each use in the engine pairs with a justification marker
/// the static `rtsafe` pass accepts — see the module docs.
#[must_use = "the relaxation lasts only while the value is alive"]
pub struct AllocRelax {
    _priv: (),
}

impl AllocRelax {
    /// Opens a relax scope on this thread.
    pub fn scope() -> AllocRelax {
        #[cfg(debug_assertions)]
        RELAXED.with(|c| c.set(c.get() + 1));
        AllocRelax { _priv: () }
    }
}

impl Drop for AllocRelax {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        RELAXED.with(|c| c.set(c.get().saturating_sub(1)));
    }
}

/// Runs `f` under an [`AllocRelax`] scope — shorthand for wrapping one
/// statement whose allocation is justified (pooled-buffer warmup growth,
/// op-boundary work). The justification comment belongs at the call
/// site, next to the code it describes.
pub fn relaxed<R>(f: impl FnOnce() -> R) -> R {
    let _relax = AllocRelax::scope();
    f()
}

/// Runs `f` with this thread's counting gate open and returns how many
/// allocations the thread made. In release builds (no sentinel) this
/// always returns 0 — callers assert equality with 0, which stays true.
pub fn count_allocs(f: impl FnOnce()) -> usize {
    let before = GATE_ALLOCS.load(Ordering::Relaxed);
    #[cfg(debug_assertions)]
    GATED.with(|g| g.set(true));
    f();
    #[cfg(debug_assertions)]
    GATED.with(|g| g.set(false));
    GATE_ALLOCS.load(Ordering::Relaxed) - before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_allocs_sees_boxing() {
        let n = count_allocs(|| {
            let v: Vec<u64> = Vec::with_capacity(32);
            std::hint::black_box(&v);
        });
        if sentinel_active() {
            assert!(n >= 1, "Vec::with_capacity must register");
        } else {
            assert_eq!(n, 0);
        }
    }

    #[test]
    fn count_scope_tallies_and_nests() {
        let before = scope_allocs();
        {
            let _g = ScopedAllocGuard::count();
            let v: Vec<u64> = Vec::with_capacity(8);
            std::hint::black_box(&v);
        }
        let outside: Vec<u64> = Vec::with_capacity(8);
        std::hint::black_box(&outside);
        let delta = scope_allocs() - before;
        if sentinel_active() {
            assert!(delta >= 1, "scoped allocation must tally");
        } else {
            assert_eq!(delta, 0);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn armed_guard_panics_on_allocation() {
        let result = std::panic::catch_unwind(|| {
            let _g = ScopedAllocGuard::arm();
            let v: Vec<u64> = Vec::with_capacity(16);
            std::hint::black_box(&v);
        });
        assert!(result.is_err(), "armed scope must panic on allocation");
        // The panic disarmed the guard; the thread is reusable.
        assert_eq!(ARMED.with(Cell::get), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn relax_scope_permits_allocation() {
        let _g = ScopedAllocGuard::arm();
        let _r = AllocRelax::scope();
        let v: Vec<u64> = Vec::with_capacity(16);
        std::hint::black_box(&v);
    }
}
