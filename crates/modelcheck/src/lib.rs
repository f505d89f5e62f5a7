//! Systematic correctness tooling for the desktop-audio server.
//!
//! Three complementary instruments, all dependency-free so they can run
//! in CI on every push:
//!
//! - [`explore`]: a bounded explicit-state model checker in the TLC
//!   tradition. It drives an in-memory [`da_server::Core`] through every
//!   interleaving of a small request alphabet (queue control, enqueue of
//!   nested `CoBegin`/`Delay` brackets, activation push/pop/restack, wire
//!   connect/disconnect, manager disconnect — the state machines of paper
//!   §5.4/§5.5/§5.8) from a set of seed topologies, deduplicating states
//!   by a canonical fingerprint and checking the full
//!   [`da_server::validate`] oracle plus temporal invariants after every
//!   transition. A violation is shrunk to a minimal trace and
//!   pretty-printed as a replayable test.
//! - [`fuzz`]: a structure-aware fuzzer for the `da-proto` wire codec:
//!   grammar-based generators for every request/reply/event shape plus
//!   byte-level mutators (truncation, length-prefix corruption, opcode
//!   splicing), checking round-trip identity, panic-freedom on arbitrary
//!   bytes, and `has_reply`/dispatch agreement.
//!
//! - [`soak`]: a concurrency soak that churns many short fault-injected
//!   Alib client sessions (via [`da_proto::fault::FaultyDuplex`]) against
//!   a live in-process server, asserting the validate catalog, engine
//!   liveness, and complete disconnect cleanup after every wave.
//!
//! The fast path's lock protocol is not modeled here: it is a type
//! (`da_server::fastpath::ShardView::striped`), watched at runtime by
//! the debug borrow sanitizer that every debug run of these tools
//! carries, and checked statically by `xtask races` (DESIGN.md §14).
//!
//! All are exposed through the workspace automation binary:
//! `cargo run -p xtask -- explore`, `-- fuzz`, and `-- soak`.

pub mod explore;
pub mod fuzz;
pub mod soak;
pub mod world;

pub use explore::{Breach, Config, Counterexample, Fault, Report};
pub use world::{Action, Root, Seed, World};

/// Deterministic xorshift64* PRNG.
///
/// The vendored `rand` shim seeds itself from the wall clock, which would
/// make fuzzing runs unreproducible; the checker and fuzzer instead share
/// this self-contained generator whose whole state is the `--seed`
/// argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Creates a generator from a seed (0 is remapped so the state never
    /// sticks at zero).
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..bound` (`bound` 0 yields 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform `u8`.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Coin flip.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

#[cfg(test)]
mod tests {
    use super::Rng;

    #[test]
    fn rng_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Rng::new(0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }
}
