//! Hinted walks: replaying a fixed list of CPU reads from remembered
//! line positions.
//!
//! PRIME+PROBE re-reads the same lines over and over, and nearly every
//! probe finds all of them still cached. Each line of such a walk
//! carries a [`WayHint`]: the (slice, way) where the walk last found
//! it. [`crate::Hierarchy::walk`] checks the hinted way before hashing
//! the address and scanning its set.
//!
//! **Why a matching hint is exactly the hit the scan would find.** The
//! line address is determined by its set index and tag, so a valid way
//! of set `set_index(addr)` holding `tag(addr)` holds this very line.
//! Every fill goes through the slice hash, so the line only ever lives
//! in the slice its hash names; and tags are unique within a set, so
//! the scan's first match is that same way. The hit path that follows
//! is the ordinary one, fault hooks included. A stale or garbage hint
//! only costs the check: the read then takes the ordinary path and the
//! hint is refreshed.
//!
//! **Bulk.** When every line of a walk matches in one (slice, set), the
//! per-access walk would be `k` hits, and hits never evict. The walk
//! then applies them at once: `k` recency touches in walk order, `k`
//! defense-clock ticks and hits, `k × llc_hit` cycles. An adaptive
//! period boundary inside those `k` ticks sends the walk down the
//! per-line path instead.
//!
//! Hints change speed, never results: `tests/walk.rs` holds hinted
//! walks against per-access `cpu_read`s, with stale and garbage hints.

use std::sync::atomic::{AtomicU16, Ordering};

/// Where a walk last found one of its lines: a (slice, way) guess.
///
/// A relaxed atomic, so a walk can refresh the hints of a primitive it
/// holds by shared reference. Any value is safe: a hint that does not
/// name the line's current position is a miss of the check, nothing
/// more. The default hint names no slice, so a walk's first read of a
/// line skips the check without touching the cache's memory.
#[derive(Debug)]
pub struct WayHint(AtomicU16);

impl Default for WayHint {
    fn default() -> Self {
        WayHint::new(u8::MAX, u8::MAX)
    }
}

impl WayHint {
    /// A hint naming `way` of `slice`; out-of-range values are allowed
    /// (they never match).
    pub fn new(slice: u8, way: u8) -> Self {
        WayHint(AtomicU16::new(u16::from(slice) << 8 | u16::from(way)))
    }

    /// The hinted `(slice, way)`.
    #[inline]
    pub(crate) fn get(&self) -> (usize, usize) {
        let v = self.0.load(Ordering::Relaxed);
        (usize::from(v >> 8), usize::from(v & 0xff))
    }

    /// Points the hint at `(slice, way)` (both below 256: slices are at
    /// most 8 and ways at most 64).
    #[inline]
    pub(crate) fn set(&self, slice: usize, way: usize) {
        self.0
            .store((slice as u16) << 8 | way as u16, Ordering::Relaxed);
    }
}

impl Clone for WayHint {
    fn clone(&self) -> Self {
        WayHint(AtomicU16::new(self.0.load(Ordering::Relaxed)))
    }
}

/// The order in which [`crate::Hierarchy::walk`] reads its lines.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum WalkOrder {
    /// First line to last (a prime).
    Forward,
    /// Last line to first (a probe: the classic zig-zag).
    Reverse,
}
