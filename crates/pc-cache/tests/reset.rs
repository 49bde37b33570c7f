//! In-place reset ↔ fresh build equivalence.
//!
//! [`SlicedCache::reset`] and [`Hierarchy::reset`] promise the state a
//! fresh build has, reusing the allocations. Each case dirties a cache
//! with a random op stream in one DDIO mode, resets it into another,
//! and checks it against a freshly built cache with the same policy and
//! seed: statistics (merged and per slice), then residency, domain
//! counts and partition limits over every set either stream touches,
//! then the outcome of every access of an identical follow-up stream,
//! and the state once more after it. Every mode pair runs under every
//! replacement policy; `Random` makes a missed RNG reseed visible.
//!
//! A same-shape reset must also allocate nothing — a counting global
//! allocator (per thread, so parallel tests don't interfere) pins that.

use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, CacheOp, DdioMode, Domain, Hierarchy, PhysAddr,
    ReplacementPolicy, SlicedCache,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const SEED: u64 = 0x5eed_7e57;

fn modes() -> [DdioMode; 3] {
    [
        DdioMode::Disabled,
        DdioMode::enabled(),
        // A short period so the dirtying stream runs many evaluations
        // and ends mid-period with sets on the worklists.
        DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        }),
    ]
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Random,
];

/// Mixed kinds over a small region, so sets conflict and fill up.
fn op_stream(seed: u64, len: usize) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let addr = PhysAddr::new(rng.gen_range(0..(1u64 << 12)) * 64);
            let kind = match rng.gen_range(0..4u32) {
                0 => AccessKind::CpuRead,
                1 => AccessKind::CpuWrite,
                2 => AccessKind::IoWrite,
                _ => AccessKind::IoRead,
            };
            CacheOp::new(addr, kind)
        })
        .collect()
}

/// Asserts every observable the reset promises to restore.
fn assert_same_state(got: &SlicedCache, want: &SlicedCache, addrs: &[PhysAddr], what: &str) {
    assert_eq!(got.stats(), want.stats(), "{what}: merged stats");
    for slice in 0..want.geometry().slices() {
        assert_eq!(
            got.slice_stats(slice),
            want.slice_stats(slice),
            "{what}: slice {slice} stats"
        );
    }
    for &addr in addrs {
        let ss = want.locate(addr);
        assert_eq!(got.contains(addr), want.contains(addr), "{what}: {addr}");
        for domain in [Domain::Cpu, Domain::Io] {
            assert_eq!(
                got.domain_count(ss, domain),
                want.domain_count(ss, domain),
                "{what}: {domain:?} lines in {ss}"
            );
        }
        assert_eq!(
            got.io_partition_limit(ss),
            want.io_partition_limit(ss),
            "{what}: partition of {ss}"
        );
    }
}

/// Dirties a `from`-mode cache, resets it into `geom`/`to`, and holds
/// it against a fresh `with_policy_and_seed(geom, to, …)`.
fn check_reset(
    from_geom: CacheGeometry,
    geom: CacheGeometry,
    from: DdioMode,
    to: DdioMode,
    policy: ReplacementPolicy,
) {
    let what = format!("{from:?} -> {to:?} under {policy:?}");
    let dirtying = op_stream(1, 20_000);
    let follow_up = op_stream(2, 20_000);
    let addrs: Vec<PhysAddr> = dirtying
        .iter()
        .chain(&follow_up)
        .map(|op| op.addr)
        .collect();

    let mut reset = SlicedCache::with_policy_and_seed(from_geom, from, policy, SEED);
    reset.access_batch_threads(&dirtying, 1);
    reset.reset(geom, to);
    let mut fresh = SlicedCache::with_policy_and_seed(geom, to, policy, SEED);
    assert_eq!(reset.geometry(), geom, "{what}");
    assert_eq!(reset.mode(), to, "{what}");
    assert_same_state(&reset, &fresh, &addrs, &format!("{what}, after reset"));

    for (i, op) in follow_up.iter().enumerate() {
        assert_eq!(
            reset.access(op.addr, op.kind),
            fresh.access(op.addr, op.kind),
            "{what}: follow-up op {i}"
        );
    }
    assert_same_state(&reset, &fresh, &addrs, &format!("{what}, after follow-up"));
}

#[test]
fn reset_equals_a_fresh_build_for_every_mode_pair_and_policy() {
    let geom = CacheGeometry::tiny();
    for policy in POLICIES {
        for from in modes() {
            for to in modes() {
                check_reset(geom, geom, from, to, policy);
            }
        }
    }
}

#[test]
fn reset_into_another_geometry_equals_a_fresh_build() {
    let small = CacheGeometry::tiny();
    let large = CacheGeometry::new(5, 4, 6);
    for policy in POLICIES {
        for (from_geom, geom) in [(small, large), (large, small)] {
            check_reset(
                from_geom,
                geom,
                DdioMode::adaptive(),
                DdioMode::enabled(),
                policy,
            );
        }
    }
}

#[test]
fn hierarchy_reset_restarts_clock_and_memory_traffic() {
    let geom = CacheGeometry::tiny();
    let ops = op_stream(3, 10_000);
    for policy in POLICIES {
        let llc = SlicedCache::with_policy_and_seed(geom, DdioMode::Disabled, policy, SEED);
        let mut reset = Hierarchy::with_llc(llc);
        reset.run_trace(ops.iter().copied());
        assert!(reset.now() > 0 && reset.memory_stats().total() > 0);
        reset.reset(geom, DdioMode::adaptive());
        let mut fresh = Hierarchy::with_llc(SlicedCache::with_policy_and_seed(
            geom,
            DdioMode::adaptive(),
            policy,
            SEED,
        ));
        assert_eq!(reset.now(), 0);
        assert_eq!(reset.memory_stats(), fresh.memory_stats());
        assert_eq!(
            reset.run_trace(ops.iter().copied()),
            fresh.run_trace(ops.iter().copied()),
            "{policy:?}"
        );
        assert_eq!(reset.now(), fresh.now(), "{policy:?}");
        assert_eq!(reset.memory_stats(), fresh.memory_stats(), "{policy:?}");
        assert_eq!(reset.llc().stats(), fresh.llc().stats(), "{policy:?}");
    }
}

// --- no allocation on a same-shape reset -----------------------------

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while thread-locals are torn
    // down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: forwards every call to the system allocator unchanged; the
// thread-local counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn same_shape_reset_allocates_nothing() {
    let geom = CacheGeometry::xeon_e5_2660();
    let ops = op_stream(4, 50_000);
    for policy in POLICIES {
        let llc = SlicedCache::with_policy_and_seed(geom, DdioMode::adaptive(), policy, SEED);
        let mut h = Hierarchy::with_llc(llc);
        h.run_trace(ops.iter().copied());
        for mode in modes() {
            let n = allocations_during(|| h.reset(geom, mode));
            assert_eq!(n, 0, "{policy:?} reset into {mode:?} allocated {n} times");
            h.run_trace(ops.iter().copied());
        }
    }
    // The counter does see allocations: a growing reset must allocate.
    let mut h = Hierarchy::new(CacheGeometry::tiny(), DdioMode::enabled());
    assert!(allocations_during(|| h.reset(geom, DdioMode::enabled())) > 0);
}
