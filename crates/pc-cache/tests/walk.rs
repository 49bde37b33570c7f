//! Hinted walks ↔ per-access reads.
//!
//! [`Hierarchy::walk`] promises exactly what reading its lines one at a
//! time with [`Hierarchy::cpu_read`] gives, whatever its hints say.
//! Each case drives two clones of one machine through the same random
//! sequence of steps: walks of a fixed set of line lists (hinted on one
//! side, per-access reads on the other), foreign CPU and I/O traffic
//! into the same sets, flushes and resets, and adversarial rewrites of
//! the walked side's hints — garbage values, values copied from a
//! neighbouring line, the default. The lists cover an eviction set, a
//! congruent list longer than the associativity, a list that repeats an
//! address, a list overlapping the eviction set, lines spread over
//! every slice and set, and the empty list. After every walk the two
//! sides must agree on the walk's `TraceSummary`, the clock, memory
//! traffic, merged and per-slice statistics, and the residency of every
//! listed line; at the end, on the outcome of every access of a
//! follow-up stream. Every DDIO mode runs under every replacement
//! policy, and one adaptive period is short enough that most walks
//! straddle a period boundary.

use pc_cache::{
    AccessKind, AdaptiveConfig, CacheGeometry, DdioMode, Hierarchy, PhysAddr, ReplacementPolicy,
    SlicedCache, TraceSummary, WalkOrder, WayHint,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn modes() -> [DdioMode; 4] {
    [
        DdioMode::Disabled,
        DdioMode::enabled(),
        DdioMode::adaptive(),
        // Period 5: most walks straddle a boundary, so the bulk path
        // must step aside for them.
        DdioMode::Adaptive(AdaptiveConfig {
            period: 5,
            ..AdaptiveConfig::paper_defaults()
        }),
    ]
}

const POLICIES: [ReplacementPolicy; 3] = [
    ReplacementPolicy::Lru,
    ReplacementPolicy::TreePlru,
    ReplacementPolicy::Random,
];

/// `n` distinct lines in `base`'s (slice, set), `base` first.
fn congruent(llc: &SlicedCache, base: PhysAddr, n: usize) -> Vec<PhysAddr> {
    let target = llc.locate(base);
    let stride = (llc.geometry().sets_per_slice() * pc_cache::LINE_SIZE) as u64;
    (0..)
        .map(|k| PhysAddr::new(base.raw() + k * stride))
        .filter(|&a| llc.locate(a) == target)
        .take(n)
        .collect()
}

/// A random line in a small region, so sets conflict.
fn random_line(rng: &mut SmallRng) -> PhysAddr {
    PhysAddr::new(rng.gen_range(0..(1u64 << 12)) * 64)
}

/// One step of a case.
#[derive(Debug)]
enum Step {
    /// Walk list `.0` in order `.1`.
    Walk(usize, WalkOrder),
    /// Rewrite list `.0`'s hints on the walked side (`.1` picks how).
    Scramble(usize, u8),
    /// A foreign CPU access.
    Cpu(PhysAddr, AccessKind),
    /// A foreign I/O access.
    Io(PhysAddr, AccessKind),
    /// `Hierarchy::flush_all` on both sides.
    Flush,
    /// `Hierarchy::reset` on both sides (the walked side keeps its
    /// now-stale hints).
    Reset,
}

/// The walked line lists and the step sequence of one case.
fn case(llc: &SlicedCache, seed: u64) -> (Vec<Vec<PhysAddr>>, Vec<Step>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ways = llc.geometry().ways();
    let bases: Vec<PhysAddr> = (0..3).map(|_| random_line(&mut rng)).collect();
    let mut repeats = congruent(llc, bases[2], ways - 1);
    repeats.insert(2, repeats[0]);
    let lists = vec![
        congruent(llc, bases[0], ways),
        congruent(llc, bases[1], ways + 2),
        repeats,
        congruent(llc, bases[0], ways + 1)[1..].to_vec(),
        (0..6).map(|_| random_line(&mut rng)).collect(),
        Vec::new(),
    ];
    // Foreign traffic lands in the lists' sets as often as elsewhere.
    let mut foreign: Vec<PhysAddr> = bases
        .iter()
        .flat_map(|&b| congruent(llc, b, ways + 4))
        .collect();
    foreign.extend((0..foreign.len()).map(|_| random_line(&mut rng)));
    let steps = (0..300)
        .map(|_| {
            let list = rng.gen_range(0..lists.len());
            let line = foreign[rng.gen_range(0..foreign.len())];
            match rng.gen_range(0..100u32) {
                p if p < 55 => {
                    let order = if rng.gen_bool(0.5) {
                        WalkOrder::Forward
                    } else {
                        WalkOrder::Reverse
                    };
                    Step::Walk(list, order)
                }
                p if p < 65 => Step::Scramble(list, rng.gen_range(0..3)),
                p if p < 80 => Step::Cpu(
                    line,
                    if rng.gen_bool(0.5) {
                        AccessKind::CpuRead
                    } else {
                        AccessKind::CpuWrite
                    },
                ),
                p if p < 95 => Step::Io(
                    line,
                    if rng.gen_bool(0.7) {
                        AccessKind::IoWrite
                    } else {
                        AccessKind::IoRead
                    },
                ),
                p if p < 98 => Step::Flush,
                _ => Step::Reset,
            }
        })
        .collect();
    (lists, steps)
}

/// The oracle walk: one `cpu_read` per line, summarized like a walk.
fn read_each(h: &mut Hierarchy, lines: &[PhysAddr], order: WalkOrder) -> TraceSummary {
    let before = h.memory_stats();
    let hit = h.latencies().llc_hit;
    let mut sum = TraceSummary::default();
    let mut read = |h: &mut Hierarchy, a: PhysAddr| {
        let lat = h.cpu_read(a);
        sum.accesses += 1;
        sum.hits += u64::from(lat == hit);
        sum.cycles += lat;
    };
    match order {
        WalkOrder::Forward => lines.iter().for_each(|&a| read(h, a)),
        WalkOrder::Reverse => lines.iter().rev().for_each(|&a| read(h, a)),
    }
    let after = h.memory_stats();
    sum.dram_reads = after.reads - before.reads;
    sum.dram_writes = after.writes - before.writes;
    sum
}

/// Rewrites `hints` adversarially: garbage (`how == 0`, out-of-range
/// slices and ways included), each copied from the next line's hint
/// (`1`: plausible but wrong), or the default (`2`).
fn scramble(hints: &mut [WayHint], how: u8, rng: &mut SmallRng) {
    let n = hints.len();
    let fresh: Vec<WayHint> = (0..n)
        .map(|i| match how {
            0 => WayHint::new(rng.gen_range(0..=255), rng.gen_range(0..=255)),
            1 => hints[(i + 1) % n].clone(),
            _ => WayHint::default(),
        })
        .collect();
    hints.clone_from_slice(&fresh);
}

fn apply(h: &mut Hierarchy, addr: PhysAddr, kind: AccessKind) {
    match kind {
        AccessKind::CpuRead => h.cpu_read(addr),
        AccessKind::CpuWrite => h.cpu_write(addr),
        AccessKind::IoWrite => h.io_write(addr),
        AccessKind::IoRead => h.io_read(addr),
    };
}

/// Asserts every observable the walk promises to match.
fn assert_same(walked: &Hierarchy, oracle: &Hierarchy, lines: &[PhysAddr], what: &str) {
    assert_eq!(walked.now(), oracle.now(), "{what}: clock");
    assert_eq!(
        walked.memory_stats(),
        oracle.memory_stats(),
        "{what}: memory traffic"
    );
    assert_eq!(walked.llc().stats(), oracle.llc().stats(), "{what}: stats");
    for slice in 0..oracle.llc().geometry().slices() {
        assert_eq!(
            walked.llc().slice_stats(slice),
            oracle.llc().slice_stats(slice),
            "{what}: slice {slice} stats"
        );
    }
    for &a in lines {
        assert_eq!(
            walked.llc().contains(a),
            oracle.llc().contains(a),
            "{what}: residency of {a}"
        );
    }
}

fn check(geom: CacheGeometry, mode: DdioMode, policy: ReplacementPolicy, seed: u64) {
    let llc = SlicedCache::with_policy_and_seed(geom, mode, policy, seed);
    let (lists, steps) = case(&llc, seed);
    let all_lines: Vec<PhysAddr> = lists.iter().flatten().copied().collect();
    let mut walked = Hierarchy::with_llc(llc);
    let mut oracle = walked.clone();
    let mut hints: Vec<Vec<WayHint>> = lists
        .iter()
        .map(|l| vec![WayHint::default(); l.len()])
        .collect();
    let mut rng = SmallRng::seed_from_u64(!seed);
    for (i, step) in steps.iter().enumerate() {
        let what = format!("seed {seed}, {mode:?}, {policy:?}, step {i} {step:?}");
        match *step {
            Step::Walk(l, order) => {
                let got = walked.walk(&lists[l], &hints[l], order);
                let want = read_each(&mut oracle, &lists[l], order);
                assert_eq!(got, want, "{what}: summary");
                assert_same(&walked, &oracle, &all_lines, &what);
            }
            Step::Scramble(l, how) => scramble(&mut hints[l], how, &mut rng),
            Step::Cpu(a, kind) | Step::Io(a, kind) => {
                apply(&mut walked, a, kind);
                apply(&mut oracle, a, kind);
            }
            Step::Flush => {
                walked.flush_all();
                oracle.flush_all();
            }
            Step::Reset => {
                walked.reset(geom, mode);
                oracle.reset(geom, mode);
            }
        }
    }
    let what = format!("seed {seed}, {mode:?}, {policy:?}");
    assert_same(&walked, &oracle, &all_lines, &format!("{what}, end"));
    for k in 0..500 {
        let a = random_line(&mut rng);
        let kind = [
            AccessKind::CpuRead,
            AccessKind::CpuWrite,
            AccessKind::IoWrite,
            AccessKind::IoRead,
        ][rng.gen_range(0..4)];
        assert_eq!(
            walked.llc_mut().access(a, kind),
            oracle.llc_mut().access(a, kind),
            "{what}: follow-up access {k} ({kind:?} {a})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hinted walks equal per-access reads on a tiny two-slice cache
    /// and a four-slice, six-way one, every mode × policy.
    #[test]
    fn hinted_walks_equal_per_access_reads(seed in 0u64..1_000_000) {
        for geom in [CacheGeometry::tiny(), CacheGeometry::new(5, 4, 6)] {
            for mode in modes() {
                for policy in POLICIES {
                    check(geom, mode, policy, seed);
                }
            }
        }
    }
}

/// A hint refreshed by one walk is checked, not trusted, by the next:
/// after a foreign fill displaces one line of a primed eviction set,
/// the walk sees exactly the misses the per-access reads see.
#[test]
fn a_stale_hint_is_a_miss_not_a_hit() {
    let geom = CacheGeometry::tiny();
    let mut walked = Hierarchy::new(geom, DdioMode::enabled());
    let lines = congruent(walked.llc(), PhysAddr::new(0x4000), geom.ways() + 1);
    let (set, intruder) = (&lines[..geom.ways()], lines[geom.ways()]);
    let hints = vec![WayHint::default(); set.len()];
    walked.walk(set, &hints, WalkOrder::Forward);
    let mut oracle = walked.clone();
    assert_eq!(
        walked.walk(set, &hints, WalkOrder::Reverse).hits,
        set.len() as u64,
        "a primed set's reverse walk is all hits"
    );
    read_each(&mut oracle, set, WalkOrder::Reverse);
    walked.cpu_read(intruder);
    oracle.cpu_read(intruder);
    let got = walked.walk(set, &hints, WalkOrder::Reverse);
    let want = read_each(&mut oracle, set, WalkOrder::Reverse);
    assert!(got.hits < set.len() as u64, "the intruder displaced a line");
    assert_eq!(got, want);
    assert_same(&walked, &oracle, &lines, "after the intrusion");
}
