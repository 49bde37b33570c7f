//! Property-based tests for the attacker toolkit.

use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr, SliceSet};
use pc_probe::{
    build_eviction_sets_for_index, calibrate_threshold, oracle_eviction_sets, AddressPool,
    PrimeProbe,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Oracle eviction sets are always homogeneous (one slice-set),
    /// exactly `ways` long, and drawn from the pool: each is the naive
    /// definition — the pool's lines at the target's (slice, set), in
    /// pool order, first `ways` of them — and a batched call returns
    /// exactly what one call per target would.
    #[test]
    fn oracle_sets_are_well_formed(
        targets in proptest::collection::vec((0usize..8, 0usize..2048), 1..6),
        seed in 0u64..100,
    ) {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let ways = h.llc().geometry().ways();
        let pool = AddressPool::allocate(seed, 12288);
        let targets: Vec<SliceSet> =
            targets.into_iter().map(|(slice, set)| SliceSet::new(slice, set)).collect();
        let sets = oracle_eviction_sets(h.llc(), &pool, &targets);
        prop_assert_eq!(sets.len(), targets.len());
        for (set, &target) in sets.iter().zip(&targets) {
            let naive: Vec<PhysAddr> = pool
                .pages()
                .iter()
                .flat_map(|p| (0..64).map(move |line| p.add_blocks(line)))
                .filter(|&a| h.llc().locate(a) == target)
                .take(ways)
                .collect();
            prop_assert_eq!(set.addresses(), &naive[..]);
            prop_assert_eq!(set.len(), ways);
            let single = oracle_eviction_sets(h.llc(), &pool, &[target]);
            prop_assert_eq!(&single[..], std::slice::from_ref(set));
        }
    }

    /// The grouped construction equals the per-target filter it
    /// replaced — each target's first `ways` pool addresses at its set
    /// index that hash to its slice — on unsorted target lists with
    /// repeats, drawn from at most three set indices so that many
    /// slices share one index.
    #[test]
    fn grouped_oracle_sets_equal_the_per_target_filter(
        indices in proptest::collection::vec(0usize..2048, 1..4),
        picks in proptest::collection::vec((0usize..8, 0usize..3), 1..40),
        seed in 0u64..100,
    ) {
        let h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let geom = h.llc().geometry();
        let hash = h.llc().slice_hash();
        let pool = AddressPool::allocate(seed, 12288);
        let targets: Vec<SliceSet> = picks
            .iter()
            .map(|&(slice, k)| SliceSet::new(slice, indices[k % indices.len()]))
            .collect();
        let sets = oracle_eviction_sets(h.llc(), &pool, &targets);
        prop_assert_eq!(sets.len(), targets.len());
        for (set, t) in sets.iter().zip(&targets) {
            let filtered: Vec<PhysAddr> = pool
                .addresses_with_index(&geom, t.set)
                .into_iter()
                .filter(|&a| hash.slice_of(a) == t.slice)
                .take(geom.ways())
                .collect();
            prop_assert_eq!(set.addresses(), &filtered[..]);
        }
    }

    /// A primed set detects exactly the I/O writes aimed at it: activity
    /// after a hit on the monitored set, silence for misses elsewhere.
    #[test]
    fn prime_probe_detects_exactly_its_set(page in 0u64..4000, seed in 0u64..50) {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(seed + 1, 12288);
        let victim = PhysAddr::new(page * 4096);
        let target = h.llc().locate(victim);
        let set = oracle_eviction_sets(h.llc(), &pool, &[target]).remove(0);
        let pp = PrimeProbe::new(set, h.latencies().miss_threshold());
        pp.prime(&mut h);
        prop_assert!(!pp.probe(&mut h).activity(), "clean probe after prime");
        h.io_write(victim);
        prop_assert!(pp.probe(&mut h).activity(), "I/O write must be seen");
        // A write to a different *line offset* (other set) is invisible.
        h.io_write(victim.add_blocks(1));
        prop_assert!(!pp.probe(&mut h).activity());
    }

    /// Calibration lands strictly between the hit and miss latencies for
    /// any sample count.
    #[test]
    fn calibration_separates(samples in 1usize..64) {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(3, 256);
        let thr = calibrate_threshold(&mut h, &pool, samples);
        prop_assert!(thr > h.latencies().llc_hit);
        prop_assert!(thr <= h.latencies().dram);
    }
}

/// Timing-based construction agrees with ground truth for several seeds
/// (moved out of proptest: each case is expensive).
#[test]
fn timing_construction_matches_oracle_across_seeds() {
    for seed in [11u64, 22, 33] {
        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
        let pool = AddressPool::allocate(seed, 8192);
        let thr = h.latencies().miss_threshold();
        let groups = build_eviction_sets_for_index(&mut h, &pool, 64, 20, 8, thr);
        assert!(
            groups.len() >= 6,
            "seed {seed}: only {} groups",
            groups.len()
        );
        for g in &groups {
            let ss = h.llc().locate(g.addresses()[0]);
            assert!(g.addresses().iter().all(|a| h.llc().locate(*a) == ss));
        }
    }
}
