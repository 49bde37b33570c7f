//! Kill test for the walk-level fault site: `unverified-walk-hint`
//! lets a hinted walk's bulk path take one keyed line's way hint on
//! trust, and the hinted ↔ per-access differential must notice for
//! every seed.
//!
//! The detector monitors 64 distinct sets and runs the monitor's
//! hinted walks (`Monitor::prime_all`, `Monitor::sample_misses`)
//! against the same reads issued one at a time with `cpu_read` on a
//! clone taken before the first prime. Between samples the NIC writes
//! to a rotating third of the victims and a foreign CPU read lands on
//! a rotating fifth, each evicting one primed line. Odd rounds re-prime
//! first, so the evicted line is the first of the set rather than the
//! last: 128 distinct stale lines in all, enough that every keyed
//! modulus in the catalog (5..=13) hits one. The rows, clock, memory
//! traffic and LLC statistics are compared after every step. The
//! per-access reads never consult the walk hooks, so they are the
//! oracle; the no-fault run of the same detector is the negative
//! control.

use pc_cache::fault::{self, FaultSite, FaultSpec};
use pc_cache::{CacheGeometry, DdioMode, Hierarchy, PhysAddr, SliceSet};
use pc_probe::{oracle_eviction_sets, AddressPool, Monitor, MonitorTarget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

static LOCK: Mutex<()> = Mutex::new(());

fn serialized() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The first observable difference between the walked machine and the
/// per-access one, if any.
fn differs(walked: &Hierarchy, oracle: &Hierarchy) -> Option<&'static str> {
    if walked.now() != oracle.now() {
        return Some("clock");
    }
    if walked.memory_stats() != oracle.memory_stats() {
        return Some("memory traffic");
    }
    if walked.llc().stats() != oracle.llc().stats() {
        return Some("LLC stats");
    }
    None
}

/// Runs the hinted ↔ per-access differential and returns the first
/// divergence, if any.
fn detect() -> Option<String> {
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let pool = AddressPool::allocate(6, 16384);
    let mut victims: Vec<PhysAddr> = Vec::new();
    let mut sets: Vec<SliceSet> = Vec::new();
    for page in 0..8000u64 {
        if sets.len() >= 64 {
            break;
        }
        let v = PhysAddr::new(page * 4096);
        let ss = h.llc().locate(v);
        if !sets.contains(&ss) {
            sets.push(ss);
            victims.push(v);
        }
    }
    let threshold = h.latencies().miss_threshold();
    let m = Monitor::new(
        oracle_eviction_sets(h.llc(), &pool, &sets)
            .into_iter()
            .enumerate()
            .map(|(i, set)| MonitorTarget::new(i, set, threshold))
            .collect(),
    );
    let mut oracle = h.clone();
    let prime = |h: &mut Hierarchy, oracle: &mut Hierarchy| {
        m.prime_all(h);
        for t in m.targets() {
            for &a in t.probe.eviction_set().addresses() {
                oracle.cpu_read(a);
            }
        }
    };
    prime(&mut h, &mut oracle);
    if let Some(d) = differs(&h, &oracle) {
        return Some(format!("{d} after the first prime"));
    }
    for round in 0..6usize {
        if round % 2 == 1 {
            prime(&mut h, &mut oracle);
        }
        for (i, &v) in victims.iter().enumerate() {
            if i % 3 == round % 3 {
                h.io_write(v);
                oracle.io_write(v);
            }
            if i % 5 == round % 5 {
                h.cpu_read(v);
                oracle.cpu_read(v);
            }
        }
        let walked = m.sample_misses(&mut h);
        let per_access: Vec<u32> = m
            .targets()
            .iter()
            .map(|t| {
                let lines = t.probe.eviction_set().addresses();
                lines
                    .iter()
                    .rev()
                    .filter(|&&a| oracle.cpu_read(a) >= threshold)
                    .count() as u32
            })
            .collect();
        if walked != per_access {
            return Some(format!("sample row diverged (round {round})"));
        }
        if let Some(d) = differs(&h, &oracle) {
            return Some(format!("{d} after the sample (round {round})"));
        }
    }
    None
}

#[test]
fn unverified_walk_hint_is_killed_for_every_seed() {
    let _g = serialized();
    let mut survivors = Vec::new();
    for seed in 0..4u64 {
        fault::arm(FaultSpec {
            site: FaultSite::UnverifiedWalkHint,
            seed,
            nth: None,
        });
        let outcome = catch_unwind(AssertUnwindSafe(detect));
        fault::disarm();
        if matches!(outcome, Ok(None)) {
            survivors.push(format!("unverified-walk-hint:{seed} survived"));
        }
    }
    assert!(
        survivors.is_empty(),
        "surviving mutants:\n{}",
        survivors.join("\n")
    );
}

/// Negative control: no fault armed → the hinted walks are
/// byte-identical to per-access reads.
#[test]
fn hinted_and_per_access_agree_with_no_fault_armed() {
    let _g = serialized();
    fault::disarm();
    assert_eq!(detect(), None);
}
