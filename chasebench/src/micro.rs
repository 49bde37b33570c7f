//! Traced fleet runs only: the NIC emit path and the LLC replay path
//! timed apart, on the fleet's own receive traffic.
//!
//! The fleet's test-bed tenants (web-mix, kv-store, dns-flood,
//! large-transfer) take their frames through `IgbDriver::receive_fused`.
//! [`tenant_schedule`] rebuilds, from the public pc-net generators, the
//! schedule each of those tenants enqueues, and [`check`]
//! (`chasebench traffic`) proves the rebuild exact: it replays every
//! rebuilt schedule on a fresh test bed and prints the tenant outcome,
//! which the orchestrator compares with the fleet's own. The defense
//! tenants (tcp-recv, nginx, file-copy) receive through pc-defense's
//! burst path and are not part of this traffic.
//!
//! `pc-nic.emit_ns_per_frame` times `receive_fused` over every such
//! tenant's frames, a fresh driver per tenant as each tenant has a bed
//! of its own, into one `OpBuffer` per DDIO mode; it never touches a
//! hierarchy. `pc-cache.replay_ns_per_op.{1t,wide}` times
//! `Hierarchy::run_ops` on those buffers, each on a fresh hierarchy in
//! its mode, at one worker and at the host's width. Each is the median
//! of several rounds.

use crate::count;
use crate::fleet::{jobs, tenant_mode, tenant_seed};
use pc_bench::fleet::{FleetConfig, TenantOutcome};
use pc_bench::scenario::{ScenarioSpec, TenantMetrics};
use pc_cache::{CacheGeometry, DdioMode, Hierarchy, OpBuffer};
use pc_core::{TestBed, TestBedConfig};
use pc_net::{
    ArrivalSchedule, ClosedWorld, ConstantSize, EthernetFrame, FlowCycle, LineRate, ScheduledFrame,
    TraceReplay, UniformSizes,
};
use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::num::NonZeroUsize;
use std::time::Instant;

const ROUNDS: usize = 5;

fn median(mut v: Vec<u64>) -> u64 {
    v.sort_unstable();
    v[v.len() / 2]
}

/// The schedule a fleet tenant of `spec` enqueues on its test bed,
/// starting at cycle `start`, or `None` for a tenant without one. The
/// generators and seeds are those of `ScenarioSpec::web_mix_sizes` (at
/// the registry's mix: every site weight 1) and
/// `ScenarioSpec::flow_schedule`.
pub fn tenant_schedule(
    spec: &ScenarioSpec,
    units: u64,
    seed: u64,
    start: u64,
) -> Option<Vec<ScheduledFrame>> {
    if !matches!(
        spec.name(),
        "web-mix" | "kv-store" | "dns-flood" | "large-transfer"
    ) {
        return None;
    }
    let arrival = spec.arrival();
    let sched = ArrivalSchedule::new(LineRate::gigabit())
        .frames_per_second(arrival.fps)
        .jitter(arrival.jitter);
    let count = units as usize;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xf7_0b);
    Some(match spec.name() {
        "web-mix" => {
            let mut page_rng = SmallRng::seed_from_u64(seed ^ 0x3eb);
            let mut sizes = Vec::new();
            for _round in 0..units {
                for site in ClosedWorld::paper_five_sites().sites() {
                    sizes.extend(site.page_load(0.1, &mut page_rng).iter().map(|f| f.bytes()));
                }
            }
            let frames = sizes.len();
            let mut srng = SmallRng::seed_from_u64(seed + 5);
            sched.generate(&mut TraceReplay::new(sizes), start, frames, &mut srng)
        }
        "kv-store" => {
            let mut trng = SmallRng::seed_from_u64(seed ^ 0x6e7);
            let sizes = (0..count)
                .map(|_| {
                    if trng.gen::<f64>() < 0.8 {
                        trng.gen_range(64..=160)
                    } else {
                        trng.gen_range(320..=1024)
                    }
                })
                .collect();
            let mut gen = FlowCycle::clients(TraceReplay::new(sizes), 16, 6379);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        "dns-flood" => {
            let mut gen = FlowCycle::clients(UniformSizes::new(64, 96), 64, 53);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        "large-transfer" => {
            let mut gen = FlowCycle::clients(ConstantSize::new(EthernetFrame::mtu_sized()), 4, 443);
            sched.generate(&mut gen, start, count, &mut rng)
        }
        _ => unreachable!("checked above"),
    })
}

/// A fresh test bed for a fleet tenant of `spec`, as its tenant run
/// builds one.
fn tenant_bed(spec: &ScenarioSpec, mode: DdioMode, seed: u64) -> TestBed {
    TestBed::new(TestBedConfig {
        ddio: mode,
        ..TestBedConfig::paper_baseline()
            .with_seed(seed)
            .with_queues(spec.queues())
    })
}

/// Every fleet tenant with a test bed: `(tenant, template, seed,
/// mode name, mode, frames)`, in tenant order.
type TenantTraffic = (
    usize,
    usize,
    u64,
    &'static str,
    DdioMode,
    Vec<ScheduledFrame>,
);

fn fleet_traffic(cfg: &FleetConfig) -> Vec<TenantTraffic> {
    jobs(cfg)
        .into_iter()
        .filter_map(|(tenant, template)| {
            let spec = &cfg.templates[template].spec;
            let units = cfg.scale.pick(spec.duration().quick, spec.duration().full);
            let seed = tenant_seed(cfg, tenant);
            let (name, mode) = tenant_mode(spec);
            // A fresh bed's clock reads 0, so a tenant run's schedule
            // starts at cycle 1 ([`check`] replays it on one).
            let frames = tenant_schedule(spec, units, seed, 1)?;
            Some((tenant, template, seed, name, mode, frames))
        })
        .collect()
}

/// `chasebench traffic`: each rebuilt schedule replayed on a fresh
/// test bed, as the outcome `run_fleet_outcomes` reports for that
/// tenant.
pub fn check(cfg: &FleetConfig) -> Vec<(String, String)> {
    fleet_traffic(cfg)
        .into_iter()
        .map(|(tenant, template, seed, name, mode, frames)| {
            let spec = &cfg.templates[template].spec;
            let mut tb = tenant_bed(spec, mode, seed);
            let units = frames.len() as u64;
            tb.enqueue(frames);
            let t0 = tb.now();
            tb.drain();
            let metrics = TenantMetrics {
                mode: name,
                unit: "frames",
                units,
                elapsed_cycles: tb.now() - t0,
                llc: tb.hierarchy().llc().stats(),
                dram_lines: tb.hierarchy().memory_stats().total(),
            };
            let outcome = TenantOutcome {
                tenant,
                template,
                metrics,
            };
            (format!("tenant{tenant}"), format!("{outcome:?}"))
        })
        .collect()
}

/// Times both paths on the fleet's traffic and records the medians as
/// counters (integer picoseconds, so they survive the integer counter
/// format).
pub fn nic_and_cache(cfg: &FleetConfig) {
    let traffic = fleet_traffic(cfg);
    let frames: usize = traffic.iter().map(|t| t.5.len()).sum();
    // One buffer per DDIO mode, in first-seen order.
    let mut buffers: Vec<(&'static str, DdioMode, OpBuffer)> = Vec::new();
    for &(_, _, _, name, mode, _) in &traffic {
        if !buffers.iter().any(|b| b.0 == name) {
            buffers.push((name, mode, OpBuffer::new()));
        }
    }
    let mut emit = || {
        for b in &mut buffers {
            b.2.clear();
        }
        let mut ns = 0;
        for (_, _, seed, name, mode, schedule) in &traffic {
            let ops = &mut buffers
                .iter_mut()
                .find(|b| b.0 == *name)
                .expect("every mode has a buffer")
                .2;
            let mut rng = SmallRng::seed_from_u64(*seed);
            let mut driver = IgbDriver::new(
                DriverConfig::paper_defaults(),
                PageAllocator::new(*seed),
                &mut rng,
            );
            let ddio = mode.allocates_in_llc();
            let t = Instant::now();
            for f in schedule {
                driver.receive_fused(ops, ddio, f.frame, &mut rng);
            }
            ns += t.elapsed().as_nanos() as u64;
        }
        ns
    };
    let emit_ns = median((0..ROUNDS).map(|_| emit()).collect());
    count(
        "pc-nic.emit_ps_per_frame",
        emit_ns * 1000 / frames.max(1) as u64,
    );

    let ops: usize = buffers.iter().map(|b| b.2.len()).sum();
    let width = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let saved = std::env::var("PC_BENCH_THREADS").ok();
    for (key, threads) in [
        ("pc-cache.replay_ps_per_op.1t", 1),
        ("pc-cache.replay_ps_per_op.wide", width),
    ] {
        // `run_ops` reads its width from the environment; nothing else
        // runs while it is changed.
        std::env::set_var("PC_BENCH_THREADS", threads.to_string());
        if key.ends_with(".wide") {
            // The width `run_ops` reads, for the self-test.
            count("pc-cache.replay_threads.wide", pc_par::max_threads() as u64);
        }
        let replay_ns = median(
            (0..ROUNDS)
                .map(|_| {
                    let mut ns = 0;
                    for (_, mode, buf) in &buffers {
                        let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), *mode);
                        let t = Instant::now();
                        std::hint::black_box(h.run_ops(buf));
                        ns += t.elapsed().as_nanos() as u64;
                    }
                    ns
                })
                .collect(),
        );
        count(key, replay_ns * 1000 / ops.max(1) as u64);
    }
    match saved {
        Some(v) => std::env::set_var("PC_BENCH_THREADS", v),
        None => std::env::remove_var("PC_BENCH_THREADS"),
    }
}
