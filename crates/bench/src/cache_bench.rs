//! Shared trace definitions for the LLC hot-path microbenchmark.
//!
//! Used by two consumers that must agree on the workload: the
//! `cache_throughput` Criterion bench (interactive measurement) and the
//! `repro bench-cache` subcommand (emits `BENCH_cache.json` so the perf
//! trajectory is tracked across PRs on one fixed workload).
//!
//! Four engines are timed on every (shape, mode) case:
//!
//! * `soa` — the scalar access loop over the SoA store (one thread);
//! * `sharded` — the same store replayed through the slice-sharded
//!   batch dispatcher on [`pc_par::max_threads`] workers (byte-identical
//!   results);
//! * `trace` — the clock-advancing [`pc_cache::Hierarchy::run_trace`]
//!   replay, also sharded; this is the engine trace-replay workloads
//!   actually use, and since the adaptive defense moved to per-slice
//!   access-count period clocks it parallelizes in **every** DDIO mode
//!   (the adaptive cases used to be pinned to one core);
//! * `reference` — the pre-refactor per-set-object layout.

use pc_cache::reference::ReferenceCache;
use pc_cache::{AccessKind, CacheGeometry, CacheOp, DdioMode, Hierarchy, PhysAddr, SlicedCache};
use pc_core::RxEngine;
use pc_net::EthernetFrame;
use pc_nic::{DriverConfig, IgbDriver, PageAllocator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Accesses per generated trace (full runs; `--smoke` shortens it).
pub const TRACE_LEN: usize = 200_000;

/// Ops per sharded batch: large enough to amortize the per-batch
/// dispatch (worker hand-off plus each worker's binning scan), small
/// enough to model a driver that batches at realistic granularity.
/// Adaptation cadence does not depend on the chunking — each slice's
/// defense clock ticks per access it receives, wherever the batch
/// boundaries fall. Public so the `cache_throughput` Criterion bench
/// replays the exact same batch shape.
pub const SHARD_CHUNK: usize = 32_768;

/// Trace shapes covering the reproduction's real access patterns.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub enum Shape {
    /// Uniform random lines over ~8× the LLC: every access misses
    /// (defense-evaluation replay workloads).
    Stream,
    /// A working set that fits in the LLC: steady-state hits (the spy's
    /// PRIME+PROBE inner loops).
    Resident,
    /// Many tags competing for the page-aligned sets: eviction-dominated
    /// (DDIO ring traffic sharing sets with a spy).
    Conflict,
}

impl Shape {
    /// All shapes, in reporting order.
    pub fn all() -> [Shape; 3] {
        [Shape::Stream, Shape::Resident, Shape::Conflict]
    }

    /// Short name used in benchmark ids and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Shape::Stream => "stream",
            Shape::Resident => "resident",
            Shape::Conflict => "conflict",
        }
    }

    /// Distinct per-shape seed material (an index, not e.g. the name's
    /// length — "resident" and "conflict" are both 8 chars and would
    /// collide).
    fn seed_tag(self) -> u64 {
        match self {
            Shape::Stream => 1,
            Shape::Resident => 2,
            Shape::Conflict => 3,
        }
    }

    fn address(self, rng: &mut SmallRng) -> PhysAddr {
        let line = match self {
            Shape::Stream => rng.gen_range(0..2_621_440u64),
            Shape::Resident => rng.gen_range(0..16_384u64),
            Shape::Conflict => {
                let set = rng.gen_range(0..256u64) * 64; // page-aligned set stride
                let tag = rng.gen_range(0..40u64);
                tag * 131_072 + set // tag stride = one full slice image
            }
        };
        PhysAddr::new(line * 64)
    }
}

/// A reproducible access trace of `len` ops with `io_pct`% DDIO
/// writes and a 1-in-4 CPU-write share mixed into the CPU reads.
pub fn trace_with_len(shape: Shape, io_pct: u32, seed: u64, len: usize) -> Vec<CacheOp> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let addr = shape.address(&mut rng);
            let kind = if rng.gen_range(0..100u32) < io_pct {
                AccessKind::IoWrite
            } else if rng.gen_range(0..4u32) == 0 {
                AccessKind::CpuWrite
            } else {
                AccessKind::CpuRead
            };
            CacheOp::new(addr, kind)
        })
        .collect()
}

/// [`trace_with_len`] at the standard [`TRACE_LEN`].
pub fn trace(shape: Shape, io_pct: u32, seed: u64) -> Vec<CacheOp> {
    trace_with_len(shape, io_pct, seed, TRACE_LEN)
}

/// The DDIO modes under measurement, with reporting names.
pub fn modes() -> [(&'static str, DdioMode); 3] {
    [
        ("disabled", DdioMode::Disabled),
        ("enabled", DdioMode::enabled()),
        ("adaptive", DdioMode::adaptive()),
    ]
}

/// One prebuilt benchmark case: name, trace, mode.
pub type Case = (String, Vec<CacheOp>, DdioMode);

/// Every (shape, mode) case with `len`-op traces: name, prebuilt trace,
/// mode.
pub fn cases_with_len(len: usize) -> Vec<Case> {
    let mut out = Vec::new();
    for shape in Shape::all() {
        for (mode_name, mode) in modes() {
            let io_pct = 25;
            out.push((
                format!("{}/{}", shape.name(), mode_name),
                trace_with_len(shape, io_pct, 0xbead ^ shape.seed_tag(), len),
                mode,
            ));
        }
    }
    out
}

/// [`cases_with_len`] at the standard [`TRACE_LEN`].
pub fn cases() -> Vec<Case> {
    cases_with_len(TRACE_LEN)
}

/// One measured case of [`measure_all`].
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// `shape/mode` case name.
    pub case: String,
    /// Median ns/access for the scalar SoA access loop.
    pub soa_ns_per_access: f64,
    /// Median ns/access for the slice-sharded batch engine.
    pub sharded_ns_per_access: f64,
    /// Median ns/access for the sharded `Hierarchy::run_trace` replay —
    /// the path trace workloads actually take, parallel in every mode.
    pub trace_ns_per_access: f64,
    /// Median ns/access for the pre-refactor reference layout.
    pub reference_ns_per_access: f64,
}

impl CaseResult {
    /// The case's DDIO-mode half (`disabled` / `enabled` / `adaptive`).
    pub fn mode_name(&self) -> &str {
        self.case.split('/').nth(1).unwrap_or(&self.case)
    }

    /// SoA accesses/second.
    pub fn soa_accesses_per_sec(&self) -> f64 {
        1e9 / self.soa_ns_per_access
    }

    /// Sharded-engine accesses/second.
    pub fn sharded_accesses_per_sec(&self) -> f64 {
        1e9 / self.sharded_ns_per_access
    }

    /// reference_ns / soa_ns — the PR 1 layout speedup.
    pub fn speedup(&self) -> f64 {
        self.reference_ns_per_access / self.soa_ns_per_access
    }

    /// soa_ns / sharded_ns — multi-core scaling of the batch dispatcher
    /// (≈1.0 on a single-core host or with `PC_BENCH_THREADS=1`).
    pub fn parallel_speedup(&self) -> f64 {
        self.soa_ns_per_access / self.sharded_ns_per_access
    }

    /// soa_ns / trace_ns — multi-core scaling of the clock-advancing
    /// trace replay (the adaptive rows of this column are the
    /// slice-parallel adaptive path's win; ≈1.0 single-core).
    pub fn trace_parallel_speedup(&self) -> f64 {
        self.soa_ns_per_access / self.trace_ns_per_access
    }

    /// `true` when every timing is a usable measurement (finite,
    /// positive). The `--smoke` CI gate fails the run otherwise.
    pub fn is_sane(&self) -> bool {
        [
            self.soa_ns_per_access,
            self.sharded_ns_per_access,
            self.trace_ns_per_access,
            self.reference_ns_per_access,
        ]
        .iter()
        .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

/// Per-mode scaling summary: the geometric mean, over a mode's trace
/// shapes, of the batch-dispatcher and trace-replay parallel speedups.
#[derive(Clone, Debug)]
pub struct ModeSpeedup {
    /// DDIO mode name (`disabled` / `enabled` / `adaptive`).
    pub mode: String,
    /// Geomean of [`CaseResult::parallel_speedup`] over the shapes.
    pub parallel_speedup: f64,
    /// Geomean of [`CaseResult::trace_parallel_speedup`].
    pub trace_parallel_speedup: f64,
}

/// Folds per-case results into one [`ModeSpeedup`] row per DDIO mode,
/// in [`modes`] order. Modes with no measured case are omitted rather
/// than reported as a fabricated 1.00× geomean.
pub fn mode_speedups(results: &[CaseResult]) -> Vec<ModeSpeedup> {
    let geomean =
        |vals: &[f64]| (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp();
    modes()
        .iter()
        .filter_map(|(name, _)| {
            let of_mode: Vec<&CaseResult> =
                results.iter().filter(|r| r.mode_name() == *name).collect();
            if of_mode.is_empty() {
                return None;
            }
            Some(ModeSpeedup {
                mode: (*name).to_owned(),
                parallel_speedup: geomean(
                    &of_mode
                        .iter()
                        .map(|r| r.parallel_speedup())
                        .collect::<Vec<_>>(),
                ),
                trace_parallel_speedup: geomean(
                    &of_mode
                        .iter()
                        .map(|r| r.trace_parallel_speedup())
                        .collect::<Vec<_>>(),
                ),
            })
        })
        .collect()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    v[v.len() / 2]
}

/// The one measurement protocol every engine goes through: `samples`
/// timed passes over the trace (one untimed warm-up pass first), engine
/// state carried across passes, median ns/access reported. `pass`
/// replays the whole trace once — it is the only thing that differs
/// between engines, so their comparison can't skew.
fn time_passes(ops: &[CacheOp], samples: usize, mut pass: impl FnMut(&[CacheOp])) -> f64 {
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        let t = Instant::now();
        pass(ops);
        let ns = t.elapsed().as_nanos() as f64 / ops.len() as f64;
        if i > 0 {
            runs.push(ns); // first pass is warm-up
        }
    }
    median(runs)
}

fn time_soa(ops: &[CacheOp], mode: DdioMode, samples: usize) -> f64 {
    let mut llc = SlicedCache::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for &op in ops {
            llc.access(op.addr, op.kind);
        }
    })
}

fn time_reference(ops: &[CacheOp], mode: DdioMode, samples: usize) -> f64 {
    let mut llc = ReferenceCache::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for &op in ops {
            llc.access(op.addr, op.kind);
        }
    })
}

/// Times the slice-sharded batch engine: the trace replays in
/// [`SHARD_CHUNK`]-op batches on up to `threads` workers. Results are
/// byte-identical to the scalar loop; only wall clock differs.
fn time_sharded(ops: &[CacheOp], mode: DdioMode, samples: usize, threads: usize) -> f64 {
    let mut llc = SlicedCache::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for chunk in ops.chunks(SHARD_CHUNK) {
            llc.access_batch_threads(chunk, threads);
        }
    })
}

/// Times the clock-advancing trace replay (`Hierarchy::run_trace`) in
/// the same [`SHARD_CHUNK`] batches on up to `threads` workers —
/// latency accounting, memory-controller stats and (in adaptive mode)
/// per-slice defense clocks all live, exactly as the fig14–16 defense
/// workloads drive it.
fn time_trace(ops: &[CacheOp], mode: DdioMode, samples: usize, threads: usize) -> f64 {
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    time_passes(ops, samples, |ops| {
        for chunk in ops.chunks(SHARD_CHUNK) {
            h.run_trace_threads(chunk, threads);
        }
    })
}

/// Measures every case on all four engines (`samples` timed passes
/// each, median reported) with `len`-op traces. The parallel engines
/// use [`pc_par::max_threads`] workers.
pub fn measure_all(samples: usize, len: usize) -> Vec<CaseResult> {
    let threads = pc_par::max_threads();
    cases_with_len(len)
        .into_iter()
        .map(|(case, ops, mode)| CaseResult {
            soa_ns_per_access: time_soa(&ops, mode, samples),
            sharded_ns_per_access: time_sharded(&ops, mode, samples, threads),
            trace_ns_per_access: time_trace(&ops, mode, samples, threads),
            reference_ns_per_access: time_reference(&ops, mode, samples),
            case,
        })
        .collect()
}

/// Packets per driver measurement pass (full runs; `--smoke` shortens
/// it like it shortens the traces).
pub const DRIVER_PACKETS: usize = 20_000;

/// One measured end-to-end driver case: `IgbDriver` receive over a
/// fixed frame mix, on all three op-stream engines — the default
/// streaming receive (`receive`, per-frame op emission through the
/// applier sink), the pipelined burst engine (`receive_burst`, frames
/// fused into op batches that shard when worker threads exist), and
/// the per-access oracle (`receive_scalar`). All three are
/// byte-identical in results; this row tracks what the op-stream
/// pipeline buys on the workloads every `repro scenario` drives.
#[derive(Clone, Debug)]
pub struct DriverResult {
    /// DDIO mode name (`disabled` / `enabled` / `adaptive`).
    pub mode: String,
    /// Median ns/packet for the default streaming receive path.
    pub driver_ns_per_packet: f64,
    /// Median ns/packet for the pipelined burst engine.
    pub driver_burst_ns_per_packet: f64,
    /// Median ns/packet for the per-access oracle path.
    pub driver_scalar_ns_per_packet: f64,
    /// Worker threads on the measuring host ([`pc_par::max_threads`]).
    /// Burst speedups < 1.0 are expected at `host_threads == 1` (the
    /// sharded dispatch has nothing to fan out to and the batch pays
    /// the op-scratch round-trip), so readers — and the `--smoke`
    /// gate — must only treat them as regressions when this is > 1.
    pub host_threads: usize,
}

impl DriverResult {
    /// scalar_ns / streaming_ns — ≥ 1.0 means the op-stream receive
    /// path is at parity or better than the per-access baseline (the
    /// acceptance bar on a 1-core host).
    pub fn driver_speedup(&self) -> f64 {
        self.driver_scalar_ns_per_packet / self.driver_ns_per_packet
    }

    /// scalar_ns / burst_ns — the burst engine's multi-core upside
    /// (sequential hosts pay the op-scratch round-trip and hover just
    /// under 1.0; the sharded dispatch lands the speedup on CI).
    pub fn driver_burst_speedup(&self) -> f64 {
        self.driver_scalar_ns_per_packet / self.driver_burst_ns_per_packet
    }

    /// `true` when all timings are usable measurements.
    pub fn is_sane(&self) -> bool {
        [
            self.driver_ns_per_packet,
            self.driver_burst_ns_per_packet,
            self.driver_scalar_ns_per_packet,
        ]
        .iter()
        .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

/// The driver measurement's frame mix: the copybreak crossed in both
/// directions, MTU fragments included — the same mix the pc-nic
/// equivalence suite pins.
fn driver_frames(packets: usize) -> Vec<EthernetFrame> {
    (0..packets)
        .map(|i| {
            EthernetFrame::clamped(match i % 5 {
                0 => 64,
                1 => 128,
                2 => 256,
                3 => 257,
                _ => 1514,
            })
        })
        .collect()
}

/// Frames per burst for the pipelined engine. Batch boundaries never
/// change results (the replay is batch- and thread-invariant), so the
/// burst is a pure scheduling choice: big enough for a DDIO burst
/// (~6 ops/frame) to clear the sharded-dispatch threshold when worker
/// threads exist, small enough to keep the op scratch cache-hot when
/// the replay is sequential anyway.
pub fn driver_burst() -> usize {
    if pc_par::max_threads() > 1 {
        1_024
    } else {
        128
    }
}

/// Which driver engine a timing pass exercises.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
enum DriverEngine {
    Streaming,
    Burst,
    Scalar,
}

fn time_driver(mode: DdioMode, samples: usize, packets: usize, engine: DriverEngine) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0xd21f);
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), mode);
    let mut drv = IgbDriver::new(
        DriverConfig::paper_defaults(),
        PageAllocator::new(7),
        &mut rng,
    );
    let frames = driver_frames(packets);
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        let t = Instant::now();
        match engine {
            DriverEngine::Streaming => {
                for &f in &frames {
                    drv.receive(&mut h, f, &mut rng);
                }
            }
            DriverEngine::Burst => {
                for burst in frames.chunks(driver_burst()) {
                    drv.receive_burst(&mut h, burst, &mut rng);
                }
            }
            DriverEngine::Scalar => {
                for &f in &frames {
                    drv.receive_scalar(&mut h, f, &mut rng);
                }
            }
        }
        let ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
        if i > 0 {
            runs.push(ns); // first pass is warm-up
        }
    }
    median(runs)
}

/// Measures the end-to-end driver receive path (streaming, burst and
/// per-access) per DDIO mode: `samples` timed passes of `packets`
/// frames each, median ns/packet.
pub fn measure_driver(samples: usize, packets: usize) -> Vec<DriverResult> {
    modes()
        .iter()
        .map(|&(name, mode)| DriverResult {
            mode: name.to_owned(),
            driver_ns_per_packet: time_driver(mode, samples, packets, DriverEngine::Streaming),
            driver_burst_ns_per_packet: time_driver(mode, samples, packets, DriverEngine::Burst),
            driver_scalar_ns_per_packet: time_driver(mode, samples, packets, DriverEngine::Scalar),
            host_threads: pc_par::max_threads(),
        })
        .collect()
}

/// Frames per test-bed measurement pass (full runs; `--smoke` shortens
/// it like it shortens the traces).
pub const TESTBED_FRAMES: usize = 20_000;

/// One measured end-to-end **test-bed** case: the full arrival pipeline
/// (`enqueue` → `drain`, deferred reads included) per DDIO mode, on all
/// three [`pc_core::RxEngine`]s — windowed burst delivery (`Batched`),
/// per-frame streaming delivery (`PerFrame`) and the per-access oracle
/// (`PerAccess`). All three produce byte-identical machines; this row
/// tracks what window fusion buys on the paths every TestBed scenario
/// (covert, fingerprint, chasing, web-mix…) actually drives.
#[derive(Clone, Debug)]
pub struct TestBedResult {
    /// DDIO mode name (`disabled` / `enabled` / `adaptive`).
    pub mode: String,
    /// Median ns/frame for windowed burst delivery.
    pub testbed_burst_ns_per_frame: f64,
    /// Median ns/frame for per-frame streaming delivery.
    pub testbed_frame_ns_per_frame: f64,
    /// Median ns/frame for the per-access oracle.
    pub testbed_scalar_ns_per_frame: f64,
    /// Mean frames per fused delivery window on the `Batched` bed over
    /// the measurement passes ([`pc_core::WindowStats::mean_frames`]) —
    /// the figure the fusion engine exists to grow. 0.0 on a 1-thread
    /// host, where `advance_to`/`drain` legitimately pick per-frame
    /// delivery (windowing feeds the sharded engine), so readers — and
    /// the `--smoke` gate on the `crossgap` row — only treat it as
    /// meaningful when `host_threads > 1`.
    pub testbed_window_frames_mean: f64,
    /// Worker threads on the measuring host ([`pc_par::max_threads`]);
    /// see [`DriverResult::host_threads`] for how to read burst
    /// speedups when this is 1.
    pub host_threads: usize,
}

impl TestBedResult {
    /// frame_ns / burst_ns — ≥ 1.0 means windowed burst delivery is at
    /// parity or better than per-frame delivery (the acceptance bar on
    /// a 1-core host; window fusion shards on multi-core).
    pub fn testbed_burst_speedup(&self) -> f64 {
        self.testbed_frame_ns_per_frame / self.testbed_burst_ns_per_frame
    }

    /// scalar_ns / burst_ns — the burst engine against the per-access
    /// baseline.
    pub fn testbed_scalar_speedup(&self) -> f64 {
        self.testbed_scalar_ns_per_frame / self.testbed_burst_ns_per_frame
    }

    /// `true` when all timings are usable measurements.
    pub fn is_sane(&self) -> bool {
        [
            self.testbed_burst_ns_per_frame,
            self.testbed_frame_ns_per_frame,
            self.testbed_scalar_ns_per_frame,
        ]
        .iter()
        .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

/// Times one test-bed engine: `samples` timed passes (after a warm-up),
/// each enqueueing the standard size mix as an already-due backlog —
/// the NAPI-poll shape, where the NIC has coalesced a queue of frames
/// before the driver wakes — and draining it. Burst windows actually
/// fuse on this shape; paced traffic degenerates to per-frame delivery
/// on every engine and measures the same thing three times. State
/// (ring, cache, clock) carries across passes like every other engine
/// measurement.
fn time_testbed_mode(mode: DdioMode, samples: usize, frames: usize) -> TestBedResult {
    use pc_core::{TestBed, TestBedConfig};
    let engines = [RxEngine::Batched, RxEngine::PerFrame, RxEngine::PerAccess];
    let mut beds: Vec<TestBed> = engines
        .iter()
        .map(|&engine| {
            TestBed::new(
                TestBedConfig {
                    ddio: mode,
                    record_rx: false,
                    ..TestBedConfig::paper_baseline().with_seed(0x7e57)
                }
                .with_rx_engine(engine),
            )
        })
        .collect();
    let mix = driver_frames(frames);
    // Round-robin the engines within each pass (rather than finishing
    // one engine before starting the next) so slow drift of the host —
    // thermal state, co-tenants — biases all three rows equally
    // instead of whichever engine ran last.
    let mut runs: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); engines.len()];
    for i in 0..=samples {
        for (e, tb) in beds.iter_mut().enumerate() {
            let at = tb.now() + 1;
            let schedule: Vec<pc_net::ScheduledFrame> = mix
                .iter()
                .map(|&frame| pc_net::ScheduledFrame::new(at, frame))
                .collect();
            let t = Instant::now();
            tb.enqueue(schedule);
            tb.drain();
            let ns = t.elapsed().as_nanos() as f64 / frames as f64;
            if i > 0 {
                runs[e].push(ns); // first pass is warm-up
            }
        }
    }
    let window_frames_mean = beds[0].window_stats().mean_frames();
    let mut medians = runs.into_iter().map(median);
    TestBedResult {
        mode: String::new(), // filled by the caller
        testbed_burst_ns_per_frame: medians.next().expect("batched row"),
        testbed_frame_ns_per_frame: medians.next().expect("per-frame row"),
        testbed_scalar_ns_per_frame: medians.next().expect("per-access row"),
        testbed_window_frames_mean: window_frames_mean,
        host_threads: pc_par::max_threads(),
    }
}

/// Measures the end-to-end test bed (windowed burst / per-frame /
/// per-access delivery) per DDIO mode: `samples` timed passes of
/// `frames` arrivals each, median ns/frame.
pub fn measure_testbed(samples: usize, frames: usize) -> Vec<TestBedResult> {
    modes()
        .iter()
        .map(|&(name, mode)| TestBedResult {
            mode: name.to_owned(),
            ..time_testbed_mode(mode, samples, frames)
        })
        .collect()
}

/// Frames per burst in the cross-gap fusion schedule. This is also the
/// upper bound on the mean fused window the *pre-reconstruction*
/// engine could reach on that schedule (it cut a window at every gap
/// sync and probe epoch), so the `--smoke` gate requires the measured
/// [`TestBedResult::testbed_window_frames_mean`] to strictly exceed it
/// on multi-thread hosts.
pub const CROSSGAP_BURST: usize = 32;

/// Gap between bursts in the cross-gap schedule: far larger than any
/// burst's replay, so every burst boundary is a genuine gap sync the
/// window must span by retroactive clock reconstruction.
const CROSSGAP_GAP: u64 = 120_000;

/// Probe epochs per cross-gap pass: the backlog drains in this many
/// `advance_to` + monitor-sample rounds, so epoch syncs (the other
/// historical flush point) are part of the measured workload.
const CROSSGAP_EPOCHS: u64 = 8;

/// Measures the cross-gap fusion row (`mode: "crossgap"`): the same
/// three rx engines on a *bursty* arrival schedule —
/// [`CROSSGAP_BURST`]-frame zero-gap bursts separated by
/// `CROSSGAP_GAP`-cycle gaps — drained through `CROSSGAP_EPOCHS`
/// probe epochs (each an `advance_to` plus a
/// [`pc_probe::Monitor`] sample). Exactly the shape that capped the
/// pre-reconstruction engine at one window per gap/epoch; the row's
/// `testbed_window_frames_mean` is the direct measure of what
/// per-segment clock reconstruction buys.
pub fn measure_crossgap(samples: usize, frames: usize) -> TestBedResult {
    use pc_core::footprint::{build_monitor, page_aligned_targets};
    use pc_core::{TestBed, TestBedConfig};
    use pc_probe::AddressPool;
    let engines = [RxEngine::Batched, RxEngine::PerFrame, RxEngine::PerAccess];
    let mut beds: Vec<TestBed> = engines
        .iter()
        .map(|&engine| {
            TestBed::new(
                TestBedConfig {
                    record_rx: false,
                    ..TestBedConfig::paper_baseline().with_seed(0xc406)
                }
                .with_rx_engine(engine),
            )
        })
        .collect();
    // Probe epochs are part of the workload: a small monitor per bed,
    // primed once, sampled at every epoch boundary while the bursty
    // backlog drains. The sample cost is identical on every engine, so
    // the engine comparison stays fair.
    let monitors: Vec<_> = beds
        .iter_mut()
        .map(|tb| {
            let geom = tb.hierarchy().llc().geometry();
            let targets: Vec<_> = page_aligned_targets(&geom).into_iter().take(16).collect();
            let pool = AddressPool::allocate(0xc406, 16384);
            let m = build_monitor(tb.hierarchy().llc(), &pool, &targets);
            m.prime_all(tb.hierarchy_mut());
            m
        })
        .collect();
    let mix = driver_frames(frames);
    let mut runs: Vec<Vec<f64>> = vec![Vec::with_capacity(samples); engines.len()];
    for i in 0..=samples {
        for (e, tb) in beds.iter_mut().enumerate() {
            let start = tb.now() + 1;
            let mut at = start;
            let schedule: Vec<pc_net::ScheduledFrame> = mix
                .iter()
                .enumerate()
                .map(|(j, &frame)| {
                    if j > 0 && j % CROSSGAP_BURST == 0 {
                        at += CROSSGAP_GAP;
                    }
                    pc_net::ScheduledFrame::new(at, frame)
                })
                .collect();
            let end = at;
            let t = Instant::now();
            tb.enqueue(schedule);
            for k in 1..=CROSSGAP_EPOCHS {
                tb.advance_to(start + (end - start) * k / CROSSGAP_EPOCHS);
                let _ = monitors[e].sample(tb.hierarchy_mut());
            }
            tb.drain();
            let ns = t.elapsed().as_nanos() as f64 / frames as f64;
            if i > 0 {
                runs[e].push(ns); // first pass is warm-up
            }
        }
    }
    let window_frames_mean = beds[0].window_stats().mean_frames();
    let mut medians = runs.into_iter().map(median);
    TestBedResult {
        mode: "crossgap".to_owned(),
        testbed_burst_ns_per_frame: medians.next().expect("batched row"),
        testbed_frame_ns_per_frame: medians.next().expect("per-frame row"),
        testbed_scalar_ns_per_frame: medians.next().expect("per-access row"),
        testbed_window_frames_mean: window_frames_mean,
        host_threads: pc_par::max_threads(),
    }
}

/// Tenants per fleet measurement pass (full runs; `--smoke` shortens
/// it like it shortens the traces).
pub const FLEET_TENANTS: usize = 64;

/// One measured fleet-orchestration case: the standard template mix
/// fanned out over [`pc_par::max_threads`] workers — the `repro fleet`
/// hot path. `tenants_per_sec` is wall-clock orchestration throughput
/// (how fast the harness instantiates, runs and collects tenants);
/// `packets_per_sec` is the fleet's *simulated* aggregate line rate
/// (deterministic — the same figure the fleet report's aggregate row
/// prints), tracked so a regression that silently shrinks the simulated
/// work would show up next to the timing it distorts.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Tenants per measurement pass.
    pub tenants: usize,
    /// Median wall-clock tenants/second over the sample passes.
    pub tenants_per_sec: f64,
    /// Simulated aggregate packets+frames/second across the fleet.
    pub packets_per_sec: f64,
}

impl FleetResult {
    /// `true` when the measurement is usable: finite positive wall-clock
    /// throughput and a non-degenerate simulated line rate (the standard
    /// mix always contains packet- and frame-unit tenants).
    pub fn is_sane(&self) -> bool {
        self.tenants > 0
            && self.tenants_per_sec.is_finite()
            && self.tenants_per_sec > 0.0
            && self.packets_per_sec.is_finite()
            && self.packets_per_sec > 0.0
    }
}

/// Measures fleet orchestration: `samples` timed passes (after an
/// untimed warm-up) of a `tenants`-tenant standard fleet at
/// [`crate::experiments::Scale::Quick`], median wall clock reported.
/// The simulated line rate comes from the outcomes themselves and is
/// identical on every pass.
pub fn measure_fleet(samples: usize, tenants: usize) -> FleetResult {
    use crate::experiments::Scale;
    use crate::fleet::{run_fleet_outcomes, FleetConfig};
    let cfg = FleetConfig::standard(tenants, 2020, Scale::Quick);
    let mut runs = Vec::with_capacity(samples);
    let mut packets_per_sec = 0.0;
    for i in 0..=samples {
        let t = Instant::now();
        let outcomes = run_fleet_outcomes(&cfg);
        let sec = t.elapsed().as_secs_f64();
        if i > 0 {
            runs.push(tenants as f64 / sec); // first pass is warm-up
        }
        packets_per_sec = outcomes
            .iter()
            .filter(|o| matches!(o.metrics.unit, "packets" | "frames"))
            .map(|o| o.metrics.units_per_second())
            .sum();
    }
    FleetResult {
        tenants,
        tenants_per_sec: median(runs),
        packets_per_sec,
    }
}

/// Probe walks per probe-walk measurement pass (full runs; `--smoke`
/// shortens it like it shortens the traces).
pub const PROBE_WALKS: usize = 20_000;

/// One measured probe-walk case: a [`pc_probe::PrimeProbe`]'s 20-line
/// reverse walk over one Xeon E5-2660 slice-set in DDIO-enabled mode,
/// hinted ([`pc_probe::PrimeProbe::probe`] through
/// [`pc_cache::Hierarchy::walk`]) against the per-access oracle (one
/// [`pc_cache::Hierarchy::cpu_read`] per line). `quiet` walks find the
/// set as the last walk left it, so every line hits (the common case:
/// most probes see nothing); `noisy` walks follow one DMA write into
/// the set, so each walk misses and refills. Both sides of a noisy row
/// include that write's time.
#[derive(Clone, Debug)]
pub struct ProbeWalkResult {
    /// `"quiet"` or `"noisy"`.
    pub walk: String,
    /// Median nanoseconds per walked line, hinted walk.
    pub hinted_ns_per_line: f64,
    /// Median nanoseconds per walked line, per-access `cpu_read` walk.
    pub oracle_ns_per_line: f64,
}

impl ProbeWalkResult {
    /// Oracle ÷ hinted time per line.
    pub fn speedup(&self) -> f64 {
        self.oracle_ns_per_line / self.hinted_ns_per_line
    }

    /// `true` when both timings are usable (finite, positive).
    pub fn is_sane(&self) -> bool {
        [self.hinted_ns_per_line, self.oracle_ns_per_line]
            .iter()
            .all(|ns| ns.is_finite() && *ns > 0.0)
    }
}

/// Median ns per line over `samples` passes (after an untimed warm-up)
/// of `walks` probe walks, hinted or per-access, quiet or noisy.
fn time_probe_walk(noisy: bool, hinted: bool, samples: usize, walks: usize) -> f64 {
    use pc_probe::{oracle_eviction_sets, AddressPool, PrimeProbe};
    use std::hint::black_box;
    let mut h = Hierarchy::new(CacheGeometry::xeon_e5_2660(), DdioMode::enabled());
    let victim = PhysAddr::new(4096 * 999);
    let target = h.llc().locate(victim);
    let set = oracle_eviction_sets(h.llc(), &AddressPool::allocate(5, 12288), &[target]).remove(0);
    let pp = PrimeProbe::new(set, h.latencies().miss_threshold());
    pp.prime(&mut h);
    let lines = pp.eviction_set().addresses().to_vec();
    let mut runs = Vec::with_capacity(samples);
    for i in 0..=samples {
        let t = Instant::now();
        for _ in 0..walks {
            if noisy {
                h.io_write(victim);
            }
            if hinted {
                black_box(pp.probe(&mut h));
            } else {
                for &a in lines.iter().rev() {
                    black_box(h.cpu_read(a));
                }
            }
        }
        if i > 0 {
            // First pass is warm-up.
            runs.push(t.elapsed().as_nanos() as f64 / (walks * lines.len()) as f64);
        }
    }
    median(runs)
}

/// Measures the probe-walk rows (`quiet`, then `noisy`): `samples`
/// passes of `walks` walks per engine.
pub fn measure_probe_walks(samples: usize, walks: usize) -> Vec<ProbeWalkResult> {
    [("quiet", false), ("noisy", true)]
        .into_iter()
        .map(|(walk, noisy)| ProbeWalkResult {
            walk: walk.to_owned(),
            hinted_ns_per_line: time_probe_walk(noisy, true, samples, walks),
            oracle_ns_per_line: time_probe_walk(noisy, false, samples, walks),
        })
        .collect()
}

/// One timed end-to-end scenario row: wall clock for a full registry
/// scenario run. The multi-queue scenarios added with the RSS model are
/// tracked here so steering/fusion overhead shows up in the perf
/// trajectory next to the engine rows.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Median wall-clock milliseconds per full scenario run.
    pub wall_ms: f64,
    /// Worker threads on the measuring host.
    pub host_threads: usize,
}

impl ScenarioResult {
    /// `true` when the timing is usable (finite, positive).
    pub fn is_sane(&self) -> bool {
        self.wall_ms.is_finite() && self.wall_ms > 0.0
    }
}

/// The multi-queue scenarios `measure_scenarios` times, in reporting
/// order.
pub const BENCH_SCENARIOS: [&str; 4] = ["kv-store", "dns-flood", "large-transfer", "co-tenancy"];

/// Times each [`BENCH_SCENARIOS`] scenario end to end at
/// [`crate::experiments::Scale::Quick`]: `samples` passes after an
/// untimed warm-up, median wall clock per run. `shrink` divides the
/// scenario's quick work units (`--smoke` passes 4, like the traces).
pub fn measure_scenarios(samples: usize, shrink: u64) -> Vec<ScenarioResult> {
    use crate::experiments::Scale;
    BENCH_SCENARIOS
        .iter()
        .map(|&name| {
            let base = crate::scenario::find(name).expect("bench scenario registered");
            let units = (base.duration().quick / shrink).max(1);
            let spec = base.clone().with_units(units, units);
            let mut runs = Vec::with_capacity(samples);
            for i in 0..=samples {
                let t = Instant::now();
                let out = spec.run(Scale::Quick, 2020);
                assert!(!out.is_empty(), "scenario produced no report");
                if i > 0 {
                    runs.push(t.elapsed().as_secs_f64() * 1e3); // first pass is warm-up
                }
            }
            ScenarioResult {
                scenario: name.to_owned(),
                wall_ms: median(runs),
                host_threads: pc_par::max_threads(),
            }
        })
        .collect()
}

/// The adaptive-mode tax: adaptive ns/packet ÷ enabled ns/packet on the
/// streaming driver path. This is the number the incremental partition
/// re-evaluation is sized by (target ≤ 4× since PR 8; it was ~15×
/// under the full-scan evaluator). `None` unless both modes were
/// measured.
pub fn adaptive_driver_tax(drivers: &[DriverResult]) -> Option<f64> {
    let ns = |m: &str| {
        drivers
            .iter()
            .find(|d| d.mode == m)
            .map(|d| d.driver_ns_per_packet)
    };
    Some(ns("adaptive")? / ns("enabled")?)
}

/// Renders results as the `BENCH_cache.json` document (schema
/// `pc-bench-cache-v9`; the `trace_*` fields, the per-mode `modes`
/// summary, the end-to-end `driver` and `testbed` rows — each
/// annotated with the measuring host's `host_threads` and, for
/// testbed rows, the `testbed_window_frames_mean` fusion telemetry
/// (the `crossgap` row measures the bursty gap + probe-epoch
/// schedule) — the per-scenario `scenarios` wall-clock rows, the
/// `probe_walk` rows, the `fleet` entry and the `adaptive_driver_tax`
/// ratio are documented in `crates/bench/README.md`).
pub fn to_json(
    results: &[CaseResult],
    drivers: &[DriverResult],
    testbeds: &[TestBedResult],
    scenarios: &[ScenarioResult],
    probe_walks: &[ProbeWalkResult],
    fleet: &FleetResult,
    trace_len: usize,
) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"pc-bench-cache-v9\",");
    let _ = writeln!(s, "  \"trace_len\": {trace_len},");
    let _ = writeln!(s, "  \"threads\": {},", pc_par::max_threads());
    s.push_str("  \"modes\": [\n");
    let per_mode = mode_speedups(results);
    for (i, m) in per_mode.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"mode\": \"{}\", \"parallel_speedup\": {:.2}, \"trace_parallel_speedup\": {:.2}}}",
            m.mode, m.parallel_speedup, m.trace_parallel_speedup
        );
        s.push_str(if i + 1 < per_mode.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"driver\": [\n");
    for (i, d) in drivers.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"mode\": \"{}\", \"driver_ns_per_packet\": {:.1}, \"driver_burst_ns_per_packet\": {:.1}, \"driver_scalar_ns_per_packet\": {:.1}, \"driver_speedup\": {:.2}, \"driver_burst_speedup\": {:.2}, \"host_threads\": {}}}",
            d.mode,
            d.driver_ns_per_packet,
            d.driver_burst_ns_per_packet,
            d.driver_scalar_ns_per_packet,
            d.driver_speedup(),
            d.driver_burst_speedup(),
            d.host_threads
        );
        s.push_str(if i + 1 < drivers.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"testbed\": [\n");
    for (i, t) in testbeds.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"mode\": \"{}\", \"testbed_burst_ns_per_frame\": {:.1}, \"testbed_frame_ns_per_frame\": {:.1}, \"testbed_scalar_ns_per_frame\": {:.1}, \"testbed_burst_speedup\": {:.2}, \"testbed_scalar_speedup\": {:.2}, \"testbed_window_frames_mean\": {:.1}, \"host_threads\": {}}}",
            t.mode,
            t.testbed_burst_ns_per_frame,
            t.testbed_frame_ns_per_frame,
            t.testbed_scalar_ns_per_frame,
            t.testbed_burst_speedup(),
            t.testbed_scalar_speedup(),
            t.testbed_window_frames_mean,
            t.host_threads
        );
        s.push_str(if i + 1 < testbeds.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"scenarios\": [\n");
    for (i, sc) in scenarios.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scenario\": \"{}\", \"wall_ms\": {:.1}, \"host_threads\": {}}}",
            sc.scenario, sc.wall_ms, sc.host_threads
        );
        s.push_str(if i + 1 < scenarios.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"probe_walk\": [\n");
    for (i, p) in probe_walks.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"walk\": \"{}\", \"hinted_ns_per_line\": {:.2}, \"oracle_ns_per_line\": {:.2}, \"speedup\": {:.2}}}",
            p.walk,
            p.hinted_ns_per_line,
            p.oracle_ns_per_line,
            p.speedup()
        );
        s.push_str(if i + 1 < probe_walks.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n");
    let _ = writeln!(
        s,
        "  \"fleet\": {{\"tenants\": {}, \"tenants_per_sec\": {:.1}, \"packets_per_sec\": {:.0}}},",
        fleet.tenants, fleet.tenants_per_sec, fleet.packets_per_sec
    );
    if let Some(tax) = adaptive_driver_tax(drivers) {
        let _ = writeln!(s, "  \"adaptive_driver_tax\": {tax:.2},");
    }
    s.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"case\": \"{}\", \"soa_ns_per_access\": {:.2}, \"soa_accesses_per_sec\": {:.0}, \"sharded_ns_per_access\": {:.2}, \"sharded_accesses_per_sec\": {:.0}, \"parallel_speedup\": {:.2}, \"trace_ns_per_access\": {:.2}, \"trace_parallel_speedup\": {:.2}, \"reference_ns_per_access\": {:.2}, \"speedup\": {:.2}}}",
            r.case,
            r.soa_ns_per_access,
            r.soa_accesses_per_sec(),
            r.sharded_ns_per_access,
            r.sharded_accesses_per_sec(),
            r.parallel_speedup(),
            r.trace_ns_per_access,
            r.trace_parallel_speedup(),
            r.reference_ns_per_access,
            r.speedup()
        );
        s.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        assert_eq!(trace(Shape::Stream, 25, 7), trace(Shape::Stream, 25, 7));
        assert_eq!(cases().len(), 9);
    }

    fn result(case: &str) -> CaseResult {
        CaseResult {
            case: case.into(),
            soa_ns_per_access: 50.0,
            sharded_ns_per_access: 25.0,
            trace_ns_per_access: 10.0,
            reference_ns_per_access: 150.0,
        }
    }

    fn driver_result(mode: &str) -> DriverResult {
        DriverResult {
            mode: mode.into(),
            driver_ns_per_packet: 200.0,
            driver_burst_ns_per_packet: 120.0,
            driver_scalar_ns_per_packet: 240.0,
            host_threads: 4,
        }
    }

    fn testbed_result(mode: &str) -> TestBedResult {
        TestBedResult {
            mode: mode.into(),
            testbed_burst_ns_per_frame: 500.0,
            testbed_frame_ns_per_frame: 600.0,
            testbed_scalar_ns_per_frame: 750.0,
            testbed_window_frames_mean: 96.5,
            host_threads: 4,
        }
    }

    fn fleet_result() -> FleetResult {
        FleetResult {
            tenants: 64,
            tenants_per_sec: 40.0,
            packets_per_sec: 2_000_000.0,
        }
    }

    fn probe_walk_result(walk: &str) -> ProbeWalkResult {
        ProbeWalkResult {
            walk: walk.into(),
            hinted_ns_per_line: 2.5,
            oracle_ns_per_line: 10.0,
        }
    }

    fn scenario_result(name: &str) -> ScenarioResult {
        ScenarioResult {
            scenario: name.into(),
            wall_ms: 12.5,
            host_threads: 4,
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = vec![result("stream/enabled")];
        let d = vec![driver_result("enabled")];
        let t = vec![testbed_result("enabled")];
        let sc = vec![scenario_result("kv-store")];
        let pw = vec![probe_walk_result("quiet"), probe_walk_result("noisy")];
        let s = to_json(&r, &d, &t, &sc, &pw, &fleet_result(), TRACE_LEN);
        assert!(s.contains("\"speedup\": 3.00"));
        assert!(s.contains("\"parallel_speedup\": 2.00"));
        assert!(s.contains("\"trace_parallel_speedup\": 5.00"));
        assert!(s.contains("\"mode\": \"enabled\""));
        assert!(
            !s.contains("\"mode\": \"adaptive\""),
            "unmeasured modes must be omitted, not invented"
        );
        assert!(s.contains("\"driver_ns_per_packet\": 200.0"));
        assert!(s.contains("\"driver_speedup\": 1.20"));
        assert!(s.contains("\"driver_burst_speedup\": 2.00"));
        assert!(s.contains("\"host_threads\": 4"));
        assert!(s.contains("\"testbed_burst_ns_per_frame\": 500.0"));
        assert!(s.contains("\"testbed_burst_speedup\": 1.20"));
        assert!(s.contains("\"testbed_scalar_speedup\": 1.50"));
        assert!(s.contains("\"testbed_window_frames_mean\": 96.5"));
        assert!(s.contains("pc-bench-cache-v9"));
        assert!(s.contains(
            "{\"walk\": \"noisy\", \"hinted_ns_per_line\": 2.50, \"oracle_ns_per_line\": 10.00, \"speedup\": 4.00}"
        ));
        assert!(s.contains("\"scenario\": \"kv-store\", \"wall_ms\": 12.5"));
        assert!(s.contains(
            "\"fleet\": {\"tenants\": 64, \"tenants_per_sec\": 40.0, \"packets_per_sec\": 2000000}"
        ));
        assert!(
            !s.contains("adaptive_driver_tax"),
            "tax must be omitted when either mode is unmeasured, not invented"
        );
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn adaptive_tax_is_published_when_both_modes_exist() {
        let mut adaptive = driver_result("adaptive");
        adaptive.driver_ns_per_packet = 500.0;
        let drivers = vec![driver_result("enabled"), adaptive];
        assert!((adaptive_driver_tax(&drivers).unwrap() - 2.5).abs() < 1e-9);
        let s = to_json(
            &[result("stream/enabled")],
            &drivers,
            &[testbed_result("enabled")],
            &[scenario_result("dns-flood")],
            &[probe_walk_result("quiet")],
            &fleet_result(),
            TRACE_LEN,
        );
        assert!(s.contains("\"adaptive_driver_tax\": 2.50"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert!(adaptive_driver_tax(&[driver_result("enabled")]).is_none());
    }

    #[test]
    fn fleet_sanity_gate_rejects_bogus_measurements() {
        let mut f = fleet_result();
        assert!(f.is_sane());
        f.tenants_per_sec = 0.0;
        assert!(!f.is_sane());
        f.tenants_per_sec = f64::INFINITY;
        assert!(!f.is_sane());
        f.tenants_per_sec = 40.0;
        f.packets_per_sec = f64::NAN;
        assert!(!f.is_sane());
        f.packets_per_sec = 2_000_000.0;
        f.tenants = 0;
        assert!(!f.is_sane());
    }

    #[test]
    fn probe_walk_sanity_gate_rejects_bogus_timings() {
        assert!(probe_walk_result("quiet").is_sane());
        let mut p = probe_walk_result("quiet");
        p.hinted_ns_per_line = f64::NAN;
        assert!(!p.is_sane());
        let mut p = probe_walk_result("noisy");
        p.oracle_ns_per_line = 0.0;
        assert!(!p.is_sane());
    }

    #[test]
    fn scenario_sanity_gate_rejects_bogus_timings() {
        let mut sc = scenario_result("kv-store");
        assert!(sc.is_sane());
        sc.wall_ms = 0.0;
        assert!(!sc.is_sane());
        sc.wall_ms = f64::NAN;
        assert!(!sc.is_sane());
    }

    #[test]
    fn testbed_sanity_gate_rejects_bogus_timings() {
        let mut t = testbed_result("enabled");
        assert!(t.is_sane());
        assert!((t.testbed_burst_speedup() - 1.2).abs() < 1e-9);
        assert!((t.testbed_scalar_speedup() - 1.5).abs() < 1e-9);
        t.testbed_frame_ns_per_frame = 0.0;
        assert!(!t.is_sane());
        t.testbed_frame_ns_per_frame = f64::NAN;
        assert!(!t.is_sane());
    }

    #[test]
    fn driver_sanity_gate_rejects_bogus_timings() {
        let mut d = driver_result("enabled");
        assert!(d.is_sane());
        assert!((d.driver_speedup() - 1.2).abs() < 1e-9);
        d.driver_ns_per_packet = 0.0;
        assert!(!d.is_sane());
        d.driver_ns_per_packet = f64::NAN;
        assert!(!d.is_sane());
    }

    #[test]
    fn sanity_gate_rejects_bogus_timings() {
        let mut r = result("stream/enabled");
        assert!(r.is_sane());
        r.sharded_ns_per_access = 0.0;
        assert!(!r.is_sane());
        r.sharded_ns_per_access = f64::NAN;
        assert!(!r.is_sane());
        r.sharded_ns_per_access = 25.0;
        r.trace_ns_per_access = -1.0;
        assert!(!r.is_sane());
    }

    #[test]
    fn mode_speedups_fold_per_mode() {
        let mut stream = result("stream/adaptive");
        let mut resident = result("resident/adaptive");
        stream.trace_ns_per_access = 25.0; // 2× trace speedup
        resident.trace_ns_per_access = 6.25; // 8× trace speedup
        let rows = mode_speedups(&[stream, resident, result("conflict/enabled")]);
        assert_eq!(rows.len(), 2, "disabled has no cases and is omitted");
        let adaptive = rows.iter().find(|m| m.mode == "adaptive").unwrap();
        // Geomean of 2× and 8× is 4×.
        assert!((adaptive.trace_parallel_speedup - 4.0).abs() < 1e-9);
        assert!((adaptive.parallel_speedup - 2.0).abs() < 1e-9);
    }

    #[test]
    fn short_traces_for_smoke_mode() {
        assert_eq!(trace_with_len(Shape::Conflict, 25, 9, 1000).len(), 1000);
        assert_eq!(cases_with_len(500)[0].1.len(), 500);
    }
}
