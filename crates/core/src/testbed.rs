//! The simulated machine the attack runs on: hierarchy + driver +
//! scheduled arrivals, all sharing one clock.
//!
//! ## Burst delivery and clock windows
//!
//! Frame delivery is windowed on the default engine: pending arrivals
//! fuse into **one** segment-marked op batch per window (emitted via
//! [`IgbDriver::receive_fused`], replayed — sharded by slice when big
//! enough — via [`pc_cache::Hierarchy::run_ops_segmented`]), and the
//! clock for every frame is **reconstructed after the fact** from the
//! per-segment cycle subtotals. The op-stream determinism contract
//! makes every outcome — hits, evictions, statistics, RNG draws, the
//! adaptive defense's access-count clock — independent of the clock
//! value, so a window may span what used to be hard flush points:
//!
//! * **gap syncs** — an arrival ahead of the reconstructed clock no
//!   longer cuts the window: each frame opens a segment, and the
//!   post-hoc subtotals let the bed replay `clock = max(arrival,
//!   clock); clock += segment cycles` over the segment list, applying
//!   every gap's `max` retroactively and the residual as one trailing
//!   advance — byte-identical to a per-gap flush;
//! * **deferred no-DDIO reads** — a large frame's payload-read due
//!   time is the reconstructed end of its emit segment (its second
//!   segment mark) plus the header-to-payload delay; the reads are
//!   filed *unresolved* against that segment
//!   ([`DeferredReads::push_unresolved`]) and resolved once the window
//!   replays. The window is cut only when a **pending** read could
//!   actually fall due at a frame boundary: the bed tracks a lower
//!   bound `lb` (fold of `max(lb, arrival) + min_shape_cycles` plus
//!   each packet's exact defense cost) and an upper bound `ub` (same
//!   fold at `max_shape_cycles`), and cuts when the earliest pending
//!   due — an exact heap due, or an in-window deferral's lower bound
//!   `lb + header_to_payload_delay` — could be `<= ub` at the
//!   boundary, so the due reads run at an exact clock exactly where
//!   the per-frame engine runs them;
//! * **probe epochs** — each [`TestBed::advance_to`] call still
//!   returns with all pending ops applied, so a monitor sampling
//!   between calls (the `footprint::watch` loop) always observes a
//!   fully synchronized machine; `pc-probe`'s monitor fuses the
//!   per-target probes *within* one epoch the same way (one segmented
//!   batch, one subtotal per target).
//!
//! The only remaining cuts are the op-scratch cap
//! (`MAX_WINDOW_OPS`), the `advance_to` target itself, and the
//! could-fall-due rule above. Defense costs fold into both bounds
//! *exactly* ([`DriverConfig::defense_cost_for_packet`] — the
//! `EveryNPackets` tick is a pure function of the packet counter; the
//! adaptive cache defense charges no cycles at all), so defense ticks
//! never cut a window. All engines are byte-identical; see
//! [`RxEngine`].

use pc_cache::{CacheGeometry, Cycles, DdioMode, Hierarchy, LatencyModel, PhysAddr};
use pc_net::ScheduledFrame;
use pc_nic::{DeferredReads, DriverConfig, IgbDriver, PageAllocator, RssConfig};
use pc_par::{stream_seed, SeedDomain};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Which replay engine drives frame receives through the hierarchy.
///
/// All paths are byte-identical (pinned by `pc-nic`'s equivalence
/// suite and this module's own tests); the choice is purely about
/// performance and observability.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub enum RxEngine {
    /// Windowed burst delivery — the fast path, and the default:
    /// pending arrivals fuse into segment-marked op batches
    /// ([`IgbDriver::receive_fused`], sharded by slice when large
    /// enough) spanning gaps, deferring frames and defense ticks, with
    /// every frame's clock reconstructed from per-segment subtotals
    /// after the replay (see the module docs).
    #[default]
    Batched,
    /// One op batch per frame through [`IgbDriver::receive`] — the
    /// pre-windowing default, kept as the burst engine's per-frame
    /// reference.
    PerFrame,
    /// Access-by-access replay ([`IgbDriver::receive_scalar`]) — the
    /// equivalence oracle; pick it when an experiment must observe
    /// per-access latencies in the middle of a frame.
    PerAccess,
}

impl RxEngine {
    /// Parses a CLI/environment engine name (`batched`, `per-frame`,
    /// `per-access`). The single name list — [`rx_engine_from_env`]
    /// and `repro --rx-engine` both go through it, so the two cannot
    /// drift.
    pub fn parse(name: &str) -> Option<RxEngine> {
        match name {
            "batched" => Some(RxEngine::Batched),
            "per-frame" => Some(RxEngine::PerFrame),
            "per-access" => Some(RxEngine::PerAccess),
            _ => None,
        }
    }
}

/// Upper bound on the op count of one delivery window (the workspace
/// op-scratch cap, [`pc_cache::ops::OP_SCRATCH_CAP`] = 64 Ki ops, well
/// past the sharded-dispatch threshold). Cutting a window early is
/// always legal — a flush is a correct place to observe the clock —
/// so the cap is a pure scheduling choice and never changes results
/// (the delivery property tests and the CI thread-count byte-diff hold
/// for any cap); it bounds the op scratch when a drain faces a huge
/// backlog.
const MAX_WINDOW_OPS: u64 = pc_cache::ops::OP_SCRATCH_CAP;

/// Buckets of the per-window frame-count histogram.
const HIST_BUCKETS: usize = 32;

/// Log2 histogram bucket for a window carrying `frames` frames.
/// Everything at or beyond `2^31` frames saturates explicitly into the
/// last bucket, so the histogram never indexes out of range however
/// large a window grows. The per-bed [`WindowStats`] and the
/// process-wide atomics both bucket through this one function — the
/// two histograms cannot drift.
fn hist_bucket(frames: u64) -> usize {
    (frames.max(1).ilog2() as usize).min(HIST_BUCKETS - 1)
}

/// Telemetry of the windowed receive engine: how many fused delivery
/// windows formed and how many frames each carried. Cheap to keep
/// (a few counters and a log2 histogram), reported on stderr by the
/// `repro` harness — never on stdout, so the byte-diffed outputs stay
/// engine- and thread-invariant while the window sizes (the thing the
/// fusion engine exists to grow) stay observable.
#[derive(Copy, Clone, Debug, Default)]
pub struct WindowStats {
    /// Fused delivery windows formed.
    pub windows: u64,
    /// Frames delivered through those windows.
    pub frames: u64,
    /// Largest single window, in frames.
    pub max_frames: u64,
    /// `hist[k]` counts windows carrying `2^k <= frames < 2^(k+1)`
    /// frames (last bucket saturating, see [`hist_bucket`]) — enough
    /// for a bucketed median without per-window storage.
    hist: [u64; HIST_BUCKETS],
}

impl WindowStats {
    fn record(&mut self, frames: u64) {
        self.windows += 1;
        self.frames += frames;
        self.max_frames = self.max_frames.max(frames);
        self.hist[hist_bucket(frames)] += 1;
    }

    /// Mean frames per window (0 when no window formed).
    pub fn mean_frames(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.frames as f64 / self.windows as f64
        }
    }

    /// Median frames per window at power-of-two resolution: the lower
    /// bound of the histogram bucket holding the median window (0 when
    /// no window formed).
    pub fn p50_frames(&self) -> u64 {
        let mut seen = 0;
        for (k, &n) in self.hist.iter().enumerate() {
            seen += n;
            if 2 * seen >= self.windows && n > 0 {
                return 1 << k;
            }
        }
        0
    }
}

/// Process-wide window telemetry: scenarios build (and reset) their
/// beds internally, often on worker threads, so the per-bed
/// [`WindowStats`] are unreachable from the harness; every bed also
/// folds each window into these relaxed atomics. Stderr reporting
/// only — nothing deterministic reads them.
mod global_window_stats {
    use std::sync::atomic::AtomicU64;

    pub(super) static WINDOWS: AtomicU64 = AtomicU64::new(0);
    pub(super) static FRAMES: AtomicU64 = AtomicU64::new(0);
    pub(super) static MAX_FRAMES: AtomicU64 = AtomicU64::new(0);
    pub(super) static HIST: [AtomicU64; super::HIST_BUCKETS] =
        [const { AtomicU64::new(0) }; super::HIST_BUCKETS];
}

/// Snapshot of the process-wide window telemetry (every bed, every
/// thread, since start or the last [`reset_window_stats`]).
pub fn window_stats_snapshot() -> WindowStats {
    use std::sync::atomic::Ordering::Relaxed;
    let mut hist = [0u64; HIST_BUCKETS];
    for (h, g) in hist.iter_mut().zip(&global_window_stats::HIST) {
        *h = g.load(Relaxed);
    }
    WindowStats {
        windows: global_window_stats::WINDOWS.load(Relaxed),
        frames: global_window_stats::FRAMES.load(Relaxed),
        max_frames: global_window_stats::MAX_FRAMES.load(Relaxed),
        hist,
    }
}

/// Zeroes the process-wide window telemetry, so a harness can report
/// per-phase deltas.
pub fn reset_window_stats() {
    use std::sync::atomic::Ordering::Relaxed;
    global_window_stats::WINDOWS.store(0, Relaxed);
    global_window_stats::FRAMES.store(0, Relaxed);
    global_window_stats::MAX_FRAMES.store(0, Relaxed);
    for g in &global_window_stats::HIST {
        g.store(0, Relaxed);
    }
}

/// Reads the `PC_RX_ENGINE` environment variable (`batched`,
/// `per-frame` or `per-access`) — the CI determinism job uses it to
/// byte-diff whole scenario runs across engines without touching
/// scenario code. Returns `None` when unset.
///
/// # Panics
///
/// Panics on an unrecognized value: a CI matrix leg silently falling
/// back to the default engine would pass vacuously.
pub fn rx_engine_from_env() -> Option<RxEngine> {
    let v = std::env::var("PC_RX_ENGINE").ok()?;
    Some(
        RxEngine::parse(&v).unwrap_or_else(|| {
            panic!("PC_RX_ENGINE must be batched|per-frame|per-access, got `{v}`")
        }),
    )
}

/// Reads the `PC_RSS_QUEUES` environment variable (an rx queue count,
/// `1..=`[`pc_nic::MAX_RSS_QUEUES`]) — the CI multi-queue determinism
/// job and `repro --queues` use it to re-run whole scenario suites at
/// another queue count without touching scenario code. Returns `None`
/// when unset.
///
/// # Panics
///
/// Panics on a non-numeric or out-of-range value, for the same reason
/// [`rx_engine_from_env`] does: a CI leg silently falling back to the
/// default queue count would pass vacuously.
pub fn rss_queues_from_env() -> Option<usize> {
    let v = std::env::var("PC_RSS_QUEUES").ok()?;
    let n: usize = v
        .parse()
        .unwrap_or_else(|_| panic!("PC_RSS_QUEUES must be a queue count, got `{v}`"));
    assert!(
        (1..=pc_nic::MAX_RSS_QUEUES).contains(&n),
        "PC_RSS_QUEUES must be 1..={}, got {n}",
        pc_nic::MAX_RSS_QUEUES
    );
    Some(n)
}

/// Everything needed to stand up a [`TestBed`].
#[derive(Copy, Clone, Debug)]
pub struct TestBedConfig {
    /// LLC shape (default: the paper's Xeon E5-2660).
    pub geometry: CacheGeometry,
    /// DDIO mode under test.
    pub ddio: DdioMode,
    /// Driver configuration (ring size, copybreak, defenses…).
    pub driver: DriverConfig,
    /// Component latencies.
    pub latencies: LatencyModel,
    /// Master seed for the bed's stochastic pieces (page placement,
    /// driver decisions).
    pub seed: u64,
    /// Record every received packet as ground truth (cheap; on by
    /// default).
    pub record_rx: bool,
    /// How frame receives replay against the hierarchy.
    pub rx_engine: RxEngine,
    /// Rx queue count: RSS spreads flows over this many independent
    /// rings / driver streams (1 — the default — is the pre-RSS
    /// single-ring model; legacy all-zero flows always land on
    /// queue 0, whatever the count).
    pub rss_queues: usize,
}

impl TestBedConfig {
    /// The paper's vulnerable baseline: DDIO on, stock IGB driver.
    ///
    /// The receive engine honours [`rx_engine_from_env`] and the queue
    /// count honours [`rss_queues_from_env`], so one binary can run a
    /// whole scenario suite on each engine or queue count; an explicit
    /// [`TestBedConfig::with_rx_engine`] / [`TestBedConfig::with_queues`]
    /// still wins.
    pub fn paper_baseline() -> Self {
        TestBedConfig {
            geometry: CacheGeometry::xeon_e5_2660(),
            ddio: DdioMode::enabled(),
            driver: DriverConfig::paper_defaults(),
            latencies: LatencyModel::server_defaults(),
            seed: 0x9ac4e7,
            record_rx: true,
            rx_engine: rx_engine_from_env().unwrap_or_default(),
            rss_queues: rss_queues_from_env().unwrap_or(1),
        }
    }

    /// Same machine with DDIO disabled (§IV-d / §V "without DDIO").
    pub fn no_ddio() -> Self {
        TestBedConfig {
            ddio: DdioMode::Disabled,
            ..TestBedConfig::paper_baseline()
        }
    }

    /// Same machine under the adaptive partitioning defense (§VII).
    pub fn adaptive_defense() -> Self {
        TestBedConfig {
            ddio: DdioMode::adaptive(),
            ..TestBedConfig::paper_baseline()
        }
    }

    /// Replaces the seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the receive replay engine (builder style).
    pub fn with_rx_engine(mut self, rx_engine: RxEngine) -> Self {
        self.rx_engine = rx_engine;
        self
    }

    /// Replaces the rx queue count (builder style).
    pub fn with_queues(mut self, rss_queues: usize) -> Self {
        self.rss_queues = rss_queues;
        self
    }
}

impl Default for TestBedConfig {
    fn default() -> Self {
        TestBedConfig::paper_baseline()
    }
}

/// Ground-truth record of one received frame.
#[derive(Copy, Clone, Eq, PartialEq, Debug)]
pub struct RxRecord {
    /// Cycle the NIC received the frame (its scheduled arrival time —
    /// pure input data, so the record is identical on every
    /// [`RxEngine`]; a backlogged frame is *processed* later than
    /// this).
    pub at: Cycles,
    /// Ring descriptor index it landed in.
    pub buffer_index: usize,
    /// DMA address of the buffer's first block.
    pub buffer_addr: PhysAddr,
    /// Cache blocks written.
    pub blocks: u32,
}

/// One rx queue's private slice of the NIC: its ring / driver, the
/// deferred payload reads it owes, and its driver RNG stream. Queue 0
/// runs on the bed's legacy base-seed streams; queues `1..` derive
/// theirs through [`SeedDomain::Queue`], so adding queues never
/// perturbs queue 0 and a queue count of 1 is byte-identical to the
/// pre-RSS single-ring model.
#[derive(Clone, Debug)]
struct RxQueue {
    driver: IgbDriver,
    deferred: DeferredReads,
    rng: SmallRng,
}

/// The victim machine: one hierarchy, one or more rx queues (each its
/// own NIC ring, driver streams and deferred payload reads), a queue
/// of future frame arrivals, and the RSS steer that assigns each
/// arrival's flow to a queue.
///
/// The spy and the experiments drive time forward through
/// [`TestBed::advance_to`] and probe through
/// [`TestBed::hierarchy_mut`]; frames scheduled with
/// [`TestBed::enqueue`] are delivered whenever the clock passes their
/// arrival time — fused into burst windows on the default engine (see
/// the module docs).
///
/// ## Multi-queue delivery order
///
/// Steering picks *which queue's state* a frame advances; it never
/// reorders processing. Frames process in global arrival order on
/// every engine (cutting a window early must stay legal, which a
/// queue-grouped replay would break), and wherever queues synchronize
/// at one clock — window cuts, per-frame boundaries, trailing
/// advances — their due deferred reads run in **queue index order**,
/// the documented merge rule that makes multi-queue runs byte-
/// identical across thread counts and engines.
#[derive(Clone, Debug)]
pub struct TestBed {
    h: Hierarchy,
    rss: RssConfig,
    queues: Vec<RxQueue>,
    pending: VecDeque<ScheduledFrame>,
    records: Vec<RxRecord>,
    record_rx: bool,
    rx_engine: RxEngine,
    /// Fused-window scratch: the segment-marked op batch being
    /// collected, its per-segment subtotals, the arrival attached to
    /// each frame-start segment (`None` on post-deferral segments) and
    /// the reconstructed segment end clocks. Contents never outlive
    /// one window; capacity carried across windows and resets.
    fused_ops: pc_cache::OpBuffer,
    seg_sums: Vec<pc_cache::TraceSummary>,
    seg_arrivals: Vec<Option<Cycles>>,
    seg_ends: Vec<Cycles>,
    window_stats: WindowStats,
}

impl TestBed {
    /// The seeded per-queue driver streams — one definition shared by
    /// [`TestBed::new`] and [`TestBed::reset`] so a reused bed can
    /// never drift from a freshly built one.
    fn build_queues(cfg: &TestBedConfig) -> Vec<RxQueue> {
        (0..cfg.rss_queues)
            .map(|q| {
                // Queue 0 keeps the bed's historical streams exactly —
                // not `stream_seed(seed, Queue, 0)` — so every pre-RSS
                // golden replays unchanged at any queue count.
                let qseed = if q == 0 {
                    cfg.seed
                } else {
                    stream_seed(cfg.seed, SeedDomain::Queue, q as u64)
                };
                let mut rng = SmallRng::seed_from_u64(qseed);
                let alloc = PageAllocator::new(qseed ^ 0x5eed_1a7e);
                let driver = IgbDriver::new(cfg.driver, alloc, &mut rng);
                RxQueue {
                    driver,
                    deferred: DeferredReads::new(),
                    rng,
                }
            })
            .collect()
    }

    /// Builds the machine.
    pub fn new(cfg: TestBedConfig) -> Self {
        let llc = pc_cache::SlicedCache::new(cfg.geometry, cfg.ddio);
        TestBed {
            h: Hierarchy::with_llc(llc).with_latencies(cfg.latencies),
            rss: RssConfig::new(cfg.rss_queues, cfg.seed),
            queues: TestBed::build_queues(&cfg),
            pending: VecDeque::new(),
            records: Vec::new(),
            record_rx: cfg.record_rx,
            rx_engine: cfg.rx_engine,
            fused_ops: pc_cache::OpBuffer::new(),
            seg_sums: Vec::new(),
            seg_arrivals: Vec::new(),
            seg_ends: Vec::new(),
            window_stats: WindowStats::default(),
        }
    }

    /// Rebuilds this bed in place for `cfg`, behaviourally identical to
    /// `*self = TestBed::new(cfg)`. The hierarchy is reset in place
    /// ([`Hierarchy::reset`]: the simulated LLC's storage is reused, so
    /// a same-geometry reset costs clears, not allocations) and the
    /// scratch buffers keep their capacity; the per-queue drivers are
    /// rebuilt from the seed. The fleet driver runs thousands of
    /// tenants per worker thread on one reused machine this way.
    pub fn reset(&mut self, cfg: TestBedConfig) {
        self.h.reset(cfg.geometry, cfg.ddio);
        self.h.set_latencies(cfg.latencies);
        self.rss = RssConfig::new(cfg.rss_queues, cfg.seed);
        self.queues = TestBed::build_queues(&cfg);
        self.pending.clear();
        self.records.clear();
        self.record_rx = cfg.record_rx;
        self.rx_engine = cfg.rx_engine;
        self.fused_ops.clear();
        self.seg_sums.clear();
        self.seg_arrivals.clear();
        self.seg_ends.clear();
        self.window_stats = WindowStats::default();
    }

    /// Current cycle.
    pub fn now(&self) -> Cycles {
        self.h.now()
    }

    /// The hierarchy, for the spy's probes.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.h
    }

    /// Read-only hierarchy view.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// Queue 0's driver (ground-truth ring inspection; the only queue
    /// on single-queue beds). Other queues: [`TestBed::queue_driver`].
    pub fn driver(&self) -> &IgbDriver {
        &self.queues[0].driver
    }

    /// Queue `q`'s driver.
    ///
    /// # Panics
    ///
    /// Panics if `q >= queue_count()`.
    pub fn queue_driver(&self, q: usize) -> &IgbDriver {
        &self.queues[q].driver
    }

    /// Rx queues this bed models.
    pub fn queue_count(&self) -> usize {
        self.queues.len()
    }

    /// The RSS steering configuration assigning flows to queues.
    pub fn rss(&self) -> &RssConfig {
        &self.rss
    }

    /// Packets received summed over every queue (equals queue 0's
    /// [`IgbDriver::packets_received`] on single-queue beds).
    pub fn packets_received_total(&self) -> u64 {
        self.queues
            .iter()
            .map(|q| q.driver.packets_received())
            .sum()
    }

    /// The active receive engine.
    pub fn rx_engine(&self) -> RxEngine {
        self.rx_engine
    }

    /// This bed's windowed-delivery telemetry (zeros on the per-frame
    /// engines, which form no windows).
    pub fn window_stats(&self) -> &WindowStats {
        &self.window_stats
    }

    /// Ground-truth receive log (empty when `record_rx` is off).
    pub fn records(&self) -> &[RxRecord] {
        &self.records
    }

    /// Clears the receive log.
    pub fn clear_records(&mut self) {
        self.records.clear();
    }

    /// Frames still waiting to arrive.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Queues future arrivals. Frames must be sorted by time; they are
    /// merged with whatever is already pending.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is not sorted by arrival time.
    pub fn enqueue(&mut self, frames: Vec<ScheduledFrame>) {
        assert!(
            frames.windows(2).all(|w| w[0].at <= w[1].at),
            "arrival stream must be sorted"
        );
        if self.pending.is_empty() {
            self.pending = frames.into();
        } else {
            let existing: Vec<ScheduledFrame> = self.pending.drain(..).collect();
            self.pending = pc_net::merge_schedules(existing, frames).into();
        }
    }

    /// Delivers every frame whose arrival time has passed and runs due
    /// deferred reads. Returns the number of frames delivered.
    ///
    /// Frames already due are back-to-back by definition (nothing
    /// between them observes the clock — this entry point runs deferred
    /// reads once, at the end), so on the burst engine the backlog
    /// fuses into segmented [`IgbDriver::receive_fused`] windows, cut
    /// only by the op scratch cap.
    pub fn deliver_due(&mut self) -> usize {
        // Same scheduling rule as advance_to: windowing feeds the
        // sharded batch engine, so a worker-less host delivers per
        // frame (byte-identical either way).
        let delivered = match self.rx_engine {
            RxEngine::Batched if pc_par::max_threads() > 1 => {
                // Delivery advances the clock, which can make further
                // frames due (the per-frame loop re-checks after every
                // frame); fuse the due prefix repeatedly until none is.
                // No could-fall-due cut: this entry point runs deferred
                // reads once, at the end, on every engine.
                let mut n = 0;
                loop {
                    let now = self.h.now();
                    let got = self.fuse_window(now, false);
                    if got == 0 {
                        break;
                    }
                    n += got;
                }
                n
            }
            _ => {
                let mut delivered = 0;
                while let Some(front) = self.pending.front() {
                    if front.at > self.h.now() {
                        break;
                    }
                    let sf = self.pending.pop_front().expect("peeked");
                    self.receive_now(sf);
                    delivered += 1;
                }
                delivered
            }
        };
        self.run_due_all();
        delivered
    }

    /// Runs every queue's due deferred reads, in **queue index
    /// order** — the documented merge rule wherever queues synchronize
    /// at one clock (window cuts, per-frame boundaries, trailing
    /// advances). Every engine sequences dues through this one
    /// function, so the order cannot drift between them.
    fn run_due_all(&mut self) {
        for q in &mut self.queues {
            q.deferred.run_due(&mut self.h);
        }
    }

    /// Earliest pending deferred due across every queue's heap.
    fn min_next_due(&self) -> Option<Cycles> {
        self.queues
            .iter()
            .filter_map(|q| q.deferred.next_due())
            .min()
    }

    /// Advances the clock to `target`, delivering arrivals on the way.
    /// (If the clock is already past `target` this only delivers due
    /// work.)
    ///
    /// On the burst engine this is [`TestBed::run_window`] plus the
    /// trailing advance; the per-frame engines deliver one frame at a
    /// time. Both orders of operations are byte-identical.
    pub fn advance_to(&mut self, target: Cycles) {
        // Windowing exists to feed the sharded batch engine; without
        // worker threads the op-recording round-trip cannot pay for
        // itself, so a sequential host delivers per frame — the paths
        // are byte-identical (this module's tests pin it), the choice
        // is pure scheduling.
        if self.rx_engine == RxEngine::Batched && pc_par::max_threads() > 1 {
            self.advance_to_windowed(target);
        } else {
            self.deliver_per_frame_to(target);
            self.finish_advance(target);
        }
    }

    /// The windowed arm of [`TestBed::advance_to`] — one definition,
    /// shared with the property tests (which drive it directly so the
    /// burst machinery is exercised even on hosts where the public
    /// entry point legitimately picks per-frame delivery).
    fn advance_to_windowed(&mut self, target: Cycles) {
        self.run_window(target);
        self.finish_advance(target);
    }

    /// The shared tail of every advance: trailing clock advance to
    /// `target`, then due deferred reads.
    fn finish_advance(&mut self, target: Cycles) {
        if target > self.h.now() {
            let gap = target - self.h.now();
            self.h.advance(gap);
        }
        self.run_due_all();
    }

    /// Per-frame delivery of every arrival up to `target` (gap advance,
    /// one receive, due deferred reads — per frame), on whichever
    /// receive path [`TestBed::receive_now`] selects for the engine.
    /// Returns the number of frames delivered.
    fn deliver_per_frame_to(&mut self, target: Cycles) -> usize {
        let mut delivered = 0;
        loop {
            let next_arrival = self.pending.front().map(|f| f.at);
            match next_arrival {
                Some(at) if at <= target => {
                    if at > self.h.now() {
                        let gap = at - self.h.now();
                        self.h.advance(gap);
                    }
                    let sf = self.pending.pop_front().expect("peeked");
                    self.receive_now(sf);
                    self.run_due_all();
                    delivered += 1;
                }
                _ => break,
            }
        }
        delivered
    }

    /// Runs one delivery pass: every pending arrival up to `target` is
    /// delivered as fused segment-marked windows, cut only at the
    /// points listed in the module docs (op scratch cap, could-fall-due
    /// deferred reads). Returns the number of frames delivered; the
    /// clock ends wherever the last delivered work left it (callers
    /// wanting the clock *at* `target` use [`TestBed::advance_to`]).
    ///
    /// Byte-identical to per-frame delivery of the same arrivals —
    /// events, records, clock, statistics, ring state and RNG stream —
    /// for any window shape, including zero inter-arrival gaps,
    /// duplicate arrival times, arbitrarily large gaps mid-window, a
    /// `target` landing exactly on an arrival, and deferred reads due
    /// inside a later window (this module's property tests pin those
    /// edges).
    ///
    /// On the `PerFrame` / `PerAccess` engines this honours the
    /// configured receive path instead of windowing: an experiment
    /// that picked the per-access oracle to observe mid-frame
    /// latencies keeps that observability whichever delivery entry
    /// point drives it.
    pub fn run_window(&mut self, target: Cycles) -> usize {
        if self.rx_engine != RxEngine::Batched {
            return self.deliver_per_frame_to(target);
        }
        let _engine = pc_cache::fault::engine_scope(pc_cache::fault::Engine::WindowedRx);
        let mut delivered = 0usize;
        loop {
            let n = self.fuse_window(target, true);
            if n == 0 {
                break;
            }
            // The window ended at a point where a deferred read may be
            // due; the reconstruction made the clock exact, so run them
            // here — exactly where the per-frame engine runs them.
            self.run_due_all();
            delivered += n;
        }
        delivered
    }

    /// Collects, replays and reconstructs **one** fused delivery
    /// window: the longest run of pending arrivals `<= target` the cut
    /// rules allow. Each frame is emitted into the segment-marked
    /// batch by [`IgbDriver::receive_fused`] (ring, RNG and counters
    /// advance normally; the clock does not), the batch replays once
    /// through [`pc_cache::Hierarchy::run_ops_segmented`], and the
    /// per-segment subtotals reconstruct every frame's exact clock —
    /// `clock = max(arrival, clock) + segment cycles` — with the gap
    /// residual applied as one trailing advance. Deferred payload
    /// reads are filed against their emit segment and resolved against
    /// the reconstructed segment ends.
    ///
    /// With `due_cut`, the window is cut at any frame boundary where a
    /// pending deferred read could fall due (earliest exact heap due,
    /// or an in-window deferral's `lb + header_to_payload_delay` lower
    /// bound, `<=` the boundary's upper-bound clock `ub`) — the caller
    /// runs due reads between windows at the exact clock, where the
    /// per-frame engine runs them. Fault site `burst-flush-elision`
    /// lets the engine skip one such cut, so pending payload reads
    /// replay after frames they should precede. Without `due_cut`
    /// ([`TestBed::deliver_due`]'s contract), nothing runs between
    /// frames and only the op scratch cap cuts.
    ///
    /// Returns the frames delivered — 0 exactly when nothing is
    /// pending at or before `target`. Does **not** run due deferred
    /// reads; callers sequence those per their own contract.
    fn fuse_window(&mut self, target: Cycles, due_cut: bool) -> usize {
        match self.pending.front() {
            Some(f) if f.at <= target => {}
            _ => return 0,
        }
        let _engine = pc_cache::fault::engine_scope(pc_cache::fault::Engine::WindowedRx);
        let lat = self.h.latencies();
        let min_lat = lat.llc_hit.min(lat.dram);
        let max_lat = lat.llc_hit.max(lat.dram);
        let ddio = self.h.llc().mode().allocates_in_llc();
        // Every queue shares one DriverConfig; queue 0's copy speaks
        // for all of them.
        let cfg = *self.queues[0].driver.config();
        let delay = cfg.header_to_payload_delay;

        // Clock bounds over the frames collected so far, both folding
        // the arrivals' `max` and each packet's exact defense cost;
        // `lb` prices every op at the cheapest latency, `ub` at the
        // costliest. The true reconstructed clock at any boundary is
        // provably within [lb, ub] without observing the replay.
        let c0 = self.h.now();
        let mut lb = c0;
        let mut ub = c0;
        // Earliest pending deferred due across every queue: exact heap
        // dues now, joined by in-window deferral lower bounds as
        // deferring frames are collected.
        let mut min_due = self.min_next_due();
        let mut ops_estimate = 0u64;
        let mut frames = 0u64;

        let mut ops = std::mem::take(&mut self.fused_ops);
        ops.clear();
        self.seg_arrivals.clear();
        while let Some(front) = self.pending.front() {
            if front.at > target || ops_estimate >= MAX_WINDOW_OPS {
                break;
            }
            if due_cut
                && frames > 0
                && min_due.is_some_and(|d| d <= ub)
                && !pc_cache::fault::fires(pc_cache::fault::FaultSite::BurstFlushElision)
            {
                break;
            }
            let sf = self.pending.pop_front().expect("peeked");
            // Steering picks whose ring / RNG / deferred state this
            // frame advances; processing order stays global arrival
            // order (see the struct docs).
            let qi = self.rss.steer(sf.flow);
            let (blocks, small) = cfg.frame_shape(sf.frame);
            ops_estimate += cfg.frame_op_count(blocks, small);
            self.seg_arrivals.push(Some(sf.at));
            let queue = &mut self.queues[qi];
            let ev = queue
                .driver
                .receive_fused(&mut ops, ddio, sf.frame, &mut queue.rng);
            // The frame just emitted is its queue's
            // `packets_received()`-th packet; its defense cost is a
            // pure function of that ordinal, so both bounds carry it
            // exactly and defense ticks never cut the window.
            let defense = cfg.defense_cost_for_packet(queue.driver.packets_received());
            lb = lb.max(sf.at) + cfg.min_shape_cycles(blocks, small, min_lat);
            ub = ub.max(sf.at) + cfg.max_shape_cycles(blocks, small, max_lat);
            if let Some(seg) = ev.deferral_segment {
                // An in-window deferral: its exact due is this emit
                // boundary's reconstructed clock plus the delay, known
                // only after replay — bound it below by `lb` here
                // (both exclude the defense cost, which lands after
                // the dues on every engine). Filed on the owning queue
                // against the *global* segment index, so every queue
                // resolves against the one shared reconstruction.
                let d = lb + delay;
                min_due = Some(min_due.map_or(d, |m| m.min(d)));
                self.seg_arrivals.push(None);
                for b in 2..ev.blocks {
                    queue
                        .deferred
                        .push_unresolved(seg, ev.buffer_addr.add_blocks(u64::from(b)));
                }
            }
            lb += defense;
            ub += defense;
            if self.record_rx {
                self.records.push(RxRecord {
                    at: sf.at,
                    buffer_index: ev.buffer_index,
                    buffer_addr: ev.buffer_addr,
                    blocks: ev.blocks,
                });
            }
            frames += 1;
        }
        debug_assert!(frames > 0, "the guarded entry put the front in range");

        // One replay for the whole window, then the per-segment
        // subtotals replace the mid-stream clock observations: fold
        // `max(arrival, clock)` into each frame-start segment and walk
        // the subtotals to every segment's exact end clock. The replay
        // advanced the clock by the subtotals alone, so the fold's
        // excess over it is exactly the gaps' residual.
        self.h.run_ops_segmented(&ops, &mut self.seg_sums);
        debug_assert_eq!(
            self.seg_sums.len(),
            self.seg_arrivals.len(),
            "one subtotal per emitted segment"
        );
        self.seg_ends.clear();
        let mut c = c0;
        for (sum, arrival) in self.seg_sums.iter().zip(&self.seg_arrivals) {
            if let Some(at) = arrival {
                c = c.max(*at);
            }
            c += sum.cycles;
            self.seg_ends.push(c);
        }
        debug_assert!(lb <= c && c <= ub, "bounds bracket the reconstruction");
        let residual = c - self.h.now();
        if residual > 0 {
            self.h.advance(residual);
        }
        for q in &mut self.queues {
            q.deferred.resolve_segments(&self.seg_ends, delay);
        }

        ops.clear();
        self.fused_ops = ops;
        self.note_window(frames);
        frames as usize
    }

    /// Folds one formed window into this bed's [`WindowStats`] and the
    /// process-wide telemetry.
    fn note_window(&mut self, frames: u64) {
        use std::sync::atomic::Ordering::Relaxed;
        self.window_stats.record(frames);
        global_window_stats::WINDOWS.fetch_add(1, Relaxed);
        global_window_stats::FRAMES.fetch_add(frames, Relaxed);
        global_window_stats::MAX_FRAMES.fetch_max(frames, Relaxed);
        global_window_stats::HIST[hist_bucket(frames)].fetch_add(1, Relaxed);
    }

    fn record_event(&mut self, qi: usize, ev: &pc_nic::RxEvent, at: Cycles) {
        self.queues[qi]
            .deferred
            .extend(ev.deferred_reads.iter().copied());
        if self.record_rx {
            self.records.push(RxRecord {
                at,
                buffer_index: ev.buffer_index,
                buffer_addr: ev.buffer_addr,
                blocks: ev.blocks,
            });
        }
    }

    /// Runs until every queued frame has been delivered.
    pub fn drain(&mut self) {
        while let Some(last_at) = self.pending.back().map(|f| f.at) {
            self.advance_to(last_at);
        }
        for q in &mut self.queues {
            q.deferred.drain_all(&mut self.h);
        }
    }

    fn receive_now(&mut self, sf: ScheduledFrame) {
        // The frame's memory traffic pipelines as one op batch on the
        // per-frame engine; the per-access oracle replays it one access
        // at a time (identical results, pinned below and in pc-nic).
        let qi = self.rss.steer(sf.flow);
        let queue = &mut self.queues[qi];
        let ev = match self.rx_engine {
            RxEngine::Batched | RxEngine::PerFrame => {
                queue.driver.receive(&mut self.h, sf.frame, &mut queue.rng)
            }
            RxEngine::PerAccess => {
                queue
                    .driver
                    .receive_scalar(&mut self.h, sf.frame, &mut queue.rng)
            }
        };
        self.record_event(qi, &ev, sf.at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_net::{ArrivalSchedule, ConstantSize, LineRate};

    fn bed() -> TestBed {
        TestBed::new(TestBedConfig::paper_baseline())
    }

    fn schedule(count: usize, start: u64) -> Vec<ScheduledFrame> {
        let mut rng = SmallRng::seed_from_u64(9);
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(100_000)
            .generate(&mut ConstantSize::blocks(3), start, count, &mut rng)
    }

    #[test]
    fn frames_deliver_when_clock_passes() {
        let mut tb = bed();
        tb.enqueue(schedule(10, 0));
        assert_eq!(tb.pending_frames(), 10);
        let last = 10 * pc_net::CPU_FREQ_HZ / 100_000 + 100_000;
        tb.advance_to(last);
        assert_eq!(tb.pending_frames(), 0);
        assert_eq!(tb.records().len(), 10);
        assert_eq!(tb.driver().packets_received(), 10);
    }

    #[test]
    fn partial_advance_delivers_partially() {
        let mut tb = bed();
        let frames = schedule(10, 0);
        let t5 = frames[4].at;
        tb.enqueue(frames);
        tb.advance_to(t5);
        assert_eq!(tb.records().len(), 5);
        assert_eq!(tb.pending_frames(), 5);
    }

    #[test]
    fn drain_delivers_everything() {
        let mut tb = bed();
        tb.enqueue(schedule(25, 1_000_000));
        tb.drain();
        assert_eq!(tb.pending_frames(), 0);
        assert_eq!(tb.records().len(), 25);
    }

    #[test]
    fn records_follow_ring_order() {
        let mut tb = bed();
        tb.enqueue(schedule(8, 0));
        tb.drain();
        for (i, r) in tb.records().iter().enumerate() {
            assert_eq!(r.buffer_index, i);
            assert_eq!(r.blocks, 3);
        }
    }

    #[test]
    fn records_carry_arrival_times() {
        let mut tb = bed();
        let frames = schedule(8, 0);
        let ats: Vec<Cycles> = frames.iter().map(|f| f.at).collect();
        tb.enqueue(frames);
        tb.drain();
        let got: Vec<Cycles> = tb.records().iter().map(|r| r.at).collect();
        assert_eq!(got, ats, "RxRecord.at is the scheduled arrival cycle");
    }

    #[test]
    fn enqueue_merges_sorted_streams() {
        let mut tb = bed();
        tb.enqueue(schedule(5, 0));
        tb.enqueue(schedule(5, 7_777));
        let times: Vec<u64> = tb.pending.iter().map(|f| f.at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(tb.pending_frames(), 10);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_enqueue_panics() {
        let mut tb = bed();
        let mut frames = schedule(3, 0);
        frames.reverse();
        tb.enqueue(frames);
    }

    /// Compares two beds field by field after identical driving.
    fn assert_beds_identical(a: &TestBed, b: &TestBed, what: &str) {
        assert_eq!(a.records(), b.records(), "{what}: records");
        assert_eq!(a.now(), b.now(), "{what}: clock");
        assert_eq!(
            a.hierarchy().llc().stats(),
            b.hierarchy().llc().stats(),
            "{what}: llc stats"
        );
        assert_eq!(
            a.hierarchy().memory_stats(),
            b.hierarchy().memory_stats(),
            "{what}: memory stats"
        );
        assert_eq!(a.queue_count(), b.queue_count(), "{what}: queue count");
        for (qi, (qa, qb)) in a.queues.iter().zip(&b.queues).enumerate() {
            assert_eq!(
                qa.driver.ring().page_addresses(),
                qb.driver.ring().page_addresses(),
                "{what}: queue {qi} ring pages"
            );
            assert_eq!(qa.rng, qb.rng, "{what}: queue {qi} RNG stream");
        }
    }

    #[test]
    fn all_engines_are_byte_identical() {
        // Same config, same seeds, all three engines, through the full
        // arrival pipeline (merging, gaps, deferred reads): records,
        // clock, statistics, ring state and RNG must all agree.
        for cfg in [
            TestBedConfig::paper_baseline(),
            TestBedConfig::no_ddio(),
            TestBedConfig::adaptive_defense(),
        ] {
            let mut batched = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut per_frame = TestBed::new(cfg.with_rx_engine(RxEngine::PerFrame));
            let mut oracle = TestBed::new(cfg.with_rx_engine(RxEngine::PerAccess));
            for tb in [&mut batched, &mut per_frame, &mut oracle] {
                let mut rng = SmallRng::seed_from_u64(42);
                let frames = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(150_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 0, 400, &mut rng);
                tb.enqueue(frames);
                tb.drain();
            }
            assert_beds_identical(&batched, &per_frame, "batched vs per-frame");
            assert_beds_identical(&batched, &oracle, "batched vs per-access");
        }
    }

    /// Drives a bed through `advance_to`'s windowed arm directly (the
    /// production code, not a copy), unconditionally — so the burst
    /// machinery is exercised deterministically even on a single-core
    /// host, where the public entry point would (legitimately) pick
    /// per-frame delivery.
    fn advance_windowed(tb: &mut TestBed, target: Cycles) {
        tb.advance_to_windowed(target);
    }

    fn drain_windowed(tb: &mut TestBed) {
        while let Some(last_at) = tb.pending.back().map(|f| f.at) {
            advance_windowed(tb, last_at);
        }
        for q in &mut tb.queues {
            q.deferred.drain_all(&mut tb.h);
        }
    }

    #[test]
    fn windowed_delivery_matches_per_frame_on_edge_windows() {
        // Unsorted-window edge cases: zero gaps, duplicate arrival
        // times, and window boundaries landing exactly on an arrival.
        for cfg in [
            TestBedConfig::paper_baseline(),
            TestBedConfig::no_ddio(),
            TestBedConfig::adaptive_defense(),
        ] {
            let mut windowed = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut per_frame = TestBed::new(cfg.with_rx_engine(RxEngine::PerFrame));
            for (tb, win) in [(&mut windowed, true), (&mut per_frame, false)] {
                let advance = |tb: &mut TestBed, target| {
                    if win {
                        advance_windowed(tb, target);
                    } else {
                        tb.advance_to(target);
                    }
                };
                let mut rng = SmallRng::seed_from_u64(7);
                // A dense backlog with duplicate times: every frame at
                // one of 4 timestamps, all due at once.
                let mut frames = ArrivalSchedule::new(LineRate::ten_gigabit())
                    .frames_per_second(5_000_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 10, 64, &mut rng);
                for (i, f) in frames.iter_mut().enumerate() {
                    f.at = 10 + (i as u64 / 16) * 5; // 4 duplicate groups, zero gaps
                }
                tb.enqueue(frames);
                // Boundary exactly on an arrival: the group at t=15.
                advance(tb, 15);
                // Mid-stream probe epoch, then everything else.
                advance(tb, 16);
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
                // A paced tail: arrivals far apart (every gap is a sync).
                let tail = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(1_000)
                    .generate(&mut ConstantSize::blocks(2), tb.now() + 1, 8, &mut rng);
                let last = tail.last().unwrap().at;
                tb.enqueue(tail);
                advance(tb, last); // boundary exactly on the last arrival
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
            }
            assert_beds_identical(&windowed, &per_frame, "edge windows");
        }
    }

    #[test]
    fn windowed_delivery_matches_per_frame_across_gaps_and_epochs() {
        // Cross-gap fusion edges: zero-gap bursts alternating with
        // large gaps (each gap folds into the window as a retroactive
        // `max`), deferred reads falling due inside later segments
        // (no-DDIO large frames under dense traffic), defense ticks
        // folding into the bounds (EveryNPackets / EveryPacket), a
        // probe epoch landing mid-backlog, and an arrival placed
        // exactly on the reconstructed window-end clock.
        use pc_nic::RandomizeMode;
        let mut defended = TestBedConfig::paper_baseline();
        defended.driver.randomize = RandomizeMode::EveryNPackets(7);
        let mut defended_no_ddio = TestBedConfig::no_ddio();
        defended_no_ddio.driver.randomize = RandomizeMode::EveryPacket;
        for cfg in [
            TestBedConfig::paper_baseline(),
            TestBedConfig::no_ddio(),
            TestBedConfig::adaptive_defense(),
            defended,
            defended_no_ddio,
        ] {
            let mut windowed = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut per_frame = TestBed::new(cfg.with_rx_engine(RxEngine::PerFrame));
            for (tb, win) in [(&mut windowed, true), (&mut per_frame, false)] {
                let advance = |tb: &mut TestBed, target| {
                    if win {
                        advance_windowed(tb, target);
                    } else {
                        tb.advance_to(target);
                    }
                };
                let mut rng = SmallRng::seed_from_u64(31);
                // Zero-gap + large-gap alternation: 8 bursts of 12
                // frames each, every burst at one timestamp, bursts
                // 250 k cycles apart (far beyond any frame's cost, so
                // each gap used to be a hard window cut).
                let mut frames = ArrivalSchedule::new(LineRate::ten_gigabit())
                    .frames_per_second(2_000_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 0, 96, &mut rng);
                for (i, f) in frames.iter_mut().enumerate() {
                    f.at = 1_000 + (i as u64 / 12) * 250_000;
                }
                tb.enqueue(frames);
                // Probe epoch mid-backlog: stop between bursts, touch
                // monitor-style addresses at the synchronized clock.
                advance(tb, 620_000);
                for line in 0..16u64 {
                    tb.hierarchy_mut().cpu_read(PhysAddr::new(line << 6));
                }
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
                // Dense no-DDIO-style tail spanning several deferral
                // delays: deferred reads fall due inside later fused
                // windows, exercising the could-fall-due cut.
                let tail = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(120_000)
                    .generate(
                        &mut ConstantSize::new(pc_net::EthernetFrame::mtu_sized()),
                        tb.now() + 5_000,
                        40,
                        &mut rng,
                    );
                let last = tail.last().unwrap().at;
                tb.enqueue(tail);
                advance(tb, last);
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
                // Arrival exactly on the reconstructed clock: the next
                // frame lands on the cycle the last window ended, so
                // its gap `max` is exactly a no-op at the boundary.
                let exact = vec![ScheduledFrame::new(
                    tb.now(),
                    pc_net::EthernetFrame::new(64).unwrap(),
                )];
                tb.enqueue(exact);
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
            }
            assert_beds_identical(&windowed, &per_frame, "cross-gap windows");
            assert!(
                windowed.window_stats().windows > 0,
                "the windowed bed formed windows"
            );
            if cfg.ddio.allocates_in_llc() {
                // Nothing defers, so nothing cuts: whole zero-gap
                // bursts and the 250 k-cycle gaps between them fuse
                // into single windows.
                assert!(
                    windowed.window_stats().max_frames >= 12,
                    "a burst and its gaps fused into one window (got {})",
                    windowed.window_stats().max_frames
                );
            }
        }
    }

    #[test]
    fn window_stats_track_fused_windows() {
        let mut tb =
            TestBed::new(TestBedConfig::paper_baseline().with_rx_engine(RxEngine::Batched));
        tb.enqueue(schedule(32, 0));
        drain_windowed(&mut tb);
        let ws = *tb.window_stats();
        assert_eq!(ws.frames, 32);
        assert!(ws.windows >= 1 && ws.windows <= 32);
        assert!(ws.max_frames as f64 >= ws.mean_frames());
        assert!(ws.p50_frames() >= 1 && ws.p50_frames() <= ws.max_frames);
        let snap = window_stats_snapshot();
        assert!(snap.windows >= ws.windows, "globals fold every bed");
        // Paced arrivals (one frame per ~28 k cycles) still fuse: the
        // gaps reconstruct retroactively instead of cutting.
        assert!(
            ws.max_frames > 1,
            "cross-gap fusion spans paced arrivals (max {})",
            ws.max_frames
        );
        tb.reset(TestBedConfig::paper_baseline());
        assert_eq!(tb.window_stats().windows, 0, "reset clears telemetry");
    }

    #[test]
    fn windowed_drain_matches_every_engine_on_mixed_traffic() {
        // The explicit windowed driver against all three public
        // engines, over a mixed paced/backlogged stream with deferred
        // reads (no-DDIO sizes cross the copybreak both ways).
        for cfg in [TestBedConfig::paper_baseline(), TestBedConfig::no_ddio()] {
            let mut windowed = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut oracle = TestBed::new(cfg.with_rx_engine(RxEngine::PerAccess));
            for (tb, win) in [(&mut windowed, true), (&mut oracle, false)] {
                let mut rng = SmallRng::seed_from_u64(21);
                let frames = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(400_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 5, 300, &mut rng);
                tb.enqueue(frames);
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
            }
            assert_beds_identical(&windowed, &oracle, "windowed vs per-access");
        }
    }

    #[test]
    fn deliver_due_bursts_the_backlog() {
        for cfg in [TestBedConfig::paper_baseline(), TestBedConfig::no_ddio()] {
            let mut batched = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut per_frame = TestBed::new(cfg.with_rx_engine(RxEngine::PerFrame));
            for tb in [&mut batched, &mut per_frame] {
                let mut rng = SmallRng::seed_from_u64(3);
                let frames = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(200_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 0, 50, &mut rng);
                let mid = frames[24].at;
                tb.enqueue(frames);
                tb.hierarchy_mut().advance(mid);
                // Delivery keeps going while processing latency makes
                // further frames due, exactly like the per-frame loop.
                let n = tb.deliver_due();
                assert!(n >= 25, "at least the due prefix delivers ({n})");
            }
            assert_beds_identical(&batched, &per_frame, "deliver_due");
        }
    }

    #[test]
    fn reset_bed_is_byte_identical_to_a_fresh_one() {
        // A bed reused across tenants (dirtied by a full run, then
        // reset for a different config) must be indistinguishable from
        // a bed built fresh — same records, clock, stats, ring pages
        // and RNG stream after identical driving.
        let dirty_cfg = TestBedConfig::paper_baseline().with_seed(77);
        let mut reused = TestBed::new(dirty_cfg);
        let mut rng = SmallRng::seed_from_u64(13);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(150_000)
            .generate(&mut pc_net::UniformSizes::full_range(), 0, 120, &mut rng);
        reused.enqueue(frames);
        reused.drain();
        assert!(!reused.records().is_empty(), "the dirtying run did work");

        for cfg in [
            TestBedConfig::no_ddio().with_seed(2020),
            TestBedConfig::adaptive_defense().with_seed(5),
            TestBedConfig::paper_baseline().with_seed(77),
        ] {
            reused.reset(cfg);
            let mut fresh = TestBed::new(cfg);
            assert_beds_identical(&reused, &fresh, "after reset, before driving");
            for tb in [&mut reused, &mut fresh] {
                let mut rng = SmallRng::seed_from_u64(4);
                let frames = ArrivalSchedule::new(LineRate::gigabit())
                    .frames_per_second(200_000)
                    .generate(&mut pc_net::UniformSizes::full_range(), 0, 80, &mut rng);
                tb.enqueue(frames);
                tb.drain();
            }
            assert_beds_identical(&reused, &fresh, "after reset + identical driving");
        }
    }

    #[test]
    fn rx_engine_names_parse() {
        // The parser directly — mutating the process environment would
        // race other tests, and every branch is reachable this way.
        assert_eq!(RxEngine::parse("batched"), Some(RxEngine::Batched));
        assert_eq!(RxEngine::parse("per-frame"), Some(RxEngine::PerFrame));
        assert_eq!(RxEngine::parse("per-access"), Some(RxEngine::PerAccess));
        assert_eq!(RxEngine::parse("Batched"), None, "names are exact");
        assert_eq!(RxEngine::parse(""), None);
    }

    #[test]
    fn window_histogram_saturates_into_the_last_bucket() {
        assert_eq!(hist_bucket(0), 0);
        assert_eq!(hist_bucket(1), 0);
        assert_eq!(hist_bucket(3), 1);
        assert_eq!(hist_bucket(1 << 31), HIST_BUCKETS - 1);
        assert_eq!(hist_bucket(u64::MAX), HIST_BUCKETS - 1);
        let mut ws = WindowStats::default();
        ws.record(u64::MAX);
        assert_eq!(ws.hist[HIST_BUCKETS - 1], 1, "explicit saturation");
        assert_eq!(ws.p50_frames(), 1 << (HIST_BUCKETS - 1));
    }

    /// A flow-cycled schedule: `count` frames across `clients` client
    /// flows, sizes spanning the copybreak both ways.
    fn flow_schedule(clients: u64, count: usize, seed: u64) -> Vec<ScheduledFrame> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = pc_net::FlowCycle::clients(pc_net::UniformSizes::full_range(), clients, 80);
        ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(150_000)
            .generate(&mut gen, 0, count, &mut rng)
    }

    #[test]
    fn multi_queue_delivery_is_byte_identical_across_engines() {
        // Four queues, flows spread across them, all three engines plus
        // the explicit windowed driver: records, clock, statistics and
        // every queue's ring and RNG stream must agree.
        for cfg in [
            TestBedConfig::paper_baseline().with_queues(4),
            TestBedConfig::no_ddio().with_queues(4),
        ] {
            let mut windowed = TestBed::new(cfg.with_rx_engine(RxEngine::Batched));
            let mut per_frame = TestBed::new(cfg.with_rx_engine(RxEngine::PerFrame));
            let mut oracle = TestBed::new(cfg.with_rx_engine(RxEngine::PerAccess));
            for (tb, win) in [
                (&mut windowed, true),
                (&mut per_frame, false),
                (&mut oracle, false),
            ] {
                tb.enqueue(flow_schedule(9, 300, 17));
                if win {
                    drain_windowed(tb);
                } else {
                    tb.drain();
                }
            }
            assert_beds_identical(&windowed, &per_frame, "multi-queue windowed vs per-frame");
            assert_beds_identical(&windowed, &oracle, "multi-queue windowed vs per-access");
            let active = (0..windowed.queue_count())
                .filter(|&q| windowed.queue_driver(q).packets_received() > 0)
                .count();
            assert!(active >= 2, "flows actually spread over queues ({active})");
            assert_eq!(windowed.packets_received_total(), 300);
        }
    }

    #[test]
    fn legacy_flows_pin_to_queue_zero_at_any_queue_count() {
        // A flow-less (legacy) schedule on a 4-queue bed: queues 1..
        // stay completely idle and the observable run — records,
        // clock, cache statistics, queue 0's ring and RNG — is
        // byte-identical to the single-queue bed. Pre-RSS goldens
        // therefore replay unchanged at any queue count.
        let mut single = TestBed::new(TestBedConfig::paper_baseline().with_queues(1));
        let mut multi = TestBed::new(TestBedConfig::paper_baseline().with_queues(4));
        for tb in [&mut single, &mut multi] {
            tb.enqueue(schedule(60, 0));
            tb.drain();
        }
        assert_eq!(single.records(), multi.records(), "records");
        assert_eq!(single.now(), multi.now(), "clock");
        assert_eq!(
            single.hierarchy().llc().stats(),
            multi.hierarchy().llc().stats(),
            "llc stats"
        );
        assert_eq!(
            single.driver().ring().page_addresses(),
            multi.driver().ring().page_addresses(),
            "queue 0 ring pages"
        );
        assert_eq!(single.queues[0].rng, multi.queues[0].rng, "queue 0 RNG");
        for q in 1..multi.queue_count() {
            assert_eq!(
                multi.queue_driver(q).packets_received(),
                0,
                "queue {q} stays idle under legacy flows"
            );
        }
    }

    #[test]
    fn queue_streams_are_independent_of_queue_count() {
        // Steering is a pure flow property, and each queue's streams
        // derive from the master seed alone — so a reset to a
        // different queue count then back reproduces the original run
        // exactly (the fleet driver reuses beds across tenant
        // configs with different queue counts).
        let cfg = TestBedConfig::paper_baseline().with_queues(4).with_seed(99);
        let mut fresh = TestBed::new(cfg);
        let mut reused = TestBed::new(TestBedConfig::paper_baseline().with_queues(2));
        reused.enqueue(flow_schedule(5, 80, 3));
        reused.drain();
        reused.reset(cfg);
        for tb in [&mut fresh, &mut reused] {
            tb.enqueue(flow_schedule(7, 120, 11));
            tb.drain();
        }
        assert_beds_identical(&fresh, &reused, "reset across queue counts");
    }

    #[test]
    fn no_ddio_bed_runs_deferred_reads() {
        let mut tb = TestBed::new(TestBedConfig::no_ddio());
        let mut rng = SmallRng::seed_from_u64(9);
        let frames = ArrivalSchedule::new(LineRate::gigabit())
            .frames_per_second(50_000)
            .generate(
                &mut ConstantSize::new(pc_net::EthernetFrame::mtu_sized()),
                0,
                5,
                &mut rng,
            );
        tb.enqueue(frames);
        tb.drain();
        // After draining, payload blocks are in the cache via CPU reads.
        let r = tb.records()[0];
        assert!(tb.hierarchy().llc().contains(r.buffer_addr.add_blocks(5)));
    }
}
