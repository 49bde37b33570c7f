//! The sliced last-level cache with DDIO write allocation and the
//! adaptive I/O partitioning defense.
//!
//! Storage and simulation state are sharded by slice
//! ([`crate::shard::Shard`]): each slice owns its cut of the SoA line
//! store, its RNG stream, its statistics, its defense clock and its
//! adaptive-partition worklists. Scalar accesses route to the owning
//! shard; the batch entry points partition a trace by slice-hash range
//! *inside* the worker threads (each worker bins and replays its own
//! shard group), merging statistics in slice order — byte-identical to
//! the sequential walk for any seed and any thread count, in every
//! [`DdioMode`] including `Adaptive`.

use crate::addr::PhysAddr;
use crate::geometry::CacheGeometry;
use crate::hierarchy::{LatencyModel, TraceSummary};
use crate::ops::CacheOp;
use crate::partition::AdaptiveConfig;
use crate::replacement::ReplacementPolicy;
use crate::set::Domain;
use crate::shard::Shard;
use crate::slicehash::SliceHash;
use crate::stats::CacheStats;
use crate::walk::WayHint;
use std::fmt;

/// How DMA from I/O devices interacts with the LLC.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum DdioMode {
    /// Pre-DDIO behaviour: DMA writes go to main memory (invalidating any
    /// cached copy); the CPU later demand-fetches the data.
    Disabled,
    /// Intel DDIO: I/O writes allocate directly in the LLC, restricted to
    /// `io_way_limit` ways per set (2 on real parts). I/O fills beyond the
    /// limit displace other I/O lines, but fills *within* the limit can
    /// displace CPU lines — the vulnerability the paper exploits.
    Enabled {
        /// Maximum ways per set an I/O fill may occupy.
        io_way_limit: u8,
    },
    /// The paper's §VII defense: per-set I/O partitions sized by an
    /// activity-driven saturating counter; I/O fills can *only* displace
    /// I/O lines, so the spy's primed lines never observe packets.
    Adaptive(AdaptiveConfig),
}

impl DdioMode {
    /// DDIO with Intel's 2-way allocation limit (the vulnerable baseline).
    pub fn enabled() -> Self {
        DdioMode::Enabled { io_way_limit: 2 }
    }

    /// The adaptive partitioning defense with the paper's defaults.
    pub fn adaptive() -> Self {
        DdioMode::Adaptive(AdaptiveConfig::paper_defaults())
    }

    /// `true` for any mode in which I/O writes allocate in the LLC.
    pub fn allocates_in_llc(&self) -> bool {
        !matches!(self, DdioMode::Disabled)
    }
}

impl Default for DdioMode {
    fn default() -> Self {
        DdioMode::enabled()
    }
}

/// A (slice, set-index) pair — one concrete cache set in the sliced LLC.
///
/// The spy's "page-aligned cache sets" (256 of them on the paper's
/// machine) are values of this type.
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub struct SliceSet {
    /// Slice number (`0..geometry.slices()`).
    pub slice: usize,
    /// Set index within the slice (`0..geometry.sets_per_slice()`).
    pub set: usize,
}

impl SliceSet {
    /// Creates a slice/set pair.
    pub fn new(slice: usize, set: usize) -> Self {
        SliceSet { slice, set }
    }
}

impl fmt::Display for SliceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}#{}", self.slice, self.set)
    }
}

/// The kind of access presented to the LLC.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessKind {
    /// CPU load.
    CpuRead,
    /// CPU store (write-allocate, write-back).
    CpuWrite,
    /// DMA write from an I/O device (a packet block arriving).
    IoWrite,
    /// DMA read by an I/O device (descriptor fetches, transmit).
    IoRead,
}

impl AccessKind {
    /// `true` for the two I/O kinds.
    pub fn is_io(self) -> bool {
        matches!(self, AccessKind::IoWrite | AccessKind::IoRead)
    }
}

/// What a single access did, in units the memory controller cares about.
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct AccessOutcome {
    /// The line was present in the LLC.
    pub hit: bool,
    /// DRAM lines read because of this access.
    pub dram_reads: u32,
    /// DRAM lines written because of this access (writebacks and
    /// non-DDIO DMA writes).
    pub dram_writes: u32,
    /// This access displaced a CPU-domain line from the LLC — the event
    /// the Packet Chasing spy detects.
    pub evicted_cpu: bool,
}

/// Aggregate of a batch of accesses (see [`SlicedCache::access_batch`]).
#[derive(Copy, Clone, Eq, PartialEq, Debug, Default)]
pub struct BatchOutcome {
    /// Accesses that hit in the LLC.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Total DRAM lines read.
    pub dram_reads: u64,
    /// Total DRAM lines written.
    pub dram_writes: u64,
    /// Accesses that displaced a CPU-domain line.
    pub evicted_cpu: u64,
}

impl BatchOutcome {
    #[inline]
    fn absorb(&mut self, out: AccessOutcome) {
        if out.hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.dram_reads += u64::from(out.dram_reads);
        self.dram_writes += u64::from(out.dram_writes);
        self.evicted_cpu += u64::from(out.evicted_cpu);
    }

    /// Folds another aggregate into this one (all counters are sums, so
    /// merging per-shard aggregates in any order equals the sequential
    /// total; the dispatcher still merges in slice order by convention).
    #[inline]
    pub fn merge(&mut self, other: BatchOutcome) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
        self.evicted_cpu += other.evicted_cpu;
    }
}

/// One decoded access, binned per slice by the batch dispatcher.
type BinnedOp = (u32, u64, AccessKind); // (local set, tag, kind)

/// A [`BinnedOp`] that also remembers which segment of the trace it
/// came from, for the segment-reporting dispatcher.
type SegBinnedOp = (u32, u32, u64, AccessKind); // (segment, local set, tag, kind)

/// Reusable per-slice bin scratch for the batch dispatchers.
///
/// Binning a trace needs one `Vec` per slice; allocating them per batch
/// costs real time at `Hierarchy::run_trace` call rates, so the cache
/// carries one of these across batches (every dispatching entry point —
/// `run_trace` through [`crate::Hierarchy`], `access_batch*` directly —
/// shares it) and the dispatcher clears (capacity-preserving) rather
/// than reallocates. The content never outlives a dispatch — this is
/// scratch, not state — so a cloned cache starting from an empty
/// scratch is equivalent.
#[derive(Clone, Debug, Default)]
pub(crate) struct TraceBins {
    bins: Vec<Vec<BinnedOp>>,
}

impl TraceBins {
    /// Clears all bins and makes sure one exists per slice; keeps
    /// whatever capacity previous batches grew.
    fn reset(&mut self, slices: usize) {
        self.bins.resize_with(slices, Vec::new);
        for bin in &mut self.bins {
            bin.clear();
        }
    }
}

/// [`TraceBins`] for the segment-reporting dispatcher. A separate
/// scratch (rather than widening [`BinnedOp`]) keeps the unsegmented
/// hot path's bin records at their current size.
#[derive(Clone, Debug, Default)]
pub(crate) struct SegTraceBins {
    bins: Vec<Vec<SegBinnedOp>>,
}

impl SegTraceBins {
    fn reset(&mut self, slices: usize) {
        self.bins.resize_with(slices, Vec::new);
        for bin in &mut self.bins {
            bin.clear();
        }
    }
}

/// The partition limit every set starts at in `mode`, validating the
/// mode against the geometry.
fn initial_io_limit(geom: CacheGeometry, mode: DdioMode) -> u8 {
    match mode {
        DdioMode::Disabled => 0,
        DdioMode::Enabled { io_way_limit } => {
            assert!(io_way_limit > 0, "DDIO way limit must be non-zero");
            assert!(
                (io_way_limit as usize) <= geom.ways(),
                "DDIO way limit exceeds associativity"
            );
            io_way_limit
        }
        DdioMode::Adaptive(cfg) => {
            cfg.validate(geom.ways());
            cfg.min_io_lines
        }
    }
}

/// Batches shorter than this replay inline: binning + thread hand-off
/// costs more than it saves. Crossing the threshold never changes
/// results (the two paths are byte-equivalent), only who runs them.
pub(crate) const PAR_BATCH_MIN: usize = 4096;

/// The sliced, set-associative LLC.
///
/// All addresses are physical. The cache stores only metadata (tags,
/// dirty bits, domains); no data bytes are simulated. Storage is one
/// contiguous structure-of-arrays *per slice* (`src/store.rs`), owned
/// by that slice's simulation shard — there is no per-set object on the
/// hot path, and no cross-slice state at all.
///
/// ```
/// use pc_cache::{AccessKind, CacheGeometry, DdioMode, PhysAddr, SlicedCache};
/// let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::enabled());
/// let a = PhysAddr::new(0x8000);
/// assert!(!llc.access(a, AccessKind::CpuRead).hit);
/// assert!(llc.access(a, AccessKind::CpuRead).hit);
/// ```
#[derive(Clone, Debug)]
pub struct SlicedCache {
    geom: CacheGeometry,
    hash: SliceHash,
    mode: DdioMode,
    /// Replacement policy and RNG seed the cache was built with; a
    /// [`SlicedCache::reset`] keeps both.
    policy: ReplacementPolicy,
    seed: u64,
    shards: Vec<Shard>,
    /// Per-slice bin scratch reused across batch dispatches.
    bins: TraceBins,
    /// Per-slice bin scratch for the segment-reporting dispatcher.
    seg_bins: SegTraceBins,
}

impl SlicedCache {
    /// Creates a cache with LRU replacement and a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's slice count is unsupported by the slice
    /// hash (must be 1/2/4/8) or if an [`AdaptiveConfig`] is invalid for
    /// the geometry.
    pub fn new(geom: CacheGeometry, mode: DdioMode) -> Self {
        SlicedCache::with_policy_and_seed(geom, mode, ReplacementPolicy::Lru, 0x9e37_79b9)
    }

    /// Creates a cache with an explicit replacement policy and RNG seed.
    ///
    /// Each slice's shard derives its own RNG stream from
    /// `pc_par::mix_seed(seed, slice)`, so a slice's randomized decisions
    /// depend only on the accesses that slice receives — the property
    /// that makes parallel and sequential simulation byte-identical.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SlicedCache::new`].
    pub fn with_policy_and_seed(
        geom: CacheGeometry,
        mode: DdioMode,
        policy: ReplacementPolicy,
        seed: u64,
    ) -> Self {
        let hash = SliceHash::for_slices(geom.slices() as u32);
        let io_limit = initial_io_limit(geom, mode);
        SlicedCache {
            geom,
            hash,
            mode,
            policy,
            seed,
            shards: (0..geom.slices())
                .map(|slice| {
                    Shard::new(
                        geom.sets_per_slice(),
                        geom.ways(),
                        policy,
                        io_limit,
                        seed,
                        slice,
                    )
                })
                .collect(),
            bins: TraceBins::default(),
            seg_bins: SegTraceBins::default(),
        }
    }

    /// Returns the cache to exactly the state
    /// `SlicedCache::with_policy_and_seed(geom, mode, policy, seed)`
    /// builds, with the policy and seed it was built with, reusing its
    /// allocations: every line, replacement stamp or bit, set record
    /// (partition limit included), shard RNG, statistic, defense clock
    /// and worklist is restored in place. A reset that keeps the
    /// geometry allocates nothing; a larger geometry reallocates the
    /// arrays that outgrow their capacity.
    ///
    /// Unlike a fresh build, a reset writes every line word, so all of
    /// the store is resident afterwards: rebuild instead where a cache
    /// is used once and mostly untouched.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SlicedCache::new`].
    pub fn reset(&mut self, geom: CacheGeometry, mode: DdioMode) {
        let new_hash = SliceHash::for_slices(geom.slices() as u32);
        let io_limit = initial_io_limit(geom, mode);
        // Exhaustive, so a new field is a compile error until the reset
        // covers it. The bin scratches are content-free between
        // dispatches; their capacity is what a reset keeps.
        let SlicedCache {
            geom: old_geom,
            hash,
            mode: old_mode,
            policy,
            seed,
            shards,
            bins: _,
            seg_bins: _,
        } = self;
        *old_geom = geom;
        *hash = new_hash;
        *old_mode = mode;
        let (sets, ways) = (geom.sets_per_slice(), geom.ways());
        shards.truncate(geom.slices());
        for (slice, shard) in shards.iter_mut().enumerate() {
            shard.reset(sets, ways, io_limit, *seed, slice);
        }
        for slice in shards.len()..geom.slices() {
            shards.push(Shard::new(sets, ways, *policy, io_limit, *seed, slice));
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The DDIO mode the cache was built with.
    pub fn mode(&self) -> DdioMode {
        self.mode
    }

    /// The slice hash (ground truth — attacker code must not call this).
    pub fn slice_hash(&self) -> SliceHash {
        self.hash
    }

    /// The concrete (slice, set) an address maps to. Ground truth for
    /// instrumentation and tests; the attacker discovers this by timing.
    pub fn locate(&self, addr: PhysAddr) -> SliceSet {
        SliceSet {
            slice: self.hash.slice_of(addr),
            set: self.geom.set_index(addr),
        }
    }

    /// Whether `addr` is currently cached (oracle for tests).
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let ss = self.locate(addr);
        self.shards[ss.slice]
            .lookup(ss.set, self.geom.tag(addr))
            .is_some()
    }

    /// Number of valid lines of `domain` in a concrete set.
    pub fn domain_count(&self, ss: SliceSet, domain: Domain) -> usize {
        self.shards[ss.slice].count_domain(ss.set, domain)
    }

    /// Current I/O partition size of a set (meaningful in `Enabled` /
    /// `Adaptive` modes).
    pub fn io_partition_limit(&self, ss: SliceSet) -> usize {
        self.shards[ss.slice].io_limit(ss.set)
    }

    /// Accumulated statistics, merged over the shards in slice order.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::new();
        for shard in &self.shards {
            total.merge(shard.stats());
        }
        total
    }

    /// Statistics accumulated by one slice's shard alone.
    ///
    /// Summing this over all slices equals [`SlicedCache::stats`]. The
    /// per-slice view exists so tests can pin the sharded replay to the
    /// sequential walk at slice granularity — in particular
    /// [`CacheStats::defense_evals`], the per-slice count of adaptive
    /// period re-evaluations, must match exactly, not just in total.
    ///
    /// # Panics
    ///
    /// Panics if `slice >= geometry().slices()`.
    pub fn slice_stats(&self, slice: usize) -> CacheStats {
        self.shards[slice].stats()
    }

    /// Resets statistics to zero (the cache contents are untouched).
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.reset_stats();
        }
    }

    /// Invalidates the whole cache, counting writebacks into the stats.
    ///
    /// Returns the number of dirty lines written back so callers that
    /// track DRAM traffic (e.g. [`crate::Hierarchy::flush_all`]) can
    /// account the flush as memory writes — the original implementation
    /// silently dropped that traffic.
    pub fn flush_all(&mut self) -> usize {
        self.shards.iter_mut().map(Shard::flush_all).sum()
    }

    /// Performs one access and reports what happened.
    ///
    /// In `Adaptive` mode the access ticks the owning slice's defense
    /// clock, which drives that slice's periodic boundary re-evaluation
    /// (see [`crate::AdaptiveConfig`]); other modes keep the clock
    /// ticking but never read it.
    #[inline]
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> AccessOutcome {
        let ss = self.locate(addr);
        let tag = self.geom.tag(addr);
        self.shards[ss.slice].access(self.mode, ss.set, tag, kind)
    }

    /// A CPU read of `addr` through its walk hint (see [`crate::walk`]):
    /// the hinted way first, the ordinary access when that way does not
    /// hold the line, with the hint refreshed from where the line ends
    /// up.
    #[inline]
    pub(crate) fn read_hinted(&mut self, addr: PhysAddr, hint: &WayHint) -> AccessOutcome {
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        let (slice, way) = hint.get();
        if let Some(shard) = self.shards.get_mut(slice) {
            if shard.holds(set, way, tag) {
                shard.read_hit(self.mode, set, way, tag);
                return AccessOutcome {
                    hit: true,
                    ..AccessOutcome::default()
                };
            }
        }
        let slice = self.hash.slice_of(addr);
        let (out, way) = self.shards[slice].read(self.mode, set, tag);
        if let Some(way) = way {
            hint.set(slice, way);
        }
        out
    }

    /// The bulk arm of a hinted walk: when every line's hint matches in
    /// one (slice, set), applies the walk's hits at once, touching the
    /// lines in `order` ([`Shard::read_hits`]), and returns `true`.
    /// Otherwise nothing changes and the result is `false`.
    pub(crate) fn read_hits_hinted(
        &mut self,
        lines: &[PhysAddr],
        hints: &[WayHint],
        order: impl Iterator<Item = usize> + Clone,
    ) -> bool {
        let geom = self.geom;
        let Some(&first) = lines.first() else {
            return false;
        };
        let set = geom.set_index(first);
        let (slice, _) = hints[0].get();
        let Some(shard) = self.shards.get_mut(slice) else {
            return false;
        };
        // Checked in walk order: the line a walk most likely lost is
        // the one the previous walk in the same direction touched
        // first (its set's LRU line), so a failing check ends early.
        for i in order.clone() {
            let (addr, (hinted_slice, way)) = (lines[i], hints[i].get());
            if hinted_slice != slice || geom.set_index(addr) != set {
                return false;
            }
            // Fault site `unverified-walk-hint`: the bulk path takes a
            // keyed line's hint on trust, so a walk whose keyed line
            // was evicted counts it as a hit (and touches whatever now
            // sits in its way). Keyed on the raw address.
            if crate::fault::fires_keyed(crate::fault::FaultSite::UnverifiedWalkHint, addr.raw()) {
                continue;
            }
            if !shard.holds(set, way, geom.tag(addr)) {
                return false;
            }
        }
        let touches = order.map(|i| (hints[i].get().1, geom.tag(lines[i])));
        shard.read_hits(self.mode, set, touches, lines.len() as u64)
    }

    /// Runs a batch of [`CacheOp`]s and returns the aggregate outcome.
    ///
    /// Semantically identical to calling [`SlicedCache::access`] once per
    /// element — and, because the shards share no state and every
    /// slice's defense clock is a pure function of its own access
    /// stream, identical for *any* worker-thread count, in every mode
    /// including `Adaptive` (this entry point fans large batches out
    /// over [`pc_par::max_threads`] workers; set `PC_BENCH_THREADS=1` to
    /// force the sequential walk). This cache-level replay is
    /// *clockless*: [`CacheOp::lead`]s are ignored (there is no clock to
    /// advance — leads never affect cache behaviour). Clock-advancing
    /// callers should use [`crate::Hierarchy::run_trace`] /
    /// [`crate::Hierarchy::run_ops`]; this variant serves clockless
    /// replay like the `cache_throughput` bench.
    ///
    /// ```
    /// use pc_cache::{CacheGeometry, CacheOp, DdioMode, PhysAddr, SlicedCache};
    /// let mut llc = SlicedCache::new(CacheGeometry::tiny(), DdioMode::adaptive());
    /// // Prime every set with CPU lines, then storm the same sets with
    /// // DMA fills at conflicting tags.
    /// let cpu: Vec<_> = (0..64u64)
    ///     .map(|i| CacheOp::read(PhysAddr::new(i * 0x1040)))
    ///     .collect();
    /// let io: Vec<_> = (0..64u64)
    ///     .map(|i| CacheOp::io_write(PhysAddr::new(0x10_0000 + i * 0x1040)))
    ///     .collect();
    /// llc.access_batch(&cpu);
    /// let out = llc.access_batch(&io);
    /// assert_eq!(out.hits + out.misses, 64);
    /// assert_eq!(out.evicted_cpu, 0, "the adaptive defense shields CPU lines");
    /// ```
    pub fn access_batch(&mut self, ops: &[CacheOp]) -> BatchOutcome {
        let threads = pc_par::max_threads();
        if !self.batch_worth_sharding(ops.len(), threads) {
            // Short batch: binning + thread hand-off would cost more than
            // it saves. Same results either way.
            return self.access_batch_threads(ops, 1);
        }
        self.access_batch_threads(ops, threads)
    }

    /// [`SlicedCache::access_batch`] with an explicit worker bound.
    ///
    /// Shards whenever `threads > 1` — no batch-length heuristic — so
    /// determinism tests and benches exercise the dispatcher on traces
    /// of any size; results are byte-identical for every `threads`
    /// value.
    pub fn access_batch_threads(&mut self, ops: &[CacheOp], threads: usize) -> BatchOutcome {
        if threads <= 1 || self.shards.len() <= 1 || ops.is_empty() {
            let mut agg = BatchOutcome::default();
            for &op in ops {
                agg.absorb(self.access(op.addr, op.kind));
            }
            return agg;
        }
        let mode = self.mode;
        let per_shard = self.run_sharded(ops, threads, &|shard, bin| {
            let mut agg = BatchOutcome::default();
            for &(set, tag, kind) in bin {
                agg.absorb(shard.access(mode, set as usize, tag, kind));
            }
            agg
        });
        let mut total = BatchOutcome::default();
        for out in per_shard {
            total.merge(out);
        }
        total
    }

    /// Sharded trace replay for [`crate::Hierarchy::run_trace`]: like
    /// [`SlicedCache::access_batch_threads`] but also prices every access
    /// with `lat`, so the caller can advance its clock by the summed
    /// cycles. [`CacheOp::lead`]s are *not* included here — they are
    /// outcome-independent input data, so the caller sums them in one
    /// pass and the workers never see them.
    ///
    /// Valid for **every** mode: an access outcome is a pure function of
    /// the owning shard's prior accesses (the adaptive period runs off
    /// the shard's own defense clock, not the cycle clock), so per-shard
    /// replay equals the sequential clock-advancing walk byte for byte.
    pub(crate) fn trace_batch_threads(
        &mut self,
        ops: &[CacheOp],
        threads: usize,
        lat: LatencyModel,
    ) -> TraceSummary {
        let mode = self.mode;
        let allocates = mode.allocates_in_llc();
        let per_shard = self.run_sharded(ops, threads, &|shard, bin| {
            let mut sum = TraceSummary::default();
            for &(set, tag, kind) in bin {
                let out = shard.access(mode, set as usize, tag, kind);
                sum.accesses += 1;
                sum.hits += u64::from(out.hit);
                sum.cycles += lat.access_latency(out.hit, kind, allocates);
                sum.dram_reads += u64::from(out.dram_reads);
                sum.dram_writes += u64::from(out.dram_writes);
            }
            sum
        });
        let mut total = TraceSummary::default();
        for sum in per_shard {
            total.accesses += sum.accesses;
            total.hits += sum.hits;
            total.cycles += sum.cycles;
            total.dram_reads += sum.dram_reads;
            total.dram_writes += sum.dram_writes;
        }
        total
    }

    /// Whether a batch of `len` ops should take the sharded path.
    pub(crate) fn batch_worth_sharding(&self, len: usize, threads: usize) -> bool {
        threads > 1 && self.shards.len() > 1 && len >= PAR_BATCH_MIN
    }

    /// Segment-reporting [`SlicedCache::trace_batch_threads`]: `starts`
    /// are ascending segment start indices (`starts[0] == 0`), and
    /// `seg_out` receives one latency-priced [`TraceSummary`] per
    /// segment, merged across shards in slice order. The access stream
    /// each shard replays is identical to the unsegmented dispatch —
    /// segment tags ride along in the bins purely as reporting keys —
    /// so cache state, statistics and the segment-summed totals are
    /// byte-identical to [`SlicedCache::trace_batch_threads`], for any
    /// thread count. Leads are again the caller's job.
    pub(crate) fn trace_batch_threads_segmented(
        &mut self,
        ops: &[CacheOp],
        starts: &[usize],
        threads: usize,
        lat: LatencyModel,
        seg_out: &mut Vec<TraceSummary>,
    ) {
        let nsegs = starts.len();
        seg_out.clear();
        seg_out.resize(nsegs, TraceSummary::default());
        let mode = self.mode;
        let allocates = mode.allocates_in_llc();
        let slices = self.shards.len();
        self.seg_bins.reset(slices);
        let hash = self.hash;
        let geom = self.geom;
        let shards = &mut self.shards;
        let bins = &mut self.seg_bins.bins;
        // Same keyed misbinning fault as the unsegmented dispatcher
        // (`swapped-slice-bin`): the two arms must stay equally covered.
        let slice_of = |addr: crate::PhysAddr| {
            let slice = hash.slice_of(addr);
            if slices > 1
                && crate::fault::fires_keyed(crate::fault::FaultSite::SwappedSliceBin, addr.raw())
            {
                slice ^ 1
            } else {
                slice
            }
        };
        let run = |shard: &mut Shard, bin: &[SegBinnedOp]| {
            let mut sums = vec![TraceSummary::default(); nsegs];
            for &(seg, set, tag, kind) in bin {
                let out = shard.access(mode, set as usize, tag, kind);
                let sum = &mut sums[seg as usize];
                sum.accesses += 1;
                sum.hits += u64::from(out.hit);
                sum.cycles += lat.access_latency(out.hit, kind, allocates);
                sum.dram_reads += u64::from(out.dram_reads);
                sum.dram_writes += u64::from(out.dram_writes);
            }
            sums
        };
        let per_shard: Vec<Vec<TraceSummary>> = if threads <= 1 || slices <= 1 {
            let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
            let per_slice_hint = ops.len() / slices + ops.len() / 8 + 1;
            for bin in bins.iter_mut() {
                bin.reserve(per_slice_hint);
            }
            let mut seg = 0u32;
            for (idx, &op) in ops.iter().enumerate() {
                while (seg as usize + 1) < nsegs && idx >= starts[seg as usize + 1] {
                    seg += 1;
                }
                bins[slice_of(op.addr)].push((
                    seg,
                    geom.set_index(op.addr) as u32,
                    geom.tag(op.addr),
                    op.kind,
                ));
            }
            shards
                .iter_mut()
                .zip(bins.iter())
                .map(|(shard, bin)| run(shard, bin))
                .collect()
        } else {
            let groups = pc_par::parallel_zip_chunks_threads(
                shards,
                bins,
                threads,
                |first_slice, shard_group, bin_group| {
                    let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
                    let range = first_slice..first_slice + shard_group.len();
                    let mut seg = 0u32;
                    for (idx, &op) in ops.iter().enumerate() {
                        while (seg as usize + 1) < nsegs && idx >= starts[seg as usize + 1] {
                            seg += 1;
                        }
                        let slice = slice_of(op.addr);
                        if range.contains(&slice) {
                            bin_group[slice - first_slice].push((
                                seg,
                                geom.set_index(op.addr) as u32,
                                geom.tag(op.addr),
                                op.kind,
                            ));
                        }
                    }
                    shard_group
                        .iter_mut()
                        .zip(bin_group.iter())
                        .map(|(shard, bin)| run(shard, bin))
                        .collect::<Vec<Vec<TraceSummary>>>()
                },
            );
            groups.into_iter().flatten().collect()
        };
        for sums in per_shard {
            for (out, sum) in seg_out.iter_mut().zip(sums) {
                out.merge(&sum);
            }
        }
    }

    /// Partitions `ops` by slice-hash range and runs `run` once per
    /// shard with that shard's bin, on up to `threads` workers, returning
    /// results in slice order.
    ///
    /// The binning pass is folded *into* the workers: shards are cut
    /// into contiguous groups ([`pc_par::parallel_zip_chunks_threads`]
    /// pairs each group with its cut of the bin scratch), and each
    /// worker scans the whole trace once, decoding and keeping only the
    /// ops whose slice hash lands in its range. Per-slice op order is
    /// preserved by construction (one scanner per slice), so the bins —
    /// and therefore the replay — are identical to a single sequential
    /// binning pass, with no serial phase left in front of the workers.
    fn run_sharded<R, F>(&mut self, ops: &[CacheOp], threads: usize, run: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Shard, &[BinnedOp]) -> R + Sync,
    {
        let slices = self.shards.len();
        self.bins.reset(slices);
        let hash = self.hash;
        let geom = self.geom;
        // Disjoint field borrows: the workers mutate the shards and the
        // bin scratch, nothing else of `self`.
        let shards = &mut self.shards;
        let bins = &mut self.bins.bins;
        let bin_one = |bin: &mut Vec<BinnedOp>, op: CacheOp| {
            bin.push((geom.set_index(op.addr) as u32, geom.tag(op.addr), op.kind));
        };
        // Fault site `swapped-slice-bin`: the dispatcher routes keyed
        // addresses to the neighbouring slice, disagreeing with the
        // hash the sequential walk uses. Keyed (pure in the address),
        // so every worker schedule misbins the same ops. Shared by
        // both dispatch arms so thread count still can't matter.
        let slice_of = |addr: crate::PhysAddr| {
            let slice = hash.slice_of(addr);
            if slices > 1
                && crate::fault::fires_keyed(crate::fault::FaultSite::SwappedSliceBin, addr.raw())
            {
                slice ^ 1
            } else {
                slice
            }
        };
        if threads <= 1 || slices <= 1 {
            // One sequential binning pass, then the shards in order.
            let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
            let per_slice_hint = ops.len() / slices + ops.len() / 8 + 1;
            for bin in bins.iter_mut() {
                bin.reserve(per_slice_hint);
            }
            for &op in ops {
                bin_one(&mut bins[slice_of(op.addr)], op);
            }
            return shards
                .iter_mut()
                .zip(bins.iter())
                .map(|(shard, bin)| run(shard, bin))
                .collect();
        }
        let groups = pc_par::parallel_zip_chunks_threads(
            shards,
            bins,
            threads,
            |first_slice, shard_group, bin_group| {
                let _engine = crate::fault::engine_scope(crate::fault::Engine::Batch);
                let range = first_slice..first_slice + shard_group.len();
                for &op in ops {
                    let slice = slice_of(op.addr);
                    if range.contains(&slice) {
                        bin_one(&mut bin_group[slice - first_slice], op);
                    }
                }
                shard_group
                    .iter_mut()
                    .zip(bin_group.iter())
                    .map(|(shard, bin)| run(shard, bin))
                    .collect::<Vec<R>>()
            },
        );
        groups.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_llc(mode: DdioMode) -> SlicedCache {
        SlicedCache::new(CacheGeometry::tiny(), mode)
    }

    /// Addresses that all map to the same (slice, set) as `base`, spaced
    /// one set-stride apart in the tag bits.
    fn conflicting_addrs(llc: &SlicedCache, base: PhysAddr, n: usize) -> Vec<PhysAddr> {
        let target = llc.locate(base);
        let stride = (llc.geometry().sets_per_slice() * crate::LINE_SIZE) as u64;
        let mut out = Vec::new();
        let mut a = base.raw();
        while out.len() < n {
            let cand = PhysAddr::new(a);
            if llc.locate(cand) == target {
                out.push(cand);
            }
            a += stride;
        }
        out
    }

    /// An address in the same slice as `base` but a different set — used
    /// to drive the adaptation clock of `base`'s slice without touching
    /// its set (adaptation is per-slice, so traffic in *another* slice
    /// would not re-evaluate this one).
    fn same_slice_other_set(llc: &SlicedCache, base: PhysAddr) -> PhysAddr {
        let target = llc.locate(base);
        (1u64..)
            .map(|i| PhysAddr::new(base.raw() + i * crate::LINE_SIZE as u64))
            .find(|&a| {
                let ss = llc.locate(a);
                ss.slice == target.slice && ss.set != target.set
            })
            .expect("a same-slice, different-set address exists")
    }

    /// The internal twin of `tests/reset.rs`: a reset cache's shards
    /// must equal a fresh build's field for field — including state no
    /// public accessor shows until it matters, like the dirty epoch and
    /// the worklists.
    #[test]
    fn reset_shards_equal_fresh_shards() {
        use crate::ReplacementPolicy::{Lru, Random, TreePlru};
        let geom = CacheGeometry::tiny();
        let adaptive = DdioMode::Adaptive(AdaptiveConfig {
            period: 16,
            ..AdaptiveConfig::paper_defaults()
        });
        let ops: Vec<CacheOp> = (0..5000u64)
            .map(|i| {
                let addr = PhysAddr::new(pc_par::mix_seed(7, i) % 4096 * 64);
                if i % 3 == 0 {
                    CacheOp::io_write(addr)
                } else {
                    CacheOp::new(addr, AccessKind::CpuWrite)
                }
            })
            .collect();
        for policy in [Lru, TreePlru, Random] {
            for mode in [DdioMode::Disabled, DdioMode::enabled(), adaptive] {
                let mut llc = SlicedCache::with_policy_and_seed(geom, adaptive, policy, 11);
                llc.access_batch_threads(&ops, 1);
                llc.reset(geom, mode);
                let fresh = SlicedCache::with_policy_and_seed(geom, mode, policy, 11);
                assert_eq!(
                    format!("{:?}", llc.shards),
                    format!("{:?}", fresh.shards),
                    "{policy:?} into {mode:?}"
                );
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x4_0000);
        assert!(!llc.access(a, AccessKind::CpuRead).hit);
        assert!(llc.access(a, AccessKind::CpuRead).hit);
        assert_eq!(llc.stats().cpu_hits, 1);
        assert_eq!(llc.stats().cpu_misses, 1);
    }

    #[test]
    fn associativity_is_respected() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), ways + 1);
        for &a in &addrs {
            llc.access(a, AccessKind::CpuRead);
        }
        // First (LRU) address must have been displaced by the last fill.
        assert!(!llc.contains(addrs[0]));
        for &a in &addrs[1..] {
            assert!(llc.contains(a));
        }
    }

    #[test]
    fn ddio_fill_evicts_cpu_line_within_limit() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let base = PhysAddr::new(0);
        let ways = llc.geometry().ways();
        let primes = conflicting_addrs(&llc, base, ways + 1);
        // Prime the set with CPU lines using addresses [1..=ways].
        for &a in &primes[1..] {
            llc.access(a, AccessKind::CpuRead);
        }
        // An I/O write to the same set must displace a primed line.
        let out = llc.access(primes[0], AccessKind::IoWrite);
        assert!(out.evicted_cpu, "DDIO fill should displace a CPU line");
        assert_eq!(llc.stats().io_evicted_cpu, 1);
    }

    #[test]
    fn ddio_way_limit_recycles_io_lines() {
        let mut llc = tiny_llc(DdioMode::Enabled { io_way_limit: 2 });
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 5);
        for &a in &addrs {
            llc.access(a, AccessKind::IoWrite);
        }
        let ss = llc.locate(addrs[0]);
        assert!(
            llc.domain_count(ss, Domain::Io) <= 2,
            "I/O must never hold more than the way limit"
        );
    }

    #[test]
    fn disabled_ddio_sends_dma_to_memory() {
        let mut llc = tiny_llc(DdioMode::Disabled);
        let a = PhysAddr::new(0x8000);
        let out = llc.access(a, AccessKind::IoWrite);
        assert!(!out.hit);
        assert_eq!(out.dram_writes, 1);
        assert!(!llc.contains(a), "no allocation without DDIO");
        // CPU read later demand-fetches it.
        let out = llc.access(a, AccessKind::CpuRead);
        assert!(!out.hit);
        assert_eq!(out.dram_reads, 1);
        assert!(llc.contains(a));
    }

    #[test]
    fn disabled_ddio_invalidates_stale_cached_copy() {
        let mut llc = tiny_llc(DdioMode::Disabled);
        let a = PhysAddr::new(0x8000);
        llc.access(a, AccessKind::CpuRead);
        assert!(llc.contains(a));
        llc.access(a, AccessKind::IoWrite);
        assert!(
            !llc.contains(a),
            "DMA write must invalidate the cached copy"
        );
    }

    #[test]
    fn adaptive_never_evicts_cpu_lines_on_io_fill() {
        let mut llc = tiny_llc(DdioMode::adaptive());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 2 * ways);
        // Fill the CPU partition.
        for &a in &addrs[..ways] {
            llc.access(a, AccessKind::CpuRead);
        }
        // Hammer the set with I/O fills.
        for &a in &addrs[ways..] {
            let out = llc.access(a, AccessKind::IoWrite);
            assert!(
                !out.evicted_cpu,
                "adaptive mode must never displace CPU lines"
            );
        }
        assert_eq!(llc.stats().io_evicted_cpu, 0);
    }

    #[test]
    fn adaptive_grows_partition_under_sustained_io() {
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 6);
        let ss = llc.locate(addrs[0]);
        assert_eq!(llc.io_partition_limit(ss), 1);
        // Sustained I/O activity across several periods (one per 10
        // accesses to this slice) grows the limit.
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        assert!(
            llc.io_partition_limit(ss) > 1,
            "partition should have grown"
        );
        assert!(llc.io_partition_limit(ss) <= 3);
    }

    #[test]
    fn adaptive_shrinks_partition_when_idle() {
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 6);
        let ss = llc.locate(addrs[0]);
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        assert!(llc.io_partition_limit(ss) > 1);
        // Standing I/O lines keep the partition grown (presence
        // semantics); once they leave the cache and I/O stays idle, the
        // partition shrinks back to the floor. CPU traffic in a
        // different set *of the same slice* keeps that shard's
        // adaptation clock moving.
        llc.flush_all();
        let other = same_slice_other_set(&llc, addrs[0]);
        for _ in 0..50 {
            llc.access(other, AccessKind::CpuRead);
        }
        assert_eq!(
            llc.io_partition_limit(ss),
            1,
            "partition should shrink back"
        );
    }

    #[test]
    fn adaptive_shrink_below_occupancy_evicts_surplus() {
        // The boundary-shrink clamp: grow the partition to 3 under heavy
        // traffic, keep 3 I/O lines resident, then go idle with
        // `t_low = 4` so the presence floor (3) is *below* the shrink
        // threshold. The boundary steps down beneath the standing
        // occupancy, and the surplus lines must be displaced eagerly
        // (with writebacks — DDIO lines are dirty) so occupancy never
        // exceeds the clamped boundary.
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 4,
            t_low: 4,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), 8);
        let ss = llc.locate(addrs[0]);
        while llc.io_partition_limit(ss) < 3 {
            for &a in &addrs[..6] {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        // Refill the grown partition so occupancy == 3.
        for &a in &addrs[..3] {
            llc.access(a, AccessKind::IoWrite);
        }
        assert_eq!(llc.domain_count(ss, Domain::Io), 3);
        let wb_before = llc.stats().writebacks;
        // Idle periods: ticks in another set of the same slice drive
        // adaptation. The boundary steps down one line per period; each
        // step displaces a surplus resident I/O line.
        let other = same_slice_other_set(&llc, addrs[0]);
        for _ in 0..80 {
            llc.access(other, AccessKind::CpuRead);
        }
        let limit = llc.io_partition_limit(ss);
        assert_eq!(
            limit, 1,
            "partition should have shrunk to the floor, got {limit}"
        );
        assert!(
            llc.domain_count(ss, Domain::Io) <= limit,
            "occupancy must not exceed the shrunk boundary"
        );
        assert!(
            llc.stats().partition_invalidations >= 2,
            "surplus lines are displaced eagerly"
        );
        assert!(
            llc.stats().writebacks > wb_before,
            "dirty DDIO lines write back"
        );
    }

    #[test]
    fn adaptation_is_per_slice() {
        // Traffic in one slice must never re-evaluate another slice's
        // partitions: grow a partition in `base`'s slice, then hammer a
        // *different* slice with CPU reads — the grown partition must
        // stay exactly where it was (its shard's clock never advanced).
        let cfg = AdaptiveConfig {
            period: 10,
            t_high: 2,
            t_low: 1,
            min_io_lines: 1,
            max_io_lines: 3,
        };
        let mut llc = tiny_llc(DdioMode::Adaptive(cfg));
        let base = PhysAddr::new(0);
        let addrs = conflicting_addrs(&llc, base, 6);
        let ss = llc.locate(base);
        for _ in 0..20 {
            for &a in &addrs {
                llc.access(a, AccessKind::IoWrite);
            }
        }
        let grown = llc.io_partition_limit(ss);
        assert!(grown > 1);
        llc.flush_all();
        let other_slice = (1u64..)
            .map(|i| PhysAddr::new(i * crate::LINE_SIZE as u64))
            .find(|&a| llc.locate(a).slice != ss.slice)
            .expect("tiny geometry has two slices");
        for _ in 0..100 {
            llc.access(other_slice, AccessKind::CpuRead);
        }
        assert_eq!(
            llc.io_partition_limit(ss),
            grown,
            "cross-slice traffic must not drive this slice's adaptation"
        );
    }

    #[test]
    fn writebacks_counted_on_dirty_eviction() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let ways = llc.geometry().ways();
        let addrs = conflicting_addrs(&llc, PhysAddr::new(0), ways + 1);
        for &a in &addrs[..ways] {
            llc.access(a, AccessKind::CpuWrite); // dirty lines
        }
        let out = llc.access(addrs[ways], AccessKind::CpuRead);
        assert_eq!(out.dram_writes, 1, "dirty LRU line must write back");
        assert_eq!(llc.stats().writebacks, 1);
    }

    #[test]
    fn io_read_does_not_allocate() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0xc000);
        let out = llc.access(a, AccessKind::IoRead);
        assert!(!out.hit);
        assert_eq!(out.dram_reads, 1);
        assert!(!llc.contains(a));
    }

    #[test]
    fn flush_all_empties_cache_and_reports_writebacks() {
        let mut llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x1000);
        llc.access(a, AccessKind::CpuWrite);
        assert_eq!(llc.flush_all(), 1, "one dirty line flushed");
        assert!(!llc.contains(a));
        assert_eq!(llc.stats().writebacks, 1);
    }

    fn mixed_ops(n: u64) -> Vec<CacheOp> {
        (0..n)
            .map(|i| {
                let kind = match i % 4 {
                    0 => AccessKind::IoWrite,
                    1 => AccessKind::CpuWrite,
                    2 => AccessKind::IoRead,
                    _ => AccessKind::CpuRead,
                };
                CacheOp::new(PhysAddr::new((i % 37) * 0x1040), kind)
            })
            .collect()
    }

    #[test]
    fn access_batch_matches_scalar_accesses() {
        let ops = mixed_ops(200);
        let mut scalar = tiny_llc(DdioMode::enabled());
        let mut agg = BatchOutcome::default();
        for &op in &ops {
            agg.absorb(scalar.access(op.addr, op.kind));
        }
        let mut batched = tiny_llc(DdioMode::enabled());
        let got = batched.access_batch(&ops);
        assert_eq!(got, agg);
        assert_eq!(batched.stats(), scalar.stats());
        for &op in &ops {
            assert_eq!(batched.contains(op.addr), scalar.contains(op.addr));
        }
    }

    #[test]
    fn sharded_batch_is_thread_count_invariant() {
        // The determinism contract in one test: a batch large enough to
        // take the sharded path must produce identical aggregates, stats
        // and residency for every worker count, in every mode.
        let ops = mixed_ops(PAR_BATCH_MIN as u64 + 500);
        for mode in [
            DdioMode::Disabled,
            DdioMode::enabled(),
            DdioMode::adaptive(),
        ] {
            let mut scalar = tiny_llc(mode);
            let mut want = BatchOutcome::default();
            for &op in &ops {
                want.absorb(scalar.access(op.addr, op.kind));
            }
            for threads in [1usize, 2, 3, 8] {
                let mut sharded = tiny_llc(mode);
                let got = sharded.access_batch_threads(&ops, threads);
                assert_eq!(got, want, "{mode:?} threads={threads}");
                assert_eq!(
                    sharded.stats(),
                    scalar.stats(),
                    "{mode:?} threads={threads}"
                );
                for &op in &ops {
                    assert_eq!(sharded.contains(op.addr), scalar.contains(op.addr));
                }
            }
        }
    }

    #[test]
    fn locate_agrees_with_geometry_and_hash() {
        let llc = tiny_llc(DdioMode::enabled());
        let a = PhysAddr::new(0x1_2340);
        let ss = llc.locate(a);
        assert_eq!(ss.set, llc.geometry().set_index(a));
        assert_eq!(ss.slice, llc.slice_hash().slice_of(a));
    }
}
