//! Batched multi-configuration simulation: one trace pass, N timing
//! lanes.
//!
//! `BuildRBFmodel` pays the dominant share of its wall time running the
//! cycle-level simulator once per sampled design point — over the *same*
//! synthetic instruction stream every time. [`BatchProcessor`] amortizes
//! that stream: the trace is materialized once per chunk into a shared
//! window, the (configuration-independent) branch-prediction outcomes
//! are computed once, and N per-configuration timing lanes consume the
//! window in lockstep chunks.
//!
//! # The shared-trace invariant
//!
//! Batching is sound because two streams are *lane-invariant*:
//!
//! * **The instruction stream.** A [`TraceSource`] is a pure function of
//!   the workload (benchmark, seed), never of the processor
//!   configuration — the property the surrogate-modeling methodology
//!   already requires. Every lane therefore fetches the identical
//!   instruction sequence, so `seq` equals the absolute trace index in
//!   every lane.
//! * **The branch-prediction outcomes.** All predictor parameters live
//!   in [`FixedMachine`], which [`BatchProcessor::new`] requires to be
//!   identical across lanes. The predictor is consulted once per branch,
//!   at fetch, in trace order — so its internal state evolution (and
//!   hence each branch's mispredicted flag) depends only on the trace.
//!   One shared [`BranchPredictor`] computes the flag stream as
//!   instructions enter the window.
//!
//! A third stream is *almost* lane-invariant: each load's forwarding
//! source. The youngest older store to the same word is a pure trace
//! property, precomputed once per window slot by the shared pass; the
//! per-lane residue is a single `>= head_seq` liveness check, which
//! reproduces exactly when the serial engine's store map would still
//! hold that store (the map only drops an entry when its youngest
//! store commits).
//!
//! Everything else *may* diverge per lane and is therefore lane-local:
//! all timing state (cycle counter, ROB/IQ/LSQ occupancy, ready and
//! completion structures, fetch gates), the entire cache hierarchy and
//! DRAM model (capacities are design parameters, and access *timing*
//! feeds back into bank/bus/MSHR contention), and the statistics.
//!
//! # Structure-of-arrays lanes
//!
//! Lane state lives in [`Lanes`]: one `Vec` per scalar (cycle counter,
//! queue occupancies, fetch gates) and one `Vec` per container kind,
//! indexed by lane. The hot kernel borrows a [`LaneView`] of one lane —
//! a struct of disjoint `&mut` into the arrays — so the cycle loop runs
//! on direct references while the storage stays columnar.
//!
//! Every per-lane queue is a fixed array sized at construction and
//! addressed by sequence number, so the cycle loop allocates nothing:
//! the ROB ring ([`Rob`]) with intrusive waiter lists, the ready bitset
//! ([`ReadySet`]), the completion calendar wheel ([`CompletionSet`],
//! whose overflow heap only takes completions 512 or more cycles out)
//! and the fetch queue, which is implicit — it always holds the seqs
//! between the ROB's tail and the fetch position, so only their
//! rename-ready cycles are stored ([`FetchQueue`]).
//!
//! # Chunk-major scheduling and the window barrier
//!
//! The window holds up to three chunks of instructions: the previous
//! chunk (fetch-queue entries fetched before the barrier dispatch from
//! it after), the current one, and one lookahead chunk. Each lane runs
//! cycles until its fetch position passes the current chunk's end (a
//! fetch group may overshoot by at most `width` instructions — which is
//! why the lookahead chunk is already materialized), then pauses. When
//! every lane has passed the barrier, the oldest chunk is dropped, one
//! more is pulled from the generator, and the shared store map forgets
//! stores older than the window. Once the generator is exhausted, lanes
//! run to completion unconstrained.
//!
//! Lanes additionally *skip* provable no-op cycles (nothing completing,
//! committing, issuing, dispatching, or fetching) in one jump, charging
//! the skipped span to the statistics — ROB occupancy integral and
//! exactly the stall counter the serial engine would have bumped — so
//! [`SimStats`] stay byte-identical to N serial runs of the reference
//! oracle ([`crate::reference`]) while high-CPI idle spans cost O(1).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{BranchPredictor, ConfigError, Hierarchy, Op, SimConfig, SimStats, TraceSource};

/// Instructions per shared chunk. Three chunks are resident at once:
/// 3 × 16,384 × 32 B [`WinSlot`]s is 1.5 MiB per lane group, shared by
/// all of its lanes, while the per-chunk bookkeeping amortizes to noise.
const CHUNK: usize = 16_384;

/// Execution state of a ROB entry, shared with the reference oracle so
/// both engines agree on the state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryState {
    /// Waiting for operands or not yet picked.
    Waiting,
    /// Executing; `done_cycle` is set.
    Issued,
    /// Result available.
    Done,
}

/// Functional-unit class of an op, indexing the per-cycle issue quotas
/// `[int_alu, int_mul, fp_alu, fp_mul, mem]`.
pub(crate) fn class_of(op: Op) -> usize {
    match op {
        Op::IntAlu | Op::Branch => 0,
        Op::IntMul => 1,
        Op::FpAlu => 2,
        Op::FpMul => 3,
        Op::Load | Op::Store => 4,
    }
}

/// Adds one finished run's statistics to the global telemetry counters,
/// in bulk so the per-cycle loop stays untouched. Called once per lane
/// (and once per reference run), so `sim.*` counters do not depend on
/// how runs were batched.
pub(crate) fn record_run_telemetry(stats: &SimStats) {
    ppm_telemetry::counter("sim.runs").inc();
    ppm_telemetry::counter("sim.instructions").add(stats.instructions);
    ppm_telemetry::counter("sim.cycles").add(stats.cycles);
    ppm_telemetry::counter("sim.branches").add(stats.branches);
    ppm_telemetry::counter("sim.mispredicts").add(stats.mispredicts);
    ppm_telemetry::counter("sim.il1_misses").add(stats.il1.misses);
    ppm_telemetry::counter("sim.dl1_misses").add(stats.dl1.misses);
    ppm_telemetry::counter("sim.l2_misses").add(stats.l2.misses);
    ppm_telemetry::counter("sim.dram_accesses").add(stats.dram_accesses);
    if stats.instructions > 0 {
        // Millicpi keeps the histogram integral while preserving three
        // decimal places of CPI resolution.
        ppm_telemetry::histogram("sim.run_millicpi").record((stats.cpi() * 1000.0) as u64);
    }
}

/// Errors from assembling a batch.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BatchError {
    /// No configurations were supplied.
    Empty,
    /// A configuration failed [`SimConfig::validate`].
    InvalidConfig {
        /// Index of the offending configuration.
        index: usize,
        /// The underlying validation error.
        error: ConfigError,
    },
    /// A configuration's [`FixedMachine`](crate::FixedMachine) differs
    /// from lane 0's. The shared trace pass computes branch-prediction
    /// outcomes once, which is only sound when the predictor (and the
    /// rest of the fixed machine) is identical across lanes.
    HeterogeneousFixedMachine {
        /// Index of the first configuration that differs.
        index: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Empty => write!(f, "batch needs at least one configuration"),
            BatchError::InvalidConfig { index, error } => {
                write!(f, "configuration {index} is invalid: {error}")
            }
            BatchError::HeterogeneousFixedMachine { index } => write!(
                f,
                "configuration {index} has a different fixed machine than lane 0; \
                 batching shares one branch-prediction pass and requires identical \
                 fixed machines"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// Runs N processor configurations over one shared trace pass; one
/// configuration is the plain single-point simulation.
///
/// # Examples
///
/// ```
/// use ppm_sim::{BatchProcessor, SimConfig, Instr, Op};
///
/// let configs: Vec<SimConfig> = [24u32, 96]
///     .iter()
///     .map(|&rob| SimConfig::builder().rob_size(rob).build().unwrap())
///     .collect();
/// let trace = || (0..2_000).map(|i| Instr::alu(Op::IntAlu, 0x1000 + (i % 128) * 4, 1, 0));
///
/// let batched = BatchProcessor::new(configs.clone()).unwrap().run(trace());
/// for (stats, config) in batched.iter().zip(configs) {
///     // Byte-identical to simulating the configuration on its own.
///     assert_eq!(*stats, BatchProcessor::new(vec![config]).unwrap().run(trace())[0]);
/// }
/// ```
#[derive(Debug)]
pub struct BatchProcessor {
    configs: Vec<SimConfig>,
}

impl BatchProcessor {
    /// Assembles a batch, validating every configuration and requiring
    /// one shared fixed machine.
    ///
    /// # Errors
    ///
    /// See [`BatchError`].
    pub fn new(configs: Vec<SimConfig>) -> Result<Self, BatchError> {
        if configs.is_empty() {
            return Err(BatchError::Empty);
        }
        for (index, config) in configs.iter().enumerate() {
            config
                .validate()
                .map_err(|error| BatchError::InvalidConfig { index, error })?;
            if config.fixed != configs[0].fixed {
                return Err(BatchError::HeterogeneousFixedMachine { index });
            }
        }
        Ok(BatchProcessor { configs })
    }

    /// The number of timing lanes.
    pub fn lanes(&self) -> usize {
        self.configs.len()
    }

    /// Runs every lane over one pass of the trace and returns one
    /// [`SimStats`] per configuration, in input order — byte-identical
    /// to running the [reference oracle](crate::reference) per
    /// configuration on the same trace.
    ///
    /// Bound the run length with `trace.take(n)`.
    pub fn run(self, trace: impl TraceSource) -> Vec<SimStats> {
        ppm_telemetry::counter("sim.batch_runs").inc();
        ppm_telemetry::counter("sim.batch_lanes").add(self.configs.len() as u64);
        let mut kernel = Kernel::new(&self.configs);
        ppm_telemetry::histogram("sim.batch_group_bytes").record(kernel.resident_bytes() as u64);
        kernel.run(trace);
        kernel.finalize()
    }
}

/// Which structural stall the serial dispatch stage would charge each
/// cycle of a skipped span.
#[derive(Clone, Copy)]
enum Stall {
    Rob,
    Iq,
    Lsq,
}

/// FNV-1a with a multiply-xorshift fast path for `u64` keys.
///
/// The store map is keyed by word address and only ever used through
/// `get`/`insert`/`remove` — never iterated — so its hash function
/// cannot influence timing statistics, and the default SipHash is pure
/// per-instruction overhead in the batch kernel.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, word: u64) {
        let h = word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type StoreMap = HashMap<u64, u64, BuildHasherDefault<WordHasher>>;

/// Heap bytes behind `v`, from its allocated length.
fn heap_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// Buckets in the completion wheel: one per cycle of the next `WHEEL`
/// cycles. Completions further out go to the overflow heap.
const WHEEL: usize = 512;

/// End of an intrusive list (completion bucket or waiter list).
const NIL: u32 = u32::MAX;

/// Pending execution completions: a calendar wheel of intrusive lists
/// over ROB slots, plus a small heap for far-out completions.
///
/// Bucket `c % WHEEL` holds the slots completing at cycle `c`, linked
/// through a per-slot `next` array (an instruction issues once, so one
/// link per ROB slot suffices). The wheel is exact — every bucket holds
/// a single cycle — because every pending completion is `>= now` at
/// each cycle start: issue pushes `done_cycle >= now + 1` (every latency
/// is at least one cycle, which [`SimConfig::validate`] enforces), and a
/// skip never jumps past [`Self::min_cycle`]. So a completion pushed
/// less than `WHEEL` cycles out lies in `[now, now + WHEEL)` until it
/// drains, and draining cycle `now` is bucket `now % WHEEL` plus the
/// heap's due entries. Completions `WHEEL` or more cycles out (deep
/// DRAM queues) take the heap.
///
/// Drains define no order *within* a cycle. That is safe: processing
/// order within one `drain_completions` call is outcome-independent —
/// marking Done, decrementing `pending_deps`, and setting ready bits
/// all commute, and the fetch-restart update depends only on the
/// current cycle, not the order.
struct CompletionSet {
    /// First ROB slot of each bucket's list, [`NIL`] when empty.
    heads: Vec<u32>,
    /// Per-ROB-slot link to the next slot in the same bucket.
    next: Vec<u32>,
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: [u64; WHEEL / 64],
    /// `(done_cycle, seq)` of completions `WHEEL` or more cycles out.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    /// Exact earliest pending cycle (`u64::MAX` when empty), so the
    /// per-step due-check is O(1). Pushes maintain it directly;
    /// [`Self::settle`] recomputes it after a drain.
    min: u64,
}

impl CompletionSet {
    fn new(rob_slots: usize) -> Self {
        CompletionSet {
            heads: vec![NIL; WHEEL],
            next: vec![NIL; rob_slots],
            occupied: [0; WHEEL / 64],
            far: BinaryHeap::new(),
            min: u64::MAX,
        }
    }

    /// Schedules ROB slot `slot` (holding `seq`) to complete at
    /// `done_cycle > now`.
    fn push(&mut self, now: u64, done_cycle: u64, seq: u64, slot: usize) {
        debug_assert!(done_cycle > now);
        self.min = self.min.min(done_cycle);
        if done_cycle - now >= WHEEL as u64 {
            self.far.push(Reverse((done_cycle, seq)));
            return;
        }
        let b = done_cycle as usize & (WHEEL - 1);
        self.next[slot] = self.heads[b];
        self.heads[b] = slot as u32;
        self.occupied[b >> 6] |= 1 << (b & 63);
    }

    /// Heap bytes of the wheel's bucket heads and slot links.
    fn bytes(&self) -> usize {
        heap_bytes(&self.heads) + heap_bytes(&self.next)
    }

    /// The earliest pending completion cycle (`u64::MAX` when empty).
    fn min_cycle(&self) -> u64 {
        self.min
    }

    /// Detaches the list of slots completing at `now`; walk it through
    /// `next`.
    fn take_bucket(&mut self, now: u64) -> u32 {
        let b = now as usize & (WHEEL - 1);
        self.occupied[b >> 6] &= !(1 << (b & 63));
        std::mem::replace(&mut self.heads[b], NIL)
    }

    /// Pops one overflow completion due at `now`, returning its seq.
    fn pop_far(&mut self, now: u64) -> Option<u64> {
        match self.far.peek() {
            Some(&Reverse((cycle, seq))) if cycle <= now => {
                self.far.pop();
                Some(seq)
            }
            _ => None,
        }
    }

    /// Recomputes the cached minimum once everything due at `now` has
    /// drained: the first occupied bucket from `now + 1` on, scanning
    /// the bitmap circularly, against the heap's top.
    fn settle(&mut self, now: u64) {
        let from = now + 1;
        let far = self.far.peek().map_or(u64::MAX, |r| r.0 .0);
        self.min = self
            .buckets_to_occupied(from as usize & (WHEEL - 1))
            .map_or(far, |d| far.min(from + d));
    }

    /// Circular distance from bucket `p` to the first occupied bucket
    /// at or after it.
    fn buckets_to_occupied(&self, p: usize) -> Option<u64> {
        let words = self.occupied.len();
        let w0 = p >> 6;
        let first = self.occupied[w0] >> (p & 63);
        if first != 0 {
            return Some(u64::from(first.trailing_zeros()));
        }
        // The last iteration revisits word `w0`, whose bits at and
        // after `p` are known clear: only the wrapped-around ones count.
        (1..=words).find_map(|k| {
            let w = (w0 + k) % words;
            let word = self.occupied[w];
            (word != 0).then(|| {
                let b = w * 64 + word.trailing_zeros() as usize;
                ((b + WHEEL - p) % WHEEL) as u64
            })
        })
    }
}

/// One in-flight instruction's hot scheduling state — 32 bytes, two per
/// cache line. Unlike the serial engine's ROB entry this carries only
/// the instruction's op: the shared window keeps every in-flight
/// instruction resident, so issue and commit re-read it by absolute
/// index for a load's or store's address.
#[derive(Clone, Copy)]
struct Slot {
    seq: u64,
    done_cycle: u64,
    /// Forwarding-source store seq for loads, `u64::MAX` for none.
    fwd_src: u64,
    /// First waiter edge (see [`Rob`]) of the dependents to wake when
    /// this entry completes, [`NIL`] for none.
    wait_head: u32,
    state: EntryState,
    pending_deps: u8,
    op: Op,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 32);

const VACANT: Slot = Slot {
    seq: u64::MAX,
    done_cycle: 0,
    fwd_src: u64::MAX,
    wait_head: NIL,
    state: EntryState::Done,
    pending_deps: 0,
    op: Op::IntAlu,
};

/// The reorder buffer as a power-of-two ring addressed directly by
/// sequence number: the slot for `seq` is `slots[seq & mask]`, unique
/// because at most `rob_size <= capacity` instructions are in flight.
///
/// Slots are permanent — commit advances the head without moving them.
/// The waiter lists are intrusive: each slot owns edge nodes
/// `4·slot + k` for its operands (`k` = 0 for src1, 1 for src2, 2 for
/// the forwarding store), and dispatch links each edge whose producer
/// is still executing into that producer's `wait_head` list through
/// `edge_next`. A consumer whose two sources name one producer links
/// twice, matching its `pending_deps`. An edge is walked when its
/// producer completes, before the consumer can issue or retire, so a
/// slot's nodes are free again by the time the slot is reused.
struct Rob {
    slots: Vec<Slot>,
    edge_next: Vec<u32>,
    mask: u64,
    len: usize,
}

impl Rob {
    fn new(rob_size: usize) -> Self {
        let cap = rob_size.next_power_of_two();
        Rob {
            slots: vec![VACANT; cap],
            edge_next: vec![NIL; 4 * cap],
            mask: cap as u64 - 1,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Heap bytes of the slots and waiter edges.
    fn bytes(&self) -> usize {
        heap_bytes(&self.slots) + heap_bytes(&self.edge_next)
    }

    fn contains(&self, head_seq: u64, seq: u64) -> bool {
        seq >= head_seq && seq < head_seq + self.len as u64
    }

    fn slot_of(&self, seq: u64) -> usize {
        (seq & self.mask) as usize
    }

    fn get(&self, head_seq: u64, seq: u64) -> Option<&Slot> {
        self.contains(head_seq, seq)
            .then(|| &self.slots[self.slot_of(seq)])
    }

    fn front(&self, head_seq: u64) -> Option<&Slot> {
        self.get(head_seq, head_seq)
    }

    /// Links waiter edge `edge` into the list of the producer in
    /// `producer`'s slot.
    fn link(&mut self, producer: usize, edge: usize) {
        let p = &mut self.slots[producer];
        self.edge_next[edge] = p.wait_head;
        p.wait_head = edge as u32;
    }
}

/// The set of ready-to-issue instructions as a bitset over ROB slots
/// (same `seq & mask` addressing as [`Rob`]).
///
/// Insert and remove are single bit operations; issue scans the words
/// in sequence order from the head, so selection is oldest-first like
/// the serial engine's min-heap — and quota-deferred entries simply
/// stay set, with no pop-and-repush churn.
struct ReadySet {
    words: Vec<u64>,
    mask: u64,
    count: usize,
}

impl ReadySet {
    fn new(cap: usize) -> Self {
        ReadySet {
            words: vec![0; cap.div_ceil(64)],
            mask: cap as u64 - 1,
            count: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn insert(&mut self, seq: u64) {
        let p = (seq & self.mask) as usize;
        debug_assert_eq!(self.words[p >> 6] & (1 << (p & 63)), 0);
        self.words[p >> 6] |= 1 << (p & 63);
        self.count += 1;
    }

    fn remove(&mut self, seq: u64) {
        let p = (seq & self.mask) as usize;
        debug_assert_ne!(self.words[p >> 6] & (1 << (p & 63)), 0);
        self.words[p >> 6] &= !(1 << (p & 63));
        self.count -= 1;
    }
}

/// The front-end queue between fetch and dispatch, held implicitly.
///
/// Fetch appends `pos` and dispatch takes the oldest, which always
/// enters the ROB at `head_seq + rob.len`; commit moves both ends of
/// the ROB together. So the queue always holds exactly the seqs
/// `head_seq + rob.len .. pos`, and only each entry's rename-ready
/// cycle is stored, in a power-of-two ring indexed by seq. The
/// instruction itself (and its forwarding source) is re-read from the
/// shared window at dispatch: the kernel keeps the previous chunk
/// resident for exactly that.
struct FetchQueue {
    rename_ready: Vec<u64>,
    mask: u64,
}

impl FetchQueue {
    fn new(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two();
        FetchQueue {
            rename_ready: vec![0; cap],
            mask: cap as u64 - 1,
        }
    }

    fn rename_ready(&self, seq: u64) -> u64 {
        self.rename_ready[(seq & self.mask) as usize]
    }

    fn set_rename_ready(&mut self, seq: u64, cycle: u64) {
        self.rename_ready[(seq & self.mask) as usize] = cycle;
    }
}

/// One lane's hot scalar state, copied into registers/stack for the
/// duration of a chunk run and written back after (see
/// [`Lanes::view`] / [`Lanes::store`]). Keeping these by value lets the
/// per-cycle loop touch them without pointer chasing.
#[derive(Clone, Copy)]
struct LaneScalars {
    now: u64,
    head_seq: u64,
    iq_count: usize,
    lsq_count: usize,
    fetch_blocked_on: Option<u64>,
    fetch_available: u64,
    last_fetch_line: u64,
    /// Next trace index this lane fetches; equals the lane's `next_seq`.
    pos: usize,
    /// Cycles actually stepped (as opposed to skipped); the
    /// `sim.batch_cycles_executed` diagnostic.
    executed: u64,
}

/// Per-lane state, stored column-wise: scalars in one dense array,
/// containers in one array per kind.
struct Lanes {
    scalars: Vec<LaneScalars>,
    done: Vec<bool>,
    // Derived per-lane parameters (design-point dependent).
    rob_size: Vec<usize>,
    iq_size: Vec<usize>,
    lsq_size: Vec<usize>,
    front_depth: Vec<u64>,
    fq_capacity: Vec<usize>,
    dl1_lat: Vec<u64>,
    // Containers.
    rob: Vec<Rob>,
    fetch_queue: Vec<FetchQueue>,
    ready: Vec<ReadySet>,
    completions: Vec<CompletionSet>,
    hierarchy: Vec<Hierarchy>,
    stats: Vec<SimStats>,
    /// Retired-instruction tallies indexed by `Op` discriminant; folded
    /// into the named [`SimStats`] fields at finalize so commit charges
    /// one unconditional array increment instead of a seven-way branch.
    op_counts: Vec<[u64; 7]>,
}

/// One lane's working state for the hot kernel: scalars *by value*
/// (copied in by [`Lanes::view`], copied out by [`Lanes::store`]) plus
/// disjoint mutable borrows of the lane's containers.
struct LaneView<'a> {
    s: LaneScalars,
    rob_size: usize,
    iq_size: usize,
    lsq_size: usize,
    front_depth: u64,
    fq_capacity: usize,
    dl1_lat: u64,
    rob: &'a mut Rob,
    fetch_queue: &'a mut FetchQueue,
    ready: &'a mut ReadySet,
    completions: &'a mut CompletionSet,
    hierarchy: &'a mut Hierarchy,
    stats: &'a mut SimStats,
    op_counts: &'a mut [u64; 7],
}

impl LaneView<'_> {
    /// The oldest fetch-queue entry's seq (the next to dispatch).
    fn fq_front(&self) -> u64 {
        self.s.head_seq + self.rob.len as u64
    }

    fn fq_len(&self) -> usize {
        self.s.pos - self.fq_front() as usize
    }
}

impl Lanes {
    fn new(configs: &[SimConfig]) -> Self {
        let n = configs.len();
        let fq_capacity: Vec<usize> = configs
            .iter()
            .map(|c| (c.front_depth() as usize + 4) * c.fixed.width as usize)
            .collect();
        Lanes {
            scalars: vec![
                LaneScalars {
                    now: 0,
                    head_seq: 0,
                    iq_count: 0,
                    lsq_count: 0,
                    fetch_blocked_on: None,
                    fetch_available: 0,
                    last_fetch_line: u64::MAX,
                    pos: 0,
                    executed: 0,
                };
                n
            ],
            done: vec![false; n],
            rob_size: configs.iter().map(|c| c.rob_size as usize).collect(),
            iq_size: configs.iter().map(|c| c.iq_size() as usize).collect(),
            lsq_size: configs.iter().map(|c| c.lsq_size() as usize).collect(),
            front_depth: configs.iter().map(|c| c.front_depth() as u64).collect(),
            fetch_queue: fq_capacity.iter().map(|&c| FetchQueue::new(c)).collect(),
            fq_capacity,
            dl1_lat: configs.iter().map(|c| c.dl1_lat as u64).collect(),
            rob: configs
                .iter()
                .map(|c| Rob::new(c.rob_size as usize))
                .collect(),
            ready: configs
                .iter()
                .map(|c| ReadySet::new((c.rob_size as usize).next_power_of_two()))
                .collect(),
            completions: configs
                .iter()
                .map(|c| CompletionSet::new((c.rob_size as usize).next_power_of_two()))
                .collect(),
            hierarchy: configs.iter().map(Hierarchy::new).collect(),
            stats: vec![SimStats::default(); n],
            op_counts: vec![[0; 7]; n],
        }
    }

    fn view(&mut self, l: usize) -> LaneView<'_> {
        LaneView {
            s: self.scalars[l],
            rob_size: self.rob_size[l],
            iq_size: self.iq_size[l],
            lsq_size: self.lsq_size[l],
            front_depth: self.front_depth[l],
            fq_capacity: self.fq_capacity[l],
            dl1_lat: self.dl1_lat[l],
            rob: &mut self.rob[l],
            fetch_queue: &mut self.fetch_queue[l],
            ready: &mut self.ready[l],
            completions: &mut self.completions[l],
            hierarchy: &mut self.hierarchy[l],
            stats: &mut self.stats[l],
            op_counts: &mut self.op_counts[l],
        }
    }

    /// Writes a view's scalar state back to the lane columns.
    fn store(&mut self, l: usize, s: LaneScalars) {
        self.scalars[l] = s;
    }
}

/// Parameters identical across lanes (all from the shared
/// [`FixedMachine`](crate::FixedMachine)).
struct Shared {
    width: usize,
    line_bits: u32,
    quotas: [u32; 5],
    int_mul_lat: u64,
    fp_alu_lat: u64,
    fp_mul_lat: u64,
}

/// The batched execution kernel: the shared window plus all lanes.
struct Kernel {
    lanes: Lanes,
    shared: Shared,
    /// One branch predictor for all lanes; see the module docs for why
    /// its outcomes are lane-invariant.
    bpred: BranchPredictor,
    /// The resident instruction window (up to three chunks), with each
    /// branch's shared outcome and each load's forwarding source.
    window: Vec<WinSlot>,
    /// Word address -> youngest store seq seen so far in the shared
    /// pass; feeds [`WinSlot::fwd_dist`]. Holds only stores at or after
    /// `win_start`: each slide drops the rest, which no lane can forward
    /// from.
    store_last: StoreMap,
    /// Absolute trace index of `window[0]`.
    win_start: usize,
    /// Absolute trace index of the current chunk's first instruction.
    /// The window keeps the *previous* chunk resident too, so fetch
    /// queues (bounded well below a chunk) can re-read instructions at
    /// dispatch after the barrier slides.
    cur_start: usize,
    /// The generator returned `None`; `win_start + window.len()` is the
    /// final trace length.
    exhausted: bool,
}

/// One shared-window instruction: the fields of [`Instr`](crate::Instr)
/// the lanes read, plus the shared pass's results — 32 bytes, two per
/// cache line. A branch's `target` and `kind` feed only the shared
/// predictor at refill, so they stay out.
#[derive(Clone, Copy)]
struct WinSlot {
    pc: u64,
    mem_addr: u64,
    src1_dist: u32,
    src2_dist: u32,
    /// For a load, the distance back to the youngest older store to the
    /// same word (0 for none, as for every other op). The store map
    /// only holds stores at or after `win_start`, and a slot lies
    /// within three chunks of it, so the distance is below `3 * CHUNK`.
    fwd_dist: u32,
    op: Op,
    taken: bool,
    /// The shared predictor mispredicted this branch.
    mispredicted: bool,
}

const _: () = assert!(std::mem::size_of::<WinSlot>() == 32);

/// The shared window, borrowed for the per-lane kernel functions.
struct Window<'w> {
    slots: &'w [WinSlot],
    /// Absolute trace index of `slots[0]`.
    start: usize,
}

impl Kernel {
    fn new(configs: &[SimConfig]) -> Self {
        let fixed = &configs[0].fixed;
        Kernel {
            lanes: Lanes::new(configs),
            shared: Shared {
                width: fixed.width as usize,
                line_bits: fixed.line_size.trailing_zeros(),
                quotas: [
                    fixed.int_alus,
                    fixed.int_muls,
                    fixed.fp_alus,
                    fixed.fp_muls,
                    fixed.mem_ports,
                ],
                int_mul_lat: fixed.int_mul_lat as u64,
                fp_alu_lat: fixed.fp_alu_lat as u64,
                fp_mul_lat: fixed.fp_mul_lat as u64,
            },
            bpred: BranchPredictor::with_kind(
                fixed.predictor,
                fixed.gshare_entries,
                fixed.gshare_history,
                fixed.btb_entries,
            ),
            window: Vec::with_capacity(3 * CHUNK),
            store_last: StoreMap::default(),
            win_start: 0,
            cur_start: 0,
            exhausted: false,
        }
    }

    /// Pulls instructions until the window covers the current chunk
    /// plus one lookahead chunk (fetch groups overshoot the barrier by
    /// at most `width`), computing each branch's shared mispredict flag
    /// and each load's forwarding source as it enters.
    fn refill(&mut self, trace: &mut impl TraceSource) {
        let target = self.cur_start - self.win_start + 2 * CHUNK;
        while self.window.len() < target {
            let Some(instr) = trace.next() else {
                self.exhausted = true;
                break;
            };
            let mispredicted = instr.op == Op::Branch
                && self
                    .bpred
                    .predict_kind(instr.kind, instr.pc, instr.taken, instr.target);
            let seq = (self.win_start + self.window.len()) as u64;
            let fwd_dist = match instr.op {
                Op::Load => self
                    .store_last
                    .get(&(instr.mem_addr >> 3))
                    .map_or(0, |&store| {
                        // The map holds no store older than `win_start`.
                        let dist = seq - store;
                        assert!(dist < 3 * CHUNK as u64, "forwarding source left the window");
                        dist as u32
                    }),
                Op::Store => {
                    self.store_last.insert(instr.mem_addr >> 3, seq);
                    0
                }
                _ => 0,
            };
            self.window.push(WinSlot {
                pc: instr.pc,
                mem_addr: instr.mem_addr,
                src1_dist: instr.src1_dist,
                src2_dist: instr.src2_dist,
                fwd_dist,
                op: instr.op,
                taken: instr.taken,
                mispredicted,
            });
        }
    }

    fn run(&mut self, trace: impl TraceSource) {
        let mut trace = trace;
        self.refill(&mut trace);
        let lane_count = self.lanes.scalars.len();
        loop {
            let window = Window {
                slots: &self.window,
                start: self.win_start,
            };
            if self.exhausted {
                // Drain: the window is the whole remaining trace.
                let total = self.win_start + self.window.len();
                for l in 0..lane_count {
                    if self.lanes.done[l] {
                        continue;
                    }
                    let mut lane = self.lanes.view(l);
                    // The ROB and the fetch queue both sit between
                    // `head_seq` and `pos <= total`, so a lane that has
                    // retired the whole trace has drained them too.
                    while lane.s.head_seq < total as u64 {
                        step(&mut lane, &self.shared, &window);
                    }
                    let s = lane.s;
                    self.lanes.store(l, s);
                    self.lanes.done[l] = true;
                }
                return;
            }
            // Chunked phase: run every lane up to the barrier, then
            // slide. The chunk before the current one stays resident
            // for in-flight fetch-queue entries; older ones drop.
            let limit = self.cur_start + CHUNK;
            for l in 0..lane_count {
                let mut lane = self.lanes.view(l);
                while lane.s.pos < limit {
                    step(&mut lane, &self.shared, &window);
                }
                let s = lane.s;
                self.lanes.store(l, s);
            }
            self.cur_start = limit;
            if self.cur_start - self.win_start >= 2 * CHUNK {
                self.window.drain(..CHUNK);
                self.win_start += CHUNK;
                // Every lane has fetched past `cur_start` and holds fewer
                // than a chunk in flight (ROB + fetch queue), so no lane
                // can again see a store older than `win_start` as
                // uncommitted: such an entry can never forward.
                let start = self.win_start as u64;
                debug_assert!(self.lanes.scalars.iter().all(|s| s.head_seq >= start));
                self.store_last.retain(|_, seq| *seq >= start);
            }
            self.refill(&mut trace);
        }
    }

    /// Bytes the group keeps resident, from allocated lengths: the
    /// shared window plus every lane's cache tags, ROB, completion
    /// wheel, ready bitset and fetch ring. The store map and the
    /// wheel's overflow heap, which start empty and stay small, are
    /// left out.
    fn resident_bytes(&self) -> usize {
        let lanes = &self.lanes;
        let per_lane: usize = (0..lanes.scalars.len())
            .map(|l| {
                lanes.hierarchy[l].tag_bytes()
                    + lanes.rob[l].bytes()
                    + lanes.completions[l].bytes()
                    + heap_bytes(&lanes.ready[l].words)
                    + heap_bytes(&lanes.fetch_queue[l].rename_ready)
            })
            .sum();
        heap_bytes(&self.window) + per_lane
    }

    fn finalize(mut self) -> Vec<SimStats> {
        for l in 0..self.lanes.scalars.len() {
            let stats = &mut self.lanes.stats[l];
            let counts = self.lanes.op_counts[l];
            stats.int_ops = counts[Op::IntAlu as usize];
            stats.mul_ops = counts[Op::IntMul as usize];
            stats.fp_ops = counts[Op::FpAlu as usize];
            stats.fp_mul_ops = counts[Op::FpMul as usize];
            stats.loads = counts[Op::Load as usize];
            stats.stores = counts[Op::Store as usize];
            stats.branches = counts[Op::Branch as usize];
            stats.instructions = counts.iter().sum();
            stats.cycles = self.lanes.scalars[l].now;
            stats.il1 = self.lanes.hierarchy[l].il1().stats();
            stats.dl1 = self.lanes.hierarchy[l].dl1().stats();
            stats.l2 = self.lanes.hierarchy[l].l2().stats();
            stats.dram_accesses = self.lanes.hierarchy[l].memory().dram_accesses;
            stats.mshr_wait_cycles = self.lanes.hierarchy[l].memory().mshr_wait_cycles;
            // Every lane fetches every branch exactly once, so the
            // shared predictor's total is each lane's total.
            stats.mispredicts = self.bpred.mispredictions;
            record_run_telemetry(stats);
        }
        // Skip-effectiveness diagnostics: how many simulated cycles were
        // actually stepped versus jumped over.
        let executed: u64 = self.lanes.scalars.iter().map(|s| s.executed).sum();
        let total: u64 = self.lanes.scalars.iter().map(|s| s.now).sum();
        ppm_telemetry::counter("sim.batch_cycles_executed").add(executed);
        ppm_telemetry::counter("sim.batch_cycles_skipped").add(total - executed);
        self.lanes.stats
    }
}

/// Advances one lane by one *productive* step: either a full simulated
/// cycle, or a jump over a span of provable no-op cycles with the span's
/// statistics charged in closed form.
#[inline(always)]
fn step(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    if !try_skip(lane, window) {
        cycle(lane, shared, window);
    }
}

/// One simulated cycle, stage for stage identical to the serial engine.
#[inline(always)]
fn cycle(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    process_completions(lane);
    commit(lane, shared, window);
    issue(lane, shared, window);
    dispatch(lane, shared, window);
    fetch(lane, shared, window);
    lane.stats.rob_occupancy_sum += lane.rob.len() as u64;
    lane.s.now += 1;
    lane.s.executed += 1;
}

/// Detects a span of cycles in which *no* pipeline stage can make
/// progress, and charges it wholesale: ROB occupancy accrues at the
/// current level and exactly one dispatch stall counter (or none) ticks
/// per cycle — precisely what the serial engine would have recorded
/// cycle by cycle.
///
/// The jump additionally retires *pure* completions en route: a
/// completion that wakes no registered dependent, is not the ROB head,
/// and does not restart fetch flips one slot from Issued to Done and
/// changes nothing any stage can observe — dispatch's producer check
/// and commit's head check read the same answer either way — so the
/// serial engine's cycle at that point records exactly the occupancy
/// and stall charge the span accounting already applies. The first
/// *impure* completion (or the dispatch/fetch wake-up, whichever is
/// sooner) ends the jump with a real cycle executed there.
#[inline(always)]
fn try_skip(lane: &mut LaneView<'_>, window: &Window<'_>) -> bool {
    let now0 = lane.s.now;
    // A due completion makes this cycle productive.
    if lane.completions.min_cycle() <= now0 {
        return false;
    }
    // A Done head is committable (Done is only set once `done_cycle`
    // has passed), and a ready entry is issuable: both are progress.
    if !lane.ready.is_empty()
        || lane
            .rob
            .front(lane.s.head_seq)
            .is_some_and(|e| e.state == EntryState::Done)
    {
        return false;
    }
    // Dispatch: replicate the serial gate order exactly. A front that
    // is past rename with free structures would dispatch — no skip. A
    // structurally stalled front charges its stall counter every
    // skipped cycle; a pre-rename front wakes the lane when it matures.
    let mut stall = None;
    let mut wake = u64::MAX;
    if lane.fq_len() > 0 {
        let front = lane.fq_front();
        let rename_ready = lane.fetch_queue.rename_ready(front);
        if rename_ready > now0 {
            wake = rename_ready;
        } else if lane.rob.len() >= lane.rob_size {
            stall = Some(Stall::Rob);
        } else if lane.s.iq_count >= lane.iq_size {
            stall = Some(Stall::Iq);
        } else if window.slots[front as usize - window.start].op.is_mem()
            && lane.s.lsq_count >= lane.lsq_size
        {
            stall = Some(Stall::Lsq);
        } else {
            return false;
        }
    }
    // Fetch: blocked on a mispredicted branch, gated until
    // `fetch_available`, out of queue space, or out of trace — anything
    // else would fetch (or at least probe the I-cache) this cycle.
    let can_fetch_later =
        lane.s.pos - window.start < window.slots.len() && lane.fq_len() < lane.fq_capacity;
    if lane.s.fetch_blocked_on.is_none() {
        if now0 < lane.s.fetch_available {
            if can_fetch_later {
                wake = wake.min(lane.s.fetch_available);
            }
        } else if can_fetch_later {
            return false;
        }
    }
    let mut now = now0;
    loop {
        let cmin = lane.completions.min_cycle();
        let target = cmin.min(wake);
        if target == u64::MAX {
            // Nothing scheduled to change the lane's state: either the
            // lane is finished (the caller's loop condition catches that
            // after one cycle) or the serial engine would spin here too.
            // Run a real cycle rather than guessing.
            break;
        }
        debug_assert!(target > now);
        let skipped = target - now;
        lane.stats.rob_occupancy_sum += lane.rob.len() as u64 * skipped;
        match stall {
            Some(Stall::Rob) => lane.stats.rob_full_cycles += skipped,
            Some(Stall::Iq) => lane.stats.iq_full_cycles += skipped,
            Some(Stall::Lsq) => lane.stats.lsq_full_cycles += skipped,
            None => {}
        }
        now = target;
        lane.s.now = target;
        if cmin >= wake {
            // Arrived where dispatch or fetch becomes able to progress
            // (their gates cannot close during a skip); completions due
            // at this same cycle are drained by the executed cycle.
            return true;
        }
        // Retire the completions due at `cmin`. An impure one makes
        // this cycle productive — execute it (the records are already
        // applied, exactly as the serial engine's completion stage
        // would have at the top of this cycle).
        if drain_completions(lane, cmin) {
            return true;
        }
        // A completion may have restarted fetch: the gate reopens at
        // `cmin + 1` (never at `cmin` itself), so fold the new
        // `fetch_available` into the wake-up instead of executing here.
        if lane.s.fetch_blocked_on.is_none() && lane.s.fetch_available > now && can_fetch_later {
            wake = wake.min(lane.s.fetch_available);
        }
    }
    now > now0
}

/// Marks finished executions done and wakes their dependents.
#[inline(always)]
fn process_completions(lane: &mut LaneView<'_>) {
    if lane.completions.min_cycle() > lane.s.now {
        return;
    }
    let now = lane.s.now;
    drain_completions(lane, now);
}

/// Drains every completion due at `now` — bucket `now % WHEEL` of the
/// wheel, walked in place, then the overflow heap's due entries — and
/// recomputes the earliest pending cycle.
///
/// Returns whether any drained completion was *impure* — it readied a
/// dependent or completed the ROB head — i.e. whether the serial engine
/// could make stage progress in this cycle because of it. (A fetch
/// restart is pure on its own: fetching resumes no earlier than the
/// next cycle.)
#[inline(always)]
fn drain_completions(lane: &mut LaneView<'_>, now: u64) -> bool {
    let mut impure = false;
    let mut slot = lane.completions.take_bucket(now);
    while slot != NIL {
        let next = lane.completions.next[slot as usize];
        impure |= complete(lane, slot as usize, now);
        slot = next;
    }
    while let Some(seq) = lane.completions.pop_far(now) {
        impure |= complete(lane, lane.rob.slot_of(seq), now);
    }
    lane.completions.settle(now);
    impure
}

/// Marks the entry in ROB slot `idx` done at `now`, restarts fetch
/// after a resolved mispredict, and wakes the entry's waiters; returns
/// whether the completion was impure (see [`drain_completions`]).
#[inline(always)]
fn complete(lane: &mut LaneView<'_>, idx: usize, now: u64) -> bool {
    // A completing seq is always still in flight: nothing squashes in
    // a trace-driven model, and commit never retires an entry that has
    // not completed.
    let e = &mut lane.rob.slots[idx];
    debug_assert!(e.state == EntryState::Issued && e.done_cycle == now);
    e.state = EntryState::Done;
    let seq = e.seq;
    let mut edge = std::mem::replace(&mut e.wait_head, NIL);
    let mut impure = seq == lane.s.head_seq;
    // A resolved mispredicted branch restarts fetch.
    if lane.s.fetch_blocked_on == Some(seq) {
        lane.s.fetch_blocked_on = None;
        lane.s.fetch_available = (lane.s.fetch_available).max(now + 1);
        lane.s.last_fetch_line = u64::MAX; // redirect: new line
    }
    while edge != NIL {
        // A dependent can neither issue nor retire before its producer
        // completes, so it is still in flight too.
        let dep = &mut lane.rob.slots[edge as usize >> 2];
        debug_assert!(dep.pending_deps > 0 && dep.state == EntryState::Waiting);
        dep.pending_deps -= 1;
        if dep.pending_deps == 0 && dep.state == EntryState::Waiting {
            lane.ready.insert(dep.seq);
            impure = true;
        }
        edge = lane.rob.edge_next[edge as usize];
    }
    impure
}

/// Retires completed instructions in order.
#[inline(always)]
fn commit(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    let now = lane.s.now;
    for _ in 0..shared.width {
        let head_seq = lane.s.head_seq;
        let Some(head) = lane.rob.front(head_seq) else {
            break;
        };
        if head.state != EntryState::Done || head.done_cycle > now {
            break;
        }
        let op = head.op;
        // Retire: advance the head; the slot stays resident. The
        // per-class tally is a branchless array bump, folded into the
        // named counters at finalize.
        lane.rob.len -= 1;
        lane.s.head_seq += 1;
        lane.op_counts[op as usize] += 1;
        if op.is_mem() {
            lane.s.lsq_count -= 1;
            if op == Op::Store {
                // The store writes its line at commit; this updates
                // cache state and charges bank/bus occupancy, but
                // does not stall commit (write buffering). In-flight
                // seqs always sit inside the resident window (the
                // previous chunk is kept for exactly this reason).
                debug_assert!(head_seq as usize >= window.start);
                let addr = window.slots[head_seq as usize - window.start].mem_addr;
                let _ = lane.hierarchy.data_access(now, addr);
            }
        }
    }
}

/// Wakeup-select: issues ready instructions oldest-first, subject to
/// issue width and per-class functional-unit quotas.
///
/// Walks the ready bitset in sequence order from the ROB head, so
/// selection order matches the serial engine's min-heap; an entry whose
/// functional-unit class is already saturated simply stays set.
#[inline(always)]
fn issue(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    if lane.ready.is_empty() {
        return;
    }
    let mut quotas = shared.quotas;
    let mut issued = 0;
    let head_seq = lane.s.head_seq;
    let mask = lane.rob.mask;
    let len = lane.rob.len as u64;
    let mut offset = 0u64;
    'scan: while offset < len && !lane.ready.is_empty() {
        // One bitset word's worth of in-flight slots, oldest first,
        // clamped to the ring's wrap point (rings smaller than a word
        // wrap mid-word).
        let seq0 = head_seq + offset;
        let p = (seq0 & mask) as usize;
        let span = (64 - (p & 63) as u64)
            .min(len - offset)
            .min(mask + 1 - (p as u64));
        let mut word = lane.ready.words[p >> 6] >> (p & 63);
        if span < 64 {
            word &= (1u64 << span) - 1;
        }
        while word != 0 {
            let seq = seq0 + u64::from(word.trailing_zeros());
            word &= word - 1; // clear lowest candidate bit (local copy)
            let idx = (seq & mask) as usize;
            let (op, fwd_src) = {
                let e = &lane.rob.slots[idx];
                debug_assert!(
                    e.seq == seq && e.state == EntryState::Waiting && e.pending_deps == 0
                );
                (e.op, e.fwd_src)
            };
            let class = class_of(op);
            if quotas[class] == 0 {
                continue; // deferred: the ready bit stays set
            }
            quotas[class] -= 1;
            issued += 1;
            lane.ready.remove(seq);

            let now = lane.s.now;
            let done_cycle = match op {
                Op::IntAlu | Op::Branch | Op::Store => now + 1,
                Op::IntMul => now + shared.int_mul_lat,
                Op::FpAlu => now + shared.fp_alu_lat,
                Op::FpMul => now + shared.fp_mul_lat,
                Op::Load => {
                    if fwd_src != u64::MAX {
                        // The producing store has executed (we depended
                        // on it); forward at L1 latency without a cache
                        // port round trip.
                        debug_assert!(lane
                            .rob
                            .get(head_seq, fwd_src)
                            .is_none_or(|s| s.state != EntryState::Waiting));
                        lane.stats.forwarded_loads += 1;
                        now + lane.dl1_lat
                    } else {
                        let addr = window.slots[seq as usize - window.start].mem_addr;
                        lane.hierarchy.data_access(now, addr).complete
                    }
                }
            };
            let e = &mut lane.rob.slots[idx];
            e.state = EntryState::Issued;
            e.done_cycle = done_cycle;
            lane.s.iq_count -= 1;
            lane.completions.push(now, done_cycle, seq, idx);
            if issued == shared.width {
                break 'scan;
            }
        }
        offset += span;
    }
}

/// Renames and dispatches fetched instructions into the window.
#[inline(always)]
fn dispatch(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    let now = lane.s.now;
    for _ in 0..shared.width {
        let seq = lane.fq_front();
        if seq as usize == lane.s.pos || lane.fetch_queue.rename_ready(seq) > now {
            break;
        }
        if lane.rob.len() >= lane.rob_size {
            lane.stats.rob_full_cycles += 1;
            break;
        }
        if lane.s.iq_count >= lane.iq_size {
            lane.stats.iq_full_cycles += 1;
            break;
        }
        // The window keeps the previous chunk resident, so every queued
        // seq is still addressable here (fq_capacity << CHUNK).
        let instr = &window.slots[seq as usize - window.start];
        let is_mem = instr.op.is_mem();
        if is_mem && lane.s.lsq_count >= lane.lsq_size {
            lane.stats.lsq_full_cycles += 1;
            break;
        }
        let head_seq = lane.s.head_seq;
        let idx = lane.rob.slot_of(seq);

        // Register dependences via producer distance: waiter edge
        // `4·idx + k` for source `k`.
        let mut pending_deps: u8 = 0;
        for (k, dist) in [instr.src1_dist, instr.src2_dist].into_iter().enumerate() {
            if dist == 0 {
                continue;
            }
            let Some(producer) = seq.checked_sub(u64::from(dist)) else {
                continue;
            };
            if lane
                .rob
                .get(head_seq, producer)
                .is_some_and(|p| p.state != EntryState::Done)
            {
                lane.rob.link(lane.rob.slot_of(producer), 4 * idx + k);
                pending_deps += 1;
            }
        }

        // Memory dependence: loads wait for the youngest older store to
        // the same word (precomputed by the shared pass) and forward
        // from it — iff that store is still in flight, which is exactly
        // when the serial engine's store map would still hold it.
        let mut fwd_src = u64::MAX;
        let fwd = seq - u64::from(instr.fwd_dist);
        if instr.fwd_dist != 0 && fwd >= head_seq {
            fwd_src = fwd;
            // Older than the load and uncommitted, so in the ROB.
            let p = lane.rob.slot_of(fwd);
            debug_assert_eq!(lane.rob.slots[p].seq, fwd);
            if lane.rob.slots[p].state != EntryState::Done {
                lane.rob.link(p, 4 * idx + 2);
                pending_deps += 1;
            }
        }

        if is_mem {
            lane.s.lsq_count += 1;
        }
        lane.s.iq_count += 1;
        debug_assert_eq!(lane.rob.slots[idx].wait_head, NIL);
        lane.rob.slots[idx] = Slot {
            seq,
            done_cycle: 0,
            fwd_src,
            wait_head: NIL,
            state: EntryState::Waiting,
            pending_deps,
            op: instr.op,
        };
        lane.rob.len += 1;
        if pending_deps == 0 {
            lane.ready.insert(seq);
        }
    }
}

/// Brings instructions from the shared window into the front end.
#[inline(always)]
fn fetch(lane: &mut LaneView<'_>, shared: &Shared, window: &Window<'_>) {
    if lane.s.fetch_blocked_on.is_some() || lane.s.now < lane.s.fetch_available {
        return;
    }
    let now = lane.s.now;
    for _ in 0..shared.width {
        if lane.fq_len() >= lane.fq_capacity {
            break;
        }
        let idx = lane.s.pos - window.start;
        let Some(instr) = window.slots.get(idx) else {
            break;
        };
        // Instruction cache: one lookup per new line.
        let line = instr.pc >> shared.line_bits;
        if line != lane.s.last_fetch_line {
            let outcome = lane.hierarchy.inst_access(now, instr.pc);
            lane.s.last_fetch_line = line;
            if !outcome.l1_hit {
                // Fetch stalls until the line arrives; retry then.
                lane.s.fetch_available = outcome.complete;
                break;
            }
        }
        let seq = lane.s.pos as u64;
        lane.s.pos += 1;
        // The shared pass computed this branch's outcome (and this
        // load's forwarding source) already.
        lane.fetch_queue
            .set_rename_ready(seq, now + lane.front_depth);
        if instr.mispredicted {
            // Stop fetching until the branch resolves.
            lane.s.fetch_blocked_on = Some(seq);
            break;
        }
        if instr.op == Op::Branch && instr.taken {
            // Cannot fetch past a taken branch in the same cycle;
            // the next fetch starts at the target's line.
            lane.s.last_fetch_line = u64::MAX;
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::Processor;
    use crate::Instr;

    fn loop_pc(i: u64) -> u64 {
        0x1000 + (i % 256) * 4
    }

    /// A trace mixing every op class with branches and memory traffic.
    fn mixed_trace(len: u64) -> Vec<Instr> {
        let mut rng = ppm_rng::Rng::seed_from_u64(99);
        (0..len)
            .map(|i| {
                let pc = loop_pc(i);
                let s1 = rng.below(8) as u32;
                let s2 = rng.below(4) as u32;
                match rng.below(10) {
                    0..=2 => Instr::load(pc, rng.below(1 << 22) & !7, s1, s2),
                    3 => Instr::store(pc, rng.below(1 << 22) & !7, s1, s2),
                    4 => Instr::branch(pc, rng.chance(0.6), 0x1000 + rng.below(256) * 4, s1),
                    5 => Instr::alu(Op::IntMul, pc, s1, s2),
                    6 => Instr::alu(Op::FpAlu, pc, s1, s2),
                    7 => Instr::alu(Op::FpMul, pc, s1, s2),
                    _ => Instr::alu(Op::IntAlu, pc, s1, s2),
                }
            })
            .collect()
    }

    fn serial(config: &SimConfig, trace: &[Instr]) -> SimStats {
        Processor::new(config.clone()).run(trace.iter().copied())
    }

    #[test]
    fn empty_batch_is_rejected() {
        assert!(matches!(
            BatchProcessor::new(vec![]),
            Err(BatchError::Empty)
        ));
    }

    #[test]
    fn invalid_config_is_rejected_with_its_index() {
        let bad = SimConfig {
            rob_size: 1,
            ..SimConfig::default()
        };
        let err = BatchProcessor::new(vec![SimConfig::default(), bad]).unwrap_err();
        match err {
            BatchError::InvalidConfig { index, .. } => assert_eq!(index, 1),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        assert!(err.to_string().contains("configuration 1"));
    }

    #[test]
    fn heterogeneous_fixed_machines_are_rejected() {
        let mut other = SimConfig::default();
        other.fixed.width = 8;
        let err = BatchProcessor::new(vec![SimConfig::default(), other]).unwrap_err();
        assert!(matches!(
            err,
            BatchError::HeterogeneousFixedMachine { index: 1 }
        ));
        assert!(err.to_string().contains("fixed machine"));
    }

    #[test]
    fn single_lane_matches_serial() {
        let trace = mixed_trace(8_000);
        let config = SimConfig::default();
        let batched = BatchProcessor::new(vec![config.clone()])
            .unwrap()
            .run(trace.iter().copied());
        assert_eq!(batched[0], serial(&config, &trace));
    }

    #[test]
    fn empty_trace_finishes_every_lane_immediately() {
        let configs = vec![SimConfig::default(); 3];
        let batched = BatchProcessor::new(configs)
            .unwrap()
            .run(std::iter::empty());
        for stats in batched {
            assert_eq!(stats.instructions, 0);
            assert_eq!(stats.cycles, 0);
        }
    }

    #[test]
    fn divergent_design_points_match_their_serial_runs() {
        // Configurations chosen to maximize lane divergence: tiny vs
        // huge windows, shallow vs deep pipes, cold vs warm caches.
        let trace = mixed_trace(20_000);
        let configs: Vec<SimConfig> = [
            (7u32, 24u32, 8u32, 1u32),
            (14, 76, 32, 2),
            (24, 128, 64, 4),
            (10, 48, 16, 3),
        ]
        .iter()
        .map(|&(depth, rob, dl1, lat)| {
            SimConfig::builder()
                .pipe_depth(depth)
                .rob_size(rob)
                .dl1_size_kb(dl1)
                .dl1_lat(lat)
                .build()
                .unwrap()
        })
        .collect();
        let batched = BatchProcessor::new(configs.clone())
            .unwrap()
            .run(trace.iter().copied());
        for (l, config) in configs.iter().enumerate() {
            assert_eq!(batched[l], serial(config, &trace), "lane {l}");
        }
    }

    #[test]
    fn store_map_holds_only_stores_the_window_can_forward() {
        // Store-heavy: a hot pool of words re-stored in every chunk, plus
        // one region per chunk that is stored there and loaded in the
        // next, across the chunk boundary.
        let mut rng = ppm_rng::Rng::seed_from_u64(7);
        let region =
            |chunk: u64, rng: &mut ppm_rng::Rng| 0x10_0000 + (chunk << 16) + rng.below(1024) * 8;
        let trace: Vec<Instr> = (0..4 * CHUNK as u64 + 500)
            .map(|i| {
                let pc = loop_pc(i);
                let chunk = i / CHUNK as u64;
                let (s1, s2) = (rng.below(6) as u32, rng.below(3) as u32);
                match rng.below(10) {
                    0..=2 => Instr::store(pc, rng.below(512) * 8, s1, s2),
                    3..=4 => Instr::store(pc, region(chunk, &mut rng), s1, s2),
                    5..=6 => Instr::load(pc, rng.below(512) * 8, s1, s2),
                    7 => Instr::load(pc, region(chunk.saturating_sub(1), &mut rng), s1, s2),
                    _ => Instr::alu(Op::IntAlu, pc, s1, s2),
                }
            })
            .collect();
        let configs = vec![
            SimConfig::builder().rob_size(24).build().unwrap(),
            SimConfig::builder().rob_size(512).build().unwrap(),
        ];
        let mut kernel = Kernel::new(&configs);
        kernel.run(trace.iter().copied());
        let start = kernel.win_start as u64;
        assert_eq!(start, 2 * CHUNK as u64, "the window slid twice");
        assert!(!kernel.store_last.is_empty());
        assert!(
            kernel.store_last.values().all(|&seq| seq >= start),
            "stores older than the window survived a slide"
        );
        let batched = kernel.finalize();
        for (l, config) in configs.iter().enumerate() {
            assert!(batched[l].forwarded_loads > 0, "lane {l}");
            assert_eq!(batched[l], serial(config, &trace), "lane {l}");
        }
    }

    #[test]
    fn resident_bytes_count_the_window_and_every_lane() {
        // Default machine: 32 KB 2-way L1s and a 1 MB 8-way L2 with
        // 64 B lines, width 4, front end 14 - 4 = 10 stages deep.
        let configs = vec![
            SimConfig::builder().rob_size(24).build().unwrap(),
            SimConfig::builder().rob_size(128).build().unwrap(),
        ];
        let window = 3 * CHUNK * 32;
        // 512 + 512 + 16,384 lines, one 4-byte tag each, and one filled
        // bit per set: 256 + 256 + 2,048 sets in 8-byte words.
        let tags = (512 + 512 + 16_384) * 4 + (256 + 256 + 2_048) / 64 * 8;
        // ROB ring of 32 or 128 slots: 32 B per slot, four 4-byte
        // waiter edges per slot, and the wheel's 4-byte link per slot.
        let rob = |cap: usize| cap * 32 + 4 * cap * 4 + cap * 4;
        // 512 wheel bucket heads of 4 B; a fetch ring of (10 + 4) × 4 =
        // 56 entries rounds up to 64 rename-ready cycles of 8 B.
        let fixed = 512 * 4 + 64 * 8;
        let ready = 8 + 16; // one or two bitset words
        let want = window + 2 * (tags + fixed) + rob(32) + rob(128) + ready;
        assert_eq!(want, 1_726_232);
        assert_eq!(Kernel::new(&configs).resident_bytes(), want);

        let scoped = ppm_telemetry::Registry::scoped();
        BatchProcessor::new(configs)
            .unwrap()
            .run(mixed_trace(100).into_iter());
        let h = scoped.histogram("sim.batch_group_bytes");
        assert_eq!(h.count(), 1, "one record per lane group");
        assert_eq!(h.sum(), want as u64);
    }

    #[test]
    fn chunk_boundaries_do_not_leak_into_timing() {
        // A trace a little over one chunk forces a window slide right
        // where a fetch group can straddle the barrier.
        let trace = mixed_trace(CHUNK as u64 + 37);
        let configs = vec![
            SimConfig::builder().rob_size(24).build().unwrap(),
            SimConfig::builder().rob_size(128).build().unwrap(),
        ];
        let batched = BatchProcessor::new(configs.clone())
            .unwrap()
            .run(trace.iter().copied());
        for (l, config) in configs.iter().enumerate() {
            assert_eq!(batched[l], serial(config, &trace), "lane {l}");
        }
    }

    /// Asserts every lane of one batch equals its oracle run.
    fn assert_lanes_match(configs: &[SimConfig], trace: &[Instr]) -> Vec<SimStats> {
        let batched = BatchProcessor::new(configs.to_vec())
            .unwrap()
            .run(trace.iter().copied());
        for (l, config) in configs.iter().enumerate() {
            assert_eq!(batched[l], serial(config, trace), "lane {l}: {config:?}");
        }
        batched
    }

    #[test]
    fn completion_wheel_drains_exactly_what_is_due() {
        // A model of the wheel's contract: pushes at delays across the
        // bucket count (511, 512, 513 and far beyond) and jumps of
        // `now` up to the earliest pending cycle, as the skip logic
        // makes them. Each drain must yield exactly the slots due at
        // that cycle, and `min_cycle` must stay exact throughout.
        let mut rng = ppm_rng::Rng::seed_from_u64(0x3a1);
        let mut wheel = CompletionSet::new(1024);
        let mut model: std::collections::BTreeMap<u64, Vec<usize>> = Default::default();
        let mut free: Vec<usize> = (0..1024).collect();
        let mut now = 0u64;
        let mut far_pushes = 0;
        while now < 20_000 {
            let want_min = model.keys().next().copied().unwrap_or(u64::MAX);
            assert_eq!(wheel.min_cycle(), want_min, "cycle {now}");
            if want_min == now {
                let mut got = Vec::new();
                let mut slot = wheel.take_bucket(now);
                while slot != NIL {
                    got.push(slot as usize);
                    slot = wheel.next[slot as usize];
                }
                while let Some(seq) = wheel.pop_far(now) {
                    got.push(seq as usize);
                }
                wheel.settle(now);
                got.sort_unstable();
                let mut want = model.remove(&now).unwrap();
                want.sort_unstable();
                assert_eq!(got, want, "cycle {now}");
                free.extend(got);
            }
            for _ in 0..rng.below(5) {
                let Some(slot) = free.pop() else { break };
                let delay = match rng.below(8) {
                    0 => 1,
                    1 => WHEEL as u64 - 1,
                    2 => WHEEL as u64,
                    3 => WHEEL as u64 + 1,
                    4 => 600 + rng.below(3_000),
                    _ => 1 + rng.below(40),
                };
                far_pushes += usize::from(delay >= WHEEL as u64);
                wheel.push(now, now + delay, slot as u64, slot);
                model.entry(now + delay).or_default().push(slot);
            }
            now = (now + 1 + rng.below(60)).min(wheel.min_cycle());
        }
        assert!(far_pushes > 1_000, "{far_pushes}");
    }

    /// A fixed machine with DRAM latency `mem_lat` and `mshrs` MSHRs.
    fn far_machine(mem_lat: u32, mshrs: u32) -> crate::FixedMachine {
        crate::FixedMachine {
            mem_lat,
            mshrs,
            ..crate::FixedMachine::default()
        }
    }

    #[test]
    fn far_dram_completions_match_the_oracle() {
        // DRAM round trips of 512 cycles or more, queued behind few
        // MSHRs: those completions take the overflow heap, and wheel
        // entries cross the wrap point many times over.
        let trace = mixed_trace(6_000);
        for (mem_lat, mshrs) in [(500, 4), (520, 4), (700, 2), (2_000, 4)] {
            let configs: Vec<SimConfig> = [8u32, 76, 512]
                .iter()
                .map(|&rob| {
                    SimConfig::builder()
                        .rob_size(rob)
                        .fixed(far_machine(mem_lat, mshrs))
                        .build()
                        .unwrap()
                })
                .collect();
            let batched = assert_lanes_match(&configs, &trace);
            assert!(batched[0].dram_accesses > 100, "mem_lat {mem_lat}");
            assert!(batched[0].mshr_wait_cycles > 0, "mem_lat {mem_lat}");
        }
    }

    /// Blocks of eight: a load that misses to a random word, then seven
    /// consumers of it — more than four dependents on one producer —
    /// several of which name it as both sources.
    fn fan_out_trace(len: u64) -> Vec<Instr> {
        let mut rng = ppm_rng::Rng::seed_from_u64(0xfa);
        (0..len)
            .map(|i| {
                let pc = loop_pc(i);
                match i % 8 {
                    0 => Instr::load(pc, rng.below(1 << 24) & !7, 8, 0),
                    k @ (1 | 3 | 6) => Instr::alu(Op::IntAlu, pc, k as u32, k as u32),
                    k @ (2 | 5) => Instr::alu(Op::FpMul, pc, k as u32, 1),
                    k => Instr::alu(Op::IntMul, pc, k as u32, 0),
                }
            })
            .collect()
    }

    #[test]
    fn waiter_lists_wake_every_dependent() {
        let trace = fan_out_trace(12_000);
        let configs: Vec<SimConfig> = [8u32, 24, 128, 512]
            .iter()
            .map(|&rob| SimConfig::builder().rob_size(rob).build().unwrap())
            .collect();
        assert_lanes_match(&configs, &trace);
    }

    #[test]
    fn full_fetch_queue_crosses_the_chunk_barrier() {
        // A pointer chase: every load depends on the previous one and
        // misses, so a small ROB stays full and fetch fills the deepest
        // front end's queue (40 stages: 36 front-end, 160 entries)
        // long before the barrier.
        let mut rng = ppm_rng::Rng::seed_from_u64(0xf0);
        let trace: Vec<Instr> = (0..CHUNK as u64 + 3_000)
            .map(|i| {
                let pc = loop_pc(i);
                if i % 4 == 0 {
                    Instr::load(pc, rng.below(1 << 24) & !7, 4, 0)
                } else {
                    Instr::alu(Op::IntAlu, pc, 1, 0)
                }
            })
            .collect();
        let configs: Vec<SimConfig> = [8u32, 512]
            .iter()
            .map(|&rob| {
                SimConfig::builder()
                    .pipe_depth(40)
                    .rob_size(rob)
                    .build()
                    .unwrap()
            })
            .collect();
        let mut kernel = Kernel::new(&configs);
        let mut source = trace.iter().copied();
        kernel.refill(&mut source);
        {
            // Lane 0's turn of the first chunk, exactly as `run` takes it.
            let window = Window {
                slots: &kernel.window,
                start: kernel.win_start,
            };
            let mut lane = kernel.lanes.view(0);
            while lane.s.pos < CHUNK {
                step(&mut lane, &kernel.shared, &window);
            }
            assert_eq!(lane.fq_capacity, 160);
            assert_eq!(lane.fq_len(), lane.fq_capacity, "queue full at the barrier");
            let s = lane.s;
            kernel.lanes.store(0, s);
        }
        kernel.run(source);
        let batched = kernel.finalize();
        for (l, config) in configs.iter().enumerate() {
            assert_eq!(batched[l], serial(config, &trace), "lane {l}");
        }
    }
}
