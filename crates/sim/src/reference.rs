//! The reference oracle that [`BatchProcessor`](crate::BatchProcessor),
//! the production engine, is checked against byte for byte: one
//! configuration, every cycle executed — fetch, rename/dispatch,
//! wakeup-select issue, execute, and in-order commit.
//!
//! The model is trace-driven with oracle branch outcomes: when fetch
//! reaches a branch the predictor gets wrong, fetch stops (wrong-path
//! instructions are not simulated) and resumes one cycle after the
//! branch executes, after which instructions take `front_depth` cycles
//! to refill the front end — so the misprediction penalty scales with
//! pipeline depth exactly as in an execute-driven simulator.
//!
//! Memory dependences use oracle disambiguation: a load waits for the
//! youngest older in-flight store to the same 8-byte word and forwards
//! from it; independent loads issue around unresolved stores. This
//! idealized-but-deterministic policy is documented in DESIGN.md.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use crate::batch::{class_of, record_run_telemetry, EntryState};
use crate::{BranchPredictor, Hierarchy, Instr, Op, SimConfig, SimStats, TraceSource};

/// One in-flight instruction in the reorder buffer.
#[derive(Debug)]
struct RobEntry {
    instr: Instr,
    seq: u64,
    state: EntryState,
    pending_deps: u8,
    done_cycle: u64,
    /// For loads: the store seq to forward from, if any.
    forward_from: Option<u64>,
    /// Dependents to wake when this entry completes.
    waiters: Vec<u64>,
}

/// A fetched-but-not-dispatched instruction in the front-end queue.
#[derive(Debug)]
struct FetchedInstr {
    seq: u64,
    instr: Instr,
    rename_ready: u64,
}

/// The reference processor: couples the execution engine with a memory
/// hierarchy and branch predictor built from a [`SimConfig`].
///
/// # Examples
///
/// ```
/// use ppm_sim::reference::Processor;
/// use ppm_sim::{Instr, Op, SimConfig};
///
/// let trace = (0..500).map(|i| Instr::alu(Op::IntAlu, 0x1000 + i * 4, 1, 0));
/// let stats = Processor::new(SimConfig::default()).run(trace);
/// // A serial dependence chain cannot beat 1.0 CPI.
/// assert!(stats.cpi() >= 0.99);
/// ```
#[derive(Debug)]
pub struct Processor {
    config: SimConfig,
    hierarchy: Hierarchy,
    bpred: BranchPredictor,
}

impl Processor {
    /// Builds a processor for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not pass
    /// [`SimConfig::validate`].
    pub fn new(config: SimConfig) -> Self {
        config
            .validate()
            // Documented `# Panics` contract — callers validate configs
            // at the API boundary. lint:allow(panic-path)
            .expect("Processor::new requires a valid configuration");
        let hierarchy = Hierarchy::new(&config);
        // `gshare_history` is bounds-checked by `validate` above (>= 1
        // for history-based predictors), so no clamp is needed here.
        let bpred = BranchPredictor::with_kind(
            config.fixed.predictor,
            config.fixed.gshare_entries,
            config.fixed.gshare_history,
            config.fixed.btb_entries,
        );
        Processor {
            config,
            hierarchy,
            bpred,
        }
    }

    /// Runs the trace to completion and returns the statistics.
    ///
    /// Bound the run length with `trace.take(n)`.
    pub fn run(mut self, trace: impl TraceSource) -> SimStats {
        let mut engine = Engine::new(&self.config);
        let mut trace = trace.peekable();
        let mut stats = SimStats::default();

        while !engine.finished(&mut trace) {
            engine.cycle(&mut trace, &mut self.hierarchy, &mut self.bpred, &mut stats);
        }

        stats.cycles = engine.now;
        stats.il1 = self.hierarchy.il1().stats();
        stats.dl1 = self.hierarchy.dl1().stats();
        stats.l2 = self.hierarchy.l2().stats();
        stats.dram_accesses = self.hierarchy.memory().dram_accesses;
        stats.mshr_wait_cycles = self.hierarchy.memory().mshr_wait_cycles;
        stats.mispredicts = self.bpred.mispredictions;
        record_run_telemetry(&stats);
        stats
    }
}

/// Per-run mutable pipeline state.
struct Engine {
    now: u64,
    next_seq: u64,
    head_seq: u64,
    rob: VecDeque<RobEntry>,
    rob_size: usize,
    iq_size: usize,
    lsq_size: usize,
    iq_count: usize,
    lsq_count: usize,
    width: usize,
    front_depth: u64,
    fq_capacity: usize,
    fetch_queue: VecDeque<FetchedInstr>,
    /// Fetch is stopped until this mispredicted branch resolves.
    fetch_blocked_on: Option<u64>,
    /// Fetch may not proceed before this cycle (I-miss / redirect).
    fetch_available: u64,
    last_fetch_line: u64,
    line_bits: u32,
    ready: BinaryHeap<Reverse<u64>>,
    completions: BinaryHeap<Reverse<(u64, u64)>>,
    /// Youngest in-flight store per 8-byte word.
    store_map: HashMap<u64, u64>,
    /// Per-cycle issue quota per class: [int_alu, int_mul, fp_alu, fp_mul, mem].
    quotas: [u32; 5],
    /// (int_mul_lat, fp_alu_lat, fp_mul_lat, dl1_lat) in cycles.
    fixed_lat: (u64, u64, u64, u64),
}

impl Engine {
    fn new(config: &SimConfig) -> Self {
        let front_depth = config.front_depth() as u64;
        let width = config.fixed.width as usize;
        Engine {
            now: 0,
            next_seq: 0,
            head_seq: 0,
            rob: VecDeque::with_capacity(config.rob_size as usize),
            rob_size: config.rob_size as usize,
            iq_size: config.iq_size() as usize,
            lsq_size: config.lsq_size() as usize,
            iq_count: 0,
            lsq_count: 0,
            width,
            front_depth,
            fq_capacity: ((front_depth as usize) + 4) * width,
            fetch_queue: VecDeque::new(),
            fetch_blocked_on: None,
            fetch_available: 0,
            last_fetch_line: u64::MAX,
            line_bits: config.fixed.line_size.trailing_zeros(),
            ready: BinaryHeap::new(),
            completions: BinaryHeap::new(),
            store_map: HashMap::new(),
            quotas: [
                config.fixed.int_alus,
                config.fixed.int_muls,
                config.fixed.fp_alus,
                config.fixed.fp_muls,
                config.fixed.mem_ports,
            ],
            fixed_lat: (
                config.fixed.int_mul_lat as u64,
                config.fixed.fp_alu_lat as u64,
                config.fixed.fp_mul_lat as u64,
                config.dl1_lat as u64,
            ),
        }
    }

    fn finished(&self, trace: &mut std::iter::Peekable<impl TraceSource>) -> bool {
        self.rob.is_empty() && self.fetch_queue.is_empty() && trace.peek().is_none()
    }

    fn entry(&self, seq: u64) -> Option<&RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get(idx)
    }

    fn entry_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        let idx = seq.checked_sub(self.head_seq)? as usize;
        self.rob.get_mut(idx)
    }

    fn cycle(
        &mut self,
        trace: &mut std::iter::Peekable<impl TraceSource>,
        hierarchy: &mut Hierarchy,
        bpred: &mut BranchPredictor,
        stats: &mut SimStats,
    ) {
        self.process_completions();
        self.commit(hierarchy, stats);
        self.issue(hierarchy, stats);
        self.dispatch(stats);
        self.fetch(trace, hierarchy, bpred);
        stats.rob_occupancy_sum += self.rob.len() as u64;
        self.now += 1;
    }

    /// Marks finished executions done and wakes their dependents.
    fn process_completions(&mut self) {
        while let Some(&Reverse((cycle, seq))) = self.completions.peek() {
            if cycle > self.now {
                break;
            }
            self.completions.pop();
            let waiters = {
                let Some(e) = self.entry_mut(seq) else {
                    continue;
                };
                debug_assert_eq!(e.state, EntryState::Issued);
                e.state = EntryState::Done;
                std::mem::take(&mut e.waiters)
            };
            // A resolved mispredicted branch restarts fetch.
            if self.fetch_blocked_on == Some(seq) {
                self.fetch_blocked_on = None;
                self.fetch_available = self.fetch_available.max(self.now + 1);
                self.last_fetch_line = u64::MAX; // redirect: new line
            }
            for w in waiters {
                if let Some(dep) = self.entry_mut(w) {
                    dep.pending_deps -= 1;
                    if dep.pending_deps == 0 && dep.state == EntryState::Waiting {
                        self.ready.push(Reverse(w));
                    }
                }
            }
        }
    }

    /// Retires completed instructions in order.
    fn commit(&mut self, hierarchy: &mut Hierarchy, stats: &mut SimStats) {
        for _ in 0..self.width {
            let Some(head) = self.rob.front() else { break };
            if head.state != EntryState::Done || head.done_cycle > self.now {
                break;
            }
            // lint:allow(panic-path): front() was checked non-empty above.
            let e = self.rob.pop_front().expect("checked front");
            self.head_seq += 1;
            stats.instructions += 1;
            match e.instr.op {
                Op::Load => stats.loads += 1,
                Op::Store => {
                    stats.stores += 1;
                    self.lsq_count -= 1;
                    // The store writes its line at commit; this updates
                    // cache state and charges bank/bus occupancy, but
                    // does not stall commit (write buffering).
                    let word = e.instr.mem_addr >> 3;
                    if self.store_map.get(&word) == Some(&e.seq) {
                        self.store_map.remove(&word);
                    }
                    let _ = hierarchy.data_access(self.now, e.instr.mem_addr);
                }
                Op::Branch => stats.branches += 1,
                Op::IntAlu => stats.int_ops += 1,
                Op::IntMul => stats.mul_ops += 1,
                Op::FpAlu => stats.fp_ops += 1,
                Op::FpMul => stats.fp_mul_ops += 1,
            }
            if e.instr.op == Op::Load {
                self.lsq_count -= 1;
            }
        }
    }

    /// Wakeup-select: issues ready instructions oldest-first, subject to
    /// issue width and per-class functional-unit quotas.
    fn issue(&mut self, hierarchy: &mut Hierarchy, stats: &mut SimStats) {
        let mut quotas = self.quotas;
        let mut issued = 0;
        let mut deferred: Vec<u64> = Vec::new();
        while issued < self.width {
            let Some(&Reverse(seq)) = self.ready.peek() else {
                break;
            };
            self.ready.pop();
            let Some(e) = self.entry(seq) else { continue };
            if e.state != EntryState::Waiting || e.pending_deps != 0 {
                continue; // stale heap entry
            }
            let class = class_of(e.instr.op);
            if quotas[class] == 0 {
                deferred.push(seq);
                continue;
            }
            quotas[class] -= 1;
            issued += 1;

            let op = e.instr.op;
            let addr = e.instr.mem_addr;
            let forward_from = e.forward_from;
            let done_cycle = match op {
                Op::IntAlu | Op::Branch | Op::Store => self.now + 1,
                Op::IntMul => self.now + self.config_int_mul_lat(),
                Op::FpAlu => self.now + self.config_fp_alu_lat(),
                Op::FpMul => self.now + self.config_fp_mul_lat(),
                Op::Load => {
                    if let Some(src) = forward_from {
                        // The producing store has executed (we depended on
                        // it); forward at L1 latency without a cache port
                        // round trip.
                        debug_assert!(self
                            .entry(src)
                            .is_none_or(|s| s.state != EntryState::Waiting));
                        stats.forwarded_loads += 1;
                        self.now + self.dl1_lat_cycles()
                    } else {
                        hierarchy.data_access(self.now, addr).complete
                    }
                }
            };
            // seq came from the issue scan over live ROB entries a few
            // lines up. lint:allow(panic-path)
            let e = self.entry_mut(seq).expect("entry exists");
            e.state = EntryState::Issued;
            e.done_cycle = done_cycle;
            self.iq_count -= 1;
            self.completions.push(Reverse((done_cycle, seq)));
        }
        for seq in deferred {
            self.ready.push(Reverse(seq));
        }
    }

    /// Renames and dispatches fetched instructions into the window.
    fn dispatch(&mut self, stats: &mut SimStats) {
        for _ in 0..self.width {
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            if front.rename_ready > self.now {
                break;
            }
            if self.rob.len() >= self.rob_size {
                stats.rob_full_cycles += 1;
                break;
            }
            if self.iq_count >= self.iq_size {
                stats.iq_full_cycles += 1;
                break;
            }
            let is_mem = front.instr.op.is_mem();
            if is_mem && self.lsq_count >= self.lsq_size {
                stats.lsq_full_cycles += 1;
                break;
            }
            // lint:allow(panic-path): front() was checked non-empty above.
            let f = self.fetch_queue.pop_front().expect("checked front");
            debug_assert_eq!(f.seq, self.head_seq + self.rob.len() as u64);

            let mut entry = RobEntry {
                instr: f.instr,
                seq: f.seq,
                state: EntryState::Waiting,
                pending_deps: 0,
                done_cycle: 0,
                forward_from: None,
                waiters: Vec::new(),
            };

            // Register dependences via producer distance.
            for dist in [f.instr.src1_dist, f.instr.src2_dist] {
                if dist == 0 {
                    continue;
                }
                let Some(producer) = f.seq.checked_sub(dist as u64) else {
                    continue;
                };
                if producer < self.head_seq {
                    continue; // already committed
                }
                let idx = (producer - self.head_seq) as usize;
                if let Some(p) = self.rob.get_mut(idx) {
                    if p.state != EntryState::Done {
                        p.waiters.push(f.seq);
                        entry.pending_deps += 1;
                    }
                }
            }

            // Memory dependence: loads wait for the youngest older store
            // to the same word and forward from it.
            if f.instr.op == Op::Load {
                let word = f.instr.mem_addr >> 3;
                if let Some(&store_seq) = self.store_map.get(&word) {
                    if store_seq >= self.head_seq {
                        entry.forward_from = Some(store_seq);
                        let idx = (store_seq - self.head_seq) as usize;
                        // store_seq >= head_seq was just checked, so the
                        // index is in the ROB. lint:allow(panic-path)
                        let p = self.rob.get_mut(idx).expect("store in rob");
                        if p.state != EntryState::Done {
                            p.waiters.push(f.seq);
                            entry.pending_deps += 1;
                        }
                    }
                }
            }
            if f.instr.op == Op::Store {
                self.store_map.insert(f.instr.mem_addr >> 3, f.seq);
            }

            if is_mem {
                self.lsq_count += 1;
            }
            self.iq_count += 1;
            if entry.pending_deps == 0 {
                self.ready.push(Reverse(f.seq));
            }
            self.rob.push_back(entry);
        }
    }

    /// Brings instructions from the trace into the front end.
    fn fetch(
        &mut self,
        trace: &mut std::iter::Peekable<impl TraceSource>,
        hierarchy: &mut Hierarchy,
        bpred: &mut BranchPredictor,
    ) {
        if self.fetch_blocked_on.is_some() || self.now < self.fetch_available {
            return;
        }
        for _ in 0..self.width {
            if self.fetch_queue.len() >= self.fq_capacity {
                break;
            }
            let Some(&instr) = trace.peek() else { break };
            // Instruction cache: one lookup per new line.
            let line = instr.pc >> self.line_bits;
            if line != self.last_fetch_line {
                let outcome = hierarchy.inst_access(self.now, instr.pc);
                self.last_fetch_line = line;
                if !outcome.l1_hit {
                    // Fetch stalls until the line arrives; retry then.
                    self.fetch_available = outcome.complete;
                    break;
                }
            }
            trace.next();
            let seq = self.next_seq;
            self.next_seq += 1;

            let mut mispredicted = false;
            if instr.op == Op::Branch {
                mispredicted = bpred.predict_kind(instr.kind, instr.pc, instr.taken, instr.target);
            }
            self.fetch_queue.push_back(FetchedInstr {
                seq,
                instr,
                rename_ready: self.now + self.front_depth,
            });
            if mispredicted {
                // Stop fetching until the branch resolves.
                self.fetch_blocked_on = Some(seq);
                break;
            }
            if instr.op == Op::Branch && instr.taken {
                // Cannot fetch past a taken branch in the same cycle;
                // the next fetch starts at the target's line.
                self.last_fetch_line = u64::MAX;
                break;
            }
        }
    }

    fn config_int_mul_lat(&self) -> u64 {
        self.fixed_lat.0
    }
    fn config_fp_alu_lat(&self) -> u64 {
        self.fixed_lat.1
    }
    fn config_fp_mul_lat(&self) -> u64 {
        self.fixed_lat.2
    }
    fn dl1_lat_cycles(&self) -> u64 {
        self.fixed_lat.3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimConfig {
        SimConfig::default()
    }

    /// Loops a small code footprint so the I-cache stays warm.
    fn loop_pc(i: u64) -> u64 {
        0x1000 + (i % 256) * 4
    }

    #[test]
    fn independent_alu_ops_reach_superscalar_ipc() {
        // Long enough that the handful of cold I-misses amortize away.
        let trace = (0..200_000).map(|i| Instr::alu(Op::IntAlu, loop_pc(i), 0, 0));
        let stats = Processor::new(config()).run(trace);
        assert_eq!(stats.instructions, 200_000);
        assert!(
            stats.cpi() < 0.30,
            "cpi {} for 4-wide independent ops",
            stats.cpi()
        );
    }

    #[test]
    fn serial_chain_is_one_ipc() {
        let trace = (0..20_000).map(|i| Instr::alu(Op::IntAlu, loop_pc(i), 1, 0));
        let stats = Processor::new(config()).run(trace);
        let cpi = stats.cpi();
        assert!((0.99..1.2).contains(&cpi), "serial chain cpi {cpi}");
    }

    #[test]
    fn multiply_chain_pays_its_latency() {
        let trace = (0..10_000).map(|i| Instr::alu(Op::IntMul, loop_pc(i), 1, 0));
        let stats = Processor::new(config()).run(trace);
        let cpi = stats.cpi();
        // int_mul_lat = 3 → a serial multiply chain runs at ~3 CPI.
        assert!((2.9..3.3).contains(&cpi), "mul chain cpi {cpi}");
    }

    #[test]
    fn cached_loads_are_cheap_missing_loads_are_not() {
        // All loads to one hot line (always hits after warmup).
        let hot = (0..10_000).map(|i| Instr::load(loop_pc(i), 0x8000, 0, 0));
        let hot_cpi = Processor::new(config()).run(hot).cpi();
        // Loads streaming over 64 MiB (every line misses L2).
        let cold = (0..10_000).map(|i| Instr::load(loop_pc(i), i * 64, 0, 0));
        let cold_cpi = Processor::new(config()).run(cold).cpi();
        assert!(hot_cpi < 1.0, "hot loads cpi {hot_cpi}");
        assert!(
            cold_cpi > 3.0 * hot_cpi,
            "cold loads ({cold_cpi}) should dwarf hot loads ({hot_cpi})"
        );
    }

    #[test]
    fn store_to_load_forwarding_hides_the_miss() {
        // Store to a cold line, then immediately load it back.
        let trace = (0..5_000).flat_map(|i| {
            let addr = 0x100_0000 + i * 64;
            [
                Instr::store(loop_pc(2 * i), addr, 0, 0),
                Instr::load(loop_pc(2 * i + 1), addr, 0, 0),
            ]
        });
        let stats = Processor::new(config()).run(trace);
        assert_eq!(stats.forwarded_loads, 5_000);
        assert!(stats.cpi() < 1.5, "forwarding failed: cpi {}", stats.cpi());
    }

    #[test]
    fn mispredicted_branches_cost_pipeline_depth() {
        // Genuinely random directions defeat any finite-history predictor.
        let mk_trace = || {
            let mut rng = ppm_rng::Rng::seed_from_u64(42);
            (0..30_000u64)
                .map(|i| {
                    Instr::branch(loop_pc(i), rng.chance(0.5), 0x1000 + ((i * 7) % 256) * 4, 0)
                })
                .collect::<Vec<_>>()
                .into_iter()
        };
        let shallow = SimConfig::builder().pipe_depth(7).build().unwrap();
        let deep = SimConfig::builder().pipe_depth(24).build().unwrap();
        let cpi_shallow = Processor::new(shallow).run(mk_trace()).cpi();
        let cpi_deep = Processor::new(deep).run(mk_trace()).cpi();
        assert!(
            cpi_deep > cpi_shallow + 0.3,
            "deep pipe {cpi_deep} should pay more than shallow {cpi_shallow}"
        );
    }

    #[test]
    fn bigger_rob_overlaps_more_misses() {
        // Independent loads streaming through memory: MLP is limited by
        // the window size.
        let mk_trace = || (0..20_000u64).map(|i| Instr::load(loop_pc(i), i * 64, 0, 0));
        let small = SimConfig::builder().rob_size(24).build().unwrap();
        let big = SimConfig::builder().rob_size(128).build().unwrap();
        let cpi_small = Processor::new(small).run(mk_trace()).cpi();
        let cpi_big = Processor::new(big).run(mk_trace()).cpi();
        assert!(
            cpi_big < cpi_small * 0.8,
            "rob 128 ({cpi_big}) should beat rob 24 ({cpi_small})"
        );
    }

    #[test]
    fn icache_pressure_shows_up_with_large_code_footprint() {
        // A 48 KiB code loop: thrashes an 8 KiB I-cache, fits in 64 KiB.
        let mk_trace =
            || (0..120_000u64).map(|i| Instr::alu(Op::IntAlu, 0x1_0000 + (i % 12_288) * 4, 0, 0));
        let small = SimConfig::builder().il1_size_kb(8).build().unwrap();
        let big = SimConfig::builder().il1_size_kb(64).build().unwrap();
        let cpi_small = Processor::new(small).run(mk_trace()).cpi();
        let cpi_big = Processor::new(big).run(mk_trace()).cpi();
        assert!(
            cpi_small > cpi_big * 1.3,
            "8K icache ({cpi_small}) vs 64K ({cpi_big})"
        );
    }

    #[test]
    fn dl1_latency_hurts_dependent_loads() {
        let mk_trace = || (0..20_000u64).map(|i| Instr::load(loop_pc(i), 0x8000, 1, 0));
        let fast = SimConfig::builder().dl1_lat(1).build().unwrap();
        let slow = SimConfig::builder().dl1_lat(4).build().unwrap();
        let cpi_fast = Processor::new(fast).run(mk_trace()).cpi();
        let cpi_slow = Processor::new(slow).run(mk_trace()).cpi();
        assert!(
            cpi_slow > cpi_fast + 2.0,
            "dependent loads: lat4 {cpi_slow} vs lat1 {cpi_fast}"
        );
    }

    #[test]
    fn stats_account_for_all_instructions() {
        let trace = (0..1000u64).map(|i| match i % 4 {
            0 => Instr::load(loop_pc(i), 0x8000 + (i % 16) * 8, 0, 0),
            1 => Instr::store(loop_pc(i), 0x9000 + (i % 16) * 8, 0, 0),
            2 => Instr::branch(loop_pc(i), true, loop_pc(i + 1), 0),
            _ => Instr::alu(Op::FpAlu, loop_pc(i), 1, 2),
        });
        let stats = Processor::new(config()).run(trace);
        assert_eq!(stats.instructions, 1000);
        assert_eq!(stats.loads, 250);
        assert_eq!(stats.stores, 250);
        assert_eq!(stats.branches, 250);
    }

    #[test]
    fn empty_trace_finishes_immediately() {
        let stats = Processor::new(config()).run(std::iter::empty());
        assert_eq!(stats.instructions, 0);
        assert_eq!(stats.cycles, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk_trace = || {
            (0..5_000u64).map(|i| {
                if i % 5 == 0 {
                    Instr::load(loop_pc(i), (i * 2654435761) % (1 << 20), 1, 0)
                } else {
                    Instr::alu(Op::IntAlu, loop_pc(i), 2, 1)
                }
            })
        };
        let a = Processor::new(config()).run(mk_trace());
        let b = Processor::new(config()).run(mk_trace());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "valid configuration")]
    fn invalid_config_panics() {
        let c = SimConfig {
            rob_size: 1,
            ..SimConfig::default()
        };
        Processor::new(c);
    }

    mod fuzz {
        use super::*;
        use ppm_rng::Rng;

        /// A random but plausible instruction stream.
        fn random_trace(seed: u64, len: usize) -> Vec<Instr> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..len as u64)
                .map(|i| {
                    let pc = 0x1000 + (i % 700) * 4;
                    let s1 = rng.below(8) as u32;
                    let s2 = rng.below(4) as u32;
                    match rng.below(10) {
                        0..=2 => Instr::load(pc, rng.below(1 << 22) & !7, s1, s2),
                        3 => Instr::store(pc, rng.below(1 << 22) & !7, s1, s2),
                        4 => {
                            let taken = rng.chance(0.6);
                            Instr::branch(pc, taken, 0x1000 + rng.below(700) * 4, s1)
                        }
                        5 => Instr::alu(Op::IntMul, pc, s1, s2),
                        6 => Instr::alu(Op::FpAlu, pc, s1, s2),
                        7 => Instr::alu(Op::FpMul, pc, s1, s2),
                        _ => Instr::alu(Op::IntAlu, pc, s1, s2),
                    }
                })
                .collect()
        }

        fn random_config(seed: u64) -> SimConfig {
            let mut rng = Rng::seed_from_u64(seed);
            SimConfig::builder()
                .pipe_depth(rng.range_u64(7, 24) as u32)
                .rob_size(rng.range_u64(24, 128) as u32)
                .iq_frac(rng.range_f64(0.25, 0.75))
                .lsq_frac(rng.range_f64(0.25, 0.75))
                .l2_size_kb(1 << rng.range_u64(8, 13) as u32)
                .l2_lat(rng.range_u64(5, 20) as u32)
                .il1_size_kb(1 << rng.range_u64(3, 6) as u32)
                .dl1_size_kb(1 << rng.range_u64(3, 6) as u32)
                .dl1_lat(rng.range_u64(1, 4) as u32)
                .build()
                .expect("random config in valid ranges")
        }

        /// Any trace on any in-range configuration completes with
        /// consistent accounting: every instruction commits exactly
        /// once and the class counters add up.
        #[test]
        fn random_accounting_is_consistent() {
            for seed in 0..24u64 {
                let trace = random_trace(seed, 3_000);
                let stats =
                    Processor::new(random_config(seed ^ 0xabcd)).run(trace.clone().into_iter());
                assert_eq!(stats.instructions, 3_000, "seed {seed}");
                let class_sum = stats.loads
                    + stats.stores
                    + stats.branches
                    + stats.int_ops
                    + stats.mul_ops
                    + stats.fp_ops
                    + stats.fp_mul_ops;
                assert_eq!(class_sum, stats.instructions, "seed {seed}");
                assert!(stats.cycles > 0, "seed {seed}");
                assert!(stats.mispredicts <= stats.branches, "seed {seed}");
            }
        }

        /// CPI can never beat the machine width.
        #[test]
        fn random_cpi_bounded_by_width() {
            for seed in 0..24u64 {
                let trace = random_trace(seed, 2_000);
                let config = random_config(seed ^ 0x1234);
                let width = config.fixed.width as f64;
                let stats = Processor::new(config).run(trace.into_iter());
                assert!(stats.cpi() >= 1.0 / width - 1e-9, "seed {seed}");
            }
        }

        /// Identical inputs give identical outputs regardless of
        /// configuration randomness.
        #[test]
        fn random_run_is_a_pure_function() {
            for seed in 0..24u64 {
                let trace = random_trace(seed, 1_500);
                let config = random_config(seed);
                let a = Processor::new(config.clone()).run(trace.clone().into_iter());
                let b = Processor::new(config).run(trace.into_iter());
                assert_eq!(a, b, "seed {seed}");
            }
        }
    }
}
