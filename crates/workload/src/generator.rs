//! Expansion of a [`Profile`] into a dynamic instruction stream.

use ppm_rng::{derive_seed, CappedGeometric, Geometric, Rng, WeightedIndex};
use ppm_sim::{Instr, Op};

use crate::profile::REGION_SPAN;
use crate::{Benchmark, Profile};

/// Register dependences further back than this are always ready in any
/// realistic window; capping keeps distances meaningful.
const MAX_DEP_DIST: u64 = 48;

/// Bound on the walk's call stack; calls made with a full stack lose
/// their oldest return address (which then returns to `main`).
const MAX_CALL_DEPTH: usize = 64;

#[derive(Debug, Clone, PartialEq)]
enum BlockKind {
    /// A conditional branch: taken with `bias` to `succ_taken`.
    Cond { bias: f64, succ_taken: usize },
    /// A call site. Direct calls have one candidate entry; indirect
    /// calls (function pointers, virtual dispatch) choose among several
    /// per visit.
    Call { callee_entries: Vec<usize> },
    /// The last block of a function: returns through the call stack.
    Return,
}

#[derive(Debug, Clone)]
struct Block {
    pc: u64,
    /// Number of non-branch instructions; the op classes are drawn per
    /// visit so the dynamic mix matches the profile exactly.
    body_len: usize,
    kind: BlockKind,
    succ_fall: usize,
}

#[derive(Debug, Clone)]
struct RegionStream {
    base: u64,
    size: u64,
    sequential: f64,
    ptr: u64,
}

/// A deterministic synthetic instruction stream for one benchmark.
///
/// Construction builds a static control-flow graph from the profile:
/// the code is partitioned into *functions* of basic blocks; block
/// terminators are self-loops, biased forward conditional skips,
/// calls to other functions, or returns. Iteration walks this graph
/// with a call stack — the call/return structure is what gives the
/// stream a large, realistic active instruction footprint while keeping
/// individual branches predictable. Memory addresses come from the
/// profile's working-set regions.
///
/// The stream depends only on `(benchmark, seed)` — never on the
/// processor configuration.
///
/// # Examples
///
/// ```
/// use ppm_workload::{Benchmark, TraceGenerator};
///
/// let a: Vec<_> = TraceGenerator::new(Benchmark::Vortex, 7).take(100).collect();
/// let b: Vec<_> = TraceGenerator::new(Benchmark::Vortex, 7).take(100).collect();
/// assert_eq!(a, b); // bit-identical across constructions
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    blocks: Vec<Block>,
    regions: Vec<RegionStream>,
    /// Picks a region per memory access, by region weight.
    region_pick: WeightedIndex,
    /// Picks a body instruction's class, by the profile mix.
    op_pick: WeightedIndex,
    /// Register dependence distances, capped at [`MAX_DEP_DIST`].
    dep_dist: CappedGeometric,
    two_src_frac: f64,
    walk: Rng,
    current_block: usize,
    body_index: usize,
    call_stack: Vec<usize>,
    chase_frac: f64,
    /// Instructions since the last emitted load (for pointer chasing).
    since_last_load: u32,
}

/// Non-branch op classes, aligned with the weight vector.
const OP_CLASSES: [Op; 6] = [
    Op::Load,
    Op::Store,
    Op::IntMul,
    Op::FpAlu,
    Op::FpMul,
    Op::IntAlu,
];

impl TraceGenerator {
    /// Builds the generator for a benchmark with a given seed
    /// (MinneSPEC `lgred` inputs).
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        Self::from_profile(&benchmark.profile(), seed)
    }

    /// Builds the generator for a benchmark with an explicit input set.
    pub fn with_input(benchmark: Benchmark, input: crate::InputSet, seed: u64) -> Self {
        Self::from_profile(&benchmark.profile_with(input), seed)
    }

    /// Builds the generator from an explicit profile (useful for custom
    /// workloads and for tests).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`Profile::validate`].
    pub fn from_profile(profile: &Profile, seed: u64) -> Self {
        profile.validate();
        ppm_telemetry::counter("workload.generators").inc();
        let mut structure = Rng::seed_from_u64(derive_seed(seed, 0));
        let walk = Rng::seed_from_u64(derive_seed(seed, 1));

        let blocks = build_cfg(profile, &mut structure);
        let regions: Vec<RegionStream> = profile
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionStream {
                // Regions live in widely separated address ranges so they
                // never alias in caches by accident (`Profile::validate`
                // bounds each size by the span).
                base: (i as u64 + 1) * REGION_SPAN,
                size: r.size,
                sequential: r.sequential,
                ptr: 0,
            })
            .collect();
        let region_weights: Vec<f64> = profile.regions.iter().map(|r| r.weight).collect();
        let m = &profile.mix;
        let op_weights = [
            m.load,
            m.store,
            m.int_mul,
            m.fp_alu,
            m.fp_mul,
            (1.0 - m.load - m.store - m.int_mul - m.fp_alu - m.fp_mul).max(0.0),
        ];

        TraceGenerator {
            blocks,
            regions,
            region_pick: WeightedIndex::new(&region_weights),
            op_pick: WeightedIndex::new(&op_weights),
            dep_dist: CappedGeometric::new(profile.dep_p, MAX_DEP_DIST),
            two_src_frac: profile.two_src_frac,
            walk,
            current_block: 0,
            body_index: 0,
            call_stack: Vec::new(),
            chase_frac: profile.chase_frac,
            since_last_load: u32::MAX,
        }
    }

    /// Number of static basic blocks in the synthetic CFG.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    fn dep(&mut self) -> u32 {
        self.dep_dist.sample(&mut self.walk) as u32
    }

    fn mem_address(&mut self) -> u64 {
        let idx = self.region_pick.sample(&mut self.walk);
        let r = &mut self.regions[idx];
        if self.walk.chance(r.sequential) {
            let addr = r.base + r.ptr;
            // `(ptr + 8) % size` without a division: `ptr < size` and
            // `size >= 64`, so one subtraction wraps it.
            r.ptr += 8;
            if r.ptr >= r.size {
                r.ptr -= r.size;
            }
            addr
        } else {
            r.base + self.walk.below(r.size / 8) * 8
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let block = &self.blocks[self.current_block];
        let pc = block.pc + 4 * self.body_index as u64;
        if self.body_index < block.body_len {
            // Body instruction: class drawn from the mix per visit.
            let op = OP_CLASSES[self.op_pick.sample(&mut self.walk)];
            self.body_index += 1;
            let s1 = self.dep();
            let s2 = if self.walk.chance(self.two_src_frac) {
                self.dep()
            } else {
                0
            };
            let instr = match op {
                Op::Load => {
                    let addr = self.mem_address();
                    // Pointer chasing: the address register of this load
                    // was produced by the previous load.
                    let s1 = if self.since_last_load <= MAX_DEP_DIST as u32
                        && self.walk.chance(self.chase_frac)
                    {
                        self.since_last_load
                    } else {
                        s1
                    };
                    self.since_last_load = 0;
                    Instr::load(pc, addr, s1, s2)
                }
                Op::Store => {
                    let addr = self.mem_address();
                    self.since_last_load = self.since_last_load.saturating_add(1);
                    Instr::store(pc, addr, s1, s2)
                }
                other => {
                    self.since_last_load = self.since_last_load.saturating_add(1);
                    Instr::alu(other, pc, s1, s2)
                }
            };
            return Some(instr);
        }
        // Block terminator.
        self.body_index = 0;
        self.since_last_load = self.since_last_load.saturating_add(1);
        match block.kind {
            BlockKind::Cond { bias, succ_taken } => {
                let taken = self.walk.chance(bias);
                let next = if taken { succ_taken } else { block.succ_fall };
                let target = self.blocks[next].pc;
                let s1 = self.dep();
                self.current_block = next;
                Some(Instr::branch(pc, taken, target, s1))
            }
            BlockKind::Call { ref callee_entries } => {
                let callee = *self.walk.choose(callee_entries);
                if self.call_stack.len() == MAX_CALL_DEPTH {
                    self.call_stack.remove(0);
                }
                self.call_stack.push(block.succ_fall);
                let target = self.blocks[callee].pc;
                self.current_block = callee;
                Some(Instr::call(pc, target))
            }
            BlockKind::Return => {
                let cont = self.call_stack.pop().unwrap_or(0);
                let target = self.blocks[cont].pc;
                self.current_block = cont;
                Some(Instr::ret(pc, target))
            }
        }
    }
}

/// Builds the static CFG: functions of blocks, block bodies, layout,
/// terminators and biases.
fn build_cfg(profile: &Profile, rng: &mut Rng) -> Vec<Block> {
    let n = profile.code_blocks;
    let body_len = Geometric::new(1.0 / profile.block_len_mean);
    // Conditional taken edges are short forward skips (if/else) within
    // the enclosing function.
    let skip_dist = Geometric::new(0.4);

    // Partition the n blocks into contiguous functions.
    let fn_size = Geometric::new(1.0 / profile.blocks_per_fn);
    let mut fn_bounds: Vec<(usize, usize)> = Vec::new(); // (entry, return)
    let mut start = 0usize;
    while start < n {
        let size = (fn_size.sample(rng) as usize).clamp(3, n - start);
        let size = if n - (start + size) < 3 {
            n - start
        } else {
            size
        };
        fn_bounds.push((start, start + size - 1));
        start += size;
    }
    let num_fns = fn_bounds.len();
    // A random fifth of the functions is "hot" and receives most calls.
    let hot_fns: Vec<usize> = {
        let mut all: Vec<usize> = (0..num_fns).collect();
        rng.shuffle(&mut all);
        all.truncate((num_fns / 5).max(1));
        all
    };

    let mut blocks = Vec::with_capacity(n);
    let mut pc = 0x0001_0000u64;
    for (f, &(entry, ret)) in fn_bounds.iter().enumerate() {
        for i in entry..=ret {
            let len = body_len.sample(rng) as usize;
            let body_len_count = len.saturating_sub(1);

            // Function 0 is the program's driver loop: every one of its
            // blocks calls out to a work function. This guarantees the
            // walk fans out across the call graph instead of getting
            // trapped on a callless path.
            let is_driver = f == 0 && num_fns > 1;
            let kind = if i == ret {
                BlockKind::Return
            } else if (is_driver || rng.chance(profile.call_frac)) && num_fns > 1 {
                // A call site: usually direct, sometimes indirect
                // (function pointer / virtual dispatch) with several
                // candidate callees chosen per visit.
                let pick_callee = |rng: &mut Rng| loop {
                    let c = if rng.chance(profile.hot_code_frac) {
                        hot_fns[rng.below(hot_fns.len() as u64) as usize]
                    } else {
                        rng.below(num_fns as u64) as usize
                    };
                    if c != f {
                        break fn_bounds[c].0;
                    }
                };
                let indirect = rng.chance(0.15);
                let count = if indirect { 4 } else { 1 };
                let callee_entries = (0..count).map(|_| pick_callee(rng)).collect();
                BlockKind::Call { callee_entries }
            } else {
                let is_loop = rng.chance(profile.loop_back_prob);
                let bias = if rng.chance(profile.branch_noise) {
                    // A data-dependent branch: irreducible entropy.
                    rng.range_f64(0.30, 0.70)
                } else if is_loop {
                    // Loops run ~1/(1-bias) iterations per entry.
                    rng.range_f64(profile.loop_bias.0, profile.loop_bias.1)
                } else {
                    // Most static branches are extremely consistent.
                    let b = rng.range_f64(0.98, 0.999);
                    if rng.chance(0.5) {
                        b
                    } else {
                        1.0 - b
                    }
                };
                let succ_taken = if is_loop {
                    i
                } else {
                    // Forward skip, clamped to the function's return.
                    (i + 1 + skip_dist.sample(rng) as usize).min(ret)
                };
                BlockKind::Cond { bias, succ_taken }
            };

            blocks.push(Block {
                pc,
                body_len: body_len_count,
                kind,
                succ_fall: (i + 1).min(n - 1),
            });
            pc += 4 * (body_len_count as u64 + 1);
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_sim::{BatchProcessor, BranchKind, SimConfig, SimStats};

    /// One configuration on the simulator: a 1-lane batch.
    fn simulate(config: SimConfig, trace: impl Iterator<Item = Instr>) -> SimStats {
        BatchProcessor::new(vec![config])
            .unwrap()
            .run(trace)
            .remove(0)
    }

    #[test]
    fn deterministic_per_seed_and_distinct_across_seeds() {
        let a: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 1).take(500).collect();
        let b: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 1).take(500).collect();
        let c: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 2).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_tracks_profile() {
        for bench in [Benchmark::Mcf, Benchmark::Equake] {
            let profile = bench.profile();
            let n = 60_000;
            let trace: Vec<_> = TraceGenerator::new(bench, 3).take(n).collect();
            let frac = |op: Op| trace.iter().filter(|i| i.op == op).count() as f64 / n as f64;
            let branches = frac(Op::Branch);
            // The call/return and loop structure length-biases block
            // visits, so allow a generous band around the static value.
            assert!(
                (branches - profile.branch_fraction()).abs() < 0.07,
                "{bench}: branch fraction {branches} vs {}",
                profile.branch_fraction()
            );
            // Loads as a fraction of non-branch instructions.
            let loads = frac(Op::Load) / (1.0 - branches);
            assert!(
                (loads - profile.mix.load).abs() < 0.03 + 0.02,
                "{bench}: load fraction {loads} vs {}",
                profile.mix.load
            );
            if bench == Benchmark::Equake {
                assert!(frac(Op::FpAlu) > 0.1, "equake needs FP work");
            }
        }
    }

    #[test]
    fn addresses_stay_inside_regions() {
        let profile = Benchmark::Parser.profile();
        let trace: Vec<_> = TraceGenerator::new(Benchmark::Parser, 5)
            .take(20_000)
            .collect();
        for i in trace.iter().filter(|i| i.op.is_mem()) {
            let region = (i.mem_addr >> 28) as usize - 1;
            assert!(region < profile.regions.len(), "address outside regions");
            let offset = i.mem_addr & ((1 << 28) - 1);
            assert!(
                offset < profile.regions[region].size,
                "offset {offset} beyond region {region}"
            );
        }
    }

    #[test]
    fn the_most_regions_of_the_largest_size_stay_below_2_pow_33() {
        use crate::profile::MAX_REGIONS;
        let region = crate::MemRegion {
            size: REGION_SPAN,
            weight: 1.0,
            sequential: 0.0,
        };
        let profile = Profile {
            regions: vec![region; MAX_REGIONS],
            ..Benchmark::Mcf.profile()
        };
        let top = TraceGenerator::from_profile(&profile, 3)
            .take(50_000)
            .filter(|i| i.op.is_mem())
            .map(|i| i.mem_addr)
            .max()
            .expect("memory operations");
        assert!(top >= (MAX_REGIONS as u64) * REGION_SPAN, "{top:#x}");
        assert!(top < 1 << 33, "{top:#x}");
    }

    #[test]
    fn branch_targets_match_block_pcs() {
        let gen = TraceGenerator::new(Benchmark::Twolf, 9);
        let pcs: std::collections::HashSet<u64> = gen.blocks.iter().map(|b| b.pc).collect();
        for i in gen.clone().take(10_000) {
            if i.op == Op::Branch && i.taken {
                assert!(
                    pcs.contains(&i.target),
                    "target {:#x} is no block",
                    i.target
                );
            }
        }
    }

    #[test]
    fn returns_go_back_to_call_continuations() {
        // Every return's target must be the instruction after some
        // earlier call (or main's entry after stack underflow).
        let trace: Vec<_> = TraceGenerator::new(Benchmark::Vortex, 2)
            .take(50_000)
            .collect();
        let mut stack = Vec::new();
        let main_pc = 0x0001_0000;
        for i in &trace {
            if i.op != Op::Branch {
                continue;
            }
            match i.kind {
                BranchKind::Call => stack.push(i.pc + 4),
                BranchKind::Return => {
                    let expected = stack.pop().unwrap_or(main_pc);
                    assert_eq!(i.target, expected, "return to {:#x}", i.target);
                }
                BranchKind::Conditional => {}
            }
        }
    }

    #[test]
    fn calls_are_frequent_enough_to_matter() {
        let trace: Vec<_> = TraceGenerator::new(Benchmark::Vortex, 2)
            .take(50_000)
            .collect();
        let calls = trace
            .iter()
            .filter(|i| i.kind == BranchKind::Call && i.op == Op::Branch)
            .count();
        assert!(calls > 200, "only {calls} calls in 50k instructions");
    }

    #[test]
    fn active_code_footprint_scales_with_profile() {
        let lines = |b: Benchmark| {
            TraceGenerator::new(b, 1)
                .take(200_000)
                .map(|i| i.pc >> 6)
                .collect::<std::collections::HashSet<u64>>()
                .len()
        };
        let vortex = lines(Benchmark::Vortex);
        let mcf = lines(Benchmark::Mcf);
        assert!(
            vortex * 64 > 32 * 1024,
            "vortex active code only {} KB",
            vortex * 64 / 1024
        );
        assert!(
            mcf * 64 < 12 * 1024,
            "mcf active code {} KB",
            mcf * 64 / 1024
        );
    }

    #[test]
    fn code_footprint_matches_profile_estimate() {
        for bench in Benchmark::all() {
            let gen = TraceGenerator::new(bench, 1);
            let profile = bench.profile();
            let max_pc = gen.blocks.iter().map(|b| b.pc).max().unwrap();
            let footprint = max_pc - 0x0001_0000;
            let estimate = profile.code_footprint();
            assert!(
                footprint as f64 > 0.5 * estimate as f64
                    && (footprint as f64) < 2.0 * estimate as f64,
                "{bench}: footprint {footprint} vs estimate {estimate}"
            );
        }
    }

    /// End-to-end: the benchmark surrogates must reproduce the
    /// qualitative sensitivities the paper reports.
    #[test]
    fn mcf_is_memory_bound_and_fp_runs_fast() {
        let run = |b: Benchmark| {
            let trace = TraceGenerator::new(b, 1).take(150_000);
            simulate(SimConfig::default(), trace).cpi()
        };
        let mcf = run(Benchmark::Mcf);
        let equake = run(Benchmark::Equake);
        assert!(mcf > 1.2, "mcf cpi {mcf} should be memory bound");
        assert!(equake < mcf, "equake ({equake}) should outrun mcf ({mcf})");
    }

    #[test]
    fn mcf_responds_to_l2_and_vortex_to_il1() {
        let run = |b: Benchmark, c: SimConfig| {
            let trace = TraceGenerator::new(b, 1).take(250_000);
            simulate(c, trace).cpi()
        };
        let small_l2 = SimConfig::builder().l2_size_kb(256).build().unwrap();
        let big_l2 = SimConfig::builder().l2_size_kb(8192).build().unwrap();
        let mcf_gain = run(Benchmark::Mcf, small_l2.clone()) / run(Benchmark::Mcf, big_l2.clone());
        assert!(mcf_gain > 1.05, "mcf L2 sensitivity too weak: {mcf_gain}");

        let small_il1 = SimConfig::builder().il1_size_kb(8).build().unwrap();
        let big_il1 = SimConfig::builder().il1_size_kb(64).build().unwrap();
        let vortex_gain =
            run(Benchmark::Vortex, small_il1.clone()) / run(Benchmark::Vortex, big_il1.clone());
        let mcf_il1_gain = run(Benchmark::Mcf, small_il1) / run(Benchmark::Mcf, big_il1);
        assert!(
            vortex_gain > 1.03,
            "vortex il1 sensitivity too weak: {vortex_gain}"
        );
        assert!(
            vortex_gain > mcf_il1_gain,
            "vortex ({vortex_gain}) should be more il1-sensitive than mcf ({mcf_il1_gain})"
        );
    }

    #[test]
    fn reference_inputs_shift_weight_to_the_memory_system() {
        // The paper's §3 claim: with reference inputs the memory
        // subsystem matters more. Check that the L2-latency sensitivity
        // grows under the reference variant.
        let run = |input: crate::InputSet, l2_lat: u32| {
            let c = SimConfig::builder().l2_lat(l2_lat).build().unwrap();
            let trace = TraceGenerator::with_input(Benchmark::Twolf, input, 1).take(120_000);
            simulate(c, trace).cpi()
        };
        let lg_swing = run(crate::InputSet::MinneLgred, 20) - run(crate::InputSet::MinneLgred, 5);
        let ref_swing = run(crate::InputSet::Reference, 20) - run(crate::InputSet::Reference, 5);
        assert!(
            ref_swing > lg_swing,
            "reference inputs should amplify L2 sensitivity: {ref_swing} vs {lg_swing}"
        );
    }

    #[test]
    fn branch_mispredict_rates_are_benchmark_dependent() {
        let rate = |b: Benchmark| {
            let trace = TraceGenerator::new(b, 1).take(120_000);
            simulate(SimConfig::default(), trace).mispredict_rate()
        };
        let crafty = rate(Benchmark::Crafty);
        let equake = rate(Benchmark::Equake);
        assert!(crafty > 0.03, "crafty should mispredict: {crafty}");
        assert!(equake < crafty, "equake ({equake}) vs crafty ({crafty})");
    }
}
