//! An independent oracle for the trace generator.
//!
//! `OracleGenerator` is the generator's draw code as it was when every
//! draw recomputed its distribution's constants: `ln(1 - p)` twice per
//! dependence distance, and a validate-and-sum pass over the weights
//! per op-class and region pick. It is kept verbatim (only renamed, and
//! with its own copies of the old `Geometric` and `weighted_index`), so
//! it shares no sampling code with `TraceGenerator`. The tests below
//! compare the two streams instruction by instruction. Equal streams
//! mean equal traces, and hence equal CPIs and model files.
//!
//! The default cases are sized for debug builds; the ignored case runs
//! over 100M instructions in release:
//!
//! ```text
//! cargo test --release -p ppm-workload --test trace_oracle -- --ignored
//! ```

use ppm_rng::{derive_seed, Rng};
use ppm_sim::{Instr, Op};
use ppm_workload::{Benchmark, MemRegion, Profile, TraceGenerator};

/// The geometric distribution as it was: both logarithms per draw.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Geometric {
    p: f64,
}

impl Geometric {
    fn new(p: f64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "geometric p must be in (0, 1], got {p}"
        );
        Geometric { p }
    }

    fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse CDF: ceil(ln(u) / ln(1 - p)) for u in (0, 1).
        let u = 1.0 - rng.unit_f64(); // in (0, 1]
        let x = (u.ln() / (1.0 - self.p).ln()).ceil();
        // Clamp pathological float results into the support.
        if x < 1.0 {
            1
        } else if x > u64::MAX as f64 {
            u64::MAX
        } else {
            x as u64
        }
    }
}

/// `Rng::weighted_index` as it was: validate, sum and walk per call.
fn weighted_index(rng: &mut Rng, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "no weights given");
    let total: f64 = weights
        .iter()
        .map(|&w| {
            assert!(w.is_finite() && w >= 0.0, "weight {w} is invalid");
            w
        })
        .sum();
    assert!(total > 0.0, "weights sum to zero");
    let mut x = rng.unit_f64() * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

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
    weight: f64,
    sequential: f64,
    ptr: u64,
}

/// The trace generator as it was before its distributions computed
/// their constants once: every draw goes through [`Geometric`] and
/// [`weighted_index`] below.
#[derive(Debug, Clone)]
struct OracleGenerator {
    blocks: Vec<Block>,
    regions: Vec<RegionStream>,
    region_weights: Vec<f64>,
    op_weights: [f64; 6],
    dep_dist: Geometric,
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

impl OracleGenerator {
    /// Builds the generator from an explicit profile (useful for custom
    /// workloads and for tests).
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`Profile::validate`].
    fn from_profile(profile: &Profile, seed: u64) -> Self {
        profile.validate();
        let mut structure = Rng::seed_from_u64(derive_seed(seed, 0));
        let walk = Rng::seed_from_u64(derive_seed(seed, 1));

        let blocks = build_cfg(profile, &mut structure);
        let regions: Vec<RegionStream> = profile
            .regions
            .iter()
            .enumerate()
            .map(|(i, r)| RegionStream {
                // Regions live in widely separated address ranges so they
                // never alias in caches by accident.
                base: (i as u64 + 1) << 28,
                size: r.size,
                weight: r.weight,
                sequential: r.sequential,
                ptr: 0,
            })
            .collect();
        let region_weights = regions.iter().map(|r| r.weight).collect();
        let m = &profile.mix;
        let op_weights = [
            m.load,
            m.store,
            m.int_mul,
            m.fp_alu,
            m.fp_mul,
            (1.0 - m.load - m.store - m.int_mul - m.fp_alu - m.fp_mul).max(0.0),
        ];

        OracleGenerator {
            blocks,
            regions,
            region_weights,
            op_weights,
            dep_dist: Geometric::new(profile.dep_p),
            two_src_frac: profile.two_src_frac,
            walk,
            current_block: 0,
            body_index: 0,
            call_stack: Vec::new(),
            chase_frac: profile.chase_frac,
            since_last_load: u32::MAX,
        }
    }

    fn dep(&mut self) -> u32 {
        self.dep_dist.sample(&mut self.walk).min(MAX_DEP_DIST) as u32
    }

    fn mem_address(&mut self) -> u64 {
        let idx = weighted_index(&mut self.walk, &self.region_weights);
        let r = &mut self.regions[idx];
        if self.walk.chance(r.sequential) {
            let addr = r.base + r.ptr;
            r.ptr = (r.ptr + 8) % r.size;
            addr
        } else {
            r.base + self.walk.below(r.size / 8) * 8
        }
    }
}

impl Iterator for OracleGenerator {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let block = &self.blocks[self.current_block];
        let pc = block.pc + 4 * self.body_index as u64;
        if self.body_index < block.body_len {
            // Body instruction: class drawn from the mix per visit.
            let op = OP_CLASSES[weighted_index(&mut self.walk, &self.op_weights)];
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

/// Asserts that the generator and the oracle emit the same `n`
/// instructions for `profile` and `seed`.
fn assert_same_stream(profile: &Profile, seed: u64, n: usize) {
    let fast = TraceGenerator::from_profile(profile, seed);
    let oracle = OracleGenerator::from_profile(profile, seed);
    for (i, (a, b)) in fast.zip(oracle).take(n).enumerate() {
        assert_eq!(
            a, b,
            "{} seed {seed}: instruction {i} differs",
            profile.name
        );
    }
}

/// Benchmark profiles with the dependence parameter moved to both ends
/// of its range and onto the `p = 1` path, and one whose sequential
/// streams wrap at region sizes that are not multiples of 8.
fn custom_profiles() -> Vec<Profile> {
    let mut profiles: Vec<Profile> = [
        (Benchmark::Mcf, 0.01),
        (Benchmark::Crafty, 0.99),
        (Benchmark::Equake, 1.0),
    ]
    .into_iter()
    .map(|(bench, dep_p)| Profile {
        dep_p,
        ..bench.profile()
    })
    .collect();
    profiles.push(Profile {
        regions: vec![
            MemRegion {
                size: 100,
                weight: 1.0,
                sequential: 0.9,
            },
            MemRegion {
                size: 4_100,
                weight: 2.0,
                sequential: 0.95,
            },
        ],
        ..Benchmark::Twolf.profile()
    });
    profiles
}

const SEEDS: [u64; 3] = [1, 2, 42];

#[test]
fn generator_matches_the_oracle_on_every_benchmark() {
    for bench in Benchmark::all() {
        for seed in SEEDS {
            assert_same_stream(&bench.profile(), seed, 20_000);
        }
    }
}

#[test]
fn generator_matches_the_oracle_on_custom_profiles() {
    for profile in custom_profiles() {
        for seed in SEEDS {
            assert_same_stream(&profile, seed, 20_000);
        }
    }
}

/// 8 benchmarks x 3 seeds x 4M plus 4 custom profiles x 3 seeds x 1M:
/// 108M instructions.
#[test]
#[ignore = "release-scale differential; run with --release -- --ignored"]
fn generator_matches_the_oracle_at_scale() {
    for bench in Benchmark::all() {
        for seed in SEEDS {
            assert_same_stream(&bench.profile(), seed, 4_000_000);
        }
    }
    for profile in custom_profiles() {
        for seed in SEEDS {
            assert_same_stream(&profile, seed, 1_000_000);
        }
    }
}
