//! One-pass program statistics for the analytical model.

use std::collections::BTreeMap;

use ppm_sim::{BranchPredictor, Cache, Instr, Op, SimConfig};

/// The candidate cache geometries of the paper's design space, in KiB.
const IL1_SIZES: [u32; 4] = [8, 16, 32, 64];
const DL1_SIZES: [u32; 4] = [8, 16, 32, 64];
const L2_SIZES: [u32; 6] = [256, 512, 1024, 2048, 4096, 8192];
/// The dl1 size whose miss stream feeds the L2 family.
const L2_FILTER_KB: u32 = 32;

/// Window sizes at which dataflow ILP is measured; predictions
/// interpolate between them.
const WINDOW_SIZES: [usize; 5] = [16, 32, 64, 128, 256];

/// Program statistics gathered in a single pass over a trace.
///
/// * Dataflow ILP at several window sizes (register dependences only,
///   unit latencies) — the "ideal machine" component.
/// * Miss counts per instruction for every candidate L1I/L1D/L2
///   geometry of the design space (associativities and line size come
///   from the reference [`SimConfig`]).
/// * Branch frequency and misprediction rate under the reference
///   predictor.
/// * The fraction of loads whose value feeds a subsequent load's
///   address chain (limits memory-level parallelism).
#[derive(Debug, Clone)]
pub struct ProgramStats {
    /// Total instructions profiled.
    pub instructions: u64,
    /// Loads per instruction.
    pub load_frac: f64,
    /// Branches per instruction.
    pub branch_frac: f64,
    /// Branch misprediction rate under the reference predictor.
    pub mispredict_rate: f64,
    /// `(window size, dataflow IPC)` pairs, increasing in window size.
    pub ilp_curve: Vec<(usize, f64)>,
    /// il1 size (KiB) → instruction-side line misses per instruction.
    pub il1_mpi: BTreeMap<u32, f64>,
    /// dl1 size (KiB) → load misses per instruction.
    pub dl1_mpi: BTreeMap<u32, f64>,
    /// L2 size (KiB) → load misses per instruction escaping to DRAM
    /// (measured with the matching dl1 filter removed — the L2 sees the
    /// union of L1 misses; we approximate with the 32 KiB L1 filter).
    /// The filter is the 32 KiB member of the dl1 family itself, not a
    /// separate cache: the same geometry fed the same addresses misses
    /// on exactly the same accesses.
    pub l2_mpi: BTreeMap<u32, f64>,
    /// Fraction of loads that are register-chained to an earlier load.
    pub chained_load_frac: f64,
}

impl ProgramStats {
    /// Profiles a trace. The reference config supplies associativities,
    /// the line size and the predictor geometry; all candidate sizes of
    /// the design space are measured simultaneously.
    ///
    /// The trace is drained on a helper thread while this thread
    /// profiles it ([`ppm_exec::pipeline`] at
    /// [`ppm_exec::default_threads`]); the statistics see the same
    /// instructions in the same order either way, so they are
    /// bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn collect(trace: impl Iterator<Item = Instr> + Send, reference: &SimConfig) -> Self {
        Self::collect_on(trace, reference, ppm_exec::default_threads())
    }

    /// [`ProgramStats::collect`] on `threads` threads (inline at 1).
    fn collect_on(
        trace: impl Iterator<Item = Instr> + Send,
        reference: &SimConfig,
        threads: usize,
    ) -> Self {
        let f = &reference.fixed;
        let line = f.line_size;
        let mut il1: Vec<(u32, Cache, u64)> = IL1_SIZES
            .iter()
            .map(|&kb| (kb, Cache::new(kb as u64 * 1024, f.il1_assoc, line), 0u64))
            .collect();
        let mut dl1: Vec<(u32, Cache, u64)> = DL1_SIZES
            .iter()
            .map(|&kb| (kb, Cache::new(kb as u64 * 1024, f.dl1_assoc, line), 0u64))
            .collect();
        let mut l2: Vec<(u32, Cache, u64)> = L2_SIZES
            .iter()
            .map(|&kb| (kb, Cache::new(kb as u64 * 1024, f.l2_assoc, line), 0u64))
            .collect();
        let mut bpred = BranchPredictor::new(f.gshare_entries, f.gshare_history, f.btb_entries);

        // Dataflow scheduling state: completion "time" per recent
        // instruction (ring buffer of the last 256).
        const RING: usize = 256;
        let mut ready_at = [0u64; RING];
        let mut window_depth_acc = vec![(0u64, 0u64); WINDOW_SIZES.len()]; // (chunks, total depth)
        let mut chunk_start_time = vec![0u64; WINDOW_SIZES.len()];
        let mut chunk_max = vec![0u64; WINDOW_SIZES.len()];

        let mut n: u64 = 0;
        let mut loads: u64 = 0;
        let mut branches: u64 = 0;
        let mut chained: u64 = 0;
        let mut last_fetch_line = u64::MAX;
        let mut last_load_ago = u64::MAX;

        ppm_exec::pipeline(trace, threads, |instr| {
            // Instruction side: one probe per new line.
            let iline = instr.pc >> line.trailing_zeros();
            if iline != last_fetch_line {
                last_fetch_line = iline;
                for (_, cache, misses) in il1.iter_mut() {
                    if !cache.access(instr.pc) {
                        *misses += 1;
                    }
                }
            }

            // Data side.
            if instr.op == Op::Load {
                loads += 1;
                if (instr.src1_dist as u64) == last_load_ago.saturating_add(1)
                    || instr.src1_dist as u64 == last_load_ago
                {
                    chained += 1;
                }
                last_load_ago = 0;
            } else {
                last_load_ago = last_load_ago.saturating_add(1);
            }
            if instr.op.is_mem() {
                // The L2 sees the miss stream of the 32 KiB member, the
                // mid-range dl1 filter.
                let mut filter_missed = false;
                for (kb, cache, misses) in dl1.iter_mut() {
                    let hit = cache.access(instr.mem_addr);
                    if !hit && instr.op == Op::Load {
                        *misses += 1;
                    }
                    if *kb == L2_FILTER_KB {
                        filter_missed = !hit;
                    }
                }
                if filter_missed {
                    for (_, cache, misses) in l2.iter_mut() {
                        if !cache.access(instr.mem_addr) && instr.op == Op::Load {
                            *misses += 1;
                        }
                    }
                }
            }

            // Branches.
            if instr.op == Op::Branch {
                branches += 1;
                bpred.predict_kind(instr.kind, instr.pc, instr.taken, instr.target);
            }

            // Dataflow depth: unit-latency scheduling on register deps.
            let idx = (n as usize) % RING;
            let dep_time = |dist: u32| -> u64 {
                if dist == 0 || dist as u64 > n.min(RING as u64 - 1) {
                    0
                } else {
                    ready_at[((n - dist as u64) as usize) % RING]
                }
            };
            let t = dep_time(instr.src1_dist).max(dep_time(instr.src2_dist)) + 1;
            ready_at[idx] = t;
            for (w, &size) in WINDOW_SIZES.iter().enumerate() {
                chunk_max[w] = chunk_max[w].max(t);
                if (n + 1).is_multiple_of(size as u64) {
                    let depth = chunk_max[w] - chunk_start_time[w];
                    window_depth_acc[w].0 += 1;
                    window_depth_acc[w].1 += depth.max(1);
                    chunk_start_time[w] = chunk_max[w];
                }
            }
            n += 1;
        });
        assert!(n > 0, "cannot profile an empty trace");

        let ilp_curve = WINDOW_SIZES
            .iter()
            .zip(&window_depth_acc)
            .map(|(&size, &(chunks, depth))| {
                let ipc = if chunks == 0 {
                    1.0
                } else {
                    size as f64 / (depth as f64 / chunks as f64)
                };
                (size, ipc)
            })
            .collect();

        let per = |count: u64| count as f64 / n as f64;
        ProgramStats {
            instructions: n,
            load_frac: per(loads),
            branch_frac: per(branches),
            mispredict_rate: bpred.misprediction_rate(),
            ilp_curve,
            il1_mpi: il1.into_iter().map(|(kb, _, m)| (kb, per(m))).collect(),
            dl1_mpi: dl1.into_iter().map(|(kb, _, m)| (kb, per(m))).collect(),
            l2_mpi: l2.into_iter().map(|(kb, _, m)| (kb, per(m))).collect(),
            chained_load_frac: if loads == 0 {
                0.0
            } else {
                chained as f64 / loads as f64
            },
        }
    }

    /// Dataflow IPC at an arbitrary window size (log-linear
    /// interpolation on the measured curve, clamped at its ends).
    pub fn ilp_at(&self, window: usize) -> f64 {
        let curve = &self.ilp_curve;
        if window <= curve[0].0 {
            return curve[0].1;
        }
        if window >= curve[curve.len() - 1].0 {
            return curve[curve.len() - 1].1;
        }
        for pair in curve.windows(2) {
            let (w0, i0) = pair[0];
            let (w1, i1) = pair[1];
            if window <= w1 {
                let t = ((window as f64).ln() - (w0 as f64).ln())
                    / ((w1 as f64).ln() - (w0 as f64).ln());
                return i0 + t * (i1 - i0);
            }
        }
        curve[curve.len() - 1].1
    }

    /// Looks up (or nearest-matches) a per-instruction miss rate table.
    pub(crate) fn nearest(table: &BTreeMap<u32, f64>, kb: u32) -> f64 {
        if let Some(&v) = table.get(&kb) {
            return v;
        }
        // Nearest geometry by log distance.
        let mut best = (f64::INFINITY, 0.0);
        for (&k, &v) in table {
            let d = ((k as f64).ln() - (kb as f64).ln()).abs();
            if d < best.0 {
                best = (d, v);
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppm_workload::{Benchmark, TraceGenerator};

    fn stats(bench: Benchmark) -> ProgramStats {
        ProgramStats::collect(
            TraceGenerator::new(bench, 1).take(60_000),
            &SimConfig::default(),
        )
    }

    #[test]
    fn ilp_curve_is_monotone_in_window() {
        let s = stats(Benchmark::Equake);
        for pair in s.ilp_curve.windows(2) {
            assert!(
                pair[1].1 >= pair[0].1 - 1e-9,
                "ILP should not fall with window size: {:?}",
                s.ilp_curve
            );
        }
        assert!(s.ilp_at(48) >= s.ilp_at(16) - 1e-9);
    }

    #[test]
    fn miss_rates_fall_with_cache_size() {
        let s = stats(Benchmark::Vortex);
        for sizes in [&s.dl1_mpi, &s.il1_mpi] {
            let small = sizes[&8];
            let big = sizes[&64];
            assert!(big <= small + 1e-12, "bigger cache missing more: {sizes:?}");
        }
        assert!(s.l2_mpi[&8192] <= s.l2_mpi[&256] + 1e-12);
    }

    #[test]
    fn mcf_is_chained_and_memory_heavy() {
        let mcf = stats(Benchmark::Mcf);
        let equake = stats(Benchmark::Equake);
        assert!(
            mcf.chained_load_frac > 0.5,
            "mcf chase fraction {}",
            mcf.chained_load_frac
        );
        assert!(mcf.chained_load_frac > equake.chained_load_frac);
        assert!(mcf.l2_mpi[&1024] > equake.l2_mpi[&1024] * 0.5);
    }

    #[test]
    fn fractions_are_sane() {
        let s = stats(Benchmark::Parser);
        assert!(s.load_frac > 0.1 && s.load_frac < 0.5);
        assert!(s.branch_frac > 0.08 && s.branch_frac < 0.35);
        assert!(s.mispredict_rate > 0.0 && s.mispredict_rate < 0.5);
    }

    /// FNV-1a over the `Debug` form, which spells every float in its
    /// shortest round-trip form, so the digest moves with any bit.
    fn digest(stats: &ProgramStats) -> u64 {
        ppm_telemetry::fnv1a64(format!("{stats:?}").as_bytes())
    }

    #[test]
    fn stats_are_pinned_bit_for_bit() {
        // Digests of the statistics as first collected with a separate
        // 32 KiB L2 filter cache: taking the filter's miss from the dl1
        // family's 32 KiB member must not move a bit.
        assert_eq!(
            (
                digest(&stats(Benchmark::Mcf)),
                digest(&stats(Benchmark::Crafty))
            ),
            (1_491_418_886_194_412_021, 10_949_529_039_279_673_282)
        );
    }

    /// Every statistic as `(field, f64 bits)`, in declaration order.
    fn field_bits(s: &ProgramStats) -> Vec<(String, u64)> {
        let mut out = vec![
            ("instructions".to_string(), s.instructions),
            ("load_frac".to_string(), s.load_frac.to_bits()),
            ("branch_frac".to_string(), s.branch_frac.to_bits()),
            ("mispredict_rate".to_string(), s.mispredict_rate.to_bits()),
        ];
        out.extend(
            s.ilp_curve
                .iter()
                .map(|(w, v)| (format!("ilp_curve[{w}]"), v.to_bits())),
        );
        for (name, table) in [
            ("il1_mpi", &s.il1_mpi),
            ("dl1_mpi", &s.dl1_mpi),
            ("l2_mpi", &s.l2_mpi),
        ] {
            out.extend(
                table
                    .iter()
                    .map(|(kb, v)| (format!("{name}[{kb}]"), v.to_bits())),
            );
        }
        out.push((
            "chained_load_frac".to_string(),
            s.chained_load_frac.to_bits(),
        ));
        out
    }

    /// The bits of every field for seed 1 and 20k instructions, as the
    /// serial profile pass produced them before it was pipelined.
    const GOLDEN: [(Benchmark, [u64; 24]); 2] = [
        (
            Benchmark::Mcf,
            [
                20_000,
                0x3fd1013a92a30553,
                0x3fc629c779a6b50b,
                0x3fb6d7b6135e40e8,
                0x402d278e8dcebd94,
                0x403a747c9d1f2748,
                0x4046492492492492,
                0x4050ec0a69df0613,
                0x4056cb65b2d96cb7,
                0x3f619ce075f6fd22,
                0x3f619ce075f6fd22,
                0x3f619ce075f6fd22,
                0x3f619ce075f6fd22,
                0x3fbe7d566cf41f21,
                0x3fbccccccccccccd,
                0x3fb9c0ebedfa43fe,
                0x3fb73b645a1cac08,
                0x3fb3a5e353f7ced9,
                0x3fb3a5e353f7ced9,
                0x3fb3a5e353f7ced9,
                0x3fb3a5e353f7ced9,
                0x3fb3a5e353f7ced9,
                0x3fb3a5e353f7ced9,
                0x3fef5c977607213e,
            ],
        ),
        (
            Benchmark::Crafty,
            [
                20_000,
                0x3fcc189374bc6a7f,
                0x3fc758e219652bd4,
                0x3fc1047dc11f7048,
                0x40277963c18099d7,
                0x4031e39b3fa81252,
                0x40383ba68636adfb,
                0x403d738a31d738a4,
                0x404079a9d260511c,
                0x3f9d3c36113404ea,
                0x3f92b020c49ba5e3,
                0x3f8c91d14e3bcd36,
                0x3f8a027525460aa6,
                0x3fa710cb295e9e1b,
                0x3fa318fc504816f0,
                0x3f9eab367a0f9097,
                0x3f9afb7e90ff9724,
                0x3f9a0f9096bb98c8,
                0x3f9a0f9096bb98c8,
                0x3f9a0f9096bb98c8,
                0x3f9a0f9096bb98c8,
                0x3f9a0f9096bb98c8,
                0x3f9a0f9096bb98c8,
                0x3fd64a68bb89f8c5,
            ],
        ),
    ];

    #[test]
    fn every_field_keeps_its_bits_inline_and_pipelined() {
        for (bench, pinned) in GOLDEN {
            for threads in [1, 2] {
                let stats = ProgramStats::collect_on(
                    TraceGenerator::new(bench, 1).take(20_000),
                    &SimConfig::default(),
                    threads,
                );
                let fields = field_bits(&stats);
                assert_eq!(fields.len(), pinned.len());
                for ((field, bits), want) in fields.into_iter().zip(pinned) {
                    assert_eq!(
                        bits, want,
                        "{bench} {field} at {threads} thread(s): {bits:#018x}, pinned {want:#018x}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_lookup_handles_missing_geometry() {
        let mut table = BTreeMap::new();
        table.insert(8u32, 0.1);
        table.insert(64u32, 0.01);
        assert_eq!(ProgramStats::nearest(&table, 8), 0.1);
        assert_eq!(ProgramStats::nearest(&table, 16), 0.1); // closer to 8
        assert_eq!(ProgramStats::nearest(&table, 48), 0.01);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_panics() {
        ProgramStats::collect(std::iter::empty(), &SimConfig::default());
    }
}
