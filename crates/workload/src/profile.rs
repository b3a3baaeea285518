//! Statistical workload descriptions.

/// Fractions of instruction classes in the dynamic stream. Whatever is
/// left after the listed classes is single-cycle integer ALU work.
///
/// The branch fraction is expressed indirectly: every synthetic basic
/// block ends in one branch, so `1 / mean_block_len` is the branch
/// fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// Fraction of loads (of non-branch instructions).
    pub load: f64,
    /// Fraction of stores.
    pub store: f64,
    /// Fraction of integer multiplies.
    pub int_mul: f64,
    /// Fraction of FP adds.
    pub fp_alu: f64,
    /// Fraction of FP multiplies.
    pub fp_mul: f64,
}

impl InstrMix {
    /// Validates that the fractions are sane.
    ///
    /// # Panics
    ///
    /// Panics if any fraction is negative or the sum exceeds 1.
    pub fn validate(&self) {
        let parts = [
            self.load,
            self.store,
            self.int_mul,
            self.fp_alu,
            self.fp_mul,
        ];
        assert!(
            parts.iter().all(|&f| (0.0..=1.0).contains(&f)),
            "mix fractions must be in [0, 1]"
        );
        assert!(
            parts.iter().sum::<f64>() <= 1.0 + 1e-9,
            "mix fractions exceed 1"
        );
    }
}

/// Address span of each data region: the generator places region `i`
/// at `(i + 1) · REGION_SPAN`, so regions no larger than the span never
/// alias one another.
pub(crate) const REGION_SPAN: u64 = 1 << 28;

/// Most data regions a profile may have. Region bases end at
/// `MAX_REGIONS · REGION_SPAN`, so every generated data address stays
/// below `(MAX_REGIONS + 1) · REGION_SPAN` = 2^33, far inside the
/// address bound of every cache shape the simulator accepts with
/// 64-byte or larger lines (`ppm_sim::Cache::addr_limit`, at least
/// about 2^38).
pub(crate) const MAX_REGIONS: usize = 31;

/// One data working-set region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemRegion {
    /// Region size in bytes.
    pub size: u64,
    /// Probability that a memory access targets this region.
    pub weight: f64,
    /// Probability an access continues the region's sequential stream
    /// (the complement is a uniform random access within the region).
    pub sequential: f64,
}

/// A complete statistical description of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Benchmark name (e.g. `"181.mcf"`).
    pub name: &'static str,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Geometric parameter of the register dependency-distance
    /// distribution; smaller means longer distances (more ILP).
    pub dep_p: f64,
    /// Fraction of instructions with a second register source.
    pub two_src_frac: f64,
    /// Fraction of loads whose address depends on the previous load
    /// (pointer chasing); serializes misses and caps memory-level
    /// parallelism, as in `mcf`.
    pub chase_frac: f64,
    /// Number of static basic blocks in the synthetic CFG.
    pub code_blocks: usize,
    /// Mean basic-block length in instructions (1/branch-fraction).
    pub block_len_mean: f64,
    /// Fraction of branches that are effectively random (bias 0.5);
    /// the rest are strongly biased and predictable.
    pub branch_noise: f64,
    /// Probability a block's taken edge is a short backward (loop) edge.
    pub loop_back_prob: f64,
    /// Range of per-visit continue probabilities for loop branches;
    /// the mean iteration count is `1 / (1 - bias)`.
    pub loop_bias: (f64, f64),
    /// Fraction of calls that target the "hot" fifth of the functions;
    /// concentrates execution like real programs.
    pub hot_code_frac: f64,
    /// Fraction of non-loop block terminators that are function calls.
    pub call_frac: f64,
    /// Mean function size in basic blocks.
    pub blocks_per_fn: f64,
    /// Data working-set regions (weights are normalized internally).
    pub regions: Vec<MemRegion>,
}

impl Profile {
    /// Validates the profile.
    ///
    /// # Panics
    ///
    /// Panics if any component is out of range, including a data region
    /// larger than its 256 MiB address span or more than 31 regions.
    pub fn validate(&self) {
        self.mix.validate();
        assert!(self.dep_p > 0.0 && self.dep_p <= 1.0, "dep_p out of range");
        assert!((0.0..=1.0).contains(&self.two_src_frac));
        assert!(
            (0.0..=1.0).contains(&self.chase_frac),
            "chase_frac out of range"
        );
        assert!(self.code_blocks >= 4, "need at least 4 blocks");
        assert!(
            self.block_len_mean >= 2.0,
            "blocks must average >= 2 instructions"
        );
        assert!((0.0..=1.0).contains(&self.branch_noise));
        assert!((0.0..=1.0).contains(&self.loop_back_prob));
        assert!(
            self.loop_bias.0 > 0.5
                && self.loop_bias.1 < 1.0
                && self.loop_bias.0 <= self.loop_bias.1,
            "loop_bias must be an increasing range within (0.5, 1)"
        );
        assert!((0.0..=1.0).contains(&self.hot_code_frac));
        assert!(
            (0.0..=0.5).contains(&self.call_frac),
            "call_frac out of range"
        );
        assert!(
            self.blocks_per_fn >= 3.0,
            "functions need >= 3 blocks on average"
        );
        assert!(!self.regions.is_empty(), "need at least one data region");
        assert!(
            self.regions.len() <= MAX_REGIONS,
            "{} data regions: at most {MAX_REGIONS} keep addresses below 2^33",
            self.regions.len()
        );
        for r in &self.regions {
            assert!(r.size >= 64, "region smaller than a cache line");
            assert!(
                r.size <= REGION_SPAN,
                "region of {} bytes exceeds its 256 MiB span and would overlap the next region",
                r.size
            );
            assert!(r.weight > 0.0, "region weight must be positive");
            assert!((0.0..=1.0).contains(&r.sequential));
        }
    }

    /// Approximate static code footprint in bytes (4-byte instructions).
    pub fn code_footprint(&self) -> u64 {
        (self.code_blocks as f64 * self.block_len_mean * 4.0) as u64
    }

    /// Approximate dynamic branch fraction.
    pub fn branch_fraction(&self) -> f64 {
        1.0 / self.block_len_mean
    }

    /// Derives the *reference-input* variant of this profile.
    ///
    /// The paper's §3 notes that parameter significance is input
    /// dependent: "the memory subsystem parameters would have a higher
    /// influence on performance if the SPEC reference inputs were
    /// used" (the study itself uses MinneSPEC `lgred`). Reference
    /// inputs mean much larger data sets: every heap region of 256 KiB
    /// or more grows 8x and receives proportionally more accesses,
    /// while stack and hot structures are unchanged.
    pub fn reference_variant(&self) -> Profile {
        let mut p = self.clone();
        p.regions = p
            .regions
            .iter()
            .map(|r| {
                if r.size >= 256 * 1024 {
                    MemRegion {
                        size: r.size * 8,
                        weight: r.weight * 1.8,
                        sequential: r.sequential,
                    }
                } else {
                    *r
                }
            })
            .collect();
        p
    }
}

/// Which data-set scale a benchmark runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputSet {
    /// MinneSPEC `lgred` reduced inputs — what the paper simulates.
    #[default]
    MinneLgred,
    /// Full SPEC reference inputs (approximated: 8x larger heap
    /// regions carrying more of the access stream).
    Reference,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    #[test]
    fn all_benchmark_profiles_validate() {
        for b in Benchmark::all() {
            b.profile().validate();
        }
    }

    #[test]
    fn code_footprints_span_the_il1_range() {
        // At least one benchmark fits in 8 KiB and at least one
        // pressures a 64 KiB I-cache, so il1_size matters for some
        // programs and not others (paper Table 5).
        let feet: Vec<u64> = Benchmark::all()
            .iter()
            .map(|b| b.profile().code_footprint())
            .collect();
        assert!(feet.iter().any(|&f| f <= 10 * 1024), "{feet:?}");
        assert!(feet.iter().any(|&f| f >= 40 * 1024), "{feet:?}");
    }

    #[test]
    fn mcf_is_the_most_memory_hungry() {
        let total = |b: Benchmark| -> u64 { b.profile().regions.iter().map(|r| r.size).sum() };
        let mcf = total(Benchmark::Mcf);
        for b in Benchmark::all() {
            if b != Benchmark::Mcf {
                assert!(mcf >= total(b), "{b:?} outweighs mcf");
            }
        }
    }

    fn with_regions(regions: Vec<MemRegion>) -> Profile {
        Profile {
            regions,
            ..Benchmark::Mcf.profile()
        }
    }

    fn region(size: u64) -> MemRegion {
        MemRegion {
            size,
            weight: 1.0,
            sequential: 0.5,
        }
    }

    #[test]
    fn regions_up_to_the_span_and_count_limits_validate() {
        with_regions(vec![region(REGION_SPAN); MAX_REGIONS]).validate();
        for b in Benchmark::all() {
            b.profile_with(InputSet::Reference).validate();
        }
    }

    #[test]
    #[should_panic(expected = "would overlap the next region")]
    fn region_larger_than_its_span_panics() {
        with_regions(vec![region(4096), region(REGION_SPAN + 8), region(4096)]).validate();
    }

    #[test]
    #[should_panic(expected = "32 data regions: at most 31 keep addresses below 2^33")]
    fn too_many_regions_panic() {
        with_regions(vec![region(4096); MAX_REGIONS + 1]).validate();
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn overfull_mix_panics() {
        InstrMix {
            load: 0.8,
            store: 0.8,
            int_mul: 0.0,
            fp_alu: 0.0,
            fp_mul: 0.0,
        }
        .validate();
    }

    #[test]
    fn reference_variant_grows_heap_regions_only() {
        let lg = Benchmark::Twolf.profile();
        let rf = lg.reference_variant();
        for (a, b) in lg.regions.iter().zip(&rf.regions) {
            if a.size >= 256 * 1024 {
                assert_eq!(b.size, a.size * 8);
                assert!(b.weight > a.weight);
            } else {
                assert_eq!(a, b);
            }
        }
        rf.validate();
    }

    #[test]
    fn profile_with_dispatches_on_input_set() {
        use crate::InputSet;
        let a = Benchmark::Mcf.profile_with(InputSet::MinneLgred);
        let b = Benchmark::Mcf.profile_with(InputSet::Reference);
        assert_eq!(a, Benchmark::Mcf.profile());
        assert!(b.regions.iter().map(|r| r.size).max() > a.regions.iter().map(|r| r.size).max());
    }

    #[test]
    fn branch_fraction_is_reciprocal_block_length() {
        let p = Benchmark::Equake.profile();
        assert!((p.branch_fraction() - 1.0 / p.block_len_mean).abs() < 1e-12);
    }
}
