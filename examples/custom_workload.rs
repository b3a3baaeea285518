//! Modeling a custom workload: the library is not limited to the eight
//! SPEC surrogates — define your own statistical profile and the whole
//! pipeline (trace synthesis, simulation, surrogate modeling) works
//! unchanged.
//!
//! Run with `cargo run --release --example custom_workload`.

use ppm::model::builder::{BuildConfig, RbfModelBuilder};
use ppm::model::response::{FnResponse, Response};
use ppm::model::space::DesignSpace;
use ppm::sim::{BatchProcessor, SimConfig};
use ppm::workload::{InstrMix, MemRegion, Profile, TraceGenerator};

/// A made-up "in-memory database" workload: load heavy, large flat
/// working set, moderately predictable control.
fn imdb_profile() -> Profile {
    Profile {
        name: "imdb",
        mix: InstrMix {
            load: 0.38,
            store: 0.12,
            int_mul: 0.01,
            fp_alu: 0.0,
            fp_mul: 0.0,
        },
        dep_p: 0.45,
        two_src_frac: 0.35,
        chase_frac: 0.45,
        code_blocks: 1500,
        block_len_mean: 6.0,
        branch_noise: 0.10,
        loop_back_prob: 0.30,
        loop_bias: (0.90, 0.96),
        hot_code_frac: 0.5,
        call_frac: 0.18,
        blocks_per_fn: 12.0,
        regions: vec![
            MemRegion {
                size: 8 * 1024,
                weight: 0.35,
                sequential: 0.85,
            },
            MemRegion {
                size: 64 * 1024,
                weight: 0.40,
                sequential: 0.55,
            },
            MemRegion {
                size: 16 * 1024 * 1024,
                weight: 0.25,
                sequential: 0.25,
            },
        ],
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let profile = imdb_profile();
    println!(
        "custom workload: {} ({} KB code, {:.0}% loads)",
        profile.name,
        profile.code_footprint() / 1024,
        100.0 * profile.mix.load
    );

    // A response over the paper's design space backed by the custom
    // trace.
    let space = DesignSpace::paper_table1();
    let space_for_response = space.clone();
    let response = FnResponse::new(9, move |unit: &[f64]| {
        let config: SimConfig = space_for_response.to_config(unit);
        let trace = TraceGenerator::from_profile(&imdb_profile(), 1).take(80_000);
        // Table 1 configurations are always valid; a NaN would be
        // quarantined by the supervisor rather than trained on.
        BatchProcessor::new(vec![config]).map_or(f64::NAN, |sim| sim.run(trace)[0].cpi())
    })?;

    println!("building a CPI model from 60 simulations...");
    let built = RbfModelBuilder::new(space.clone(), BuildConfig::default().with_sample_size(60))
        .build(&response)?;

    // How sensitive is this workload to its L2, according to the model?
    let mut base = [0.5; 9];
    base[4] = 0.0;
    let small_l2 = built.predict(&base);
    base[4] = 1.0;
    let big_l2 = built.predict(&base);
    println!(
        "model says: CPI {:.3} at 256KB L2 vs {:.3} at 8MB L2 ({:+.1}% from the upgrade)",
        small_l2,
        big_l2,
        100.0 * (big_l2 - small_l2) / small_l2
    );

    // Spot-check with a real simulation at the mid-point.
    let mid = [0.5; 9];
    let sim = response.eval(&mid);
    let pred = built.predict(&mid);
    println!(
        "mid-range check: predicted {pred:.3} vs simulated {sim:.3} ({:.2}% error)",
        100.0 * ((pred - sim) / sim).abs()
    );
    Ok(())
}
