//! Simulator validation against closed-form expectations.
//!
//! The paper validates its simulator by checking component behaviour
//! and comparing trends with a second simulator (§3). We do not have
//! `alphasim`, but we can do something stronger for a synthetic
//! substrate: drive the production engine (a 1-lane `BatchProcessor`)
//! with microbenchmarks whose steady-state CPI has a *closed form*, and
//! assert the model lands on it.

use ppm::sim::{BatchProcessor, Instr, Op, SimConfig, SimStats};

fn loop_pc(i: u64) -> u64 {
    0x1000 + (i % 512) * 4
}

/// Runs one configuration on the production engine: a 1-lane batch.
fn simulate(config: SimConfig, trace: impl Iterator<Item = Instr>) -> SimStats {
    BatchProcessor::new(vec![config])
        .unwrap()
        .run(trace)
        .remove(0)
}

fn cpi(config: SimConfig, trace: impl Iterator<Item = Instr>) -> f64 {
    simulate(config, trace).cpi()
}

/// Dependence chain of 1-cycle ops: exactly 1 instruction per cycle.
#[test]
fn serial_alu_chain_is_unit_cpi() {
    let got = cpi(
        SimConfig::default(),
        (0..400_000).map(|i| Instr::alu(Op::IntAlu, loop_pc(i), 1, 0)),
    );
    // ~1% slack for the cold-start I-misses on the loop's 32 lines.
    assert!((got - 1.0).abs() < 0.03, "expected 1.0, got {got}");
}

/// Independent ops saturate the width-4 machine: CPI = 1/4.
#[test]
fn independent_alu_saturates_width() {
    let got = cpi(
        SimConfig::default(),
        (0..200_000).map(|i| Instr::alu(Op::IntAlu, loop_pc(i), 0, 0)),
    );
    assert!((got - 0.25).abs() < 0.03, "expected 0.25, got {got}");
}

/// A chain of FP multiplies runs at the FP-multiply latency (4 cycles).
#[test]
fn fp_multiply_chain_runs_at_its_latency() {
    let got = cpi(
        SimConfig::default(),
        (0..50_000).map(|i| Instr::alu(Op::FpMul, loop_pc(i), 1, 0)),
    );
    assert!((got - 4.0).abs() < 0.15, "expected 4.0, got {got}");
}

/// A load-to-load chain hitting in the L1 runs at dl1_lat per load.
#[test]
fn l1_load_chain_runs_at_dl1_latency() {
    for lat in [1u32, 2, 4] {
        let config = SimConfig::builder().dl1_lat(lat).build().unwrap();
        let got = cpi(
            config,
            (0..60_000).map(|i| Instr::load(loop_pc(i), 0x8000 + (i % 64) * 8, 1, 0)),
        );
        let expected = lat as f64;
        assert!(
            (got - expected).abs() < 0.25,
            "dl1_lat={lat}: expected ~{expected}, got {got}"
        );
    }
}

/// A load→ALU→load recurrence: each pair costs dl1_lat + 1 cycles.
#[test]
fn load_use_pairs_cost_latency_plus_one() {
    let config = SimConfig::builder().dl1_lat(2).build().unwrap();
    // load_i depends on alu_{i-1}, which depends on load_{i-1}:
    // the critical path is (dl1_lat + 1) per two instructions.
    let trace = (0..100_000u64).flat_map(|i| {
        [
            Instr::load(loop_pc(2 * i), 0x8000 + (i % 64) * 8, 1, 0),
            Instr::alu(Op::IntAlu, loop_pc(2 * i + 1), 1, 0),
        ]
    });
    let got = cpi(config, trace);
    assert!((got - 1.5).abs() < 0.1, "expected 1.5, got {got}");
}

/// Random branches: CPI ≈ serial work + rate x (front_depth + resolve).
#[test]
fn mispredict_penalty_matches_depth_arithmetic() {
    let mk = |depth: u32| {
        let mut rng = ppm::rng::Rng::seed_from_u64(1);
        let outcomes: Vec<bool> = (0..60_000).map(|_| rng.chance(0.5)).collect();
        let config = SimConfig::builder().pipe_depth(depth).build().unwrap();
        let trace = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, taken)| Instr::branch(loop_pc(i as u64), taken, loop_pc(i as u64 + 7), 0));
        cpi(config, trace)
    };
    let shallow = mk(7); // front depth 3
    let deep = mk(24); // front depth 20
                       // Each mispredict costs (front_depth + c) extra cycles; the rate is
                       // ~0.5, so the CPI difference is ~0.5 x 17 / 1 instruction.
    let diff = deep - shallow;
    assert!(
        (6.5..11.0).contains(&diff),
        "depth 7→24 CPI delta {diff} (shallow {shallow}, deep {deep})"
    );
}

/// Perfectly biased branches cost nothing extra once learned.
#[test]
fn predictable_branches_are_free() {
    let trace = (0..100_000u64).map(|i| {
        // Always-taken branch to the next line: learned immediately.
        Instr::branch(loop_pc(i), true, loop_pc(i + 1), 0)
    });
    let got = cpi(SimConfig::default(), trace);
    assert!(got < 1.4, "predictable branches should be cheap, got {got}");
}

/// Streaming independent loads overlap their misses: throughput is set
/// by the window's memory-level parallelism (latency / lines-in-window)
/// and is bounded below by the bus occupancy — far faster than a
/// dependent chain, far slower than L1 hits.
#[test]
fn streaming_loads_overlap_their_misses() {
    let config = SimConfig::default();
    let line_lat =
        (config.dl1_lat + config.l2_lat + config.fixed.mem_lat + config.fixed.bus_per_line) as f64;
    let lines_in_window = config.rob_size as f64 / 8.0; // 8 loads per line
    let latency_bound = line_lat / lines_in_window; // CPI if window-limited
    let bus_bound = config.fixed.bus_per_line as f64 / 8.0;
    let trace = (0..200_000u64).map(|i| Instr::load(loop_pc(i), i * 8, 0, 0));
    let got = cpi(config, trace);
    assert!(
        got >= bus_bound,
        "faster than the memory bus allows: {got} < {bus_bound}"
    );
    assert!(
        got < 4.0 * latency_bound,
        "overlap missing: {got} vs window bound ~{latency_bound:.2}"
    );
    // And the MLP advantage over a fully serialized chain is large.
    assert!(
        got * 10.0 < line_lat,
        "no MLP: {got} per load vs {line_lat} serial"
    );
}

/// Full DRAM round trip for a dependent chain of missing loads:
/// dl1 + l2 + mem + bus cycles each.
#[test]
fn chained_misses_pay_the_full_memory_latency() {
    let config = SimConfig::default();
    let full =
        (config.dl1_lat + config.l2_lat + config.fixed.mem_lat + config.fixed.bus_per_line) as f64;
    // Each load depends on the previous and touches a fresh line.
    let trace = (0..3_000u64).map(|i| Instr::load(loop_pc(i), i * 64, 1, 0));
    let got = cpi(config, trace);
    assert!(
        (got - full).abs() < full * 0.15,
        "expected ~{full}, got {got}"
    );
}

/// The return-address stack predicts call/return perfectly.
#[test]
fn call_return_pairs_are_predicted() {
    let trace = (0..40_000u64).flat_map(|i| {
        let call_pc = loop_pc(4 * i);
        let fn_pc = 0x9000 + (i % 16) * 64;
        [
            Instr::call(call_pc, fn_pc),
            Instr::alu(Op::IntAlu, fn_pc, 0, 0),
            Instr::ret(fn_pc + 4, call_pc + 4),
            Instr::alu(Op::IntAlu, call_pc + 4, 0, 0),
        ]
    });
    let stats = simulate(SimConfig::default(), trace);
    assert!(
        stats.mispredict_rate() < 0.01,
        "RAS should nail call/return: rate {}",
        stats.mispredict_rate()
    );
}

/// CPI is monotone in each cache latency parameter on a memory-touching
/// workload.
#[test]
fn latency_parameters_are_monotone() {
    let mk_trace = || {
        (0..60_000u64).map(|i| {
            if i % 3 == 0 {
                Instr::load(loop_pc(i), (i * 2654435761) % (1 << 21), 1, 0)
            } else {
                Instr::alu(Op::IntAlu, loop_pc(i), 1, 0)
            }
        })
    };
    let mut last = 0.0;
    for lat in [5u32, 10, 15, 20] {
        let config = SimConfig::builder().l2_lat(lat).build().unwrap();
        let got = cpi(config, mk_trace());
        assert!(got >= last, "CPI fell when L2 latency rose: {got} < {last}");
        last = got;
    }
}
