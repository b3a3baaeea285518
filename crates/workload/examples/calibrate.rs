//! Calibration sweep: per-benchmark CPI and component rates at the
//! default configuration, plus parameter sensitivities.
use ppm_sim::*;
use ppm_workload::*;

fn run(b: Benchmark, c: SimConfig, n: usize) -> SimStats {
    BatchProcessor::new(vec![c])
        .expect("valid configuration")
        .run(TraceGenerator::new(b, 1).take(n))
        .remove(0)
}

fn main() {
    let n = 200_000;
    println!(
        "{:<12} {:>6} {:>7} {:>7} {:>7} {:>7}",
        "bench", "cpi", "dl1mr", "l2mr", "il1mr", "mispr"
    );
    for b in Benchmark::all() {
        let s = run(b, SimConfig::default(), n);
        println!(
            "{:<12} {:>6.3} {:>7.4} {:>7.4} {:>7.4} {:>7.4}",
            b.to_string(),
            s.cpi(),
            s.dl1.miss_rate(),
            s.l2.miss_rate(),
            s.il1.miss_rate(),
            s.mispredict_rate()
        );
    }
    println!("\nsensitivities (cpi at low/high of each param):");
    type ConfigAt = Box<dyn Fn(bool) -> SimConfig>;
    let params: Vec<(&str, ConfigAt)> = vec![
        (
            "pipe_depth",
            Box::new(|hi| {
                SimConfig::builder()
                    .pipe_depth(if hi { 7 } else { 24 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "rob",
            Box::new(|hi| {
                SimConfig::builder()
                    .rob_size(if hi { 128 } else { 24 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "l2_size",
            Box::new(|hi| {
                SimConfig::builder()
                    .l2_size_kb(if hi { 8192 } else { 256 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "l2_lat",
            Box::new(|hi| {
                SimConfig::builder()
                    .l2_lat(if hi { 5 } else { 20 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "il1",
            Box::new(|hi| {
                SimConfig::builder()
                    .il1_size_kb(if hi { 64 } else { 8 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "dl1",
            Box::new(|hi| {
                SimConfig::builder()
                    .dl1_size_kb(if hi { 64 } else { 8 })
                    .build()
                    .unwrap()
            }),
        ),
        (
            "dl1_lat",
            Box::new(|hi| {
                SimConfig::builder()
                    .dl1_lat(if hi { 1 } else { 4 })
                    .build()
                    .unwrap()
            }),
        ),
    ];
    print!("{:<12}", "bench");
    for (name, _) in &params {
        print!(" {:>14}", name);
    }
    println!();
    for b in Benchmark::all() {
        print!("{:<12}", b.to_string());
        for (_, mk) in &params {
            let lo = run(b, mk(false), n).cpi();
            let hi = run(b, mk(true), n).cpi();
            print!(" {:>6.2}/{:<7.2}", lo, hi);
        }
        println!();
    }
}
