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
    println!("\nsensitivities (cpi at low/high of each integer Table 1 knob):");
    let knobs: Vec<&Knob> = KNOBS.iter().filter(|k| k.snap != Snap::None).collect();
    let at = |knob: &Knob, end: f64| {
        let mut config = SimConfig::default();
        (knob.set)(&mut config, end);
        config
    };
    print!("{:<12}", "bench");
    for knob in &knobs {
        print!(" {:>14}", knob.flag);
    }
    println!();
    for b in Benchmark::all() {
        print!("{:<12}", b.to_string());
        for knob in &knobs {
            let lo = run(b, at(knob, knob.range.0), n).cpi();
            let hi = run(b, at(knob, knob.range.1), n).cpi();
            print!(" {:>6.2}/{:<7.2}", lo, hi);
        }
        println!();
    }
}
