//! Criterion micro-benchmarks of the substrates: simulator throughput,
//! sampling, discrepancy computation, tree construction and RBF
//! fitting. These quantify where the model-building time goes.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ppm_core::space::DesignSpace;
use ppm_rbf::{select_centers, SelectionConfig};
use ppm_regtree::{Dataset, RegressionTree};
use ppm_rng::Rng;
use ppm_sampling::discrepancy::{centered_l2, l2_star};
use ppm_sampling::lhs::LatinHypercube;
use ppm_sim::{BatchProcessor, SimConfig};
use ppm_workload::{Benchmark, TraceGenerator};

fn sim_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    for bench in [Benchmark::Crafty, Benchmark::Mcf] {
        group.bench_function(format!("run_30k_{bench}"), |b| {
            b.iter(|| {
                let trace = TraceGenerator::new(bench, 1).take(30_000);
                BatchProcessor::new(vec![SimConfig::default()]).unwrap().run(trace)[0].cpi()
            })
        });
    }
    group.bench_function("trace_gen_100k_vortex", |b| {
        b.iter(|| TraceGenerator::new(Benchmark::Vortex, 1).take(100_000).count())
    });
    group.finish();
}

fn sampling(c: &mut Criterion) {
    let space = DesignSpace::paper_table1();
    let mut group = c.benchmark_group("sampling");
    group.sample_size(20);
    group.bench_function("lhs_generate_90", |b| {
        let mut rng = Rng::seed_from_u64(1);
        let lhs = LatinHypercube::new(space.params(), 90);
        b.iter(|| lhs.generate(&mut rng))
    });
    let mut rng = Rng::seed_from_u64(2);
    let design = LatinHypercube::new(space.params(), 200).generate(&mut rng);
    group.bench_function("l2_star_200x9", |b| b.iter(|| l2_star(&design)));
    group.bench_function("centered_l2_200x9", |b| b.iter(|| centered_l2(&design)));
    group.finish();
}

fn modeling(c: &mut Criterion) {
    let mut rng = Rng::seed_from_u64(3);
    let points: Vec<Vec<f64>> = (0..200)
        .map(|_| (0..9).map(|_| rng.unit_f64()).collect())
        .collect();
    let y: Vec<f64> = points
        .iter()
        .map(|p| 2.0 + p[0] + (3.0 * p[4]).sin() * p[5] + 0.02 * rng.normal())
        .collect();
    let data = Dataset::new(points, y).expect("valid data");

    let mut group = c.benchmark_group("modeling");
    group.sample_size(10);
    group.bench_function("regtree_fit_200x9_pmin1", |b| {
        b.iter(|| RegressionTree::fit(&data, 1))
    });
    let tree = RegressionTree::fit(&data, 1);
    group.bench_function("rbf_select_200x9", |b| {
        b.iter_batched(
            || SelectionConfig::with_alpha(7.0),
            |config| select_centers(&tree, &data, &config),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, sim_throughput, sampling, modeling);
criterion_main!(benches);
