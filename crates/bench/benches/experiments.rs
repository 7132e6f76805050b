//! Meso-benchmarks: one Criterion target per paper table/figure, running
//! the corresponding experiment at reduced scale through a quiet `Lab`
//! (the full-scale versions are `vine-fig <name>`; see EXPERIMENTS.md).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vine_bench::experiments::{
    fig10, fig11, fig12, fig13, fig14a, fig14b, fig15, fig7, fig8, table1, table2,
};
use vine_bench::lab::Lab;

fn bench_table1(c: &mut Criterion) {
    c.bench_function("table1/stack_evolution_1_40", |b| {
        b.iter(|| black_box(table1::run(&mut Lab::quiet(), 7, 40)))
    });
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2/workload_graphs", |b| {
        b.iter(|| black_box(table2::run(&Lab::quiet())))
    });
}

fn bench_fig7(c: &mut Criterion) {
    c.bench_function("fig7/transfer_heatmap_1_40", |b| {
        b.iter(|| black_box(fig7::run(&mut Lab::quiet(), 5, 40)))
    });
}

fn bench_fig8(c: &mut Criterion) {
    c.bench_function("fig8/task_time_distribution_1_40", |b| {
        b.iter(|| black_box(fig8::run(&mut Lab::quiet(), 3, 40)))
    });
}

fn bench_fig10(c: &mut Criterion) {
    c.bench_function("fig10/import_hoisting_750", |b| {
        b.iter(|| black_box(fig10::run(&mut Lab::quiet(), 3, 750)))
    });
}

fn bench_fig11(c: &mut Criterion) {
    c.bench_function("fig11/reduction_shapes_1_20", |b| {
        b.iter(|| black_box(fig11::run(&mut Lab::quiet(), 11, 4, 20)))
    });
}

fn bench_fig12(c: &mut Criterion) {
    c.bench_function("fig12/stack_timelines_1_40", |b| {
        b.iter(|| black_box(fig12::run(&mut Lab::quiet(), 9, 40)))
    });
}

fn bench_fig13(c: &mut Criterion) {
    c.bench_function("fig13/worker_gantt_1_20", |b| {
        b.iter(|| black_box(fig13::run_cell(&mut Lab::quiet(), 4, 10, 13, 20, None)))
    });
}

fn bench_fig14a(c: &mut Criterion) {
    c.bench_function("fig14a/vs_dask_small", |b| {
        let spec = vine_analysis::WorkloadSpec::dv3_small().scaled_down(4);
        b.iter(|| {
            black_box(fig14a::run_workload(
                &mut Lab::quiet(),
                &spec,
                "DV3-Small",
                21,
                &[5, 10],
                false,
            ))
        })
    });
}

fn bench_fig14b(c: &mut Criterion) {
    c.bench_function("fig14b/scaling_1_20", |b| {
        let spec = vine_analysis::WorkloadSpec::dv3_large().scaled_down(20);
        b.iter(|| {
            black_box(fig14b::run_workload(
                &mut Lab::quiet(),
                &spec,
                "DV3-Large",
                vine_cluster::WorkerSpec::dv3_standard(),
                31,
                &[5, 10],
                None,
            ))
        })
    });
}

fn bench_fig15(c: &mut Criterion) {
    c.bench_function("fig15/dv3_huge_1_80", |b| {
        b.iter(|| black_box(fig15::run(&mut Lab::quiet(), 17, 80)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_table1, bench_table2, bench_fig7, bench_fig8, bench_fig10,
              bench_fig11, bench_fig12, bench_fig13, bench_fig14a, bench_fig14b,
              bench_fig15
}
criterion_main!(benches);
