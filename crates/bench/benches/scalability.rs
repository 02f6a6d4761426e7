//! Criterion micro-benchmark of the shared-memory parallelisation (§3.4,
//! Table 2 / Fig. 3): parallel OMS and parallel Fennel at 1, 2 and 4 threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oms_core::{HierarchySpec, JobSpec, OmsConfig, OnlineMultiSection};
use oms_gen::random_geometric_graph;
use oms_graph::InMemoryStream;
use std::time::Duration;

fn bench_scalability(c: &mut Criterion) {
    let graph = random_geometric_graph(30_000, 13);
    let k = 1024u32;
    let hierarchy = HierarchySpec::new(vec![4, 16, 16]).unwrap();
    let oms = OnlineMultiSection::with_hierarchy(hierarchy, OmsConfig::default());

    let mut group = c.benchmark_group("parallel_scalability");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    for &threads in [1usize, 2, 4].iter().filter(|&&t| t <= max_threads) {
        group.bench_with_input(
            BenchmarkId::new("oms-parallel", threads),
            &threads,
            |b, &t| b.iter(|| oms.partition_graph_parallel(&graph, t).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("fennel-parallel", threads),
            &threads,
            |b, &t| {
                // `threads=1` resolves to the sequential flat kernel.
                let fennel = JobSpec::parse(&format!("fennel:{k}@threads={t}"))
                    .unwrap()
                    .build()
                    .unwrap();
                b.iter(|| fennel.partition(&mut InMemoryStream::new(&graph)).unwrap())
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scalability);
criterion_main!(benches);
