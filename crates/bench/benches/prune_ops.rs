//! Micro-benchmarks for occupancy-guided pruning: SBT child
//! enumeration, summary maintenance, and the pruned level traversal
//! against the full (unpruned) walk it replaces.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hyperdex_core::protocol::FrontierLevels;
use hyperdex_core::summary::OccupancySummary;
use hyperdex_hypercube::{Sbt, Shape, Vertex};

const R: u8 = 12;

fn root(shape: Shape) -> Vertex {
    // 2 ones → a 1024-vertex induced subcube, the prune sweep's regime.
    Vertex::from_bits(shape, 0b1000_0000_0100).expect("valid")
}

/// A summary with `occupied` pseudo-random leaves of the `2^R` cube.
fn populated_summary(occupied: u64) -> OccupancySummary {
    let mut summary = OccupancySummary::new(R);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..occupied {
        // SplitMix64 step: deterministic, well-spread leaf choices.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        summary.record_insert((z ^ (z >> 31)) & ((1 << R) - 1));
    }
    summary
}

fn sbt_child_enumeration(c: &mut Criterion) {
    let shape = Shape::new(R).expect("valid");
    let sbt = Sbt::induced(root(shape));

    c.bench_function("prune/sbt_children_full_walk", |b| {
        b.iter(|| {
            let mut edges = 0u64;
            for (v, _) in black_box(&sbt).bfs() {
                edges += sbt.children(v).count() as u64;
            }
            edges
        })
    });
}

fn summary_maintenance(c: &mut Criterion) {
    c.bench_function("prune/summary_insert_remove_cycle", |b| {
        let mut summary = populated_summary(1_000);
        b.iter(|| {
            summary.record_insert(black_box(0b1010_0100_0001));
            summary.record_remove(black_box(0b1010_0100_0001));
            summary.total_objects()
        })
    });

    c.bench_function("prune/summary_can_prune_probe", |b| {
        let summary = populated_summary(1_000);
        b.iter(|| summary.can_prune(black_box(0b1000_0000_0101), 2, 0b1000_0000_0100))
    });
}

fn pruned_traversal(c: &mut Criterion) {
    let shape = Shape::new(R).expect("valid");
    let root = root(shape);
    let sbt = Sbt::induced(root);

    let mut group = c.benchmark_group("prune/levels");
    group.bench_with_input(
        BenchmarkId::from_parameter("unpruned_1024"),
        &sbt,
        |b, sbt| {
            b.iter(|| {
                (0..=black_box(sbt).height())
                    .map(|d| sbt.level(d).count())
                    .sum::<usize>()
            })
        },
    );
    for occupied in [0u64, 64, 1_024] {
        let summary = populated_summary(occupied);
        group.bench_with_input(
            BenchmarkId::new("pruned", occupied),
            &summary,
            |b, summary| {
                b.iter(|| {
                    let mut levels = FrontierLevels::new(summary, black_box(root), true, false);
                    let mut visited = 0usize;
                    while let Some(level) = levels.next_level(black_box(summary)) {
                        visited += level.len();
                    }
                    (visited, levels.drain(black_box(summary)))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    sbt_child_enumeration,
    summary_maintenance,
    pruned_traversal
);
criterion_main!(benches);
