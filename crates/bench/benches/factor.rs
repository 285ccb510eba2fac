//! Factor-algebra kernels: the inner loops of junction-tree propagation.

use criterion::{criterion_group, criterion_main, Criterion};
use swact_bayesnet::{Factor, VarId};

fn factor_over(vars: &[usize], card: usize, fill: f64) -> Factor {
    let scope: Vec<(VarId, usize)> = vars.iter().map(|&v| (VarId::from_index(v), card)).collect();
    let size: usize = scope.iter().map(|&(_, c)| c).product();
    Factor::new(scope, (0..size).map(|i| fill + i as f64 * 1e-6).collect())
}

fn bench_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("factor");
    // Clique-sized four-state factors, as produced by the LIDAG.
    let clique = factor_over(&[0, 1, 2, 3, 4, 5], 4, 0.5); // 4096 entries
    let sepset = factor_over(&[2, 3, 4], 4, 0.7); // 64 entries
    group.bench_function("product_6x3", |b| b.iter(|| clique.product(&sepset)));
    group.bench_function("mul_assign_sub_6x3", |b| {
        b.iter_batched(
            || clique.clone(),
            |mut f| {
                f.mul_assign_sub(&sepset);
                f
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("marginalize_6_to_3", |b| {
        b.iter(|| clique.marginalize_keep(sepset.vars()))
    });
    // The per-gate readout: one variable kept, at every scope position.
    group.bench_function("marginalize_6_to_1", |b| {
        b.iter(|| {
            clique
                .vars()
                .iter()
                .map(|&v| clique.marginalize_keep(&[v]).values()[0])
                .sum::<f64>()
        })
    });
    group.bench_function("normalize_6", |b| {
        b.iter_batched(
            || clique.clone(),
            |mut f| {
                f.normalize();
                f
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_factor);
criterion_main!(benches);
