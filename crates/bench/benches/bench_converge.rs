//! Criterion: per-prefix convergence — dense vs sparse engine.
//!
//! Pins `run_prefix` itself (no FIBs, no verification) on the hottest
//! prefix of the wan(24,48) substrate, under both engines via an
//! explicit [`RunOptions`] so the `ACR_SPARSE` toggle cannot skew the
//! comparison. The two rows measure identical work products — outcomes
//! and arenas are byte-equal by the sparse-exactness tests — so the gap
//! is pure scheduling + memoization win.

use acr_bench::scaled_network;
use acr_sim::{ConvergeEngine, DerivArena, RunOptions, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;

fn bench_converge_engines(c: &mut Criterion) {
    let net = scaled_network(24); // wan(24,48)
    let sim = Simulator::new(&net.topo, &net.cfg);
    let dense_only = RunOptions {
        engine: ConvergeEngine::Dense,
        warm: None,
    };
    // Hottest prefix = the one whose dense run recomputes the most
    // router-rounds; the worst case for the dense engine and the widest
    // contrast for the sparse one.
    let hot = sim
        .universe()
        .into_iter()
        .max_by_key(|p| {
            let mut arena = DerivArena::new();
            let one: BTreeSet<_> = [*p].into();
            sim.run_prefixes_opts(&one, &mut arena, &dense_only)
                .1
                .recomputed_routers
        })
        .expect("wan universe is non-empty");
    let one: BTreeSet<_> = [hot].into();

    let mut group = c.benchmark_group("converge_hot_prefix_wan24");
    for (name, engine) in [
        ("dense", ConvergeEngine::Dense),
        ("sparse", ConvergeEngine::Sparse),
    ] {
        let opts = RunOptions { engine, warm: None };
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut arena = DerivArena::new();
                std::hint::black_box(sim.run_prefixes_opts(&one, &mut arena, &opts))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_converge_engines);
criterion_main!(benches);
