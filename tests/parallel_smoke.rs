//! Concurrency smoke test for the parallel validate stage.
//!
//! Oversubscribe the worker pool (more candidates per batch than
//! threads, more threads than cores) and squeeze the memo-cache down to
//! two entries so every batch forces LRU evictions. The run must
//! terminate (no deadlock), lose no candidate (per-iteration accounting
//! is conserved), and still match the sequential run bit-for-bit under
//! the same tiny cache.

use acr::prelude::*;
use acr_core::SimCache;
use acr_workloads::GeneratedNetwork;
use std::sync::Arc;

fn wan() -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(4, 8))
}

fn repair(
    net: &GeneratedNetwork,
    broken: &NetworkConfig,
    threads: usize,
    cache_cap: usize,
) -> acr_core::RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed: 11,
            threads,
            cache: Some(Arc::new(SimCache::new(cache_cap))),
            ..RepairConfig::default()
        },
    );
    engine.repair(broken)
}

#[test]
fn oversubscribed_pool_with_evicting_cache_loses_nothing() {
    let net = wan();
    let incidents = sample_incidents(&net, 4, 77);
    for (i, incident) in incidents.iter().enumerate() {
        let report = repair(&net, &incident.broken, 8, 2);
        let what = format!("incident {i} ({})", incident.fault);

        // No lost or double-counted candidate: everything generated is
        // accounted for by exactly one verdict class.
        for it in &report.iterations {
            assert_eq!(
                it.generated,
                it.validated + it.cached + it.lint_rejected + it.invalid,
                "{what}: iteration {} accounting broken: {it:?}",
                it.iteration
            );
            assert!(
                it.kept <= it.validated + it.cached,
                "{what}: kept > verdicts"
            );
        }
        let simulated: usize = report.iterations.iter().map(|it| it.validated).sum();
        let cached: usize = report.iterations.iter().map(|it| it.cached).sum();
        assert_eq!(simulated, report.validations, "{what}: validations total");
        assert_eq!(cached, report.validations_cached, "{what}: cached total");

        // Evictions must not change the repair: the sequential run under
        // the same two-entry cache agrees on every observable field.
        let seq = repair(&net, &incident.broken, 1, 2);
        assert_eq!(
            report.outcome.is_fixed(),
            seq.outcome.is_fixed(),
            "{what}: fixedness diverged"
        );
        assert_eq!(report.iterations, seq.iterations, "{what}: trace diverged");
        assert_eq!(report.validations, seq.validations, "{what}");
        assert_eq!(report.validations_cached, seq.validations_cached, "{what}");
    }
}

/// The worker pool never stalls on a degenerate batch: a single
/// candidate on many threads, and a healthy network that produces no
/// batch at all.
#[test]
fn degenerate_batches_terminate() {
    let net = wan();
    // Healthy network: the loop exits before any batch is built.
    let report = repair(&net, &net.cfg, 8, 2);
    assert!(report.outcome.is_fixed());
    assert_eq!(report.validations, 0);
    assert_eq!(report.validations_cached, 0);

    // A real incident still terminates with far more threads than
    // candidates or cores.
    let incident = &sample_incidents(&net, 1, 77)[0];
    let report = repair(&net, &incident.broken, 64, 1);
    assert!(
        report.validations + report.validations_cached > 0,
        "a broken network must validate at least one candidate"
    );
}
