//! Differential determinism harness: the parallel validate stage must
//! be *observationally invisible*.
//!
//! The engine's contract (see `acr-core`'s `validate` module) is that
//! candidate verdicts are pure functions of batch-start state and all
//! cache mutations happen coordinator-side in candidate-index order, so
//! the worker-pool size cannot influence a repair. This harness proves
//! it differentially: every corpus incident is repaired under
//! `threads ∈ {1, 4, 8}` (each with its own fresh cache) and the runs
//! must agree on the outcome, the patch, the full per-iteration trace,
//! and both validation counters. Internal derivation-arena id numbering
//! may differ across thread counts — ids are arena-local — which is why
//! the comparison is over the report, never over raw `Verification`s.

use acr::prelude::*;
use acr::scenarios::{corpus, Scenario};
use acr_core::RepairReport;
use acr_core::SimCache;
use acr_workloads::GeneratedNetwork;
use std::sync::Arc;

fn wan() -> GeneratedNetwork {
    generate(&acr::topo::gen::wan(4, 8))
}

/// Everything observable about how a repair ended, comparable across
/// runs. (`RepairOutcome` holds a `NetworkConfig`, which compares by
/// fingerprint — the canonical rendered text.)
#[derive(Debug, PartialEq, Eq)]
enum OutcomeSig {
    Fixed {
        patch: Patch,
        repaired_fp: u64,
    },
    NoCandidates {
        best_patch: Patch,
        best_fitness: usize,
    },
    IterationLimit {
        best_patch: Patch,
        best_fitness: usize,
    },
}

fn signature(report: &RepairReport) -> OutcomeSig {
    match &report.outcome {
        RepairOutcome::Fixed { patch, repaired } => OutcomeSig::Fixed {
            patch: patch.clone(),
            repaired_fp: repaired.fingerprint(),
        },
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => OutcomeSig::NoCandidates {
            best_patch: best_patch.clone(),
            best_fitness: *best_fitness,
        },
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => OutcomeSig::IterationLimit {
            best_patch: best_patch.clone(),
            best_fitness: *best_fitness,
        },
    }
}

fn repair_with_threads(
    net: &GeneratedNetwork,
    broken: &NetworkConfig,
    seed: u64,
    threads: usize,
) -> RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            threads,
            // Fresh cache per run: differential equality must not lean
            // on shared state between the compared runs.
            cache: Some(Arc::new(SimCache::default())),
            ..RepairConfig::default()
        },
    );
    engine.repair(broken)
}

fn assert_reports_identical(a: &RepairReport, b: &RepairReport, what: &str) {
    assert_eq!(signature(a), signature(b), "{what}: outcome diverged");
    assert_eq!(
        a.iterations, b.iterations,
        "{what}: iteration trace diverged"
    );
    assert_eq!(
        a.initial_failed, b.initial_failed,
        "{what}: initial failures diverged"
    );
    assert_eq!(
        a.validations, b.validations,
        "{what}: validation count diverged"
    );
    assert_eq!(
        a.validations_cached, b.validations_cached,
        "{what}: cached-validation count diverged"
    );
    assert_eq!(
        a.validations_skipped, b.validations_skipped,
        "{what}: flow-skip count diverged"
    );
    assert_eq!(
        a.attribution, b.attribution,
        "{what}: patch attribution diverged"
    );
    assert_eq!(a.tags, b.tags, "{what}: tags diverged");
}

/// The headline harness: 12 incidents × 3 seeds, `threads ∈ {1, 4, 8}`
/// must be byte-identical in every observable field.
#[test]
fn thread_count_never_changes_a_repair() {
    let net = wan();
    let incidents = sample_incidents(&net, 12, 77);
    assert!(
        incidents.len() >= 10,
        "corpus too small: {}",
        incidents.len()
    );
    for (i, incident) in incidents.iter().enumerate() {
        for seed in [0u64, 11, 42] {
            let base = repair_with_threads(&net, &incident.broken, seed, 1);
            for threads in [4usize, 8] {
                let par = repair_with_threads(&net, &incident.broken, seed, threads);
                assert_reports_identical(
                    &base,
                    &par,
                    &format!(
                        "incident {i} ({}), seed {seed}, threads {threads}",
                        incident.fault
                    ),
                );
            }
        }
    }
}

/// The delta-compilation toggle is construction-only: the invalidation
/// analysis runs identically whether candidate simulators are built from
/// scratch or delta-compiled against the committed base, so repairs with
/// delta on and off must be byte-identical in every observable field, at
/// every worker-pool size.
#[test]
fn delta_compilation_never_changes_a_repair() {
    let net = wan();
    let incidents = sample_incidents(&net, 6, 77);
    for (i, incident) in incidents.iter().enumerate() {
        for threads in [1usize, 4, 8] {
            let run = |delta: bool| {
                let engine = RepairEngine::new(
                    &net.topo,
                    &net.spec,
                    RepairConfig {
                        seed: 11,
                        threads,
                        cache: Some(Arc::new(SimCache::default())),
                        delta,
                        ..RepairConfig::default()
                    },
                );
                engine.repair(&incident.broken)
            };
            assert_reports_identical(
                &run(true),
                &run(false),
                &format!(
                    "incident {i} ({}), threads {threads}, delta on vs off",
                    incident.fault
                ),
            );
        }
    }
}

/// The delta toggle on a sampled incident set with accounting checked:
/// both sides satisfy `check_accounting`, and every report field,
/// cost buckets included, is identical with delta on and off.
#[test]
fn delta_toggle_keeps_accounting_and_decisions() {
    let net = wan();
    let incidents = sample_incidents(&net, 4, 77);
    for (i, incident) in incidents.iter().enumerate() {
        let run = |delta: bool| {
            let engine = RepairEngine::new(
                &net.topo,
                &net.spec,
                RepairConfig {
                    seed: 11,
                    threads: 1,
                    cache: Some(Arc::new(SimCache::default())),
                    delta,
                    ..RepairConfig::default()
                },
            );
            engine.repair(&incident.broken)
        };
        let (on, off) = (run(true), run(false));
        for r in [&on, &off] {
            r.check_accounting()
                .unwrap_or_else(|e| panic!("incident {i}: accounting violated: {e}"));
        }
        assert_reports_identical(
            &on,
            &off,
            &format!("incident {i} ({}), delta on vs off", incident.fault),
        );
    }
}

/// Multi-patch beam search must be exactly as deterministic as the
/// single-fault genetic path: for composed multi-fault scenarios (every
/// family), repairs under `threads ∈ {1, 4, 8}` × `delta ∈ {on, off}`
/// must agree on every observable field — outcome, patch, iteration
/// trace, *per-segment attribution*, tags, and all three validation
/// counters — and every report must satisfy the candidate-accounting
/// identity. (`ACR_SPARSE` is process-global, so the sparse axis is
/// differenced cross-process by `ci.sh`; journal byte-identity for the
/// beam path lives in `obs_pipeline.rs`, which owns the global sink.)
#[test]
fn beam_multi_patch_repair_is_thread_and_delta_invariant() {
    let net = wan();
    let scenarios: Vec<Scenario> = corpus(&net, 1, 2024);
    assert!(
        scenarios.len() >= 4,
        "corpus too small: {}",
        scenarios.len()
    );
    for scenario in &scenarios {
        let spec = scenario.visible_spec(&net.spec);
        let run = |threads: usize, delta: bool| {
            let engine = RepairEngine::new(
                &net.topo,
                &spec,
                RepairConfig {
                    seed: 11,
                    threads,
                    delta,
                    strategy: acr::core::Strategy::beam(),
                    cache: Some(Arc::new(SimCache::default())),
                    tags: scenario.tags(),
                    ..RepairConfig::default()
                },
            );
            engine.repair(&scenario.broken)
        };
        let base = run(1, true);
        base.check_accounting()
            .unwrap_or_else(|e| panic!("{}: accounting violated: {e}", scenario.label));
        assert_eq!(
            base.tags,
            scenario.tags(),
            "{}: tags dropped",
            scenario.label
        );
        for threads in [1usize, 4, 8] {
            for delta in [true, false] {
                if threads == 1 && delta {
                    continue; // that is `base`
                }
                let other = run(threads, delta);
                other
                    .check_accounting()
                    .unwrap_or_else(|e| panic!("{}: accounting violated: {e}", scenario.label));
                assert_reports_identical(
                    &base,
                    &other,
                    &format!(
                        "scenario {} , threads {threads}, delta {delta}",
                        scenario.label
                    ),
                );
            }
        }
    }
}

/// The flow gate replaces simulations with exactly-equal served
/// verdicts, so it shifts candidates between the `validated`, `cached`
/// and `flow_skipped` buckets without ever changing the search: with the
/// gate on vs off, a beam repair must walk the same trajectory (outcome,
/// patch, attribution, per-iteration generated/kept/fitness) and conserve
/// the attempted-candidate total per iteration.
#[test]
fn flow_gate_never_changes_a_beam_repair() {
    let net = wan();
    let scenarios: Vec<Scenario> = corpus(&net, 1, 2024);
    for scenario in &scenarios {
        let spec = scenario.visible_spec(&net.spec);
        let run = |flow: bool| {
            let engine = RepairEngine::new(
                &net.topo,
                &spec,
                RepairConfig {
                    seed: 11,
                    threads: 1,
                    flow,
                    strategy: acr::core::Strategy::beam(),
                    cache: Some(Arc::new(SimCache::default())),
                    tags: scenario.tags(),
                    ..RepairConfig::default()
                },
            );
            engine.repair(&scenario.broken)
        };
        let on = run(true);
        let off = run(false);
        let what = format!("scenario {}, flow on vs off", scenario.label);
        assert_eq!(signature(&on), signature(&off), "{what}: outcome diverged");
        assert_eq!(
            on.attribution, off.attribution,
            "{what}: attribution diverged"
        );
        assert_eq!(on.iterations.len(), off.iterations.len(), "{what}");
        for (a, b) in on.iterations.iter().zip(&off.iterations) {
            assert_eq!(a.generated, b.generated, "{what}: generated diverged");
            assert_eq!(a.kept, b.kept, "{what}: kept diverged");
            assert_eq!(a.fitness, b.fitness, "{what}: fitness diverged");
            assert_eq!(
                a.validated + a.cached + a.flow_skipped,
                b.validated + b.cached + b.flow_skipped,
                "{what}: attempted-candidate total diverged"
            );
        }
        assert_eq!(
            off.validations_skipped, 0,
            "{what}: gate off but skips counted"
        );
        for r in [&on, &off] {
            r.check_accounting()
                .unwrap_or_else(|e| panic!("{what}: accounting violated: {e}"));
        }
    }
}

/// `threads=1` with the cache disabled is the exact legacy sequential
/// path; with a (cold, private) cache it must still produce the same
/// outcome and simulate-or-memoize the same total number of candidates.
#[test]
fn cache_never_changes_a_repair() {
    let net = wan();
    let incidents = sample_incidents(&net, 6, 77);
    for (i, incident) in incidents.iter().enumerate() {
        let engine_off = RepairEngine::new(
            &net.topo,
            &net.spec,
            RepairConfig {
                seed: 11,
                threads: 1,
                cache: None,
                ..RepairConfig::default()
            },
        );
        let off = engine_off.repair(&incident.broken);
        let on = repair_with_threads(&net, &incident.broken, 11, 1);
        let what = format!("incident {i} ({})", incident.fault);
        assert_eq!(signature(&off), signature(&on), "{what}: outcome diverged");
        assert_eq!(off.initial_failed, on.initial_failed, "{what}");
        // A memo hit replaces a simulation but never skips a candidate:
        // the per-iteration generated/kept trace and the simulated+cached
        // total are conserved.
        assert_eq!(off.iterations.len(), on.iterations.len(), "{what}");
        for (a, b) in off.iterations.iter().zip(&on.iterations) {
            assert_eq!(a.generated, b.generated, "{what}: generated diverged");
            assert_eq!(a.kept, b.kept, "{what}: kept diverged");
            assert_eq!(a.fitness, b.fitness, "{what}: fitness diverged");
            assert_eq!(
                a.validated + a.cached,
                b.validated + b.cached,
                "{what}: candidate accounting diverged"
            );
        }
        assert_eq!(
            off.validations + off.validations_cached,
            on.validations + on.validations_cached,
            "{what}: validation totals diverged"
        );
        assert_eq!(
            off.validations_cached, 0,
            "{what}: cache off but hits counted"
        );
    }
}
