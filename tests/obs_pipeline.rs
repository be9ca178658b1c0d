//! End-to-end guarantees of the acr-obs subsystem on real repairs.
//!
//! Three contracts (see `acr-obs`'s crate docs):
//!
//! - **journal determinism** — journals are byte-identical across
//!   identical runs after timestamp scrubbing, and identical outside the
//!   `run_start` config line across worker-thread counts and the delta
//!   toggle (emission is coordinator-side, in iteration/candidate-index
//!   order);
//! - **trace canonicality** — the canonical (timestamp/tid-scrubbed,
//!   sorted) span list is stable across repeat runs, and the full export
//!   is loadable Chrome trace-event JSON;
//! - **transparency** — repair reports are identical with every facility
//!   enabled and with everything off: instrumentation records, never
//!   decides.
//!
//! Obs state is process-global, so every test serializes on one lock and
//! leaves the facilities disabled on exit.

use acr::obs::{self, journal, json, trace};
use acr::prelude::*;
use acr_core::{RepairReport, SimCache};
use std::sync::{Arc, Mutex};

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn repair_fig2(threads: usize, delta: bool) -> RepairReport {
    let fig2 = acr::workloads::fig2::fig2_incident();
    let engine = RepairEngine::new(
        &fig2.topo,
        &fig2.spec,
        RepairConfig {
            seed: 7,
            threads,
            delta,
            cache: Some(Arc::new(SimCache::default())),
            ..RepairConfig::default()
        },
    );
    engine.repair(&fig2.broken)
}

/// Everything observable about a report, for on/off comparison.
fn signature(r: &RepairReport) -> String {
    let outcome = match &r.outcome {
        RepairOutcome::Fixed { patch, repaired } => {
            format!("fixed {patch} fp={}", repaired.fingerprint())
        }
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("no_candidates {best_fitness} {best_patch}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("iteration_limit {best_fitness} {best_patch}"),
    };
    format!(
        "{outcome} | init={} v={} vc={} | {:?}",
        r.initial_failed, r.validations, r.validations_cached, r.iterations
    )
}

/// A scrubbed journal with the config-bearing `run_start` line dropped —
/// the portion that must agree across configurations.
fn body(scrubbed: &str) -> String {
    scrubbed
        .lines()
        .filter(|l| !l.contains("\"event\":\"run_start\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

#[test]
fn journal_is_deterministic_across_threads_and_delta() {
    let _g = lock();
    obs::set_flags(obs::JOURNAL);
    let mut bodies: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 4, 8] {
        for delta in [true, false] {
            let label = format!("threads={threads}, delta={delta}");
            journal::capture_to_memory();
            let a = repair_fig2(threads, delta);
            let raw_a = journal::take_captured();
            journal::capture_to_memory();
            let b = repair_fig2(threads, delta);
            let raw_b = journal::take_captured();
            assert!(!raw_a.is_empty(), "{label}: journal must not be empty");
            let scrubbed = journal::scrub_timestamps(&raw_a);
            assert_eq!(
                scrubbed,
                journal::scrub_timestamps(&raw_b),
                "{label}: identical runs must journal byte-identically"
            );
            assert_eq!(
                signature(&a),
                signature(&b),
                "{label}: repeat runs diverged"
            );
            // Every line is valid JSON with an event; run_start stamps
            // the schema version. v5 carries no symbolic-screen or
            // sharding records or fields.
            for line in raw_a.lines() {
                let v = json::parse(line).expect("journal line must parse");
                let event = v.get("event").and_then(|e| e.as_str()).unwrap();
                assert!(
                    event != "sym_summary" && event != "shard_summary",
                    "{label}: v5 journal emitted {event}"
                );
                match event {
                    "run_start" => {
                        assert_eq!(
                            v.get("schema").and_then(|s| s.as_str()),
                            Some(journal::SCHEMA)
                        );
                        assert!(v.get("config").unwrap().get("symbolic").is_none());
                    }
                    "iteration" => assert!(v.get("sym_validated").is_none()),
                    "run_end" => assert!(v.get("validations_symbolic").is_none()),
                    _ => {}
                }
            }
            bodies.push((label, body(&scrubbed)));
        }
    }
    // Outside run_start, the journal does not depend on the thread count
    // or the delta toggle.
    for (label, b) in &bodies[1..] {
        assert_eq!(
            b, &bodies[0].1,
            "journal body diverged between {} and {label}",
            bodies[0].0
        );
    }
    obs::disable_all();
}

#[test]
fn trace_is_canonical_and_loadable() {
    let _g = lock();
    obs::set_flags(obs::TRACE);
    let _ = trace::take();
    let a = repair_fig2(4, true);
    let canon_a = trace::canonical();
    assert!(
        !canon_a.is_empty(),
        "an instrumented repair must emit spans"
    );
    // The export (before draining) is loadable Chrome trace-event JSON.
    let doc = trace::export_chrome();
    let v = json::parse(&doc).expect("chrome trace must parse");
    let events = v.get("traceEvents").unwrap().as_arr().unwrap();
    assert_eq!(events.len(), canon_a.len());
    for e in events {
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
        assert!(e.get("ts").unwrap().as_num().is_some());
        assert!(e.get("dur").unwrap().as_num().is_some());
        assert!(e.get("tid").unwrap().as_num().unwrap() >= 1.0);
    }
    let _ = trace::take();
    let b = repair_fig2(4, true);
    let canon_b = trace::canonical();
    assert_eq!(
        canon_a, canon_b,
        "canonical trace must be stable across identical runs"
    );
    assert_eq!(signature(&a), signature(&b));
    let _ = trace::take();
    obs::disable_all();
}

#[test]
fn instrumentation_never_changes_a_repair() {
    let _g = lock();
    for threads in [1usize, 4] {
        obs::set_flags(obs::ALL);
        journal::capture_to_memory();
        let on = repair_fig2(threads, true);
        let _ = journal::take_captured();
        let _ = trace::take();
        obs::disable_all();
        let off = repair_fig2(threads, true);
        assert_eq!(
            signature(&on),
            signature(&off),
            "threads={threads}: obs on vs off changed the repair"
        );
        assert!(on.outcome.is_fixed(), "fig2 must be repairable");
    }
}

/// Journal byte-identity for the *multi-patch beam* path: a composed
/// multi-fault scenario repaired with `Strategy::beam` must journal
/// byte-identically (after timestamp scrubbing) across repeat runs, and
/// identically outside `run_start` across worker-thread counts and the
/// delta toggle — including the v2 fields this path exercises hardest
/// (per-candidate `segments` counts, `run_end` attribution and tags).
#[test]
fn beam_journal_is_deterministic_and_carries_attribution() {
    let _g = lock();
    obs::set_flags(obs::JOURNAL);
    let net = acr::workloads::generate(&acr::topo::gen::wan(4, 8));
    let scenario = acr::scenarios::corpus(&net, 1, 2024)
        .into_iter()
        .next()
        .expect("corpus is non-empty");
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
    let mut bodies: Vec<(String, String)> = Vec::new();
    for threads in [1usize, 4, 8] {
        for delta in [true, false] {
            let label = format!("threads={threads}, delta={delta}");
            journal::capture_to_memory();
            let a = run(threads, delta);
            let raw_a = journal::take_captured();
            journal::capture_to_memory();
            let b = run(threads, delta);
            let raw_b = journal::take_captured();
            assert!(!raw_a.is_empty(), "{label}: journal must not be empty");
            assert_eq!(
                journal::scrub_timestamps(&raw_a),
                journal::scrub_timestamps(&raw_b),
                "{label}: identical beam runs must journal byte-identically"
            );
            assert_eq!(signature(&a), signature(&b), "{label}: repeat diverged");
            // The run_end line carries the attribution array and the
            // scenario tags.
            let run_end = raw_a
                .lines()
                .find(|l| l.contains("\"event\":\"run_end\""))
                .expect("journal has a run_end");
            let v = json::parse(run_end).expect("run_end parses");
            assert!(v.get("attribution").and_then(|a| a.as_arr()).is_some());
            let tags = v.get("tags").and_then(|t| t.as_arr()).unwrap();
            assert!(
                tags.iter()
                    .any(|t| t.as_str() == Some(&format!("family:{}", scenario.family.tag()))),
                "{label}: family tag missing from journal"
            );
            bodies.push((label, body(&journal::scrub_timestamps(&raw_a))));
        }
    }
    for (label, b) in &bodies[1..] {
        assert_eq!(
            b, &bodies[0].1,
            "beam journal body diverged between {} and {label}",
            bodies[0].0
        );
    }
    obs::disable_all();
}
