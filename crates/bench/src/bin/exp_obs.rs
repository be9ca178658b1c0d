//! **Observability validation** — the acr-obs subsystem exercised
//! end-to-end on the Figure 2 incident plus the 12-router WAN corpus.
//!
//! Three properties are asserted, per cell of a `threads × delta`
//! matrix:
//!
//! 1. **Schema** — every journal line parses as JSON and carries the
//!    fields its `event` kind promises (`acr-journal/v5`, including the
//!    daemon serving events `job_start`/`job_end`/`admission_rejected`),
//!    and the exported trace is loadable Chrome trace-event JSON.
//! 2. **Determinism** — two identical runs produce byte-identical
//!    journals after timestamp scrubbing; journals across thread counts
//!    differ only in the `run_start` config line; the canonical trace is
//!    stable across repeat runs.
//! 3. **Transparency** — repair reports are identical with every obs
//!    facility on and with everything off: instrumentation records,
//!    never decides.
//!
//! A report digest (FNV-1a over the outcome signatures) is printed as
//! `report_digest=<hex>`; `ci.sh` compares it between an instrumented
//! pass and an `--disabled` pass of the same binary to prove the two
//! processes computed the very same repairs. `--smoke` shrinks the
//! matrix for CI; results land in `BENCH_obs.json` (enabled pass only).
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_obs [-- --smoke] [-- --disabled]
//! ```

use acr_bench::{corpus, json, rule, standard_network, write_bench_mode};
use acr_core::{OperatorSet, RepairConfig, RepairEngine, RepairOutcome, RepairReport, SimCache};
use acr_obs::{journal, metrics, trace};
use acr_serve::{Acrd, NetworkDef, ServeConfig, SubmitReq};
use acr_topo::Topology;
use acr_verify::Spec;
use acr_workloads::fig2::fig2_incident;
use acr_workloads::{GeneratedNetwork, Incident};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One repair workload: a broken network plus the spec to restore.
struct Workload {
    label: String,
    topo: Topology,
    spec: Spec,
    broken: acr_cfg::NetworkConfig,
    seed: u64,
}

/// One matrix cell's measured result.
struct CellResult {
    threads: usize,
    delta: bool,
    wall: Duration,
    journal_lines: usize,
    journal_bytes: usize,
    /// Scrubbed journal with the `run_start` line dropped — the part
    /// that must agree across thread counts and the delta toggle's
    /// construction-only changes.
    body: String,
    signatures: Vec<String>,
}

fn workloads(smoke: bool) -> Vec<Workload> {
    let mut out = Vec::new();
    let fig2 = fig2_incident();
    out.push(Workload {
        label: "fig2".into(),
        topo: fig2.topo,
        spec: fig2.spec,
        broken: fig2.broken,
        seed: 7,
    });
    let net = standard_network();
    let incidents = corpus(&net, if smoke { 3 } else { 12 }, 77);
    for (i, inc) in incidents.into_iter().enumerate() {
        out.push(Workload {
            label: format!("wan/{}", inc.fault),
            topo: net.topo.clone(),
            spec: net.spec.clone(),
            broken: inc.broken,
            seed: i as u64,
        });
    }
    out
}

/// The report fields instrumentation must not perturb, as one line per
/// workload. Stage/wall timings are excluded — they are measurements,
/// not decisions.
fn signature(label: &str, r: &RepairReport) -> String {
    let outcome = match &r.outcome {
        RepairOutcome::Fixed { patch, .. } => format!("fixed {patch}"),
        RepairOutcome::NoCandidates {
            best_patch,
            best_fitness,
        } => format!("no_candidates {best_fitness} {best_patch}"),
        RepairOutcome::IterationLimit {
            best_patch,
            best_fitness,
        } => format!("iteration_limit {best_fitness} {best_patch}"),
    };
    let iters: Vec<String> = r
        .iterations
        .iter()
        .map(|s| {
            format!(
                "{}:{}:{}:{}:{}:{}:{}:{}:{}:{}:{}",
                s.iteration,
                s.fitness,
                s.best_fitness,
                s.generated,
                s.kept,
                s.recomputed_prefixes,
                s.reused_prefixes,
                s.lint_rejected,
                s.validated,
                s.cached,
                s.invalid
            )
        })
        .collect();
    format!(
        "{label} | {outcome} | init={} v={} vc={} | {}",
        r.initial_failed,
        r.validations,
        r.validations_cached,
        iters.join(";")
    )
}

/// FNV-1a 64 over the signature lines.
fn digest(signatures: &[String]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for s in signatures {
        for b in s.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= b'\n' as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn repair_all(loads: &[Workload], threads: usize, delta: bool) -> Vec<RepairReport> {
    loads
        .iter()
        .map(|w| {
            let engine = RepairEngine::new(
                &w.topo,
                &w.spec,
                RepairConfig {
                    seed: w.seed,
                    threads,
                    delta,
                    cache: Some(Arc::new(SimCache::default())),
                    operators: OperatorSet::Both,
                    ..RepairConfig::default()
                },
            );
            engine.repair(&w.broken)
        })
        .collect()
}

/// Asserts one journal line satisfies the `acr-journal/v5` schema.
fn check_journal_line(line: &str) {
    let v = json::parse(line).unwrap_or_else(|e| panic!("journal line is not JSON ({e}): {line}"));
    let event = v
        .get("event")
        .and_then(|e| e.as_str())
        .unwrap_or_else(|| panic!("journal line lacks an event: {line}"));
    let need = |keys: &[&str]| {
        for k in keys {
            assert!(v.get(k).is_some(), "{event} record lacks '{k}': {line}");
        }
    };
    match event {
        "run_start" => {
            need(&["ts_us", "routers", "devices", "initial_failed", "config"]);
            assert_eq!(
                v.get("schema").and_then(|s| s.as_str()),
                Some(journal::SCHEMA),
                "run_start must stamp the schema: {line}"
            );
            let cfg = v.get("config").unwrap();
            for k in [
                "strategy", "seed", "threads", "cache", "delta", "lint", "flow", "tags",
            ] {
                assert!(cfg.get(k).is_some(), "run_start config lacks '{k}': {line}");
            }
        }
        "flow_summary" => need(&[
            "ts_us",
            "fixpoint_iterations",
            "facts",
            "prior_lines",
            "gate",
        ]),
        "iteration" => {
            need(&[
                "ts_us",
                "iteration",
                "fitness",
                "best_fitness",
                "generated",
                "kept",
                "lint_rejected",
                "validated",
                "cached",
                "invalid",
                "flow_skipped",
                "suspects",
                "candidates",
            ]);
            for c in v.get("candidates").unwrap().as_arr().unwrap() {
                assert!(
                    c.get("patch").is_some()
                        && c.get("outcome").is_some()
                        && c.get("segments").is_some()
                );
            }
        }
        "run_end" => {
            need(&[
                "ts_us",
                "outcome",
                "patch",
                "fitness",
                "iterations",
                "validations",
                "validations_cached",
                "validations_skipped",
                "attribution",
                "tags",
            ]);
            for seg in v.get("attribution").unwrap().as_arr().unwrap() {
                for k in ["iteration", "op", "edits"] {
                    assert!(seg.get(k).is_some(), "attribution segment lacks '{k}'");
                }
            }
        }
        "baseline_run" => need(&["ts_us", "baseline"]),
        // v3 serving events: a daemon job brackets the engine's
        // run_start..run_end records.
        "job_start" => need(&["ts_us", "job", "tenant", "network", "seq"]),
        "job_end" => need(&["ts_us", "job", "tenant", "network", "outcome", "resident"]),
        "admission_rejected" => need(&["ts_us", "tenant", "network", "reason"]),
        other => panic!("unknown journal event '{other}': {line}"),
    }
}

/// Asserts the Chrome trace export is loadable and well-formed.
fn check_trace(doc: &str) -> usize {
    let v = json::parse(doc).expect("trace export must be valid JSON");
    let events = v
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("trace must hold a traceEvents array");
    assert!(!events.is_empty(), "an instrumented repair must emit spans");
    for e in events {
        for k in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            assert!(e.get(k).is_some(), "trace event lacks '{k}'");
        }
        assert_eq!(e.get("ph").unwrap().as_str(), Some("X"));
    }
    events.len()
}

/// Drops the `run_start` lines (the only config-bearing records) from a
/// scrubbed journal, leaving the part comparable across configurations.
fn journal_body(scrubbed: &str) -> String {
    scrubbed
        .lines()
        .filter(|l| !l.contains("\"event\":\"run_start\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Serves `incidents` through an in-process cold daemon (plus one
/// deliberately rejected submission) and returns the raw captured
/// journal for the pass.
fn daemon_journal(net: &GeneratedNetwork, incidents: &[Incident], threads: usize) -> String {
    journal::capture_to_memory();
    let mut d = Acrd::new(ServeConfig {
        threads: Some(threads),
        cold: true,
        ..ServeConfig::default()
    });
    d.register(NetworkDef {
        name: "wan12".to_string(),
        topo: Arc::new(net.topo.clone()),
        spec: Arc::new(net.spec.clone()),
    });
    let req = |inc: &Incident, seed: u64, network: &str| {
        let mut config = BTreeMap::new();
        for (id, dev) in inc.broken.devices() {
            let name = net
                .topo
                .routers()
                .iter()
                .find(|r| r.id == id)
                .unwrap()
                .name
                .clone();
            config.insert(name, dev.to_text());
        }
        SubmitReq {
            tenant: "obs".to_string(),
            network: network.to_string(),
            seed,
            tags: Vec::new(),
            config,
        }
    };
    for (i, inc) in incidents.iter().enumerate() {
        d.submit(req(inc, i as u64, "wan12")).unwrap();
    }
    // One unknown-network submission so the pass journals an
    // admission_rejected record too.
    assert!(d.submit(req(&incidents[0], 0, "no-such-net")).is_err());
    assert_eq!(d.finish(), incidents.len());
    journal::take_captured()
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let disabled = std::env::args().any(|a| a == "--disabled");
    let loads = workloads(smoke);
    let thread_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 8] };
    let deltas = [true, false];

    if disabled {
        // The A/B partner pass: everything off, digest printed for ci.sh
        // to compare against the instrumented pass.
        acr_obs::disable_all();
        let mut signatures = Vec::new();
        for &threads in thread_counts {
            for &delta in &deltas {
                for (w, r) in loads.iter().zip(repair_all(&loads, threads, delta)) {
                    signatures.push(format!(
                        "t{threads} d{} {}",
                        delta as u8,
                        signature(&w.label, &r)
                    ));
                }
            }
        }
        println!(
            "obs disabled: {} workloads × {} thread counts × delta on/off",
            loads.len(),
            thread_counts.len()
        );
        println!("report_digest={:016x}", digest(&signatures));
        return;
    }

    println!(
        "workloads: fig2 + {}-incident WAN corpus; matrix: threads {:?} × delta on/off\n",
        loads.len() - 1,
        thread_counts
    );

    // ---- Instrumented matrix ------------------------------------------
    acr_obs::set_flags(acr_obs::ALL);
    let header = format!(
        "{:<8} {:<6} {:>9} {:>10} {:>12} {:>13} {:>9}",
        "Threads", "Delta", "Wall", "Journal", "Jrnl bytes", "Deterministic", "Fixed"
    );
    println!("{header}");
    rule(header.len());
    let mut cells: Vec<CellResult> = Vec::new();
    let mut all_signatures = Vec::new();
    for &threads in thread_counts {
        for &delta in &deltas {
            // Two identical runs; the scrubbed journals must agree byte
            // for byte.
            journal::capture_to_memory();
            let t = Instant::now();
            let reports = repair_all(&loads, threads, delta);
            let wall = t.elapsed();
            let raw = journal::take_captured();
            journal::capture_to_memory();
            let again = repair_all(&loads, threads, delta);
            let raw2 = journal::take_captured();
            let scrubbed = journal::scrub_timestamps(&raw);
            assert_eq!(
                scrubbed,
                journal::scrub_timestamps(&raw2),
                "journal must be byte-identical across identical runs (threads={threads}, delta={delta})"
            );
            for (a, b) in reports.iter().zip(&again) {
                assert_eq!(
                    signature("", a),
                    signature("", b),
                    "repeat run diverged (threads={threads}, delta={delta})"
                );
            }
            for line in raw.lines() {
                check_journal_line(line);
            }
            let signatures: Vec<String> = loads
                .iter()
                .zip(&reports)
                .map(|(w, r)| signature(&w.label, r))
                .collect();
            all_signatures.extend(
                signatures
                    .iter()
                    .map(|s| format!("t{threads} d{} {s}", delta as u8)),
            );
            let fixed = reports.iter().filter(|r| r.outcome.is_fixed()).count();
            println!(
                "{:<8} {:<6} {:>8.2}s {:>10} {:>12} {:>13} {:>9}",
                threads,
                if delta { "on" } else { "off" },
                wall.as_secs_f64(),
                format!("{} lines", raw.lines().count()),
                raw.len(),
                "yes",
                format!("{fixed}/{}", loads.len()),
            );
            cells.push(CellResult {
                threads,
                delta,
                wall,
                journal_lines: raw.lines().count(),
                journal_bytes: raw.len(),
                body: journal_body(&scrubbed),
                signatures,
            });
        }
    }
    rule(header.len());

    // Across thread counts (delta fixed), journals agree outside the
    // run_start config line: emission is coordinator-side and ordered.
    for delta in deltas {
        let bodies: Vec<&CellResult> = cells.iter().filter(|c| c.delta == delta).collect();
        for pair in bodies.windows(2) {
            assert_eq!(
                pair[0].body, pair[1].body,
                "journal body must not depend on the thread count (delta={delta}, threads {} vs {})",
                pair[0].threads, pair[1].threads
            );
        }
    }
    // And the reports themselves are thread-count- and delta-invariant.
    for pair in cells.windows(2) {
        assert_eq!(
            pair[0].signatures, pair[1].signatures,
            "reports must be identical across the matrix"
        );
    }
    println!(
        "journal bodies identical across thread counts; reports identical across the matrix\n"
    );

    // ---- Daemon journal (v3 serving events) ---------------------------
    // A daemon pass journals job_start/job_end brackets around the
    // engine records plus admission_rejected for refused submissions,
    // and stays byte-identical across worker-thread counts (modulo the
    // run_start config line, as above).
    let serve_net = standard_network();
    let serve_incidents = corpus(&serve_net, 3, 77);
    let mut serve_bodies = Vec::new();
    let mut serve_counts = (0usize, 0usize, 0usize);
    for &threads in &[1usize, 4] {
        let raw = daemon_journal(&serve_net, &serve_incidents, threads);
        for line in raw.lines() {
            check_journal_line(line);
        }
        serve_counts = (
            raw.lines()
                .filter(|l| l.contains("\"event\":\"job_start\""))
                .count(),
            raw.lines()
                .filter(|l| l.contains("\"event\":\"job_end\""))
                .count(),
            raw.lines()
                .filter(|l| l.contains("\"event\":\"admission_rejected\""))
                .count(),
        );
        assert_eq!(
            serve_counts.0,
            serve_incidents.len(),
            "one job_start per job"
        );
        assert_eq!(serve_counts.1, serve_incidents.len(), "one job_end per job");
        assert_eq!(
            serve_counts.2, 1,
            "the refused submission must be journaled"
        );
        serve_bodies.push(journal_body(&journal::scrub_timestamps(&raw)));
    }
    assert_eq!(
        serve_bodies[0], serve_bodies[1],
        "daemon journal body must not depend on the worker-thread count"
    );
    println!(
        "daemon journal: {} job_start / {} job_end / {} admission_rejected; byte-identical across threads 1 vs 4\n",
        serve_counts.0, serve_counts.1, serve_counts.2
    );

    // ---- Trace validity ------------------------------------------------
    let trace_events = check_trace(&trace::export_chrome());
    let canon_before = trace::canonical().len();
    println!("trace: {trace_events} events, loadable Chrome trace-event JSON ({canon_before} canonical lines)");

    // ---- On/off A/B ----------------------------------------------------
    acr_obs::disable_all();
    let t = Instant::now();
    let off_reports = repair_all(&loads, thread_counts[0], true);
    let wall_off = t.elapsed();
    let on_cell = cells
        .iter()
        .find(|c| c.threads == thread_counts[0] && c.delta)
        .unwrap();
    let off_signatures: Vec<String> = loads
        .iter()
        .zip(&off_reports)
        .map(|(w, r)| signature(&w.label, r))
        .collect();
    assert_eq!(
        on_cell.signatures, off_signatures,
        "instrumentation must not change what the engine computes"
    );
    println!(
        "on/off A/B (threads={}): reports identical; wall {:.2}s instrumented vs {:.2}s off\n",
        thread_counts[0],
        on_cell.wall.as_secs_f64(),
        wall_off.as_secs_f64(),
    );
    println!("report_digest={:016x}", digest(&all_signatures));

    // ---- Machine-readable artifact ------------------------------------
    let cell_rows = json::array(cells.iter().map(|c| {
        json::Obj::new()
            .int("threads", c.threads)
            .bool("delta", c.delta)
            .num("wall_s", c.wall.as_secs_f64())
            .int("journal_lines", c.journal_lines)
            .int("journal_bytes", c.journal_bytes)
            .build()
    }));
    let m = metrics::snapshot();
    let counter = |name: &str| match m.get(name) {
        Some(metrics::MetricValue::Counter(v)) => *v,
        _ => 0,
    };
    let metrics_summary = json::Obj::new()
        .u64("engine_runs", counter("engine.runs"))
        .u64("engine_iterations", counter("engine.iterations"))
        .u64("sim_runs", counter("sim.runs"))
        .u64("cache_candidate_hits", counter("cache.candidate.hits"))
        .u64("lint_gate_rejected", counter("lint.gate.rejected"))
        .u64(
            "flow_fixpoint_iterations",
            counter("flow.fixpoint.iterations"),
        )
        .u64("flow_facts", counter("flow.facts"))
        .u64("flow_gate_skipped", counter("flow.gate.skipped"))
        .u64("dpll_solves", counter("smt.dpll.solves"))
        .build();
    let path = write_bench_mode("obs", smoke, |env| {
        env.bool("smoke", smoke)
            .int("workloads", loads.len())
            .str(
                "report_digest",
                &format!("{:016x}", digest(&all_signatures)),
            )
            .bool("journal_deterministic", true)
            .bool("daemon_journal_deterministic", true)
            .int("daemon_jobs_journaled", serve_counts.0)
            .bool("reports_identical_on_off", true)
            .int("trace_events", trace_events)
            .raw("cells", &cell_rows)
            .raw("metrics", &metrics_summary)
    });
    println!("wrote {path}");
}
