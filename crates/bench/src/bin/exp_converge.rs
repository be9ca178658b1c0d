//! **Sparse event-driven convergence** — what dirty-set scheduling,
//! policy-eval memoization, and warm-started fixed points buy the
//! per-prefix BGP engine.
//!
//! Part 1 pits the two engines against each other on fixed workloads
//! (Figure 2, the 12-router WAN corpus, and the 72-router scaled WAN
//! outside `--smoke`), via explicit [`RunOptions`] so the `ACR_SPARSE`
//! toggle cannot skew the comparison. Outcomes and derivation arenas are
//! asserted field-for-field equal on every workload, and the sparse
//! engine is asserted to do **strictly less** router-recomputation work
//! on each one — the table is a pure work comparison, not a trust claim.
//!
//! Part 2 repairs the corpus end-to-end under the process-wide engine
//! (whatever `ACR_SPARSE` resolves to) and prints an FNV-1a digest of
//! the outcome signatures as `report_digest=<hex>`. `ci.sh` runs this
//! binary twice — default (sparse) and `ACR_SPARSE=0` (dense) — and
//! compares digests to prove both engines compute the very same repairs
//! in separate processes, the same pattern `exp_obs` uses for the
//! instrumentation-transparency guard.
//!
//! Results land in `BENCH_converge.json`. `--smoke` shrinks the corpus
//! for CI.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_converge [-- --smoke]
//! ```

use acr_bench::{
    corpus, fmt_duration, json, rule, scaled_network, standard_network, write_bench_mode,
};
use acr_cfg::NetworkConfig;
use acr_core::{OperatorSet, RepairConfig, RepairEngine, RepairOutcome, RepairReport};
use acr_sim::{ConvergeEngine, ConvergeWork, DerivArena, PolicyMemo, RunOptions, Simulator};
use acr_topo::{gen, Topology};
use acr_workloads::fig2::fig2_incident;
use acr_workloads::netgen;
use std::time::{Duration, Instant};

/// One simulation workload for the engine-vs-engine work table.
struct SimLoad {
    label: String,
    topo: Topology,
    cfg: NetworkConfig,
}

/// Work + wall of one engine over one workload's full universe.
struct EngineRun {
    work: ConvergeWork,
    wall: Duration,
}

fn run_engine(load: &SimLoad, engine: ConvergeEngine) -> (EngineRun, DerivArena, String) {
    let sim = Simulator::new(&load.topo, &load.cfg);
    let mut arena = DerivArena::new();
    let opts = RunOptions { engine, warm: None };
    let t = Instant::now();
    let (outcomes, work) = sim.run_prefixes_opts(&sim.universe(), &mut arena, &opts);
    let wall = t.elapsed();
    // A cheap structural fingerprint of the outcomes, so the equality
    // assertion below can print something useful on mismatch.
    let fp = format!("{outcomes:?}");
    (EngineRun { work, wall }, arena, fp)
}

fn sim_loads(smoke: bool) -> Vec<SimLoad> {
    let mut out = Vec::new();
    let fig2 = fig2_incident();
    out.push(SimLoad {
        label: "fig2 (flapping)".into(),
        topo: fig2.topo,
        cfg: fig2.broken,
    });
    let net = standard_network();
    for inc in corpus(&net, if smoke { 3 } else { 12 }, 77) {
        out.push(SimLoad {
            label: format!("wan(4,8)/{}", inc.fault),
            topo: net.topo.clone(),
            cfg: inc.broken,
        });
    }
    if !smoke {
        let big = scaled_network(24);
        out.push(SimLoad {
            label: "wan(24,48) healthy".into(),
            topo: big.topo,
            cfg: big.cfg,
        });
    }
    out
}

/// Scale-frontier workloads: healthy (converging) networks sized for the
/// interning + memo-reuse comparison. Dense never runs here —
/// the 200-backbone WAN's line diameter alone makes it infeasible.
fn scale_loads(smoke: bool) -> Vec<SimLoad> {
    if smoke {
        let net = standard_network();
        let topo = gen::leaf_spine_multi(2, 4, 25);
        let cfg = netgen::generate_plain_cfg(&topo);
        vec![
            SimLoad {
                label: "wan(4,8) healthy".into(),
                topo: net.topo,
                cfg: net.cfg,
            },
            SimLoad {
                label: "leaf-spine 2x4, 100 pfx".into(),
                topo,
                cfg,
            },
        ]
    } else {
        let mid = scaled_network(24);
        let big = scaled_network(200);
        let dcn = gen::leaf_spine_multi(2, 5, 20_000);
        let dcn_cfg = netgen::generate_plain_cfg(&dcn);
        vec![
            SimLoad {
                label: "wan(24,48) healthy".into(),
                topo: mid.topo,
                cfg: mid.cfg,
            },
            SimLoad {
                label: "wan(200,400) healthy".into(),
                topo: big.topo,
                cfg: big.cfg,
            },
            SimLoad {
                label: "leaf-spine 2x5, 100k pfx".into(),
                topo: dcn,
                cfg: dcn_cfg,
            },
        ]
    }
}

/// The report fields the engine choice must not perturb (same shape as
/// `exp_obs`'s signature: outcomes and per-iteration decisions, no
/// timings).
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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let engine = ConvergeEngine::from_env();

    // ---- Part 1: dense vs sparse round-work, per workload --------------
    let header = format!(
        "{:<34} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9} {:>9}",
        "Workload",
        "Prefixes",
        "Rounds",
        "Dense rc",
        "Sparse rc",
        "Skipped",
        "Evals d/s",
        "Memo hits"
    );
    println!("{header}");
    rule(header.len());
    let mut rows = Vec::new();
    for load in sim_loads(smoke) {
        let (dense, dense_arena, dense_fp) = run_engine(&load, ConvergeEngine::Dense);
        let (sparse, sparse_arena, sparse_fp) = run_engine(&load, ConvergeEngine::Sparse);
        assert_eq!(
            dense_fp, sparse_fp,
            "engines disagree on outcomes for '{}'",
            load.label
        );
        assert_eq!(
            dense_arena, sparse_arena,
            "engines disagree on the derivation arena for '{}'",
            load.label
        );
        assert_eq!(dense.work.rounds, sparse.work.rounds, "{}", load.label);
        assert!(
            sparse.work.recomputed_routers < dense.work.recomputed_routers,
            "acceptance: sparse must do strictly less router work on '{}' ({} vs {})",
            load.label,
            sparse.work.recomputed_routers,
            dense.work.recomputed_routers,
        );
        assert!(
            sparse.work.policy_evals <= dense.work.policy_evals,
            "sparse must never evaluate more policies ('{}')",
            load.label
        );
        println!(
            "{:<34} {:>8} {:>7} {:>9} {:>9} {:>8} {:>9} {:>9}",
            load.label,
            dense.work.prefixes,
            dense.work.rounds,
            dense.work.recomputed_routers,
            sparse.work.recomputed_routers,
            sparse.work.skipped_routers,
            format!("{}/{}", dense.work.policy_evals, sparse.work.policy_evals),
            sparse.work.memo_hits,
        );
        rows.push(
            json::Obj::new()
                .str("workload", &load.label)
                .int("prefixes", dense.work.prefixes as usize)
                .int("rounds", dense.work.rounds as usize)
                .int("dense_recomputed", dense.work.recomputed_routers as usize)
                .int("sparse_recomputed", sparse.work.recomputed_routers as usize)
                .int("sparse_skipped", sparse.work.skipped_routers as usize)
                .int("dense_policy_evals", dense.work.policy_evals as usize)
                .int("sparse_policy_evals", sparse.work.policy_evals as usize)
                .int("sparse_memo_hits", sparse.work.memo_hits as usize)
                .num("dense_wall_s", dense.wall.as_secs_f64())
                .num("sparse_wall_s", sparse.wall.as_secs_f64())
                .build(),
        );
    }
    rule(header.len());
    println!("outcomes + arenas asserted equal per workload; rc = router recomputations\n");

    // ---- Part 1b: scale frontier — interning and memo reuse -----------
    //
    // Two runs per workload, both sparse:
    //   cold    fresh memo — exactly the plain sparse engine's policy-eval
    //           count (interning changes representation, not which
    //           transfers are evaluated);
    //   steady  reusing the cold run's memo after a no-change
    //           `begin_run` — how the verifier actually revisits a
    //           committed base in the repair loop. Fewer evals and less
    //           wall than cold, asserted.
    let scale_header = format!(
        "{:<34} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "Scale workload", "Prefixes", "Cold", "Steady", "Evals c", "Evals st", "Hits st"
    );
    println!("{scale_header}");
    rule(scale_header.len());
    let mut scale_rows = Vec::new();
    for load in scale_loads(smoke) {
        let sim = Simulator::new(&load.topo, &load.cfg);
        let universe = sim.universe();
        let opts = RunOptions {
            engine: ConvergeEngine::Sparse,
            warm: None,
        };

        let mut arena = DerivArena::new();
        let mut memo = PolicyMemo::new();
        memo.begin_run(sim.sessions_arc(), &[]);
        let t = Instant::now();
        let (out_cold, work_cold) = sim.run_prefixes_with(&universe, &mut arena, &opts, &mut memo);
        let wall_cold = t.elapsed();

        // Steady state: re-running against the same arena serves
        // transfers from the memo instead of re-evaluating policies.
        memo.begin_run(sim.sessions_arc(), &[]);
        let t = Instant::now();
        let (out_steady, work_steady) =
            sim.run_prefixes_with(&universe, &mut arena, &opts, &mut memo);
        let wall_steady = t.elapsed();
        assert_eq!(
            out_cold, out_steady,
            "memo reuse must not change outcomes ('{}')",
            load.label
        );
        assert!(
            work_steady.policy_evals < work_cold.policy_evals,
            "acceptance: steady state must evaluate fewer policies than the \
             cold sparse engine ('{}': {} vs {})",
            load.label,
            work_steady.policy_evals,
            work_cold.policy_evals,
        );
        if !smoke {
            assert!(
                wall_steady < wall_cold,
                "acceptance: steady state must take strictly less wall time \
                 than the cold sparse engine ('{}': {:?} vs {:?})",
                load.label,
                wall_steady,
                wall_cold,
            );
        }
        println!(
            "{:<34} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9}",
            load.label,
            work_cold.prefixes,
            fmt_duration(wall_cold),
            fmt_duration(wall_steady),
            work_cold.policy_evals,
            work_steady.policy_evals,
            work_steady.memo_hits,
        );
        scale_rows.push(
            json::Obj::new()
                .str("workload", &load.label)
                .int("prefixes", work_cold.prefixes as usize)
                .num("cold_wall_s", wall_cold.as_secs_f64())
                .num("steady_wall_s", wall_steady.as_secs_f64())
                .int("cold_policy_evals", work_cold.policy_evals as usize)
                .int("steady_policy_evals", work_steady.policy_evals as usize)
                .int("steady_memo_hits", work_steady.memo_hits as usize)
                .build(),
        );
    }
    rule(scale_header.len());
    println!("steady-state reruns asserted outcome-identical with fewer policy evals\n");

    // ---- Part 2: end-to-end repair under the ambient engine ------------
    let net = standard_network();
    let incidents = corpus(&net, if smoke { 3 } else { 12 }, 77);
    let mut signatures = Vec::new();
    let mut wall = Duration::ZERO;
    let mut converge = Duration::ZERO;
    let mut simulate = Duration::ZERO;
    let mut fixed = 0usize;
    for (i, inc) in incidents.iter().enumerate() {
        let engine = RepairEngine::new(
            &net.topo,
            &net.spec,
            RepairConfig {
                seed: i as u64,
                threads: 1,
                cache: None,
                operators: OperatorSet::Both,
                ..RepairConfig::default()
            },
        );
        let t = Instant::now();
        let report = engine.repair(&inc.broken);
        wall += t.elapsed();
        converge += report.stage.sim_converge;
        simulate += report.stage.sim_simulate;
        fixed += usize::from(report.outcome.is_fixed());
        signatures.push(signature(&format!("wan/{}", inc.fault), &report));
    }
    let d = digest(&signatures);
    println!(
        "repair: {} incidents, engine={engine:?}, {fixed} fixed; wall {} (simulate {}, converge {})",
        incidents.len(),
        fmt_duration(wall),
        fmt_duration(simulate),
        fmt_duration(converge),
    );
    // ci.sh compares this line between the default pass and ACR_SPARSE=0.
    println!("report_digest={d:016x}");

    let path = write_bench_mode("converge", smoke, |env| {
        env.bool("smoke", smoke)
            .str("engine", &format!("{engine:?}"))
            .raw("workloads", &json::array(rows))
            .raw("scale", &json::array(scale_rows))
            .raw(
                "repair",
                &json::Obj::new()
                    .int("incidents", incidents.len())
                    .int("fixed", fixed)
                    .num("wall_s", wall.as_secs_f64())
                    .num("simulate_s", simulate.as_secs_f64())
                    .num("converge_s", converge.as_secs_f64())
                    .str("report_digest", &format!("{d:016x}"))
                    .build(),
            )
    });
    println!("wrote {path}");
}
