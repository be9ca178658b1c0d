//! **Static relevance gate A/B** — what the `acr-flow` candidate-pruning
//! gate saves, and the proof that it changes nothing else.
//!
//! Every incident of the 12-router WAN corpus is repaired twice with an
//! *explicit* gate setting — `flow: true` and `flow: false` in
//! [`RepairConfig`], so the ambient `ACR_FLOW` toggle cannot skew the
//! comparison. Three things are asserted:
//!
//! 1. **Transparency** — the semantic report signature (outcome + patch,
//!    fitness trajectory, generation/keep decisions; *not* the
//!    validated/cached/skipped accounting, which is exactly what the
//!    gate is supposed to move) is identical gate-on vs gate-off, per
//!    incident.
//! 2. **The gate fires** — total `validations_skipped` across the
//!    corpus is > 0: at least one candidate was proven invisible and
//!    served the base verification without simulation.
//! 3. **Work goes down** — gate-on total candidate simulations stay
//!    under the 144 the PR 1 baseline spent on this corpus, and never
//!    exceed the gate-off count.
//!
//! An FNV-1a digest of the signatures is printed as
//! `report_digest=<hex>` — taken from the pass matching the *ambient*
//! `ACR_FLOW`, so when `ci.sh` runs this binary twice (default, then
//! `ACR_FLOW=0`) equal digests prove two separate processes, one gated
//! and one not, computed the very same repairs. The same cross-process
//! pattern `exp_converge` and `exp_obs` use.
//!
//! Results land in `BENCH_flow.json`. The corpus is already CI-sized,
//! so `--smoke` is accepted but changes nothing — truncating it would
//! dodge the incidents where the gate actually fires.
//!
//! ```sh
//! cargo run --release -p acr-bench --bin exp_flow [-- --smoke]
//! ```

use acr_bench::{corpus, fmt_duration, json, rule, standard_network, write_bench_mode};
use acr_core::{OperatorSet, RepairConfig, RepairEngine, RepairOutcome, RepairReport};
use std::time::{Duration, Instant};

/// The report fields the gate must not perturb: what was decided, not
/// what it cost. Validation/cache/skip counters are deliberately
/// excluded — moving those is the gate's entire job.
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
                "{}:{}:{}:{}:{}",
                s.iteration, s.fitness, s.best_fitness, s.generated, s.kept
            )
        })
        .collect();
    format!(
        "{label} | {outcome} | init={} | {}",
        r.initial_failed,
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
    let net = standard_network();
    let incidents = corpus(&net, 12, 77);
    // What `..RepairConfig::default()` would have picked — the pass the
    // printed digest reflects, so ci.sh's ACR_FLOW=0 partner process
    // digests the *ungated* reports.
    let ambient_flow = RepairConfig::default().flow;

    let run = |broken: &acr_cfg::NetworkConfig, seed: u64, flow: bool| {
        let engine = RepairEngine::new(
            &net.topo,
            &net.spec,
            RepairConfig {
                seed,
                flow,
                operators: OperatorSet::Both,
                ..RepairConfig::default()
            },
        );
        let t = Instant::now();
        let report = engine.repair(broken);
        (report, t.elapsed())
    };

    let header = format!(
        "{:<26} {:>4} {:>5} {:>7} {:>7} {:>7} {:>7} {:>6}",
        "Incident", "Init", "Iters", "Val off", "Val on", "Skipped", "Cached", "Fixed"
    );
    println!(
        "12-incident WAN corpus, gate on vs off (explicit RepairConfig.flow; ambient ACR_FLOW -> {})\n",
        if ambient_flow { "on" } else { "off" }
    );
    println!("{header}");
    rule(header.len());

    let mut sig_on = Vec::new();
    let mut sig_off = Vec::new();
    let mut rows = Vec::new();
    let (mut total_on, mut total_off, mut total_skipped) = (0usize, 0usize, 0usize);
    let (mut wall_on, mut wall_off) = (Duration::ZERO, Duration::ZERO);
    let mut fixed = 0usize;
    for (i, inc) in incidents.iter().enumerate() {
        let label = format!("wan/{}", inc.fault);
        let (on, w_on) = run(&inc.broken, i as u64, true);
        let (off, w_off) = run(&inc.broken, i as u64, false);
        let (s_on, s_off) = (signature(&label, &on), signature(&label, &off));
        assert_eq!(
            s_on, s_off,
            "gate changed the computed repair on incident {i} ({label})"
        );
        assert_eq!(
            off.validations_skipped, 0,
            "gate-off run must never skip a validation ({label})"
        );
        assert!(
            on.validations <= off.validations,
            "gate-on must not simulate more candidates ({label}: {} vs {})",
            on.validations,
            off.validations
        );
        assert_eq!(
            on.validations + on.validations_skipped,
            off.validations + off.validations_cached - on.validations_cached,
            "every gate-off validation must be accounted for on ({label})"
        );
        total_on += on.validations;
        total_off += off.validations;
        total_skipped += on.validations_skipped;
        wall_on += w_on;
        wall_off += w_off;
        fixed += usize::from(on.outcome.is_fixed());
        println!(
            "{:<26} {:>4} {:>5} {:>7} {:>7} {:>7} {:>7} {:>6}",
            label,
            on.initial_failed,
            on.iterations.len(),
            off.validations,
            on.validations,
            on.validations_skipped,
            on.validations_cached,
            if on.outcome.is_fixed() { "yes" } else { "no" },
        );
        rows.push(
            json::Obj::new()
                .str("incident", &label)
                .int("initial_failed", on.initial_failed)
                .int("iterations", on.iterations.len())
                .int("validations_off", off.validations)
                .int("validations_on", on.validations)
                .int("validations_skipped", on.validations_skipped)
                .int("validations_cached", on.validations_cached)
                .bool("fixed", on.outcome.is_fixed())
                .build(),
        );
        sig_on.push(s_on);
        sig_off.push(s_off);
    }
    rule(header.len());

    // Acceptance: the gate fires, and gated work lands under the PR 1
    // baseline's 144 simulations for this corpus.
    assert!(
        total_skipped > 0,
        "acceptance: the gate never fired across the corpus"
    );
    assert!(
        total_on < 144,
        "acceptance: gate-on simulations must undercut the 144 baseline (got {total_on})"
    );
    assert!(total_on <= total_off, "gate-on did more work than gate-off");
    println!(
        "totals: {total_off} simulations ungated -> {total_on} gated ({total_skipped} skipped), \
         {fixed}/{} fixed; wall {} on vs {} off",
        incidents.len(),
        fmt_duration(wall_on),
        fmt_duration(wall_off),
    );
    println!("reports identical gate on/off on every incident; gate-on under the 144 baseline");

    // ci.sh compares this line between the default pass and ACR_FLOW=0.
    let d = digest(if ambient_flow { &sig_on } else { &sig_off });
    println!("report_digest={d:016x}");

    let path = write_bench_mode("flow", smoke, |env| {
        env.bool("smoke", smoke)
            .bool("ambient_flow", ambient_flow)
            .int("incidents", incidents.len())
            .int("fixed", fixed)
            .int("validations_off", total_off)
            .int("validations_on", total_on)
            .int("validations_skipped", total_skipped)
            .int("baseline_pr1", 144)
            .num("wall_on_s", wall_on.as_secs_f64())
            .num("wall_off_s", wall_off.as_secs_f64())
            .str("report_digest", &format!("{d:016x}"))
            .raw("incidents_detail", &json::array(rows))
    });
    println!("wrote {path}");
}
