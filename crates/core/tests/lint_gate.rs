//! The `acr-lint` hooks inside the repair loop: static findings boost
//! localization, and candidates that introduce a fresh lint error are
//! pruned before they reach the simulator.

use acr_core::engine::models_of;
use acr_core::templates::candidates_for_line;
use acr_core::{
    universal_candidates, OperatorSet, RepairConfig, RepairCtx, RepairEngine, RepairReport,
};
use acr_lint::{lint_errors, lint_network};
use acr_localize::{localize, SbflFormula};
use acr_topo::gen;
use acr_verify::Verifier;
use acr_workloads::{generate, try_inject, FaultType, GeneratedNetwork};

fn run(
    net: &GeneratedNetwork,
    broken: &acr_cfg::NetworkConfig,
    lint: bool,
    seed: u64,
) -> RepairReport {
    let engine = RepairEngine::new(
        &net.topo,
        &net.spec,
        RepairConfig {
            seed,
            lint,
            operators: OperatorSet::Both,
            ..RepairConfig::default()
        },
    );
    engine.repair(broken)
}

/// The gate fires on a real incident: donor-copied edits that dangle are
/// rejected without a validation, and the repair still lands.
#[test]
fn lint_gate_prunes_candidates_and_repair_still_lands() {
    let net = generate(&gen::wan(4, 8));
    let incident = try_inject(FaultType::StaleRouteMap, &net, 0).expect("injectable");
    let on = run(&net, &incident.broken, true, 0);
    let off = run(&net, &incident.broken, false, 0);
    assert!(on.outcome.is_fixed() && off.outcome.is_fixed());
    let pruned: usize = on.iterations.iter().map(|s| s.lint_rejected).sum();
    assert!(pruned >= 1, "the static gate never fired");
    assert!(
        on.validations < off.validations,
        "lint-seeded repair used {} validations vs {} without",
        on.validations,
        off.validations
    );
    // With the gate off, nothing may ever be counted as lint-rejected.
    assert!(off.iterations.iter().all(|s| s.lint_rejected == 0));
}

/// Across a batch of incidents, lint seeding shrinks the total number of
/// candidate simulations without losing any repair.
#[test]
fn lint_seeding_cuts_the_validation_budget() {
    let net = generate(&gen::wan(4, 8));
    let (mut total_on, mut total_off) = (0usize, 0usize);
    for seed in 0..4u64 {
        let incident = try_inject(FaultType::MissingPeerGroup, &net, seed).expect("injectable");
        let on = run(&net, &incident.broken, true, 0);
        let off = run(&net, &incident.broken, false, 0);
        assert!(
            on.outcome.is_fixed(),
            "lint-on repair failed at seed {seed}"
        );
        assert!(
            off.outcome.is_fixed(),
            "lint-off repair failed at seed {seed}"
        );
        total_on += on.validations;
        total_off += off.validations;
    }
    assert!(
        total_on < total_off,
        "expected fewer simulations with lint seeding: {total_on} vs {total_off}"
    );
}

/// The gate lints only the devices a candidate patch touched. On the
/// candidates the engine's operators generate at the suspicious lines of
/// several incidents, that verdict equals the full-network one: a fresh
/// Error key anywhere in `lint_network` of the patched configuration.
/// A cross-device Error rule would break this.
#[test]
fn touched_device_gate_matches_the_full_network_verdict() {
    let net = generate(&gen::wan(4, 8));
    let (mut checked, mut rejected) = (0usize, 0usize);
    for fault in [
        FaultType::MissingRoutePolicy,
        FaultType::MissingPeerGroup,
        FaultType::MissingPbrPermit,
        FaultType::ExtraPbrRedirect,
        FaultType::MissingPrefixListItems,
        FaultType::StaleRouteMap,
    ] {
        for seed in 0..2u64 {
            let Some(incident) = try_inject(fault, &net, seed) else {
                continue;
            };
            let broken = &incident.broken;
            let base_keys = lint_network(&net.topo, broken).keys();
            let (verification, outcome) = Verifier::new(&net.topo, &net.spec).run_full(broken);
            let models = models_of(&net.topo, broken);
            let ctx = RepairCtx {
                topo: &net.topo,
                cfg: broken,
                verification: &verification,
                arena: &outcome.arena,
                models: &models,
            };
            let ranking = localize(&verification.matrix, SbflFormula::Tarantula);
            let mut pool = ranking.top_tied();
            pool.extend(
                ranking
                    .entries()
                    .iter()
                    .skip(pool.len())
                    .take(8)
                    .map(|(l, _)| *l),
            );
            for line in pool {
                let patches = candidates_for_line(line, &ctx)
                    .into_iter()
                    .map(|f| f.patch)
                    .chain(universal_candidates(line, &ctx));
                for patch in patches {
                    let Ok(cfg) = patch.apply_cloned(broken) else {
                        continue;
                    };
                    let full = lint_network(&net.topo, &cfg)
                        .errors()
                        .any(|d| !base_keys.contains(&d.key()));
                    let touched = lint_errors(&net.topo, &cfg, &patch.routers())
                        .errors()
                        .any(|d| !base_keys.contains(&d.key()));
                    assert_eq!(
                        touched, full,
                        "{fault:?} seed {seed}: gate verdicts differ on `{patch}`"
                    );
                    checked += 1;
                    rejected += usize::from(full);
                }
            }
        }
    }
    assert!(checked >= 50, "only {checked} candidates checked");
    assert!(
        rejected > 0 && rejected < checked,
        "vacuous: {rejected} of {checked} candidates rejected"
    );
}
