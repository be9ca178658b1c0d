//! The linter against the paper's Table 1: every injectable fault class
//! either trips a named rule or is documented as semantic-only, and the
//! clean generator corpus (plus the Figure 2 intended configuration)
//! produces **zero** findings — the soundness bar the repair-engine gate
//! relies on.

use acr_cfg::DeviceModel;
use acr_lint::{lint_errors, lint_network, lint_with_facts, Diagnostic, Rule};
use acr_net_types::RouterId;
use acr_topo::gen;
use acr_workloads::{fig2::fig2_incident, generate, try_inject, FaultType, TABLE1};
use std::collections::BTreeSet;

/// Fault classes the static pass cannot see: the injected edit leaves no
/// dangling reference and no dead statement, only a semantic gap that
/// needs simulation (e.g. a deleted `import-route static` whose statics
/// were deleted with it).
const SEMANTIC_ONLY: &[FaultType] = &[FaultType::MissingRedistribution];

/// The rules allowed to fire per fault class. A detection outside this
/// set would be a mis-attribution (or a false positive riding along).
fn expected_rules(fault: FaultType) -> &'static [Rule] {
    match fault {
        FaultType::MissingRedistribution => &[],
        FaultType::MissingPbrPermit => &[Rule::UnusedDefinition, Rule::UndefinedAcl],
        FaultType::ExtraPbrRedirect => &[Rule::ShadowedPbrRule],
        FaultType::MissingPeerGroup => &[Rule::UndefinedPeerGroup, Rule::UnusedDefinition],
        FaultType::ExtraPeerGroupItem => &[Rule::GroupAsnConflict, Rule::ImportFilterGap],
        FaultType::MissingRoutePolicy => &[Rule::UndefinedRoutePolicy, Rule::UnusedDefinition],
        FaultType::StaleRouteMap => &[Rule::ImportFilterGap],
        FaultType::WrongOverrideAsn => &[Rule::OverrideAsnMismatch],
        FaultType::MissingPrefixListItems => &[
            Rule::ImportFilterGap,
            Rule::UndefinedPrefixList,
            Rule::UnusedDefinition,
            // Cross-device: the gutted list leaves the neighbor's
            // originations with no import that can admit them.
            Rule::UnimportableRoute,
        ],
    }
}

#[test]
fn clean_generator_corpus_has_zero_findings() {
    for (name, topo) in [
        ("full_mesh(6)", gen::full_mesh(6)),
        ("ring(8)", gen::ring(8)),
        ("line(5)", gen::line(5)),
        ("star(6)", gen::star(6)),
        ("leaf_spine(2,6)", gen::leaf_spine(2, 6)),
        ("wan(4,8)", gen::wan(4, 8)),
    ] {
        let net = generate(&topo);
        let report = lint_network(&net.topo, &net.cfg);
        assert!(
            report.is_clean(),
            "false positives on {name}:\n{}",
            report.render(&net.cfg)
        );
    }
}

#[test]
fn fig2_intended_is_clean_and_broken_stays_gateable() {
    let fig2 = fig2_incident();
    let intended = lint_network(&fig2.topo, &fig2.intended);
    assert!(
        intended.is_clean(),
        "false positives on the Figure 2 intended configuration:\n{}",
        intended.render(&fig2.intended)
    );
    // The broken variant's catch-all lists *permit* everything — no entry
    // is dead, nothing dangles — so the error baseline is empty and the
    // engine's gate operates from a clean slate.
    let broken = lint_network(&fig2.topo, &fig2.broken);
    assert_eq!(broken.errors().count(), 0);
}

#[test]
fn table1_faults_trip_the_mapped_rules() {
    let net = generate(&gen::wan(4, 8));
    let clean_keys = lint_network(&net.topo, &net.cfg).keys();
    assert!(clean_keys.is_empty(), "substrate must lint clean");

    let mut detected_types = 0usize;
    for (fault, _) in TABLE1 {
        let allowed: BTreeSet<Rule> = expected_rules(fault).iter().copied().collect();
        let mut detections = 0usize;
        let mut injections = 0usize;
        for seed in 0..6u64 {
            let Some(incident) = try_inject(fault, &net, seed) else {
                continue;
            };
            injections += 1;
            let report = lint_network(&net.topo, &incident.broken);
            let fresh: Vec<_> = report
                .diagnostics
                .iter()
                .filter(|d| !clean_keys.contains(&d.key()))
                .collect();
            for d in &fresh {
                assert!(
                    allowed.contains(&d.rule),
                    "{fault:?} (seed {seed}) tripped unexpected rule {}: {}",
                    d.rule,
                    d.message
                );
            }
            if !fresh.is_empty() {
                detections += 1;
            }
        }
        assert!(injections > 0, "{fault:?} never injected");
        if SEMANTIC_ONLY.contains(&fault) {
            assert_eq!(
                detections, 0,
                "{fault:?} is documented semantic-only but was detected statically"
            );
        } else {
            assert!(
                detections > 0,
                "{fault:?} injected {injections} times, never statically detected"
            );
            detected_types += 1;
        }
    }
    // The acceptance bar: at least 6 of the 9 Table-1 classes visible
    // without simulation (measured: 8).
    assert!(
        detected_types >= 6,
        "only {detected_types} fault types detected"
    );
}

/// Every rule that claims a Table-1 mapping names a real fault class.
#[test]
fn table1_mapping_names_real_fault_classes() {
    let names: BTreeSet<String> = TABLE1.iter().map(|(f, _)| f.to_string()).collect();
    for rule in Rule::ALL {
        if let Some(mapped) = rule.table1() {
            assert!(
                names.contains(mapped),
                "{rule} maps to unknown fault class {mapped:?}"
            );
        }
    }
}

/// The locality contract the repair engine's gate depends on (see
/// `Severity`): over every device, the Error-rule entry point finds
/// exactly the full pass's errors, and linting against precomputed flow
/// facts equals linting from scratch. Checked on every Table-1 incident
/// and on Figure 2 broken and intended.
#[test]
fn error_entry_point_and_shared_facts_match_the_full_pass() {
    let net = generate(&gen::wan(4, 8));
    let mut cases = Vec::new();
    for (fault, _) in TABLE1 {
        for seed in 0..6u64 {
            if let Some(incident) = try_inject(fault, &net, seed) {
                cases.push((
                    format!("{fault:?} seed {seed}"),
                    net.topo.clone(),
                    incident.broken,
                ));
            }
        }
    }
    let fig2 = fig2_incident();
    cases.push(("fig2 broken".into(), fig2.topo.clone(), fig2.broken.clone()));
    cases.push((
        "fig2 intended".into(),
        fig2.topo.clone(),
        fig2.intended.clone(),
    ));

    let mut errors_seen = 0usize;
    for (label, topo, cfg) in &cases {
        let full = lint_network(topo, cfg);
        let all: Vec<RouterId> = topo.routers().iter().map(|r| r.id).collect();
        let errors = lint_errors(topo, cfg, &all);
        let expected: Vec<Diagnostic> = full.errors().cloned().collect();
        assert_eq!(
            errors.diagnostics, expected,
            "{label}: Error-rule entry point"
        );
        errors_seen += expected.len();

        let models: Vec<DeviceModel> = topo
            .routers()
            .iter()
            .map(|r| DeviceModel::from_config(cfg.device(r.id).expect("every router configured")))
            .collect();
        let shared = lint_with_facts(topo, cfg, &models, &acr_flow::analyze(topo, cfg));
        assert_eq!(
            shared.diagnostics, full.diagnostics,
            "{label}: lint_with_facts"
        );
    }
    assert!(errors_seen > 0, "no incident carried an Error finding");
}
