//! Full-network verification.
//!
//! [`Verifier::run_full`] simulates every originated prefix, walks every
//! test packet, classifies violations and assembles the coverage matrix.
//! The per-test coverage is the provenance closure of:
//!
//! - the derivations consulted by the forwarding walk (FIB entries, PBR
//!   rules), and
//! - the control-plane outcome of every simulated prefix covering the
//!   packet's destination (a test on a prefix "executes" the lines that
//!   propagated that prefix network-wide — NetCov-style semantics, which
//!   reproduces the coverage table of the paper's Figure 2b), and
//! - for *failed* tests, the session diagnostics (negative provenance: a
//!   down session is a candidate explanation for a missing route).

use crate::spec::{PropertyKind, Spec, TestCase};
use crate::violation::Violation;
use acr_cfg::NetworkConfig;
use acr_net_types::{Prefix, RouterId};
use acr_prov::{CoverageMatrix, TestCoverage, TestId};
use acr_sim::{
    forward, CompiledBase, DerivArena, DerivId, ForwardOutcome, PrefixOutcome, SessionDiag,
    SimOutcome, Simulator,
};
use acr_topo::Topology;
use std::borrow::Borrow;
use std::collections::BTreeMap;

/// One test's verification record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRecord {
    pub id: TestId,
    pub property: String,
    pub kind: PropertyKind,
    pub flow: acr_net_types::Flow,
    pub start: RouterId,
    pub passed: bool,
    pub violation: Option<Violation>,
    /// Routers visited by the walk (empty when the destination prefix was
    /// flapping and no walk was attempted).
    pub path: Vec<RouterId>,
    /// Derivation roots supporting this verdict (provenance entry points).
    pub deriv_roots: Vec<DerivId>,
}

/// The result of verifying one configuration against a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verification {
    pub records: Vec<TestRecord>,
    pub matrix: CoverageMatrix,
    /// Prefixes that failed to converge in this run.
    pub flapping: Vec<Prefix>,
    /// Configured-but-down peers (for peer-repair templates).
    pub session_diags: Vec<SessionDiag>,
}

impl Verification {
    /// Number of failed tests — the paper's fitness function (§5).
    pub fn failed_count(&self) -> usize {
        self.records.iter().filter(|r| !r.passed).count()
    }

    /// Whether every test passed.
    pub fn all_passed(&self) -> bool {
        self.failed_count() == 0
    }

    /// The failed records.
    pub fn failures(&self) -> impl Iterator<Item = &TestRecord> {
        self.records.iter().filter(|r| !r.passed)
    }
}

/// A verifier bound to a topology and specification; the test suite is
/// generated once and reused across candidate configurations so spectra
/// are comparable.
pub struct Verifier<'a> {
    topo: &'a Topology,
    spec: &'a Spec,
    tests: Vec<TestCase>,
}

impl<'a> Verifier<'a> {
    /// One sampled packet per property (the paper's default).
    pub fn new(topo: &'a Topology, spec: &'a Spec) -> Self {
        Self::with_samples(topo, spec, 1)
    }

    /// `samples` packets per property.
    pub fn with_samples(topo: &'a Topology, spec: &'a Spec, samples: u32) -> Self {
        Verifier {
            topo,
            spec,
            tests: spec.generate_tests(samples),
        }
    }

    /// The topology under verification.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// The specification.
    pub fn spec(&self) -> &'a Spec {
        self.spec
    }

    /// The generated test suite.
    pub fn tests(&self) -> &[TestCase] {
        &self.tests
    }

    /// A stable identity hash of this verifier's evaluation context:
    /// the topology plus the generated test suite (which pins the spec's
    /// properties and sampling). Two verifiers with equal context
    /// fingerprints produce identical verdicts for identical rendered
    /// configurations — the premise the simulation memo-cache
    /// ([`crate::SimCache`]) rests on.
    pub fn context_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.topo.fingerprint().hash(&mut h);
        self.spec.properties.hash(&mut h);
        self.tests.hash(&mut h);
        h.finish()
    }

    /// Full verification: simulate everything, evaluate every test.
    pub fn run_full(&self, cfg: &NetworkConfig) -> (Verification, SimOutcome) {
        let sim = Simulator::new(self.topo, cfg);
        self.run_with(&sim)
    }

    /// [`Verifier::run_full`] over a precompiled base: nothing is
    /// recompiled or re-established, only the per-prefix simulation runs.
    pub fn run_full_from(&self, base: &CompiledBase<'_>) -> (Verification, SimOutcome) {
        let sim = Simulator::from_base(base);
        self.run_with(&sim)
    }

    /// Shared tail of the full-verification entry points.
    fn run_with(&self, sim: &Simulator<'_>) -> (Verification, SimOutcome) {
        // Destructure instead of cloning: `evaluate` needs the outcome
        // maps by shared reference alongside the arena by mutable
        // reference, which field-level borrows provide for free.
        let SimOutcome {
            outcomes,
            fibs,
            mut arena,
            session_diags,
        } = sim.run();
        let verification = self.evaluate(sim, &outcomes, &fibs, &mut arena, &session_diags[..]);
        (
            verification,
            SimOutcome {
                outcomes,
                fibs,
                arena,
                session_diags,
            },
        )
    }

    /// [`Verifier::run_full`] through the memo-cache: an exact fingerprint
    /// hit returns a clone of the first computation (bit-identical, since
    /// the simulator is deterministic) without simulating anything.
    pub fn run_full_cached(
        &self,
        cfg: &NetworkConfig,
        cache: &crate::SimCache,
    ) -> (Verification, SimOutcome) {
        let key = (self.context_fingerprint(), cfg.fingerprint());
        if let Some(hit) = cache.peek_full(key) {
            return (hit.0.clone(), hit.1.clone());
        }
        let (verification, outcome) = self.run_full(cfg);
        cache.insert_full(key, (verification.clone(), outcome.clone()));
        (verification, outcome)
    }

    /// Evaluates the test suite against precomputed simulation state.
    /// Shared by the full and incremental paths. Generic over `Borrow` so
    /// the candidate-validation path can pass outcome *references* into
    /// the committed cache instead of cloning them.
    pub(crate) fn evaluate<O: Borrow<PrefixOutcome>>(
        &self,
        sim: &Simulator<'_>,
        outcomes: &BTreeMap<Prefix, O>,
        fibs: &[acr_sim::Fib],
        arena: &mut DerivArena,
        session_diags: &[SessionDiag],
    ) -> Verification {
        let mut records = Vec::with_capacity(self.tests.len());
        let mut matrix = CoverageMatrix::new();
        let flapping: Vec<Prefix> = outcomes
            .iter()
            .filter(|(_, o)| !Borrow::<PrefixOutcome>::borrow(*o).is_converged())
            .map(|(p, _)| *p)
            .collect();

        for test in &self.tests {
            let prop = &self.spec.properties[test.property];
            // Control-plane roots: every simulated prefix covering dst.
            let mut roots: Vec<DerivId> = Vec::new();
            let mut reject_roots: Vec<DerivId> = Vec::new();
            let mut flap_hit: Option<Prefix> = None;
            for (p, o) in outcomes {
                let o = o.borrow();
                if p.contains(test.flow.dst) {
                    roots.extend(o.deriv_roots());
                    reject_roots.extend_from_slice(o.rejection_roots());
                    if !o.is_converged() && flap_hit.is_none() {
                        flap_hit = Some(*p);
                    }
                }
            }

            let (passed, violation, path) = if let Some(p) = flap_hit {
                // A flapping destination fails every property kind: the
                // network has no stable behaviour to certify.
                (false, Some(Violation::Flapping(p)), Vec::new())
            } else {
                let res =
                    forward::walk(self.topo, sim.models(), fibs, test.start, &test.flow, arena);
                roots.extend(res.derivs.iter().copied());
                let (passed, violation) = judge(&prop.kind, &res);
                (passed, violation, res.path)
            };

            if !passed {
                // Negative provenance: rejected announcements of the
                // destination prefix are candidate explanations of the
                // failure (a deny-type fault leaves no positive trace).
                roots.extend(reject_roots);
            }
            let mut lines = arena.closure_lines(roots.iter().copied());
            if !passed {
                // Negative provenance (Y!-style): a failed test also
                // "covers" the candidate explanations for the missing
                // behaviour — down-session lines and the origination
                // statements of the destination's owner. Without this,
                // omission faults (e.g. a missing `import-route static`)
                // leave the failure covering nothing and SBFL blind.
                for d in session_diags {
                    lines.extend(d.lines.iter().copied());
                }
                lines.extend(negative_origin_lines(
                    self.topo,
                    sim.models(),
                    test.flow.dst,
                ));
                lines.sort_unstable();
                lines.dedup();
            }
            matrix.push(TestCoverage {
                test: test.id,
                passed,
                lines: lines.into_iter().collect(),
            });
            records.push(TestRecord {
                id: test.id,
                property: prop.name.clone(),
                kind: prop.kind.clone(),
                flow: test.flow,
                start: test.start,
                passed,
                violation,
                path,
                deriv_roots: roots,
            });
        }
        Verification {
            records,
            matrix,
            flapping,
            session_diags: session_diags.to_vec(),
        }
    }
}

/// Candidate origination lines for an unreachable destination: the BGP
/// process, matching static routes, matching `network` statements and the
/// redistribution statements on the router that owns the destination.
fn negative_origin_lines<M: Borrow<acr_cfg::DeviceModel>>(
    topo: &Topology,
    models: &[M],
    dst: acr_net_types::Ipv4Addr,
) -> Vec<acr_cfg::LineId> {
    let Some(owner) = topo.delivery_router(dst) else {
        return Vec::new();
    };
    let m = models[owner.index()].borrow();
    let mut lines = Vec::new();
    if let Some((_, l)) = m.asn {
        lines.push(acr_cfg::LineId::new(owner, l));
    }
    for sr in &m.static_routes {
        if sr.prefix.contains(dst) {
            lines.push(acr_cfg::LineId::new(owner, sr.line));
        }
    }
    for (p, l) in &m.networks {
        if p.contains(dst) {
            lines.push(acr_cfg::LineId::new(owner, *l));
        }
    }
    for (_, l) in &m.redistribute {
        lines.push(acr_cfg::LineId::new(owner, *l));
    }
    lines
}

/// Applies a property kind to a walk result.
fn judge(kind: &PropertyKind, res: &forward::ForwardResult) -> (bool, Option<Violation>) {
    match kind {
        PropertyKind::Reachability => match &res.outcome {
            ForwardOutcome::Delivered(_) => (true, None),
            ForwardOutcome::Loop(path) => (false, Some(Violation::ForwardingLoop(path.clone()))),
            ForwardOutcome::NoRoute(r) => (false, Some(Violation::Blackhole(*r))),
            ForwardOutcome::DroppedNull0(r)
            | ForwardOutcome::DroppedPbr(r)
            | ForwardOutcome::DroppedBadRedirect(r) => (false, Some(Violation::Dropped(*r))),
        },
        PropertyKind::Isolation => match &res.outcome {
            ForwardOutcome::Delivered(r) => (false, Some(Violation::UnexpectedDelivery(*r))),
            ForwardOutcome::Loop(path) => (false, Some(Violation::ForwardingLoop(path.clone()))),
            _ => (true, None),
        },
        PropertyKind::Waypoint(via) => match &res.outcome {
            ForwardOutcome::Delivered(_) if res.path.contains(via) => (true, None),
            ForwardOutcome::Delivered(_) => (false, Some(Violation::WaypointMissed(*via))),
            ForwardOutcome::Loop(path) => (false, Some(Violation::ForwardingLoop(path.clone()))),
            ForwardOutcome::NoRoute(r) => (false, Some(Violation::Blackhole(*r))),
            ForwardOutcome::DroppedNull0(r)
            | ForwardOutcome::DroppedPbr(r)
            | ForwardOutcome::DroppedBadRedirect(r) => (false, Some(Violation::Dropped(*r))),
        },
        PropertyKind::Avoids(banned) => match &res.outcome {
            ForwardOutcome::Delivered(_) if !res.path.contains(banned) => (true, None),
            ForwardOutcome::Delivered(_) => (false, Some(Violation::ForbiddenTransit(*banned))),
            ForwardOutcome::Loop(path) => (false, Some(Violation::ForwardingLoop(path.clone()))),
            ForwardOutcome::NoRoute(r) => (false, Some(Violation::Blackhole(*r))),
            ForwardOutcome::DroppedNull0(r)
            | ForwardOutcome::DroppedPbr(r)
            | ForwardOutcome::DroppedBadRedirect(r) => (false, Some(Violation::Dropped(*r))),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Property;
    use acr_cfg::parse::parse_device;
    use acr_topo::gen;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// R0 — R1 — R2 with 10.0/16 at R0 and 10.2/16 at R2, full BGP.
    fn scenario() -> (Topology, NetworkConfig, Spec) {
        let topo = gen::line(3);
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
        ];
        let mut cfg = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(cfgs) {
            cfg.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        let spec = Spec::new()
            .with(Property::reach(
                "r0->r2",
                RouterId(0),
                p("10.0.0.0/16"),
                p("10.2.0.0/16"),
            ))
            .with(Property::reach(
                "r2->r0",
                RouterId(2),
                p("10.2.0.0/16"),
                p("10.0.0.0/16"),
            ));
        (topo, cfg, spec)
    }

    #[test]
    fn healthy_network_passes_everything() {
        let (topo, cfg, spec) = scenario();
        let verifier = Verifier::new(&topo, &spec);
        let (v, _) = verifier.run_full(&cfg);
        assert!(v.all_passed(), "{:?}", v.records);
        assert_eq!(v.matrix.totals(), (2, 0));
        assert!(v.flapping.is_empty());
    }

    #[test]
    fn broken_session_fails_with_blackhole() {
        let (topo, mut cfg, spec) = scenario();
        // Break R1->R2 by mangling the AS number.
        cfg.insert(
            RouterId(1),
            parse_device(
                "R1",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 64999\n",
            )
            .unwrap(),
        );
        let verifier = Verifier::new(&topo, &spec);
        let (v, _) = verifier.run_full(&cfg);
        assert_eq!(v.failed_count(), 2);
        for rec in v.failures() {
            assert!(
                matches!(rec.violation, Some(Violation::Blackhole(_))),
                "{rec:?}"
            );
        }
        // Failed coverage includes the session-diag lines (the bad peer
        // statement on R1 is line 3).
        let failed_cov = v.matrix.failure_covered_lines();
        assert!(
            failed_cov.contains(&acr_cfg::LineId::new(RouterId(1), 3)),
            "{failed_cov:?}"
        );
    }

    #[test]
    fn isolation_property_inverts_verdict() {
        let (topo, cfg, _) = scenario();
        let spec = Spec::new().with(Property::isolate(
            "r0-x-r2",
            RouterId(0),
            p("10.0.0.0/16"),
            p("10.2.0.0/16"),
        ));
        let verifier = Verifier::new(&topo, &spec);
        let (v, _) = verifier.run_full(&cfg);
        assert_eq!(v.failed_count(), 1);
        assert!(matches!(
            v.records[0].violation,
            Some(Violation::UnexpectedDelivery(_))
        ));
    }

    #[test]
    fn waypoint_property_checks_path() {
        let (topo, cfg, _) = scenario();
        let via_r1 = Spec::new().with(Property {
            name: "via-r1".into(),
            hs: acr_net_types::HeaderSpace::between(p("10.0.0.0/16"), p("10.2.0.0/16")),
            start: RouterId(0),
            kind: PropertyKind::Waypoint(RouterId(1)),
        });
        let verifier = Verifier::new(&topo, &via_r1);
        let (v, _) = verifier.run_full(&cfg);
        assert!(v.all_passed());

        let via_r9 = Spec::new().with(Property {
            name: "via-missing".into(),
            hs: acr_net_types::HeaderSpace::between(p("10.0.0.0/16"), p("10.2.0.0/16")),
            start: RouterId(0),
            kind: PropertyKind::Waypoint(RouterId(0)),
        });
        // Waypoint = start router trivially holds; use an unreachable id
        // via a fresh spec instead.
        let verifier = Verifier::new(&topo, &via_r9);
        let (v, _) = verifier.run_full(&cfg);
        assert!(v.all_passed());
    }

    #[test]
    fn passed_coverage_reaches_remote_origin_lines() {
        let (topo, cfg, spec) = scenario();
        let verifier = Verifier::new(&topo, &spec);
        let (v, _) = verifier.run_full(&cfg);
        // Test 0 (R0 -> 10.2/16): coverage includes R2's network line (2).
        let cov = &v.matrix.tests()[0].lines;
        assert!(
            cov.contains(&acr_cfg::LineId::new(RouterId(2), 2)),
            "{cov:?}"
        );
        // ... and R1's transit peer lines.
        assert!(
            cov.contains(&acr_cfg::LineId::new(RouterId(1), 2)),
            "{cov:?}"
        );
    }

    #[test]
    fn records_carry_paths_and_roots() {
        let (topo, cfg, spec) = scenario();
        let verifier = Verifier::new(&topo, &spec);
        let (v, out) = verifier.run_full(&cfg);
        let rec = &v.records[0];
        assert_eq!(rec.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
        assert!(!rec.deriv_roots.is_empty());
        // Roots are valid in the returned arena.
        let lines = out.arena.closure_lines(rec.deriv_roots.iter().copied());
        assert!(!lines.is_empty());
    }
}
