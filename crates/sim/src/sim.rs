//! The top-level simulator: configs + topology → routes, FIBs, forwarding.

use crate::base::{compile_device, CompiledBase, DeltaInfo, SimBuild};
use crate::bgp::{
    index_sessions, run_prefix_dense, run_prefix_sparse, warm_probe, ConvergeEngine, ConvergeWork,
    PolicyMemo, PrefixOutcome, RouterCtx, SparseScratch,
};
use crate::deriv::{DerivArena, DerivId};
use crate::fib::{base_fib, bgp_fragment, Fib};
use crate::forward::{walk, ForwardResult};
use crate::origin::OriginIndex;
use crate::session::{establish, Session, SessionDiag};
use acr_cfg::model::DeviceModel;
use acr_cfg::{NetworkConfig, Patch};
use acr_net_types::{Flow, Prefix, RouterId};
use acr_obs::metrics::{Counter, Histogram};
use acr_obs::span;
use acr_topo::Topology;
use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

static COMPILED_DEVICES: Counter = Counter::new("sim.compiled_devices");
static ESTABLISHED_ROUTERS: Counter = Counter::new("sim.established_routers");
static SIM_RUNS: Counter = Counter::new("sim.runs");
static SIM_PREFIXES: Counter = Counter::new("sim.prefixes_run");
static SIM_FLAPPING: Counter = Counter::new("sim.prefixes_flapping");
/// Rounds-to-convergence per prefix run (flapping prefixes observe the
/// round their cycle was first seen plus its length — the work done).
static CONVERGENCE_ROUNDS: Histogram =
    Histogram::new("sim.convergence_rounds", &[1, 2, 4, 8, 16, 32, 64]);
// Sparse-engine work accounting (see `ConvergeWork` for the definitions).
static SIM_ROUTERS_RECOMPUTED: Counter = Counter::new("sim.routers_recomputed");
static SIM_ROUTERS_SKIPPED: Counter = Counter::new("sim.routers_skipped");
static SIM_POLICY_EVALS: Counter = Counter::new("sim.policy_evals");
static SIM_POLICY_MEMO_HITS: Counter = Counter::new("sim.policy_memo_hits");
static SIM_WARM_PROBES: Counter = Counter::new("sim.warm_probes");
static SIM_WARM_REUSED: Counter = Counter::new("sim.warm_reused");
static SIM_WARM_FALLBACKS: Counter = Counter::new("sim.warm_fallbacks");

/// Options for a per-prefix simulation run.
pub struct RunOptions<'w> {
    /// Which convergence engine to use. Defaults to the process default
    /// ([`ConvergeEngine::from_env`]): sparse unless `ACR_SPARSE=0`.
    pub engine: ConvergeEngine,
    /// Warm-start source: previously computed outcomes whose converged
    /// fixed points may be probed and reused ([`warm_probe`]). The caller
    /// must only supply this when the patch provably leaves the BGP
    /// dynamics unchanged (the incremental verifier's `warm_eligible`
    /// guard) — the probe is the runtime check behind that guard, and a
    /// failed probe falls back to a cold run.
    pub warm: Option<&'w BTreeMap<Prefix, PrefixOutcome>>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            engine: ConvergeEngine::from_env(),
            warm: None,
        }
    }
}

/// A compiled simulation context: semantic models, established sessions
/// and the origination index for one (topology, configuration) pair.
/// Cheap to query. Built from scratch ([`Simulator::new`]) or — the
/// repair loop's hot path — as a delta against a [`CompiledBase`]
/// ([`Simulator::from_base_with_patch`]), where only the devices a patch
/// touches are recompiled and everything else is shared by `Arc`.
pub struct Simulator<'a> {
    topo: &'a Topology,
    models: Vec<Arc<DeviceModel>>,
    sessions: Arc<Vec<Session>>,
    session_diags: Arc<Vec<SessionDiag>>,
    origin: Arc<OriginIndex>,
    build: SimBuild,
    delta: Option<DeltaInfo>,
}

impl<'a> Simulator<'a> {
    /// Compiles `cfg` against `topo`. Routers present in the topology but
    /// absent from the configuration get an empty model (they forward
    /// nothing and peer with nobody).
    pub fn new(topo: &'a Topology, cfg: &NetworkConfig) -> Self {
        let t = Instant::now();
        let models: Vec<Arc<DeviceModel>> = {
            let _s = span!("sim.compile", "sim").arg("devices", topo.routers().len() as u64);
            topo.routers()
                .iter()
                .map(|r| Arc::new(compile_device(cfg, r.id, &r.name)))
                .collect()
        };
        let origin = Arc::new(OriginIndex::build(topo, &models));
        let compile = t.elapsed();
        let t = Instant::now();
        let (sessions, session_diags) = {
            let _s = span!("sim.establish", "sim");
            establish(topo, &models)
        };
        let n = models.len();
        COMPILED_DEVICES.add(n as u64);
        ESTABLISHED_ROUTERS.add(n as u64);
        Simulator {
            topo,
            models,
            sessions: Arc::new(sessions),
            session_diags: Arc::new(session_diags),
            origin,
            build: SimBuild {
                compile,
                establish: t.elapsed(),
                compiled_devices: n,
                established_routers: n,
                delta: false,
            },
            delta: None,
        }
    }

    /// A simulator over the base configuration itself: every structure is
    /// shared with `base`, nothing is recompiled.
    pub fn from_base(base: &CompiledBase<'a>) -> Self {
        Simulator {
            topo: base.topo(),
            models: base.models().to_vec(),
            sessions: base.sessions().clone(),
            session_diags: base.session_diags().clone(),
            origin: base.origin().clone(),
            build: SimBuild {
                delta: true,
                ..SimBuild::default()
            },
            delta: None,
        }
    }

    /// The delta constructor: `cfg` must equal `base`'s configuration
    /// with `patch` applied. Only devices the patch touches are
    /// recompiled; session establishment re-runs only for routers whose
    /// peer stanzas or AS values changed (plus their neighbors). The
    /// result is field-for-field identical to `Simulator::new(topo, cfg)`
    /// — see [`crate::base`] for the argument and the proptest suite for
    /// the evidence.
    pub fn from_base_with_patch(
        base: &CompiledBase<'a>,
        cfg: &NetworkConfig,
        patch: &Patch,
    ) -> Self {
        let d = base.delta(cfg, patch);
        Simulator {
            topo: base.topo(),
            models: d.models,
            sessions: d.sessions,
            session_diags: d.session_diags,
            origin: d.origin,
            build: d.info.build,
            delta: Some(d.info),
        }
    }

    /// The semantic models, indexed by `RouterId::index()`.
    pub fn models(&self) -> &[Arc<DeviceModel>] {
        &self.models
    }

    /// Established sessions.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Established sessions behind their shared handle (what a
    /// cross-run [`PolicyMemo`] keys its slot layout against).
    pub fn sessions_arc(&self) -> &Arc<Vec<Session>> {
        &self.sessions
    }

    /// Why configured peers are down.
    pub fn session_diags(&self) -> &[SessionDiag] {
        &self.session_diags
    }

    /// The topology this simulator runs over.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// Construction cost accounting for this simulator.
    pub fn build_stats(&self) -> SimBuild {
        self.build
    }

    /// What the delta build learned about the patch (`None` for full
    /// builds and patchless base shares).
    pub fn delta_info(&self) -> Option<&DeltaInfo> {
        self.delta.as_ref()
    }

    /// All prefixes any router originates into BGP — the per-prefix
    /// simulation universe (precomputed in the origination index).
    pub fn universe(&self) -> BTreeSet<Prefix> {
        self.origin.universe()
    }

    /// Runs every prefix in the universe.
    pub fn run(&self) -> SimOutcome {
        let universe = self.universe();
        self.run_prefixes(&universe)
    }

    /// Runs exactly `prefixes` into a fresh arena.
    pub fn run_prefixes(&self, prefixes: &BTreeSet<Prefix>) -> SimOutcome {
        let mut arena = DerivArena::new();
        let outcomes = self.run_prefixes_into(prefixes, &mut arena);
        let fibs = self.fibs_for(&outcomes, &mut arena);
        SimOutcome {
            outcomes,
            fibs,
            arena,
            session_diags: self.session_diags.clone(),
        }
    }

    /// Runs exactly `prefixes`, interning derivations into a caller-owned
    /// arena. Because the arena is content-addressed and append-only,
    /// cached [`PrefixOutcome`]s from earlier runs stay valid — this is
    /// what the DNA-style incremental verifier builds on.
    pub fn run_prefixes_into(
        &self,
        prefixes: &BTreeSet<Prefix>,
        arena: &mut DerivArena,
    ) -> BTreeMap<Prefix, PrefixOutcome> {
        self.run_prefixes_opts(prefixes, arena, &RunOptions::default())
            .0
    }

    /// [`Simulator::run_prefixes_into`] with an explicit engine choice and
    /// optional warm-start source, returning the work performed. The
    /// explicit engine keeps differential tests and `exp_converge` free of
    /// process-global environment races.
    pub fn run_prefixes_opts(
        &self,
        prefixes: &BTreeSet<Prefix>,
        arena: &mut DerivArena,
        opts: &RunOptions<'_>,
    ) -> (BTreeMap<Prefix, PrefixOutcome>, ConvergeWork) {
        let mut memo = PolicyMemo::new();
        self.run_prefixes_with(prefixes, arena, opts, &mut memo)
    }

    /// [`Simulator::run_prefixes_opts`] with a caller-owned policy memo.
    /// Keeping one memo alive across runs (the incremental verifier's
    /// candidate loop) lets transfers on sessions a patch cannot reach
    /// come back as hash hits instead of re-evaluations; the caller is
    /// responsible for [`PolicyMemo::begin_run`] between runs and for
    /// only reusing a memo across runs that share `arena` and a
    /// positionally identical session list.
    pub fn run_prefixes_with(
        &self,
        prefixes: &BTreeSet<Prefix>,
        arena: &mut DerivArena,
        opts: &RunOptions<'_>,
        memo: &mut PolicyMemo,
    ) -> (BTreeMap<Prefix, PrefixOutcome>, ConvergeWork) {
        let routers: Vec<RouterCtx<'_>> = self
            .topo
            .routers()
            .iter()
            .map(|r| RouterCtx {
                id: r.id,
                model: self.models[r.id.index()].as_ref(),
                asn: self.models[r.id.index()].asn.map(|(a, _)| a),
            })
            .collect();
        let _s = span!("sim.simulate", "sim").arg("prefixes", prefixes.len() as u64);
        SIM_RUNS.inc();
        SIM_PREFIXES.add(prefixes.len() as u64);
        let mut outcomes = BTreeMap::new();
        let mut work = ConvergeWork::default();
        // Hoisted across prefixes: the session index is prefix-independent
        // and the sparse scratch is cleared (not reallocated) per prefix.
        let sessions_of = index_sessions(&self.sessions, routers.len());
        let mut scratch = SparseScratch::new();
        for prefix in prefixes {
            let orig = self.origin.dense(*prefix, self.models.len());
            let mut outcome = None;
            if let Some(warm) = opts.warm {
                if let Some(base) = warm.get(prefix).filter(|o| o.is_converged()) {
                    outcome = warm_probe(
                        *prefix,
                        &routers,
                        &self.sessions,
                        &sessions_of,
                        &orig,
                        arena,
                        memo,
                        base,
                        &mut work,
                    );
                    if outcome.is_some() {
                        work.prefixes += 1;
                    } else {
                        work.warm_fallbacks += 1;
                    }
                }
            }
            let outcome = outcome.unwrap_or_else(|| match opts.engine {
                ConvergeEngine::Dense => run_prefix_dense(
                    *prefix,
                    &routers,
                    &self.sessions,
                    &sessions_of,
                    &orig,
                    arena,
                    &mut work,
                ),
                ConvergeEngine::Sparse => run_prefix_sparse(
                    *prefix,
                    &routers,
                    &self.sessions,
                    &sessions_of,
                    &orig,
                    arena,
                    memo,
                    &mut scratch,
                    &mut work,
                ),
            });
            match &outcome {
                PrefixOutcome::Converged { rounds, .. } => {
                    CONVERGENCE_ROUNDS.observe(*rounds as u64);
                }
                PrefixOutcome::Flapping {
                    first_seen_round,
                    cycle_len,
                    ..
                } => {
                    SIM_FLAPPING.inc();
                    CONVERGENCE_ROUNDS.observe((first_seen_round + cycle_len) as u64);
                }
            }
            outcomes.insert(*prefix, outcome);
        }
        SIM_ROUTERS_RECOMPUTED.add(work.recomputed_routers);
        SIM_ROUTERS_SKIPPED.add(work.skipped_routers);
        SIM_POLICY_EVALS.add(work.policy_evals);
        SIM_POLICY_MEMO_HITS.add(work.memo_hits);
        SIM_WARM_PROBES.add(work.warm_probes);
        SIM_WARM_REUSED.add(work.warm_reused);
        SIM_WARM_FALLBACKS.add(work.warm_fallbacks);
        (outcomes, work)
    }

    /// Assembles per-router FIBs from connected/static state plus the
    /// given per-prefix outcomes (flapping prefixes install nothing).
    /// Generic over `Borrow` so the incremental verifier can pass a
    /// merged map of *references* into its cache instead of deep-cloning
    /// every cached outcome per candidate.
    pub fn fibs_for<O: Borrow<PrefixOutcome>>(
        &self,
        outcomes: &BTreeMap<Prefix, O>,
        arena: &mut DerivArena,
    ) -> Vec<Fib> {
        let mut fibs = self.base_fibs(arena);
        for (prefix, outcome) in outcomes {
            for (i, entry) in bgp_fragment(outcome.borrow()) {
                fibs[i].install(*prefix, entry);
            }
        }
        fibs
    }

    /// The connected/static part of every router's FIB — everything
    /// [`Simulator::fibs_for`] installs before the per-prefix BGP
    /// fragments. Depends only on the topology and the device models, so
    /// the incremental verifier caches the result and rebuilds a single
    /// router's base FIB only when that router's model was swapped
    /// (re-interning an unchanged router's derivations would be pure
    /// dedup hits — skipping them leaves the arena byte-identical).
    pub fn base_fibs(&self, arena: &mut DerivArena) -> Vec<Fib> {
        self.topo
            .routers()
            .iter()
            .map(|r| self.base_fib_of(r.id, arena))
            .collect()
    }

    /// One router's connected/static base FIB (see [`Simulator::base_fibs`]).
    pub fn base_fib_of(&self, router: RouterId, arena: &mut DerivArena) -> Fib {
        base_fib(
            self.topo,
            router,
            self.models[router.index()].as_ref(),
            arena,
        )
    }

    /// Convenience: run everything and walk one flow.
    pub fn forward(&self, outcome: &mut SimOutcome, start: RouterId, flow: &Flow) -> ForwardResult {
        walk(
            self.topo,
            &self.models,
            &outcome.fibs,
            start,
            flow,
            &mut outcome.arena,
        )
    }
}

/// The result of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOutcome {
    /// Per-prefix control-plane outcome.
    pub outcomes: BTreeMap<Prefix, PrefixOutcome>,
    /// Per-router FIBs (indexed by `RouterId::index()`).
    pub fibs: Vec<Fib>,
    /// Provenance arena for every derivation in this run.
    pub arena: DerivArena,
    /// Session diagnostics (configured peers that are down). Shared with
    /// the simulator (and, on the delta path, with the compiled base)
    /// rather than deep-cloned per run.
    pub session_diags: Arc<Vec<SessionDiag>>,
}

impl SimOutcome {
    /// Prefixes that failed to converge.
    pub fn flapping(&self) -> Vec<Prefix> {
        self.outcomes
            .iter()
            .filter(|(_, o)| !o.is_converged())
            .map(|(p, _)| *p)
            .collect()
    }

    /// Derivation roots (for coverage) of one prefix's outcome.
    pub fn prefix_deriv_roots(&self, prefix: Prefix) -> Vec<DerivId> {
        self.outcomes
            .get(&prefix)
            .map(|o| o.deriv_roots())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::ForwardOutcome;
    use acr_cfg::parse::parse_device;
    use acr_cfg::LineId;
    use acr_net_types::Ipv4Addr;
    use acr_topo::{gen, Role, TopologyBuilder};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn netcfg(topo: &Topology, cfgs: &[&str]) -> NetworkConfig {
        let mut net = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(cfgs) {
            net.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        net
    }

    /// Full three-node line with network origination at both ends.
    fn line3_cfg() -> (Topology, NetworkConfig) {
        let topo = gen::line(3);
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n network 10.2.0.0 16\n peer 172.16.0.5 as-number 65001\n",
        ];
        let cfg = netcfg(&topo, &cfgs);
        (topo, cfg)
    }

    #[test]
    fn universe_collects_originations() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let u = sim.universe();
        assert_eq!(
            u,
            [p("10.0.0.0/16"), p("10.2.0.0/16")].into_iter().collect()
        );
    }

    #[test]
    fn end_to_end_reachability() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let mut out = sim.run();
        assert!(out.flapping().is_empty());
        // R0 -> 10.2/16 attached at R2.
        let flow = Flow::ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 2, 0, 1));
        let res = sim.forward(&mut out, RouterId(0), &flow);
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(2)));
        assert_eq!(res.path, vec![RouterId(0), RouterId(1), RouterId(2)]);
        // And the reverse direction.
        let flow = Flow::ip(Ipv4Addr::new(10, 2, 0, 1), Ipv4Addr::new(10, 0, 0, 1));
        let res = sim.forward(&mut out, RouterId(2), &flow);
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(0)));
    }

    #[test]
    fn coverage_of_forward_reaches_origin_lines() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let mut out = sim.run();
        let flow = Flow::ip(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 2, 0, 1));
        let res = sim.forward(&mut out, RouterId(0), &flow);
        let lines = out.arena.closure_lines(res.derivs);
        // R2's `network 10.2.0.0 16` is line 2 of its config.
        assert!(lines.contains(&LineId::new(RouterId(2), 2)), "{lines:?}");
        // R0's peer line (3) — its session carried the route.
        assert!(lines.contains(&LineId::new(RouterId(0), 3)), "{lines:?}");
    }

    #[test]
    fn missing_redistribution_blackholes() {
        // R2 reaches 20.0/16 behind R0 only if R0 redistributes its static.
        let topo = gen::line(3);
        let with = [
            "bgp 65000\n import-route static\n peer 172.16.0.2 as-number 65001\nip route-static 20.0.0.0 16 NULL0\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n",
        ];
        let without = [
            "bgp 65000\n peer 172.16.0.2 as-number 65001\nip route-static 20.0.0.0 16 NULL0\n",
            with[1],
            with[2],
        ];
        let dst = Ipv4Addr::new(20, 0, 0, 1);
        // Attach 20.0/16 to R0 so delivery succeeds there.
        let mut b = TopologyBuilder::new();
        let ids: Vec<RouterId> = (0..3)
            .map(|i| b.router(&format!("R{i}"), Role::Backbone))
            .collect();
        b.link(ids[0], ids[1]);
        b.link(ids[1], ids[2]);
        b.attach(ids[0], p("20.0.0.0/16"));
        let topo2 = b.build();
        let _ = topo;

        let cfg_ok = netcfg(&topo2, &with);
        let sim = Simulator::new(&topo2, &cfg_ok);
        let mut out = sim.run();
        let res = sim.forward(
            &mut out,
            RouterId(2),
            &Flow::ip(Ipv4Addr::new(9, 9, 9, 9), dst),
        );
        assert_eq!(res.outcome, ForwardOutcome::Delivered(RouterId(0)));

        let cfg_bad = netcfg(&topo2, &without);
        let sim = Simulator::new(&topo2, &cfg_bad);
        let mut out = sim.run();
        let res = sim.forward(
            &mut out,
            RouterId(2),
            &Flow::ip(Ipv4Addr::new(9, 9, 9, 9), dst),
        );
        assert_eq!(res.outcome, ForwardOutcome::NoRoute(RouterId(2)));
    }

    #[test]
    fn run_prefixes_subset_matches_full_run() {
        let (topo, cfg) = line3_cfg();
        let sim = Simulator::new(&topo, &cfg);
        let full = sim.run();
        let one: BTreeSet<Prefix> = [p("10.2.0.0/16")].into_iter().collect();
        let partial = sim.run_prefixes(&one);
        assert_eq!(partial.outcomes.len(), 1);
        // The subset result for the shared prefix agrees with the full run.
        let a = &full.outcomes[&p("10.2.0.0/16")];
        let b = &partial.outcomes[&p("10.2.0.0/16")];
        match (a, b) {
            (
                PrefixOutcome::Converged { best: ba, .. },
                PrefixOutcome::Converged { best: bb, .. },
            ) => {
                let ka: Vec<_> = ba.iter().map(|r| r.as_ref().map(|r| r.key())).collect();
                let kb: Vec<_> = bb.iter().map(|r| r.as_ref().map(|r| r.key())).collect();
                assert_eq!(ka, kb);
            }
            _ => panic!("both must converge"),
        }
    }

    #[test]
    fn unconfigured_router_is_inert() {
        let topo = gen::line(3);
        let mut cfg = NetworkConfig::new();
        // Only R0 configured; R1/R2 empty.
        cfg.insert(
            RouterId(0),
            parse_device(
                "R0",
                "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            )
            .unwrap(),
        );
        let sim = Simulator::new(&topo, &cfg);
        assert!(sim.sessions().is_empty());
        let out = sim.run();
        assert_eq!(out.outcomes.len(), 1);
        assert!(out.outcomes[&p("10.0.0.0/16")].is_converged());
    }

    #[test]
    fn session_diags_surface_in_outcome() {
        let topo = gen::line(2);
        let cfg = netcfg(
            &topo,
            &[
                "bgp 65000\n peer 172.16.0.2 as-number 64999\n",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n",
            ],
        );
        let sim = Simulator::new(&topo, &cfg);
        let out = sim.run();
        assert!(!out.session_diags.is_empty());
    }
}
