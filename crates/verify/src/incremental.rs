//! DNA-style incremental verification.
//!
//! The paper's observation (3): "incremental network verification … can
//! fast check the correctness of a configuration change for large networks
//! in seconds", which is what makes validating many candidate updates
//! affordable. Our incremental verifier exploits the simulator's
//! per-prefix decomposition:
//!
//! 1. per-prefix outcomes from the previous verification are cached, along
//!    with their configuration-line closures, in a **persistent
//!    content-addressed arena** (old derivation ids stay valid),
//! 2. a new configuration plus the patch that produced it yields the set
//!    of *affected prefixes*: those whose closure touches an edited region,
//!    those overlapping prefix literals in inserted/replaced statements,
//!    and those whose origination set changed,
//! 3. only affected prefixes are re-simulated; FIB assembly and packet
//!    walks (cheap) run on the merged state.
//!
//! Simulation state is held in a [`CompiledBase`] (`acr-sim`): candidate
//! simulators are delta-built from it, recompiling only patched devices
//! and re-establishing sessions only where establishment can change. The
//! base's delta analysis ([`acr_sim::DeltaInfo`]) also drives session
//! invalidation: instead of resetting the per-prefix cache on *every*
//! `bgp`/`peer`/`group`-shaped edit, only **structural** session changes
//! (a session or diagnostic appearing, disappearing, or changing its
//! endpoints or policy bindings) force a full reset; edits that merely
//! renumber lines are caught by the closure-region rule. Crucially, the
//! analysis runs whether or not delta *construction* is enabled, so
//! recompute/reuse decisions — and therefore repair reports — are
//! byte-identical with the optimisation on or off.

use crate::spec::Spec;
use crate::verify::{Verification, Verifier};
use acr_cfg::model::DeviceModel;
use acr_cfg::{Edit, LineId, NetworkConfig, Patch, Stmt};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_sim::{
    bgp_fragment, CompiledBase, DeltaInfo, DerivArena, Fib, FibEntry, PolicyMemo, PrefixOutcome,
    ResidentBase, RunOptions, SessionDelta, Simulator,
};
use acr_topo::Topology;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

static PREFIXES_RECOMPUTED: Counter = Counter::new("verify.prefixes_recomputed");
static PREFIXES_REUSED: Counter = Counter::new("verify.prefixes_reused");
// Invalidation breadth (prefixes re-simulated) by why the cache missed:
// cold = no memo yet, structural/lines_only/unchanged = the candidate
// patch's session-delta class, full = full reset without a delta analysis.
static INV_COLD: Counter = Counter::new("verify.invalidated.cold");
static INV_FULL: Counter = Counter::new("verify.invalidated.full");
static INV_STRUCTURAL: Counter = Counter::new("verify.invalidated.structural");
static INV_LINES_ONLY: Counter = Counter::new("verify.invalidated.lines_only");
static INV_UNCHANGED: Counter = Counter::new("verify.invalidated.unchanged");
// FIB-fragment reuse: per-router base FIBs (connected + static) are
// rebuilt only when the router's device model changed (delta builds share
// unpatched models by `Arc`), and per-prefix BGP fragments are re-derived
// only for freshly simulated prefixes.
static FIB_ROUTERS_REBUILT: Counter = Counter::new("verify.fib_routers_rebuilt");
static FIB_ROUTERS_REUSED: Counter = Counter::new("verify.fib_routers_reused");
static FIB_FRAGS_RECOMPUTED: Counter = Counter::new("verify.fib_frags_recomputed");
static FIB_FRAGS_REUSED: Counter = Counter::new("verify.fib_frags_reused");
// Warm-state suspend/resume (the resident daemon path): a resume hit
// re-installs every cache for a byte-identical configuration; a miss
// means the fingerprints diverged and the caller must commit cold.
static RESUME_HITS: Counter = Counter::new("verify.resume.hits");
static RESUME_MISSES: Counter = Counter::new("verify.resume.misses");

/// Rebuilds, in place, the base FIB of exactly those routers whose device
/// model is not the `Arc` the cache was computed against; returns
/// `(rebuilt, reused)` counts. Skipped rebuilds are sound because a base
/// FIB is a pure function of (topology, device model), and skipped
/// derivation interns would have been dedup hits in the content-addressed
/// arena — so the arena stays byte-identical to assembling from scratch.
fn refresh_base_fibs(
    fibs: &mut [Fib],
    cached_models: &[Arc<DeviceModel>],
    sim: &Simulator,
    arena: &mut DerivArena,
) -> (u64, u64) {
    let (mut rebuilt, mut reused) = (0u64, 0u64);
    for (i, m) in sim.models().iter().enumerate() {
        if Arc::ptr_eq(m, &cached_models[i]) {
            reused += 1;
        } else {
            fibs[i] = sim.base_fib_of(RouterId(i as u32), arena);
            rebuilt += 1;
        }
    }
    (rebuilt, reused)
}

/// Attributes `n` invalidated prefixes to their session-delta class.
fn count_invalidated(n: u64, cold: bool, info: Option<&DeltaInfo>) {
    if !acr_obs::enabled(acr_obs::METRICS) {
        return;
    }
    let c = match (cold, info.map(|i| i.session_delta)) {
        (true, _) => &INV_COLD,
        (false, Some(SessionDelta::Structural)) => &INV_STRUCTURAL,
        (false, Some(SessionDelta::LinesOnly)) => &INV_LINES_ONLY,
        (false, Some(SessionDelta::Unchanged)) => &INV_UNCHANGED,
        (false, None) => &INV_FULL,
    };
    c.add(n);
}

/// Statistics of one incremental verification call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Prefixes re-simulated this call.
    pub recomputed: usize,
    /// Prefixes served from cache.
    pub reused: usize,
    /// Devices compiled to build this call's simulator (delta path:
    /// patched devices only).
    pub compiled_devices: usize,
    /// Routers whose session establishment was recomputed.
    pub established_routers: usize,
    /// Wall-clock compiling device models (and origin-index maintenance).
    pub compile: Duration,
    /// Wall-clock establishing BGP sessions.
    pub establish: Duration,
    /// Wall-clock simulating affected prefixes and assembling FIBs.
    pub simulate: Duration,
    /// Within `simulate`: wall-clock of per-prefix convergence alone
    /// (worklist iteration, warm probes) — excludes merging and FIBs.
    pub converge: Duration,
    /// Affected prefixes whose converged fixed point was warm-started
    /// from the committed base instead of re-iterated (still counted in
    /// `recomputed`, so recompute/reuse accounting is identical whether
    /// or not delta mode allows warm starts).
    pub warm_reused: usize,
}

/// A verifier that caches per-prefix results between calls.
pub struct IncrementalVerifier<'a> {
    verifier: Verifier<'a>,
    arena: DerivArena,
    cached: BTreeMap<Prefix, PrefixOutcome>,
    /// Closure lines per cached prefix, for invalidation tests.
    closures: BTreeMap<Prefix, BTreeSet<LineId>>,
    /// Compiled state of the most recently verified configuration — the
    /// base candidates are delta-built against.
    base: Option<CompiledBase<'a>>,
    /// Whether candidate simulators reuse the base (construction only;
    /// invalidation analysis is identical either way).
    delta: bool,
    /// Policy-transfer memo kept alive across the committed run and the
    /// sequential candidate loop. Entries reference the persistent
    /// `arena` (content-addressed, ids never invalidated); per-candidate
    /// staleness is handled by [`PolicyMemo::begin_run`], which drops
    /// entries on sessions adjacent to patched routers.
    memo: PolicyMemo,
    /// Per-router base FIBs (connected + static) of the committed
    /// configuration, and the device models they were computed against —
    /// a router's base FIB is reused while its model `Arc` is unchanged.
    fib_base: Vec<Fib>,
    fib_models: Vec<Arc<DeviceModel>>,
    /// Per-prefix BGP FIB fragments, keyed like the outcome cache: the
    /// install list `(router index, entry)` derived from each cached
    /// prefix's converged best routes.
    fib_frags: BTreeMap<Prefix, Vec<(usize, FibEntry)>>,
    last_stats: IncrementalStats,
}

impl<'a> IncrementalVerifier<'a> {
    /// Creates an empty (cold) incremental verifier.
    pub fn new(topo: &'a Topology, spec: &'a Spec) -> Self {
        Self::with_samples(topo, spec, 1)
    }

    /// Like [`IncrementalVerifier::new`] with `samples` packets per
    /// property.
    pub fn with_samples(topo: &'a Topology, spec: &'a Spec, samples: u32) -> Self {
        IncrementalVerifier {
            verifier: Verifier::with_samples(topo, spec, samples),
            arena: DerivArena::new(),
            cached: BTreeMap::new(),
            closures: BTreeMap::new(),
            base: None,
            delta: true,
            memo: PolicyMemo::new(),
            fib_base: Vec::new(),
            fib_models: Vec::new(),
            fib_frags: BTreeMap::new(),
            last_stats: IncrementalStats::default(),
        }
    }

    /// The underlying (stateless) verifier.
    pub fn verifier(&self) -> &Verifier<'a> {
        &self.verifier
    }

    /// Enables or disables delta construction of candidate simulators.
    /// Off, every candidate compiles from scratch; the invalidation
    /// analysis (and thus every verdict and statistic except wall-clock)
    /// is unaffected.
    pub fn set_delta(&mut self, delta: bool) {
        self.delta = delta;
    }

    /// The compiled base of the most recently verified configuration.
    pub fn base(&self) -> Option<&CompiledBase<'a>> {
        self.base.as_ref()
    }

    /// Stats of the most recent call.
    pub fn last_stats(&self) -> IncrementalStats {
        self.last_stats
    }

    /// The persistent arena (derivation roots in returned records resolve
    /// here).
    pub fn arena(&self) -> &DerivArena {
        &self.arena
    }

    /// Verifies `cfg`. When `patch` describes how `cfg` differs from the
    /// previously verified configuration, only affected prefixes are
    /// re-simulated; with `None` (or on the first call) everything runs.
    pub fn verify(&mut self, cfg: &NetworkConfig, patch: Option<&Patch>) -> Verification {
        self.verify_impl(cfg, patch, false)
    }

    /// [`IncrementalVerifier::verify`] with control over the policy
    /// memo's lifetime. The public path always resets it (the committed
    /// models changed); the resume path keeps it, which is sound
    /// because resumption is fingerprint-gated to the *identical*
    /// configuration — the memoized transfers were computed against the
    /// very `Arc`'d models being re-installed, and `begin_run` still
    /// drops entries poisoned by the suspended run's last candidate.
    fn verify_impl(
        &mut self,
        cfg: &NetworkConfig,
        patch: Option<&Patch>,
        keep_memo: bool,
    ) -> Verification {
        // Establish the compiled base. With a previous base and a patch
        // relating the two configurations, advance it (sharing untouched
        // state); otherwise compile from scratch. The delta analysis runs
        // either way so invalidation is toggle-independent.
        let (base, info) = match (self.base.take(), patch) {
            (Some(prev), Some(p)) if !self.cached.is_empty() => {
                if self.delta {
                    let (base, info) = prev.advance(cfg, p);
                    (base, Some(info))
                } else {
                    let info = prev.analyze(cfg, p);
                    (CompiledBase::new(self.verifier.topo(), cfg), Some(info))
                }
            }
            _ => (CompiledBase::new(self.verifier.topo(), cfg), None),
        };
        let build = match &info {
            Some(i) if self.delta => i.build,
            _ => base.build_stats(),
        };
        let sim = Simulator::from_base(&base);
        let universe = sim.universe();

        let cold = self.cached.is_empty();
        let affected: BTreeSet<Prefix> = match (&info, patch) {
            (Some(i), Some(p))
                if !self.cached.is_empty() && i.session_delta != SessionDelta::Structural =>
            {
                narrowed_affected(&self.closures, &self.cached, p, cfg, &universe, i)
            }
            _ => universe.clone(),
        };

        // Drop cache entries for prefixes that left the universe.
        self.cached.retain(|p, _| universe.contains(p));
        self.closures.retain(|p, _| universe.contains(p));
        self.fib_frags.retain(|p, _| universe.contains(p));

        let t = Instant::now();
        // The committed path never warm-starts: its outcomes seed the
        // cache (and the persistent arena), so they are always computed
        // cold against the new configuration. The policy memo is reset
        // (the committed models changed) and re-seeded by this run, so
        // the first candidate already finds the base's transfers. A
        // resumed verifier keeps its memo instead — see `verify_impl`.
        if !keep_memo {
            self.memo = PolicyMemo::new();
        }
        self.memo.begin_run(sim.sessions_arc(), &[]);
        let (fresh, _) = sim.run_prefixes_with(
            &affected,
            &mut self.arena,
            &RunOptions::default(),
            &mut self.memo,
        );
        let converge = t.elapsed();
        PREFIXES_RECOMPUTED.add(fresh.len() as u64);
        PREFIXES_REUSED.add(universe.len().saturating_sub(fresh.len()) as u64);
        count_invalidated(fresh.len() as u64, cold, info.as_ref());
        self.last_stats = IncrementalStats {
            recomputed: fresh.len(),
            reused: universe.len().saturating_sub(fresh.len()),
            compiled_devices: build.compiled_devices,
            established_routers: build.established_routers,
            compile: build.compile,
            establish: build.establish,
            simulate: Duration::ZERO,
            converge,
            warm_reused: 0,
        };
        for (p, o) in fresh {
            // Closures include rejection roots: a prefix whose route was
            // *denied* by a statement depends on that statement too, and
            // must be invalidated when it is edited or deleted.
            let roots: Vec<_> = o
                .deriv_roots()
                .into_iter()
                .chain(o.rejection_roots().iter().copied())
                .collect();
            let closure: BTreeSet<LineId> = self.arena.closure_lines(roots).into_iter().collect();
            self.closures.insert(p, closure);
            self.fib_frags.insert(p, bgp_fragment(&o));
            self.cached.insert(p, o);
        }

        // FIB assembly from cached pieces: rebuild base FIBs only for
        // routers whose model changed, and BGP fragments only for the
        // prefixes just re-simulated (fragments of reused prefixes are
        // already cached). Identical output to `sim.fibs_for` — install
        // order across prefixes is irrelevant (distinct trie keys) and
        // base entries always precede BGP installs.
        let models = sim.models();
        if self.fib_base.len() != models.len() {
            self.fib_base = sim.base_fibs(&mut self.arena);
            FIB_ROUTERS_REBUILT.add(models.len() as u64);
        } else {
            let (rebuilt, reused) =
                refresh_base_fibs(&mut self.fib_base, &self.fib_models, &sim, &mut self.arena);
            FIB_ROUTERS_REBUILT.add(rebuilt);
            FIB_ROUTERS_REUSED.add(reused);
        }
        self.fib_models = models.to_vec();
        FIB_FRAGS_RECOMPUTED.add(self.last_stats.recomputed as u64);
        FIB_FRAGS_REUSED.add((self.fib_frags.len() - self.last_stats.recomputed) as u64);
        let mut fibs = self.fib_base.clone();
        for (prefix, frag) in &self.fib_frags {
            for (i, entry) in frag {
                fibs[*i].install(*prefix, entry.clone());
            }
        }
        self.last_stats.simulate = t.elapsed();
        self.base = Some(base);
        self.verifier.evaluate(
            &sim,
            &self.cached,
            &fibs,
            &mut self.arena,
            sim.session_diags(),
        )
    }

    /// Verifies a **candidate** configuration (`cfg` = committed base +
    /// `patch`, where `patch` is expressed relative to the committed base)
    /// *without* updating the cache — the repair engine's inner loop. The
    /// persistent arena still grows (content-addressed, so cached ids stay
    /// valid), but per-prefix results of the base remain authoritative.
    pub fn verify_candidate(&mut self, cfg: &NetworkConfig, patch: &Patch) -> Verification {
        let validator = CandidateValidator {
            verifier: &self.verifier,
            cached: &self.cached,
            closures: &self.closures,
            base: self.base.as_ref(),
            delta: self.delta,
            fib_base: &self.fib_base,
            fib_models: &self.fib_models,
            fib_frags: &self.fib_frags,
        };
        let (verification, stats) =
            validator.verify_candidate_with(cfg, patch, &mut self.arena, Some(&mut self.memo));
        self.last_stats = stats;
        verification
    }

    /// A read-only view for validating candidates against the committed
    /// base. Because it borrows the verifier's state immutably, any
    /// number of worker threads can share one validator; each supplies
    /// its own arena (seed it with a clone of
    /// [`IncrementalVerifier::arena`] so cached derivation ids resolve).
    pub fn validator(&self) -> CandidateValidator<'_, 'a> {
        CandidateValidator {
            verifier: &self.verifier,
            cached: &self.cached,
            closures: &self.closures,
            base: self.base.as_ref(),
            delta: self.delta,
            fib_base: &self.fib_base,
            fib_models: &self.fib_models,
            fib_frags: &self.fib_frags,
        }
    }

    /// Re-interns `v`'s derivation closures from `src` (a worker's
    /// private arena or a cache entry's pruned arena) into the
    /// persistent arena, returning a clone whose roots resolve here.
    pub fn absorb_verification(&mut self, v: &Verification, src: &DerivArena) -> Verification {
        crate::cache::rebase_verification(v, src, &mut self.arena)
    }

    /// Commits a new base configuration (e.g. after an iteration adopted a
    /// candidate): fully re-verifies and caches it.
    pub fn commit(&mut self, cfg: &NetworkConfig) -> Verification {
        self.cached.clear();
        self.closures.clear();
        self.verify(cfg, None)
    }

    /// Consumes the verifier into an owned, borrow-free [`WarmState`] a
    /// resident daemon can park between incidents: the detached compiled
    /// base, the per-prefix outcome/closure/FIB-fragment caches, the
    /// persistent arena, and the policy memo (which carries the route
    /// interner). Returns `None` when nothing was ever committed.
    pub fn suspend(self) -> Option<WarmState> {
        let base = self.base?;
        Some(WarmState {
            ctx_fp: self.verifier.context_fingerprint(),
            base_fp: base.cfg_fingerprint(),
            base: base.detach(),
            arena: self.arena,
            cached: self.cached,
            closures: self.closures,
            memo: self.memo,
            fib_base: self.fib_base,
            fib_models: self.fib_models,
            fib_frags: self.fib_frags,
        })
    }

    /// Rehydrates a suspended verifier for `cfg`. When `warm` was
    /// suspended under the same verifier context (topology, spec, sample
    /// count) *and* the byte-identical configuration, every cache is
    /// re-installed and the returned [`Verification`] is recomputed from
    /// cached per-prefix outcomes — **zero prefixes re-simulated, zero
    /// devices recompiled**. On any fingerprint mismatch the warm state
    /// is discarded and a cold verifier comes back as the error (commit
    /// it yourself).
    ///
    /// The fingerprint gate is what makes re-installing sound: an equal
    /// `context_fingerprint` pins (topology, spec, samples), an equal
    /// config fingerprint pins every statement of every device, and all
    /// cached state — outcomes, closures, memoized transfers, FIBs — is
    /// a pure function of those inputs.
    pub fn resume(
        topo: &'a Topology,
        spec: &'a Spec,
        samples: u32,
        delta: bool,
        warm: WarmState,
        cfg: &NetworkConfig,
    ) -> Result<(Self, Verification), Box<Self>> {
        let iv = Self::with_samples(topo, spec, samples);
        Self::resume_with(iv, delta, warm, cfg)
    }

    /// [`IncrementalVerifier::resume`] over an already-constructed cold
    /// verifier — avoids regenerating the test suite when the caller
    /// probed a warm-slot registry against this verifier's
    /// [`Verifier::context_fingerprint`] first (the multi-slot session
    /// LRU path). Same contract: on a fingerprint mismatch the warm
    /// state is discarded and the (cold) verifier comes back as the
    /// error.
    pub fn resume_with(
        mut iv: Self,
        delta: bool,
        warm: WarmState,
        cfg: &NetworkConfig,
    ) -> Result<(Self, Verification), Box<Self>> {
        iv.set_delta(delta);
        if warm.ctx_fp != iv.verifier.context_fingerprint() || warm.base_fp != cfg.fingerprint() {
            RESUME_MISSES.inc();
            return Err(Box::new(iv));
        }
        iv.arena = warm.arena;
        iv.cached = warm.cached;
        iv.closures = warm.closures;
        iv.memo = warm.memo;
        iv.fib_base = warm.fib_base;
        iv.fib_models = warm.fib_models;
        iv.fib_frags = warm.fib_frags;
        iv.base = Some(CompiledBase::attach(iv.verifier.topo(), warm.base));
        // Re-verify through the ordinary incremental path with an empty
        // patch: the delta analysis proves nothing changed, the affected
        // set is empty, and `evaluate` replays the cached outcomes into
        // a Verification byte-identical to the suspended run's.
        let empty = Patch::new();
        let v = iv.verify_impl(cfg, Some(&empty), true);
        RESUME_HITS.inc();
        Ok((iv, v))
    }
}

/// Owned warm state of a suspended [`IncrementalVerifier`] — everything
/// reusable across repair runs of the *same* committed configuration,
/// free of topology/spec borrows so a registry can keep it alive between
/// incidents. Produced by [`IncrementalVerifier::suspend`], consumed by
/// [`IncrementalVerifier::resume`].
pub struct WarmState {
    ctx_fp: u64,
    base_fp: u64,
    base: ResidentBase,
    arena: DerivArena,
    cached: BTreeMap<Prefix, PrefixOutcome>,
    closures: BTreeMap<Prefix, BTreeSet<LineId>>,
    memo: PolicyMemo,
    fib_base: Vec<Fib>,
    fib_models: Vec<Arc<DeviceModel>>,
    fib_frags: BTreeMap<Prefix, Vec<(usize, FibEntry)>>,
}

impl WarmState {
    /// Fingerprint of the committed configuration this state serves.
    pub fn base_fingerprint(&self) -> u64 {
        self.base_fp
    }

    /// Whether this state can resume a verifier for `cfg` under the
    /// given verifier context fingerprint.
    pub fn matches(&self, ctx_fp: u64, cfg: &NetworkConfig) -> bool {
        self.ctx_fp == ctx_fp && self.base_fp == cfg.fingerprint()
    }
}

/// A shareable, read-only candidate validator: the immutable half of an
/// [`IncrementalVerifier`]. It never mutates the per-prefix memo, so a
/// candidate's verdict is a pure function of (committed base state,
/// candidate config, patch) — which is what lets the repair engine fan a
/// batch of candidates out over threads without any result depending on
/// scheduling.
pub struct CandidateValidator<'v, 'a> {
    verifier: &'v Verifier<'a>,
    cached: &'v BTreeMap<Prefix, PrefixOutcome>,
    closures: &'v BTreeMap<Prefix, BTreeSet<LineId>>,
    base: Option<&'v CompiledBase<'a>>,
    delta: bool,
    /// The committed base FIBs, their models, and per-prefix fragments
    /// (read-only views of the owning verifier's caches): candidates
    /// rebuild base FIBs only for routers the patch recompiled and reuse
    /// fragments of every prefix served from the outcome cache.
    fib_base: &'v [Fib],
    fib_models: &'v [Arc<DeviceModel>],
    fib_frags: &'v BTreeMap<Prefix, Vec<(usize, FibEntry)>>,
}

impl<'v, 'a> CandidateValidator<'v, 'a> {
    /// The underlying (stateless) verifier.
    pub fn verifier(&self) -> &'v Verifier<'a> {
        self.verifier
    }

    /// Verifies a candidate configuration against the committed base;
    /// see [`IncrementalVerifier::verify_candidate`]. Derivation roots of
    /// the returned records resolve in `arena`, which must contain the
    /// committed base's derivations (clone of the persistent arena).
    pub fn verify_candidate(
        &self,
        cfg: &NetworkConfig,
        patch: &Patch,
        arena: &mut DerivArena,
    ) -> (Verification, IncrementalStats) {
        self.verify_candidate_with(cfg, patch, arena, None)
    }

    /// [`CandidateValidator::verify_candidate`] with an optional
    /// **cross-candidate policy memo**. The memo's entries reference
    /// `arena` ids, so the same `(arena, memo)` pair must be threaded
    /// through every call (the sequential repair loop owns exactly one of
    /// each). Reuse is sound only while candidate simulators share the
    /// committed base's device models for unpatched routers — i.e. under
    /// delta construction — and [`PolicyMemo::begin_run`] drops entries
    /// on sessions adjacent to routers the patch (or the previous
    /// candidate's patch) touched, re-homing the rest by endpoint pair
    /// when the session list changed shape. What survives — unchanged
    /// `Arc`-shared device models evaluating pure transfer functions
    /// over content-identical sessions — is byte-exact to recomputing,
    /// so verdicts, derivations, and rejection records are unchanged.
    pub fn verify_candidate_with(
        &self,
        cfg: &NetworkConfig,
        patch: &Patch,
        arena: &mut DerivArena,
        memo: Option<&mut PolicyMemo>,
    ) -> (Verification, IncrementalStats) {
        // Build the candidate simulator: delta-compiled from the shared
        // base when enabled, from scratch otherwise. The delta *analysis*
        // runs in both modes so the affected-prefix set (and with it every
        // verdict and count) is identical.
        let (sim, info) = match self.base {
            Some(base) if self.delta => {
                let sim = Simulator::from_base_with_patch(base, cfg, patch);
                let info = sim.delta_info().cloned();
                (sim, info)
            }
            Some(base) => {
                let info = base.analyze(cfg, patch);
                (Simulator::new(self.verifier.topo(), cfg), Some(info))
            }
            None => (Simulator::new(self.verifier.topo(), cfg), None),
        };
        let build = sim.build_stats();
        let universe = sim.universe();
        let full_reset = self.cached.is_empty()
            || match &info {
                Some(i) => i.session_delta == SessionDelta::Structural,
                // No compiled base to analyze against: fall back to the
                // conservative statement-kind test.
                None => patch_resets_sessions(patch, cfg),
            };
        let affected: BTreeSet<Prefix> = if full_reset {
            universe.clone()
        } else {
            let mut set = affected_by(self.closures, patch, cfg, &universe);
            for p in &universe {
                if !self.cached.contains_key(p) {
                    set.insert(*p);
                }
            }
            if let Some(i) = &info {
                extend_with_delta_info(&mut set, &universe, i);
            }
            set
        };
        // Warm-start eligibility: only under delta mode, only when the
        // analysis proved the patch leaves the BGP dynamics unchanged
        // (`DeltaInfo::warm_eligible`), and never across a full reset.
        // Warm reuse is byte-exact (probe-verified fixed-point replay),
        // so verdicts and recompute/reuse counts are still identical with
        // delta mode off.
        let warm_ok = self.delta && !full_reset && info.as_ref().is_some_and(|i| i.warm_eligible);
        // The cross-candidate memo is sound exactly when this candidate
        // was delta-built: unchanged routers then hold the base's own
        // `Arc`'d models, so a memoized transfer between two unpatched
        // endpoints is pure in inputs the patch cannot reach. Structural
        // session changes are fine — `begin_run` re-homes surviving
        // slots by endpoint pair — so `full_reset` (a prefix-cache
        // concern) does not disqualify the memo.
        let memo_ok = self.delta && info.is_some();
        let mut local_memo = PolicyMemo::new();
        let memo = match memo {
            Some(m) if memo_ok => {
                let mut changed: Vec<RouterId> = patch.edits.iter().map(Edit::router).collect();
                changed.sort_unstable();
                changed.dedup();
                m.begin_run(sim.sessions_arc(), &changed);
                m
            }
            _ => &mut local_memo,
        };
        let t = Instant::now();
        let opts = RunOptions {
            warm: if warm_ok { Some(self.cached) } else { None },
            ..RunOptions::default()
        };
        let (fresh, work) = sim.run_prefixes_with(&affected, arena, &opts, memo);
        let converge = t.elapsed();
        PREFIXES_RECOMPUTED.add(fresh.len() as u64);
        PREFIXES_REUSED.add(universe.len().saturating_sub(fresh.len()) as u64);
        count_invalidated(fresh.len() as u64, self.cached.is_empty(), info.as_ref());
        let mut stats = IncrementalStats {
            recomputed: fresh.len(),
            reused: universe.len().saturating_sub(fresh.len()),
            compiled_devices: build.compiled_devices,
            established_routers: build.established_routers,
            compile: build.compile,
            establish: build.establish,
            simulate: Duration::ZERO,
            converge,
            warm_reused: work.warm_reused as usize,
        };
        // Merge: fresh results override the cache; prefixes outside the
        // candidate's universe are dropped. The map holds *references*
        // (cache entries are read-only here), so validating a candidate
        // never deep-clones the committed per-prefix state.
        let mut merged: BTreeMap<Prefix, &PrefixOutcome> = self
            .cached
            .iter()
            .filter(|(p, _)| universe.contains(*p))
            .map(|(p, o)| (*p, o))
            .collect();
        for (p, o) in &fresh {
            merged.insert(*p, o);
        }
        // Candidate FIB assembly mirrors the committed path: start from
        // the committed base FIBs (under delta construction, unpatched
        // routers still hold the committed model `Arc`s, so only patched
        // routers rebuild), install cached fragments for reused prefixes
        // and derive fragments only for re-simulated ones. A validator
        // with no committed FIB state falls back to full assembly.
        let fibs = if self.fib_base.len() == sim.models().len() {
            let mut fibs = self.fib_base.to_vec();
            let (rebuilt, reused) = refresh_base_fibs(&mut fibs, self.fib_models, &sim, arena);
            FIB_ROUTERS_REBUILT.add(rebuilt);
            FIB_ROUTERS_REUSED.add(reused);
            let (mut frags_fresh, mut frags_reused) = (0u64, 0u64);
            for (p, o) in &merged {
                match self.fib_frags.get(p) {
                    Some(frag) if !fresh.contains_key(p) => {
                        frags_reused += 1;
                        for (i, entry) in frag {
                            fibs[*i].install(*p, entry.clone());
                        }
                    }
                    _ => {
                        frags_fresh += 1;
                        for (i, entry) in bgp_fragment(o) {
                            fibs[i].install(*p, entry);
                        }
                    }
                }
            }
            FIB_FRAGS_RECOMPUTED.add(frags_fresh);
            FIB_FRAGS_REUSED.add(frags_reused);
            fibs
        } else {
            sim.fibs_for(&merged, arena)
        };
        stats.simulate = t.elapsed();
        let verification = self
            .verifier
            .evaluate(&sim, &merged, &fibs, arena, sim.session_diags());
        (verification, stats)
    }
}

/// Folds a delta analysis into an affected-prefix set: prefixes whose
/// origination changed, plus universe prefixes overlapping literals that a
/// `Delete` edit may have removed.
fn extend_with_delta_info(set: &mut BTreeSet<Prefix>, universe: &BTreeSet<Prefix>, i: &DeltaInfo) {
    for p in &i.changed_origin_prefixes {
        if universe.contains(p) {
            set.insert(*p);
        }
    }
    for lit in &i.delete_literals {
        for p in universe {
            if p.overlaps(*lit) {
                set.insert(*p);
            }
        }
    }
}

/// The narrowed affected set for [`IncrementalVerifier::verify`]: region
/// rule + literal overlap + universe newcomers + delta-analysis findings.
fn narrowed_affected(
    closures: &BTreeMap<Prefix, BTreeSet<LineId>>,
    cached: &BTreeMap<Prefix, PrefixOutcome>,
    patch: &Patch,
    cfg: &NetworkConfig,
    universe: &BTreeSet<Prefix>,
    info: &DeltaInfo,
) -> BTreeSet<Prefix> {
    let mut set = affected_by(closures, patch, cfg, universe);
    // Prefixes new to the universe must be simulated.
    for p in universe {
        if !cached.contains_key(p) {
            set.insert(*p);
        }
    }
    extend_with_delta_info(&mut set, universe, info);
    set
}

/// The prefixes a patch can affect, given the cached per-prefix closures
/// and the *new* configuration.
fn affected_by(
    closures: &BTreeMap<Prefix, BTreeSet<LineId>>,
    patch: &Patch,
    cfg: &NetworkConfig,
    universe: &BTreeSet<Prefix>,
) -> BTreeSet<Prefix> {
    // Lowest edited statement index per device: every line at or after
    // it may have shifted, so any cached closure touching that region
    // is stale.
    let mut min_line: BTreeMap<RouterId, u32> = BTreeMap::new();
    let mut literals: Vec<Prefix> = Vec::new();
    for edit in &patch.edits {
        let (router, index, stmt) = match edit {
            Edit::Insert {
                router,
                index,
                stmt,
            } => (*router, *index, Some(stmt)),
            Edit::Replace {
                router,
                index,
                stmt,
            } => (*router, *index, Some(stmt)),
            Edit::Delete { router, index } => (*router, *index, None),
        };
        let line = index as u32 + 1;
        min_line
            .entry(router)
            .and_modify(|m| *m = (*m).min(line))
            .or_insert(line);
        if let Some(stmt) = stmt {
            literals.extend(prefix_literals(stmt));
        }
        // A delete's statement is gone from `cfg`, but whatever it
        // mentioned is covered by the closure-region rule.
        let _ = cfg;
    }

    let mut out = BTreeSet::new();
    for (p, closure) in closures {
        let stale = closure
            .iter()
            .any(|l| min_line.get(&l.router).is_some_and(|m| l.line >= *m));
        if stale {
            out.insert(*p);
        }
    }
    for lit in &literals {
        for p in universe {
            if p.overlaps(*lit) {
                out.insert(*p);
            }
        }
    }
    out
}

/// Whether a patch touches session-shaping statements in the *new* config
/// or deletes anything (a deleted statement's kind is unknown here, so be
/// conservative).
fn patch_resets_sessions(patch: &Patch, _cfg: &NetworkConfig) -> bool {
    patch.edits.iter().any(|e| match e {
        Edit::Insert { stmt, .. } | Edit::Replace { stmt, .. } => is_session_shaping(stmt),
        Edit::Delete { .. } => true,
    })
}

fn is_session_shaping(stmt: &Stmt) -> bool {
    matches!(
        stmt,
        Stmt::BgpProcess(_)
            | Stmt::PeerAs { .. }
            | Stmt::PeerGroup { .. }
            | Stmt::PeerPolicy { .. }
            | Stmt::GroupDef(_)
            | Stmt::Interface(_)
            | Stmt::IpAddress { .. }
    )
}

/// Prefix literals mentioned by a statement (for overlap-based
/// invalidation).
fn prefix_literals(stmt: &Stmt) -> Vec<Prefix> {
    match stmt {
        Stmt::Network(p) => vec![*p],
        Stmt::StaticRoute { prefix, .. } => vec![*prefix],
        Stmt::PrefixListEntry { prefix, .. } => vec![*prefix],
        Stmt::AclRule(r) => vec![r.src, r.dst],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Property;
    use acr_cfg::ast::{NextHop, PlAction};
    use acr_cfg::parse::parse_device;
    use acr_topo::gen;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// A 5-router line where each end originates a prefix; edits at one end
    /// must not invalidate the other end's prefix.
    fn scenario() -> (Topology, NetworkConfig, Spec) {
        let topo = gen::line(5);
        // Link i: .1+4i / .2+4i between Ri and Ri+1.
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n".to_string(),
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n".to_string(),
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n peer 172.16.0.10 as-number 65003\n".to_string(),
            "bgp 65003\n peer 172.16.0.9 as-number 65002\n peer 172.16.0.14 as-number 65004\n".to_string(),
            "bgp 65004\n network 10.4.0.0 16\n peer 172.16.0.13 as-number 65003\nip route-static 30.0.0.0 16 NULL0\n".to_string(),
        ];
        let mut cfg = NetworkConfig::new();
        for (r, c) in topo.routers().iter().zip(&cfgs) {
            cfg.insert(r.id, parse_device(r.name.clone(), c).unwrap());
        }
        let spec = Spec::new()
            .with(Property::reach(
                "to-east",
                RouterId(0),
                p("10.0.0.0/16"),
                p("10.4.0.0/16"),
            ))
            .with(Property::reach(
                "to-west",
                RouterId(4),
                p("10.4.0.0/16"),
                p("10.0.0.0/16"),
            ));
        (topo, cfg, spec)
    }

    #[test]
    fn cold_call_computes_everything() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let v = iv.verify(&cfg, None);
        assert!(v.all_passed());
        assert_eq!(iv.last_stats().recomputed, 2);
        assert_eq!(iv.last_stats().reused, 0);
    }

    #[test]
    fn unrelated_edit_reuses_cache() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        // Append an unrelated static route (99.0/16, NULL0) on R4: no
        // cached prefix closure touches it and it overlaps nothing cached —
        // but it *does* enter the universe (import-route? no, R4 has no
        // import-route static). So nothing is recomputed.
        let patch = Patch::single(Edit::Insert {
            router: RouterId(4),
            index: cfg.device(RouterId(4)).unwrap().len(),
            stmt: Stmt::StaticRoute {
                prefix: p("99.0.0.0/16"),
                next_hop: NextHop::Null0,
            },
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let v = iv.verify(&cfg2, Some(&patch));
        assert!(v.all_passed());
        assert_eq!(iv.last_stats().recomputed, 0, "{:?}", iv.last_stats());
        assert_eq!(iv.last_stats().reused, 2);
    }

    #[test]
    fn overlapping_literal_invalidates_prefix() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        // A prefix-list entry mentioning 10.4/16 forces recomputation of
        // that prefix only.
        let patch = Patch::single(Edit::Insert {
            router: RouterId(2),
            index: cfg.device(RouterId(2)).unwrap().len(),
            stmt: Stmt::PrefixListEntry {
                list: "l".into(),
                index: 10,
                action: PlAction::Permit,
                prefix: p("10.4.0.0/16"),
                ge: None,
                le: None,
            },
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let v = iv.verify(&cfg2, Some(&patch));
        assert!(v.all_passed());
        assert_eq!(iv.last_stats().recomputed, 1);
        assert_eq!(iv.last_stats().reused, 1);
    }

    #[test]
    fn session_edit_invalidates_everything() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        let patch = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 1,
            stmt: Stmt::PeerAs {
                peer: acr_cfg::PeerRef::Ip(acr_net_types::Ipv4Addr::new(172, 16, 0, 5)),
                asn: acr_net_types::Asn(64999),
            },
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let v = iv.verify(&cfg2, Some(&patch));
        assert_eq!(v.failed_count(), 2, "broken transit session fails both");
        assert_eq!(iv.last_stats().recomputed, 2);
    }

    #[test]
    fn incremental_matches_full_verification() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        // Edit that shifts lines on R0 (insert at top region) and touches
        // 10.0/16's closure.
        let patch = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 2,
            stmt: Stmt::Network(p("10.9.0.0/16")),
        });
        let cfg2 = patch.apply_cloned(&cfg).unwrap();
        let v_inc = iv.verify(&cfg2, Some(&patch));

        let verifier = Verifier::new(&topo, &spec);
        let (v_full, _) = verifier.run_full(&cfg2);
        assert_eq!(v_inc.failed_count(), v_full.failed_count());
        let inc: Vec<bool> = v_inc.records.iter().map(|r| r.passed).collect();
        let full: Vec<bool> = v_full.records.iter().map(|r| r.passed).collect();
        assert_eq!(inc, full);
        // Coverage matrices agree on the lines of every test.
        for (a, b) in v_inc.matrix.tests().iter().zip(v_full.matrix.tests()) {
            assert_eq!(a.lines, b.lines, "coverage must match full verification");
        }
    }

    #[test]
    fn suspend_resume_recomputes_nothing_and_matches_cold_commit() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        let v_cold = iv.verify(&cfg, None);
        let warm = iv.suspend().expect("committed verifier suspends");
        let Ok((mut iv2, v_warm)) = IncrementalVerifier::resume(&topo, &spec, 1, true, warm, &cfg)
        else {
            panic!("resume must hit on an identical configuration");
        };
        assert_eq!(iv2.last_stats().recomputed, 0, "resume must replay caches");
        assert_eq!(iv2.last_stats().reused, 2);
        assert_eq!(iv2.last_stats().compiled_devices, 0);
        assert_eq!(iv2.last_stats().established_routers, 0);
        let cold: Vec<bool> = v_cold.records.iter().map(|r| r.passed).collect();
        let warm: Vec<bool> = v_warm.records.iter().map(|r| r.passed).collect();
        assert_eq!(cold, warm);
        for (a, b) in v_cold.matrix.tests().iter().zip(v_warm.matrix.tests()) {
            assert_eq!(a.lines, b.lines, "coverage must survive suspend/resume");
        }
        // The resumed verifier keeps validating candidates correctly.
        let patch = Patch::single(Edit::Replace {
            router: RouterId(2),
            index: 1,
            stmt: Stmt::PeerAs {
                peer: acr_cfg::PeerRef::Ip(acr_net_types::Ipv4Addr::new(172, 16, 0, 5)),
                asn: acr_net_types::Asn(64999),
            },
        });
        let cand = patch.apply_cloned(&cfg).unwrap();
        let v = iv2.verify_candidate(&cand, &patch);
        assert_eq!(v.failed_count(), 2);
    }

    #[test]
    fn resume_rejects_mismatched_config() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        let warm = iv.suspend().unwrap();
        let patch = Patch::single(Edit::Insert {
            router: RouterId(0),
            index: 2,
            stmt: Stmt::Network(p("10.9.0.0/16")),
        });
        let other = patch.apply_cloned(&cfg).unwrap();
        assert!(!warm.matches(Verifier::new(&topo, &spec).context_fingerprint(), &other));
        let cold = IncrementalVerifier::resume(&topo, &spec, 1, true, warm, &other)
            .err()
            .expect("fingerprint mismatch must refuse to resume");
        let mut cold = *cold;
        let v = cold.commit(&other);
        assert!(v.all_passed());
        // Full universe: the two spec prefixes plus the inserted network.
        assert_eq!(cold.last_stats().recomputed, 3, "cold fallback runs full");
    }

    #[test]
    fn uncommitted_verifier_does_not_suspend() {
        let (topo, _cfg, spec) = scenario();
        let iv = IncrementalVerifier::new(&topo, &spec);
        assert!(iv.suspend().is_none());
    }

    #[test]
    fn repeated_incremental_calls_accumulate_correctly() {
        let (topo, cfg, spec) = scenario();
        let mut iv = IncrementalVerifier::new(&topo, &spec);
        iv.verify(&cfg, None);
        let mut current = cfg.clone();
        // Three successive unrelated edits, all cache-friendly.
        for i in 0..3u8 {
            let patch = Patch::single(Edit::Insert {
                router: RouterId(4),
                index: current.device(RouterId(4)).unwrap().len(),
                stmt: Stmt::StaticRoute {
                    prefix: Prefix::from_octets(99, i, 0, 0, 16),
                    next_hop: NextHop::Null0,
                },
            });
            current = patch.apply_cloned(&current).unwrap();
            let v = iv.verify(&current, Some(&patch));
            assert!(v.all_passed());
            assert_eq!(iv.last_stats().recomputed, 0);
        }
    }
}
