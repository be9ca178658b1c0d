//! The localize–fix–validate repair loop (Figure 4).
//!
//! Each iteration:
//!
//! 1. **Localize** — score every covered line of each surviving variant
//!    with SBFL (Tarantula by default) and take the most suspicious ones,
//! 2. **Fix** — instantiate the templates attached to those lines
//!    (brute-force Cartesian product, or genetic mutation + crossover),
//! 3. **Validate** — run each candidate through the DNA-style incremental
//!    verifier; the fitness of a candidate is its number of failed tests,
//!    and candidates with fitness above the previous iteration's are
//!    discarded (§5, Fitness Function).
//!
//! Termination (§5): a feasible update is found (fitness 0), no more
//! candidates can be generated (S = ∅), or the iteration cap (500) is hit.

use crate::ctx::RepairCtx;
use crate::session::NetworkSession;
use crate::strategy::{crossover, Strategy};
use crate::templates::{candidates_for_line, CandidateFix, TemplateKind};
use crate::universal::universal_candidates;
use crate::validate::{
    resolve_threads, validate_batch, CandidateOutcome, FlowGate, LintBase, LintMemo,
};
use acr_cfg::{DeviceModel, LineId, NetworkConfig, Patch};
use acr_lint::Diagnostic;
use acr_localize::{localize, localize_boosted, Ranking, SbflFormula};
use acr_net_types::SplitMix64;
use acr_obs::metrics::Counter;
use acr_obs::{journal, json, Stages};
use acr_sim::ShardedCache;
use acr_topo::Topology;
use acr_verify::{IncrementalVerifier, SimCache, Spec, Verification};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

static RUNS: Counter = Counter::new("engine.runs");
static ITERATIONS: Counter = Counter::new("engine.iterations");
static CAND_GENERATED: Counter = Counter::new("engine.candidates.generated");
static CAND_LINT_REJECTED: Counter = Counter::new("engine.candidates.lint_rejected");
static CAND_VALIDATED: Counter = Counter::new("engine.candidates.validated");
static CAND_CACHED: Counter = Counter::new("engine.candidates.cached");
static CAND_INVALID: Counter = Counter::new("engine.candidates.invalid");
static CAND_KEPT: Counter = Counter::new("engine.candidates.kept");
static CAND_FLOW_SKIPPED: Counter = Counter::new("engine.candidates.flow_skipped");
static FLOW_FIXPOINT_ITERATIONS: Counter = Counter::new("flow.fixpoint.iterations");
static FLOW_FACTS: Counter = Counter::new("flow.facts");
static RESIDENT_HITS: Counter = Counter::new("engine.resident.hits");
static RESIDENT_MISSES: Counter = Counter::new("engine.resident.misses");

/// The paper's iteration cap.
pub const DEFAULT_MAX_ITERATIONS: usize = 500;

/// Which change-operator vocabulary the engine draws candidates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatorSet {
    /// The curated Table-1 templates (the paper's current design).
    Curated,
    /// Donor-based universal operators only (the paper's §6 direction).
    Universal,
    /// Both vocabularies, deduplicated by the candidate patch.
    Both,
}

/// Engine tunables.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    pub max_iterations: usize,
    pub strategy: Strategy,
    pub formula: SbflFormula,
    /// RNG seed — repairs are fully reproducible.
    pub seed: u64,
    /// Population cap across iterations.
    pub max_population: usize,
    /// Test packets sampled per property.
    pub samples_per_property: u32,
    /// Restrict fix generation to these templates (`None` = all). Useful
    /// to reproduce a specific repair style, e.g. the paper's prefix-list
    /// adjustments on the Figure 2 incident. Only filters the curated
    /// vocabulary.
    pub allowed_templates: Option<Vec<TemplateKind>>,
    /// The operator vocabulary (curated templates, §6 universal donors,
    /// or both).
    pub operators: OperatorSet,
    /// Run the `acr-lint` static pass alongside the loop: lint findings
    /// boost SBFL suspiciousness, and candidates that introduce a *new*
    /// lint error (relative to the broken baseline) are rejected before
    /// they reach the simulator.
    pub lint: bool,
    /// Worker threads for the validate stage. `0` = available
    /// parallelism; `1` = the exact legacy sequential path. Results are
    /// byte-identical at every setting; the `ACR_THREADS` environment
    /// variable sets the default.
    pub threads: usize,
    /// The simulation memo-cache. Candidates whose rendered config was
    /// validated before (against the same base, topology and test
    /// suite) are served from memo and counted in
    /// [`RepairReport::validations_cached`]. Share one `Arc` across
    /// engines and baselines to pool their work; `None` disables
    /// memoization entirely.
    pub cache: Option<Arc<SimCache>>,
    /// Delta-compile candidate simulators against the committed base
    /// (recompiling only patched devices, re-establishing sessions only
    /// where they can change). Construction-only: invalidation analysis
    /// and therefore reports are byte-identical with this on or off. The
    /// `ACR_DELTA` environment variable sets the default (on unless
    /// `0`/`false`/`off`).
    pub delta: bool,
    /// The `acr-flow` static relevance gate: candidates whose patch is
    /// provably invisible to every spec property's prefix cone are
    /// served the base verification instead of being simulated (counted
    /// in [`RepairReport::validations_skipped`]). Serving is exact, so
    /// reports are byte-identical with this on or off; the flow
    /// analysis itself (lint rules, localization prior) always runs.
    /// The `ACR_FLOW` environment variable sets the default (on unless
    /// `0`/`false`/`off`).
    pub flow: bool,
    /// Free-form labels carried verbatim into [`RepairReport::tags`] and
    /// the run journal — the scenario harness stamps the scenario family
    /// (e.g. `family:interacting`) here so every report and journal line
    /// is attributable to its corpus slice. Never interpreted by the
    /// engine.
    pub tags: Vec<String>,
}

/// The `threads` default: the `ACR_THREADS` env var, else `0` (= auto).
fn default_threads() -> usize {
    std::env::var("ACR_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The `delta` default: on, unless `ACR_DELTA` says `0`/`false`/`off`.
fn default_delta() -> bool {
    !matches!(
        std::env::var("ACR_DELTA").ok().as_deref(),
        Some("0") | Some("false") | Some("off")
    )
}

/// The `flow` default: on, unless `ACR_FLOW` says `0`/`false`/`off`.
fn default_flow() -> bool {
    !matches!(
        std::env::var("ACR_FLOW").ok().as_deref(),
        Some("0") | Some("false") | Some("off")
    )
}

impl Default for RepairConfig {
    fn default() -> Self {
        RepairConfig {
            max_iterations: DEFAULT_MAX_ITERATIONS,
            strategy: Strategy::default(),
            formula: SbflFormula::Tarantula,
            seed: 7,
            max_population: 8,
            samples_per_property: 1,
            allowed_templates: None,
            operators: OperatorSet::Curated,
            lint: true,
            threads: default_threads(),
            cache: Some(Arc::new(SimCache::default())),
            delta: default_delta(),
            flow: default_flow(),
            tags: Vec::new(),
        }
    }
}

/// Provenance of one slice of a repair patch: which template produced
/// it, at which suspicious line, in which iteration, and how many edits
/// it contributed. A multi-patch repair's [`RepairReport::attribution`]
/// is the ordered list of segments behind the winning patch — the answer
/// to "which fix addressed which fault".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatchSegment {
    /// Iteration that produced this segment (0 = the empty root).
    pub iteration: usize,
    /// The producing operator: a `TemplateKind` debug name, `"crossover"`
    /// for recombined offspring, or `"pair"` for a beam pairwise combine.
    pub op: String,
    /// The suspicious line the operator expanded (crossover has none).
    pub origin: Option<LineId>,
    /// Edits this segment contributed to the full patch.
    pub edits: usize,
}

impl PatchSegment {
    fn of_fix(iteration: usize, fix: &CandidateFix) -> Self {
        PatchSegment {
            iteration,
            op: format!("{:?}", fix.template),
            origin: Some(fix.origin),
            edits: fix.patch.len(),
        }
    }
}

/// Per-iteration accounting (feeds the Figure 4 workflow experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationStats {
    pub iteration: usize,
    /// The iteration's fitness: the largest fitness among preserved
    /// updates (§5), or the previous fitness if nothing was preserved.
    pub fitness: usize,
    /// Best (lowest) fitness in the population after this iteration.
    pub best_fitness: usize,
    pub generated: usize,
    pub kept: usize,
    /// Control-plane prefixes re-simulated / reused across this
    /// iteration's validations.
    pub recomputed_prefixes: usize,
    pub reused_prefixes: usize,
    /// Candidates rejected by the static lint gate before simulation.
    pub lint_rejected: usize,
    /// Candidates actually simulated this iteration.
    pub validated: usize,
    /// Candidates served from the simulation memo-cache.
    pub cached: usize,
    /// Candidates whose patch failed to apply or re-parse.
    pub invalid: usize,
    /// Candidates skipped by the static relevance gate (served the base
    /// verification without simulation).
    pub flow_skipped: usize,
    /// Always 0: the engine validates every candidate concretely. Kept
    /// because the benchmark's report reader still reads it; removing it
    /// belongs to a later change of the benchmark.
    pub sym_validated: usize,
}

/// How a repair run ended.
#[derive(Debug, Clone)]
pub enum RepairOutcome {
    /// A feasible update: every test passes.
    Fixed {
        patch: Patch,
        repaired: NetworkConfig,
    },
    /// The candidate set dried up before reaching fitness 0.
    NoCandidates {
        best_patch: Patch,
        best_fitness: usize,
    },
    /// The iteration cap was reached.
    IterationLimit {
        best_patch: Patch,
        best_fitness: usize,
    },
}

impl RepairOutcome {
    /// Whether the run produced a feasible update.
    pub fn is_fixed(&self) -> bool {
        matches!(self, RepairOutcome::Fixed { .. })
    }
}

/// Wall-clock split across the repair loop's stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Initial commit of the broken configuration (base verification
    /// plus the lint baseline).
    pub commit: Duration,
    /// Localize + fix: candidate generation, summed over iterations.
    pub generate: Duration,
    /// Candidate validation (lint gate, memo-cache, simulation),
    /// summed over iterations.
    pub validate: Duration,
    /// Selection and population bookkeeping, summed over iterations.
    pub select: Duration,
    /// Within validation: device-model compilation (and origin-index
    /// maintenance), summed over every simulator build.
    pub sim_compile: Duration,
    /// Within validation: BGP session establishment.
    pub sim_establish: Duration,
    /// Within validation: per-prefix simulation and FIB assembly.
    pub sim_simulate: Duration,
    /// Within `sim_simulate`: per-prefix convergence alone (worklist
    /// iteration and warm-start probes, excluding merge/FIB assembly).
    pub sim_converge: Duration,
}

/// The full report of one repair run.
#[derive(Debug, Clone)]
pub struct RepairReport {
    pub outcome: RepairOutcome,
    pub iterations: Vec<IterationStats>,
    pub initial_failed: usize,
    /// Candidate validations that actually ran a simulation.
    pub validations: usize,
    /// Candidate validations served from the simulation memo-cache
    /// (identical verdicts, no simulation).
    pub validations_cached: usize,
    /// Candidate validations skipped entirely by the `acr-flow` static
    /// relevance gate (provably invisible patches, served the base
    /// verification).
    pub validations_skipped: usize,
    /// Always 0: the engine validates every candidate concretely. Kept
    /// because the benchmark's report reader still reads it; removing it
    /// belongs to a later change of the benchmark.
    pub validations_symbolic: usize,
    /// Per-stage wall-clock breakdown.
    pub stage: StageTimes,
    pub wall: Duration,
    /// Per-patch provenance of the best patch: one [`PatchSegment`] per
    /// operator application that built it, in application order.
    pub attribution: Vec<PatchSegment>,
    /// The [`RepairConfig::tags`] of the producing run, verbatim.
    pub tags: Vec<String>,
}

impl RepairReport {
    /// Number of iterations executed.
    pub fn iteration_count(&self) -> usize {
        self.iterations.len()
    }

    /// The candidate-accounting identity every report must satisfy:
    /// per iteration, every generated candidate lands in exactly one
    /// outcome bucket (`generated` equals the sum of `invalid`,
    /// `lint_rejected`, `validated`, `cached`, `flow_skipped` and
    /// `sym_validated`), so the candidates that survive the static
    /// gates decompose as *attempted = simulated plus cached plus
    /// flow-skipped plus sym-validated*; and the report totals are
    /// exactly the per-iteration sums. Returns a description of the
    /// first violated equation.
    pub fn check_accounting(&self) -> Result<(), String> {
        let (mut sim, mut cached, mut skipped, mut sym) = (0usize, 0usize, 0usize, 0usize);
        for it in &self.iterations {
            let buckets = it.invalid
                + it.lint_rejected
                + it.validated
                + it.cached
                + it.flow_skipped
                + it.sym_validated;
            if it.generated != buckets {
                return Err(format!(
                    "iteration {}: generated {} != invalid {} + lint_rejected {} + validated {} + cached {} + flow_skipped {} + sym_validated {}",
                    it.iteration, it.generated, it.invalid, it.lint_rejected, it.validated,
                    it.cached, it.flow_skipped, it.sym_validated
                ));
            }
            let attempted = it.generated - it.invalid - it.lint_rejected;
            if attempted != it.validated + it.cached + it.flow_skipped + it.sym_validated {
                return Err(format!(
                    "iteration {}: attempted {} != simulated {} + cached {} + flow_skipped {} + sym_validated {}",
                    it.iteration, attempted, it.validated, it.cached, it.flow_skipped,
                    it.sym_validated
                ));
            }
            sim += it.validated;
            cached += it.cached;
            skipped += it.flow_skipped;
            sym += it.sym_validated;
        }
        if sim != self.validations {
            return Err(format!(
                "validations {} != per-iteration sum {sim}",
                self.validations
            ));
        }
        if cached != self.validations_cached {
            return Err(format!(
                "validations_cached {} != per-iteration sum {cached}",
                self.validations_cached
            ));
        }
        if skipped != self.validations_skipped {
            return Err(format!(
                "validations_skipped {} != per-iteration sum {skipped}",
                self.validations_skipped
            ));
        }
        if sym != self.validations_symbolic {
            return Err(format!(
                "validations_symbolic {} != per-iteration sum {sym}",
                self.validations_symbolic
            ));
        }
        let attributed: usize = self.attribution.iter().map(|s| s.edits).sum();
        let patch_len = match &self.outcome {
            RepairOutcome::Fixed { patch, .. } => patch.len(),
            RepairOutcome::NoCandidates { best_patch, .. }
            | RepairOutcome::IterationLimit { best_patch, .. } => best_patch.len(),
        };
        if attributed != patch_len {
            return Err(format!(
                "attribution covers {attributed} edits but the best patch has {patch_len}"
            ));
        }
        Ok(())
    }
}

/// One surviving repair variant.
struct Variant {
    cfg: NetworkConfig,
    /// Patch from the *original* configuration (edits apply sequentially).
    patch: Patch,
    verification: Verification,
    fitness: usize,
    /// Lint findings on this variant (empty when linting is off) — they
    /// boost localization when the variant is expanded.
    diags: Vec<Diagnostic>,
    /// Provenance of `patch`, one segment per operator application.
    segments: Vec<PatchSegment>,
}

/// The repair engine, bound to a topology and spec.
pub struct RepairEngine<'a> {
    topo: &'a Topology,
    spec: &'a Spec,
    config: RepairConfig,
}

impl<'a> RepairEngine<'a> {
    /// Creates an engine with the given tunables.
    pub fn new(topo: &'a Topology, spec: &'a Spec, config: RepairConfig) -> Self {
        RepairEngine { topo, spec, config }
    }

    /// Creates an engine with default tunables.
    pub fn with_defaults(topo: &'a Topology, spec: &'a Spec) -> Self {
        Self::new(topo, spec, RepairConfig::default())
    }

    /// Runs localize–fix–validate on `original` until one of the paper's
    /// three termination conditions fires.
    pub fn repair(&self, original: &NetworkConfig) -> RepairReport {
        self.run(original, None)
    }

    /// [`RepairEngine::repair`] against resident per-network state: the
    /// daemon entry point. The session's warm verifier state is resumed
    /// when its fingerprints match `original` (skipping the full base
    /// verification), its [`SimCache`] replaces
    /// [`RepairConfig::cache`], lint/flow facts are served from
    /// per-fingerprint caches, and on return the verifier is suspended
    /// back into the session for the next incident. Reuse is
    /// decision-transparent: outcome, patch, fitness trajectory and
    /// generation/keep decisions are identical to a cold
    /// [`RepairEngine::repair`] with the same seed — only the
    /// validation-cost accounting (`validations` vs
    /// `validations_cached`, prefixes recomputed) moves.
    pub fn repair_resident(
        &self,
        original: &NetworkConfig,
        session: &mut NetworkSession,
    ) -> RepairReport {
        self.run(original, Some(session))
    }

    fn run(
        &self,
        original: &NetworkConfig,
        mut session: Option<&mut NetworkSession>,
    ) -> RepairReport {
        let stages = Stages::new();
        RUNS.inc();
        let commit_guard = stages.time("engine.commit", "engine");
        let mut rng = SplitMix64::new(self.config.seed);
        let samples = self.config.samples_per_property;
        // Resident resume: a warm verifier suspended against this exact
        // broken configuration replays its caches instead of committing
        // cold. The session keeps a small LRU of suspended slots keyed
        // by config fingerprint, so rotating job streams resume warm on
        // every revisit; when no slot matches, the cold probe verifier
        // is used as-is.
        let mut resumed: Option<Verification> = None;
        let mut iv = {
            let cold = IncrementalVerifier::with_samples(self.topo, self.spec, samples);
            if let Some(s) = session.as_mut() {
                let ctx_fp = cold.verifier().context_fingerprint();
                match s.take_warm(ctx_fp, original) {
                    Some(w) => {
                        match IncrementalVerifier::resume_with(cold, self.config.delta, w, original)
                        {
                            Ok((iv, v)) => {
                                s.resident_hits += 1;
                                RESIDENT_HITS.inc();
                                resumed = Some(v);
                                iv
                            }
                            Err(cold) => {
                                s.resident_misses += 1;
                                RESIDENT_MISSES.inc();
                                *cold
                            }
                        }
                    }
                    None => {
                        s.resident_misses += 1;
                        RESIDENT_MISSES.inc();
                        cold
                    }
                }
            } else {
                cold
            }
        };
        iv.set_delta(self.config.delta);
        let base_verification = match resumed {
            Some(v) => v,
            None => iv.commit(original),
        };
        let initial_failed = base_verification.failed_count();
        let fp = original.fingerprint();

        // Static baseline: the broken network's own lint findings. The
        // gate only rejects candidates that introduce *new* error keys —
        // pre-existing ones may well be the fault under repair. A
        // session serves the baseline from its per-fingerprint cache
        // (lint is a pure function of the configuration).
        let lint_base: Option<Arc<LintBase>> = self.config.lint.then(|| {
            if let Some(cached) = session.as_mut().and_then(|s| s.lint_for(fp)) {
                return cached;
            }
            let built = Arc::new(LintBase::build(self.topo, original));
            if let Some(s) = session.as_mut() {
                s.park_lint(fp, built.clone());
            }
            built
        });
        let base_diags = lint_base
            .as_ref()
            .map(|b| b.diags.clone())
            .unwrap_or_default();

        // Network-wide dataflow facts over the broken base. The
        // localization prior and the journal's flow summary use them
        // unconditionally (so `ACR_FLOW=0` cannot change trajectories);
        // `config.flow` only arms the candidate-skipping gate. Pure in
        // the configuration, so sessions cache them by fingerprint.
        let flow_facts: Arc<acr_flow::FlowFacts> =
            match session.as_mut().and_then(|s| s.flow_for(fp)) {
                Some(cached) => cached,
                None => {
                    let facts = Arc::new(acr_flow::analyze(self.topo, original));
                    FLOW_FIXPOINT_ITERATIONS.add(facts.iterations);
                    FLOW_FACTS.add(facts.fact_count() as u64);
                    if let Some(s) = session.as_mut() {
                        s.park_flow(fp, facts.clone());
                    }
                    facts
                }
            };
        let flow_prior = flow_prior(self.spec, &base_verification, &flow_facts);
        let flow_gate = self.config.flow.then(|| FlowGate {
            protected: self.spec.properties.iter().map(|p| p.hs.dst).collect(),
            base: base_verification.clone(),
        });

        // Validate-stage plumbing: the memo-cache keys every candidate
        // under (verifier context, committed base, candidate config),
        // the lint memo is per-run (its verdicts depend on the base),
        // and `threads` sizes the scoped worker pool. A session's
        // cross-job cache takes precedence over the per-run one.
        let ctx_base = (iv.verifier().context_fingerprint(), fp);
        let cache_arc = match session.as_ref() {
            Some(s) => Some(s.cache.clone()),
            None => self.config.cache.clone(),
        };
        let cache = cache_arc.as_deref();
        let lint_base = lint_base.as_deref();
        let lint_memo: LintMemo = ShardedCache::with_capacity(4096);
        let threads = resolve_threads(self.config.threads);
        drop(commit_guard);

        let report = 'run: {
            let mut iterations = Vec::new();
            let mut validations = 0usize;
            let mut validations_cached = 0usize;
            let mut validations_skipped = 0usize;

            self.journal_run_start(original, initial_failed, threads);
            if acr_obs::enabled(acr_obs::JOURNAL) {
                journal::emit(
                    &json::Obj::new()
                        .str("event", "flow_summary")
                        .u64("ts_us", journal::now_us())
                        .u64("fixpoint_iterations", flow_facts.iterations)
                        .int("facts", flow_facts.fact_count())
                        .int("prior_lines", flow_prior.len())
                        .bool("gate", self.config.flow)
                        .build(),
                );
            }

            if initial_failed == 0 {
                break 'run finish(
                    RepairOutcome::Fixed {
                        patch: Patch::new(),
                        repaired: original.clone(),
                    },
                    iterations,
                    initial_failed,
                    validations,
                    validations_cached,
                    validations_skipped,
                    &stages,
                    Vec::new(),
                    &self.config.tags,
                );
            }

            let mut population: Vec<Variant> = vec![Variant {
                cfg: original.clone(),
                patch: Patch::new(),
                fitness: initial_failed,
                verification: base_verification,
                diags: base_diags,
                segments: Vec::new(),
            }];
            let mut prev_fitness = initial_failed;
            let mut seen: HashSet<Patch> = HashSet::new();
            seen.insert(Patch::new());

            for iteration in 1..=self.config.max_iterations {
                ITERATIONS.inc();
                // Ranked suspects for the journal: a pure re-localization of
                // the current best variant (no RNG draw), computed only when
                // the journal is on — reports are identical either way.
                let suspects = if acr_obs::enabled(acr_obs::JOURNAL) {
                    self.suspects_of(best_of(&population), &flow_prior)
                } else {
                    String::new()
                };

                // ---- localize + fix: generate candidate full patches -------
                let fresh: Vec<(Patch, Vec<PatchSegment>)> = {
                    let _g = stages.time("engine.generate", "engine");
                    self.generate(&population, &iv, &flow_prior, iteration, &mut rng)
                        .into_iter()
                        .filter(|(p, _)| seen.insert(p.clone()))
                        .collect()
                };
                let generated = fresh.len();
                CAND_GENERATED.add(generated as u64);
                if generated == 0 {
                    let best = best_of(&population);
                    break 'run finish(
                        RepairOutcome::NoCandidates {
                            best_patch: best.patch.clone(),
                            best_fitness: best.fitness,
                        },
                        iterations,
                        initial_failed,
                        validations,
                        validations_cached,
                        validations_skipped,
                        &stages,
                        best.segments.clone(),
                        &self.config.tags,
                    );
                }
                let (fresh_patches, fresh_segments): (Vec<Patch>, Vec<Vec<PatchSegment>>) =
                    fresh.into_iter().unzip();

                // ---- validate: lint gate + memo-cache + worker pool --------
                let validate_guard = stages.time("engine.validate", "engine");
                let batch = validate_batch(
                    fresh_patches,
                    original,
                    &mut iv,
                    self.topo,
                    lint_base,
                    &lint_memo,
                    cache,
                    flow_gate.as_ref(),
                    ctx_base,
                    threads,
                );
                let mut kept: Vec<Variant> = Vec::new();
                let (mut recomputed, mut reused) = (0, 0);
                let (mut lint_rejected, mut validated, mut cached_count, mut invalid) =
                    (0, 0, 0, 0);
                let mut flow_skipped = 0usize;
                // Journal rows for this iteration's candidates, in batch
                // (candidate-index) order.
                let mut cand_rows: Vec<String> = Vec::new();
                let journal_on = acr_obs::enabled(acr_obs::JOURNAL);
                for (vc, segs) in batch.into_iter().zip(fresh_segments) {
                    let mut row = journal_on.then(|| {
                        json::Obj::new()
                            .str("patch", &vc.patch.to_string())
                            .int("segments", segs.len())
                    });
                    match vc.outcome {
                        CandidateOutcome::Invalid => {
                            invalid += 1;
                            if let Some(r) = row.take() {
                                cand_rows.push(r.str("outcome", "invalid").build());
                            }
                        }
                        CandidateOutcome::LintRejected => {
                            lint_rejected += 1;
                            if let Some(r) = row.take() {
                                cand_rows.push(r.str("outcome", "lint_rejected").build());
                            }
                        }
                        CandidateOutcome::Validated {
                            verification,
                            stats,
                            diags,
                            arena,
                            cached,
                        } => {
                            if cached {
                                cached_count += 1;
                            } else {
                                validated += 1;
                            }
                            recomputed += stats.recomputed;
                            reused += stats.reused;
                            stages.add("sim.compile", stats.compile);
                            stages.add("sim.establish", stats.establish);
                            stages.add("sim.simulate", stats.simulate);
                            stages.add("sim.converge", stats.converge);
                            let fitness = verification.failed_count();
                            // §5: discard candidates whose fitness exceeds
                            // the previous iteration's fitness.
                            let discard = fitness > prev_fitness;
                            if let Some(r) = row.take() {
                                cand_rows.push(
                                    r.str("outcome", if discard { "discarded" } else { "kept" })
                                        .int("fitness", fitness)
                                        .bool("cached", cached)
                                        .build(),
                                );
                            }
                            if discard {
                                continue;
                            }
                            // Worker- or cache-computed verdicts carry their
                            // own pruned arena; re-intern the closures into
                            // the persistent one (index order, so the arena
                            // grows deterministically).
                            let verification = match &arena {
                                Some(src) => iv.absorb_verification(&verification, src),
                                None => verification,
                            };
                            kept.push(Variant {
                                cfg: vc.cfg.expect("validated candidates carry a config"),
                                patch: vc.patch,
                                verification,
                                fitness,
                                diags,
                                segments: segs,
                            });
                        }
                        CandidateOutcome::FlowSkipped {
                            verification,
                            diags,
                        } => {
                            flow_skipped += 1;
                            // The served verification *is* the base's, so its
                            // fitness equals the previous baseline — never
                            // discarded, and its derivation roots already
                            // resolve in the persistent arena.
                            let fitness = verification.failed_count();
                            let discard = fitness > prev_fitness;
                            if let Some(r) = row.take() {
                                cand_rows.push(
                                    r.str("outcome", "flow_skipped")
                                        .int("fitness", fitness)
                                        .bool("discarded", discard)
                                        .build(),
                                );
                            }
                            if discard {
                                continue;
                            }
                            kept.push(Variant {
                                cfg: vc.cfg.expect("gate-served candidates carry a config"),
                                patch: vc.patch,
                                verification,
                                fitness,
                                diags,
                                segments: segs,
                            });
                        }
                    }
                }
                validations += validated;
                validations_cached += cached_count;
                validations_skipped += flow_skipped;
                CAND_LINT_REJECTED.add(lint_rejected as u64);
                CAND_VALIDATED.add(validated as u64);
                CAND_CACHED.add(cached_count as u64);
                CAND_INVALID.add(invalid as u64);
                CAND_FLOW_SKIPPED.add(flow_skipped as u64);
                drop(validate_guard);

                let select_guard = stages.time("engine.select", "engine");
                let kept_count = kept.len();
                CAND_KEPT.add(kept_count as u64);
                let iter_fitness = kept.iter().map(|v| v.fitness).max().unwrap_or(prev_fitness);
                let done = kept.iter().any(|v| v.fitness == 0);

                population.extend(kept);
                population.sort_by_key(|v| (v.fitness, v.patch.len()));
                population.truncate(self.config.max_population);
                let best_fitness = population
                    .first()
                    .map(|v| v.fitness)
                    .unwrap_or(prev_fitness);

                let stats = IterationStats {
                    iteration,
                    fitness: iter_fitness,
                    best_fitness,
                    generated,
                    kept: kept_count,
                    recomputed_prefixes: recomputed,
                    reused_prefixes: reused,
                    lint_rejected,
                    validated,
                    cached: cached_count,
                    invalid,
                    flow_skipped,
                    sym_validated: 0,
                };
                if journal_on {
                    journal_iteration(&stats, &suspects, &cand_rows);
                }
                iterations.push(stats);
                prev_fitness = iter_fitness;
                drop(select_guard);

                if done {
                    let winner = population
                        .iter()
                        .filter(|v| v.fitness == 0)
                        .min_by_key(|v| v.patch.len())
                        .expect("done implies a zero-fitness variant");
                    break 'run finish(
                        RepairOutcome::Fixed {
                            patch: winner.patch.clone(),
                            repaired: winner.cfg.clone(),
                        },
                        iterations,
                        initial_failed,
                        validations,
                        validations_cached,
                        validations_skipped,
                        &stages,
                        winner.segments.clone(),
                        &self.config.tags,
                    );
                }
            }

            let best = best_of(&population);
            finish(
                RepairOutcome::IterationLimit {
                    best_patch: best.patch.clone(),
                    best_fitness: best.fitness,
                },
                iterations,
                initial_failed,
                validations,
                validations_cached,
                validations_skipped,
                &stages,
                best.segments.clone(),
                &self.config.tags,
            )
        }; // 'run

        // Park the verifier (compiled base, per-prefix caches, memo)
        // back in the session as the most-recent warm slot for the next
        // incident against this base.
        if let Some(s) = session {
            if let Some(w) = iv.suspend() {
                s.park_warm(w);
            }
        }
        report
    }

    /// The journal's `run_start` record: network shape, initial failures
    /// and the full engine configuration (the one record run parameters
    /// appear in, so cross-configuration journal diffs scrub one line).
    fn journal_run_start(&self, original: &NetworkConfig, initial_failed: usize, threads: usize) {
        if !acr_obs::enabled(acr_obs::JOURNAL) {
            return;
        }
        let cfg = json::Obj::new()
            .str("strategy", &format!("{:?}", self.config.strategy))
            .str("formula", &format!("{:?}", self.config.formula))
            .u64("seed", self.config.seed)
            .int("max_iterations", self.config.max_iterations)
            .int("max_population", self.config.max_population)
            .u64(
                "samples_per_property",
                self.config.samples_per_property as u64,
            )
            .str("operators", &format!("{:?}", self.config.operators))
            .bool("lint", self.config.lint)
            .int("threads", threads)
            .bool("cache", self.config.cache.is_some())
            .bool("delta", self.config.delta)
            .bool("flow", self.config.flow)
            .raw("tags", &tags_json(&self.config.tags))
            .build();
        journal::emit(
            &json::Obj::new()
                .str("event", "run_start")
                .str("schema", journal::SCHEMA)
                .u64("ts_us", journal::now_us())
                .int("routers", self.topo.routers().len())
                .int("devices", original.len())
                .int("initial_failed", initial_failed)
                .raw("config", &cfg)
                .build(),
        );
    }

    /// Top-ranked suspicious lines of a variant, rendered as a JSON array
    /// for the journal. Pure: same localization the fix stage uses, no RNG.
    fn suspects_of(&self, variant: &Variant, prior: &BTreeMap<LineId, f64>) -> String {
        let ranking = self.rank(variant, prior);
        json::array(ranking.entries().iter().take(8).map(|(line, score)| {
            json::Obj::new()
                .str("line", &line.to_string())
                .num("score", *score)
                .build()
        }))
    }

    /// The SBFL ranking the fix stage expands: lint boosts fold in
    /// multiplicatively (4x primary / 2x related), then the `acr-flow`
    /// prior rescales lines that sit on a violated property's abstract
    /// derivation path.
    fn rank(&self, variant: &Variant, prior: &BTreeMap<LineId, f64>) -> Ranking {
        let boosts = boost_map(&variant.diags);
        let ranking = if boosts.is_empty() {
            localize(&variant.verification.matrix, self.config.formula)
        } else {
            localize_boosted(&variant.verification.matrix, self.config.formula, &boosts)
        };
        ranking.with_prior(prior)
    }

    /// Generates candidate *full* patches (relative to the original
    /// configuration) according to the strategy, each paired with its
    /// provenance segments.
    fn generate(
        &self,
        population: &[Variant],
        iv: &IncrementalVerifier<'_>,
        prior: &BTreeMap<LineId, f64>,
        iteration: usize,
        rng: &mut SplitMix64,
    ) -> Vec<(Patch, Vec<PatchSegment>)> {
        let mut out = Vec::new();
        // A parent's patch extended by one fix, with provenance.
        let extend = |parent: &Variant, fix: &CandidateFix| {
            let mut segments = parent.segments.clone();
            segments.push(PatchSegment::of_fix(iteration, fix));
            (parent.patch.concat(&fix.patch), segments)
        };
        match &self.config.strategy {
            Strategy::BruteForce { top_lines } => {
                // Expand every surviving variant: multi-place repairs
                // accrete one template application per iteration.
                for parent in population {
                    let fixes = self.fixes_of(parent, iv, prior, *top_lines, None, rng);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                }
            }
            Strategy::Genetic {
                mutations,
                crossovers,
                top_k,
            } => {
                for _ in 0..*mutations {
                    let parent = &population[rng.index(population.len())];
                    let fixes = self.fixes_of(parent, iv, prior, *top_k, Some(rng.next_u64()), rng);
                    if let Some(fix) = pick(rng, &fixes) {
                        out.push(extend(parent, fix));
                    }
                }
                for _ in 0..*crossovers {
                    if population.len() < 2 {
                        break;
                    }
                    let a = &population[rng.index(population.len())];
                    let b = &population[rng.index(population.len())];
                    if a.patch.is_empty() && b.patch.is_empty() {
                        continue;
                    }
                    let pa = rng.index(a.patch.len() + 1);
                    let pb = rng.index(b.patch.len() + 1);
                    let child = crossover(&a.patch, &b.patch, pa, pb);
                    if !child.is_empty() {
                        // Offspring mix two lineages; provenance collapses
                        // to a single recombination segment.
                        let segments = vec![PatchSegment {
                            iteration,
                            op: "crossover".to_string(),
                            origin: None,
                            edits: child.len(),
                        }];
                        out.push((child, segments));
                    }
                }
            }
            Strategy::SinglePatch { top_lines } => {
                // Expand only the unpatched root: every candidate is one
                // template application to the original configuration.
                // Once the root is evicted (or its pool is exhausted via
                // dedup) the search dries up — by design.
                for parent in population.iter().filter(|v| v.patch.is_empty()) {
                    let fixes = self.fixes_of(parent, iv, prior, *top_lines, None, rng);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                }
            }
            Strategy::Beam {
                width,
                top_lines,
                max_pairs,
            } => {
                // The population is sorted by (fitness, patch size) at
                // the end of every iteration, so its prefix is the beam.
                for parent in population.iter().take(*width) {
                    let fixes = self.fixes_of(parent, iv, prior, *top_lines, None, rng);
                    out.extend(fixes.iter().map(|f| extend(parent, f)));
                    // Pairwise patch-set combinations at distinct
                    // suspicious lines: a coordinated two-site edit in a
                    // single candidate, instead of two accretion rounds.
                    let mut pairs = 0usize;
                    'outer: for i in 0..fixes.len() {
                        for j in (i + 1)..fixes.len() {
                            if fixes[i].origin == fixes[j].origin {
                                continue;
                            }
                            if pairs >= *max_pairs {
                                break 'outer;
                            }
                            let combined = fixes[i].patch.concat(&fixes[j].patch);
                            let mut segments = parent.segments.clone();
                            segments.push(PatchSegment::of_fix(iteration, &fixes[i]));
                            segments.push(PatchSegment::of_fix(iteration, &fixes[j]));
                            out.push((parent.patch.concat(&combined), segments));
                            pairs += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// Localizes a variant and instantiates templates at its suspicious
    /// lines. With `pick_line`, only one (seeded-random) line from the top
    /// pool is expanded — the genetic mutation primitive; otherwise the
    /// full tied-top set plus up to `width` runners-up are expanded.
    fn fixes_of(
        &self,
        variant: &Variant,
        iv: &IncrementalVerifier<'_>,
        prior: &BTreeMap<LineId, f64>,
        width: usize,
        pick_line: Option<u64>,
        _rng: &mut SplitMix64,
    ) -> Vec<CandidateFix> {
        let boosts = boost_map(&variant.diags);
        let ranking = self.rank(variant, prior);
        if ranking.is_empty() {
            return Vec::new();
        }
        let models = models_of(self.topo, &variant.cfg);
        let ctx = RepairCtx {
            topo: self.topo,
            cfg: &variant.cfg,
            verification: &variant.verification,
            arena: iv.arena(),
            models: &models,
        };
        let mut pool: Vec<LineId> = ranking.top_tied();
        for (line, score) in ranking.entries().iter().skip(pool.len()).take(width) {
            if *score <= 0.0 {
                break;
            }
            pool.push(*line);
        }
        let allowed = |f: &CandidateFix| {
            self.config
                .allowed_templates
                .as_ref()
                .is_none_or(|ts| ts.contains(&f.template))
        };
        // One line's candidates under the configured operator vocabulary.
        let expand = |line: LineId| -> Vec<CandidateFix> {
            let mut fixes = Vec::new();
            if self.config.operators != OperatorSet::Universal {
                fixes.extend(candidates_for_line(line, &ctx).into_iter().filter(allowed));
            }
            if self.config.operators != OperatorSet::Curated {
                for patch in universal_candidates(line, &ctx) {
                    if !fixes.iter().any(|f: &CandidateFix| f.patch == patch) {
                        fixes.push(CandidateFix {
                            patch,
                            template: TemplateKind::DonorCopy,
                            origin: line,
                        });
                    }
                }
            }
            fixes
        };
        match pick_line {
            Some(seed) if !pool.is_empty() => {
                // Seeded mutation pick, weighted by lint boost: a line a
                // static rule flagged is mutated proportionally more
                // often than its spectrum twins.
                let weighted: Vec<LineId> = pool
                    .iter()
                    .flat_map(|l| {
                        let w = boosts.get(l).copied().unwrap_or(1.0).max(1.0) as usize;
                        std::iter::repeat_n(*l, w)
                    })
                    .collect();
                let line = weighted[(seed % weighted.len() as u64) as usize];
                expand(line)
            }
            _ => {
                let mut out = Vec::new();
                for line in pool {
                    out.extend(expand(line));
                }
                out
            }
        }
    }
}

/// The `acr-flow` localization prior: every line the abstract
/// may-propagation analysis records as *supporting* a violated
/// property's destination cone gets a modest multiplicative *damping*.
/// A supporting line is one the route demonstrably still flows through
/// — and the Table-1 fault model is absence-dominated (gutted prefix
/// lists, deleted policies, missing redistribution), where the
/// misconfiguration is precisely the statement that *stops* the route,
/// which by construction is off the live path. Damping the live path
/// focuses the expansion pool on the blocking statements; the factor is
/// mild so concrete lint boosts (4x/2x) still dominate.
fn flow_prior(
    spec: &Spec,
    base: &Verification,
    facts: &acr_flow::FlowFacts,
) -> BTreeMap<LineId, f64> {
    const FLOW_PRIOR_FACTOR: f64 = 0.8;
    let failing: HashSet<&str> = base
        .records
        .iter()
        .filter(|r| !r.passed)
        .map(|r| r.property.as_str())
        .collect();
    let mut prior = BTreeMap::new();
    for p in &spec.properties {
        if failing.contains(p.name.as_str()) {
            for line in facts.support_for(p.hs.dst) {
                prior.insert(line, FLOW_PRIOR_FACTOR);
            }
        }
    }
    prior
}

/// Suspiciousness multipliers from lint findings: primary-span lines get
/// 4x, related locations 2x (the strongest factor wins on overlap).
fn boost_map(diags: &[Diagnostic]) -> BTreeMap<LineId, f64> {
    let mut boosts: BTreeMap<LineId, f64> = BTreeMap::new();
    let mut bump = |line: LineId, factor: f64| {
        let e = boosts.entry(line).or_insert(1.0);
        *e = e.max(factor);
    };
    for d in diags {
        for line in d.span.0..=d.span.1 {
            bump(LineId::new(d.device, line), 4.0);
        }
        for r in &d.related {
            bump(LineId::new(r.device, r.line), 2.0);
        }
    }
    boosts
}

/// Renders a tag list as a JSON string array.
fn tags_json(tags: &[String]) -> String {
    json::array(tags.iter().map(|t| format!("\"{}\"", json::escape(t))))
}

/// Renders an attribution list as a JSON array of segment objects.
fn attribution_json(segments: &[PatchSegment]) -> String {
    json::array(segments.iter().map(|s| {
        let obj = json::Obj::new()
            .int("iteration", s.iteration)
            .str("op", &s.op);
        let obj = match &s.origin {
            Some(line) => obj.str("origin", &line.to_string()),
            None => obj,
        };
        obj.int("edits", s.edits).build()
    }))
}

/// The single place a [`RepairReport`] is assembled: every return path
/// of the repair loop funnels here, so the [`StageTimes`] derivation from
/// the run's [`Stages`] accumulator exists exactly once. Also emits the
/// journal's `run_end` record and flushes every obs sink.
#[allow(clippy::too_many_arguments)]
fn finish(
    outcome: RepairOutcome,
    iterations: Vec<IterationStats>,
    initial_failed: usize,
    validations: usize,
    validations_cached: usize,
    validations_skipped: usize,
    stages: &Stages,
    attribution: Vec<PatchSegment>,
    tags: &[String],
) -> RepairReport {
    let stage = StageTimes {
        commit: stages.get("engine.commit"),
        generate: stages.get("engine.generate"),
        validate: stages.get("engine.validate"),
        select: stages.get("engine.select"),
        sim_compile: stages.get("sim.compile"),
        sim_establish: stages.get("sim.establish"),
        sim_simulate: stages.get("sim.simulate"),
        sim_converge: stages.get("sim.converge"),
    };
    if acr_obs::enabled(acr_obs::JOURNAL) {
        let (kind, patch, fitness) = match &outcome {
            RepairOutcome::Fixed { patch, .. } => ("fixed", patch.to_string(), 0),
            RepairOutcome::NoCandidates {
                best_patch,
                best_fitness,
            } => ("no_candidates", best_patch.to_string(), *best_fitness),
            RepairOutcome::IterationLimit {
                best_patch,
                best_fitness,
            } => ("iteration_limit", best_patch.to_string(), *best_fitness),
        };
        journal::emit(
            &json::Obj::new()
                .str("event", "run_end")
                .u64("ts_us", journal::now_us())
                .str("outcome", kind)
                .str("patch", &patch)
                .int("fitness", fitness)
                .int("iterations", iterations.len())
                .int("initial_failed", initial_failed)
                .int("validations", validations)
                .int("validations_cached", validations_cached)
                .int("validations_skipped", validations_skipped)
                .raw("attribution", &attribution_json(&attribution))
                .raw("tags", &tags_json(tags))
                .build(),
        );
    }
    acr_obs::flush();
    RepairReport {
        outcome,
        iterations,
        initial_failed,
        validations,
        validations_cached,
        validations_skipped,
        validations_symbolic: 0,
        stage,
        wall: stages.wall(),
        attribution,
        tags: tags.to_vec(),
    }
}

/// The journal's per-iteration record: the iteration counters, the ranked
/// suspects that seeded generation, and every candidate's verdict in
/// batch order.
fn journal_iteration(stats: &IterationStats, suspects: &str, cand_rows: &[String]) {
    journal::emit(
        &json::Obj::new()
            .str("event", "iteration")
            .u64("ts_us", journal::now_us())
            .int("iteration", stats.iteration)
            .int("fitness", stats.fitness)
            .int("best_fitness", stats.best_fitness)
            .int("generated", stats.generated)
            .int("kept", stats.kept)
            .int("lint_rejected", stats.lint_rejected)
            .int("validated", stats.validated)
            .int("cached", stats.cached)
            .int("invalid", stats.invalid)
            .int("flow_skipped", stats.flow_skipped)
            .int("recomputed_prefixes", stats.recomputed_prefixes)
            .int("reused_prefixes", stats.reused_prefixes)
            .raw("suspects", suspects)
            .raw("candidates", &json::array(cand_rows.iter().cloned()))
            .build(),
    );
}

/// The best variant: lowest fitness, then smallest patch.
fn best_of(population: &[Variant]) -> &Variant {
    population
        .iter()
        .min_by_key(|v| (v.fitness, v.patch.len()))
        .expect("population never empties")
}

/// Semantic models of every router in `cfg`.
pub fn models_of(topo: &Topology, cfg: &NetworkConfig) -> Vec<DeviceModel> {
    topo.routers()
        .iter()
        .map(|r| match cfg.device(r.id) {
            Some(dc) => DeviceModel::from_config(dc),
            None => DeviceModel {
                name: r.name.clone(),
                ..DeviceModel::default()
            },
        })
        .collect()
}

/// Uniform pick from a slice.
fn pick<'t, T>(rng: &mut SplitMix64, xs: &'t [T]) -> Option<&'t T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.index(xs.len())])
    }
}

// A tiny usage of TemplateKind keeps the import honest for rustdoc links.
const _: fn(&CandidateFix) -> TemplateKind = |f| f.template;
