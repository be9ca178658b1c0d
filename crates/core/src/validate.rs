//! The engine's validate stage: lint gate, memo-cache and the
//! deterministic worker pool.
//!
//! Each iteration hands this module the batch of fresh candidate
//! patches. Per candidate the stage (1) materializes and re-parses the
//! configuration, (2) runs the static lint gate, (3) serves the verdict
//! from the simulation memo-cache when the config fingerprint was seen
//! before, and (4) otherwise simulates it through the incremental
//! validator. With `threads > 1` steps 2–4 run on a
//! `std::thread::scope` worker pool.
//!
//! **Determinism argument.** A candidate's verdict is a pure function of
//! (committed base state, candidate config): [`CandidateValidator`]
//! never mutates the per-prefix memo, lint is stateless, and the
//! memo-cache is only *read* while workers run. Everything order
//! sensitive is pinned to candidate index order on the coordinating
//! thread:
//!
//! - results are collected into an index-addressed table, so selection
//!   order and tie-breaks never depend on scheduling;
//! - cache insertions and LRU promotions happen in a post-pass in index
//!   order (reads never touch recency — see [`acr_sim::ShardedCache`]),
//!   so the cache's contents, and therefore every *future* hit or miss,
//!   are identical whether the batch ran on 1 thread or 8;
//! - candidates of one batch that render to the *same* configuration
//!   are deduplicated by fingerprint up front (the lowest index
//!   computes, the rest reuse), which reproduces what the sequential
//!   path's insert-then-hit would do, at any thread count.
//!
//! Worker threads intern fresh derivations into private clones of the
//! persistent arena (derivation ids are arena-local and never portable),
//! and every computed verdict is re-interned into a pruned private arena
//! before it leaves the worker. The engine absorbs kept verdicts into
//! the persistent arena in index order. Arena *id numbering* may differ
//! from the sequential path's, but every consumer is content-driven
//! (closures are sorted and deduplicated, anchor checks return booleans),
//! so repair outcomes are byte-identical.

use acr_cfg::{DeviceModel, NetworkConfig, Patch};
use acr_lint::{lint_with_models, DiagKey, Diagnostic};
use acr_net_types::{Prefix, RouterId};
use acr_obs::metrics::Counter;
use acr_obs::span;
use acr_sim::{DerivArena, ShardedCache};
use acr_topo::Topology;
use acr_verify::{
    make_entry, CandidateEntry, CandidateValidator, IncrementalStats, IncrementalVerifier,
    SimCache, Verification,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The lint baseline of the broken network, shared by every candidate's
/// gate check.
pub(crate) struct LintBase {
    pub models: Vec<DeviceModel>,
    pub idx: HashMap<RouterId, usize>,
    pub keys: HashSet<DiagKey>,
    pub diags: Vec<Diagnostic>,
}

impl LintBase {
    /// Lints `cfg` and captures the baseline the gate compares
    /// candidates against. A pure function of (topology, configuration),
    /// so resident sessions cache it by config fingerprint.
    pub(crate) fn build(topo: &Topology, cfg: &NetworkConfig) -> LintBase {
        let models = crate::engine::models_of(topo, cfg);
        let report = lint_with_models(topo, cfg, &models);
        let idx: HashMap<RouterId, usize> = topo
            .routers()
            .iter()
            .enumerate()
            .map(|(i, r)| (r.id, i))
            .collect();
        LintBase {
            models,
            idx,
            keys: report.keys(),
            diags: report.diagnostics,
        }
    }
}

/// Per-run lint memo: config fingerprint → (introduces a fresh error,
/// diagnostics). Lint is a pure function of the candidate config, so
/// worker threads may insert racily — a dropped insert merely recomputes
/// the same value later, and nothing in the report depends on whether a
/// verdict was memoized or recomputed.
pub(crate) type LintMemo = ShardedCache<u64, Arc<(bool, Vec<Diagnostic>)>>;

static LINT_MEMO_HITS: Counter = Counter::new("lint.memo.hits");
static LINT_MEMO_MISSES: Counter = Counter::new("lint.memo.misses");
static LINT_GATE_REJECTED: Counter = Counter::new("lint.gate.rejected");
static FLOW_GATE_SKIPPED: Counter = Counter::new("flow.gate.skipped");

/// The static relevance gate (`acr-flow`). A candidate whose patch is
/// provably invisible to every protected prefix — each spec property's
/// destination cone — is *served* the base verification instead of
/// being simulated: invisibility means full simulation would compute
/// exactly this value (see `acr_flow::gate`), so reports are
/// byte-identical with the gate on or off.
pub(crate) struct FlowGate {
    /// Destination cones of every spec property.
    pub protected: Vec<Prefix>,
    /// The committed base verification served to skipped candidates.
    pub base: Verification,
}

/// What the validate stage concluded for one candidate patch.
// Short-lived per-batch values, one per candidate; the variant size skew
// (a full Verification vs unit) isn't worth a Box hop.
#[allow(clippy::large_enum_variant)]
pub(crate) enum CandidateOutcome {
    /// The patch failed to apply or its devices no longer re-parse; it
    /// never reached the validators.
    Invalid,
    /// Rejected by the static lint gate before simulation.
    LintRejected,
    /// Verified (freshly simulated or memo-served).
    Validated {
        verification: Verification,
        stats: IncrementalStats,
        diags: Vec<Diagnostic>,
        /// Arena the verification's roots resolve in; `None` means the
        /// verifier's persistent arena (sequential compute path).
        arena: Option<DerivArena>,
        /// Served from the memo-cache (counts as `validations_cached`).
        cached: bool,
    },
    /// Skipped by the static relevance gate: the patch is provably
    /// invisible to every protected prefix, so the base verification
    /// *is* this candidate's verification (roots resolve in the
    /// persistent arena, where the base was committed).
    FlowSkipped {
        verification: Verification,
        diags: Vec<Diagnostic>,
    },
}

/// One batch entry, index-aligned with the incoming patch order.
pub(crate) struct ValidatedCandidate {
    pub patch: Patch,
    pub cfg: Option<NetworkConfig>,
    pub outcome: CandidateOutcome,
}

struct Prepared {
    patch: Patch,
    cfg: NetworkConfig,
    fp: u64,
}

/// What to do for one prepared candidate.
enum Plan {
    /// Reuse the resolution of an earlier item index (same rendered
    /// config; only planned when the cache is enabled).
    Dup(usize),
    /// The memo-cache held this fingerprint at batch start.
    Hit(Arc<CandidateEntry>),
    /// The flow gate proved the patch invisible: lint it, then serve
    /// the base verification without simulating (and without touching
    /// the memo-cache — there is nothing to store).
    Serve,
    /// Simulate.
    Compute,
}

/// Worker-side resolution, before the coordinator's cache post-pass.
#[allow(clippy::large_enum_variant)]
enum Resolved {
    LintRejected,
    /// Freshly simulated.
    Fresh {
        /// Engine-facing verdict; roots resolve in `src` when present,
        /// in the persistent arena otherwise.
        verification: Verification,
        src: Option<DerivArena>,
        /// Pruned payload for the memo-cache (`Some` iff caching is on).
        cache_entry: Option<CandidateEntry>,
        stats: IncrementalStats,
        diags: Vec<Diagnostic>,
    },
    /// Memo-served.
    Cached {
        entry: Arc<CandidateEntry>,
        diags: Vec<Diagnostic>,
    },
    /// Flow-gate served: lint ran (and passed), simulation was skipped.
    Served {
        diags: Vec<Diagnostic>,
    },
}

/// Validates a batch of candidate patches against the committed base.
/// Results come back index-aligned with `fresh`; all cache mutations
/// happen here, in candidate-index order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn validate_batch(
    fresh: Vec<Patch>,
    original: &NetworkConfig,
    iv: &mut IncrementalVerifier<'_>,
    topo: &Topology,
    lint_base: Option<&LintBase>,
    lint_memo: &LintMemo,
    cache: Option<&SimCache>,
    flow: Option<&FlowGate>,
    ctx_base: (u64, u64),
    threads: usize,
) -> Vec<ValidatedCandidate> {
    // ---- prepare: materialize configs, fingerprint, dedup ------------
    let mut out: Vec<ValidatedCandidate> = Vec::with_capacity(fresh.len());
    let mut items: Vec<(usize, Prepared)> = Vec::new();
    let mut dups: Vec<Option<usize>> = Vec::new();
    let mut by_fp: HashMap<u64, usize> = HashMap::new();
    for patch in fresh {
        let slot = out.len();
        let cfg = match patch.apply_cloned(original) {
            Ok(cfg) if reparses(&cfg, &patch) => cfg,
            _ => {
                out.push(ValidatedCandidate {
                    patch,
                    cfg: None,
                    outcome: CandidateOutcome::Invalid,
                });
                continue;
            }
        };
        let fp = cfg.fingerprint();
        let item_idx = items.len();
        let dup_of = if cache.is_some() {
            let first = *by_fp.entry(fp).or_insert(item_idx);
            (first != item_idx).then_some(first)
        } else {
            None
        };
        dups.push(dup_of);
        items.push((slot, Prepared { patch, cfg, fp }));
        out.push(ValidatedCandidate {
            patch: Patch::new(), // placeholder, replaced below
            cfg: None,
            outcome: CandidateOutcome::Invalid,
        });
    }

    // ---- plan: peek the memo-cache against batch-start state ---------
    let (ctx_fp, base_fp) = ctx_base;
    let plans: Vec<Plan> = items
        .iter()
        .zip(&dups)
        .map(|((_, it), dup)| {
            // The relevance gate outranks the memo-cache and dedup: a
            // provably invisible patch costs one clone either way, and
            // keeping it off the cache keeps cache contents independent
            // of gate order within a batch.
            if let Some(g) = flow {
                if acr_flow::patch_invisible(original, &it.patch, &g.protected) {
                    return Plan::Serve;
                }
            }
            match dup {
                Some(j) => Plan::Dup(*j),
                None => match cache.and_then(|c| c.peek_candidate((ctx_fp, base_fp, it.fp))) {
                    Some(entry) => Plan::Hit(entry),
                    None => Plan::Compute,
                },
            }
        })
        .collect();

    // ---- resolve: lint + simulate, sequentially or on the pool -------
    let worker_threads = threads.min(items.len()).max(1);
    let build_entries = cache.is_some();
    let resolved: Vec<Option<Resolved>> = if worker_threads <= 1 {
        // The legacy sequential path: computed candidates intern
        // directly into the persistent arena, in order.
        items
            .iter()
            .zip(&plans)
            .enumerate()
            .map(|(k, ((_, it), plan))| match plan {
                Plan::Dup(_) => None,
                plan => {
                    let _s = span!("engine.validate.candidate", "engine").arg("idx", k as u64);
                    Some(resolve_sequential(
                        it,
                        plan,
                        iv,
                        topo,
                        lint_base,
                        lint_memo,
                        build_entries,
                    ))
                }
            })
            .collect()
    } else {
        let validator = iv.validator();
        let base_arena = iv.arena().clone();
        let queue = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Resolved>>> =
            (0..items.len()).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..worker_threads {
                s.spawn(|| {
                    // Lazily cloned so lint-only workers allocate nothing.
                    let mut arena: Option<DerivArena> = None;
                    loop {
                        let k = queue.fetch_add(1, Ordering::Relaxed);
                        if k >= items.len() {
                            break;
                        }
                        if matches!(plans[k], Plan::Dup(_)) {
                            continue;
                        }
                        let _s = span!("engine.validate.candidate", "engine").arg("idx", k as u64);
                        let res = resolve_worker(
                            &items[k].1,
                            &plans[k],
                            &validator,
                            &base_arena,
                            &mut arena,
                            topo,
                            lint_base,
                            lint_memo,
                            build_entries,
                        );
                        *slots[k].lock().unwrap() = Some(res);
                    }
                });
            }
        });
        slots.into_iter().map(|m| m.into_inner().unwrap()).collect()
    };

    // ---- post-pass: cache maintenance + dup resolution, index order --
    let mut finals: Vec<CandidateOutcome> = Vec::with_capacity(items.len());
    for (k, res) in resolved.into_iter().enumerate() {
        let key = (ctx_fp, base_fp, items[k].1.fp);
        let outcome = match res {
            None => {
                let j = match plans[k] {
                    Plan::Dup(j) => j,
                    _ => unreachable!("only dup plans resolve to None"),
                };
                match &finals[j] {
                    CandidateOutcome::LintRejected => CandidateOutcome::LintRejected,
                    CandidateOutcome::Validated {
                        verification,
                        stats,
                        diags,
                        arena,
                        ..
                    } => {
                        // Sequentially this would be an insert-then-hit:
                        // promote the shared entry like any other hit.
                        if let Some(c) = cache {
                            c.touch_candidate(key);
                        }
                        CandidateOutcome::Validated {
                            verification: verification.clone(),
                            stats: *stats,
                            diags: diags.clone(),
                            arena: arena.clone(),
                            cached: true,
                        }
                    }
                    // Same rendered config as a gate-served candidate:
                    // its verification is the base's too. No cache
                    // promotion — served verdicts are never stored.
                    CandidateOutcome::FlowSkipped {
                        verification,
                        diags,
                    } => {
                        FLOW_GATE_SKIPPED.inc();
                        CandidateOutcome::FlowSkipped {
                            verification: verification.clone(),
                            diags: diags.clone(),
                        }
                    }
                    CandidateOutcome::Invalid => unreachable!("dups are valid by construction"),
                }
            }
            Some(Resolved::LintRejected) => CandidateOutcome::LintRejected,
            Some(Resolved::Served { diags }) => {
                FLOW_GATE_SKIPPED.inc();
                let gate = flow.expect("Serve plans only exist with a gate");
                CandidateOutcome::FlowSkipped {
                    verification: gate.base.clone(),
                    diags,
                }
            }
            Some(Resolved::Cached { entry, diags }) => {
                if let Some(c) = cache {
                    c.touch_candidate(key);
                }
                CandidateOutcome::Validated {
                    verification: entry.verification.clone(),
                    stats: IncrementalStats {
                        recomputed: 0,
                        reused: entry.universe,
                        ..IncrementalStats::default()
                    },
                    diags,
                    arena: Some(entry.arena.clone()),
                    cached: true,
                }
            }
            Some(Resolved::Fresh {
                verification,
                src,
                cache_entry,
                stats,
                diags,
            }) => {
                if let (Some(c), Some(entry)) = (cache, cache_entry) {
                    c.insert_candidate(key, entry);
                }
                CandidateOutcome::Validated {
                    verification,
                    stats,
                    diags,
                    arena: src,
                    cached: false,
                }
            }
        };
        finals.push(outcome);
    }

    for ((slot, it), outcome) in items.into_iter().zip(finals) {
        out[slot] = ValidatedCandidate {
            patch: it.patch,
            cfg: Some(it.cfg),
            outcome,
        };
    }
    out
}

/// Lint verdict for one candidate, memoized by config fingerprint.
/// Returns `(introduces a fresh error, diagnostics)`.
fn lint_verdict(
    it: &Prepared,
    topo: &Topology,
    lint_base: Option<&LintBase>,
    lint_memo: &LintMemo,
) -> (bool, Vec<Diagnostic>) {
    let Some(base) = lint_base else {
        return (false, Vec::new());
    };
    if let Some(hit) = lint_memo.peek(&it.fp) {
        LINT_MEMO_HITS.inc();
        return (hit.0, hit.1.clone());
    }
    LINT_MEMO_MISSES.inc();
    let mut models = base.models.clone();
    for r in it.patch.routers() {
        if let (Some(&i), Some(dc)) = (base.idx.get(&r), it.cfg.device(r)) {
            models[i] = DeviceModel::from_config(dc);
        }
    }
    let report = lint_with_models(topo, &it.cfg, &models);
    let fresh_error = report.errors().any(|d| !base.keys.contains(&d.key()));
    let verdict = (fresh_error, report.diagnostics);
    lint_memo.insert(it.fp, Arc::new(verdict.clone()));
    verdict
}

/// Sequential resolution: computes through the persistent verifier so
/// `threads = 1` keeps the exact legacy code path (same arena, same
/// interning order).
fn resolve_sequential(
    it: &Prepared,
    plan: &Plan,
    iv: &mut IncrementalVerifier<'_>,
    topo: &Topology,
    lint_base: Option<&LintBase>,
    lint_memo: &LintMemo,
    build_entry: bool,
) -> Resolved {
    let (fresh_error, diags) = lint_verdict(it, topo, lint_base, lint_memo);
    if fresh_error {
        LINT_GATE_REJECTED.inc();
        return Resolved::LintRejected;
    }
    match plan {
        Plan::Hit(entry) => Resolved::Cached {
            entry: entry.clone(),
            diags,
        },
        Plan::Serve => Resolved::Served { diags },
        Plan::Compute => {
            let verification = iv.verify_candidate(&it.cfg, &it.patch);
            let stats = iv.last_stats();
            let cache_entry = build_entry
                .then(|| make_entry(&verification, iv.arena(), stats.recomputed + stats.reused));
            Resolved::Fresh {
                verification,
                src: None,
                cache_entry,
                stats,
                diags,
            }
        }
        Plan::Dup(_) => unreachable!("dups never reach resolve_sequential"),
    }
}

/// Worker-side resolution: simulates into a private arena clone and
/// prunes the verdict before handing it back to the coordinator.
#[allow(clippy::too_many_arguments)]
fn resolve_worker(
    it: &Prepared,
    plan: &Plan,
    validator: &CandidateValidator<'_, '_>,
    base_arena: &DerivArena,
    arena: &mut Option<DerivArena>,
    topo: &Topology,
    lint_base: Option<&LintBase>,
    lint_memo: &LintMemo,
    build_entry: bool,
) -> Resolved {
    let (fresh_error, diags) = lint_verdict(it, topo, lint_base, lint_memo);
    if fresh_error {
        LINT_GATE_REJECTED.inc();
        return Resolved::LintRejected;
    }
    match plan {
        Plan::Hit(entry) => Resolved::Cached {
            entry: entry.clone(),
            diags,
        },
        Plan::Serve => Resolved::Served { diags },
        Plan::Compute => {
            let arena = arena.get_or_insert_with(|| base_arena.clone());
            let (verification, stats) = validator.verify_candidate(&it.cfg, &it.patch, arena);
            // Prune: the worker arena is private and dies with the
            // batch, so the verdict leaves with exactly its own closure.
            let entry = make_entry(&verification, arena, stats.recomputed + stats.reused);
            Resolved::Fresh {
                verification: entry.verification.clone(),
                src: Some(entry.arena.clone()),
                cache_entry: build_entry.then_some(entry),
                stats,
                diags,
            }
        }
        Plan::Dup(_) => unreachable!("dups never reach resolve_worker"),
    }
}

/// Safety net: a candidate's touched devices must print to parseable text.
pub(crate) fn reparses(cfg: &NetworkConfig, patch: &Patch) -> bool {
    patch.routers().into_iter().all(|r| match cfg.device(r) {
        Some(d) => acr_cfg::parse::parse_device(d.name(), &d.to_text()).is_ok(),
        None => false,
    })
}

/// Worker-thread count: `0` = available parallelism; explicit requests
/// are clamped to the host's available parallelism. Candidate validation
/// is CPU-bound with no blocking I/O, so oversubscription only adds
/// contention (measured 1.7× slower at threads=4 on a 1-core host) —
/// there is no workload where more workers than cores helps.
pub(crate) fn resolve_threads(configured: usize) -> usize {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if configured != 0 {
        return configured.min(avail);
    }
    avail
}
