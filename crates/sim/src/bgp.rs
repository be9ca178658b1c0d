//! The per-prefix BGP propagation engine.
//!
//! The dynamics are the classic synchronous path-vector iteration: in
//! round *t+1* every router recomputes its best route from its local
//! originations plus what every session neighbor *exported in round t*.
//! Because exports are a pure function of the neighbors' round-*t* bests,
//! the vector of per-router bests is a complete state: the run either
//! reaches a fixed point (**converged**) or revisits a state
//! (**oscillating** — the paper's route flapping, Figure 2a).
//!
//! On oscillation the engine reports the cycle and every route observed
//! inside it, so coverage can attribute the flap to the configuration
//! lines that keep rewriting the route (the override policies of the
//! incident).
//!
//! Two engines implement the same dynamics:
//!
//! * [`run_prefix_dense`] — the reference engine: every router recomputes
//!   from every session every round.
//! * [`run_prefix_sparse`] — the production engine: a router is
//!   recomputed in round *t+1* only when it held round 0 or a session
//!   neighbor's best changed (as a full [`Route`], derivation included)
//!   in round *t*. A skipped router's inputs are bit-identical to the
//!   previous round, so its recomputation would reproduce its current
//!   best exactly — bests, rejection [`DerivId`]s, and arena first-intern
//!   order all match the dense engine (see `states` below and the
//!   `prop_sparse_sim` suite). The cycle-detection hash is maintained
//!   incrementally (XOR of position-indexed per-router key hashes, with
//!   true key-state verification on a hash hit — the dense engine trusts
//!   the 64-bit hash), and history is a per-router change log instead of
//!   a full `best.clone()` per round.
//!
//! Policy transfers (`export` then `import` over one session in one
//! direction) are pure in the carried route, so the sparse engine
//! memoizes them per simulation run ([`PolicyMemo`]); repeated rounds —
//! a dirty router re-pulling an unchanged neighbor, or a flap cycling
//! through the same states — cost a hash lookup instead of a policy walk.
//! The memo key is the full [`Route`] (not [`RouteKey`]): communities and
//! the derivation id are not protocol-key state but *do* influence the
//! transfer result (community matches; provenance of the output).
//!
//! [`warm_probe`] layers fixed-point reuse on top: given a previously
//! converged outcome for the same dynamics, one synchronous round checks
//! whether that state is still a fixed point, and if so the outcome is
//! reused wholesale. The incremental verifier gates this on a
//! patch-eligibility guard (see `acr-sim`'s `base` module) so provenance
//! is never silently altered.
//!
//! [`RouteKey`]: crate::route::RouteKey

use crate::deriv::{DerivArena, DerivId, DerivKind};
use crate::fxhash::FxHashMap;
use crate::policy::{eval_policy_into, PolicyOutcome};
use crate::route::{select_best, select_best_id, Route, RouteId, RouteInterner};
use crate::session::Session;
use acr_cfg::model::DeviceModel;
use acr_cfg::LineId;
use acr_net_types::{Asn, Prefix, RouterId};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

/// Base number of extra rounds beyond the network diameter bound before
/// declaring non-convergence without a detected cycle (defensive cap; the
/// cycle detector normally fires first).
pub const MAX_ROUNDS_BASE: usize = 64;

/// Result of simulating one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixOutcome {
    /// Fixed point reached after `rounds` rounds; per-router best route
    /// (indexed by `RouterId::index()`).
    Converged {
        rounds: usize,
        best: Vec<Option<Route>>,
        /// Negative provenance: derivations of announcements a policy
        /// rejected during the run (see [`DerivKind::ImportDenied`]).
        rejections: Vec<DerivId>,
    },
    /// A state repeated: the prefix flaps. `cycle_len` is the period;
    /// `observed` collects every distinct best route each router held
    /// inside the cycle (provenance roots for the failure).
    Flapping {
        first_seen_round: usize,
        cycle_len: usize,
        observed: Vec<Vec<Route>>,
        /// Negative provenance, as in [`PrefixOutcome::Converged`].
        rejections: Vec<DerivId>,
    },
}

impl PrefixOutcome {
    /// Whether the prefix converged.
    pub fn is_converged(&self) -> bool {
        matches!(self, PrefixOutcome::Converged { .. })
    }

    /// The stable best route of `router`, if converged.
    pub fn best_of(&self, router: RouterId) -> Option<&Route> {
        match self {
            PrefixOutcome::Converged { best, .. } => best.get(router.index())?.as_ref(),
            PrefixOutcome::Flapping { .. } => None,
        }
    }

    /// Derivation roots of everything this outcome depends on — bests for
    /// a converged prefix, every observed route for a flapping one.
    pub fn deriv_roots(&self) -> Vec<DerivId> {
        match self {
            PrefixOutcome::Converged { best, .. } => {
                best.iter().flatten().map(|r| r.deriv).collect()
            }
            PrefixOutcome::Flapping { observed, .. } => {
                observed.iter().flatten().map(|r| r.deriv).collect()
            }
        }
    }

    /// Negative-provenance roots: announcements a policy rejected. Failed
    /// tests fold these into their coverage so SBFL can see deny-type
    /// faults (a rejected route would otherwise leave no trace).
    pub fn rejection_roots(&self) -> &[DerivId] {
        match self {
            PrefixOutcome::Converged { rejections, .. }
            | PrefixOutcome::Flapping { rejections, .. } => rejections,
        }
    }
}

/// Local origination sources for one router and one prefix.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Origination {
    /// (derivation kind, lines) pairs — one per origination reason.
    pub sources: Vec<(DerivKind, Vec<LineId>)>,
}

/// Everything the engine needs per router, precomputed once per network.
pub struct RouterCtx<'a> {
    pub id: RouterId,
    pub model: &'a DeviceModel,
    pub asn: Option<Asn>,
}

/// Which convergence engine to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergeEngine {
    /// The reference engine: full recomputation every round.
    Dense,
    /// The worklist engine: recompute only routers whose inputs changed.
    Sparse,
}

static SPARSE_DEFAULT: OnceLock<bool> = OnceLock::new();

impl ConvergeEngine {
    /// The process-wide default: [`ConvergeEngine::Sparse`], unless the
    /// `ACR_SPARSE` environment variable says `0`/`false`/`off`. Read
    /// once (first call wins), like the other `ACR_*` toggles.
    pub fn from_env() -> ConvergeEngine {
        let sparse = *SPARSE_DEFAULT.get_or_init(|| {
            !matches!(
                std::env::var("ACR_SPARSE").ok().as_deref(),
                Some("0") | Some("false") | Some("off")
            )
        });
        if sparse {
            ConvergeEngine::Sparse
        } else {
            ConvergeEngine::Dense
        }
    }
}

/// Work accounting across one or more convergence runs. One "policy
/// eval" is one actual walk of the export→import machinery; attempts the
/// sparse engine serves from its memo are counted in `memo_hits` instead.
/// The dense engine never skips and never memoizes, so on identical
/// dynamics `recomputed_routers` and `policy_evals` bound the sparse
/// engine's from above — `exp_converge` records both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConvergeWork {
    /// Prefixes run to an outcome (warm reuses included).
    pub prefixes: u64,
    /// Synchronous rounds computed (cycle-check-only iterations excluded).
    pub rounds: u64,
    /// Router recomputations performed.
    pub recomputed_routers: u64,
    /// Router recomputations skipped because no session neighbor changed.
    pub skipped_routers: u64,
    /// Export→import evaluations actually performed.
    pub policy_evals: u64,
    /// Evaluations served from the per-run [`PolicyMemo`].
    pub memo_hits: u64,
    /// Warm-start probes attempted ([`warm_probe`]).
    pub warm_probes: u64,
    /// Probes that confirmed the cached fixed point and reused it.
    pub warm_reused: u64,
    /// Probes that failed and fell back to a cold sparse run.
    pub warm_fallbacks: u64,
}

/// Result of one policy transfer (export by the sender, then import by
/// the receiver) over one session in one direction, with the accepted
/// route hash-consed into the memo's [`RouteInterner`] — the memoized
/// value is two machine words and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Transfer {
    /// The receiver accepted this route into its candidate set.
    Accepted(RouteId),
    /// A policy denied the announcement (negative provenance).
    Denied(DerivId),
    /// Nothing config-attributable happened (AS-path loop, no BGP).
    Silent,
}

/// An unmemoized transfer result, before the accepted route is interned.
enum Evaluated {
    Accepted(Route),
    Denied(DerivId),
    Silent,
}

/// Per-simulation-run memo over the transfer function, keyed on
/// (session, direction, carried route). The transfer is pure in those
/// inputs — the models and session views are fixed for a run, and the
/// derivation arena is content-addressed, so re-running a transfer
/// returns bit-identical routes and ids. The key must be the full
/// [`Route`]: the route *key* excludes communities (matchable by
/// policies) and the derivation id (flows into the output's provenance),
/// both of which change the result.
///
/// Hits only ever occur within one prefix's run (the prefix is part of
/// the route), where they come from repeated rounds: a dirty router
/// re-pulling an unchanged neighbor, or a flap cycling through the same
/// states.
#[derive(Default)]
pub struct PolicyMemo {
    /// `slots[2 * session_index + direction]`, direction = sender is `a`.
    /// Keyed by [`RouteId`] — id equality is full-route equality within
    /// `routes`, so a lookup is one integer-keyed probe instead of a
    /// deep route hash + comparison. `HashMap` semantics (not hash
    /// quality) carry the correctness argument.
    slots: Vec<FxHashMap<RouteId, MemoEntry>>,
    /// The hash-consed route arena all keys and accepted values live in.
    /// Append-only, so ids survive [`PolicyMemo::begin_run`]; it may only
    /// be shared across runs that share a content-addressed `DerivArena`
    /// (the routes carry `DerivId`s).
    routes: RouteInterner,
    /// Reused per-evaluation buffers for the unmemoized path.
    eval: EvalScratch,
    /// Current run generation; entries remember the last generation that
    /// *attempted* them through [`PolicyMemo::transfer`], which is what
    /// keeps per-run rejection bookkeeping exact when one memo is kept
    /// alive across runs (see [`PolicyMemo::begin_run`]).
    gen: u64,
    /// Routers whose adjacent-session slots were (re)filled during the
    /// last cross-run use while *their* models were patched — those
    /// entries encode that candidate's semantics and must be dropped
    /// before the next run reuses the memo.
    poisoned: Vec<RouterId>,
    /// The session list `slots` is indexed against — kept so the next
    /// [`PolicyMemo::begin_run`] can detect a structurally changed list
    /// and re-home surviving entries by endpoint pair instead of
    /// discarding them (an `Arc` clone, so carrying it is free).
    sessions: Option<Arc<Vec<Session>>>,
}

/// One memoized transfer and the generation that last attempted it.
#[derive(Clone, Copy)]
struct MemoEntry {
    t: Transfer,
    gen: u64,
}

/// Reusable buffers for one policy evaluation: the derivation's line set
/// and parent list, built in place and interned via
/// [`DerivArena::intern_ref`] so a dedup hit allocates nothing.
#[derive(Default)]
struct EvalScratch {
    lines: Vec<LineId>,
    parents: Vec<DerivId>,
}

impl PolicyMemo {
    pub fn new() -> Self {
        PolicyMemo::default()
    }

    fn slot_index(&mut self, si: u32, sender_is_a: bool) -> usize {
        let idx = si as usize * 2 + sender_is_a as usize;
        if self.slots.len() <= idx {
            self.slots.resize_with(idx + 1, FxHashMap::default);
        }
        idx
    }

    /// Prepares a memo that outlives one simulation for its next run.
    /// Bumps the generation (so every surviving entry reads as "not yet
    /// attempted this run" and its denial is re-recorded exactly once)
    /// and drops entries for sessions adjacent to `changed` routers —
    /// plus those poisoned by the previous run's changed routers, whose
    /// entries encode that run's patched semantics. Entries on sessions
    /// between untouched routers are pure in inputs the patch cannot
    /// reach, so they remain bit-exact.
    ///
    /// When `sessions` still lines up with the previous run's list
    /// (same endpoint pairs in the same order — every non-structural
    /// delta), slots are reused in place; any slot whose session content
    /// changed is cleared. A structurally changed list (sessions added,
    /// removed, or reordered) shifts slot indices instead of merely
    /// invalidating entries, so surviving slots are re-homed by endpoint
    /// pair, gated on full content equality of the old and new session.
    ///
    /// The caller must only keep a memo across runs that share a
    /// content-addressed arena and whose unpatched routers share device
    /// models (the incremental verifier's delta-construction path).
    pub fn begin_run(&mut self, sessions: &Arc<Vec<Session>>, changed: &[RouterId]) {
        self.gen = self.gen.wrapping_add(1);
        let prev = self.sessions.replace(Arc::clone(sessions));
        let stale = |r: &RouterId| changed.contains(r) || self.poisoned.contains(r);
        let aligned = prev.as_ref().is_some_and(|p| {
            Arc::ptr_eq(p, sessions)
                || (p.len() == sessions.len()
                    && p.iter()
                        .zip(sessions.iter())
                        .all(|(x, y)| x.a == y.a && x.b == y.b))
        });
        if aligned {
            let prev = prev.expect("aligned implies a previous list");
            let same_arc = Arc::ptr_eq(&prev, sessions);
            for (si, s) in sessions.iter().enumerate() {
                if stale(&s.a) || stale(&s.b) || (!same_arc && prev[si] != *s) {
                    for idx in [si * 2, si * 2 + 1] {
                        if let Some(slot) = self.slots.get_mut(idx) {
                            slot.clear();
                        }
                    }
                }
            }
        } else {
            let mut old_slots = std::mem::take(&mut self.slots);
            self.slots
                .resize_with(sessions.len() * 2, FxHashMap::default);
            if let Some(prev) = prev {
                let mut by_pair: FxHashMap<(RouterId, RouterId), usize> = FxHashMap::default();
                for (osi, s) in prev.iter().enumerate() {
                    by_pair.insert((s.a, s.b), osi);
                }
                for (si, s) in sessions.iter().enumerate() {
                    if stale(&s.a) || stale(&s.b) {
                        continue;
                    }
                    let Some(&osi) = by_pair.get(&(s.a, s.b)) else {
                        continue;
                    };
                    if prev[osi] == *s && old_slots.len() > osi * 2 + 1 {
                        self.slots[si * 2] = std::mem::take(&mut old_slots[osi * 2]);
                        self.slots[si * 2 + 1] = std::mem::take(&mut old_slots[osi * 2 + 1]);
                    }
                }
            }
        }
        self.poisoned.clear();
        self.poisoned.extend_from_slice(changed);
    }

    /// The memoized transfer. Returns `(first, result)` — `first` is true
    /// when this (session, direction, route) was not yet attempted *this
    /// run* (the caller records denials into its rejection set exactly
    /// once per run, on that first attempt; the dense engine's duplicate
    /// pushes dedup away in the final sort).
    #[allow(clippy::too_many_arguments)]
    fn transfer(
        &mut self,
        si: u32,
        receiver: &RouterCtx<'_>,
        sender: &RouterCtx<'_>,
        session: &Session,
        best: RouteId,
        arena: &mut DerivArena,
        work: &mut ConvergeWork,
    ) -> (bool, Transfer) {
        let idx = self.slot_index(si, session.a == sender.id);
        let gen = self.gen;
        if let Some(e) = self.slots[idx].get_mut(&best) {
            work.memo_hits += 1;
            let first = e.gen != gen;
            e.gen = gen;
            return (first, e.t);
        }
        work.policy_evals += 1;
        let t = match transfer(
            receiver,
            sender,
            session,
            self.routes.get(best),
            arena,
            &mut self.eval,
        ) {
            Evaluated::Accepted(r) => Transfer::Accepted(self.routes.intern_owned(r)),
            Evaluated::Denied(d) => Transfer::Denied(d),
            Evaluated::Silent => Transfer::Silent,
        };
        self.slots[idx].insert(best, MemoEntry { t, gen });
        (true, t)
    }

    /// A transfer lookup for the warm probe: reuses (and fills) the memo
    /// **without** stamping the current generation. Probe evaluations do
    /// not record rejections, so an entry the probe touches must still
    /// read as unattempted to a subsequent cold run of the same run
    /// generation — otherwise that run's first-evaluation denial
    /// bookkeeping would be suppressed.
    #[allow(clippy::too_many_arguments)]
    fn probe_transfer(
        &mut self,
        si: u32,
        receiver: &RouterCtx<'_>,
        sender: &RouterCtx<'_>,
        session: &Session,
        best: RouteId,
        arena: &mut DerivArena,
        work: &mut ConvergeWork,
    ) -> Transfer {
        let idx = self.slot_index(si, session.a == sender.id);
        if let Some(e) = self.slots[idx].get(&best) {
            work.memo_hits += 1;
            return e.t;
        }
        work.policy_evals += 1;
        let t = match transfer(
            receiver,
            sender,
            session,
            self.routes.get(best),
            arena,
            &mut self.eval,
        ) {
            Evaluated::Accepted(r) => Transfer::Accepted(self.routes.intern_owned(r)),
            Evaluated::Denied(d) => Transfer::Denied(d),
            Evaluated::Silent => Transfer::Silent,
        };
        let gen = self.gen.wrapping_sub(1);
        self.slots[idx].insert(best, MemoEntry { t, gen });
        t
    }
}

/// One unmemoized transfer: `sender` exports `best` over `session`,
/// `receiver` imports the result.
fn transfer(
    receiver: &RouterCtx<'_>,
    sender: &RouterCtx<'_>,
    session: &Session,
    best: &Route,
    arena: &mut DerivArena,
    scratch: &mut EvalScratch,
) -> Evaluated {
    match export(sender, session, receiver.id, best, arena, scratch) {
        Ok(msg) => match import(receiver, session, sender.id, &msg, arena, scratch) {
            Ok(imported) => Evaluated::Accepted(imported),
            Err(Some(denied)) => Evaluated::Denied(denied),
            Err(None) => Evaluated::Silent,
        },
        Err(Some(denied)) => Evaluated::Denied(denied),
        Err(None) => Evaluated::Silent,
    }
}

/// Simulates one prefix to fixed point or cycle with the process-default
/// engine (see [`ConvergeEngine::from_env`]).
///
/// `originations[i]` lists why router `i` originates `prefix` (empty for
/// non-originators). `sessions` are the established sessions.
pub fn run_prefix(
    prefix: Prefix,
    routers: &[RouterCtx<'_>],
    sessions: &[Session],
    originations: &[Origination],
    arena: &mut DerivArena,
) -> PrefixOutcome {
    let mut work = ConvergeWork::default();
    let sessions_of = index_sessions(sessions, routers.len());
    match ConvergeEngine::from_env() {
        ConvergeEngine::Dense => run_prefix_dense(
            prefix,
            routers,
            sessions,
            &sessions_of,
            originations,
            arena,
            &mut work,
        ),
        ConvergeEngine::Sparse => {
            let mut memo = PolicyMemo::new();
            let mut scratch = SparseScratch::new();
            run_prefix_sparse(
                prefix,
                routers,
                sessions,
                &sessions_of,
                originations,
                arena,
                &mut memo,
                &mut scratch,
                &mut work,
            )
        }
    }
}

/// Interns the constant per-router local candidate routes.
fn intern_locals(
    prefix: Prefix,
    originations: &[Origination],
    arena: &mut DerivArena,
) -> Vec<Vec<Route>> {
    originations
        .iter()
        .map(|o| {
            o.sources
                .iter()
                .map(|(kind, lines)| {
                    let deriv = arena.intern(*kind, lines.clone(), vec![]);
                    Route::local(prefix, deriv)
                })
                .collect()
        })
        .collect()
}

/// Id-level twin of [`intern_locals`] for the interned sparse engine:
/// same arena intern calls in the same order, with the routes hash-consed
/// into `routes` instead of cloned per round.
fn intern_locals_ids(
    prefix: Prefix,
    originations: &[Origination],
    arena: &mut DerivArena,
    routes: &mut RouteInterner,
) -> Vec<Vec<RouteId>> {
    originations
        .iter()
        .map(|o| {
            o.sources
                .iter()
                .map(|(kind, lines)| {
                    let deriv = arena.intern(*kind, lines.clone(), vec![]);
                    routes.intern_owned(Route::local(prefix, deriv))
                })
                .collect()
        })
        .collect()
}

/// Session indices per member router, in session order — the candidate
/// evaluation order both engines share. Prefix-independent: callers
/// running many prefixes build this once and pass it to every engine
/// invocation (it showed up as per-prefix fixed cost when it was built
/// inside the engines).
pub fn index_sessions(sessions: &[Session], n: usize) -> Vec<Vec<u32>> {
    let mut sessions_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (si, s) in sessions.iter().enumerate() {
        sessions_of[s.a.index()].push(si as u32);
        sessions_of[s.b.index()].push(si as u32);
    }
    sessions_of
}

/// Reusable working memory for [`run_prefix_sparse`]: change logs, the
/// worklist bitmaps, cycle table, and candidate buffer. A many-prefix run
/// clears and refills these per prefix instead of reallocating — on the
/// repair loop's small networks the per-prefix allocations were a
/// measurable share of convergence wall time.
#[derive(Default)]
pub struct SparseScratch {
    slot_hash: Vec<u64>,
    logs: Vec<Vec<(usize, Option<RouteId>)>>,
    seen_states: FxHashMap<u64, usize>,
    dirty: Vec<bool>,
    next_dirty: Vec<bool>,
    pending: Vec<(usize, Option<RouteId>)>,
    candidates: Vec<RouteId>,
}

impl SparseScratch {
    pub fn new() -> Self {
        SparseScratch::default()
    }
}

/// The dense reference engine: every router recomputes from every session
/// every round. Kept verbatim as the oracle the sparse engine is tested
/// against (per-round scratch is reused, which does not change a single
/// evaluation).
pub fn run_prefix_dense(
    prefix: Prefix,
    routers: &[RouterCtx<'_>],
    sessions: &[Session],
    sessions_of: &[Vec<u32>],
    originations: &[Origination],
    arena: &mut DerivArena,
    work: &mut ConvergeWork,
) -> PrefixOutcome {
    let n = routers.len();
    work.prefixes += 1;
    // Local candidate routes never change across rounds.
    let locals = intern_locals(prefix, originations, arena);

    let mut best: Vec<Option<Route>> = (0..n)
        .map(|i| select_best(locals[i].iter().cloned()))
        .collect();
    let mut seen_states: FxHashMap<u64, usize> = FxHashMap::default();
    let mut history: Vec<Vec<Option<Route>>> = Vec::new();
    let mut rejections: Vec<DerivId> = Vec::new();

    // Per-round scratch, allocated once and drained per router / swapped
    // per round.
    let mut next: Vec<Option<Route>> = Vec::with_capacity(n);
    let mut candidates: Vec<Route> = Vec::new();
    let mut eval = EvalScratch::default();

    let max_rounds = MAX_ROUNDS_BASE + 4 * n;
    for round in 0..max_rounds {
        let state_hash = hash_state(&best);
        if let Some(&first) = seen_states.get(&state_hash) {
            // Revisited a state: rounds [first, round) form the cycle.
            let cycle_len = round - first;
            if cycle_len == 0 {
                break; // defensive; cannot happen (hash inserted below)
            }
            let mut observed: Vec<Vec<Route>> = vec![Vec::new(); n];
            for state in &history[first..] {
                for (i, r) in state.iter().enumerate() {
                    if let Some(r) = r {
                        if !observed[i].iter().any(|o: &Route| o.key() == r.key()) {
                            observed[i].push(r.clone());
                        }
                    }
                }
            }
            rejections.sort_unstable();
            rejections.dedup();
            return PrefixOutcome::Flapping {
                first_seen_round: first,
                cycle_len,
                observed,
                rejections,
            };
        }
        seen_states.insert(state_hash, round);
        history.push(best.clone());

        // Compute the next state.
        work.rounds += 1;
        work.recomputed_routers += n as u64;
        next.clear();
        for i in 0..n {
            let me = &routers[i];
            candidates.extend(locals[i].iter().cloned());
            for &si in &sessions_of[i] {
                let session = &sessions[si as usize];
                let view = session.view_of(me.id).expect("indexed by member");
                let neighbor = &routers[view.peer.index()];
                let Some(neighbor_best) = &best[view.peer.index()] else {
                    continue;
                };
                work.policy_evals += 1;
                match export(neighbor, session, me.id, neighbor_best, arena, &mut eval) {
                    Ok(msg) => match import(me, session, view.peer, &msg, arena, &mut eval) {
                        Ok(imported) => candidates.push(imported),
                        Err(Some(denied)) => rejections.push(denied),
                        Err(None) => {} // AS-path loop: not config-attributable
                    },
                    Err(Some(denied)) => rejections.push(denied),
                    Err(None) => {}
                }
            }
            next.push(select_best(candidates.drain(..)));
        }

        let stable = next.iter().zip(&best).all(|(a, b)| match (a, b) {
            (Some(x), Some(y)) => x.key() == y.key(),
            (None, None) => true,
            _ => false,
        });
        std::mem::swap(&mut best, &mut next);
        if stable {
            rejections.sort_unstable();
            rejections.dedup();
            return PrefixOutcome::Converged {
                rounds: round + 1,
                best,
                rejections,
            };
        }
    }
    // Defensive cap without a repeated state (should not happen for
    // deterministic synchronous dynamics over a finite state space, but we
    // never want an infinite loop in a repair inner loop).
    rejections.sort_unstable();
    rejections.dedup();
    PrefixOutcome::Flapping {
        first_seen_round: 0,
        cycle_len: max_rounds,
        observed: vec![
            best.into_iter()
                .flatten()
                .map(|r| vec![r])
                .next()
                .unwrap_or_default();
            n
        ],
        rejections,
    }
}

/// Position-indexed hash of one router's slot in the key-state vector.
/// The full state hash is the XOR of all slots, so a change to router `i`
/// updates it in O(1): `H ^= old_slot ^ new_slot`.
///
/// The key is identified by its hash-consed key id, so hashing a slot
/// never touches the AS path. Uses the crate's fast hasher, and need not
/// match the dense engine's [`hash_state`]: the sparse engine's hash only
/// has to be self-consistent (equal key states hash equal, which key-id
/// equality gives exactly), and every hit is *verified* against the true
/// key state before a cycle is declared — a collision between distinct
/// states costs a spurious comparison rather than a false cycle, the
/// same ~2^-64 regime as the dense engine, which trusts its SipHash
/// fingerprint outright.
fn hash_slot_id(routes: &RouteInterner, i: usize, r: Option<RouteId>) -> u64 {
    let mut hasher = crate::fxhash::FxHasher::default();
    i.hash(&mut hasher);
    match r {
        Some(id) => {
            1u8.hash(&mut hasher);
            routes.key_id(id).hash(&mut hasher);
        }
        None => 0u8.hash(&mut hasher),
    }
    hasher.finish()
}

/// Protocol-key equality of two id slots — an integer compare, since key
/// ids are hash-consed over [`crate::route::RouteKey`].
fn keys_eq_id(routes: &RouteInterner, a: Option<RouteId>, b: Option<RouteId>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y || routes.key_id(x) == routes.key_id(y),
        (None, None) => true,
        _ => false,
    }
}

/// The value router `i`'s change log held at `round` (logs are seeded at
/// round 0 and gain an entry per change, sorted by round).
fn log_value_at(log: &[(usize, Option<RouteId>)], round: usize) -> Option<RouteId> {
    let idx = match log.binary_search_by_key(&round, |e| e.0) {
        Ok(k) => k,
        Err(k) => k - 1, // log[0].0 == 0 <= round, so k >= 1
    };
    log[idx].1
}

/// The sparse worklist engine. Produces outcomes byte-identical to
/// [`run_prefix_dense`] (modulo an astronomically unlikely 64-bit state
/// hash collision, where the dense engine would mis-detect a cycle and
/// this engine — which verifies hash hits against the reconstructed
/// state — would not):
///
/// * **Skipping is exact.** `next[i]` is a pure function of the
///   neighbors' round-*t* bests and constant locals. If no session
///   neighbor of `i` changed as a full `Route` in round *t*, recomputing
///   `i` would reproduce its current best bit-for-bit (same derivation
///   ids — the arena is content-addressed), so it is skipped. Dirtiness
///   propagates on *full* route change; the stability check stays
///   key-based, exactly like the dense engine.
/// * **Rejections are complete.** Every distinct transfer value the dense
///   engine ever evaluates is first evaluated here at the same (round,
///   receiver, session) position — the sender's change made the receiver
///   dirty — and its denial is recorded then. Dense re-evaluations of the
///   same value only push duplicates, which its final dedup removes.
/// * **Arena first-intern order is preserved.** New derivations only
///   appear on the first evaluation of a transfer value, and those first
///   evaluations coincide positionally in both engines; everything else
///   is a content-addressed dedup hit.
#[allow(clippy::too_many_arguments)]
pub fn run_prefix_sparse(
    prefix: Prefix,
    routers: &[RouterCtx<'_>],
    sessions: &[Session],
    sessions_of: &[Vec<u32>],
    originations: &[Origination],
    arena: &mut DerivArena,
    memo: &mut PolicyMemo,
    scratch: &mut SparseScratch,
    work: &mut ConvergeWork,
) -> PrefixOutcome {
    let n = routers.len();
    work.prefixes += 1;
    let locals = intern_locals_ids(prefix, originations, arena, &mut memo.routes);

    let mut best: Vec<Option<RouteId>> = (0..n)
        .map(|i| select_best_id(&memo.routes, locals[i].iter().copied()))
        .collect();
    // Incremental state hash and per-router change logs (round, value) —
    // the compact replacement for the dense engine's per-round history.
    // All working buffers live in `scratch` and are reset here.
    let slot_hash = &mut scratch.slot_hash;
    slot_hash.clear();
    slot_hash.extend(
        best.iter()
            .enumerate()
            .map(|(i, r)| hash_slot_id(&memo.routes, i, *r)),
    );
    let mut state_hash: u64 = slot_hash.iter().fold(0, |acc, h| acc ^ h);
    let logs = &mut scratch.logs;
    logs.truncate(n);
    logs.resize_with(n, Vec::new);
    for (log, r) in logs.iter_mut().zip(&best) {
        log.clear();
        log.push((0usize, *r));
    }
    let seen_states = &mut scratch.seen_states;
    seen_states.clear();
    let mut rejections: Vec<DerivId> = Vec::new();

    // Worklist state: `dirty` for the round being computed, `next_dirty`
    // accumulates for the round after. Round 1 recomputes everyone.
    scratch.dirty.clear();
    scratch.dirty.resize(n, true);
    scratch.next_dirty.clear();
    scratch.next_dirty.resize(n, false);
    let mut dirty = &mut scratch.dirty;
    let mut next_dirty = &mut scratch.next_dirty;
    let pending = &mut scratch.pending;
    pending.clear();
    let candidates = &mut scratch.candidates;
    candidates.clear();

    let max_rounds = MAX_ROUNDS_BASE + 4 * n;
    for round in 0..max_rounds {
        if let Some(&first) = seen_states.get(&state_hash) {
            // Hash hit: verify true key-state equality against the
            // reconstructed round-`first` state before declaring a cycle
            // (a collision between distinct states is skipped — the dense
            // engine would mis-fire here, at probability ~2^-64).
            let equal = logs
                .iter()
                .zip(&best)
                .all(|(log, cur)| keys_eq_id(&memo.routes, log_value_at(log, first), *cur));
            if equal {
                let cycle_len = round - first;
                if cycle_len == 0 {
                    break; // defensive; cannot happen (hash inserted below)
                }
                // Reconstruct the dense `observed` sets: per router, the
                // first occurrence of each distinct key over the cycle
                // rounds [first, round), in round order.
                let mut observed: Vec<Vec<Route>> = vec![Vec::new(); n];
                let mut observed_ids: Vec<Vec<RouteId>> = vec![Vec::new(); n];
                for (i, log) in logs.iter().enumerate() {
                    for r in first..round {
                        if let Some(id) = log_value_at(log, r) {
                            let kid = memo.routes.key_id(id);
                            if !observed_ids[i]
                                .iter()
                                .any(|o| memo.routes.key_id(*o) == kid)
                            {
                                observed_ids[i].push(id);
                                observed[i].push(memo.routes.get(id).clone());
                            }
                        }
                    }
                }
                rejections.sort_unstable();
                rejections.dedup();
                return PrefixOutcome::Flapping {
                    first_seen_round: first,
                    cycle_len,
                    observed,
                    rejections,
                };
            }
        } else {
            seen_states.insert(state_hash, round);
        }

        // Sweep the dirty routers against the round-`round` state.
        // Updates are buffered in `pending` so every recomputation reads
        // the same synchronous state.
        work.rounds += 1;
        pending.clear();
        for i in 0..n {
            if !dirty[i] {
                work.skipped_routers += 1;
                continue;
            }
            work.recomputed_routers += 1;
            let me = &routers[i];
            candidates.extend(locals[i].iter().copied());
            for &si in &sessions_of[i] {
                let session = &sessions[si as usize];
                let view = session.view_of(me.id).expect("indexed by member");
                let Some(neighbor_best) = best[view.peer.index()] else {
                    continue;
                };
                let neighbor = &routers[view.peer.index()];
                let (fresh, t) =
                    memo.transfer(si, me, neighbor, session, neighbor_best, arena, work);
                match t {
                    Transfer::Accepted(id) => candidates.push(id),
                    Transfer::Denied(d) => {
                        if fresh {
                            rejections.push(d);
                        }
                    }
                    Transfer::Silent => {}
                }
            }
            // Full-route identity is id identity, so the dirtiness check
            // (and the candidate comparisons inside `select_best_id`'s
            // comparator) never deep-compare routes.
            let new = select_best_id(&memo.routes, candidates.drain(..));
            if new != best[i] {
                pending.push((i, new));
            }
        }

        // Key-stability, dense semantics: changes that only touch
        // non-key fields (derivation, communities) still converge.
        let stable = pending
            .iter()
            .all(|(i, new)| keys_eq_id(&memo.routes, *new, best[*i]));
        for (i, new) in pending.drain(..) {
            let h = hash_slot_id(&memo.routes, i, new);
            state_hash ^= slot_hash[i] ^ h;
            slot_hash[i] = h;
            best[i] = new;
            logs[i].push((round + 1, new));
            for &si in &sessions_of[i] {
                let s = &sessions[si as usize];
                let peer = if s.a.index() == i { s.b } else { s.a };
                next_dirty[peer.index()] = true;
            }
        }
        if stable {
            rejections.sort_unstable();
            rejections.dedup();
            return PrefixOutcome::Converged {
                rounds: round + 1,
                best: best
                    .into_iter()
                    .map(|o| o.map(|id| memo.routes.get(id).clone()))
                    .collect(),
                rejections,
            };
        }
        std::mem::swap(&mut dirty, &mut next_dirty);
        next_dirty.fill(false);
    }
    // Defensive cap, identical to the dense engine's.
    rejections.sort_unstable();
    rejections.dedup();
    PrefixOutcome::Flapping {
        first_seen_round: 0,
        cycle_len: max_rounds,
        observed: vec![
            best.into_iter()
                .flatten()
                .map(|id| vec![memo.routes.get(id).clone()])
                .next()
                .unwrap_or_default();
            n
        ],
        rejections,
    }
}

/// Probes a previously converged outcome with one synchronous round: if
/// the cached per-router bests are a full fixed point of the *current*
/// dynamics (every recomputation reproduces the cached route
/// bit-for-bit), the cached outcome — rounds, bests, rejections — is
/// returned for wholesale reuse; otherwise `None`, and the caller falls
/// back to a cold run, so provenance is never silently altered.
///
/// The caller is responsible for only probing when the dynamics are
/// *expected* to be unchanged (the incremental verifier's
/// `warm_eligible` guard); the probe is the runtime defense-in-depth
/// behind that guard. Under the guard every intern below is a
/// content-addressed dedup hit; a failed probe may leave unreferenced
/// (and therefore harmless) derivations behind. Probe evaluations go
/// through [`PolicyMemo::probe_transfer`], which never stamps the current
/// run generation: probes do not record rejections, so an entry the probe
/// touches must still read as unattempted to a subsequent cold run.
#[allow(clippy::too_many_arguments)]
pub fn warm_probe(
    prefix: Prefix,
    routers: &[RouterCtx<'_>],
    sessions: &[Session],
    sessions_of: &[Vec<u32>],
    originations: &[Origination],
    arena: &mut DerivArena,
    memo: &mut PolicyMemo,
    base: &PrefixOutcome,
    work: &mut ConvergeWork,
) -> Option<PrefixOutcome> {
    let PrefixOutcome::Converged { best, .. } = base else {
        return None;
    };
    let n = routers.len();
    if best.len() != n {
        return None;
    }
    work.warm_probes += 1;
    // Intern the cached bests so every per-router comparison below is an
    // id compare (id equality ⟺ full-route equality within the interner).
    let best_ids: Vec<Option<RouteId>> = best
        .iter()
        .map(|r| r.as_ref().map(|r| memo.routes.intern(r)))
        .collect();
    let mut candidates: Vec<RouteId> = Vec::new();
    for i in 0..n {
        let me = &routers[i];
        for (kind, lines) in &originations[i].sources {
            let deriv = arena.intern(*kind, lines.clone(), vec![]);
            candidates.push(memo.routes.intern_owned(Route::local(prefix, deriv)));
        }
        for &si in &sessions_of[i] {
            let session = &sessions[si as usize];
            let view = session.view_of(me.id).expect("indexed by member");
            let Some(neighbor_best) = best_ids[view.peer.index()] else {
                continue;
            };
            let neighbor = &routers[view.peer.index()];
            let t = memo.probe_transfer(si, me, neighbor, session, neighbor_best, arena, work);
            if let Transfer::Accepted(id) = t {
                candidates.push(id);
            }
        }
        if select_best_id(&memo.routes, candidates.drain(..)) != best_ids[i] {
            return None;
        }
    }
    work.warm_reused += 1;
    Some(base.clone())
}

/// The export half: `sender` announces its best to `receiver` over
/// `session`. Returns `None` when suppressed (policy deny).
///
/// Deliberately **no split horizon**: eBGP advertises the best route to
/// every session peer, including the one it was learned from; the
/// *receiver's* AS-path loop check is what normally discards the echo.
/// `as-path overwrite` erases that evidence — the exact mechanism of the
/// paper's Figure 2 incident — so modelling the echo is essential.
/// `Err(Some(deriv))` = export policy denied (negative provenance);
/// `Err(None)` = no BGP process on the sender.
fn export(
    sender: &RouterCtx<'_>,
    session: &Session,
    receiver: RouterId,
    best: &Route,
    arena: &mut DerivArena,
    scratch: &mut EvalScratch,
) -> Result<Route, Option<DerivId>> {
    let sender_view = session.view_of(sender.id).ok_or(None)?;
    debug_assert_eq!(sender_view.peer, receiver);
    let own_asn = sender.asn.ok_or(None)?;

    let EvalScratch { lines, parents } = scratch;
    lines.clear();
    lines.extend_from_slice(sender_view.base_lines);
    parents.clear();
    parents.push(best.deriv);
    let mut out = best.clone();
    let mut overwrote = false;
    if let Some((policy, app_line)) = sender_view.export {
        lines.push(app_line);
        match eval_policy_into(sender.model, sender.id, own_asn, policy, best, lines) {
            PolicyOutcome::Permit {
                route,
                overwrote_path,
            } => {
                out = route;
                overwrote = overwrote_path;
            }
            PolicyOutcome::Deny => {
                return Err(Some(arena.intern_ref(
                    DerivKind::ExportDenied,
                    lines,
                    parents,
                )));
            }
        }
    }
    if !overwrote {
        out.as_path = out.as_path.prepend(own_asn);
    }
    // eBGP next-hop-self: the announcement carries the sender's address on
    // the shared link.
    out.next_hop = sender_view.local_addr;
    // Announcements reset LOCAL_PREF (it is not transitive across eBGP)
    // and keep MED/communities.
    out.local_pref = crate::route::DEFAULT_LOCAL_PREF;
    out.deriv = arena.intern_ref(DerivKind::Export, lines, parents);
    out.learned_from = None; // receiver will stamp its own view
    Ok(out)
}

/// The import half: `receiver` accepts `msg` from `sender`.
/// `Err(Some(deriv))` = import policy denied (negative provenance);
/// `Err(None)` = AS-path loop rejection (not config-attributable).
fn import(
    receiver: &RouterCtx<'_>,
    session: &Session,
    sender: RouterId,
    msg: &Route,
    arena: &mut DerivArena,
    scratch: &mut EvalScratch,
) -> Result<Route, Option<DerivId>> {
    let view = session.view_of(receiver.id).ok_or(None)?;
    debug_assert_eq!(view.peer, sender);
    let own_asn = receiver.asn.ok_or(None)?;
    // AS-path loop prevention on the path *as received*. Note that an
    // overwritten path has had the evidence erased — which is precisely
    // how the Figure 2 incident defeats this check.
    if msg.as_path.contains(own_asn) {
        return Err(None);
    }
    let EvalScratch { lines, parents } = scratch;
    lines.clear();
    lines.extend_from_slice(view.base_lines);
    parents.clear();
    parents.push(msg.deriv);
    let mut out = msg.clone();
    if let Some((policy, app_line)) = view.import {
        lines.push(app_line);
        match eval_policy_into(receiver.model, receiver.id, own_asn, policy, msg, lines) {
            PolicyOutcome::Permit { route, .. } => {
                out = route;
            }
            PolicyOutcome::Deny => {
                return Err(Some(arena.intern_ref(
                    DerivKind::ImportDenied,
                    lines,
                    parents,
                )));
            }
        }
    }
    out.learned_from = Some(sender);
    out.deriv = arena.intern_ref(DerivKind::Import, lines, parents);
    Ok(out)
}

fn hash_state(best: &[Option<Route>]) -> u64 {
    let mut hasher = DefaultHasher::new();
    for r in best {
        match r {
            Some(r) => {
                1u8.hash(&mut hasher);
                r.key().hash(&mut hasher);
            }
            None => 0u8.hash(&mut hasher),
        }
    }
    hasher.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::establish;
    use acr_cfg::model::DeviceModel;
    use acr_cfg::parse::parse_device;
    use acr_topo::{gen, Role, Topology, TopologyBuilder};

    fn models_of(topo: &Topology, cfgs: &[&str]) -> Vec<DeviceModel> {
        topo.routers()
            .iter()
            .zip(cfgs)
            .map(|(r, c)| DeviceModel::from_config(&parse_device(r.name.clone(), c).unwrap()))
            .collect()
    }

    fn ctxs<'a>(topo: &Topology, models: &'a [DeviceModel]) -> Vec<RouterCtx<'a>> {
        topo.routers()
            .iter()
            .map(|r| RouterCtx {
                id: r.id,
                model: &models[r.id.index()],
                asn: models[r.id.index()].asn.map(|(a, _)| a),
            })
            .collect()
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// Three routers in a line: R0 — R1 — R2, R0 originates.
    fn line3() -> (Topology, Vec<DeviceModel>) {
        let topo = gen::line(3);
        // Link 0: R0(172.16.0.1) - R1(172.16.0.2)
        // Link 1: R1(172.16.0.5) - R2(172.16.0.6)
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n",
        ];
        let models = models_of(&topo, &cfgs);
        (topo, models)
    }

    #[test]
    fn propagation_along_line() {
        let (topo, models) = line3();
        let (sessions, diags) = establish(&topo, &models);
        assert_eq!(sessions.len(), 2, "{diags:?}");
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = &out else {
            panic!("should converge");
        };
        // R0: local; R1: path [65000]; R2: path [65001 65000].
        assert!(best[0].as_ref().unwrap().as_path.is_empty());
        assert_eq!(best[1].as_ref().unwrap().as_path.hops(), &[Asn(65000)]);
        assert_eq!(
            best[2].as_ref().unwrap().as_path.hops(),
            &[Asn(65001), Asn(65000)]
        );
        assert_eq!(best[1].as_ref().unwrap().learned_from, Some(RouterId(0)));
        // Next hops point along the line.
        assert_eq!(best[1].as_ref().unwrap().next_hop.to_string(), "172.16.0.1");
        assert_eq!(best[2].as_ref().unwrap().next_hop.to_string(), "172.16.0.5");
        // Provenance closure of R2's best includes R0's network line.
        let lines = arena.closure_lines([best[2].as_ref().unwrap().deriv]);
        assert!(lines.contains(&LineId::new(RouterId(0), 2)), "{lines:?}");
    }

    #[test]
    fn no_origination_means_no_routes() {
        let (topo, models) = line3();
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let orig = vec![Origination::default(); 3];
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, rounds, .. } = out else {
            panic!()
        };
        assert!(best.iter().all(|b| b.is_none()));
        assert_eq!(rounds, 1);
    }

    #[test]
    fn as_loop_prevention_blocks_reimport() {
        // Ring of 3 in distinct ASes: origination propagates both ways and
        // stops; everything converges with shortest paths.
        let topo = gen::ring(3);
        // links: 0: R0-R1 (172.16.0.1/.2), 1: R1-R2 (.5/.6), 2: R2-R0 (.9/.10)
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n peer 172.16.0.9 as-number 65002\n",
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n",
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n peer 172.16.0.10 as-number 65000\n",
        ];
        let models = models_of(&topo, &cfgs);
        let (sessions, diags) = establish(&topo, &models);
        assert_eq!(sessions.len(), 3, "{diags:?}");
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = out else {
            panic!("must converge")
        };
        // R1 and R2 each pick the direct one-hop path to R0.
        assert_eq!(best[1].as_ref().unwrap().as_path.len(), 1);
        assert_eq!(best[2].as_ref().unwrap().as_path.len(), 1);
    }

    #[test]
    fn import_deny_policy_filters() {
        let (topo, mut models) = line3();
        // R1 denies everything on import from R0.
        models[1] = DeviceModel::from_config(
            &parse_device(
                "R1",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.1 route-policy Block import\n peer 172.16.0.6 as-number 65002\nroute-policy Block deny node 10\n",
            )
            .unwrap(),
        );
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = out else {
            panic!()
        };
        assert!(best[0].is_some());
        assert!(best[1].is_none(), "import deny must filter");
        assert!(best[2].is_none(), "nothing to propagate onward");
    }

    #[test]
    fn export_policy_prepend_lengthens_path() {
        let (topo, mut models) = line3();
        models[0] = DeviceModel::from_config(
            &parse_device(
                "R0",
                "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n peer 172.16.0.2 route-policy Pad export\nroute-policy Pad permit node 10\n apply as-path prepend 65000 2\n",
            )
            .unwrap(),
        );
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = out else {
            panic!()
        };
        // Prepend 2 + the normal export prepend = 3 hops at R1.
        assert_eq!(best[1].as_ref().unwrap().as_path.len(), 3);
    }

    #[test]
    fn overwrite_on_import_erases_path() {
        let (topo, mut models) = line3();
        models[1] = DeviceModel::from_config(
            &parse_device(
                "R1",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.1 route-policy OW import\n peer 172.16.0.6 as-number 65002\nroute-policy OW permit node 10\n apply as-path overwrite\n",
            )
            .unwrap(),
        );
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = out else {
            panic!()
        };
        assert_eq!(best[1].as_ref().unwrap().as_path.hops(), &[Asn(65001)]);
        // R2 sees [65001 65001] (R1's overwritten path + export prepend).
        assert_eq!(
            best[2].as_ref().unwrap().as_path.hops(),
            &[Asn(65001), Asn(65001)]
        );
    }
    /// The classic BAD GADGET: three spokes around an origin hub, each
    /// preferring (via local-pref) the route heard from its clockwise
    /// neighbor over its own direct route. No stable assignment exists;
    /// the synchronous dynamics cycle with period 3 — the simulator must
    /// detect the oscillation (the paper's route flapping).
    fn bad_gadget() -> (Topology, Vec<DeviceModel>) {
        let mut b = TopologyBuilder::new();
        let o = b.router("O", Role::Backbone);
        let x = b.router("X", Role::Backbone);
        let y = b.router("Y", Role::Backbone);
        let z = b.router("Z", Role::Backbone);
        b.link(o, x); // .1/.2
        b.link(o, y); // .5/.6
        b.link(o, z); // .9/.10
        b.link(x, y); // .13/.14
        b.link(y, z); // .17/.18
        b.link(z, x); // .21/.22
        let topo = b.build();
        let cfgs = [
            // O originates and peers with all spokes.
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n peer 172.16.0.6 as-number 65002\n peer 172.16.0.10 as-number 65003\n".to_string(),
            // X prefers routes from Y.
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.14 as-number 65002\n peer 172.16.0.14 route-policy Prefer import\n peer 172.16.0.21 as-number 65003\nroute-policy Prefer permit node 10\n apply local-preference 200\n".to_string(),
            // Y prefers routes from Z.
            "bgp 65002\n peer 172.16.0.5 as-number 65000\n peer 172.16.0.13 as-number 65001\n peer 172.16.0.18 as-number 65003\n peer 172.16.0.18 route-policy Prefer import\nroute-policy Prefer permit node 10\n apply local-preference 200\n".to_string(),
            // Z prefers routes from X.
            "bgp 65003\n peer 172.16.0.9 as-number 65000\n peer 172.16.0.17 as-number 65002\n peer 172.16.0.22 as-number 65001\n peer 172.16.0.22 route-policy Prefer import\nroute-policy Prefer permit node 10\n apply local-preference 200\n".to_string(),
        ];
        let models: Vec<DeviceModel> = topo
            .routers()
            .iter()
            .map(|r| {
                DeviceModel::from_config(
                    &parse_device(r.name.clone(), &cfgs[r.id.index()]).unwrap(),
                )
            })
            .collect();
        (topo, models)
    }

    #[test]
    fn bad_gadget_flaps() {
        let (topo, models) = bad_gadget();
        let (sessions, diags) = establish(&topo, &models);
        assert_eq!(sessions.len(), 6, "{diags:?}");
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 4];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        match out {
            PrefixOutcome::Flapping {
                cycle_len,
                ref observed,
                ..
            } => {
                assert!(
                    cycle_len >= 2,
                    "period must be non-trivial, got {cycle_len}"
                );
                // Every spoke observes at least two distinct bests.
                for (spoke, seen) in observed.iter().enumerate().take(4).skip(1) {
                    assert!(seen.len() > 1, "spoke {spoke}: {seen:?}");
                }
                // Coverage of the flap reaches the local-pref policy lines.
                let roots = out.deriv_roots();
                let lines = arena.closure_lines(roots);
                assert!(
                    lines.contains(&LineId::new(RouterId(1), 7)),
                    "flap coverage must reach X\'s apply local-preference line: {lines:?}"
                );
            }
            PrefixOutcome::Converged { best, .. } => {
                panic!("expected flapping, converged to {best:?}")
            }
        }
    }

    /// Mutual `as-path overwrite` between two transit routers produces a
    /// *stable* forwarding loop (not a flap): each keeps the other\'s
    /// echoed route because the overwrite erased the loop evidence. This
    /// is the post-partial-repair state of the paper\'s Figure 2.
    #[test]
    fn mutual_overwrite_converges_to_stable_loop() {
        let (topo, models) = mutual_overwrite();
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 3];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let out = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let PrefixOutcome::Converged { best, .. } = out else {
            panic!("mutual overwrite should converge to a stable (looping) state")
        };
        // X\'s best points at Y, and Y\'s best points at X: a stable
        // control plane whose data plane loops.
        assert_eq!(
            best[1].as_ref().unwrap().learned_from,
            Some(RouterId(2)),
            "{best:?}"
        );
        assert_eq!(
            best[2].as_ref().unwrap().learned_from,
            Some(RouterId(1)),
            "{best:?}"
        );
    }

    fn mutual_overwrite() -> (Topology, Vec<DeviceModel>) {
        let mut b = TopologyBuilder::new();
        let r0 = b.router("O", Role::Backbone);
        let r1 = b.router("X", Role::Backbone);
        let r2 = b.router("Y", Role::Backbone);
        b.link(r0, r1); // .1/.2
        b.link(r1, r2); // .5/.6
        let topo = b.build();
        // O originates; X transits honestly; Y overwrites+prefers routes
        // from X. X in turn overwrites+prefers routes from Y.
        let cfgs = [
            "bgp 65000\n network 10.0.0.0 16\n peer 172.16.0.2 as-number 65001\n".to_string(),
            "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.6 as-number 65002\n peer 172.16.0.6 route-policy OW import\nroute-policy OW permit node 10\n apply as-path overwrite\n apply local-preference 200\n".to_string(),
            "bgp 65002\n peer 172.16.0.5 as-number 65001\n peer 172.16.0.5 route-policy OW import\nroute-policy OW permit node 10\n apply as-path overwrite\n apply local-preference 200\n".to_string(),
        ];
        let models: Vec<DeviceModel> = topo
            .routers()
            .iter()
            .map(|r| {
                DeviceModel::from_config(
                    &parse_device(r.name.clone(), &cfgs[r.id.index()]).unwrap(),
                )
            })
            .collect();
        (topo, models)
    }

    #[test]
    fn deriv_arena_stays_bounded_under_flap() {
        let (topo, models) = bad_gadget();
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let mut arena = DerivArena::new();
        let mut orig = vec![Origination::default(); 4];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        let _ = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        assert!(arena.len() < 128, "arena grew to {}", arena.len());
    }

    /// Runs both engines on the same dynamics and asserts byte-identical
    /// outcomes *and* arenas, returning the work counters for invariant
    /// checks.
    fn both_engines(
        topo: &Topology,
        models: &[DeviceModel],
        orig: &[Origination],
        prefix: Prefix,
    ) -> (PrefixOutcome, ConvergeWork, ConvergeWork) {
        let (sessions, _) = establish(topo, models);
        let routers = ctxs(topo, models);
        let sessions_of = index_sessions(&sessions, routers.len());
        let mut dense_arena = DerivArena::new();
        let mut dense_work = ConvergeWork::default();
        let dense = run_prefix_dense(
            prefix,
            &routers,
            &sessions,
            &sessions_of,
            orig,
            &mut dense_arena,
            &mut dense_work,
        );
        let mut sparse_arena = DerivArena::new();
        let mut sparse_work = ConvergeWork::default();
        let mut memo = PolicyMemo::new();
        let mut scratch = SparseScratch::new();
        let sparse = run_prefix_sparse(
            prefix,
            &routers,
            &sessions,
            &sessions_of,
            orig,
            &mut sparse_arena,
            &mut memo,
            &mut scratch,
            &mut sparse_work,
        );
        assert_eq!(dense, sparse, "outcomes must be byte-identical");
        assert_eq!(dense_arena, sparse_arena, "arenas must be byte-identical");
        (dense, dense_work, sparse_work)
    }

    fn origin_at_r0(n: usize) -> Vec<Origination> {
        let mut orig = vec![Origination::default(); n];
        orig[0]
            .sources
            .push((DerivKind::OriginNetwork, vec![LineId::new(RouterId(0), 2)]));
        orig
    }

    #[test]
    fn sparse_matches_dense_on_line() {
        let (topo, models) = line3();
        let (out, dense, sparse) = both_engines(&topo, &models, &origin_at_r0(3), p("10.0.0.0/16"));
        assert!(out.is_converged());
        assert!(
            sparse.recomputed_routers < dense.recomputed_routers,
            "sparse {sparse:?} vs dense {dense:?}"
        );
        assert!(sparse.policy_evals < dense.policy_evals);
        assert_eq!(sparse.rounds, dense.rounds);
    }

    #[test]
    fn sparse_matches_dense_on_flap() {
        // Cycle detection must fire at the same first_seen_round and
        // cycle_len, with identical observed sets.
        let (topo, models) = bad_gadget();
        let (out, dense, sparse) = both_engines(&topo, &models, &origin_at_r0(4), p("10.0.0.0/16"));
        assert!(matches!(out, PrefixOutcome::Flapping { .. }));
        assert!(sparse.policy_evals < dense.policy_evals);
        assert!(
            sparse.memo_hits > 0,
            "a flap cycles through memoized transfers"
        );
    }

    #[test]
    fn sparse_matches_dense_on_stable_loop() {
        let (topo, models) = mutual_overwrite();
        let (out, _, _) = both_engines(&topo, &models, &origin_at_r0(3), p("10.0.0.0/16"));
        assert!(out.is_converged());
    }

    #[test]
    fn sparse_matches_dense_without_origination() {
        let (topo, models) = line3();
        let orig = vec![Origination::default(); 3];
        let (out, dense, sparse) = both_engines(&topo, &models, &orig, p("10.0.0.0/16"));
        let PrefixOutcome::Converged { rounds, .. } = out else {
            panic!()
        };
        // Single-round prefixes do equal work in both engines.
        assert_eq!(rounds, 1);
        assert_eq!(sparse.recomputed_routers, dense.recomputed_routers);
    }

    #[test]
    fn warm_probe_reuses_a_fixed_point_and_rejects_a_changed_one() {
        let (topo, models) = line3();
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let orig = origin_at_r0(3);
        let sessions_of = index_sessions(&sessions, routers.len());
        let mut arena = DerivArena::new();
        let base = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let mut work = ConvergeWork::default();
        let mut memo = PolicyMemo::new();
        let probed = warm_probe(
            p("10.0.0.0/16"),
            &routers,
            &sessions,
            &sessions_of,
            &orig,
            &mut arena,
            &mut memo,
            &base,
            &mut work,
        )
        .expect("unchanged dynamics must re-confirm the fixed point");
        assert_eq!(probed, base);
        assert_eq!(work.warm_reused, 1);

        // Change R1's import policy to deny: the cached state is no longer
        // a fixed point — the probe must refuse it.
        let mut changed = models.clone();
        changed[1] = DeviceModel::from_config(
            &parse_device(
                "R1",
                "bgp 65001\n peer 172.16.0.1 as-number 65000\n peer 172.16.0.1 route-policy Block import\n peer 172.16.0.6 as-number 65002\nroute-policy Block deny node 10\n",
            )
            .unwrap(),
        );
        let (sessions2, _) = establish(&topo, &changed);
        let routers2 = ctxs(&topo, &changed);
        let sessions_of2 = index_sessions(&sessions2, routers2.len());
        let mut work2 = ConvergeWork::default();
        let mut memo2 = PolicyMemo::new();
        assert!(warm_probe(
            p("10.0.0.0/16"),
            &routers2,
            &sessions2,
            &sessions_of2,
            &orig,
            &mut arena,
            &mut memo2,
            &base,
            &mut work2,
        )
        .is_none());
        assert_eq!(work2.warm_fallbacks, 0, "fallback is counted by the caller");
        assert_eq!(work2.warm_reused, 0);
    }

    #[test]
    fn flapping_outcome_is_never_warm_probed() {
        let (topo, models) = bad_gadget();
        let (sessions, _) = establish(&topo, &models);
        let routers = ctxs(&topo, &models);
        let orig = origin_at_r0(4);
        let sessions_of = index_sessions(&sessions, routers.len());
        let mut arena = DerivArena::new();
        let base = run_prefix(p("10.0.0.0/16"), &routers, &sessions, &orig, &mut arena);
        let mut work = ConvergeWork::default();
        let mut memo = PolicyMemo::new();
        assert!(warm_probe(
            p("10.0.0.0/16"),
            &routers,
            &sessions,
            &sessions_of,
            &orig,
            &mut arena,
            &mut memo,
            &base,
            &mut work,
        )
        .is_none());
        assert_eq!(work.warm_probes, 0);
    }
}
