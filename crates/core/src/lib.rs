//! # acr-core
//!
//! The paper's primary contribution: **localize–fix–validate** automatic
//! configuration repair (Figure 4).
//!
//! - [`ctx`] — the repair context a fix-generation step sees: current
//!   configuration, verification records, provenance arena, destination
//!   resolution helpers.
//! - [`templates`] — the change operators. *Atomic operators* are the
//!   `acr-cfg` patch edits; *change templates* bundle them into the nine
//!   repair patterns distilled from Table 1 (prefix-list adjustment,
//!   policy disable/recreate, peer-group fixes, redistribution fixes, PBR
//!   fixes, AS-number fixes). Templates attach to statement kinds, so a
//!   suspicious line selects its template set — and, as §5 notes, the
//!   "fix place" a template edits need not be the suspicious line itself.
//! - [`symbolize`] — local symbolization: a template leaves symbolic
//!   holes; constraints `P` (passing tests keep passing) and `F` (failing
//!   tests stop failing) are collected from test coverage and solved as
//!   `P ∧ ¬F` with `acr-smt`, reproducing the worked example's
//!   `var = {10.70/16, 20.0/16}`.
//! - [`strategy`] — fix-generation strategies (§4.2): brute force
//!   (suspicious lines × applicable templates) and a genetic strategy
//!   (random template application to the original or any evolved variant,
//!   plus single-point patch crossover).
//! - [`engine`] — the repair loop with the paper's fitness function
//!   (number of failed tests) and its three termination conditions:
//!   fitness 0, an empty candidate set, or the 500-iteration cap.
//! - [`space`] — search-space accounting for the Figure 3 comparison.
//! - [`universal`] — the §6 "universal change operators" direction:
//!   donor-based plastic-surgery copying from same-role devices, an
//!   operator set that needs no incident history.
//! - [`session`] — resident per-network state
//!   ([`NetworkSession`]) for daemon-style serving: warm verifier
//!   state, cross-job simulation cache and per-fingerprint lint/flow
//!   baselines, consumed by [`RepairEngine::repair_resident`].

pub mod api;
pub mod ctx;
pub mod engine;
pub mod session;
pub mod space;
pub mod strategy;
pub mod symbolize;
pub mod templates;
pub mod universal;
mod validate;

pub use acr_verify::SimCache;
pub use api::{AcrStrategy, RepairStrategy, StrategyVerdict};
pub use ctx::RepairCtx;
pub use engine::{
    IterationStats, OperatorSet, PatchSegment, RepairConfig, RepairEngine, RepairOutcome,
    RepairReport, StageTimes,
};
pub use session::{NetworkSession, WARM_SLOTS};
pub use strategy::Strategy;
pub use templates::{templates_for, CandidateFix, TemplateKind};
pub use universal::universal_candidates;
