//! # acr-sim
//!
//! A deterministic Batfish-like BGP control-plane simulator — the oracle
//! ACR repairs against. Given a topology (`acr-topo`) and a network
//! configuration (`acr-cfg`) it computes, **per prefix**:
//!
//! - BGP session establishment (with peer groups and AS-number checks),
//! - route propagation under import/export route-policies (including the
//!   `as-path overwrite` action that powers the paper's Figure 2 incident),
//! - best-path selection (local-pref, path length, MED, router-id),
//! - **convergence or oscillation**: the synchronous dynamics either reach
//!   a fixed point or revisit a state, in which case the prefix is
//!   *flapping* — exactly the failure mode of the example incident,
//! - FIBs (connected + static + BGP) and a packet-forwarding walk with
//!   loop/blackhole detection and PBR,
//! - a **derivation arena**: every route carries a content-addressed
//!   derivation recording the configuration lines it depends on, which the
//!   provenance layer turns into per-test line coverage for SBFL.
//!
//! Per-prefix decomposition is sound here because no modelled feature
//! couples routes of different prefixes; it is what makes the DNA-style
//! incremental verification in `acr-verify` exact.

pub mod base;
pub mod bgp;
pub mod cache;
pub mod deriv;
pub mod fib;
pub mod forward;
pub(crate) mod fxhash;
pub mod origin;
pub mod policy;
pub mod route;
pub mod session;
pub mod sim;

pub use base::{CompiledBase, DeltaInfo, ResidentBase, SessionDelta, SessionPart, SimBuild};
pub use bgp::{
    ConvergeEngine, ConvergeWork, Origination, PolicyMemo, PrefixOutcome, MAX_ROUNDS_BASE,
};
pub use cache::{CacheStats, ShardedCache};
pub use deriv::{DerivArena, DerivId, DerivKind, DerivNode};
pub use fib::{bgp_fragment, Fib, FibAction, FibEntry};
pub use forward::{ForwardOutcome, ForwardResult};
pub use origin::OriginIndex;
pub use route::{select_best_id, Route, RouteId, RouteInterner, RouteKey};
pub use session::{Session, SessionDiag, SessionFailure};
pub use sim::{RunOptions, SimOutcome, Simulator};
