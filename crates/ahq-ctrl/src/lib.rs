//! # ahq-ctrl — the hierarchical cluster-level ARQ control plane
//!
//! The paper's ARQ algorithm manages one node: it speculatively adjusts a
//! resource partition, watches the entropy feedback over a steady window,
//! and rolls the adjustment back (blacklisting the beneficiary region for
//! a cooldown) when `E_S` regresses. This crate applies the same control
//! discipline one layer up, where the "regions" are *nodes* and the
//! "partition adjustment" is an *app migration*:
//!
//! 1. **Aggregate** — each cluster round, fold the fleet's per-node
//!    `E_S` / `ReT` / occupancy summaries ([`ahq_cluster::NodeView`])
//!    into donor candidates (hot, fragile nodes) and recipient candidates
//!    (cool nodes with headroom).
//! 2. **Propose** — at most one migration per round, from the worst donor
//!    to the best recipient, only when the entropy gap clears a margin.
//!    BE moves are cheap; LC moves charge the migrated app a cold-start
//!    warm-up on the recipient, so they must earn back their cost.
//! 3. **Commit speculatively, roll back on regression** — the move runs
//!    for one round; if the cluster-mean `E_S` regresses past the
//!    pre-move baseline the controller orders a rollback (the cluster
//!    restores the exact pre-move placement) and blacklists the donor
//!    node for a cooldown, mirroring node-level ARQ's region blacklist
//!    ([`ahq_sched::Blacklist`] keyed by round instead of seconds).
//! 4. **Learn** — optionally, a GP + expected-improvement tuner
//!    ([`ahq_bayesopt::OnlineTuner`]) treats each multi-round epoch as one
//!    observation of the placement-scoring weights in force and emits the
//!    next weight vector for the cluster's tunable placer.
//!
//! The crate deliberately contains *policy only*: mechanism (executing
//! moves, restoring placements, charging warm-ups, applying weights)
//! lives in `ahq-cluster` behind the [`ahq_cluster::Controller`] trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod global;

pub use global::{default_weight_grid, CtrlConfig, GlobalArq};
