//! # ahq-cluster — the multi-node datacenter layer
//!
//! The paper evaluates ARQ on a single node but frames the system entropy
//! `E_S` as a datacenter-wide interference metric. This crate consumes the
//! per-node entropy signal above the single-node runner: it simulates a
//! fleet of heterogeneous [`ahq_sim::NodeSim`] nodes under one shared
//! 500 ms window clock, places arriving applications onto nodes with a
//! pluggable [`Placer`] (bin-packing [`FirstFit`], load-spreading
//! [`LeastLoaded`], and the interference-score-driven [`EntropyAware`]),
//! churns the workload with a deterministic seeded event stream
//! ([`ChurnConfig`]), runs each node's *local* scheduler (unmanaged or the
//! paper's ARQ) underneath the placer, and aggregates the per-node
//! [`ahq_core::EntropyReport`]s into a [`ClusterEntropyReport`].
//!
//! ## Execution model
//!
//! Cluster time advances in *rounds* of `windows_per_round` monitoring
//! windows. Between rounds the churn stream and the placer mutate the
//! fleet's app-to-node assignment; within a round every node's run is a
//! *closed job* ([`NodeJob`]) — machine, app specs, initial loads, local
//! scheduler, window count, and a per-`(node, round)` seed derived with
//! [`ahq_core::derive_seed`]. A HI-FI job runs as its [`NodeJob::spec`],
//! the same closed [`ahq_sched::RunSpec`] a single-node experiment runs,
//! through `ahq-sched`'s one executor. Closed jobs are what make the layer
//! parallel-safe: a [`NodeBatchRunner`] may execute them in any order, on
//! any number of workers, and the cluster's output is byte-identical to
//! the sequential [`SequentialRunner`]. The `ahq-experiments` crate
//! provides a runner that fans node jobs through its memoizing parallel
//! engine, so `repro cluster --jobs N` scales wall-clock with worker
//! count without changing a byte of output.
//!
//! ## Fidelity ladder
//!
//! At 10k nodes a full discrete-event round is too slow for long-horizon
//! experiments, so [`ClusterConfig::fidelity`] can enable a two-rung
//! ladder ([`FidelityMode::Ladder`]): nodes that stay stable for
//! [`FidelityPolicy::stable_rounds`] consecutive rounds are demoted to a
//! closed-form LO-FI surrogate ([`ahq_sim::Surrogate`]) calibrated from
//! their last HI-FI round, and any churn event, migration, or instability
//! signal promotes them straight back. See DESIGN.md §8.
//!
//! ## Determinism
//!
//! Four properties combine to give byte-identical runs for any worker
//! count: the churn stream is generated up front from the cluster seed and
//! never looks at placement state; per-node seeds depend only on
//! `(cluster seed, node index, round)`; placers break every tie by lowest
//! node index; and fidelity-ladder transitions are pure functions of
//! per-node simulation state, with LO-FI rounds computed inline on the
//! coordinator rather than on the worker pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
mod cluster;
pub mod control;
mod fidelity;
mod placement;
mod report;

pub use churn::{AppArrival, ChurnConfig, ChurnEvent, ChurnStream};
pub use cluster::{
    run_cluster, ClusterConfig, ClusterSim, JobFidelity, LocalSched, NodeBatchRunner, NodeJob,
    SequentialRunner, MIGRATION_WARMUP_MS,
};
pub use control::{AppMove, AppliedMove, ControlVerdict, Controller, RoundObservation};
pub use fidelity::{FidelityMode, FidelityPolicy};
pub use placement::{
    static_placers, EntropyAware, FirstFit, LeastLoaded, Migration, NodeView, PlacementWeights,
    Placer, PlacerKind,
};
pub use report::{ClusterEntropyReport, ClusterWindowStat, NodeUtilization};
