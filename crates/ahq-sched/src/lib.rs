//! # ahq-sched — the Ah-Q scheduling strategies
//!
//! Implements the five resource scheduling strategies the paper evaluates,
//! all against the same [`Scheduler`] interface:
//!
//! * [`Unmanaged`] — the OS default: everything shared, CFS-fair.
//! * [`LcFirst`] — everything shared, LC threads get real-time priority.
//! * [`Parties`] — PARTIES (Chen et al., ASPLOS 2019): strict
//!   partitioning with a per-application upsize/downsize FSM driven by
//!   latency slack.
//! * [`Clite`] — CLITE (Patel & Tiwari, HPCA 2020): strict partitioning
//!   chosen by Bayesian optimization over sampled configurations.
//! * [`Arq`] — the paper's contribution: per-LC isolated regions plus one
//!   shared region, resources moved one unit per window between victim and
//!   beneficiary regions according to the remaining-tolerance array, with
//!   entropy-feedback rollback (Algorithm 1).
//! * [`Heracles`] — an extra comparison point beyond the paper's five:
//!   the classic threshold controller (Lo et al., ISCA 2015) that grows
//!   the BE allocation under comfortable slack and strips it on pressure.
//!
//! The three baselines run at their published settings, which are module
//! constants. Only ARQ takes a configuration ([`ArqConfig`]): the
//! ablation families and the policy search vary its thresholds, its
//! sharing policy and its BE-throttle gate.
//!
//! The [`runner`] module drives a [`ahq_sim::NodeSim`] window by window,
//! feeds observations to a scheduler, applies its decisions, and scores
//! every window with the system entropy from `ahq-core`.
//!
//! A whole run is described by a closed, comparable [`RunSpec`]: machine,
//! mix, loads, scheduler ([`SchedSpec`]), windows, seed, entropy model,
//! load schedule and cold starts. [`execute_lockstep`] is its one
//! executor: specs that draw the same request stream step through each
//! window on one set of arrival draws, and a lone spec
//! ([`RunSpec::execute`]) is a group of one. Experiment grids and cluster
//! node jobs both run through it.
//!
//! ```
//! use ahq_sched::{run, Arq, Scheduler};
//! use ahq_core::EntropyModel;
//! use ahq_sim::{AppSpec, CacheProfile, MachineConfig, NodeSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lc = AppSpec::lc("svc").mean_service_ms(1.0).qos_threshold_ms(5.0)
//!     .max_load_qps(2000.0).build()?;
//! let be = AppSpec::be("batch").ipc_solo(2.0).build()?;
//! let mut sim = NodeSim::new(MachineConfig::paper_xeon(), vec![lc, be], 1)?;
//! sim.set_load("svc", 0.4)?;
//!
//! let mut arq = Arq::new();
//! let result = run(&mut sim, &mut arq, 20, &EntropyModel::default());
//! assert_eq!(result.entropy.len(), 20);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arq;
mod clite;
mod heracles;
mod lcfirst;
pub mod observe;
mod parties;
pub mod rollback;
pub mod runner;
mod spec;
mod strategy;
mod unmanaged;

pub use arq::{Arq, ArqConfig};
pub use clite::Clite;
pub use heracles::Heracles;
pub use lcfirst::LcFirst;
pub use parties::Parties;
pub use rollback::{Blacklist, SpeculativeMove};
pub use runner::{run, run_with_hook, RunResult, ScheduledRun};
pub use spec::{
    build_sim, execute_lockstep, ExpConfig, RunKey, RunSpec, SchedSpec, StaticPartition,
};
pub use strategy::StrategyKind;
pub use unmanaged::Unmanaged;

use ahq_core::EntropyReport;
use ahq_sim::{AppSpec, MachineConfig, Partition, SharingPolicy, WindowObservation};

/// Everything a scheduler sees when making a decision at the end of one
/// monitoring window.
#[derive(Debug)]
pub struct SchedContext<'a> {
    /// The machine being scheduled.
    pub machine: &'a MachineConfig,
    /// The application specs, in registration order.
    pub apps: &'a [AppSpec],
    /// The partition that was in force during the window.
    pub partition: &'a Partition,
    /// The window's observation (tail latencies, IPCs).
    pub obs: &'a WindowObservation,
    /// The window's entropy report (computed by the runner).
    pub entropy: &'a EntropyReport,
    /// Simulated time at the window end, seconds.
    pub now_s: f64,
}

/// A resource scheduling strategy.
///
/// Implementations are deterministic state machines: the runner calls
/// [`Scheduler::decide`] once per monitoring window and applies the
/// returned partition (if any) before the next window — matching the
/// paper's "monitor every 500 ms, adjust, evaluate" loop.
pub trait Scheduler {
    /// Human-readable strategy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// How the shared region's cores are divided under this strategy.
    fn policy(&self) -> SharingPolicy;

    /// The partition to install before the first window.
    fn initial_partition(&self, machine: &MachineConfig, apps: &[AppSpec]) -> Partition {
        let _ = machine;
        Partition::all_shared(apps.len())
    }

    /// Decides on a repartition after a window; `None` keeps the current
    /// partition.
    fn decide(&mut self, ctx: &SchedContext<'_>) -> Option<Partition>;
}
