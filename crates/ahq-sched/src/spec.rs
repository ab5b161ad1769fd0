//! Closed runs: a value-typed description of one scheduled node run
//! ([`RunSpec`]) and the one executor that runs it ([`execute_lockstep`]).
//!
//! A [`RunSpec`] is a *closed* job description: machine, mix, initial
//! loads (in application order — each `set_load` advances the simulator
//! RNG), scheduler, window count, seed, entropy model, the full per-window
//! load schedule and the cold starts. Executing a spec twice therefore
//! yields byte-identical [`RunResult`]s.
//!
//! A node's only random draws are its request stream
//! ([`ahq_sim::arrivals`]), and the stream depends on the mix, the load
//! calls, the seed and the window boundaries alone — never on the
//! scheduler. So specs that agree on those inputs
//! ([`RunSpec::same_arrivals`]: a strategy grid's cell) run as one group
//! in lockstep: the first member draws each window into its node's
//! chunk, and the others replay that chunk. A lone spec is a group of one.

use std::fmt::Write as _;

use ahq_core::{EntropyModel, Fnv128};
use ahq_sim::{AppSpec, MachineConfig, NodeSim, Partition, SharingPolicy, SimPerfStats};
use ahq_workloads::mixes::Mix;

use crate::runner::{RunResult, ScheduledRun};
use crate::strategy::StrategyKind;
use crate::{Arq, ArqConfig, SchedContext, Scheduler};

/// Experiment-wide configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExpConfig {
    /// Shorter runs and coarser sweeps (CI-friendly).
    pub quick: bool,
    /// Base RNG seed; every run derives a per-configuration seed from it.
    pub seed: u64,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: false,
            seed: 42,
        }
    }
}

impl ExpConfig {
    /// Monitoring windows per run (500 ms each).
    pub fn windows(&self) -> usize {
        if self.quick {
            90
        } else {
            240
        }
    }

    /// Steady-state windows used for reported averages.
    pub fn steady(&self) -> usize {
        if self.quick {
            30
        } else {
            80
        }
    }

    /// The entropy model every experiment scores with (paper settings:
    /// `RI = 0.8`, 5 % elasticity).
    pub fn model(&self) -> EntropyModel {
        EntropyModel::default()
    }
}

/// Builds a simulation of `mix` on `machine` (normalised against the full
/// paper machine) with the given per-LC-app loads.
///
/// # Panics
///
/// Panics on invalid mixes/loads — experiment inputs are static and a
/// mistake is a bug, not a runtime condition.
pub fn build_sim(machine: MachineConfig, mix: &Mix, loads: &[(&str, f64)], seed: u64) -> NodeSim {
    let mut sim =
        NodeSim::with_reference(machine, MachineConfig::paper_xeon(), mix.apps.clone(), seed)
            .expect("experiment mixes are valid");
    for (name, load) in loads {
        sim.set_load(name, *load).expect("load targets an LC app");
    }
    sim
}

/// A value-typed scheduler description, so a [`RunSpec`] stays a closed,
/// comparable job description rather than holding a boxed trait object.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedSpec {
    /// One of the named strategies.
    Kind(StrategyKind),
    /// ARQ with an explicit configuration (the ablation variants).
    Arq(ArqConfig),
    /// A fixed partition installed once and never adjusted (Fig. 1's
    /// strategy "B").
    Static(Partition),
}

impl SchedSpec {
    /// Instantiates a fresh scheduler for one run.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedSpec::Kind(kind) => kind.build(),
            SchedSpec::Arq(config) => Box::new(Arq::with_config(*config)),
            SchedSpec::Static(partition) => Box::new(StaticPartition(partition.clone())),
        }
    }
}

/// A scheduler that installs one fixed partition and never adjusts —
/// strategy "B" of the motivating example.
#[derive(Debug, Clone)]
pub struct StaticPartition(pub Partition);

impl Scheduler for StaticPartition {
    fn name(&self) -> &'static str {
        "static"
    }

    fn policy(&self) -> SharingPolicy {
        SharingPolicy::LcPriority
    }

    fn initial_partition(&self, _machine: &MachineConfig, _apps: &[AppSpec]) -> Partition {
        self.0.clone()
    }

    fn decide(&mut self, _ctx: &SchedContext<'_>) -> Option<Partition> {
        None
    }
}

/// One simulation job: everything that determines a [`RunResult`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Machine budget under test.
    pub machine: MachineConfig,
    /// The application mix.
    pub mix: Mix,
    /// Initial per-LC-app load fractions, in call-site order (order
    /// matters: each `set_load` advances the simulator RNG).
    pub loads: Vec<(String, f64)>,
    /// The scheduler driving the run.
    pub sched: SchedSpec,
    /// Number of monitoring windows.
    pub windows: usize,
    /// Simulator RNG seed.
    pub seed: u64,
    /// Monitoring-window override in milliseconds (the interval ablation).
    pub window_ms: Option<f64>,
    /// Entropy model the scheduler is fed with.
    pub model: EntropyModel,
    /// Pre-window load changes `(window, app, fraction)` applied in order
    /// before each window — Fig. 13's trace replay, precomputed so the
    /// job stays a closed value.
    pub schedule: Vec<(usize, String, f64)>,
    /// Apps starting this run cold: `(name, warmup ms)` pairs applied via
    /// [`ahq_sim::NodeSim::begin_warmup`] before the first window — how a
    /// controller-migrated LC app's cold-start cost reaches the engine.
    /// Applying a warm-up draws no RNG, so specs with an empty list are
    /// unaffected.
    pub cold: Vec<(String, f64)>,
}

impl RunSpec {
    /// The standard experiment job: `mix` on `machine` at `loads` under a
    /// named strategy, with the configuration's windows, seed and model.
    pub fn strategy(
        cfg: &ExpConfig,
        machine: MachineConfig,
        mix: &Mix,
        loads: &[(&str, f64)],
        strategy: StrategyKind,
    ) -> Self {
        RunSpec {
            machine,
            mix: mix.clone(),
            loads: loads.iter().map(|(n, l)| ((*n).to_owned(), *l)).collect(),
            sched: SchedSpec::Kind(strategy),
            windows: cfg.windows(),
            seed: cfg.seed,
            window_ms: None,
            model: cfg.model(),
            schedule: Vec::new(),
            cold: Vec::new(),
        }
    }

    /// The canonical cache key of this spec.
    pub fn key(&self) -> RunKey {
        RunKey(format!("{self:?}"))
    }

    /// The memo key: the FNV-1a hash of [`RunSpec::key`]'s text, hashed
    /// as it is formatted, without building the `String`.
    pub fn digest(&self) -> u128 {
        let mut hash = Fnv128::default();
        write!(hash, "{self:?}").expect("hashing cannot fail");
        hash.finish()
    }

    /// Executes the job on the calling thread. The result is a pure
    /// function of the spec.
    pub fn execute(&self) -> RunResult {
        self.execute_with_stats().0
    }

    /// [`RunSpec::execute`], additionally returning the simulator's work
    /// counters (events processed, rate-cache hits/misses): the spec run
    /// by [`execute_lockstep`] as a group of one.
    pub fn execute_with_stats(&self) -> (RunResult, SimPerfStats) {
        execute_lockstep(&[self])
            .pop()
            .expect("one spec in, one run out")
    }

    /// The node before the scheduler takes over: the mix at its initial
    /// loads, the window override and the cold starts.
    fn build_node(&self) -> NodeSim {
        let loads: Vec<(&str, f64)> = self.loads.iter().map(|(n, l)| (n.as_str(), *l)).collect();
        let mut sim = build_sim(self.machine, &self.mix, &loads, self.seed);
        if let Some(ms) = self.window_ms {
            sim.set_window_ms(ms);
        }
        for (name, ms) in &self.cold {
            sim.begin_warmup(name, *ms)
                .expect("cold names target placed apps");
        }
        sim
    }

    /// The schedule entries due before window `w` from `*cursor` on,
    /// advancing the cursor past them.
    fn due(&self, cursor: &mut usize, w: usize) -> &[(usize, String, f64)] {
        let from = *cursor;
        while *cursor < self.schedule.len() && self.schedule[*cursor].0 <= w {
            *cursor += 1;
        }
        &self.schedule[from..*cursor]
    }

    /// Whether `other` draws the same request stream: equal on every
    /// input of the node's arrival stream — mix, initial loads in order,
    /// load schedule, seed, window count and window length. The
    /// scheduler, entropy model, cold starts and machine may differ; none
    /// of them draws.
    pub fn same_arrivals(&self, other: &RunSpec) -> bool {
        self.seed == other.seed
            && self.windows == other.windows
            && self.window_ms == other.window_ms
            && self.loads == other.loads
            && self.schedule == other.schedule
            && self.mix == other.mix
    }
}

/// Runs `specs`, which all draw the same request stream
/// ([`RunSpec::same_arrivals`]), in lockstep, returning each member's
/// result and simulator work counters in order. Before each window every
/// member applies the due schedule entries to its own node. The first
/// member then draws the window from its own stream
/// ([`NodeSim::run_window`]) and the others replay the chunk it drew
/// ([`NodeSim::last_chunk`]). At every window start each member's stream
/// is in the first member's state (same seed, loads and schedule, and a
/// replay leaves the stream where the filler's left it), so each result
/// is the member's own run; only the draws are shared.
///
/// # Panics
///
/// Panics when `specs` is empty.
pub fn execute_lockstep(specs: &[&RunSpec]) -> Vec<(RunResult, SimPerfStats)> {
    let lead = specs.first().expect("a lockstep group has a member");
    let mut sims: Vec<NodeSim> = specs.iter().map(|s| s.build_node()).collect();
    let mut scheds: Vec<Box<dyn Scheduler>> = specs.iter().map(|s| s.sched.build()).collect();
    let mut runs: Vec<ScheduledRun<'_>> = sims
        .iter_mut()
        .zip(&mut scheds)
        .zip(specs)
        .map(|((sim, sched), spec)| ScheduledRun::new(sim, sched.as_mut(), &spec.model))
        .collect();
    let mut cursor = 0usize;
    for w in 0..lead.windows {
        let due = lead.due(&mut cursor, w);
        for run in &mut runs {
            for (_, name, fraction) in due {
                let _ = run.sim().set_load(name, *fraction);
            }
        }
        let (first, rest) = runs.split_first_mut().expect("non-empty group");
        first.step();
        let chunk = first.sim().last_chunk();
        for run in rest {
            run.step_from(chunk);
        }
    }
    let results: Vec<RunResult> = runs.into_iter().map(ScheduledRun::finish).collect();
    results
        .into_iter()
        .zip(&sims)
        .map(|(result, sim)| (result, sim.perf_stats()))
        .collect()
}

/// The canonical cache key of a [`RunSpec`] — its full `Debug`
/// rendering, so no field can be left out.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey(String);

impl RunKey {
    /// The canonical key text — what a persistent store hashes into an
    /// address and keeps beside each result for verification.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}
