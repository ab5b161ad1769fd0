//! The cluster runner: a fleet of heterogeneous nodes on a shared window
//! clock, churned and placed between rounds, aggregated into a
//! [`ClusterEntropyReport`].

use std::collections::HashMap;
use std::sync::Arc;

use ahq_core::{derive_seed, EntropyModel};
use ahq_sched::{observe, ArqConfig, RunResult, RunSpec, SchedSpec, StrategyKind};
use ahq_sim::{
    percentile_in_place, AppKind, AppSpec, MachineConfig, SimPerfStats, SteadyCalibration,
    Surrogate,
};
use ahq_workloads::mixes::Mix;

use crate::churn::{ChurnConfig, ChurnEvent, ChurnStream};
use crate::control::{AppliedMove, Controller, RoundObservation};
use crate::fidelity::{FidelityMode, FidelityPolicy};
use crate::placement::{migratable, NodeView, Placer, PlacerKind};
use crate::report::{ClusterEntropyReport, ClusterWindowStat, NodeUtilization};

/// The shared cluster window length in milliseconds — the [`ahq_sim::NodeSim`]
/// default window the HI-FI path simulates with, reused by the LO-FI
/// surrogate so both fidelities keep the same clock.
const WINDOW_MS: f64 = 500.0;

/// Cold-start penalty charged to an LC app the controller migrates: the
/// app runs at the warm-up speed factor for this long on its new node.
/// Half a monitoring window — an order of magnitude above the 50 ms
/// repartition refill, reflecting state transfer rather than cache churn.
pub const MIGRATION_WARMUP_MS: f64 = 250.0;

/// The local (per-node) scheduler running underneath the placer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocalSched {
    /// OS default: everything shared fairly, no management.
    Unmanaged,
    /// The paper's ARQ controller.
    Arq,
}

impl LocalSched {
    /// Both local schedulers, baseline first.
    pub fn all() -> [LocalSched; 2] {
        [LocalSched::Unmanaged, LocalSched::Arq]
    }

    /// The scheduler's display name.
    pub fn name(&self) -> &'static str {
        match self {
            LocalSched::Unmanaged => "unmanaged",
            LocalSched::Arq => "arq",
        }
    }

    /// Parses a scheduler from its display name.
    pub fn parse(name: &str) -> Option<LocalSched> {
        LocalSched::all()
            .into_iter()
            .find(|k| k.name() == name.to_ascii_lowercase())
    }
}

/// The simulation resolution one [`NodeJob`] runs at.
#[derive(Debug, Clone, PartialEq)]
pub enum JobFidelity {
    /// Full discrete-event [`ahq_sim::NodeSim`] round.
    HiFi,
    /// Closed-form [`Surrogate`] round, calibrated from the node's last
    /// HI-FI round.
    LoFi(SteadyCalibration),
}

/// One node's work for one round, as a *closed* job: everything that
/// determines its [`RunResult`] is in the value, so a [`NodeBatchRunner`]
/// may execute jobs in any order on any number of workers without
/// changing a byte of output.
///
/// A HI-FI job runs as its [`NodeJob::spec`], the same closed
/// [`RunSpec`] the single-node experiments execute: the simulator built
/// against the full paper machine as reference, the loads applied in
/// order, the cold starts charged, then the local scheduler driven for
/// `windows` windows. A LO-FI job replays the same loop against the
/// closed-form surrogate instead of the event simulator (see DESIGN.md
/// §8).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeJob {
    /// Fleet index of the node (also the seed stream).
    pub node: usize,
    /// The node's machine budget.
    pub machine: MachineConfig,
    /// The apps placed on the node, in placement order. Shared with the
    /// cluster's per-node cache so job construction does not copy specs.
    pub apps: Arc<Vec<AppSpec>>,
    /// Initial per-LC-app load fractions, in app order (order matters:
    /// each `set_load` advances the simulator RNG).
    pub loads: Vec<(String, f64)>,
    /// The node's local scheduler.
    pub sched: LocalSched,
    /// Windows to simulate this round.
    pub windows: usize,
    /// The per-`(node, round)` seed.
    pub seed: u64,
    /// Entropy model the local scheduler is fed with.
    pub model: EntropyModel,
    /// Simulation resolution for the round.
    pub fidelity: JobFidelity,
    /// Names of apps that migrated onto this node right before the round:
    /// each is charged [`MIGRATION_WARMUP_MS`] of cold-start warm-up.
    /// Empty for every job the controller did not touch, which keeps those
    /// job values — and the engine's memo keys — unchanged.
    pub cold: Vec<String>,
    /// Tuned ARQ knobs for this job; `None` runs ARQ at its defaults.
    /// Only meaningful with [`LocalSched::Arq`] — trained policies route
    /// their searched thresholds through here.
    pub arq: Option<ArqConfig>,
}

impl NodeJob {
    /// Executes the job on the calling thread. The result is a pure
    /// function of the job value.
    pub fn execute(&self) -> RunResult {
        match &self.fidelity {
            JobFidelity::HiFi => self.spec().execute(),
            JobFidelity::LoFi(calibration) => self.execute_lofi(calibration),
        }
    }

    /// The closed run a HI-FI round executes: the node's apps under a
    /// synthetic "cluster" mix name, its loads, scheduler, window count,
    /// seed, model and cold starts. The fidelity is not part of it.
    pub fn spec(&self) -> RunSpec {
        RunSpec {
            machine: self.machine,
            mix: Mix {
                name: "cluster",
                apps: (*self.apps).clone(),
            },
            loads: self.loads.clone(),
            sched: self.sched_spec(),
            windows: self.windows,
            seed: self.seed,
            window_ms: None,
            model: self.model,
            schedule: Vec::new(),
            // Cold-start charges draw no randomness, so jobs without cold
            // apps keep a bit-identical event stream.
            cold: self
                .cold
                .iter()
                .map(|name| (name.clone(), MIGRATION_WARMUP_MS))
                .collect(),
        }
    }

    /// The node's scheduler, for both fidelities. A tuned job carries its
    /// explicit ARQ configuration into the cache key; untuned jobs keep
    /// the `Kind` keys, so their memoized entries stay shared.
    fn sched_spec(&self) -> SchedSpec {
        match (self.sched, self.arq) {
            (LocalSched::Arq, Some(config)) => SchedSpec::Arq(config),
            (LocalSched::Arq, None) => SchedSpec::Kind(StrategyKind::Arq),
            (LocalSched::Unmanaged, _) => SchedSpec::Kind(StrategyKind::Unmanaged),
        }
    }

    /// The LO-FI path: the scheduler contributes only its sharing policy
    /// and initial partition (a demoted node's scheduler made no
    /// adjustment, so the initial partition is the partition in force all
    /// round), and the surrogate stamps out every window from one
    /// steady-state solve. Seed-independent by construction.
    fn execute_lofi(&self, calibration: &SteadyCalibration) -> RunResult {
        let sched = self.sched_spec().build();
        let partition = sched.initial_partition(&self.machine, &self.apps);
        let surrogate = Surrogate::new(
            self.machine,
            MachineConfig::paper_xeon(),
            &self.apps,
            &self.loads,
            &partition,
            sched.policy(),
            WINDOW_MS,
            Some(calibration),
        )
        .expect("cluster jobs carry valid app sets");
        let mut result = RunResult {
            strategy: sched.name().to_owned(),
            observations: Vec::with_capacity(self.windows),
            entropy: Vec::with_capacity(self.windows),
            partitions: Vec::with_capacity(self.windows),
            violations: 0,
            adjustments: 0,
        };
        for w in 0..self.windows {
            let obs = surrogate.window(w as u64);
            let (lc, be) = observe::measurements(&obs);
            let entropy = self.model.evaluate_auto(&lc, &be);
            result.violations += observe::violations(&obs);
            result.observations.push(obs);
            result.entropy.push(entropy);
            result.partitions.push(partition.clone());
        }
        result
    }
}

/// Executes a round's node jobs. Implementations must return results in
/// job order and must not let worker identity or scheduling order leak
/// into any result — both hold trivially for [`SequentialRunner`]; the
/// engine-backed runner in `ahq-experiments` inherits them from the
/// executor's determinism guarantees.
pub trait NodeBatchRunner {
    /// Runs every job, returning results in job order.
    fn run_nodes(&self, jobs: &[NodeJob]) -> Vec<RunResult>;

    /// Aggregated simulator work counters over every job run so far, when
    /// the runner tracks them. Purely informational — results never
    /// depend on these.
    fn perf_stats(&self) -> Option<SimPerfStats> {
        None
    }
}

/// The reference runner: executes jobs one by one on the calling thread.
#[derive(Debug, Default)]
pub struct SequentialRunner;

impl SequentialRunner {
    /// A fresh runner.
    pub fn new() -> Self {
        SequentialRunner
    }
}

impl NodeBatchRunner for SequentialRunner {
    fn run_nodes(&self, jobs: &[NodeJob]) -> Vec<RunResult> {
        jobs.iter().map(NodeJob::execute).collect()
    }
}

/// Configuration of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Machine budget of each node (the fleet may be heterogeneous).
    pub machines: Vec<MachineConfig>,
    /// Placement policy.
    pub placer: PlacerKind,
    /// Local scheduler run on every node.
    pub sched: LocalSched,
    /// Monitoring windows per round (between churn/placement points).
    pub windows_per_round: usize,
    /// Rounds to simulate.
    pub rounds: usize,
    /// Cluster seed: churn stream and every node seed derive from it.
    pub seed: u64,
    /// Entropy model used on every node and for idle-node scoring.
    pub model: EntropyModel,
    /// Churn stream parameters.
    pub churn: ChurnConfig,
    /// Simulation resolution policy: full fidelity everywhere, or the
    /// HI-FI/LO-FI ladder.
    pub fidelity: FidelityMode,
    /// Ladder promotion/demotion thresholds (ignored under
    /// [`FidelityMode::Full`]).
    pub fidelity_policy: FidelityPolicy,
    /// Tuned ARQ knobs applied to every LC-hosting node when `sched` is
    /// [`LocalSched::Arq`]; `None` keeps the paper's Algorithm 1 defaults
    /// (and the historical job values byte-for-byte).
    pub arq: Option<ArqConfig>,
}

impl ClusterConfig {
    /// A config over an explicit fleet with the default clock (3 windows
    /// per round, 8 rounds), seed 42, paper entropy model and default
    /// churn.
    pub fn new(machines: Vec<MachineConfig>, placer: PlacerKind, sched: LocalSched) -> Self {
        ClusterConfig {
            machines,
            placer,
            sched,
            windows_per_round: 3,
            rounds: 8,
            seed: 42,
            model: EntropyModel::default(),
            churn: ChurnConfig::default(),
            fidelity: FidelityMode::default(),
            fidelity_policy: FidelityPolicy::default(),
            arq: None,
        }
    }

    /// A config over the standard heterogeneous fleet of `nodes` nodes
    /// (see [`ClusterConfig::fleet`]).
    pub fn heterogeneous(nodes: usize, placer: PlacerKind, sched: LocalSched) -> Self {
        Self::new(Self::fleet(nodes), placer, sched)
    }

    /// The standard heterogeneous fleet: cycling full paper Xeons with
    /// 8-core/16-way and 6-core/12-way budget variants, the same budgeted
    /// machines the single-node resource sweeps use.
    pub fn fleet(nodes: usize) -> Vec<MachineConfig> {
        let full = MachineConfig::paper_xeon();
        let shapes = [full, full.with_budget(8, 16), full.with_budget(6, 12)];
        (0..nodes).map(|i| shapes[i % shapes.len()]).collect()
    }
}

/// One placed application instance.
#[derive(Debug, Clone)]
struct PlacedApp {
    id: u64,
    spec: AppSpec,
    /// Current load fraction; `None` for BE apps.
    load: Option<f64>,
}

/// One node's placement state plus its entropy history and fidelity
/// ladder position.
#[derive(Debug, Clone, Default)]
struct NodeState {
    apps: Vec<PlacedApp>,
    recent_es: Option<f64>,
    recent_ret: Option<f64>,
    /// Consecutive stable rounds (fidelity ladder input).
    streak: u32,
    /// The cached LO-FI round while the node is demoted; `None` = HI-FI.
    lofi: Option<RunResult>,
    /// Shared spec vector handed to every round's job; invalidated by any
    /// churn or migration touching the node.
    spec_cache: Option<Arc<Vec<AppSpec>>>,
    /// Apps that just migrated here and start the coming round cold.
    /// Drained into the round's job and cleared once the round has run.
    cold: Vec<String>,
}

impl NodeState {
    /// Invalidates everything derived from the node's app set: the spec
    /// cache, the stability streak and any LO-FI demotion. Called on
    /// every churn event or migration touching the node — which is what
    /// makes "recent churn" promote a node back to HI-FI.
    fn touch(&mut self) {
        self.streak = 0;
        self.lofi = None;
        self.spec_cache = None;
    }
}

/// Mean per-window system entropy and LC remaining tolerance of one
/// node's round — the placer's history signals and the fidelity ladder's
/// stability inputs.
fn recent_history(result: &RunResult, windows: usize) -> (Option<f64>, Option<f64>) {
    let es = result.entropy.iter().map(|e| e.system).sum::<f64>() / windows as f64;
    let mut ret_sum = 0.0;
    let mut ret_windows = 0u32;
    for entropy in &result.entropy {
        if !entropy.lc_apps.is_empty() {
            ret_sum += entropy
                .lc_apps
                .iter()
                .map(|a| a.remaining_tolerance)
                .sum::<f64>()
                / entropy.lc_apps.len() as f64;
            ret_windows += 1;
        }
    }
    let ret = if ret_windows > 0 {
        Some(ret_sum / ret_windows as f64)
    } else {
        None
    };
    (Some(es), ret)
}

/// Whether a HI-FI round qualifies as stable for the fidelity ladder: no
/// scheduler adjustments, no QoS violations, calm entropy and tolerance
/// signals — and no active MBA throttle in force at round end. A throttle
/// is an ongoing bandwidth intervention the closed-form surrogate would
/// freeze for the whole demotion, so throttled nodes stay at full
/// fidelity no matter how calm they look.
fn round_is_stable(
    policy: &FidelityPolicy,
    result: &RunResult,
    recent_es: Option<f64>,
    recent_ret: Option<f64>,
) -> bool {
    result.adjustments == 0
        && result.violations == 0
        && recent_es.is_some_and(|es| es <= policy.es_threshold)
        && recent_ret.is_none_or(|ret| ret >= policy.ret_margin)
        && result.partitions.last().is_none_or(|p| !p.has_throttle())
}

/// The cluster simulation: applies churn and placement between rounds and
/// fans each round's per-node windows through a [`NodeBatchRunner`].
pub struct ClusterSim {
    config: ClusterConfig,
    stream: ChurnStream,
    placer: Box<dyn Placer>,
    controller: Option<Box<dyn Controller>>,
    nodes: Vec<NodeState>,
    /// Cached [`NodeView`] per node: refreshed per touched node by
    /// [`Self::place_app`]/[`Self::remove_app`], rebuilt once per round
    /// after the entropy history refresh. Empty until first used.
    views: Vec<NodeView>,
    /// The node hosting each placed app id.
    home: HashMap<u64, usize>,
    round: usize,
    window_stats: Vec<ClusterWindowStat>,
    violations: u64,
    placements: u64,
    departures: u64,
    load_changes: u64,
    migrations: u64,
    /// Migrations executed since the last round's stats were sealed
    /// (placer rebalance + controller moves + rollback restores).
    round_migrations: u64,
    /// The controller move committed speculatively for the current round.
    last_move: Option<AppliedMove>,
    ctrl_migrations: u64,
    ctrl_rollbacks: u64,
    cold_starts: u64,
    warmup_windows: u64,
    occupancy_sum: Vec<f64>,
    rounds_active: Vec<usize>,
}

impl ClusterSim {
    /// Prepares a run: generates the churn stream and an empty fleet.
    ///
    /// # Panics
    ///
    /// Panics on an empty fleet — a cluster needs at least one node.
    pub fn new(config: ClusterConfig) -> Self {
        assert!(
            !config.machines.is_empty(),
            "cluster needs at least one node"
        );
        let stream = ChurnStream::generate(&config.churn, config.rounds, config.seed);
        let placer = config.placer.build();
        let nodes = vec![NodeState::default(); config.machines.len()];
        let occupancy_sum = vec![0.0; config.machines.len()];
        let rounds_active = vec![0; config.machines.len()];
        ClusterSim {
            config,
            stream,
            placer,
            controller: None,
            nodes,
            views: Vec::new(),
            home: HashMap::new(),
            round: 0,
            window_stats: Vec::new(),
            violations: 0,
            placements: 0,
            departures: 0,
            load_changes: 0,
            migrations: 0,
            round_migrations: 0,
            last_move: None,
            ctrl_migrations: 0,
            ctrl_rollbacks: 0,
            cold_starts: 0,
            warmup_windows: 0,
            occupancy_sum,
            rounds_active,
        }
    }

    /// Installs a global controller: from the next round on it proposes at
    /// most one speculative migration per round and passes verdict on it
    /// after the round's windows (see [`Controller`]).
    pub fn set_controller(&mut self, controller: Box<dyn Controller>) {
        self.controller = Some(controller);
    }

    /// Replaces the placer built from [`ClusterConfig::placer`] with a
    /// custom instance — how trained policies install their searched
    /// entropy-aware scoring weights. Call before the first round; the
    /// report still carries the configured [`PlacerKind`]'s name.
    pub fn set_placer(&mut self, placer: Box<dyn Placer>) {
        self.placer = placer;
    }

    /// Rounds stepped so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether every configured round has been stepped.
    pub fn finished(&self) -> bool {
        self.round >= self.config.rounds
    }

    fn view(&self, index: usize) -> NodeView {
        let node = &self.nodes[index];
        let mut lc_threads = 0;
        let mut be_threads = 0;
        let mut be_apps = 0;
        for app in &node.apps {
            match app.spec.kind() {
                AppKind::Lc => lc_threads += app.spec.threads(),
                AppKind::Be => {
                    be_threads += app.spec.threads();
                    be_apps += 1;
                }
            }
        }
        NodeView {
            index,
            machine: self.config.machines[index],
            lc_threads,
            be_threads,
            apps: node.apps.len(),
            be_apps,
            recent_es: node.recent_es,
            recent_ret: node.recent_ret,
        }
    }

    fn rebuild_views(&mut self) {
        self.views = (0..self.nodes.len()).map(|i| self.view(i)).collect();
    }

    /// Inserts `app` on `node` at `slot` (clamped, so `usize::MAX`
    /// appends). Every app-set change goes through this pair, which keeps
    /// `home` and the touched node's view current.
    fn place_app(&mut self, node: usize, slot: usize, app: PlacedApp) {
        self.home.insert(app.id, node);
        let apps = &mut self.nodes[node].apps;
        apps.insert(slot.min(apps.len()), app);
        self.nodes[node].touch();
        self.views[node] = self.view(node);
    }

    fn remove_app(&mut self, node: usize, slot: usize) -> PlacedApp {
        let app = self.nodes[node].apps.remove(slot);
        self.home.remove(&app.id);
        self.nodes[node].touch();
        self.views[node] = self.view(node);
        app
    }

    /// Debug builds: the view cache and `home` agree with the placement.
    #[cfg(debug_assertions)]
    fn check_index(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            assert_eq!(self.views[i], self.view(i), "stale view of node {i}");
            for app in &node.apps {
                assert_eq!(self.home.get(&app.id), Some(&i), "app {}", app.id);
            }
        }
        let placed: usize = self.nodes.iter().map(|n| n.apps.len()).sum();
        assert_eq!(self.home.len(), placed, "home indexes only placed apps");
    }

    fn apply_churn(&mut self) {
        // Churn opens every round, so the view cache is built here on
        // first use rather than in `new`.
        if self.views.is_empty() {
            self.rebuild_views();
        }
        let round = self.round;
        // The stream is applied in generation order: departures, then
        // arrivals (each placed against the fleet as mutated so far), then
        // load changes.
        let events: Vec<ChurnEvent> = self.stream.events_for_round(round).cloned().collect();
        for event in events {
            match event {
                ChurnEvent::Depart { id } => {
                    if let Some(&node) = self.home.get(&id) {
                        let slot = self.nodes[node].apps.iter().position(|a| a.id == id);
                        self.remove_app(node, slot.expect("home names the app's node"));
                    }
                    self.departures += 1;
                }
                ChurnEvent::Arrive(arrival) => {
                    let spec = arrival.spec();
                    let target = self.placer.place(&spec, &self.views);
                    assert!(target < self.nodes.len(), "placer returned node {target}");
                    let app = PlacedApp {
                        id: arrival.id,
                        spec,
                        load: arrival.load,
                    };
                    self.place_app(target, usize::MAX, app);
                    self.placements += 1;
                }
                ChurnEvent::SetLoad { id, load } => {
                    // A load is not part of the node's view: no refresh.
                    if let Some(&node) = self.home.get(&id) {
                        let node = &mut self.nodes[node];
                        let lc = node
                            .apps
                            .iter_mut()
                            .find(|a| a.id == id && a.load.is_some());
                        if let Some(app) = lc {
                            app.load = Some(load);
                            self.load_changes += 1;
                            node.touch();
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.check_index();
    }

    fn apply_rebalance(&mut self) {
        for migration in self.placer.rebalance(&self.views) {
            let (from, to) = (migration.from, migration.to);
            if from >= self.nodes.len() || to >= self.nodes.len() || from == to {
                continue;
            }
            // The concrete app is the cluster's choice, not the placer's:
            // the most recently placed migratable (BE) app — LC apps pin.
            let pick = self.nodes[from]
                .apps
                .iter()
                .enumerate()
                .filter(|(_, a)| migratable(a.spec.kind()))
                .max_by_key(|(_, a)| a.id)
                .map(|(i, _)| i);
            if let Some(i) = pick {
                let app = self.remove_app(from, i);
                self.place_app(to, usize::MAX, app);
                self.migrations += 1;
                self.round_migrations += 1;
            }
        }
        #[cfg(debug_assertions)]
        self.check_index();
    }

    /// Asks the controller for this round's move and commits it
    /// speculatively. The concrete app mirrors [`Self::apply_rebalance`]'s
    /// rule — the most recently placed app of the requested kind — and an
    /// LC migrant is marked cold on the recipient so its job charges the
    /// warm-up penalty. Both touched nodes promote back to HI-FI.
    fn apply_controller_plan(&mut self) {
        self.last_move = None;
        if self.controller.is_none() {
            return;
        }
        let round = self.round;
        let proposal = self
            .controller
            .as_mut()
            .expect("checked above")
            .plan(round, &self.views);
        let Some(mv) = proposal else { return };
        if mv.from >= self.nodes.len() || mv.to >= self.nodes.len() || mv.from == mv.to {
            return;
        }
        let pick = self.nodes[mv.from]
            .apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.spec.kind() == mv.kind)
            .max_by_key(|(_, a)| a.id)
            .map(|(i, _)| i);
        let Some(slot) = pick else { return };
        let app = self.remove_app(mv.from, slot);
        let applied = AppliedMove {
            id: app.id,
            name: app.spec.name().to_owned(),
            from: mv.from,
            to: mv.to,
            kind: mv.kind,
            from_slot: slot,
        };
        self.place_app(mv.to, usize::MAX, app);
        if mv.kind == AppKind::Lc {
            self.nodes[mv.to].cold.push(applied.name.clone());
            self.cold_starts += 1;
            self.warmup_windows += (MIGRATION_WARMUP_MS / WINDOW_MS).ceil() as u64;
        }
        self.ctrl_migrations += 1;
        self.round_migrations += 1;
        self.last_move = Some(applied);
        #[cfg(debug_assertions)]
        self.check_index();
    }

    /// Shows the controller the completed round and executes its verdict:
    /// a rollback restores the migrated app to its pre-move node (and
    /// slot), blacklisting being the controller's own bookkeeping; a
    /// weight update lands on the placer (honoured only by tunable ones).
    fn apply_controller_verdict(&mut self) {
        let Some(mut controller) = self.controller.take() else {
            return;
        };
        let windows = self.config.windows_per_round;
        let start = self.window_stats.len() - windows;
        let obs = RoundObservation {
            round: self.round,
            windows: &self.window_stats[start..],
            views: &self.views,
            applied: self.last_move.as_ref(),
        };
        let verdict = controller.observe(&obs);
        self.controller = Some(controller);
        if verdict.rollback {
            self.rollback_last_move();
        }
        if let Some(weights) = verdict.weights {
            self.placer.set_weights(&weights);
        }
    }

    /// Restores the speculative move's app to its original node and slot.
    /// The restore is itself a migration: both nodes promote to HI-FI and
    /// an LC app pays a second cold start back home.
    fn rollback_last_move(&mut self) {
        let Some(mv) = self.last_move.take() else {
            return;
        };
        let Some(i) = self.nodes[mv.to].apps.iter().position(|a| a.id == mv.id) else {
            return; // departed mid-round: nothing left to restore
        };
        let app = self.remove_app(mv.to, i);
        self.place_app(mv.from, mv.from_slot, app);
        if mv.kind == AppKind::Lc {
            self.nodes[mv.from].cold.push(mv.name);
            self.cold_starts += 1;
            self.warmup_windows += (MIGRATION_WARMUP_MS / WINDOW_MS).ceil() as u64;
        }
        self.ctrl_rollbacks += 1;
        self.round_migrations += 1;
        #[cfg(debug_assertions)]
        self.check_index();
    }

    /// Builds the round's closed HI-FI jobs: every non-empty node not
    /// currently demoted to the LO-FI surrogate (under `Full`, every
    /// non-empty node).
    ///
    /// A node hosting no LC application falls back to the unmanaged
    /// scheduler regardless of the configured one: ARQ's contract requires
    /// at least one LC app to protect, and a BE-only node has nothing to
    /// manage. The fallback is a pure function of the node's app set, so
    /// determinism is unaffected.
    fn hifi_jobs(&self) -> Vec<NodeJob> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].apps.is_empty() && self.nodes[i].lofi.is_none())
            .map(|i| self.node_job(i))
            .collect()
    }

    /// Builds one node's closed job. The spec vector is shared from the
    /// node's cache when `step_round` has refreshed it; the fallback keeps
    /// the method a pure `&self` function of placement state.
    fn node_job(&self, i: usize) -> NodeJob {
        let node = &self.nodes[i];
        let has_lc = node.apps.iter().any(|a| a.spec.kind() == AppKind::Lc);
        NodeJob {
            node: i,
            machine: self.config.machines[i],
            apps: node
                .spec_cache
                .clone()
                .unwrap_or_else(|| Arc::new(node.apps.iter().map(|a| a.spec.clone()).collect())),
            loads: node
                .apps
                .iter()
                .filter_map(|a| a.load.map(|l| (a.spec.name().to_owned(), l)))
                .collect(),
            sched: if has_lc {
                self.config.sched
            } else {
                LocalSched::Unmanaged
            },
            windows: self.config.windows_per_round,
            seed: derive_seed(derive_seed(self.config.seed, i as u64), self.round as u64),
            model: self.config.model,
            fidelity: JobFidelity::HiFi,
            arq: if has_lc { self.config.arq } else { None },
            // A cold marker can outlive its app: a rollback re-marks the
            // app at home *after* the round, and next round's churn may
            // remove it before this job is built. A departed app owes no
            // warm-up, so only names still placed here are charged.
            cold: node
                .cold
                .iter()
                .filter(|name| node.apps.iter().any(|a| a.spec.name() == name.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Advances one round: churn, rebalance, controller move, run every
    /// node for `windows_per_round` windows through `runner`, aggregate,
    /// then let the controller judge its move.
    pub fn step_round(&mut self, runner: &dyn NodeBatchRunner) {
        assert!(!self.finished(), "cluster run already finished");
        self.apply_churn();
        if self.round > 0 {
            self.apply_rebalance();
        }
        self.apply_controller_plan();

        // Occupancy accounting for this round's assignment.
        for (i, view) in self.views.iter().enumerate() {
            self.occupancy_sum[i] += view.used_threads() as f64 / view.machine.cores as f64;
            if view.apps > 0 {
                self.rounds_active[i] += 1;
            }
        }

        // Refresh the per-node spec caches invalidated by churn and
        // migration, so every job this round (and the next, absent churn)
        // shares one spec vector per node instead of rebuilding it.
        for node in &mut self.nodes {
            if node.spec_cache.is_none() && !node.apps.is_empty() {
                node.spec_cache =
                    Some(Arc::new(node.apps.iter().map(|a| a.spec.clone()).collect()));
            }
        }

        // Demoted nodes replay their cached surrogate round on the
        // coordinator; everyone else runs HI-FI through the runner. Under
        // `Full` no node is ever demoted, so every job is HI-FI.
        let jobs = self.hifi_jobs();
        let results = runner.run_nodes(&jobs);
        assert_eq!(results.len(), jobs.len(), "runner must answer every job");
        // Cold-start charges apply to exactly one round; the jobs above
        // already carry them.
        for node in &mut self.nodes {
            node.cold.clear();
        }

        let windows = self.config.windows_per_round;
        let total_apps: usize = self.nodes.iter().map(|n| n.apps.len()).sum();
        // Idle nodes score through the entropy model's empty-measurement
        // path: E_S = 0 by construction.
        let idle_es = self.config.model.evaluate_auto(&[], &[]).system;
        // Every active node's round: HI-FI results, then LO-FI replays.
        let ran: Vec<(usize, &RunResult)> = jobs
            .iter()
            .map(|job| job.node)
            .zip(&results)
            .chain(self.nodes.iter().enumerate().filter_map(|(i, node)| {
                let result = node.lofi.as_ref().filter(|_| !node.apps.is_empty());
                result.map(|result| (i, result))
            }))
            .collect();
        let mut es_scratch = vec![idle_es; self.nodes.len()];
        for w in 0..windows {
            es_scratch.fill(idle_es);
            let mut violations = 0u64;
            for &(i, result) in &ran {
                es_scratch[i] = result.entropy[w].system;
                violations += observe::violations(&result.observations[w]);
            }
            let mean_es = es_scratch.iter().sum::<f64>() / es_scratch.len() as f64;
            let max_es = es_scratch.iter().cloned().fold(0.0, f64::max);
            // Reorders the buffer, which is refilled next window.
            let p95_es = percentile_in_place(&mut es_scratch, 0.95).expect("fleet is non-empty");
            self.violations += violations;
            self.window_stats.push(ClusterWindowStat {
                window: self.round * windows + w,
                round: self.round,
                mean_es,
                p95_es,
                max_es,
                violations,
                active_nodes: ran.len(),
                hifi_nodes: jobs.len(),
                lofi_nodes: ran.len() - jobs.len(),
                apps: total_apps,
                round_migrations: self.round_migrations,
            });
        }
        // Sealed into this round's stats; a post-round rollback counts
        // toward the next round it actually disturbs.
        self.round_migrations = 0;

        // Refresh each node's entropy/tolerance history for the placer;
        // nodes that went idle this round keep no stale history.
        let mut history = vec![(Some(idle_es), None); self.nodes.len()];
        for &(i, result) in &ran {
            history[i] = recent_history(result, windows);
        }
        for (node, (es, ret)) in self.nodes.iter_mut().zip(history) {
            node.recent_es = es;
            node.recent_ret = ret;
        }
        self.rebuild_views();

        // Ladder transitions, evaluated per HI-FI node in job (= node
        // index) order from this round's results only — a pure function
        // of simulation state, independent of the runner and `--jobs`.
        if self.config.fidelity == FidelityMode::Ladder {
            let policy = self.config.fidelity_policy;
            for (job, result) in jobs.iter().zip(results.iter()) {
                let node = &mut self.nodes[job.node];
                let stable = round_is_stable(&policy, result, node.recent_es, node.recent_ret);
                if !stable {
                    node.streak = 0;
                    continue;
                }
                node.streak += 1;
                if node.streak < policy.stable_rounds {
                    continue;
                }
                // Demote: snapshot the steady state, run the surrogate
                // round once inline, and accept it only if it reproduces
                // the calm the node is being demoted for — otherwise stay
                // HI-FI and restart the streak.
                let calibration = SteadyCalibration::from_windows(&result.observations);
                let lofi_job = NodeJob {
                    fidelity: JobFidelity::LoFi(calibration),
                    ..job.clone()
                };
                let outcome = lofi_job.execute();
                let (es, ret) = recent_history(&outcome, windows);
                let calm = outcome.violations == 0
                    && es.is_some_and(|e| e <= policy.es_threshold)
                    && ret.is_none_or(|r| r >= policy.ret_margin);
                if calm {
                    node.lofi = Some(outcome);
                } else {
                    node.streak = 0;
                }
            }
        }

        self.apply_controller_verdict();

        self.round += 1;
    }

    /// Steps every remaining round and seals the report.
    pub fn run(mut self, runner: &dyn NodeBatchRunner) -> ClusterEntropyReport {
        while !self.finished() {
            self.step_round(runner);
        }
        self.into_report()
    }

    /// Seals the aggregated report.
    pub fn into_report(self) -> ClusterEntropyReport {
        let rounds = self.round.max(1);
        ClusterEntropyReport {
            placer: self.config.placer.name().to_owned(),
            sched: self.config.sched.name().to_owned(),
            controller: self.controller.as_ref().map(|c| c.name().to_owned()),
            nodes: self.config.machines.len(),
            rounds: self.round,
            windows_per_round: self.config.windows_per_round,
            seed: self.config.seed,
            window_stats: self.window_stats,
            violations: self.violations,
            placements: self.placements,
            departures: self.departures,
            load_changes: self.load_changes,
            migrations: self.migrations,
            ctrl_migrations: self.ctrl_migrations,
            ctrl_rollbacks: self.ctrl_rollbacks,
            cold_starts: self.cold_starts,
            warmup_windows: self.warmup_windows,
            node_utilization: self
                .occupancy_sum
                .iter()
                .enumerate()
                .map(|(node, &sum)| NodeUtilization {
                    node,
                    mean_occupancy: sum / rounds as f64,
                    rounds_active: self.rounds_active[node],
                })
                .collect(),
        }
    }
}

/// Runs one cluster configuration to completion — the one-call entry
/// point `repro cluster` and the integration tests use.
pub fn run_cluster(config: ClusterConfig, runner: &dyn NodeBatchRunner) -> ClusterEntropyReport {
    ClusterSim::new(config).run(runner)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::collections::HashSet;
    use std::rc::Rc;

    use super::*;
    use crate::control::{AppMove, ControlVerdict};
    use ahq_core::check;
    use ahq_core::rng::Rng;
    use ahq_core::RelativeImportance;
    use ahq_sched::{Arq, ScheduledRun, Scheduler, Unmanaged};
    use ahq_sim::{NodeSim, SharingPolicy};
    use ahq_workloads::mixes;

    fn tiny_config(placer: PlacerKind) -> ClusterConfig {
        ClusterConfig {
            windows_per_round: 2,
            rounds: 3,
            seed: 9,
            churn: ChurnConfig {
                initial_apps: 6,
                arrivals_per_round: 1.0,
                departure_prob: 0.1,
                load_change_prob: 0.2,
                be_fraction: 0.4,
            },
            ..ClusterConfig::heterogeneous(8, placer, LocalSched::Unmanaged)
        }
    }

    #[test]
    fn run_is_deterministic() {
        let a = run_cluster(tiny_config(PlacerKind::EntropyAware), &SequentialRunner);
        let b = run_cluster(tiny_config(PlacerKind::EntropyAware), &SequentialRunner);
        assert_eq!(a, b);
    }

    #[test]
    fn report_shape_matches_run() {
        let report = run_cluster(tiny_config(PlacerKind::FirstFit), &SequentialRunner);
        assert_eq!(report.nodes, 8);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.windows(), 6);
        assert!(
            report.placements >= 6,
            "at least the initial population placed"
        );
        assert_eq!(report.node_utilization.len(), 8);
        assert!(report.window_stats.iter().all(|w| w.apps > 0));
        assert!(report
            .window_stats
            .iter()
            .all(|w| w.mean_es <= w.p95_es + 1e-12 || w.active_nodes == 8));
    }

    #[test]
    fn node_jobs_are_closed_and_seeded_per_round() {
        let mut sim = ClusterSim::new(tiny_config(PlacerKind::LeastLoaded));
        sim.apply_churn();
        let jobs_r0 = sim.hifi_jobs();
        assert!(!jobs_r0.is_empty());
        for job in &jobs_r0 {
            assert_eq!(
                job.seed,
                derive_seed(derive_seed(9, job.node as u64), 0),
                "seed must be a pure function of (cluster seed, node, round)"
            );
        }
        // Distinct nodes get distinct seeds.
        let mut seeds: Vec<u64> = jobs_r0.iter().map(|j| j.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs_r0.len());
    }

    #[test]
    fn be_only_nodes_fall_back_to_unmanaged_under_arq() {
        let mut config = tiny_config(PlacerKind::LeastLoaded);
        config.sched = LocalSched::Arq;
        config.churn.be_fraction = 1.0; // every arrival is a BE app
        let report = run_cluster(config, &SequentialRunner);
        assert_eq!(report.sched, "arq", "the configured scheduler is reported");
        assert!(report.windows() > 0);
    }

    #[test]
    fn ladder_is_deterministic_and_partitions_active_nodes() {
        let mut config = tiny_config(PlacerKind::EntropyAware);
        config.fidelity = FidelityMode::Ladder;
        let a = run_cluster(config.clone(), &SequentialRunner);
        let b = run_cluster(config, &SequentialRunner);
        assert_eq!(a, b);
        assert!(a
            .window_stats
            .iter()
            .all(|w| w.hifi_nodes + w.lofi_nodes == w.active_nodes));
    }

    #[test]
    fn calm_ladder_demotes_nodes_until_churn_returns() {
        // A BE-only fleet with no churn after the initial placement is
        // stable by construction (no LC apps, no violations, unmanaged
        // fallback makes no adjustments), so with a permissive policy every
        // active node must reach LO-FI after `stable_rounds` HI-FI rounds.
        let mut config = tiny_config(PlacerKind::FirstFit);
        config.rounds = 4;
        config.churn.be_fraction = 1.0;
        config.churn.arrivals_per_round = 0.0;
        config.churn.departure_prob = 0.0;
        config.churn.load_change_prob = 0.0;
        config.fidelity = FidelityMode::Ladder;
        config.fidelity_policy = FidelityPolicy {
            stable_rounds: 1,
            es_threshold: f64::INFINITY,
            ret_margin: f64::NEG_INFINITY,
        };
        let report = run_cluster(config, &SequentialRunner);
        let first = report.window_stats.first().expect("windows recorded");
        let last = report.window_stats.last().expect("windows recorded");
        assert_eq!(first.lofi_nodes, 0, "round 0 runs everything HI-FI");
        assert!(last.active_nodes > 0, "the initial population stays placed");
        assert_eq!(
            last.lofi_nodes, last.active_nodes,
            "a calm fleet is fully demoted to the surrogate"
        );
        assert_eq!(last.hifi_nodes, 0);
    }

    #[test]
    fn ladder_on_calm_fleet_matches_full_shape() {
        // Same calm scenario under both fidelities: the reports agree on
        // placement bookkeeping even though the entropy paths differ.
        let mut config = tiny_config(PlacerKind::FirstFit);
        config.churn.be_fraction = 1.0;
        config.churn.arrivals_per_round = 0.0;
        config.churn.departure_prob = 0.0;
        config.churn.load_change_prob = 0.0;
        let full = run_cluster(config.clone(), &SequentialRunner);
        config.fidelity = FidelityMode::Ladder;
        let ladder = run_cluster(config, &SequentialRunner);
        assert_eq!(full.placements, ladder.placements);
        assert_eq!(full.windows(), ladder.windows());
        assert_eq!(full.violations, 0);
        assert_eq!(ladder.violations, 0);
    }

    #[test]
    fn active_throttle_blocks_ladder_demotion() {
        use ahq_sim::{MbaLevel, Partition, RegionAlloc};
        let policy = FidelityPolicy {
            stable_rounds: 1,
            es_threshold: f64::INFINITY,
            ret_margin: f64::NEG_INFINITY,
        };
        let calm = RunResult {
            strategy: "arq".to_owned(),
            observations: vec![],
            entropy: vec![],
            partitions: vec![Partition::all_shared(2)],
            violations: 0,
            adjustments: 0,
        };
        assert!(round_is_stable(&policy, &calm, Some(0.0), None));
        let mut throttled = calm.clone();
        let mut p = Partition::all_shared(2);
        p.set_isolated(1.into(), RegionAlloc::EMPTY.with_mba(MbaLevel::new(40)));
        throttled.partitions.push(p);
        assert!(
            !round_is_stable(&policy, &throttled, Some(0.0), None),
            "a node ending its round throttled must stay HI-FI"
        );
    }

    #[test]
    fn fleet_is_heterogeneous_and_cycles() {
        let fleet = ClusterConfig::fleet(7);
        assert_eq!(fleet.len(), 7);
        assert_eq!(fleet[0], MachineConfig::paper_xeon());
        assert_eq!(fleet[3], fleet[0]);
        assert!(fleet[1].cores < fleet[0].cores);
        assert!(fleet[2].cores < fleet[1].cores);
    }

    #[test]
    fn local_sched_round_trips() {
        let mut rng = Rng::seed_from_u64(3);
        for kind in LocalSched::all() {
            assert_eq!(LocalSched::parse(kind.name()), Some(kind));
            let job = NodeJob {
                sched: kind,
                arq: None,
                ..random_job(&mut rng)
            };
            assert_eq!(job.spec().sched.build().name(), kind.name());
        }
        assert_eq!(LocalSched::parse("nope"), None);
    }

    /// A random HI-FI node job: one of three mixes on one of the fleet's
    /// machine budgets, LC loads in a random order, a random cold subset,
    /// both local schedulers with and without tuned ARQ knobs, 1–6
    /// windows and either entropy model.
    fn random_job(rng: &mut Rng) -> NodeJob {
        let mix = match rng.below(3) {
            0 => mixes::fluidanimate_mix(),
            1 => mixes::stream_mix(),
            _ => mixes::sphinx_mix(),
        };
        let mut loads: Vec<(String, f64)> = mix
            .lc_names()
            .iter()
            .map(|name| (name.to_string(), rng.f64()))
            .collect();
        for i in (1..loads.len()).rev() {
            loads.swap(i, rng.range_usize(0..i + 1));
        }
        let cold = mix
            .apps
            .iter()
            .filter(|_| rng.below(3) == 0)
            .map(|app| app.name().to_owned())
            .collect();
        let fleet = ClusterConfig::fleet(3);
        NodeJob {
            node: rng.range_usize(0..64),
            machine: fleet[rng.range_usize(0..3)],
            apps: Arc::new(mix.apps),
            loads,
            sched: if rng.bool() {
                LocalSched::Arq
            } else {
                LocalSched::Unmanaged
            },
            windows: rng.range_usize(1..7),
            seed: rng.next_u64(),
            model: if rng.bool() {
                EntropyModel::default()
            } else {
                EntropyModel::new(RelativeImportance::new(rng.f64()).unwrap())
            },
            fidelity: JobFidelity::HiFi,
            cold,
            arq: rng.bool().then(|| ArqConfig {
                victim_ret: rng.f64(),
                beneficiary_ret: rng.f64() * 0.1,
                sharing: if rng.bool() {
                    SharingPolicy::Fair
                } else {
                    SharingPolicy::LcPriority
                },
                throttle_be: rng.bool(),
                ..ArqConfig::default()
            }),
        }
    }

    /// The scheduler choice node jobs made before they ran as run specs.
    fn old_sched(job: &NodeJob) -> Box<dyn Scheduler> {
        match (job.sched, job.arq) {
            (LocalSched::Arq, Some(config)) => Box::new(Arq::with_config(config)),
            (LocalSched::Arq, None) => Box::new(Arq::new()),
            (LocalSched::Unmanaged, _) => Box::new(Unmanaged),
        }
    }

    /// The HI-FI path node jobs took before they ran as run specs.
    fn old_hifi(job: &NodeJob) -> RunResult {
        let mut sim = NodeSim::with_reference(
            job.machine,
            MachineConfig::paper_xeon(),
            (*job.apps).clone(),
            job.seed,
        )
        .unwrap();
        for (name, load) in &job.loads {
            sim.set_load(name, *load).unwrap();
        }
        for name in &job.cold {
            sim.begin_warmup(name, MIGRATION_WARMUP_MS).unwrap();
        }
        let mut sched = old_sched(job);
        let mut run = ScheduledRun::new(&mut sim, sched.as_mut(), &job.model);
        while run.windows_run() < job.windows {
            run.step();
        }
        run.finish()
    }

    /// The LO-FI path under the old scheduler choice.
    fn old_lofi(job: &NodeJob, calibration: &SteadyCalibration) -> RunResult {
        let sched = old_sched(job);
        let partition = sched.initial_partition(&job.machine, &job.apps);
        let surrogate = Surrogate::new(
            job.machine,
            MachineConfig::paper_xeon(),
            &job.apps,
            &job.loads,
            &partition,
            sched.policy(),
            WINDOW_MS,
            Some(calibration),
        )
        .unwrap();
        let mut result = RunResult {
            strategy: sched.name().to_owned(),
            observations: Vec::new(),
            entropy: Vec::new(),
            partitions: Vec::new(),
            violations: 0,
            adjustments: 0,
        };
        for w in 0..job.windows {
            let obs = surrogate.window(w as u64);
            let (lc, be) = observe::measurements(&obs);
            result.entropy.push(job.model.evaluate_auto(&lc, &be));
            result.violations += observe::violations(&obs);
            result.observations.push(obs);
            result.partitions.push(partition.clone());
        }
        result
    }

    #[test]
    fn node_jobs_execute_as_they_did_before_running_as_specs() {
        check::cases(48, |rng| {
            let job = random_job(rng);
            let hifi = old_hifi(&job);
            assert_eq!(format!("{:?}", job.execute()), format!("{hifi:?}"));
            let calibration = SteadyCalibration::from_windows(&hifi.observations);
            let want = old_lofi(&job, &calibration);
            let lofi = NodeJob {
                fidelity: JobFidelity::LoFi(calibration),
                ..job
            };
            assert_eq!(format!("{:?}", lofi.execute()), format!("{want:?}"));
        });
    }

    /// A scripted controller: one fixed move at a given round, with a
    /// predetermined verdict — the mechanism test double for rollback.
    struct Scripted {
        at: usize,
        mv: AppMove,
        rollback: bool,
    }

    impl Controller for Scripted {
        fn name(&self) -> &'static str {
            "scripted"
        }

        fn plan(&mut self, round: usize, _views: &[NodeView]) -> Option<AppMove> {
            (round == self.at).then_some(self.mv)
        }

        fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlVerdict {
            ControlVerdict {
                rollback: self.rollback && obs.applied.is_some(),
                weights: None,
            }
        }
    }

    /// A churn-free config (after the initial population) so placement
    /// only changes through the controller under test.
    fn frozen_config() -> ClusterConfig {
        ClusterConfig {
            windows_per_round: 2,
            rounds: 3,
            seed: 9,
            churn: ChurnConfig {
                initial_apps: 6,
                arrivals_per_round: 0.0,
                departure_prob: 0.0,
                load_change_prob: 0.0,
                be_fraction: 0.5,
            },
            ..ClusterConfig::heterogeneous(8, PlacerKind::FirstFit, LocalSched::Unmanaged)
        }
    }

    fn placement_snapshot(sim: &ClusterSim) -> Vec<Vec<(u64, String)>> {
        sim.nodes
            .iter()
            .map(|n| {
                n.apps
                    .iter()
                    .map(|a| (a.id, a.spec.name().to_owned()))
                    .collect()
            })
            .collect()
    }

    /// Finds a `(donor, recipient)` pair where the donor hosts a BE app.
    fn be_move(sim: &ClusterSim) -> AppMove {
        let from = (0..sim.nodes.len())
            .find(|&i| {
                sim.nodes[i]
                    .apps
                    .iter()
                    .any(|a| a.spec.kind() == AppKind::Be)
            })
            .expect("some node hosts a BE app");
        let to = (0..sim.nodes.len())
            .find(|&i| i != from)
            .expect("another node exists");
        AppMove {
            from,
            to,
            kind: AppKind::Be,
        }
    }

    #[test]
    fn rolled_back_move_restores_the_exact_placement() {
        let runner = SequentialRunner;
        let mut sim = ClusterSim::new(frozen_config());
        sim.step_round(&runner); // round 0: initial population, no move
        let mv = be_move(&sim);
        sim.set_controller(Box::new(Scripted {
            at: 1,
            mv,
            rollback: true,
        }));
        let before = placement_snapshot(&sim);
        sim.step_round(&runner); // round 1: move applied, then rolled back
        assert_eq!(
            placement_snapshot(&sim),
            before,
            "rollback must restore the exact pre-move placement, order included"
        );
        sim.step_round(&runner);
        let report = sim.into_report();
        assert_eq!(report.controller.as_deref(), Some("scripted"));
        assert_eq!(report.ctrl_migrations, 1);
        assert_eq!(report.ctrl_rollbacks, 1);
        assert_eq!(report.cold_starts, 0, "a BE round trip charges no warm-up");
        // The move and its restore each disturb one round's windows.
        let disturbed: Vec<usize> = report
            .window_stats
            .iter()
            .filter(|w| w.round_migrations > 0)
            .map(|w| w.round)
            .collect();
        assert!(
            disturbed.contains(&1) && disturbed.contains(&2),
            "move disturbs round 1, restore disturbs round 2: {disturbed:?}"
        );
    }

    #[test]
    fn committed_move_lands_on_the_recipient() {
        let runner = SequentialRunner;
        let mut sim = ClusterSim::new(frozen_config());
        sim.step_round(&runner);
        let mv = be_move(&sim);
        let donor_before = sim.nodes[mv.from].apps.len();
        let recipient_before = sim.nodes[mv.to].apps.len();
        sim.set_controller(Box::new(Scripted {
            at: 1,
            mv,
            rollback: false,
        }));
        sim.step_round(&runner);
        assert_eq!(sim.nodes[mv.from].apps.len(), donor_before - 1);
        assert_eq!(sim.nodes[mv.to].apps.len(), recipient_before + 1);
        sim.step_round(&runner);
        let report = sim.into_report();
        assert_eq!(report.ctrl_migrations, 1);
        assert_eq!(report.ctrl_rollbacks, 0);
    }

    #[test]
    fn lc_controller_move_charges_one_cold_start() {
        let runner = SequentialRunner;
        let mut config = frozen_config();
        config.churn.be_fraction = 0.0; // all-LC fleet
        let mut sim = ClusterSim::new(config);
        sim.step_round(&runner);
        let from = (0..sim.nodes.len())
            .find(|&i| !sim.nodes[i].apps.is_empty())
            .expect("populated node");
        let to = (0..sim.nodes.len()).find(|&i| i != from).unwrap();
        sim.set_controller(Box::new(Scripted {
            at: 1,
            mv: AppMove {
                from,
                to,
                kind: AppKind::Lc,
            },
            rollback: false,
        }));
        sim.step_round(&runner);
        sim.step_round(&runner);
        let report = sim.into_report();
        assert_eq!(report.ctrl_migrations, 1);
        assert_eq!(report.cold_starts, 1);
        assert_eq!(
            report.warmup_windows, 1,
            "250 ms of warm-up rounds up to one 500 ms window"
        );
    }

    /// Every round moves the newest app of alternating kind off the
    /// fullest node and rolls back every third move, recording the ids
    /// it migrated.
    struct Shuffler {
        moved: Rc<RefCell<Vec<u64>>>,
    }

    impl Controller for Shuffler {
        fn name(&self) -> &'static str {
            "shuffler"
        }

        fn plan(&mut self, round: usize, views: &[NodeView]) -> Option<AppMove> {
            let from = views.iter().max_by_key(|v| v.apps)?.index;
            Some(AppMove {
                from,
                to: (from + 1) % views.len(),
                kind: if round.is_multiple_of(2) {
                    AppKind::Lc
                } else {
                    AppKind::Be
                },
            })
        }

        fn observe(&mut self, obs: &RoundObservation<'_>) -> ControlVerdict {
            self.moved.borrow_mut().extend(obs.applied.map(|mv| mv.id));
            ControlVerdict {
                rollback: obs.round % 3 == 1,
                weights: None,
            }
        }
    }

    #[test]
    fn migrated_apps_depart_exactly_once() {
        // Hot enough for the placer to rebalance BE work as well.
        let config = ClusterConfig {
            windows_per_round: 1,
            rounds: 12,
            seed: 1,
            churn: ChurnConfig {
                initial_apps: 16,
                arrivals_per_round: 2.0,
                departure_prob: 0.2,
                load_change_prob: 0.2,
                be_fraction: 0.5,
            },
            ..ClusterConfig::heterogeneous(12, PlacerKind::EntropyAware, LocalSched::Unmanaged)
        };
        let moved = Rc::new(RefCell::new(Vec::new()));
        let mut sim = ClusterSim::new(config);
        sim.set_controller(Box::new(Shuffler {
            moved: Rc::clone(&moved),
        }));
        let runner = SequentialRunner;
        let mut departed = HashSet::new();
        while !sim.finished() {
            let round = sim.round();
            sim.step_round(&runner);
            for event in sim.stream.events_for_round(round) {
                if let ChurnEvent::Depart { id } = event {
                    assert!(departed.insert(*id), "app {id} departs twice");
                }
            }
            assert_eq!(sim.departures, departed.len() as u64);
            for app in sim.nodes.iter().flat_map(|n| &n.apps) {
                assert!(
                    !departed.contains(&app.id),
                    "departed app {} placed",
                    app.id
                );
            }
        }
        assert!(
            moved.borrow().iter().any(|id| departed.contains(id)),
            "some migrated app departs later"
        );
        assert!(sim.migrations > 0, "the placer rebalances");
        assert!(sim.ctrl_rollbacks > 0, "the controller rolls back");
    }
}
