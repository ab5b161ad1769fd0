//! The window-driven scheduling loop: simulate a window, score it with the
//! entropy model, let the scheduler react, repeat.
//!
//! The loop is available in two shapes: the batch helpers [`run`] /
//! [`run_with_hook`] that drive a whole run to completion, and the
//! incremental [`ScheduledRun`] that advances one window per [`ScheduledRun::step`]
//! call — the form [`crate::execute_lockstep`] uses to keep the runs of a
//! group on one window clock. Both produce byte-identical [`RunResult`]s for the same
//! inputs: the batch helpers are thin wrappers over the stepper.

use ahq_core::json::{FromJson, JsonError, JsonValue, ToJson};
use ahq_core::{EntropyModel, EntropyReport};
use ahq_sim::arrivals::ArrivalChunk;
use ahq_sim::{NodeSim, Partition, WindowObservation};

use crate::observe;
use crate::{SchedContext, Scheduler};

/// The full record of one scheduled run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Strategy name.
    pub strategy: String,
    /// Per-window observations.
    pub observations: Vec<WindowObservation>,
    /// Per-window entropy reports (parallel to `observations`).
    pub entropy: Vec<EntropyReport>,
    /// Per-window partitions in force (parallel to `observations`).
    pub partitions: Vec<Partition>,
    /// Total QoS violations across all windows and LC applications.
    pub violations: u64,
    /// Number of partition adjustments the scheduler made.
    pub adjustments: u64,
}

impl ToJson for RunResult {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("strategy", self.strategy.to_json()),
            ("observations", self.observations.to_json()),
            ("entropy", self.entropy.to_json()),
            ("partitions", self.partitions.to_json()),
            ("violations", self.violations.to_json()),
            ("adjustments", self.adjustments.to_json()),
        ])
    }
}

impl FromJson for RunResult {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(Self {
            strategy: value.req("strategy")?,
            observations: value.req("observations")?,
            entropy: value.req("entropy")?,
            partitions: value.req("partitions")?,
            violations: value.req("violations")?,
            adjustments: value.req("adjustments")?,
        })
    }
}

impl RunResult {
    /// Mean system entropy over the last `n` windows (or all, if fewer) —
    /// the steady-state score experiments report.
    pub fn steady_entropy(&self, n: usize) -> f64 {
        mean(self.entropy.iter().rev().take(n).map(|e| e.system))
    }

    /// Mean LC entropy over the last `n` windows.
    pub fn steady_lc_entropy(&self, n: usize) -> f64 {
        mean(self.entropy.iter().rev().take(n).map(|e| e.lc))
    }

    /// Mean BE entropy over the last `n` windows.
    pub fn steady_be_entropy(&self, n: usize) -> f64 {
        mean(self.entropy.iter().rev().take(n).map(|e| e.be))
    }

    /// Mean yield over the last `n` windows.
    pub fn steady_yield(&self, n: usize) -> f64 {
        mean(self.entropy.iter().rev().take(n).map(|e| e.yield_fraction))
    }

    /// Mean p95 of one LC application over the last `n` windows.
    pub fn steady_p95(&self, name: &str, n: usize) -> Option<f64> {
        mean_opt(
            self.observations
                .iter()
                .rev()
                .take(n)
                .filter_map(|o| o.lc_by_name(name).and_then(|s| s.p95_ms)),
        )
    }

    /// Mean IPC of one BE application over the last `n` windows.
    pub fn steady_ipc(&self, name: &str, n: usize) -> Option<f64> {
        mean_opt(
            self.observations
                .iter()
                .rev()
                .take(n)
                .filter_map(|o| o.be_by_name(name).map(|s| s.ipc)),
        )
    }
}

/// Single-pass mean without collecting; `0.0` for an empty iterator.
/// Accumulates in iteration order, so it sums exactly the way the old
/// collect-then-sum implementation did.
fn mean(values: impl Iterator<Item = f64>) -> f64 {
    mean_opt(values).unwrap_or(0.0)
}

/// Single-pass mean without collecting; `None` for an empty iterator.
fn mean_opt(values: impl Iterator<Item = f64>) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0u64;
    for v in values {
        sum += v;
        count += 1;
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

/// Runs `scheduler` over `windows` monitoring windows of `sim`.
///
/// Installs the scheduler's initial partition and sharing policy, then per
/// window: simulate, convert the observation to entropy measurements,
/// score, hand everything to [`Scheduler::decide`], and apply any
/// repartition (invalid proposals are ignored — a real controller's
/// actuation layer would equally refuse them).
pub fn run(
    sim: &mut NodeSim,
    scheduler: &mut dyn Scheduler,
    windows: usize,
    model: &EntropyModel,
) -> RunResult {
    run_with_hook(sim, scheduler, windows, model, |_, _| {})
}

/// Like [`run`], but calls `hook(sim, window_index)` *before* each window —
/// the place to replay load traces (Fig. 13) or inject faults.
pub fn run_with_hook(
    sim: &mut NodeSim,
    scheduler: &mut dyn Scheduler,
    windows: usize,
    model: &EntropyModel,
    mut hook: impl FnMut(&mut NodeSim, usize),
) -> RunResult {
    let mut stepper = ScheduledRun::new(sim, scheduler, model);
    for w in 0..windows {
        hook(stepper.sim(), w);
        stepper.step();
    }
    stepper.finish()
}

/// An in-progress scheduled run that advances one monitoring window per
/// [`ScheduledRun::step`] call.
///
/// This is the per-window form of the loop [`run_with_hook`] drives to
/// completion: construction installs the scheduler's policy and initial
/// partition, each step simulates one window / scores it / lets the
/// scheduler react, and [`ScheduledRun::finish`] seals the accumulated
/// [`RunResult`]. Stepping `n` times and finishing is byte-identical to
/// `run(sim, scheduler, n, model)`.
pub struct ScheduledRun<'a> {
    sim: &'a mut NodeSim,
    scheduler: &'a mut dyn Scheduler,
    model: &'a EntropyModel,
    apps: Vec<ahq_sim::AppSpec>,
    adjustments_before: u64,
    result: RunResult,
}

impl<'a> ScheduledRun<'a> {
    /// Prepares a run: installs the scheduler's sharing policy and initial
    /// partition on `sim`.
    ///
    /// # Panics
    ///
    /// Panics when the scheduler proposes an invalid initial partition —
    /// that is a scheduler bug, not a runtime condition.
    pub fn new(
        sim: &'a mut NodeSim,
        scheduler: &'a mut dyn Scheduler,
        model: &'a EntropyModel,
    ) -> Self {
        let apps: Vec<ahq_sim::AppSpec> = sim.specs().cloned().collect();
        sim.set_policy(scheduler.policy());
        let initial = scheduler.initial_partition(sim.machine(), &apps);
        // An unsound initial partition is a scheduler bug; surface it loudly.
        sim.set_partition(initial)
            .expect("scheduler proposed an invalid initial partition");
        let adjustments_before = sim.adjustments();
        let strategy = scheduler.name().to_owned();
        ScheduledRun {
            sim,
            scheduler,
            model,
            apps,
            adjustments_before,
            result: RunResult {
                strategy,
                observations: Vec::new(),
                entropy: Vec::new(),
                partitions: Vec::new(),
                violations: 0,
                adjustments: 0,
            },
        }
    }

    /// The simulator under the run — for pre-window mutation (load-trace
    /// replay, fault injection), exactly what [`run_with_hook`] hands its
    /// hook.
    pub fn sim(&mut self) -> &mut NodeSim {
        self.sim
    }

    /// Number of windows stepped so far.
    pub fn windows_run(&self) -> usize {
        self.result.observations.len()
    }

    /// Advances one monitoring window: simulate, score, let the scheduler
    /// react, apply any repartition. Returns the window's entropy report.
    pub fn step(&mut self) -> &EntropyReport {
        self.step_window(None)
    }

    /// [`ScheduledRun::step`] with the window's arrivals read from `chunk`
    /// ([`NodeSim::run_window_from`]) — how runs that share one request
    /// stream advance in lockstep on one set of draws.
    pub fn step_from(&mut self, chunk: &ArrivalChunk) -> &EntropyReport {
        self.step_window(Some(chunk))
    }

    fn step_window(&mut self, chunk: Option<&ArrivalChunk>) -> &EntropyReport {
        let partition = self.sim.partition().clone();
        let obs = match chunk {
            Some(chunk) => self.sim.run_window_from(chunk),
            None => self.sim.run_window(),
        };
        let (lc, be) = observe::measurements(&obs);
        let entropy = self.model.evaluate_auto(&lc, &be);
        self.result.violations += observe::violations(&obs);

        let ctx = SchedContext {
            machine: self.sim.machine(),
            apps: &self.apps,
            partition: &partition,
            obs: &obs,
            entropy: &entropy,
            now_s: self.sim.now().as_secs(),
        };
        if let Some(next) = self.scheduler.decide(&ctx) {
            // Refuse invalid proposals instead of crashing the run.
            let _ = self.sim.set_partition(next);
        }

        self.result.observations.push(obs);
        self.result.entropy.push(entropy);
        self.result.partitions.push(partition);
        self.result.entropy.last().expect("just pushed")
    }

    /// Seals the run, accounting the scheduler's partition adjustments.
    pub fn finish(self) -> RunResult {
        let mut result = self.result;
        result.adjustments = self.sim.adjustments() - self.adjustments_before;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Unmanaged;
    use ahq_sim::{AppSpec, MachineConfig};

    fn sim() -> NodeSim {
        let lc = AppSpec::lc("svc")
            .mean_service_ms(1.0)
            .qos_threshold_ms(5.0)
            .max_load_qps(2000.0)
            .build()
            .unwrap();
        let be = AppSpec::be("batch").ipc_solo(2.0).build().unwrap();
        let mut sim = NodeSim::new(MachineConfig::paper_xeon(), vec![lc, be], 9).unwrap();
        sim.set_load("svc", 0.3).unwrap();
        sim
    }

    fn entropy_only(systems: &[f64]) -> RunResult {
        RunResult {
            strategy: "test".into(),
            observations: Vec::new(),
            entropy: systems
                .iter()
                .map(|&system| EntropyReport {
                    lc: 0.0,
                    be: 0.0,
                    system,
                    yield_fraction: 1.0,
                    lc_apps: Vec::new(),
                })
                .collect(),
            partitions: Vec::new(),
            violations: 0,
            adjustments: 0,
        }
    }

    #[test]
    fn run_produces_parallel_vectors() {
        let mut s = sim();
        let mut sched = Unmanaged;
        let r = run(&mut s, &mut sched, 5, &EntropyModel::default());
        assert_eq!(r.observations.len(), 5);
        assert_eq!(r.entropy.len(), 5);
        assert_eq!(r.partitions.len(), 5);
        assert_eq!(r.strategy, "unmanaged");
    }

    #[test]
    fn hook_fires_each_window() {
        let mut s = sim();
        let mut sched = Unmanaged;
        let mut fired = Vec::new();
        run_with_hook(&mut s, &mut sched, 3, &EntropyModel::default(), |_, w| {
            fired.push(w)
        });
        assert_eq!(fired, vec![0, 1, 2]);
    }

    #[test]
    fn stepper_matches_batch_run() {
        let model = EntropyModel::default();
        let batch = {
            let mut s = sim();
            let mut sched = Unmanaged;
            run(&mut s, &mut sched, 4, &model)
        };
        let stepped = {
            let mut s = sim();
            let mut sched = Unmanaged;
            let mut stepper = ScheduledRun::new(&mut s, &mut sched, &model);
            while stepper.windows_run() < 4 {
                stepper.step();
            }
            stepper.finish()
        };
        assert_eq!(
            ahq_core::json::to_string(&batch),
            ahq_core::json::to_string(&stepped),
            "stepping must be byte-identical to the batch loop"
        );
    }

    #[test]
    fn steady_entropy_pinned_for_n_around_window_count() {
        let r = entropy_only(&[0.1, 0.2, 0.4]);
        // n smaller than the window count: mean of the last two.
        assert!((r.steady_entropy(2) - 0.3).abs() < 1e-12);
        // n equal to the window count: mean of all three.
        assert!((r.steady_entropy(3) - (0.7 / 3.0)).abs() < 1e-12);
        // n larger than the window count clamps to all windows.
        assert_eq!(r.steady_entropy(3), r.steady_entropy(100));
        // Degenerate cases.
        assert_eq!(r.steady_entropy(0), 0.0);
        assert_eq!(entropy_only(&[]).steady_entropy(5), 0.0);
    }

    #[test]
    fn steady_state_helpers() {
        let mut s = sim();
        let mut sched = Unmanaged;
        let r = run(&mut s, &mut sched, 6, &EntropyModel::default());
        let e = r.steady_entropy(3);
        assert!((0.0..=1.0).contains(&e));
        assert!(r.steady_p95("svc", 3).is_some());
        assert!(r.steady_ipc("batch", 3).is_some());
        assert!(r.steady_p95("nope", 3).is_none());
        assert!((0.0..=1.0).contains(&r.steady_yield(3)));
    }
}
