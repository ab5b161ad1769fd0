//! The `cluster` experiment family: a fleet of heterogeneous nodes under
//! workload churn, comparing placement policies (first-fit, least-loaded,
//! entropy-aware) crossed with the local per-node scheduler (unmanaged vs
//! ARQ) at 16/64/256 nodes.
//!
//! The cluster layer lives in `ahq-cluster` and knows nothing about the
//! run engine; [`EngineRunner`] bridges the two by submitting each closed
//! [`NodeJob`] as its [`NodeJob::spec`] and fanning rounds through the
//! invocation-wide [`Engine`]. Node jobs are pure functions of their
//! values and results come back in submission order, so
//! `repro cluster --jobs N` is byte-identical for any `N`.

use std::sync::Arc;

use ahq_cluster::{
    run_cluster, static_placers, ChurnConfig, ClusterConfig, ClusterEntropyReport, FidelityMode,
    JobFidelity, LocalSched, NodeBatchRunner, NodeJob, PlacerKind,
};
use ahq_sched::RunResult;
use ahq_sim::SimPerfStats;

use crate::exec::{Engine, ExpContext, RunSpec};
use crate::report::{f2, f3, ExperimentReport, TextTable};
use crate::runs::ExpConfig;

/// Command-line overrides for the cluster experiment — the
/// `repro cluster --nodes N --rounds N --fidelity ladder|full` surface.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClusterOpts {
    /// Fleet-size override: run one scaled scenario instead of the grid.
    pub nodes: Option<usize>,
    /// Round-count override for the scaled scenario (default 1000).
    pub rounds: Option<usize>,
    /// Fidelity mode applied to every cluster scenario.
    pub fidelity: FidelityMode,
}

/// A [`NodeBatchRunner`] backed by the deterministic parallel [`Engine`]:
/// each round's node jobs fan out over the engine's workers (and share
/// its memoized run cache), so cluster wall-clock scales with `--jobs`
/// without changing a byte of output.
pub struct EngineRunner<'a> {
    engine: &'a Engine,
}

impl<'a> EngineRunner<'a> {
    /// A runner over `engine`.
    pub fn new(engine: &'a Engine) -> Self {
        EngineRunner { engine }
    }
}

impl NodeBatchRunner for EngineRunner<'_> {
    fn run_nodes(&self, jobs: &[NodeJob]) -> Vec<RunResult> {
        // HI-FI jobs fan out over the engine; LO-FI jobs (closed-form, no
        // event loop) are cheaper than a cache lookup and run inline. The
        // ladder never actually submits LO-FI jobs — it replays cached
        // rounds on the coordinator — but the split keeps the runner
        // correct for any caller.
        let mut results: Vec<Option<RunResult>> = (0..jobs.len()).map(|_| None).collect();
        let mut hifi: Vec<usize> = Vec::new();
        let mut specs: Vec<RunSpec> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            if matches!(job.fidelity, JobFidelity::HiFi) {
                hifi.push(i);
                specs.push(job.spec());
            } else {
                results[i] = Some(job.execute());
            }
        }
        // A result is copied only while an in-batch duplicate still
        // shares it; the last holder takes it out of its `Arc`.
        for (i, result) in hifi.into_iter().zip(self.engine.run_all(&specs)) {
            results[i] = Some(Arc::try_unwrap(result).unwrap_or_else(|shared| (*shared).clone()));
        }
        results
            .into_iter()
            .map(|r| r.expect("every job answered"))
            .collect()
    }

    fn perf_stats(&self) -> Option<SimPerfStats> {
        Some(self.engine.sim_stats())
    }
}

/// Fleet sizes of the grid.
fn node_counts(cfg: &ExpConfig) -> Vec<usize> {
    if cfg.quick {
        vec![16, 64]
    } else {
        vec![16, 64, 256]
    }
}

/// The standard churned scenario at `nodes` nodes: the heterogeneous
/// fleet, roughly one app per node initially, and arrivals/departures/
/// load changes scaled to fleet size so every placer faces the same
/// pressure per node regardless of scale.
pub fn scenario(
    cfg: &ExpConfig,
    nodes: usize,
    placer: PlacerKind,
    sched: LocalSched,
) -> ClusterConfig {
    let mut config = ClusterConfig::heterogeneous(nodes, placer, sched);
    config.seed = cfg.seed;
    config.windows_per_round = if cfg.quick { 2 } else { 3 };
    config.rounds = if cfg.quick { 4 } else { 8 };
    config.churn = ChurnConfig {
        initial_apps: nodes,
        arrivals_per_round: nodes as f64 / 4.0,
        departure_prob: 0.05,
        load_change_prob: 0.15,
        be_fraction: 0.4,
    };
    config
}

/// The scaled single-cell scenario behind `repro cluster --nodes N`: the
/// heterogeneous fleet at half occupancy under gentle churn, sized so the
/// per-node pressure stays flat as the fleet grows. Long-horizon by
/// default (1000 rounds) — the fidelity ladder is what makes that
/// tractable at 10k nodes.
pub fn scaled_scenario(cfg: &ExpConfig, nodes: usize, opts: &ClusterOpts) -> ClusterConfig {
    let mut config = ClusterConfig::heterogeneous(nodes, PlacerKind::EntropyAware, LocalSched::Arq);
    config.seed = cfg.seed;
    config.windows_per_round = if cfg.quick { 2 } else { 3 };
    config.rounds = opts.rounds.unwrap_or(1000);
    config.fidelity = opts.fidelity;
    config.churn = ChurnConfig {
        initial_apps: (nodes / 2).max(1),
        arrivals_per_round: (nodes as f64 / 256.0).max(1.0),
        departure_prob: 0.005,
        load_change_prob: 0.01,
        be_fraction: 0.4,
    };
    config
}

/// Steady-state windows of a scenario: the last half of the run.
fn steady_windows(config: &ClusterConfig) -> usize {
    (config.rounds * config.windows_per_round) / 2
}

/// Records a run's fidelity split as `--timings` metrics: node-windows
/// simulated at each rung, plus the total windows for normalisation.
fn fidelity_metrics(report: &mut ExperimentReport, result: &ClusterEntropyReport) {
    let hifi: usize = result.window_stats.iter().map(|w| w.hifi_nodes).sum();
    let lofi: usize = result.window_stats.iter().map(|w| w.lofi_nodes).sum();
    report.metric("hifi_node_windows", hifi as f64);
    report.metric("lofi_node_windows", lofi as f64);
    report.metric("cluster_windows", result.windows() as f64);
}

/// The scaled single-cell run behind `repro cluster --nodes N`.
fn run_scaled(cfg: &ExpContext, nodes: usize) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "cluster",
        format!(
            "Cluster: {nodes}-node fleet, {} fidelity",
            cfg.cluster.fidelity.name()
        ),
    );
    let runner = EngineRunner::new(cfg.engine());
    let config = scaled_scenario(&cfg.cfg, nodes, &cfg.cluster);
    let rounds = config.rounds;
    let n = steady_windows(&config);
    let result = run_cluster(config, &runner);

    let mut table = TextTable::new(
        format!("Scaled cluster: {nodes} nodes x {rounds} rounds"),
        &[
            "fidelity",
            "mean E_S",
            "steady E_S",
            "steady p95",
            "viol",
            "placed",
            "migr",
            "occup",
        ],
    );
    table.push_row(vec![
        cfg.cluster.fidelity.name().into(),
        f3(result.mean_entropy()),
        f3(result.steady_mean_entropy(n)),
        f3(result.steady_p95_entropy(n)),
        result.violations.to_string(),
        result.placements.to_string(),
        result.migrations.to_string(),
        f2(result.mean_occupancy()),
    ]);
    report.tables.push(table);

    let hifi: usize = result.window_stats.iter().map(|w| w.hifi_nodes).sum();
    let lofi: usize = result.window_stats.iter().map(|w| w.lofi_nodes).sum();
    let active = hifi + lofi;
    report.note(format!(
        "fidelity split: {hifi} HI-FI / {lofi} LO-FI node-windows ({:.1} % LO-FI)",
        if active == 0 {
            0.0
        } else {
            lofi as f64 / active as f64 * 100.0
        }
    ));
    fidelity_metrics(&mut report, &result);
    report
}

/// Regenerates the cluster grid (or, with `--nodes N`, one scaled cell).
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    if let Some(nodes) = cfg.cluster.nodes {
        return run_scaled(cfg, nodes);
    }
    let mut report = ExperimentReport::new(
        "cluster",
        "Cluster: placement policies under workload churn",
    );
    let runner = EngineRunner::new(cfg.engine());

    let mut table = TextTable::new(
        "Cluster grid: mean/steady E_S by fleet size, placer and local scheduler",
        &[
            "nodes",
            "placer",
            "sched",
            "mean E_S",
            "steady E_S",
            "steady p95",
            "viol",
            "placed",
            "migr",
            "occup",
        ],
    );
    let mut steady: Vec<(usize, PlacerKind, LocalSched, f64)> = Vec::new();
    let mut fidelity_split = (0usize, 0usize);
    for nodes in node_counts(cfg) {
        // The learned placer only differs under a controller; this family
        // pins the static-policy tables, so it iterates the static trio.
        for placer in static_placers() {
            for sched in LocalSched::all() {
                let mut config = scenario(cfg, nodes, placer, sched);
                config.fidelity = cfg.cluster.fidelity;
                let n = steady_windows(&config);
                let result: ClusterEntropyReport = run_cluster(config, &runner);
                fidelity_split.0 += result
                    .window_stats
                    .iter()
                    .map(|w| w.hifi_nodes)
                    .sum::<usize>();
                fidelity_split.1 += result
                    .window_stats
                    .iter()
                    .map(|w| w.lofi_nodes)
                    .sum::<usize>();
                table.push_row(vec![
                    nodes.to_string(),
                    placer.name().into(),
                    sched.name().into(),
                    f3(result.mean_entropy()),
                    f3(result.steady_mean_entropy(n)),
                    f3(result.steady_p95_entropy(n)),
                    result.violations.to_string(),
                    result.placements.to_string(),
                    result.migrations.to_string(),
                    f2(result.mean_occupancy()),
                ]);
                steady.push((nodes, placer, sched, result.steady_mean_entropy(n)));
            }
        }
    }
    report.tables.push(table);

    for nodes in node_counts(cfg) {
        for sched in LocalSched::all() {
            let pick = |placer: PlacerKind| -> Option<f64> {
                steady
                    .iter()
                    .find(|(n, p, s, _)| *n == nodes && *p == placer && *s == sched)
                    .map(|(_, _, _, es)| *es)
            };
            if let (Some(ff), Some(ea)) =
                (pick(PlacerKind::FirstFit), pick(PlacerKind::EntropyAware))
            {
                report.note(format!(
                    "{nodes} nodes / {}: entropy-aware steady E_S {ea:.3} vs first-fit {ff:.3}",
                    sched.name()
                ));
            }
        }
    }
    report.note(
        "Entropy-aware placement spreads BE pressure away from nodes with hot entropy \
         history; first-fit packs low indices and concentrates interference."
            .to_string(),
    );
    report.metric("hifi_node_windows", fidelity_split.0 as f64);
    report.metric("lofi_node_windows", fidelity_split.1 as f64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cfg: &ExpContext, placer: PlacerKind) -> ClusterConfig {
        let mut config = scenario(cfg, 8, placer, LocalSched::Unmanaged);
        config.rounds = 2;
        config.churn.initial_apps = 6;
        config.churn.arrivals_per_round = 1.0;
        config
    }

    #[test]
    fn engine_caches_repeated_rounds() {
        let cfg = ExpContext::new(ExpConfig {
            quick: true,
            seed: 13,
        });
        let runner = EngineRunner::new(cfg.engine());
        let first = run_cluster(tiny(&cfg, PlacerKind::FirstFit), &runner);
        let again = run_cluster(tiny(&cfg, PlacerKind::FirstFit), &runner);
        assert_eq!(first, again);
        let stats = cfg.engine().stats();
        assert_eq!(
            stats.hits, stats.misses,
            "an identical rerun must be answered entirely from the cache"
        );
    }

    #[test]
    fn scaled_run_reports_fidelity_metrics() {
        let mut cfg = ExpContext::new(ExpConfig {
            quick: true,
            seed: 13,
        });
        cfg.cluster = ClusterOpts {
            nodes: Some(8),
            rounds: Some(2),
            fidelity: FidelityMode::Ladder,
        };
        let report = run(&cfg);
        assert_eq!(report.tables.len(), 1);
        assert!(report.metrics.iter().any(|m| m.name == "hifi_node_windows"));
        assert!(report.metrics.iter().any(|m| m.name == "lofi_node_windows"));
    }
}
