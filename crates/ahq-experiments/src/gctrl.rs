//! The `gctrl` experiment family: the hierarchical cluster-level ARQ
//! control plane (`ahq-ctrl`) under workload churn.
//!
//! Four arms per fleet size, isolating each layer's contribution:
//!
//! | arm | placer | controller |
//! |---|---|---|
//! | `least-loaded` | load spreading | none |
//! | `entropy-aware` | static entropy-aware weights | none |
//! | `ctrl` | static entropy-aware weights | global ARQ migrations |
//! | `ctrl+learned` | tunable weights | global ARQ + GP weight learning |
//!
//! The family is *not* part of `repro all` — it rides the
//! [`crate::extra_experiments`] registry so the pinned `repro all` output
//! stays byte-identical — but runs under the same deterministic engine:
//! `repro gctrl --jobs N` is byte-identical for any `N`.

use ahq_cluster::{ClusterEntropyReport, ClusterSim, LocalSched, PlacerKind};
use ahq_ctrl::{CtrlConfig, GlobalArq};

use crate::cluster::{scenario, EngineRunner};
use crate::exec::ExpContext;
use crate::report::{f3, ExperimentReport, TextTable};

/// One experiment arm: a placement policy with an optional controller.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    /// Arm label in the report.
    pub name: &'static str,
    /// Placement policy of the arm.
    pub placer: PlacerKind,
    /// Controller configuration; `None` runs the placer alone.
    pub ctrl: Option<CtrlConfig>,
}

/// The four arms, in ablation order.
pub fn arms() -> Vec<Arm> {
    vec![
        Arm {
            name: "least-loaded",
            placer: PlacerKind::LeastLoaded,
            ctrl: None,
        },
        Arm {
            name: "entropy-aware",
            placer: PlacerKind::EntropyAware,
            ctrl: None,
        },
        Arm {
            name: "ctrl",
            placer: PlacerKind::EntropyAware,
            ctrl: Some(CtrlConfig::default()),
        },
        Arm {
            name: "ctrl+learned",
            placer: PlacerKind::Learned,
            ctrl: Some(CtrlConfig { tune: true }),
        },
    ]
}

/// Fleet sizes: the churned 64- and 256-node scenarios (64 only under
/// `--quick`), or the single `--nodes N` override.
fn node_counts(cfg: &ExpContext) -> Vec<usize> {
    if let Some(nodes) = cfg.cluster.nodes {
        return vec![nodes];
    }
    if cfg.cfg.quick {
        vec![64]
    } else {
        vec![64, 256]
    }
}

/// Rounds per run. The controller needs history before its first move and
/// multiple tuning epochs to learn, so this family runs longer horizons
/// than the `cluster` grid; `--rounds` overrides.
fn rounds(cfg: &ExpContext) -> usize {
    if let Some(rounds) = cfg.cluster.rounds {
        return rounds;
    }
    if cfg.cfg.quick {
        12
    } else {
        24
    }
}

/// Runs one arm at one fleet size.
pub fn run_arm(cfg: &ExpContext, nodes: usize, arm: &Arm) -> ClusterEntropyReport {
    let mut config = scenario(&cfg.cfg, nodes, arm.placer, LocalSched::Arq);
    config.fidelity = cfg.cluster.fidelity;
    config.rounds = rounds(cfg);
    let mut sim = ClusterSim::new(config);
    if let Some(ctrl) = &arm.ctrl {
        sim.set_controller(Box::new(GlobalArq::new(ctrl.clone())));
    }
    sim.run(&EngineRunner::new(cfg.engine()))
}

/// Steady-state windows of an arm's run: the last half.
fn steady_windows(cfg: &ExpContext, nodes: usize) -> usize {
    let config = scenario(&cfg.cfg, nodes, PlacerKind::EntropyAware, LocalSched::Arq);
    (rounds(cfg) * config.windows_per_round) / 2
}

/// Regenerates the controller comparison.
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "gctrl",
        "Global controller: cluster-level ARQ control plane under churn",
    );
    let mut table = TextTable::new(
        "Controller arms: steady-state cluster E_S and migration cost by fleet size",
        &[
            "nodes",
            "arm",
            "mean E_S",
            "steady E_S",
            "steady p95",
            "viol",
            "migr",
            "ctrl migr",
            "rollbacks",
            "cold",
            "warm win",
        ],
    );
    let mut steady: Vec<(usize, &'static str, f64, f64)> = Vec::new();
    for nodes in node_counts(cfg) {
        let n = steady_windows(cfg, nodes);
        for arm in arms() {
            let result = run_arm(cfg, nodes, &arm);
            table.push_row(vec![
                nodes.to_string(),
                arm.name.into(),
                f3(result.mean_entropy()),
                f3(result.steady_mean_entropy(n)),
                f3(result.steady_p95_entropy(n)),
                result.violations.to_string(),
                result.migrations.to_string(),
                result.ctrl_migrations.to_string(),
                result.ctrl_rollbacks.to_string(),
                result.cold_starts.to_string(),
                result.warmup_windows.to_string(),
            ]);
            steady.push((
                nodes,
                arm.name,
                result.steady_mean_entropy(n),
                result.steady_p95_entropy(n),
            ));
        }
    }
    report.tables.push(table);

    for nodes in node_counts(cfg) {
        let pick = |name: &str| -> Option<(f64, f64)> {
            steady
                .iter()
                .find(|(n, a, _, _)| *n == nodes && *a == name)
                .map(|(_, _, mean, p95)| (*mean, *p95))
        };
        if let (Some((base, base95)), Some((learned, learned95))) =
            (pick("entropy-aware"), pick("ctrl+learned"))
        {
            report.note(format!(
                "{nodes} nodes: ctrl+learned steady E_S {learned:.3} (p95 {learned95:.3}) \
                 vs static entropy-aware {base:.3} (p95 {base95:.3})"
            ));
        }
    }
    report.note(
        "The controller mirrors node-level ARQ one layer up: speculative hot-to-cool \
         migrations, entropy-feedback rollback with a donor cooldown, and GP-learned \
         placement weights. LC moves charge a cold-start warm-up ('cold'/'warm win' \
         columns), so the controller must earn back its disturbance."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::ExpConfig;

    fn quick_cfg() -> ExpContext {
        ExpContext::new(ExpConfig {
            quick: true,
            seed: 42,
        })
    }

    #[test]
    fn four_arms_cover_the_ablation() {
        let arms = arms();
        assert_eq!(arms.len(), 4);
        assert!(arms.iter().filter(|a| a.ctrl.is_some()).count() == 2);
        assert_eq!(arms[3].placer, PlacerKind::Learned);
        assert!(arms[3].ctrl.as_ref().is_some_and(|c| c.tune));
    }

    #[test]
    fn controller_arm_reports_its_activity() {
        let mut cfg = quick_cfg();
        cfg.cluster.nodes = Some(16);
        cfg.cluster.rounds = Some(8);
        let ctrl_arm = arms().into_iter().find(|a| a.name == "ctrl").unwrap();
        let result = run_arm(&cfg, 16, &ctrl_arm);
        assert_eq!(result.controller.as_deref(), Some("global-arq"));
        assert!(
            result.ctrl_migrations > 0,
            "a churned 16-node fleet gives the controller work"
        );
    }

    #[test]
    fn report_has_table_and_notes() {
        let mut cfg = quick_cfg();
        cfg.cluster.nodes = Some(8);
        cfg.cluster.rounds = Some(6);
        let report = run(&cfg);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 4, "one row per arm");
        assert!(!report.notes.is_empty());
    }
}
