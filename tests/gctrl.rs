//! Tier-1 pins for the `gctrl` family: worker-count invariance of the
//! rendered report, a pinned Full-fidelity controller run and the
//! controller's headline win over static entropy-aware placement.

use ahq_core::stable_hash128;
use ahq_experiments::{gctrl, ExpConfig, ExpContext};

/// `repro gctrl` output at 256 nodes must be byte-identical for any
/// worker count: the controller sits on the coordinator, every node round
/// is a closed job, and results reassemble in submission order.
#[test]
fn gctrl_output_identical_across_jobs() {
    let render = |jobs: usize| {
        let mut cfg = ExpContext::with_jobs(
            ExpConfig {
                quick: true,
                seed: 42,
            },
            jobs,
        );
        cfg.cluster.nodes = Some(256);
        cfg.cluster.rounds = Some(8);
        gctrl::run(&cfg).render()
    };
    let sequential = render(1);
    let parallel = render(8);
    assert!(
        sequential.contains("ctrl+learned"),
        "report covers the learned arm"
    );
    assert_eq!(
        sequential, parallel,
        "gctrl report must be byte-identical for --jobs 1 vs --jobs 8"
    );
}

/// The paper-level claim of the control plane: at 256 churned nodes the
/// learned-weight controller beats static entropy-aware placement on
/// both steady-state mean and p95 cluster `E_S`.
#[test]
fn learned_controller_beats_static_placement_at_256_nodes() {
    let cfg = ExpContext::with_jobs(
        ExpConfig {
            quick: false,
            seed: 42,
        },
        8,
    );
    let arms = gctrl::arms();
    let baseline_arm = arms
        .iter()
        .find(|a| a.name == "entropy-aware")
        .expect("static arm exists");
    let learned_arm = arms
        .iter()
        .find(|a| a.name == "ctrl+learned")
        .expect("learned arm exists");

    let baseline = gctrl::run_arm(&cfg, 256, baseline_arm);
    let learned = gctrl::run_arm(&cfg, 256, learned_arm);
    let n = (baseline.rounds * baseline.windows_per_round) / 2;

    assert_eq!(learned.controller.as_deref(), Some("global-arq+learned"));
    assert!(
        learned.ctrl_migrations > 0,
        "the controller must actually act"
    );
    assert!(
        learned.steady_mean_entropy(n) < baseline.steady_mean_entropy(n),
        "steady mean E_S: learned {:.4} must beat static {:.4}",
        learned.steady_mean_entropy(n),
        baseline.steady_mean_entropy(n),
    );
    assert!(
        learned.steady_p95_entropy(n) < baseline.steady_p95_entropy(n),
        "steady p95 E_S: learned {:.4} must beat static {:.4}",
        learned.steady_p95_entropy(n),
        baseline.steady_p95_entropy(n),
    );
}

/// Migration-cost accounting stays internally consistent: every LC cold
/// start charges at least one warm-up window, rollbacks never exceed
/// controller migrations, and the per-round migration counters in the
/// window stats sum to the report's totals.
#[test]
fn migration_cost_accounting_is_consistent() {
    let mut cfg = ExpContext::with_jobs(
        ExpConfig {
            quick: true,
            seed: 42,
        },
        8,
    );
    cfg.cluster.nodes = Some(32);
    cfg.cluster.rounds = Some(10);
    let arms = gctrl::arms();
    let ctrl_arm = arms.iter().find(|a| a.name == "ctrl").expect("ctrl arm");
    let report = gctrl::run_arm(&cfg, 32, ctrl_arm);

    assert!(report.ctrl_rollbacks <= report.ctrl_migrations);
    assert!(report.warmup_windows >= report.cold_starts);
    let windows_per_round = report.windows_per_round as u64;
    let per_round_sum: u64 = report
        .window_stats
        .iter()
        .map(|w| w.round_migrations)
        .sum::<u64>()
        / windows_per_round.max(1);
    // Placer migrations + controller moves + rollback restores all enter
    // round_migrations exactly once; a rollback restores into the *next*
    // round it disturbs, so a final-round rollback's restore lands in a
    // round that never runs and is the one disturbance allowed to be
    // missing from the window stats.
    let total = report.migrations + report.ctrl_migrations + report.ctrl_rollbacks;
    assert!(
        per_round_sum == total || per_round_sum + 1 == total,
        "per-round disturbance counters must sum to the report totals \
         (modulo one final-round rollback): {per_round_sum} vs {total}"
    );
}

/// Pins a Full-fidelity 64-node x 12-round `ctrl+learned` run (the
/// quick `repro gctrl` horizon) to exact placement and migration counters
/// and a digest of its report. The `--jobs 1` vs N test cannot see a
/// drift both sides share; this one can. Twelve rounds is the shortest
/// quick horizon in which the controller both moves and rolls back.
#[test]
fn full_fidelity_controller_run_matches_its_pinned_counters() {
    let mut cfg = ExpContext::with_jobs(
        ExpConfig {
            quick: true,
            seed: 42,
        },
        2,
    );
    cfg.cluster.rounds = Some(12);
    let arms = gctrl::arms();
    let learned = arms
        .iter()
        .find(|a| a.name == "ctrl+learned")
        .expect("learned arm exists");
    let report = gctrl::run_arm(&cfg, 64, learned);
    assert_eq!(
        (
            report.placements,
            report.migrations,
            report.ctrl_migrations,
            report.ctrl_rollbacks,
            report.cold_starts
        ),
        (240, 4, 5, 1, 4),
        "placements, migrations, ctrl migrations, rollbacks, cold starts"
    );
    assert_eq!(
        stable_hash128(format!("{report:?}").as_bytes()),
        0x67a3328cba7a5099dfeaffa007f4d6c7,
        "the report's Debug text drifted"
    );
}
