//! Integration tests of the cluster layer as wired into the experiment
//! harness: worker-count invariance of `repro cluster`, a pinned
//! 1,024-node ladder fleet and the entropy-aware placer's headline claim.

use ahq_cluster::{
    run_cluster, ClusterSim, FidelityMode, LocalSched, NodeBatchRunner, PlacerKind,
    SequentialRunner,
};
use ahq_core::stable_hash128;
use ahq_ctrl::{CtrlConfig, GlobalArq};
use ahq_experiments::cluster::{scaled_scenario, scenario, ClusterOpts, EngineRunner};
use ahq_experiments::{ExpConfig, ExpContext};
use ahq_sched::ArqConfig;
use ahq_sim::SharingPolicy;

fn quick_cfg(jobs: usize) -> ExpContext {
    ExpContext::with_jobs(
        ExpConfig {
            quick: true,
            seed: 42,
        },
        jobs,
    )
}

#[test]
fn sixty_four_nodes_are_byte_identical_for_any_job_count() {
    let serial = quick_cfg(1);
    let parallel = quick_cfg(8);
    let config = |cfg: &ExpContext| scenario(cfg, 64, PlacerKind::EntropyAware, LocalSched::Arq);
    let a = run_cluster(config(&serial), &EngineRunner::new(serial.engine()));
    let b = run_cluster(config(&parallel), &EngineRunner::new(parallel.engine()));
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "cluster output must not depend on the worker count"
    );
}

/// The engine-backed runner keys each node job by a `RunSpec`; the
/// sequential reference builds the job's scheduler directly. A 64-node
/// ARQ fleet under the learning controller exercises both ARQ arms of
/// that mapping, untuned (`arq: None`) and tuned, and the cold-start
/// warm-ups the controller's LC moves charge.
#[test]
fn engine_runner_is_equivalent_to_the_sequential_reference() {
    let cfg = quick_cfg(2);
    let tuned = ArqConfig {
        beneficiary_ret: 0.3,
        sharing: SharingPolicy::Fair,
        ..ArqConfig::default()
    };
    for arq in [None, Some(tuned)] {
        let mut config = scenario(&cfg, 64, PlacerKind::Learned, LocalSched::Arq);
        config.rounds = 12;
        config.arq = arq;
        let run = |runner: &dyn NodeBatchRunner| {
            let mut sim = ClusterSim::new(config.clone());
            sim.set_controller(Box::new(GlobalArq::new(CtrlConfig { tune: true })));
            sim.run(runner)
        };
        let engine_side = run(&EngineRunner::new(cfg.engine()));
        let reference = run(&SequentialRunner::default());
        assert!(
            engine_side.cold_starts > 0,
            "the controller must charge cold starts ({arq:?})"
        );
        assert_eq!(
            format!("{engine_side:?}"),
            format!("{reference:?}"),
            "the engine-backed runner must match per-job execution exactly ({arq:?})"
        );
    }
}

/// The churned 256-node ladder scenario the fidelity tests pin on.
fn ladder_scenario(cfg: &ExpContext, fidelity: FidelityMode) -> ahq_cluster::ClusterConfig {
    let mut config = scenario(cfg, 256, PlacerKind::EntropyAware, LocalSched::Arq);
    config.rounds = 6;
    config.fidelity = fidelity;
    config
}

#[test]
fn ladder_at_256_nodes_is_byte_identical_for_any_job_count() {
    let serial = quick_cfg(1);
    let parallel = quick_cfg(8);
    let a = run_cluster(
        ladder_scenario(&serial, FidelityMode::Ladder),
        &EngineRunner::new(serial.engine()),
    );
    let b = run_cluster(
        ladder_scenario(&parallel, FidelityMode::Ladder),
        &EngineRunner::new(parallel.engine()),
    );
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "ladder promotion/demotion must not depend on the worker count"
    );
}

#[test]
fn ladder_tracks_full_fidelity_steady_entropy_at_256_nodes() {
    let cfg = quick_cfg(0);
    let runner = EngineRunner::new(cfg.engine());
    let steady = {
        let c = ladder_scenario(&cfg, FidelityMode::Full);
        (c.rounds * c.windows_per_round) / 2
    };
    let full = run_cluster(ladder_scenario(&cfg, FidelityMode::Full), &runner);
    let ladder = run_cluster(ladder_scenario(&cfg, FidelityMode::Ladder), &runner);
    assert!(
        ladder.window_stats.iter().any(|w| w.lofi_nodes > 0),
        "the ladder demotes at least one node on this scenario"
    );
    assert!(
        full.window_stats.iter().all(|w| w.lofi_nodes == 0),
        "full fidelity never demotes"
    );
    // Documented tolerance (DESIGN.md §8): the ladder may shift placement
    // slightly through its surrogate-derived entropy history, but the
    // steady-state cluster E_S must stay within 0.05 mean / 0.10 p95 of
    // the full-fidelity reference.
    let dm = (full.steady_mean_entropy(steady) - ladder.steady_mean_entropy(steady)).abs();
    let dp = (full.steady_p95_entropy(steady) - ladder.steady_p95_entropy(steady)).abs();
    assert!(dm <= 0.05, "steady mean E_S diverges by {dm:.4}");
    assert!(dp <= 0.10, "steady p95 E_S diverges by {dp:.4}");
}

/// Pins a 1,024-node x 12-round ladder fleet (the `repro cluster --nodes`
/// scenario) to exact counters and a digest of its report. The `--jobs 1`
/// vs N tests cannot see a placement drift both sides share; this one can.
#[test]
fn scaled_ladder_fleet_matches_its_pinned_counters() {
    let cfg = quick_cfg(2);
    let opts = ClusterOpts {
        nodes: Some(1024),
        rounds: Some(12),
        fidelity: FidelityMode::Ladder,
    };
    let report = run_cluster(
        scaled_scenario(&cfg, 1024, &opts),
        &EngineRunner::new(cfg.engine()),
    );
    let hifi: usize = report.window_stats.iter().map(|w| w.hifi_nodes).sum();
    let lofi: usize = report.window_stats.iter().map(|w| w.lofi_nodes).sum();
    let digest = stable_hash128(format!("{report:?}").as_bytes());
    assert_eq!(
        (
            report.placements,
            report.departures,
            report.load_changes,
            report.migrations
        ),
        (556, 27, 46, 0),
        "placements, departures, load changes, migrations"
    );
    assert_eq!((hifi, lofi), (3074, 9468), "HI-FI and LO-FI node-windows");
    assert_eq!(
        digest, 0x1ae9e485604b1ca7828f82d8b4b8a34d,
        "the report's Debug text drifted"
    );
}

#[test]
fn entropy_aware_placement_beats_first_fit_on_a_churned_fleet() {
    let cfg = quick_cfg(0);
    let runner = EngineRunner::new(cfg.engine());
    let build = |placer| scenario(&cfg, 64, placer, LocalSched::Unmanaged);
    let steady = {
        let c = build(PlacerKind::FirstFit);
        (c.rounds * c.windows_per_round) / 2
    };
    let first_fit = run_cluster(build(PlacerKind::FirstFit), &runner);
    let entropy_aware = run_cluster(build(PlacerKind::EntropyAware), &runner);
    let ff = first_fit.steady_mean_entropy(steady);
    let ea = entropy_aware.steady_mean_entropy(steady);
    assert!(
        ea <= ff + 1e-9,
        "entropy-aware steady mean E_S ({ea:.4}) must not exceed first-fit ({ff:.4})"
    );
    assert!(
        first_fit.placements == entropy_aware.placements,
        "both placers face the same churn stream"
    );
}
