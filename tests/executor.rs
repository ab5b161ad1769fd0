//! Integration tests of the deterministic parallel run engine: figure
//! output must be byte-identical for any worker count, and shared
//! configurations must be answered by the run cache.

use ahq_core::json;
use ahq_experiments::{fig2, fig8, ExpConfig, ExpContext, RunSpec, StrategyKind};
use ahq_sim::MachineConfig;
use ahq_workloads::mixes;

fn cfg_with_jobs(jobs: usize) -> ExpContext {
    ExpContext::with_jobs(
        ExpConfig {
            quick: true,
            seed: 97,
        },
        jobs,
    )
}

/// A full figure module, run sequentially and with 8 workers, must render
/// to the same JSON byte for byte.
#[test]
fn figure_output_is_identical_across_worker_counts() {
    let sequential = fig2::run(&cfg_with_jobs(1));
    let parallel = fig2::run(&cfg_with_jobs(8));
    assert_eq!(
        json::to_string(&sequential),
        json::to_string(&parallel),
        "fig2 output must not depend on the worker count"
    );
}

/// The fig8-style sweep (the workhorse grid behind Figs. 8, 9, 11 and the
/// headline numbers) must also be invariant under parallelism, including
/// every derived per-cell metric.
#[test]
fn sweep_cells_are_identical_across_worker_counts() {
    let mix = mixes::fluidanimate_mix();
    let render = |jobs: usize| -> Vec<String> {
        let cfg = cfg_with_jobs(jobs);
        fig8::sweeps(&cfg, &mix, "xapian", &[0.2], &[0.1, 0.9])
            .remove(0)
            .into_iter()
            .map(|c| format!("{c:?}"))
            .collect()
    };
    assert_eq!(render(1), render(4));
}

/// A duplicated spec in one batch executes exactly once; a repeat of the
/// whole batch executes nothing new.
#[test]
fn duplicate_specs_execute_once_and_repeats_hit_the_cache() {
    let cfg = cfg_with_jobs(4);
    let mix = mixes::fluidanimate_mix();
    let spec = RunSpec {
        windows: 8,
        ..RunSpec::strategy(
            &cfg,
            MachineConfig::paper_xeon(),
            &mix,
            &[("xapian", 0.4), ("moses", 0.2), ("img-dnn", 0.2)],
            StrategyKind::Unmanaged,
        )
    };
    let batch = [spec.clone(), spec.clone(), spec];
    cfg.engine().run_all(&batch);
    let first = cfg.engine().stats();
    assert_eq!(first.misses, 1, "three identical submissions, one run");
    assert_eq!(first.hits, 2);

    cfg.engine().run_all(&batch);
    let second = cfg.engine().stats();
    assert_eq!(second.misses, 1, "the repeat batch executes nothing");
    assert_eq!(second.hits, 5);
}

/// Figures sharing configurations actually share runs: fig3's entropy
/// series re-reads the budget points fig2 already measured.
#[test]
fn cross_figure_configurations_are_cached() {
    let cfg = cfg_with_jobs(2);
    let before_misses = {
        fig2::entropy_at_budget(&cfg, 6, 20, StrategyKind::Arq);
        cfg.engine().stats().misses
    };
    // The same budget point again — a different figure would issue exactly
    // this spec.
    fig2::entropy_at_budget(&cfg, 6, 20, StrategyKind::Arq);
    let stats = cfg.engine().stats();
    assert_eq!(stats.misses, before_misses, "no new execution");
    assert!(stats.hits >= 1);
}
