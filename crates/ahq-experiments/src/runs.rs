//! Shared run machinery: building simulations from mixes and the
//! experiment configuration. Both live in `ahq-sched` beside
//! [`RunSpec`](crate::exec::RunSpec) and are re-exported here.

pub use ahq_sched::{build_sim, ExpConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExpContext, RunSpec};
    use crate::strategy::StrategyKind;
    use ahq_core::derive_seed;
    use ahq_sim::MachineConfig;
    use ahq_workloads::mixes;

    #[test]
    fn quick_mode_shrinks_runs() {
        let quick = ExpConfig {
            quick: true,
            ..ExpConfig::default()
        };
        let full = ExpConfig::default();
        assert!(quick.windows() < full.windows());
        assert!(quick.steady() < full.steady());
    }

    #[test]
    fn replication_bounds_run_to_run_noise() {
        let cfg = ExpContext::new(ExpConfig {
            quick: true,
            seed: 71,
        });
        let mix = mixes::fluidanimate_mix();
        let loads = [("xapian", 0.5), ("moses", 0.2), ("img-dnn", 0.2)];
        let specs: Vec<RunSpec> = (0..3)
            .map(|i| RunSpec {
                seed: derive_seed(cfg.seed, i),
                ..RunSpec::strategy(
                    &cfg,
                    MachineConfig::paper_xeon(),
                    &mix,
                    &loads,
                    StrategyKind::Unmanaged,
                )
            })
            .collect();
        let samples: Vec<f64> = cfg
            .engine()
            .run_all(&specs)
            .iter()
            .map(|r| r.steady_entropy(cfg.steady()))
            .collect();
        let mean = samples.iter().sum::<f64>() / 3.0;
        let std_dev = (samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / 2.0).sqrt();
        assert!((0.0..=1.0).contains(&mean));
        assert!(
            std_dev < 0.1,
            "steady-state entropy should be stable across seeds: {samples:?}"
        );
    }

    #[test]
    fn build_and_run_smoke() {
        let cfg = ExpConfig {
            quick: true,
            seed: 1,
        };
        let mix = mixes::fluidanimate_mix();
        let r = RunSpec::strategy(
            &cfg,
            MachineConfig::paper_xeon(),
            &mix,
            &[("xapian", 0.2), ("moses", 0.2), ("img-dnn", 0.2)],
            StrategyKind::Unmanaged,
        )
        .execute();
        assert_eq!(r.observations.len(), cfg.windows());
    }
}
