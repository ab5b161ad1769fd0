//! Shared run machinery: building simulations from mixes, steady-state
//! windows, and the experiment configuration.

use ahq_core::EntropyModel;
use ahq_sim::{MachineConfig, NodeSim};
use ahq_workloads::mixes::Mix;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExpContext, RunSpec};
    use crate::strategy::StrategyKind;
    use ahq_core::derive_seed;
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
