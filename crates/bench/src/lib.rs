//! # ahq-bench — benchmark fixtures and timer
//!
//! Shared fixtures for the bench binaries in `benches/` (prebuilt
//! simulations, measurement sets) and [`Bench`], the one timer they all
//! report through. The `perfbench` benchmark owns every end-to-end and
//! per-layer number; the benches here time only what it does not:
//!
//! * `theory` — entropy algebra, series interpolation, percentiles;
//! * `simulator` — monitoring-window throughput, the contention model,
//!   the space-time model (Fig. 4);
//! * `bayesopt` — GP fit/predict and candidate suggestion (CLITE's inner
//!   loop);
//! * `figures` — one reduced-scale regeneration step per paper artifact
//!   (Table II row, Fig. 2 budget point, Fig. 8 sweep cell, Fig. 13
//!   trace slice);
//! * `quantile`, `node` — the tail quantile kernels and the node event
//!   path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::black_box;
use std::time::Instant;

use ahq_core::{BeMeasurement, LcMeasurement};
use ahq_sim::{MachineConfig, NodeSim};
use ahq_workloads::mixes;

/// Timed repetitions per bench; the fastest is reported.
pub const REPS: usize = 5;

/// The shortest batch worth timing: batches grow until one takes this long.
const MIN_BATCH_NS: u128 = 20_000_000;

/// The timer of every bench binary (`harness = false`), with the method of
/// the `perf_smoke` gate: a warm-up, then the best of five equal batches,
/// reported in ns per iteration. The best rather than the mean, because
/// on a shared machine noise only ever adds time.
///
/// Bodies are timed only under `cargo bench`, which passes `--bench`.
/// With `--test` (`cargo bench -- --test`), or without `--bench`
/// (`cargo test --benches`), each body runs once, untimed, as a self-test.
pub struct Bench {
    test: bool,
}

impl Bench {
    /// Reads `--bench` and `--test` from the command line.
    pub fn from_args() -> Bench {
        let args: Vec<String> = std::env::args().collect();
        let has = |flag: &str| args.iter().any(|a| a == flag);
        Bench {
            test: has("--test") || !has("--bench"),
        }
    }

    /// Times `body`, or runs it once under `--test`, and prints one line.
    pub fn run<T>(&self, name: &str, mut body: impl FnMut() -> T) {
        if self.test {
            black_box(body());
            println!("{name}: ok");
            return;
        }
        let mut batch = |iters: u64| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(body());
            }
            start.elapsed().as_nanos()
        };
        // Warm-up doubles as calibration.
        let mut iters = 1u64;
        while batch(iters) < MIN_BATCH_NS {
            iters *= 2;
        }
        let best = (0..REPS).map(|_| batch(iters)).min().unwrap_or(0);
        let ns = best as f64 / iters as f64;
        println!("{name}: {ns:.0} ns/iter (best of {REPS} x {iters})");
    }
}

/// A standard measurement population of `n` LC and `n` BE applications.
pub fn measurement_population(n: usize) -> (Vec<LcMeasurement>, Vec<BeMeasurement>) {
    let lc = (0..n)
        .map(|i| {
            let ideal = 1.0 + i as f64 * 0.1;
            let observed = ideal * (1.0 + (i % 7) as f64 * 0.35);
            LcMeasurement::new(format!("lc{i}"), ideal, observed, ideal * 2.5)
                .expect("valid synthetic measurement")
        })
        .collect();
    let be = (0..n)
        .map(|i| {
            let solo = 1.0 + i as f64 * 0.2;
            BeMeasurement::new(format!("be{i}"), solo, solo / (1.0 + (i % 5) as f64 * 0.4))
                .expect("valid synthetic measurement")
        })
        .collect();
    (lc, be)
}

/// The standard benchmark simulation: the paper's Fluidanimate mix at
/// moderate load.
pub fn standard_sim(seed: u64) -> NodeSim {
    let mix = mixes::fluidanimate_mix();
    let mut sim =
        NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), seed).expect("valid mix");
    sim.set_load("xapian", 0.5).expect("LC app");
    sim.set_load("moses", 0.2).expect("LC app");
    sim.set_load("img-dnn", 0.2).expect("LC app");
    sim
}

/// The paper-pair scenario of the node benches: 2 LC + 2 BE on the paper
/// machine, the configuration the `perf_smoke` ns/window gate is pinned
/// against. Exercises the memoized rate cache exactly as the event
/// loop does (a handful of busy-thread vectors cycling between
/// repartitions).
pub fn paper_pair_sim(seed: u64) -> NodeSim {
    use ahq_sim::{AppSpec, CacheProfile};
    let lc = |name: &str, mean_ms: f64, qps: f64| {
        AppSpec::lc(name)
            .threads(4)
            .mean_service_ms(mean_ms)
            .service_sigma(0.6)
            .qos_threshold_ms(mean_ms * 5.0)
            .max_load_qps(qps)
            .cache(CacheProfile::balanced())
            .build()
            .expect("valid LC spec")
    };
    let be = |name: &str, profile: CacheProfile| {
        AppSpec::be(name)
            .threads(4)
            .ipc_solo(1.5)
            .cache(profile)
            .build()
            .expect("valid BE spec")
    };
    let specs = vec![
        lc("lc-a", 1.0, 2000.0),
        lc("lc-b", 2.0, 800.0),
        be("be-a", CacheProfile::compute()),
        be("be-b", CacheProfile::streaming()),
    ];
    let mut sim = NodeSim::new(MachineConfig::paper_xeon(), specs, seed).expect("valid sim");
    sim.set_load("lc-a", 0.6).expect("LC app");
    sim.set_load("lc-b", 0.3).expect("LC app");
    sim
}

/// A heavy-interference simulation: the STREAM mix at high load.
pub fn stream_sim(seed: u64) -> NodeSim {
    let mix = mixes::stream_mix();
    let mut sim =
        NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), seed).expect("valid mix");
    sim.set_load("xapian", 0.9).expect("LC app");
    sim.set_load("moses", 0.4).expect("LC app");
    sim.set_load("img-dnn", 0.4).expect("LC app");
    sim
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        let (lc, be) = measurement_population(8);
        assert_eq!(lc.len(), 8);
        assert_eq!(be.len(), 8);
        let mut sim = standard_sim(1);
        let obs = sim.run_window();
        assert_eq!(obs.lc.len(), 3);
        let mut sim = stream_sim(1);
        let obs = sim.run_window();
        assert_eq!(obs.be.len(), 1);
    }
}
