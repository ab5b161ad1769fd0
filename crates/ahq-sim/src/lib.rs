//! # ahq-sim — a datacenter-node simulator for interference studies
//!
//! The Ah-Q paper evaluates its system-entropy theory and the ARQ scheduler
//! on a real 10-core Xeon with Intel CAT. This crate is the substitute
//! substrate for that testbed: a deterministic, discrete-event simulator of
//! one datacenter node with three contended resource dimensions —
//! **processor cores**, **LLC ways** (CAT-style) and **memory bandwidth** —
//! exposing exactly the observation/actuation surface the paper's
//! schedulers use:
//!
//! * *observe*, once per monitoring window (500 ms by default): the p95
//!   tail latency of every latency-critical (LC) application and the IPC of
//!   every best-effort (BE) application;
//! * *actuate*: repartition cores and LLC ways between per-application
//!   isolated regions and one shared region.
//!
//! ## Model
//!
//! LC applications are simulated at request granularity: open-loop Poisson
//! arrivals, log-normally distributed service demands, FCFS admission into
//! at most `threads` in-service slots, processor-sharing of the cores the
//! application can reach. BE applications are fluid: their IPC integrates
//! the same per-window speed factors. Speed factors combine
//!
//! * **core share** — isolated cores are exclusive; the shared region is
//!   divided either fairly (CFS-like) or with strict LC priority,
//! * **cache factor** — a per-application miss-ratio curve over its
//!   *effective* ways (isolated ways plus a pressure-weighted share of the
//!   shared ways) feeding a CPI model,
//! * **bandwidth factor** — when aggregate demand exceeds the node's
//!   memory bandwidth, each application's memory-bound fraction stalls
//!   proportionally.
//!
//! Repartitioning is not free: applications whose allocation changed run
//! with a degraded cache factor for a warm-up period, which is what makes
//! "ping-ponging" strategies visibly costly, as in the paper.
//!
//! ## Quick example
//!
//! ```
//! use ahq_sim::{AppSpec, CacheProfile, MachineConfig, NodeSim, Partition};
//!
//! # fn main() -> Result<(), ahq_sim::SimError> {
//! let machine = MachineConfig::paper_xeon();
//! let lc = AppSpec::lc("toy-lc")
//!     .threads(4)
//!     .mean_service_ms(1.0)
//!     .service_sigma(0.6)
//!     .qos_threshold_ms(4.0)
//!     .max_load_qps(2000.0)
//!     .cache(CacheProfile::balanced())
//!     .build()?;
//! let be = AppSpec::be("toy-be")
//!     .threads(4)
//!     .ipc_solo(1.5)
//!     .cache(CacheProfile::streaming())
//!     .build()?;
//!
//! let mut sim = NodeSim::new(machine, vec![lc, be], 42)?;
//! sim.set_load("toy-lc", 0.5)?;
//! let obs = sim.run_window();
//! assert_eq!(obs.lc.len(), 1);
//! assert_eq!(obs.be.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod app;
mod bandwidth;
mod cache;
mod contention;
mod error;
mod jsonio;
mod node;
mod observation;
mod partition;
mod quantile;
mod resources;
pub mod spacetime;
mod surrogate;
mod time;
mod trace;

pub use app::{AppId, AppKind, AppSpec, BeSpecBuilder, CacheProfile, LcSpecBuilder};
pub use bandwidth::BandwidthModel;
pub use cache::MissRatioCurve;
pub use contention::{
    compute_rates, compute_rates_into, AppDemand, AppRates, RateScratch, SharingPolicy,
};
pub use error::SimError;
pub use node::{
    scan_next_event, NodeSim, RateCache, ScanEvent, SimPerfStats, WARMUP_MS, WARMUP_PENALTY,
};
pub use observation::{BeWindowStats, LcWindowStats, WindowObservation};
pub use partition::{MbaLevel, Partition, PartitionDimension, RegionAlloc};
pub use quantile::{percentile, percentile_in_place, TailEstimator};
pub use resources::MachineConfig;
pub use surrogate::{BeCalibration, LcCalibration, SteadyCalibration, Surrogate};
pub use time::SimTime;
pub use trace::{HistogramSummary, LatencyHistogram};
