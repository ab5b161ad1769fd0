//! # ahq-core — the system entropy (`E_S`) theory
//!
//! This crate implements the analytical core of the Ah-Q paper
//! (*"Ah-Q: Quantifying and Handling the Interference within a Datacenter
//! from a System Perspective"*, HPCA 2023): a dimensionless, `[0, 1]`-valued
//! metric that quantifies the aggregate interference experienced by a mix of
//! collocated latency-critical (LC) and best-effort (BE) applications.
//!
//! ## Concepts
//!
//! For every LC application `i` three base quantities exist:
//!
//! * `TL_i0` — its *ideal* tail latency, measured free of interference,
//! * `TL_i1` — its tail latency under collocation,
//! * `M_i` — the maximum tail latency its users tolerate (the QoS target).
//!
//! From those the paper derives (Eqs. 1–4):
//!
//! * [`LcMeasurement::tolerance`] — `A_i = 1 - TL_i0 / M_i`,
//! * [`LcMeasurement::interference`] — `R_i = 1 - TL_i0 / TL_i1`,
//! * [`LcMeasurement::remaining_tolerance`] — `ReT_i`,
//! * [`LcMeasurement::intolerable`] — `Q_i`,
//!
//! and aggregates them into the LC entropy `E_LC` (Eq. 5), the BE entropy
//! `E_BE` (Eq. 6), and finally the system entropy (Eq. 7):
//!
//! ```text
//! E_S = RI * E_LC + (1 - RI) * E_BE
//! ```
//!
//! where `RI` is the *relative importance* of LC over BE applications
//! (the paper uses `0.8`).
//!
//! ## Quick example
//!
//! ```
//! use ahq_core::{BeMeasurement, EntropyModel, LcMeasurement, RelativeImportance};
//!
//! # fn main() -> Result<(), ahq_core::TheoryError> {
//! let lc = vec![
//!     // Xapian on 7 cores, row two of Table II in the paper.
//!     LcMeasurement::new("xapian", 2.77, 7.13, 4.22)?,
//!     LcMeasurement::new("moses", 2.80, 6.78, 10.53)?,
//!     LcMeasurement::new("img-dnn", 1.41, 5.65, 3.98)?,
//! ];
//! let be = vec![BeMeasurement::new("fluidanimate", 2.63, 2.55)?];
//!
//! let model = EntropyModel::new(RelativeImportance::new(0.8)?);
//! let report = model.evaluate(&lc, &be);
//! assert!(report.system > 0.0 && report.system < 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! The companion crates build a datacenter-node simulator (`ahq-sim`),
//! workload models (`ahq-workloads`) and the scheduling strategies
//! (`ahq-sched`, including the paper's ARQ) on top of this theory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod entropy;
mod equivalence;
mod error;
pub mod hash;
pub mod json;
mod measurement;
pub mod rng;
mod series;
mod weighted;

pub use entropy::{EntropyModel, EntropyReport, LcAppReport, RelativeImportance};
pub use equivalence::{isentropic_resource, resource_equivalence, EquivalencePoint};
pub use error::TheoryError;
pub use hash::{stable_hash128, stable_hash128_salted, Fnv128};
pub use measurement::{BeMeasurement, LcMeasurement, QosElasticity};
pub use rng::derive_seed;
pub use series::EntropySeries;
pub use weighted::{Weighted, WeightedEntropyModel};
