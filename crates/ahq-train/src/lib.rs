//! # ahq-train — offline policy search for placement and ARQ
//!
//! The entropy-aware placer and the ARQ adjustment loop ship with
//! hand-tuned constants (scoring weights, tighten/relax ReT thresholds,
//! the BE-throttle gate, rollback margins). This crate searches that
//! space offline: every knob is flattened into an 11-gene [`Genome`],
//! candidate genomes are scored on a deterministic portfolio of
//! churned-cluster scenarios ([`portfolio`]), and a seeded generational
//! genetic algorithm — optionally refined by the CLITE-style GP/EI
//! machinery in `ahq-bayesopt` — selects on the multi-objective
//! [`Fitness`] tuple (steady-state mean E_S, p95 E_S, SLO violations,
//! migration cost). The winner is emitted as a [`PolicyArtifact`]:
//! a JSON file (via `ahq_core::json`) that loads back bit-exactly and
//! can be replayed against the static incumbent on fleets the search
//! never saw.
//!
//! Evaluation is abstracted behind `ahq_cluster::NodeBatchRunner`, so
//! the search composes with the memoized parallel run engine in
//! `ahq-experiments` — shared node jobs across candidates hit the run
//! cache, and training output is byte-identical for any worker count.
//!
//! [`TrainConfig`] sets only what callers vary: the search budget
//! (population, generations, refinement) and whether the successive-
//! halving evaluation ladder screens candidates first. The GA's
//! operators (two elites, 3-way tournaments, crossover 0.9, per-gene
//! mutation 0.35 with a 0.2-of-range step) and the ladder's promotion
//! rule (the top third) are constants of the trainer.
//!
//! ```
//! use ahq_cluster::SequentialRunner;
//! use ahq_train::{portfolio, train, TrainConfig};
//!
//! let mut config = TrainConfig::new(7, vec![portfolio::churned(6, 3, 2, 5)]);
//! config.population = 4;
//! config.generations = 2;
//! config.refine_iters = 0;
//! let out = train(&config, &SequentialRunner::new());
//! assert!(out.artifact.fitness.scalar() <= out.artifact.baseline.scalar());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod artifact;
mod evaluate;
mod genome;
pub mod portfolio;
mod trainer;

pub use artifact::{ArtifactError, PolicyArtifact};
pub use evaluate::{evaluate, evaluate_screen, Fitness};
pub use genome::{Genome, GenomeBounds, GENES, GENE_NAMES};
pub use portfolio::Scenario;
pub use trainer::{train, GenerationStat, TrainConfig, TrainOutcome};
