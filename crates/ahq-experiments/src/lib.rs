//! # ahq-experiments — regenerating every table and figure of the paper
//!
//! One module per artifact of the Ah-Q paper's evaluation:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig1`] | Fig. 1 — the motivating strategy-A-vs-B example |
//! | [`table2`] | Table II — per-app entropy quantities vs core count |
//! | [`fig2`] | Fig. 2 — `E_S` vs available cores / LLC ways, Unmanaged vs ARQ |
//! | [`fig3`] | Fig. 3 — resource equivalence and isentropic lines |
//! | [`fig4`] | Fig. 4 — space-time model cross/tick/triangle accounting |
//! | [`fig56`] | Figs. 5 & 6 — PARTIES vs ARQ allocation snapshots |
//! | [`fig7`] | Fig. 7 — load-latency curves per core count |
//! | [`table4`] | Table IV — QoS thresholds and (calibrated) max loads |
//! | [`fig8`] | Fig. 8 — entropy / tail latency / IPC, Fluidanimate mix |
//! | [`fig9`] | Fig. 9 — same with the STREAM hog |
//! | [`fig10`] | Fig. 10 — Xapian x Img-dnn load heatmaps, PARTIES vs ARQ |
//! | [`fig11`] | Fig. 11 — Img-dnn sweep with Moses + Sphinx + STREAM |
//! | [`fig12`] | Fig. 12 — 6 LC + 2 BE collocation |
//! | [`fig13`] | Fig. 13 — fluctuating-load timeline |
//! | [`headline`] | §VI headline numbers (yield, `E_S` reductions, IPC gains) |
//! | [`ablations`] | extra: ablations of ARQ's design choices (not a paper artifact) |
//! | [`membw`] | extra: memory-bandwidth (MBA) throttling as a third resource dimension |
//! | [`baselines`] | extra: six-strategy comparison incl. a Heracles-style controller |
//! | [`cluster`] | extra: multi-node placement policies under churn (`ahq-cluster`) |
//! | [`gctrl`] | extra: hierarchical cluster-level ARQ control plane (`ahq-ctrl`) |
//! | [`train`] | extra: offline policy search + artifact replay (`ahq-train`) |
//!
//! The `repro` binary runs any subset and renders aligned text tables plus
//! CSV files. Every experiment is deterministic (seeded) and offers a
//! `quick` mode with shorter runs for CI.
//!
//! Every simulation is submitted as a [`RunSpec`] through the [`exec`]
//! module's deterministic parallel [`Engine`]: `repro --jobs N` fans the
//! grids out across workers and memoizes configurations shared across
//! figures, without changing a byte of output relative to `--jobs 1`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod baselines;
pub mod cache;
pub mod cluster;
pub mod error;
pub mod exec;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod gctrl;
pub mod headline;
pub mod membw;
mod packed;
pub mod report;
pub mod runs;
pub mod strategy;
pub mod table2;
pub mod table4;
pub mod train;

pub use cache::{DiskCache, DiskCacheStats};
pub use cluster::{ClusterOpts, EngineRunner};
pub use error::{classify_reachability, ExperimentError, Reachability};
pub use exec::{CacheStats, Engine, ExpContext, RunKey, RunSpec, SchedSpec};
pub use report::{ExperimentReport, Metric, TextTable};
pub use runs::ExpConfig;
pub use strategy::StrategyKind;
pub use train::TrainOpts;

/// One registry entry: `(id, title, runner)`.
pub type ExperimentEntry = (
    &'static str,
    &'static str,
    fn(&ExpContext) -> ExperimentReport,
);

/// Every experiment in paper order: `(id, title, runner)`.
pub fn all_experiments() -> Vec<ExperimentEntry> {
    vec![
        (
            "fig1",
            "Fig 1: motivating example",
            fig1::run as fn(&ExpContext) -> ExperimentReport,
        ),
        ("table2", "Table II: entropy vs core count", table2::run),
        ("fig2", "Fig 2: E_S vs resource amount", fig2::run),
        ("fig3", "Fig 3: resource equivalence", fig3::run),
        ("fig4", "Fig 4: space-time model", fig4::run),
        (
            "fig5",
            "Fig 5: allocation snapshot (Xapian 30%)",
            fig56::run_fig5,
        ),
        (
            "fig6",
            "Fig 6: allocation snapshot (Xapian 90%)",
            fig56::run_fig6,
        ),
        ("fig7", "Fig 7: load-latency curves", fig7::run),
        ("table4", "Table IV: LC application parameters", table4::run),
        ("fig8", "Fig 8: collocation with Fluidanimate", fig8::run),
        ("fig9", "Fig 9: collocation with STREAM", fig9::run),
        ("fig10", "Fig 10: load-grid heatmaps", fig10::run),
        (
            "fig11",
            "Fig 11: Img-dnn/Moses/Sphinx with STREAM",
            fig11::run,
        ),
        ("fig12", "Fig 12: 6 LC + 2 BE collocation", fig12::run),
        ("fig13", "Fig 13: fluctuating load", fig13::run),
        (
            "headline",
            "Headline numbers (yield, E_S, IPC)",
            headline::run,
        ),
        (
            "ablations",
            "Ablations of ARQ's design choices",
            ablations::run,
        ),
        (
            "membw",
            "Memory-bandwidth throttling (MBA) ablation",
            membw::run,
        ),
        (
            "baselines",
            "Six-strategy comparison incl. Heracles",
            baselines::run,
        ),
        (
            "cluster",
            "Cluster: placement policies under churn",
            cluster::run,
        ),
    ]
}

/// Experiments outside the pinned `repro all` set: runnable by explicit
/// id (and listed by `--list`), but excluded from `all` so its
/// byte-pinned output never changes when a new family lands.
pub fn extra_experiments() -> Vec<ExperimentEntry> {
    vec![
        (
            "gctrl",
            "Global controller: cluster ARQ control plane",
            gctrl::run as fn(&ExpContext) -> ExperimentReport,
        ),
        (
            "train",
            "Offline policy search over placement/ARQ knobs",
            train::run,
        ),
        (
            "replay",
            "Replay a trained policy artifact vs the incumbent",
            train::run_replay,
        ),
    ]
}
