//! The `train` / `replay` experiment families: offline policy search
//! over placement weights and ARQ thresholds (`ahq-train`), and the
//! replay of an emitted policy artifact against the static incumbent
//! on churned fleets the search never saw.
//!
//! `repro train` runs the seeded GA (plus GP/EI refinement) over the
//! default scenario portfolio, reports the training curve and the
//! learned genome, and with `--train-out FILE` saves the winner as a
//! [`PolicyArtifact`]. `repro replay` loads `--artifact FILE` (or, with
//! no artifact, trains in-process) and compares it against hand-tuned
//! `entropy-aware` + default ARQ at 64/256 churned nodes.
//!
//! Both families evaluate through the invocation-wide engine: node jobs
//! shared between candidate genomes (and with the `cluster`/`gctrl`
//! families) hit the memoized run cache, and `--jobs N` never changes a
//! byte of output. Neither family is part of `repro all` — they ride
//! [`crate::extra_experiments`] like `gctrl`.

use std::path::PathBuf;

use ahq_cluster::{ClusterEntropyReport, ClusterSim, LocalSched, PlacerKind};
use ahq_train::{
    portfolio::default_portfolio, Genome, PolicyArtifact, TrainConfig, TrainOutcome, GENE_NAMES,
};

use crate::cluster::{scenario, EngineRunner};
use crate::exec::ExpContext;
use crate::report::{f3, ExperimentReport, Metric, TextTable};

/// Command-line overrides for the train/replay families — the
/// `repro train --pop N --gens N --train-out FILE --artifact FILE`
/// surface.
#[derive(Debug, Clone, Default)]
pub struct TrainOpts {
    /// GA population-size override.
    pub population: Option<usize>,
    /// GA generation-count override.
    pub generations: Option<usize>,
    /// Where `train` saves the policy artifact (`--train-out`).
    pub out: Option<PathBuf>,
    /// The artifact `replay` loads (`--artifact`); falls back to
    /// `--train-out`, then to training in-process.
    pub artifact: Option<PathBuf>,
    /// `--eval full|ladder`: force every genome through full-fidelity
    /// evaluation (`Some(false)`) or through the successive-halving
    /// screening ladder (`Some(true)`). `None` keeps the trainer's
    /// default (the ladder).
    pub ladder: Option<bool>,
}

/// The search configuration for this invocation: the default portfolio
/// under the invocation seed, budget shrunk in `--quick` mode, with
/// `--pop` / `--gens` overrides applied on top.
pub fn train_config(cfg: &ExpContext) -> TrainConfig {
    let mut config = TrainConfig::new(cfg.cfg.seed, default_portfolio(cfg.cfg.seed, cfg.cfg.quick));
    if cfg.cfg.quick {
        config.population = 6;
        config.generations = 3;
        config.refine_iters = 3;
        config.refine_candidates = 8;
    }
    if let Some(population) = cfg.train.population {
        config.population = population.max(2);
    }
    if let Some(generations) = cfg.train.generations {
        config.generations = generations.max(1);
    }
    if let Some(ladder) = cfg.train.ladder {
        config.ladder = ladder;
    }
    config
}

/// Runs the offline search through the invocation engine.
pub fn run_search(cfg: &ExpContext) -> TrainOutcome {
    ahq_train::train(&train_config(cfg), &EngineRunner::new(cfg.engine()))
}

/// Regenerates the offline-search report (and saves the artifact when
/// `--train-out` is set).
pub fn run(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "train",
        "Offline policy search: GA + GP/EI over placement and ARQ knobs",
    );
    let before = cfg.engine().stats();
    let outcome = run_search(cfg);
    let after = cfg.engine().stats();
    let artifact = &outcome.artifact;

    let mut curve = TextTable::new(
        "Training curve: scalarized fitness by generation (lower is better)",
        &["generation", "best", "mean"],
    );
    for stat in &artifact.history {
        curve.push_row(vec![
            stat.generation.to_string(),
            f3(stat.best),
            f3(stat.mean),
        ]);
    }
    report.tables.push(curve);

    let mut genes = TextTable::new(
        "Learned genome vs the hand-tuned incumbent",
        &["gene", "incumbent", "learned"],
    );
    let incumbent = Genome::default().to_vec();
    let learned = artifact.genome.to_vec();
    for (i, name) in GENE_NAMES.iter().enumerate() {
        genes.push_row(vec![name.to_string(), f3(incumbent[i]), f3(learned[i])]);
    }
    report.tables.push(genes);

    report.note(format!(
        "portfolio [{}], population {}, generations {}{}",
        artifact.portfolio.join(", "),
        artifact.population,
        artifact.generations,
        if artifact.refined {
            " + GP/EI refinement"
        } else {
            ""
        },
    ));
    report.note(format!(
        "trained fitness: mean E_S {} p95 {} viol/win {} migr/round {} (scalar {})",
        f3(artifact.fitness.mean_es),
        f3(artifact.fitness.p95_es),
        f3(artifact.fitness.violations),
        f3(artifact.fitness.migration_cost),
        f3(artifact.fitness.scalar()),
    ));
    report.note(format!(
        "baseline fitness: mean E_S {} p95 {} viol/win {} migr/round {} (scalar {})",
        f3(artifact.baseline.mean_es),
        f3(artifact.baseline.p95_es),
        f3(artifact.baseline.violations),
        f3(artifact.baseline.migration_cost),
        f3(artifact.baseline.scalar()),
    ));
    let hits = after.hits - before.hits;
    let misses = after.misses - before.misses;
    let hit_rate = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    report.note(format!(
        "{} genome evaluations ({} unique); engine run cache over the search: \
         {hits} hits / {misses} misses ({:.1} % hit rate — shared node jobs \
         across candidates are free)",
        outcome.evaluations,
        outcome.unique_genomes,
        hit_rate * 100.0,
    ));
    report.metrics.push(Metric {
        name: "train_cache_hit_rate".into(),
        value: hit_rate,
    });
    report.metrics.push(Metric {
        name: "train_unique_genomes".into(),
        value: outcome.unique_genomes as f64,
    });
    if artifact.ladder {
        report.note(format!(
            "evaluation ladder: {} full-fidelity evaluations + {} cheap \
             screening evaluations (full fidelity reserved for promoted \
             candidates)",
            outcome.full_evaluations, outcome.screen_evaluations,
        ));
    }
    report.metrics.push(Metric {
        name: "train_full_evaluations".into(),
        value: outcome.full_evaluations as f64,
    });
    report.metrics.push(Metric {
        name: "train_screen_evaluations".into(),
        value: outcome.screen_evaluations as f64,
    });

    if let Some(path) = &cfg.train.out {
        match artifact.save(path) {
            Ok(()) => report.note(format!("policy artifact saved to {}", path.display())),
            Err(e) => report.note(format!("FAILED to save policy artifact: {e}")),
        }
    }
    report
}

/// The genome `replay` compares against the incumbent: the `--artifact`
/// file if given (`--train-out` as fallback), else a fresh in-process
/// search. Returns the genome and a provenance note.
fn replay_genome(cfg: &ExpContext) -> Result<(Genome, String), String> {
    if let Some(path) = cfg.train.artifact.as_ref().or(cfg.train.out.as_ref()) {
        let artifact = PolicyArtifact::load(path)
            .map_err(|e| format!("cannot load {}: {e}", path.display()))?;
        Ok((
            artifact.genome,
            format!(
                "policy loaded from {} (seed {}, portfolio [{}])",
                path.display(),
                artifact.seed,
                artifact.portfolio.join(", "),
            ),
        ))
    } else {
        let outcome = run_search(cfg);
        Ok((
            outcome.artifact.genome,
            "no --artifact given; policy trained in-process".to_string(),
        ))
    }
}

/// Fleet sizes for the replay: the churned 64- and 256-node scenarios
/// (64 only under `--quick`), or the single `--nodes N` override.
fn node_counts(cfg: &ExpContext) -> Vec<usize> {
    if let Some(nodes) = cfg.cluster.nodes {
        return vec![nodes];
    }
    if cfg.cfg.quick {
        vec![64]
    } else {
        vec![64, 256]
    }
}

/// Runs one replay arm: the standard churned scenario with either the
/// incumbent policy (`genome == None`) or the trained one swapped in.
pub fn run_replay_arm(
    cfg: &ExpContext,
    nodes: usize,
    genome: Option<&Genome>,
) -> ClusterEntropyReport {
    let mut config = scenario(&cfg.cfg, nodes, PlacerKind::EntropyAware, LocalSched::Arq);
    config.fidelity = cfg.cluster.fidelity;
    if let Some(rounds) = cfg.cluster.rounds {
        config.rounds = rounds;
    }
    if let Some(genome) = genome {
        config.arq = Some(genome.arq_config());
    }
    let mut sim = ClusterSim::new(config);
    if let Some(genome) = genome {
        sim.set_placer(Box::new(genome.placer()));
    }
    sim.run(&EngineRunner::new(cfg.engine()))
}

/// Regenerates the artifact-replay comparison.
pub fn run_replay(cfg: &ExpContext) -> ExperimentReport {
    let mut report = ExperimentReport::new(
        "replay",
        "Policy replay: trained artifact vs static entropy-aware + default ARQ",
    );
    let (genome, provenance) = match replay_genome(cfg) {
        Ok(pair) => pair,
        Err(e) => {
            report.note(format!("REPLAY SKIPPED: {e}"));
            return report;
        }
    };
    report.note(provenance);

    let mut table = TextTable::new(
        "Replay on churned fleets: steady-state cluster E_S by policy",
        &[
            "nodes",
            "arm",
            "mean E_S",
            "steady E_S",
            "steady p95",
            "viol",
            "migr",
        ],
    );
    for nodes in node_counts(cfg) {
        let arms: [(&str, Option<&Genome>); 2] = [("hand-tuned", None), ("trained", Some(&genome))];
        let mut steady: Vec<(f64, f64)> = Vec::new();
        for (name, arm_genome) in arms {
            let result = run_replay_arm(cfg, nodes, arm_genome);
            let n = (result.rounds * result.windows_per_round) / 2;
            table.push_row(vec![
                nodes.to_string(),
                name.into(),
                f3(result.mean_entropy()),
                f3(result.steady_mean_entropy(n)),
                f3(result.steady_p95_entropy(n)),
                result.violations.to_string(),
                result.migrations.to_string(),
            ]);
            steady.push((result.steady_mean_entropy(n), result.steady_p95_entropy(n)));
        }
        let (base, base95) = steady[0];
        let (trained, trained95) = steady[1];
        report.note(format!(
            "{nodes} nodes: trained steady E_S {trained:.3} (p95 {trained95:.3}) \
             vs hand-tuned {base:.3} (p95 {base95:.3}){}",
            if trained <= base { "" } else { " [WORSE]" },
        ));
    }
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runs::ExpConfig;

    fn quick_cfg() -> ExpContext {
        ExpContext::new(ExpConfig {
            quick: true,
            seed: 42,
        })
    }

    fn tiny_train(cfg: &mut ExpContext) {
        cfg.train.population = Some(4);
        cfg.train.generations = Some(2);
    }

    #[test]
    fn quick_train_report_has_curve_genome_and_cache_note() {
        let mut cfg = quick_cfg();
        tiny_train(&mut cfg);
        let report = run(&cfg);
        assert_eq!(report.tables.len(), 2);
        assert_eq!(report.tables[1].rows.len(), GENE_NAMES.len());
        assert!(report
            .metrics
            .iter()
            .any(|m| m.name == "train_cache_hit_rate"));
        assert!(report.notes.iter().any(|n| n.contains("baseline fitness")));
    }

    #[test]
    fn replay_without_artifact_trains_in_process() {
        let mut cfg = quick_cfg();
        tiny_train(&mut cfg);
        cfg.cluster.nodes = Some(8);
        cfg.cluster.rounds = Some(3);
        let report = run_replay(&cfg);
        assert_eq!(report.tables.len(), 1);
        assert_eq!(report.tables[0].rows.len(), 2, "two arms at one size");
        assert!(report.notes.iter().any(|n| n.contains("in-process")));
    }

    #[test]
    fn replay_with_missing_artifact_reports_the_error() {
        let mut cfg = quick_cfg();
        cfg.train.artifact = Some(PathBuf::from("/nonexistent/policy.json"));
        let report = run_replay(&cfg);
        assert!(report.tables.is_empty());
        assert!(report.notes.iter().any(|n| n.contains("REPLAY SKIPPED")));
    }

    #[test]
    fn eval_mode_override_controls_the_ladder() {
        let mut cfg = quick_cfg();
        assert!(train_config(&cfg).ladder, "ladder is the default");
        cfg.train.ladder = Some(false);
        assert!(!train_config(&cfg).ladder, "--eval full");
        cfg.train.ladder = Some(true);
        assert!(train_config(&cfg).ladder, "--eval ladder");
    }

    #[test]
    fn overrides_shape_the_search_budget() {
        let mut cfg = quick_cfg();
        cfg.train.population = Some(7);
        cfg.train.generations = Some(2);
        let config = train_config(&cfg);
        assert_eq!(config.population, 7);
        assert_eq!(config.generations, 2);
        assert_eq!(config.portfolio.len(), 2, "quick portfolio");
    }
}
