//! Cross-crate integration tests for the offline policy search: the
//! `train` / `replay` experiment families (`ahq-train` driven through
//! the deterministic run engine).

use ahq_cluster::SequentialRunner;
use ahq_core::stable_hash128;
use ahq_experiments::train::{run_replay_arm, run_search};
use ahq_experiments::{ExpConfig, ExpContext};
use ahq_train::{portfolio, train, Genome, GenomeBounds, PolicyArtifact, TrainConfig};

fn train_ctx(jobs: usize) -> ExpContext {
    let mut cfg = ExpContext::with_jobs(
        ExpConfig {
            quick: true,
            seed: 42,
        },
        jobs,
    );
    cfg.train.population = Some(6);
    cfg.train.generations = Some(3);
    cfg
}

#[test]
fn genome_round_trips_through_core_json() {
    let bounds = GenomeBounds::default();
    let mut genome = Genome::from_vec(
        &[
            1.68, 0.0, 1.212, 1.541, 0.407, 2.0, 0.085, 0.045, 0.035, 74.115, 1.0,
        ],
        &bounds,
    );
    genome.weights.es = 1.2345678901234567; // exercise shortest-round-trip floats
    let text = ahq_core::json::to_string(&genome);
    let back: Genome = ahq_core::json::from_str(&text).expect("genome deserializable");
    assert_eq!(back, genome);
    assert_eq!(back.to_vec(), genome.to_vec());
}

/// Pins a tiny search (4 genomes x 2 generations, ladder and GP/EI
/// refinement on) to the digest of its emitted artifact, so any change
/// to the GA's selection, crossover, mutation or promotion shows.
#[test]
fn tiny_search_artifact_matches_its_pinned_digest() {
    let mut config = TrainConfig::new(7, vec![portfolio::churned(6, 3, 2, 5)]);
    config.population = 4;
    config.generations = 2;
    let out = train(&config, &SequentialRunner::new());
    let got = stable_hash128(out.artifact.to_json_string().as_bytes());
    assert_eq!(got, 0x72eade48850c9d281fa64631457a0a15);
}

#[test]
fn training_output_identical_across_jobs() {
    let a = run_search(&train_ctx(1));
    let b = run_search(&train_ctx(8));
    assert_eq!(
        a.artifact.to_json_string(),
        b.artifact.to_json_string(),
        "the policy artifact must be byte-identical for any worker count"
    );
    assert_eq!(a.artifact.history, b.artifact.history);
    assert_eq!(a.evaluations, b.evaluations);
    assert_eq!(a.unique_genomes, b.unique_genomes);
}

#[test]
fn search_reports_cache_uplift_and_beats_its_baseline() {
    let cfg = train_ctx(4);
    let outcome = run_search(&cfg);
    // The GA re-visits elites and near-duplicate node jobs; both layers
    // of memoization must show hits.
    assert!(
        outcome.evaluations > outcome.unique_genomes,
        "genome-level memo never hit"
    );
    let stats = cfg.engine().stats();
    assert!(
        stats.hits > 0,
        "engine run cache saw no shared node jobs across candidates"
    );
    assert!(
        outcome.artifact.fitness.scalar() <= outcome.artifact.baseline.scalar(),
        "search returned something worse than the incumbent it started from"
    );
}

#[test]
fn emitted_artifact_reloads_and_beats_static_placement_at_256_nodes() {
    // Train (quick budget), emit the artifact, reload it through
    // ahq_core::json, and replay on a fleet size the search never saw.
    let cfg = train_ctx(8);
    let outcome = run_search(&cfg);

    let dir = std::env::temp_dir().join("ahq-train-integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("policy.json");
    outcome.artifact.save(&path).unwrap();
    let reloaded = PolicyArtifact::load(&path).unwrap();
    assert_eq!(reloaded, outcome.artifact);
    std::fs::remove_dir_all(&dir).ok();

    let nodes = 256;
    let hand_tuned = run_replay_arm(&cfg, nodes, None);
    let trained = run_replay_arm(&cfg, nodes, Some(&reloaded.genome));
    let n = (hand_tuned.rounds * hand_tuned.windows_per_round) / 2;
    let base = hand_tuned.steady_mean_entropy(n);
    let tuned = trained.steady_mean_entropy(n);
    assert!(
        tuned <= base,
        "trained policy must beat hand-tuned EntropyAware on steady-state \
         mean E_S at {nodes} churned nodes: trained {tuned:.4} vs static {base:.4}"
    );
}
