//! The offline search itself: a seeded generational genetic algorithm
//! over [`Genome`] vectors, with an optional Gaussian-process /
//! expected-improvement refinement pass around the GA winner. Every
//! random draw comes from one `ahq_core::rng::Rng` seeded by the caller, and every
//! evaluation goes through the caller's [`NodeBatchRunner`], so the
//! whole search is a pure function of `(TrainConfig, portfolio)` —
//! byte-identical however many workers the runner fans out over.
//!
//! # The evaluation ladder
//!
//! With [`TrainConfig::ladder`] set (the default), each generation is
//! first *ranked* on a cheap screening rung — every portfolio scenario
//! at a shortened horizon with the HI-FI/LO-FI fidelity ladder enabled
//! ([`Scenario::screened`]), scored over all windows
//! ([`evaluate_screen`]) — and only the top third (`PROMOTE_FRACTION`,
//! at least `MIN_PROMOTE` = 1) is promoted to full-fidelity evaluation.
//! Successive halving for a GA: most candidates are eliminated for a
//! fraction of the cost, and the full-fidelity budget concentrates on
//! plausible winners. The promotion rule is deterministic (screen
//! fitness with submission index as tie-break), the best-ever policy and
//! the reported baseline come from *full* evaluations only, and every
//! random draw count is independent of rung outcomes — so artifacts stay
//! byte-identical for any worker count, with or without a warm run
//! cache.

use std::collections::HashMap;

use ahq_bayesopt::{BayesOpt, RbfKernel};
use ahq_cluster::NodeBatchRunner;
use ahq_core::derive_seed;
use ahq_core::json::{FromJson, JsonError, JsonValue, ToJson};
use ahq_core::rng::Rng;

use crate::artifact::PolicyArtifact;
use crate::evaluate::{evaluate, evaluate_screen, Fitness};
use crate::genome::{Genome, GenomeBounds, GENES};
use crate::portfolio::Scenario;

/// Top individuals copied unchanged into the next generation.
const ELITES: usize = 2;

/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;

/// Probability a child mixes two parents (else clones the first).
const CROSSOVER_PROB: f64 = 0.9;

/// Per-gene mutation probability.
const MUTATION_PROB: f64 = 0.35;

/// Mutation step as a fraction of the gene's bound range.
const MUTATION_SIGMA: f64 = 0.2;

/// Fraction of each generation promoted from the screening rung to
/// full-fidelity evaluation (rounded up).
const PROMOTE_FRACTION: f64 = 1.0 / 3.0;

/// Promotion floor — at least this many candidates reach full fidelity
/// each generation, so the best-ever update never starves.
const MIN_PROMOTE: usize = 1;

/// Knobs of the search procedure (not of the policies it searches). The
/// GA's operators — elitism, tournament size, crossover and mutation
/// rates — are the module constants above.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// GP/EI refinement evaluations after the GA (0 disables).
    pub refine_iters: usize,
    /// Candidate neighborhood size the refinement scores EI over.
    pub refine_candidates: usize,
    /// Multi-fidelity evaluation ladder; `false` evaluates every
    /// candidate at full fidelity (the pre-ladder behavior).
    pub ladder: bool,
    /// Scenarios every candidate is evaluated on.
    pub portfolio: Vec<Scenario>,
}

/// How many of `population` candidates the ladder promotes to full
/// fidelity: `ceil(population × PROMOTE_FRACTION)`, at least
/// `MIN_PROMOTE` and at most the population.
fn promote_count(population: usize) -> usize {
    let by_fraction = (population as f64 * PROMOTE_FRACTION).ceil() as usize;
    by_fraction.clamp(MIN_PROMOTE, population)
}

impl TrainConfig {
    /// A search sized for the default portfolio: small population,
    /// mostly-local mutation around the incumbent, and a short EI
    /// refinement pass.
    pub fn new(seed: u64, portfolio: Vec<Scenario>) -> Self {
        TrainConfig {
            seed,
            population: 10,
            generations: 6,
            refine_iters: 6,
            refine_candidates: 24,
            ladder: true,
            portfolio,
        }
    }
}

/// One generation's summary, kept in the artifact so training curves
/// can be compared across seeds and search budgets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationStat {
    /// Generation index (0-based; the refinement pass appends one more).
    pub generation: usize,
    /// Best scalarized fitness seen up to and including this generation.
    pub best: f64,
    /// Mean scalarized fitness of this generation's population.
    pub mean: f64,
}

impl ToJson for GenerationStat {
    fn to_json(&self) -> JsonValue {
        JsonValue::object(vec![
            ("generation", self.generation.to_json()),
            ("best", self.best.to_json()),
            ("mean", self.mean.to_json()),
        ])
    }
}

impl FromJson for GenerationStat {
    fn from_json(value: &JsonValue) -> Result<Self, JsonError> {
        Ok(GenerationStat {
            generation: value.req("generation")?,
            best: value.req("best")?,
            mean: value.req("mean")?,
        })
    }
}

/// What [`train`] returns beyond the artifact: evaluation accounting
/// for cache-effectiveness and ladder-efficiency reporting.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The trained policy plus its provenance, ready to save.
    pub artifact: PolicyArtifact,
    /// Evaluations requested by the search (incl. memoized repeats).
    pub evaluations: usize,
    /// Distinct (rung, genome) pairs actually simulated.
    pub unique_genomes: usize,
    /// Distinct genomes simulated at full portfolio fidelity — the
    /// expensive count the evaluation ladder exists to shrink.
    pub full_evaluations: usize,
    /// Distinct genomes simulated on the screening rung only.
    pub screen_evaluations: usize,
}

/// Which rung of the evaluation ladder a memo entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Rung {
    /// Cheap ranking rung: shortened horizon, fidelity ladder on.
    Screen,
    /// The real objective: the full portfolio at full fidelity.
    Full,
}

/// Memoizes fitness per `(rung, genome)` (genomes keyed on exact gene
/// bit patterns) so elites and re-suggested candidates cost nothing the
/// second time. Screen and full scores never mix: the same genome is a
/// separate entry per rung.
struct Memo {
    cache: HashMap<(Rung, Vec<u64>), Fitness>,
    requested: usize,
    /// Unique full-fidelity evaluations in execution order — the
    /// deterministic seed set for the GP refinement pass.
    full_log: Vec<(Genome, Fitness)>,
}

impl Memo {
    fn new() -> Self {
        Memo {
            cache: HashMap::new(),
            requested: 0,
            full_log: Vec::new(),
        }
    }

    fn key(genome: &Genome) -> Vec<u64> {
        genome.to_vec().iter().map(|x| x.to_bits()).collect()
    }

    /// Full-fidelity fitness (memoized).
    fn fitness(
        &mut self,
        genome: &Genome,
        portfolio: &[Scenario],
        runner: &dyn NodeBatchRunner,
    ) -> Fitness {
        self.requested += 1;
        let key = (Rung::Full, Self::key(genome));
        if let Some(&hit) = self.cache.get(&key) {
            return hit;
        }
        let fit = evaluate(genome, portfolio, runner);
        self.cache.insert(key, fit);
        self.full_log.push((genome.clone(), fit));
        fit
    }

    /// Screening-rung fitness (memoized separately from full).
    fn screen_fitness(
        &mut self,
        genome: &Genome,
        screen_portfolio: &[Scenario],
        runner: &dyn NodeBatchRunner,
    ) -> Fitness {
        self.requested += 1;
        let key = (Rung::Screen, Self::key(genome));
        if let Some(&hit) = self.cache.get(&key) {
            return hit;
        }
        let fit = evaluate_screen(genome, screen_portfolio, runner);
        self.cache.insert(key, fit);
        fit
    }

    fn screen_count(&self) -> usize {
        self.cache
            .keys()
            .filter(|(r, _)| *r == Rung::Screen)
            .count()
    }
}

fn tournament_pick<'a>(rng: &mut Rng, scored: &'a [(Genome, Fitness)]) -> &'a Genome {
    let mut best = rng.range_usize(0..scored.len());
    for _ in 1..TOURNAMENT {
        let challenger = rng.range_usize(0..scored.len());
        if scored[challenger].1.cmp_key(&scored[best].1).is_lt() {
            best = challenger;
        }
    }
    &scored[best].0
}

/// Tournament over an already-ranked list (index 0 is best): the lowest
/// drawn index wins. Used on the ladder path, where entries mix full
/// and screen fitness values — ranks compare cleanly across rungs where
/// raw scalars would not. Draws exactly as many RNG values as
/// [`tournament_pick`], so the evaluation mode never shifts the
/// downstream random stream structure.
fn tournament_pick_ranked<'a>(rng: &mut Rng, ranked: &'a [(Genome, Fitness)]) -> &'a Genome {
    let mut best = rng.range_usize(0..ranked.len());
    for _ in 1..TOURNAMENT {
        let challenger = rng.range_usize(0..ranked.len());
        if challenger < best {
            best = challenger;
        }
    }
    &ranked[best].0
}

fn crossover(rng: &mut Rng, a: &Genome, b: &Genome) -> Vec<f64> {
    let (va, vb) = (a.to_vec(), b.to_vec());
    (0..GENES)
        .map(|i| if rng.bool() { va[i] } else { vb[i] })
        .collect()
}

fn mutate(rng: &mut Rng, genes: &mut [f64], bounds: &GenomeBounds, prob: f64, sigma: f64) {
    for (i, gene) in genes.iter_mut().enumerate() {
        if rng.f64() < prob {
            let step = (rng.f64() * 2.0 - 1.0) * sigma * bounds.range(i);
            *gene += step;
        }
    }
}

/// A uniform sample of the search box.
fn random_genome(rng: &mut Rng, bounds: &GenomeBounds) -> Genome {
    let genes: Vec<f64> = (0..GENES)
        .map(|i| bounds.lo[i] + rng.f64() * bounds.range(i))
        .collect();
    Genome::from_vec(&genes, bounds)
}

/// Normalize a genome into the unit cube the GP kernel sees.
fn normalize(genome: &Genome, bounds: &GenomeBounds) -> Vec<f64> {
    genome
        .to_vec()
        .iter()
        .enumerate()
        .map(|(i, &x)| (x - bounds.lo[i]) / bounds.range(i).max(f64::MIN_POSITIVE))
        .collect()
}

/// Run the offline search. Returns the best genome ever evaluated, its
/// fitness, the incumbent baseline fitness on the same portfolio, and
/// the per-generation training curve, packaged as a [`PolicyArtifact`].
pub fn train(config: &TrainConfig, runner: &dyn NodeBatchRunner) -> TrainOutcome {
    assert!(config.population >= 2, "population must be at least 2");
    assert!(config.generations >= 1, "need at least one generation");
    assert!(
        !config.portfolio.is_empty(),
        "training portfolio must not be empty"
    );
    let bounds = GenomeBounds::default();
    let mut rng = Rng::seed_from_u64(derive_seed(config.seed, 0x54_52_41_49_4e)); // "TRAIN"
    let mut memo = Memo::new();

    // The incumbent is both the baseline we report against and the
    // anchor of the initial population: half the seeds are local
    // perturbations of it, the rest uniform samples of the box.
    let incumbent = Genome::default();
    let baseline = memo.fitness(&incumbent, &config.portfolio, runner);

    let mut population = vec![incumbent.clone()];
    while population.len() < config.population {
        let genome = if population.len() <= config.population / 2 {
            let mut genes = incumbent.to_vec();
            mutate(&mut rng, &mut genes, &bounds, 0.8, MUTATION_SIGMA);
            Genome::from_vec(&genes, &bounds)
        } else {
            random_genome(&mut rng, &bounds)
        };
        population.push(genome);
    }

    let mut best: (Genome, Fitness) = (incumbent.clone(), baseline);
    let mut history = Vec::new();

    // The screening rung of every scenario, precomputed once; `None`
    // means every candidate pays full fidelity (the pre-ladder path).
    let screen_portfolio: Option<Vec<Scenario>> = config
        .ladder
        .then(|| config.portfolio.iter().map(Scenario::screened).collect());

    for generation in 0..config.generations {
        // `scored` is ranked best-first. On the ladder path the top
        // `promote` entries carry full-fidelity fitness and the tail
        // carries screen fitness; on the full path everything is full.
        let scored: Vec<(Genome, Fitness)> = match &screen_portfolio {
            Some(screen) => {
                // Rung 1: rank the whole generation cheaply. Submission
                // index breaks exact-score ties, so promotion is a pure
                // function of the (deterministic) screen scores.
                let mut by_screen: Vec<(usize, Fitness)> = population
                    .iter()
                    .enumerate()
                    .map(|(i, g)| (i, memo.screen_fitness(g, screen, runner)))
                    .collect();
                by_screen.sort_by(|a, b| a.1.cmp_key(&b.1).then(a.0.cmp(&b.0)));
                // Rung 2: promote the top fraction to the real objective.
                let promote = promote_count(config.population);
                let mut promoted: Vec<(Genome, Fitness)> = by_screen
                    .iter()
                    .take(promote)
                    .map(|&(i, _)| {
                        let genome = population[i].clone();
                        let fit = memo.fitness(&genome, &config.portfolio, runner);
                        (genome, fit)
                    })
                    .collect();
                promoted.sort_by(|a, b| a.1.cmp_key(&b.1));
                promoted.extend(
                    by_screen
                        .iter()
                        .skip(promote)
                        .map(|&(i, f)| (population[i].clone(), f)),
                );
                promoted
            }
            None => {
                let mut scored: Vec<(Genome, Fitness)> = population
                    .iter()
                    .map(|g| (g.clone(), memo.fitness(g, &config.portfolio, runner)))
                    .collect();
                scored.sort_by(|a, b| a.1.cmp_key(&b.1));
                scored
            }
        };
        // `scored[0]` holds full-fidelity fitness on both paths, so the
        // best-ever policy is only ever claimed from full evaluations.
        if scored[0].1.cmp_key(&best.1).is_lt() {
            best = scored[0].clone();
        }
        let mean = scored.iter().map(|(_, f)| f.scalar()).sum::<f64>() / scored.len() as f64;
        history.push(GenerationStat {
            generation,
            best: best.1.scalar(),
            mean,
        });
        if generation + 1 == config.generations {
            break;
        }
        let mut next: Vec<Genome> = scored
            .iter()
            .take(ELITES.min(scored.len()))
            .map(|(g, _)| g.clone())
            .collect();
        while next.len() < config.population {
            let (a, b) = if config.ladder {
                // Mixed-rung list: select by rank, not by raw scalar.
                let a = tournament_pick_ranked(&mut rng, &scored).clone();
                let b = tournament_pick_ranked(&mut rng, &scored).clone();
                (a, b)
            } else {
                let a = tournament_pick(&mut rng, &scored).clone();
                let b = tournament_pick(&mut rng, &scored).clone();
                (a, b)
            };
            let mut genes = if rng.f64() < CROSSOVER_PROB {
                crossover(&mut rng, &a, &b)
            } else {
                a.to_vec()
            };
            mutate(&mut rng, &mut genes, &bounds, MUTATION_PROB, MUTATION_SIGMA);
            next.push(Genome::from_vec(&genes, &bounds));
        }
        population = next;
    }

    // GP/EI refinement: model the scalar fitness over the unit cube
    // from everything the GA already evaluated, then spend a few more
    // evaluations where expected improvement is highest among a local
    // neighborhood of the GA winner. BayesOpt maximizes, so it sees
    // the negated scalar.
    let refined = config.refine_iters > 0 && config.refine_candidates > 0;
    if refined {
        let mut opt = BayesOpt::new(
            RbfKernel::new(0.25, 1.0, 1e-4),
            1,
            derive_seed(config.seed, 0x5245_4649), // "REFI"
        );
        // HashMap iteration order is unspecified; seed the GP from the
        // memo's full-fidelity evaluation log instead — every unique
        // full evaluation in execution order. Deterministic, and on the
        // ladder path it costs nothing extra: screen-only genomes are
        // *not* promoted just to feed the surrogate model.
        for (genome, fit) in memo.full_log.clone() {
            opt.observe(normalize(&genome, &bounds), -fit.scalar());
        }
        let mut candidates: Vec<Vec<f64>> = Vec::new();
        let mut candidate_genomes: Vec<Genome> = Vec::new();
        for _ in 0..config.refine_candidates {
            let mut genes = best.0.to_vec();
            mutate(&mut rng, &mut genes, &bounds, 0.6, MUTATION_SIGMA * 0.5);
            let genome = Genome::from_vec(&genes, &bounds);
            candidates.push(normalize(&genome, &bounds));
            candidate_genomes.push(genome);
        }
        for _ in 0..config.refine_iters {
            let pick = opt.suggest(&candidates).to_vec();
            let idx = candidates
                .iter()
                .position(|c| c == &pick)
                .expect("suggestion comes from the candidate set");
            let genome = candidate_genomes[idx].clone();
            let fit = memo.fitness(&genome, &config.portfolio, runner);
            opt.observe(pick, -fit.scalar());
            if fit.cmp_key(&best.1).is_lt() {
                best = (genome, fit);
            }
        }
        history.push(GenerationStat {
            generation: config.generations,
            best: best.1.scalar(),
            mean: best.1.scalar(),
        });
    }

    let artifact = PolicyArtifact {
        version: PolicyArtifact::FORMAT_VERSION,
        seed: config.seed,
        population: config.population,
        generations: config.generations,
        refined,
        ladder: config.ladder,
        portfolio: config.portfolio.iter().map(|s| s.name.clone()).collect(),
        genome: best.0,
        fitness: best.1,
        baseline,
        history,
    };
    let screen_evaluations = memo.screen_count();
    TrainOutcome {
        artifact,
        evaluations: memo.requested,
        unique_genomes: memo.cache.len(),
        full_evaluations: memo.full_log.len(),
        screen_evaluations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::churned;
    use ahq_cluster::SequentialRunner;

    fn tiny_config(seed: u64) -> TrainConfig {
        let mut config = TrainConfig::new(seed, vec![churned(6, 3, 2, 5)]);
        config.population = 4;
        config.generations = 2;
        config.refine_iters = 2;
        config.refine_candidates = 4;
        config
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let a = train(&tiny_config(9), &SequentialRunner::new());
        let b = train(&tiny_config(9), &SequentialRunner::new());
        assert_eq!(a.artifact.genome, b.artifact.genome);
        assert_eq!(a.artifact.history, b.artifact.history);
        assert_eq!(a.evaluations, b.evaluations);
        let c = train(&tiny_config(10), &SequentialRunner::new());
        // A different seed explores a different population; the search
        // trace must reflect it.
        assert_ne!(a.artifact.history, c.artifact.history);
    }

    #[test]
    fn best_never_loses_to_the_baseline() {
        let out = train(&tiny_config(3), &SequentialRunner::new());
        assert!(out.artifact.fitness.scalar() <= out.artifact.baseline.scalar());
        assert!(out.unique_genomes <= out.evaluations);
        // History is monotone in the best column.
        for pair in out.artifact.history.windows(2) {
            assert!(pair[1].best <= pair[0].best);
        }
    }

    #[test]
    fn ladder_cuts_full_evaluations_and_keeps_the_invariants() {
        let mut full_cfg = tiny_config(5);
        full_cfg.ladder = false;
        let ladder_cfg = tiny_config(5); // TrainConfig::new defaults the ladder on
        assert!(ladder_cfg.ladder);
        let runner = SequentialRunner::new();
        let full = train(&full_cfg, &runner);
        let lad = train(&ladder_cfg, &runner);
        assert_eq!(full.screen_evaluations, 0);
        assert!(lad.screen_evaluations > 0);
        assert!(
            lad.full_evaluations < full.full_evaluations,
            "the ladder must shrink the full-fidelity evaluation count \
             ({} vs {})",
            lad.full_evaluations,
            full.full_evaluations,
        );
        // The expensive invariants survive the cheap rung: the winner is
        // claimed from full evaluations only and never loses to the
        // (full-fidelity) baseline.
        assert!(lad.artifact.fitness.scalar() <= lad.artifact.baseline.scalar());
        assert!(lad.artifact.ladder && !full.artifact.ladder);
        // Determinism holds on the ladder path too.
        let again = train(&ladder_cfg, &runner);
        assert_eq!(lad.artifact.genome, again.artifact.genome);
        assert_eq!(lad.full_evaluations, again.full_evaluations);
    }

    #[test]
    fn promote_count_is_clamped_and_floored() {
        assert_eq!(promote_count(6), 2); // ceil(6/3)
        assert_eq!(promote_count(10), 4); // ceil(10/3)
        assert_eq!(promote_count(2), 1, "floor of one full eval");
        assert_eq!(promote_count(1), 1, "clamped to the population");
    }

    #[test]
    fn memo_dedupes_repeat_evaluations() {
        let mut memo = Memo::new();
        let runner = SequentialRunner::new();
        let portfolio = vec![churned(4, 2, 2, 7)];
        let g = Genome::default();
        let a = memo.fitness(&g, &portfolio, &runner);
        let b = memo.fitness(&g, &portfolio, &runner);
        assert_eq!(a, b);
        assert_eq!(memo.requested, 2);
        assert_eq!(memo.cache.len(), 1);
    }
}
