use ahq_core::rng::Rng;

use crate::acquisition::expected_improvement;
use crate::gp::GaussianProcess;
use crate::kernel::RbfKernel;

/// CLITE-style Bayesian optimization over a discrete candidate set.
///
/// The loop alternates [`BayesOpt::suggest`] (pick the next configuration
/// to try) and [`BayesOpt::observe`] (report its measured objective). The
/// first `n_init` suggestions are random — the initial design — after
/// which a Gaussian process is fitted over all observations and the
/// candidate with the highest expected improvement is suggested.
/// Already-tried candidates are never suggested again while untried ones
/// remain.
///
/// The objective is **maximized**; callers encoding "satisfy LC QoS, then
/// maximize BE throughput" fold the constraint into the score exactly as
/// CLITE does (violations score poorly).
#[derive(Debug, Clone)]
pub struct BayesOpt {
    kernel: RbfKernel,
    n_init: usize,
    rng: Rng,
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
}

impl BayesOpt {
    /// Creates an optimizer with `n_init` random initial samples and a
    /// deterministic seed.
    pub fn new(kernel: RbfKernel, n_init: usize, seed: u64) -> Self {
        BayesOpt {
            kernel,
            n_init: n_init.max(1),
            rng: Rng::seed_from_u64(seed),
            xs: Vec::new(),
            ys: Vec::new(),
        }
    }

    /// Number of observations recorded so far.
    pub fn observations(&self) -> usize {
        self.ys.len()
    }

    /// The best `(x, y)` observed so far.
    pub fn best(&self) -> Option<(&[f64], f64)> {
        self.ys
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, &y)| (self.xs[i].as_slice(), y))
    }

    /// The candidate with the highest *mean* observed score, with the
    /// number of observations backing it. Repeatedly re-observing a
    /// configuration corrects the winner's-curse bias that `best` (a max)
    /// suffers under noisy objectives.
    pub fn best_by_mean(&self) -> Option<(Vec<f64>, f64, usize)> {
        let mut groups: Vec<(Vec<f64>, f64, usize)> = Vec::new();
        for (x, &y) in self.xs.iter().zip(self.ys.iter()) {
            match groups.iter_mut().find(|(gx, _, _)| gx == x) {
                Some((_, sum, n)) => {
                    *sum += y;
                    *n += 1;
                }
                None => groups.push((x.clone(), y, 1)),
            }
        }
        groups
            .into_iter()
            .map(|(x, sum, n)| (x, sum / n as f64, n))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Records an observation.
    pub fn observe(&mut self, x: Vec<f64>, y: f64) {
        if y.is_finite() {
            self.xs.push(x);
            self.ys.push(y);
        }
    }

    /// Suggests the next candidate to evaluate from `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn suggest<'a>(&mut self, candidates: &'a [Vec<f64>]) -> &'a [f64] {
        &candidates[self.suggest_index(candidates)]
    }

    /// [`BayesOpt::suggest`] by position: the index into `candidates` of
    /// the suggestion. With the GP fitted, each untried candidate's
    /// expected improvement is evaluated once, and the last maximum under
    /// `total_cmp` wins, as `Iterator::max_by` picks it.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn suggest_index(&mut self, candidates: &[Vec<f64>]) -> usize {
        assert!(!candidates.is_empty(), "candidate set must be non-empty");
        let untried: Vec<usize> = (0..candidates.len())
            .filter(|&i| !self.xs.contains(&candidates[i]))
            .collect();
        if untried.is_empty() {
            // Everything has been tried: re-suggest the incumbent best
            // candidate (exploitation).
            return self
                .best()
                .and_then(|(bx, _)| candidates.iter().position(|c| c.as_slice() == bx))
                .unwrap_or(0);
        }
        if self.ys.len() < self.n_init {
            return untried[self.rng.range_usize(0..untried.len())];
        }
        let Some(gp) = GaussianProcess::fit(self.kernel, self.xs.clone(), self.ys.clone()) else {
            return untried[self.rng.range_usize(0..untried.len())];
        };
        let best_y = self.best().map(|(_, y)| y).unwrap_or(0.0);
        let ei = |i: usize| {
            let (mean, var) = gp.predict(&candidates[i]);
            expected_improvement(mean, var, best_y)
        };
        let (mut pick, mut pick_ei) = (untried[0], ei(untried[0]));
        for &i in &untried[1..] {
            let e = ei(i);
            if e.total_cmp(&pick_ei).is_ge() {
                (pick, pick_ei) = (i, e);
            }
        }
        pick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> Vec<Vec<f64>> {
        (0..=20).map(|i| vec![i as f64 / 20.0]).collect()
    }

    #[test]
    fn finds_the_peak_of_a_smooth_function() {
        let f = |x: &[f64]| 1.0 - (x[0] - 0.65f64).powi(2) * 4.0;
        let mut opt = BayesOpt::new(RbfKernel::new(0.15, 1.0, 1e-6), 5, 42);
        for _ in 0..14 {
            let x = opt.suggest(&grid()).to_vec();
            let y = f(&x);
            opt.observe(x, y);
        }
        let (bx, _) = opt.best().unwrap();
        assert!(
            (bx[0] - 0.65).abs() <= 0.1,
            "best {bx:?} should be near the 0.65 peak"
        );
    }

    #[test]
    fn never_resuggests_tried_points_while_untried_remain() {
        let mut opt = BayesOpt::new(RbfKernel::new(0.2, 1.0, 1e-6), 3, 7);
        let candidates = grid();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..candidates.len() {
            let x = opt.suggest(&candidates).to_vec();
            assert!(
                seen.insert(format!("{x:?}")),
                "{x:?} suggested twice before exhaustion"
            );
            opt.observe(x, 0.5);
        }
    }

    #[test]
    fn exhausted_candidates_resuggest_best() {
        let candidates: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0]];
        let mut opt = BayesOpt::new(RbfKernel::new(0.2, 1.0, 1e-6), 1, 7);
        opt.observe(vec![0.0], 0.1);
        opt.observe(vec![1.0], 0.9);
        let s = opt.suggest(&candidates);
        assert_eq!(s, &[1.0][..]);
    }

    #[test]
    fn non_finite_observations_are_dropped() {
        let mut opt = BayesOpt::new(RbfKernel::new(0.2, 1.0, 1e-6), 1, 7);
        opt.observe(vec![0.5], f64::NAN);
        assert_eq!(opt.observations(), 0);
        assert!(opt.best().is_none());
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = |seed| {
            let mut opt = BayesOpt::new(RbfKernel::new(0.2, 1.0, 1e-6), 4, seed);
            let mut path = Vec::new();
            for _ in 0..8 {
                let x = opt.suggest(&grid()).to_vec();
                path.push(x[0]);
                opt.observe(x, 0.3);
            }
            path
        };
        assert_eq!(run(5), run(5));
    }

    /// The suggestion of the pre-index formulation: `max_by` over the
    /// untried candidates, predicting both sides of every comparison.
    fn suggest_by_max_by(opt: &BayesOpt, candidates: &[Vec<f64>]) -> Vec<f64> {
        let gp = GaussianProcess::fit(opt.kernel, opt.xs.clone(), opt.ys.clone()).unwrap();
        let best_y = opt.best().unwrap().1;
        candidates
            .iter()
            .filter(|c| !opt.xs.contains(c))
            .max_by(|a, b| {
                let (ma, va) = gp.predict(a);
                let (mb, vb) = gp.predict(b);
                expected_improvement(ma, va, best_y)
                    .total_cmp(&expected_improvement(mb, vb, best_y))
            })
            .unwrap()
            .clone()
    }

    #[test]
    fn suggest_index_picks_what_max_by_picks() {
        // Duplicated candidates tie exactly; `max_by` keeps the last one.
        let mut candidates = grid();
        candidates.extend(grid());
        let f = |x: &[f64]| (x[0] * 7.0).sin();
        let mut opt = BayesOpt::new(RbfKernel::new(0.15, 1.0, 1e-6), 3, 11);
        for _ in 0..10 {
            let i = opt.suggest_index(&candidates);
            if opt.observations() >= 3 {
                assert_eq!(candidates[i], suggest_by_max_by(&opt, &candidates));
                assert!(i >= grid().len(), "a tie goes to the last duplicate");
            }
            let x = candidates[i].clone();
            let y = f(&x);
            opt.observe(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_candidates_panic() {
        BayesOpt::new(RbfKernel::new(0.2, 1.0, 1e-6), 1, 1).suggest(&[]);
    }
}
