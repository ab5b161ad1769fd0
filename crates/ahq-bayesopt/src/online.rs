//! Online coefficient tuning across control epochs.
//!
//! CLITE runs its GP + expected-improvement loop per node over resource
//! partitions. The cluster controller (`ahq-ctrl`) reuses the same
//! machinery one layer up: the thing being optimized is a small vector of
//! scoring coefficients (1–4 dimensions, e.g. the `EntropyAware`
//! placement weights) and one "evaluation" is a whole control epoch of
//! the live system. [`OnlineTuner`] wraps [`BayesOpt`] for that setting:
//! it always has a *current* weight vector in force, alternates
//! exploration (EI suggestion) with exploitation (incumbent-by-mean) so
//! the online regret of trying bad weights stays bounded, and corrects
//! noisy objectives by re-observing the incumbent.

use crate::kernel::RbfKernel;
use crate::optimizer::BayesOpt;

/// One tunable coefficient: a name and the discrete values it may take.
#[derive(Debug, Clone)]
pub struct WeightAxis {
    /// Coefficient name (used in reports).
    pub name: &'static str,
    /// Candidate values, in ascending order.
    pub values: Vec<f64>,
}

impl WeightAxis {
    /// A named axis over the given candidate values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn new(name: &'static str, values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "axis {name} needs at least one value");
        WeightAxis { name, values }
    }
}

/// A 1–4 dimensional discrete weight space: the cartesian product of its
/// axes is the candidate set handed to the GP.
#[derive(Debug, Clone)]
pub struct WeightGrid {
    axes: Vec<WeightAxis>,
}

impl WeightGrid {
    /// Builds a grid from 1 to 4 axes.
    ///
    /// # Panics
    ///
    /// Panics when given zero or more than four axes — a GP over an exact
    /// cartesian product stops being a sensible online optimizer beyond a
    /// handful of dimensions.
    pub fn new(axes: Vec<WeightAxis>) -> Self {
        assert!(
            (1..=4).contains(&axes.len()),
            "WeightGrid supports 1-4 axes, got {}",
            axes.len()
        );
        WeightGrid { axes }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.axes.len()
    }

    /// The axes, in declaration order.
    pub fn axes(&self) -> &[WeightAxis] {
        &self.axes
    }

    /// The full cartesian product of the axes' values.
    pub fn candidates(&self) -> Vec<Vec<f64>> {
        let mut out: Vec<Vec<f64>> = vec![Vec::new()];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(out.len() * axis.values.len());
            for prefix in &out {
                for &v in &axis.values {
                    let mut c = prefix.clone();
                    c.push(v);
                    next.push(c);
                }
            }
            out = next;
        }
        out
    }

    /// A kernel length scale proportional to the mean axis span, so the GP
    /// generalizes across neighbouring weight values without the caller
    /// hand-tuning hyperparameters per grid.
    fn length_scale(&self) -> f64 {
        let span: f64 = self
            .axes
            .iter()
            .map(|a| {
                let lo = a.values.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = a.values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                hi - lo
            })
            .sum::<f64>()
            / self.axes.len() as f64;
        (0.4 * span).max(1e-3)
    }
}

/// An exploration epoch runs every this many epochs: 2 alternates explore
/// and exploit.
const EXPLORE_EVERY: usize = 2;

/// Epoch-by-epoch weight optimization: keep a current vector in force,
/// observe one objective value per epoch, and move to the next vector.
///
/// The schedule alternates *exploration* (the GP's expected-improvement
/// suggestion) with *exploitation* (the incumbent with the best mean
/// observed objective): an online controller pays for every bad epoch it
/// runs, so pure exploration is too expensive, while pure exploitation
/// never learns. Exploitation epochs double as re-observations of the
/// incumbent, which is what makes [`BayesOpt::best_by_mean`] robust to
/// objective noise.
#[derive(Debug, Clone)]
pub struct OnlineTuner {
    opt: BayesOpt,
    candidates: Vec<Vec<f64>>,
    current: Vec<f64>,
    epoch: usize,
}

impl OnlineTuner {
    /// Creates a tuner over `grid`, starting from `start` (typically the
    /// hand-tuned defaults; it is added to the candidate set if missing so
    /// the baseline is always part of the comparison), with a
    /// deterministic seed.
    pub fn new(grid: &WeightGrid, start: Vec<f64>, seed: u64) -> Self {
        assert_eq!(
            start.len(),
            grid.dims(),
            "start vector must match the grid dimensionality"
        );
        let mut candidates = grid.candidates();
        if !candidates.iter().any(|c| c == &start) {
            candidates.push(start.clone());
        }
        let kernel = RbfKernel::new(grid.length_scale(), 1.0, 1e-4);
        OnlineTuner {
            opt: BayesOpt::new(kernel, 2, seed),
            candidates,
            current: start,
            epoch: 0,
        }
    }

    /// The weight vector currently in force.
    pub fn current(&self) -> &[f64] {
        &self.current
    }

    /// Number of completed epochs (observations recorded).
    pub fn epochs(&self) -> usize {
        self.epoch
    }

    /// Ends the current epoch: records `objective` (maximized) for the
    /// weights in force and returns the vector for the next epoch.
    pub fn advance(&mut self, objective: f64) -> &[f64] {
        self.opt.observe(self.current.clone(), objective);
        let explore = self.epoch.is_multiple_of(EXPLORE_EVERY);
        self.epoch += 1;
        self.current = if explore {
            self.opt.suggest(&self.candidates).to_vec()
        } else {
            self.opt
                .best_by_mean()
                .map(|(x, _, _)| x)
                .unwrap_or_else(|| self.current.clone())
        };
        &self.current
    }

    /// The incumbent: highest mean observed objective, with its mean and
    /// the number of epochs backing it.
    pub fn best(&self) -> Option<(Vec<f64>, f64, usize)> {
        self.opt.best_by_mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2() -> WeightGrid {
        WeightGrid::new(vec![
            WeightAxis::new("a", vec![0.0, 0.5, 1.0]),
            WeightAxis::new("b", vec![1.0, 2.0]),
        ])
    }

    #[test]
    fn candidates_are_the_cartesian_product() {
        let c = grid2().candidates();
        assert_eq!(c.len(), 6);
        assert!(c.contains(&vec![0.5, 2.0]));
        assert!(c.contains(&vec![1.0, 1.0]));
    }

    #[test]
    #[should_panic(expected = "1-4 axes")]
    fn five_axes_are_rejected() {
        WeightGrid::new(vec![
            WeightAxis::new("a", vec![0.0]),
            WeightAxis::new("b", vec![0.0]),
            WeightAxis::new("c", vec![0.0]),
            WeightAxis::new("d", vec![0.0]),
            WeightAxis::new("e", vec![0.0]),
        ]);
    }

    #[test]
    fn start_vector_joins_the_candidate_set() {
        let grid = WeightGrid::new(vec![WeightAxis::new("a", vec![0.0, 1.0])]);
        let mut tuner = OnlineTuner::new(&grid, vec![0.25], 3);
        // Exhaust the space: the off-grid start must be suggestible, i.e.
        // part of the candidate set the optimizer cycles through.
        let mut seen = std::collections::HashSet::new();
        seen.insert(format!("{:?}", tuner.current().to_vec()));
        for _ in 0..3 {
            let next = tuner.advance(0.0).to_vec();
            seen.insert(format!("{next:?}"));
        }
        assert!(seen.contains("[0.25]"), "start stays in the rotation");
    }

    #[test]
    fn converges_to_the_best_weight_on_a_clean_objective() {
        let grid = WeightGrid::new(vec![WeightAxis::new("w", vec![0.0, 0.5, 1.0, 1.5, 2.0])]);
        let mut tuner = OnlineTuner::new(&grid, vec![1.0], 17);
        let f = |x: &[f64]| -(x[0] - 1.5f64).powi(2);
        for _ in 0..12 {
            let y = f(tuner.current());
            tuner.advance(y);
        }
        let (bx, _, _) = tuner.best().expect("observations exist");
        assert_eq!(bx, vec![1.5]);
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let run = || {
            let grid = grid2();
            let mut tuner = OnlineTuner::new(&grid, vec![0.5, 1.0], 11);
            let mut path = Vec::new();
            for i in 0..8 {
                path.push(tuner.advance(i as f64 * 0.1).to_vec());
            }
            path
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn exploitation_revisits_the_incumbent() {
        let grid = WeightGrid::new(vec![WeightAxis::new("w", vec![0.0, 1.0, 2.0])]);
        // EXPLORE_EVERY = 2: epoch 0 explores, epoch 1 exploits.
        let mut tuner = OnlineTuner::new(&grid, vec![1.0], 5);
        tuner.advance(3.0); // observe start=1.0 at 3.0 (incumbent)
        let exploit = tuner.advance(-1.0).to_vec();
        // Whatever epoch 0 suggested scored -1.0; the mean-best is the
        // start vector, and the exploitation epoch must return to it...
        // unless exploration happened to re-suggest the incumbent itself,
        // in which case its mean dropped and another candidate may lead.
        let (bx, _, _) = tuner.best().unwrap();
        assert_eq!(exploit, bx, "exploit epoch runs the mean-best incumbent");
    }
}
