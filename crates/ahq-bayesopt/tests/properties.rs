//! Property-based tests of the Gaussian-process machinery: positive
//! definiteness, interpolation, and acquisition sanity for arbitrary
//! training data.

use ahq_bayesopt::{
    cholesky, cholesky_solve, expected_improvement, GaussianProcess, Matrix, RbfKernel,
};
use ahq_core::check;
use ahq_core::rng::Rng;

fn point3(rng: &mut Rng, lo: f64, hi: f64) -> [f64; 3] {
    [(); 3].map(|_| rng.range_f64(lo..=hi))
}

/// 2 to 11 points in the unit cube with targets in [-5, 5].
fn training_data(rng: &mut Rng) -> (Vec<Vec<f64>>, Vec<f64>) {
    // Drop near-duplicate points: two samples closer than the noise floor
    // with different targets make exact interpolation ill-conditioned by
    // construction (the GP rightly averages them), which is not the
    // property under test.
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys = Vec::new();
    for _ in 0..rng.range_usize(2..12) {
        let x = point3(rng, 0.0, 1.0).to_vec();
        let y = rng.range_f64(-5.0..=5.0);
        let far_enough = xs.iter().all(|seen: &Vec<f64>| {
            let d2: f64 = seen
                .iter()
                .zip(x.iter())
                .map(|(a, b)| (a - b).powi(2))
                .sum();
            d2.sqrt() > 0.05
        });
        if far_enough {
            xs.push(x);
            ys.push(y);
        }
    }
    (xs, ys)
}

/// The RBF kernel matrix (plus noise) is always positive definite:
/// Cholesky succeeds and the factor reconstructs the matrix.
#[test]
fn kernel_matrices_are_positive_definite() {
    check::cases(256, |rng| {
        let (xs, _ys) = training_data(rng);
        let kernel = RbfKernel::new(0.4, 1.0, 1e-4);
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = kernel.eval(&xs[i], &xs[j]);
                if i == j {
                    v += kernel.noise();
                }
                k.set(i, j, v);
            }
        }
        let l = cholesky(&k);
        assert!(l.is_some(), "kernel matrix must be PD");
        let l = l.unwrap();
        // Check L Lᵀ == K on a few entries.
        for i in 0..n {
            for j in 0..=i {
                let mut v = 0.0;
                for t in 0..n {
                    v += l.get(i, t) * l.get(j, t);
                }
                assert!((v - k.get(i, j)).abs() < 1e-8);
            }
        }
    });
}

/// Cholesky solve inverts the system it was built from.
#[test]
fn solve_round_trips() {
    check::cases(256, |rng| {
        let (xs, ys) = training_data(rng);
        let kernel = RbfKernel::new(0.4, 1.0, 1e-4);
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = kernel.eval(&xs[i], &xs[j]);
                if i == j {
                    v += kernel.noise();
                }
                k.set(i, j, v);
            }
        }
        let l = cholesky(&k).expect("PD");
        let x = cholesky_solve(&l, &ys);
        // K x ≈ ys.
        for (i, yi) in ys.iter().enumerate() {
            let mut v = 0.0;
            for (j, xj) in x.iter().enumerate() {
                v += k.get(i, j) * xj;
            }
            assert!((v - yi).abs() < 1e-6, "row {i}: {v} vs {yi}");
        }
    });
}

/// A fitted GP interpolates its training targets (within the noise
/// floor) and never reports negative variance anywhere.
#[test]
fn gp_interpolates_and_variance_nonnegative() {
    check::cases(256, |rng| {
        let (xs, ys) = training_data(rng);
        let probe = point3(rng, -0.5, 1.5);
        let gp = GaussianProcess::fit(RbfKernel::new(0.4, 1.0, 1e-6), xs.clone(), ys.clone())
            .expect("PD fit");
        for (x, y) in xs.iter().zip(ys.iter()) {
            let (m, v) = gp.predict(x);
            assert!((m - y).abs() < 0.05, "mean {m} vs target {y}");
            assert!(v >= 0.0);
        }
        let (_, v) = gp.predict(&probe);
        assert!(v >= 0.0 && v.is_finite());
    });
}

/// Expected improvement is non-negative, and zero only when there is
/// provably nothing to gain.
#[test]
fn ei_is_nonnegative() {
    check::cases(256, |rng| {
        let mean = rng.range_f64(-5.0..=5.0);
        let var = rng.range_f64(0.0..=4.0);
        let best = rng.range_f64(-5.0..=5.0);
        let ei = expected_improvement(mean, var, best);
        assert!(ei >= 0.0);
        assert!(ei.is_finite());
        if var == 0.0 {
            assert!((ei - (mean - best).max(0.0)).abs() < 1e-12);
        }
    });
}

/// A recorded expected-improvement case: a mean far below the incumbent
/// with moderate variance must still give a finite, non-negative EI.
#[test]
fn ei_far_below_the_incumbent_is_finite_and_nonnegative() {
    let ei = expected_improvement(-2.902594671574283, 0.6427935920272615, 3.5277480992376633);
    assert!(ei >= 0.0 && ei.is_finite(), "ei = {ei}");
}

/// A recorded fit whose first and third points lie 0.013 apart with
/// opposite-sign targets — closer than `training_data`'s 0.05 filter, so
/// the generator above can no longer produce it. The fit must still
/// succeed, interpolate every target and keep the variance physical.
#[test]
fn gp_fits_near_duplicate_points_with_opposite_targets() {
    let xs = vec![
        vec![0.3814255418528006, 0.6898080813667566, 0.6611252808868121],
        vec![0.5200120437984319, 0.6350533884485086, 0.37277630241101706],
        vec![0.3809706121735296, 0.6852067810673352, 0.6729194087284364],
    ];
    let ys = vec![2.9328810945767914, 0.0, -3.526216987454947];
    let gp = GaussianProcess::fit(RbfKernel::new(0.4, 1.0, 1e-6), xs.clone(), ys.clone())
        .expect("PD fit");
    for (x, y) in xs.iter().zip(ys.iter()) {
        let (m, v) = gp.predict(x);
        assert!((m - y).abs() < 0.05, "mean {m} vs target {y}");
        assert!(v >= 0.0);
    }
    let (_, v) = gp.predict(&[0.0, 0.0, 0.0]);
    assert!(v >= 0.0 && v.is_finite(), "probe variance {v}");
}
