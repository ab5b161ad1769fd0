use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Simulated time with microsecond resolution.
///
/// A newtype over `u64` microseconds: cheap to copy, totally ordered, and
/// immune to the unit confusion that plagues mixed ms/µs code.
///
/// ```
/// use ahq_sim::SimTime;
///
/// let t = SimTime::from_ms(1.5) + SimTime::from_us(250);
/// assert_eq!(t.as_us(), 1750);
/// assert!((t.as_ms() - 1.75).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant, used as "never" for inactive
    /// event sources.
    pub const NEVER: SimTime = SimTime(u64::MAX);

    /// Creates a time from whole microseconds.
    pub fn from_us(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from (possibly fractional) milliseconds, rounding to
    /// the nearest microsecond. Negative or non-finite inputs saturate to
    /// zero — callers feed in computed spans that may carry `-1e-17` noise.
    pub fn from_ms(ms: f64) -> Self {
        if !ms.is_finite() || ms <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime(round_to_u64(ms * 1_000.0))
    }

    /// Creates a time from (possibly fractional) seconds.
    pub fn from_secs(secs: f64) -> Self {
        Self::from_ms(secs * 1_000.0)
    }

    /// This instant in whole microseconds.
    pub fn as_us(&self) -> u64 {
        self.0
    }

    /// This instant in milliseconds.
    pub fn as_ms(&self) -> f64 {
        u64_to_f64(self.0) / 1_000.0
    }

    /// This instant in seconds.
    pub fn as_secs(&self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(&self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

/// 2^52: at and above it every `f64` is an integer, so the fraction test
/// in [`round_to_u64`] is only needed (and only exact) below it.
const TWO_POW_52: f64 = 4_503_599_627_370_496.0;

/// 2^63: below it `f64 → i64 → f64` round-trips what `f64 → u64 → f64`
/// does.
const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// `x as f64`, through the signed conversion (one instruction on
/// baseline x86-64, against five for the unsigned one) whenever `x` fits:
/// both round the same integer to the nearest `f64`.
#[inline(always)]
fn u64_to_f64(x: u64) -> f64 {
    match i64::try_from(x) {
        Ok(signed) => signed as f64,
        Err(_) => x as f64,
    }
}

/// `y.ceil() as u64`, bit for bit on every input (NaN and negatives give
/// 0, values at or past 2^64 saturate), without the libm call `ceil`
/// compiles to on baseline x86-64.
///
/// `y as u64` truncates toward zero and saturates. Below 2^53 the
/// truncation converts back to `f64` exactly, so `t < y` holds exactly
/// when `y` has a fraction; from 2^52 on every `f64` is an integer and
/// the compare is false; at or past 2^64 `t` is `u64::MAX`, whose `f64`
/// image 2^64 is not below `y`.
#[inline(always)]
pub(crate) fn ceil_to_u64(y: f64) -> u64 {
    if (0.0..TWO_POW_63).contains(&y) {
        // The same truncation and compare through the signed conversions,
        // which baseline x86-64 does in one instruction each.
        let t = y as i64;
        return t as u64 + u64::from((t as f64) < y);
    }
    let t = y as u64;
    if (t as f64) < y {
        t.saturating_add(1)
    } else {
        t
    }
}

/// `y.round().min(u64::MAX as f64) as u64`, bit for bit on every input,
/// without the libm call `round` compiles to on baseline x86-64.
///
/// On `[0, 2^52)`, for `t = trunc(y) ≥ 1` the difference `y - t` is
/// exact (Sterbenz: `t ≤ y < 2t`), and for `t = 0` it is `y` itself, so
/// the half-away-from-zero test `≥ 0.5` is exact. Everything else —
/// negatives, NaN, 2^52 and above — takes the std path; no simulated
/// span gets there.
#[inline(always)]
fn round_to_u64(y: f64) -> u64 {
    if (0.0..TWO_POW_52).contains(&y) {
        let t = y as i64;
        (if y - t as f64 >= 0.5 { t + 1 } else { t }) as u64
    } else {
        y.round().min(u64::MAX as f64) as u64
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// Saturating subtraction; clock arithmetic never underflows.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            write!(f, "never")
        } else {
            write!(f, "{:.3}ms", self.as_ms())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_core::check;
    use ahq_core::rng::Rng;

    /// Hand-picked doubles where integer rounding goes wrong first: zero,
    /// subnormals, every `k ± 1 ulp` and `k + 0.5 ± 1 ulp` around small
    /// and power-of-two integers, the 2^52/2^53/2^63/2^64 thresholds, and
    /// the non-finite values — each with both signs.
    fn edges() -> Vec<f64> {
        let mut base = vec![
            0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            TWO_POW_52 - 0.5,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        let mut ks = vec![1.0, 2.0, 3.0, 999.0, 1_000.0, 1e6 + 1.0];
        ks.extend([31, 32, 51, 52, 53, 62, 63, 64].map(|e| 2f64.powi(e)));
        for k in ks {
            for v in [k - 1.0, k, k + 0.5] {
                base.extend([v.next_down(), v, v.next_up()]);
            }
        }
        base.iter().flat_map(|&v| [v, -v]).collect()
    }

    /// A double from every binade: a random sign, exponent and mantissa,
    /// or a random integer nudged by at most a few ulps.
    fn wide(rng: &mut Rng) -> f64 {
        if rng.bool() {
            f64::from_bits(rng.next_u64())
        } else {
            let k = (rng.next_u64() >> rng.below(64)) as f64;
            let mut v = if rng.bool() { k } else { k + 0.5 };
            for _ in 0..rng.below(3) {
                v = if rng.bool() {
                    v.next_up()
                } else {
                    v.next_down()
                };
            }
            v
        }
    }

    fn assert_ceil_exact(y: f64) {
        assert_eq!(
            ceil_to_u64(y),
            y.ceil() as u64,
            "ceil of {y:e} ({:#018x})",
            y.to_bits()
        );
    }

    fn assert_round_exact(y: f64) {
        assert_eq!(
            round_to_u64(y),
            y.round().min(u64::MAX as f64) as u64,
            "round of {y:e} ({:#018x})",
            y.to_bits()
        );
        // `from_ms` is the pre-helper formula bit for bit, guard included.
        let ms = y / 1_000.0;
        let want = if !ms.is_finite() || ms <= 0.0 {
            0
        } else {
            (ms * 1_000.0).round().min(u64::MAX as f64) as u64
        };
        assert_eq!(SimTime::from_ms(ms).as_us(), want, "from_ms({ms:e})");
    }

    #[test]
    fn ceil_to_u64_matches_std_on_edges_and_wide_doubles() {
        edges().into_iter().for_each(assert_ceil_exact);
        check::cases(4096, |rng| assert_ceil_exact(wide(rng)));
    }

    #[test]
    fn round_to_u64_and_from_ms_match_std_on_edges_and_wide_doubles() {
        edges().into_iter().for_each(assert_round_exact);
        check::cases(4096, |rng| assert_round_exact(wide(rng)));
    }

    #[test]
    fn u64_to_f64_matches_the_unsigned_cast() {
        let mut xs = vec![0, 1, (1 << 53) + 1, i64::MAX as u64, 1 << 63, u64::MAX];
        xs.extend([(1u64 << 63) + 1, u64::MAX - 1024, u64::MAX - 1025]);
        for x in xs {
            assert_eq!(u64_to_f64(x).to_bits(), (x as f64).to_bits(), "{x}");
        }
        check::cases(4096, |rng| {
            let x = rng.next_u64() >> rng.below(64);
            assert_eq!(u64_to_f64(x).to_bits(), (x as f64).to_bits(), "{x}");
        });
    }

    #[test]
    fn conversions_round_trip() {
        let t = SimTime::from_ms(2.5);
        assert_eq!(t.as_us(), 2500);
        assert!((t.as_ms() - 2.5).abs() < 1e-12);
        assert!((SimTime::from_secs(0.25).as_ms() - 250.0).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(SimTime::from_ms(-0.001), SimTime::ZERO);
        assert_eq!(SimTime::from_ms(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_ms(f64::NEG_INFINITY), SimTime::ZERO);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(SimTime::from_us(3) - SimTime::from_us(5), SimTime::ZERO);
        assert_eq!(SimTime::NEVER + SimTime::from_us(1), SimTime::NEVER);
        assert_eq!(
            SimTime::from_us(7).since(SimTime::from_us(2)),
            SimTime::from_us(5)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_ms(1.5).to_string(), "1.500ms");
        assert_eq!(SimTime::NEVER.to_string(), "never");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_us(10) < SimTime::from_us(11));
        assert!(SimTime::NEVER > SimTime::from_secs(1e6));
    }
}
