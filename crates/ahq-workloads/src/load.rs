//! Load shapes: constant, stepped, and the fluctuating trace of Fig. 13.
//!
//! A [`LoadTrace`] maps simulation time to an offered-load fraction (of
//! the application's nominal max load). Experiment runners sample the
//! trace at every monitoring window and feed
//! [`ahq_sim::NodeSim::set_load`].

/// A piecewise-constant load trace.
///
/// ```
/// use ahq_workloads::load::LoadTrace;
///
/// let trace = LoadTrace::steps(&[(0.0, 0.1), (10.0, 0.7), (20.0, 0.3)]);
/// assert_eq!(trace.load_at(5.0), 0.1);
/// assert_eq!(trace.load_at(10.0), 0.7);
/// assert_eq!(trace.load_at(99.0), 0.3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LoadTrace {
    /// `(start_time_s, load_fraction)` segments, sorted by start time;
    /// each segment lasts until the next one begins (the last is open-ended).
    segments: Vec<(f64, f64)>,
}

impl LoadTrace {
    /// A constant load.
    pub fn constant(load: f64) -> Self {
        LoadTrace {
            segments: vec![(0.0, load.max(0.0))],
        }
    }

    /// Builds a trace from `(start_time_s, load_fraction)` steps. Steps
    /// are sorted by time; negative loads are clamped to zero. An empty
    /// slice yields a zero-load trace.
    pub fn steps(steps: &[(f64, f64)]) -> Self {
        let mut segments: Vec<(f64, f64)> = steps
            .iter()
            .map(|&(t, l)| (t.max(0.0), l.max(0.0)))
            .collect();
        segments.sort_by(|a, b| a.0.total_cmp(&b.0));
        if segments.is_empty() {
            segments.push((0.0, 0.0));
        }
        LoadTrace { segments }
    }

    /// The load fraction at time `t_s` (seconds). Before the first
    /// segment, the first segment's load applies.
    pub fn load_at(&self, t_s: f64) -> f64 {
        let mut load = self.segments[0].1;
        for &(start, l) in &self.segments {
            if t_s >= start {
                load = l;
            } else {
                break;
            }
        }
        load
    }

    /// The final time at which the trace changes (useful for sizing a
    /// simulation horizon).
    pub fn last_change_s(&self) -> f64 {
        self.segments.last().map(|s| s.0).unwrap_or(0.0)
    }

    /// The distinct load levels in the trace, in time order.
    pub fn levels(&self) -> Vec<f64> {
        self.segments.iter().map(|s| s.1).collect()
    }
}

/// The Fig. 13 fluctuating Xapian load over 250 s: low at first, stepping
/// up through the day-time peak (70 % at 100 s, 90 % at 120 s) and back
/// down. The paper plots the exact trace in Fig. 13(a); this is its
/// piecewise reconstruction, preserving the timing of the two peaks the
/// text calls out ("during 100 s–120 s ... increased to 70 %", "during
/// 120 s–140 s ... increased to 90 %").
pub fn fig13_xapian_trace() -> LoadTrace {
    LoadTrace::steps(&[
        (0.0, 0.10),
        (40.0, 0.30),
        (60.0, 0.50),
        (80.0, 0.30),
        (100.0, 0.70),
        (120.0, 0.90),
        (140.0, 0.50),
        (160.0, 0.20),
        (180.0, 0.40),
        (210.0, 0.10),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trace_is_flat() {
        let t = LoadTrace::constant(0.4);
        assert_eq!(t.load_at(0.0), 0.4);
        assert_eq!(t.load_at(1e9), 0.4);
        assert_eq!(t.levels(), vec![0.4]);
    }

    #[test]
    fn steps_are_sorted_and_clamped() {
        let t = LoadTrace::steps(&[(10.0, 0.5), (0.0, -0.2), (5.0, 0.3)]);
        assert_eq!(t.load_at(0.0), 0.0);
        assert_eq!(t.load_at(7.0), 0.3);
        assert_eq!(t.load_at(10.0), 0.5);
        assert_eq!(t.last_change_s(), 10.0);
    }

    #[test]
    fn before_first_segment_uses_first_level() {
        let t = LoadTrace::steps(&[(5.0, 0.8)]);
        assert_eq!(t.load_at(0.0), 0.8);
    }

    #[test]
    fn empty_steps_mean_silence() {
        let t = LoadTrace::steps(&[]);
        assert_eq!(t.load_at(42.0), 0.0);
    }

    #[test]
    fn fig13_trace_has_the_papers_peaks() {
        let t = fig13_xapian_trace();
        assert_eq!(t.load_at(110.0), 0.70);
        assert_eq!(t.load_at(130.0), 0.90);
        assert!(t.load_at(10.0) <= 0.2, "starts low");
        assert!(t.load_at(240.0) <= 0.2, "ends low");
        assert!(t.last_change_s() < 250.0);
    }
}
