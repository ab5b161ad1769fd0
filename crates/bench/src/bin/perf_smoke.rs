//! Perf smoke check for CI: times `run_window` on the paper-pair scenario
//! (best-of-5 x 200-window timing after 50 warm-up windows) and fails
//! when the best ns/window exceeds 1.5x the pinned figure.
//!
//! The factor absorbs shared-runner noise — the check is meant to catch
//! an accidental 2x event-path regression, not a 10 % wobble.

use std::process::ExitCode;
use std::time::Instant;

use ahq_bench::{paper_pair_sim, REPS};

const WARMUP_WINDOWS: usize = 50;
const TIMED_WINDOWS: usize = 200;

/// Best-of-5 ns/window of the paper-pair scenario (seed 7) measured with
/// this binary's method on an idle machine, release profile. Re-pin only
/// alongside an intentional change to the event path or the fluid solver.
const PINNED_NS_PER_WINDOW: u64 = 166_883;

/// How far past the pin the best repetition may drift before CI fails.
const FACTOR: f64 = 1.5;

fn main() -> ExitCode {
    let mut best = u64::MAX;
    for rep in 1..=REPS {
        let mut sim = paper_pair_sim(7);
        for _ in 0..WARMUP_WINDOWS {
            sim.run_window();
        }
        let start = Instant::now();
        for _ in 0..TIMED_WINDOWS {
            sim.run_window();
        }
        let ns = start.elapsed().as_nanos() as u64 / TIMED_WINDOWS as u64;
        println!("perf-smoke: rep {rep}/{REPS}: {ns} ns/window");
        best = best.min(ns);
    }

    let pinned = PINNED_NS_PER_WINDOW;
    let limit = (pinned as f64 * FACTOR) as u64;
    println!("perf-smoke: best {best} ns/window, pinned {pinned}, limit {limit} ({FACTOR:.2}x)");
    if best > limit {
        eprintln!(
            "perf-smoke: FAIL — run_window_paper_pair regressed past {FACTOR:.2}x of the \
             pinned baseline; rerun on an idle machine and, if real, find the regression \
             (or re-pin the baseline alongside an intentional model change)"
        );
        return ExitCode::FAILURE;
    }
    println!("perf-smoke: OK");
    ExitCode::SUCCESS
}
