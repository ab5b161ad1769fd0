use ahq_bayesopt::{BayesOpt, RbfKernel};
use ahq_core::rng::Rng;
use ahq_sim::{AppKind, AppSpec, MachineConfig, Partition, RegionAlloc, SharingPolicy};

use crate::parties::equal_split;
use crate::{SchedContext, Scheduler};

/// Configurations sampled by Bayesian optimization before exploiting the
/// best one.
const EXPLORE_BUDGET: usize = 20;

/// Random configurations in the candidate pool.
const CANDIDATE_POOL: usize = 300;

/// Random samples before the GP drives the search.
const INITIAL_RANDOM: usize = 6;

/// Monitoring windows each sampled configuration runs. The first window is
/// discarded (queues built under the previous configuration drain through
/// it); the score is the mean of the rest.
const WINDOWS_PER_SAMPLE: usize = 3;

/// Consecutive violating windows during exploitation that trigger a fresh
/// exploration (the load must have shifted).
const REEXPLORE_AFTER: usize = 8;

/// Exploitation windows ignored before violations start counting — queues
/// built up during exploration need time to drain.
const EXPLOIT_GRACE: usize = 8;

/// Minimum seconds between exploration restarts.
const RESTART_COOLDOWN_S: f64 = 90.0;

/// During exploitation, probe a single-unit neighbour of the incumbent
/// every this many windows (hill-climbing refinement).
const PROBE_EVERY: usize = 4;

/// A probe must beat the incumbent's rolling score by this margin to be
/// adopted — set above the per-window score noise so refinement does not
/// random-walk.
const PROBE_MARGIN: f64 = 0.01;

/// RNG seed for candidate generation and the optimizer.
const SEED: u64 = 0xC11E;

#[derive(Debug, Clone)]
struct Candidate {
    x: Vec<f64>,
    allocs: Vec<RegionAlloc>,
}

#[derive(Debug)]
enum Phase {
    /// Bayesian-optimization sampling; `left` configurations remain.
    Exploring { left: usize },
    /// Running the incumbent best configuration, with periodic
    /// hill-climbing probes.
    Exploiting(ExploitState),
}

#[derive(Debug)]
struct ExploitState {
    rolling: f64,
    /// The best sampled score at pin time: the yardstick for deciding
    /// whether the load has shifted under the pinned configuration.
    pinned: f64,
    windows: usize,
    violating_streak: usize,
    probe: Option<Probe>,
}

#[derive(Debug)]
struct Probe {
    candidate: Candidate,
    base: f64,
}

/// CLITE (Patel & Tiwari, HPCA 2020): strict partitioning searched by
/// Bayesian optimization.
///
/// Exploration samples configurations from a pool of random strict
/// cores × ways partitions (the published search space), scoring each
/// over a few monitoring windows — `1 + mean(BE progress)` when every LC
/// application meets its QoS target, else the mean QoS-satisfaction
/// ratio (< 1) — and feeding a Gaussian-process optimizer with
/// expected-improvement acquisition. Exploitation pins the best configuration and refines it with
/// single-unit hill-climbing probes; sustained violations (a load shift)
/// restart the search after a cooldown.
#[derive(Debug)]
pub struct Clite {
    phase: Phase,
    opt: BayesOpt,
    candidates: Vec<Candidate>,
    current: Option<Candidate>,
    /// Windows the current configuration has run, and the score samples it
    /// accumulated past the discarded first window.
    windows_on_current: usize,
    sample_scores: Vec<f64>,
    last_restart_s: f64,
    restarts: u64,
    rng: Rng,
}

impl Clite {
    /// Creates CLITE with the published search settings.
    pub fn new() -> Self {
        Clite {
            phase: Phase::Exploring {
                left: EXPLORE_BUDGET,
            },
            opt: BayesOpt::new(RbfKernel::new(0.5, 1.0, 1e-3), INITIAL_RANDOM, SEED),
            candidates: Vec::new(),
            current: None,
            windows_on_current: 0,
            sample_scores: Vec::new(),
            last_restart_s: 0.0,
            restarts: 0,
            rng: Rng::seed_from_u64(SEED ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// How many times the optimizer restarted exploration because the load
    /// shifted under it.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    fn build_candidates(&mut self, machine: &MachineConfig, napps: usize) {
        let mut rng = Rng::seed_from_u64(SEED);
        let mut candidates = Vec::with_capacity(CANDIDATE_POOL + 1);
        // Always include the equal split as a sane anchor.
        candidates.push(candidate_from_parts(
            equal_split(machine.cores, napps, &[]),
            equal_split(machine.llc_ways, napps, &[]),
            machine,
        ));
        while candidates.len() <= CANDIDATE_POOL {
            let cores = random_composition(&mut rng, machine.cores, napps);
            let ways = random_composition(&mut rng, machine.llc_ways, napps);
            candidates.push(candidate_from_parts(cores, ways, machine));
        }
        self.candidates = candidates;
    }

    /// The CLITE objective for one window, higher is better. The violating
    /// branch uses the square root of the QoS ratio: deep violations
    /// compress `M/p95` toward zero, and the square root restores a usable
    /// gradient for the optimizer and the hill-climbing probes.
    fn score(ctx: &SchedContext<'_>) -> f64 {
        let mut qos_ratios = Vec::new();
        for s in &ctx.obs.lc {
            let p95 = s.p95_ms.unwrap_or(s.ideal_ms);
            qos_ratios.push((s.qos_ms / p95).min(1.0).sqrt());
        }
        let all_met = qos_ratios.iter().all(|&r| r >= 1.0 - 1e-9);
        if all_met {
            let be: Vec<f64> = ctx.obs.be.iter().map(|s| s.ipc / s.ipc_solo).collect();
            let be_mean = if be.is_empty() {
                1.0
            } else {
                be.iter().sum::<f64>() / be.len() as f64
            };
            1.0 + be_mean
        } else if qos_ratios.is_empty() {
            1.0
        } else {
            qos_ratios.iter().sum::<f64>() / qos_ratios.len() as f64
        }
    }

    /// The x-vector the current sample should be credited to (the initial
    /// partition is the equal-split anchor).
    fn current_x(&self) -> Vec<f64> {
        self.current
            .as_ref()
            .map(|c| c.x.clone())
            .unwrap_or_else(|| self.candidates[0].x.clone())
    }

    fn install(&mut self, candidate: Candidate) -> Partition {
        let p = Partition::strict(candidate.allocs.clone());
        self.current = Some(candidate);
        self.windows_on_current = 0;
        self.sample_scores.clear();
        p
    }

    fn next_suggestion(&mut self) -> Candidate {
        let xs: Vec<Vec<f64>> = self.candidates.iter().map(|c| c.x.clone()).collect();
        let pick = self.opt.suggest(&xs).to_vec();
        self.candidates
            .iter()
            .find(|c| c.x == pick)
            .expect("suggestion comes from the candidate pool")
            .clone()
    }

    fn restart_exploration(&mut self) {
        self.restarts += 1;
        self.phase = Phase::Exploring {
            left: EXPLORE_BUDGET,
        };
        // Stale observations describe a different load; start fresh with a
        // derived seed to avoid replaying the identical trajectory.
        self.opt = BayesOpt::new(
            RbfKernel::new(0.5, 1.0, 1e-3),
            INITIAL_RANDOM,
            SEED.wrapping_add(self.restarts),
        );
        self.windows_on_current = 0;
        self.sample_scores.clear();
    }

    /// A single-unit neighbour of the incumbent, guided by the observed
    /// slacks: while an LC application violates, the move targets it
    /// (taking from a BE application or the slackest LC application);
    /// once everyone meets QoS, the move returns resources to the poorest
    /// BE application (improving the throughput term of the objective).
    /// The resource kind (cores or ways) is a fair coin flip. Respects the
    /// 1-unit floors.
    fn neighbour(&mut self, ctx: &SchedContext<'_>) -> Option<Candidate> {
        let current = self.current.as_ref()?;
        let machine = ctx.machine;
        let n = current.allocs.len();
        let slack_of = |i: usize| -> f64 {
            ctx.obs
                .lc_by_name(ctx.apps[i].name())
                .map(|s| s.slack())
                .unwrap_or(1.0)
        };
        let lc: Vec<usize> = (0..n)
            .filter(|&i| ctx.apps[i].kind() == AppKind::Lc)
            .collect();
        let be: Vec<usize> = (0..n)
            .filter(|&i| ctx.apps[i].kind() == AppKind::Be)
            .collect();
        let worst = lc
            .iter()
            .copied()
            .min_by(|&a, &b| slack_of(a).total_cmp(&slack_of(b)));

        for attempt in 0..16 {
            let mut allocs = current.allocs.clone();
            let move_cores = self.rng.f64() < 0.5;
            let unit_count = |allocs: &[RegionAlloc], i: usize| -> u32 {
                if move_cores {
                    allocs[i].cores
                } else {
                    allocs[i].ways
                }
            };
            let has_units = |allocs: &[RegionAlloc], i: usize| unit_count(allocs, i) > 1;
            let (from, to) = match worst {
                // A violating LC application pulls resources toward itself.
                Some(w) if slack_of(w) < 0.05 && attempt < 12 => {
                    let donor = be
                        .iter()
                        .copied()
                        .filter(|&i| has_units(&allocs, i))
                        .max_by_key(|&i| unit_count(&allocs, i))
                        .or_else(|| {
                            lc.iter()
                                .copied()
                                .filter(|&i| i != w && has_units(&allocs, i))
                                .max_by(|&a, &b| slack_of(a).total_cmp(&slack_of(b)))
                        });
                    match donor {
                        Some(d) => (d, w),
                        None => continue,
                    }
                }
                // Everyone comfortable: feed the poorest BE application
                // from the slackest LC application.
                _ => {
                    let donor = lc
                        .iter()
                        .copied()
                        .filter(|&i| has_units(&allocs, i) && slack_of(i) > 0.1)
                        .max_by(|&a, &b| slack_of(a).total_cmp(&slack_of(b)));
                    let target = be.iter().copied().min_by_key(|&i| unit_count(&allocs, i));
                    match (donor, target) {
                        (Some(d), Some(t)) if d != t => (d, t),
                        _ => {
                            // Fall back to a random move.
                            let f = self.rng.range_usize(0..n);
                            let t = self.rng.range_usize(0..n);
                            if f == t || !has_units(&allocs, f) {
                                continue;
                            }
                            (f, t)
                        }
                    }
                }
            };
            if move_cores {
                allocs[from].cores -= 1;
                allocs[to].cores += 1;
            } else {
                allocs[from].ways -= 1;
                allocs[to].ways += 1;
            }
            let cores: Vec<u32> = allocs.iter().map(|a| a.cores).collect();
            let ways: Vec<u32> = allocs.iter().map(|a| a.ways).collect();
            return Some(candidate_from_parts(cores, ways, machine));
        }
        None
    }
}

impl Default for Clite {
    fn default() -> Self {
        Self::new()
    }
}

/// Assembles a candidate from per-app core and way counts; its x-vector
/// is both blocks normalized to the machine's totals.
fn candidate_from_parts(cores: Vec<u32>, ways: Vec<u32>, machine: &MachineConfig) -> Candidate {
    let x = cores
        .iter()
        .map(|&c| c as f64 / machine.cores as f64)
        .chain(ways.iter().map(|&w| w as f64 / machine.llc_ways as f64))
        .collect();
    let allocs = cores
        .into_iter()
        .zip(ways)
        .map(|(c, w)| RegionAlloc::new(c, w))
        .collect();
    Candidate { x, allocs }
}

/// A uniformly random composition of `total` units into `n` parts, each at
/// least 1.
fn random_composition(rng: &mut Rng, total: u32, n: usize) -> Vec<u32> {
    assert!(total as usize >= n, "need at least one unit per part");
    // Stars and bars: choose n-1 distinct cut points among total-1 gaps.
    let mut cuts: Vec<u32> = Vec::with_capacity(n - 1);
    while cuts.len() < n - 1 {
        let c = rng.range_u32(1..total);
        if !cuts.contains(&c) {
            cuts.push(c);
        }
    }
    cuts.sort_unstable();
    let mut parts = Vec::with_capacity(n);
    let mut prev = 0;
    for &c in &cuts {
        parts.push(c - prev);
        prev = c;
    }
    parts.push(total - prev);
    parts
}

impl Scheduler for Clite {
    fn name(&self) -> &'static str {
        "clite"
    }

    fn policy(&self) -> SharingPolicy {
        SharingPolicy::LcPriority
    }

    fn initial_partition(&self, machine: &MachineConfig, apps: &[AppSpec]) -> Partition {
        // Start from the equal split; exploration takes over immediately.
        let be_idx: Vec<usize> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind() == AppKind::Be)
            .map(|(i, _)| i)
            .collect();
        let cores = equal_split(machine.cores, apps.len(), &be_idx);
        let ways = equal_split(machine.llc_ways, apps.len(), &be_idx);
        Partition::strict(
            cores
                .into_iter()
                .zip(ways)
                .map(|(c, w)| RegionAlloc::new(c, w))
                .collect(),
        )
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Option<Partition> {
        if self.candidates.is_empty() {
            self.build_candidates(ctx.machine, ctx.apps.len());
        }
        let score = Self::score(ctx);
        self.windows_on_current += 1;
        if self.windows_on_current > 1 {
            // The first window under any configuration is a drain
            // transient; only later windows are credited.
            self.sample_scores.push(score);
        }

        if let Phase::Exploring { left } = self.phase {
            if self.windows_on_current < WINDOWS_PER_SAMPLE {
                return None;
            }
            let sample_mean =
                self.sample_scores.iter().sum::<f64>() / self.sample_scores.len() as f64;
            let x = self.current_x();
            self.opt.observe(x, sample_mean);
            if left > 0 {
                self.phase = Phase::Exploring { left: left - 1 };
                let next = self.next_suggestion();
                return Some(self.install(next));
            }
            // Budget exhausted: pin the best configuration seen.
            let (best_x, best_y) = self.opt.best().map(|(bx, y)| (bx.to_vec(), y))?;
            let cand = self.candidates.iter().find(|c| c.x == best_x)?.clone();
            let p = self.install(cand);
            self.phase = Phase::Exploiting(ExploitState {
                rolling: best_y,
                pinned: best_y,
                windows: 0,
                violating_streak: 0,
                probe: None,
            });
            return Some(p);
        }

        // Exploitation: move the state out so `self` stays free for the
        // helper calls, and put it back unless a restart replaced it.
        let Phase::Exploiting(mut st) =
            std::mem::replace(&mut self.phase, Phase::Exploring { left: 0 })
        else {
            unreachable!("exploring handled above");
        };
        let action = self.exploit_step(ctx, score, &mut st);
        match action {
            ExploitAction::Continue(p) => {
                self.phase = Phase::Exploiting(st);
                p
            }
            ExploitAction::Restarted => None,
        }
    }
}

enum ExploitAction {
    /// Stay in exploitation; optionally repartition.
    Continue(Option<Partition>),
    /// `restart_exploration` already replaced the phase.
    Restarted,
}

impl Clite {
    fn exploit_step(
        &mut self,
        ctx: &SchedContext<'_>,
        score: f64,
        st: &mut ExploitState,
    ) -> ExploitAction {
        st.windows += 1;
        let grace = st.windows <= EXPLOIT_GRACE;

        // A probe in flight: give it WINDOWS_PER_SAMPLE windows, then
        // adopt or revert.
        if st.probe.is_some() {
            if self.windows_on_current < WINDOWS_PER_SAMPLE {
                return ExploitAction::Continue(None);
            }
            let probe_mean =
                self.sample_scores.iter().sum::<f64>() / self.sample_scores.len() as f64;
            let Probe { candidate, base } = st.probe.take().expect("probe is some");
            if probe_mean > base + PROBE_MARGIN {
                // Adopt: the neighbour is the new incumbent.
                st.rolling = probe_mean;
                st.pinned = st.pinned.max(probe_mean);
                let p = self.install(candidate);
                return ExploitAction::Continue(Some(p));
            }
            // Revert to the incumbent.
            let Some(back) = self.current.clone() else {
                return ExploitAction::Continue(None);
            };
            self.windows_on_current = 0;
            self.sample_scores.clear();
            return ExploitAction::Continue(Some(Partition::strict(back.allocs)));
        }

        // Track the incumbent's rolling score.
        st.rolling = 0.8 * st.rolling + 0.2 * score;
        if !grace {
            if score < 1.0 {
                st.violating_streak += 1;
            } else {
                st.violating_streak = 0;
            }
            if st.violating_streak >= REEXPLORE_AFTER
                && ctx.now_s - self.last_restart_s >= RESTART_COOLDOWN_S
            {
                st.violating_streak = 0;
                // Restart only when the pinned configuration performs far
                // below what it scored during sampling — the load shifted.
                // If exploration never found a feasible configuration in
                // the first place, re-exploring the same space is pure
                // churn; hill-climbing probes continue instead.
                if st.rolling < st.pinned - 0.35 {
                    self.last_restart_s = ctx.now_s;
                    self.restart_exploration();
                    return ExploitAction::Restarted;
                }
            }
            if st.windows.is_multiple_of(PROBE_EVERY) {
                if let Some(candidate) = self.neighbour(ctx) {
                    let p = Partition::strict(candidate.allocs.clone());
                    // Probing starts a fresh sample accumulation; the
                    // incumbent remains `current` until adoption.
                    self.windows_on_current = 0;
                    self.sample_scores.clear();
                    st.probe = Some(Probe {
                        candidate,
                        base: st.rolling,
                    });
                    return ExploitAction::Continue(Some(p));
                }
            }
        }
        ExploitAction::Continue(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_composition_is_valid() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..100 {
            let parts = random_composition(&mut rng, 10, 4);
            assert_eq!(parts.len(), 4);
            assert_eq!(parts.iter().sum::<u32>(), 10);
            assert!(parts.iter().all(|&p| p >= 1));
        }
    }

    #[test]
    fn candidate_pool_is_deterministic_and_valid() {
        let machine = MachineConfig::paper_xeon();
        let mut a = Clite::new();
        let mut b = Clite::new();
        a.build_candidates(&machine, 4);
        b.build_candidates(&machine, 4);
        assert_eq!(a.candidates.len(), b.candidates.len());
        for (ca, cb) in a.candidates.iter().zip(b.candidates.iter()) {
            assert_eq!(ca.x, cb.x);
            let p = Partition::strict(ca.allocs.clone());
            assert!(p.validate(&machine).is_ok());
            assert_eq!(p.isolated_cores(), machine.cores);
            assert_eq!(p.isolated_ways(), machine.llc_ways);
        }
    }

    #[test]
    fn initial_partition_is_strict() {
        let machine = MachineConfig::paper_xeon();
        let apps = vec![
            AppSpec::lc("a").qos_threshold_ms(5.0).build().unwrap(),
            AppSpec::be("b").build().unwrap(),
        ];
        let p = Clite::new().initial_partition(&machine, &apps);
        assert_eq!(p.shared_cores(&machine), 0);
        assert_eq!(p.isolated_cores(), 10);
    }

    #[test]
    fn neighbour_is_one_unit_away_and_valid() {
        use crate::SchedContext;
        let machine = MachineConfig::paper_xeon();
        let mut clite = Clite::new();
        clite.build_candidates(&machine, 4);
        clite.current = Some(clite.candidates[0].clone());
        let apps = vec![
            AppSpec::lc("a").qos_threshold_ms(5.0).build().unwrap(),
            AppSpec::lc("b").qos_threshold_ms(5.0).build().unwrap(),
            AppSpec::be("c").build().unwrap(),
            AppSpec::be("d").build().unwrap(),
        ];
        let partition = Partition::strict(clite.current.as_ref().unwrap().allocs.clone());
        let obs = ahq_sim::WindowObservation {
            window_index: 0,
            start_ms: 0.0,
            end_ms: 500.0,
            lc: vec![],
            be: vec![],
        };
        let entropy = ahq_core::EntropyModel::default().evaluate(&[], &[]);
        let ctx = SchedContext {
            machine: &machine,
            apps: &apps,
            partition: &partition,
            obs: &obs,
            entropy: &entropy,
            now_s: 0.0,
        };
        for _ in 0..20 {
            let n = clite.neighbour(&ctx).expect("neighbour exists");
            let p = Partition::strict(n.allocs.clone());
            assert!(p.validate(&machine).is_ok());
            assert_eq!(p.isolated_cores(), machine.cores);
            assert_eq!(p.isolated_ways(), machine.llc_ways);
            let base = &clite.current.as_ref().unwrap().allocs;
            let dc: i64 = n
                .allocs
                .iter()
                .zip(base.iter())
                .map(|(a, b)| (a.cores as i64 - b.cores as i64).abs())
                .sum();
            let dw: i64 = n
                .allocs
                .iter()
                .zip(base.iter())
                .map(|(a, b)| (a.ways as i64 - b.ways as i64).abs())
                .sum();
            assert!(
                (dc == 2 && dw == 0) || (dc == 0 && dw == 2),
                "exactly one unit moved: dc={dc} dw={dw}"
            );
            assert!(n.allocs.iter().all(|a| a.cores >= 1 && a.ways >= 1));
        }
    }
}
