use ahq_sim::{AppKind, AppSpec, MachineConfig, Partition, RegionAlloc, SharingPolicy};

use crate::{SchedContext, Scheduler};

/// Grow the BE allocation while every LC slack exceeds this.
const GROW_SLACK: f64 = 0.15;

/// Enter backoff (strip the BE allocation) when any LC slack falls below
/// this.
const BACKOFF_SLACK: f64 = 0.05;

/// Windows to remain in backoff before growth may resume.
const BACKOFF_WINDOWS: u64 = 4;

/// Upper bound on the cores the BE allocation may take.
const MAX_BE_CORES: u32 = 6;

/// Upper bound on the LLC ways the BE allocation may take.
const MAX_BE_WAYS: u32 = 12;

/// A Heracles-style threshold controller (Lo et al., ISCA 2015) — the
/// classic ancestor of the paper's baselines, implemented as an extra
/// comparison point beyond the paper's five strategies.
///
/// Heracles guards the LC applications with a simple rule: while every LC
/// application has comfortable latency slack, *grow* the best-effort
/// allocation one unit at a time (cores, then ways, round-robin across BE
/// applications); the moment any slack drops below the backoff threshold,
/// *strip* the entire BE allocation and hold off growth for a few
/// windows. LC applications always run in the shared region with
/// priority, so a stripped BE allocation means BE only consumes what the
/// LC applications leave idle.
#[derive(Debug, Clone)]
pub struct Heracles {
    backoff_until: u64,
    window: u64,
    grow_cores_next: bool,
}

impl Heracles {
    /// Creates the controller.
    pub fn new() -> Self {
        Heracles {
            backoff_until: 0,
            window: 0,
            grow_cores_next: true,
        }
    }

    fn be_indices(apps: &[AppSpec]) -> Vec<usize> {
        apps.iter()
            .enumerate()
            .filter(|(_, a)| a.kind() == AppKind::Be)
            .map(|(i, _)| i)
            .collect()
    }
}

impl Default for Heracles {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Heracles {
    fn name(&self) -> &'static str {
        "heracles"
    }

    fn policy(&self) -> SharingPolicy {
        SharingPolicy::LcPriority
    }

    fn initial_partition(&self, _machine: &MachineConfig, apps: &[AppSpec]) -> Partition {
        // Everything starts with the LC applications: the BE allocation is
        // grown only when slack proves it safe.
        Partition::all_shared(apps.len())
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Option<Partition> {
        self.window += 1;
        let min_slack = ctx
            .obs
            .lc
            .iter()
            .map(|s| s.slack())
            .fold(f64::INFINITY, f64::min);
        let be = Self::be_indices(ctx.apps);
        if be.is_empty() || !min_slack.is_finite() {
            return None;
        }

        // Backoff: any LC app too close to its target -> strip BE.
        if min_slack < BACKOFF_SLACK {
            self.backoff_until = self.window + BACKOFF_WINDOWS;
            let mut p = ctx.partition.clone();
            let mut changed = false;
            for &i in &be {
                if !p.isolated(i.into()).is_empty() {
                    p.set_isolated(i.into(), RegionAlloc::EMPTY);
                    changed = true;
                }
            }
            return changed.then_some(p);
        }

        // Growth: everyone comfortable and not backing off.
        if min_slack > GROW_SLACK && self.window >= self.backoff_until {
            let mut p = ctx.partition.clone();
            // Round-robin the BE apps; smallest allocation first.
            let target = *be
                .iter()
                .min_by_key(|&&i| {
                    let a = p.isolated(i.into());
                    a.cores + a.ways
                })
                .expect("be is non-empty");
            let mut alloc = p.isolated(target.into());
            let machine = ctx.machine;
            let be_cores: u32 = be.iter().map(|&i| p.isolated(i.into()).cores).sum();
            let be_ways: u32 = be.iter().map(|&i| p.isolated(i.into()).ways).sum();
            let can_grow_cores = be_cores < MAX_BE_CORES && p.shared_cores(machine) > 1;
            let can_grow_ways = be_ways < MAX_BE_WAYS && p.shared_ways(machine) > 1;
            if self.grow_cores_next && can_grow_cores {
                alloc.cores += 1;
            } else if can_grow_ways {
                alloc.ways += 1;
            } else if can_grow_cores {
                alloc.cores += 1;
            } else {
                return None;
            }
            self.grow_cores_next = !self.grow_cores_next;
            p.set_isolated(target.into(), alloc);
            return Some(p);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_core::EntropyModel;
    use ahq_sim::{BeWindowStats, LcWindowStats, WindowObservation};

    fn apps() -> Vec<AppSpec> {
        vec![
            AppSpec::lc("svc")
                .mean_service_ms(1.0)
                .qos_threshold_ms(5.0)
                .max_load_qps(2000.0)
                .build()
                .unwrap(),
            AppSpec::be("batch").build().unwrap(),
        ]
    }

    fn obs(p95: f64) -> WindowObservation {
        WindowObservation {
            window_index: 0,
            start_ms: 0.0,
            end_ms: 500.0,
            lc: vec![LcWindowStats {
                name: "svc".into(),
                p95_ms: Some(p95),
                ideal_ms: 2.0,
                qos_ms: 5.0,
                load: 0.5,
                arrivals: 100,
                completions: 100,
                drops: 0,
                backlog: 0,
                mean_core_capacity: 1.0,
            }],
            be: vec![BeWindowStats {
                name: "batch".into(),
                ipc: 1.0,
                ipc_solo: 1.0,
                mean_core_capacity: 1.0,
            }],
        }
    }

    fn decide_once(h: &mut Heracles, partition: &Partition, p95: f64) -> Option<Partition> {
        let machine = MachineConfig::paper_xeon();
        let specs = apps();
        let o = obs(p95);
        let model = EntropyModel::default();
        let entropy = model.evaluate(&[], &[]);
        let ctx = SchedContext {
            machine: &machine,
            apps: &specs,
            partition,
            obs: &o,
            entropy: &entropy,
            now_s: 0.0,
        };
        h.decide(&ctx)
    }

    #[test]
    fn grows_be_under_comfortable_slack() {
        let mut h = Heracles::new();
        let p = Partition::all_shared(2);
        // p95 = 2.5 -> slack 0.5 > grow threshold.
        let next = decide_once(&mut h, &p, 2.5).expect("grows");
        let alloc = next.isolated(1.into());
        assert_eq!(alloc.cores + alloc.ways, 1, "one unit at a time");
    }

    #[test]
    fn strips_be_on_backoff() {
        let mut h = Heracles::new();
        let mut p = Partition::all_shared(2);
        p.set_isolated(1.into(), RegionAlloc::new(3, 5));
        // p95 = 4.9 -> slack 0.02 < backoff threshold.
        let next = decide_once(&mut h, &p, 4.9).expect("strips");
        assert!(next.isolated(1.into()).is_empty());
        // And growth stays disabled during the hold.
        assert!(decide_once(&mut h, &next, 2.0).is_none());
    }

    #[test]
    fn growth_respects_caps() {
        let mut h = Heracles::new();
        let mut p = Partition::all_shared(2);
        p.set_isolated(1.into(), RegionAlloc::new(MAX_BE_CORES, MAX_BE_WAYS));
        assert!(decide_once(&mut h, &p, 2.0).is_none(), "caps reached");
        // One unit under a cap, growth resumes on that dimension only.
        p.set_isolated(1.into(), RegionAlloc::new(MAX_BE_CORES, MAX_BE_WAYS - 1));
        let next = decide_once(&mut h, &p, 2.0).expect("grows ways");
        assert_eq!(
            next.isolated(1.into()),
            RegionAlloc::new(MAX_BE_CORES, MAX_BE_WAYS)
        );
    }

    #[test]
    fn no_be_apps_means_no_action() {
        let mut h = Heracles::new();
        let machine = MachineConfig::paper_xeon();
        let specs = vec![apps().remove(0)];
        let p = Partition::all_shared(1);
        let o = obs(2.0);
        let model = EntropyModel::default();
        let entropy = model.evaluate(&[], &[]);
        let ctx = SchedContext {
            machine: &machine,
            apps: &specs,
            partition: &p,
            obs: &o,
            entropy: &entropy,
            now_s: 0.0,
        };
        assert!(h.decide(&ctx).is_none());
    }
}
