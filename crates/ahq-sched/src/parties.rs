use std::collections::HashMap;

use ahq_sim::{AppKind, AppSpec, MachineConfig, Partition, RegionAlloc, SharingPolicy};

use crate::{SchedContext, Scheduler};

/// Which resource dimension an adjustment touches. The FSM cycles the
/// three types the paper names — "core, LLC, or memory bandwidth".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ResourceKind {
    /// Processor cores.
    Cores,
    /// LLC ways.
    Ways,
    /// Memory bandwidth, moved in [`MEMBW_UNIT_PCT`]-point units.
    Membw,
}

/// Memory bandwidth moves in units of this many percentage points —
/// roughly the granularity Intel MBA exposes.
pub(crate) const MEMBW_UNIT_PCT: u32 = 5;

impl ResourceKind {
    pub(crate) fn next(self) -> Self {
        match self {
            ResourceKind::Cores => ResourceKind::Ways,
            ResourceKind::Ways => ResourceKind::Membw,
            ResourceKind::Membw => ResourceKind::Cores,
        }
    }

    /// All kinds starting from `self`, in FSM order.
    pub(crate) fn cycle(self) -> [ResourceKind; 3] {
        [self, self.next(), self.next().next()]
    }
}

/// Upsize an application when its latency slack falls below this
/// (the original PARTIES threshold, 5 %).
const UPSIZE_SLACK: f64 = 0.05;

/// Tentatively downsize only while every application's slack exceeds this
/// (the original PARTIES threshold, 25 %).
const DOWNSIZE_SLACK: f64 = 0.25;

/// After a reverted downsize, leave the application alone for this many
/// windows.
const HOLD_WINDOWS: u64 = 10;

/// PARTIES (Chen, Delimitrou & Martínez, ASPLOS 2019), reimplemented as
/// the paper's strongest strict-partitioning baseline.
///
/// Every application — LC and BE alike — owns an isolated region; nothing
/// is shared. Each monitoring window PARTIES computes every LC
/// application's latency slack `(M_i - p95_i) / M_i` and:
///
/// * **upsizes** the most-violating application by one unit of its current
///   FSM resource — the FSM cycles all three dimensions the original
///   paper partitions: cores, LLC ways, and memory-bandwidth
///   *reservations* in `MEMBW_UNIT_PCT`-point units (floors enforced by
///   the fluid solver, as opposed to the MBA throttle *ceilings* that
///   [`ArqConfig::throttle_be`](crate::ArqConfig) gates) — taken from a
///   BE region if possible, else from the LC application with the most
///   slack;
/// * **downsizes** (tentatively) the slackest application when everyone
///   has comfortable slack, returning the unit to the BE pool — and
///   *reverts* the downsize if a violation follows, holding that
///   application untouched for a while.
///
/// The FSM switches resource type when an upsize of the current type did
/// not improve the application's slack — the behaviour that produces the
/// characteristic ping-ponging under pressure that ARQ avoids.
#[derive(Debug, Clone)]
pub struct Parties {
    /// Per-app resource FSM state.
    fsm: HashMap<usize, ResourceKind>,
    /// Slack at the last upsize per app, to detect "didn't help".
    last_upsize_slack: HashMap<usize, f64>,
    /// Pending tentative downsize: (partition before, victim app, window).
    pending_downsize: Option<(Partition, usize)>,
    /// (app) -> window index until which downsizing it is forbidden.
    hold_until: HashMap<usize, u64>,
    window: u64,
}

impl Parties {
    /// Creates PARTIES with the original paper's thresholds.
    pub fn new() -> Self {
        Parties {
            fsm: HashMap::new(),
            last_upsize_slack: HashMap::new(),
            pending_downsize: None,
            hold_until: HashMap::new(),
            window: 0,
        }
    }

    fn fsm_kind(&mut self, app: usize) -> ResourceKind {
        *self.fsm.entry(app).or_insert(ResourceKind::Cores)
    }

    /// Moves one unit of `kind` from `from` to `to`; returns false when
    /// `from` would fall below the floor (one core/way, one bandwidth
    /// unit).
    fn move_unit(p: &mut Partition, from: usize, to: usize, kind: ResourceKind) -> bool {
        let mut a = p.isolated(from.into());
        let mut b = p.isolated(to.into());
        match kind {
            ResourceKind::Cores => {
                if a.cores <= 1 {
                    return false;
                }
                a.cores -= 1;
                b.cores += 1;
            }
            ResourceKind::Ways => {
                if a.ways <= 1 {
                    return false;
                }
                a.ways -= 1;
                b.ways += 1;
            }
            ResourceKind::Membw => {
                if a.membw_pct <= MEMBW_UNIT_PCT {
                    return false;
                }
                a.membw_pct -= MEMBW_UNIT_PCT;
                b.membw_pct += MEMBW_UNIT_PCT;
            }
        }
        p.set_isolated(from.into(), a);
        p.set_isolated(to.into(), b);
        true
    }
}

impl Default for Parties {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits `total` units across `n` regions, every region getting at least
/// one unit and remainders going to the regions listed in `favoured`
/// first.
pub(crate) fn equal_split(total: u32, n: usize, favoured: &[usize]) -> Vec<u32> {
    assert!(n > 0, "cannot split across zero regions");
    assert!(total as usize >= n, "need at least one unit per region");
    let base = total / n as u32;
    let mut out = vec![base; n];
    let mut remainder = total - base * n as u32;
    let order: Vec<usize> = if favoured.is_empty() {
        (0..n).collect()
    } else {
        favoured.to_vec()
    };
    let mut k = 0usize;
    while remainder > 0 {
        out[order[k % order.len()]] += 1;
        k += 1;
        remainder -= 1;
    }
    out
}

impl Scheduler for Parties {
    fn name(&self) -> &'static str {
        "parties"
    }

    fn policy(&self) -> SharingPolicy {
        SharingPolicy::LcPriority
    }

    fn initial_partition(&self, machine: &MachineConfig, apps: &[AppSpec]) -> Partition {
        // Strict partition: equal split with remainders favouring the BE
        // applications (they start with the spare capacity PARTIES carves
        // from later).
        let be_idx: Vec<usize> = apps
            .iter()
            .enumerate()
            .filter(|(_, a)| a.kind() == AppKind::Be)
            .map(|(i, _)| i)
            .collect();
        let cores = equal_split(machine.cores, apps.len(), &be_idx);
        let ways = equal_split(machine.llc_ways, apps.len(), &be_idx);
        // Strict partitioning covers the memory bandwidth too: equal
        // MBA-style reservations, in MEMBW_UNIT_PCT units.
        let bw_units = equal_split(100 / MEMBW_UNIT_PCT, apps.len(), &be_idx);
        Partition::strict(
            cores
                .into_iter()
                .zip(ways)
                .zip(bw_units)
                .map(|((c, w), bw)| RegionAlloc::new(c, w).with_membw(bw * MEMBW_UNIT_PCT))
                .collect(),
        )
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Option<Partition> {
        self.window += 1;
        let mut partition = ctx.partition.clone();

        // Latency slack, core usage and per-app downsize threshold per LC
        // app (by global app index). The downsize threshold is capped by
        // the app's interference tolerance: an app whose ideal latency
        // sits close to its QoS target can never reach a large slack, and
        // must not be ratcheted upward forever because of that.
        let mut slacks: Vec<(usize, f64)> = Vec::new();
        let mut usage: Vec<(usize, f64)> = Vec::new();
        let mut down_threshold: Vec<(usize, f64)> = Vec::new();
        for (i, a) in ctx.apps.iter().enumerate() {
            if a.kind() != AppKind::Lc {
                continue;
            }
            let st = ctx.obs.lc_by_name(a.name());
            slacks.push((i, st.map(|s| s.slack()).unwrap_or(1.0)));
            usage.push((i, st.map(|s| s.mean_core_capacity).unwrap_or(0.0)));
            let tolerance = st
                .map(|s| 1.0 - s.ideal_ms / s.qos_ms)
                .unwrap_or(DOWNSIZE_SLACK);
            down_threshold.push((i, DOWNSIZE_SLACK.min(0.6 * tolerance)));
        }

        // 1. Revert a tentative downsize that caused a violation.
        if let Some((before, victim)) = self.pending_downsize.take() {
            let violated = slacks
                .iter()
                .find(|(i, _)| *i == victim)
                .map(|(_, s)| *s < 0.0)
                .unwrap_or(false);
            if violated {
                self.hold_until.insert(victim, self.window + HOLD_WINDOWS);
                return Some(before);
            }
        }

        // 2. Upsize the most violating application.
        if let Some(&(victim_of_pressure, worst_slack)) = slacks
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, s)| *s < UPSIZE_SLACK)
        {
            let app = victim_of_pressure;
            // Switch resource type if the last upsize of this type did not
            // improve the slack.
            if let Some(&prev) = self.last_upsize_slack.get(&app) {
                if worst_slack <= prev + 1e-9 {
                    let k = self.fsm_kind(app);
                    self.fsm.insert(app, k.next());
                }
            }
            self.last_upsize_slack.insert(app, worst_slack);
            let mut kind = self.fsm_kind(app);
            // More cores cannot help an application that is not using the
            // cores it already has; its latency problem is cache or
            // bandwidth. Turn the FSM to ways.
            let app_usage = usage
                .iter()
                .find(|(i, _)| *i == app)
                .map(|(_, u)| *u)
                .unwrap_or(0.0);
            if kind == ResourceKind::Cores
                && (partition.isolated(app.into()).cores as f64) > app_usage + 1.0
            {
                kind = ResourceKind::Ways;
                self.fsm.insert(app, kind);
            }

            // Donor: richest BE app first, else the slackest LC app.
            for k in kind.cycle() {
                let donor = donor_for(ctx, &partition, app, k, &slacks, &usage, &down_threshold);
                if let Some(donor) = donor {
                    if Self::move_unit(&mut partition, donor, app, k) {
                        return Some(partition);
                    }
                }
            }
            return None;
        }

        // 3. Everyone comfortable: tentatively downsize the slackest app.
        let comfortable = slacks.iter().all(|&(i, s)| {
            let t = down_threshold
                .iter()
                .find(|(j, _)| *j == i)
                .map(|(_, t)| *t)
                .unwrap_or(DOWNSIZE_SLACK);
            s > t
        });
        if comfortable {
            if let Some(&(app, _)) = slacks
                .iter()
                .filter(|(i, _)| self.hold_until.get(i).copied().unwrap_or(0) <= self.window)
                .max_by(|a, b| a.1.total_cmp(&b.1))
            {
                // Return the unit to the poorest BE app.
                let be_target = ctx
                    .apps
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.kind() == AppKind::Be)
                    .min_by_key(|(i, _)| partition.isolated((*i).into()).cores);
                if let Some((be, _)) = be_target {
                    let kind = self.fsm_kind(app);
                    let before = partition.clone();
                    for k in kind.cycle() {
                        if Self::move_unit(&mut partition, app, be, k) {
                            self.pending_downsize = Some((before, app));
                            return Some(partition);
                        }
                    }
                }
            }
        }
        None
    }
}

/// Picks the donor application for an upsize of `kind` toward `needy`.
///
/// A BE application donates first (richest one). Failing that, an LC
/// application may donate if its slack is safely above its own downsize
/// threshold **and**, for cores, it would still keep one more core than it
/// actually uses — donating a core an application needs triggers the
/// upsize/downsize death spiral the PARTIES paper calls ping-ponging.
fn donor_for(
    ctx: &SchedContext<'_>,
    partition: &Partition,
    needy: usize,
    kind: ResourceKind,
    slacks: &[(usize, f64)],
    usage: &[(usize, f64)],
    down_threshold: &[(usize, f64)],
) -> Option<usize> {
    let has_units = |i: usize| {
        let a = partition.isolated(i.into());
        match kind {
            ResourceKind::Cores => a.cores > 1,
            ResourceKind::Ways => a.ways > 1,
            ResourceKind::Membw => a.membw_pct > MEMBW_UNIT_PCT,
        }
    };
    // Richest BE application first.
    let be = ctx
        .apps
        .iter()
        .enumerate()
        .filter(|(i, a)| a.kind() == AppKind::Be && *i != needy && has_units(*i))
        .max_by_key(|(i, _)| {
            let a = partition.isolated((*i).into());
            match kind {
                ResourceKind::Cores => a.cores,
                ResourceKind::Ways => a.ways,
                ResourceKind::Membw => a.membw_pct,
            }
        })
        .map(|(i, _)| i);
    if be.is_some() {
        return be;
    }
    // Else: the LC application with the most slack, if it is safely above
    // its downsize threshold and can spare the unit.
    slacks
        .iter()
        .filter(|(i, s)| {
            if *i == needy || !has_units(*i) {
                return false;
            }
            let t = down_threshold
                .iter()
                .find(|(j, _)| j == i)
                .map(|(_, t)| *t)
                .unwrap_or(DOWNSIZE_SLACK);
            if *s <= t {
                return false;
            }
            if kind == ResourceKind::Cores {
                let u = usage
                    .iter()
                    .find(|(j, _)| j == i)
                    .map(|(_, u)| *u)
                    .unwrap_or(0.0);
                (partition.isolated((*i).into()).cores as f64) - 1.0 > u + 0.5
            } else {
                true
            }
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| *i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_split_covers_everything() {
        assert_eq!(equal_split(10, 4, &[3]), vec![2, 2, 2, 4]);
        assert_eq!(equal_split(20, 4, &[3]), vec![5, 5, 5, 5]);
        assert_eq!(equal_split(7, 3, &[]), vec![3, 2, 2]);
        assert_eq!(equal_split(10, 4, &[3]).iter().sum::<u32>(), 10);
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn equal_split_needs_enough_units() {
        equal_split(2, 3, &[]);
    }

    #[test]
    fn initial_partition_is_strict_and_full() {
        use ahq_sim::{AppSpec, MachineConfig};
        let apps = vec![
            AppSpec::lc("a").qos_threshold_ms(5.0).build().unwrap(),
            AppSpec::lc("b").qos_threshold_ms(5.0).build().unwrap(),
            AppSpec::be("c").build().unwrap(),
        ];
        let machine = MachineConfig::paper_xeon();
        let p = Parties::new().initial_partition(&machine, &apps);
        assert_eq!(p.isolated_cores(), 10);
        assert_eq!(p.isolated_ways(), 20);
        assert_eq!(p.shared_cores(&machine), 0);
        assert_eq!(
            p.isolated_membw_pct(),
            100,
            "bandwidth is strictly reserved too"
        );
        // BE got the remainder core.
        assert!(p.isolated(2.into()).cores >= p.isolated(0.into()).cores);
    }

    #[test]
    fn move_unit_respects_floor() {
        let mut p = Partition::strict(vec![RegionAlloc::new(1, 1), RegionAlloc::new(2, 2)]);
        assert!(!Parties::move_unit(&mut p, 0, 1, ResourceKind::Cores));
        assert!(Parties::move_unit(&mut p, 1, 0, ResourceKind::Cores));
        assert_eq!(p.isolated(0.into()).cores, 2);
        assert_eq!(p.isolated(1.into()).cores, 1);
        // App 1 still has 2 ways, so a way move succeeds...
        assert!(Parties::move_unit(&mut p, 1, 0, ResourceKind::Ways));
        // ...but now it is at the 1-way floor.
        assert!(!Parties::move_unit(&mut p, 1, 0, ResourceKind::Ways));
    }

    #[test]
    fn resource_kind_cycles() {
        assert_eq!(ResourceKind::Cores.next(), ResourceKind::Ways);
        assert_eq!(ResourceKind::Ways.next(), ResourceKind::Membw);
        assert_eq!(ResourceKind::Membw.next(), ResourceKind::Cores);
        assert_eq!(
            ResourceKind::Ways.cycle(),
            [ResourceKind::Ways, ResourceKind::Membw, ResourceKind::Cores]
        );
    }

    #[test]
    fn membw_moves_in_units_with_floor() {
        let mut p = Partition::strict(vec![
            RegionAlloc::new(1, 1).with_membw(10),
            RegionAlloc::new(1, 1).with_membw(5),
        ]);
        assert!(Parties::move_unit(&mut p, 0, 1, ResourceKind::Membw));
        assert_eq!(p.isolated(0.into()).membw_pct, 5);
        assert_eq!(p.isolated(1.into()).membw_pct, 10);
        // At the floor the donor refuses.
        assert!(!Parties::move_unit(&mut p, 0, 1, ResourceKind::Membw));
    }
}
