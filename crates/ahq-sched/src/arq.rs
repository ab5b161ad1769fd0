use ahq_sim::{AppKind, AppSpec, MachineConfig, MbaLevel, Partition, SharingPolicy};

use crate::parties::{ResourceKind, MEMBW_UNIT_PCT};
use crate::rollback::{Blacklist, SpeculativeMove};
use crate::{SchedContext, Scheduler};

/// A resource region in ARQ's model: one LC application's isolated region,
/// or the single shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Region {
    /// The shared region (BE applications live here; LC applications
    /// overflow into it).
    Shared,
    /// The isolated region of the LC application with this global index.
    Isolated(usize),
}

/// Tuning knobs of [`Arq`], defaulting to the constants of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArqConfig {
    /// An isolated region may donate resources while its application's
    /// remaining tolerance exceeds this (Algorithm 1: 0.1).
    pub victim_ret: f64,
    /// An application with remaining tolerance below this receives
    /// resources into its isolated region (Algorithm 1: 0.05).
    pub beneficiary_ret: f64,
    /// How long a rolled-back victim region is protected from being
    /// penalized again, in seconds (Algorithm 1: 60 s).
    pub blacklist_secs: f64,
    /// Tolerance when comparing consecutive entropy values. Window-to-window
    /// entropy carries sampling noise of a few hundredths; an adjustment is
    /// only cancelled when the increase clearly exceeds that noise floor.
    pub entropy_epsilon: f64,
    /// How the shared region's cores are divided. The paper's ARQ gives
    /// LC applications strict priority there; `Fair` exists for ablation.
    pub sharing: SharingPolicy,
    /// Whether ARQ may additionally throttle BE memory bandwidth with
    /// MBA-style levels. Off by default — Algorithm 1 negotiates cores,
    /// ways and bandwidth reservations only; this gate adds a tighten /
    /// relax step over [`MbaLevel`] for the membw ablation family.
    pub throttle_be: bool,
}

impl Default for ArqConfig {
    fn default() -> Self {
        ArqConfig {
            victim_ret: 0.1,
            beneficiary_ret: 0.05,
            blacklist_secs: 60.0,
            entropy_epsilon: 0.025,
            sharing: SharingPolicy::LcPriority,
            throttle_be: false,
        }
    }
}

/// The ARQ scheduling strategy — Algorithm 1 of the Ah-Q paper.
///
/// ARQ divides the machine into per-LC-application *isolated regions* plus
/// one *shared region*. BE applications can only use the shared region; LC
/// applications use their own isolated region *and* the shared region
/// (with priority over BE). Every monitoring window ARQ:
///
/// 1. computes the system entropy `E_S` and each LC application's
///    remaining tolerance `ReT_i`;
/// 2. if the previous adjustment *increased* `E_S`, cancels it and
///    blacklists the penalized region for 60 s;
/// 3. otherwise moves one resource unit (cores first, then LLC ways, via a
///    PARTIES-style resource FSM) from a *victim region* — the
///    highest-`ReT` application holding isolated resources, else the
///    shared region — to a *beneficiary region* — the isolated region of
///    the lowest-`ReT` application if it is under 0.05, else the shared
///    region. Victim == beneficiary means equilibrium: no action.
#[derive(Debug)]
pub struct Arq {
    config: ArqConfig,
    is_adjust: bool,
    prev_entropy: f64,
    last: Option<SpeculativeMove<Partition, Region>>,
    blacklist: Blacklist<Region>,
    fsm: ResourceKind,
}

impl Arq {
    /// Creates ARQ with the paper's constants.
    pub fn new() -> Self {
        Self::with_config(ArqConfig::default())
    }

    /// Creates ARQ with explicit constants.
    pub fn with_config(config: ArqConfig) -> Self {
        Arq {
            config,
            is_adjust: false,
            prev_entropy: 1.0, // Algorithm 1 line 2
            last: None,
            blacklist: Blacklist::new(),
            fsm: ResourceKind::Cores,
        }
    }

    fn blacklisted(&self, region: Region, now_s: f64) -> bool {
        self.blacklist.active(&region, now_s)
    }

    /// The remaining-tolerance array: `(global app index, ReT)` per LC
    /// application, from the entropy report the runner computed.
    fn ret_array(ctx: &SchedContext<'_>) -> Vec<(usize, f64)> {
        ctx.entropy
            .lc_apps
            .iter()
            .map(|r| {
                let idx = ctx
                    .apps
                    .iter()
                    .position(|a| a.name() == r.name)
                    .expect("entropy report names a registered app");
                (idx, r.remaining_tolerance)
            })
            .collect()
    }

    /// Algorithm 1, `findVictimRegion`: traverse ReT in descending order;
    /// the first application with `ReT > 0.1` that holds penalizable
    /// isolated resources (and is not blacklisted) donates; otherwise the
    /// shared region does.
    fn find_victim(
        &self,
        ctx: &SchedContext<'_>,
        ret: &[(usize, f64)],
        now_s: f64,
    ) -> Option<Region> {
        let mut by_ret = ret.to_vec();
        by_ret.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(idx, r) in &by_ret {
            if r <= self.config.victim_ret {
                break; // descending order: nobody further qualifies
            }
            let region = Region::Isolated(idx);
            let alloc = ctx.partition.isolated(idx.into());
            if !alloc.is_empty() && !self.blacklisted(region, now_s) {
                return Some(region);
            }
        }
        if self.blacklisted(Region::Shared, now_s) {
            None
        } else {
            Some(Region::Shared)
        }
    }

    /// Algorithm 1, `findBeneficiaryRegion`: the lowest-ReT application's
    /// isolated region if it is starving, else the shared region.
    fn find_beneficiary(&self, ret: &[(usize, f64)]) -> Region {
        match ret.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
            Some(&(idx, r)) if r < self.config.beneficiary_ret => Region::Isolated(idx),
            _ => Region::Shared,
        }
    }

    /// Whether giving `kind` to the beneficiary can plausibly help it:
    /// handing more cores to an application that is not using the cores it
    /// can already reach only starves everyone else (its bottleneck is
    /// cache or bandwidth). The paper's ARQ snapshots show the same
    /// behaviour — a 30 %-loaded Xapian holds just one isolated core.
    fn kind_can_help(ctx: &SchedContext<'_>, beneficiary: Region, kind: ResourceKind) -> bool {
        let Region::Isolated(b) = beneficiary else {
            return true;
        };
        if kind != ResourceKind::Cores {
            return true;
        }
        let name = ctx.apps[b].name();
        let Some(stats) = ctx.obs.lc_by_name(name) else {
            return true;
        };
        let iso_cores = ctx.partition.isolated(b.into()).cores as f64;
        // The app's threads cap how many cores it can ever use.
        let threads = ctx.apps[b].threads() as f64;
        iso_cores < (stats.mean_core_capacity + 1.0).min(threads)
    }

    /// Attempts to move one unit of `kind` from `victim` to `beneficiary`.
    /// Returns the new partition, or `None` when the move would be
    /// infeasible (empty donor, or it would leave the shared region unable
    /// to host the applications that depend on it).
    fn try_move(
        ctx: &SchedContext<'_>,
        victim: Region,
        beneficiary: Region,
        kind: ResourceKind,
    ) -> Option<Partition> {
        let mut p = ctx.partition.clone();
        // Donate.
        match victim {
            Region::Isolated(v) => {
                let mut a = p.isolated(v.into());
                match kind {
                    ResourceKind::Cores => {
                        if a.cores == 0 {
                            return None;
                        }
                        a.cores -= 1;
                    }
                    ResourceKind::Ways => {
                        if a.ways == 0 {
                            return None;
                        }
                        a.ways -= 1;
                    }
                    ResourceKind::Membw => {
                        if a.membw_pct < MEMBW_UNIT_PCT {
                            return None;
                        }
                        a.membw_pct -= MEMBW_UNIT_PCT;
                    }
                }
                p.set_isolated(v.into(), a);
            }
            Region::Shared => { /* implicit: receiving into an isolated region shrinks it */ }
        }
        // Receive.
        match beneficiary {
            Region::Isolated(b) => {
                let mut a = p.isolated(b.into());
                match kind {
                    ResourceKind::Cores => a.cores += 1,
                    ResourceKind::Ways => a.ways += 1,
                    ResourceKind::Membw => a.membw_pct += MEMBW_UNIT_PCT,
                }
                p.set_isolated(b.into(), a);
            }
            Region::Shared => { /* implicit: donation already grew it */ }
        }
        if p.validate(ctx.machine).is_err() {
            return None;
        }
        // The shared region must keep at least one core while any
        // application (every BE app under ARQ) has no isolated core, and at
        // least one way while anyone depends on shared cache.
        let needs_shared_core = p.iter().any(|(_, a)| a.cores == 0);
        if needs_shared_core && p.shared_cores(ctx.machine) == 0 {
            return None;
        }
        let needs_shared_way = p.iter().any(|(_, a)| a.ways == 0);
        if needs_shared_way && p.shared_ways(ctx.machine) == 0 {
            return None;
        }
        // Keep a meaningful bandwidth pool while anyone depends on it.
        let needs_pool = p.iter().any(|(_, a)| a.membw_pct == 0);
        if needs_pool && p.shared_membw_pct() < 20 {
            return None;
        }
        Some(p)
    }

    /// The gated MBA step (`throttle_be`): when some LC application is
    /// starving (`min ReT < beneficiary_ret`), tighten the loosest
    /// non-blacklisted BE application one level; when every LC application
    /// is comfortable (`ReT > victim_ret` across the board), relax the
    /// tightest throttled BE application one level. Returns the adjusted
    /// partition and the BE region it touched, so the caller can enrol the
    /// move in the entropy-rollback machinery like any other adjustment.
    fn throttle_step(
        &self,
        ctx: &SchedContext<'_>,
        ret: &[(usize, f64)],
        now_s: f64,
    ) -> Option<(Partition, Region)> {
        let min_ret = ret.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        let be = |i: &usize| ctx.apps[*i].kind() == AppKind::Be;
        if min_ret < self.config.beneficiary_ret {
            // Tighten: BE bandwidth pressure is the suspected interferer.
            let target = (0..ctx.apps.len())
                .filter(be)
                .filter(|&i| !self.blacklisted(Region::Isolated(i), now_s))
                .max_by_key(|&i| ctx.partition.isolated(i.into()).mba.pct())?;
            let alloc = ctx.partition.isolated(target.into());
            if alloc.mba.pct() <= MbaLevel::MIN_PCT {
                return None; // already at the tightest hardware level
            }
            let mut p = ctx.partition.clone();
            p.set_isolated(target.into(), alloc.with_mba(alloc.mba.tighten()));
            p.validate(ctx.machine).ok()?;
            Some((p, Region::Isolated(target)))
        } else if ret.iter().all(|&(_, r)| r > self.config.victim_ret) {
            // Relax: nobody needs the protection any more; hand bandwidth
            // back to the throttled BE application one level at a time.
            let target = (0..ctx.apps.len())
                .filter(be)
                .filter(|&i| !ctx.partition.isolated(i.into()).mba.is_unthrottled())
                .min_by_key(|&i| ctx.partition.isolated(i.into()).mba.pct())?;
            let alloc = ctx.partition.isolated(target.into());
            let mut p = ctx.partition.clone();
            p.set_isolated(target.into(), alloc.with_mba(alloc.mba.relax()));
            Some((p, Region::Isolated(target)))
        } else {
            None
        }
    }
}

impl Arq {
    /// Falls through to the gated MBA step when the core/way/reservation
    /// machinery found nothing to do; a successful throttle move enrols in
    /// the same entropy-rollback protocol as every other adjustment.
    fn throttle_or_idle(
        &mut self,
        ctx: &SchedContext<'_>,
        ret: &[(usize, f64)],
    ) -> Option<Partition> {
        if self.config.throttle_be {
            if let Some((p, touched)) = self.throttle_step(ctx, ret, ctx.now_s) {
                self.last = Some(SpeculativeMove::new(ctx.partition.clone(), touched));
                self.is_adjust = true;
                return Some(p);
            }
        }
        self.is_adjust = false;
        None
    }
}

impl Default for Arq {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for Arq {
    fn name(&self) -> &'static str {
        "arq"
    }

    fn policy(&self) -> SharingPolicy {
        self.config.sharing
    }

    fn initial_partition(&self, _machine: &MachineConfig, apps: &[AppSpec]) -> Partition {
        // Everything starts shared; isolation grows only where feedback
        // demands it ("if an LC application running in the shared region
        // can satisfy its QoS target, the resources of the isolated region
        // will be reduced to 0").
        Partition::all_shared(apps.len())
    }

    fn decide(&mut self, ctx: &SchedContext<'_>) -> Option<Partition> {
        debug_assert!(
            ctx.apps.iter().any(|a| a.kind() == AppKind::Lc),
            "ARQ manages mixes with at least one LC application"
        );
        // The window's own entropy is the feedback signal: the rollback
        // check must see the previous adjustment's effect immediately.
        let entropy = ctx.entropy.system;
        let ret = Self::ret_array(ctx);

        // Algorithm 1 lines 9-11: cancel an adjustment that made things
        // worse and protect the victim from being penalized again.
        if self.is_adjust && entropy > self.prev_entropy + self.config.entropy_epsilon {
            self.is_adjust = false;
            self.prev_entropy = entropy;
            // "Try to take new adjustment action to avoid trapping in a
            // local optimum": the cancelled move's resource type did not
            // work; turn the FSM to the next type.
            self.fsm = self.fsm.next();
            if let Some(m) = self.last.take() {
                self.blacklist
                    .protect(m.touched, ctx.now_s + self.config.blacklist_secs);
                return Some(m.before);
            }
            return None;
        }
        self.prev_entropy = entropy;

        // Algorithm 1, AdjustResource.
        let Some(victim) = self.find_victim(ctx, &ret, ctx.now_s) else {
            // Every eligible victim region is blacklisted right now.
            return self.throttle_or_idle(ctx, &ret);
        };
        let beneficiary = self.find_beneficiary(&ret);
        if victim == beneficiary {
            // Both shared (or same region): equilibrium — the only move
            // left, if enabled, is handing throttled bandwidth back.
            return self.throttle_or_idle(ctx, &ret);
        }

        // findVictimResource: stay on the FSM's current resource type until
        // it cannot be penalized (or cannot help the beneficiary), then
        // turn to the next type.
        for kind in self.fsm.cycle() {
            if !Self::kind_can_help(ctx, beneficiary, kind) {
                continue;
            }
            if let Some(p) = Self::try_move(ctx, victim, beneficiary, kind) {
                self.fsm = kind;
                self.last = Some(SpeculativeMove::new(ctx.partition.clone(), victim));
                self.is_adjust = true;
                return Some(p);
            }
        }
        // No movable core / way / reservation unit: the MBA step is the
        // remaining actuator.
        self.throttle_or_idle(ctx, &ret)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_core::{EntropyModel, EntropyReport, LcMeasurement};
    use ahq_sim::RegionAlloc;
    use ahq_sim::WindowObservation;

    fn specs() -> Vec<AppSpec> {
        vec![
            AppSpec::lc("lc0")
                .mean_service_ms(1.0)
                .qos_threshold_ms(5.0)
                .max_load_qps(1000.0)
                .build()
                .unwrap(),
            AppSpec::lc("lc1")
                .mean_service_ms(1.0)
                .qos_threshold_ms(5.0)
                .max_load_qps(1000.0)
                .build()
                .unwrap(),
            AppSpec::be("be").build().unwrap(),
        ]
    }

    /// Builds a context whose entropy report encodes the given observed
    /// latencies for lc0/lc1.
    fn make_entropy(lat0: f64, lat1: f64) -> EntropyReport {
        let model = EntropyModel::default();
        let lc = vec![
            LcMeasurement::new("lc0", 2.0, lat0, 5.0).unwrap(),
            LcMeasurement::new("lc1", 2.0, lat1, 5.0).unwrap(),
        ];
        model.evaluate(&lc, &[])
    }

    fn make_obs() -> WindowObservation {
        WindowObservation {
            window_index: 0,
            start_ms: 0.0,
            end_ms: 500.0,
            lc: vec![],
            be: vec![],
        }
    }

    struct Fixture {
        machine: MachineConfig,
        apps: Vec<AppSpec>,
        obs: WindowObservation,
    }

    impl Fixture {
        fn new() -> Self {
            Fixture {
                machine: MachineConfig::paper_xeon(),
                apps: specs(),
                obs: make_obs(),
            }
        }

        fn ctx<'a>(
            &'a self,
            partition: &'a Partition,
            entropy: &'a EntropyReport,
            now_s: f64,
        ) -> SchedContext<'a> {
            SchedContext {
                machine: &self.machine,
                apps: &self.apps,
                partition,
                obs: &self.obs,
                entropy,
                now_s,
            }
        }
    }

    #[test]
    fn starving_app_gains_an_isolated_core_from_shared() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        let p = Partition::all_shared(3);
        // lc0 violating badly (ReT 0), lc1 comfortable (shared has plenty).
        let e = make_entropy(6.0, 2.2);
        let next = arq.decide(&fx.ctx(&p, &e, 0.5)).expect("should adjust");
        assert_eq!(next.isolated(0.into()), RegionAlloc::new(1, 0));
        assert_eq!(next.isolated(1.into()), RegionAlloc::EMPTY);
        assert_eq!(next.isolated(2.into()), RegionAlloc::EMPTY);
    }

    #[test]
    fn rich_isolated_region_donates_before_shared() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        let mut p = Partition::all_shared(3);
        // lc1 holds isolated cores but has huge remaining tolerance.
        p.set_isolated(1.into(), RegionAlloc::new(3, 4));
        let e = make_entropy(6.0, 2.2); // lc1 ReT = 1 - 2.2/5 = 0.56 > 0.1
        let next = arq.decide(&fx.ctx(&p, &e, 0.5)).expect("should adjust");
        assert_eq!(next.isolated(1.into()).cores, 2, "lc1 donated one core");
        assert_eq!(next.isolated(0.into()).cores, 1, "lc0 received it");
    }

    #[test]
    fn equilibrium_means_no_action() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        let p = Partition::all_shared(3);
        // Both apps comfortable, nobody isolated: victim and beneficiary
        // are both the shared region.
        let e = make_entropy(2.2, 2.4);
        assert!(arq.decide(&fx.ctx(&p, &e, 0.5)).is_none());
    }

    #[test]
    fn worsening_entropy_rolls_back_and_blacklists() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        let mut p = Partition::all_shared(3);
        p.set_isolated(1.into(), RegionAlloc::new(3, 4));

        // First adjustment: lc1 donates to lc0.
        let e1 = make_entropy(6.0, 2.2);
        let p1 = arq.decide(&fx.ctx(&p, &e1, 0.5)).unwrap();

        // Entropy got *worse*: rollback to the pre-adjustment partition.
        let e2 = make_entropy(9.0, 2.2);
        assert!(e2.system > e1.system);
        let rolled = arq.decide(&fx.ctx(&p1, &e2, 1.0)).unwrap();
        assert_eq!(rolled, p);

        // The blacklisted victim (lc1's region) is not penalized again
        // within 60 s: the next donation comes from the shared region, and
        // the FSM turned to the next resource type (ways) because the core
        // move did not pay off.
        let e3 = make_entropy(6.0, 2.2);
        let p3 = arq.decide(&fx.ctx(&rolled, &e3, 1.5)).unwrap();
        assert_eq!(
            p3.isolated(1.into()),
            RegionAlloc::new(3, 4),
            "blacklisted region untouched"
        );
        assert_eq!(
            p3.isolated(0.into()),
            RegionAlloc::new(0, 1),
            "shared donated a way instead"
        );
    }

    #[test]
    fn blacklist_expires() {
        let mut arq = Arq::new();
        let region = Region::Isolated(1);
        arq.blacklist.protect(region, 60.0);
        assert!(arq.blacklisted(region, 30.0));
        assert!(!arq.blacklisted(region, 61.0));
    }

    #[test]
    fn shared_region_keeps_a_core_for_be_apps() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        // 9 of 10 cores already isolated; the BE app lives on the last
        // shared core, which must not be taken.
        let mut p = Partition::all_shared(3);
        p.set_isolated(0.into(), RegionAlloc::new(9, 0));
        let e = make_entropy(6.0, 2.2);
        // Beneficiary is lc0's isolated region; victim falls back to
        // shared (lc1 has nothing isolated). Moving a core is infeasible,
        // so the FSM turns to ways.
        let next = arq.decide(&fx.ctx(&p, &e, 0.5)).unwrap();
        assert_eq!(next.shared_cores(&fx.machine), 1);
        assert_eq!(next.isolated(0.into()).ways, 1, "a way moved instead");
    }

    #[test]
    fn fsm_prefers_cores_then_ways() {
        let arq = Arq::new();
        assert_eq!(arq.fsm, ResourceKind::Cores);
    }

    #[test]
    fn throttle_step_tightens_loosest_be_when_lc_starves() {
        let fx = Fixture::new();
        let arq = Arq::with_config(ArqConfig {
            throttle_be: true,
            ..ArqConfig::default()
        });
        let p = Partition::all_shared(3);
        let e = make_entropy(6.0, 2.2); // lc0 ReT < 0: starving
        let ctx = fx.ctx(&p, &e, 0.5);
        let ret = Arq::ret_array(&ctx);
        let (next, touched) = arq.throttle_step(&ctx, &ret, 0.5).expect("tightens");
        assert_eq!(touched, Region::Isolated(2), "the BE app's region");
        assert_eq!(next.isolated(2.into()).mba.pct(), 100 - MbaLevel::STEP_PCT);
        assert!(next.has_throttle());
    }

    #[test]
    fn equilibrium_relaxes_a_throttled_be_app() {
        let fx = Fixture::new();
        let mut arq = Arq::with_config(ArqConfig {
            throttle_be: true,
            ..ArqConfig::default()
        });
        let mut p = Partition::all_shared(3);
        p.set_isolated(2.into(), RegionAlloc::EMPTY.with_mba(MbaLevel::new(40)));
        // Both LC apps comfortable (ReT well above victim_ret): the only
        // remaining move is handing bandwidth back, one level at a time.
        let e = make_entropy(2.2, 2.4);
        let next = arq.decide(&fx.ctx(&p, &e, 0.5)).expect("relaxes");
        assert_eq!(next.isolated(2.into()).mba.pct(), 50);
    }

    #[test]
    fn throttle_gate_off_stays_idle_at_equilibrium() {
        let fx = Fixture::new();
        let mut arq = Arq::new();
        let mut p = Partition::all_shared(3);
        p.set_isolated(2.into(), RegionAlloc::EMPTY.with_mba(MbaLevel::new(40)));
        let e = make_entropy(2.2, 2.4);
        assert!(
            arq.decide(&fx.ctx(&p, &e, 0.5)).is_none(),
            "default config must never touch MBA levels"
        );
    }

    #[test]
    fn tighten_rolls_back_when_entropy_worsens() {
        let fx = Fixture::new();
        let mut arq = Arq::with_config(ArqConfig {
            throttle_be: true,
            ..ArqConfig::default()
        });
        // Cores cannot move (shared would drop to zero for the BE app) and
        // neither can ways, once everything but the floor is isolated; use
        // the blacklist to force the throttle path instead: both the
        // shared region and every LC region are blacklisted.
        let p = Partition::all_shared(3);
        arq.blacklist.protect(Region::Shared, 100.0);
        arq.blacklist.protect(Region::Isolated(0), 100.0);
        arq.blacklist.protect(Region::Isolated(1), 100.0);
        let e1 = make_entropy(6.0, 2.2);
        let p1 = arq.decide(&fx.ctx(&p, &e1, 0.5)).expect("tightens BE");
        assert_eq!(p1.isolated(2.into()).mba.pct(), 90);
        // Entropy got worse: the throttle move is cancelled like any other
        // adjustment and the BE region is protected for blacklist_secs.
        let e2 = make_entropy(9.0, 2.2);
        let rolled = arq.decide(&fx.ctx(&p1, &e2, 1.0)).expect("rolls back");
        assert_eq!(rolled, p);
        assert!(arq.blacklisted(Region::Isolated(2), 30.0));
    }
}
