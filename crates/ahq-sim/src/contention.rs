use crate::app::AppKind;
use crate::bandwidth::BandwidthModel;
use crate::cache::MissRatioCurve;
use crate::partition::Partition;
use crate::resources::MachineConfig;

/// How the shared region's cores are divided among the threads that spill
/// into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SharingPolicy {
    /// CFS-like fair sharing: every runnable thread gets an equal slice.
    /// This is the paper's *Unmanaged* strategy.
    Fair,
    /// Strict LC priority: LC threads are served first (preempting BE), BE
    /// threads share what remains. This is the paper's *LC-first* strategy
    /// and the shared-region discipline of ARQ.
    LcPriority,
}

/// One application's instantaneous demand on the fluid contention model.
#[derive(Debug, Clone)]
pub struct AppDemand {
    /// LC or BE.
    pub kind: AppKind,
    /// Currently runnable threads: in-service requests for LC, all threads
    /// for BE.
    pub busy: u32,
    /// Miss-ratio curve (normalised against the reference machine).
    pub curve: MissRatioCurve,
    /// Bandwidth appetite per running thread at the full-cache miss ratio,
    /// GB/s.
    pub bw_per_thread: f64,
}

/// The instantaneous rates granted to one application by
/// [`compute_rates`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppRates {
    /// Fractional cores granted (isolated cores actually used plus the
    /// shared-region grant). Never exceeds `busy`.
    pub core_capacity: f64,
    /// Effective LLC ways (isolated plus pressure-weighted shared share).
    pub effective_ways: f64,
    /// Cache speed factor in `(0, 1]` (relative to the full machine).
    pub cache_factor: f64,
    /// Memory-bandwidth speed factor in `(0, 1]`.
    pub membw_factor: f64,
    /// Service progress per running thread: `min(1, capacity/busy) *
    /// cache_factor * membw_factor`. Equals `cache * membw` when idle.
    pub speed_per_thread: f64,
}

/// Mild extra conflict pressure per additional sharer of the shared LLC
/// ways: beyond the capacity split, co-runners also cause conflict misses
/// and coherence traffic.
const SHARED_WAY_CONFLICT: f64 = 0.08;

/// Reusable scratch buffers for [`compute_rates_into`]: every intermediate
/// vector of the three solver phases lives here, so a caller that keeps a
/// `RateScratch` alive pays zero heap allocations per solve after the
/// first call at a given application count.
///
/// The buffers are an implementation detail — callers only construct the
/// scratch and hand it back in; contents between calls are unspecified.
#[derive(Debug, Default)]
pub struct RateScratch {
    iso_use: Vec<f64>,
    overflow: Vec<f64>,
    grants: Vec<f64>,
    lc_overflow: Vec<f64>,
    be_overflow: Vec<f64>,
    pressures: Vec<f64>,
    effective_ways: Vec<f64>,
    cache_factors: Vec<f64>,
    capacities: Vec<f64>,
    bw_demand: Vec<f64>,
    eff_demand: Vec<f64>,
    reserved: Vec<f64>,
    unmet: Vec<f64>,
    saturations: Vec<f64>,
}

impl RateScratch {
    /// Creates an empty scratch; buffers grow to the application count on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Computes every application's instantaneous resource rates under the
/// fluid contention model. Pure function of the current demands,
/// partition, policy and machine; the node calls it whenever the set of
/// busy threads or the partition changes.
///
/// Thin allocating wrapper around [`compute_rates_into`]; hot callers
/// (the node's event loop, on a [`crate::RateCache`] miss) keep a
/// [`RateScratch`] and an output buffer alive instead.
pub fn compute_rates(
    machine: &MachineConfig,
    partition: &Partition,
    demands: &[AppDemand],
    policy: SharingPolicy,
    bw: &BandwidthModel,
) -> Vec<AppRates> {
    let mut scratch = RateScratch::new();
    let mut out = Vec::with_capacity(demands.len());
    compute_rates_into(
        machine,
        partition,
        demands,
        policy,
        bw,
        &mut scratch,
        &mut out,
    );
    out
}

/// [`compute_rates`] with caller-provided buffers: all intermediate
/// vectors live in `scratch` and the result is written into `out`
/// (cleared first). The arithmetic is element-for-element identical to
/// the historical allocating implementation — reductions run in the same
/// order — so results are bit-identical.
pub fn compute_rates_into(
    machine: &MachineConfig,
    partition: &Partition,
    demands: &[AppDemand],
    policy: SharingPolicy,
    bw: &BandwidthModel,
    scratch: &mut RateScratch,
    out: &mut Vec<AppRates>,
) {
    assert_eq!(
        partition.num_apps(),
        demands.len(),
        "partition and demand vector must cover the same applications"
    );

    let shared_cores = partition.shared_cores(machine) as f64;
    let shared_ways = partition.shared_ways(machine) as f64;

    // --- Phase 1: core allocation -------------------------------------
    // Isolated cores are used up to the owner's busy thread count; the
    // spill (busy threads beyond isolated cores) competes in the shared
    // region according to the sharing policy.
    scratch.iso_use.clear();
    scratch.iso_use.extend(
        demands
            .iter()
            .enumerate()
            .map(|(i, d)| (d.busy as f64).min(partition.isolated(i.into()).cores as f64)),
    );
    let iso_use = &scratch.iso_use;
    scratch.overflow.clear();
    scratch.overflow.extend(
        demands
            .iter()
            .enumerate()
            .map(|(i, d)| (d.busy as f64 - iso_use[i]).max(0.0)),
    );

    match policy {
        SharingPolicy::Fair => grant_fairly(&scratch.overflow, shared_cores, &mut scratch.grants),
        SharingPolicy::LcPriority => grant_with_priority(
            demands,
            &scratch.overflow,
            shared_cores,
            &mut scratch.lc_overflow,
            &mut scratch.be_overflow,
            &mut scratch.grants,
        ),
    };

    // --- Phase 2: LLC way division -------------------------------------
    // Every application's CLOS covers its isolated ways plus the shared
    // ways; the shared ways are divided by footprint-weighted pressure,
    // with a mild conflict penalty per extra sharer.
    scratch.pressures.clear();
    scratch.pressures.extend(demands.iter().map(|d| {
        // Idle applications keep warm data in the cache, so they retain
        // some pressure even with zero busy threads.
        d.curve.footprint_ways() * (d.busy as f64).max(0.5)
    }));
    let total_pressure: f64 = scratch.pressures.iter().sum();
    let sharers = demands.iter().filter(|d| d.busy > 0).count().max(1);
    let conflict = 1.0 / (1.0 + SHARED_WAY_CONFLICT * (sharers as f64 - 1.0));

    let pressures = &scratch.pressures;
    scratch.effective_ways.clear();
    scratch
        .effective_ways
        .extend(demands.iter().enumerate().map(|(i, _)| {
            let iso = partition.isolated(i.into()).ways as f64;
            let share = if total_pressure > 0.0 {
                shared_ways * pressures[i] / total_pressure * conflict
            } else {
                0.0
            };
            iso + share
        }));
    let effective_ways = &scratch.effective_ways;

    // --- Phase 3: bandwidth saturation ---------------------------------
    // Each application's bandwidth is its MBA-style reservation plus a
    // demand-proportional share of the unreserved pool; its individual
    // saturation is what it was granted over what it asked for. With no
    // reservations this reduces to the global-pool model.
    scratch.cache_factors.clear();
    scratch.cache_factors.extend(
        demands
            .iter()
            .enumerate()
            .map(|(i, d)| d.curve.speed_factor(effective_ways[i])),
    );
    scratch.capacities.clear();
    scratch.capacities.extend(
        iso_use
            .iter()
            .zip(scratch.grants.iter())
            .map(|(iso, grant)| iso + grant),
    );
    let capacities = &scratch.capacities;
    scratch.bw_demand.clear();
    scratch.bw_demand.extend(
        demands.iter().enumerate().map(|(i, d)| {
            d.bw_per_thread * capacities[i] * d.curve.traffic_factor(effective_ways[i])
        }),
    );
    // MBA throttle: a throttled region may not *pull* more than its
    // level's share of peak bandwidth, so its effective demand on the
    // memory system is capped. Unthrottled levels map to an infinite cap,
    // making `min` a bit-identical no-op for legacy partitions. The
    // throttled app's own saturation (below) stays relative to its uncapped
    // appetite — the cap slows it down — while its capped demand stops
    // draining the shared pool, relieving every co-runner.
    scratch.eff_demand.clear();
    scratch.eff_demand.extend((0..demands.len()).map(|i| {
        let cap = partition.isolated(i.into()).mba.cap_fraction() * bw.capacity_gbps();
        scratch.bw_demand[i].min(cap)
    }));
    scratch.reserved.clear();
    scratch.reserved.extend(
        (0..demands.len())
            .map(|i| partition.isolated(i.into()).membw_pct as f64 / 100.0 * bw.capacity_gbps()),
    );
    let pool = partition.shared_membw_pct() as f64 / 100.0 * bw.capacity_gbps();
    scratch.unmet.clear();
    scratch.unmet.extend(
        scratch
            .eff_demand
            .iter()
            .zip(scratch.reserved.iter())
            .map(|(d, r)| (d - r).max(0.0)),
    );
    let total_unmet: f64 = scratch.unmet.iter().sum();
    let pool_fraction = if total_unmet <= pool {
        1.0
    } else {
        pool / total_unmet
    };
    let bw_demand = &scratch.bw_demand;
    let eff_demand = &scratch.eff_demand;
    let reserved = &scratch.reserved;
    let unmet = &scratch.unmet;
    scratch.saturations.clear();
    scratch.saturations.extend((0..demands.len()).map(|i| {
        if bw_demand[i] <= 1e-12 {
            return 1.0;
        }
        let granted = eff_demand[i].min(reserved[i]) + unmet[i] * pool_fraction;
        (granted / bw_demand[i]).clamp(1e-6, 1.0)
    }));

    let cache_factors = &scratch.cache_factors;
    let saturations = &scratch.saturations;
    out.clear();
    out.extend(demands.iter().enumerate().map(|(i, d)| {
        let membw_factor = BandwidthModel::memory_slowdown(
            saturations[i],
            d.curve.memory_fraction(effective_ways[i]),
        );
        let core_share = if d.busy > 0 {
            (capacities[i] / d.busy as f64).min(1.0)
        } else {
            1.0
        };
        AppRates {
            core_capacity: capacities[i],
            effective_ways: effective_ways[i],
            cache_factor: cache_factors[i],
            membw_factor,
            speed_per_thread: core_share * cache_factors[i] * membw_factor,
        }
    }));
}

/// Fair division: every overflowing thread gets the same share of the
/// shared cores, capped at one core per thread.
fn grant_fairly(overflow: &[f64], shared_cores: f64, grants: &mut Vec<f64>) {
    grants.clear();
    grants.extend_from_slice(overflow);
    proportional_in_place(grants, shared_cores);
}

/// Priority division: LC overflow is served first, BE shares the rest.
fn grant_with_priority(
    demands: &[AppDemand],
    overflow: &[f64],
    shared_cores: f64,
    lc_overflow: &mut Vec<f64>,
    be_overflow: &mut Vec<f64>,
    grants: &mut Vec<f64>,
) {
    lc_overflow.clear();
    lc_overflow.extend(demands.iter().zip(overflow.iter()).map(|(d, &o)| {
        if d.kind == AppKind::Lc {
            o
        } else {
            0.0
        }
    }));
    be_overflow.clear();
    be_overflow.extend(demands.iter().zip(overflow.iter()).map(|(d, &o)| {
        if d.kind == AppKind::Be {
            o
        } else {
            0.0
        }
    }));
    proportional_in_place(lc_overflow, shared_cores);
    let lc_used: f64 = lc_overflow.iter().sum();
    proportional_in_place(be_overflow, (shared_cores - lc_used).max(0.0));
    grants.clear();
    grants.extend(
        lc_overflow
            .iter()
            .zip(be_overflow.iter())
            .map(|(a, b)| a + b),
    );
}

/// Divides `budget` cores across per-application thread demands, scaling
/// the demand vector in place. Every thread asks for exactly one core, so
/// CFS-style equal-per-thread sharing is the same as granting each
/// application `demand * min(1, budget / total)` — no application ever
/// receives more cores than it has runnable threads.
fn proportional_in_place(demands: &mut [f64], budget: f64) {
    let total: f64 = demands.iter().sum();
    if total <= budget || total <= 0.0 {
        return;
    }
    let scale = budget / total;
    for d in demands {
        *d *= scale;
    }
}

/// Allocating form of [`proportional_in_place`], kept for the unit tests
/// that document the sharing semantics.
#[cfg(test)]
fn proportional(demands: &[f64], budget: f64) -> Vec<f64> {
    let mut v = demands.to_vec();
    proportional_in_place(&mut v, budget);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RegionAlloc;

    fn demand(kind: AppKind, _threads: u32, busy: u32) -> AppDemand {
        AppDemand {
            kind,
            busy,
            curve: MissRatioCurve::new(0.1, 5.0, 0.8, 20),
            bw_per_thread: 1.0,
        }
    }

    fn machine() -> MachineConfig {
        MachineConfig::paper_xeon()
    }

    fn bw() -> BandwidthModel {
        BandwidthModel::new(machine().membw_gbps)
    }

    #[test]
    fn proportional_respects_demand_caps() {
        let grants = proportional(&[2.0, 4.0, 0.0], 10.0);
        assert_eq!(grants, vec![2.0, 4.0, 0.0]); // budget exceeds demand
        let grants = proportional(&[2.0, 2.0], 2.0);
        assert!((grants[0] - 1.0).abs() < 1e-9);
        assert!((grants[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_is_per_thread_fair() {
        // 6 threads share 4 cores: each thread gets 2/3 of a core.
        let grants = proportional(&[1.0, 5.0], 4.0);
        assert!((grants[0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((grants[1] - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fair_sharing_splits_evenly() {
        let demands = vec![demand(AppKind::Lc, 4, 4), demand(AppKind::Be, 4, 4)];
        let p = Partition::all_shared(2);
        let rates = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        // 10 cores for 8 busy threads: everyone fully served.
        assert!((rates[0].core_capacity - 4.0).abs() < 1e-9);
        assert!((rates[1].core_capacity - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fair_sharing_scales_down_when_oversubscribed() {
        let demands = vec![demand(AppKind::Lc, 8, 8), demand(AppKind::Be, 8, 8)];
        let m = machine().with_budget(8, 20);
        let p = Partition::all_shared(2);
        let rates = compute_rates(&m, &p, &demands, SharingPolicy::Fair, &bw());
        assert!((rates[0].core_capacity - 4.0).abs() < 1e-9);
        assert!((rates[1].core_capacity - 4.0).abs() < 1e-9);
        assert!(rates[0].speed_per_thread < rates[0].cache_factor);
    }

    #[test]
    fn lc_priority_starves_be_first() {
        let demands = vec![demand(AppKind::Lc, 8, 8), demand(AppKind::Be, 8, 8)];
        let m = machine().with_budget(8, 20);
        let p = Partition::all_shared(2);
        let rates = compute_rates(&m, &p, &demands, SharingPolicy::LcPriority, &bw());
        assert!((rates[0].core_capacity - 8.0).abs() < 1e-9);
        assert!(rates[1].core_capacity < 1e-9);
    }

    #[test]
    fn isolated_cores_are_exclusive_even_when_idle() {
        // LC app holds 4 isolated cores but is idle; BE wants 8 threads on
        // the 6 remaining shared cores: the idle isolated cores are wasted,
        // exactly the Fig. 4(b) phenomenon.
        let demands = vec![demand(AppKind::Lc, 4, 0), demand(AppKind::Be, 8, 8)];
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::new(4, 0));
        let rates = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        assert_eq!(rates[0].core_capacity, 0.0);
        assert!((rates[1].core_capacity - 6.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_ways_add_to_effective_ways() {
        let demands = vec![demand(AppKind::Lc, 4, 4), demand(AppKind::Be, 4, 4)];
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::new(0, 10));
        let rates = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        assert!(rates[0].effective_ways > 10.0);
        assert!(rates[1].effective_ways < 10.0);
        // Conservation (up to the deliberate conflict penalty).
        let total = rates[0].effective_ways + rates[1].effective_ways;
        assert!(total <= 20.0 + 1e-9);
    }

    #[test]
    fn busy_app_pressures_cache_harder() {
        let demands = vec![demand(AppKind::Lc, 4, 4), demand(AppKind::Lc, 4, 1)];
        let p = Partition::all_shared(2);
        let rates = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        assert!(rates[0].effective_ways > rates[1].effective_ways);
    }

    #[test]
    fn bandwidth_hog_triggers_saturation() {
        let mut hog = demand(AppKind::Be, 10, 10);
        hog.bw_per_thread = 7.0;
        hog.curve = MissRatioCurve::new(0.85, 1.5, 2.2, 20);
        let victim = demand(AppKind::Lc, 4, 4);
        let p = Partition::all_shared(2);
        // A memory system sized so the hog's demand clearly exceeds it.
        let tight_bw = BandwidthModel::new(30.0);
        let rates = compute_rates(
            &machine(),
            &p,
            &[victim.clone(), hog],
            SharingPolicy::Fair,
            &tight_bw,
        );
        assert!(
            rates[0].membw_factor < 1.0,
            "victim should feel bandwidth pressure, got {}",
            rates[0].membw_factor
        );
        // Without the hog there is no pressure.
        let solo = compute_rates(
            &machine(),
            &Partition::all_shared(1),
            &[victim],
            SharingPolicy::Fair,
            &bw(),
        );
        assert!((solo[0].membw_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mba_throttle_slows_hog_and_relieves_victim() {
        use crate::partition::MbaLevel;
        let mut hog = demand(AppKind::Be, 10, 10);
        hog.bw_per_thread = 7.0;
        hog.curve = MissRatioCurve::new(0.85, 1.5, 2.2, 20);
        let victim = demand(AppKind::Lc, 4, 4);
        let demands = [victim, hog];
        let tight_bw = BandwidthModel::new(30.0);
        let free = Partition::all_shared(2);
        let unthrottled =
            compute_rates(&machine(), &free, &demands, SharingPolicy::Fair, &tight_bw);
        let mut p = free.clone();
        p.set_isolated(1.into(), RegionAlloc::EMPTY.with_mba(MbaLevel::new(30)));
        let throttled = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &tight_bw);
        assert!(
            throttled[1].membw_factor < unthrottled[1].membw_factor,
            "the throttled hog must slow down: {} !< {}",
            throttled[1].membw_factor,
            unthrottled[1].membw_factor
        );
        assert!(
            throttled[0].membw_factor > unthrottled[0].membw_factor,
            "capping the hog must relieve the victim: {} !> {}",
            throttled[0].membw_factor,
            unthrottled[0].membw_factor
        );
        // An unthrottled level is bit-identical to no throttle at all.
        let mut q = free.clone();
        q.set_isolated(1.into(), RegionAlloc::EMPTY.with_mba(MbaLevel::UNTHROTTLED));
        let same = compute_rates(&machine(), &q, &demands, SharingPolicy::Fair, &tight_bw);
        for (a, b) in unthrottled.iter().zip(same.iter()) {
            assert_eq!(a.speed_per_thread.to_bits(), b.speed_per_thread.to_bits());
            assert_eq!(a.membw_factor.to_bits(), b.membw_factor.to_bits());
        }
    }

    #[test]
    fn mba_throttle_sensitivity_tracks_memory_fraction() {
        use crate::partition::MbaLevel;
        // Two identical-load apps, one memory-bound and one cache-friendly:
        // the same throttle level must hurt the memory-bound app more,
        // because the cap acts through `memory_slowdown`'s memory fraction.
        let mut membound = demand(AppKind::Be, 4, 4);
        membound.bw_per_thread = 6.0;
        membound.curve = MissRatioCurve::new(0.9, 1.0, 2.0, 20);
        let mut cachey = demand(AppKind::Be, 4, 4);
        cachey.bw_per_thread = 6.0;
        cachey.curve = MissRatioCurve::new(0.1, 6.0, 0.5, 20);
        let level = MbaLevel::new(20);
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::EMPTY.with_mba(level));
        p.set_isolated(1.into(), RegionAlloc::EMPTY.with_mba(level));
        let free = Partition::all_shared(2);
        let demands = [membound, cachey];
        let base = compute_rates(&machine(), &free, &demands, SharingPolicy::Fair, &bw());
        let capped = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        let drop0 = capped[0].speed_per_thread / base[0].speed_per_thread;
        let drop1 = capped[1].speed_per_thread / base[1].speed_per_thread;
        assert!(
            drop0 < drop1,
            "memory-bound app must be more throttle-sensitive: {drop0} !< {drop1}"
        );
    }

    #[test]
    fn idle_app_has_neutral_thread_speed() {
        let demands = vec![demand(AppKind::Lc, 4, 0)];
        let p = Partition::all_shared(1);
        let rates = compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
        assert!(rates[0].speed_per_thread > 0.9);
    }

    #[test]
    #[should_panic(expected = "same applications")]
    fn mismatched_lengths_panic() {
        let demands = vec![demand(AppKind::Lc, 4, 4)];
        let p = Partition::all_shared(2);
        compute_rates(&machine(), &p, &demands, SharingPolicy::Fair, &bw());
    }
}
