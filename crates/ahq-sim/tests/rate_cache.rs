//! Property tests of the node's rate memo: across randomized
//! demand/partition/policy/warm-up sequences, a [`RateCache`] answer must
//! equal (bit-for-bit) the speeds and capacities a direct
//! [`compute_rates`] call yields, and a repeated key must be answered
//! from memory. This is the contract that lets the node's event loop swap
//! the solver for the memo without perturbing a single observation.

use ahq_core::check;
use ahq_core::rng::Rng;
use ahq_sim::{
    compute_rates, AppDemand, AppKind, BandwidthModel, CacheProfile, MachineConfig, Partition,
    RateCache, RegionAlloc, SharingPolicy, WARMUP_PENALTY,
};

fn cache_profile(rng: &mut Rng) -> CacheProfile {
    CacheProfile {
        miss_floor: rng.range_f64(0.01..=0.9),
        footprint_ways: rng.range_f64(1.0..=12.0),
        intensity: rng.range_f64(0.0..=3.0),
        bw_gbps_per_thread: rng.range_f64(0.1..=10.0),
    }
}

/// `n` idle demands with drawn cache profiles, alternating LC and BE.
fn demands(rng: &mut Rng, machine: &MachineConfig, n: usize) -> Vec<AppDemand> {
    (0..n)
        .map(|i| {
            let p = cache_profile(rng);
            AppDemand {
                kind: if i % 2 == 0 { AppKind::Lc } else { AppKind::Be },
                busy: 0,
                curve: p.curve(machine.llc_ways),
                bw_per_thread: p.bw_gbps_per_thread,
            }
        })
        .collect()
}

/// The solver's answer as the node stores it: per-thread speed (scaled by
/// the warm-up penalty where the app's warm bit is set), then capacity.
fn derived(rates: &[ahq_sim::AppRates], warm_mask: u64) -> (Vec<f64>, Vec<f64>) {
    rates
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let speed = if warm_mask >> i & 1 == 1 {
                r.speed_per_thread * WARMUP_PENALTY
            } else {
                r.speed_per_thread
            };
            (speed, r.core_capacity)
        })
        .unzip()
}

fn interleaved_bits(speed: &[f64], capacity: &[f64]) -> Vec<u64> {
    speed
        .iter()
        .zip(capacity)
        .flat_map(|(s, c)| [s.to_bits(), c.to_bits()])
        .collect()
}

fn bits(vals: &[f64]) -> Vec<u64> {
    vals.iter().map(|v| v.to_bits()).collect()
}

/// Interleave busy-vector changes, repartitions and policy flips
/// (invalidating exactly as the node does) and check every memo answer
/// against the solver.
#[test]
fn cached_rates_equal_direct_solver() {
    check::cases(256, |rng| {
        let machine = MachineConfig::paper_xeon();
        let bw = BandwidthModel::new(machine.membw_gbps);
        let n = rng.range_usize(2..5);
        let mut demands = demands(rng, &machine, n);
        let mut partition = Partition::all_shared(n);
        let mut policy = SharingPolicy::Fair;
        let mut cache = RateCache::new(&vec![8; n]);

        for _ in 0..rng.range_usize(1..25) {
            let (op, a, b, c) = (
                rng.range_u32(0..4),
                rng.range_u32(0..16),
                rng.range_u32(0..16),
                rng.range_u32(0..16),
            );
            match op {
                // Mutate the busy-thread vector (the common event-loop case).
                0 | 1 => {
                    for (j, d) in demands.iter_mut().enumerate() {
                        d.busy = a.wrapping_add(j as u32 * b).wrapping_add(c) % 9;
                    }
                }
                // Repartition: entries were computed under the old layout.
                2 => {
                    let mut p = Partition::all_shared(n);
                    p.set_isolated((a as usize % n).into(), RegionAlloc::new(b % 4, c % 8));
                    if p.validate(&machine).is_ok() {
                        partition = p;
                        cache.invalidate();
                    }
                }
                // Policy flip: also an invalidation event in the node.
                _ => {
                    policy = if a % 2 == 0 {
                        SharingPolicy::Fair
                    } else {
                        SharingPolicy::LcPriority
                    };
                    cache.invalidate();
                }
            }
            let warm_mask = (a as u64) & ((1u64 << n) - 1);
            let key = cache.pack_scan_key(demands.iter().map(|d| d.busy), n, warm_mask, policy);
            assert!(key.is_some(), "busy counts up to 8 fit the layout");
            let (speed, capacity) = derived(
                &compute_rates(&machine, &partition, &demands, policy, &bw),
                warm_mask,
            );
            let expected = interleaved_bits(&speed, &capacity);
            match cache.lookup(key) {
                Some(vals) => assert_eq!(bits(vals), expected),
                None => cache.insert(key.unwrap(), &speed, &capacity),
            }
            // A same-key repeat must be served from memory, bit-identical.
            let hit = cache.lookup(key).map(bits);
            assert_eq!(hit, Some(expected), "repeated lookup missed or diverged");
        }
    });
}

/// Hit/miss accounting: lookups = hits + misses, and every distinct key
/// under a fixed partition misses exactly once.
#[test]
fn cache_accounting_is_consistent() {
    check::cases(256, |rng| {
        let machine = MachineConfig::paper_xeon();
        let bw = BandwidthModel::new(machine.membw_gbps);
        let n = rng.range_usize(2..4);
        let mut demands = demands(rng, &machine, n);
        let busy_seq = check::vec(rng, 1..40, |rng| rng.range_u32(0..6));
        let partition = Partition::all_shared(n);
        let mut cache = RateCache::new(&vec![5; n]);
        let mut distinct = std::collections::HashSet::new();
        for &busy in &busy_seq {
            for d in demands.iter_mut() {
                d.busy = busy;
            }
            distinct.insert(busy);
            let key =
                cache.pack_scan_key(demands.iter().map(|d| d.busy), n, 0, SharingPolicy::Fair);
            if cache.lookup(key).is_none() {
                let rates = compute_rates(&machine, &partition, &demands, SharingPolicy::Fair, &bw);
                let (speed, capacity) = derived(&rates, 0);
                cache.insert(key.expect("busy counts up to 5 fit"), &speed, &capacity);
            }
        }
        assert_eq!(cache.hits() + cache.misses(), busy_seq.len() as u64);
        assert_eq!(cache.misses(), distinct.len() as u64);
    });
}
