//! Benchmarks of the node event path: end-to-end `run_window` throughput
//! on the pinned 2LC+2BE paper-machine scenario (the `BENCH_node.json`
//! baseline), and the rate-lookup microbench comparing a rate-memo hit
//! against the direct solver with and without scratch buffers.

use std::hint::black_box;

use ahq_bench::{paper_pair_sim, Bench};
use ahq_sim::{
    compute_rates, compute_rates_into, AppDemand, AppKind, BandwidthModel, CacheProfile,
    MachineConfig, Partition, RateCache, RateScratch, SharingPolicy,
};

/// The demand vector of the paper-pair scenario at one representative
/// busy state (both LC apps at 2 in-service requests, BE fully busy).
fn paper_pair_demands(machine: &MachineConfig) -> Vec<AppDemand> {
    let balanced = CacheProfile::balanced();
    let compute = CacheProfile::compute();
    let streaming = CacheProfile::streaming();
    let mk = |kind: AppKind, busy: u32, profile: &CacheProfile| AppDemand {
        kind,
        busy,
        curve: profile.curve(machine.llc_ways),
        bw_per_thread: profile.bw_gbps_per_thread,
    };
    vec![
        mk(AppKind::Lc, 2, &balanced),
        mk(AppKind::Lc, 2, &balanced),
        mk(AppKind::Be, 4, &compute),
        mk(AppKind::Be, 4, &streaming),
    ]
}

fn main() {
    let bench = Bench::from_args();

    let mut sim = paper_pair_sim(7);
    bench.run("node_event_path/run_window_paper_pair", || sim.run_window());

    let machine = MachineConfig::paper_xeon();
    let bw = BandwidthModel::new(machine.membw_gbps);
    let partition = Partition::all_shared(4);
    let demands = paper_pair_demands(&machine);
    // The layout NodeSim declares for this scenario, primed with the one
    // entry the loop keeps hitting: a hit packs the key, probes the table
    // and copies the `(speed, capacity)` pairs out, as the event loop does.
    let mut cache = RateCache::new(&[4, 4, 4, 4]);
    let pack = |cache: &RateCache| {
        cache.pack_scan_key(
            black_box(&demands).iter().map(|d| d.busy),
            demands.len(),
            0,
            SharingPolicy::Fair,
        )
    };
    let rates = compute_rates(&machine, &partition, &demands, SharingPolicy::Fair, &bw);
    let speed: Vec<f64> = rates.iter().map(|r| r.speed_per_thread).collect();
    let capacity: Vec<f64> = rates.iter().map(|r| r.core_capacity).collect();
    cache.insert(pack(&cache).expect("layout packs"), &speed, &capacity);
    let mut hot = [0.0; 8];
    bench.run("rate_lookup/cache_hit", || {
        let key = pack(&cache);
        if let Some(vals) = cache.lookup(key) {
            hot.copy_from_slice(vals);
        }
        hot[0]
    });

    let mut scratch = RateScratch::new();
    let mut out = Vec::new();
    bench.run("rate_lookup/solver_scratch", || {
        compute_rates_into(
            black_box(&machine),
            black_box(&partition),
            black_box(&demands),
            SharingPolicy::Fair,
            &bw,
            &mut scratch,
            &mut out,
        )
    });
    bench.run("rate_lookup/solver_alloc", || {
        compute_rates(
            black_box(&machine),
            black_box(&partition),
            black_box(&demands),
            SharingPolicy::Fair,
            &bw,
        )
    });
}
