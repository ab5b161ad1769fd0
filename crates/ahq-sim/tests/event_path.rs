//! Pinned end-to-end test of the event path: a 20-window 2LC+2BE run on
//! the paper machine, with mid-run load, partition and policy changes,
//! rendered to a canonical text form and compared against a golden file.
//! The pin was first generated before the memoized rate cache and
//! zero-alloc solver landed (which intentionally preserved it), then
//! regenerated after the struct-of-arrays hot path and scheduled memory
//! bandwidth intentionally changed the per-event arithmetic. It was last
//! regenerated when `ahq_core::rng` (xoshiro256++, the stream
//! `perfbench/expected.json` pins) replaced the external `rand` crates;
//! the per-event arithmetic did not change.
//!
//! Any change to the per-event arithmetic, the RNG draw sequence, the
//! completion dispatch order or the rate solver shows up here as a diff.
//!
//! Regenerate (only when an *intentional* model change lands) with:
//!
//! ```text
//! GOLDEN_WRITE=1 cargo test -p ahq-sim --test event_path
//! ```

use ahq_sim::{
    AppSpec, CacheProfile, MachineConfig, NodeSim, Partition, RegionAlloc, SharingPolicy,
    SimPerfStats, WindowObservation,
};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_run20.txt");

fn lc_spec(name: &str, mean_ms: f64, qps: f64) -> AppSpec {
    AppSpec::lc(name)
        .threads(4)
        .mean_service_ms(mean_ms)
        .service_sigma(0.6)
        .qos_threshold_ms(mean_ms * 5.0)
        .max_load_qps(qps)
        .cache(CacheProfile::balanced())
        .build()
        .expect("valid LC spec")
}

fn be_spec(name: &str, profile: CacheProfile) -> AppSpec {
    AppSpec::be(name)
        .threads(4)
        .ipc_solo(1.5)
        .cache(profile)
        .build()
        .expect("valid BE spec")
}

/// The pinned scenario: 2 LC + 2 BE on the paper machine, exercising
/// arrivals, completions, drops, repartitions (warm-up penalties), policy
/// flips and load changes — every event kind and invalidation path.
/// Returns the observation stream and the node's work counters.
fn pinned_run() -> (Vec<WindowObservation>, SimPerfStats) {
    let specs = vec![
        lc_spec("lc-a", 1.0, 2000.0),
        lc_spec("lc-b", 2.0, 800.0),
        be_spec("be-a", CacheProfile::compute()),
        be_spec("be-b", CacheProfile::streaming()),
    ];
    let mut sim = NodeSim::new(MachineConfig::paper_xeon(), specs, 42).expect("valid sim");
    sim.set_load("lc-a", 0.6).expect("LC app");
    sim.set_load("lc-b", 0.3).expect("LC app");

    let mut obs = sim.run_windows(5);

    let mut p = Partition::all_shared(4);
    p.set_isolated(0.into(), RegionAlloc::new(3, 6));
    p.set_isolated(1.into(), RegionAlloc::new(2, 4));
    sim.set_partition(p).expect("valid partition");
    sim.set_policy(SharingPolicy::LcPriority);
    obs.extend(sim.run_windows(5));

    // Overload the first application: drops and queue growth.
    sim.set_load("lc-a", 1.2).expect("LC app");
    obs.extend(sim.run_windows(5));

    sim.set_partition(Partition::all_shared(4))
        .expect("valid partition");
    sim.set_policy(SharingPolicy::Fair);
    sim.set_load("lc-b", 0.0).expect("LC app");
    obs.extend(sim.run_windows(5));
    (obs, sim.perf_stats())
}

/// Canonical, serializer-independent rendering: Rust's `{:?}` for floats
/// is the shortest round-trip form, so two runs render identically iff
/// every observed value is bit-identical.
fn render(observations: &[WindowObservation]) -> String {
    let mut out = String::new();
    for o in observations {
        out.push_str(&format!(
            "window {} [{:?}, {:?}]\n",
            o.window_index, o.start_ms, o.end_ms
        ));
        for lc in &o.lc {
            out.push_str(&format!(
                "  lc {} p95={:?} load={:?} arrivals={} completions={} drops={} backlog={} capacity={:?}\n",
                lc.name,
                lc.p95_ms,
                lc.load,
                lc.arrivals,
                lc.completions,
                lc.drops,
                lc.backlog,
                lc.mean_core_capacity,
            ));
        }
        for be in &o.be {
            out.push_str(&format!(
                "  be {} ipc={:?} solo={:?} capacity={:?}\n",
                be.name, be.ipc, be.ipc_solo, be.mean_core_capacity,
            ));
        }
    }
    out
}

#[test]
fn run20_observation_stream_is_pinned() {
    let rendered = render(&pinned_run().0);
    if std::env::var_os("GOLDEN_WRITE").is_some() {
        std::fs::write(GOLDEN_PATH, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present; regenerate with GOLDEN_WRITE=1");
    if rendered != golden {
        // Locate the first diverging line for a readable failure.
        let mut line = 0usize;
        for (a, b) in rendered.lines().zip(golden.lines()) {
            line += 1;
            assert_eq!(a, b, "observation stream diverges at line {line}");
        }
        assert_eq!(
            rendered.lines().count(),
            golden.lines().count(),
            "observation stream length changed"
        );
    }
}

#[test]
fn pinned_run_is_deterministic() {
    assert_eq!(render(&pinned_run().0), render(&pinned_run().0));
}

/// The rate memo's accounting on the pinned scenario. Values recorded
/// before the node's two-level rate memo was folded into one: a change to
/// which recomputations hit, or to how they are counted, shows up here.
#[test]
fn pinned_run_memo_accounting_is_pinned() {
    let stats = pinned_run().1;
    assert_eq!(
        stats,
        SimPerfStats {
            events: 39_681,
            rate_hits: 33_652,
            rate_misses: 79,
        }
    );
}
