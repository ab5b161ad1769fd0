//! Common random numbers as a property: a node's request stream depends on
//! the mix, the seed, the load calls and the window boundaries, never on
//! the partition or the sharing policy. A standalone [`ArrivalStream`]
//! filling one [`ArrivalChunk`] per window must therefore predict every
//! window's arrivals of any node run, and a window replayed from a chunk
//! filled elsewhere must be indistinguishable from the node's own.

use ahq_core::check;
use ahq_core::rng::Rng;
use ahq_sim::arrivals::{ArrivalChunk, ArrivalStream};
use ahq_sim::{
    AppSpec, CacheProfile, MachineConfig, NodeSim, Partition, RegionAlloc, SharingPolicy,
};

/// One generated scenario: the mix, initial loads (in call order), a load
/// schedule `(window, app, fraction)`, the window count and length.
struct Scenario {
    specs: Vec<AppSpec>,
    loads: Vec<(String, f64)>,
    schedule: Vec<(usize, String, f64)>,
    windows: usize,
    window_ms: Option<f64>,
    seed: u64,
}

fn load(rng: &mut Rng) -> f64 {
    if rng.range_usize(0..4) == 0 {
        0.0
    } else {
        rng.range_f64(0.05..=1.5)
    }
}

/// Mixes of 1–3 LC apps and 0–1 BE apps. Short windows carry high rates,
/// so same-microsecond ties between apps and arrivals exactly at a window
/// end both occur; the paper's 500 ms window keeps rates realistic.
fn scenario(rng: &mut Rng) -> Scenario {
    let window_ms = if rng.range_usize(0..4) == 0 {
        None
    } else {
        Some(rng.range_f64(2.0..=30.0))
    };
    let max_qps = if window_ms.is_some() {
        30_000.0
    } else {
        1_500.0
    };
    let mut specs = Vec::new();
    for i in 0..rng.range_usize(1..4) {
        let mean_ms = rng.range_f64(0.05..=2.0);
        specs.push(
            AppSpec::lc(format!("lc{i}"))
                .threads(rng.range_u32(1..5))
                .mean_service_ms(mean_ms)
                .service_sigma(rng.range_f64(0.1..=1.0))
                .qos_threshold_ms(10.0 * mean_ms)
                .max_load_qps(rng.range_f64(100.0..=max_qps))
                .max_outstanding(rng.range_u32(4..64))
                .cache(CacheProfile::balanced())
                .build()
                .unwrap(),
        );
    }
    let lc_names: Vec<String> = specs.iter().map(|s| s.name().to_owned()).collect();
    if rng.bool() {
        specs.push(AppSpec::be("be").threads(4).ipc_solo(1.2).build().unwrap());
    }
    // Initial loads in a shuffled call order (order matters: each call
    // draws), one app possibly set twice.
    let mut loads: Vec<(String, f64)> = lc_names.iter().map(|n| (n.clone(), load(rng))).collect();
    for i in (1..loads.len()).rev() {
        loads.swap(i, rng.range_usize(0..i + 1));
    }
    if rng.bool() {
        let again = lc_names[rng.range_usize(0..lc_names.len())].clone();
        loads.push((again, load(rng)));
    }
    let windows = if window_ms.is_some() {
        rng.range_usize(2..7)
    } else {
        rng.range_usize(2..4)
    };
    // A drop to zero and back for one app, plus a random change; the
    // schedule is sorted by window, as `RunSpec` schedules are.
    let mut schedule = Vec::new();
    let app = lc_names[rng.range_usize(0..lc_names.len())].clone();
    let off = rng.range_usize(0..windows);
    schedule.push((off, app.clone(), 0.0));
    if off + 1 < windows {
        let on = rng.range_usize(off + 1..windows);
        schedule.push((on, app, rng.range_f64(0.05..=1.5)));
    }
    let other = lc_names[rng.range_usize(0..lc_names.len())].clone();
    schedule.push((rng.range_usize(0..windows), other, load(rng)));
    schedule.sort_by_key(|(w, _, _)| *w);
    Scenario {
        specs,
        loads,
        schedule,
        windows,
        window_ms,
        seed: rng.next_u64(),
    }
}

impl Scenario {
    fn node(&self, policy: SharingPolicy, isolate_first: bool) -> NodeSim {
        let mut sim =
            NodeSim::new(MachineConfig::paper_xeon(), self.specs.clone(), self.seed).unwrap();
        if let Some(ms) = self.window_ms {
            sim.set_window_ms(ms);
        }
        for (name, fraction) in &self.loads {
            sim.set_load(name, *fraction).unwrap();
        }
        sim.set_policy(policy);
        if isolate_first {
            let mut p = Partition::all_shared(self.specs.len());
            p.set_isolated(0.into(), RegionAlloc::new(1, 2));
            sim.set_partition(p).unwrap();
        }
        sim
    }

    /// The stream as a lockstep driver builds it: fresh, with the same
    /// load calls — no node involved.
    fn stream(&self) -> ArrivalStream {
        let mut stream = ArrivalStream::new(&self.specs, self.seed);
        for (name, fraction) in &self.loads {
            stream.set_load(self.index(name), *fraction, ahq_sim::SimTime::ZERO);
        }
        stream
    }

    fn index(&self, name: &str) -> usize {
        self.specs.iter().position(|s| s.name() == name).unwrap()
    }

    fn due(&self, w: usize) -> impl Iterator<Item = &(usize, String, f64)> {
        self.schedule.iter().filter(move |(at, _, _)| *at == w)
    }
}

#[test]
fn chunks_predict_every_partitions_arrivals() {
    check::cases(48, |rng| {
        let sc = scenario(rng);
        let mut shared = sc.node(SharingPolicy::Fair, false);
        let mut isolated = sc.node(SharingPolicy::LcPriority, true);
        let mut stream = sc.stream();
        let mut chunk = ArrivalChunk::default();
        for w in 0..sc.windows {
            let start = shared.now();
            for (_, name, fraction) in sc.due(w) {
                shared.set_load(name, *fraction).unwrap();
                isolated.set_load(name, *fraction).unwrap();
                stream.set_load(sc.index(name), *fraction, start);
            }
            stream.fill(start, start + shared.window_length(), &mut chunk);
            let a = shared.run_window();
            let b = isolated.run_window();
            for (i, spec) in sc.specs.iter().enumerate() {
                let Some(stats_a) = a.lc_by_name(spec.name()) else {
                    continue;
                };
                let stats_b = b.lc_by_name(spec.name()).unwrap();
                let drawn = chunk.records(i).len() as u64;
                assert_eq!(drawn, stats_a.arrivals, "window {w}, {}", spec.name());
                assert_eq!(drawn, stats_b.arrivals, "window {w}, {}", spec.name());
            }
        }
    });
}

#[test]
fn replaying_chunks_equals_drawing_and_may_alternate_per_window() {
    check::cases(32, |rng| {
        let sc = scenario(rng);
        let isolate = rng.bool();
        let mut drawn = sc.node(SharingPolicy::LcPriority, isolate);
        let mut mixed = sc.node(SharingPolicy::LcPriority, isolate);
        let mut chunk = ArrivalChunk::default();
        for w in 0..sc.windows {
            for (_, name, fraction) in sc.due(w) {
                drawn.set_load(name, *fraction).unwrap();
                mixed.set_load(name, *fraction).unwrap();
            }
            let expect = drawn.run_window();
            let got = if rng.bool() {
                let start = mixed.now();
                let mut stream = mixed.arrivals().clone();
                stream.fill(start, start + mixed.window_length(), &mut chunk);
                mixed.run_window_from(&chunk)
            } else {
                mixed.run_window()
            };
            assert_eq!(expect, got, "window {w}");
        }
        assert_eq!(drawn.perf_stats(), mixed.perf_stats());
    });
}

#[test]
#[should_panic(expected = "arrival chunk filled for another window")]
fn a_chunk_for_another_window_is_refused() {
    let spec = AppSpec::lc("a").max_load_qps(1000.0).build().unwrap();
    let mut sim = NodeSim::new(MachineConfig::paper_xeon(), vec![spec], 1).unwrap();
    sim.set_load("a", 0.5).unwrap();
    let mut stream = sim.arrivals().clone();
    let mut chunk = ArrivalChunk::default();
    let start = sim.now();
    stream.fill(start, start + sim.window_length(), &mut chunk);
    sim.run_window();
    sim.run_window_from(&chunk);
}
