//! Cross-crate integration tests: the full theory → simulator → scheduler
//! pipeline.

use ahq_core::json::JsonValue;
use ahq_core::{stable_hash128, EntropyModel, QosElasticity, RelativeImportance};
use ahq_experiments::StrategyKind;
use ahq_sched::{observe, run, RunResult};
use ahq_sim::{MachineConfig, NodeSim};
use ahq_workloads::mixes;

fn run_stack(strategy: StrategyKind, seed: u64, windows: usize) -> RunResult {
    let mix = mixes::fluidanimate_mix();
    let mut sim = NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), seed).unwrap();
    sim.set_load("xapian", 0.5).unwrap();
    sim.set_load("moses", 0.2).unwrap();
    sim.set_load("img-dnn", 0.2).unwrap();
    let mut sched = strategy.build();
    run(&mut sim, sched.as_mut(), windows, &EntropyModel::default())
}

#[test]
fn every_strategy_completes_on_every_mix() {
    for mix in [
        mixes::fluidanimate_mix(),
        mixes::stream_mix(),
        mixes::sphinx_mix(),
        mixes::large_mix(),
    ] {
        for strategy in StrategyKind::all() {
            let mut sim = NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), 3).unwrap();
            for name in mix.lc_names() {
                sim.set_load(name, 0.2).unwrap();
            }
            let mut sched = strategy.build();
            let result = run(&mut sim, sched.as_mut(), 20, &EntropyModel::default());
            assert_eq!(
                result.observations.len(),
                20,
                "{} on {}",
                strategy.name(),
                mix.name
            );
            for e in &result.entropy {
                assert!((0.0..=1.0).contains(&e.system));
            }
        }
    }
}

#[test]
fn end_to_end_determinism() {
    for strategy in StrategyKind::all() {
        let a = run_stack(strategy, 77, 30);
        let b = run_stack(strategy, 77, 30);
        assert_eq!(
            a.observations,
            b.observations,
            "{} must be reproducible",
            strategy.name()
        );
        assert_eq!(a.violations, b.violations);
        let c = run_stack(strategy, 78, 30);
        assert_ne!(
            a.observations,
            c.observations,
            "{} must respond to the seed",
            strategy.name()
        );
    }
}

/// Pins every strategy's full 90-window run (observations, entropy,
/// partitions, counters) to a digest. Ninety windows take CLITE past its
/// exploration phase into probing, so the pins cover each scheduler's
/// steady-state decisions, not only its warm-up.
#[test]
fn every_strategy_matches_its_pinned_90_window_digest() {
    let pinned: [(StrategyKind, u64, u128); 6] = [
        (
            StrategyKind::Unmanaged,
            0,
            0xe122378e342b8fda307caea615432fbf,
        ),
        (StrategyKind::LcFirst, 0, 0xc6c948c60e23e76b7f0c58871cf450f0),
        (
            StrategyKind::Parties,
            37,
            0xc88ceb0c7d0db0b9922fed7d1ee9e6a9,
        ),
        (StrategyKind::Clite, 25, 0xf5c9b99d155f3c6a6569978dafff50ee),
        (StrategyKind::Arq, 28, 0x7ec599909a066bd5dafb078505f0a52d),
        (
            StrategyKind::Heracles,
            18,
            0xf4585f477451254d0a588b430eb81f15,
        ),
    ];
    assert_eq!(pinned.map(|p| p.0), StrategyKind::extended());
    for (strategy, adjustments, digest) in pinned {
        let result = run_stack(strategy, 77, 90);
        let got = stable_hash128(ahq_core::json::to_string(&result).as_bytes());
        assert_eq!(
            result.adjustments,
            adjustments,
            "{} adjustments",
            strategy.name()
        );
        assert_eq!(got, digest, "{} run digest", strategy.name());
    }
}

#[test]
fn run_results_serialize_and_deserialize() {
    let result = run_stack(StrategyKind::Arq, 5, 10);
    let json = ahq_core::json::to_string(&result);
    let back: RunResult = ahq_core::json::from_str(&json).expect("deserializable");
    assert_eq!(back.strategy, result.strategy);
    assert_eq!(back.observations, result.observations);
    assert_eq!(back.partitions, result.partitions);
    assert_eq!(back.entropy, result.entropy);
    assert_eq!(back.violations, result.violations);
    assert_eq!(back.adjustments, result.adjustments);
    // The pretty form is what artifacts on disk use; it must agree.
    let pretty: RunResult = ahq_core::json::from_str(&ahq_core::json::to_string_pretty(&result))
        .expect("pretty form deserializable");
    assert_eq!(pretty.observations, result.observations);
}

#[test]
fn entropy_models_agree_between_runner_and_manual_computation() {
    let result = run_stack(StrategyKind::Unmanaged, 9, 12);
    let model = EntropyModel::default();
    for (obs, entropy) in result.observations.iter().zip(result.entropy.iter()) {
        let (lc, be) = observe::measurements(obs);
        let manual = model.evaluate_auto(&lc, &be);
        assert_eq!(&manual, entropy);
    }
}

#[test]
fn partitions_never_violate_machine_capacity() {
    let machine = MachineConfig::paper_xeon();
    for strategy in StrategyKind::all() {
        let result = run_stack(strategy, 13, 40);
        for p in &result.partitions {
            assert!(p.validate(&machine).is_ok(), "{}", strategy.name());
            // Strict-partitioners account every core; sharers never
            // oversubscribe.
            assert!(p.isolated_cores() <= machine.cores);
            assert!(p.isolated_ways() <= machine.llc_ways);
        }
    }
}

#[test]
fn relative_importance_extremes_isolate_the_components() {
    let mix = mixes::stream_mix();
    let mut sim = NodeSim::new(MachineConfig::paper_xeon(), mix.apps.clone(), 21).unwrap();
    sim.set_load("xapian", 0.6).unwrap();
    let obs = sim.run_windows(8);
    let last = obs.last().unwrap();
    let (lc, be) = observe::measurements(last);
    let lc_only = EntropyModel::new(RelativeImportance::LC_ONLY).evaluate(&lc, &be);
    let be_only = EntropyModel::new(RelativeImportance::BE_ONLY).evaluate(&lc, &be);
    assert_eq!(lc_only.system, lc_only.lc);
    assert_eq!(be_only.system, be_only.be);
}

#[test]
fn zero_elasticity_yield_is_stricter() {
    let result = run_stack(StrategyKind::Unmanaged, 31, 20);
    let strict_model = EntropyModel::default().with_elasticity(QosElasticity::NONE);
    let lax_model = EntropyModel::default().with_elasticity(QosElasticity::new(0.2).unwrap());
    for obs in &result.observations {
        let (lc, be) = observe::measurements(obs);
        let strict = strict_model.evaluate(&lc, &be);
        let lax = lax_model.evaluate(&lc, &be);
        assert!(lax.yield_fraction >= strict.yield_fraction);
    }
}

/// `repro --json` writes real JSON: it parses back, and each report
/// carries the same keys as the committed `results/all.json`.
#[test]
fn repro_json_parses_with_the_committed_report_keys() {
    let file = std::env::temp_dir().join(format!("ahq-repro-{}.json", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--json"])
        .arg(&file)
        .arg("fig1")
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("repro runs");
    assert!(status.success());
    let text = std::fs::read_to_string(&file).expect("repro wrote the JSON file");
    let _ = std::fs::remove_file(&file);
    let keys = |doc: &JsonValue| -> Vec<String> {
        match &doc.as_array().expect("a list of reports")[0] {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("report is not an object: {other:?}"),
        }
    };
    let emitted = JsonValue::parse(&text).expect("repro --json emits valid JSON");
    let committed = JsonValue::parse(include_str!("../results/all.json")).expect("valid JSON");
    assert_eq!(keys(&emitted), keys(&committed));
}
