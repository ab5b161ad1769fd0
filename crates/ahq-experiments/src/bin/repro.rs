//! `repro` — regenerate the Ah-Q paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--seed N] [--jobs N] [--out DIR] [--json FILE]
//!       [--timings FILE] [--cache-dir DIR] [--cache-max-mb N]
//!       [--nodes N] [--rounds N] [--fidelity MODE]
//!       [--pop N] [--gens N] [--eval MODE] [--train-out FILE]
//!       [--artifact FILE] [all | <ids>...]
//! repro --list
//! ```
//!
//! Each experiment prints aligned text tables; with `--out DIR` the tables
//! are additionally written as CSV files (`<id>_<n>.csv`), and with
//! `--json FILE` all reports are dumped as one JSON document.
//!
//! `--jobs N` sets the worker count of the deterministic run engine
//! (default: one per available core; output is byte-identical for any N).
//! `--timings FILE` writes a JSON timing/cache profile of the invocation.
//!
//! `--cache-dir DIR` attaches the persistent tier-2 run cache (DESIGN.md
//! §14): results are content-addressed on disk and survive the process,
//! so a rerun of the same experiments warm-starts. `--cache-max-mb N`
//! bounds the store; the budget is enforced (oldest entries first) when
//! the invocation finishes. Output bytes are identical with the cache
//! off, cold, or warm.
//!
//! `--nodes N` switches the `cluster` experiment from its placement grid
//! to one scaled scenario at `N` nodes (`--rounds` rounds, default 1000);
//! `--fidelity ladder` enables the HI-FI/LO-FI fidelity ladder
//! (DESIGN.md §8), which is what makes `--nodes 10000` tractable.
//!
//! `--pop N` / `--gens N` size the `train` experiment's search budget;
//! `--eval full|ladder` forces full-fidelity evaluation or the
//! successive-halving screening ladder (the default);
//! `--train-out FILE` saves the trained policy artifact, and
//! `--artifact FILE` is what the `replay` experiment loads back.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ahq_cluster::FidelityMode;
use ahq_core::json::{JsonValue, ToJson};
use ahq_experiments::{
    all_experiments, extra_experiments, ClusterOpts, ExpConfig, ExpContext, Metric, TrainOpts,
};

/// One experiment's wall-clock entry in the `--timings` report.
#[derive(Debug)]
struct ExperimentTiming {
    id: String,
    seconds: f64,
    /// Deterministic scalar metrics the experiment exported (e.g. the
    /// cluster experiment's HI-FI/LO-FI node-window split).
    metrics: Vec<Metric>,
}

impl ToJson for ExperimentTiming {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("id", self.id.to_json()),
            ("seconds", self.seconds.to_json()),
        ];
        if !self.metrics.is_empty() {
            fields.push(("metrics", self.metrics.to_json()));
        }
        JsonValue::object(fields)
    }
}

/// The `--timings FILE` document.
#[derive(Debug)]
struct TimingsReport {
    jobs: usize,
    quick: bool,
    seed: u64,
    total_seconds: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    /// Results held by the in-process run memo at the end.
    memo_entries: usize,
    /// Bytes of packed results in the run memo at the end.
    memo_bytes: usize,
    /// Discrete simulator events processed across every executed run.
    simulated_events: u64,
    /// `simulated_events / total_seconds` — the throughput headline.
    events_per_second: f64,
    /// Fluid-rate-cache lookups answered from memory inside the
    /// simulators.
    rate_cache_hits: u64,
    /// Fluid-rate-cache lookups that ran the contention solver.
    rate_cache_misses: u64,
    /// `rate_cache_hits / (hits + misses)`, in `[0, 1]`.
    rate_cache_hit_rate: f64,
    /// Tier-2 (persistent disk) cache counters; present only when
    /// `--cache-dir` was given.
    disk: Option<ahq_experiments::DiskCacheStats>,
    experiments: Vec<ExperimentTiming>,
}

impl ToJson for TimingsReport {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            ("jobs", self.jobs.to_json()),
            ("quick", self.quick.to_json()),
            ("seed", self.seed.to_json()),
            ("total_seconds", self.total_seconds.to_json()),
            ("cache_hits", self.cache_hits.to_json()),
            ("cache_misses", self.cache_misses.to_json()),
            ("cache_hit_rate", self.cache_hit_rate.to_json()),
            ("memo_entries", self.memo_entries.to_json()),
            ("memo_bytes", self.memo_bytes.to_json()),
            ("simulated_events", self.simulated_events.to_json()),
            ("events_per_second", self.events_per_second.to_json()),
            ("rate_cache_hits", self.rate_cache_hits.to_json()),
            ("rate_cache_misses", self.rate_cache_misses.to_json()),
            ("rate_cache_hit_rate", self.rate_cache_hit_rate.to_json()),
        ];
        if let Some(disk) = &self.disk {
            fields.extend([
                ("disk_hits", disk.hits.to_json()),
                ("disk_misses", disk.misses.to_json()),
                ("disk_hit_rate", disk.hit_rate().to_json()),
                ("disk_bytes_read", disk.bytes_read.to_json()),
                ("disk_bytes_written", disk.bytes_written.to_json()),
                ("disk_evicted_files", disk.evicted_files.to_json()),
                ("disk_evicted_bytes", disk.evicted_bytes.to_json()),
            ]);
        }
        fields.push(("experiments", self.experiments.to_json()));
        JsonValue::object(fields)
    }
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut seed = 42u64;
    let mut jobs = 0usize; // 0 = one worker per available core
    let mut out: Option<PathBuf> = None;
    let mut json: Option<PathBuf> = None;
    let mut timings: Option<PathBuf> = None;
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_max_mb: Option<u64> = None;
    let mut cluster = ClusterOpts::default();
    let mut train = TrainOpts::default();
    let mut picks: Vec<String> = Vec::new();
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--nodes" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cluster.nodes = Some(n),
                _ => return usage("--nodes needs a positive integer"),
            },
            "--rounds" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => cluster.rounds = Some(n),
                _ => return usage("--rounds needs a positive integer"),
            },
            "--fidelity" => match args.next().as_deref().and_then(FidelityMode::parse) {
                Some(mode) => cluster.fidelity = mode,
                None => return usage("--fidelity needs 'full' or 'ladder'"),
            },
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => return usage("--seed needs an integer"),
            },
            "--jobs" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage("--jobs needs an integer (0 = auto)"),
            },
            "--out" => match args.next() {
                Some(dir) => out = Some(PathBuf::from(dir)),
                None => return usage("--out needs a directory"),
            },
            "--json" => match args.next() {
                Some(file) => json = Some(PathBuf::from(file)),
                None => return usage("--json needs a file path"),
            },
            "--timings" => match args.next() {
                Some(file) => timings = Some(PathBuf::from(file)),
                None => return usage("--timings needs a file path"),
            },
            "--cache-dir" => match args.next() {
                Some(dir) => cache_dir = Some(PathBuf::from(dir)),
                None => return usage("--cache-dir needs a directory"),
            },
            "--cache-max-mb" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => cache_max_mb = Some(n),
                None => return usage("--cache-max-mb needs an integer (MiB)"),
            },
            "--pop" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n >= 2 => train.population = Some(n),
                _ => return usage("--pop needs an integer >= 2"),
            },
            "--gens" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) if n > 0 => train.generations = Some(n),
                _ => return usage("--gens needs a positive integer"),
            },
            "--eval" => match args.next().as_deref() {
                Some("full") => train.ladder = Some(false),
                Some("ladder") => train.ladder = Some(true),
                _ => return usage("--eval needs a mode: full | ladder"),
            },
            "--train-out" => match args.next() {
                Some(file) => train.out = Some(PathBuf::from(file)),
                None => return usage("--train-out needs a file path"),
            },
            "--artifact" => match args.next() {
                Some(file) => train.artifact = Some(PathBuf::from(file)),
                None => return usage("--artifact needs a file path"),
            },
            "--list" => {
                for (id, title, _) in all_experiments() {
                    println!("{id:<10} {title}");
                }
                for (id, title, _) in extra_experiments() {
                    println!("{id:<10} {title} [not in 'all']");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag {other:?}")),
            other => picks.push(other.to_string()),
        }
    }

    // `all` regenerates the pinned paper set; families in
    // `extra_experiments` (e.g. `gctrl`) run only when picked by id, so
    // the byte-pinned `repro all` output never moves when one lands.
    let experiments = all_experiments();
    let selected: Vec<_> = if picks.is_empty() || picks.iter().any(|p| p == "all") {
        experiments
    } else {
        let mut pool = experiments;
        pool.extend(extra_experiments());
        let known: Vec<&str> = pool.iter().map(|(id, _, _)| *id).collect();
        for p in &picks {
            if !known.contains(&p.as_str()) {
                return usage(&format!("unknown experiment {p:?}; try --list"));
            }
        }
        pool.into_iter()
            .filter(|(id, _, _)| picks.iter().any(|p| p == id))
            .collect()
    };

    // One context for the whole invocation: the run cache is shared across
    // experiments, so a configuration measured by fig8 is free for
    // headline, fig3 reuses fig2's budget points, and so on.
    let mut cfg = ExpContext::with_jobs(ExpConfig { quick, seed }, jobs);
    cfg.cluster = cluster;
    cfg.train = train;
    if let Some(dir) = &cache_dir {
        let max_bytes = cache_max_mb.map(|mb| mb.saturating_mul(1024 * 1024));
        match ahq_experiments::DiskCache::open(dir, max_bytes) {
            Ok(disk) => cfg.engine_mut().set_disk_cache(disk),
            Err(e) => {
                eprintln!("cannot open cache dir {dir:?}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(dir) = &out {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {dir:?}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let t_start = Instant::now();
    let mut reports = Vec::new();
    let mut experiment_timings = Vec::new();
    for (id, title, runner) in selected {
        eprintln!(
            ">>> running {id} ({title}){}",
            if quick { " [quick]" } else { "" }
        );
        let t0 = Instant::now();
        let report = runner(&cfg);
        let elapsed = t0.elapsed();
        println!("{}", report.render());
        eprintln!("<<< {id} done in {elapsed:.1?}\n");
        experiment_timings.push(ExperimentTiming {
            id: id.to_string(),
            seconds: elapsed.as_secs_f64(),
            metrics: report.metrics.clone(),
        });
        if let Some(dir) = &out {
            for (i, table) in report.tables.iter().enumerate() {
                let path = dir.join(format!("{id}_{i}.csv"));
                if let Err(e) = fs::write(&path, table.to_csv()) {
                    eprintln!("cannot write {path:?}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        reports.push(report);
    }
    let total = t_start.elapsed();
    let stats = cfg.engine().stats();
    let sim = cfg.engine().sim_stats();
    let rate_lookups = sim.rate_hits + sim.rate_misses;
    let rate_hit_rate = if rate_lookups == 0 {
        0.0
    } else {
        sim.rate_hits as f64 / rate_lookups as f64
    };
    eprintln!(
        "=== total {total:.1?} with {} worker(s); run cache: {} hits / {} misses ({:.1} % hit rate)",
        cfg.engine().jobs(),
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0,
    );
    eprintln!(
        "=== simulated {} events ({:.0} events/s); rate cache: {} hits / {} misses ({:.1} % hit rate)",
        sim.events,
        sim.events as f64 / total.as_secs_f64().max(1e-9),
        sim.rate_hits,
        sim.rate_misses,
        rate_hit_rate * 100.0,
    );
    // Seal the persistent tier: sweep stale tmp files, enforce the byte
    // budget, then report the disk counters (eviction included).
    let disk_stats = cfg.engine().disk_cache().map(|disk| {
        disk.enforce_limit();
        let d = disk.stats();
        eprintln!(
            "=== disk cache {:?}: {} hits / {} misses ({:.1} % hit rate); {} B read, {} B written, {} entries evicted",
            disk.root(),
            d.hits,
            d.misses,
            d.hit_rate() * 100.0,
            d.bytes_read,
            d.bytes_written,
            d.evicted_files,
        );
        d
    });

    if let Some(file) = &json {
        if let Err(e) = fs::write(file, ahq_core::json::to_string_pretty(&reports)) {
            eprintln!("cannot write {file:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(file) = &timings {
        let doc = TimingsReport {
            jobs: cfg.engine().jobs(),
            quick,
            seed,
            total_seconds: total.as_secs_f64(),
            cache_hits: stats.hits,
            cache_misses: stats.misses,
            cache_hit_rate: stats.hit_rate(),
            memo_entries: cfg.engine().memo_entries(),
            memo_bytes: cfg.engine().memo_bytes(),
            simulated_events: sim.events,
            events_per_second: sim.events as f64 / total.as_secs_f64().max(1e-9),
            rate_cache_hits: sim.rate_hits,
            rate_cache_misses: sim.rate_misses,
            rate_cache_hit_rate: rate_hit_rate,
            disk: disk_stats,
            experiments: experiment_timings,
        };
        if let Err(e) = fs::write(file, ahq_core::json::to_string_pretty(&doc) + "\n") {
            eprintln!("cannot write {file:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage(error: &str) -> ExitCode {
    if !error.is_empty() {
        eprintln!("error: {error}");
    }
    eprintln!(
        "usage: repro [--quick] [--seed N] [--jobs N] [--out DIR] [--json FILE] \
         [--timings FILE] [--cache-dir DIR] [--cache-max-mb N] \
         [--nodes N] [--rounds N] [--fidelity full|ladder] \
         [--pop N] [--gens N] [--eval full|ladder] [--train-out FILE] \
         [--artifact FILE] [all | <ids>...]"
    );
    eprintln!("       repro --list");
    if error.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
