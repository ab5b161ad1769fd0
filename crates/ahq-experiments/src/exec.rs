//! The deterministic parallel run engine: experiment modules describe
//! their simulations as value-typed [`RunSpec`] jobs and submit whole
//! grids at once; the [`Engine`] fans the jobs out over a scoped-thread
//! worker pool and memoizes results so configurations shared across
//! figures execute exactly once per `repro` invocation.
//!
//! # Determinism
//!
//! A [`RunSpec`] is a *closed* job description: machine, mix, initial
//! loads (in application order — each `set_load` advances the simulator
//! RNG), scheduler, window count, seed, entropy model, and the full
//! per-window load schedule. Executing a spec twice therefore yields
//! byte-identical [`RunResult`]s, and nothing about a run depends on
//! worker identity or scheduling order. Results are returned in
//! submission order, so `--jobs 1` and `--jobs N` produce identical
//! output.
//!
//! A node's only random draws are its request stream
//! ([`ahq_sim::arrivals`]), and the stream depends on the mix, the load
//! calls, the seed and the window boundaries alone — never on the
//! scheduler. So the engine groups the specs of a batch that agree on
//! those inputs ([`RunSpec::same_arrivals`]: a strategy grid's cell) and
//! runs each group as one work unit: one stream draws each window once
//! into an [`ArrivalChunk`], and every member's run steps through that
//! window on it, in lockstep. Each member's result and work counters are
//! exactly those of its standalone [`RunSpec::execute_with_stats`]; only
//! the draws are shared. A lone spec runs alone, its node filling its
//! own chunk each window.
//!
//! # Cache keying
//!
//! A spec's identity is its full `Debug` rendering ([`RunSpec::key`]),
//! so no field can be left out. The memo keys results by
//! [`RunSpec::digest`], the 128-bit hash of that text, and holds no text;
//! debug builds assert that one digest never names two texts. The disk
//! tier verifies the full text inside each shard. Hits and misses are
//! counted per engine and reported by the `repro` binary.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;

use ahq_core::{EntropyModel, Fnv128};
use ahq_sched::{run_with_hook, Arq, ArqConfig, RunResult, SchedContext, ScheduledRun, Scheduler};
use ahq_sim::arrivals::ArrivalChunk;
use ahq_sim::{AppSpec, MachineConfig, NodeSim, Partition, SharingPolicy, SimPerfStats};
use ahq_workloads::mixes::Mix;

use crate::runs::{build_sim, ExpConfig};
use crate::strategy::StrategyKind;

/// Locks `mutex`, ignoring poisoning. Every critical section is a single
/// insert, pop or store, so a panic elsewhere never leaves the guarded data
/// half-updated; the panicking worker still fails the scoped run.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A value-typed scheduler description, so a [`RunSpec`] stays a closed,
/// comparable job description rather than holding a boxed trait object.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedSpec {
    /// One of the named strategies.
    Kind(StrategyKind),
    /// ARQ with an explicit configuration (the ablation variants).
    Arq(ArqConfig),
    /// A fixed partition installed once and never adjusted (Fig. 1's
    /// strategy "B").
    Static(Partition),
}

impl SchedSpec {
    /// Instantiates a fresh scheduler for one run.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            SchedSpec::Kind(kind) => kind.build(),
            SchedSpec::Arq(config) => Box::new(Arq::with_config(*config)),
            SchedSpec::Static(partition) => Box::new(StaticPartition(partition.clone())),
        }
    }
}

/// A scheduler that installs one fixed partition and never adjusts —
/// strategy "B" of the motivating example.
#[derive(Debug, Clone)]
pub struct StaticPartition(pub Partition);

impl Scheduler for StaticPartition {
    fn name(&self) -> &'static str {
        "static"
    }

    fn policy(&self) -> SharingPolicy {
        SharingPolicy::LcPriority
    }

    fn initial_partition(&self, _machine: &MachineConfig, _apps: &[AppSpec]) -> Partition {
        self.0.clone()
    }

    fn decide(&mut self, _ctx: &SchedContext<'_>) -> Option<Partition> {
        None
    }
}

/// One simulation job: everything that determines a [`RunResult`].
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Machine budget under test.
    pub machine: MachineConfig,
    /// The application mix.
    pub mix: Mix,
    /// Initial per-LC-app load fractions, in call-site order (order
    /// matters: each `set_load` advances the simulator RNG).
    pub loads: Vec<(String, f64)>,
    /// The scheduler driving the run.
    pub sched: SchedSpec,
    /// Number of monitoring windows.
    pub windows: usize,
    /// Simulator RNG seed.
    pub seed: u64,
    /// Monitoring-window override in milliseconds (the interval ablation).
    pub window_ms: Option<f64>,
    /// Entropy model the scheduler is fed with.
    pub model: EntropyModel,
    /// Pre-window load changes `(window, app, fraction)` applied in order
    /// before each window — Fig. 13's trace replay, precomputed so the
    /// job stays a closed value.
    pub schedule: Vec<(usize, String, f64)>,
    /// Apps starting this run cold: `(name, warmup ms)` pairs applied via
    /// [`ahq_sim::NodeSim::begin_warmup`] before the first window — how a
    /// controller-migrated LC app's cold-start cost reaches the engine.
    /// Applying a warm-up draws no RNG, so specs with an empty list are
    /// unaffected.
    pub cold: Vec<(String, f64)>,
}

impl RunSpec {
    /// The standard experiment job: `mix` on `machine` at `loads` under a
    /// named strategy, with the configuration's windows, seed and model.
    pub fn strategy(
        cfg: &ExpConfig,
        machine: MachineConfig,
        mix: &Mix,
        loads: &[(&str, f64)],
        strategy: StrategyKind,
    ) -> Self {
        RunSpec {
            machine,
            mix: mix.clone(),
            loads: loads.iter().map(|(n, l)| ((*n).to_owned(), *l)).collect(),
            sched: SchedSpec::Kind(strategy),
            windows: cfg.windows(),
            seed: cfg.seed,
            window_ms: None,
            model: cfg.model(),
            schedule: Vec::new(),
            cold: Vec::new(),
        }
    }

    /// The canonical cache key of this spec.
    pub fn key(&self) -> RunKey {
        RunKey(format!("{self:?}"))
    }

    /// The memo key: the FNV-1a hash of [`RunSpec::key`]'s text, hashed
    /// as it is formatted, without building the `String`.
    pub fn digest(&self) -> u128 {
        let mut hash = Fnv128::default();
        write!(hash, "{self:?}").expect("hashing cannot fail");
        hash.finish()
    }

    /// Executes the job on the calling thread. The result is a pure
    /// function of the spec.
    pub fn execute(&self) -> RunResult {
        self.execute_with_stats().0
    }

    /// [`RunSpec::execute`], additionally returning the simulator's work
    /// counters (events processed, rate-cache hits/misses) so the engine
    /// can aggregate simulated-events/sec across a whole invocation.
    pub fn execute_with_stats(&self) -> (RunResult, SimPerfStats) {
        let mut sim = self.build_node();
        let mut sched = self.sched.build();
        let mut cursor = 0usize;
        let result = run_with_hook(
            &mut sim,
            sched.as_mut(),
            self.windows,
            &self.model,
            |sim, w| {
                for (_, name, fraction) in self.due(&mut cursor, w) {
                    let _ = sim.set_load(name, *fraction);
                }
            },
        );
        let stats = sim.perf_stats();
        (result, stats)
    }

    /// The node before the scheduler takes over: the mix at its initial
    /// loads, the window override and the cold starts.
    fn build_node(&self) -> NodeSim {
        let loads: Vec<(&str, f64)> = self.loads.iter().map(|(n, l)| (n.as_str(), *l)).collect();
        let mut sim = build_sim(self.machine, &self.mix, &loads, self.seed);
        if let Some(ms) = self.window_ms {
            sim.set_window_ms(ms);
        }
        for (name, ms) in &self.cold {
            sim.begin_warmup(name, *ms)
                .expect("cold names target placed apps");
        }
        sim
    }

    /// The schedule entries due before window `w` from `*cursor` on,
    /// advancing the cursor past them.
    fn due(&self, cursor: &mut usize, w: usize) -> &[(usize, String, f64)] {
        let from = *cursor;
        while *cursor < self.schedule.len() && self.schedule[*cursor].0 <= w {
            *cursor += 1;
        }
        &self.schedule[from..*cursor]
    }

    /// Whether `other` draws the same request stream: equal on every
    /// input of the node's arrival stream — mix, initial loads in order,
    /// load schedule, seed, window count and window length. The
    /// scheduler, entropy model, cold starts and machine may differ; none
    /// of them draws.
    pub fn same_arrivals(&self, other: &RunSpec) -> bool {
        self.seed == other.seed
            && self.windows == other.windows
            && self.window_ms == other.window_ms
            && self.loads == other.loads
            && self.schedule == other.schedule
            && self.mix == other.mix
    }

    /// A deterministic cost estimate for dispatch order: the initially
    /// offered requests per second times the window count.
    fn weight(&self) -> f64 {
        let qps: f64 = self
            .loads
            .iter()
            .map(|(name, load)| {
                let app = self.mix.apps.iter().find(|a| a.name() == name);
                load * app.and_then(AppSpec::max_load_qps).unwrap_or(0.0)
            })
            .sum();
        qps * self.windows as f64
    }
}

/// Runs `specs`, which all draw the same request stream
/// ([`RunSpec::same_arrivals`]), in lockstep: one [`ArrivalStream`]
/// applies the load schedule, draws each window once into an
/// [`ArrivalChunk`], and every member's run steps through that window on
/// it. Only one window of draws is live at a time. Each result and
/// counter set equals the member's own [`RunSpec::execute_with_stats`].
///
/// [`ArrivalStream`]: ahq_sim::arrivals::ArrivalStream
fn execute_lockstep(specs: &[&RunSpec]) -> Vec<(RunResult, SimPerfStats)> {
    let lead = specs[0];
    let mut sims: Vec<NodeSim> = specs.iter().map(|s| s.build_node()).collect();
    let mut scheds: Vec<Box<dyn Scheduler>> = specs.iter().map(|s| s.sched.build()).collect();
    // Every member's stream is in this state: same mix, seed and loads.
    let mut stream = sims[0].arrivals().clone();
    let window = sims[0].window_length();
    let mut runs: Vec<ScheduledRun<'_>> = sims
        .iter_mut()
        .zip(&mut scheds)
        .zip(specs)
        .map(|((sim, sched), spec)| ScheduledRun::new(sim, sched.as_mut(), &spec.model))
        .collect();
    let mut chunk = ArrivalChunk::default();
    let mut cursor = 0usize;
    for w in 0..lead.windows {
        let start = runs[0].sim().now();
        for (_, name, fraction) in lead.due(&mut cursor, w) {
            for run in &mut runs {
                let _ = run.sim().set_load(name, *fraction);
            }
            if let Ok(id) = runs[0].sim().app_id(name) {
                stream.set_load(id.index(), *fraction, start);
            }
        }
        stream.fill(start, start + window, &mut chunk);
        for run in &mut runs {
            run.step_from(&chunk);
        }
    }
    let results: Vec<RunResult> = runs.into_iter().map(ScheduledRun::finish).collect();
    results
        .into_iter()
        .zip(&sims)
        .map(|(result, sim)| (result, sim.perf_stats()))
        .collect()
}

/// The canonical cache key of a [`RunSpec`] — the full rendering, which
/// the disk tier verifies; the memo keeps only its [`RunSpec::digest`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey(String);

impl RunKey {
    /// The canonical key text — what the disk tier hashes into an address
    /// and stores inside each shard for verification.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

/// Hit/miss counters of an [`Engine`]'s run cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Submissions answered from the cache (including duplicates within
    /// one batch, which execute once).
    pub hits: u64,
    /// Submissions that executed a simulation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of submissions answered without executing, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The parallel run engine: a scoped-thread worker pool plus a two-tier
/// memoized result cache keyed by canonical [`RunSpec`]. Tier 1 is the
/// in-process map below; tier 2 is an optional persistent
/// [`DiskCache`](crate::cache::DiskCache) attached via
/// [`Engine::set_disk_cache`], probed on tier-1 misses and written
/// through after every execution so results survive the process.
pub struct Engine {
    jobs: usize,
    cache: Mutex<HashMap<u128, Arc<RunResult>>>,
    // Debug builds: the key text behind each digest, to catch a collision.
    #[cfg(debug_assertions)]
    key_texts: Mutex<HashMap<u128, RunKey>>,
    disk: Option<crate::cache::DiskCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    // Aggregated simulator work counters over every *executed* run
    // (cached runs re-use a prior execution and add nothing).
    sim_events: AtomicU64,
    sim_rate_hits: AtomicU64,
    sim_rate_misses: AtomicU64,
}

impl Engine {
    /// Creates an engine with `jobs` workers; `0` means the machine's
    /// available parallelism.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Engine {
            jobs,
            cache: Mutex::new(HashMap::new()),
            #[cfg(debug_assertions)]
            key_texts: Mutex::new(HashMap::new()),
            disk: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            sim_events: AtomicU64::new(0),
            sim_rate_hits: AtomicU64::new(0),
            sim_rate_misses: AtomicU64::new(0),
        }
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Attaches the persistent tier-2 store. Tier-1 misses are probed on
    /// disk before executing, and every executed result is written back.
    pub fn set_disk_cache(&mut self, disk: crate::cache::DiskCache) {
        self.disk = Some(disk);
    }

    /// The attached tier-2 store, if any.
    pub fn disk_cache(&self) -> Option<&crate::cache::DiskCache> {
        self.disk.as_ref()
    }

    /// Tier-2 counters, when a disk cache is attached.
    pub fn disk_stats(&self) -> Option<crate::cache::DiskCacheStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Current cache counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Aggregated simulator work counters across every run this engine
    /// actually executed: discrete events processed and fluid-rate-cache
    /// hits/misses inside the simulators.
    pub fn sim_stats(&self) -> SimPerfStats {
        SimPerfStats {
            events: self.sim_events.load(Ordering::Relaxed),
            rate_hits: self.sim_rate_hits.load(Ordering::Relaxed),
            rate_misses: self.sim_rate_misses.load(Ordering::Relaxed),
        }
    }

    fn record_sim_stats(&self, stats: SimPerfStats) {
        self.sim_events.fetch_add(stats.events, Ordering::Relaxed);
        self.sim_rate_hits
            .fetch_add(stats.rate_hits, Ordering::Relaxed);
        self.sim_rate_misses
            .fetch_add(stats.rate_misses, Ordering::Relaxed);
    }

    /// Runs a single spec through the cache.
    pub fn run_one(&self, spec: &RunSpec) -> Arc<RunResult> {
        self.run_all(std::slice::from_ref(spec))
            .pop()
            .expect("one spec in, one result out")
    }

    /// Runs a grid of specs, returning results in submission order.
    ///
    /// Cached and duplicated specs execute at most once. The rest are
    /// grouped into work units — specs that share a request stream
    /// ([`RunSpec::same_arrivals`]) run in lockstep as one unit, lone specs
    /// alone — and fanned out over the worker pool, heaviest unit first.
    /// Because every job's result is a pure function of its spec and
    /// results are reassembled by submission index, the output is
    /// byte-identical for any worker count.
    pub fn run_all(&self, specs: &[RunSpec]) -> Vec<Arc<RunResult>> {
        let digests: Vec<u128> = specs.iter().map(RunSpec::digest).collect();
        let mut results: Vec<Option<Arc<RunResult>>> = vec![None; specs.len()];
        // Unique uncached jobs (by first submission index) and, for
        // in-batch duplicates, which pending slot each one follows.
        let mut owner_of: HashMap<u128, usize> = HashMap::new();
        let mut pending: Vec<usize> = Vec::new();
        let mut followers: Vec<(usize, usize)> = Vec::new();
        {
            let cache = lock(&self.cache);
            for (i, &digest) in digests.iter().enumerate() {
                #[cfg(debug_assertions)]
                {
                    let key = specs[i].key();
                    let mut texts = lock(&self.key_texts);
                    let seen = texts.entry(digest).or_insert_with(|| key.clone());
                    assert_eq!(*seen, key, "two specs share the digest {digest:032x}");
                }
                if let Some(cached) = cache.get(&digest) {
                    results[i] = Some(Arc::clone(cached));
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else if let Some(&slot) = owner_of.get(&digest) {
                    followers.push((i, slot));
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    owner_of.insert(digest, pending.len());
                    pending.push(i);
                }
            }
        }

        // Tier 2: probe the disk store for each tier-1 miss (no lock
        // held — this is I/O). A disk hit fills its slot up front and
        // counts as a cache hit; only true misses execute. Only here is
        // the key text rendered, once per miss.
        let slots: Vec<Mutex<Option<RunResult>>> =
            pending.iter().map(|_| Mutex::new(None)).collect();
        let mut to_run: Vec<usize> = Vec::with_capacity(pending.len());
        let mut disk_keys: Vec<RunKey> = Vec::new();
        if let Some(disk) = &self.disk {
            disk_keys = pending.iter().map(|&i| specs[i].key()).collect();
            for (slot, key) in disk_keys.iter().enumerate() {
                if let Some(result) = disk.load(key) {
                    *lock(&slots[slot]) = Some(result);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    to_run.push(slot);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
            }
        } else {
            to_run.extend(0..pending.len());
            self.misses
                .fetch_add(pending.len() as u64, Ordering::Relaxed);
        }

        let units = self.plan_units(specs, &pending, &to_run);
        let run_unit = |unit: &[usize]| {
            let outcomes = if let [slot] = *unit {
                vec![specs[pending[slot]].execute_with_stats()]
            } else {
                let members: Vec<&RunSpec> =
                    unit.iter().map(|&slot| &specs[pending[slot]]).collect();
                execute_lockstep(&members)
            };
            for (&slot, (result, sim_stats)) in unit.iter().zip(outcomes) {
                self.record_sim_stats(sim_stats);
                *lock(&slots[slot]) = Some(result);
            }
        };
        let workers = self.jobs.min(units.len());
        if workers <= 1 {
            units.iter().for_each(|unit| run_unit(unit));
        } else {
            let next = AtomicUsize::new(0);
            thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(unit) = units.get(next.fetch_add(1, Ordering::Relaxed)) {
                            run_unit(unit);
                        }
                    });
                }
            });
        }

        // Write-through: persist freshly executed results (disk hits are
        // already on disk) before sealing tier 1.
        if let Some(disk) = &self.disk {
            for &slot in &to_run {
                if let Some(result) = lock(&slots[slot]).as_ref() {
                    disk.store(&disk_keys[slot], result);
                }
            }
        }

        {
            let mut cache = lock(&self.cache);
            for (slot, cell) in slots.into_iter().enumerate() {
                let result = Arc::new(
                    cell.into_inner()
                        .unwrap_or_else(PoisonError::into_inner)
                        .expect("worker filled the slot"),
                );
                cache.insert(digests[pending[slot]], Arc::clone(&result));
                results[pending[slot]] = Some(result);
            }
        }
        for (i, slot) in followers {
            results[i] = results[pending[slot]].clone();
        }
        results
            .into_iter()
            .map(|r| r.expect("every submission resolved"))
            .collect()
    }

    /// Splits the pending slots in `to_run` (indices into `pending`,
    /// which maps them to `specs`) into work units, in dispatch order.
    ///
    /// * **Grouping.** Specs that draw the same request stream
    ///   ([`RunSpec::same_arrivals`]) form one lockstep unit. Candidates
    ///   are bucketed on seed, window count and window length first, so
    ///   a batch of distinct seeds pays one hash probe per spec.
    /// * **Splitting.** A batch never has fewer units than workers: the
    ///   heaviest group is halved until it does, or every unit is single.
    /// * **Order.** Heaviest first by a deterministic estimate — the
    ///   spec's [`RunSpec::weight`] times its members — ties in
    ///   submission order.
    fn plan_units(
        &self,
        specs: &[RunSpec],
        pending: &[usize],
        to_run: &[usize],
    ) -> Vec<Vec<usize>> {
        let spec = |slot: usize| &specs[pending[slot]];
        let mut units: Vec<Vec<usize>> = Vec::new();
        let mut buckets: HashMap<(u64, usize, Option<u64>), Vec<usize>> = HashMap::new();
        for &slot in to_run {
            let s = spec(slot);
            let bucket = buckets
                .entry((s.seed, s.windows, s.window_ms.map(f64::to_bits)))
                .or_default();
            match bucket.iter().find(|&&u| spec(units[u][0]).same_arrivals(s)) {
                Some(&u) => units[u].push(slot),
                None => {
                    bucket.push(units.len());
                    units.push(vec![slot]);
                }
            }
        }
        let weight = |unit: &[usize]| spec(unit[0]).weight() * unit.len() as f64;
        while units.len() < self.jobs {
            let heaviest = (0..units.len())
                .filter(|&u| units[u].len() > 1)
                .max_by(|&a, &b| {
                    weight(&units[a])
                        .total_cmp(&weight(&units[b]))
                        .then(b.cmp(&a))
                });
            let Some(u) = heaviest else {
                break;
            };
            let half = units[u].len() / 2;
            let tail = units[u].split_off(half);
            units.push(tail);
        }
        let mut weighted: Vec<(f64, Vec<usize>)> = units
            .into_iter()
            .map(|unit| (weight(&unit), unit))
            .collect();
        weighted.sort_by(|(wa, a), (wb, b)| wb.total_cmp(wa).then(a[0].cmp(&b[0])));
        weighted.into_iter().map(|(_, unit)| unit).collect()
    }
}

/// Everything an experiment module needs: the configuration plus the
/// shared [`Engine`]. Derefs to [`ExpConfig`], so `cfg.windows()`-style
/// call sites work unchanged.
pub struct ExpContext {
    /// The experiment configuration.
    pub cfg: ExpConfig,
    /// Command-line overrides for the cluster experiment
    /// (`repro cluster --nodes/--rounds/--fidelity`).
    pub cluster: crate::cluster::ClusterOpts,
    /// Command-line overrides for the train/replay experiments
    /// (`repro train --pop/--gens/--train-out/--artifact`).
    pub train: crate::train::TrainOpts,
    engine: Engine,
}

impl ExpContext {
    /// A context using the machine's available parallelism.
    pub fn new(cfg: ExpConfig) -> Self {
        Self::with_jobs(cfg, 0)
    }

    /// A context with an explicit worker count (`0` = auto).
    pub fn with_jobs(cfg: ExpConfig, jobs: usize) -> Self {
        ExpContext {
            cfg,
            cluster: crate::cluster::ClusterOpts::default(),
            train: crate::train::TrainOpts::default(),
            engine: Engine::new(jobs),
        }
    }

    /// The shared engine (and its run cache).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access, for attaching the persistent disk cache
    /// before any experiment runs.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl Deref for ExpContext {
    type Target = ExpConfig;

    fn deref(&self) -> &ExpConfig {
        &self.cfg
    }
}

impl Default for ExpContext {
    fn default() -> Self {
        Self::new(ExpConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_core::check;
    use ahq_core::rng::Rng;
    use ahq_core::{stable_hash128, RelativeImportance};
    use ahq_sim::RegionAlloc;
    use ahq_workloads::mixes;

    fn tiny_spec(seed: u64, strategy: StrategyKind) -> RunSpec {
        let cfg = ExpConfig { quick: true, seed };
        let mix = mixes::fluidanimate_mix();
        RunSpec {
            windows: 8,
            ..RunSpec::strategy(
                &cfg,
                MachineConfig::paper_xeon(),
                &mix,
                &[("xapian", 0.3), ("moses", 0.2), ("img-dnn", 0.2)],
                strategy,
            )
        }
    }

    #[test]
    fn duplicated_spec_executes_once() {
        let engine = Engine::new(3);
        let a = tiny_spec(21, StrategyKind::Arq);
        let b = tiny_spec(22, StrategyKind::Arq);
        let c = RunSpec {
            sched: SchedSpec::Kind(StrategyKind::Unmanaged),
            ..a.clone()
        };
        let batch = [a.clone(), b.clone(), a, c, b.clone(), b];
        let results = engine.run_all(&batch);
        assert_eq!(engine.stats(), CacheStats { hits: 3, misses: 3 });
        for (i, j) in [(0, 2), (1, 4), (1, 5)] {
            assert!(Arc::ptr_eq(&results[i], &results[j]), "{j} follows {i}");
        }
        assert!(!Arc::ptr_eq(&results[0], &results[3]));
        assert_equal_runs(&results[3], &batch[3].execute());
    }

    #[test]
    fn cache_persists_across_calls() {
        let engine = Engine::new(2);
        let spec = tiny_spec(9, StrategyKind::Unmanaged);
        let first = engine.run_one(&spec);
        let second = engine.run_one(&spec);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(engine.stats(), CacheStats { hits: 1, misses: 1 });
        assert!((engine.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_results_are_byte_identical_to_sequential() {
        let grid: Vec<RunSpec> = [0.2, 0.5, 0.8]
            .iter()
            .flat_map(|&load| {
                StrategyKind::all().map(|strategy| {
                    let mut spec = tiny_spec(11, strategy);
                    spec.loads[0].1 = load;
                    spec
                })
            })
            .collect();
        let sequential = Engine::new(1).run_all(&grid);
        let parallel = Engine::new(8).run_all(&grid);
        let render = |results: &[Arc<ahq_sched::RunResult>]| -> String {
            results
                .iter()
                .map(|r| ahq_core::json::to_string(&**r))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&sequential), render(&parallel));
    }

    #[test]
    fn distinct_seeds_are_distinct_jobs() {
        let engine = Engine::new(2);
        let a = engine.run_one(&tiny_spec(1, StrategyKind::Unmanaged));
        let b = engine.run_one(&tiny_spec(2, StrategyKind::Unmanaged));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.stats().misses, 2);
    }

    #[test]
    fn static_scheduler_never_adjusts() {
        let spec = RunSpec {
            sched: SchedSpec::Static(Partition::all_shared(4)),
            ..tiny_spec(5, StrategyKind::Unmanaged)
        };
        let result = spec.execute();
        assert_eq!(result.strategy, "static");
        assert_eq!(result.adjustments, 0);
    }

    /// One cell: a shared request stream (same mix, loads, schedule, seed,
    /// windows and window length) under members that differ in
    /// everything that draws nothing — strategy, ARQ configuration, a
    /// static partition, the entropy model, cold starts and the machine.
    fn mixed_cell(seed: u64) -> Vec<RunSpec> {
        let base = RunSpec {
            windows: 12,
            window_ms: Some(200.0),
            schedule: vec![
                (3, "moses".into(), 0.0),
                (5, "xapian".into(), 0.9),
                (8, "moses".into(), 0.4),
            ],
            ..tiny_spec(seed, StrategyKind::Unmanaged)
        };
        let half_ri = EntropyModel::new(ahq_core::RelativeImportance::new(0.5).unwrap());
        let mut cell: Vec<RunSpec> = StrategyKind::extended()
            .into_iter()
            .map(|s| RunSpec {
                sched: SchedSpec::Kind(s),
                ..base.clone()
            })
            .collect();
        cell.push(RunSpec {
            sched: SchedSpec::Arq(ArqConfig {
                beneficiary_ret: 0.3,
                sharing: SharingPolicy::Fair,
                ..ArqConfig::default()
            }),
            model: half_ri,
            ..base.clone()
        });
        cell.push(RunSpec {
            sched: SchedSpec::Static(Partition::all_shared(4)),
            cold: vec![("xapian".into(), 120.0), ("fluidanimate".into(), 40.0)],
            ..base.clone()
        });
        cell.push(RunSpec {
            sched: SchedSpec::Kind(StrategyKind::Arq),
            machine: MachineConfig::paper_xeon().with_budget(8, 16),
            model: half_ri,
            cold: vec![("moses".into(), 300.0)],
            ..base
        });
        cell
    }

    fn assert_equal_runs(got: &RunResult, alone: &RunResult) {
        assert_eq!(
            format!("{got:?}"),
            format!("{alone:?}"),
            "{}",
            alone.strategy
        );
    }

    #[test]
    fn lockstep_members_equal_their_standalone_runs() {
        let cell = mixed_cell(13);
        assert!(cell.iter().all(|s| s.same_arrivals(&cell[0])));
        let members: Vec<&RunSpec> = cell.iter().collect();
        for (spec, (result, stats)) in cell.iter().zip(execute_lockstep(&members)) {
            let (alone, alone_stats) = spec.execute_with_stats();
            assert_equal_runs(&result, &alone);
            assert_eq!(stats, alone_stats, "{}", alone.strategy);
        }
    }

    #[test]
    fn grouped_batches_equal_standalone_runs_at_any_worker_count() {
        // Two groups (distinct seeds) and a singleton; then one group
        // alone, fewer units than three workers until it is split.
        let mut batch = mixed_cell(13);
        batch.extend(mixed_cell(14).into_iter().take(3));
        batch.push(tiny_spec(15, StrategyKind::Arq));
        for batch in [batch, mixed_cell(16)] {
            let alone: Vec<(RunResult, SimPerfStats)> =
                batch.iter().map(RunSpec::execute_with_stats).collect();
            let total = alone
                .iter()
                .fold(SimPerfStats::default(), |t, (_, s)| SimPerfStats {
                    events: t.events + s.events,
                    rate_hits: t.rate_hits + s.rate_hits,
                    rate_misses: t.rate_misses + s.rate_misses,
                });
            for jobs in [1, 3] {
                let engine = Engine::new(jobs);
                let results = engine.run_all(&batch);
                for (got, (alone, _)) in results.iter().zip(&alone) {
                    assert_equal_runs(got, alone);
                }
                assert_eq!(engine.sim_stats(), total, "{jobs} workers");
                assert_eq!(engine.stats().misses, batch.len() as u64);
            }
        }
    }

    #[test]
    fn units_fill_the_workers_and_run_heaviest_first() {
        let cell = mixed_cell(13);
        let all: Vec<usize> = (0..cell.len()).collect();
        assert_eq!(
            Engine::new(1).plan_units(&cell, &all, &all),
            vec![all.clone()]
        );
        let units = Engine::new(3).plan_units(&cell, &all, &all);
        assert_eq!(
            units.len(),
            3,
            "one group is halved until three units exist"
        );
        assert_eq!(units.concat().len(), cell.len());
        let mut members = units.concat();
        members.sort_unstable();
        assert_eq!(members, all);
        // Distinct seeds never group; heavier specs dispatch first and
        // equal weights keep submission order.
        let singles: Vec<RunSpec> = [(1, 0.3), (2, 0.9), (3, 0.3), (4, 0.6)]
            .into_iter()
            .map(|(seed, load)| {
                let mut spec = tiny_spec(seed, StrategyKind::Unmanaged);
                spec.loads[0].1 = load;
                spec
            })
            .collect();
        let all: Vec<usize> = (0..singles.len()).collect();
        let order = Engine::new(2).plan_units(&singles, &all, &all);
        assert_eq!(order, vec![vec![1], vec![3], vec![0], vec![2]]);
    }

    /// A random spec: every [`SchedSpec`] variant, both entropy models,
    /// load schedules, cold lists, `window_ms` set or not, three mixes and
    /// three machines.
    fn random_spec(rng: &mut Rng) -> RunSpec {
        let mix = match rng.below(3) {
            0 => mixes::fluidanimate_mix(),
            1 => mixes::stream_mix(),
            _ => mixes::sphinx_mix(),
        };
        let names: Vec<String> = mix.apps.iter().map(|a| a.name().to_owned()).collect();
        let lc = mix.lc_names().len();
        let pick_lc = |rng: &mut Rng| names[rng.range_usize(0..lc)].clone();
        let windows = rng.range_usize(1..40);
        let sched = match rng.below(3) {
            0 => SchedSpec::Kind(StrategyKind::extended()[rng.range_usize(0..6)]),
            1 => SchedSpec::Arq(ArqConfig {
                victim_ret: rng.f64(),
                beneficiary_ret: rng.f64() * 0.1,
                sharing: if rng.bool() {
                    SharingPolicy::Fair
                } else {
                    SharingPolicy::LcPriority
                },
                throttle_be: rng.bool(),
                ..ArqConfig::default()
            }),
            _ => SchedSpec::Static(Partition::strict(
                (0..names.len())
                    .map(|_| RegionAlloc::new(rng.range_u32(0..4), rng.range_u32(0..4)))
                    .collect(),
            )),
        };
        RunSpec {
            machine: match rng.below(3) {
                0 => MachineConfig::paper_xeon(),
                1 => MachineConfig::paper_xeon().with_budget(8, 16),
                _ => MachineConfig::paper_xeon().with_budget(12, 11),
            },
            loads: check::vec(rng, 0..4, |rng| (pick_lc(rng), rng.f64())),
            sched,
            windows,
            seed: rng.next_u64(),
            window_ms: rng.bool().then(|| rng.range_f64(50.0..=1000.0)),
            model: if rng.bool() {
                EntropyModel::default()
            } else {
                EntropyModel::new(RelativeImportance::new(rng.f64()).unwrap())
            },
            schedule: check::vec(rng, 0..5, |rng| {
                (rng.range_usize(0..windows), pick_lc(rng), rng.f64())
            }),
            cold: check::vec(rng, 0..3, |rng| {
                let app = names[rng.range_usize(0..names.len())].clone();
                (app, rng.range_f64(0.0..=500.0))
            }),
            mix,
        }
    }

    #[test]
    fn digest_is_the_hash_of_the_key_text() {
        check::cases(256, |rng| {
            let spec = random_spec(rng);
            assert_eq!(
                spec.digest(),
                stable_hash128(spec.key().as_str().as_bytes())
            );
        });
    }

    #[test]
    fn every_one_field_change_changes_the_digest() {
        let ulp = |x: f64| f64::from_bits(x.to_bits() + 1);
        check::cases(128, |rng| {
            let spec = random_spec(rng);
            let mut variants = vec![
                RunSpec {
                    seed: spec.seed.wrapping_add(1),
                    ..spec.clone()
                },
                RunSpec {
                    seed: spec.seed.wrapping_sub(1),
                    ..spec.clone()
                },
                RunSpec {
                    windows: spec.windows + 1,
                    ..spec.clone()
                },
                RunSpec {
                    window_ms: match spec.window_ms {
                        Some(_) => None,
                        None => Some(1000.0),
                    },
                    ..spec.clone()
                },
            ];
            let mut moved = spec.clone();
            match moved.loads.first_mut() {
                Some(load) => load.1 = ulp(load.1),
                None => moved.loads.push(("xapian".into(), 0.5)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            match moved.schedule.last_mut() {
                Some(entry) => entry.2 = ulp(entry.2),
                None => moved.schedule.push((0, "moses".into(), 0.5)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            moved.schedule.push((spec.windows, "moses".into(), 0.0));
            variants.push(moved);
            let mut moved = spec.clone();
            match moved.cold.pop() {
                Some((name, ms)) => moved.cold.push((name, ulp(ms))),
                None => moved.cold.push(("moses".into(), 100.0)),
            }
            variants.push(moved);
            let mut moved = spec.clone();
            moved.cold.push(("moses".into(), 100.0));
            variants.push(moved);
            for variant in &variants {
                assert_ne!(variant.key(), spec.key());
                assert_ne!(variant.digest(), spec.digest(), "{variant:?}");
            }
        });
    }

    fn temp_disk(tag: &str) -> crate::cache::DiskCache {
        let root =
            std::env::temp_dir().join(format!("ahq-engine-disk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        crate::cache::DiskCache::open(root, None).unwrap()
    }

    #[test]
    fn the_disk_is_probed_once_per_memo_miss() {
        let mut engine = Engine::new(2);
        engine.set_disk_cache(temp_disk("probes"));
        let a = tiny_spec(31, StrategyKind::Unmanaged);
        let b = tiny_spec(32, StrategyKind::Unmanaged);
        let c = tiny_spec(33, StrategyKind::Unmanaged);
        engine.run_one(&a);
        // `a` is a memo hit and the second `b` a follower: only `b` and
        // `c` reach the disk, once each.
        engine.run_all(&[a, b.clone(), c, b]);
        let disk = engine.disk_stats().unwrap();
        assert_eq!((disk.hits, disk.misses), (0, 3));
        assert_eq!(engine.stats(), CacheStats { hits: 2, misses: 3 });
        std::fs::remove_dir_all(engine.disk_cache().unwrap().root()).ok();
    }

    #[test]
    fn a_shard_stored_under_the_key_text_is_a_disk_hit() {
        let disk = temp_disk("stored");
        let spec = tiny_spec(41, StrategyKind::Parties);
        let result = spec.execute();
        disk.store(&spec.key(), &result);
        let written = disk.stats().bytes_written;
        let root = disk.root().to_path_buf();
        let mut engine = Engine::new(1);
        engine.set_disk_cache(disk);
        let got = engine.run_one(&spec);
        assert_equal_runs(&got, &result);
        assert_eq!(engine.stats(), CacheStats { hits: 1, misses: 0 });
        let disk = engine.disk_stats().unwrap();
        assert_eq!((disk.hits, disk.misses), (1, 0));
        assert_eq!(disk.bytes_written, written, "a disk hit is not rewritten");
        std::fs::remove_dir_all(root).ok();
    }
}
