use std::collections::VecDeque;

use crate::app::{AppId, AppKind, AppSpec, KindParams};
use crate::arrivals::{ArrivalChunk, ArrivalStream};
use crate::bandwidth::BandwidthModel;
use crate::cache::MissRatioCurve;
use crate::contention::{
    compute_rates, compute_rates_into, AppDemand, AppRates, RateScratch, SharingPolicy,
};
use crate::error::SimError;
use crate::observation::{BeWindowStats, LcWindowStats, WindowObservation};
use crate::partition::Partition;
use crate::quantile::{percentile_in_place, TailEstimator};
use crate::resources::MachineConfig;
use crate::time::{ceil_to_u64, SimTime};

/// How long an application runs degraded after the scheduler changes its
/// allocation (ms): cache refill, thread migration, context switches.
///
/// This is what makes "ping-ponging" strategies visibly expensive in the
/// simulation, mirroring the overhead discussion in §IV-D of the paper.
pub const WARMUP_MS: f64 = 50.0;

/// Per-thread speed multiplier applied during the [`WARMUP_MS`] warm-up.
pub const WARMUP_PENALTY: f64 = 0.85;

/// One outstanding request of an LC application.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: SimTime,
    /// Remaining service demand in core-milliseconds at speed 1.
    remaining_ms: f64,
}

/// A request counts as complete when this much work (core-ms) remains —
/// absorbs the float dust left by the subtract-and-clamp in `advance`.
const COMPLETION_EPS_MS: f64 = 1e-9;

/// Slab storage for every LC application's in-service requests: one
/// contiguous allocation partitioned into fixed per-application slabs
/// (capacity = the application's thread count), replacing one `Vec` per
/// application. Push and swap-remove reproduce `Vec` semantics exactly —
/// order matters, because completion order feeds the order-sensitive
/// [`TailEstimator`] ring.
///
/// Every slot at or past its slab's `len` holds `remaining_ms =
/// f64::INFINITY` (construction fills with it, `swap_remove` re-pads the
/// slot it vacates), and `(∞ − step).max(0.0)` is `∞` for every finite
/// step. So `advance` and [`RequestArena::min_remaining`] may run over
/// each slab's constant `cap` instead of its varying `len`: the pad
/// slots neither change nor lower the minimum.
#[derive(Debug)]
struct RequestArena {
    slots: Vec<Request>,
    offset: Vec<usize>,
    cap: Vec<usize>,
    len: Vec<usize>,
}

impl RequestArena {
    fn new(caps: &[usize]) -> Self {
        let mut offset = Vec::with_capacity(caps.len());
        let mut total = 0usize;
        for &c in caps {
            offset.push(total);
            total += c;
        }
        RequestArena {
            slots: vec![
                Request {
                    arrival: SimTime::ZERO,
                    remaining_ms: f64::INFINITY,
                };
                total
            ],
            offset,
            cap: caps.to_vec(),
            len: vec![0; caps.len()],
        }
    }

    fn len(&self, i: usize) -> usize {
        self.len[i]
    }

    fn cap(&self, i: usize) -> usize {
        self.cap[i]
    }

    /// App `i`'s in-service requests.
    fn slab(&self, i: usize) -> &[Request] {
        &self.slots[self.offset[i]..self.offset[i] + self.len[i]]
    }

    /// App `i`'s whole lane, pad slots included.
    fn lane(&self, i: usize) -> &[Request] {
        &self.slots[self.offset[i]..self.offset[i] + self.cap[i]]
    }

    fn push(&mut self, i: usize, req: Request) {
        debug_assert!(self.len[i] < self.cap[i], "slab overflow for app {i}");
        self.slots[self.offset[i] + self.len[i]] = req;
        self.len[i] += 1;
    }

    /// Removes slot `j` of app `i` by moving the last slot into its place
    /// — element-for-element what `Vec::swap_remove` does — and re-pads
    /// the vacated last slot with `f64::INFINITY`.
    fn swap_remove(&mut self, i: usize, j: usize) -> Request {
        let o = self.offset[i];
        let last = self.len[i] - 1;
        let removed = self.slots[o + j];
        self.slots[o + j] = self.slots[o + last];
        self.slots[o + last].remaining_ms = f64::INFINITY;
        self.len[i] = last;
        removed
    }

    /// Fold-min over the slab, `f64::INFINITY` when empty. It runs over
    /// the whole lane: the `∞` pad slots leave it unchanged.
    fn min_remaining(&self, i: usize) -> f64 {
        self.lane(i)
            .iter()
            .map(|r| r.remaining_ms)
            .fold(f64::INFINITY, f64::min)
    }
}

#[derive(Debug)]
struct LcState {
    queue: VecDeque<Request>,
    /// Offered load as a fraction of the nominal max load.
    load_fraction: f64,
    tail: TailEstimator,
    window_samples: Vec<f64>,
    window_arrivals: u64,
    window_completions: u64,
    window_drops: u64,
    max_outstanding: usize,
}

#[derive(Debug)]
struct BeState {
    /// The per-thread speed factor the application achieves alone on the
    /// reference machine — used to normalise reported IPC.
    solo_speed: f64,
}

#[derive(Debug)]
struct AppRuntime {
    spec: AppSpec,
    curve: MissRatioCurve,
    lc: Option<LcState>,
    be: Option<BeState>,
}

/// The per-application state the event loop touches on *every* event, in
/// struct-of-arrays layout: `next_event`'s scan and `advance`'s
/// integration walk parallel contiguous slices instead of chasing
/// `Option`s through an enum-per-app layout. The encodings make the scans
/// branch-free:
///
/// * `min_remaining_ms` is `f64::INFINITY` for BE applications and idle
///   LC applications, so "has a pending completion" is a float compare;
/// * the arrival stream's next arrival is [`SimTime::NEVER`] for BE
///   applications, so the arrival comparison needs no kind check;
/// * `be_threads` is `0.0` for LC applications, so the BE speed integral
///   accumulates an exact `0.0` for them instead of branching.
#[derive(Debug)]
struct HotState {
    /// Exact minimum of in-service remaining work (core-ms); INFINITY
    /// when nothing is in service. Maintained with the same
    /// subtract-and-clamp arithmetic as the requests themselves, so it
    /// stays bit-identical to a fresh scan over the slab.
    min_remaining_ms: Vec<f64>,
    warmup_until: Vec<SimTime>,
    /// Cached per-thread speed *including* the warm-up penalty; refreshed
    /// by `recompute_rates`, which runs whenever anything the speed
    /// depends on changes (see `next_warm_expiry`).
    speed: Vec<f64>,
    /// Cached `core_capacity` of the current rate vector.
    capacity: Vec<f64>,
    /// Thread count as f64 for BE applications, 0.0 otherwise.
    be_threads: Vec<f64>,
    /// Busy-thread count for non-LC applications (LC busy counts live in
    /// the arena lengths).
    static_busy: Vec<u32>,
    is_lc: Vec<bool>,
    /// ∫ core_capacity dt over the current window, core-ms.
    window_capacity_integral: Vec<f64>,
    /// ∫ speed · threads dt over the current window for BE apps, thread-ms.
    window_speed_integral: Vec<f64>,
}

/// The tail quantile each LC app reports per window: the paper's p95.
const TAIL_QUANTILE: f64 = 0.95;

/// Minimum samples in the current window before the per-window percentile
/// is preferred over the streaming ring estimate.
const WINDOW_P95_MIN_SAMPLES: usize = 50;

/// Entry cap of the [`RateCache`] — a defensive bound far above any
/// reachable key population (busy counts are bounded by per-application
/// thread counts); the memo is dropped wholesale if it is ever hit.
const RATE_CACHE_MAX_ENTRIES: usize = 1 << 16;

/// The multiplier of the memo's slot hash — the constant of rustc's Fx
/// hash (a 64-bit truncation of π's digits).
const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The node's memo of fluid contention rates: an open-addressed table
/// from the packed `u64` key to each application's final per-thread
/// speed (warm-up penalty included) and core capacity.
///
/// Between repartitions the busy-thread vector cycles through a handful
/// of values, so almost every rate recomputation can be answered by
/// copying a previously derived `(speed, capacity)` vector instead of
/// running [`compute_rates_into`] and the penalty pass.
///
/// The key packs the sharing policy (bit 0), one warm-up bit per
/// application, then each busy count in its own bit field, whose width
/// [`RateCache::new`] fixes from the application's thread count. The warm
/// bits encode exactly the penalty condition, so the stored speeds are a
/// pure function of the key. The machine, partition, miss-ratio curves
/// and bandwidth model are *not* part of the key — the owner must call
/// [`RateCache::invalidate`] whenever any of those change (the node does
/// so in `set_partition`/`set_policy`). A layout that does not fit in 64
/// bits yields no key: every lookup misses and the owner solves each time.
#[derive(Debug)]
pub struct RateCache {
    /// Slot keys; meaningful only where `used` is set.
    keys: Vec<u64>,
    used: Vec<bool>,
    /// Slot payloads at stride `2n`: `[speed_0, capacity_0, speed_1, ...]`.
    vals: Vec<f64>,
    /// Bit width of each application's busy field in the packed key.
    bits: Vec<u32>,
    packable: bool,
    len: usize,
    hits: u64,
    misses: u64,
}

impl RateCache {
    /// Creates an empty memo whose key layout fits busy counts up to
    /// `max_busy[i]` for application `i`.
    pub fn new(max_busy: &[u32]) -> Self {
        let n = max_busy.len();
        let bits: Vec<u32> = max_busy.iter().map(|&t| 32 - t.leading_zeros()).collect();
        let total: u32 = 1 + n as u32 + bits.iter().sum::<u32>();
        let slots = 64;
        RateCache {
            keys: vec![0; slots],
            used: vec![false; slots],
            vals: vec![0.0; slots * 2 * n],
            bits,
            packable: total <= 64 && n <= 63,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Lookups answered from memory.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that found nothing, so the owner ran the solver.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops every memoized entry. Must be called whenever the machine,
    /// partition, curves or bandwidth model change; hit/miss counters
    /// survive.
    pub fn invalidate(&mut self) {
        self.used.fill(false);
        self.len = 0;
    }

    /// Packs a busy-count sequence into the single-`u64` key: the policy
    /// bit, one warm bit per application, then each busy count in its own
    /// bit field. Returns `None` when the layout does not pack, `count`
    /// does not match it, or a busy count overflows its field (so an
    /// overflowing count can never alias an entry).
    #[inline(always)]
    pub fn pack_scan_key<I: IntoIterator<Item = u32>>(
        &self,
        busy: I,
        count: usize,
        warm_mask: u64,
        policy: SharingPolicy,
    ) -> Option<u64> {
        if !self.packable || count != self.bits.len() {
            return None;
        }
        let mut key: u64 = match policy {
            SharingPolicy::Fair => 0,
            SharingPolicy::LcPriority => 1,
        };
        let n = count as u32;
        key |= (warm_mask & ((1u64 << n) - 1)) << 1;
        let mut shift = 1 + n;
        let mut overflow = 0u64;
        for (v, &b) in busy.into_iter().zip(self.bits.iter()) {
            // `busy >> b` is non-zero exactly when the count does not fit
            // in its field (with b = 0 that is any non-zero count).
            overflow |= (v as u64) >> b;
            if b > 0 {
                key |= (v as u64) << shift;
                shift += b;
            }
        }
        (overflow == 0).then_some(key)
    }

    /// The packed layout: per-application busy-field bit widths, `None`
    /// when keys do not fit in a `u64`. Lets the node derive the field
    /// positions of its incrementally maintained key from the exact
    /// layout [`RateCache::pack_scan_key`] packs with.
    fn layout(&self) -> Option<&[u32]> {
        self.packable.then_some(self.bits.as_slice())
    }

    /// Maps a key to its preferred slot: one multiplicative hash, high
    /// bits folded down to the (power-of-two) table size.
    #[inline(always)]
    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(FX_SEED) >> 32) as usize & (self.keys.len() - 1)
    }

    /// The memoized `[speed_0, capacity_0, speed_1, ...]` for `key`,
    /// counting a hit, or `None` — counting a miss — when `key` is absent
    /// or is `None` (a layout that does not pack).
    #[inline(always)]
    pub fn lookup(&mut self, key: Option<u64>) -> Option<&[f64]> {
        if let Some(key) = key {
            let mut s = self.slot_of(key);
            while self.used[s] {
                if self.keys[s] == key {
                    self.hits += 1;
                    let stride = 2 * self.bits.len();
                    return Some(&self.vals[s * stride..(s + 1) * stride]);
                }
                s = (s + 1) & (self.keys.len() - 1);
            }
        }
        self.misses += 1;
        None
    }

    /// Memoizes the per-application `speed` and `capacity` under `key`,
    /// growing (or, at the entry cap, dropping) the table as needed. The
    /// caller looks up before inserting, so `key` is absent.
    pub fn insert(&mut self, key: u64, speed: &[f64], capacity: &[f64]) {
        if self.len >= RATE_CACHE_MAX_ENTRIES {
            self.invalidate();
        }
        if (self.len + 1) * 2 >= self.keys.len() {
            self.grow();
        }
        let off = self.claim_slot(key) * 2 * self.bits.len();
        for (i, (&sp, &cap)) in speed.iter().zip(capacity).enumerate() {
            self.vals[off + 2 * i] = sp;
            self.vals[off + 2 * i + 1] = cap;
        }
    }

    /// Marks the first free slot on `key`'s probe path as holding `key`
    /// and returns it.
    fn claim_slot(&mut self, key: u64) -> usize {
        let mut s = self.slot_of(key);
        while self.used[s] {
            s = (s + 1) & (self.keys.len() - 1);
        }
        self.used[s] = true;
        self.keys[s] = key;
        self.len += 1;
        s
    }

    /// Doubles the table, re-probing every live entry into the new slots.
    fn grow(&mut self) {
        let stride = 2 * self.bits.len();
        let slots = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; slots]);
        let old_used = std::mem::replace(&mut self.used, vec![false; slots]);
        let old_vals = std::mem::replace(&mut self.vals, vec![0.0; slots * stride]);
        self.len = 0;
        for (s, &key) in old_keys.iter().enumerate() {
            if old_used[s] {
                let off = self.claim_slot(key) * stride;
                self.vals[off..off + stride]
                    .copy_from_slice(&old_vals[s * stride..(s + 1) * stride]);
            }
        }
    }
}

/// Counters describing how much work one [`NodeSim`] has done — used by
/// the experiment engine to report simulated-events/sec and rate-memo
/// effectiveness in `repro --timings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimPerfStats {
    /// Discrete events processed (arrivals, completions, warm-up
    /// expiries); window boundaries are not counted.
    pub events: u64,
    /// Rate recomputations answered from the [`RateCache`] memo.
    pub rate_hits: u64,
    /// Rate recomputations that ran the fluid solver: memo misses, plus
    /// every recomputation of a node whose key layout does not pack.
    pub rate_misses: u64,
}

/// The event kinds the node's window loop dispatches, as found by
/// [`scan_next_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEvent {
    /// The monitoring window boundary was reached first.
    WindowEnd,
    /// The next arrival of the carried LC application.
    Arrival(usize),
    /// A request of the carried application reaches zero remaining work;
    /// the index lets completion processing skip straight to the owner.
    Completion(usize),
    /// Some application's warm-up penalty expires.
    WarmupExpiry,
}

/// Scans the flat per-application event-source arrays for the earliest
/// next event. Pure function over the SoA slices so its tie-break
/// behaviour can be pinned by property tests.
///
/// Event sources are examined in a fixed order — the window end, then per
/// application in index order: arrival, completion, warm-up expiry — and
/// every comparison is strict (`<`), so the *first* source examined keeps
/// a contested timestamp. `to_bits`-level determinism of the returned
/// time follows from the comparisons being exact float/integer compares.
///
/// Encodings: `next_arrival[i]` is [`SimTime::NEVER`] when app `i` never
/// arrives (BE apps, silenced LC apps); `min_remaining_ms[i]` is
/// `f64::INFINITY` when app `i` has nothing in service, which doubles as
/// the "no completion pending" test; `warmup_until[i]` in the past means
/// no expiry is pending.
#[inline(always)]
pub fn scan_next_event(
    time: SimTime,
    window_end: SimTime,
    next_arrival: &[SimTime],
    min_remaining_ms: &[f64],
    speed: &[f64],
    warmup_until: &[SimTime],
) -> (SimTime, ScanEvent) {
    let mut best = (window_end, ScanEvent::WindowEnd);
    for i in 0..next_arrival.len() {
        if next_arrival[i] < best.0 {
            best = (next_arrival[i], ScanEvent::Arrival(i));
        }
        let min_remaining = min_remaining_ms[i];
        if min_remaining < f64::INFINITY && speed[i] > 1e-12 {
            // Round *up* to the clock's microsecond resolution: rounding
            // down would schedule a zero-length step that never completes
            // the request (a livelock).
            let dt_us = ceil_to_u64((min_remaining / speed[i]).max(0.0) * 1_000.0);
            let t = time + SimTime::from_us(dt_us.max(1));
            if t < best.0 {
                best = (t, ScanEvent::Completion(i));
            }
        }
        if warmup_until[i] > time && warmup_until[i] < best.0 {
            best = (warmup_until[i], ScanEvent::WarmupExpiry);
        }
    }
    // Guarantee forward progress: an event computed for "now" (e.g. a
    // zero-remaining completion) is processed without advancing time.
    (best.0.max(time), best.1)
}

/// The simulated datacenter node.
///
/// Owns the clock, the applications, the current [`Partition`] and the
/// [`SharingPolicy`], and advances in monitoring windows. See the crate
/// docs for the model and a usage example.
#[derive(Debug)]
pub struct NodeSim {
    machine: MachineConfig,
    reference: MachineConfig,
    bw: BandwidthModel,
    apps: Vec<AppRuntime>,
    hot: HotState,
    arena: RequestArena,
    partition: Partition,
    policy: SharingPolicy,
    window: SimTime,
    time: SimTime,
    window_index: u64,
    /// The request stream: the node RNG, the arrival samplers and each
    /// application's next arrival.
    arrivals: ArrivalStream,
    /// The window's own draws, refilled by [`NodeSim::run_window`]; a
    /// window handed a shared chunk leaves it untouched.
    chunk: ArrivalChunk,
    rates: Vec<AppRates>,
    rates_dirty: bool,
    /// The earliest `warmup_until` strictly after the last packed-key
    /// rebuild, [`SimTime::NEVER`] if none. Crossing it forces a
    /// recomputation even when no event dirtied the rates: an event
    /// landing exactly on a warm-up boundary (e.g. an arrival that only
    /// queues) swallows the `WarmupExpiry` event, and the cached speeds
    /// would otherwise keep the stale penalty.
    next_warm_expiry: SimTime,
    /// Persistent demand vector handed to the solver; only the `busy`
    /// fields change between calls (kind, curve and bandwidth appetite
    /// are fixed per application).
    demands: Vec<AppDemand>,
    /// Solver scratch for rate-memo misses.
    scratch: RateScratch,
    rate_cache: RateCache,
    /// The packed busy/warm/policy key, maintained *incrementally*: busy
    /// bit fields are patched at the arrival/completion sites that change
    /// them, warm bits and the policy bit are rebuilt only when
    /// `warm_stale` is raised. `None` when the layout does not pack.
    packed_key: Option<u64>,
    /// Bit offset of each application's busy field in `packed_key`.
    busy_shift: Vec<u32>,
    /// Bit mask of each application's busy field in `packed_key`.
    busy_mask: Vec<u64>,
    /// Raised whenever a warm bit of `packed_key` may have flipped: on
    /// repartitions (new warm-up deadlines), policy changes, and when the
    /// clock crosses `next_warm_expiry`.
    warm_stale: bool,
    /// Discrete events processed since construction.
    events: u64,
    adjustments: u64,
}

impl NodeSim {
    /// Creates a node where the reference machine (against which cache
    /// factors and solo IPC are normalised) is the machine itself.
    ///
    /// # Errors
    ///
    /// Propagates machine validation failures and rejects duplicate
    /// application names.
    pub fn new(machine: MachineConfig, specs: Vec<AppSpec>, seed: u64) -> Result<Self, SimError> {
        Self::with_reference(machine, machine, specs, seed)
    }

    /// Creates a node whose resources are `machine` but whose performance
    /// normalisation point is `reference` — used by the resource-scaling
    /// experiments, which shrink the core/way budget while keeping solo
    /// performance defined on the full paper machine.
    ///
    /// # Errors
    ///
    /// Propagates machine validation failures and rejects duplicate
    /// application names.
    pub fn with_reference(
        machine: MachineConfig,
        reference: MachineConfig,
        specs: Vec<AppSpec>,
        seed: u64,
    ) -> Result<Self, SimError> {
        machine.validate()?;
        reference.validate()?;
        for (i, a) in specs.iter().enumerate() {
            if specs[..i].iter().any(|b| b.name() == a.name()) {
                return Err(SimError::DuplicateApp {
                    name: a.name().to_owned(),
                });
            }
        }
        let arrivals = ArrivalStream::new(&specs, seed);
        let bw = BandwidthModel::new(machine.membw_gbps);
        let ref_bw = BandwidthModel::new(reference.membw_gbps);
        let apps: Vec<AppRuntime> = specs
            .into_iter()
            .map(|spec| {
                let curve = spec.cache_profile().curve(reference.llc_ways);
                let (lc, be) = match &spec.params {
                    KindParams::Lc(_) => (
                        Some(LcState {
                            queue: VecDeque::new(),
                            load_fraction: 0.0,
                            tail: TailEstimator::new(512),
                            window_samples: Vec::new(),
                            window_arrivals: 0,
                            window_completions: 0,
                            window_drops: 0,
                            max_outstanding: spec.max_outstanding().expect("LC spec has a cap")
                                as usize,
                        }),
                        None,
                    ),
                    KindParams::Be(_) => {
                        // Solo speed: the application alone on the reference
                        // machine with every thread busy.
                        let demand = AppDemand {
                            kind: AppKind::Be,
                            busy: spec.threads(),
                            curve,
                            bw_per_thread: spec.cache_profile().bw_gbps_per_thread,
                        };
                        let solo = compute_rates(
                            &reference,
                            &Partition::all_shared(1),
                            &[demand],
                            SharingPolicy::Fair,
                            &ref_bw,
                        );
                        (
                            None,
                            Some(BeState {
                                solo_speed: solo[0].speed_per_thread.max(1e-9),
                            }),
                        )
                    }
                };
                AppRuntime {
                    spec,
                    curve,
                    lc,
                    be,
                }
            })
            .collect();
        let n = apps.len();
        let partition = Partition::all_shared(n);
        let slab_caps: Vec<usize> = apps
            .iter()
            .map(|a| {
                if a.lc.is_some() {
                    a.spec.threads() as usize
                } else {
                    0
                }
            })
            .collect();
        let arena = RequestArena::new(&slab_caps);
        let hot = HotState {
            min_remaining_ms: vec![f64::INFINITY; n],
            warmup_until: vec![SimTime::ZERO; n],
            speed: vec![0.0; n],
            capacity: vec![0.0; n],
            be_threads: apps
                .iter()
                .map(|a| {
                    if a.be.is_some() {
                        a.spec.threads() as f64
                    } else {
                        0.0
                    }
                })
                .collect(),
            static_busy: apps
                .iter()
                .map(|a| match (&a.lc, &a.be) {
                    (Some(_), _) => 0,
                    (None, Some(_)) => a.spec.threads(),
                    (None, None) => 0,
                })
                .collect(),
            is_lc: apps.iter().map(|a| a.lc.is_some()).collect(),
            window_capacity_integral: vec![0.0; n],
            window_speed_integral: vec![0.0; n],
        };
        let demands: Vec<AppDemand> = apps
            .iter()
            .enumerate()
            .map(|(i, a)| AppDemand {
                kind: a.spec.kind(),
                busy: if hot.is_lc[i] {
                    arena.len(i) as u32
                } else {
                    hot.static_busy[i]
                },
                curve: a.curve,
                bw_per_thread: a.spec.cache_profile().bw_gbps_per_thread,
            })
            .collect();
        let max_busy: Vec<u32> = apps.iter().map(|a| a.spec.threads()).collect();
        let rate_cache = RateCache::new(&max_busy);
        // Field positions of the incremental scan key, derived from the
        // memo's own layout so the two can never disagree: fields start
        // after the policy bit and the `n` warm bits.
        let (busy_shift, busy_mask): (Vec<u32>, Vec<u64>) = match rate_cache.layout() {
            Some(bits) => {
                let mut shift = 1 + n as u32;
                bits.iter()
                    .map(|&b| {
                        let s = shift;
                        shift += b;
                        // Zero-width fields (apps that are never busy) get
                        // shift 0 and mask 0: the patch becomes a no-op
                        // instead of a potentially overflowing shift.
                        if b == 0 {
                            (0, 0)
                        } else {
                            (s, ((1u64 << b) - 1) << s)
                        }
                    })
                    .unzip()
            }
            None => (vec![0; n], vec![0; n]),
        };
        let mut sim = NodeSim {
            machine,
            reference,
            bw,
            apps,
            hot,
            arena,
            partition,
            policy: SharingPolicy::Fair,
            window: SimTime::from_ms(500.0),
            time: SimTime::ZERO,
            window_index: 0,
            arrivals,
            chunk: ArrivalChunk::default(),
            rates: Vec::new(),
            rates_dirty: true,
            next_warm_expiry: SimTime::NEVER,
            demands,
            scratch: RateScratch::new(),
            rate_cache,
            packed_key: None,
            busy_shift,
            busy_mask,
            warm_stale: true,
            events: 0,
            adjustments: 0,
        };
        sim.recompute_rates();
        Ok(sim)
    }

    /// The machine being simulated.
    pub fn machine(&self) -> &MachineConfig {
        &self.machine
    }

    /// The reference machine against which cache factors and solo IPC are
    /// normalised.
    pub fn reference(&self) -> &MachineConfig {
        &self.reference
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The current partition.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The number of partition adjustments applied so far.
    pub fn adjustments(&self) -> u64 {
        self.adjustments
    }

    /// Work counters of this simulation: events processed and rate-memo
    /// hit/miss totals.
    pub fn perf_stats(&self) -> SimPerfStats {
        SimPerfStats {
            events: self.events,
            rate_hits: self.rate_cache.hits(),
            rate_misses: self.rate_cache.misses(),
        }
    }

    /// The application specs, in registration order.
    pub fn specs(&self) -> impl Iterator<Item = &AppSpec> {
        self.apps.iter().map(|a| &a.spec)
    }

    /// Resolves an application name to its [`AppId`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for unregistered names.
    pub fn app_id(&self, name: &str) -> Result<AppId, SimError> {
        self.apps
            .iter()
            .position(|a| a.spec.name() == name)
            .map(AppId::from)
            .ok_or_else(|| SimError::UnknownApp {
                name: name.to_owned(),
            })
    }

    /// Sets the shared-region sharing policy.
    pub fn set_policy(&mut self, policy: SharingPolicy) {
        if self.policy != policy {
            self.policy = policy;
            self.rates_dirty = true;
            // The policy is part of the rate-memo key, so entries under
            // the old policy stay valid — but dropping them keeps the
            // entry population tied to the current regime.
            self.rate_cache.invalidate();
            // The policy bit sits in the packed key too.
            self.warm_stale = true;
        }
    }

    /// Overrides the monitoring-window length (default 500 ms, the paper's
    /// interval).
    pub fn set_window_ms(&mut self, ms: f64) {
        self.window = SimTime::from_ms(ms.max(1.0));
    }

    /// Sets an LC application's offered load as a fraction of its nominal
    /// maximum load (Table IV style). A fraction of zero silences the
    /// application.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for unregistered names and
    /// [`SimError::WrongKind`] for BE applications.
    pub fn set_load(&mut self, name: &str, fraction: f64) -> Result<(), SimError> {
        let id = self.app_id(name)?;
        let fraction = self
            .arrivals
            .set_load(id.index(), fraction, self.time)
            .ok_or(SimError::WrongKind {
                name: name.to_owned(),
                operation: "set_load",
            })?;
        let lc = self.apps[id.index()]
            .lc
            .as_mut()
            .expect("LC app has LC state");
        lc.load_fraction = fraction;
        // Size the tail ring to roughly three windows of completions so the
        // estimate tracks load changes with bounded lag even for low-QPS
        // applications.
        let per_window = self.arrivals.lambda_per_ms(id.index()) * self.window.as_ms();
        let capacity = ((per_window * 3.0) as usize).clamp(64, 4096);
        // Re-target in place: behaviourally a fresh estimator at the new
        // capacity, but the ring and scratch allocations are reused.
        let previous_median = lc.tail.quantile(0.5);
        lc.tail.reset(capacity);
        // Seed with the previous median so the estimator is not empty right
        // after a resize; real samples quickly dominate.
        if let Some(p) = previous_median {
            lc.tail.record(p);
        }
        // Pre-size the per-window sample buffer for the expected completion
        // count, so raising the load never grows it mid-window.
        let expected = (per_window.ceil() as usize).min(4096);
        if lc.window_samples.capacity() < expected {
            let additional = expected - lc.window_samples.len();
            lc.window_samples.reserve(additional);
        }
        Ok(())
    }

    /// Applies a new partition, validating capacity and that no application
    /// is left without any reachable core. Applications whose isolated
    /// allocation changed (and everyone touching the shared region when its
    /// size changed) pay the [`WARMUP_PENALTY`] for [`WARMUP_MS`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidPartition`] on capacity violation,
    /// starvation, or an application-count mismatch.
    pub fn set_partition(&mut self, partition: Partition) -> Result<(), SimError> {
        if partition.num_apps() != self.apps.len() {
            return Err(SimError::InvalidPartition {
                reason: format!(
                    "partition covers {} apps, simulation has {}",
                    partition.num_apps(),
                    self.apps.len()
                ),
            });
        }
        partition.validate(&self.machine)?;
        let shared_cores = partition.shared_cores(&self.machine);
        for (id, alloc) in partition.iter() {
            if alloc.cores == 0 && shared_cores == 0 {
                return Err(SimError::InvalidPartition {
                    reason: format!(
                        "application {:?} has no isolated cores and the shared region is empty",
                        self.apps[id.index()].spec.name()
                    ),
                });
            }
        }
        if partition == self.partition {
            return Ok(());
        }
        let changed = self.partition.changed_apps(&partition);
        let shared_changed = partition.shared_cores(&self.machine)
            != self.partition.shared_cores(&self.machine)
            || partition.shared_ways(&self.machine) != self.partition.shared_ways(&self.machine);
        let until = self.time + SimTime::from_ms(WARMUP_MS);
        for i in 0..self.apps.len() {
            let touched = changed.contains(&AppId::from(i))
                || (shared_changed && partition.isolated(i.into()).cores == 0);
            if touched {
                self.hot.warmup_until[i] = until;
            }
        }
        self.partition = partition;
        self.adjustments += 1;
        self.rates_dirty = true;
        // Fresh warm-up deadlines change the packed key's warm mask.
        self.warm_stale = true;
        // Memoized rates were computed under the old partition.
        self.rate_cache.invalidate();
        Ok(())
    }

    /// Charges one application a cold-start penalty of `ms` milliseconds
    /// without touching the partition: until the deadline passes, its
    /// threads run at the warm-up speed factor, exactly as after a
    /// repartition. This is the cost model for an application that just
    /// migrated onto this node — its working set arrives cold, which is
    /// typically far more expensive than the cache refill after a local
    /// allocation change, so callers pass a duration rather than reusing
    /// [`WARMUP_MS`] implicitly.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownApp`] for unregistered names.
    pub fn begin_warmup(&mut self, name: &str, ms: f64) -> Result<(), SimError> {
        let id = self.app_id(name)?;
        self.hot.warmup_until[id.index()] = self.time + SimTime::from_ms(ms.max(0.0));
        self.rates_dirty = true;
        // The warm mask is part of the packed scan key, so memoized
        // entries stay valid under their own keys; only the mask needs
        // repacking.
        self.warm_stale = true;
        Ok(())
    }

    /// The node's request stream, positioned at the current time.
    pub fn arrivals(&self) -> &ArrivalStream {
        &self.arrivals
    }

    /// The arrivals the node's last [`NodeSim::run_window`] drew, for
    /// other nodes on the same request stream to replay through
    /// [`NodeSim::run_window_from`]. A window replayed from a shared chunk
    /// leaves it untouched.
    pub fn last_chunk(&self) -> &ArrivalChunk {
        &self.chunk
    }

    /// The monitoring-window length.
    pub fn window_length(&self) -> SimTime {
        self.window
    }

    /// Advances the simulation by one monitoring window and reports what a
    /// scheduler would observe. The window's arrivals are drawn up front
    /// into the node's own chunk ([`ArrivalStream::fill`]) and replayed,
    /// exactly as [`NodeSim::run_window_from`] replays a shared one.
    pub fn run_window(&mut self) -> WindowObservation {
        let mut chunk = std::mem::take(&mut self.chunk);
        self.arrivals
            .fill(self.time, self.time + self.window, &mut chunk);
        let obs = self.run_window_from(&chunk);
        self.chunk = chunk;
        obs
    }

    /// [`NodeSim::run_window`] on arrivals drawn elsewhere. When `chunk`
    /// was filled for this window by a stream in the state of this node's
    /// own (same mix, seed, load calls and window boundaries), the window
    /// is identical to [`NodeSim::run_window`], and afterwards the node's
    /// stream is where its own draws would have left it: the choice may
    /// change from window to window.
    ///
    /// # Panics
    ///
    /// Panics when `chunk` was filled for another window.
    pub fn run_window_from(&mut self, chunk: &ArrivalChunk) -> WindowObservation {
        assert_eq!(
            chunk.window(),
            (self.time, self.time + self.window),
            "arrival chunk filled for another window"
        );
        self.arrivals.begin_replay(chunk);
        let start = self.time;
        let end = start + self.window;
        self.reset_window_accumulators();

        while self.time < end {
            // Crossing a warm-up boundary changes the cached speeds even
            // when no event dirtied the rates (see `next_warm_expiry`).
            if self.time >= self.next_warm_expiry {
                self.rates_dirty = true;
                // Warm bits of the packed key flip at the boundary; the
                // next recompute must rebuild rather than trust the
                // incrementally patched key.
                self.warm_stale = true;
            }
            if self.rates_dirty {
                self.recompute_rates();
            }
            #[cfg(debug_assertions)]
            self.debug_assert_min_consistency();
            let (next, kind) = scan_next_event(
                self.time,
                end,
                self.arrivals.next_arrivals(),
                &self.hot.min_remaining_ms,
                &self.hot.speed,
                &self.hot.warmup_until,
            );
            let dt_ms = next.since(self.time).as_ms();
            if dt_ms > 0.0 {
                self.advance(dt_ms);
            }
            self.time = next;
            match kind {
                ScanEvent::WindowEnd => break,
                ScanEvent::Arrival(app) => self.process_arrival(app, chunk),
                ScanEvent::Completion(app) => self.process_completions(app),
                ScanEvent::WarmupExpiry => {
                    // Speeds change when warm-up ends, and so does the
                    // key's warm mask.
                    self.rates_dirty = true;
                    self.warm_stale = true;
                }
            }
            self.events += 1;
        }

        self.arrivals.end_replay(chunk);
        self.window_index += 1;
        self.collect_observation(start, end)
    }

    /// Runs `n` consecutive windows.
    pub fn run_windows(&mut self, n: usize) -> Vec<WindowObservation> {
        let mut observations = Vec::with_capacity(n);
        for _ in 0..n {
            observations.push(self.run_window());
        }
        observations
    }

    // --- internals ------------------------------------------------------

    fn reset_window_accumulators(&mut self) {
        for i in 0..self.apps.len() {
            self.hot.window_capacity_integral[i] = 0.0;
            self.hot.window_speed_integral[i] = 0.0;
            if let Some(lc) = &mut self.apps[i].lc {
                lc.window_samples.clear();
                lc.window_arrivals = 0;
                lc.window_completions = 0;
                lc.window_drops = 0;
            }
        }
    }

    /// Rebuilds `packed_key` from scratch — warm bits from the current
    /// clock, busy fields from the arena, the policy bit — and, in the
    /// same pass over the warm-up deadlines, `next_warm_expiry`. Runs only
    /// when `warm_stale` is raised (construction, repartitions, cold
    /// starts, policy flips, warm-boundary crossings); between those, the
    /// busy fields are patched in place at the sites that change them.
    ///
    /// `next_warm_expiry` needs no refresh in between: every deadline
    /// change raises `warm_stale`, and the window loop raises it once the
    /// clock reaches the expiry, so while it stays down the clock is
    /// before the earliest deadline found here and that deadline is still
    /// the earliest one in the future.
    fn rebuild_packed_key(&mut self) {
        let n = self.apps.len();
        let mut warm_mask = 0u64;
        let mut next_expiry = SimTime::NEVER;
        for i in 0..n {
            let until = self.hot.warmup_until[i];
            if self.time < until {
                warm_mask |= 1 << i.min(63);
                if until < next_expiry {
                    next_expiry = until;
                }
            }
        }
        self.next_warm_expiry = next_expiry;
        self.packed_key = self.rate_cache.pack_scan_key(
            (0..n).map(|i| {
                if self.hot.is_lc[i] {
                    self.arena.len(i) as u32
                } else {
                    self.hot.static_busy[i]
                }
            }),
            n,
            warm_mask,
            self.policy,
        );
        self.warm_stale = false;
    }

    /// Patches app `i`'s busy bit field of `packed_key` after its
    /// in-service count changed (mask is zero — a no-op — for layouts
    /// that do not pack).
    #[inline]
    fn patch_busy_key(&mut self, i: usize) {
        if let Some(key) = self.packed_key.as_mut() {
            *key = (*key & !self.busy_mask[i]) | ((self.arena.len[i] as u64) << self.busy_shift[i]);
        }
    }

    #[inline]
    fn recompute_rates(&mut self) {
        if self.warm_stale {
            self.rebuild_packed_key();
        }
        // Fast path: the memo answers with the final speed and capacity
        // vectors — no demand-vector update, no solve, no penalty pass.
        // The stored floats are the exact values the slow path computed
        // the first time this key was seen, so the fast path is
        // bit-identical to it.
        let key = self.packed_key;
        #[cfg(debug_assertions)]
        self.debug_assert_key_consistency(key);
        if let Some(vals) = self.rate_cache.lookup(key) {
            for i in 0..self.apps.len() {
                self.hot.speed[i] = vals[2 * i];
                self.hot.capacity[i] = vals[2 * i + 1];
            }
        } else {
            self.solve_rates(key);
        }
        self.rates_dirty = false;
    }

    /// The memo-miss path of `recompute_rates`: runs the fluid solver,
    /// derives the cached per-thread speeds (`speed_per_thread`, scaled by
    /// the warm-up penalty while inside the warm-up window) and
    /// capacities, and memoizes them under `key`.
    #[cold]
    #[inline(never)]
    fn solve_rates(&mut self, key: Option<u64>) {
        for (i, d) in self.demands.iter_mut().enumerate() {
            d.busy = if self.hot.is_lc[i] {
                self.arena.len(i) as u32
            } else {
                self.hot.static_busy[i]
            };
        }
        compute_rates_into(
            &self.machine,
            &self.partition,
            &self.demands,
            self.policy,
            &self.bw,
            &mut self.scratch,
            &mut self.rates,
        );
        for i in 0..self.rates.len() {
            self.hot.speed[i] = if self.time < self.hot.warmup_until[i] {
                self.rates[i].speed_per_thread * WARMUP_PENALTY
            } else {
                self.rates[i].speed_per_thread
            };
            self.hot.capacity[i] = self.rates[i].core_capacity;
        }
        if let Some(key) = key {
            self.rate_cache
                .insert(key, &self.hot.speed, &self.hot.capacity);
        }
    }

    /// Debug-build check that the incrementally patched packed key still
    /// equals a fresh pack of the current busy counts, warm mask and
    /// policy — the invariant that lets `recompute_rates` skip the
    /// per-call repack.
    #[cfg(debug_assertions)]
    fn debug_assert_key_consistency(&self, key: Option<u64>) {
        let n = self.apps.len();
        let mut warm_mask = 0u64;
        for i in 0..n {
            if self.time < self.hot.warmup_until[i] {
                warm_mask |= 1 << i.min(63);
            }
        }
        let fresh = self.rate_cache.pack_scan_key(
            (0..n).map(|i| {
                if self.hot.is_lc[i] {
                    self.arena.len(i) as u32
                } else {
                    self.hot.static_busy[i]
                }
            }),
            n,
            warm_mask,
            self.policy,
        );
        debug_assert_eq!(
            key, fresh,
            "incrementally patched packed key drifted from a fresh pack"
        );
    }

    /// Debug-build check that the incrementally maintained minimums still
    /// equal a fresh fold over each slab — the invariant that lets
    /// `scan_next_event` and completion batching skip the rescans.
    #[cfg(debug_assertions)]
    fn debug_assert_min_consistency(&self) {
        for i in 0..self.apps.len() {
            debug_assert_eq!(
                self.hot.min_remaining_ms[i].to_bits(),
                self.arena.min_remaining(i).to_bits(),
                "cached min-remaining drifted from the in-service slab of app {i}"
            );
            debug_assert!(
                self.arena.lane(i)[self.arena.len(i)..]
                    .iter()
                    .all(|r| r.remaining_ms == f64::INFINITY),
                "a slot past the in-service slab of app {i} lost its ∞ pad"
            );
        }
    }

    /// Integrates every application over `dt_ms` of constant rates.
    ///
    /// Two fixed-trip loops: the per-application integrals and cached
    /// minimum over equal-length slices, then each LC application's
    /// request lane over its constant slab capacity — the `∞` pad slots
    /// past `len` stay `∞` (see [`RequestArena`]). The float operations
    /// per value are the ones a single fused loop over `len` would run;
    /// only independent updates are reordered.
    #[inline]
    fn advance(&mut self, dt_ms: f64) {
        let hot = &mut self.hot;
        let n = hot.speed.len();
        let speed = &hot.speed[..n];
        let capacity = &hot.capacity[..n];
        let be_threads = &hot.be_threads[..n];
        let min_remaining = &mut hot.min_remaining_ms[..n];
        let capacity_integral = &mut hot.window_capacity_integral[..n];
        let speed_integral = &mut hot.window_speed_integral[..n];
        for i in 0..n {
            let step = speed[i] * dt_ms;
            capacity_integral[i] += capacity[i] * dt_ms;
            // Same subtract-and-clamp as the requests: the cached minimum
            // is one of the request values and the update is monotone, so
            // it tracks the true minimum bit-for-bit. Branch-free for the
            // idle case too: `INFINITY - step` stays `INFINITY` and
            // `.max(0.0)` keeps it.
            min_remaining[i] = (min_remaining[i] - step).max(0.0);
            // `be_threads` is 0.0 for LC apps, so their integral
            // accumulates an exact 0.0 — no kind branch needed.
            speed_integral[i] += speed[i] * be_threads[i] * dt_ms;
        }
        let RequestArena {
            slots, offset, cap, ..
        } = &mut self.arena;
        for ((&speed, &offset), &cap) in speed.iter().zip(offset.iter()).zip(cap.iter()) {
            let step = speed * dt_ms;
            for req in &mut slots[offset..offset + cap] {
                req.remaining_ms = (req.remaining_ms - step).max(0.0);
            }
        }
    }

    /// Admits app `app_index`'s arrival at the current time, its work and
    /// next arrival read from the window's chunk.
    fn process_arrival(&mut self, app_index: usize, chunk: &ArrivalChunk) {
        let work = self.arrivals.replay_arrival(app_index, chunk);
        let lc = self.apps[app_index].lc.as_mut().expect("arrival on LC app");
        lc.window_arrivals += 1;
        let request = Request {
            arrival: self.time,
            remaining_ms: work,
        };
        if self.arena.len(app_index) < self.arena.cap(app_index) {
            self.arena.push(app_index, request);
            // `min(work)` equals a fresh fold over the slab: the other
            // entries already fold to the cached value.
            self.hot.min_remaining_ms[app_index] = self.hot.min_remaining_ms[app_index].min(work);
            self.rates_dirty = true; // busy count changed
            self.patch_busy_key(app_index);
        } else if self.arena.len(app_index) + lc.queue.len() < lc.max_outstanding {
            lc.queue.push_back(request);
        } else {
            // The client pool is exhausted: the request is dropped (a
            // timeout from the user's point of view).
            lc.window_drops += 1;
        }
    }

    /// Processes the `Completion` event dispatched for `primary`, batching
    /// every application whose work finished at the same instant.
    ///
    /// The event carries the owning app, but requests of *other* apps can
    /// reach zero remaining work at the same microsecond (their event is
    /// still queued for this instant). The cached per-app minimum reduces
    /// the due-test to one float compare per app — `min_remaining_ms[i]`
    /// is `INFINITY` unless app `i` is an LC app with work in service, so
    /// no kind or emptiness check is needed — and only due apps pay the
    /// completion loop (one `swap_remove` sweep and one min refresh each).
    /// Apps are visited in index order, exactly as before.
    fn process_completions(&mut self, primary: usize) {
        debug_assert!(
            self.hot.min_remaining_ms[primary] <= COMPLETION_EPS_MS,
            "completion dispatched for an app with no finished request"
        );
        for i in 0..self.apps.len() {
            if i == primary || self.hot.min_remaining_ms[i] <= COMPLETION_EPS_MS {
                self.complete_app(i);
            }
        }
    }

    /// Retires every finished request of app `i` and promotes queued work
    /// onto the freed threads — byte-for-byte the per-app body of the old
    /// all-apps completion scan, with the slab standing in for the
    /// per-app `Vec`.
    fn complete_app(&mut self, i: usize) {
        let now = self.time;
        let Some(lc) = self.apps[i].lc.as_mut() else {
            return;
        };
        let mut completed_any = false;
        let mut j = 0;
        while j < self.arena.len(i) {
            if self.arena.slab(i)[j].remaining_ms <= COMPLETION_EPS_MS {
                let req = self.arena.swap_remove(i, j);
                let latency = now.since(req.arrival).as_ms();
                lc.tail.record(latency);
                lc.window_samples.push(latency);
                lc.window_completions += 1;
                completed_any = true;
            } else {
                j += 1;
            }
        }
        if completed_any {
            while self.arena.len(i) < self.arena.cap(i) {
                match lc.queue.pop_front() {
                    Some(req) => self.arena.push(i, req),
                    None => break,
                }
            }
            self.hot.min_remaining_ms[i] = self.arena.min_remaining(i);
            self.rates_dirty = true;
            self.patch_busy_key(i);
        }
    }

    fn collect_observation(&mut self, start: SimTime, end: SimTime) -> WindowObservation {
        let window_ms = end.since(start).as_ms().max(1e-9);
        let now = self.time;
        let mut lc_stats = Vec::with_capacity(self.apps.len());
        let mut be_stats = Vec::with_capacity(self.apps.len());
        for (i, app) in self.apps.iter_mut().enumerate() {
            let mean_capacity = self.hot.window_capacity_integral[i] / window_ms;
            if let Some(lc) = &mut app.lc {
                // Selection reorders `window_samples` in place; the buffer
                // is a window-local multiset cleared at the next window
                // start, so the order is free to give away.
                let mut p95 = if lc.window_samples.len() >= WINDOW_P95_MIN_SAMPLES {
                    percentile_in_place(&mut lc.window_samples, TAIL_QUANTILE)
                } else {
                    lc.tail.quantile(TAIL_QUANTILE)
                };
                // Starvation floor: with zero completions this window and
                // work outstanding, a latency monitor would report at least
                // the age of the oldest outstanding request.
                if lc.window_completions == 0 {
                    let oldest = self
                        .arena
                        .slab(i)
                        .iter()
                        .chain(lc.queue.iter())
                        .map(|r| r.arrival)
                        .min();
                    if let Some(arrival) = oldest {
                        let age = now.since(arrival).as_ms();
                        p95 = Some(p95.map_or(age, |v| v.max(age)));
                    }
                }
                lc_stats.push(LcWindowStats {
                    name: app.spec.name().to_owned(),
                    p95_ms: p95,
                    ideal_ms: app.spec.ideal_tail_ms().expect("LC app"),
                    qos_ms: app.spec.qos_threshold_ms().expect("LC app"),
                    load: lc.load_fraction,
                    arrivals: lc.window_arrivals,
                    completions: lc.window_completions,
                    drops: lc.window_drops,
                    backlog: self.arena.len(i) + lc.queue.len(),
                    mean_core_capacity: mean_capacity,
                });
            }
            if let Some(be) = &app.be {
                let mean_speed =
                    self.hot.window_speed_integral[i] / (window_ms * app.spec.threads() as f64);
                let ipc_solo = app.spec.ipc_solo().expect("BE app");
                be_stats.push(BeWindowStats {
                    name: app.spec.name().to_owned(),
                    ipc: ipc_solo * mean_speed / be.solo_speed,
                    ipc_solo,
                    mean_core_capacity: mean_capacity,
                });
            }
        }
        WindowObservation {
            window_index: self.window_index - 1,
            start_ms: start.as_ms(),
            end_ms: end.as_ms(),
            lc: lc_stats,
            be: be_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::CacheProfile;
    use crate::partition::RegionAlloc;

    fn lc_spec(name: &str) -> AppSpec {
        AppSpec::lc(name)
            .threads(4)
            .mean_service_ms(1.0)
            .service_sigma(0.6)
            .qos_threshold_ms(5.0)
            .max_load_qps(2000.0)
            .cache(CacheProfile::balanced())
            .build()
            .unwrap()
    }

    fn be_spec(name: &str) -> AppSpec {
        AppSpec::be(name)
            .threads(4)
            .ipc_solo(1.5)
            .cache(CacheProfile::compute())
            .build()
            .unwrap()
    }

    fn sim() -> NodeSim {
        NodeSim::new(
            MachineConfig::paper_xeon(),
            vec![lc_spec("lc"), be_spec("be")],
            7,
        )
        .unwrap()
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let err = NodeSim::new(
            MachineConfig::paper_xeon(),
            vec![lc_spec("x"), lc_spec("x")],
            1,
        );
        assert!(matches!(err, Err(SimError::DuplicateApp { .. })));
    }

    #[test]
    fn unknown_app_errors() {
        let mut s = sim();
        assert!(matches!(
            s.set_load("nope", 0.5),
            Err(SimError::UnknownApp { .. })
        ));
        assert!(matches!(
            s.set_load("be", 0.5),
            Err(SimError::WrongKind { .. })
        ));
    }

    #[test]
    fn idle_lc_app_reports_no_latency() {
        let mut s = sim();
        let obs = s.run_window();
        assert_eq!(obs.lc[0].arrivals, 0);
        assert_eq!(obs.lc[0].p95_ms, None);
        assert!(obs.lc[0].meets_qos());
    }

    #[test]
    fn low_load_latency_close_to_ideal() {
        let mut s = sim();
        s.set_load("lc", 0.1).unwrap();
        let obs = s.run_windows(6);
        let last = obs.last().unwrap();
        let p95 = last.lc[0].p95_ms.unwrap();
        let ideal = last.lc[0].ideal_ms;
        assert!(
            p95 < ideal * 1.8,
            "low-load p95 {p95} should be near ideal {ideal}"
        );
        assert!(p95 >= ideal * 0.5);
    }

    #[test]
    fn latency_grows_with_load() {
        let mut lows = Vec::new();
        let mut highs = Vec::new();
        // On 2 cores the app's capacity is ~2000 QPS; 120 % of the nominal
        // 2000 QPS max load (2400 QPS) is a genuine overload.
        for seed in 0..3 {
            let mut s = NodeSim::new(
                MachineConfig::paper_xeon().with_budget(2, 20),
                vec![lc_spec("lc")],
                seed,
            )
            .unwrap();
            s.set_load("lc", 0.3).unwrap();
            lows.push(avg_p95(&s.run_windows(8)[4..]));
            let mut s = NodeSim::new(
                MachineConfig::paper_xeon().with_budget(2, 20),
                vec![lc_spec("lc")],
                seed,
            )
            .unwrap();
            s.set_load("lc", 1.2).unwrap();
            highs.push(avg_p95(&s.run_windows(8)[4..]));
        }
        let low: f64 = lows.iter().sum::<f64>() / lows.len() as f64;
        let high: f64 = highs.iter().sum::<f64>() / highs.len() as f64;
        assert!(
            high > low * 2.0,
            "overload p95 {high} should dwarf low-load p95 {low}"
        );
    }

    fn avg_p95(obs: &[WindowObservation]) -> f64 {
        let vals: Vec<f64> = obs.iter().filter_map(|o| o.lc[0].p95_ms).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn be_ipc_near_solo_when_alone_and_unconstrained() {
        let mut s = NodeSim::new(MachineConfig::paper_xeon(), vec![be_spec("be")], 3).unwrap();
        let obs = s.run_window();
        assert!((obs.be[0].ipc - 1.5).abs() < 0.01, "ipc {}", obs.be[0].ipc);
    }

    #[test]
    fn be_ipc_halves_with_half_the_cores() {
        // A 4-thread BE app on a 2-core machine (normalised against the
        // full paper machine) should achieve about half its solo IPC.
        let mut s = NodeSim::new(MachineConfig::paper_xeon(), vec![be_spec("be")], 3).unwrap();
        let mut s2 = NodeSim::with_reference(
            MachineConfig::paper_xeon().with_budget(2, 20),
            MachineConfig::paper_xeon(),
            vec![be_spec("be")],
            3,
        )
        .unwrap();
        let full = s.run_window().be[0].ipc;
        let half = s2.run_window().be[0].ipc;
        assert!(
            (half / full - 0.5).abs() < 0.05,
            "expected ~half IPC, got {half} vs {full}"
        );
    }

    #[test]
    fn partition_validation_rejects_starvation() {
        let mut s = sim();
        // All 10 cores isolated to the LC app leaves BE without any core.
        let p = Partition::strict(vec![RegionAlloc::new(10, 10), RegionAlloc::EMPTY]);
        assert!(s.set_partition(p).is_err());
    }

    #[test]
    fn partition_change_counts_and_charges_warmup() {
        let mut s = sim();
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::new(2, 4));
        s.set_partition(p.clone()).unwrap();
        assert_eq!(s.adjustments(), 1);
        // Identical partition is a no-op.
        s.set_partition(p).unwrap();
        assert_eq!(s.adjustments(), 1);
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let run = |seed: u64| {
            let mut s = NodeSim::new(
                MachineConfig::paper_xeon(),
                vec![lc_spec("lc"), be_spec("be")],
                seed,
            )
            .unwrap();
            s.set_load("lc", 0.6).unwrap();
            s.run_windows(4)
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn starved_app_reports_growing_latency() {
        let mut s = NodeSim::new(
            MachineConfig::paper_xeon().with_budget(1, 20),
            vec![lc_spec("greedy"), lc_spec("victim")],
            5,
        )
        .unwrap();
        // Greedy holds the single core; victim only has the (empty) shared
        // region... that would be rejected, so give victim load on the same
        // shared core and greedy an isolated core—victim starves fully.
        s.set_load("victim", 0.5).unwrap();
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::new(0, 0));
        s.set_partition(p).unwrap();
        // Saturate the core with greedy traffic at overload.
        s.set_load("greedy", 3.0).unwrap();
        let obs = s.run_windows(8);
        let last = obs.last().unwrap().lc_by_name("victim").unwrap();
        assert!(
            last.p95_ms.unwrap() > last.qos_ms,
            "starved victim should violate QoS, got {:?}",
            last.p95_ms
        );
    }

    #[test]
    fn window_length_is_respected() {
        let mut s = sim();
        s.set_window_ms(250.0);
        let obs = s.run_window();
        assert!((obs.end_ms - obs.start_ms - 250.0).abs() < 1e-6);
        assert!((s.now().as_ms() - 250.0).abs() < 1e-6);
    }

    #[test]
    fn request_arena_matches_vec_semantics() {
        let mut arena = RequestArena::new(&[3, 0, 2]);
        let req = |ms: f64| Request {
            arrival: SimTime::from_ms(ms),
            remaining_ms: ms,
        };
        let mut shadow: Vec<Request> = Vec::new();
        for v in [5.0, 1.0, 3.0] {
            arena.push(0, req(v));
            shadow.push(req(v));
        }
        assert_eq!(arena.len(0), 3);
        assert_eq!(arena.cap(1), 0);
        assert_eq!(
            arena.min_remaining(0).to_bits(),
            1.0f64.to_bits(),
            "fold-min over the slab"
        );
        assert_eq!(arena.min_remaining(1), f64::INFINITY);
        // swap_remove mirrors Vec::swap_remove element-for-element.
        let a = arena.swap_remove(0, 0);
        let b = shadow.swap_remove(0);
        assert_eq!(a.remaining_ms.to_bits(), b.remaining_ms.to_bits());
        let order: Vec<(SimTime, f64)> = arena
            .slab(0)
            .iter()
            .map(|r| (r.arrival, r.remaining_ms))
            .collect();
        let shadow_order: Vec<(SimTime, f64)> =
            shadow.iter().map(|r| (r.arrival, r.remaining_ms)).collect();
        assert_eq!(order, shadow_order);
        // The vacated last slot is re-padded with ∞, so the fold over the
        // whole lane still sees only in-service work.
        assert_eq!(arena.lane(0)[2].remaining_ms, f64::INFINITY);
        assert_eq!(arena.min_remaining(0).to_bits(), 1.0f64.to_bits());
        // Apps are independent slabs.
        arena.push(2, req(9.0));
        assert_eq!(arena.len(0), 2);
        assert_eq!(arena.len(2), 1);
        let lane: Vec<f64> = arena.lane(2).iter().map(|r| r.remaining_ms).collect();
        assert_eq!(lane, [9.0, f64::INFINITY]);
    }

    #[test]
    fn overflowing_busy_count_yields_no_key() {
        let c = RateCache::new(&[4, 4, 4]);
        let key = |busy: [u32; 3]| c.pack_scan_key(busy, 3, 0, SharingPolicy::Fair);
        assert!(key([4, 4, 4]).is_some());
        // 31 overflows the 3-bit field: no key, so it cannot alias the
        // entry of the count its low bits spell (31 & 7 = 7, or 31 << 3
        // spilling into the next field).
        assert_eq!(key([31, 0, 0]), None);
        assert_eq!(key([0, 0, 8]), None);
        // A count that does not match the layout yields no key either.
        assert_eq!(c.pack_scan_key([1, 1], 2, 0, SharingPolicy::Fair), None);
    }

    #[test]
    fn cache_layout_packs_large_mixes() {
        // Fig. 12's shape: 8 apps × 4 threads → 1 + 8 + 8·3 = 33 bits.
        assert!(
            RateCache::new(&[4; 8]).packable,
            "8×4-thread mix must pack into u64"
        );
        // A pathological layout that cannot pack.
        assert!(!RateCache::new(&[u32::MAX; 8]).packable);
    }

    #[test]
    fn unpackable_mix_runs_without_the_memo() {
        // 1 + 4 + 3 + 3·21 = 71 key bits: the node solves every time.
        let huge_be = |name: &str| {
            AppSpec::be(name)
                .threads(1 << 20)
                .ipc_solo(1.5)
                .cache(CacheProfile::compute())
                .build()
                .unwrap()
        };
        let specs = vec![lc_spec("lc"), huge_be("a"), huge_be("b"), huge_be("c")];
        let mut s = NodeSim::new(MachineConfig::paper_xeon(), specs, 9).unwrap();
        assert!(s.rate_cache.layout().is_none());
        s.set_load("lc", 0.3).unwrap();
        let obs = s.run_windows(2);
        assert!(obs[1].lc[0].arrivals > 0);
        let stats = s.perf_stats();
        assert!(stats.events > 0);
        assert_eq!(stats.rate_hits, 0);
        assert!(stats.rate_misses > 0);
    }

    #[test]
    fn warm_boundary_crossing_refreshes_cached_speeds() {
        // After a repartition the node runs penalised for warmup_ms; the
        // cached-speed refresh must drop the penalty once the boundary
        // passes even if no event dirties the rates at that exact tick.
        let mut s = sim();
        let mut p = Partition::all_shared(2);
        p.set_isolated(0.into(), RegionAlloc::new(2, 4));
        s.set_partition(p).unwrap();
        // BE-only progress: window 1 overlaps the 50 ms warm-up, later
        // windows do not; IPC must recover to the steady value.
        let first = s.run_window().be[0].ipc;
        s.run_window();
        let steady = s.run_window().be[0].ipc;
        assert!(
            steady > first,
            "post-warm-up IPC {steady} must exceed the penalised {first}"
        );
    }
}
