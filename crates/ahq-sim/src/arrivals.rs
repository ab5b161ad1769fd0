//! The node's request stream: when each LC application's requests arrive
//! and how much work each one carries.
//!
//! A node's only random draws are these: at each arrival the service
//! demand and then the gap to the next arrival, and in
//! [`ArrivalStream::set_load`] the first gap at a new rate. Arrivals are
//! processed earliest first, ties going to the lower application index,
//! so the draw order follows arrival times alone. The stream is therefore
//! the same under every scheduler, partition and sharing policy: runs that
//! agree on the mix, the seed, the load calls and the window boundaries
//! see the same requests (common random numbers).
//!
//! A window's arrivals are drawn up front with [`ArrivalStream::fill`]
//! into an [`ArrivalChunk`], which the event loop then replays.
//! [`NodeSim::run_window`](crate::NodeSim::run_window) fills a chunk from
//! the node's own stream; a driver stepping several runs in lockstep
//! fills one chunk per window and hands it to every run's
//! [`NodeSim::run_window_from`](crate::NodeSim::run_window_from).

use ahq_core::rng::{Exp, LogNormal, Rng};

use crate::app::{AppSpec, KindParams};
use crate::time::SimTime;

/// Lower bound of a drawn service demand (core-ms).
const MIN_WORK_MS: f64 = 1e-6;

/// Lower bound of an inter-arrival gap drawn at an arrival (ms): the
/// clock resolution, so time always advances. The first gap drawn by
/// [`ArrivalStream::set_load`] has no floor.
const MIN_GAP_MS: f64 = 1e-3;

/// One LC application's samplers and rate.
#[derive(Debug, Clone)]
struct LcArrivals {
    service: LogNormal,
    max_load_qps: f64,
    /// Arrival rate in requests per millisecond; zero means no load.
    lambda_per_ms: f64,
    /// The inter-arrival distribution for `lambda_per_ms`, built once per
    /// `set_load`; `None` while the application is silenced.
    inter_arrival: Option<Exp>,
}

/// The request stream of one node: the node RNG, every LC application's
/// service and inter-arrival samplers, and each application's next
/// arrival time ([`SimTime::NEVER`] for BE and silenced applications).
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    rng: Rng,
    lc: Vec<Option<LcArrivals>>,
    next: Vec<SimTime>,
    /// Each application's read position in the chunk being replayed.
    cursor: Vec<usize>,
}

impl ArrivalStream {
    /// A silent stream for `specs` (every rate zero), seeded with `seed`.
    pub fn new(specs: &[AppSpec], seed: u64) -> Self {
        let lc = specs
            .iter()
            .map(|spec| match &spec.params {
                KindParams::Lc(p) => {
                    let sigma = p.sigma.max(1e-6);
                    let mu = p.mean_service_ms.ln() - sigma * sigma / 2.0;
                    Some(LcArrivals {
                        service: LogNormal::new(mu, sigma)
                            .expect("validated service distribution parameters"),
                        max_load_qps: p.max_load_qps,
                        lambda_per_ms: 0.0,
                        inter_arrival: None,
                    })
                }
                KindParams::Be(_) => None,
            })
            .collect();
        ArrivalStream {
            rng: Rng::seed_from_u64(seed),
            lc,
            next: vec![SimTime::NEVER; specs.len()],
            cursor: vec![0; specs.len()],
        }
    }

    /// Each application's next arrival time.
    pub fn next_arrivals(&self) -> &[SimTime] {
        &self.next
    }

    /// Application `app`'s arrival rate in requests per millisecond (zero
    /// for BE and silenced applications).
    pub fn lambda_per_ms(&self, app: usize) -> f64 {
        self.lc[app].as_ref().map_or(0.0, |lc| lc.lambda_per_ms)
    }

    /// Sets LC application `app`'s offered load to `fraction` of its
    /// maximum (clamped to `[0, 10]`) at time `now`, replacing its pending
    /// arrival: a positive rate draws the first gap (without the
    /// arrival-gap floor), zero silences the application. Returns the
    /// clamped fraction, or `None` — drawing nothing — when `app` is not an
    /// LC application.
    pub fn set_load(&mut self, app: usize, fraction: f64, now: SimTime) -> Option<f64> {
        let lc = self.lc.get_mut(app)?.as_mut()?;
        let fraction = fraction.clamp(0.0, 10.0);
        lc.lambda_per_ms = fraction * lc.max_load_qps / 1000.0;
        lc.inter_arrival = if lc.lambda_per_ms > 0.0 {
            Some(Exp::new(lc.lambda_per_ms).expect("positive rate"))
        } else {
            None
        };
        self.next[app] = match lc.inter_arrival {
            Some(inter) => now + SimTime::from_ms(inter.sample(&mut self.rng)),
            None => SimTime::NEVER,
        };
        Some(fraction)
    }

    /// The draws of application `app`'s arrival at `now`: the request's
    /// service demand (core-ms), then the gap to its next arrival, which
    /// becomes the pending arrival. A silenced application draws nothing,
    /// has no pending arrival afterwards and yields `None`.
    fn draw_arrival(&mut self, app: usize, now: SimTime) -> Option<f64> {
        let lc = self.lc[app].as_ref().expect("arrival on LC app");
        let Some(inter) = lc.inter_arrival.as_ref() else {
            self.next[app] = SimTime::NEVER;
            return None;
        };
        let work = lc.service.sample(&mut self.rng).max(MIN_WORK_MS);
        let gap = inter.sample(&mut self.rng).max(MIN_GAP_MS);
        self.next[app] = now + SimTime::from_ms(gap);
        Some(work)
    }

    /// Draws every arrival of the window `[start, end)` into `chunk`
    /// (reusing its buffers), in the event loop's order: earliest first,
    /// ties to the lower application index. An arrival at exactly `end`
    /// stays pending for the next window, so a load change applied at that
    /// window's start still replaces it.
    pub fn fill(&mut self, start: SimTime, end: SimTime, chunk: &mut ArrivalChunk) {
        let n = self.next.len();
        chunk.start = start;
        chunk.end = end;
        chunk.pending.clone_from(&self.next);
        chunk.records.resize_with(n, Vec::new);
        for records in &mut chunk.records {
            records.clear();
        }
        loop {
            let (mut app, mut time) = (n, end);
            for (i, &t) in self.next.iter().enumerate() {
                if t < time {
                    (app, time) = (i, t);
                }
            }
            if app == n {
                break;
            }
            if let Some(work_ms) = self.draw_arrival(app, time) {
                chunk.records[app].push(ArrivalRecord {
                    work_ms,
                    next_arrival: self.next[app],
                });
            }
        }
        chunk.end_rng = Some(self.rng.clone());
    }

    /// Starts replaying `chunk`: its pending arrivals become this stream's.
    pub(crate) fn begin_replay(&mut self, chunk: &ArrivalChunk) {
        self.next.copy_from_slice(&chunk.pending);
        self.cursor.fill(0);
    }

    /// Replays `app`'s next recorded arrival in `chunk`: its successor
    /// becomes the pending arrival; returns the request's service demand.
    #[inline]
    pub(crate) fn replay_arrival(&mut self, app: usize, chunk: &ArrivalChunk) -> f64 {
        let record = chunk.records[app][self.cursor[app]];
        self.cursor[app] += 1;
        self.next[app] = record.next_arrival;
        record.work_ms
    }

    /// Ends replaying `chunk`: the RNG moves to where the filling stream
    /// left it, so this stream continues exactly as if it had drawn the
    /// window itself.
    pub(crate) fn end_replay(&mut self, chunk: &ArrivalChunk) {
        self.rng
            .clone_from(chunk.end_rng.as_ref().expect("a filled chunk"));
    }
}

/// One drawn arrival: the request's service demand and the time of the
/// same application's next arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalRecord {
    /// Service demand in core-milliseconds at speed 1.
    pub work_ms: f64,
    /// When the application's next request arrives.
    pub next_arrival: SimTime,
}

/// One monitoring window of a node's request stream, as drawn by
/// [`ArrivalStream::fill`]: each application's pending arrival at the
/// window start, and its arrivals inside the window in time order.
#[derive(Debug, Clone, Default)]
pub struct ArrivalChunk {
    start: SimTime,
    end: SimTime,
    pending: Vec<SimTime>,
    records: Vec<Vec<ArrivalRecord>>,
    end_rng: Option<Rng>,
}

impl ArrivalChunk {
    /// The window this chunk was drawn for, `[start, end)`.
    pub fn window(&self) -> (SimTime, SimTime) {
        (self.start, self.end)
    }

    /// Application `app`'s arrivals inside the window, in time order.
    pub fn records(&self, app: usize) -> &[ArrivalRecord] {
        &self.records[app]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lc(name: &str, qps: f64) -> AppSpec {
        AppSpec::lc(name)
            .threads(4)
            .mean_service_ms(1.0)
            .qos_threshold_ms(5.0)
            .max_load_qps(qps)
            .build()
            .unwrap()
    }

    #[test]
    fn set_load_draws_an_unfloored_gap_and_arrivals_a_floored_one() {
        // A huge rate makes nearly every gap fall under the 1 µs floor.
        let specs = [lc("a", 1e12)];
        let mut s = ArrivalStream::new(&specs, 3);
        let mut zero_gap = false;
        for _ in 0..64 {
            s.set_load(0, 10.0, SimTime::ZERO).unwrap();
            zero_gap |= s.next_arrivals()[0] == SimTime::ZERO;
        }
        assert!(zero_gap, "set_load's first gap is not floored");
        let now = SimTime::from_ms(1.0);
        for _ in 0..64 {
            s.draw_arrival(0, now).unwrap();
            assert_eq!(s.next_arrivals()[0], now + SimTime::from_us(1));
        }
    }

    #[test]
    fn be_apps_and_silenced_apps_draw_nothing() {
        let be = AppSpec::be("b").ipc_solo(1.0).build().unwrap();
        let specs = [lc("a", 1000.0), be];
        let mut s = ArrivalStream::new(&specs, 1);
        let before = s.rng.clone();
        assert_eq!(s.set_load(1, 0.5, SimTime::ZERO), None);
        assert_eq!(s.set_load(0, 0.0, SimTime::ZERO), Some(0.0));
        assert_eq!(s.draw_arrival(0, SimTime::ZERO), None);
        assert_eq!(s.rng, before);
        assert_eq!(s.next_arrivals(), [SimTime::NEVER; 2]);
    }

    #[test]
    fn fill_orders_ties_by_index_and_defers_the_window_end() {
        let specs = [lc("a", 1000.0), lc("b", 1000.0)];
        let mut s = ArrivalStream::new(&specs, 5);
        s.set_load(0, 0.5, SimTime::ZERO).unwrap();
        s.set_load(1, 0.5, SimTime::ZERO).unwrap();
        // Force a tie at 2 ms and an arrival exactly at the window end.
        let end = SimTime::from_ms(10.0);
        s.next = vec![SimTime::from_ms(2.0), SimTime::from_ms(2.0)];
        let mut reference = s.clone();
        let mut chunk = ArrivalChunk::default();
        s.fill(SimTime::ZERO, end, &mut chunk);
        // Replaying the draws by hand in (time, index) order reproduces it.
        let mut expect: Vec<Vec<ArrivalRecord>> = vec![Vec::new(), Vec::new()];
        loop {
            let next = reference.next.clone();
            let (app, &time) = next
                .iter()
                .enumerate()
                .min_by_key(|&(i, t)| (*t, i))
                .unwrap();
            if time >= end {
                break;
            }
            let work_ms = reference.draw_arrival(app, time).unwrap();
            expect[app].push(ArrivalRecord {
                work_ms,
                next_arrival: reference.next[app],
            });
        }
        assert_eq!(chunk.records(0), expect[0].as_slice());
        assert_eq!(chunk.records(1), expect[1].as_slice());
        assert_eq!(chunk.end_rng.as_ref(), Some(&reference.rng));
        // Pin one arrival exactly at the end: it stays pending.
        let mut s = ArrivalStream::new(&specs, 5);
        s.set_load(0, 0.5, SimTime::ZERO).unwrap();
        s.next[0] = end;
        s.fill(SimTime::ZERO, end, &mut chunk);
        assert!(chunk.records(0).is_empty());
        assert_eq!(s.next_arrivals()[0], end);
    }
}
