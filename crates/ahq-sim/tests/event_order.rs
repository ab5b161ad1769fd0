//! Property tests pinning the tie-break contract of [`scan_next_event`].
//!
//! The window loop's determinism — and therefore the byte-identity of
//! every golden trace in this repository — rests on the scan examining
//! event sources in a fixed order (window end, then per application in
//! index order: arrival, completion, warm-up expiry) with every
//! comparison strict. These tests encode that contract twice over: a
//! deliberately naive reference scan that materializes every candidate
//! and picks the lexicographic minimum of `(time, source priority)`,
//! and a permutation property showing the *time* of the winning event
//! is invariant under reordering of the application arrays.

use ahq_core::check;
use ahq_core::rng::Rng;
use ahq_sim::{scan_next_event, ScanEvent, SimTime};

/// Priority of an event source under the documented examination order:
/// lower wins a timestamp tie. The window end is examined first, then
/// for each application `i` its arrival, completion and warm-up expiry.
fn source_priority(event: ScanEvent) -> u64 {
    match event {
        ScanEvent::WindowEnd => 0,
        ScanEvent::Arrival(i) => 3 * i as u64 + 1,
        ScanEvent::Completion(i) => 3 * i as u64 + 2,
        // The scan does not carry an index for warm-up expiries, so the
        // reference assigns priorities positionally and maps the winner
        // back to the shared `WarmupExpiry` variant before comparing.
        ScanEvent::WarmupExpiry => unreachable!("reference tracks warmups per index"),
    }
}

/// A naive re-implementation of the scan: build the full candidate
/// list, then take the minimum by `(time, source priority)`. Agreement
/// with the production single-pass strict-`<` scan on every input is
/// exactly the statement that first-examined sources keep contested
/// timestamps.
fn reference_scan(
    time: SimTime,
    window_end: SimTime,
    next_arrival: &[SimTime],
    min_remaining_ms: &[f64],
    speed: &[f64],
    warmup_until: &[SimTime],
) -> (SimTime, ScanEvent) {
    // (time, priority, event); priority for warm-ups computed inline.
    let mut candidates: Vec<(SimTime, u64, ScanEvent)> =
        vec![(window_end, 0, ScanEvent::WindowEnd)];
    for i in 0..next_arrival.len() {
        candidates.push((
            next_arrival[i],
            source_priority(ScanEvent::Arrival(i)),
            ScanEvent::Arrival(i),
        ));
        if min_remaining_ms[i] < f64::INFINITY && speed[i] > 1e-12 {
            let dt_us = ((min_remaining_ms[i] / speed[i]).max(0.0) * 1_000.0).ceil() as u64;
            let t = time + SimTime::from_us(dt_us.max(1));
            candidates.push((
                t,
                source_priority(ScanEvent::Completion(i)),
                ScanEvent::Completion(i),
            ));
        }
        if warmup_until[i] > time {
            candidates.push((warmup_until[i], 3 * i as u64 + 3, ScanEvent::WarmupExpiry));
        }
    }
    let (t, _, event) = candidates
        .into_iter()
        .min_by_key(|&(t, priority, _)| (t, priority))
        .expect("the window end is always a candidate");
    (t.max(time), event)
}

/// Per-application event-source state the generators below draw.
#[derive(Debug, Clone)]
struct AppSources {
    next_arrival: SimTime,
    min_remaining_ms: f64,
    speed: f64,
    warmup_until: SimTime,
}

/// A time drawn from a small µs grid so that cross-source collisions —
/// the interesting case — are common rather than vanishingly rare.
fn gridded_time(rng: &mut Rng, base_us: u64) -> SimTime {
    SimTime::from_us(base_us + rng.below(30))
}

fn app_sources(rng: &mut Rng, now_us: u64) -> AppSources {
    let next_arrival = if rng.bool() {
        gridded_time(rng, now_us)
    } else {
        SimTime::NEVER
    };
    // Remaining work in ms on a coarse grid: with speed 1.0 a value of k
    // lands the completion exactly k µs out * 1000, and fractional speeds
    // exercise the ceil.
    let min_remaining_ms = if rng.bool() {
        rng.below(20) as f64 * 0.001
    } else {
        f64::INFINITY
    };
    let speed = match rng.below(5) {
        0 => 1.0,
        1 => 0.5,
        2 => 0.0,
        // Below the 1e-12 floor: the source must be ignored, not
        // scheduled astronomically far out.
        3 => 1e-13,
        _ => 1.0 / rng.range_u32(1..8) as f64,
    };
    // Straddle `now`: expired warm-ups (<= now) must be invisible.
    let warmup_until = gridded_time(rng, now_us.saturating_sub(10));
    AppSources {
        next_arrival,
        min_remaining_ms,
        speed,
        warmup_until,
    }
}

/// Per-application sources drawn over the whole range the node can
/// produce: remaining work up to 1000 ms with arbitrary fractions,
/// speeds log-uniform from just above the 1e-12 floor to 4 (quotients up
/// to ~1e18 µs, so completion times saturate at [`SimTime::NEVER`] when
/// the clock is late), and arrival and warm-up times around the window
/// end as well as around now.
fn wide_app_sources(rng: &mut Rng, now_us: u64, end_us: u64) -> AppSources {
    let near = |rng: &mut Rng, at: u64| {
        let offset = rng.below(2_000);
        if rng.bool() {
            SimTime::from_us(at.saturating_add(offset))
        } else {
            SimTime::from_us(at.saturating_sub(offset))
        }
    };
    let next_arrival = match rng.below(3) {
        0 => near(rng, now_us),
        1 => near(rng, end_us),
        _ => SimTime::NEVER,
    };
    let min_remaining_ms = match rng.below(4) {
        0 => f64::INFINITY,
        1 => 0.0,
        _ => rng.f64() * 1_000.0,
    };
    let speed = match rng.below(4) {
        0 => 1e-12f64.next_up(),
        1 => 4.0,
        // Log-uniform over [1e-12, 4].
        _ => 10f64.powf(rng.range_f64(-12.0..=4f64.log10())),
    };
    let warmup_until = if rng.bool() {
        near(rng, now_us)
    } else {
        near(rng, end_us)
    };
    AppSources {
        next_arrival,
        min_remaining_ms,
        speed,
        warmup_until,
    }
}

/// Half the cases on the small collision grid, half over the wide range:
/// an early or late clock (late enough that far completions saturate)
/// and a window end from a few µs to the end of time.
fn scan_inputs(rng: &mut Rng) -> (SimTime, SimTime, Vec<AppSources>) {
    if rng.bool() {
        let now_us = 5 + rng.below(35);
        let window_end = SimTime::from_us(now_us + rng.below(40));
        let apps = check::vec(rng, 1..9, |rng| app_sources(rng, now_us));
        return (SimTime::from_us(now_us), window_end, apps);
    }
    let now_us = if rng.bool() {
        rng.below(1 << 40)
    } else {
        u64::MAX - rng.below(1 << 61)
    };
    let end_us = match rng.below(3) {
        0 => now_us.saturating_add(rng.below(1_000)),
        1 => now_us.saturating_add(rng.below(1 << 40)),
        _ => u64::MAX,
    };
    let apps = check::vec(rng, 1..9, |rng| wide_app_sources(rng, now_us, end_us));
    (SimTime::from_us(now_us), SimTime::from_us(end_us), apps)
}

fn split(apps: &[AppSources]) -> (Vec<SimTime>, Vec<f64>, Vec<f64>, Vec<SimTime>) {
    (
        apps.iter().map(|a| a.next_arrival).collect(),
        apps.iter().map(|a| a.min_remaining_ms).collect(),
        apps.iter().map(|a| a.speed).collect(),
        apps.iter().map(|a| a.warmup_until).collect(),
    )
}

/// The single-pass scan agrees exactly — time bits and event kind — with
/// the naive minimum over the full candidate list.
#[test]
fn scan_matches_reference_candidate_list() {
    check::cases(1024, |rng| {
        let (time, window_end, apps) = scan_inputs(rng);
        let (arrivals, remaining, speed, warmups) = split(&apps);
        let got = scan_next_event(time, window_end, &arrivals, &remaining, &speed, &warmups);
        let want = reference_scan(time, window_end, &arrivals, &remaining, &speed, &warmups);
        assert_eq!(got.0.as_us(), want.0.as_us());
        assert_eq!(got.1, want.1);
    });
}

/// Permuting the application order never changes *when* the next event
/// fires, bit for bit. (The winning *category* may flip on a
/// cross-application tie — completion of app A versus arrival of app B —
/// which is exactly why the loop keys dispatch off indices resolved under
/// one fixed order, not off re-scans.)
#[test]
fn permuted_app_order_preserves_event_time() {
    check::cases(1024, |rng| {
        let (time, window_end, apps) = scan_inputs(rng);
        let (arrivals, remaining, speed, warmups) = split(&apps);
        let base = scan_next_event(time, window_end, &arrivals, &remaining, &speed, &warmups);

        // Fisher-Yates from the case's own generator.
        let mut order: Vec<usize> = (0..apps.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(0..i + 1));
        }
        let permuted: Vec<AppSources> = order.iter().map(|&i| apps[i].clone()).collect();
        let (arrivals, remaining, speed, warmups) = split(&permuted);
        let shuffled = scan_next_event(time, window_end, &arrivals, &remaining, &speed, &warmups);

        assert_eq!(base.0.as_us(), shuffled.0.as_us());
    });
}

// Handcrafted ties pinning the examination order itself. Each case
// would still pass a "some minimum-time event" spec; only the fixed
// window-end / arrival / completion / warm-up order passes all four.

#[test]
fn window_end_wins_tied_arrival() {
    let t = SimTime::from_us(10);
    let got = scan_next_event(
        SimTime::from_us(5),
        t,
        &[t],
        &[f64::INFINITY],
        &[1.0],
        &[SimTime::ZERO],
    );
    assert_eq!(got, (t, ScanEvent::WindowEnd));
}

#[test]
fn arrival_wins_tied_same_app_completion() {
    // Arrival at now+3µs; 0.003ms of work at speed 1.0 completes at the
    // same instant. Arrival is examined first for the same index.
    let now = SimTime::from_us(5);
    let got = scan_next_event(
        now,
        SimTime::from_us(100),
        &[SimTime::from_us(8)],
        &[0.003],
        &[1.0],
        &[SimTime::ZERO],
    );
    assert_eq!(got, (SimTime::from_us(8), ScanEvent::Arrival(0)));
}

#[test]
fn earlier_app_completion_wins_tied_later_app_arrival() {
    let now = SimTime::from_us(5);
    let got = scan_next_event(
        now,
        SimTime::from_us(100),
        &[SimTime::NEVER, SimTime::from_us(8)],
        &[0.003, f64::INFINITY],
        &[1.0, 1.0],
        &[SimTime::ZERO, SimTime::ZERO],
    );
    assert_eq!(got, (SimTime::from_us(8), ScanEvent::Completion(0)));
}

#[test]
fn warmup_wins_tied_later_app_arrival() {
    let now = SimTime::from_us(5);
    let got = scan_next_event(
        now,
        SimTime::from_us(100),
        &[SimTime::NEVER, SimTime::from_us(8)],
        &[f64::INFINITY, f64::INFINITY],
        &[1.0, 1.0],
        &[SimTime::from_us(8), SimTime::ZERO],
    );
    assert_eq!(got, (SimTime::from_us(8), ScanEvent::WarmupExpiry));
}

#[test]
fn zero_remaining_completion_clamps_to_now() {
    // 0ms remaining rounds up to a 1µs step; nothing clamps here, but a
    // window end already in the past must clamp to `now` and the event
    // fire "immediately" without the clock moving backwards.
    let now = SimTime::from_us(50);
    let got = scan_next_event(
        now,
        SimTime::from_us(10),
        &[SimTime::NEVER],
        &[f64::INFINITY],
        &[1.0],
        &[SimTime::ZERO],
    );
    assert_eq!(got, (now, ScanEvent::WindowEnd));
}
