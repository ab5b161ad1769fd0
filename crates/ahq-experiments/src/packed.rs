//! The run memo's packed form of a [`RunResult`]: an exact byte encoding,
//! so the memo holds one exact-size allocation per result instead of a
//! live result of twenty-odd heap blocks.
//!
//! # Layout
//!
//! A packed result is a name table followed by the body. Unsigned
//! integers (counts, counters, name indices, region settings) are LEB128;
//! an `f64` is its [`f64::to_bits`] as 8 little-endian bytes, so NaN
//! payloads, signed zeros, infinities and subnormals survive; an
//! `Option<f64>` is a tag byte (`0` or `1`) and then the value; a `bool`
//! is one byte. The name table is a count, then each distinct name (the
//! strategy and every application name) as a length and its UTF-8 bytes,
//! in the order the body first mentions them; the body refers to names
//! by table index. The body follows `RunResult`'s fields in declaration
//! order, each `Vec` as a count and then its items.
//!
//! Packing destructures every struct exhaustively, so a field added to a
//! result type fails to compile here instead of being dropped.

use ahq_core::{EntropyReport, LcAppReport};
use ahq_sched::RunResult;
use ahq_sim::{BeWindowStats, LcWindowStats, MbaLevel, Partition, RegionAlloc, WindowObservation};

/// Packs `result` into one allocation of exactly its encoded length.
/// `scratch` is a reusable staging buffer; its contents are replaced.
pub(crate) fn pack(result: &RunResult, scratch: &mut Vec<u8>) -> Box<[u8]> {
    scratch.clear();
    let mut packer = Packer {
        out: scratch,
        names: Vec::new(),
    };
    packer.result(result);
    let Packer { out, names } = packer;
    // The body is staged first (it assigns name indices); the table is
    // appended after it and moved to the front in the final copy.
    let body = out.len();
    write_uint(out, names.len() as u64);
    for name in &names {
        write_uint(out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    let mut packed = Vec::with_capacity(out.len());
    packed.extend_from_slice(&out[body..]);
    packed.extend_from_slice(&out[..body]);
    packed.into_boxed_slice()
}

/// Decodes a [`pack`]ed result.
///
/// # Panics
///
/// Panics if `bytes` is not exactly one packed result; the memo only
/// holds what [`pack`] wrote, so that is a bug in this module.
pub(crate) fn unpack(bytes: &[u8]) -> RunResult {
    let mut reader = Reader {
        bytes,
        names: Vec::new(),
    };
    let count = reader.len();
    let names = (0..count)
        .map(|_| {
            let len = reader.len();
            std::str::from_utf8(reader.take(len)).expect("packed names are UTF-8")
        })
        .collect();
    reader.names = names;
    let result = reader.result();
    assert!(
        reader.bytes.is_empty(),
        "trailing bytes after a packed result"
    );
    result
}

fn write_uint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

struct Packer<'a, 'r> {
    out: &'a mut Vec<u8>,
    names: Vec<&'r str>,
}

impl<'r> Packer<'_, 'r> {
    fn uint(&mut self, value: u64) {
        write_uint(self.out, value);
    }

    fn f64(&mut self, value: f64) {
        self.out.extend_from_slice(&value.to_bits().to_le_bytes());
    }

    fn opt_f64(&mut self, value: Option<f64>) {
        match value {
            Some(v) => {
                self.out.push(1);
                self.f64(v);
            }
            None => self.out.push(0),
        }
    }

    fn name(&mut self, name: &'r str) {
        let index = match self.names.iter().position(|n| *n == name) {
            Some(index) => index,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        self.uint(index as u64);
    }

    fn list<T>(&mut self, items: &'r [T], mut item: impl FnMut(&mut Self, &'r T)) {
        self.uint(items.len() as u64);
        for value in items {
            item(self, value);
        }
    }

    fn result(&mut self, result: &'r RunResult) {
        let RunResult {
            strategy,
            observations,
            entropy,
            partitions,
            violations,
            adjustments,
        } = result;
        self.name(strategy);
        self.list(observations, Self::observation);
        self.list(entropy, Self::entropy);
        self.list(partitions, Self::partition);
        self.uint(*violations);
        self.uint(*adjustments);
    }

    fn observation(&mut self, obs: &'r WindowObservation) {
        let WindowObservation {
            window_index,
            start_ms,
            end_ms,
            lc,
            be,
        } = obs;
        self.uint(*window_index);
        self.f64(*start_ms);
        self.f64(*end_ms);
        self.list(lc, Self::lc_stats);
        self.list(be, Self::be_stats);
    }

    fn lc_stats(&mut self, stats: &'r LcWindowStats) {
        let LcWindowStats {
            name,
            p95_ms,
            ideal_ms,
            qos_ms,
            load,
            arrivals,
            completions,
            drops,
            backlog,
            mean_core_capacity,
        } = stats;
        self.name(name);
        self.opt_f64(*p95_ms);
        self.f64(*ideal_ms);
        self.f64(*qos_ms);
        self.f64(*load);
        self.uint(*arrivals);
        self.uint(*completions);
        self.uint(*drops);
        self.uint(*backlog as u64);
        self.f64(*mean_core_capacity);
    }

    fn be_stats(&mut self, stats: &'r BeWindowStats) {
        let BeWindowStats {
            name,
            ipc,
            ipc_solo,
            mean_core_capacity,
        } = stats;
        self.name(name);
        self.f64(*ipc);
        self.f64(*ipc_solo);
        self.f64(*mean_core_capacity);
    }

    fn entropy(&mut self, report: &'r EntropyReport) {
        let EntropyReport {
            lc,
            be,
            system,
            yield_fraction,
            lc_apps,
        } = report;
        self.f64(*lc);
        self.f64(*be);
        self.f64(*system);
        self.f64(*yield_fraction);
        self.list(lc_apps, Self::lc_app);
    }

    fn lc_app(&mut self, app: &'r LcAppReport) {
        let LcAppReport {
            name,
            tolerance,
            interference,
            remaining_tolerance,
            intolerable,
            satisfied,
        } = app;
        self.name(name);
        self.f64(*tolerance);
        self.f64(*interference);
        self.f64(*remaining_tolerance);
        self.f64(*intolerable);
        self.out.push(u8::from(*satisfied));
    }

    fn partition(&mut self, partition: &'r Partition) {
        self.uint(partition.num_apps() as u64);
        for (_, region) in partition.iter() {
            let RegionAlloc {
                cores,
                ways,
                membw_pct,
                mba,
            } = region;
            self.uint(cores.into());
            self.uint(ways.into());
            self.uint(membw_pct.into());
            self.uint(mba.pct().into());
        }
    }
}

struct Reader<'b> {
    bytes: &'b [u8],
    names: Vec<&'b str>,
}

impl<'b> Reader<'b> {
    fn take(&mut self, n: usize) -> &'b [u8] {
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        head
    }

    fn byte(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn uint(&mut self) -> u64 {
        let mut value = 0u64;
        let mut shift = 0;
        loop {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }

    fn len(&mut self) -> usize {
        usize::try_from(self.uint()).expect("packed counts fit in usize")
    }

    fn u32(&mut self) -> u32 {
        u32::try_from(self.uint()).expect("packed region settings fit in u32")
    }

    fn f64(&mut self) -> f64 {
        let bytes = self.take(8).try_into().expect("took 8 bytes");
        f64::from_bits(u64::from_le_bytes(bytes))
    }

    fn opt_f64(&mut self) -> Option<f64> {
        match self.byte() {
            0 => None,
            1 => Some(self.f64()),
            tag => panic!("bad packed Option tag {tag}"),
        }
    }

    fn bool(&mut self) -> bool {
        match self.byte() {
            0 => false,
            1 => true,
            tag => panic!("bad packed bool {tag}"),
        }
    }

    fn name(&mut self) -> String {
        let index = self.len();
        self.names[index].to_owned()
    }

    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let len = self.len();
        (0..len).map(|_| item(self)).collect()
    }

    fn result(&mut self) -> RunResult {
        RunResult {
            strategy: self.name(),
            observations: self.list(Self::observation),
            entropy: self.list(Self::entropy),
            partitions: self.list(Self::partition),
            violations: self.uint(),
            adjustments: self.uint(),
        }
    }

    fn observation(&mut self) -> WindowObservation {
        WindowObservation {
            window_index: self.uint(),
            start_ms: self.f64(),
            end_ms: self.f64(),
            lc: self.list(Self::lc_stats),
            be: self.list(Self::be_stats),
        }
    }

    fn lc_stats(&mut self) -> LcWindowStats {
        LcWindowStats {
            name: self.name(),
            p95_ms: self.opt_f64(),
            ideal_ms: self.f64(),
            qos_ms: self.f64(),
            load: self.f64(),
            arrivals: self.uint(),
            completions: self.uint(),
            drops: self.uint(),
            backlog: self.len(),
            mean_core_capacity: self.f64(),
        }
    }

    fn be_stats(&mut self) -> BeWindowStats {
        BeWindowStats {
            name: self.name(),
            ipc: self.f64(),
            ipc_solo: self.f64(),
            mean_core_capacity: self.f64(),
        }
    }

    fn entropy(&mut self) -> EntropyReport {
        EntropyReport {
            lc: self.f64(),
            be: self.f64(),
            system: self.f64(),
            yield_fraction: self.f64(),
            lc_apps: self.list(Self::lc_app),
        }
    }

    fn lc_app(&mut self) -> LcAppReport {
        LcAppReport {
            name: self.name(),
            tolerance: self.f64(),
            interference: self.f64(),
            remaining_tolerance: self.f64(),
            intolerable: self.f64(),
            satisfied: self.bool(),
        }
    }

    fn partition(&mut self) -> Partition {
        Partition::strict(self.list(|r| RegionAlloc {
            cores: r.u32(),
            ways: r.u32(),
            membw_pct: r.u32(),
            mba: MbaLevel::new(r.u32()),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahq_core::check;
    use ahq_core::rng::Rng;

    const NAMES: [&str; 6] = ["xapian", "", "moses", "名前-ü", "stream", "img-dnn"];

    /// Every throttle level MBA exposes, unthrottled included.
    fn mba_levels() -> Vec<MbaLevel> {
        (1..=10)
            .map(|step| MbaLevel::new(step * MbaLevel::STEP_PCT))
            .collect()
    }

    /// An `f64` drawn mostly from the values a lossy encoding would break.
    fn edge_f64(rng: &mut Rng) -> f64 {
        match rng.below(13) {
            0 => f64::NAN,
            1 => f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN payload
            2 => -f64::NAN,
            11 => f64::from_bits(0xfff8_dead_beef_0000), // negative quiet NaN payload
            3 => 0.0,
            4 => -0.0,
            5 => f64::INFINITY,
            6 => f64::NEG_INFINITY,
            7 => f64::from_bits(1), // smallest subnormal
            8 => -f64::MIN_POSITIVE / 3.0,
            9 => f64::MAX,
            _ => rng.range_f64(-1e6..=1e6),
        }
    }

    fn edge_u64(rng: &mut Rng) -> u64 {
        match rng.below(5) {
            0 => 0,
            1 => u64::MAX,
            2 => 127 + rng.below(2), // either side of a LEB128 byte boundary
            3 => rng.next_u64(),
            _ => rng.below(1000),
        }
    }

    fn name(rng: &mut Rng) -> String {
        NAMES[rng.range_usize(0..NAMES.len())].to_owned()
    }

    /// A random result: 0–5 apps split into LC and BE (BE-only
    /// included), 0–3 windows, every edge `f64`, `u64::MAX` counters,
    /// `p95_ms: None` and every MBA level.
    fn random_result(rng: &mut Rng) -> RunResult {
        let apps = rng.range_usize(0..6);
        let lc = rng.range_usize(0..apps + 1);
        let windows = rng.range_usize(0..4);
        let levels = mba_levels();
        RunResult {
            strategy: name(rng),
            observations: (0..windows)
                .map(|w| WindowObservation {
                    window_index: if rng.bool() { w as u64 } else { edge_u64(rng) },
                    start_ms: edge_f64(rng),
                    end_ms: edge_f64(rng),
                    lc: (0..lc)
                        .map(|_| LcWindowStats {
                            name: name(rng),
                            p95_ms: rng.bool().then(|| edge_f64(rng)),
                            ideal_ms: edge_f64(rng),
                            qos_ms: edge_f64(rng),
                            load: edge_f64(rng),
                            arrivals: edge_u64(rng),
                            completions: edge_u64(rng),
                            drops: edge_u64(rng),
                            backlog: edge_u64(rng) as usize,
                            mean_core_capacity: edge_f64(rng),
                        })
                        .collect(),
                    be: (lc..apps)
                        .map(|_| BeWindowStats {
                            name: name(rng),
                            ipc: edge_f64(rng),
                            ipc_solo: edge_f64(rng),
                            mean_core_capacity: edge_f64(rng),
                        })
                        .collect(),
                })
                .collect(),
            entropy: (0..windows)
                .map(|_| EntropyReport {
                    lc: edge_f64(rng),
                    be: edge_f64(rng),
                    system: edge_f64(rng),
                    yield_fraction: edge_f64(rng),
                    lc_apps: (0..lc)
                        .map(|_| LcAppReport {
                            name: name(rng),
                            tolerance: edge_f64(rng),
                            interference: edge_f64(rng),
                            remaining_tolerance: edge_f64(rng),
                            intolerable: edge_f64(rng),
                            satisfied: rng.bool(),
                        })
                        .collect(),
                })
                .collect(),
            partitions: (0..windows)
                .map(|_| {
                    Partition::strict(check::vec(rng, 0..apps + 1, |rng| RegionAlloc {
                        cores: rng.range_u32(0..20),
                        ways: rng.range_u32(0..20),
                        membw_pct: if rng.bool() {
                            u32::MAX
                        } else {
                            rng.range_u32(0..101)
                        },
                        mba: levels[rng.range_usize(0..levels.len())],
                    }))
                })
                .collect(),
            violations: edge_u64(rng),
            adjustments: edge_u64(rng),
        }
    }

    fn round_trip(result: &RunResult) -> (Box<[u8]>, RunResult) {
        let packed = pack(result, &mut Vec::new());
        let back = unpack(&packed);
        (packed, back)
    }

    /// The bits of every `f64` in `result`, in field order. Debug text
    /// prints every NaN alike, so the property compares these as well.
    fn f64_bits(result: &RunResult) -> Vec<u64> {
        let mut bits = Vec::new();
        for obs in &result.observations {
            bits.extend([obs.start_ms, obs.end_ms].map(f64::to_bits));
            for lc in &obs.lc {
                bits.extend(lc.p95_ms.map(f64::to_bits));
                bits.extend(
                    [lc.ideal_ms, lc.qos_ms, lc.load, lc.mean_core_capacity].map(f64::to_bits),
                );
            }
            for be in &obs.be {
                bits.extend([be.ipc, be.ipc_solo, be.mean_core_capacity].map(f64::to_bits));
            }
        }
        for report in &result.entropy {
            bits.extend(
                [report.lc, report.be, report.system, report.yield_fraction].map(f64::to_bits),
            );
            for app in &report.lc_apps {
                bits.extend(
                    [
                        app.tolerance,
                        app.interference,
                        app.remaining_tolerance,
                        app.intolerable,
                    ]
                    .map(f64::to_bits),
                );
            }
        }
        bits
    }

    #[test]
    fn random_results_round_trip_exactly() {
        // The scratch buffer carries over between cases, as on a worker.
        let mut scratch = Vec::new();
        check::cases(512, |rng| {
            let result = random_result(rng);
            let back = unpack(&pack(&result, &mut scratch));
            assert_eq!(format!("{back:?}"), format!("{result:?}"));
            assert_eq!(f64_bits(&back), f64_bits(&result));
        });
    }

    #[test]
    fn every_mba_level_round_trips() {
        let regions: Vec<RegionAlloc> = mba_levels()
            .into_iter()
            .map(|mba| RegionAlloc::new(1, 2).with_mba(mba))
            .collect();
        let result = RunResult {
            strategy: String::new(),
            observations: Vec::new(),
            entropy: Vec::new(),
            partitions: vec![Partition::strict(regions), Partition::all_shared(0)],
            violations: 0,
            adjustments: 0,
        };
        assert_eq!(round_trip(&result).1.partitions, result.partitions);
    }

    #[test]
    fn names_are_stored_once_in_first_seen_order() {
        let stats = |name: &str| BeWindowStats {
            name: name.into(),
            ipc: 1.0,
            ipc_solo: 2.0,
            mean_core_capacity: 3.0,
        };
        let result = RunResult {
            strategy: "unmanaged".into(),
            observations: (0..3)
                .map(|w| WindowObservation {
                    window_index: w,
                    start_ms: 0.0,
                    end_ms: 0.0,
                    lc: Vec::new(),
                    be: vec![stats("stream"), stats("unmanaged")],
                })
                .collect(),
            entropy: Vec::new(),
            partitions: Vec::new(),
            violations: 0,
            adjustments: 0,
        };
        let (packed, back) = round_trip(&result);
        assert_eq!(format!("{back:?}"), format!("{result:?}"));
        // Table: two names, "unmanaged" (the strategy) then "stream".
        assert_eq!(&packed[..12], b"\x02\x09unmanaged\x06");
        assert_eq!(&packed[12..18], b"stream");
        assert_eq!(
            packed.len(),
            18 + 1 + 1 + 3 * (1 + 16 + 1 + 1 + 2 * (1 + 24)) + 1 + 1 + 2
        );
    }
}
