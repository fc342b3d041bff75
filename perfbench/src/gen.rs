//! Request streams for `serve_hot` and its fleet probe, generated from
//! the seed.
//!
//! The program under test only ever sees the generated request lines;
//! the seed, the key distributions and the mix live here.

use smith85_families::rng::FamilyRng;
use smith85_serve::protocol::{CacheSpec, Request, SimulateSpec, SweepSpec};

/// A seeded generator for `stream` of the workload seed `seed`.
///
/// `FamilyRng::new` ORs a constant with 38 set bits into its seed, so it
/// has 2^26 starting states, and nearby seeds (say 2 and 3) would share
/// one. An odd multiply first spreads every seed bit across the word, so
/// small seeds land on distinct states.
pub fn rng(seed: u64, stream: u64) -> FamilyRng {
    FamilyRng::new((seed ^ stream << 56).wrapping_mul(0xd1b5_4a32_d192_ed03))
}

/// A uniformly chosen element.
fn pick<'a, T>(rng: &mut FamilyRng, items: &'a [T]) -> &'a T {
    &items[rng.next_below(items.len() as u64) as usize]
}

/// What the load generator draws requests from.
pub trait Source {
    /// The next request.
    fn next_request(&mut self) -> Generated;

    /// The next `n` requests.
    fn take(&mut self, n: usize) -> Vec<Generated> {
        (0..n).map(|_| self.next_request()).collect()
    }
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The decoded request.
    pub request: Request,
    /// Its wire line.
    pub line: String,
    /// True when it repeats an earlier key of the stream.
    pub repeat: bool,
}

fn generated(request: Request, repeat: bool) -> Generated {
    Generated {
        line: request.encode(),
        request,
        repeat,
    }
}

/// `serve_hot`: Zipf-skewed keys over a fixed set of CPU profiles with
/// short traces, mostly `simulate` under LRU/FIFO/random at cache sizes
/// below and above each trace's footprint, plus one-pass `sweep --ways`
/// grids. The profile set and its popularity order are fixed, so every
/// seed asks for the same mix of work; the seed draws the sequence.
///
/// The mix is chosen, not measured: the repository records no served
/// request stream to derive it from. The profiles, the Zipf exponent,
/// the trace length, the sweep share and the policy split below are
/// picked values, so a gain on this stream says nothing about how real
/// traffic would fare.
pub struct HotStream {
    rng: FamilyRng,
}

/// References per `serve_hot` trace (chosen).
pub const HOT_LEN: usize = 50_000;
/// The hot CPU profiles, most popular first: one or two per machine
/// family of the catalog (chosen).
pub const HOT_PROFILES: [&str; 8] = [
    "VCCOM", "MVS1", "ZVI", "FGO1", "LISPCOMP", "VSPICE", "PL0", "TWOD",
];
/// Zipf exponent of profile popularity (chosen).
const HOT_ZIPF: f64 = 1.0;
/// Share of `serve_hot` requests that are grid sweeps (chosen).
const HOT_SWEEP_SHARE: f64 = 0.15;
/// Cache sizes: from far below a short trace's footprint to above it.
const HOT_SIZES: [usize; 6] = [256, 1024, 4096, 16_384, 65_536, 262_144];
const HOT_WAYS: [usize; 4] = [1, 2, 4, 8];
const HOT_GRIDS: [[usize; 4]; 2] = [[1024, 4096, 16_384, 65_536], [512, 2048, 8192, 32_768]];
const GRID_WAYS: [usize; 4] = [1, 2, 4, 8];

impl HotStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> HotStream {
        HotStream { rng: rng(seed, 1) }
    }

    /// The requests that warm the hot set: one `simulate` per profile
    /// (materializing its trace) and every grid sweep of the stream.
    pub fn warmup(&self) -> Vec<Generated> {
        HOT_PROFILES
            .iter()
            .flat_map(|w| {
                std::iter::once(simulate(w, HOT_LEN, None, 16, 1024, Some(1), None)).chain(
                    HOT_GRIDS
                        .iter()
                        .map(|sizes| sweep(w, HOT_LEN, None, 16, sizes.to_vec())),
                )
            })
            .map(|r| generated(r, false))
            .collect()
    }
}

impl Source for HotStream {
    fn next_request(&mut self) -> Generated {
        let rng = &mut self.rng;
        let workload = HOT_PROFILES[rng.next_zipf(HOT_PROFILES.len() as u64, HOT_ZIPF) as usize];
        if rng.next_f64() < HOT_SWEEP_SHARE {
            let sizes = pick(rng, &HOT_GRIDS).to_vec();
            return generated(sweep(workload, HOT_LEN, None, 16, sizes), false);
        }
        let size = *pick(rng, &HOT_SIZES);
        // Of ten simulations (chosen split): two FIFO, two random, one
        // fully associative LRU, five set-associative LRU. Fully
        // associative only under LRU: FIFO/random full-associative search
        // costs ten times more per reference and would turn a few
        // requests into the whole tail.
        let (ways, policy) = match rng.next_below(10) {
            0 | 1 => (Some(*pick(rng, &HOT_WAYS)), Some("fifo".to_string())),
            2 | 3 => (Some(*pick(rng, &HOT_WAYS)), Some("random:85".to_string())),
            4 => (None, None),
            _ => (Some(*pick(rng, &HOT_WAYS)), None),
        };
        generated(
            simulate(workload, HOT_LEN, None, 16, size, ways, policy),
            false,
        )
    }
}

/// The fleet probe's stream: keys from a large space (CPU, storage and
/// network profiles × generator seeds), so most requests need a trace
/// nobody has generated yet; a fixed share repeats an earlier key and is
/// answered from the store. Like the hot mix, the shares are chosen
/// values, not derived from observed traffic.
pub struct ColdStream {
    rng: FamilyRng,
    cpu: Vec<String>,
    storage: Vec<String>,
    network: Vec<String>,
    issued: Vec<Request>,
}

/// References per fleet-probe trace (chosen).
pub const COLD_LEN: usize = 5_000;
/// Share of fleet-probe requests that repeat an earlier key (chosen).
pub const COLD_REPEAT_SHARE: f64 = 0.4;
/// Share of new fleet-probe keys that are grid sweeps (chosen).
const COLD_SWEEP_SHARE: f64 = 0.15;

impl ColdStream {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> ColdStream {
        let family = |f: smith85_families::Family| -> Vec<String> {
            smith85_families::all()
                .iter()
                .filter(|s| s.family() == f)
                .map(|s| s.name().to_string())
                .collect()
        };
        ColdStream {
            rng: rng(seed, 2),
            cpu: smith85_synth::catalog::all()
                .iter()
                .map(|s| s.name().to_string())
                .collect(),
            storage: family(smith85_families::Family::Storage),
            network: family(smith85_families::Family::Network),
            issued: Vec::new(),
        }
    }
}

impl Source for ColdStream {
    fn next_request(&mut self) -> Generated {
        let rng = &mut self.rng;
        if !self.issued.is_empty() && rng.next_f64() < COLD_REPEAT_SHARE {
            let earlier = pick(rng, &self.issued).clone();
            return generated(earlier, true);
        }
        let seed = Some(rng.next_u64() >> 16);
        // (profiles, line, cache sizes) per family; of ten new keys (chosen
        // split) six are CPU, two storage and two network.
        let (names, line, sizes): (&[String], usize, [usize; 3]) = match rng.next_below(10) {
            0..=5 => (&self.cpu, 16, [1024, 4096, 16_384]),
            6 | 7 => (&self.storage, 4096, [65_536, 262_144, 1_048_576]),
            _ => (&self.network, 64, [1024, 4096, 16_384]),
        };
        let workload = pick(rng, names).clone();
        let request = if rng.next_f64() < COLD_SWEEP_SHARE {
            sweep(&workload, COLD_LEN, seed, line, sizes.to_vec())
        } else {
            let size = *pick(rng, &sizes);
            let ways = *pick(rng, &[Some(1), Some(2), Some(4), None]);
            simulate(&workload, COLD_LEN, seed, line, size, ways, None)
        };
        self.issued.push(request.clone());
        generated(request, false)
    }
}

fn simulate(
    workload: &str,
    len: usize,
    seed: Option<u64>,
    line: usize,
    size: usize,
    ways: Option<usize>,
    policy: Option<String>,
) -> Request {
    Request::Simulate(SimulateSpec {
        workload: workload.to_string(),
        len,
        seed,
        cache: CacheSpec {
            size,
            line,
            ways,
            purge: None,
        },
        policy,
        deadline_ms: None,
    })
}

fn sweep(workload: &str, len: usize, seed: Option<u64>, line: usize, sizes: Vec<usize>) -> Request {
    Request::Sweep(SweepSpec {
        workload: workload.to_string(),
        len,
        seed,
        sizes,
        ways: GRID_WAYS.to_vec(),
        line,
        policy: None,
        deadline_ms: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        let lines = |seed| {
            let mut s = ColdStream::new(seed);
            (0..200).map(|_| s.next_request().line).collect::<Vec<_>>()
        };
        assert_eq!(lines(7), lines(7));
        assert_ne!(lines(7), lines(8));
        let hot = |seed| {
            let mut s = HotStream::new(seed);
            (0..50).map(|_| s.next_request().line).collect::<Vec<_>>()
        };
        assert_eq!(hot(7), hot(7));
        assert_ne!(hot(2), hot(3));
    }

    #[test]
    fn distinct_seeds_give_distinct_streams() {
        let mut firsts: Vec<u64> = (0..1000)
            .chain([7919])
            .map(|seed| rng(seed, 1).next_u64())
            .collect();
        firsts.sort_unstable();
        firsts.dedup();
        assert_eq!(firsts.len(), 1001);
    }

    #[test]
    fn cold_stream_repeats_a_fixed_share() {
        let mut s = ColdStream::new(3);
        let repeats = (0..4000).filter(|_| s.next_request().repeat).count();
        let share = repeats as f64 / 4000.0;
        assert!((share - COLD_REPEAT_SHARE).abs() < 0.03, "{share}");
    }
}
