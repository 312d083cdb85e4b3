//! The shared preset and everything drawn from `--seed`.
//!
//! One thread generates every input before anything is timed. The
//! preset fixes what the system holds — the preloaded corpus and the
//! pool of distinct queries, both generated from [`PRESET_SEED`] —
//! and the program's own configuration ([`HASH_SEED`]). `--seed` draws
//! the traffic against it: which queries arrive in which order under
//! the log's Zipf law, which records are pin targets, which records
//! are inserted, and when open-loop requests are due. A superset's
//! cost is set by how broad its query is, and ten queries carry 60 %
//! of the volume, so a pool redrawn per seed would move every latency
//! by integer factors between seeds; redrawing the traffic does not.

use std::time::Instant;

use hyperdex_core::{Keyword, KeywordSet, ObjectId};
use hyperdex_runtime::Request;
use hyperdex_simnet::rng::SimRng;
use hyperdex_workload::{Corpus, CorpusConfig, QueryLog, QueryLogConfig, ZipfSampler};

/// Seed of the preset's corpus and query pool.
pub const PRESET_SEED: u64 = 2005;
/// Keyword-hash and shard-placement seed of every executor.
pub const HASH_SEED: u64 = 0x6879_7065_7264_6578;
/// Cube dimension of the TCP workloads (preset `pchome-r12`).
pub const R_TCP: u8 = 12;
/// Cube dimension of `direct_scale`.
pub const R_DIRECT: u8 = 16;
/// Superset threshold `t`, top-down.
pub const THRESHOLD: usize = 20;
/// Requests kept in flight by the one client.
pub const WINDOW: usize = 32;
/// Inbox and writer-queue bound of the servers, in packets.
pub const CAPACITY: usize = 64;
/// Server processes, one worker each: the reference host has 2 cores.
pub const SERVERS: u32 = 2;
/// Distinct pin targets replayed under the query log's Zipf law.
pub const PIN_TARGETS: usize = 10_000;
/// Every `MISS_EVERY`-th pin asks for a keyword set nobody has.
pub const MISS_EVERY: u64 = 20;
/// Objects of `direct_scale`'s preloaded index.
pub const DIRECT_OBJECTS: usize = 500_000;
/// The seed used when `--seed` is not given, and by the README's
/// reference numbers.
pub const REFERENCE_SEED: u64 = 42;

/// How much work one run does. `seconds` is the length of the timed
/// phases the op counts are sized for on the 2-core reference host;
/// every count is `rate × seconds`, so one seed and one `seconds`
/// always give the same request stream.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Target length of the timed phases.
    pub seconds: f64,
    /// Divisor of the corpus sizes (1 except in `--smoke`).
    pub corpus_div: usize,
    /// Times set-up is repeated; `setup_s` is their quiet quartile.
    pub setups: usize,
}

impl Scale {
    /// The gated scale: `seconds` as the driver passes it, full
    /// corpora, three set-ups.
    pub fn full(seconds: f64) -> Scale {
        Scale {
            seconds,
            corpus_div: 1,
            setups: 3,
        }
    }

    /// `--smoke`: one fiftieth of the default ops on a tenth of the
    /// corpus, two set-ups (the frame baseline needs one to spare),
    /// same verification.
    pub fn smoke() -> Scale {
        Scale {
            seconds: DEFAULT_SECONDS / 50.0,
            corpus_div: 10,
            setups: 2,
        }
    }

    /// `rate × seconds`, at least `floor`.
    pub fn ops(&self, per_second: f64, floor: usize) -> usize {
        ((per_second * self.seconds).round() as usize).max(floor)
    }

    /// Op counts relative to the issue's ≈ 30 s sizing.
    pub fn factor(&self) -> f64 {
        self.seconds / 30.0
    }
}

/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Corpus, held-out records and query log of one run.
pub struct Dataset {
    base: Corpus,
    held: Corpus,
    /// The preset's query log; only its pool of distinct queries,
    /// most popular first, is used.
    log: QueryLog,
    /// The log's calibrated Zipf law over the pool (top-10 ≈ 60 %).
    zipf: ZipfSampler,
    /// Seconds spent generating both corpora.
    pub corpus_gen_s: f64,
    /// Seconds spent generating the query log.
    pub querylog_gen_s: f64,
}

impl Dataset {
    /// The preset's first `base` records and query pool, plus `held`
    /// records drawn from `seed` to insert later.
    pub fn generate(seed: u64, base: usize, held: usize) -> Dataset {
        let t0 = Instant::now();
        let cfg = CorpusConfig::pchome();
        let base = Corpus::generate(&cfg.clone().with_objects(base), PRESET_SEED);
        let held = Corpus::generate(&cfg.with_objects(held), seed ^ 0x4845_4C44);
        let corpus_gen_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut log_cfg = QueryLogConfig::pchome_day().with_queries(1);
        // A shrunken corpus cannot yield the full pool of distinct
        // subsets; keep the pool well inside what it can.
        log_cfg.distinct_pool = log_cfg.distinct_pool.min(base.len() / 2).max(11);
        let log = QueryLog::generate(&log_cfg, &base, PRESET_SEED);
        let pool = log.pool().len();
        let zipf = ZipfSampler::new(
            pool,
            ZipfSampler::calibrate_exponent(pool, 10, log_cfg.top10_share),
        );
        let querylog_gen_s = t1.elapsed().as_secs_f64();
        Dataset {
            base,
            held,
            log,
            zipf,
            corpus_gen_s,
            querylog_gen_s,
        }
    }

    /// Distinct queries in the pool.
    pub fn pool_len(&self) -> u32 {
        self.log.pool().len() as u32
    }

    /// `n` query arrivals as pool indices. How often each query occurs
    /// is its Zipf share of `n`, rounded by largest remainder; `seed`
    /// only shuffles the order. Ten queries carry 60 % of the volume
    /// and differ widely in cost, so counts drawn at random would move
    /// the latency percentiles between seeds by whole cost classes.
    pub fn replay(&self, seed: u64, n: usize) -> Vec<u32> {
        let pool = self.zipf.len();
        let mut counts: Vec<usize> = (0..pool)
            .map(|k| (self.zipf.probability(k) * n as f64).floor() as usize)
            .collect();
        let mut by_remainder: Vec<usize> = (0..pool).collect();
        let remainder = |k: usize| self.zipf.probability(k) * n as f64 - counts[k] as f64;
        by_remainder.sort_by(|&a, &b| remainder(b).total_cmp(&remainder(a)).then(a.cmp(&b)));
        let short = n - counts.iter().sum::<usize>();
        for &k in by_remainder.iter().cycle().take(short) {
            counts[k] += 1;
        }
        let mut arrivals: Vec<u32> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k as u32, c))
            .collect();
        SimRng::new(seed ^ 0x514C_4F47).shuffle(&mut arrivals);
        arrivals
    }

    /// `n` pool queries with no repeats (until the pool runs out, which
    /// only a shrunken `--smoke` pool does): the first `n` of a fixed
    /// permutation of the pool, in an order `seed` chooses — again the
    /// same set of costs for every seed.
    pub fn distinct_queries(&self, seed: u64, n: usize) -> Vec<u32> {
        let mut pool: Vec<u32> = (0..self.pool_len()).collect();
        SimRng::new(PRESET_SEED).shuffle(&mut pool);
        let mut chosen: Vec<u32> = pool.iter().copied().cycle().take(n).collect();
        SimRng::new(seed ^ 0x4449_5354).shuffle(&mut chosen);
        chosen
    }

    /// Share of the law's volume its ten most popular queries carry.
    pub fn top10_share(&self) -> f64 {
        self.zipf.top_share(10.min(self.zipf.len()))
    }

    /// Preloaded records.
    pub fn base_len(&self) -> u32 {
        self.base.len() as u32
    }

    /// Preloaded plus held-out records.
    pub fn len(&self) -> u32 {
        (self.base.len() + self.held.len()) as u32
    }

    /// Keyword set of record `g` in the global sequence (base first,
    /// then held-out in insertion order). Record `g` is object `g`.
    pub fn keywords(&self, g: u32) -> &KeywordSet {
        let g = g as usize;
        match g.checked_sub(self.base.len()) {
            None => &self.base.records()[g].keywords,
            Some(h) => &self.held.records()[h].keywords,
        }
    }

    /// The object id record `g` is indexed under.
    pub fn object(g: u32) -> ObjectId {
        ObjectId::from_raw(u64::from(g))
    }

    /// Query `q` of the log's pool.
    pub fn query(&self, q: u32) -> &KeywordSet {
        &self.log.pool()[q as usize]
    }
}

/// One read of a workload's stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Read {
    /// Pin lookup of record `target`'s full keyword set; a `miss` adds
    /// a keyword no record carries.
    Pin { target: u32, miss: bool },
    /// Superset search of pool query `query`.
    Superset { query: u32 },
}

impl Read {
    /// The keyword set the read asks about.
    pub fn keywords(self, data: &Dataset) -> KeywordSet {
        match self {
            Read::Pin { target, miss } => {
                let mut keywords = data.keywords(target).clone();
                if miss {
                    keywords.insert(miss_keyword());
                }
                keywords
            }
            Read::Superset { query } => data.query(query).clone(),
        }
    }

    /// The request handed to the threaded and TCP executors.
    pub fn request(self, data: &Dataset) -> Request {
        let keywords = self.keywords(data);
        match self {
            Read::Pin { .. } => Request::Pin(keywords),
            Read::Superset { .. } => Request::Superset {
                keywords,
                threshold: THRESHOLD,
            },
        }
    }
}

/// A keyword outside the synthetic vocabulary (`kwNNNNNN`).
pub fn miss_keyword() -> Keyword {
    Keyword::new("no-such-keyword").expect("non-empty")
}

/// Zipf-ranked pin targets: the query log's calibrated law (top-10 of
/// the pool ≈ 60 % of volume) over [`PIN_TARGETS`] seeded records.
pub struct PinSource {
    zipf: ZipfSampler,
    rng: SimRng,
    /// Rank → offset into the preloaded records.
    offsets: Vec<u32>,
    issued: u64,
}

impl PinSource {
    /// Targets among the first `span` records.
    pub fn new(seed: u64, span: u32) -> PinSource {
        let mut rng = SimRng::new(seed ^ 0x5049_4E53);
        let targets = PIN_TARGETS.min(span as usize / 2).max(11);
        let s = ZipfSampler::calibrate_exponent(targets, 10, 0.6);
        let offsets = rng
            .sample_indices(span as usize, targets)
            .into_iter()
            .map(|i| i as u32)
            .collect();
        PinSource {
            zipf: ZipfSampler::new(targets, s),
            rng,
            offsets,
            issued: 0,
        }
    }

    /// The next pin: a Zipf-ranked target shifted by `lo` (the oldest
    /// live record), every [`MISS_EVERY`]-th one a miss.
    pub fn next(&mut self, lo: u32) -> Read {
        let rank = self.zipf.sample(&mut self.rng);
        self.next_at(lo + self.offsets[rank])
    }

    /// The next pin aimed at record `target` (miss cadence shared with
    /// [`PinSource::next`]).
    pub fn next_at(&mut self, target: u32) -> Read {
        self.issued += 1;
        Read::Pin {
            target,
            miss: self.issued.is_multiple_of(MISS_EVERY),
        }
    }

    /// The source's own generator, for workload-specific draws.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }
}

/// Poisson arrival offsets in nanoseconds: `count` arrivals at a mean
/// of `per_second`, gaps drawn from `seed`.
pub fn arrival_schedule(seed: u64, per_second: f64, count: usize) -> Vec<u64> {
    let mut rng = SimRng::new(seed ^ 0x4152_5256);
    let mean_gap_ns = 1e9 / per_second;
    let mut at = 0.0f64;
    (0..count)
        .map(|_| {
            // Inverse-CDF exponential gap; 1 − u is in (0, 1].
            at += -mean_gap_ns * (1.0 - rng.gen_f64()).ln();
            at as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pins(seed: u64, n: usize) -> Vec<Read> {
        let mut source = PinSource::new(seed, 5_000);
        (0..n).map(|_| source.next(0)).collect()
    }

    #[test]
    fn seeds_change_the_stream_and_not_the_counts() {
        let scale = Scale::smoke();
        let (a, b) = (pins(1, 2_000), pins(2, 2_000));
        assert_eq!(a, pins(1, 2_000), "same seed, same stream");
        assert_ne!(a, b, "different seeds, different streams");
        assert_eq!(a.len(), b.len());
        let misses = |s: &[Read]| {
            s.iter()
                .filter(|r| matches!(r, Read::Pin { miss: true, .. }))
                .count()
        };
        assert_eq!(misses(&a), misses(&b));
        assert_eq!(misses(&a), 2_000 / MISS_EVERY as usize);

        let (da, db) = (
            Dataset::generate(1, 2_000, 100),
            Dataset::generate(2, 2_000, 100),
        );
        let (ra, mut rb) = (da.replay(1, 500), db.replay(2, 500));
        assert_eq!((da.len(), ra.len()), (db.len(), rb.len()));
        assert_ne!(ra, rb, "the seed orders the arrivals");
        assert_eq!(ra, da.replay(1, 500));
        let mut sorted = ra.clone();
        sorted.sort_unstable();
        rb.sort_unstable();
        assert_eq!(sorted, rb, "and leaves every query's count alone");
        assert_eq!(
            da.keywords(0),
            db.keywords(0),
            "the preloaded corpus is the preset's"
        );
        assert_eq!(da.query(0), db.query(0), "and so is the query pool");
        assert_ne!(
            da.keywords(2_050),
            db.keywords(2_050),
            "inserted records are the seed's"
        );

        let (sa, sb) = (
            arrival_schedule(1, 1_000.0, 300),
            arrival_schedule(2, 1_000.0, 300),
        );
        assert_eq!(sa.len(), sb.len());
        assert_ne!(sa, sb);
        assert!(sa.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(scale.ops(100.0, 1), Scale::smoke().ops(100.0, 1));
    }

    #[test]
    fn misses_match_nothing_and_hits_match_their_target() {
        let data = Dataset::generate(7, 500, 10);
        let hit = Read::Pin {
            target: 3,
            miss: false,
        }
        .request(&data);
        let miss = Read::Pin {
            target: 3,
            miss: true,
        }
        .request(&data);
        assert_eq!(hit, Request::Pin(data.keywords(3).clone()));
        let Request::Pin(set) = miss else {
            panic!("pin")
        };
        assert_eq!(set.len(), data.keywords(3).len() + 1);
        assert!((0..data.len()).all(|g| data.keywords(g) != &set));
    }

    #[test]
    fn the_log_keeps_the_papers_skew() {
        let data = Dataset::generate(11, 4_000, 0);
        assert!((0.59..0.61).contains(&data.top10_share()));
        let replay = data.replay(11, 20_000);
        let top10 = replay.iter().filter(|&&q| q < 10).count() as f64 / 20_000.0;
        assert!((0.59..0.61).contains(&top10), "top-10 share {top10}");
    }
}
