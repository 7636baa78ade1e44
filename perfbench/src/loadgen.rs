//! The read mix and the closed-loop generator that drives it.
//!
//! The mix is built from a snapshot's own lists and the workload seed:
//! Zipf-distributed `/v1/rank` targets over the monthly lists (most land in
//! the 1,024-entry hot cache, a tail misses it), a few absent-domain ranks,
//! `/v1/movement`, and `/v1/compare` over a key space about twice the
//! 256-entry compare cache. One generator thread keeps one request in flight
//! on one connection and sends the next only after the reply.
//!
//! The shares (57% rank, 3% absent rank, 10% movement, 30% compare) and the
//! Zipf exponent are assumptions, not a measured usage profile: nothing
//! published describes how a top-list query API is used. They are chosen so
//! every serving path shows in the end-to-end figures; the benchmark's
//! README gives the reasoning.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use topple_lists::ListSource;
use topple_serve::query::list_url_name;
use topple_serve::QuerySnapshot;

use crate::http::{self, Conn};
use crate::procfs;
use crate::stats::Latencies;

/// Compare depths; with the 42 ordered list pairs they make 504 keys,
/// about twice the compare cache.
const COMPARE_K: [usize; 12] = [
    10, 20, 50, 100, 200, 500, 1000, 2000, 3000, 5000, 7500, 10_000,
];
/// Zipf exponent of rank and movement targets.
const ZIPF_S: f64 = 1.0;

/// What a read asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// `/v1/rank/{list}/{domain}` (absent domains included).
    Rank(ListSource, String),
    /// `/v1/movement/{domain}`.
    Movement(String),
    /// `/v1/compare?a=..&b=..&k=..`.
    Compare(ListSource, ListSource, usize),
}

impl Query {
    /// The request path.
    pub fn path(&self) -> String {
        match self {
            Query::Rank(l, d) => format!("/v1/rank/{}/{d}", list_url_name(*l)),
            Query::Movement(d) => format!("/v1/movement/{d}"),
            Query::Compare(a, b, k) => format!(
                "/v1/compare?a={}&b={}&k={k}",
                list_url_name(*a),
                list_url_name(*b)
            ),
        }
    }

    /// The body the query layer renders for this read, uncached.
    pub fn render(&self, qs: &QuerySnapshot) -> String {
        match self {
            Query::Rank(l, d) => qs.rank(list_url_name(*l), d).body,
            Query::Movement(d) => qs.movement(d).body,
            Query::Compare(a, b, k) => qs.compare_body(*a, *b, *k),
        }
    }
}

/// One read of the mix with its pre-built request bytes.
pub struct Read {
    /// What is asked.
    pub query: Query,
    /// `GET` bytes for the path.
    pub request: Vec<u8>,
}

/// SplitMix64: a small, seedable generator for the benchmark's own inputs.
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

/// Zipf sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += (r as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Builds `n` reads of the mix over `qs`'s monthly lists.
pub fn build_mix(qs: &QuerySnapshot, seed: u64, n: usize) -> Vec<Read> {
    let index = &qs.snapshot().index;
    let table = index.table();
    let lists: Vec<(ListSource, Vec<String>)> = ListSource::ALL
        .iter()
        .map(|&s| {
            let names = index
                .monthly(s)
                .ids
                .iter()
                .map(|&id| table.name(id).as_str().to_owned())
                .collect();
            (s, names)
        })
        .filter(|(_, names): &(ListSource, Vec<String>)| !names.is_empty())
        .collect();
    let zipfs: Vec<Zipf> = lists
        .iter()
        .map(|(_, names)| Zipf::new(names.len(), ZIPF_S))
        .collect();
    let mut rng = SplitMix::new(seed ^ 0x05EE_D0F1_2EAD);
    (0..n)
        .map(|_| {
            let dice = rng.below(100);
            let li = rng.below(lists.len());
            let (source, names) = &lists[li];
            let query = if dice < 57 {
                Query::Rank(*source, names[zipfs[li].sample(&mut rng)].clone())
            } else if dice < 60 {
                let absent = format!("zz-absent-{:x}.com", rng.next_u64() >> 16);
                Query::Rank(*source, absent)
            } else if dice < 70 {
                Query::Movement(names[zipfs[li].sample(&mut rng)].clone())
            } else {
                let a = rng.below(ListSource::ALL.len());
                let b = (a + 1 + rng.below(ListSource::ALL.len() - 1)) % ListSource::ALL.len();
                let k = COMPARE_K[rng.below(COMPARE_K.len())];
                Query::Compare(ListSource::ALL[a], ListSource::ALL[b], k)
            };
            let request = http::get(&query.path());
            Read { query, request }
        })
        .collect()
}

/// The generation a response body was served by. The body must name
/// `base_id` itself (generation 0) or a hot-swapped successor of it: same
/// format version and seed, with a `-gN` suffix. A rebuilt snapshot has its
/// own checksum, so that part of the id is not compared for successors.
pub fn generation_of(body: &[u8], base_id: &str) -> Option<u64> {
    let rest = body.strip_prefix(b"{\"snapshot\":\"")?;
    let end = rest.iter().position(|&b| b == b'"')?;
    let id = std::str::from_utf8(&rest[..end]).ok()?;
    if id == base_id {
        return Some(0);
    }
    let parts: Vec<&str> = id.split('-').collect();
    let base: Vec<&str> = base_id.split('-').collect();
    let successor = parts.len() == 5
        && base.len() == 4
        && parts[0] == base[0]
        && parts[1] == base[1]
        && parts[3] == base[3];
    let digits = parts.get(4)?.strip_prefix('g')?;
    if !successor || digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok().filter(|&g| g > 0)
}

/// Shared record of when each live generation was first seen by a read,
/// in nanoseconds since the phase origin (0 = not yet).
pub struct FirstSeen {
    slots: Vec<AtomicU64>,
}

impl FirstSeen {
    /// Room for generations `0..n`.
    pub fn new(n: usize) -> FirstSeen {
        FirstSeen {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn note(&self, generation: u64, at_ns: u64) {
        if let Some(slot) = self.slots.get(generation as usize) {
            let _ = slot.compare_exchange(0, at_ns.max(1), Ordering::AcqRel, Ordering::Acquire);
        }
    }

    /// When `generation` was first served, if it has been.
    pub fn get(&self, generation: u64) -> Option<u64> {
        let v = self.slots.get(generation as usize)?.load(Ordering::Acquire);
        (v != 0).then_some(v)
    }
}

/// What the generator observed.
#[derive(Default)]
pub struct LoadReport {
    /// Send-to-last-body-byte latency of every read, in send order.
    pub latency: Latencies,
    /// Index into `latency` where each [`WINDOW`] of the phase ends.
    pub windows: Vec<usize>,
    /// How late each read was sent after its due time.
    pub lateness: Latencies,
    /// Reads sent.
    pub attempted: u64,
    /// Reads with a transport error, a non-200 status, or a body not naming
    /// the served snapshot.
    pub failed: u64,
    /// CPU seconds the generator thread itself used.
    pub cpu_s: f64,
    /// Highest generation any read was served by.
    pub max_generation: u64,
    /// `(mix index, body)` of every kept response.
    pub samples: Vec<(usize, Vec<u8>)>,
}

impl LoadReport {
    /// Appends a later phase's report, as if the two were one phase with a
    /// pause between them.
    pub fn append(&mut self, later: LoadReport) {
        let offset = self.latency.len();
        self.windows
            .extend(later.windows.iter().map(|&end| end + offset));
        self.latency.append(&later.latency);
        self.lateness.append(&later.lateness);
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.cpu_s += later.cpu_s;
        self.max_generation = self.max_generation.max(later.max_generation);
        self.samples.extend(later.samples);
    }
}

/// Length of the windows read percentiles are taken over.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Runs closed-loop reads of `mix` on one keep-alive connection from the
/// calling thread until `stop()` is true: each read is sent only after the
/// previous reply, and no earlier than one `period` after the previous
/// read was due. Each body must name `base_id`; `seen` records
/// when each generation was first served, timed from `origin`. Every
/// `sample_every`-th body is kept (0 keeps none). A broken connection ends
/// the loop.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    addr: SocketAddr,
    mix: &[Read],
    base_id: &str,
    origin: Instant,
    seen: &FirstSeen,
    sample_every: usize,
    period: Duration,
    stop: &dyn Fn() -> bool,
) -> LoadReport {
    let cpu0 = procfs::thread_cpu_s();
    let mut report = LoadReport {
        latency: Latencies::with_capacity(1 << 20),
        lateness: Latencies::with_capacity(1 << 20),
        ..LoadReport::default()
    };
    let Ok(mut conn) = Conn::connect(addr) else {
        report.attempted = 1;
        report.failed = 1;
        return report;
    };
    let start = Instant::now();
    let mut window_end = start + WINDOW;
    let mut due = start;
    let mut which = 0usize;
    while !stop() {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        report
            .lateness
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        report.attempted += 1;
        let read = &mix[which % mix.len()];
        let replied = conn.send(&read.request).and_then(|()| conn.recv());
        let done = Instant::now();
        let generation = match replied {
            Ok((200, body)) => generation_of(body, base_id).inspect(|_| {
                if sample_every > 0 && which.is_multiple_of(sample_every) {
                    report.samples.push((which, body.to_vec()));
                }
            }),
            _ => None,
        };
        let Some(g) = generation else {
            report.failed += 1;
            break;
        };
        if done >= window_end {
            report.windows.push(report.latency.len());
            window_end += WINDOW;
        }
        report.latency.push((done - sent).as_nanos() as u64);
        seen.note(g, (done - origin).as_nanos() as u64);
        report.max_generation = report.max_generation.max(g);
        due += period;
        which += 1;
    }
    report.windows.push(report.latency.len());
    report.cpu_s = procfs::thread_cpu_s() - cpu0;
    report
}

/// The first unsigned integer after `"key":` in a JSON text.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let digits: String = text[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The unsigned integers of the array after `"key":[` in a JSON text.
pub fn json_u64_array(text: &str, key: &str) -> Option<Vec<u64>> {
    let pat = format!("\"{key}\":[");
    let at = text.find(&pat)? + pat.len();
    let end = at + text[at..].find(']')?;
    text[at..end]
        .split(',')
        .map(|v| v.trim().parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_read_from_the_snapshot_field() {
        let base = "tpls-v1-0000abcd-s7";
        let gen = |id: &str| {
            generation_of(
                format!("{{\"snapshot\":\"{id}\",\"x\":1}}").as_bytes(),
                base,
            )
        };
        assert_eq!(gen("tpls-v1-0000abcd-s7"), Some(0));
        assert_eq!(gen("tpls-v1-0000abcd-s7-g12"), Some(12));
        // A rebuilt successor carries its own checksum.
        assert_eq!(gen("tpls-v1-99990000-s7-g3"), Some(3));
        assert_eq!(gen("tpls-v1-ffff0000-s7"), None);
        assert_eq!(gen("tpls-v1-0000abcd-s8-g3"), None);
        assert_eq!(gen("tpls-v2-0000abcd-s7-g3"), None);
        assert_eq!(gen("tpls-v1-0000abcd-s7-g"), None);
        assert_eq!(gen("tpls-v1-0000abcd-s7-g0"), None);
        assert_eq!(gen("tpls-v1-0000abcd-s7-gx1"), None);
        assert_eq!(generation_of(b"{\"error\":\"x\"}", base), None);
    }

    #[test]
    fn appended_reports_keep_window_ends_aligned() {
        let phase = |ns: &[u64], windows: Vec<usize>| {
            let mut r = LoadReport {
                windows,
                attempted: ns.len() as u64,
                cpu_s: 0.5,
                ..LoadReport::default()
            };
            for &n in ns {
                r.latency.push(n);
            }
            r
        };
        let mut a = phase(&[1, 2, 3], vec![2, 3]);
        a.append(phase(&[4, 5], vec![1, 2]));
        assert_eq!(a.windows, vec![2, 3, 4, 5]);
        assert_eq!(a.latency.len(), 5);
        assert_eq!(a.attempted, 5);
        assert_eq!(a.cpu_s, 1.0);
        // Windows never span the pause: [1,2] [3] [4] [5].
        let max_median = a.latency.windowed(&a.windows, 100.0, 1).unwrap();
        assert!((max_median - 3.5e-6).abs() < 1e-12, "{max_median}");
    }

    #[test]
    fn first_seen_keeps_the_earliest_time() {
        let seen = FirstSeen::new(3);
        assert_eq!(seen.get(1), None);
        seen.note(1, 50);
        seen.note(1, 40);
        assert_eq!(seen.get(1), Some(50));
        seen.note(9, 1); // out of range is ignored
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = SplitMix::new(3);
        let draws: Vec<usize> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 1000));
        let top10 = draws.iter().filter(|&&r| r < 10).count();
        let last500 = draws.iter().filter(|&&r| r >= 500).count();
        assert!(top10 > last500, "{top10} vs {last500}");
    }

    #[test]
    fn splitmix_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = SplitMix::new(1);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(SplitMix::new(2).next_u64(), a[0]);
    }

    #[test]
    fn metrics_json_fields_parse() {
        let m = "{\"requests\":{\"rank\":10,\"compare\":4},\"compare_cache_hits\":3,\
                 \"event_loop\":{\"epoll_wakeups\":9,\"pipelined_per_flush\":[5, 2,0]},\
                 \"hot_cache\":{\"hits\":8,\"misses\":2}}";
        assert_eq!(json_u64(m, "compare"), Some(4));
        assert_eq!(json_u64(m, "compare_cache_hits"), Some(3));
        assert_eq!(json_u64(m, "hits"), Some(8));
        assert_eq!(
            json_u64_array(m, "pipelined_per_flush"),
            Some(vec![5, 2, 0])
        );
        assert_eq!(json_u64(m, "absent"), None);
    }
}
