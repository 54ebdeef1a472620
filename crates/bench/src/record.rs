//! The one bench record: a timer, the record it fills and its writer.
//!
//! `cargo bench --bench hotpath` and `sweep --bench FILE` write every
//! committed `BENCH_*.json`, both through [`Record`]. [`Record::time`] runs
//! a closure once to warm up, then takes samples until a 200 ms budget is
//! spent and at least the record's minimum count is taken. A sample is
//! about 1 ms of back-to-back runs, or one run when a run takes longer.
//! [`Record::time_pair`] times the two sides of a relative floor the same
//! way, alternating their samples within one shared 400 ms budget, so a
//! slowdown of the host moves both medians, not one. Each bench keeps the
//! median and quartiles of its per-run times, so a later measurement can
//! be judged against the spread this one recorded.
//!
//! A record is one line of JSON, fields in this order: `version` (6),
//! `group`, `available_cores`, `threads`, `requested_threads`, `degraded`,
//! `benches` (each `name`, `median_ns`, `p25_ns`, `p75_ns`, `samples`) and
//! `facts`, what the benches measured besides time: sizes, counts, ratios
//! and the outcome of each correctness check.

use std::fmt::Display;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The schema version every record carries.
pub const VERSION: u32 = 6;

/// Wall-clock budget per bench once its warm-up has run.
const BUDGET: Duration = Duration::from_millis(200);

/// What one sample aims to last: enough back-to-back runs of a fast bench
/// that the clock's resolution and the loop around it do not show.
const SAMPLE: Duration = Duration::from_millis(1);

/// One bench being sampled: its closure, the closure's last output, the
/// per-run time the next sample sizes itself by, and its samples so far.
struct Sampler<O, F> {
    run: F,
    out: O,
    per_run: Duration,
    ns: Vec<f64>,
}

impl<O, F: FnMut() -> O> Sampler<O, F> {
    /// Run `run` once to warm up, timing it.
    fn warm(mut run: F) -> Self {
        let start = Instant::now();
        let out = black_box(run());
        Sampler {
            per_run: start.elapsed(),
            run,
            out,
            ns: Vec::new(),
        }
    }

    /// Take one sample: about [`SAMPLE`] of back-to-back runs.
    fn sample(&mut self) {
        let runs = (SAMPLE.as_nanos() / self.per_run.as_nanos().max(1)).clamp(1, 1 << 20);
        let start = Instant::now();
        for _ in 0..runs {
            self.out = black_box((self.run)());
        }
        let took = start.elapsed();
        self.per_run = took / runs as u32;
        self.ns.push(took.as_secs_f64() * 1e9 / runs as f64);
    }
}

/// One timed bench: quartiles of its per-run wall time over `samples`
/// samples.
#[derive(Debug)]
struct Bench {
    name: String,
    median_ns: f64,
    p25_ns: f64,
    p75_ns: f64,
    samples: usize,
}

impl Bench {
    /// The bench `name` from its per-run times in nanoseconds, one per
    /// sample. Quartiles interpolate linearly between the closest ranks.
    fn from_samples(name: impl Into<String>, mut ns: Vec<f64>) -> Bench {
        assert!(!ns.is_empty(), "a bench needs at least one sample");
        ns.sort_by(f64::total_cmp);
        let quantile = |q: f64| {
            let rank = q * (ns.len() - 1) as f64;
            let (low, high) = (ns[rank.floor() as usize], ns[rank.ceil() as usize]);
            low + (high - low) * rank.fract()
        };
        Bench {
            name: name.into(),
            median_ns: quantile(0.5),
            p25_ns: quantile(0.25),
            p75_ns: quantile(0.75),
            samples: ns.len(),
        }
    }
}

/// One `BENCH_<group>.json` record: the machine it was measured on, its
/// benches in timing order, and its facts.
#[derive(Debug)]
pub struct Record {
    group: String,
    available_cores: usize,
    threads: usize,
    requested_threads: usize,
    min_samples: usize,
    /// Sampling budget per bench once its warm-up has run.
    budget: Duration,
    benches: Vec<Bench>,
    facts: Vec<(String, String)>,
}

impl Record {
    /// An empty record for `group`, whose parallel runs asked for
    /// `requested_threads` and whose benches each take at least
    /// `min_samples` samples. More threads than cores cannot buy
    /// parallelism, so the record runs with the request clamped to the
    /// machine's cores, and is degraded when the clamp bit.
    pub fn new(group: impl Into<String>, requested_threads: usize, min_samples: usize) -> Record {
        let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Record {
            group: group.into(),
            available_cores,
            threads: requested_threads.min(available_cores).max(1),
            requested_threads,
            min_samples,
            budget: BUDGET,
            benches: Vec::new(),
            facts: Vec::new(),
        }
    }

    /// The group, which names the record's file `BENCH_<group>.json`.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The threads parallel runs use: the request, clamped to the cores.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the machine had fewer cores than the request.
    pub fn degraded(&self) -> bool {
        self.available_cores < self.requested_threads
    }

    /// Time `run` as the bench `name`, with pool calls capped at the
    /// record's threads: one warm-up run, then samples until the budget is
    /// spent and at least the minimum count is taken. Prints one
    /// `bench <group>/<name>` line and returns the last run's output.
    pub fn time<O>(&mut self, name: impl Into<String>, run: impl FnMut() -> O) -> O {
        let sampler = rayon::with_max_threads(self.threads, || {
            let mut sampler = Sampler::warm(run);
            let start = Instant::now();
            while sampler.ns.len() < self.min_samples || start.elapsed() < self.budget {
                sampler.sample();
            }
            sampler
        });
        self.push(Bench::from_samples(name, sampler.ns));
        sampler.out
    }

    /// Time the two sides of a relative floor, `a` and `b`, as
    /// [`time`](Record::time) times one bench, but with their samples
    /// alternating (`a`, `b`, `a`, `b`, …) within one budget shared by
    /// both: twice one bench's, so each side is sampled for about as long
    /// as alone. A slowdown of the host then lands on both sides, and the
    /// ratio of their medians stays a property of the code. Each side
    /// takes at least the minimum count. Prints both benches' lines.
    pub fn time_pair<A, B>(
        &mut self,
        a: (impl Into<String>, impl FnMut() -> A),
        b: (impl Into<String>, impl FnMut() -> B),
    ) {
        let (sa, sb) = rayon::with_max_threads(self.threads, || {
            let (mut sa, mut sb) = (Sampler::warm(a.1), Sampler::warm(b.1));
            let start = Instant::now();
            while sa.ns.len() < self.min_samples || start.elapsed() < 2 * self.budget {
                sa.sample();
                sb.sample();
            }
            (sa, sb)
        });
        self.push(Bench::from_samples(a.0, sa.ns));
        self.push(Bench::from_samples(b.0, sb.ns));
    }

    /// Print one timed bench's line and keep it.
    fn push(&mut self, bench: Bench) {
        let at = |ns: f64| Duration::from_nanos(ns as u64);
        println!(
            "bench {}/{}: median {:?} (p25 {:?}, p75 {:?}) over {} samples",
            self.group,
            bench.name,
            at(bench.median_ns),
            at(bench.p25_ns),
            at(bench.p75_ns),
            bench.samples
        );
        self.benches.push(bench);
    }

    /// The median of the bench `name`. Panics if no bench of that name was
    /// timed, which is a bug in the caller.
    pub fn median_ns(&self, name: &str) -> f64 {
        self.benches
            .iter()
            .find(|bench| bench.name == name)
            .unwrap_or_else(|| panic!("no bench {name} in {}", self.group))
            .median_ns
    }

    /// Record the fact `key`, written as the JSON value `value` (a number,
    /// `true`/`false`, or a quoted string).
    pub fn fact(&mut self, key: &str, value: impl Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The record as one line of JSON, without the newline.
    pub fn to_json(&self) -> String {
        let benches: Vec<String> = self
            .benches
            .iter()
            .map(|b| {
                format!(
                    "{{\"name\":\"{}\",\"median_ns\":{:.1},\"p25_ns\":{:.1},\
                     \"p75_ns\":{:.1},\"samples\":{}}}",
                    b.name, b.median_ns, b.p25_ns, b.p75_ns, b.samples
                )
            })
            .collect();
        let facts: Vec<String> = self
            .facts
            .iter()
            .map(|(key, value)| format!("\"{key}\":{value}"))
            .collect();
        format!(
            "{{\"version\":{VERSION},\"group\":\"{}\",\"available_cores\":{},\"threads\":{},\
             \"requested_threads\":{},\"degraded\":{},\"benches\":[{}],\"facts\":{{{}}}}}",
            self.group,
            self.available_cores,
            self.threads,
            self.requested_threads,
            self.degraded(),
            benches.join(","),
            facts.join(",")
        )
    }

    /// Refuse to replace the non-degraded record at `path` with this one
    /// when this one is degraded: a degraded measurement describes the
    /// machine, not the code. Delete the file first to replace it.
    pub fn check_overwrite(&self, path: &Path) -> Result<(), String> {
        let old = std::fs::read_to_string(path).unwrap_or_default();
        if self.degraded() && old.contains("\"degraded\":false") {
            return Err(format!(
                "degraded-overwrite refusal: {} holds a non-degraded record and this \
                 measurement is degraded ({} core(s) for {} requested thread(s)); delete \
                 the file first to replace it",
                path.display(),
                self.available_cores,
                self.requested_threads
            ));
        }
        Ok(())
    }

    /// Write the record as one line to `path`, under
    /// [`Record::check_overwrite`]'s rule.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        self.check_overwrite(path)?;
        std::fs::write(path, self.to_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quartiles(ns: &[f64]) -> (f64, f64, f64) {
        let bench = Bench::from_samples("b", ns.to_vec());
        assert_eq!(bench.samples, ns.len());
        (bench.p25_ns, bench.median_ns, bench.p75_ns)
    }

    #[test]
    fn quartiles_of_odd_even_and_single_samples() {
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.75, 2.5, 3.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn a_written_record_parses_in_field_order() {
        let mut record = Record::new("g", 1, 3);
        record.time("sum", || (0..100u64).sum::<u64>());
        record.fact("ok", true);
        record.fact("name", "\"x\"");
        let path = std::env::temp_dir().join(format!("bench-record-{}.json", std::process::id()));
        record.write(&path).expect("the record writes");
        let text = std::fs::read_to_string(&path).expect("the record reads back");
        std::fs::remove_file(&path).expect("the record is removed");
        assert!(text.ends_with("}\n") && text.lines().count() == 1, "{text}");
        let serde::json::Value::Object(fields) = serde::json::parse(&text).expect("JSON") else {
            panic!("not an object: {text}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(
            keys,
            [
                "version",
                "group",
                "available_cores",
                "threads",
                "requested_threads",
                "degraded",
                "benches",
                "facts"
            ]
        );
        let serde::json::Value::Array(benches) = &fields[6].1 else {
            panic!("benches is not an array: {text}");
        };
        let serde::json::Value::Object(bench) = &benches[0] else {
            panic!("a bench is not an object: {text}");
        };
        let keys: Vec<&str> = bench.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["name", "median_ns", "p25_ns", "p75_ns", "samples"]);
        assert!(
            text.contains("\"samples\":")
                && text.contains("\"facts\":{\"ok\":true,\"name\":\"x\"}")
        );
        let bench = &record.benches[0];
        assert!(
            bench.samples >= 3
                && bench.p25_ns <= bench.median_ns
                && bench.median_ns <= bench.p75_ns
        );
    }

    #[test]
    fn a_pair_alternates_its_samples_and_takes_the_minimum_on_each_side() {
        // Each side logs a letter when it follows the other, so the log
        // holds one letter per sample (and per warm-up), however many runs
        // a sample takes.
        let log = std::cell::RefCell::new(Vec::new());
        let side = |letter: u8| {
            let log = &log;
            move || {
                let mut log = log.borrow_mut();
                if log.last() != Some(&letter) {
                    log.push(letter);
                }
            }
        };
        let mut record = Record::new("g", 1, 7);
        // No budget: the minimum count alone ends the sampling.
        record.budget = Duration::ZERO;
        record.time_pair(("a", side(b'a')), ("b", side(b'b')));
        assert_eq!(*log.borrow(), b"ab".repeat(1 + 7));
        let samples: Vec<(&str, usize)> = record
            .benches
            .iter()
            .map(|b| (b.name.as_str(), b.samples))
            .collect();
        assert_eq!(samples, [("a", 7), ("b", 7)]);

        // With a budget, both sides keep alternating until it is spent.
        log.borrow_mut().clear();
        let mut record = Record::new("g", 1, 3);
        record.budget = Duration::from_millis(5);
        record.time_pair(("a", side(b'a')), ("b", side(b'b')));
        let log = log.borrow();
        let (a, b) = (&record.benches[0], &record.benches[1]);
        assert!(a.samples >= 3 && a.samples == b.samples, "{a:?} {b:?}");
        assert_eq!(*log, b"ab".repeat(1 + a.samples));
    }

    #[test]
    fn a_degraded_record_replaces_only_a_degraded_file() {
        let path = std::env::temp_dir().join(format!("bench-degraded-{}.json", std::process::id()));
        let healthy = Record::new("g", 1, 1);
        let degraded = Record::new("g", healthy.available_cores + 1, 1);
        assert!(degraded.degraded() && !healthy.degraded());
        healthy.write(&path).expect("a fresh file writes");
        let refusal = degraded
            .write(&path)
            .expect_err("a degraded record is refused");
        assert!(refusal.contains("degraded-overwrite refusal"), "{refusal}");
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .contains("\"degraded\":false"));
        std::fs::remove_file(&path).expect("the record is removed");
        degraded
            .write(&path)
            .expect("a degraded record writes where none is");
        degraded
            .write(&path)
            .expect("a degraded record replaces a degraded one");
        healthy
            .write(&path)
            .expect("a healthy record replaces a degraded one");
        std::fs::remove_file(&path).expect("the record is removed");
    }
}
