//! Run bookkeeping: latency samples, per-operation attempt/failure counts,
//! check failures, and the metric list printed at the end.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 100]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Latency samples of one operation type, in µs.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn pct(&self, p: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }
}

/// Accumulates the time spent inside timed calls only, so bookkeeping
/// between them (oracle updates, clones) stays out of the total.
#[derive(Debug, Default)]
pub struct Stopwatch(Duration);

impl Stopwatch {
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        self.0 += t.elapsed();
        out
    }

    pub fn secs(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// Attempted and failed operations per operation type, plus answers that
/// failed a check.
#[derive(Debug, Default)]
pub struct Ledger {
    ops: BTreeMap<&'static str, (u64, u64)>,
    check_failures: u64,
    first_failures: Vec<String>,
}

impl Ledger {
    /// Counts one attempt of `op`; an `Err` also counts as a failure.
    pub fn record<T, E: std::fmt::Display>(
        &mut self,
        op: &'static str,
        r: Result<T, E>,
    ) -> Option<T> {
        let e = self.ops.entry(op).or_default();
        e.0 += 1;
        match r {
            Ok(v) => Some(v),
            Err(err) => {
                e.1 += 1;
                self.note(format!("{op} failed: {err}"));
                None
            }
        }
    }

    /// Counts a failure of an operation already attempted (a degraded
    /// serving path).
    pub fn fail(&mut self, op: &'static str, why: String) {
        self.ops.entry(op).or_default().1 += 1;
        self.note(why);
    }

    /// Records an answer that failed a correctness check.
    pub fn check(&mut self, ok: Result<(), String>, what: impl FnOnce() -> String) {
        if let Err(e) = ok {
            self.check_failures += 1;
            self.note(format!("{}: {e}", what()));
        }
    }

    fn note(&mut self, msg: String) {
        if self.first_failures.len() < 20 {
            eprintln!("perfbench: {msg}");
            self.first_failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures == 0
    }

    pub fn totals(&self) -> (u64, u64) {
        self.ops.values().fold((0, 0), |(a, f), &(oa, of)| (a + oa, f + of))
    }

    pub fn print(&self) {
        for (op, (a, f)) in &self.ops {
            println!("# ops {op}: attempted={a} failed={f}");
        }
        println!("# checks failed={}", self.check_failures);
    }
}

/// Metric values by name; units come from the metric tables in `main`.
pub type Values = BTreeMap<&'static str, f64>;
