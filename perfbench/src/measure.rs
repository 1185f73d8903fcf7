//! Latency samples, failure accounting, answer digests and spans.
//!
//! One [`Recorder`] follows one phase of a workload. Every call into
//! the system goes through [`Recorder::begin`] / [`Recorder::end`]:
//! the recorder counts it as attempted (and failed, if it was refused),
//! keeps its latency when the timed phase is running, and — in a traced
//! phase — keeps a span for it. Spans live in memory until the run
//! writes them out.

use gupt_core::{Stage, TelemetryReport};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval: a call into a layer, or a stage the runtime
/// reported for it.
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to (all spans of one op share it).
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Attempts and refusals of one op type.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

pub struct Recorder {
    trace: bool,
    origin: Instant,
    /// Whether ops are inside the timed phase (warm-up ops are checked
    /// and digested, but neither timed nor counted).
    pub timing: bool,
    next_op: u64,
    pub spans: Vec<Span>,
    latencies: BTreeMap<&'static str, Vec<u64>>,
    tallies: BTreeMap<&'static str, Tally>,
    /// Per-layer samples (traced phases only).
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// One hash per answered op, in op order, warm-up included.
    pub digest: Vec<u64>,
    /// Sum of `epsilon_spent` over every charging answer, in op order.
    pub epsilon_spent: f64,
    /// Timed ops that charged ε.
    pub charging: u64,
    /// Grouped statements whose reported ε missed the debit by rounding.
    pub rounded: u64,
    /// Values of each released cold query, keyed by [`query_key`], so
    /// a warm replay can be checked against them bit for bit.
    pub released: BTreeMap<String, Vec<u64>>,
    /// Correctness violations, one line each.
    pub violations: Vec<String>,
}

impl Recorder {
    pub fn new(trace: bool) -> Self {
        Recorder {
            trace,
            origin: Instant::now(),
            timing: false,
            next_op: 0,
            spans: Vec::new(),
            latencies: BTreeMap::new(),
            tallies: BTreeMap::new(),
            samples: BTreeMap::new(),
            digest: Vec::new(),
            epsilon_spent: 0.0,
            charging: 0,
            rounded: 0,
            released: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    pub fn tracing(&self) -> bool {
        self.trace
    }

    /// Starts an op: returns its id and start instant.
    pub fn begin(&mut self) -> (u64, Instant) {
        let op = self.next_op;
        self.next_op += 1;
        (op, Instant::now())
    }

    /// Ends an op of type `kind` that ran over `[start, end]`. Returns
    /// the op span's index in a traced phase.
    pub fn end(
        &mut self,
        kind: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
        ok: bool,
    ) -> Option<usize> {
        if self.timing {
            let tally = self.tallies.entry(kind).or_default();
            tally.attempted += 1;
            if ok {
                let ns = end.duration_since(start).as_nanos() as u64;
                self.latencies.entry(kind).or_default().push(ns);
            } else {
                tally.failed += 1;
            }
        }
        self.span(kind, op, None, start, end)
    }

    /// Counts an op that is attempted but not timed (an empty poll).
    pub fn count(&mut self, kind: &'static str) {
        if self.timing {
            self.tallies.entry(kind).or_default().attempted += 1;
        }
    }

    /// Records a span in a traced phase.
    pub fn span(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.trace {
            return None;
        }
        self.spans.push(Span {
            name,
            op,
            parent,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
        });
        Some(self.spans.len() - 1)
    }

    /// Keeps one per-layer sample (traced, timed phases only).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.trace && self.timing {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Turns the runtime's stage durations into child spans of the op
    /// span, laid end to end from the op's start (the report gives
    /// durations, not start times), and keeps them as per-layer samples.
    pub fn stages(
        &mut self,
        parent: Option<usize>,
        op: u64,
        start: Instant,
        report: &TelemetryReport,
    ) {
        if !self.trace {
            return;
        }
        let mut at = start;
        for stage in Stage::ALL {
            let Some(d) = report.stage(stage) else {
                continue;
            };
            self.span(stage_span(stage), op, parent, at, at + d);
            at += d;
            self.sample(stage_metric(stage), d.as_secs_f64() * 1e6);
        }
        self.sample("blocks.views_served", report.blocks.views_served as f64);
        self.sample("chamber.workers", report.blocks.workers as f64);
        self.sample("chamber.utilization", report.blocks.worker_utilization);
        self.sample("chamber.steals", report.parallel.steals as f64);
        let clamp: usize = report.clamp_hits.iter().sum();
        self.sample("aggregator.clamp_hits", clamp as f64);
    }

    /// Folds one answer (its values and reported ε) into the digest.
    pub fn answer(&mut self, tag: u64, values: &[f64], epsilon: f64) {
        let mut h = Fnv::new();
        h.u64(tag);
        for v in values {
            h.u64(v.to_bits());
        }
        h.u64(epsilon.to_bits());
        self.digest.push(h.0);
    }

    /// Checks the ε a charging op reported against the ε it requested
    /// (what the ledger is debited) and adds the request to the total
    /// the ledger must match. The report must equal the request bit for
    /// bit, except for a grouped statement (`shares`), which reports the
    /// float sum of its per-sub-query shares: that sum may miss the
    /// request by rounding (within [`SHARE_ROUNDING`] of it), and each
    /// such answer is counted in `rounded`.
    pub fn charged(&mut self, kind: &str, reported: f64, requested: f64, shares: bool) {
        let exact = reported.to_bits() == requested.to_bits();
        if !exact && shares && (reported - requested).abs() <= SHARE_ROUNDING * requested {
            self.rounded += 1;
        } else if !exact {
            self.violation(format!(
                "{kind} reported ε {reported:?}, requested {requested:?}"
            ));
        }
        self.epsilon_spent += requested;
        if self.timing {
            self.charging += 1;
        }
    }

    pub fn violation(&mut self, message: String) {
        self.violations.push(message);
    }

    /// Checks a warm replay of `key`: its values must equal the cold
    /// answer's bit for bit, and the ledger must not have moved.
    pub fn check_replay(&mut self, key: &str, values: &[f64], spent_before: f64, spent_after: f64) {
        let bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        if self.released.get(key) != Some(&bits) {
            self.violation(format!("warm replay of {key} differs from its cold answer"));
        }
        if spent_after.to_bits() != spent_before.to_bits() {
            self.violation(format!(
                "warm replay of {key} moved the ledger from {spent_before} to {spent_after}"
            ));
        }
    }

    /// Nearest-rank percentile of an op type's latencies, in `unit`
    /// seconds (1e-3 for ms), with the sample count.
    pub fn percentile(&self, kind: &str, pct: f64, unit: f64) -> (f64, usize) {
        let Some(ns) = self.latencies.get(kind) else {
            return (0.0, 0);
        };
        let mut sorted: Vec<f64> = ns.iter().map(|&v| v as f64 * 1e-9 / unit).collect();
        sorted.sort_by(f64::total_cmp);
        (nearest_rank(&sorted, pct), sorted.len())
    }

    /// Median of a per-layer sample, with its count.
    pub fn median(&self, name: &str) -> (f64, usize) {
        match self.samples.get(name) {
            Some(v) => {
                let mut sorted = v.clone();
                sorted.sort_by(f64::total_cmp);
                (nearest_rank(&sorted, 50.0), sorted.len())
            }
            None => (0.0, 0),
        }
    }

    /// Mean of a per-layer sample, with its count.
    pub fn mean(&self, name: &str) -> (f64, usize) {
        match self.samples.get(name) {
            Some(v) if !v.is_empty() => (v.iter().sum::<f64>() / v.len() as f64, v.len()),
            _ => (0.0, 0),
        }
    }

    /// Attempted and failed counts of every op type, in name order.
    pub fn tallies(&self) -> &BTreeMap<&'static str, Tally> {
        &self.tallies
    }

    pub fn totals(&self) -> Tally {
        self.tallies
            .values()
            .fold(Tally::default(), |acc, t| Tally {
                attempted: acc.attempted + t.attempted,
                failed: acc.failed + t.failed,
            })
    }

    /// Median self time (µs) of spans named `name`: each span's length
    /// minus the part of it its child spans cover.
    pub fn self_time_us(&self, name: &str) -> (f64, usize) {
        let mut children: BTreeMap<usize, Vec<(Duration, Duration)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start, s.end));
            }
        }
        let mut selfs: Vec<f64> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in kids {
                let a = a.max(reach).max(s.start);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            selfs.push(s.len().saturating_sub(covered).as_secs_f64() * 1e6);
        }
        selfs.sort_by(f64::total_cmp);
        (nearest_rank(&selfs, 50.0), selfs.len())
    }

    /// The spans as JSON lines (times in µs from the phase start).
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        out
    }
}

/// Relative rounding a grouped statement's share sum may show: a sum
/// of a few hundred shares is off by at most a few hundred ulps
/// (~1e-14), far below the smallest share it could drop (~1e-3).
const SHARE_ROUNDING: f64 = 1e-12;

/// The key a catalog query's released values are kept under.
pub fn query_key(program: &str, range: (f64, f64)) -> String {
    format!(
        "{program}|{:016x}|{:016x}",
        range.0.to_bits(),
        range.1.to_bits()
    )
}

/// Nearest-rank percentile of sorted values; 0 for none.
pub fn nearest_rank(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn stage_span(stage: Stage) -> &'static str {
    match stage {
        Stage::BudgetResolution => "stage.budget_resolution",
        Stage::LedgerCharge => "stage.ledger_charge",
        Stage::BlockPlanning => "stage.block_planning",
        Stage::ChamberExecution => "stage.chamber_execution",
        Stage::RangeResolution => "stage.range_resolution",
        Stage::Aggregation => "stage.aggregation",
    }
}

fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::BudgetResolution => "budget.resolution_us",
        Stage::LedgerCharge => "storage.ledger_charge_us",
        Stage::BlockPlanning => "blocks.planning_us",
        Stage::ChamberExecution => "chamber.execution_us",
        Stage::RangeResolution => "aggregator.range_resolution_us",
        Stage::Aggregation => "aggregator.aggregation_us",
    }
}

/// FNV-1a over 64-bit words: the answer digest.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Timing helper: runs `f` and returns its result with start and end.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Instant, Instant) {
    let start = Instant::now();
    let out = f();
    (out, start, Instant::now())
}
