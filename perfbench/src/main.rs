//! The repository benchmark: one seeded, closed-loop workload per run,
//! end-to-end metrics untraced, per-layer metrics from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload query_inproc --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload once and prints the end-to-end
//! metrics. `--trace 1` runs it untraced and then traced at the same
//! seed, checks that both gave the same answers, writes the traced
//! spans to `.perfbench/trace-<workload>-<seed>.jsonl`, and prints the
//! per-layer metrics, including the tracing overhead. Every line before
//! the last is for people; the last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any correctness
//! violation is printed to stderr and makes the exit code 1.

mod gen;
mod ingest;
mod inproc;
mod measure;
mod mix;
mod probes;
mod system;
mod tcp;

use measure::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// One run's settings.
pub struct Config {
    pub seed: u64,
    pub seconds: Duration,
    /// Scratch state (ledger directories) for this run, removed at exit.
    pub state: PathBuf,
}

/// One measured figure (its unit is fixed by [`END_TO_END`] or
/// [`PER_LAYER`]).
pub struct Metric {
    pub value: f64,
    pub samples: usize,
}

pub type Metrics = BTreeMap<&'static str, Metric>;

pub fn put(m: &mut Metrics, name: &'static str, value: f64, samples: usize) {
    m.insert(name, Metric { value, samples });
}

/// What one phase of a workload leaves behind.
pub struct Phase {
    pub rec: Recorder,
    /// Length of the timed phase (s).
    pub elapsed: f64,
    /// Each set-up's duration (s).
    pub setup_s: Vec<f64>,
    /// Workload-specific per-layer figures.
    pub layer: Metrics,
}

const WORKLOADS: [&str; 3] = ["query_inproc", "query_tcp", "ingest_stream"];

/// The end-to-end metrics and their units, printed by every workload
/// with `--trace 0`: the figures every workload measures that repeat
/// from run to run.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("query_cold_p50_ms", "ms"),
    ("query_warm_p50_us", "us"),
    ("sql_p50_ms", "ms"),
];

/// Figures a user sees that are not end-to-end metrics: peak memory
/// and tail latencies, which do not repeat within a tenth, and ops only
/// some workloads run. They lead [`PER_LAYER`], and an untraced run
/// prints them too, below the end-to-end metrics.
const OP_FIGURES: usize = 14;

/// The per-layer metrics and their units, printed by every workload
/// with `--trace 1`; a layer a workload does not reach reads 0 with 0
/// samples.
const PER_LAYER: [(&str, &str); 59] = [
    ("peak_rss_mb", "MiB"),
    ("query_cold_p90_ms", "ms"),
    ("query_warm_p90_us", "us"),
    ("sql_p90_ms", "ms"),
    ("query_cold_p99_ms", "ms"),
    ("query_warm_p99_us", "us"),
    ("sql_p99_ms", "ms"),
    ("sql_grouped_p50_ms", "ms"),
    ("sql_grouped_p90_ms", "ms"),
    ("sql_grouped_wide_p50_ms", "ms"),
    ("append_p50_ms", "ms"),
    ("append_p99_ms", "ms"),
    ("poll_p50_ms", "ms"),
    ("poll_p99_ms", "ms"),
    ("sql.lex_us", "us"),
    ("sql.parse_us", "us"),
    ("sql.plan_us", "us"),
    ("sql.subqueries_per_stmt", "count"),
    ("sql.epsilon_rounded", "count"),
    ("cache.fingerprint_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("storage.ledger_charge_us", "us"),
    ("storage.append_us", "us"),
    ("storage.records_per_op", "count"),
    ("storage.fsyncs_per_op", "count"),
    ("storage.rotations", "count"),
    ("storage.compactions", "count"),
    ("blocks.planning_us", "us"),
    ("blocks.views_served", "count"),
    ("blocks.index_bytes", "bytes"),
    ("chamber.execution_us", "us"),
    ("chamber.program_us", "us"),
    ("chamber.workers", "count"),
    ("chamber.utilization", "ratio"),
    ("chamber.steals", "count"),
    ("aggregator.range_resolution_us", "us"),
    ("aggregator.aggregation_us", "us"),
    ("aggregator.clamp_hits", "count"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.stats_us", "us"),
    ("ingest.bytes_materialized_per_row", "bytes"),
    ("ingest.first_query_after_append_ms", "ms"),
    ("ingest.lag_ms", "ms"),
    ("stream.windows_closed", "count"),
    ("stream.windows_replayed", "count"),
    ("stream.empty_polls", "count"),
    ("stream.epsilon_per_window", "epsilon"),
    ("self.query_cold_us", "us"),
    ("self.query_warm_us", "us"),
    ("self.sql_us", "us"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.digest_ops", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes an integer")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds takes a positive integer")?,
        trace: trace.unwrap_or(false),
    })
}

/// Runs one phase in state directories of its own, so a traced phase
/// starts from a fresh ledger just like the untraced one.
fn run_phase(workload: &str, cfg: &Config, trace: bool) -> Phase {
    let cfg = Config {
        seed: cfg.seed,
        seconds: cfg.seconds,
        state: cfg.state.join(if trace { "traced" } else { "untraced" }),
    };
    match workload {
        "query_inproc" => inproc::phase(&cfg, trace),
        "query_tcp" => tcp::phase(&cfg, trace),
        _ => ingest::phase(&cfg, trace),
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Latency percentiles of every op type, and the other figures every
/// workload derives from its recorder.
fn derive(phase: &Phase) -> Metrics {
    let rec = &phase.rec;
    let mut m = Metrics::new();
    let mut setup = phase.setup_s.clone();
    setup.sort_by(f64::total_cmp);
    put(
        &mut m,
        "setup_s",
        measure::nearest_rank(&setup, 50.0),
        setup.len(),
    );
    let totals = rec.totals();
    let done = totals.attempted - totals.failed;
    put(
        &mut m,
        "ops_per_s",
        done as f64 / phase.elapsed,
        done as usize,
    );
    for (name, kind, pct, scale) in [
        ("query_cold_p50_ms", "query_cold", 50.0, 1e-3),
        ("query_cold_p90_ms", "query_cold", 90.0, 1e-3),
        ("query_cold_p99_ms", "query_cold", 99.0, 1e-3),
        ("query_warm_p50_us", "query_warm", 50.0, 1e-6),
        ("query_warm_p90_us", "query_warm", 90.0, 1e-6),
        ("query_warm_p99_us", "query_warm", 99.0, 1e-6),
        ("sql_p50_ms", "sql", 50.0, 1e-3),
        ("sql_p90_ms", "sql", 90.0, 1e-3),
        ("sql_p99_ms", "sql", 99.0, 1e-3),
        ("sql_grouped_p50_ms", "sql_grouped", 50.0, 1e-3),
        ("sql_grouped_p90_ms", "sql_grouped", 90.0, 1e-3),
        ("sql_grouped_wide_p50_ms", "sql_grouped_wide", 50.0, 1e-3),
        ("append_p50_ms", "append", 50.0, 1e-3),
        ("append_p99_ms", "append", 99.0, 1e-3),
        ("poll_p50_ms", "poll", 50.0, 1e-3),
        ("poll_p99_ms", "poll", 99.0, 1e-3),
    ] {
        let (v, n) = rec.percentile(kind, pct, scale);
        if n > 0 {
            put(&mut m, name, v, n);
        }
    }
    for name in [
        "sql.lex_us",
        "sql.parse_us",
        "sql.plan_us",
        "cache.fingerprint_us",
        "storage.ledger_charge_us",
        "blocks.planning_us",
        "chamber.execution_us",
        "aggregator.range_resolution_us",
        "aggregator.aggregation_us",
        "serve.encode_us",
        "serve.decode_us",
        "ingest.first_query_after_append_ms",
        "ingest.lag_ms",
    ] {
        let (v, n) = rec.median(name);
        if n > 0 {
            put(&mut m, name, v, n);
        }
    }
    for name in [
        "sql.subqueries_per_stmt",
        "cache.hit_ratio",
        "blocks.views_served",
        "chamber.workers",
        "chamber.utilization",
        "chamber.steals",
        "aggregator.clamp_hits",
        "ingest.bytes_materialized_per_row",
    ] {
        let (v, n) = rec.mean(name);
        if n > 0 {
            put(&mut m, name, v, n);
        }
    }
    for (name, span) in [
        ("self.query_cold_us", "query_cold"),
        ("self.query_warm_us", "query_warm"),
        ("self.sql_us", "sql"),
    ] {
        let (v, n) = rec.self_time_us(span);
        if n > 0 {
            put(&mut m, name, v, n);
        }
    }
    if let Some(t) = rec.tallies().get("poll_empty") {
        put(
            &mut m,
            "stream.empty_polls",
            t.attempted as f64,
            t.attempted as usize,
        );
    }
    put(
        &mut m,
        "sql.epsilon_rounded",
        rec.rounded as f64,
        rec.rounded as usize,
    );
    put(
        &mut m,
        "trace.spans",
        rec.spans.len() as f64,
        rec.spans.len(),
    );
    m
}

/// How much slower the traced phase's ops were: each op type's median
/// latency, weighted by how often the untraced phase ran it, traced
/// over untraced, as a percentage.
fn tracing_overhead_pct(untraced: &Recorder, traced: &Recorder) -> f64 {
    let (mut a, mut b) = (0.0, 0.0);
    for (kind, t) in untraced.tallies() {
        let (pa, na) = untraced.percentile(kind, 50.0, 1.0);
        let (pb, nb) = traced.percentile(kind, 50.0, 1.0);
        if na > 0 && nb > 0 {
            a += t.attempted as f64 * pa;
            b += t.attempted as f64 * pb;
        }
    }
    (b / a - 1.0) * 100.0
}

/// The percentile a metric name asks for, if it is a tail.
fn tail_pct(name: &str) -> Option<f64> {
    ["p90", "p99"]
        .iter()
        .find(|p| name.contains(&format!("_{p}_")))
        .map(|p| p[1..].parse().expect("two digits"))
}

/// Prints each named metric with its unit and sample count, and
/// returns its JSON member for the result line.
fn report(names: &[(&'static str, &'static str)], metrics: &Metrics) -> Vec<String> {
    let mut json = Vec::new();
    for &(name, unit) in names {
        let (value, samples) = match metrics.get(name) {
            Some(m) if m.value.is_finite() => (m.value, m.samples),
            _ => (0.0, 0),
        };
        let note = match tail_pct(name) {
            Some(p) if samples > 0 => {
                let beyond = samples - ((p / 100.0) * samples as f64).ceil() as usize;
                format!(", {beyond} beyond")
            }
            _ if samples == 0 => ", not reached by this workload".to_string(),
            _ => String::new(),
        };
        println!("  {name:<36} {value:>14.6} {unit:<6} (n={samples}{note})");
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    json
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(".perfbench");
    let cfg = Config {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        state: out.join(format!("state-{}-{}", args.workload, std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.state) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.state.display());
        return ExitCode::from(2);
    }
    println!(
        "perfbench {} seed={} seconds={} trace={} parallelism={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );

    let untraced = run_phase(&args.workload, &cfg, false);
    let rss = peak_rss_mb();
    let mut violations = untraced.rec.violations.clone();
    let (names, phase, mut metrics): (&[(&'static str, &'static str)], &Phase, Metrics);
    let traced;
    if args.trace {
        traced = run_phase(&args.workload, &cfg, true);
        violations.extend(traced.rec.violations.iter().map(|v| format!("traced: {v}")));
        let (a, b) = (&untraced.rec.digest, &traced.rec.digest);
        let common = a.len().min(b.len());
        if let Some(i) = (0..common).find(|&i| a[i] != b[i]) {
            violations.push(format!(
                "traced answer {i} differs from the untraced one at the same seed"
            ));
        }
        metrics = derive(&traced);
        for (k, v) in &traced.layer {
            put(&mut metrics, k, v.value, v.samples);
        }
        let overhead = tracing_overhead_pct(&untraced.rec, &traced.rec);
        put(
            &mut metrics,
            "trace.overhead_pct",
            overhead,
            traced.rec.totals().attempted as usize,
        );
        put(&mut metrics, "trace.digest_ops", common as f64, common);
        let path = out.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, traced.rec.spans_jsonl()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        } else {
            println!(
                "spans: {} written to {}",
                traced.rec.spans.len(),
                path.display()
            );
        }
        names = &PER_LAYER;
        phase = &traced;
    } else {
        metrics = derive(&untraced);
        names = &END_TO_END;
        phase = &untraced;
    }
    put(&mut metrics, "peak_rss_mb", rss, 1);
    let _ = std::fs::remove_dir_all(&cfg.state);

    println!("ops (timed phase, {:.3} s):", phase.elapsed);
    for (kind, t) in phase.rec.tallies() {
        println!("  {kind:<20} {} of {} failed", t.failed, t.attempted);
    }
    println!("metrics:");
    let json = report(names, &metrics);
    if !args.trace {
        println!("op figures (traced-run metrics, printed here for reference):");
        report(&PER_LAYER[..OP_FIGURES], &metrics);
    }
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    let totals = phase.rec.totals();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        violations.is_empty(),
        totals.attempted,
        totals.failed,
        json.join(", ")
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
