//! `query_tcp`: the `query_inproc` table, ledger and programs, minus
//! the grouped statements, sent as protocol-v4 payloads over one
//! loopback connection to an in-process `GuptServer` with two
//! connection workers. A `stats` request goes out every
//! [`STATS_EVERY`] requests. After the timed phase the executed op
//! sequence is replayed in process on a fresh runtime at the same seed,
//! and every answer must match bit for bit.

use crate::gen::{self, CatalogQuery, COLUMN_RANGES, TABLE_ROWS};
use crate::inproc::{self, storage};
use crate::measure::{query_key, Recorder};
use crate::mix::{Op, QueryMix};
use crate::probes;
use crate::system::{
    build_runtime, check_ledger, ledger_spent, repeat_setup, EPS_QUERY, TABLE, TAG_FAILED,
    TAG_QUERY, TAG_SQL,
};
use crate::{put, Config, Metrics, Phase};
use gupt_core::{GuptRuntime, QueryService, ServiceConfig};
use gupt_serve::json::{self, Value};
use gupt_serve::protocol::{read_frame, write_frame};
use gupt_serve::{stats_payload, GuptServer, QueryPayload, ServeConfig, SqlPayload};
use gupt_sql::DEFAULT_MIN_COUNT;
use std::net::TcpStream;
use std::time::Instant;

/// Warm replays per round (a round also holds 8 cold queries and 8
/// ungrouped statements).
const WARM_PER_ROUND: usize = 32;
/// One `stats` request per this many requests.
const STATS_EVERY: u64 = 64;
/// Server connection workers.
const SERVE_WORKERS: usize = 2;

/// The analyst's one connection.
struct Conn {
    stream: TcpStream,
    requests: u64,
}

impl Conn {
    /// Sends one payload and waits for its response. Spans: the client
    /// encode (`to_json` + `write_frame`), the wait and read of the
    /// response frame, and its decode (`json::parse`). Returns the
    /// response when its status is `ok`.
    fn call(
        &mut self,
        rec: &mut Recorder,
        kind: &'static str,
        payload: impl FnOnce() -> String,
    ) -> Option<Value> {
        self.requests += 1;
        let (op, start) = rec.begin();
        let text = payload();
        let written = write_frame(&mut self.stream, &text);
        let sent = Instant::now();
        let frame = written.and_then(|()| read_frame(&mut self.stream));
        let read = Instant::now();
        let doc = match frame {
            Ok(Some(text)) => json::parse(&text).ok(),
            _ => None,
        };
        let end = Instant::now();
        let ok = doc
            .as_ref()
            .and_then(|d| d.get("status"))
            .and_then(Value::as_str)
            == Some("ok");
        let span = rec.end(kind, op, start, end, ok);
        if rec.tracing() {
            rec.span("serve.encode", op, span, start, sent);
            rec.span("serve.wait_read", op, span, sent, read);
            rec.span("serve.decode", op, span, read, end);
            let us = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e6;
            rec.sample("serve.encode_us", us(start, sent));
            rec.sample("serve.decode_us", us(read, end));
            rec.sample("serve.rtt_us", us(start, end));
        }
        if !ok {
            eprintln!("refused {kind}: {doc:?}");
        }
        doc.filter(|_| ok)
    }

    /// Executes one op; `rt` is the served runtime, read (outside the
    /// op's timing) to check that a warm replay leaves the ledger alone.
    fn exec(&mut self, rec: &mut Recorder, rt: &GuptRuntime, op: &Op) {
        match op {
            Op::Cold(q) => self.catalog(rec, rt, "query_cold", q, false),
            Op::Warm(q) => self.catalog(rec, rt, "query_warm", q, true),
            Op::Sql(s) => self.sql(rec, s),
            Op::Grouped(_) | Op::Wide(_) => unreachable!("query_tcp sends no grouped statements"),
        }
        if self.requests.is_multiple_of(STATS_EVERY) {
            self.call(rec, "stats", || stats_payload(Some(TABLE)));
        }
    }

    fn catalog(
        &mut self,
        rec: &mut Recorder,
        rt: &GuptRuntime,
        kind: &'static str,
        q: &CatalogQuery,
        warm: bool,
    ) {
        let spent_before = warm.then(|| ledger_spent(rt));
        let resp = self.call(rec, kind, || {
            QueryPayload::new(TABLE, q.program, &[q.range])
                .epsilon(EPS_QUERY)
                .to_json()
        });
        let Some(answer) = resp.as_ref().and_then(|r| r.get("answer")) else {
            rec.answer(TAG_FAILED, &[], 0.0);
            return;
        };
        let values = numbers(answer.get("values"));
        let eps = answer
            .get("epsilon_spent")
            .and_then(Value::as_number)
            .unwrap_or(f64::NAN);
        rec.answer(TAG_QUERY, &values, eps);
        let key = query_key(q.program, q.range);
        if let Some(before) = spent_before {
            rec.check_replay(&key, &values, before, ledger_spent(rt));
            return;
        }
        rec.charged(kind, eps, EPS_QUERY, false);
        rec.released
            .insert(key, values.iter().map(|v| v.to_bits()).collect());
    }

    fn sql(&mut self, rec: &mut Recorder, statement: &str) {
        let resp = self.call(rec, "sql", || {
            SqlPayload::new(statement, &COLUMN_RANGES).to_json()
        });
        let Some(sql) = resp.as_ref().and_then(|r| r.get("sql")) else {
            rec.answer(TAG_FAILED, &[], 0.0);
            return;
        };
        let mut flat = Vec::new();
        for row in sql
            .get("rows")
            .and_then(Value::as_array)
            .unwrap_or_default()
        {
            flat.extend(numbers(row.get("group")));
            flat.extend(numbers(row.get("values")));
            if let Some(count) = row.get("noisy_count").and_then(Value::as_number) {
                flat.push(count);
                if count < DEFAULT_MIN_COUNT {
                    rec.violation(format!(
                        "released group has noisy count {count} < {DEFAULT_MIN_COUNT}"
                    ));
                }
            }
        }
        let eps = sql
            .get("epsilon_spent")
            .and_then(Value::as_number)
            .unwrap_or(f64::NAN);
        rec.answer(TAG_SQL, &flat, eps);
        rec.charged("sql", eps, EPS_QUERY, false);
    }
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .map(|x| x.as_number().unwrap_or(f64::NAN))
        .collect()
}

pub fn phase(cfg: &Config, trace: bool) -> Phase {
    let rows = gen::table(cfg.seed, TABLE_ROWS);
    let (setup_s, (server, service)) = repeat_setup(&cfg.state, |dir| {
        let rt = build_runtime(rows.clone(), storage(dir), cfg.seed);
        // One query in flight at a time: the applied worker count is
        // the machine's parallelism, as under the default policy.
        let service = QueryService::new(rt, ServiceConfig::new(1, 8));
        let server = GuptServer::bind(
            service.clone(),
            "127.0.0.1:0",
            ServeConfig::new(SERVE_WORKERS),
        )
        .expect("bind a loopback port");
        (server, service)
    });
    let stream = TcpStream::connect(server.addr()).expect("connect to the loopback server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut conn = Conn {
        stream,
        requests: 0,
    };

    let mut rec = Recorder::new(trace);
    let mut mix = QueryMix::new(cfg.seed, WARM_PER_ROUND, false);
    let mut executed: Vec<Op> = Vec::new();
    let rt = service.runtime();
    for op in mix.round() {
        conn.exec(&mut rec, rt, &op);
        executed.push(op);
    }

    let storage_before = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    let cache_before = rt.cache_stats();
    let service_before = service.stats();
    rec.timing = true;
    let start = Instant::now();
    let deadline = start + cfg.seconds;
    'run: loop {
        for op in mix.round() {
            if Instant::now() >= deadline {
                break 'run;
            }
            conn.exec(&mut rec, rt, &op);
            executed.push(op);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    rec.timing = false;
    check_ledger(rt, &mut rec);

    let mut layer = Metrics::new();
    let storage_after = rt.storage_stats(TABLE).ok().flatten().unwrap_or_default();
    probes::storage_deltas(&mut layer, &storage_before, &storage_after, rec.charging);
    probes::cache_deltas(&mut layer, &cache_before, &rt.cache_stats());
    let service_after = service.stats();
    let admitted = service_after.admitted - service_before.admitted;
    let rejected = (service_after.rejected_overloaded + service_after.rejected_deadline)
        - (service_before.rejected_overloaded + service_before.rejected_deadline);
    put(
        &mut layer,
        "service.admitted",
        admitted as f64,
        admitted as usize,
    );
    put(
        &mut layer,
        "service.rejected",
        rejected as f64,
        admitted as usize,
    );
    let serve = server.serve_telemetry();
    let server_p50_us = serve.p50_ms * 1e3;
    let requests = (serve.accepted + serve.refused) as usize;
    put(&mut layer, "serve.server_p50_us", server_p50_us, requests);
    let (stats_us, stats_n) = rec.percentile("stats", 50.0, 1e-6);
    put(&mut layer, "serve.stats_us", stats_us, stats_n);
    if trace {
        let (rtt, n) = rec.median("serve.rtt_us");
        put(&mut layer, "serve.wire_us", rtt - server_p50_us, n);
        probes::storage_append(&mut layer, storage(&cfg.state.join("probe")));
        probes::chamber_program(&mut layer, &rows, cfg.seed);
    }
    drop(conn);
    server.shutdown();
    drop(service);

    // The same op sequence in process, on a fresh runtime at the same
    // seed, outside the timed phase.
    let replay_rt = build_runtime(rows, storage(&cfg.state.join("replay")), cfg.seed);
    let mut replay = Recorder::new(false);
    for op in &executed {
        inproc::exec(&replay_rt, &mut replay, op);
    }
    if let Some(i) = (0..rec.digest.len().max(replay.digest.len()))
        .find(|&i| rec.digest.get(i) != replay.digest.get(i))
    {
        rec.violation(format!(
            "query_tcp answer {i} of {} differs from its in-process replay",
            rec.digest.len()
        ));
    }
    for v in replay.violations {
        rec.violation(format!("in-process replay: {v}"));
    }
    Phase {
        rec,
        elapsed,
        setup_s,
        layer,
    }
}
