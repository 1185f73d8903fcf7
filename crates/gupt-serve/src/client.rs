//! Blocking client for the GUPT wire protocol.
//!
//! [`ServeClient`] owns one TCP connection and speaks
//! [`crate::protocol`] frames. `send`/`recv` are split so callers can
//! *pipeline*: write many request frames back-to-back, then drain the
//! responses in order — the load bench uses this to keep thousands of
//! queries in flight over a handful of sockets. [`QueryPayload`],
//! [`AppendPayload`], [`SubscribePayload`] and [`SqlPayload`] build
//! well-formed request JSON so callers don't hand-assemble strings.

use crate::json::{self, Value};
use crate::protocol::{json_f64, json_string, read_frame, write_frame, PROTOCOL_VERSION};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// One blocking connection to a GUPT server.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Writes one request frame without waiting for the response
    /// (pipelining). Pair with an equal number of [`recv`](Self::recv)
    /// calls — responses come back in request order.
    pub fn send(&mut self, payload: &str) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Reads and parses the next response frame.
    pub fn recv(&mut self) -> io::Result<Value> {
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })?;
        json::parse(&payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, payload: &str) -> io::Result<Value> {
        self.send(payload)?;
        self.recv()
    }

    /// Sends one request and returns the raw response JSON text.
    pub fn request_text(&mut self, payload: &str) -> io::Result<String> {
        self.send(payload)?;
        read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }
}

/// Builder for a `query` request payload.
#[derive(Debug, Clone)]
pub struct QueryPayload {
    dataset: String,
    program: String,
    ranges: Vec<(f64, f64)>,
    epsilon: Option<f64>,
    principal: Option<String>,
    block_size: Option<usize>,
    deadline_ms: Option<u64>,
}

impl QueryPayload {
    /// A query for `program` over `dataset` with the given output
    /// ranges (`[lo, hi]` per dimension; one range broadcasts).
    pub fn new(
        dataset: impl Into<String>,
        program: impl Into<String>,
        ranges: &[(f64, f64)],
    ) -> Self {
        QueryPayload {
            dataset: dataset.into(),
            program: program.into(),
            ranges: ranges.to_vec(),
            epsilon: None,
            principal: None,
            block_size: None,
            deadline_ms: None,
        }
    }

    /// Per-query ε (server defaults to 1.0 when omitted).
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = Some(eps);
        self
    }

    /// Attributes the query to a registered principal.
    pub fn principal(mut self, name: impl Into<String>) -> Self {
        self.principal = Some(name.into());
        self
    }

    /// Fixed block size override.
    pub fn block_size(mut self, rows: usize) -> Self {
        self.block_size = Some(rows);
        self
    }

    /// Queueing deadline in milliseconds.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Renders the request JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"v\":{PROTOCOL_VERSION},\"op\":\"query\",\"dataset\":{},\"program\":{}",
            json_string(&self.dataset),
            json_string(&self.program)
        );
        out.push_str(",\"ranges\":[");
        for (i, (lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", json_f64(*lo), json_f64(*hi)));
        }
        out.push(']');
        if let Some(eps) = self.epsilon {
            out.push_str(&format!(",\"epsilon\":{}", json_f64(eps)));
        }
        if let Some(p) = &self.principal {
            out.push_str(&format!(",\"principal\":{}", json_string(p)));
        }
        if let Some(b) = self.block_size {
            out.push_str(&format!(",\"block_size\":{b}"));
        }
        if let Some(ms) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{ms}"));
        }
        out.push('}');
        out
    }
}

/// Builder for a v2 `append` request payload: grows a registered
/// dataset in place with delta rows, optionally attributed to a
/// principal.
#[derive(Debug, Clone)]
pub struct AppendPayload {
    dataset: String,
    rows: Vec<Vec<f64>>,
    principal: Option<String>,
}

impl AppendPayload {
    /// An append of `rows` (each one dataset row) onto `dataset`.
    pub fn new(dataset: impl Into<String>, rows: &[Vec<f64>]) -> Self {
        AppendPayload {
            dataset: dataset.into(),
            rows: rows.to_vec(),
            principal: None,
        }
    }

    /// Attributes the append to a registered principal.
    pub fn principal(mut self, name: impl Into<String>) -> Self {
        self.principal = Some(name.into());
        self
    }

    /// Renders the request JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"v\":{PROTOCOL_VERSION},\"op\":\"append\",\"dataset\":{}",
            json_string(&self.dataset)
        );
        if let Some(p) = &self.principal {
            out.push_str(&format!(",\"principal\":{}", json_string(p)));
        }
        out.push_str(",\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&json_f64(*cell));
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// Builder for a v3 `subscribe` request payload: registers a
/// continuous windowed query against a dataset. The server responds
/// with a `subscription` object whose `id` feeds [`poll_payload`].
#[derive(Debug, Clone)]
pub struct SubscribePayload {
    dataset: String,
    program: String,
    ranges: Vec<(f64, f64)>,
    epsilon: f64,
    window_size: usize,
    window_slide: Option<usize>,
    arrival_keyed: bool,
    principal: Option<String>,
    block_size: Option<usize>,
}

impl SubscribePayload {
    /// A subscription for `program` over `dataset`, evaluating every
    /// closed tumbling window of `window_size` rows at `epsilon` per
    /// window. Streaming queries must carry an explicit ε — the server
    /// refuses per-window accuracy goals as unreplayable.
    pub fn new(
        dataset: impl Into<String>,
        program: impl Into<String>,
        ranges: &[(f64, f64)],
        epsilon: f64,
        window_size: usize,
    ) -> Self {
        SubscribePayload {
            dataset: dataset.into(),
            program: program.into(),
            ranges: ranges.to_vec(),
            epsilon,
            window_size,
            window_slide: None,
            arrival_keyed: false,
            principal: None,
            block_size: None,
        }
    }

    /// Makes the window sliding: advance by `rows` per window instead
    /// of by the full window size.
    pub fn slide(mut self, rows: usize) -> Self {
        self.window_slide = Some(rows);
        self
    }

    /// Keys the window by append *batches* (arrival order) instead of
    /// by row count.
    pub fn arrivals(mut self) -> Self {
        self.arrival_keyed = true;
        self
    }

    /// Attributes every per-window charge to a registered principal.
    pub fn principal(mut self, name: impl Into<String>) -> Self {
        self.principal = Some(name.into());
        self
    }

    /// Fixed block size override.
    pub fn block_size(mut self, rows: usize) -> Self {
        self.block_size = Some(rows);
        self
    }

    /// Renders the request JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"v\":{PROTOCOL_VERSION},\"op\":\"subscribe\",\"dataset\":{},\"program\":{}",
            json_string(&self.dataset),
            json_string(&self.program)
        );
        out.push_str(",\"ranges\":[");
        for (i, (lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", json_f64(*lo), json_f64(*hi)));
        }
        out.push(']');
        out.push_str(&format!(",\"epsilon\":{}", json_f64(self.epsilon)));
        out.push_str(&format!(",\"window\":{{\"size\":{}", self.window_size));
        if let Some(s) = self.window_slide {
            out.push_str(&format!(",\"slide\":{s}"));
        }
        if self.arrival_keyed {
            out.push_str(",\"key\":\"arrivals\"");
        }
        out.push('}');
        if let Some(p) = &self.principal {
            out.push_str(&format!(",\"principal\":{}", json_string(p)));
        }
        if let Some(b) = self.block_size {
            out.push_str(&format!(",\"block_size\":{b}"));
        }
        out.push('}');
        out
    }
}

/// Builder for a v4 `sql` request payload: one DP-SQL statement
/// (`SELECT agg(expr), ... FROM dataset [WHERE ...] [GROUP BY ...]
/// [WITH EPSILON e]`) compiled and executed server-side. The dataset
/// name lives inside the statement's `FROM` clause.
#[derive(Debug, Clone)]
pub struct SqlPayload {
    query: String,
    ranges: Vec<(f64, f64)>,
    epsilon: Option<f64>,
    principal: Option<String>,
    min_count: Option<f64>,
    block_size: Option<usize>,
}

impl SqlPayload {
    /// A DP-SQL statement with per-column value ranges (`[lo, hi]`,
    /// indexed by column). Ranges may be empty for statements that read
    /// no column values (e.g. a bare `COUNT(*)`).
    pub fn new(query: impl Into<String>, ranges: &[(f64, f64)]) -> Self {
        SqlPayload {
            query: query.into(),
            ranges: ranges.to_vec(),
            epsilon: None,
            principal: None,
            min_count: None,
            block_size: None,
        }
    }

    /// Default ε used when the statement has no `WITH EPSILON` clause
    /// (server defaults to 1.0 when omitted).
    pub fn epsilon(mut self, eps: f64) -> Self {
        self.epsilon = Some(eps);
        self
    }

    /// Attributes every charge to a registered principal.
    pub fn principal(mut self, name: impl Into<String>) -> Self {
        self.principal = Some(name.into());
        self
    }

    /// Minimum-frequency threshold for `GROUP BY` release. The server
    /// defaults to 5 and treats that as a **floor**: values below it
    /// (including 0) are rejected with `bad_request` — the gate can be
    /// tightened over the wire but never relaxed.
    pub fn min_count(mut self, count: f64) -> Self {
        self.min_count = Some(count);
        self
    }

    /// Fixed block size override.
    pub fn block_size(mut self, rows: usize) -> Self {
        self.block_size = Some(rows);
        self
    }

    /// Renders the request JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"v\":{PROTOCOL_VERSION},\"op\":\"sql\",\"query\":{}",
            json_string(&self.query)
        );
        if !self.ranges.is_empty() {
            out.push_str(",\"ranges\":[");
            for (i, (lo, hi)) in self.ranges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{},{}]", json_f64(*lo), json_f64(*hi)));
            }
            out.push(']');
        }
        if let Some(eps) = self.epsilon {
            out.push_str(&format!(",\"epsilon\":{}", json_f64(eps)));
        }
        if let Some(p) = &self.principal {
            out.push_str(&format!(",\"principal\":{}", json_string(p)));
        }
        if let Some(mc) = self.min_count {
            out.push_str(&format!(",\"min_count\":{}", json_f64(mc)));
        }
        if let Some(b) = self.block_size {
            out.push_str(&format!(",\"block_size\":{b}"));
        }
        out.push('}');
        out
    }
}

/// `poll` request payload: evaluates the next closed window of the
/// subscription `id` named by a prior `subscribe` response.
pub fn poll_payload(id: u64) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"poll\",\"subscription\":{id}}}")
}

/// `stats` request payload, optionally scoped to one dataset.
pub fn stats_payload(dataset: Option<&str>) -> String {
    match dataset {
        Some(d) => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"op\":\"stats\",\"dataset\":{}}}",
            json_string(d)
        ),
        None => format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"stats\"}}"),
    }
}

/// `recover` request payload.
pub fn recover_payload(dataset: &str) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"op\":\"recover\",\"dataset\":{}}}",
        json_string(dataset)
    )
}

/// `continue` request payload: unpauses `principal` on `dataset`,
/// optionally raising its quota by `grant` ε.
pub fn continue_payload(dataset: &str, principal: &str, grant: Option<f64>) -> String {
    let mut out = format!(
        "{{\"v\":{PROTOCOL_VERSION},\"op\":\"continue\",\"dataset\":{},\"principal\":{}",
        json_string(dataset),
        json_string(principal)
    );
    if let Some(g) = grant {
        out.push_str(&format!(",\"grant\":{}", json_f64(g)));
    }
    out.push('}');
    out
}

/// `shutdown` request payload.
pub fn shutdown_payload() -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"shutdown\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_payload_renders_every_field() {
        let p = QueryPayload::new("census", "histogram:2:4", &[(0.0, 100.0)])
            .epsilon(0.25)
            .principal("alice")
            .block_size(64)
            .deadline_ms(500)
            .to_json();
        let doc = json::parse(&p).unwrap();
        assert_eq!(doc.get("v").unwrap().as_number(), Some(5.0));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("query"));
        assert_eq!(doc.get("dataset").unwrap().as_str(), Some("census"));
        assert_eq!(doc.get("program").unwrap().as_str(), Some("histogram:2:4"));
        assert_eq!(doc.get("epsilon").unwrap().as_number(), Some(0.25));
        assert_eq!(doc.get("principal").unwrap().as_str(), Some("alice"));
        assert_eq!(doc.get("block_size").unwrap().as_number(), Some(64.0));
        assert_eq!(doc.get("deadline_ms").unwrap().as_number(), Some(500.0));
        let ranges = doc.get("ranges").unwrap().as_array().unwrap();
        assert_eq!(ranges.len(), 1);
    }

    #[test]
    fn append_payload_renders_rows_and_principal() {
        let p = AppendPayload::new("census", &[vec![1.0, 2.5], vec![3.0, 4.0]])
            .principal("alice")
            .to_json();
        let doc = json::parse(&p).unwrap();
        assert_eq!(doc.get("v").unwrap().as_number(), Some(5.0));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("append"));
        assert_eq!(doc.get("dataset").unwrap().as_str(), Some("census"));
        assert_eq!(doc.get("principal").unwrap().as_str(), Some("alice"));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_array().unwrap();
        assert_eq!(first[1].as_number(), Some(2.5));
    }

    #[test]
    fn subscribe_payload_renders_window_and_knobs() {
        let p = SubscribePayload::new("census", "mean:0", &[(0.0, 100.0)], 0.25, 500)
            .slide(100)
            .arrivals()
            .principal("alice")
            .block_size(32)
            .to_json();
        let doc = json::parse(&p).unwrap();
        assert_eq!(doc.get("v").unwrap().as_number(), Some(5.0));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("subscribe"));
        assert_eq!(doc.get("epsilon").unwrap().as_number(), Some(0.25));
        let win = doc.get("window").unwrap();
        assert_eq!(win.get("size").unwrap().as_number(), Some(500.0));
        assert_eq!(win.get("slide").unwrap().as_number(), Some(100.0));
        assert_eq!(win.get("key").unwrap().as_str(), Some("arrivals"));
        assert_eq!(doc.get("principal").unwrap().as_str(), Some("alice"));
        assert_eq!(doc.get("block_size").unwrap().as_number(), Some(32.0));

        // Tumbling default: no slide, no key.
        let minimal = SubscribePayload::new("d", "count", &[(0.0, 1.0)], 0.5, 10).to_json();
        let doc = json::parse(&minimal).unwrap();
        let win = doc.get("window").unwrap();
        assert!(win.get("slide").is_none());
        assert!(win.get("key").is_none());

        let poll = json::parse(&poll_payload(7)).unwrap();
        assert_eq!(poll.get("op").unwrap().as_str(), Some("poll"));
        assert_eq!(poll.get("subscription").unwrap().as_number(), Some(7.0));
    }

    #[test]
    fn sql_payload_renders_every_field() {
        let p = SqlPayload::new("SELECT AVG(c0) FROM census GROUP BY c1", &[(0.0, 100.0)])
            .epsilon(0.5)
            .principal("alice")
            .min_count(10.0)
            .block_size(64)
            .to_json();
        let doc = json::parse(&p).unwrap();
        assert_eq!(doc.get("v").unwrap().as_number(), Some(5.0));
        assert_eq!(doc.get("op").unwrap().as_str(), Some("sql"));
        assert_eq!(
            doc.get("query").unwrap().as_str(),
            Some("SELECT AVG(c0) FROM census GROUP BY c1")
        );
        assert_eq!(doc.get("epsilon").unwrap().as_number(), Some(0.5));
        assert_eq!(doc.get("principal").unwrap().as_str(), Some("alice"));
        assert_eq!(doc.get("min_count").unwrap().as_number(), Some(10.0));
        assert_eq!(doc.get("block_size").unwrap().as_number(), Some(64.0));
        let ranges = doc.get("ranges").unwrap().as_array().unwrap();
        assert_eq!(ranges.len(), 1);

        // Range-free COUNT(*) statements omit the array entirely.
        let bare = SqlPayload::new("SELECT COUNT(*) FROM census", &[]).to_json();
        let doc = json::parse(&bare).unwrap();
        assert!(doc.get("ranges").is_none());
        assert!(doc.get("min_count").is_none());
    }

    #[test]
    fn minimal_payloads_parse() {
        for p in [
            QueryPayload::new("d", "count", &[(0.0, 1.0)]).to_json(),
            AppendPayload::new("d", &[vec![1.0]]).to_json(),
            SubscribePayload::new("d", "count", &[(0.0, 1.0)], 0.5, 10).to_json(),
            SqlPayload::new("SELECT COUNT(*) FROM d", &[]).to_json(),
            poll_payload(0),
            stats_payload(None),
            stats_payload(Some("d")),
            recover_payload("d"),
            continue_payload("d", "alice", None),
            continue_payload("d", "alice", Some(0.5)),
            shutdown_payload(),
        ] {
            json::parse(&p).unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }
}
