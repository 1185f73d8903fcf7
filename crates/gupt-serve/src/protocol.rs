//! The versioned wire protocol of the serve plane.
//!
//! # Framing
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! [len: u32 LE][payload: `len` bytes of UTF-8 JSON]
//! ```
//!
//! Frames larger than [`MAX_FRAME_BYTES`] are refused before the
//! payload is read, so a client cannot make the server buffer
//! arbitrary memory. A connection carries any number of
//! request/response pairs in order; either side closes by shutting the
//! socket between frames.
//!
//! # Requests
//!
//! The payload is a JSON object with `"v"` (protocol version, any
//! version in `[`[`MIN_PROTOCOL_VERSION`]`, `[`PROTOCOL_VERSION`]`]`)
//! and `"op"`:
//!
//! | op          | min v | fields |
//! |-------------|-------|--------|
//! | `query`     | 1 | `dataset`, `program` (e.g. `"mean:0"`), `epsilon`, `ranges` (array of `[lo, hi]`), optional `principal`, `block_size`, `deadline_ms` |
//! | `batch`     | 1 | `dataset`, `total_epsilon`, `queries` (array of `{program, ranges}`), optional `principal` |
//! | `append`    | 2 | `dataset`, `rows` (array of rows, each an array of numbers), optional `principal` |
//! | `subscribe` | 3 | `dataset`, `program`, `epsilon`, `ranges`, `window` (`{size, slide?, key?}`), optional `principal`, `block_size` |
//! | `poll`      | 3 | `subscription` (the id `subscribe` returned) |
//! | `sql`       | 4 | `query` (DP-SQL text), `ranges` (per-column value ranges), optional `epsilon`, `min_count`, `principal`, `block_size` |
//! | `stats`     | 1 | optional `dataset` |
//! | `recover`   | 1 | `dataset` |
//! | `continue`  | 1 | `dataset`, `principal`, optional `grant` |
//! | `shutdown`  | 1 | — |
//!
//! The `append` op (new in v2) grows a registered dataset in place:
//! only the delta rows are flattened, the registration epoch is
//! re-chained from the previous epoch, and cached answers for the old
//! epoch stop replaying. The response's `append` object reports
//! `rows_appended`, `total_rows`, `bytes_materialized` and the new
//! `epoch` — the epoch is rendered as a **decimal string**, not a JSON
//! number, because it is a 64-bit hash that would lose precision in an
//! f64-based parser.
//!
//! The `sql` op (new in v4) submits a DP-SQL statement (see the
//! `gupt-sql` crate for the grammar). `ranges` supplies the value range
//! of each dataset column (by position); `epsilon` is the statement
//! budget when the SQL has no `WITH EPSILON` clause; `min_count` tunes
//! the minimum-frequency release threshold for `GROUP BY` groups. The
//! server default (5) is also a **floor**: requests asking for less —
//! `0` in particular, which would disable the gate and release the raw
//! key set — are rejected with `bad_request`; relaxing the gate is
//! operator-side configuration, never a wire parameter. The response
//! carries a `sql` object:
//! `columns`, `rows` (each `{group, values, noisy_count}`) and
//! `epsilon_spent`. SQL failures get their own
//! statuses: a syntax error is `parse_error` (422) with
//! `error.detail.line`/`error.detail.column`, an un-plannable
//! statement is `plan_error` (424); runtime failures keep the standard
//! mappings above.
//!
//! **v5** changes one response, not a request: the `sql` object no
//! longer carries `suppressed_groups`. Released rows plus suppressed
//! groups equalled the raw number of distinct keys, a statistic of the
//! private rows that no charged mechanism covered, so it now goes only
//! to the operator's telemetry. Requests are unchanged: a v4 `sql`
//! request is answered exactly as a v5 one, and every response is
//! stamped `"v":5`.
//!
//! The streaming ops (new in v3) register and drive continuous
//! windowed queries. `subscribe` carries the same program/ε/ranges
//! fields as `query` plus a `window` object: `size` (rows per window),
//! optional `slide` (defaults to `size`, i.e. tumbling) and optional
//! `key` (`"rows"`, the default, or `"arrivals"` to window over append
//! batches); it responds with a `subscription` object whose `id` names
//! the registration for later polls. `poll` evaluates the
//! subscription's next window: `"window":null` while it is still open,
//! otherwise a `window` object with `index`, `start_row`, `end_row`,
//! `replayed`, `rows_aged` and the standard `answer`. Each fresh
//! window debits its ε from the dataset ledger (attributed to the
//! subscription's principal, WAL-journaled like any charge); a
//! replayed window reports `epsilon_spent` 0.
//!
//! # Responses
//!
//! `{"v":2,"status":"<status>","code":<code>, ...}` where the
//! status/code pairs are fixed by [`Status`]:
//!
//! | status               | code | meaning |
//! |----------------------|------|---------|
//! | `ok`                 | 200  | answer / stats in the body |
//! | `budget_exhausted`   | 402  | dataset lifetime ε exhausted |
//! | `unknown_principal`  | 403  | principal not registered |
//! | `not_found`          | 404  | dataset unknown |
//! | `deadline_exceeded`  | 408  | admission deadline passed; body has `waited_ms` |
//! | `parse_error`        | 422  | DP-SQL syntax error; `error.detail` has `line`, `column` |
//! | `plan_error`         | 424  | DP-SQL statement cannot be compiled onto the pipeline |
//! | `quota_exhausted`    | 429  | principal quota refused the ε; body has `principal`, `remaining`, `paused` |
//! | `bad_request`        | 400  | malformed frame, JSON, or spec |
//! | `internal`           | 500  | any other runtime failure |
//! | `overloaded`         | 503  | admission queue full; body has `retry_after_ms` backpressure hint |
//!
//! Error responses always carry an `"error"` object:
//! `{"message": "..."}` plus the status-specific fields above.

use gupt_core::GuptError;
use std::io::{Read, Write};

/// Newest protocol version spoken by this build; responses are always
/// stamped with it. Requests may carry any version in
/// `[MIN_PROTOCOL_VERSION, PROTOCOL_VERSION]`; anything outside that
/// window is refused with `bad_request`.
pub const PROTOCOL_VERSION: u32 = 5;

/// Oldest request version still accepted. v1–v4 requests keep working —
/// every older op has identical semantics under v5 — but newer ops
/// (`append` from v2, `subscribe`/`poll` from v3, `sql` from v4) are
/// refused on an older request with a version hint.
pub const MIN_PROTOCOL_VERSION: u32 = 1;

/// Whether a request's `"v"` field is a version this server speaks.
pub fn version_supported(v: f64) -> bool {
    v.fract() == 0.0 && v >= MIN_PROTOCOL_VERSION as f64 && v <= PROTOCOL_VERSION as f64
}

/// Hard ceiling on one frame's payload. Large enough for a several
/// thousand-member batch, small enough that a hostile length prefix
/// cannot balloon server memory.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Typed response statuses with their stable wire names and numeric
/// codes (HTTP-flavoured so operators can reuse intuition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// The dataset's lifetime privacy budget cannot cover the charge.
    BudgetExhausted,
    /// The request named a principal the dataset has never seen.
    UnknownPrincipal,
    /// The dataset is not registered.
    NotFound,
    /// The admission deadline elapsed before a slot freed.
    DeadlineExceeded,
    /// The principal's quota refused the charge (possibly pausing it).
    QuotaExhausted,
    /// Unparseable or invalid request.
    BadRequest,
    /// DP-SQL statement failed to parse (v4); the error detail carries
    /// the 1-based line/column of the offending token.
    ParseError,
    /// DP-SQL statement parsed but cannot be compiled onto the chamber
    /// pipeline (v4): unknown column, missing range, bad epsilon…
    PlanError,
    /// Unclassified server-side failure.
    Internal,
    /// Admission queue full: back off and retry.
    Overloaded,
}

impl Status {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::BudgetExhausted => "budget_exhausted",
            Status::UnknownPrincipal => "unknown_principal",
            Status::NotFound => "not_found",
            Status::DeadlineExceeded => "deadline_exceeded",
            Status::QuotaExhausted => "quota_exhausted",
            Status::BadRequest => "bad_request",
            Status::ParseError => "parse_error",
            Status::PlanError => "plan_error",
            Status::Internal => "internal",
            Status::Overloaded => "overloaded",
        }
    }

    /// Stable numeric code.
    pub fn code(self) -> u16 {
        match self {
            Status::Ok => 200,
            Status::BadRequest => 400,
            Status::BudgetExhausted => 402,
            Status::UnknownPrincipal => 403,
            Status::NotFound => 404,
            Status::DeadlineExceeded => 408,
            Status::ParseError => 422,
            Status::PlanError => 424,
            Status::QuotaExhausted => 429,
            Status::Internal => 500,
            Status::Overloaded => 503,
        }
    }
}

/// Maps a typed runtime error to its protocol status.
pub fn status_for(err: &GuptError) -> Status {
    match err {
        GuptError::Overloaded { .. } => Status::Overloaded,
        GuptError::DeadlineExceeded { .. } => Status::DeadlineExceeded,
        GuptError::QuotaExhausted { .. } => Status::QuotaExhausted,
        GuptError::UnknownPrincipal(_) => Status::UnknownPrincipal,
        GuptError::DatasetNotFound(_) => Status::NotFound,
        GuptError::Dp(gupt_dp::DpError::BudgetExhausted { .. }) => Status::BudgetExhausted,
        GuptError::InvalidSpec(_) | GuptError::DimensionMismatch { .. } => Status::BadRequest,
        _ => Status::Internal,
    }
}

/// Renders the error body for a refused request: the envelope tail
/// `"status":…,"code":…,"error":{…}` with the status-specific fields
/// the protocol documents. The caller wraps it in the response object.
pub fn error_body(err: &GuptError) -> String {
    let status = status_for(err);
    let mut extra = String::new();
    match err {
        GuptError::Overloaded { in_flight, queued } => {
            // Backpressure hint: scale the suggested pause with how
            // deep the queue already is (bounded so clients never park
            // for long on a transient spike).
            let retry_ms = (10 * (queued + in_flight).max(1) as u64).min(1000);
            extra = format!(",\"retry_after_ms\":{retry_ms}");
        }
        GuptError::DeadlineExceeded { waited_ms } => {
            extra = format!(",\"waited_ms\":{waited_ms}");
        }
        GuptError::QuotaExhausted {
            principal,
            requested,
            remaining,
            paused,
        } => {
            extra = format!(
                ",\"principal\":{},\"requested\":{},\"remaining\":{},\"paused\":{}",
                json_string(principal),
                json_f64(*requested),
                json_f64(*remaining),
                paused
            );
        }
        _ => {}
    }
    format!(
        "\"status\":{},\"code\":{},\"error\":{{\"message\":{}{extra}}}",
        json_string(status.name()),
        status.code(),
        json_string(&err.to_string())
    )
}

/// Renders a complete error response frame payload.
pub fn error_response(err: &GuptError) -> String {
    format!("{{\"v\":{PROTOCOL_VERSION},{}}}", error_body(err))
}

/// Renders the response for a failed DP-SQL request (v4): parse
/// failures get `parse_error` (422) with a structured
/// `error.detail.line`/`.column`, planning failures get `plan_error`
/// (424), and runtime failures keep the standard [`error_response`]
/// taxonomy.
pub fn sql_error_response(err: &gupt_sql::SqlError) -> String {
    use gupt_sql::SqlError;
    match err {
        SqlError::Parse {
            message,
            line,
            column,
        } => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"parse_error\",\"code\":422,\
             \"error\":{{\"message\":{},\"detail\":{{\"line\":{line},\"column\":{column}}}}}}}",
            json_string(message)
        ),
        SqlError::Plan { message } => format!(
            "{{\"v\":{PROTOCOL_VERSION},\"status\":\"plan_error\",\"code\":424,\
             \"error\":{{\"message\":{}}}}}",
            json_string(message)
        ),
        SqlError::Runtime(inner) => error_response(inner),
    }
}

/// Renders a `bad_request` response for protocol-level failures that
/// never reached the runtime (bad framing, bad JSON, unknown op…).
pub fn bad_request(message: &str) -> String {
    format!(
        "{{\"v\":{PROTOCOL_VERSION},\"status\":\"bad_request\",\"code\":400,\
         \"error\":{{\"message\":{}}}}}",
        json_string(message)
    )
}

/// JSON string literal with the standard escapes.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON-safe float: finite values verbatim (no exponents), else `null`.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['e', 'E']) {
            format!("{v:.12}")
        } else {
            s
        }
    } else {
        "null".to_string()
    }
}

/// Writes one frame: length prefix, then the payload bytes.
pub fn write_frame(w: &mut impl Write, payload: &str) -> std::io::Result<()> {
    let bytes = payload.as_bytes();
    if bytes.len() as u64 > MAX_FRAME_BYTES as u64 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("frame of {} bytes exceeds MAX_FRAME_BYTES", bytes.len()),
        ));
    }
    w.write_all(&(bytes.len() as u32).to_le_bytes())?;
    w.write_all(bytes)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary (the
/// peer closed between requests); errors on torn frames, oversized
/// lengths or invalid UTF-8.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_BYTES"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"v\":1}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"v\":1}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second");
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn torn_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_prefix_refused() {
        let buf = (MAX_FRAME_BYTES + 1).to_le_bytes().to_vec();
        let mut r = &buf[..];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn overloaded_maps_to_503_with_retry_hint() {
        let err = GuptError::Overloaded {
            in_flight: 8,
            queued: 32,
        };
        assert_eq!(status_for(&err), Status::Overloaded);
        let resp = error_response(&err);
        let v = json::parse(&resp).expect("error body parses as JSON");
        assert_eq!(v.get("status").unwrap().as_str(), Some("overloaded"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(503.0));
        let retry = v.get("error").unwrap().get("retry_after_ms").unwrap();
        assert_eq!(retry.as_number(), Some(400.0)); // 10 × (32 + 8)
        assert!(v
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("overloaded"));
    }

    #[test]
    fn deadline_maps_to_408_with_wait() {
        let err = GuptError::DeadlineExceeded { waited_ms: 250 };
        assert_eq!(status_for(&err), Status::DeadlineExceeded);
        let v = json::parse(&error_response(&err)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("deadline_exceeded"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(408.0));
        assert_eq!(
            v.get("error")
                .unwrap()
                .get("waited_ms")
                .unwrap()
                .as_number(),
            Some(250.0)
        );
    }

    #[test]
    fn quota_maps_to_429_with_principal_fields() {
        let err = GuptError::QuotaExhausted {
            principal: "alice".into(),
            requested: 0.5,
            remaining: 0.25,
            paused: true,
        };
        assert_eq!(status_for(&err), Status::QuotaExhausted);
        let v = json::parse(&error_response(&err)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("quota_exhausted"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(429.0));
        let e = v.get("error").unwrap();
        assert_eq!(e.get("principal").unwrap().as_str(), Some("alice"));
        assert_eq!(e.get("remaining").unwrap().as_number(), Some(0.25));
        assert_eq!(e.get("paused").unwrap(), &json::Value::Bool(true));
        assert!(e
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("awaiting operator continue"));
    }

    #[test]
    fn remaining_error_mappings() {
        use gupt_dp::DpError;
        let cases: Vec<(GuptError, Status)> = vec![
            (GuptError::DatasetNotFound("x".into()), Status::NotFound),
            (
                GuptError::UnknownPrincipal("m".into()),
                Status::UnknownPrincipal,
            ),
            (
                GuptError::Dp(DpError::BudgetExhausted {
                    requested: 1.0,
                    remaining: 0.5,
                }),
                Status::BudgetExhausted,
            ),
            (GuptError::InvalidSpec("bad".into()), Status::BadRequest),
            (GuptError::InvalidDataset("empty".into()), Status::Internal),
        ];
        for (err, want) in cases {
            assert_eq!(status_for(&err), want, "{err}");
            // Every mapping yields a parseable JSON error body.
            let v = json::parse(&error_response(&err)).unwrap();
            assert_eq!(v.get("code").unwrap().as_number(), Some(want.code() as f64));
            assert!(v.get("error").unwrap().get("message").is_some());
        }
    }

    #[test]
    fn bad_request_escapes_message() {
        let resp = bad_request("quote \" and \n newline");
        let v = json::parse(&resp).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("message").unwrap().as_str(),
            Some("quote \" and \n newline")
        );
    }

    #[test]
    fn version_window_accepts_v1_through_v5_only() {
        assert!(version_supported(1.0));
        assert!(version_supported(2.0));
        assert!(version_supported(3.0));
        assert!(version_supported(4.0));
        assert!(version_supported(5.0));
        assert!(!version_supported(0.0));
        assert!(!version_supported(6.0));
        assert!(!version_supported(9.0));
        assert!(!version_supported(1.5));
        assert_eq!(MIN_PROTOCOL_VERSION, 1);
        assert_eq!(PROTOCOL_VERSION, 5);
    }

    #[test]
    fn status_names_and_codes_are_stable() {
        let all = [
            (Status::Ok, "ok", 200),
            (Status::BadRequest, "bad_request", 400),
            (Status::BudgetExhausted, "budget_exhausted", 402),
            (Status::UnknownPrincipal, "unknown_principal", 403),
            (Status::NotFound, "not_found", 404),
            (Status::DeadlineExceeded, "deadline_exceeded", 408),
            (Status::ParseError, "parse_error", 422),
            (Status::PlanError, "plan_error", 424),
            (Status::QuotaExhausted, "quota_exhausted", 429),
            (Status::Internal, "internal", 500),
            (Status::Overloaded, "overloaded", 503),
        ];
        for (s, name, code) in all {
            assert_eq!(s.name(), name);
            assert_eq!(s.code(), code);
        }
    }

    #[test]
    fn sql_parse_error_carries_line_and_column_detail() {
        let err = gupt_sql::SqlError::parse("expected FROM", 2, 17);
        let v = json::parse(&sql_error_response(&err)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("parse_error"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(422.0));
        let detail = v.get("error").unwrap().get("detail").unwrap();
        assert_eq!(detail.get("line").unwrap().as_number(), Some(2.0));
        assert_eq!(detail.get("column").unwrap().as_number(), Some(17.0));
    }

    #[test]
    fn sql_plan_error_maps_to_424() {
        let err = gupt_sql::SqlError::plan("no range for c0");
        let v = json::parse(&sql_error_response(&err)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("plan_error"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(424.0));
        assert!(v.get("error").unwrap().get("detail").is_none());
    }

    #[test]
    fn sql_runtime_error_keeps_the_standard_taxonomy() {
        let err = gupt_sql::SqlError::Runtime(GuptError::DatasetNotFound("x".into()));
        let v = json::parse(&sql_error_response(&err)).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("not_found"));
        assert_eq!(v.get("code").unwrap().as_number(), Some(404.0));
    }
}
