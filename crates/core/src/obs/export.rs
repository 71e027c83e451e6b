//! Streaming JSONL export: schema-versioned, deterministic, hand-rendered.
//!
//! `seafl-core` deliberately does not depend on a JSON library; records are
//! rendered by a minimal builder whose output is byte-deterministic for a
//! given input (integers via `Display`, floats via Rust's shortest-roundtrip
//! `Display`, map-valued fields from `BTreeMap` name order). Two runs of the
//! same seed therefore produce byte-identical JSONL streams — pinned in
//! `tests/obs.rs` — and any JSON parser reads the values back exactly. The
//! exact rendering of each record kind is pinned by this module's tests.
//!
//! Every record is one line, carries `"v": 1` (`SCHEMA_VERSION`) and a
//! `"kind"` discriminator: `meta` (run header), `update` (one upload
//! arrival), `round` (one aggregation), `eval` (one evaluation), `summary`
//! (terminal registry snapshot). Only simulated-time and count fields are
//! ever exported here — real-time phase spans would break byte-identity and
//! live in [`crate::obs::ObsSummary`] instead. The field-by-field schema is
//! documented in `OBSERVABILITY.md`.

use crate::obs::registry::MetricsRegistry;
use std::collections::BTreeMap;

/// Version stamped into every record as `"v"`. Bump on any
/// backwards-incompatible field change and document the migration in
/// `OBSERVABILITY.md`.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render an `f64` as a JSON value: Rust's shortest-roundtrip form for
/// finite values (deterministic, parses back bit-exactly) — plain `Display`
/// for zero and `1e-5 <= |v| < 1e16`, exponent notation outside, since
/// `Display` never uses an exponent and would spell `1e300` with 301
/// digits — and `null` for NaN/±∞ (JSON has no non-finite numbers).
pub(crate) fn fmt_f64(v: f64) -> String {
    if !v.is_finite() {
        "null".to_string()
    } else if v == 0.0 || (1e-5..1e16).contains(&v.abs()) {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

/// A `[1,2,3]`-style JSON array of integers.
pub fn u64_array(xs: &[u64]) -> String {
    let mut out = String::from("[");
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&x.to_string());
    }
    out.push(']');
    out
}

/// Minimal single-object JSON builder (insertion-ordered, no allocation
/// beyond the output string).
///
/// # Examples
///
/// ```
/// use seafl_core::obs::export::JsonObject;
/// let line = JsonObject::new().str("kind", "eval").u64("round", 3).f64("acc", 0.5).finish();
/// assert_eq!(line, r#"{"kind":"eval","round":3,"acc":0.5}"#);
/// ```
#[derive(Clone, Debug)]
pub struct JsonObject {
    buf: String,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> Self {
        JsonObject { buf: String::from("{") }
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Append a string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Append an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Append a float field (`null` when non-finite — see `fmt_f64`).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        self.buf.push_str(&fmt_f64(v));
        self
    }

    /// Append a float field that may be absent (`None` renders as `null`).
    pub fn opt_f64(mut self, key: &str, v: Option<f64>) -> Self {
        self.key(key);
        match v {
            Some(v) => self.buf.push_str(&fmt_f64(v)),
            None => self.buf.push_str("null"),
        }
        self
    }

    /// Append a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Append a pre-rendered JSON value (array or nested object) verbatim.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Close the object and return the rendered line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// The run-header record (first line of every stream).
pub(crate) fn meta_record(
    algorithm: &str,
    seed: u64,
    config_hash: u64,
    num_clients: usize,
    resumed: bool,
) -> String {
    JsonObject::new()
        .str("kind", "meta")
        .u64("v", SCHEMA_VERSION as u64)
        .str("algorithm", algorithm)
        .u64("seed", seed)
        .str("config_hash", &format!("{config_hash:016x}"))
        .u64("num_clients", num_clients as u64)
        .bool("resumed", resumed)
        .finish()
}

/// One upload arrival that survived transit (whether admitted or dropped).
/// `staleness` and `round` are as of arrival time; `attacked` is true when
/// an adversarial device tampered with the upload (always false with the
/// attack channel disabled).
#[allow(clippy::too_many_arguments)]
pub(crate) fn update_record(
    t: f64,
    client: usize,
    round: u64,
    born_round: u64,
    staleness: u64,
    epochs: usize,
    admitted: bool,
    attacked: bool,
) -> String {
    JsonObject::new()
        .str("kind", "update")
        .u64("v", SCHEMA_VERSION as u64)
        .f64("t", t)
        .u64("client", client as u64)
        .u64("round", round)
        .u64("born_round", born_round)
        .u64("staleness", staleness)
        .u64("epochs", epochs as u64)
        .bool("admitted", admitted)
        .bool("attacked", attacked)
        .finish()
}

/// One aggregation: `round` is the round counter *after* the aggregation,
/// `staleness` lists each aggregated update's staleness (aggregation-time),
/// `weight_entropy` is `null` for policies that do not aggregate by
/// weights (FedAsync). `codec_bytes_raw`/`codec_bytes_encoded` are the
/// run-cumulative update bytes before/after codec encoding as of this
/// round (equal under the identity codec).
#[allow(clippy::too_many_arguments)]
pub(crate) fn round_record(
    t: f64,
    round: u64,
    num_updates: usize,
    buffer_occupancy: usize,
    in_flight: usize,
    staleness: &[u64],
    weight_entropy: Option<f64>,
    codec_bytes_raw: u64,
    codec_bytes_encoded: u64,
) -> String {
    JsonObject::new()
        .str("kind", "round")
        .u64("v", SCHEMA_VERSION as u64)
        .f64("t", t)
        .u64("round", round)
        .u64("num_updates", num_updates as u64)
        .u64("buffer_occupancy", buffer_occupancy as u64)
        .u64("in_flight", in_flight as u64)
        .raw("staleness", &u64_array(staleness))
        .opt_f64("weight_entropy", weight_entropy)
        .u64("codec_bytes_raw", codec_bytes_raw)
        .u64("codec_bytes_encoded", codec_bytes_encoded)
        .finish()
}

/// One server-side evaluation of the global model.
pub(crate) fn eval_record(t: f64, round: u64, accuracy: f64) -> String {
    JsonObject::new()
        .str("kind", "eval")
        .u64("v", SCHEMA_VERSION as u64)
        .f64("t", t)
        .u64("round", round)
        .f64("accuracy", accuracy)
        .finish()
}

/// The terminal record: full registry snapshot (counters, gauges,
/// histograms), per-kind trace-event counts (the `seafl-sim` trace bridge)
/// and the registry digest, at simulated time `t_end`.
pub(crate) fn summary_record(
    t_end: f64,
    rounds: u64,
    trace_counts: &BTreeMap<&'static str, u64>,
    reg: &MetricsRegistry,
) -> String {
    let mut counters = JsonObject::new();
    for (name, v) in reg.counters() {
        counters = counters.u64(name, v);
    }
    let mut gauges = JsonObject::new();
    for (name, v) in reg.gauges() {
        gauges = gauges.f64(name, v);
    }
    let mut hists = JsonObject::new();
    for (name, h) in reg.histograms() {
        let s = h.summary();
        let one = JsonObject::new()
            .u64("count", s.count)
            .f64("sum", s.sum)
            .f64("min", s.min)
            .f64("max", s.max)
            .f64("p50", s.p50)
            .f64("p95", s.p95)
            .raw("counts", &u64_array(h.counts()))
            .finish();
        hists = hists.raw(name, &one);
    }
    let mut trace = JsonObject::new();
    for (&kind, &n) in trace_counts {
        trace = trace.u64(kind, n);
    }
    JsonObject::new()
        .str("kind", "summary")
        .u64("v", SCHEMA_VERSION as u64)
        .f64("t_end", t_end)
        .u64("rounds", rounds)
        .raw("counters", &counters.finish())
        .raw("gauges", &gauges.finish())
        .raw("histograms", &hists.finish())
        .raw("trace_events", &trace.finish())
        .str("registry_digest", &format!("{:016x}", reg.digest()))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\n\t\r"), "x\\n\\t\\r");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn floats_render_shortest_roundtrip_or_null() {
        assert_eq!(fmt_f64(0.5), "0.5");
        assert_eq!(fmt_f64(-0.0), "-0");
        assert_eq!(fmt_f64(1e300), "1e300");
        assert_eq!(fmt_f64(f64::NAN), "null");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        // Shortest-roundtrip: parsing the rendering recovers the exact bits.
        for v in [0.1, 1.0 / 3.0, 123456.789, f64::MIN_POSITIVE, 2.5e21, -9.9e-6, 1e16] {
            let s = fmt_f64(v);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), v.to_bits(), "{s}");
        }
    }

    #[test]
    fn object_builder_layout() {
        assert_eq!(JsonObject::new().finish(), "{}");
        let line = JsonObject::new()
            .str("kind", "meta")
            .u64("n", 3)
            .bool("ok", true)
            .opt_f64("x", None)
            .raw("xs", &u64_array(&[1, 2]))
            .finish();
        assert_eq!(line, r#"{"kind":"meta","n":3,"ok":true,"x":null,"xs":[1,2]}"#);
    }

    #[test]
    fn records_are_single_line_and_versioned() {
        let recs = [
            meta_record("seafl", 42, 0xdead_beef, 40, false),
            update_record(10.5, 3, 2, 1, 1, 5, true, false),
            round_record(11.0, 3, 2, 2, 8, &[0, 1], Some(0.69), 4096, 1024),
            eval_record(11.0, 3, 0.81),
            summary_record(99.0, 7, &BTreeMap::new(), &MetricsRegistry::new()),
        ];
        for r in &recs {
            assert!(!r.contains('\n'), "{r}");
            assert!(r.starts_with("{\"kind\":\""), "{r}");
            assert!(r.contains("\"v\":1"), "{r}");
        }
    }

    // One exact rendering per record kind: field names, order and value
    // formatting are the schema OBSERVABILITY.md documents.

    #[test]
    fn meta_record_exact() {
        assert_eq!(
            meta_record("seafl", 42, 0xdead_beef, 12, false),
            r#"{"kind":"meta","v":1,"algorithm":"seafl","seed":42,"config_hash":"00000000deadbeef","num_clients":12,"resumed":false}"#
        );
    }

    #[test]
    fn update_record_exact() {
        assert_eq!(
            update_record(10.5, 3, 2, 1, 1, 5, true, false),
            r#"{"kind":"update","v":1,"t":10.5,"client":3,"round":2,"born_round":1,"staleness":1,"epochs":5,"admitted":true,"attacked":false}"#
        );
    }

    #[test]
    fn round_record_exact() {
        assert_eq!(
            round_record(11.0, 3, 4, 4, 6, &[0, 1, 3], Some(1.25), 4096, 1024),
            r#"{"kind":"round","v":1,"t":11,"round":3,"num_updates":4,"buffer_occupancy":4,"in_flight":6,"staleness":[0,1,3],"weight_entropy":1.25,"codec_bytes_raw":4096,"codec_bytes_encoded":1024}"#
        );
        // Policies without aggregation weights (FedAsync) export `null`.
        let fedasync = round_record(1.0, 1, 1, 0, 0, &[0], None, 0, 0);
        assert!(fedasync.contains(r#""weight_entropy":null,"#), "{fedasync}");
    }

    #[test]
    fn eval_record_exact() {
        assert_eq!(
            eval_record(11.0, 3, 0.625),
            r#"{"kind":"eval","v":1,"t":11,"round":3,"accuracy":0.625}"#
        );
    }

    #[test]
    fn summary_record_exact() {
        static BOUNDS: &[f64] = &[1.0, 4.0];
        let mut reg = MetricsRegistry::new();
        reg.inc("aggregations");
        reg.set_gauge("in_flight", 2.5);
        reg.observe("staleness_rounds", BOUNDS, 3.0);
        let trace = BTreeMap::from([("upload", 5u64)]);
        let expected = format!(
            concat!(
                r#"{{"kind":"summary","v":1,"t_end":99,"rounds":7,"#,
                r#""counters":{{"aggregations":1}},"gauges":{{"in_flight":2.5}},"#,
                r#""histograms":{{"staleness_rounds":{{"count":1,"sum":3,"min":3,"max":3,"#,
                r#""p50":3,"p95":3,"counts":[0,1,0]}}}},"trace_events":{{"upload":5}},"#,
                r#""registry_digest":"{:016x}"}}"#
            ),
            reg.digest()
        );
        assert_eq!(summary_record(99.0, 7, &trace, &reg), expected);
    }
}
