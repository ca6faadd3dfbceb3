//! Round-trip tests for the exporter's two wire formats: the JSONL
//! line must parse back to exactly the snapshot that rendered it, and
//! the Prometheus text exposition must follow the exposition grammar
//! (typed families, cumulative buckets, `+Inf` closing each
//! histogram).
//!
//! The JSONL side reads each line back with a parser of its own, below,
//! for the JSON the exporter emits: objects keyed by strings with
//! escapes, arrays, numbers and `null`.

use nfstrace_telemetry::{bucket_upper_bound, Registry, BUCKETS};
use std::collections::BTreeMap;

/// A counter name that needs every escape the exporter writes: a
/// quote, a backslash and control characters.
const ESCAPED_NAME: &str = "odd.\"quoted\"\\path\u{1}\ttab";

/// A registry exercising every metric kind, with known values.
fn sample_registry() -> Registry {
    let registry = Registry::new();
    let frames = registry.counter("sniffer.frames");
    frames.add(12_345);
    registry.counter("live.records_emitted").add(7);
    registry.counter(ESCAPED_NAME).add(42);
    registry.gauge("sniffer.estimated_loss_rate").set(0.125);
    registry.gauge("store.compression_ratio").set(0.41);
    let h = registry.histogram("query.replay_micros");
    for v in [0u64, 1, 3, 900, 1 << 20] {
        h.record(v);
    }
    registry
}

/// A parsed JSON value. A number keeps its token, so an integer reads
/// back exactly, whatever its size.
#[derive(Debug)]
enum Json {
    Null,
    Num(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn field(&self, key: &str) -> &Json {
        self.as_obj()
            .get(key)
            .unwrap_or_else(|| panic!("no field {key:?}"))
    }

    fn as_obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(map) => map,
            other => panic!("expected object, got {other:?}"),
        }
    }

    fn as_arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("expected array, got {other:?}"),
        }
    }

    fn as_u64(&self) -> u64 {
        match self {
            Json::Num(token) => token
                .parse()
                .unwrap_or_else(|_| panic!("{token} is not an integer")),
            other => panic!("expected integer, got {other:?}"),
        }
    }

    fn as_f64(&self) -> f64 {
        match self {
            Json::Num(token) => token.parse().expect("number token"),
            other => panic!("expected number, got {other:?}"),
        }
    }
}

/// Parses one JSON document; the error names the byte offset of the
/// first problem.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser { text, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != text.len() {
        return Err(parser.err("trailing characters"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.bump() != Some(b':') {
                        return Err(p.err("expected ':'"));
                    }
                    map.insert(key, p.value()?);
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'n') if self.text[self.pos..].starts_with("null") => {
                self.pos += 4;
                Ok(Json::Null)
            }
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let token = &self.text[start..self.pos];
                token
                    .parse::<f64>()
                    .map_err(|_| self.err(&format!("bad number {token:?}")))?;
                Ok(Json::Num(token.to_string()))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses `item`s separated by commas up to `close`, starting at
    /// the opening bracket.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b) if b == close => return Ok(()),
                _ => return Err(self.err("expected ',' or a closing bracket")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bump() != Some(b'"') {
            return Err(self.err("expected a string"));
        }
        let mut out = String::new();
        loop {
            // A run without quotes, escapes or control bytes ends at an
            // ASCII byte, so it is whole UTF-8.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => {
                    let c = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            self.pos += 4;
                            char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    out.push(c);
                }
                _ => return Err(self.err("unterminated string or raw control byte")),
            }
        }
    }
}

#[test]
fn jsonl_line_parses_back_to_the_snapshot() {
    let registry = sample_registry();
    let snapshot = registry.snapshot();
    let line = snapshot.render_jsonl(3, 1_700_000_000_000_000);
    let v = parse_json(&line).expect("exported line is valid JSON");

    assert_eq!(v.field("seq").as_u64(), 3);
    assert_eq!(v.field("unix_micros").as_u64(), 1_700_000_000_000_000);
    let counters = v.field("counters").as_obj();
    assert_eq!(counters.len(), snapshot.counters.len());
    for (name, value) in &snapshot.counters {
        assert_eq!(
            counters.get(name).expect("counter present").as_u64(),
            *value,
            "counter {name}"
        );
    }
    // The quote, backslash and control characters were escaped on the
    // way out and read back as the very name registered.
    assert_eq!(counters.get(ESCAPED_NAME).map(Json::as_u64), Some(42));
    let gauges = v.field("gauges").as_obj();
    for (name, value) in &snapshot.gauges {
        let parsed = gauges.get(name).expect("gauge present").as_f64();
        assert!((parsed - value).abs() < 1e-12, "gauge {name}");
    }
    let histograms = v.field("histograms").as_obj();
    for (name, h) in &snapshot.histograms {
        let entry = histograms.get(name).expect("histogram present");
        assert_eq!(entry.field("count").as_u64(), h.count);
        assert_eq!(entry.field("sum").as_u64(), h.sum);
        // The sparse `[le, count]` pairs reconstruct the dense array.
        let mut dense = [0u64; BUCKETS];
        for pair in entry.field("buckets").as_arr() {
            let [le, count] = pair.as_arr() else {
                panic!("{name} bucket entry is not a pair");
            };
            let idx = match le {
                Json::Null => BUCKETS - 1,
                le => {
                    let le = le.as_u64();
                    (0..BUCKETS)
                        .find(|&i| bucket_upper_bound(i) == Some(le))
                        .expect("bucket edge maps to an index")
                }
            };
            dense[idx] = count.as_u64();
        }
        assert_eq!(dense, h.buckets, "{name} buckets");
    }
}

#[test]
fn prometheus_exposition_follows_the_grammar() {
    let registry = sample_registry();
    let snapshot = registry.snapshot();
    let text = snapshot.render_prometheus();

    let mut typed = 0usize;
    for line in text.lines() {
        assert!(!line.is_empty(), "exposition has no blank lines");
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let family = parts.next().expect("family name");
            let kind = parts.next().expect("family kind");
            assert!(family.starts_with("nfstrace_"), "family {family:?}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind {kind:?}"
            );
            typed += 1;
        } else {
            // `name value` or `name{label="..."} value` with a
            // float-parseable value and a clean metric-name charset.
            let (name_part, value_part) = line.rsplit_once(' ').expect("metric line has a value");
            let bare = &name_part[..name_part.find('{').unwrap_or(name_part.len())];
            assert!(
                !bare.is_empty()
                    && bare
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "metric name {bare:?} breaks the exposition charset"
            );
            assert!(bare.starts_with("nfstrace_"), "metric {bare:?} unprefixed");
            assert!(
                value_part.parse::<f64>().is_ok(),
                "unparseable sample value {value_part:?} in {line:?}"
            );
        }
    }
    // One typed family per metric.
    assert_eq!(
        typed,
        snapshot.counters.len() + snapshot.gauges.len() + snapshot.histograms.len()
    );

    // Histogram families: cumulative nondecreasing buckets closed by a
    // `+Inf` bucket equal to `_count`.
    for (name, h) in &snapshot.histograms {
        let family = format!(
            "nfstrace_{}",
            name.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
        );
        let mut last = 0u64;
        let mut inf = None;
        let mut count = None;
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (lhs, value) = line.rsplit_once(' ').expect("metric line");
            if let Some(le) = lhs
                .strip_prefix(&format!("{family}_bucket{{le=\""))
                .and_then(|r| r.strip_suffix("\"}"))
            {
                let cumulative: u64 = value.parse().expect("bucket count");
                assert!(cumulative >= last, "{name}: cumulative buckets decreased");
                last = cumulative;
                if le == "+Inf" {
                    inf = Some(cumulative);
                }
            } else if lhs == format!("{family}_count") {
                count = Some(value.parse::<u64>().expect("count"));
            }
        }
        assert_eq!(inf, Some(h.count), "{name}: +Inf bucket covers everything");
        assert_eq!(count, Some(h.count), "{name}: _count matches");
    }
}
