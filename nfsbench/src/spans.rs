//! Spans recorded from outside the program: the harness wraps each
//! call into a layer's public API, keeps the spans in memory, and
//! writes them as JSON lines when the run ends.
//!
//! A span is `{name, start, end, parent, pass}` — nanoseconds since the
//! tracer's epoch; `parent` is the index (line number, from 0) of the
//! enclosing span or `null`; spans of one pass share its `pass` id.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub pass: u32,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.iter().rev().nth(1).copied(),
            pass: self.pass,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let id = self.open.pop().expect("exit without a matching enter");
        self.spans[id].end = end;
    }

    /// Records a finished span from two instants (for boundaries the
    /// harness crosses inside a callback, where `enter`/`exit` would
    /// need the tracer borrowed twice).
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start: start.duration_since(self.epoch).as_nanos() as u64,
            end: end.duration_since(self.epoch).as_nanos() as u64,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
    }

    /// Starts the next pass: spans opened from now on carry its id.
    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"pass\":{}}}",
                s.name, s.start, s.end, parent, s.pass
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_one_and_carry_their_pass() {
        let mut t = Tracer::new();
        for _ in 0..2 {
            t.enter("pass");
            t.enter("net");
            let inside = Instant::now();
            t.record("rpc", inside, Instant::now());
            t.exit();
            t.exit();
            t.next_pass();
        }
        assert_eq!(t.spans.len(), 6);
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(1), None, Some(3), Some(4)]);
        assert_eq!(t.spans[5].pass, 1);
        let net = &t.spans[1];
        assert!(net.start <= t.spans[2].start && t.spans[2].end <= net.end);

        std::fs::create_dir_all(".bench_out").unwrap();
        let path = Path::new(".bench_out/test-spans.jsonl");
        t.write_jsonl(path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).ok();
        assert_eq!(text.lines().count(), 6);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .starts_with("{\"name\":\"pass\",\"start\":"));
        assert!(text
            .lines()
            .nth(1)
            .unwrap()
            .contains("\"parent\":0,\"pass\":0}"));
    }
}
