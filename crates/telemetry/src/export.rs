//! Snapshot rendering and the periodic exporter.
//!
//! Two render targets, both append/rewrite **files or stderr — never
//! stdout** (stdout carries the suite's byte-identity contract):
//!
//! - **JSON-lines**: one self-contained JSON object per tick,
//!   appended to a `.jsonl` file. Greppable, parseable, and the form
//!   the CI equivalence smoke asserts on.
//! - **Prometheus text exposition**: the latest snapshot rewritten in
//!   place (`<path>.prom` next to the JSONL file), ready for a scrape
//!   or `promtool check metrics`-style tooling.
//!
//! The exporter is a background thread sampling the registry at a
//! fixed interval; [`Exporter::stop`] writes one final snapshot and
//! joins, so short-lived runs still export exactly once.

use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use crate::registry::Registry;

/// Point-in-time values of every metric in a [`Registry`], sorted by
/// name (registration order never affects output).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` per counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` per gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, state)` per histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// State of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// True when no metric is registered at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// One JSON object (no trailing newline): `seq` and
    /// `unix_micros` are supplied by the caller so rendering itself
    /// is deterministic. Histograms serialize as
    /// `{"count":..,"sum":..,"buckets":[[le,count],..]}` with only
    /// non-empty buckets listed (`le` is the inclusive upper bound;
    /// the unbounded top bucket renders `le` as `null`).
    pub fn render_jsonl(&self, seq: u64, unix_micros: u64) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"seq\":{seq},\"unix_micros\":{unix_micros},\"counters\":{{"
        ));
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{v}", json_string(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json_string(name), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
                json_string(name),
                h.count,
                h.sum
            ));
            let mut first = true;
            for (b, n) in h.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                match bucket_upper_bound(b) {
                    Some(le) => out.push_str(&format!("[{le},{n}]")),
                    None => out.push_str(&format!("[null,{n}]")),
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus text exposition format (version 0.0.4): `# TYPE`
    /// comments, sanitized names (`nfstrace_` prefix, dots to
    /// underscores), histograms as cumulative `_bucket{le="..."}`
    /// series plus `_sum` and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", prom_f64(*v)));
        }
        for (name, h) in &self.histograms {
            let name = prom_name(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (b, n) in h.buckets.iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                cumulative += n;
                if let Some(le) = bucket_upper_bound(b) {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", h.sum));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` keeps a decimal point / exponent, so the token is
        // unambiguously a JSON number (and round-trips as f64).
        format!("{v:?}")
    } else {
        // JSON has no NaN/Inf; a missing measurement reads as null.
        "null".to_string()
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// `sniffer.frames` → `nfstrace_sniffer_frames`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 9);
    out.push_str("nfstrace_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Where and how often the [`Exporter`] writes.
#[derive(Clone, Debug)]
pub struct ExporterConfig {
    /// Sampling interval between snapshots.
    pub interval: Duration,
    /// JSONL file, appended one object per tick (created/truncated on
    /// spawn).
    pub jsonl_path: Option<PathBuf>,
    /// Prometheus text file, rewritten whole each tick.
    pub prometheus_path: Option<PathBuf>,
    /// Also write each JSONL line to stderr.
    pub stderr: bool,
}

impl Default for ExporterConfig {
    fn default() -> Self {
        ExporterConfig {
            interval: Duration::from_secs(10),
            jsonl_path: None,
            prometheus_path: None,
            stderr: false,
        }
    }
}

/// Background thread exporting periodic [`Snapshot`]s of a
/// [`Registry`]. Dropping without [`stop`](Exporter::stop) signals
/// the thread and detaches it; `stop` is the graceful path that
/// writes a final snapshot and surfaces any I/O error.
#[derive(Debug)]
pub struct Exporter {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<()>>>,
    registry: Registry,
}

impl Exporter {
    /// Start exporting `registry` per `config`. The JSONL file (if
    /// any) is created immediately, so a spawn that can't write fails
    /// here rather than silently in the background.
    pub fn spawn(registry: Registry, config: ExporterConfig) -> io::Result<Exporter> {
        let mut jsonl = match &config.jsonl_path {
            Some(p) => Some(File::create(p)?),
            None => None,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_registry = registry.clone();
        let handle = std::thread::Builder::new()
            .name("telemetry-export".to_string())
            .spawn(move || -> io::Result<()> {
                let mut seq = 0u64;
                loop {
                    // Sleep in short slices so stop() is prompt even
                    // at long intervals.
                    let tick_deadline = Instant::now() + config.interval;
                    let mut stopping = false;
                    while Instant::now() < tick_deadline {
                        if thread_stop.load(Ordering::Relaxed) {
                            stopping = true;
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    seq += 1;
                    let snap = thread_registry.snapshot();
                    let unix_micros = SystemTime::now()
                        .duration_since(UNIX_EPOCH)
                        .map(|d| d.as_micros() as u64)
                        .unwrap_or(0);
                    let line = snap.render_jsonl(seq, unix_micros);
                    if let Some(f) = jsonl.as_mut() {
                        writeln!(f, "{line}")?;
                        f.flush()?;
                    }
                    if config.stderr {
                        eprintln!("{line}");
                    }
                    if let Some(p) = &config.prometheus_path {
                        std::fs::write(p, snap.render_prometheus())?;
                    }
                    if stopping {
                        return Ok(());
                    }
                }
            })?;
        Ok(Exporter {
            stop,
            handle: Some(handle),
            registry,
        })
    }

    /// Signal the thread, wait for its final snapshot write, and
    /// return that final snapshot (for an end-of-run summary).
    pub fn stop(mut self) -> io::Result<Snapshot> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| io::Error::other("telemetry export thread panicked"))??;
        }
        Ok(self.registry.snapshot())
    }
}

impl Drop for Exporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let reg = Registry::new();
        reg.counter("a.hits").add(3);
        reg.gauge("a.rate").set(0.5);
        let h = reg.histogram("a.micros");
        h.record(0);
        h.record(5);
        h.record(u64::MAX);
        reg.snapshot()
    }

    #[test]
    fn jsonl_lists_only_nonempty_buckets() {
        let line = sample().render_jsonl(1, 42);
        assert!(line.contains("\"a.hits\":3"));
        assert!(line.contains("\"a.rate\":0.5"));
        assert!(line.contains("[0,1]"));
        assert!(line.contains("[7,1]"));
        assert!(line.contains("[null,1]"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative_and_end_at_inf() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE nfstrace_a_micros histogram\n"));
        assert!(text.contains("nfstrace_a_micros_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("nfstrace_a_micros_bucket{le=\"7\"} 2\n"));
        assert!(text.contains("nfstrace_a_micros_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("nfstrace_a_micros_count 3\n"));
        assert!(text.contains("nfstrace_a_hits 3\n"));
    }

    #[test]
    fn nonfinite_gauges_render_as_null_json() {
        let reg = Registry::new();
        reg.gauge("g").set(f64::NAN);
        let snap = reg.snapshot();
        assert!(snap.render_jsonl(1, 0).contains("\"g\":null"));
        assert!(snap.render_prometheus().contains("nfstrace_g NaN\n"));
    }

    #[test]
    fn exporter_writes_final_snapshot_on_stop() {
        let dir = std::env::temp_dir().join(format!("nfstrace-telemetry-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let jsonl = dir.join("stop.jsonl");
        let prom = dir.join("stop.prom");
        let reg = Registry::new();
        reg.counter("x").add(7);
        let exporter = Exporter::spawn(
            reg,
            ExporterConfig {
                interval: Duration::from_secs(3600),
                jsonl_path: Some(jsonl.clone()),
                prometheus_path: Some(prom.clone()),
                stderr: false,
            },
        )
        .unwrap();
        let snap = exporter.stop().unwrap();
        assert_eq!(snap.counter("x"), Some(7));
        let lines = std::fs::read_to_string(&jsonl).unwrap();
        assert!(lines.lines().count() >= 1);
        assert!(lines.contains("\"x\":7"));
        assert!(std::fs::read_to_string(&prom)
            .unwrap()
            .contains("nfstrace_x 7\n"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
