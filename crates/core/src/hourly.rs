//! Time-of-day analysis (§6.2, Figure 4, Table 5).
//!
//! The CAMPUS load is "utterly dominated ... by the daily rhythms of user
//! activity": hourly operation counts cycle with the work day, and
//! restricting statistics to peak hours (9am–6pm weekdays) cuts their
//! normalized variance by 4x or more. This module buckets a trace by
//! hour, produces the Figure 4 series, and computes the Table 5
//! mean/standard-deviation summary for all hours vs peak hours.

use crate::record::TraceRecord;
use crate::time::{hour_index, is_peak, HOUR};

/// Per-hour activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HourBucket {
    /// Total operations.
    pub ops: u64,
    /// READ operations.
    pub read_ops: u64,
    /// WRITE operations.
    pub write_ops: u64,
    /// Bytes read.
    pub bytes_read: u64,
    /// Bytes written.
    pub bytes_written: u64,
}

impl HourBucket {
    /// Adds another bucket's counters into this one.
    pub fn absorb(&mut self, other: &HourBucket) {
        self.ops += other.ops;
        self.read_ops += other.read_ops;
        self.write_ops += other.write_ops;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }

    /// Hourly read/write operation ratio; `None` when no writes occurred
    /// (the paper notes off-peak ratios "spike" when a few accesses skew
    /// the ratio, so callers decide how to plot empty denominators).
    pub fn rw_ratio(&self) -> Option<f64> {
        (self.write_ops > 0).then(|| self.read_ops as f64 / self.write_ops as f64)
    }
}

/// A trace bucketed into consecutive hours.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HourlySeries {
    /// Index of the first hour (hours since the trace epoch).
    pub first_hour: u64,
    /// One bucket per hour, contiguous from `first_hour`.
    pub buckets: Vec<HourBucket>,
}

/// Record-at-a-time accumulator behind [`HourlySeries::from_records`],
/// usable by one-pass multi-product consumers (the trace index).
/// `Clone` lets a live ingest snapshot its running buckets mid-stream.
#[derive(Debug, Clone, Default)]
pub struct HourlyBuilder {
    map: std::collections::BTreeMap<u64, HourBucket>,
}

impl HourlyBuilder {
    /// Folds one record into its hour bucket.
    pub fn observe(&mut self, r: &TraceRecord) {
        let b = self.map.entry(hour_index(r.micros)).or_default();
        b.ops += 1;
        if r.op.is_read() {
            b.read_ops += 1;
            b.bytes_read += u64::from(r.ret_count);
        } else if r.op.is_write() {
            b.write_ops += 1;
            b.bytes_written += u64::from(r.ret_count);
        }
    }

    /// Folds another builder's buckets into this one. Buckets are pure
    /// per-hour sums, so merging per-chunk builders in any order equals
    /// one pass over the whole trace; [`crate::index::PartialIndex`]
    /// relies on this.
    pub fn absorb(&mut self, other: HourlyBuilder) {
        for (k, b) in other.map {
            self.map.entry(k).or_default().absorb(&b);
        }
    }

    /// Produces the contiguous hourly series.
    pub fn finish(self) -> HourlySeries {
        let Some((&first, _)) = self.map.first_key_value() else {
            return HourlySeries::default();
        };
        let &last = self
            .map
            .last_key_value()
            .map(|(k, _)| k)
            .expect("non-empty");
        let mut buckets = vec![HourBucket::default(); (last - first + 1) as usize];
        for (k, v) in self.map {
            buckets[(k - first) as usize] = v;
        }
        HourlySeries {
            first_hour: first,
            buckets,
        }
    }
}

impl HourlySeries {
    /// Buckets records by hour. Records need not be sorted.
    pub fn from_records<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = &'a TraceRecord>,
    {
        let mut b = HourlyBuilder::default();
        for r in records {
            b.observe(r);
        }
        b.finish()
    }

    /// Iterates `(hour_start_micros, bucket)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &HourBucket)> {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, b)| ((self.first_hour + i as u64) * HOUR, b))
    }

    /// Computes the Table 5 summary over all hours or peak hours only.
    pub fn table5(&self, peak_only: bool) -> Table5Row {
        let selected: Vec<&HourBucket> = self
            .iter()
            .filter(|(t, _)| !peak_only || is_peak(*t))
            .map(|(_, b)| b)
            .collect();
        let stat =
            |f: &dyn Fn(&HourBucket) -> f64| MeanStd::from_samples(selected.iter().map(|b| f(b)));
        Table5Row {
            total_ops: stat(&|b| b.ops as f64),
            data_read_mb: stat(&|b| b.bytes_read as f64 / 1e6),
            read_ops: stat(&|b| b.read_ops as f64),
            data_written_mb: stat(&|b| b.bytes_written as f64 / 1e6),
            write_ops: stat(&|b| b.write_ops as f64),
            rw_op_ratio: MeanStd::from_samples(selected.iter().filter_map(|b| b.rw_ratio())),
            hours: selected.len(),
        }
    }
}

/// A mean and its standard deviation, with the paper's presentation of
/// the deviation as a percentage of the mean.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MeanStd {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
}

impl MeanStd {
    /// Computes mean and standard deviation from samples.
    pub fn from_samples<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let v: Vec<f64> = samples.into_iter().collect();
        if v.is_empty() {
            return Self::default();
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / v.len() as f64;
        Self {
            mean,
            std: var.sqrt(),
        }
    }

    /// The standard deviation as a percentage of the mean (Table 5's
    /// parenthesized numbers).
    pub fn std_pct(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.std / self.mean
        }
    }
}

/// One column of Table 5: hourly averages with normalized deviations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Table5Row {
    /// Total ops per hour.
    pub total_ops: MeanStd,
    /// MB read per hour.
    pub data_read_mb: MeanStd,
    /// Read ops per hour.
    pub read_ops: MeanStd,
    /// MB written per hour.
    pub data_written_mb: MeanStd,
    /// Write ops per hour.
    pub write_ops: MeanStd,
    /// Hourly read/write op ratio.
    pub rw_op_ratio: MeanStd,
    /// Number of hours included.
    pub hours: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{FileId, Op};
    use crate::time::{DAY, HOUR};

    fn rec(t: u64, op: Op, bytes: u32) -> TraceRecord {
        TraceRecord::new(t, op, FileId(1)).with_range(0, bytes)
    }

    #[test]
    fn empty_series() {
        let s = HourlySeries::from_records(std::iter::empty());
        assert!(s.buckets.is_empty());
        assert_eq!(s.table5(false).hours, 0);
    }

    #[test]
    fn buckets_are_contiguous() {
        let recs = [
            rec(HOUR / 2, Op::Read, 10),
            rec(3 * HOUR + 1, Op::Write, 20),
        ];
        let s = HourlySeries::from_records(recs.iter());
        assert_eq!(s.first_hour, 0);
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(s.buckets[0].read_ops, 1);
        assert_eq!(s.buckets[1].ops, 0);
        assert_eq!(s.buckets[3].write_ops, 1);
        assert_eq!(s.buckets[3].bytes_written, 20);
    }

    #[test]
    fn peak_filter_reduces_variance_for_diurnal_load() {
        // Simulate a strongly diurnal week: 100 ops in each peak hour,
        // 1 op in each off-peak hour.
        let mut recs = Vec::new();
        for hour in 0..(7 * 24u64) {
            let t = hour * HOUR + 1;
            let n = if is_peak(t) { 100 } else { 1 };
            for i in 0..n {
                recs.push(rec(t + i, Op::Read, 1));
            }
        }
        let s = HourlySeries::from_records(recs.iter());
        let all = s.table5(false);
        let peak = s.table5(true);
        assert_eq!(peak.hours, 45); // 9 hours x 5 weekdays
        assert!(peak.total_ops.std_pct() < all.total_ops.std_pct() / 4.0);
        assert!((peak.total_ops.mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn mean_std_basics() {
        let ms = MeanStd::from_samples([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((ms.mean - 5.0).abs() < 1e-9);
        assert!((ms.std - 2.0).abs() < 1e-9);
        assert!((ms.std_pct() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn multi_day_series_length() {
        let recs = [rec(0, Op::Read, 1), rec(2 * DAY, Op::Read, 1)];
        let s = HourlySeries::from_records(recs.iter());
        assert_eq!(s.buckets.len(), 49);
    }
}
