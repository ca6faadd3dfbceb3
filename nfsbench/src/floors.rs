//! The composite-floor estimator.
//!
//! A workload is a fixed corpus cut into fixed *units* of work; a run
//! repeats the corpus as *passes*. Unit `j` is timed once per pass and
//! keeps the **minimum** over passes: interference from the machine
//! only ever adds time, and a 0.1–100 ms unit is short enough that some
//! pass sees it undisturbed even when no whole pass is. Throughput
//! metrics divide by the **sum** of the unit values; latency metrics
//! take a **quantile** over them. Pass totals are kept too, so the run
//! can report how disturbed it was (`bench.pass_median_over_floor`).
//!
//! The minimum needs a sharp lower edge. A unit in which two threads
//! hand work to each other through the kernel has none: the order the
//! scheduler happens to run them in moves it by a third either way, in
//! episodes that outlast a pass, and its minimum over a run is the luck
//! of that run. Such units are declared with [`Floors::medians_for`] and
//! keep the **median** over passes, which for them repeats several times
//! better (README.md has the measurements).

use std::fmt;
use std::ops::Range;

/// A pass observed a different number of units than the first pass: the
/// corpus is not fixed, so per-unit minima would compare different work.
#[derive(Debug, PartialEq, Eq)]
pub struct UnitCountMismatch {
    pub pass: usize,
    pub expected: usize,
    pub got: usize,
}

impl fmt::Display for UnitCountMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pass {} observed {} units, the first pass {}",
            self.pass, self.got, self.expected
        )
    }
}

impl std::error::Error for UnitCountMismatch {}

#[derive(Debug, Default)]
pub struct Floors {
    /// Per unit, one `(wall, cpu)` sample per pass.
    samples: Vec<Vec<(u64, u64)>>,
    /// Units valued by their median over passes, not their minimum.
    median_units: Range<usize>,
    /// Units observed in the open pass, and their wall total.
    seen: usize,
    open_wall: u64,
    pass_wall: Vec<u64>,
}

impl Floors {
    pub fn new() -> Self {
        Self::default()
    }

    /// Values `units` by their median over passes (see the module
    /// comment); every other unit keeps its minimum.
    pub fn medians_for(mut self, units: Range<usize>) -> Self {
        self.median_units = units;
        self
    }

    /// Records unit `unit` of the open pass. The first pass defines the
    /// units (in order); later passes add a sample to each.
    ///
    /// # Panics
    ///
    /// If the first pass skips an index, which is a bug in the caller.
    pub fn observe(&mut self, unit: usize, wall_ns: u64, cpu_ns: u64) {
        if self.pass_wall.is_empty() {
            assert_eq!(
                unit,
                self.samples.len(),
                "the first pass defines units in order"
            );
            self.samples.push(vec![(wall_ns, cpu_ns)]);
        } else if let Some(samples) = self.samples.get_mut(unit) {
            samples.push((wall_ns, cpu_ns));
        }
        // An out-of-range unit of a later pass is counted, so that
        // `end_pass` reports the mismatch.
        self.seen += 1;
        self.open_wall += wall_ns;
    }

    /// Closes the open pass.
    ///
    /// # Errors
    ///
    /// [`UnitCountMismatch`] when the pass did not observe exactly the
    /// first pass's units.
    pub fn end_pass(&mut self) -> Result<(), UnitCountMismatch> {
        let got = std::mem::take(&mut self.seen);
        let wall = std::mem::take(&mut self.open_wall);
        if got != self.samples.len() {
            return Err(UnitCountMismatch {
                pass: self.pass_wall.len(),
                expected: self.samples.len(),
                got,
            });
        }
        self.pass_wall.push(wall);
        Ok(())
    }

    pub fn passes(&self) -> usize {
        self.pass_wall.len()
    }

    pub fn units(&self) -> usize {
        self.samples.len()
    }

    /// The value of `unit` on the clock `pick` selects.
    fn value(&self, unit: usize, pick: fn(&(u64, u64)) -> u64) -> f64 {
        let samples: Vec<u64> = self.samples[unit].iter().map(pick).collect();
        if self.median_units.contains(&unit) {
            quantile(&samples, 0.5)
        } else {
            samples.into_iter().min().unwrap_or(0) as f64
        }
    }

    fn walls(&self, units: Range<usize>) -> Vec<f64> {
        units.map(|u| self.value(u, |s| s.0)).collect()
    }

    /// Sum of the units' wall values, nanoseconds.
    pub fn sum_wall(&self) -> f64 {
        self.walls(0..self.units()).iter().sum()
    }

    /// Sum of the units' CPU values, nanoseconds.
    pub fn sum_cpu(&self) -> f64 {
        (0..self.units()).map(|u| self.value(u, |s| s.1)).sum()
    }

    /// Quantile `q` over the wall values of `units`, nanoseconds.
    pub fn quantile_wall(&self, units: Range<usize>, q: f64) -> f64 {
        let mut values = self.walls(units);
        values.sort_by(f64::total_cmp);
        interpolate(&values, q)
    }

    /// Median pass total over the sum of the unit values: 1.0 on an
    /// idle machine, larger the more the run was disturbed.
    pub fn pass_median_over_floor(&self) -> f64 {
        quantile(&self.pass_wall, 0.5) / self.sum_wall().max(1.0)
    }

    /// Interquartile range of the pass totals, percent of their median.
    pub fn pass_iqr_pct(&self) -> f64 {
        let median = quantile(&self.pass_wall, 0.5).max(1.0);
        (quantile(&self.pass_wall, 0.75) - quantile(&self.pass_wall, 0.25)) / median * 100.0
    }
}

/// Linear-interpolation quantile of sorted `values` (0 when empty).
pub fn interpolate(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Linear-interpolation quantile of unsorted `values` (0 when empty).
pub fn quantile(values: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sorted.sort_by(f64::total_cmp);
    interpolate(&sorted, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::SplitMix;

    /// 200 units of 0.1–20 ms; every pass, slow episodes (×1.4) cover
    /// 40 % of the pass in contiguous stretches, and every sample
    /// carries up to 0.5 % of positive jitter. The floor must recover
    /// the true cost within 1 % although no pass ever runs undisturbed.
    #[test]
    fn slow_episodes_over_40_percent_of_every_pass_leave_the_floor_within_1_percent() {
        let mut rng = SplitMix::new(11);
        let truth: Vec<u64> = (0..200).map(|_| 100_000 + rng.below(19_900_000)).collect();
        let mut floors = Floors::new();
        for _ in 0..24 {
            // Two episodes of 20 % of the units each.
            let starts = [rng.below(160) as usize, rng.below(160) as usize];
            let mut slow_units = 0;
            for (j, &t) in truth.iter().enumerate() {
                let slow = starts.iter().any(|&s| (s..s + 40).contains(&j));
                slow_units += usize::from(slow);
                let jitter = 1.0 + rng.below(5_000) as f64 / 1e6;
                let factor = if slow { 1.4 } else { 1.0 };
                floors.observe(j, (t as f64 * factor * jitter) as u64, t);
            }
            assert!(
                slow_units >= 40,
                "episodes cover at least 20 % even when they overlap"
            );
            floors.end_pass().unwrap();
        }
        let true_sum = truth.iter().sum::<u64>() as f64;
        let err = floors.sum_wall() / true_sum - 1.0;
        assert!(
            (0.0..0.01).contains(&err),
            "floor off by {:.3} %",
            err * 100.0
        );
        // The pass median is far off, which is why it is not the estimator.
        assert!(floors.pass_median_over_floor() > 1.08);
        let p50 = floors.quantile_wall(0..200, 0.5) / quantile(&truth, 0.5);
        assert!((1.0..1.01).contains(&p50), "median floor off: {p50}");
        assert_eq!(floors.sum_cpu(), true_sum);
    }

    #[test]
    fn median_units_keep_their_median_and_the_others_their_minimum() {
        let mut floors = Floors::new().medians_for(0..1);
        for (a, b) in [(30, 7), (10, 9), (20, 8)] {
            floors.observe(0, a, a + 1);
            floors.observe(1, b, b + 1);
            floors.end_pass().unwrap();
        }
        assert_eq!(floors.sum_wall(), 20.0 + 7.0);
        assert_eq!(floors.sum_cpu(), 21.0 + 8.0);
        assert_eq!(floors.quantile_wall(1..2, 0.5), 7.0);
    }

    #[test]
    fn a_pass_with_a_different_unit_count_is_a_hard_error() {
        let mut floors = Floors::new();
        for j in 0..3 {
            floors.observe(j, 10, 10);
        }
        floors.end_pass().unwrap();
        floors.observe(0, 9, 9);
        floors.observe(1, 9, 9);
        assert_eq!(
            floors.end_pass(),
            Err(UnitCountMismatch {
                pass: 1,
                expected: 3,
                got: 2
            })
        );
        for j in 0..4 {
            floors.observe(j, 9, 9);
        }
        assert_eq!(floors.end_pass().unwrap_err().got, 4);
        assert_eq!(floors.passes(), 1, "a rejected pass is not counted");
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[4, 2], 0.5), 3.0);
        assert_eq!(quantile(&[1, 2, 3, 4, 5], 0.99), 4.96);
    }
}
