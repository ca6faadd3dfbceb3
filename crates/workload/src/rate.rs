//! The diurnal/weekly activity rhythm (§6.2, Figure 4).
//!
//! "Peak load periods \[are\] highly correlated with day of week and time
//! of day" on CAMPUS; EECS follows the same peak hours with more
//! variance plus off-hours batch activity. The model: a base rate
//! multiplied by an hour-of-day curve (low at night, high 9am–6pm) and a
//! weekend factor.

use nfstrace_core::time::{day_of_week, hour_of_day};

/// A diurnal/weekly rate multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalRate {
    /// Multiplier floor in the dead of night.
    pub night_floor: f64,
    /// Multiplier at the busiest hour.
    pub day_peak: f64,
    /// Factor applied on Saturday and Sunday.
    pub weekend_factor: f64,
}

impl Default for DiurnalRate {
    fn default() -> Self {
        DiurnalRate {
            night_floor: 0.08,
            day_peak: 1.0,
            weekend_factor: 0.35,
        }
    }
}

impl DiurnalRate {
    /// The multiplier at `micros` (piecewise by hour, smooth enough for
    /// Figure 4's shape).
    pub fn at(&self, micros: u64) -> f64 {
        let h = hour_of_day(micros) as f64;
        // A raised-cosine bump centered at 13:30, wide enough that
        // 9:00–18:00 sits near the top.
        let phase = (h - 13.5) / 12.0 * std::f64::consts::PI;
        let bump = 0.5 * (1.0 + phase.cos());
        let shaped = self.night_floor + (self.day_peak - self.night_floor) * bump.powf(1.5);
        let dow = day_of_week(micros);
        if dow == 0 || dow == 6 {
            shaped * self.weekend_factor
        } else {
            shaped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfstrace_core::time::{DAY, HOUR};

    #[test]
    fn weekday_peak_beats_night() {
        let r = DiurnalRate::default();
        let monday = DAY;
        let noon = r.at(monday + 13 * HOUR);
        let night = r.at(monday + 3 * HOUR);
        assert!(noon > 4.0 * night, "noon={noon} night={night}");
    }

    #[test]
    fn weekend_suppressed() {
        let r = DiurnalRate::default();
        let sat_noon = r.at(6 * DAY + 13 * HOUR);
        let wed_noon = r.at(3 * DAY + 13 * HOUR);
        assert!(sat_noon < 0.5 * wed_noon);
    }

    #[test]
    fn rate_stays_positive_and_bounded() {
        let r = DiurnalRate::default();
        for h in 0..(7 * 24) {
            let v = r.at(h as u64 * HOUR + 1800 * 1_000_000);
            assert!(v > 0.0 && v <= 1.0, "hour {h}: {v}");
        }
    }

    #[test]
    fn peak_hours_are_near_the_top() {
        let r = DiurnalRate::default();
        let mon = DAY;
        for h in [10u64, 12, 14, 16] {
            assert!(r.at(mon + h * HOUR) > 0.55, "hour {h}");
        }
    }
}
