//! RAII stage spans: time a scope, record microseconds on drop.

use std::time::Instant;

use crate::histogram::Histogram;

/// Records elapsed wall-clock microseconds into a [`Histogram`] when
/// dropped. Construct via [`SpanTimer::start`] or the
/// [`span!`](macro@crate::span) macro; bind it to a named variable
/// (`let _span = ...`) so it lives to the end of the stage.
///
/// The timer itself costs one `Instant::now()` on each end and a
/// single lock-free histogram record — cheap enough for per-batch and
/// per-query stages (it is deliberately *not* used per record).
#[derive(Debug)]
pub struct SpanTimer {
    hist: Histogram,
    started: Instant,
}

impl SpanTimer {
    /// Start timing into `hist`.
    pub fn start(hist: Histogram) -> Self {
        SpanTimer {
            hist,
            started: Instant::now(),
        }
    }
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed().as_micros() as u64);
    }
}

#[cfg(test)]
mod tests {
    use crate::Registry;

    #[test]
    fn span_records_once_on_drop() {
        let reg = Registry::new();
        {
            let _span = crate::span!(reg, "stage_micros");
        }
        {
            let _span = crate::span!(reg.histogram("stage_micros"));
        }
        assert_eq!(reg.histogram("stage_micros").snapshot().count, 2);
    }
}
