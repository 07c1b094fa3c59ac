//! Spans the harness records around its own calls into each layer, and
//! the named samples every per-layer metric is computed from.
//!
//! A span's duration is pushed as a sample under the span's name, so the
//! per-layer table and the Chrome trace written by `--trace-out` come from
//! the same measurements. Spans are kept in memory up to [`MAX_SPANS`];
//! samples are always kept.

use flagsim_telemetry::json::validate_chrome_trace;
use flagsim_telemetry::{SpanRecord, SpanSet};
use std::collections::BTreeMap;
use std::time::Instant;

/// Spans kept for `--trace-out`; later spans still feed the samples.
const MAX_SPANS: usize = 100_000;

/// The wall-clock interval of one timed call.
#[derive(Debug, Clone, Copy)]
pub struct Interval {
    pub start: Instant,
    pub end: Instant,
}

impl Interval {
    pub fn ns(&self) -> f64 {
        (self.end - self.start).as_nanos() as f64
    }
}

/// Run `f` and return its result with the interval it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Interval) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (
        out,
        Interval {
            start,
            end: Instant::now(),
        },
    )
}

/// The harness's span recorder and sample store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }
}

impl Tracer {
    /// Record `iv` as a span named `name` covering `calls` calls of one
    /// operation; the sample is nanoseconds per call.
    pub fn add(&mut self, name: &'static str, iv: Interval, calls: u64) {
        if self.spans.len() < MAX_SPANS {
            let ns_since = |t: Instant| (t - self.epoch).as_nanos() as u64;
            self.spans.push(SpanRecord {
                id: self.spans.len() as u64 + 1,
                parent: None,
                link: None,
                category: name.split('.').next().unwrap_or(name),
                name,
                track: "bench".to_owned(),
                process: String::new(),
                start_ns: ns_since(iv.start),
                end_ns: ns_since(iv.end),
                args: Vec::new(),
            });
        }
        self.record(name, iv.ns() / calls.max(1) as f64);
    }

    /// Time `f` as one span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_n(name, 1, f)
    }

    /// Time `f`, which makes `calls` calls of one operation.
    pub fn time_n<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        let (out, iv) = timed(f);
        self.add(name, iv, calls);
        out
    }

    /// Record a derived value or a count under `name`.
    pub fn record(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of the samples under `name`; an error names a sample
    /// the run never recorded.
    pub fn median(&self, name: &str) -> Result<f64, String> {
        quantile(self.samples(name), 0.5).ok_or_else(|| format!("no samples for {name}"))
    }

    /// The recorded spans as a validated Chrome trace.
    pub fn chrome_trace(&self) -> Result<String, String> {
        let text = SpanSet::from_records(self.spans.clone()).chrome_trace();
        validate_chrome_trace(&text).map_err(|e| format!("chrome trace: {e}"))?;
        Ok(text)
    }
}

/// The `q`-quantile of `xs` with linear interpolation between order
/// statistics; `None` for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.5));
        assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
    }

    #[test]
    fn spans_feed_samples_and_a_valid_chrome_trace() {
        let mut tr = Tracer::default();
        tr.time("grid.verify", || 1 + 1);
        tr.time_n("shard.wire.encode", 4, || ());
        assert_eq!(tr.samples("grid.verify").len(), 1);
        assert!(tr.median("shard.wire.encode").is_ok());
        assert!(tr.median("missing").is_err());
        let text = tr.chrome_trace().expect("valid trace");
        assert!(text.contains("grid.verify"));
    }
}
