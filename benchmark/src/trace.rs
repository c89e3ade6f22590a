//! In-memory spans around the calls the benchmark makes into each layer,
//! written out as Chrome trace-event JSON when the run ends.
//!
//! Spans are taken from outside the program: the benchmark reads the clock
//! before and after each public call, on the main thread or inside a rank's
//! step closure (which hands its timestamps back with its result). Every
//! per-layer metric of a traced run is computed from these spans or from
//! the program's own counters.

use pargcn_util::json::Json;
use std::time::Instant;

/// Main-thread spans carry this rank id.
pub const MAIN: i32 = -1;

/// One timed call: which layer call, on which rank, in which step.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub rank: i32,
    pub step: u64,
    /// Seconds since the tracer's origin.
    pub t0: f64,
    pub t1: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// The span store of one run. With `enabled` false nothing is recorded.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// The clock every span is measured against; rank closures copy it.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    pub fn record(&mut self, name: &'static str, rank: i32, step: u64, t0: f64, t1: f64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                rank,
                step,
                t0,
                t1,
            });
        }
    }

    /// Runs `f` on the main thread inside a span; returns its result and
    /// its duration in seconds (timed whether or not tracing is on).
    pub fn time<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = self.now();
        let r = f();
        let t1 = self.now();
        self.record(name, MAIN, step, t0, t1);
        (r, t1 - t0)
    }

    /// Durations of every span called `name`, in recording order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one track
    /// per rank, the main thread on track 0.
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.to_string())),
                    ("ph", Json::Str("X".into())),
                    ("pid", Json::Num(0.0)),
                    ("tid", Json::Num(f64::from(s.rank + 1))),
                    ("ts", Json::Num(s.t0 * 1e6)),
                    ("dur", Json::Num(s.seconds() * 1e6)),
                    ("args", Json::obj(vec![("step", Json::Num(s.step as f64))])),
                ])
            })
            .collect();
        Json::obj(vec![("traceEvents", Json::Arr(events))])
    }
}
