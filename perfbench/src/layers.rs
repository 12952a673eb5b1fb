//! Spans taken from outside: timing around each public call an op makes,
//! and counts read off the calls' results.
//!
//! The calls an op times never nest, so a layer's self time is the sum of
//! its spans, and whatever the op spends between spans is `other`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One op's spans and counts; records nothing when the op is untraced.
pub struct Spans {
    traced: bool,
    times: Vec<(&'static str, Duration)>,
    counts: Vec<(&'static str, f64)>,
}

impl Spans {
    /// A recorder that only runs the calls.
    pub fn off() -> Self {
        Spans {
            traced: false,
            times: Vec::new(),
            counts: Vec::new(),
        }
    }

    /// A recorder that times every call.
    pub fn on() -> Self {
        Spans {
            traced: true,
            ..Spans::off()
        }
    }

    /// Whether this op is traced.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Run `f`, charging its wall time to `layer` when tracing.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.traced {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.times.push((layer, t0.elapsed()));
        out
    }

    /// Add `value` to this op's counter `name` when tracing.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.traced {
            self.counts.push((name, value));
        }
    }
}

/// The traced ops of a run, folded per layer.
#[derive(Default)]
pub struct Layers {
    /// Traced ops folded in.
    pub ops: usize,
    /// Each traced op's wall time, ms.
    pub op_ms: Vec<f64>,
    /// Per layer: total self time over all traced ops.
    times: BTreeMap<&'static str, Duration>,
    /// Per counter: one value per traced op that recorded it (summed
    /// within the op).
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Fold in one traced op that took `op` in all.
    pub fn add(&mut self, spans: Spans, op: Duration) {
        self.ops += 1;
        self.op_ms.push(op.as_secs_f64() * 1e3);
        for (layer, d) in spans.times {
            *self.times.entry(layer).or_default() += d;
        }
        let mut per_op: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, v) in spans.counts {
            *per_op.entry(name).or_default() += v;
        }
        for (name, v) in per_op {
            self.counts.entry(name).or_default().push(v);
        }
    }

    /// Mean traced op time, ms.
    pub fn mean_op_ms(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / self.ops as f64
    }

    /// Each layer's self time per op, in its metric's unit (`_us` layers
    /// in µs, the rest in ms).
    pub fn layer_means(&self) -> Vec<(&'static str, f64)> {
        self.times
            .iter()
            .map(|(&name, d)| {
                let scale = if name.ends_with("_us") { 1e6 } else { 1e3 };
                (name, d.as_secs_f64() * scale / self.ops as f64)
            })
            .collect()
    }

    /// Sum of every layer's self time per op, ms.
    pub fn sum_of_layers_ms(&self) -> f64 {
        self.times.values().map(Duration::as_secs_f64).sum::<f64>() * 1e3 / self.ops as f64
    }

    /// Total self time of `layer`, seconds.
    pub fn layer_total_s(&self, layer: &str) -> f64 {
        self.times.get(layer).map_or(0.0, Duration::as_secs_f64)
    }

    /// Per-op values of counter `name`.
    pub fn values(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Sum of counter `name` over the traced ops.
    pub fn total(&self, name: &str) -> f64 {
        self.values(name).iter().sum()
    }

    /// Counter `name` per traced op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.total(name) / self.ops as f64
    }

    /// Largest per-op value of counter `name`.
    pub fn max(&self, name: &str) -> f64 {
        self.values(name).iter().copied().fold(0.0, f64::max)
    }
}
