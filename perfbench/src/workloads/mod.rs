//! The four workloads. Every op in a workload has the same generator
//! shape; only the input seed varies, drawn from a pool generated at
//! set-up.

pub mod load;
pub mod sim;
pub mod stream;
pub mod sweep;

use crate::layers::{Layers, Spans};
use crate::verdict::Verdict;
use crate::LayerReport;
use pctl_core::PredicateEngine;
use pctl_deposet::Deposet;

/// Record the work counts of one engine run on `dep` into `spans`.
fn count_engine(spans: &mut Spans, dep: &Deposet, eng: &PredicateEngine<'_>, got: &Verdict) {
    spans.count("deposet.states", dep.total_states() as f64);
    spans.count("deposet.messages", dep.messages().len() as f64);
    spans.count("engine.intervals", eng.intervals().total() as f64);
    spans.count("engine.control_tuples", got.tuples() as f64);
    spans.count("engine.feasible", f64::from(u8::from(got.feasible())));
    spans.count("engine.controls", 1.0);
}

/// Report the counts [`count_engine`] recorded, per op.
fn report_engine(layers: &Layers, out: &mut LayerReport) {
    for name in [
        "deposet.states",
        "deposet.messages",
        "engine.intervals",
        "engine.control_tuples",
    ] {
        out.set(name, layers.per_op(name));
    }
    out.set(
        "engine.feasible_share",
        layers.total("engine.feasible") / layers.total("engine.controls") * 100.0,
    );
}
