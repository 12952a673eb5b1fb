//! `load`: the `pctl control` / `pctl detect` path. An op decodes an
//! in-memory pretty trace with `trace::from_json`, builds the engine, and
//! runs control and detection; the query is control + detection.

use super::{count_engine, report_engine};
use crate::layers::{Layers, Spans};
use crate::verdict::{input_seed, Verdict};
use crate::{LayerReport, OpResult, Workload};
use pctl_core::{OfflineOptions, PredicateEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::trace::{self, Trace, TraceError};
use pctl_deposet::DisjunctivePredicate;
use std::time::Instant;

const PROCESSES: usize = 8;
const EVENTS: usize = 1000;
/// Decodes per size in the scaling diagnostic; the fastest counts, as the
/// one least disturbed by the rest of the machine.
const SCALING_REPS: usize = 3;

fn config(events: usize) -> RandomConfig {
    RandomConfig {
        processes: PROCESSES,
        events,
        ..RandomConfig::default()
    }
}

struct Input {
    text: String,
    expected: Verdict,
}

/// The `load` workload.
pub struct Load {
    inputs: Vec<Input>,
    pred: DisjunctivePredicate,
    seed: u64,
}

impl Workload for Load {
    const BLOCK: usize = 32;

    fn setup(seed: u64) -> Result<Self, String> {
        let pred = DisjunctivePredicate::at_least_one(PROCESSES, "ok");
        let inputs = (0..Self::BLOCK)
            .map(|j| {
                let dep = random_deposet(&config(EVENTS), input_seed(seed, j));
                let expected = Verdict::expected(&PredicateEngine::new(&dep, pred.clone()));
                Input {
                    text: trace::to_json(&dep),
                    expected,
                }
            })
            .collect();
        Ok(Load { inputs, pred, seed })
    }

    fn op(&mut self, i: usize, spans: &mut Spans) -> OpResult {
        let input = &self.inputs[i % self.inputs.len()];
        let pred = self.pred.clone();
        let t0 = Instant::now();
        // Traced ops split `from_json` into its two calls.
        let dep = if spans.traced() {
            spans
                .time("trace.parse_ms", || {
                    serde_json::from_str::<Trace>(&input.text)
                })
                .map_err(TraceError::from)
                .and_then(|t| spans.time("deposet.build_ms", || t.into_deposet()))
        } else {
            trace::from_json(&input.text)
        };
        let dep = match dep {
            Ok(dep) => dep,
            Err(e) => return OpResult::failed(t0.elapsed(), format!("decode: {e}")),
        };
        let eng = spans.time("engine.index_ms", || PredicateEngine::new(&dep, pred));
        let q = Instant::now();
        let control = spans.time("engine.control_ms", || {
            eng.control(OfflineOptions::default())
        });
        let cut = spans.time("engine.detect_ms", || eng.detect_violation());
        let query = q.elapsed();
        let op = t0.elapsed();
        let got = Verdict::new(control, cut);
        count_engine(spans, &dep, &eng, &got);
        spans.count("trace.parse_bytes", input.text.len() as f64);
        OpResult {
            op,
            query,
            work: 1,
            error: (got != input.expected)
                .then(|| format!("verdict {got:?}, expected {:?}", input.expected)),
        }
    }

    fn diagnostics(&mut self, layers: &Layers, out: &mut LayerReport) -> u64 {
        report_engine(layers, out);
        let parse_s = layers.layer_total_s("trace.parse_ms");
        out.set(
            "trace.parse_mb_per_s",
            layers.total("trace.parse_bytes") / parse_s / 1e6,
        );
        out.set(
            "trace.parse_share",
            parse_s * 1e3 / layers.ops as f64 / layers.mean_op_ms() * 100.0,
        );
        match parse_scaling(self.seed) {
            Some(scaling) => {
                out.set("trace.parse_scaling", scaling);
                0
            }
            None => {
                eprintln!("diagnostic failed: a scaling trace did not decode");
                1
            }
        }
    }
}

/// log₂ of the decode-time ratio between a `load`-shaped trace of twice
/// the events and one of the usual size: 1 for a linear decoder, 2 for a
/// quadratic one. `None` if either trace fails to decode.
fn parse_scaling(seed: u64) -> Option<f64> {
    let texts = [EVENTS, 2 * EVENTS].map(|events| {
        trace::to_json(&random_deposet(
            &config(events),
            input_seed(seed, Load::BLOCK + events),
        ))
    });
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..SCALING_REPS {
        for (text, t) in texts.iter().zip(&mut times) {
            let t0 = Instant::now();
            let decoded = serde_json::from_str::<Trace>(text);
            t.push(t0.elapsed().as_secs_f64());
            std::hint::black_box(decoded).ok()?;
        }
    }
    let [one, two] = times.map(|t| t.into_iter().fold(f64::INFINITY, f64::min));
    (one > 0.0).then(|| (two / one).log2())
}
