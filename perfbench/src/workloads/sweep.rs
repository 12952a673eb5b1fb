//! `sweep`: the batch engine with no decode. An op builds two
//! computations from parts — a message-heavy `random_deposet` (topological
//! sort and clock fill) and an interval-heavy `pipelined_workload` (index
//! and Figure 2) — and runs the engine, detection and the fault sweep on
//! each; the query is control + detection. Both shapes sit in every op so
//! ops stay of equal shape.

use super::{count_engine, report_engine};
use crate::layers::{Layers, Spans};
use crate::verdict::{input_seed, Verdict};
use crate::{LayerReport, OpResult, Workload};
use pctl_core::verify::{sweep_faulty_run, FaultSweepReport};
use pctl_core::{OfflineOptions, PredicateEngine};
use pctl_deposet::generator::{pipelined_workload, random_deposet, CsConfig, RandomConfig};
use pctl_deposet::trace::Trace;
use pctl_deposet::{Deposet, DisjunctivePredicate, LocalPredicate};
use std::time::{Duration, Instant};

const PROCESSES: usize = 8;
const RANDOM_EVENTS: usize = 6000;
/// Send probability of the random computation (the default is 0.3).
const SEND_PROB: f64 = 0.6;
/// Critical sections per process of the pipelined computation (`p`).
const SECTIONS: usize = 96;

/// What the fault sweep found, in comparable form.
#[derive(Debug, PartialEq)]
struct Audit {
    unwitnessed: Option<Vec<u32>>,
    clean: Option<Vec<u32>>,
    down_windows: usize,
}

impl Audit {
    fn of(r: &FaultSweepReport) -> Self {
        Audit {
            unwitnessed: r.unwitnessed_cut.as_ref().map(|g| g.indices().to_vec()),
            clean: r.clean_violation.as_ref().map(|g| g.indices().to_vec()),
            down_windows: r.down_windows.len(),
        }
    }
}

/// One computation, kept as the parts `Deposet::from_parts` consumes.
struct Computation {
    parts: Trace,
    pred: DisjunctivePredicate,
    witness: LocalPredicate,
    expected: (Verdict, Audit),
}

impl Computation {
    fn new(dep: Deposet, pred: DisjunctivePredicate, witness: LocalPredicate) -> Self {
        let eng = PredicateEngine::new(&dep, pred.clone());
        let expected = (
            Verdict::expected(&eng),
            Audit::of(&sweep_faulty_run(&dep, &witness)),
        );
        Computation {
            parts: Trace::from_deposet(&dep),
            pred,
            witness,
            expected,
        }
    }
}

/// The `sweep` workload.
pub struct Sweep {
    pairs: Vec<[Computation; 2]>,
}

impl Workload for Sweep {
    const BLOCK: usize = 8;

    fn setup(seed: u64) -> Result<Self, String> {
        let random = RandomConfig {
            processes: PROCESSES,
            events: RANDOM_EVENTS,
            send_prob: SEND_PROB,
            ..RandomConfig::default()
        };
        let pipelined = CsConfig {
            processes: PROCESSES,
            sections_per_process: SECTIONS,
            ..CsConfig::default()
        };
        let pairs = (0..Self::BLOCK)
            .map(|j| {
                [
                    Computation::new(
                        random_deposet(&random, input_seed(seed, 2 * j)),
                        DisjunctivePredicate::at_least_one(PROCESSES, "ok"),
                        LocalPredicate::var("ok"),
                    ),
                    Computation::new(
                        pipelined_workload(&pipelined, input_seed(seed, 2 * j + 1)),
                        DisjunctivePredicate::at_least_one_not(PROCESSES, "cs"),
                        LocalPredicate::not_var("cs"),
                    ),
                ]
            })
            .collect();
        Ok(Sweep { pairs })
    }

    fn op(&mut self, i: usize, spans: &mut Spans) -> OpResult {
        let pair = &self.pairs[i % self.pairs.len()];
        // `from_parts` consumes its parts: clone them before timing starts.
        let inputs = pair.each_ref().map(|c| (c.parts.clone(), c.pred.clone()));
        // Results and computations are checked and dropped after timing.
        let mut results = Vec::with_capacity(2);
        let mut deps = Vec::with_capacity(2);
        let mut query = Duration::ZERO;
        let t0 = Instant::now();
        for ((parts, pred), comp) in inputs.into_iter().zip(pair) {
            let built = spans.time("deposet.build_ms", || {
                Deposet::from_parts(parts.states, parts.events, parts.messages)
            });
            let dep = match built {
                Ok(dep) => dep,
                Err(e) => return OpResult::failed(t0.elapsed(), format!("from_parts: {e}")),
            };
            let eng = spans.time("engine.index_ms", || PredicateEngine::new(&dep, pred));
            let q = Instant::now();
            let control = spans.time("engine.control_ms", || {
                eng.control(OfflineOptions::default())
            });
            let cut = spans.time("engine.detect_ms", || eng.detect_violation());
            query += q.elapsed();
            let audit = spans.time("verify.sweep_ms", || sweep_faulty_run(&dep, &comp.witness));
            let got = (Verdict::new(control, cut), Audit::of(&audit));
            count_engine(spans, &dep, &eng, &got.0);
            results.push(got);
            drop(eng);
            deps.push(dep);
        }
        let op = t0.elapsed();
        let error = results
            .iter()
            .zip(pair)
            .find(|(got, c)| **got != c.expected)
            .map(|(got, c)| format!("verdict {got:?}, expected {:?}", c.expected));
        OpResult {
            op,
            query,
            work: 2,
            error,
        }
    }

    fn diagnostics(&mut self, layers: &Layers, out: &mut LayerReport) -> u64 {
        report_engine(layers, out);
        0
    }
}
