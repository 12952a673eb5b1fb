//! `sim`: the simulate → trace path. An op runs the hardened anti-token
//! protocol under 5% uniform message loss and encodes the run's trace with
//! `trace::to_json`; the query is the `sweep_faulty_run` audit. An op
//! passes when every entry completed, the run went quiescent and the audit
//! found no clean violation.

use crate::layers::{Layers, Spans};
use crate::verdict::input_seed;
use crate::{LayerReport, OpResult, Workload};
use pctl_core::online::ft::FtParams;
use pctl_core::online::PeerSelect;
use pctl_core::verify::sweep_faulty_run;
use pctl_deposet::trace;
use pctl_deposet::LocalPredicate;
use pctl_mutex::{run_ft_antitoken, WorkloadConfig};
use pctl_sim::{FaultPlan, StopReason};
use std::time::Instant;

const PROCESSES: usize = 8;
const ENTRIES: u32 = 100;
const LOSS: f64 = 0.05;
/// Run seed of the warm-up ops. `sim` has no inputs to generate, so its
/// set-up is the warm-up; run lengths vary widely with the seed, so the
/// warm-up runs the same configurations whatever the run seed is, and
/// every run's set-up is the same work.
const WARMUP_SEED: u64 = 0;

/// The simulator's fault counters and the per-layer metric each feeds.
const FAULTS: &[(&str, &str)] = &[
    ("msgs_dropped", "sim.msgs_dropped"),
    ("msgs_duplicated", "sim.msgs_duplicated"),
    ("retransmissions", "sim.retransmissions"),
    ("crashes", "sim.crashes"),
    ("restarts", "sim.restarts"),
    ("rejoins", "sim.rejoins"),
    ("regenerations", "sim.regenerations"),
    ("aborted_cs", "sim.aborted_cs"),
];

/// The `sim` workload. Its inputs are configurations that differ only in
/// their seed, drawn from the run seed; every op runs a distinct one, so a
/// run samples the spread of run lengths rather than a fixed few.
pub struct Sim {
    seed: u64,
    witness: LocalPredicate,
}

fn simulate(cfg: &WorkloadConfig) -> pctl_sim::SimResult {
    run_ft_antitoken(
        cfg,
        PeerSelect::NextInRing,
        FtParams::default(),
        FaultPlan::uniform_loss(LOSS),
    )
}

impl Workload for Sim {
    const BLOCK: usize = 16;

    fn setup(seed: u64) -> Result<Self, String> {
        Ok(Sim {
            seed,
            witness: LocalPredicate::not_var("cs"),
        })
    }

    fn op(&mut self, i: usize, spans: &mut Spans) -> OpResult {
        self.run(input_seed(self.seed, i), spans)
    }

    fn warm_up(&mut self, i: usize) -> OpResult {
        self.run(input_seed(WARMUP_SEED, i), &mut Spans::off())
    }

    fn diagnostics(&mut self, layers: &Layers, out: &mut LayerReport) -> u64 {
        out.set(
            "sim.events_per_s",
            layers.total("sim.events") / layers.layer_total_s("sim.run_ms"),
        );
        out.set(
            "trace.encode_mb_per_s",
            layers.total("trace.encode_bytes") / layers.layer_total_s("trace.encode_ms") / 1e6,
        );
        for name in ["sim.arena_high_water", "sim.wheel_high_water"] {
            out.set(name, layers.max(name));
        }
        for &(_, metric) in FAULTS {
            out.set(metric, layers.per_op(metric));
        }
        0
    }
}

impl Sim {
    /// One op: simulate the configuration seeded `seed`, encode its trace
    /// and audit it.
    fn run(&self, seed: u64, spans: &mut Spans) -> OpResult {
        let cfg = WorkloadConfig {
            processes: PROCESSES,
            entries_per_process: ENTRIES,
            seed,
            ..WorkloadConfig::default()
        };
        let t0 = Instant::now();
        let run = spans.time("sim.run_ms", || simulate(&cfg));
        let json = spans.time("trace.encode_ms", || trace::to_json(&run.deposet));
        let q = Instant::now();
        let audit = spans.time("verify.sweep_ms", || {
            sweep_faulty_run(&run.deposet, &self.witness)
        });
        let query = q.elapsed();
        let op = t0.elapsed();
        spans.count("trace.encode_bytes", json.len() as f64);
        spans.count("sim.events", run.core.events_dispatched as f64);
        spans.count("sim.arena_high_water", run.core.arena_high_water as f64);
        spans.count("sim.wheel_high_water", run.core.wheel_high_water as f64);
        for &(counter, metric) in FAULTS {
            spans.count(metric, run.metrics.counter(counter) as f64);
        }
        let entries = run.metrics.counter("entries");
        let error = if run.stopped != StopReason::Quiescent {
            Some(format!("run stopped on {:?}", run.stopped))
        } else if entries != PROCESSES as u64 * u64::from(ENTRIES) {
            Some(format!("{entries} entries completed"))
        } else if !audit.safe_modulo_crashes() {
            Some(format!("clean violation at {:?}", audit.clean_violation))
        } else {
            None
        };
        OpResult {
            op,
            query,
            work: 1,
            error,
        }
    }
}
