//! End-to-end benchmark of the predicate-control workspace's user paths.
//!
//! ```text
//! pctl-perfbench --workload <load|sweep|stream|sim> --seed <n>
//!                --seconds <s> --trace <0|1>
//! ```
//!
//! One thread drives one workload in a closed loop for `--seconds`, after
//! an untimed set-up that generates every input from `--seed` and computes
//! each input's expected verdict. Every op's verdict is checked against
//! that answer; a mismatch is a failed op. More set-ups, timed for
//! `setup_s`, run between blocks of ops in child processes of this program
//! (the same arguments plus `--setup-only 1`). Between ops, and around
//! every set-up, a fixed reference kernel reads the machine's speed, and
//! the end-to-end timings are scaled to its nominal speed (see `gauge`).
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics, timed
//! around the public calls each op makes. README.md describes the
//! workloads and the metric map.

mod gauge;
mod layers;
mod stats;
mod verdict;
mod workloads;

use gauge::{Gauge, Speed};
use layers::{Layers, Spans};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Share of a run's time spent on the set-ups made between timed ops,
/// child processes included. The machine's speed changes for seconds at
/// a time, so set-ups spread through the run meet the same speeds as the
/// ops.
const SETUP_SHARE: f64 = 0.2;
/// Fewest set-ups per benchmark run; a run too short for them between its
/// ops makes the rest after them.
const SETUP_MIN_REPS: usize = 21;
/// Flag that makes the benchmark time one set-up and print it, for
/// [`child_setup`].
const SETUP_ONLY: &str = "--setup-only";
/// Warm-up ops each set-up runs after generating its inputs.
const WARMUP_OPS: usize = 2;
/// Gauge samples taken just before a set-up, and again just after it.
const SETUP_GAUGES: usize = 2;
/// Op time between two gauge samples: an op starts with a sample when
/// this long has passed since the last one.
const GAUGE_GAP: Duration = Duration::from_millis(50);

/// One timed set-up.
struct Setup {
    /// Its time in seconds, scaled to the gauge's nominal speed.
    s: f64,
    /// Its wall time in seconds.
    raw_s: f64,
}

/// What one op measured.
pub struct OpResult {
    /// The whole op.
    pub op: Duration,
    /// Its verdict part, once the computation is built or ingested.
    pub query: Duration,
    /// Traces (or appended events, for `stream`) the op processed.
    pub work: u64,
    /// Why the op failed or its verdict differed from the expected one.
    pub error: Option<String>,
}

impl OpResult {
    fn failed(op: Duration, error: String) -> Self {
        OpResult {
            op,
            query: Duration::ZERO,
            work: 0,
            error: Some(error),
        }
    }
}

/// Count op `i` against `attempted`, and against `failed` with its reason
/// on standard error when it failed.
fn tally(i: usize, r: &OpResult, attempted: &mut u64, failed: &mut u64) {
    *attempted += 1;
    if let Some(e) = &r.error {
        *failed += 1;
        eprintln!("op {i} failed: {e}");
    }
}

/// One workload: generated inputs, the op that runs them, and the
/// traced run's extra diagnostics.
pub trait Workload: Sized {
    /// Ops per block: a traced run alternates untraced and traced blocks.
    /// Where ops cycle through a pool of inputs, this is the pool's size,
    /// so both halves see every input.
    const BLOCK: usize;

    /// Generate every input from `seed`, compute the expected verdicts,
    /// and start any service the op talks to.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Run op `i`, timing each public call into `spans` when it traces.
    fn op(&mut self, i: usize, spans: &mut Spans) -> OpResult;

    /// Warm-up op `i` of a set-up, untraced.
    fn warm_up(&mut self, i: usize) -> OpResult {
        self.op(i, &mut Spans::off())
    }

    /// Traced run only, after the timed ops: derive per-layer metrics from
    /// `layers` and run diagnostics outside the ops. Returns the number of
    /// diagnostic checks that failed.
    fn diagnostics(&mut self, layers: &Layers, out: &mut LayerReport) -> u64;
}

/// Per-layer metrics, each known by name in [`PER_LAYER`].
pub struct LayerReport(BTreeMap<&'static str, f64>);

impl LayerReport {
    fn new() -> Self {
        LayerReport(PER_LAYER.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// Set a per-layer metric.
    ///
    /// # Panics
    /// Panics on a name missing from [`PER_LAYER`]: the table and the
    /// workloads disagree, which is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("per-layer metric {name} is not in PER_LAYER")) = value;
    }
}

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer its workload does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("op.mean_ms", "ms"),
    ("op.other_ms", "ms"),
    ("tracing.overhead_pct", "%"),
    ("trace.parse_ms", "ms"),
    ("trace.parse_mb_per_s", "MB/s"),
    ("trace.parse_share", "%"),
    ("trace.parse_scaling", "log2"),
    ("trace.encode_ms", "ms"),
    ("trace.encode_mb_per_s", "MB/s"),
    ("deposet.build_ms", "ms"),
    ("deposet.states", "count"),
    ("deposet.messages", "count"),
    ("engine.index_ms", "ms"),
    ("engine.intervals", "count"),
    ("engine.control_ms", "ms"),
    ("engine.detect_ms", "ms"),
    ("engine.control_tuples", "count"),
    ("engine.feasible_share", "%"),
    ("verify.sweep_ms", "ms"),
    ("client.ingest_ms", "ms"),
    ("client.drain_ms", "ms"),
    ("client.append_rtt_us", "us"),
    ("client.busy_bounces", "count"),
    ("client.busy_share", "%"),
    ("client.detect_us", "us"),
    ("client.control_us", "us"),
    ("server.apply_p50_us", "us"),
    ("server.apply_p95_us", "us"),
    ("server.busy_total", "count"),
    ("server.query_cache_hits", "count"),
    ("session.apply_us", "us"),
    ("wire.codec_us", "us"),
    ("session.detect_us", "us"),
    ("sim.run_ms", "ms"),
    ("sim.events_per_s", "1/s"),
    ("sim.arena_high_water", "count"),
    ("sim.wheel_high_water", "count"),
    ("sim.msgs_dropped", "count"),
    ("sim.msgs_duplicated", "count"),
    ("sim.retransmissions", "count"),
    ("sim.crashes", "count"),
    ("sim.restarts", "count"),
    ("sim.rejoins", "count"),
    ("sim.regenerations", "count"),
    ("sim.aborted_cs", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            SETUP_ONLY if value == "1" => setup_only = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

fn main() {
    let result = parse_args().and_then(|args| match args.workload.as_str() {
        "load" => run::<workloads::load::Load>(&args),
        "sweep" => run::<workloads::sweep::Sweep>(&args),
        "stream" => run::<workloads::stream::Stream>(&args),
        "sim" => run::<workloads::sim::Sim>(&args),
        other => Err(format!(
            "unknown workload {other} (expected load, sweep, stream or sim)"
        )),
    });
    if let Err(e) = result {
        eprintln!("pctl-perfbench: {e}");
        std::process::exit(2);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run<W: Workload>(args: &Args) -> Result<(), String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut setups = Vec::new();
    let mut gauge = Gauge::new();
    if args.setup_only {
        timed_setup::<W>(
            args.seed,
            &mut gauge,
            &mut setups,
            &mut attempted,
            &mut failed,
        )?;
        let Setup { s, raw_s } = setups[0];
        println!("{s} {raw_s} {attempted} {failed}");
        return Ok(());
    }

    // The first set-up runs the timed ops. The rest run between ops, each
    // in a process of its own, so that every set-up is the first of its
    // process and leaves nothing in the memory the ops run in.
    let mut w = timed_setup::<W>(
        args.seed,
        &mut gauge,
        &mut setups,
        &mut attempted,
        &mut failed,
    )?;

    // Timed ops, closed loop. A traced run alternates blocks of untraced
    // and traced ops; their difference is the tracing overhead.
    let (mut op_ms, mut query_ms, mut untraced_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut work = Vec::new();
    let mut layers = Layers::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut peaks_mb = Vec::new();
    let steal_before = cpu_steal()?;
    let mut setup_wall = Duration::ZERO;
    let mut speed = Speed::new();
    let mut sampled = start;
    let mut i = 0usize;
    while i == 0 || Instant::now() < deadline {
        if i.is_multiple_of(W::BLOCK) {
            if i > 0 {
                peaks_mb.push(peak_rss_mb()?);
            }
            reset_peak_rss()?;
        }
        if i > 0 && setup_wall < start.elapsed().mul_f64(SETUP_SHARE) {
            let t0 = Instant::now();
            child_setup(args, &mut setups, &mut attempted, &mut failed)?;
            setup_wall += t0.elapsed();
        }
        if i == 0 || sampled.elapsed() >= GAUGE_GAP {
            speed.mark(i, gauge.sample());
            sampled = Instant::now();
        }
        let traced = args.trace && (i / W::BLOCK) % 2 == 1;
        let mut spans = if traced { Spans::on() } else { Spans::off() };
        let r = w.op(i, &mut spans);
        tally(i, &r, &mut attempted, &mut failed);
        work.push(r.work as f64);
        op_ms.push(ms(r.op));
        query_ms.push(ms(r.query));
        if traced {
            layers.add(spans, r.op);
        } else {
            untraced_ms.push(ms(r.op));
        }
        i += 1;
    }
    speed.mark(i, gauge.sample());
    peaks_mb.push(peak_rss_mb()?);
    // Diagnostics need the workload still set up.
    let report = if args.trace {
        Some(layer_report(&mut w, &layers, &untraced_ms, &mut failed)?)
    } else {
        None
    };
    drop(w);
    while setups.len() < SETUP_MIN_REPS {
        child_setup(args, &mut setups, &mut attempted, &mut failed)?;
    }
    let setup_s: Vec<f64> = setups.iter().map(|s| s.s).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.raw_s).collect();

    // End-to-end timings are scaled to the gauge's nominal speed, each op
    // by the samples taken around it.
    let scaled = |v: &[f64]| -> Vec<f64> {
        v.iter()
            .enumerate()
            .map(|(k, x)| x * speed.factor(k))
            .collect()
    };
    let (op_scaled, query_scaled) = (scaled(&op_ms), scaled(&query_ms));
    let op = stats::Summary::of(&op_scaled);
    let query = stats::Summary::of(&query_scaled);
    let (wall_op, wall_query) = (stats::Summary::of(&op_ms), stats::Summary::of(&query_ms));
    println!(
        "# {} seed={} ops={} failed={} steal={:.1}% gauge median={:.4} ms (nominal {}) setups={} | scaled: setup_s={:.4} op_ms p50={:.3} tail p{}={:.3} ({} beyond) query_ms p50={:.3} tail p{}={:.3} | wall: setup_s={:.4} op_ms p50={:.3} {} query_ms p50={:.3} {}",
        args.workload,
        args.seed,
        op_ms.len(),
        failed,
        stats::steal_share(steal_before, cpu_steal()?) * 100.0,
        speed.median_ms(),
        gauge::NOMINAL_MS,
        setups.len(),
        stats::median(&setup_s),
        op.p50,
        op.tail_label(),
        op.tail,
        op.beyond,
        query.p50,
        query.tail_label(),
        query.tail,
        stats::median(&setup_raw),
        wall_op.p50,
        stats::ladder(&op_ms),
        wall_query.p50,
        stats::ladder(&query_ms),
    );
    let metrics: Vec<(&str, f64, &str)> = match report {
        Some(report) => PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, report.0[name], unit))
            .collect(),
        None => vec![
            ("setup_s", stats::median(&setup_s), "s"),
            (
                "work_per_s",
                work.iter().sum::<f64>() / (op_scaled.iter().sum::<f64>() / 1e3),
                "1/s",
            ),
            ("op_ms_p50", op.p50, "ms"),
            ("op_ms_tail", op.tail, "ms"),
            ("query_ms_p50", query.p50, "ms"),
            ("query_ms_tail", query.tail, "ms"),
            ("peak_rss_mb", stats::median(&peaks_mb), "MB"),
        ],
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(())
}

/// The per-layer metrics of a traced run: layer self times per op, the
/// uncovered rest, the tracing overhead, and the workload's diagnostics,
/// whose failures are added to `failed`.
fn layer_report<W: Workload>(
    w: &mut W,
    layers: &Layers,
    untraced_ms: &[f64],
    failed: &mut u64,
) -> Result<LayerReport, String> {
    if layers.ops == 0 {
        return Err("--seconds is too short for a traced block".into());
    }
    let mut report = LayerReport::new();
    let op_mean = layers.mean_op_ms();
    report.set("op.mean_ms", op_mean);
    report.set("op.other_ms", op_mean - layers.sum_of_layers_ms());
    for (name, per_op) in layers.layer_means() {
        report.set(name, per_op);
    }
    let untraced = stats::median(untraced_ms);
    let traced = stats::median(&layers.op_ms);
    report.set(
        "tracing.overhead_pct",
        (traced - untraced) / untraced * 100.0,
    );
    *failed += w.diagnostics(layers, &mut report);
    Ok(report)
}

/// Set up `W` and run its warm-up ops, appending the time taken, in
/// seconds, to `setups`, and counting the warm-up ops. The scaled time
/// uses the gauge samples taken just before and just after.
fn timed_setup<W: Workload>(
    seed: u64,
    gauge: &mut Gauge,
    setups: &mut Vec<Setup>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<W, String> {
    let mut kernel_ms: Vec<f64> = (0..SETUP_GAUGES).map(|_| gauge.sample()).collect();
    let t0 = Instant::now();
    let mut w = W::setup(seed)?;
    for i in 0..WARMUP_OPS {
        tally(i, &w.warm_up(i), attempted, failed);
    }
    let raw_s = t0.elapsed().as_secs_f64();
    kernel_ms.extend((0..SETUP_GAUGES).map(|_| gauge.sample()));
    let kernel = kernel_ms.iter().sum::<f64>() / kernel_ms.len() as f64;
    setups.push(Setup {
        s: raw_s * gauge::NOMINAL_MS / kernel,
        raw_s,
    });
    Ok(w)
}

/// Run one timed set-up in a child process of this benchmark and add its
/// times and warm-up ops as [`timed_setup`] does.
fn child_setup(
    args: &Args,
    setups: &mut Vec<Setup>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", "1", "--trace", "0", SETUP_ONLY, "1"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = text
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    match (out.status.success(), fields.as_slice()) {
        (true, &[s, raw_s, a, f]) => {
            setups.push(Setup { s, raw_s });
            *attempted += a as u64;
            *failed += f as u64;
            Ok(())
        }
        _ => Err(format!("set-up process failed ({}): {text}", out.status)),
    }
}

/// The machine's `(steal, total)` CPU time so far, in clock ticks, from
/// the first line of `/proc/stat`.
fn cpu_steal() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat")
        .map_err(|e| format!("cannot read /proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    match ticks.get(7) {
        Some(&steal) => Ok((steal, ticks[..8].iter().sum())),
        None => Err("no steal column in /proc/stat".into()),
    }
}

/// Reset this process's resident-set high-water mark to its current size.
/// Each block of ops starts from a reset, so `peak_rss_mb` is the median
/// block peak: one unusually large input or allocator growth late in a
/// run moves one block, not the metric.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}
