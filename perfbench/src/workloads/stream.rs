//! `stream`: the `pctl stream` path over loopback to an in-process daemon
//! on `Config::default()`. One client on one connection runs sessions in a
//! closed loop: an op streams a computation with `stream_deposet`, waits
//! until the daemon has applied the appends it acknowledged, asks Detect
//! and Control over the wire, and closes the session; the query is
//! Detect + Control. No other thread writes to the daemon.

use crate::layers::{Layers, Spans};
use crate::verdict::{input_seed, Verdict};
use crate::{stats, LayerReport, OpResult, Workload};
use pctl_core::{PredicateEngine, StreamEngine};
use pctl_deposet::generator::{random_deposet, RandomConfig};
use pctl_deposet::{linearize, Deposet, DisjunctivePredicate, LocalPredicate};
use pctld::{
    encode_frame, stream_deposet, Client, Config, Daemon, FrameDecoder, Request, RequestEnvelope,
    Response, RetryPolicy, StreamReport, DEFAULT_MAX_FRAME,
};
use std::time::{Duration, Instant};

const PROCESSES: usize = 4;
const EVENTS: usize = 2000;
/// Pool inputs replayed in-process by the traced run.
const REPLAYS: usize = 4;
/// Pause between polls of the session's queue depth.
const DRAIN_POLL: Duration = Duration::from_micros(200);
/// Longest wait for a session's queue to empty.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

struct Input {
    dep: Deposet,
    expected: Verdict,
}

/// The `stream` workload. Fields drop in order: the client's connection
/// closes before the daemon drains.
pub struct Stream {
    client: Client,
    _daemon: Daemon,
    inputs: Vec<Input>,
    locals: Vec<LocalPredicate>,
    sessions: u64,
}

impl Stream {
    fn next_session(&mut self) -> String {
        self.sessions += 1;
        format!("bench-{}", self.sessions)
    }

    /// Stream input `j` into a fresh session, wait until the daemon has
    /// applied every append, and ask Detect and Control, timing each call
    /// into `spans`. The session is left open when this succeeds and closed
    /// when it fails.
    fn session(&mut self, j: usize, spans: &mut Spans) -> Result<Session, String> {
        let name = self.next_session();
        let session = self.run_session(&name, j, spans);
        if session.is_err() {
            let _ = self.client.close(&name);
        }
        session
    }

    fn run_session(&mut self, name: &str, j: usize, spans: &mut Spans) -> Result<Session, String> {
        let locals = self.locals.clone();
        let (client, dep) = (&mut self.client, &self.inputs[j].dep);
        let report = spans
            .time("client.ingest_ms", || {
                stream_deposet(client, name, locals, dep, RetryPolicy::default())
            })
            .map_err(|e| format!("stream: {e}"))?;
        // Appends are acknowledged when queued; the query starts once they
        // are applied, so it times Detect and Control alone.
        spans.time("client.drain_ms", || drain(client, name))?;
        let mut bounces = 0;
        let q = Instant::now();
        let detect = spans.time("client.detect_us", || {
            query_retry(client, &mut bounces, |c| c.detect(name))
        })?;
        let control = spans.time("client.control_us", || {
            query_retry(client, &mut bounces, |c| c.control(name))
        })?;
        let query = q.elapsed();
        Ok(Session {
            name: name.to_owned(),
            report,
            verdict: Verdict::from_daemon(detect, control),
            query,
            query_bounces: bounces,
        })
    }
}

/// Wait until `session` has no command queued: the daemon has taken
/// every acknowledged append off the queue (the last one may still be
/// applying).
fn drain(client: &mut Client, session: &str) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        let stats = client.stats_snapshot().map_err(|e| format!("stats: {e}"))?;
        let depth = stats
            .per_session
            .iter()
            .find(|st| st.name == session)
            .map(|st| st.queue_depth)
            .ok_or_else(|| format!("session {session} missing from stats"))?;
        if depth == 0 {
            return Ok(());
        }
        if t0.elapsed() > DRAIN_LIMIT {
            return Err(format!("queue still {depth} deep after {DRAIN_LIMIT:?}"));
        }
        std::thread::sleep(DRAIN_POLL);
    }
}

/// Send a query, sleeping the daemon's hint and resending on `Busy` (the
/// query shares the session's queue with appends) up to
/// `RetryPolicy::default().max_retries` times; `bounces` counts the
/// `Busy` answers.
fn query_retry(
    client: &mut Client,
    bounces: &mut u64,
    mut ask: impl FnMut(&mut Client) -> std::io::Result<Response>,
) -> Result<Response, String> {
    let max = RetryPolicy::default().max_retries;
    loop {
        match ask(client).map_err(|e| format!("query: {e}"))? {
            Response::Busy { retry_after_ms } if *bounces < u64::from(max) => {
                *bounces += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms));
            }
            other => return Ok(other),
        }
    }
}

/// One streamed session, still open.
struct Session {
    name: String,
    report: StreamReport,
    /// The daemon's Detect and Control answers (`None` if malformed).
    verdict: Option<Verdict>,
    /// Time for Detect + Control, `Busy` retries included.
    query: Duration,
    /// `Busy` answers to Detect and Control.
    query_bounces: u64,
}

impl Workload for Stream {
    const BLOCK: usize = 16;

    fn setup(seed: u64) -> Result<Self, String> {
        let locals = vec![LocalPredicate::var("ok"); PROCESSES];
        let pred = DisjunctivePredicate::new(locals.clone());
        let cfg = RandomConfig {
            processes: PROCESSES,
            events: EVENTS,
            ..RandomConfig::default()
        };
        let inputs = (0..Self::BLOCK)
            .map(|j| {
                let dep = random_deposet(&cfg, input_seed(seed, j));
                let expected = Verdict::expected(&PredicateEngine::new(&dep, pred.clone()));
                Input { dep, expected }
            })
            .collect();
        let daemon = Daemon::spawn(Config::default()).map_err(|e| format!("daemon: {e}"))?;
        let client = Client::connect(daemon.local_addr()).map_err(|e| format!("connect: {e}"))?;
        Ok(Stream {
            client,
            _daemon: daemon,
            inputs,
            locals,
            sessions: 0,
        })
    }

    fn op(&mut self, i: usize, spans: &mut Spans) -> OpResult {
        let j = i % self.inputs.len();
        let t0 = Instant::now();
        let s = match self.session(j, spans) {
            Ok(s) => s,
            Err(e) => return OpResult::failed(t0.elapsed(), format!("session: {e}")),
        };
        let closed = self.client.close(&s.name);
        let op = t0.elapsed();
        spans.count("client.appends", s.report.appends as f64);
        spans.count(
            "client.busy_bounces",
            (s.report.busy_bounces + s.query_bounces) as f64,
        );
        spans.count("client.append_rtt_us", s.report.append_p50_us as f64);
        let error = check(&s, closed, &self.inputs[j].expected);
        OpResult {
            op,
            query: s.query,
            work: s.report.appends as u64,
            error,
        }
    }

    fn diagnostics(&mut self, layers: &Layers, out: &mut LayerReport) -> u64 {
        let busy = layers.total("client.busy_bounces");
        out.set("client.busy_bounces", busy);
        out.set(
            "client.busy_share",
            busy / layers.total("client.appends") * 100.0,
        );
        out.set(
            "client.append_rtt_us",
            stats::median(layers.values("client.append_rtt_us")),
        );
        let checks = [self.server_stats(out), self.replay(out)];
        checks
            .into_iter()
            .filter_map(Result::err)
            .map(|e| eprintln!("diagnostic failed: {e}"))
            .count() as u64
    }
}

impl Stream {
    /// One more session, whose daemon-side stats are read before it
    /// closes.
    fn server_stats(&mut self, out: &mut LayerReport) -> Result<(), String> {
        let s = self
            .session(0, &mut Spans::off())
            .map_err(|e| format!("stats session: {e}"))?;
        let snapshot = self.client.stats_snapshot();
        let closed = self.client.close(&s.name);
        let stats = snapshot.map_err(|e| format!("stats: {e}"))?;
        if let Some(st) = stats.per_session.iter().find(|st| st.name == s.name) {
            out.set("server.apply_p50_us", st.p50_us as f64);
            out.set("server.apply_p95_us", st.p95_us as f64);
        }
        out.set("server.busy_total", stats.busy_total as f64);
        out.set(
            "server.query_cache_hits",
            stats.query_cache_hits_total as f64,
        );
        check(&s, closed, &self.inputs[0].expected).map_or(Ok(()), Err)
    }

    /// Replay the first pool inputs in-process: `StreamEngine::apply` per
    /// append, the client/server codec of each `Append` frame, and
    /// detection at the full prefix.
    fn replay(&mut self, out: &mut LayerReport) -> Result<(), String> {
        let (mut apply, mut codec, mut appends) = (Duration::ZERO, Duration::ZERO, 0u32);
        let mut detect_us = Vec::new();
        let mut result = Ok(());
        for (j, input) in self.inputs[..REPLAYS].iter().enumerate() {
            let (init, ops) = linearize(&input.dep);
            let mut engine = StreamEngine::new_with_init(self.locals.clone(), &init);
            let mut ok = true;
            for op in &ops {
                let t0 = Instant::now();
                ok &= engine.apply(op).is_ok();
                apply += t0.elapsed();
            }
            let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME);
            for (seq, op) in (1u64..).zip(&ops) {
                let t0 = Instant::now();
                ok &= codec_roundtrip(seq, op.clone(), &mut decoder);
                codec += t0.elapsed();
            }
            appends += ops.len() as u32;
            let t0 = Instant::now();
            let cut = engine.detect_violation();
            detect_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ok &= cut.map(|g| g.indices().to_vec()) == input.expected.violation;
            if !ok {
                result = Err(format!("in-process replay of input {j}"));
            }
        }
        out.set("session.apply_us", (apply / appends).as_secs_f64() * 1e6);
        out.set("wire.codec_us", (codec / appends).as_secs_f64() * 1e6);
        out.set("session.detect_us", stats::median(&detect_us));
        result
    }
}

/// Why a streamed session failed, if it did: Close not answered `Ok`, or
/// the daemon's verdict differs from `expected`.
fn check(s: &Session, closed: std::io::Result<Response>, expected: &Verdict) -> Option<String> {
    match closed {
        Ok(Response::Ok) if s.verdict.as_ref() == Some(expected) => None,
        Ok(Response::Ok) => Some(format!("verdict {:?}, expected {expected:?}", s.verdict)),
        other => Some(format!("close answered {other:?}")),
    }
}

/// Encode one `Append` request as the client does, then frame-decode and
/// parse it as the daemon does. True if it survives unchanged.
fn codec_roundtrip(seq: u64, op: pctl_deposet::AppendOp, decoder: &mut FrameDecoder) -> bool {
    let env = RequestEnvelope {
        seq,
        req: Request::Append {
            session: "replay".into(),
            op,
        },
    };
    let Ok(json) = serde_json::to_string(&env) else {
        return false;
    };
    let mut wire = Vec::with_capacity(json.len() + 4);
    encode_frame(json.as_bytes(), &mut wire);
    decoder.push(&wire);
    let Ok(Some(frame)) = decoder.next_frame() else {
        return false;
    };
    std::str::from_utf8(&frame)
        .ok()
        .and_then(|text| serde_json::from_str::<RequestEnvelope>(text).ok())
        .is_some_and(|back| back == env)
}
