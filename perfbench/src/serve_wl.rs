//! `serve_hot`: open-loop load over the wire protocol against one child
//! `smith85 serve` — the event loop with `workers` = nproc, no store and
//! no journal. Keys are Zipf-skewed over a fixed set of CPU profiles
//! whose traces and grid sweeps are all warmed during set-up.
//!
//! An untraced run: set up [`SETUPS`] times (`setup_s` is the median),
//! send the nominal-rate stream in segments (`p50_ms`, and the printed
//! `p99_ms`), climb the rate ladder until a rate misses the latency limit
//! or its backlog grows (`max_rps`), then send a fixed batch back to back
//! with one request outstanding per connection (`suite_s` is its wall
//! time, `suite_cpu_s` the server's CPU time for it). Stretches during
//! which the hypervisor stole CPU are left out of the medians. Every
//! `simulate`/`sweep` reply is then compared bit for bit with an
//! in-process `exec` call on a fresh session.
//!
//! The traced run sends the nominal stream once more for the serve-side
//! fields, replays it in-process through the layers' public calls, times
//! the kernels, and runs the fleet probe ([`crate::probe`]) for the
//! router, store and tracelog layers this workload bypasses.

use crate::fleet::{self, Fleet};
use crate::gen::{Generated, HotStream, Source, HOT_LEN};
use crate::kernels;
use crate::loadgen::{self, Mode};
use crate::probe;
use crate::spans::{self, Recorder};
use crate::stats::{median, Summary};
use crate::sys;
use crate::{Ctx, Metrics, Outcome};
use smith85_core::experiments::Workload;
use smith85_core::session::SimSession;
use smith85_serve::exec;
use smith85_serve::json::{self, Json};
use smith85_serve::protocol::{ErrorCode, Request, Response};
use smith85_store::Store;
use std::collections::HashMap;
use std::net::TcpStream;
use std::time::{Duration, Instant};

// Frozen load settings, measured at the commit that introduced the
// benchmark (see the README).

/// Nominal open-loop rate for `p50_ms`/`p99_ms`, requests/s.
const NOMINAL_RPS: f64 = 600.0;
/// Rate ladder for `max_rps`, ascending, requests/s: coarse where every
/// run passes, in steps of 50 around where runs on the reference machine
/// saturated (1400–1900), so the rung a run stops at moves by little.
const LADDER: [f64; 19] = [
    800.0, 1000.0, 1200.0, 1300.0, 1350.0, 1400.0, 1450.0, 1500.0, 1550.0, 1600.0, 1650.0, 1700.0,
    1750.0, 1800.0, 1850.0, 1900.0, 2000.0, 2200.0, 2400.0,
];
/// Latency limit a rung's tail must meet, ms.
const LIMIT_MS: f64 = 100.0;
/// Requests in the back-to-back batch.
const BATCH: usize = 3000;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Share of `--seconds` spent measuring at the nominal rate.
const NOMINAL_SHARE: f64 = 0.6;
/// Seconds of the nominal stream sent before measuring starts (checked
/// for correctness, not timed): fresh connections and server threads
/// settle first.
const WARMUP_SECS: f64 = 1.0;
/// Requests per segment of the measured nominal stream. `p50_ms` and
/// `p99_ms` are medians over segments, so a stall of the shared machine
/// moves only the segments it falls in; each segment is long enough for
/// a p99 under the sample-count rule.
const SEGMENT_REQUESTS: usize = 1000;
/// Parts of the back-to-back batch, timed separately; `suite_s` and
/// `suite_cpu_s` scale the median part to the whole batch.
const BATCH_PARTS: usize = 5;
/// Requests per ladder rung: enough for a p99 under the sample-count rule.
const RUNG_REQUESTS: usize = 1000;
/// How long to wait for replies after the last request was sent.
const DRAIN: Duration = Duration::from_secs(10);
/// Ladder rungs per run that may be rerun because the host stole CPU.
const MAX_RERUNS: usize = 3;
/// Fewest segments or batch parts a median is taken over, even when more
/// of them were disturbed.
const MIN_QUIET: usize = 3;
/// Requests of the nominal stream replayed in-process by the traced run.
const REPLAY_REQUESTS: usize = 3000;
/// CPU profiles the traced run times the kernels on.
const KERNEL_PROFILES: usize = 4;
/// Layers whose self time the traced run reports from its own spans
/// (the fleet probe reports `store`, `router` and `serve`).
const SELF_TIME_LAYERS: [&str; 5] = ["trace_pool", "synth", "cachesim", "protocol", "exec"];
/// Per-layer metrics of the layer `serve_hot` never runs: the suite
/// runner.
const BYPASSED: &[&str] = &["runner.", "self.runner_ms"];

/// A running server after set-up.
struct Setup {
    fleet: Fleet,
    addr: String,
    secs: f64,
}

/// Maps an I/O error to a message under `context`.
pub fn err(context: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{context}: {e}")
}

/// Spawns the server into a fresh directory and waits until it answers
/// and the hot set is warm.
fn setup(ctx: &Ctx, round: usize) -> Result<Setup, String> {
    let dir = ctx.work.join(format!("setup{round}"));
    std::fs::create_dir_all(&dir).map_err(err("setup dir"))?;
    let start = Instant::now();
    let mut fleet = Fleet::default();
    let addr = fleet
        .spawn(
            &ctx.smith85,
            &["--workers".into(), ctx.nproc.to_string()],
            &dir.join("server.log"),
        )
        .map_err(err("spawn server"))?;
    for g in HotStream::new(ctx.seed).warmup() {
        match fleet::call(&addr, &g.request).map_err(err("warm-up"))? {
            Response::Simulate(_) | Response::Sweep(_) => {}
            other => return Err(format!("warm-up answered {other:?}")),
        }
    }
    Ok(Setup {
        fleet,
        addr,
        secs: start.elapsed().as_secs_f64(),
    })
}

fn connect(addr: &str, n: usize) -> Result<Vec<TcpStream>, String> {
    (0..n)
        .map(|_| TcpStream::connect(addr).map_err(err("connect")))
        .collect()
}

/// One load phase: its requests and what happened to them.
pub struct Phase {
    /// The requests, in sending order.
    pub reqs: Vec<Generated>,
    /// Their replies and timings.
    pub run: loadgen::Run,
}

/// Sends the next `n` requests at a constant `rate` over fresh
/// connections (fresh, so a phase that gave up on replies cannot leak
/// them into the next).
fn open_phase(
    ctx: &Ctx,
    addr: &str,
    stream: &mut impl Source,
    rate: f64,
    n: usize,
) -> Result<Phase, String> {
    let reqs = stream.take(n);
    let due: Vec<Duration> = (0..n)
        .map(|i| Duration::from_secs_f64(i as f64 / rate))
        .collect();
    let lines: Vec<String> = reqs.iter().map(|g| g.line.clone()).collect();
    let mut conns = connect(addr, ctx.nproc)?;
    let run = loadgen::drive(&mut conns, &lines, Mode::Open(&due), DRAIN).map_err(err("load"))?;
    Ok(Phase { reqs, run })
}

/// The reply with its per-request fields masked (timing and trace id),
/// re-encoded, so equal strings mean bit-identical answers.
pub fn normalize(reply: &str) -> Result<String, Verdict> {
    match Response::decode(reply) {
        Ok(Response::Simulate(mut r)) => {
            (r.queue_ms, r.exec_ms) = (0, 0);
            r.trace_id.clear();
            Ok(Response::Simulate(r).encode())
        }
        Ok(Response::Sweep(mut r)) => {
            (r.queue_ms, r.exec_ms) = (0, 0);
            r.trace_id.clear();
            Ok(Response::Sweep(r).encode())
        }
        Ok(Response::Error(e)) if e.code == ErrorCode::Overloaded => Err(Verdict::Refused),
        Ok(Response::Error(_)) => Err(Verdict::Failed),
        Ok(_) | Err(_) => Err(Verdict::Wrong),
    }
}

/// The outcome of checking one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Right,
    /// Typed `overloaded`: admission control refused it.
    Refused,
    /// No reply, or a typed error other than `overloaded`.
    Failed,
    /// A reply that differs from the in-process answer.
    Wrong,
}

/// In-process answers from `exec` on a fresh session, memoized per line.
pub struct Oracle {
    session: SimSession,
    memo: HashMap<String, Option<String>>,
}

impl Oracle {
    pub fn new() -> Result<Oracle, String> {
        Ok(Oracle {
            session: SimSession::builder()
                .build()
                .map_err(|e| format!("oracle session: {e}"))?,
            memo: HashMap::new(),
        })
    }

    fn answer(session: &SimSession, request: &Request) -> Option<String> {
        match request {
            Request::Simulate(spec) => exec::run_simulate(session, spec)
                .ok()
                .map(|r| Response::Simulate(r).encode()),
            Request::Sweep(spec) => exec::run_sweep(session, spec)
                .ok()
                .map(|r| Response::Sweep(r).encode()),
            _ => None,
        }
    }

    fn expected(&mut self, g: &Generated) -> Option<&str> {
        let session = &self.session;
        self.memo
            .entry(g.line.clone())
            .or_insert_with(|| Oracle::answer(session, &g.request))
            .as_deref()
    }

    /// Computes the answers for every distinct request in `reqs` on
    /// `threads` threads, each with its own fresh session. Runs after the
    /// load phases, so it never competes with the servers being measured.
    pub fn prefill<'a>(&mut self, reqs: impl Iterator<Item = &'a Generated>, threads: usize) {
        let mut todo: Vec<&Generated> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for g in reqs {
            if !self.memo.contains_key(&g.line) && seen.insert(g.line.as_str()) {
                todo.push(g);
            }
        }
        let chunk = todo.len().div_ceil(threads.max(1)).max(1);
        let solve = |part: &[&Generated]| -> Vec<(String, Option<String>)> {
            let session = SimSession::builder()
                .build()
                .expect("the default session configuration is valid");
            part.iter()
                .map(|g| (g.line.clone(), Oracle::answer(&session, &g.request)))
                .collect()
        };
        // The calling thread takes the first chunk, so the process never
        // runs more threads than `threads`.
        let mut parts = todo.chunks(chunk);
        let first = parts.next().unwrap_or(&[]);
        let answers: Vec<(String, Option<String>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = parts.map(|part| scope.spawn(move || solve(part))).collect();
            let mut all = solve(first);
            for h in handles {
                all.extend(h.join().expect("oracle thread panicked"));
            }
            all
        });
        self.memo.extend(answers);
    }

    fn check(&mut self, g: &Generated, reply: Option<&str>) -> Verdict {
        let Some(reply) = reply else {
            return Verdict::Failed;
        };
        match normalize(reply) {
            Ok(got) if self.expected(g) == Some(got.as_str()) => Verdict::Right,
            Ok(_) => Verdict::Wrong,
            Err(v) => v,
        }
    }

    /// Verdicts for a phase, in request order.
    pub fn phase(&mut self, p: &Phase) -> Vec<Verdict> {
        p.reqs
            .iter()
            .zip(&p.run.outcomes)
            .map(|(g, o)| self.check(g, o.reply.as_deref()))
            .collect()
    }
}

/// Requests that count as failed: wrong answers always; refusals and
/// missing replies too, except on ladder rungs, where they only mark the
/// rung as over the limit.
pub fn failures(verdicts: &[Verdict], refusals_fail: bool) -> u64 {
    verdicts
        .iter()
        .filter(|&&v| v == Verdict::Wrong || (refusals_fail && v != Verdict::Right))
        .count() as u64
}

/// Latencies of a phase, with every request that did not get a right
/// answer counted as missing any limit (the drain time).
fn latencies(p: &Phase, verdicts: &[Verdict]) -> Vec<f64> {
    p.run
        .outcomes
        .iter()
        .zip(verdicts)
        .map(|(o, v)| match (v, o.latency_ms()) {
            (Verdict::Right, Some(ms)) => ms,
            _ => DRAIN.as_secs_f64() * 1e3,
        })
        .collect()
}

/// Runs `serve_hot`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    if ctx.traced {
        return traced(ctx);
    }
    let mut m = Metrics::default();
    let mut quiet = sys::QuietWait::new();
    let mut waits = vec![quiet.wait()];
    let mut setups = Vec::new();
    let mut current: Option<Setup> = None;
    for round in 0..SETUPS {
        if let Some(previous) = current.take() {
            previous.fleet.shutdown().map_err(err("shutdown"))?;
        }
        let s = setup(ctx, round)?;
        setups.push(s.secs);
        current = Some(s);
    }
    let s = current.expect("at least one set-up");
    m.add("setup_s", median(&setups), "s");
    m.notes
        .push(format!("setup_s: median of {SETUPS} set-ups {setups:?}"));

    let mut stream = HotStream::new(ctx.seed);
    waits.push(quiet.wait());
    let (nominal, warmup, segment_steal) = run_nominal(ctx, &s.addr, &mut stream, NOMINAL_RPS)?;
    // Peak memory of the server after the nominal stream, before the
    // ladder: how far the ladder climbs must not change it.
    let rss = s.fleet.peak_rss_mib().map_err(err("server rss"))?;
    let mut rungs = Vec::new();
    // Climb until a rate fails twice in a row: one retry keeps a single
    // transient stall from ending the climb early. A failure during
    // which the host stole CPU does not count (a few times per run): the
    // rung is rerun once the host is quiet again.
    let mut reruns = 0;
    'ladder: for &rate in &LADDER {
        let mut failures = 0;
        while failures < 2 {
            let meter = sys::StealMeter::start();
            let mut rung = climb(ctx, &s.addr, &mut stream, rate, LIMIT_MS)?;
            rung.steal = meter.pct();
            let (pass, disturbed) = (rung.pass, rung.steal > sys::STEAL_LIMIT_PCT);
            rungs.push(rung);
            if pass {
                continue 'ladder;
            }
            if disturbed && reruns < MAX_RERUNS {
                reruns += 1;
                waits.push(quiet.wait());
            } else {
                failures += 1;
            }
        }
        break;
    }
    let mut parts = Vec::new();
    let mut conns = connect(&s.addr, ctx.nproc)?;
    for _ in 0..BATCH_PARTS {
        let reqs = stream.take(BATCH / BATCH_PARTS);
        let lines: Vec<String> = reqs.iter().map(|g| g.line.clone()).collect();
        let meter = sys::StealMeter::start();
        let cpu0 = s.fleet.cpu_seconds().map_err(err("server cpu"))?;
        let run = loadgen::drive(&mut conns, &lines, Mode::Closed, DRAIN).map_err(err("batch"))?;
        let cpu = s.fleet.cpu_seconds().map_err(err("server cpu"))? - cpu0;
        parts.push((Phase { reqs, run }, cpu, meter.pct()));
    }
    drop(conns);
    let stats = fleet::stats(&s.addr).map_err(err("stats"))?;
    s.fleet.shutdown().map_err(err("shutdown"))?;

    let mut oracle = Oracle::new()?;
    oracle.prefill(
        nominal
            .reqs
            .iter()
            .chain(rungs.iter().flat_map(|r| &r.phase.reqs))
            .chain(parts.iter().flat_map(|(b, _, _)| &b.reqs)),
        ctx.nproc,
    );
    let nominal_verdicts = oracle.phase(&nominal);
    let mut attempted = nominal_verdicts.len() as u64;
    let mut failed = failures(&nominal_verdicts, true);
    let mut ladder_json = Vec::new();
    for Rung {
        rate,
        phase,
        tail,
        grew,
        pass,
        steal,
    } in &rungs
    {
        let verdicts = oracle.phase(phase);
        attempted += verdicts.len() as u64;
        failed += failures(&verdicts, false);
        m.notes.push(format!(
            "ladder {rate} rps: n={} {}={:.3} ms (limit {LIMIT_MS} ms), backlog grew: {grew}, refused: {}, host steal {steal:.1}%, {}",
            tail.n,
            tail.tail_label(),
            tail.tail,
            verdicts.iter().filter(|&&v| v == Verdict::Refused).count(),
            if *pass { "pass" } else { "fail" }
        ));
        ladder_json.push(json::obj(vec![
            ("rps", Json::Num(*rate)),
            ("n", Json::Uint(tail.n as u64)),
            ("tail_label", json::s(tail.tail_label())),
            ("tail_ms", Json::Num(tail.tail)),
            ("backlog_grew", Json::Bool(*grew)),
            ("pass", Json::Bool(*pass)),
        ]));
    }
    for (batch, _, _) in &parts {
        let verdicts = oracle.phase(batch);
        attempted += verdicts.len() as u64;
        failed += failures(&verdicts, true);
    }

    let all = latencies(&nominal, &nominal_verdicts);
    m.note_summary(
        &format!("latency at {NOMINAL_RPS} rps, whole stream"),
        &Summary::of(&all[warmup..]),
        "ms",
    );
    let segments: Vec<Summary> = all[warmup..]
        .chunks(SEGMENT_REQUESTS)
        .map(Summary::of)
        .collect();
    for (i, (seg, steal)) in segments.iter().zip(&segment_steal).enumerate() {
        m.note_summary(
            &format!(
                "latency segment {}/{} (host steal {steal:.1}%)",
                i + 1,
                segments.len()
            ),
            seg,
            "ms",
        );
    }
    let keep = sys::quiet_indices(&segment_steal, MIN_QUIET);
    let p50s: Vec<f64> = keep.iter().map(|&i| segments[i].p50).collect();
    let tails: Vec<f64> = keep.iter().map(|&i| segments[i].tail).collect();
    m.add("p50_ms", median(&p50s), "ms");
    m.add("p99_ms", median(&tails), "ms");
    m.notes.push(format!(
        "p50_ms, p99_ms: medians over segments {keep:?} of {SEGMENT_REQUESTS} requests (the undisturbed \
         ones) after {warmup} warm-up requests; waited {waits:?} s for a quiet host"
    ));
    let late = Summary::of(
        &nominal
            .run
            .outcomes
            .iter()
            .filter_map(|o| o.late_ms())
            .collect::<Vec<_>>(),
    );
    m.note_summary("loadgen.late_ms", &late, "ms");
    // One point per rate: passed if any attempt passed, with the lower tail.
    let mut points: Vec<(f64, f64, bool)> = Vec::new();
    for r in &rungs {
        match points.last_mut() {
            Some(last) if last.0 == r.rate => {
                last.1 = last.1.min(r.tail.tail);
                last.2 |= r.pass;
            }
            _ => points.push((r.rate, r.tail.tail, r.pass)),
        }
    }
    let max_rps = max_rate(&points, LIMIT_MS);
    m.add("max_rps", max_rps, "1/s");
    m.notes.push(format!(
        "max_rps: {max_rps:.3} (interpolated between the last passing and first failing rung)"
    ));
    let part_steal: Vec<f64> = parts.iter().map(|(_, _, steal)| *steal).collect();
    let keep = sys::quiet_indices(&part_steal, MIN_QUIET);
    let walls: Vec<f64> = keep
        .iter()
        .map(|&i| parts[i].0.run.elapsed.as_secs_f64())
        .collect();
    let cpus: Vec<f64> = keep.iter().map(|&i| parts[i].1).collect();
    m.add("suite_s", median(&walls) * BATCH_PARTS as f64, "s");
    m.add("suite_cpu_s", median(&cpus) * BATCH_PARTS as f64, "s");
    m.notes.push(format!(
        "batch (suite_s, suite_cpu_s): {BATCH} requests in {BATCH_PARTS} parts, {} connections, one \
         outstanding each; median undisturbed part scaled to the batch; parts {keep:?} walls \
         {walls:?}, cpu {cpus:?}, host steal {part_steal:?}",
        ctx.nproc
    ));
    m.add("peak_rss_mib", rss, "MiB");
    m.notes.push(format!(
        "server stats: queue high water {}, {} rejected, pool {} hits / {} misses",
        stats.queue_high_water, stats.rejected_overload, stats.pool.hits, stats.pool.misses
    ));
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail: vec![
            ("nominal_rps", Json::Num(NOMINAL_RPS)),
            ("limit_ms", Json::Num(LIMIT_MS)),
            ("ladder", Json::Arr(ladder_json)),
        ],
        bypassed: &[],
    })
}

/// Warm-up requests and measured segments of the nominal stream at
/// `rate`.
fn nominal_plan(ctx: &Ctx, rate: f64) -> (usize, usize) {
    let warmup = (rate * WARMUP_SECS).round() as usize;
    let measured = NOMINAL_SHARE * ctx.seconds * rate;
    (
        warmup,
        ((measured / SEGMENT_REQUESTS as f64) as usize).max(1),
    )
}

/// One attempt at one ladder rate.
struct Rung {
    rate: f64,
    phase: Phase,
    tail: Summary,
    grew: bool,
    pass: bool,
    /// Host steal during the rung, percent.
    steal: f64,
}

/// Sends a nominal stream at `rate`: warm-up requests, then each measured
/// segment as its own phase with the host steal during it. Returns the
/// whole stream as one phase, the warm-up count and the segments' steal.
pub fn run_nominal(
    ctx: &Ctx,
    addr: &str,
    stream: &mut impl Source,
    rate: f64,
) -> Result<(Phase, usize, Vec<f64>), String> {
    let (warmup, segments) = nominal_plan(ctx, rate);
    let mut all = open_phase(ctx, addr, stream, rate, warmup)?;
    let mut steal = Vec::new();
    for _ in 0..segments {
        let meter = sys::StealMeter::start();
        let seg = open_phase(ctx, addr, stream, rate, SEGMENT_REQUESTS)?;
        steal.push(meter.pct());
        all.reqs.extend(seg.reqs);
        all.run.outcomes.extend(seg.run.outcomes);
        all.run.elapsed += seg.run.elapsed;
    }
    Ok((all, warmup, steal))
}

/// Runs one ladder rung: passes when every request got a non-error
/// reply, the tail latency meets `limit_ms`, and the backlog did not grow.
fn climb(
    ctx: &Ctx,
    addr: &str,
    stream: &mut impl Source,
    rate: f64,
    limit_ms: f64,
) -> Result<Rung, String> {
    let phase = open_phase(ctx, addr, stream, rate, RUNG_REQUESTS)?;
    let answered = phase.run.outcomes.iter().all(|o| {
        o.reply
            .as_deref()
            .is_some_and(|r| !r.contains("\"type\":\"error\""))
    });
    let lat: Vec<f64> = phase
        .run
        .outcomes
        .iter()
        .map(|o| o.latency_ms().unwrap_or(DRAIN.as_secs_f64() * 1e3))
        .collect();
    let tail = Summary::of(&lat);
    let grew = loadgen::backlog_grew(&phase.run.inflight);
    let pass = answered && !grew && tail.tail <= limit_ms;
    Ok(Rung {
        rate,
        phase,
        tail,
        grew,
        pass,
        steal: 0.0,
    })
}

/// The highest rate meeting the limit, from ladder rungs `(rate, tail
/// latency, pass)` climbed in order until the first failure. Between the
/// last passing rung and the first failing one the rate is interpolated
/// linearly on the tail latency (clamped to the two rungs), which keeps
/// the figure from jumping a whole rung on a small change; a failing rung
/// whose tail is still under the limit failed on backlog or refusals and
/// adds nothing. With no failing rung the top rung is the answer; with no
/// passing one, 0.
pub fn max_rate(rungs: &[(f64, f64, bool)], limit_ms: f64) -> f64 {
    let Some(last_pass) = rungs.iter().rposition(|r| r.2) else {
        return 0.0;
    };
    let (r0, t0, _) = rungs[last_pass];
    match rungs.get(last_pass + 1) {
        Some(&(r1, t1, _)) if t1 > limit_ms && t1 > t0 => {
            r0 + (r1 - r0) * ((limit_ms - t0) / (t1 - t0)).clamp(0.0, 1.0)
        }
        _ => r0,
    }
}

/// Queue, exec and outside-the-server times from a wire run's replies.
fn wire_metrics(phase: &Phase, verdicts: &[Verdict], m: &mut Metrics) {
    let (mut queue, mut exec_ms, mut outside) = (Vec::new(), Vec::new(), Vec::new());
    for (o, v) in phase.run.outcomes.iter().zip(verdicts) {
        let (Verdict::Right, Some(reply), Some(lat)) = (v, o.reply.as_deref(), o.latency_ms())
        else {
            continue;
        };
        let (q, e) = match Response::decode(reply) {
            Ok(Response::Simulate(r)) => (r.queue_ms, r.exec_ms),
            Ok(Response::Sweep(r)) => (r.queue_ms, r.exec_ms),
            _ => continue,
        };
        queue.push(q as f64);
        exec_ms.push(e as f64);
        outside.push(lat - q as f64 - e as f64);
    }
    m.add_summary("serve.queue_ms", &Summary::of(&queue), "ms");
    m.add_summary("serve.exec_ms", &Summary::of(&exec_ms), "ms");
    m.add_summary("serve.outside_ms", &Summary::of(&outside), "ms");
    let late: Vec<f64> = phase
        .run
        .outcomes
        .iter()
        .filter_map(|o| o.late_ms())
        .collect();
    let late = Summary::of(&late);
    m.add("loadgen.late_ms.p99", late.tail, "ms");
    m.note_summary("loadgen.late_ms", &late, "ms");
}

/// Replays `reqs` in-process through the layers' public calls, the way
/// a server handles them: decode, store lookup (with a store), pool,
/// `exec`, encode, store write. Returns the wall time of the replay.
pub fn replay(
    reqs: &[Generated],
    warm: &[Generated],
    store: Option<&Store>,
    rec: &mut Recorder,
) -> Result<(f64, ReplayCounts), String> {
    let session = SimSession::builder()
        .build()
        .map_err(|e| format!("replay session: {e}"))?;
    let pool = session.pool();
    for g in warm {
        match &g.request {
            Request::Simulate(spec) => exec::run_simulate(&session, spec).map(drop),
            Request::Sweep(spec) => exec::run_sweep(&session, spec).map(drop),
            _ => Ok(()),
        }
        .map_err(|e| e.message)?;
    }
    let (mut gets, mut hits, mut response_bytes) = (0, 0, 0);
    let start = Instant::now();
    for (i, g) in reqs.iter().enumerate() {
        let id = i as u64;
        rec.open("request", id);
        let request = rec
            .time("protocol.decode", id, || Request::decode(&g.line))
            .map_err(|e| e.message)?;
        let (name, seed, len) = match &request {
            Request::Simulate(s) => (&s.workload, s.seed, s.len),
            Request::Sweep(s) => (&s.workload, s.seed, s.len),
            _ => return Err("replay of a non-simulation request".into()),
        };
        rec.open("exec.warm", id);
        let stored = store.and_then(|st| rec.time("store.get", id, || st.get_json(&g.line)));
        gets += u64::from(store.is_some());
        let encoded = if let Some(json) = stored {
            hits += 1;
            rec.rename("exec.store_hit");
            let response = rec
                .time("protocol.decode_stored", id, || Response::decode(&json))
                .map_err(|e| format!("stored record: {e}"))?;
            rec.time("protocol.encode", id, || response.encode())
        } else {
            let workload: Workload = exec::resolve_workload(name, seed).map_err(|e| e.message)?;
            let misses = pool.stats().misses;
            let trace = rec.time("trace_pool.workload", id, || pool.workload(&workload, len));
            if pool.stats().misses > misses {
                rec.rename("exec.cold");
                if let Some(st) = store {
                    rec.time("store.put", id, || {
                        st.put_trace(&format!("trace/{}", g.line), &trace)
                    })
                    .map_err(err("store put_trace"))?;
                }
            }
            let response = match &request {
                Request::Simulate(spec) => rec
                    .time("exec.simulate", id, || exec::run_simulate(&session, spec))
                    .map(Response::Simulate),
                Request::Sweep(spec) => rec
                    .time("exec.sweep", id, || exec::run_sweep(&session, spec))
                    .map(Response::Sweep),
                _ => unreachable!("checked above"),
            }
            .map_err(|e| e.message)?;
            let encoded = rec.time("protocol.encode", id, || response.encode());
            if let Some(st) = store {
                rec.time("store.put", id, || st.put_json(&g.line, &encoded))
                    .map_err(err("store put_json"))?;
            }
            encoded
        };
        response_bytes += encoded.len() as u64;
        rec.close();
        rec.close();
    }
    let elapsed = start.elapsed().as_secs_f64();
    Ok((
        elapsed,
        ReplayCounts {
            gets,
            hits,
            response_bytes,
            pool: pool.stats(),
        },
    ))
}

/// What a replay counted.
pub struct ReplayCounts {
    /// Store lookups.
    pub gets: u64,
    /// Store lookups that found the result.
    pub hits: u64,
    /// Bytes of every encoded response.
    pub response_bytes: u64,
    /// The session's pool after the replay.
    pub pool: smith85_core::PoolStats,
}

pub fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The traced run: the nominal stream over the wire for the serve-side
/// fields, the same stream replayed in-process untraced and traced, the
/// kernels, then the fleet probe.
fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let mut m = Metrics::default();
    let s = setup(ctx, 0)?;
    let mut stream = HotStream::new(ctx.seed);
    sys::QuietWait::new().wait();
    let (nominal, _, _) = run_nominal(ctx, &s.addr, &mut stream, NOMINAL_RPS)?;
    let stats = fleet::stats(&s.addr).map_err(err("stats"))?;
    s.fleet.shutdown().map_err(err("shutdown"))?;
    m.add(
        "serve.queue_high_water",
        stats.queue_high_water as f64,
        "count",
    );
    m.add("serve.rejected", stats.rejected_overload as f64, "count");
    let mut oracle = Oracle::new()?;
    oracle.prefill(nominal.reqs.iter(), ctx.nproc);
    let verdicts = oracle.phase(&nominal);
    let mut attempted = verdicts.len() as u64;
    let mut failed = failures(&verdicts, true);
    wire_metrics(&nominal, &verdicts, &mut m);

    let warm = stream.warmup();
    let replayed = &nominal.reqs[..nominal.reqs.len().min(REPLAY_REQUESTS)];
    // Untraced, traced, untraced: the traced pass is compared with the
    // mean of the two around it.
    let untraced = || -> Result<f64, String> {
        Ok(replay(replayed, &warm, None, &mut Recorder::new(false))?.0)
    };
    let before = untraced()?;
    let mut rec = Recorder::new(true);
    let (traced_s, counts) = replay(replayed, &warm, None, &mut rec)?;
    let untraced_s = (before + untraced()?) / 2.0;
    m.add("bench.untraced_s", untraced_s, "s");
    m.add("bench.traced_s", traced_s, "s");
    m.add(
        "bench.trace_overhead_pct",
        100.0 * (traced_s - untraced_s) / untraced_s,
        "%",
    );
    let timed = |name: &str| Summary::of(&us(&spans::durations(rec.spans(), name)));
    m.add_p50("protocol.decode_us.p50", &timed("protocol.decode"), "us");
    m.add_p50("protocol.encode_us.p50", &timed("protocol.encode"), "us");
    m.add(
        "protocol.response_bytes",
        counts.response_bytes as f64 / replayed.len() as f64,
        "bytes",
    );
    m.add_summary("exec.simulate_us", &timed("exec.simulate"), "us");
    m.add_summary("exec.sweep_us", &timed("exec.sweep"), "us");
    let pool = counts.pool;
    m.add("trace_pool.hits", pool.hits as f64, "count");
    m.add("trace_pool.misses", pool.misses as f64, "count");
    m.add("trace_pool.hit_ratio", pool.hit_ratio(), "ratio");
    m.add(
        "trace_pool.resident_mib",
        pool.memory_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );

    // Kernels on the workload's own CPU traces.
    let profiles: Vec<_> = nominal
        .reqs
        .iter()
        .filter_map(|g| match &g.request {
            Request::Simulate(s) => Some((s.workload.clone(), s.seed)),
            _ => None,
        })
        .filter_map(|(w, seed)| match exec::resolve_workload(&w, seed) {
            Ok(Workload::Single(profile)) => Some(profile),
            _ => None,
        })
        .fold(
            Vec::new(),
            |mut acc: Vec<smith85_synth::ProgramProfile>, p| {
                if acc.len() < KERNEL_PROFILES && !acc.iter().any(|q| q.name == p.name) {
                    acc.push(p);
                }
                acc
            },
        );
    let (traces, materialize) = kernels::materialize(&mut rec, &profiles, HOT_LEN);
    m.add_p50("trace_pool.materialize_ms.p50", &materialize, "ms");
    m.note_summary("trace_pool.materialize_ms", &materialize, "ms");
    kernels::cachesim(&mut rec, &traces, &mut m);
    kernels::synth(&mut rec, &profiles, HOT_LEN, &mut m);
    spans::self_time_metrics(&rec, &SELF_TIME_LAYERS, &mut m);
    m.add("bench.spans", rec.spans().len() as f64, "count");
    spans::write(ctx, "serve_hot", &rec, &mut m)?;

    let fleet = probe::run(ctx)?;
    attempted += fleet.attempted;
    failed += fleet.failed;
    m.absorb(fleet.metrics, "fleet probe");
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail: Vec::new(),
        bypassed: BYPASSED,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_rate_interpolates_between_the_last_pass_and_the_first_failure() {
        let ladder = [
            (100.0, 5.0, true),
            (200.0, 10.0, true),
            (300.0, 30.0, false),
        ];
        assert_eq!(max_rate(&ladder, 20.0), 250.0);
        // A failure on backlog or refusals with the tail under the limit
        // stays at the last passing rung.
        assert_eq!(
            max_rate(&[(100.0, 5.0, true), (200.0, 8.0, false)], 20.0),
            100.0
        );
        assert_eq!(
            max_rate(&[(100.0, 5.0, true), (200.0, 8.0, true)], 20.0),
            200.0
        );
        assert_eq!(max_rate(&[(100.0, 50.0, false)], 20.0), 0.0);
        // A huge tail on the failing rung pins the answer near the pass.
        let r = max_rate(&[(100.0, 10.0, true), (200.0, 10_000.0, false)], 20.0);
        assert!(r > 100.0 && r < 101.0, "{r}");
    }
}
