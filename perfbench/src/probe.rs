//! The fleet probe of the traced `serve_hot` run: `serve --router` in
//! front of two shards, each with a store and a journal, the router with
//! a journal (it refuses a store). Most keys are new, so a request
//! generates a trace, misses the pool and writes the store; a fixed share
//! repeats an earlier key and is answered from the store. The probe
//! measures the router, store and tracelog layers that `serve_hot`
//! bypasses.
//!
//! It is a probe, not a workload with end-to-end metrics: on the shared
//! disk of the machine the benchmark was built on, the stores' fsyncs
//! stalled for 100–300 ms at random, and no fleet latency or rate could
//! be made steady (see the README). It runs in three steps:
//!
//! 1. the nominal stream through the router, every reply checked against
//!    `exec` on a fresh session, then a clean shutdown, so every journal
//!    is flushed before `tracelog.bytes_per_request` is read;
//! 2. a fresh fleet on the same stores: each of the first distinct keys
//!    timed directly against a shard and through the router
//!    (`router.hop_ms`), the two replies compared byte for byte;
//! 3. the stream replayed in-process through `Store`, `TracePool` and
//!    `exec` (`store.*`, `exec.store_hit_us`, `exec.cold_us`).

use crate::fleet::{self, Fleet};
use crate::gen::{ColdStream, Generated};
use crate::serve_wl::{self, err, failures, normalize, us, Oracle, Verdict};
use crate::spans::{self, Recorder, Span};
use crate::stats::Summary;
use crate::sys;
use crate::{Ctx, Metrics, Outcome};
use smith85_store::Store;
use smith85_tracelog::report::read_journal;
use smith85_tracelog::EventKind;
use std::net::TcpStream;
use std::path::PathBuf;

/// Nominal open-loop rate of the probe's stream, requests/s.
const RATE: f64 = 100.0;
/// Share of `--seconds` the probe's nominal stream is sized by.
const SHARE: f64 = 0.35;
/// Keys timed both directly and through the router.
const HOP_SAMPLES: usize = 300;
/// Layers whose self time the probe reports.
const SELF_TIME_LAYERS: [&str; 3] = ["store", "router", "serve"];

/// A router in front of two shards.
struct Cluster {
    fleet: Fleet,
    router: String,
    shards: Vec<String>,
    journals: Vec<PathBuf>,
}

/// Spawns two shards on the stores `store-a` and `store-b` of the probe's
/// directory and a router in front of them, every one journaling to a
/// fresh `journal-<name>-<round>.ndjson`, and waits until the router sees
/// both shards healthy.
fn spawn(ctx: &Ctx, round: usize) -> Result<Cluster, String> {
    let path = |name: &str| ctx.work.join(name);
    let journal = |name: &str| path(&format!("journal-{name}-{round}.ndjson"));
    let arg = |p: PathBuf| p.display().to_string();
    let mut fleet = Fleet::default();
    let mut shards = Vec::new();
    for name in ["a", "b"] {
        let args = [
            "--store".into(),
            arg(path(&format!("store-{name}"))),
            "--journal".into(),
            arg(journal(name)),
        ];
        let log = path(&format!("shard-{name}-{round}.log"));
        shards.push(
            fleet
                .spawn(&ctx.smith85, &args, &log)
                .map_err(err("spawn shard"))?,
        );
    }
    let args = [
        "--router".into(),
        shards.join(","),
        "--journal".into(),
        arg(journal("router")),
    ];
    let router = fleet
        .spawn(&ctx.smith85, &args, &path(&format!("router-{round}.log")))
        .map_err(err("spawn router"))?;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let stats = fleet::stats(&router).map_err(err("router stats"))?;
        if stats.router.as_ref().is_some_and(|r| r.healthy == 2) {
            break;
        }
        if std::time::Instant::now() > deadline {
            return Err("router never saw both shards healthy".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    Ok(Cluster {
        fleet,
        router,
        shards,
        journals: ["a", "b", "router"].into_iter().map(journal).collect(),
    })
}

/// Total bytes of `journals` and the requests they record (root
/// `request` spans of the shards and `router_request` spans of the
/// router; a request through the router counts once in each journal).
fn journal_size(journals: &[PathBuf]) -> Result<(u64, u64), String> {
    let (mut bytes, mut requests) = (0, 0);
    for path in journals {
        let (_, events) =
            read_journal(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        requests += events
            .iter()
            .filter(|e| {
                e.kind == EventKind::SpanStart
                    && (e.name == "request" || e.name == "router_request")
            })
            .count() as u64;
        bytes += std::fs::metadata(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .len();
    }
    Ok((bytes, requests))
}

/// Runs the probe; its metrics are the router, store, tracelog and
/// fleet-side exec ones, and `self.{store,router,serve}_ms`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let ctx = &Ctx {
        seconds: ctx.seconds * SHARE,
        work: ctx.work.join("fleet"),
        ..ctx.clone()
    };
    std::fs::create_dir_all(&ctx.work).map_err(err("probe dir"))?;
    let mut m = Metrics::default();

    // 1. The nominal stream, then a clean shutdown that flushes the
    // journals.
    let cluster = spawn(ctx, 0)?;
    let mut stream = ColdStream::new(ctx.seed);
    sys::QuietWait::new().wait();
    let (nominal, _, _) = serve_wl::run_nominal(ctx, &cluster.router, &mut stream, RATE)?;
    let router = fleet::stats(&cluster.router)
        .map_err(err("router stats"))?
        .router
        .ok_or("router stats without router counters")?;
    m.add("router.forwarded", router.forwarded as f64, "count");
    m.add("router.hedged", router.hedged as f64, "count");
    m.add(
        "router.shard_overloads",
        router.shard_overloads as f64,
        "count",
    );
    cluster.fleet.shutdown().map_err(err("shutdown"))?;
    let (bytes, requests) = journal_size(&cluster.journals)?;
    if requests == 0 {
        return Err("the journals recorded no request".into());
    }
    m.add(
        "tracelog.bytes_per_request",
        bytes as f64 / requests as f64,
        "bytes",
    );
    m.notes.push(format!(
        "tracelog: {bytes} journal bytes for {requests} requests recorded ({} sent through the router)",
        nominal.reqs.len()
    ));
    let mut oracle = Oracle::new()?;
    oracle.prefill(nominal.reqs.iter(), ctx.nproc);
    let verdicts = oracle.phase(&nominal);
    let mut attempted = verdicts.len() as u64;
    let mut failed = failures(&verdicts, true);
    m.notes.push(format!(
        "{} requests at {RATE} rps, {} repeat an earlier key, {} wrong or failed",
        nominal.reqs.len(),
        nominal.reqs.iter().filter(|g| g.repeat).count(),
        verdicts.iter().filter(|&&v| v != Verdict::Right).count()
    ));

    // 2. The router hop, on a fresh fleet over the same stores.
    let cluster = spawn(ctx, 1)?;
    let mut seen = std::collections::HashSet::new();
    let keys: Vec<&Generated> = nominal
        .reqs
        .iter()
        .filter(|g| seen.insert(g.line.as_str()))
        .take(HOP_SAMPLES)
        .collect();
    // Put every key in both shards' stores first, so both paths answer
    // from a store whichever shard the ring picks. Never more than two
    // connections at once, as the generator's limit allows.
    for shard in &cluster.shards {
        let mut conn = TcpStream::connect(shard).map_err(err("connect shard"))?;
        for g in &keys {
            fleet::roundtrip(&mut conn, &g.line).map_err(err("shard warm-up"))?;
        }
    }
    let mut rec = Recorder::new(true);
    let mut via = TcpStream::connect(&cluster.router).map_err(err("connect router"))?;
    let mut direct = TcpStream::connect(&cluster.shards[0]).map_err(err("connect shard"))?;
    let mut hops = Vec::new();
    for (i, g) in keys.iter().enumerate() {
        let timed = |conn: &mut TcpStream| -> Result<(u64, u64, String), String> {
            let start = rec.clock();
            let reply = fleet::roundtrip(conn, &g.line).map_err(err("hop"))?;
            Ok((start, rec.clock(), reply))
        };
        // Alternate which path goes first.
        let (d, r) = if i % 2 == 0 {
            let d = timed(&mut direct)?;
            (d, timed(&mut via)?)
        } else {
            let r = timed(&mut via)?;
            (timed(&mut direct)?, r)
        };
        attempted += 1;
        if normalize(&d.2).is_err() || normalize(&d.2) != normalize(&r.2) {
            failed += 1;
        }
        let (direct_ns, via_ns) = (d.1 - d.0, r.1 - r.0);
        hops.push((via_ns as f64 - direct_ns as f64) / 1e6);
        // The via-router span holds the shard's share as a child, so
        // its self time is the hop.
        let parent = rec.record(Span {
            name: "router.via",
            request: i as u64,
            parent: None,
            start: r.0,
            end: r.1,
        });
        rec.record(Span {
            name: "serve.shard",
            request: i as u64,
            parent: Some(parent),
            start: r.0,
            end: r.0 + direct_ns.min(via_ns),
        });
    }
    drop((via, direct));
    cluster.fleet.shutdown().map_err(err("shutdown"))?;
    m.add_summary("router.hop_ms", &Summary::of(&hops), "ms");

    // 3. The stream replayed in-process on a fresh store.
    let store = Store::open(ctx.work.join("replay")).map_err(|e| format!("replay store: {e}"))?;
    let (_, counts) = serve_wl::replay(&nominal.reqs, &[], Some(&store), &mut rec)?;
    let timed = |name: &str, scale: f64| {
        Summary::of(
            &us(&spans::durations(rec.spans(), name))
                .iter()
                .map(|t| t * scale)
                .collect::<Vec<_>>(),
        )
    };
    m.add_p50("exec.store_hit_us.p50", &timed("exec.store_hit", 1.0), "us");
    m.add_p50("exec.cold_us.p50", &timed("exec.cold", 1.0), "us");
    m.add_p50("store.get_ms.p50", &timed("store.get", 1e-3), "ms");
    m.add_summary("store.put_ms", &timed("store.put", 1e-3), "ms");
    m.add(
        "store.result_hit_ratio",
        counts.hits as f64 / counts.gets.max(1) as f64,
        "ratio",
    );
    m.add(
        "store.written_mib",
        store.stats().total_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    spans::self_time_metrics(&rec, &SELF_TIME_LAYERS, &mut m);
    spans::write(ctx, "serve_hot-fleet", &rec, &mut m)?;
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        detail: Vec::new(),
        bypassed: &[],
    })
}
