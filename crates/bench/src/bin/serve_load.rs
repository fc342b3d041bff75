//! Load generator for the smith85-serve simulation service.
//!
//! Drives N concurrent TCP connections, each issuing a stream of
//! `simulate` requests over a small set of catalog workloads (so the
//! shared trace pool sees both misses and hits), and reports
//! requests/sec plus p50/p95/p99 latency and the number of admission
//! rejections:
//!
//! ```text
//! cargo run --release -p smith85-bench --bin serve_load -- \
//!     [quick|paper] [--addr HOST:PORT] [--store DIR] [--connections N] \
//!     [OUT.json]
//! ```
//!
//! Without `--addr` the generator spawns an in-process server on an
//! ephemeral port, which keeps the benchmark self-contained and
//! runnable in CI, and appends a `scale_out` section: an event-loop
//! pass at >= 64 connections (the regime where a thread-per-connection
//! accept loop falls over) and a two-backend router pass whose
//! responses are checked bit-identical against a direct single-node
//! call. With `--store DIR` the benchmark measures the persistent
//! store's warm-start win: it runs the load twice against the same
//! store directory — a cold pass on an empty store, then a restarted
//! server over the now-populated store — and reports both passes side
//! by side. Results land in `OUT.json` (default `BENCH_serve.json`),
//! documented in `EXPERIMENTS.md`.

use smith85_core::session::SimSession;
use smith85_serve::{
    CacheSpec, Client, Request, Response, RouterOptions, ServeOptions, Server, SimulateSpec,
};
use smith85_tracelog::json::{self, Json};
use std::time::Instant;

/// Workloads cycled through by every connection; repeats make the
/// shared trace pool serve hits after the first materialization.
const WORKLOADS: &[&str] = &["VCCOM", "ZGREP", "PL0", "TWOD"];

/// Cache sizes cycled through per request.
const SIZES: &[usize] = &[1 << 12, 1 << 14, 1 << 16];

struct ModeConfig {
    connections: usize,
    requests_per_connection: usize,
    trace_len: usize,
}

struct ConnectionOutcome {
    latencies_ms: Vec<f64>,
    rejections: u64,
    errors: u64,
}

/// One full load run against a live server: merged latency distribution,
/// admission outcomes, wall time, and the server's own counters.
struct PassResult {
    latencies_ms: Vec<f64>,
    rejections: u64,
    errors: u64,
    wall_secs: f64,
    stats: Option<smith85_serve::StatsResult>,
}

impl PassResult {
    fn completed(&self) -> usize {
        self.latencies_ms.len()
    }

    fn requests_per_sec(&self) -> f64 {
        self.completed() as f64 / self.wall_secs.max(1e-12)
    }
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0) * (sorted_ms.len() - 1) as f64;
    sorted_ms[rank.round() as usize]
}

fn drive_connection(
    addr: &str,
    id: usize,
    config: &ModeConfig,
) -> Result<ConnectionOutcome, std::io::Error> {
    let mut client = Client::builder()
        .addr(addr)
        .connect()
        .map_err(std::io::Error::other)?;
    let mut outcome = ConnectionOutcome {
        latencies_ms: Vec::with_capacity(config.requests_per_connection),
        rejections: 0,
        errors: 0,
    };
    for i in 0..config.requests_per_connection {
        let pick = id + i;
        let request = Request::Simulate(SimulateSpec {
            workload: WORKLOADS[pick % WORKLOADS.len()].to_string(),
            len: config.trace_len,
            seed: None,
            cache: CacheSpec {
                size: SIZES[pick % SIZES.len()],
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        });
        let start = Instant::now();
        // call_raw keeps server-side errors as wire responses so the
        // overload tally below sees them.
        let response = client.call_raw(&request)?;
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        match response {
            Response::Simulate(_) => outcome.latencies_ms.push(elapsed_ms),
            Response::Error(e) if e.code == smith85_serve::ErrorCode::Overloaded => {
                outcome.rejections += 1;
            }
            _ => outcome.errors += 1,
        }
    }
    Ok(outcome)
}

/// Runs the full connection fan-out against `target` and gathers the
/// merged outcome plus the server's stats counters.
fn run_pass(target: &str, config: &ModeConfig) -> PassResult {
    let start = Instant::now();
    let outcomes: Vec<ConnectionOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.connections)
            .map(|id| {
                let config = &config;
                scope.spawn(move || drive_connection(target, id, config))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread").expect("connection I/O"))
            .collect()
    });
    let wall_secs = start.elapsed().as_secs_f64();

    let mut latencies: Vec<f64> = Vec::new();
    let mut rejections = 0u64;
    let mut errors = 0u64;
    for outcome in &outcomes {
        latencies.extend_from_slice(&outcome.latencies_ms);
        rejections += outcome.rejections;
        errors += outcome.errors;
    }
    latencies.sort_by(|a, b| a.total_cmp(b));

    let stats = {
        let mut client = Client::builder()
            .addr(target)
            .connect()
            .expect("stats connection");
        match client.call(&Request::Stats).expect("stats request") {
            Response::Stats(stats) => Some(stats),
            _ => None,
        }
    };
    PassResult {
        latencies_ms: latencies,
        rejections,
        errors,
        wall_secs,
        stats,
    }
}

fn spawn_store_server(store_dir: &str) -> smith85_serve::RunningServer {
    let session = SimSession::builder()
        .store(store_dir)
        .build()
        .expect("session with store");
    Server::spawn(
        ServeOptions::builder()
            .addr("127.0.0.1:0")
            .session(session)
            .build()
            .expect("store-backed serve options"),
    )
    .expect("spawn store-backed server")
}

/// The scale-out measurements appended when the benchmark owns its own
/// servers: an event-loop pass at many connections (journaling off and
/// on, to price the observability layer), and a router pass over two
/// in-process backend shards.
struct ScaleOut {
    event_loop_connections: usize,
    event_loop: PassResult,
    /// The same event-loop pass with a trace journal attached: every
    /// request now emits spans and an access-log event to disk. The
    /// journaling-off pass above costs nothing extra by construction
    /// (the sink short-circuits when no journal is configured).
    instrumented: PassResult,
    /// Throughput cost of journaling, percent (positive = journaling
    /// is slower): the median of per-pair overheads across interleaved
    /// baseline/journal rounds, which cancels machine drift that a
    /// single best-vs-best ratio would misattribute to the code path.
    journal_overhead_percent: f64,
    router_backends: usize,
    router: PassResult,
    bit_identical: bool,
}

/// Normalizes a response for payload comparison: queue/exec timings and
/// trace ids legitimately differ between two executions of the same
/// deterministic request, everything else must match bit-for-bit.
fn normalized(response: &Response) -> String {
    let mut response = response.clone();
    match &mut response {
        Response::Simulate(r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id = String::new();
        }
        Response::Sweep(r) => {
            r.queue_ms = 0;
            r.exec_ms = 0;
            r.trace_id = String::new();
        }
        _ => {}
    }
    response.encode()
}

/// Issues the same deterministic requests through the router and
/// directly to a backend shard; the payloads must agree exactly.
fn check_bit_identical(router_addr: &str, backend_addr: &str, trace_len: usize) -> bool {
    let mut via_router = Client::builder()
        .addr(router_addr)
        .connect()
        .expect("router connection");
    let mut direct = Client::builder()
        .addr(backend_addr)
        .connect()
        .expect("backend connection");
    (0..WORKLOADS.len()).all(|i| {
        let request = Request::Simulate(SimulateSpec {
            workload: WORKLOADS[i].to_string(),
            len: trace_len,
            seed: None,
            cache: CacheSpec {
                size: SIZES[i % SIZES.len()],
                line: 16,
                ways: None,
                purge: None,
            },
            policy: None,
            deadline_ms: None,
        });
        let routed = via_router.call(&request).expect("routed simulate");
        let local = direct.call(&request).expect("direct simulate");
        normalized(&routed) == normalized(&local)
    })
}

/// Runs the event-loop and router passes against in-process servers.
fn run_scale_out(config: &ModeConfig) -> ScaleOut {
    // Event loop: the connection count where a thread-per-connection
    // accept loop (with its 100ms accept cadence) stops keeping up.
    let connections = config.connections.max(64);
    let event_server = Server::spawn(
        ServeOptions::builder()
            .addr("127.0.0.1:0")
            .queue_capacity(connections * 4)
            .build()
            .expect("event-loop serve options"),
    )
    .expect("spawn event-loop server");
    // Journaling costs a fixed ~5 events per request, independent of
    // request size, so the overhead ratio below is only meaningful
    // against a representative request — quick mode's micro requests
    // would quote the fixed cost against almost no work. Pin the
    // scale-out passes to the full-mode request size in every mode.
    let event_config = ModeConfig {
        connections,
        requests_per_connection: 8,
        trace_len: config.trace_len.max(50_000),
    };
    // The identical topology with journaling on: same load, plus
    // per-request spans and an access-log event written to disk.
    let journal_path = std::env::temp_dir().join(format!(
        "smith85-serve-bench-journal-{}.ndjson",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&journal_path);
    let instr_server = Server::spawn(
        ServeOptions::builder()
            .addr("127.0.0.1:0")
            .queue_capacity(connections * 4)
            .journal(journal_path.clone())
            .build()
            .expect("instrumented serve options"),
    )
    .expect("spawn instrumented event-loop server");

    // The journaling price tag is a ratio of two short passes, and the
    // box drifts (CPU frequency, neighbours) on a scale of seconds —
    // two back-to-back blocks of rounds would measure the drift, not
    // the code path. Interleave paired rounds (baseline, journal,
    // baseline, journal, ...) so each pair sees the same machine
    // weather, and take the MEDIAN per-pair overhead: pairing cancels
    // drift, the median shrugs off the odd descheduled round. The
    // first (warm-up) pair populates the shared trace pool on both
    // servers and is discarded.
    const MEASURED_PAIRS: usize = 9;
    let event_addr = event_server.addr().to_string();
    let instr_addr = instr_server.addr().to_string();
    let mut pairs: Vec<(PassResult, PassResult)> = (0..MEASURED_PAIRS + 1)
        .map(|round| {
            // Alternate which server goes first so any systematic
            // first-runner advantage cancels across pairs too.
            if round % 2 == 0 {
                (
                    run_pass(&event_addr, &event_config),
                    run_pass(&instr_addr, &event_config),
                )
            } else {
                let instr = run_pass(&instr_addr, &event_config);
                (run_pass(&event_addr, &event_config), instr)
            }
        })
        .collect();
    pairs.remove(0); // warm-up pair
    let mut overheads: Vec<f64> = pairs
        .iter()
        .map(|(base, instr)| {
            (1.0 - instr.requests_per_sec() / base.requests_per_sec()) * 100.0
        })
        .collect();
    overheads.sort_by(|a, b| a.total_cmp(b));
    let journal_overhead_percent = overheads[overheads.len() / 2];

    let best = |passes: Vec<PassResult>| -> PassResult {
        passes
            .into_iter()
            .max_by(|a, b| a.requests_per_sec().total_cmp(&b.requests_per_sec()))
            .expect("measured rounds ran")
    };
    let (bases, instrs): (Vec<PassResult>, Vec<PassResult>) = pairs.into_iter().unzip();
    let event_pass = best(bases);
    let instr_pass = best(instrs);
    event_server.stop().expect("clean event-loop shutdown");
    instr_server.stop().expect("clean instrumented shutdown");
    print_pass("event-loop", &event_config, "in-process", &event_pass);
    print_pass("event-loop+journal", &event_config, "in-process", &instr_pass);
    let _ = std::fs::remove_file(&journal_path);

    // Router: two backend shards plus a front router, all in-process.
    let backends: Vec<smith85_serve::RunningServer> = (0..2)
        .map(|_| {
            Server::spawn(
                ServeOptions::builder()
                    .addr("127.0.0.1:0")
                    .build()
                    .expect("backend serve options"),
            )
            .expect("spawn backend shard")
        })
        .collect();
    let backend_addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router_server = Server::spawn(
        ServeOptions::builder()
            .addr("127.0.0.1:0")
            .router(RouterOptions {
                backends: backend_addrs.clone(),
                probe_interval_ms: 100,
                ..RouterOptions::default()
            })
            .build()
            .expect("router serve options"),
    )
    .expect("spawn router");
    let router_addr = router_server.addr().to_string();
    let bit_identical = check_bit_identical(&router_addr, &backend_addrs[0], config.trace_len);
    let router_config = ModeConfig {
        connections: config.connections,
        requests_per_connection: config.requests_per_connection,
        trace_len: config.trace_len,
    };
    let router_pass = run_pass(&router_addr, &router_config);
    router_server.stop().expect("clean router shutdown");
    for backend in backends {
        backend.stop().expect("clean backend shutdown");
    }
    print_pass("router", &router_config, "2 shards", &router_pass);
    println!(
        "router: responses bit-identical to a direct backend call: {bit_identical}"
    );

    let scale_out = ScaleOut {
        event_loop_connections: connections,
        event_loop: event_pass,
        instrumented: instr_pass,
        journal_overhead_percent,
        router_backends: 2,
        router: router_pass,
        bit_identical,
    };
    println!(
        "event-loop journaling overhead: {:.1}% median of {MEASURED_PAIRS} paired rounds \
         (0% by construction when disabled)",
        scale_out.journal_overhead_percent
    );
    scale_out
}

/// `x` rounded to `places` decimal places, as a JSON number.
fn fixed(x: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((x * scale).round() / scale)
}

/// One pass's JSON fields (shared shape for the top level, the cold/warm
/// store comparison and every scale-out pass).
fn pass_fields(pass: &PassResult) -> Vec<(&'static str, Json)> {
    let latencies = &pass.latencies_ms;
    let server = match &pass.stats {
        Some(stats) => {
            let mut fields = vec![
                (
                    "queue_high_water",
                    Json::Uint(stats.queue_high_water as u64),
                ),
                ("workers", Json::Uint(stats.workers as u64)),
                ("pool_hits", Json::Uint(stats.pool.hits)),
                ("pool_misses", Json::Uint(stats.pool.misses)),
                (
                    "pool_materialized_bytes",
                    Json::Uint(stats.pool.materialized_bytes),
                ),
            ];
            if let Some(store) = &stats.store {
                fields.extend([
                    ("store_hits", Json::Uint(store.hits)),
                    ("store_misses", Json::Uint(store.misses)),
                    ("store_writes", Json::Uint(store.writes)),
                    ("store_bytes", Json::Uint(store.bytes)),
                ]);
            }
            json::obj(fields)
        }
        None => Json::Null,
    };
    vec![
        ("completed", Json::Uint(pass.completed() as u64)),
        ("rejected_overload", Json::Uint(pass.rejections)),
        ("errors", Json::Uint(pass.errors)),
        ("wall_secs", fixed(pass.wall_secs, 6)),
        ("requests_per_sec", fixed(pass.requests_per_sec(), 1)),
        (
            "latency_ms",
            json::obj(vec![
                ("p50", fixed(percentile(latencies, 50.0), 3)),
                ("p95", fixed(percentile(latencies, 95.0), 3)),
                ("p99", fixed(percentile(latencies, 99.0), 3)),
                ("max", fixed(latencies.last().copied().unwrap_or(0.0), 3)),
            ]),
        ),
        ("server", server),
    ]
}

/// `head` followed by `pass`'s fields, as one object.
fn with_pass(mut head: Vec<(&'static str, Json)>, pass: &PassResult) -> Json {
    head.extend(pass_fields(pass));
    json::obj(head)
}

fn render_json(
    mode: &str,
    config: &ModeConfig,
    target: &str,
    primary: &PassResult,
    store: Option<(&str, &PassResult)>,
    scale_out: Option<&ScaleOut>,
) -> String {
    let store = match store {
        Some((path, warm)) => json::obj(vec![
            ("path", json::s(path)),
            (
                "warm_speedup",
                fixed(
                    warm.requests_per_sec() / primary.requests_per_sec().max(1e-12),
                    2,
                ),
            ),
            ("warm", json::obj(pass_fields(warm))),
        ]),
        None => Json::Null,
    };
    let scale_out = match scale_out {
        Some(so) => {
            let mut router = vec![
                ("backends", Json::Uint(so.router_backends as u64)),
                ("bit_identical", Json::Bool(so.bit_identical)),
            ];
            if let Some(counters) = so.router.stats.as_ref().and_then(|st| st.router.as_ref()) {
                router.extend([
                    ("forwarded", Json::Uint(counters.forwarded)),
                    ("hedged", Json::Uint(counters.hedged)),
                    ("shard_overloads", Json::Uint(counters.shard_overloads)),
                    ("shards_healthy", Json::Uint(counters.healthy)),
                ]);
            }
            json::obj(vec![
                (
                    "event_loop",
                    with_pass(
                        vec![("connections", Json::Uint(so.event_loop_connections as u64))],
                        &so.event_loop,
                    ),
                ),
                // v4: the observability price tag. The disabled figure is
                // structural — no journal configured means the tracing
                // sink short-circuits before any work happens.
                (
                    "instrumentation",
                    json::obj(vec![
                        (
                            "journal_overhead_percent",
                            fixed(so.journal_overhead_percent, 1),
                        ),
                        ("disabled_overhead_percent", Json::Num(0.0)),
                        ("journal_enabled", json::obj(pass_fields(&so.instrumented))),
                    ]),
                ),
                ("router", with_pass(router, &so.router)),
            ])
        }
        None => Json::Null,
    };
    let mut bench = vec![
        ("schema", json::s("smith85-serve-bench-v4")),
        ("mode", json::s(mode)),
        ("target", json::s(target)),
        ("connections", Json::Uint(config.connections as u64)),
        (
            "requests_per_connection",
            Json::Uint(config.requests_per_connection as u64),
        ),
        ("trace_len", Json::Uint(config.trace_len as u64)),
    ];
    bench.extend(pass_fields(primary));
    bench.extend([("store", store), ("scale_out", scale_out)]);
    format!("{}\n", json::obj(bench))
}

fn print_pass(label: &str, config: &ModeConfig, target_label: &str, pass: &PassResult) {
    println!(
        "{label}: {} connections x {} requests against {target_label}: {} completed, \
         {} rejected, {} errors in {:.2}s ({:.1} req/s)",
        config.connections,
        config.requests_per_connection,
        pass.completed(),
        pass.rejections,
        pass.errors,
        pass.wall_secs,
        pass.requests_per_sec(),
    );
    println!(
        "{label}: latency ms: p50 {:.2}  p95 {:.2}  p99 {:.2}  max {:.2}",
        percentile(&pass.latencies_ms, 50.0),
        percentile(&pass.latencies_ms, 95.0),
        percentile(&pass.latencies_ms, 99.0),
        pass.latencies_ms.last().copied().unwrap_or(0.0),
    );
    if let Some(stats) = &pass.stats {
        let store = match &stats.store {
            Some(s) => format!(", store {} hits / {} writes", s.hits, s.writes),
            None => String::new(),
        };
        println!(
            "{label}: server: queue high water {}, pool {} hits / {} misses{store}",
            stats.queue_high_water, stats.pool.hits, stats.pool.misses
        );
    }
}

fn main() {
    let mut mode = "paper".to_string();
    let mut out_path = "BENCH_serve.json".to_string();
    let mut addr: Option<String> = None;
    let mut store_dir: Option<String> = None;
    let mut connections_override: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "quick" | "paper" => mode = arg,
            "--addr" => addr = Some(args.next().expect("--addr needs HOST:PORT")),
            "--store" => store_dir = Some(args.next().expect("--store needs DIR")),
            "--connections" => {
                connections_override = Some(
                    args.next()
                        .expect("--connections needs N")
                        .parse()
                        .expect("--connections N must be a number"),
                )
            }
            other => out_path = other.to_string(),
        }
    }
    if addr.is_some() && store_dir.is_some() {
        eprintln!("--store spawns its own in-process servers; drop --addr");
        std::process::exit(2);
    }
    let mut config = if mode == "quick" {
        ModeConfig {
            connections: 4,
            requests_per_connection: 8,
            trace_len: 10_000,
        }
    } else {
        ModeConfig {
            connections: 8,
            requests_per_connection: 32,
            trace_len: 50_000,
        }
    };
    if let Some(n) = connections_override {
        config.connections = n.max(1);
    }

    if let Some(dir) = &store_dir {
        // Cold/warm store comparison: an empty store, a full load pass,
        // then a *restarted* server over the populated directory.
        let _ = std::fs::remove_dir_all(dir);
        let cold_server = spawn_store_server(dir);
        let cold_target = cold_server.addr().to_string();
        let cold = run_pass(&cold_target, &config);
        cold_server.stop().expect("clean cold shutdown");
        print_pass("cold", &config, "in-process --store", &cold);

        let warm_server = spawn_store_server(dir);
        let warm_target = warm_server.addr().to_string();
        let warm = run_pass(&warm_target, &config);
        warm_server.stop().expect("clean warm shutdown");
        print_pass("warm", &config, "in-process --store", &warm);
        println!(
            "warm restart speedup: {:.2}x",
            warm.requests_per_sec() / cold.requests_per_sec().max(1e-12)
        );

        let json = render_json(
            &mode,
            &config,
            "in-process --store",
            &cold,
            Some((dir, &warm)),
            None,
        );
        std::fs::write(&out_path, &json).expect("write benchmark result file");
        println!("wrote {out_path}");
        return;
    }

    // Without --addr, run against an in-process server so the benchmark
    // needs no prior setup (and CI can run it as-is).
    let in_process = match addr {
        Some(_) => None,
        None => Some(
            Server::spawn(
                ServeOptions::builder()
                    .addr("127.0.0.1:0")
                    .build()
                    .expect("serve options"),
            )
            .expect("spawn in-process server"),
        ),
    };
    let target = match (&addr, &in_process) {
        (Some(a), _) => a.clone(),
        (None, Some(server)) => server.addr().to_string(),
        (None, None) => unreachable!(),
    };
    let target_label = if addr.is_some() {
        target.clone()
    } else {
        "in-process".to_string()
    };

    let pass = run_pass(&target, &config);
    let owns_servers = in_process.is_some();
    if let Some(server) = in_process {
        server.stop().expect("clean shutdown");
    }
    print_pass("load", &config, &target_label, &pass);

    // Scale-out passes spawn their own servers, so they only run when
    // the benchmark owns the topology (no --addr).
    let scale_out = owns_servers.then(|| run_scale_out(&config));

    let json = render_json(
        &mode,
        &config,
        &target_label,
        &pass,
        None,
        scale_out.as_ref(),
    );
    std::fs::write(&out_path, &json).expect("write benchmark result file");
    println!("wrote {out_path}");
}
