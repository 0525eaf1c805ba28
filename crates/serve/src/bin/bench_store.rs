//! Cross-process warm-start accounting for the PR-9 persistent store,
//! written to `BENCH_PR9.json`.
//!
//! Three questions, three sections:
//!
//! 1. **Cold vs warm process throughput.** The `BENCH_PR4.json` suite
//!    (`paper_suite` DAGs under the declaration order) is evaluated by a
//!    *fresh engine per round* — the process-restart simulation — in
//!    three modes: storeless baseline, **cold** (fresh engine over an
//!    empty store directory, paying every compile *and* every persist),
//!    and **warm** (fresh engine over the directory a previous "process"
//!    populated, so every front is served from disk without compiling).
//!    All fronts are asserted identical to the fresh-manager baseline
//!    before any clock starts, and the warm rounds are additionally
//!    asserted to be pure store service (`store_misses == 0`). The
//!    acceptance gate `warm ≥ ×3 cold` is asserted, not just reported.
//!
//! 2. **Store-open cost.** Opening the populated store with its sidecar
//!    index intact vs with the index deleted (the crash-recovery path: a
//!    full log scan rebuilds it). Both are line items in the JSON so the
//!    warm-start win can be read net of its setup cost.
//!
//! 3. **Served latency across a restart.** A one-worker [`Server`] with
//!    `--store` answers the suite over a socketpair via the blocking
//!    [`Client`]; the server is then dropped and a *new* server over the
//!    same directory answers the same queries. Per-query p50 before vs
//!    after the restart shows the warm start end-to-end through the wire
//!    protocol.
//!
//! Usage: `cargo run --release -p adt-serve --bin bench_store [-- OUT]`
//! (default output `BENCH_PR9.json`). `BENCH_STORE_QUICK=1` shrinks the
//! suite for CI smoke; `BENCH_STORE_ROUNDS` overrides the per-mode round
//! count (default 4, median reported).

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use adt_bench::json::{bench_report, Object, Value};
use adt_bench::{engine_suite_report, evaluate_suite, median, SuiteEngine};
use adt_core::dsl::Document;
use adt_gen::{paper_suite, suite_jobs, OrderingKind, Shape, SuiteJob};
use adt_serve::{Client, ServeConfig, Server, DEFAULT_MAX_QUERY_BYTES};
use adt_store::{Store, TestDir};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One timed full-suite pass on a freshly constructed engine — the
/// process-restart simulation: nothing but the disk is warm.
fn restarted_round(jobs: &[SuiteJob], store: Option<&TestDir>) -> (Duration, SuiteEngine) {
    let mut engine = SuiteEngine::new();
    if let Some(dir) = store {
        engine
            .open_store(dir.path())
            .expect("store opens in the scratch directory");
    }
    let start = Instant::now();
    for job in jobs {
        std::hint::black_box(engine_suite_report(&mut engine, job));
    }
    (start.elapsed(), engine)
}

/// Serves every query through one server instance over a socketpair and
/// returns the per-query latencies, in order.
fn serve_latencies(store: &TestDir, queries: &[String]) -> Vec<Duration> {
    let server = Server::new(ServeConfig {
        jobs: 1,
        max_inflight: 4,
        gc_threshold: adt_analysis::DEFAULT_GC_THRESHOLD,
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store: Some(store.path().to_path_buf()),
        ..ServeConfig::default()
    });
    let (local, remote) = UnixStream::pair().expect("socketpair");
    let server_thread = std::thread::spawn(move || {
        let write_half = remote.try_clone().expect("clonable stream");
        server
            .serve_connection(&remote, write_half)
            .expect("clean server session");
        server.drain();
    });
    let write_half = local.try_clone().expect("clonable stream");
    let mut client = Client::new(&local, write_half);
    let mut latencies = Vec::with_capacity(queries.len());
    for query in queries {
        let start = Instant::now();
        client
            .query(query)
            .expect("the corpus has no failing queries");
        latencies.push(start.elapsed());
    }
    client.shutdown().expect("graceful shutdown flush");
    server_thread.join().expect("server thread");
    latencies
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR9.json".into());
    let quick = std::env::var("BENCH_STORE_QUICK").is_ok();
    let rounds: usize = std::env::var("BENCH_STORE_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 2 } else { 4 })
        .max(1);

    // --- section 1: cold vs warm process throughput ----------------------
    // The BENCH_PR4 throughput workload, shrunk under BENCH_STORE_QUICK.
    let count = if quick { 8 } else { 40 };
    let jobs: Vec<SuiteJob> = suite_jobs(
        paper_suite(count, 45, Shape::Dag, 42),
        OrderingKind::Declaration,
    )
    .collect();
    let baseline = evaluate_suite(&jobs, 1);

    // Correctness gate before any timing: the store-backed paths must
    // agree with the fresh-manager baseline front-for-front — a cold
    // engine writing the store, then a restarted engine reading it back.
    let warm_dir = TestDir::new("bench-populate");
    let (_, populate_engine) = restarted_round(&jobs, Some(&warm_dir));
    let populate_stats = populate_engine.stats();
    assert_eq!(populate_stats.store_hits, 0, "an empty store cannot hit");
    assert!(
        populate_stats.store_writes > 0,
        "the cold pass must persist its fronts"
    );
    for (mode_dir, mode) in [(None, "storeless"), (Some(&warm_dir), "warm")] {
        let mut engine = SuiteEngine::new();
        if let Some(dir) = mode_dir {
            engine.open_store(dir.path()).expect("store reopens");
        }
        for (job, expected) in jobs.iter().zip(&baseline) {
            let report = engine_suite_report(&mut engine, job);
            assert_eq!(
                report.front, expected.result.front,
                "{mode}: engine front diverged from the fresh-manager baseline"
            );
            assert_eq!(report.bdd_nodes, expected.result.bdd_nodes);
        }
        if mode == "warm" {
            let stats = engine.stats();
            assert_eq!(
                stats.store_misses, 0,
                "warm restart must be pure store service"
            );
            assert_eq!(stats.store_hits, jobs.len());
        }
    }

    let mut baseline_rounds: Vec<Duration> = (0..rounds)
        .map(|_| restarted_round(&jobs, None).0)
        .collect();
    let mut cold_rounds: Vec<Duration> = (0..rounds)
        .map(|_| {
            let dir = TestDir::new("bench-cold");
            restarted_round(&jobs, Some(&dir)).0
        })
        .collect();
    let mut warm_hit_rate = 0.0;
    let mut warm_rounds: Vec<Duration> = (0..rounds)
        .map(|_| {
            let (elapsed, engine) = restarted_round(&jobs, Some(&warm_dir));
            warm_hit_rate = engine.stats().store_hit_rate();
            elapsed
        })
        .collect();
    let baseline_ms = ms(median(&mut baseline_rounds).expect("rounds >= 1"));
    let cold_ms = ms(median(&mut cold_rounds).expect("rounds >= 1"));
    let warm_ms = ms(median(&mut warm_rounds).expect("rounds >= 1"));
    let speedup = cold_ms / warm_ms;
    eprintln!(
        "throughput: {} instances/round, storeless {baseline_ms:.2}ms, cold-process \
         {cold_ms:.2}ms, warm-process {warm_ms:.2}ms (×{speedup:.1}, hit rate \
         {warm_hit_rate:.2})",
        jobs.len()
    );
    assert!(
        speedup >= 3.0,
        "acceptance gate: a warm process must be at least x3 a cold one \
         (cold {cold_ms:.2}ms vs warm {warm_ms:.2}ms)"
    );

    // --- section 2: store-open cost, with and without the sidecar --------
    let open_start = Instant::now();
    let indexed = Store::open(warm_dir.path()).expect("indexed open");
    let open_indexed = open_start.elapsed();
    assert!(!indexed.stats().rebuilt_index, "the sidecar was intact");
    let records = indexed.len();
    drop(indexed);
    std::fs::remove_file(warm_dir.path().join("store.idx")).expect("sidecar removable");
    let open_start = Instant::now();
    let rebuilt = Store::open(warm_dir.path()).expect("rebuilding open");
    let open_rebuilt = open_start.elapsed();
    assert!(
        rebuilt.stats().rebuilt_index,
        "a missing sidecar forces the full-log scan"
    );
    assert_eq!(rebuilt.len(), records, "the rebuild recovers every record");
    drop(rebuilt);
    eprintln!(
        "open: {records} records, {:.3}ms with the sidecar index, {:.3}ms rebuilding it",
        ms(open_indexed),
        ms(open_rebuilt)
    );

    // --- section 3: served p50 across a restart --------------------------
    let queries: Vec<String> = jobs
        .iter()
        .map(|job| Document::from_cost_adt("g", &job.instance.adt).to_dsl())
        .collect();
    let serve_dir = TestDir::new("bench-serve");
    let mut before = serve_latencies(&serve_dir, &queries);
    let mut after = serve_latencies(&serve_dir, &queries);
    let p50_before = median(&mut before).expect("nonempty corpus");
    let p50_after = median(&mut after).expect("nonempty corpus");
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    eprintln!(
        "served: {} queries, p50 {:.0}us before the restart vs {:.0}us after",
        queries.len(),
        us(p50_before),
        us(p50_after)
    );

    // --- JSON emission ---------------------------------------------------
    let description = format!(
        "Persistent content-addressed store: cross-process warm starts. throughput: the \
         BENCH_PR4 suite evaluated by a fresh engine per round (process-restart \
         simulation) storeless, over an empty store (cold: compiles + persists), and over \
         a populated store (warm: fronts served from disk); medians of {rounds} rounds, \
         correctness asserted against the fresh-manager baseline before timing, and the \
         x3 warm-vs-cold gate asserted. open: store-open wall-clock with the sidecar \
         index intact vs deleted (full-log rebuild). served: per-query p50 through the \
         framed server + blocking client over a socketpair, same store directory, before \
         vs after a server restart."
    );
    let report = bench_report(9, &description, 1)
        .field(
            "throughput",
            Object::new()
                .field("suite", "fig9_paper_dag")
                .field("instances", jobs.len())
                .field("rounds", rounds)
                .field("storeless_round_ms", Value::float(baseline_ms, 2))
                .field("cold_process_round_ms", Value::float(cold_ms, 2))
                .field("warm_process_round_ms", Value::float(warm_ms, 2))
                .field("warm_speedup", Value::float(speedup, 2))
                .field("warm_speedup_gate_x3", speedup >= 3.0)
                .field("warm_store_hit_rate", Value::float(warm_hit_rate, 4))
                .field("cold_store_writes", populate_stats.store_writes),
        )
        .field(
            "open_cost",
            Object::new()
                .field("records", records)
                .field("open_with_index_ms", Value::float(ms(open_indexed), 3))
                .field("open_rebuild_index_ms", Value::float(ms(open_rebuilt), 3)),
        )
        .field(
            "served",
            Object::new()
                .field("queries", queries.len())
                .field("p50_before_restart_us", Value::float(us(p50_before), 1))
                .field("p50_after_restart_us", Value::float(us(p50_after), 1)),
        )
        .field("quick_mode", quick)
        .field(
            "summary",
            Object::new().field(
                "note",
                "Single-threaded and one-worker by design: the numbers isolate the disk \
                 tier (serialize, fsync, probe, replay) from parallelism. Cold includes \
                 the persist cost a first process pays; warm is what every later process \
                 gets, net of the store-open line items. The serving section runs the \
                 same restart through the wire protocol: the second server answers from \
                 the store its predecessor wrote.",
            ),
        );
    std::fs::write(&out_path, report.render()).expect("write store benchmark");
    eprintln!(
        "wrote {out_path}: warm x{speedup:.1}, served p50 {:.0}us -> {:.0}us",
        us(p50_before),
        us(p50_after)
    );
}
