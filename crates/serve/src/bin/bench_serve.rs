//! Open-loop load benchmark of the `adt-serve` query server.
//!
//! Drives an in-process server over a Unix socketpair with a fixed-rate
//! open-loop request schedule (requests are *scheduled* at `t_i = start +
//! i/rate` regardless of completions — the methodology that surfaces
//! queueing delay, unlike closed-loop drivers that self-throttle) and
//! writes `BENCH_PR8.json` with p50/p95/p99 latency and the sustained
//! throughput. Latency is measured from the request's **scheduled** send
//! time to its terminal frame (`S`/`E`), so sender stalls count against
//! the server, as they would for a real client.
//!
//! The corpus cycles through DSL renderings of the five differential
//! suite families, so after the first cycle the workload is cache-hot:
//! the numbers measure the serving stack (framing, session, admission,
//! pool handoff, response streaming), not BDD compilation. Backpressured
//! requests (`B` frames) complete the protocol but are excluded from the
//! latency percentiles and reported separately.
//!
//! Usage: `cargo run --release -p adt-serve --bin bench_serve [-- OUT]`
//! (default output `BENCH_PR8.json`). `BENCH_SERVE_QUICK=1` shrinks the
//! run for CI smoke; `BENCH_SERVE_RATE` / `BENCH_SERVE_REQUESTS`
//! override the offered rate (QPS) and request count.

use std::collections::HashMap;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use adt_bench::default_jobs;
use adt_bench::json::{bench_report, parallelism_note, Object, Value};
use adt_core::dsl::Document;
use adt_gen::{bucket_suite, paper_suite, Shape};
use adt_serve::{
    FrameReader, FrameWriter, OwnedFrame, ServeConfig, Server, DEFAULT_MAX_QUERY_BYTES,
};

/// The query corpus: every instance of the five suite families rendered
/// to DSL — the same workload the differential serving test pins.
fn corpus() -> Vec<String> {
    let mut queries = Vec::new();
    for instance in paper_suite(10, 40, Shape::Tree, 42)
        .into_iter()
        .chain(paper_suite(10, 40, Shape::Dag, 43))
        .chain(bucket_suite(2, 80, Shape::Tree, 44))
        .chain(bucket_suite(2, 80, Shape::Dag, 45))
    {
        queries.push(Document::from_cost_adt("g", &instance.adt).to_dsl());
    }
    for n in 1..=8 {
        queries.push(Document::from_cost_adt("fig4", &adt_core::catalog::fig4(n)).to_dsl());
    }
    queries
}

/// One request's terminal observation.
struct Outcome {
    /// `S`, `E`, or `B` — the channel that terminated the request.
    terminal: u8,
    finished: Instant,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR8.json".into());
    let quick = std::env::var("BENCH_SERVE_QUICK").is_ok();
    let env_num = |key: &str| std::env::var(key).ok().and_then(|v| v.parse::<u64>().ok());
    let requests = env_num("BENCH_SERVE_REQUESTS").unwrap_or(if quick { 300 } else { 4000 });
    let rate = env_num("BENCH_SERVE_RATE").unwrap_or(if quick { 300 } else { 1000 });
    let jobs = default_jobs();
    let cfg = ServeConfig {
        jobs,
        max_inflight: 4 * jobs,
        gc_threshold: adt_analysis::DEFAULT_GC_THRESHOLD,
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store: None,
        ..ServeConfig::default()
    };
    let max_inflight = cfg.max_inflight;
    let server = Server::new(cfg);
    let queries = corpus();
    eprintln!(
        "bench_serve: {requests} requests at {rate} QPS offered, corpus of {} queries, \
         --jobs {jobs} --max-inflight {max_inflight}",
        queries.len()
    );

    let (client, remote) = UnixStream::pair().expect("socketpair");
    let server_thread = std::thread::spawn({
        let read_half = remote.try_clone().expect("clonable stream");
        move || {
            let server = server;
            server
                .serve_connection(read_half, remote)
                .expect("clean server session");
            server.drain();
        }
    });

    // The response reader: collects every request's terminal frame.
    let reader_thread = std::thread::spawn({
        let read_half = client.try_clone().expect("clonable stream");
        move || {
            let mut reader = FrameReader::new(read_half);
            let mut outcomes: HashMap<u32, Outcome> = HashMap::new();
            loop {
                match reader.next_frame().expect("well-formed response stream") {
                    // The server's shutdown flush ends the session.
                    None | Some(OwnedFrame::Flush) => return outcomes,
                    Some(OwnedFrame::Data { channel, payload }) => {
                        if channel == b'R' {
                            continue;
                        }
                        let id = std::str::from_utf8(&payload[..8])
                            .ok()
                            .and_then(|s| u32::from_str_radix(s, 16).ok())
                            .expect("tagged response");
                        outcomes.insert(
                            id,
                            Outcome {
                                terminal: channel,
                                finished: Instant::now(),
                            },
                        );
                    }
                }
            }
        }
    });

    // The open-loop sender: request i is scheduled at start + i/rate and
    // sent no earlier; a late sender sends immediately (the stall is the
    // schedule's problem, and the latency accounting charges it).
    let mut writer = FrameWriter::new(client);
    let period = Duration::from_secs_f64(1.0 / rate.max(1) as f64);
    let start = Instant::now();
    let mut scheduled: Vec<Instant> = Vec::with_capacity(requests as usize);
    for i in 0..requests {
        let due = start + period.mul_f64(i as f64);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        scheduled.push(due);
        let query = &queries[(i as usize) % queries.len()];
        writer
            .write_data(b'Q', query.as_bytes())
            .expect("request write");
        writer.write_frame(&OwnedFrame::Flush).expect("flush write");
    }
    writer.write_data(b'X', b"").expect("shutdown write");

    let outcomes = reader_thread.join().expect("reader thread");
    server_thread.join().expect("server thread");
    assert_eq!(
        outcomes.len(),
        requests as usize,
        "every request must reach a terminal frame"
    );

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut ok, mut busy, mut errors) = (0usize, 0usize, 0usize);
    let mut last_finish = start;
    for (id, outcome) in &outcomes {
        last_finish = last_finish.max(outcome.finished);
        match outcome.terminal {
            b'S' => {
                ok += 1;
                latencies.push(outcome.finished.duration_since(scheduled[*id as usize]));
            }
            b'B' => busy += 1,
            _ => errors += 1,
        }
    }
    assert_eq!(errors, 0, "the corpus contains no failing queries");
    latencies.sort_unstable();
    let span = last_finish.duration_since(start);
    let sustained_qps = ok as f64 / span.as_secs_f64().max(f64::EPSILON);
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let p50 = percentile(&latencies, 0.50);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    eprintln!(
        "bench_serve: {ok} ok, {busy} busy, sustained {:.0} QPS, \
         p50 {:.0}us p95 {:.0}us p99 {:.0}us",
        sustained_qps,
        us(p50),
        us(p95),
        us(p99)
    );

    let report = bench_report(
        8,
        "Open-loop latency/throughput of the adt-serve framed query server over a Unix \
         socketpair: requests scheduled at a fixed offered rate independent of completions, \
         latency measured from scheduled send to terminal frame (queueing delay included), \
         over a cache-hot corpus of the five differential suite families. Backpressured (B) \
         responses are counted separately and excluded from the percentiles.",
        1,
    )
    .field("jobs", jobs)
    .field("max_inflight", max_inflight)
    .field("corpus_queries", queries.len())
    .field("requests", requests)
    .field("offered_qps", rate)
    .field("completed_ok", ok)
    .field("busy_responses", busy)
    .field("sustained_qps", Value::float(sustained_qps, 1))
    .field("p50_us", Value::float(us(p50), 1))
    .field("p95_us", Value::float(us(p95), 1))
    .field("p99_us", Value::float(us(p99), 1))
    .field("wall_clock_ms", Value::float(span.as_secs_f64() * 1e3, 1))
    .field("quick_mode", quick)
    .field(
        "summary",
        Object::new()
            .field("note", parallelism_note(jobs, 1))
            .field(
                "open_loop",
                "latency includes queue wait behind the admission bound; busy responses \
                 shed load instead of queueing unboundedly",
            ),
    );
    let mut file = std::fs::File::create(&out_path).expect("writable output path");
    file.write_all(report.render().as_bytes()).expect("write");
    eprintln!("wrote {out_path}");
}
