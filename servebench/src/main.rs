//! `servebench`: the standing end-to-end benchmark of the `adt-serve`
//! serving path.
//!
//! ```text
//! servebench --workload <cold-stream|hot-repeat|whatif|store-restart>
//!            --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run starts an in-process server (two pool workers, one kernel
//! thread each, no sifting, a store only where the workload names one, a
//! lower collection threshold on `cold-stream` and `whatif`),
//! drives it over Unix socketpairs through the public `Client` and frame
//! API for `--seconds` of measured load, checks every answer against
//! references computed apart from the serving path, and prints as its last
//! line one JSON object: `correct`, `attempted`, `failed` and the metrics —
//! the end-to-end metrics untraced, the per-layer metrics with
//! `--trace 1`. A wrong answer prints `"correct": false` and exits 1.
//! `README.md` describes the workloads and metrics.

mod inputs;
mod measure;
mod reference;
mod rig;
mod trace;

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use adt_analysis::DEFAULT_GC_THRESHOLD;
use adt_serve::{ServeConfig, DEFAULT_MAX_QUERY_BYTES};

use inputs::{Buckets, SessionInput, Stream};
use measure::{median, quantile, quantile_us, Tally};
use reference::Answer;
use rig::{Counters, LoadOut, Requests, Rig, SessionScript};
use trace::{Replay, Span, Tracing};

/// `(name, unit, value)`.
pub type Metric = (&'static str, &'static str, f64);

/// Pool workers of every server.
const WORKERS: usize = 2;
/// Client connections of every closed loop.
const CONNECTIONS: usize = 2;
/// Admission bound of every server: far above the two requests a closed
/// loop can have in flight and above any queue `hot-repeat`'s open loop
/// builds, so no request is refused.
const MAX_INFLIGHT: usize = 256;
/// `hot-repeat`'s offered rate in traced runs, requests per second: a
/// fraction of what one connection sustains closed-loop, so the queue
/// stays short.
const HOT_RATE: f64 = 1500.0;
/// Rounds per run. Every round gives each phase of the workload a slice of
/// the measured time, so each metric samples the whole run, and reports
/// the median over its slices: a stall of the shared host that hits one
/// slice does not move it.
const ROUNDS: usize = 20;
/// Set-ups per run: at least this many, and more until they have taken
/// [`SETUP_BUDGET`], so that set-ups of well under a millisecond still give
/// a steady median. `setup_s` is the median.
const SETUP_REPS: usize = 15;
/// Time a run spends at least on repeated set-ups.
const SETUP_BUDGET: Duration = Duration::from_millis(250);
/// Distinct models per second a finite input stream can feed a slice: a
/// slice's buffer holds what it could send at this rate. This is twice the
/// fastest rate at which a fresh server answered distinct models on a
/// 2-vCPU virtual machine (about 4 900/s on `whatif`'s base models), and
/// ten times a `store-restart` first boot's (about 960/s). A slice that
/// still runs out of models reports no figures and fails the run.
const FEED_RATE: f64 = 10_000.0;

/// `cold-stream` sizes: the 20-node buckets up to 160 nodes.
const COLD_BUCKETS: Buckets = Buckets { first: 1, last: 8 };
/// Garbage-collection threshold of `cold-stream`'s servers, in arena nodes.
/// A worker's arena grows by about 200 nodes per distinct model, so at the
/// default threshold (2²⁰) each worker collected about once in a run, and
/// the run's figures moved with where in the run that fell (quartile
/// spreads of 0.17–0.34 on `models_per_s` and `query_p50_us` over ten runs);
/// at 2¹⁸ a worker collects several times a run.
const COLD_GC_THRESHOLD: usize = 1 << 18;
/// `hot-repeat`'s working set.
const HOT_MODELS: u64 = 384;
/// `hot-repeat` sizes: small to medium.
const HOT_BUCKETS: Buckets = Buckets { first: 1, last: 5 };
/// Length of the Zipf request sequence `hot-repeat` cycles through.
const HOT_SEQUENCE: usize = 8192;
/// Zipf exponent of `hot-repeat`'s popularity. An assumption, not a
/// measurement of this server's traffic: Breslau et al., "Web Caching and
/// Zipf-like Distributions: Evidence and Implications" (INFOCOM 1999),
/// measured exponents of 0.64–0.83 on web-proxy request traces.
const HOT_ZIPF: f64 = 0.7;
/// What-if sessions, cycled: `whatif`'s traffic and every other
/// workload's edit probe.
const SESSIONS: u64 = 256;
/// `whatif` base-model sizes: medium.
const WHATIF_BUCKETS: Buckets = Buckets { first: 3, last: 5 };
/// Garbage-collection threshold of `whatif`'s servers, in arena nodes. A
/// connection's what-if engine keeps every session's diagram until it
/// collects, and a structural edit walks the whole arena, so at the
/// default threshold the edit rate followed how large the seed's sessions
/// were together (quartile spreads of 0.19–0.29 on `edits_per_s` and
/// `models_per_s` over ten runs); at 2¹⁶ the engines collect through the
/// run, and three seeds spread 0.04–0.10.
const WHATIF_GC_THRESHOLD: usize = 1 << 16;
/// `store-restart` sizes: small.
const STORE_BUCKETS: Buckets = Buckets { first: 1, last: 2 };
/// Models in the store that `store-restart`'s set-up restarts over: enough
/// that the store's size, not thread start-up, sets most of a restart's
/// time (about 0.3 ms over 256 models, 0.9 ms over 1024 on a 2-vCPU
/// virtual machine).
const SETUP_STORE_MODELS: usize = 1024;
/// Models the traced replay answers through the store.
const REPLAY_STORE_MODELS: usize = 64;

/// A workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ColdStream,
    HotRepeat,
    WhatIf,
    StoreRestart,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "cold-stream" => Workload::ColdStream,
            "hot-repeat" => Workload::HotRepeat,
            "whatif" => Workload::WhatIf,
            "store-restart" => Workload::StoreRestart,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ColdStream => "cold-stream",
            Workload::HotRepeat => "hot-repeat",
            Workload::WhatIf => "whatif",
            Workload::StoreRestart => "store-restart",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let parsed = Workload::parse(&value);
                workload = Some(parsed.ok_or_else(|| format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(25.0),
        trace: trace.unwrap_or(false),
    })
}

/// The server configuration of every workload; only the store and the
/// garbage-collection threshold differ.
fn config(store: Option<PathBuf>, gc_threshold: usize) -> ServeConfig {
    ServeConfig {
        jobs: WORKERS,
        kernel_threads: 1,
        max_inflight: MAX_INFLIGHT,
        gc_threshold,
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store,
    }
}

/// Run-wide state.
struct Ctx {
    seed: u64,
    seconds: f64,
    trace: bool,
    epoch: Instant,
    /// Response data frames received, counted in traced runs.
    frames: Option<Arc<AtomicU64>>,
    /// The number of the last span phase handed out.
    phases: Cell<u64>,
    /// A scratch directory inside the benchmark's own directory, removed
    /// when the run ends.
    work: PathBuf,
    /// The servers' garbage-collection threshold.
    gc_threshold: usize,
}

impl Ctx {
    /// The end of one round's slice of a phase that gets `share` of the
    /// run's measured time.
    fn slice(&self, share: f64) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds * share / ROUNDS as f64)
    }

    /// The models one round's slice of `share` could send at
    /// [`FEED_RATE`].
    fn capacity(&self, share: f64) -> usize {
        (FEED_RATE * self.seconds * share / ROUNDS as f64).ceil() as usize
    }

    /// The span context of a new phase, in traced runs: every loop gets
    /// its own, so request ids never repeat within a phase.
    fn tracing(&self) -> Option<Tracing> {
        self.trace.then(|| {
            self.phases.set(self.phases.get() + 1);
            Tracing {
                epoch: self.epoch,
                phase: self.phases.get(),
            }
        })
    }

    /// Starts a server with the benchmark's configuration and connects
    /// the closed-loop clients.
    fn start(&self, store: Option<&Path>) -> Rig {
        Rig::start(
            &config(store.map(Path::to_path_buf), self.gc_threshold),
            CONNECTIONS,
            self.frames.clone(),
        )
    }

    /// The replay inputs shared by every workload's traced run.
    fn replay<'a>(&'a self, dsl: &'a [String], sessions: &'a [SessionInput]) -> Replay<'a> {
        Replay {
            dsl,
            budget: Duration::from_secs_f64(self.seconds * 0.25),
            gc_threshold: self.gc_threshold,
            sessions,
            store_models: REPLAY_STORE_MODELS,
            store_dir: self.work.join("replay-store"),
        }
    }
}

/// What a workload reports.
#[derive(Default)]
struct Outcome {
    tally: Tally,
    /// Failed confirmations that the workload exercised what it is for.
    unconfirmed: Vec<String>,
    /// The end-to-end metrics.
    metrics: Vec<Metric>,
    /// The per-layer metrics, in traced runs.
    layers: Vec<Metric>,
}

impl Outcome {
    /// Takes in the load loops' tallies, and fails the run if a finite
    /// input stream ran out before a slice's deadline (that slice gave no
    /// figures).
    fn account(&mut self, workload: &str, loads: [&mut LoadOut; 2]) {
        if loads.iter().any(|load| load.ran_out) {
            self.unconfirmed.push(format!(
                "{workload}: an input stream ran out before the end of its slice; \
                 raise FEED_RATE"
            ));
        }
        for load in loads {
            self.tally.absorb(std::mem::take(&mut load.tally));
        }
    }
}

/// Runs `build` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_BUDGET`]; returns the last result with the time each build
/// took, in seconds.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while times.len() < SETUP_REPS || began.elapsed() < SETUP_BUDGET {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// Maps `f` over `items` on two threads, keeping their order.
fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let (low, high) = items.split_at(items.len() / 2);
    let f = &f;
    thread::scope(|s| {
        let first = s.spawn(move || low.iter().map(f).collect::<Vec<_>>());
        let second: Vec<U> = high.iter().map(f).collect();
        let mut all = first.join().expect("helper thread");
        all.extend(second);
        all
    })
}

/// The sessions' wire scripts with their reference answers.
fn scripts(sessions: &[SessionInput]) -> Vec<SessionScript> {
    par_map(sessions, |s| SessionScript {
        lines: std::iter::once(format!("open {}", inputs::dsl(&s.base)))
            .chain(s.ops.iter().map(|op| op.to_line()))
            .collect(),
        answers: reference::session_answers(s),
    })
}

/// The what-if sessions: `whatif`'s traffic, and the edit probe of every
/// other workload, so that the edit metrics measure the same edits on every
/// workload's servers.
fn sessions(seed: u64) -> Vec<SessionInput> {
    (0..SESSIONS)
        .map(|k| inputs::session(seed, Stream::WhatIf, WHATIF_BUCKETS, k))
        .collect()
}

/// A stream of distinct models, rendered ahead of the load: before each
/// slice the buffer is topped up to what the slice could send at
/// [`FEED_RATE`], so the benchmark's own memory does not grow with the
/// server's speed.
struct Feed {
    seed: u64,
    stream: Stream,
    buckets: Buckets,
    /// The stream index of the next model to render.
    next: u64,
    /// Rendered models not yet sent.
    dsl: Vec<String>,
    /// The stream index of each model in `dsl`.
    index: Vec<u64>,
    /// Hashes of the documents rendered so far. A model whose document
    /// repeats an earlier one is skipped: the generator now and then builds
    /// the same small model twice.
    seen: HashSet<u64>,
}

impl Feed {
    fn new(seed: u64, stream: Stream, buckets: Buckets) -> Feed {
        Feed {
            seed,
            stream,
            buckets,
            next: 0,
            dsl: Vec::new(),
            index: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// Renders models, on two threads, until `want` are buffered.
    fn top_up(&mut self, want: usize) {
        while self.dsl.len() < want {
            let batch: Vec<u64> = (self.next..).take(want - self.dsl.len()).collect();
            self.next += batch.len() as u64;
            let (seed, stream, buckets) = (self.seed, self.stream, self.buckets);
            let docs = par_map(&batch, |&i| {
                inputs::dsl(&inputs::model(seed, stream, buckets, i))
            });
            for (text, i) in docs.into_iter().zip(batch) {
                let mut hasher = DefaultHasher::new();
                text.hash(&mut hasher);
                if self.seen.insert(hasher.finish()) {
                    self.dsl.push(text);
                    self.index.push(i);
                }
            }
        }
    }

    /// Takes out the first `sent` buffered models: their documents and
    /// stream indices.
    fn take(&mut self, sent: usize) -> (Vec<String>, Vec<u64>) {
        let sent = sent.min(self.dsl.len());
        (
            self.dsl.drain(..sent).collect(),
            self.index.drain(..sent).collect(),
        )
    }

    /// The tree of stream model `index`.
    fn tree(&self, index: usize) -> inputs::Tree {
        inputs::model(self.seed, self.stream, self.buckets, index as u64)
    }

    /// The first `count` distinct models of the stream with their
    /// reference answers.
    fn known(seed: u64, stream: Stream, buckets: Buckets, count: usize) -> Known {
        let mut feed = Feed::new(seed, stream, buckets);
        feed.top_up(count);
        let (dsl, index) = feed.take(count);
        Known {
            dsl,
            answers: par_map(&index, |&i| reference::answer(&feed.tree(i as usize))),
        }
    }
}

/// Models with their reference answers, computed before the timed phases.
struct Known {
    dsl: Vec<String>,
    answers: Vec<Answer>,
}

/// One slice of a closed loop over a feed's buffered models: tops the
/// buffer up to `capacity`, sends from its start until `deadline`, and
/// takes the sent models out. The slice's kept answers name models by
/// stream index. Returns the slice and the sent models' documents.
fn feed_slice(
    rig: &mut Rig,
    feed: &mut Feed,
    capacity: usize,
    deadline: Instant,
    tracing: Option<Tracing>,
) -> (LoadOut, Vec<String>) {
    feed.top_up(capacity);
    let cursor = AtomicUsize::new(0);
    let requests = Requests {
        dsl: &feed.dsl,
        sequence: None,
        expected: None,
        cursor: &cursor,
    };
    let mut slice = rig.query_loop(&requests, deadline, tracing);
    let (sent, index) = feed.take(cursor.load(Ordering::Relaxed));
    for kept in &mut slice.answers {
        kept.0 = index[kept.0] as usize;
    }
    (slice, sent)
}

/// Checks the answers a loop kept, `(stream index, front, nodes)`, against
/// fresh references, on two threads.
fn check_kept(tally: &mut Tally, kept: &[(usize, String, usize)], feed: &Feed) {
    let problems = par_map(kept, |(model, front, nodes)| {
        let expected = reference::answer(&feed.tree(*model));
        reference::verify(front, *nodes, &expected)
            .err()
            .map(|e| format!("model {model}: {e}"))
    });
    for problem in problems.into_iter().flatten() {
        tally.mismatch(problem);
    }
}

/// Per-slice values of the end-to-end metrics. Each metric reports the
/// median over its slices. A slice whose input stream ran out gives no
/// values: it did not run to its deadline.
#[derive(Default)]
struct Series {
    setup_s: Vec<f64>,
    models_per_s: Vec<f64>,
    query_p50_us: Vec<f64>,
    query_p90_us: Vec<f64>,
    restart_models_per_s: Vec<f64>,
    edits_per_s: Vec<f64>,
    edit_p50_us: Vec<f64>,
    edit_p90_us: Vec<f64>,
}

/// Folds a measured slice into a phase's totals. Its request times are
/// dropped: the series already hold what they give, and keeping them would
/// make the benchmark's own memory grow with the server's speed.
fn fold(total: &mut LoadOut, mut slice: LoadOut) {
    slice.queries = Vec::new();
    slice.edits = Vec::new();
    total.absorb(slice);
}

/// `count` per second of a slice's wall time.
fn per_s(count: usize, slice: &LoadOut) -> f64 {
    count as f64 / slice.elapsed.as_secs_f64().max(1e-9)
}

/// Appends the median and 90th percentile of a slice's request times, in µs
/// (none for an empty slice).
fn quantiles(samples: &mut [u64], p50: &mut Vec<f64>, p90: &mut Vec<f64>) {
    if !samples.is_empty() {
        p50.push(quantile_us(samples, 0.50));
        p90.push(quantile_us(samples, 0.90));
    }
}

impl Series {
    /// Answered model queries per second of a slice.
    fn models(&mut self, slice: &LoadOut) {
        if !slice.ran_out {
            self.models_per_s.push(per_s(slice.queries.len(), slice));
        }
    }

    /// Query-time quantiles of a slice.
    fn latency(&mut self, slice: &mut LoadOut) {
        if !slice.ran_out {
            quantiles(
                &mut slice.queries,
                &mut self.query_p50_us,
                &mut self.query_p90_us,
            );
        }
    }

    /// Answered model queries per second of a restarted server's slice.
    fn restart(&mut self, slice: &LoadOut) {
        if !slice.ran_out {
            self.restart_models_per_s
                .push(per_s(slice.queries.len(), slice));
        }
    }

    /// Edit rate and edit-time quantiles of a slice.
    fn edits(&mut self, slice: &mut LoadOut) {
        if !slice.ran_out {
            self.edits_per_s.push(per_s(slice.edits.len(), slice));
            quantiles(
                &mut slice.edits,
                &mut self.edit_p50_us,
                &mut self.edit_p90_us,
            );
        }
    }

    /// The metrics; a metric that no slice measured fails the run instead
    /// of reading 0.
    fn metrics(self, unconfirmed: &mut Vec<String>) -> Vec<Metric> {
        let mut metric = |name, unit, mut values: Vec<f64>| {
            if values.is_empty() {
                unconfirmed.push(format!("no slice measured {name}"));
            }
            (name, unit, median(&mut values))
        };
        vec![
            metric("setup_s", "s", self.setup_s),
            metric("models_per_s", "1/s", self.models_per_s),
            metric("query_p50_us", "us", self.query_p50_us),
            metric("query_p90_us", "us", self.query_p90_us),
            metric("restart_models_per_s", "1/s", self.restart_models_per_s),
            metric("edits_per_s", "1/s", self.edits_per_s),
            metric("edit_p50_us", "us", self.edit_p50_us),
            metric("edit_p90_us", "us", self.edit_p90_us),
        ]
    }
}

/// Reduces a traced workload to its per-layer metrics: the wire side from
/// the load loops, and the in-process replay of the same inputs. `main`
/// holds the workload's main traffic, which the `serve.*` spans and
/// `loadgen.lateness_p99_us` describe; `others` holds the restarts and
/// edit probes; `counters` are the pool engines' over the main traffic.
/// Frames and refusals count every request of the run.
fn layer_metrics(
    ctx: &Ctx,
    main: &mut LoadOut,
    others: &mut LoadOut,
    counters: &Counters,
    replay: &Replay,
    spans: &mut Vec<Span>,
) -> Vec<Metric> {
    let frames = ctx.frames.as_ref().map_or(0, |f| f.load(Ordering::Relaxed));
    let requests = main.tally.attempted + others.tally.attempted;
    let mut metrics = trace::wire_metrics(&main.spans, requests, frames);
    spans.append(&mut main.spans);
    spans.append(&mut others.spans);
    let lookups = counters.hits + counters.misses;
    metrics.extend([
        (
            "pool.queue_depth_max",
            "count",
            main.queue_max.max(others.queue_max) as f64,
        ),
        (
            "pool.refused",
            "count",
            (main.tally.refused + others.tally.refused) as f64,
        ),
        (
            "engine.cache_hit_rate",
            "ratio",
            counters.hits as f64 / lookups.max(1) as f64,
        ),
        (
            "engine.arena_nodes_max",
            "count",
            counters.peak_arena as f64,
        ),
        (
            "engine.gc_collections",
            "count",
            counters.collections as f64,
        ),
        (
            "loadgen.lateness_p99_us",
            "us",
            quantile(&mut main.delay_ns, 0.99) / 1e3,
        ),
    ]);
    let tracing = ctx.tracing().expect("a traced run");
    metrics.extend(trace::replay(replay, tracing, spans));
    metrics
}

/// `cold-stream`: distinct models on two closed-loop connections; each
/// round also restarts a fresh server on the stream's first models and runs
/// the edit probe on it.
fn cold_stream(ctx: &Ctx, spans: &mut Vec<Span>) -> Outcome {
    let seed = ctx.seed;
    let mut feed = Feed::new(seed, Stream::Cold, COLD_BUCKETS);
    let head = Feed::known(seed, Stream::Cold, COLD_BUCKETS, ctx.capacity(0.2));
    let probe = sessions(seed);
    let probe_scripts = scripts(&probe);
    let next_session = AtomicUsize::new(0);
    let mut series = Series::default();
    let (mut rig, setup) = timed_setup(|| ctx.start(None));
    series.setup_s = setup;
    let before = rig.counters();
    let (mut main, mut others) = (LoadOut::default(), LoadOut::default());
    let mut sent = Vec::new();
    for _ in 0..ROUNDS {
        let (mut slice, docs) = feed_slice(
            &mut rig,
            &mut feed,
            ctx.capacity(0.6),
            ctx.slice(0.6),
            ctx.tracing(),
        );
        series.models(&slice);
        series.latency(&mut slice);
        fold(&mut main, slice);
        if ctx.trace {
            sent.extend(docs);
        }
        let from_start = AtomicUsize::new(0);
        let replayed = Requests {
            dsl: &head.dsl,
            sequence: None,
            expected: Some(&head.answers),
            cursor: &from_start,
        };
        let mut fresh = ctx.start(None);
        let restart = fresh.query_loop(&replayed, ctx.slice(0.2), ctx.tracing());
        series.restart(&restart);
        let mut edits =
            fresh.edit_loop(&probe_scripts, &next_session, ctx.slice(0.2), ctx.tracing());
        series.edits(&mut edits);
        fold(&mut others, restart);
        fold(&mut others, edits);
    }
    let counters = rig.counters().since(&before);
    drop(rig);

    let mut out = Outcome::default();
    out.metrics = series.metrics(&mut out.unconfirmed);
    check_kept(&mut main.tally, &main.answers, &feed);
    if counters.hits > 0 {
        out.unconfirmed.push(format!(
            "cold-stream: {} of {} timed queries hit the front cache",
            counters.hits,
            counters.hits + counters.misses
        ));
    }
    if ctx.trace {
        let replay = ctx.replay(&sent, &probe);
        out.layers = layer_metrics(ctx, &mut main, &mut others, &counters, &replay, spans);
    }
    out.account("cold-stream", [&mut main, &mut others]);
    out
}

/// `hot-repeat`: a Zipf-popular working set loaded into every worker,
/// answered closed-loop on two connections; each round also restarts a
/// fresh (unloaded) server on the same request sequence and runs the edit
/// probe on it.
///
/// Traced runs give the first half of each round's closed-loop time to an
/// open loop at a fixed offered rate on one connection, which feeds the
/// pool-queue and generator-lateness metrics. The query times come from
/// the closed loop: the open loop's times from due time to terminal frame
/// measure the host more than the server (on a 2-vCPU virtual machine
/// their per-slice p99 ranged over 1–15 ms at 1500 requests/s while the
/// closed loop's stayed near 0.5–1.4 ms).
fn hot_repeat(ctx: &Ctx, spans: &mut Vec<Span>) -> Outcome {
    let seed = ctx.seed;
    let models: Vec<inputs::Tree> = (0..HOT_MODELS)
        .map(|i| inputs::model(seed, Stream::Hot, HOT_BUCKETS, i))
        .collect();
    let dsl = Arc::new(models.iter().map(inputs::dsl).collect::<Vec<_>>());
    let expected: Vec<Answer> = par_map(&models, reference::answer);
    let sequence = inputs::zipf(seed, HOT_MODELS as usize, HOT_SEQUENCE, HOT_ZIPF);
    let probe = sessions(seed);
    let probe_scripts = scripts(&probe);
    let position = AtomicUsize::new(0);
    let requests = Requests {
        dsl: &dsl,
        sequence: Some(&sequence),
        expected: Some(&expected),
        cursor: &position,
    };
    let next_session = AtomicUsize::new(0);
    let mut series = Series::default();
    let (mut rig, setup) = timed_setup(|| {
        let rig = ctx.start(None);
        rig.warm(&dsl);
        rig
    });
    series.setup_s = setup;
    let before = rig.counters();
    let (mut main, mut others) = (LoadOut::default(), LoadOut::default());
    let mut timed = 0;
    for _ in 0..ROUNDS {
        let mut closed_share = 0.7;
        if ctx.trace {
            let offered = rig.open_loop(&requests, HOT_RATE, ctx.slice(0.35), ctx.tracing());
            timed += offered.queries.len();
            fold(&mut main, offered);
            closed_share = 0.35;
        }
        let mut closed = rig.query_loop(&requests, ctx.slice(closed_share), ctx.tracing());
        series.models(&closed);
        series.latency(&mut closed);
        timed += closed.queries.len();
        // The generator's lateness is the open loop's alone.
        closed.delay_ns.clear();
        fold(&mut main, closed);
        let from_start = AtomicUsize::new(0);
        let replayed = Requests {
            cursor: &from_start,
            ..requests
        };
        let mut fresh = ctx.start(None);
        let restart = fresh.query_loop(&replayed, ctx.slice(0.15), ctx.tracing());
        series.restart(&restart);
        let mut edits = fresh.edit_loop(
            &probe_scripts,
            &next_session,
            ctx.slice(0.15),
            ctx.tracing(),
        );
        series.edits(&mut edits);
        fold(&mut others, restart);
        fold(&mut others, edits);
    }
    let counters = rig.counters().since(&before);
    drop(rig);

    let mut out = Outcome::default();
    out.metrics = series.metrics(&mut out.unconfirmed);
    if counters.misses > 0 || counters.hits != timed {
        out.unconfirmed.push(format!(
            "hot-repeat: {} cache hits and {} misses for {timed} answered timed requests",
            counters.hits, counters.misses
        ));
    }
    if ctx.trace {
        let sent: Vec<String> = sequence.iter().map(|&m| dsl[m].clone()).collect();
        let replay = ctx.replay(&sent, &probe);
        out.layers = layer_metrics(ctx, &mut main, &mut others, &counters, &replay, spans);
    }
    out.account("hot-repeat", [&mut main, &mut others]);
    out
}

/// `whatif`: what-if sessions over medium base models on two closed-loop
/// connections; each round also restarts a fresh server that answers the
/// workload's base models as queries.
fn whatif(ctx: &Ctx, spans: &mut Vec<Span>) -> Outcome {
    let seed = ctx.seed;
    let sessions = sessions(seed);
    let session_scripts = scripts(&sessions);
    let bases = Feed::known(seed, Stream::WhatIf, WHATIF_BUCKETS, ctx.capacity(0.15));
    let next_session = AtomicUsize::new(0);
    let mut series = Series::default();
    let (mut rig, setup) = timed_setup(|| ctx.start(None));
    series.setup_s = setup;
    let (mut main, mut others) = (LoadOut::default(), LoadOut::default());
    let mut counters = Counters::default();
    for _ in 0..ROUNDS {
        let mut slice = rig.edit_loop(
            &session_scripts,
            &next_session,
            ctx.slice(0.85),
            ctx.tracing(),
        );
        series.models(&slice);
        series.latency(&mut slice);
        series.edits(&mut slice);
        fold(&mut main, slice);
        let from_start = AtomicUsize::new(0);
        let replayed = Requests {
            dsl: &bases.dsl,
            sequence: None,
            expected: Some(&bases.answers),
            cursor: &from_start,
        };
        let mut fresh = ctx.start(None);
        let restart = fresh.query_loop(&replayed, ctx.slice(0.15), ctx.tracing());
        series.restart(&restart);
        // The pool engines serve only these restarts' queries here.
        counters.add(&fresh.counters());
        fold(&mut others, restart);
    }
    drop(rig);

    let mut out = Outcome::default();
    out.metrics = series.metrics(&mut out.unconfirmed);
    if ctx.trace {
        let base_dsl: Vec<String> = sessions.iter().map(|s| inputs::dsl(&s.base)).collect();
        let replay = ctx.replay(&base_dsl, &sessions);
        out.layers = layer_metrics(ctx, &mut main, &mut others, &counters, &replay, spans);
    }
    out.account("whatif", [&mut main, &mut others]);
    out
}

/// `store-restart`: every round boots a server over an empty store
/// directory, which answers the stream's first models and persists every
/// miss; then restarted servers over the same directory answer the models
/// the first boot answered, from the store, one server after another until
/// the slice ends. Every round starts from an empty store, so every round
/// does the same work. Each round's edit probe runs on a fresh server
/// without a store.
///
/// `setup_s` is measured apart, on restarts over a store that set-up fills
/// with the stream's first [`SETUP_STORE_MODELS`] models.
fn store_restart(ctx: &Ctx, spans: &mut Vec<Span>) -> Outcome {
    let seed = ctx.seed;
    let stream = Feed::known(
        seed,
        Stream::Store,
        STORE_BUCKETS,
        ctx.capacity(0.55).max(SETUP_STORE_MODELS),
    );
    let probe = sessions(seed);
    let probe_scripts = scripts(&probe);
    let mut series = Series::default();
    let setup_dir = ctx.work.join("setup-store");
    ctx.start(Some(&setup_dir))
        .warm(&Arc::new(stream.dsl[..SETUP_STORE_MODELS].to_vec()));
    series.setup_s = timed_setup(|| ctx.start(Some(&setup_dir))).1;

    let dir = ctx.work.join("store");
    let next_session = AtomicUsize::new(0);
    let (mut main, mut others) = (LoadOut::default(), LoadOut::default());
    let (mut boots, mut restarts) = (Counters::default(), Counters::default());
    let mut replays = 0;
    let mut sent = 0;
    for _ in 0..ROUNDS {
        let mut boot = ctx.start(Some(&dir));
        let from_start = AtomicUsize::new(0);
        let first_models = Requests {
            dsl: &stream.dsl,
            sequence: None,
            expected: None,
            cursor: &from_start,
        };
        let mut slice = boot.query_loop(&first_models, ctx.slice(0.55), ctx.tracing());
        boots.add(&boot.counters());
        drop(boot);
        series.models(&slice);
        series.latency(&mut slice);
        // What the restarts answer: the first boot's answered models, as
        // many as a restart slice could send at FEED_RATE.
        let mut answered = std::mem::take(&mut slice.answers);
        answered.sort_unstable_by_key(|kept| kept.0);
        answered.truncate(ctx.capacity(0.3));
        let mut replay = Known {
            dsl: Vec::with_capacity(answered.len()),
            answers: Vec::with_capacity(answered.len()),
        };
        for (model, front, nodes) in answered {
            let expected = &stream.answers[model];
            if let Err(e) = reference::verify(&front, nodes, expected) {
                slice.tally.mismatch(format!("model {model}: {e}"));
            }
            replay.dsl.push(stream.dsl[model].clone());
            replay.answers.push(expected.clone());
        }
        sent = sent.max(from_start.load(Ordering::Relaxed).min(stream.dsl.len()));
        fold(&mut main, slice);

        let deadline = ctx.slice(0.3);
        let mut restart = LoadOut::default();
        while !replay.dsl.is_empty() && Instant::now() < deadline {
            let mut server = ctx.start(Some(&dir));
            let from_start = AtomicUsize::new(0);
            let replayed = Requests {
                dsl: &replay.dsl,
                sequence: None,
                expected: Some(&replay.answers),
                cursor: &from_start,
            };
            let mut pass = server.query_loop(&replayed, deadline, ctx.tracing());
            // A pass that answers every model ends its server's restart;
            // the next pass restarts another.
            pass.ran_out = false;
            restarts.add(&server.counters());
            replays += pass.queries.len();
            restart.absorb(pass);
        }
        let _ = std::fs::remove_dir_all(&dir);
        series.restart(&restart);
        // A fresh server without a store, like every other workload's probe,
        // so that the edit metrics do not wait on the disk.
        let mut edits = ctx.start(None).edit_loop(
            &probe_scripts,
            &next_session,
            ctx.slice(0.15),
            ctx.tracing(),
        );
        series.edits(&mut edits);
        fold(&mut others, restart);
        fold(&mut others, edits);
    }

    let mut out = Outcome::default();
    out.metrics = series.metrics(&mut out.unconfirmed);
    if restarts.store_hits != replays
        || restarts.misses != replays
        || restarts.store_misses > 0
        || restarts.store_bdd_loads > 0
    {
        out.unconfirmed.push(format!(
            "store-restart: {replays} restart answers but {} store hits, {} memory misses, \
             {} store misses, {} diagram loads",
            restarts.store_hits, restarts.misses, restarts.store_misses, restarts.store_bdd_loads
        ));
    }
    if ctx.trace {
        let replay = ctx.replay(&stream.dsl[..sent], &probe);
        out.layers = layer_metrics(ctx, &mut main, &mut others, &boots, &replay, spans);
    }
    out.account("store-restart", [&mut main, &mut others]);
    out
}

/// Removes the run's scratch directory when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Renders a metric value as a JSON number.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench: {e}");
            eprintln!(
                "usage: servebench --workload <cold-stream|hot-repeat|whatif|store-restart> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let work = WorkDir(root.join("work").join(std::process::id().to_string()));
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        epoch: Instant::now(),
        frames: args.trace.then(|| Arc::new(AtomicU64::new(0))),
        phases: Cell::new(0),
        work: work.0.clone(),
        gc_threshold: match args.workload {
            Workload::ColdStream => COLD_GC_THRESHOLD,
            Workload::WhatIf => WHATIF_GC_THRESHOLD,
            _ => DEFAULT_GC_THRESHOLD,
        },
    };
    let mut spans = Vec::new();
    let outcome = match args.workload {
        Workload::ColdStream => cold_stream(&ctx, &mut spans),
        Workload::HotRepeat => hot_repeat(&ctx, &mut spans),
        Workload::WhatIf => whatif(&ctx, &mut spans),
        Workload::StoreRestart => store_restart(&ctx, &mut spans),
    };
    drop(work);
    if args.trace {
        let path = root.join("out").join(format!(
            "trace-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match trace::write_spans(&path, &spans) {
            Ok(()) => eprintln!(
                "servebench: {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("servebench: writing spans to {}: {e}", path.display()),
        }
    }
    let tally = &outcome.tally;
    eprintln!(
        "servebench: {} seed {}: attempted {}, refused {}, errored {}, wrong {}",
        args.workload.name(),
        args.seed,
        tally.attempted,
        tally.refused,
        tally.errored,
        tally.wrong
    );
    for problem in tally.problems.iter().chain(&outcome.unconfirmed) {
        eprintln!("servebench: {problem}");
    }
    let correct = tally.wrong == 0 && outcome.unconfirmed.is_empty();
    let reported = if args.trace {
        // Against the untraced runs' figures, these show the cost of tracing.
        for (name, unit, value) in &outcome.metrics {
            eprintln!("servebench: traced end-to-end {name} = {value} {unit}");
        }
        &outcome.layers
    } else {
        &outcome.metrics
    };
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed(),
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
