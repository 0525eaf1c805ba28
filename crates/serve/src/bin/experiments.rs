//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <command> [flags]
//!
//! commands:
//!   table1               Table I  — the five semiring domains end-to-end
//!   table2               Table II — bottom-up operator table
//!   fig3                 Fig. 3   — running example front
//!   fig4  [--max-n N]    Fig. 4   — |PF| = 2^n worst-case family
//!   fig5                 Fig. 5   — worked bottom-up example
//!   fig6                 Fig. 6   — ROBDD of the example ADT
//!   case-study           Fig. 7/8 — money-theft case study (§VI-A)
//!   fig9  [--count N] [--max-nodes M] [--seed S] [--work-cap E] [--csv F]
//!                        Fig. 9   — pairwise runtime comparison
//!   fig10 [--per-bucket K] [--max-nodes M] [--seed S] [--work-cap E] [--csv F]
//!                        Fig. 10  — median runtime per 20-node bucket
//!   ablation-ordering [--count N] [--max-nodes M] [--seed S]
//!                        BDD size/time under three static defense-first
//!                        orders plus dynamic sifting
//!   ablation-modular  [--count N] [--max-nodes M] [--seed S]
//!                        modular decomposition vs plain BDDBU
//!   serve [--unix PATH | --tcp ADDR] [--max-inflight N]
//!                        framed query server over the engine pool
//!                        (default transport: stdin/stdout; see
//!                        docs/SERVE.md for the wire protocol)
//!   query <QUERY|-> [--unix PATH | --tcp ADDR]
//!                        one-shot client: send a cost-DSL query to a
//!                        running `serve` instance and print the front
//!   whatif <TREE.dsl> <SCRIPT|-> [--store PATH]
//!                        scripted what-if session: open the tree in an
//!                        incremental session and replay the edit script
//!                        (one wire-grammar op per line; `#` comments),
//!                        printing each refreshed front with its
//!                        dirty-cone stats (see docs/INCREMENTAL.md)
//!   store-compact <PATH> drop superseded records from the store log at
//!                        PATH and report the bytes reclaimed
//!   all                  everything above with fast defaults
//! ```
//!
//! Every suite-driven command (`fig4`, `fig9`, `fig10`, both ablations, and
//! `all`) additionally accepts:
//!
//! * `--jobs N` — the suite is dispatched to a **long-lived worker pool**
//!   of `N` threads (default: the host's available parallelism), spawned
//!   once per process and reused by every command of the run (so `all`
//!   submits all of its suites to the same workers). Each worker owns a
//!   persistent `AnalysisEngine`. `--jobs 1` skips the pool entirely and
//!   runs the exact sequential engine loop on the calling thread — the
//!   reproducibility baseline the parallel path is tested against.
//! * `--warm` — worker engines **survive from suite to suite**: the
//!   GC-managed BDD manager and the cross-query front cache persist, so
//!   recurring instances (and recurring modules) are served from cache.
//!   Without it, engines are reset before every suite (the cold baseline,
//!   matching the pre-engine drivers' observable output).
//! * `--gc-threshold N` — arena node count at which a worker's manager
//!   garbage-collects between queries (default 2^20; `bench_engine`
//!   quantifies the bound).
//! * `--order sift` — worker engines learn their variable orders
//!   dynamically: every engine-served front compiles under the declaration
//!   order and sifts once the diagram passes the reorder threshold
//!   (`--order declaration`, the default, keeps static orders). The
//!   ordering ablation always reports the sifted column regardless.
//! * `--reorder-threshold N` — live-node count at which an engine's
//!   sifting pass triggers (default 256 when `--order sift` is given;
//!   passing the flag arms reordering even without `--order sift`).
//! * `--kernel-threads N` — every engine (each pool worker's, or the
//!   sequential one) fans the independent modules a modular analysis
//!   (`ablation-modular`) misses in its cache out over up to `N` threads,
//!   each compiling into a private single-owner manager. This is the
//!   *intra-query* axis, orthogonal to `--jobs` (which parallelizes
//!   *across* instances); the two compose as up to `jobs × kernel-threads`
//!   live threads. `--kernel-threads 1` (the default) keeps the sequential
//!   path. Fronts are byte-identical at every thread count.
//! * `--store PATH` — every engine (each pool worker's, the sequential
//!   one, and `serve`'s pool) additionally reads and writes the
//!   persistent content-addressed store at `PATH` (created if absent): a
//!   second cache tier below the in-memory one that **survives process
//!   restarts** and is shared between concurrent processes, so a re-run
//!   of a suite — or a restarted server — starts warm from disk (see
//!   docs/STORE.md; `bench_store` quantifies the warm-start win). Unlike
//!   engine state, the store is *not* cleared by the per-suite reset of
//!   the non-`--warm` modes: cold engines over a warm disk tier is
//!   exactly the scenario the store exists for.
//!
//! The per-instance *timing columns* still measure the paper's one-shot
//! algorithms on fresh managers (that is the published methodology); the
//! engines accelerate the non-timed front computations, which with
//! `--jobs > 1` additionally run concurrently. Timings taken with
//! `--jobs > 1` include scheduler contention on a busy machine; use
//! `--jobs 1` when the timing columns themselves are the result.

use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use adt_analysis::{
    bdd_bu, bdd_bu_with_order, bottom_up, modular_bdd_bu, naive, table2_attacker_op,
    DefenseFirstOrder, DEFAULT_GC_THRESHOLD,
};
use adt_bench::{
    bucket_of, default_jobs, median, naive_work, run_engine_jobs, secs, secs_opt, time_avg,
    time_once, Csv, EngineWorker, JobOutput, SuiteEngine, WorkerPool, DEFAULT_REORDER_THRESHOLD,
};
use adt_core::semiring::{
    AttributeDomain, Ext, MinCost, MinSkill, MinTimePar, MinTimeSeq, Prob, Probability,
};
use adt_core::{catalog, Agent, AugmentedAdt, Gate};
use adt_gen::{bucket_suite, paper_suite, Instance, Shape};
use adt_serve::{ServeConfig, Server, DEFAULT_MAX_QUERY_BYTES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("help");
    let flags = parse_flags(&args[1.min(args.len())..]);
    // One execution context per process: the worker pool (or the
    // sequential engine), created lazily on the first suite, survives
    // across every suite — and, for `all`, across every command.
    let exec = Exec::from_flags(&flags);
    match command {
        "table1" => table1(),
        "table2" => table2(),
        "fig3" => fig3(),
        "fig4" => fig4(flags.num("max-n", 10) as u32, &exec),
        "fig5" => fig5(),
        "fig6" => fig6(),
        "case-study" | "fig7" | "fig8" => case_study(),
        "fig9" => fig9(&flags, &exec),
        "fig10" => fig10(&flags, &exec),
        "ablation-ordering" => ablation_ordering(&flags, &exec),
        "ablation-modular" => ablation_modular(&flags, &exec),
        "serve" => serve(&flags),
        "query" => query(&args[1..], &flags),
        "whatif" => whatif(&args[1..], &flags),
        "store-compact" => store_compact(&args[1..]),
        "all" => {
            table1();
            table2();
            fig3();
            fig5();
            fig6();
            fig4(8, &exec);
            case_study();
            fig9(&flags, &exec);
            fig10(&flags, &exec);
            ablation_ordering(&flags, &exec);
            ablation_modular(&flags, &exec);
        }
        _ => {
            eprintln!("unknown command `{command}`; see the module docs for usage");
            std::process::exit(2);
        }
    }
}

/// The `serve` subcommand: a framed query server over the engine pool.
///
/// Transports: `--unix PATH` listens on a Unix socket, `--tcp ADDR`
/// (e.g. `127.0.0.1:7878`) on TCP, and the default serves one session on
/// stdin/stdout (the inetd/pipe mode the tests and `bench_serve` script).
/// Socket modes accept connections until the process is killed; each
/// connection gets its own session thread, all sharing the one pool.
fn serve(flags: &Flags) {
    let jobs = flags.jobs();
    let cfg = ServeConfig {
        jobs,
        max_inflight: flags.num("max-inflight", 2 * jobs as u64) as usize,
        gc_threshold: flags.gc_threshold(),
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store: flags.path("store").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    eprintln!(
        "serving with --jobs {} --max-inflight {}{}",
        cfg.jobs,
        cfg.max_inflight,
        match &cfg.store {
            Some(dir) => format!(" --store {}", dir.display()),
            None => String::new(),
        }
    );
    let server = Server::new(cfg);
    if let Some(path) = flags.path("unix") {
        let listener = std::os::unix::net::UnixListener::bind(path).expect("bindable --unix path");
        eprintln!("listening on unix socket {path}");
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                let stream = stream.expect("accept");
                let server = &server;
                scope.spawn(move || {
                    let write_half = stream.try_clone().expect("clonable unix stream");
                    if let Err(e) = server.serve_connection(&stream, write_half) {
                        eprintln!("connection closed on protocol error: {e}");
                    }
                });
            }
        });
    } else if let Some(addr) = flags.path("tcp") {
        let listener = std::net::TcpListener::bind(addr).expect("bindable --tcp address");
        eprintln!("listening on tcp {addr}");
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                let stream = stream.expect("accept");
                let server = &server;
                scope.spawn(move || {
                    let write_half = stream.try_clone().expect("clonable tcp stream");
                    if let Err(e) = server.serve_connection(&stream, write_half) {
                        eprintln!("connection closed on protocol error: {e}");
                    }
                });
            }
        });
    } else {
        if let Err(e) = server.serve_connection(std::io::stdin().lock(), std::io::stdout()) {
            eprintln!("session closed on protocol error: {e}");
            std::process::exit(1);
        }
        server.drain();
    }
}

/// The `query` subcommand: a one-shot blocking client over the library's
/// [`adt_serve::Client`], for scripting against a running `serve`
/// instance. The query is the first positional argument (`-` reads it
/// from stdin); the front goes to stdout, the status line to stderr, and
/// the session is closed with a graceful `X` shutdown.
fn query(args: &[String], flags: &Flags) {
    let source = positional(args).cloned().unwrap_or_else(|| {
        eprintln!("usage: experiments query <QUERY|-> [--unix PATH | --tcp ADDR]");
        std::process::exit(2);
    });
    let dsl = if source == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
            .expect("readable stdin");
        buf
    } else {
        source
    };
    if let Some(path) = flags.path("unix") {
        let stream =
            std::os::unix::net::UnixStream::connect(path).expect("connectable --unix path");
        let write_half = stream.try_clone().expect("clonable unix stream");
        run_query(stream, write_half, &dsl);
    } else if let Some(addr) = flags.path("tcp") {
        let stream = std::net::TcpStream::connect(addr).expect("connectable --tcp address");
        let write_half = stream.try_clone().expect("clonable tcp stream");
        run_query(stream, write_half, &dsl);
    } else {
        eprintln!("query needs a server to talk to: pass --unix PATH or --tcp ADDR");
        std::process::exit(2);
    }
}

/// Issues one query over an already-connected transport and reports it.
fn run_query<R: std::io::Read, W: std::io::Write>(reader: R, writer: W, dsl: &str) {
    let mut client = adt_serve::Client::new(reader, writer);
    match client.query(dsl) {
        Ok(reply) => {
            println!("{}", reply.front);
            eprintln!(
                "ok nodes={} width={} micros={}",
                reply.nodes, reply.width, reply.micros
            );
            client.shutdown().expect("graceful shutdown flush");
        }
        Err(e) => {
            eprintln!("query failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The `whatif` subcommand: replay a scripted edit sequence against a
/// base tree through the served what-if path.
///
/// The first positional is a cost-DSL file for the base tree, the second
/// an edit script (`-` reads it from stdin) with one wire-grammar op per
/// line — `set <leaf> <value>`, `toggle <leaf>`, `gate <node> and|or`,
/// `replace <node> <dsl>` — blank lines and `#` comments skipped. The
/// session runs over an in-process socketpair against a real [`Server`]
/// (so `--store` and `--gc-threshold` behave exactly as under `serve`): fronts go to stdout, per-edit dirty-cone stats to
/// stderr, and the first failing op aborts with a nonzero exit.
fn whatif(args: &[String], flags: &Flags) {
    let pos = positionals(args);
    let [tree_path, script_source] = pos.as_slice() else {
        eprintln!(
            "usage: experiments whatif <TREE.dsl> <SCRIPT|-> \
             [--store PATH] [--gc-threshold N]"
        );
        std::process::exit(2);
    };
    let dsl = std::fs::read_to_string(tree_path).unwrap_or_else(|e| {
        eprintln!("cannot read tree `{tree_path}`: {e}");
        std::process::exit(2);
    });
    let script = if *script_source == "-" {
        let mut buf = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut buf)
            .expect("readable stdin");
        buf
    } else {
        std::fs::read_to_string(script_source).unwrap_or_else(|e| {
            eprintln!("cannot read script `{script_source}`: {e}");
            std::process::exit(2);
        })
    };
    // Edits are stateful and run on the connection thread; one worker is
    // all the interleaved queries of a what-if session can ever need.
    let cfg = ServeConfig {
        jobs: 1,
        max_inflight: 1,
        gc_threshold: flags.gc_threshold(),
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store: flags.path("store").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let server = Server::new(cfg);
    let (client_end, server_end) =
        std::os::unix::net::UnixStream::pair().expect("socketpair for the in-process session");
    std::thread::scope(|scope| {
        let server = &server;
        let serving = scope.spawn(move || {
            let write_half = server_end.try_clone().expect("clonable socket");
            server.serve_connection(&server_end, write_half)
        });
        let write_half = client_end.try_clone().expect("clonable socket");
        let mut client = adt_serve::Client::new(&client_end, write_half);
        let opened = client.edit(&format!("open {dsl}")).unwrap_or_else(|e| {
            eprintln!("open failed: {e}");
            std::process::exit(1);
        });
        println!("open {tree_path} -> {}", opened.front);
        eprintln!(
            "  ok nodes={} width={} micros={}",
            opened.nodes, opened.width, opened.micros
        );
        let (mut edits, mut dirty, mut reused, mut micros) = (0usize, 0usize, 0usize, 0u128);
        for line in script.lines() {
            let op = line.trim();
            if op.is_empty() || op.starts_with('#') {
                continue;
            }
            match client.edit(op) {
                Ok(reply) => {
                    println!("{op} -> {}", reply.front);
                    eprintln!(
                        "  ok nodes={} width={} micros={} dirty_nodes={} reused={}",
                        reply.nodes, reply.width, reply.micros, reply.dirty_nodes, reply.reused
                    );
                    edits += 1;
                    dirty += reply.dirty_nodes;
                    reused += reply.reused;
                    micros += reply.micros;
                }
                Err(e) => {
                    eprintln!("edit `{op}` failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        eprintln!(
            "replayed {edits} edits: dirty_nodes={dirty} reused={reused} total_micros={micros}"
        );
        client.shutdown().expect("graceful shutdown flush");
        if let Err(e) = serving.join().expect("server thread") {
            eprintln!("session closed on protocol error: {e}");
            std::process::exit(1);
        }
    });
}

/// The `store-compact` subcommand: rewrite the store log at the
/// positional PATH keeping only live records, and report the reclaim.
fn store_compact(args: &[String]) {
    let Some(path) = positional(args) else {
        eprintln!("usage: experiments store-compact <PATH>");
        std::process::exit(2);
    };
    let mut store = adt_store::Store::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open store at `{path}`: {e}");
        std::process::exit(1);
    });
    let reclaimed = store.compact().unwrap_or_else(|e| {
        eprintln!("compaction failed: {e}");
        std::process::exit(1);
    });
    println!(
        "compacted {path}: {reclaimed} bytes reclaimed, {} live records kept",
        store.len()
    );
}

/// The first argument `parse_flags` would *not* consume: tokens starting
/// with `--` and their immediately following values are flag syntax,
/// everything else is positional.
fn positional(args: &[String]) -> Option<&String> {
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => i += 2,
                _ => i += 1,
            }
        } else {
            return Some(&args[i]);
        }
    }
    None
}

/// Every positional argument, in order, under the same flag-skipping
/// rules as [`positional`].
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => i += 2,
                _ => i += 1,
            }
        } else {
            out.push(&args[i]);
            i += 1;
        }
    }
    out
}

/// How suites are executed for the whole process lifetime: either the
/// long-lived [`WorkerPool`] (`--jobs > 1`; spawned once, engines persist
/// in the workers) or a single caller-owned engine driven by the exact
/// sequential loop (`--jobs 1`).
///
/// `--warm` keeps engine state across [`Exec::run`] calls; otherwise every
/// batch starts from freshly reset engines (the cold baseline). Both the
/// pool and the sequential engine are created lazily on the first batch,
/// so table/figure commands that never evaluate a suite spawn nothing.
struct Exec {
    jobs: usize,
    gc_threshold: usize,
    reorder_threshold: usize,
    kernel_threads: usize,
    warm: bool,
    /// `--store PATH`: the persistent cache directory attached to every
    /// engine at creation. Survives engine resets by design.
    store: Option<std::path::PathBuf>,
    pool: OnceCell<WorkerPool>,
    sequential: RefCell<Option<EngineWorker>>,
}

impl Exec {
    fn from_flags(flags: &Flags) -> Self {
        Exec {
            jobs: flags.jobs(),
            gc_threshold: flags.gc_threshold(),
            reorder_threshold: flags.reorder_threshold(),
            kernel_threads: flags.kernel_threads(),
            warm: flags.flag("warm"),
            store: flags.path("store").map(std::path::PathBuf::from),
            pool: OnceCell::new(),
            sequential: RefCell::new(None),
        }
    }

    /// Runs `f` over the jobs (index-ordered results, like the pool): on
    /// the pool when `--jobs > 1`, else as the sequential engine loop.
    /// Jobs arrive `Arc`-wrapped so the pool path shares the suite with
    /// its workers instead of deep-copying it; callers keep their clone of
    /// the `Arc` for post-processing.
    fn run<J, R, F>(&self, jobs: &Arc<Vec<J>>, f: F) -> Vec<JobOutput<R>>
    where
        J: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&mut EngineWorker, usize, &J) -> R + Send + Sync + 'static,
    {
        if self.jobs > 1 {
            static WARNED: std::sync::Once = std::sync::Once::new();
            let jobs_n = self.jobs;
            WARNED.call_once(|| {
                eprintln!(
                    "note: --jobs {jobs_n}: timing columns are measured inside concurrent \
                     workers and may include scheduler contention; use --jobs 1 when the \
                     timings themselves are the result"
                );
            });
            let pool = self.pool.get_or_init(|| {
                let pool = WorkerPool::new(self.jobs, self.gc_threshold);
                if self.reorder_threshold != usize::MAX {
                    pool.set_reorder_threshold(self.reorder_threshold);
                }
                if self.kernel_threads > 1 {
                    pool.set_kernel_threads(self.kernel_threads);
                }
                if let Some(dir) = &self.store {
                    pool.open_store(dir)
                        .unwrap_or_else(|e| panic!("--store {}: {e}", dir.display()));
                }
                pool
            });
            if !self.warm {
                pool.reset_engines();
            }
            pool.submit(Arc::clone(jobs), f)
        } else {
            let mut slot = self.sequential.borrow_mut();
            let worker = slot.get_or_insert_with(|| {
                let mut engine = SuiteEngine::with_gc_threshold(self.gc_threshold);
                engine.set_reorder_threshold(self.reorder_threshold);
                engine.set_kernel_threads(self.kernel_threads);
                if let Some(dir) = &self.store {
                    engine
                        .open_store(dir)
                        .unwrap_or_else(|e| panic!("--store {}: {e}", dir.display()));
                }
                EngineWorker { worker: 0, engine }
            });
            if !self.warm {
                worker.engine.reset();
            }
            run_engine_jobs(worker, jobs.as_slice(), f)
        }
    }
}

struct Flags(HashMap<String, String>);

impl Flags {
    fn num(&self, key: &str, default: u64) -> u64 {
        self.0
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    fn path(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// `true` when the (possibly valueless) flag was given at all.
    fn flag(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }

    /// The `--gc-threshold` arena bound for worker engines (nodes).
    fn gc_threshold(&self) -> usize {
        self.num("gc-threshold", DEFAULT_GC_THRESHOLD as u64) as usize
    }

    /// The engine-front variable-ordering mode chosen by `--order`:
    /// `declaration` (default, static) or `sift` (dynamic reordering on
    /// every worker engine).
    fn order(&self) -> &str {
        let order = self
            .0
            .get("order")
            .map(String::as_str)
            .unwrap_or("declaration");
        assert!(
            matches!(order, "declaration" | "sift"),
            "--order expects `declaration` or `sift`, got `{order}`"
        );
        order
    }

    /// The reorder threshold worker engines are armed with: the explicit
    /// `--reorder-threshold` value when given, the
    /// [`DEFAULT_REORDER_THRESHOLD`] under `--order sift`, and disarmed
    /// (`usize::MAX`) otherwise.
    fn reorder_threshold(&self) -> usize {
        if self.flag("reorder-threshold") {
            self.num("reorder-threshold", DEFAULT_REORDER_THRESHOLD as u64) as usize
        } else if self.order() == "sift" {
            DEFAULT_REORDER_THRESHOLD
        } else {
            usize::MAX
        }
    }

    /// The `--jobs` worker count; defaults to the host's available
    /// parallelism. Unlike the old per-suite scoped pool (which clamped to
    /// the suite size), the persistent pool spawns exactly this many
    /// workers once and keeps them for every suite of the process — a
    /// worker idle for one small suite serves the next one, so the count
    /// is a process-level choice, not a per-suite one.
    ///
    /// (The one-time stderr note about concurrent timing columns is
    /// emitted by [`Exec::run`] on the first batch that actually uses the
    /// pool, so table/figure commands that never shard work stay silent.)
    fn jobs(&self) -> usize {
        self.num("jobs", default_jobs() as u64) as usize
    }

    /// The `--kernel-threads` intra-query thread count every suite engine
    /// is armed with (default 1: the sequential path). Values above 1 fan
    /// each modular analysis's missed modules out over that many threads,
    /// each with a private manager; fronts are identical at any value, so
    /// this is a throughput knob, never a semantics one.
    fn kernel_threads(&self) -> usize {
        self.num("kernel-threads", 1).max(1) as usize
    }
}

fn parse_flags(args: &[String]) -> Flags {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        if let Some(key) = arg.strip_prefix("--") {
            // A following `--flag` is the next flag, not this one's value
            // (boolean flags like `--warm` carry none).
            match args.get(i + 1) {
                Some(value) if !value.starts_with("--") => {
                    map.insert(key.to_owned(), value.clone());
                    i += 2;
                }
                _ => {
                    map.insert(key.to_owned(), String::new());
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    Flags(map)
}

fn heading(title: &str) {
    println!("\n=== {title} ===");
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// Runs the money-theft tree under every Table-I attribute domain for the
/// attacker (defender stays min-cost). Integer domains reuse the paper's
/// costs; the probability domain maps cost `c` to success probability
/// `c / 200` (synthetic, the paper assigns no probabilities).
fn table1() {
    heading("Table I — semiring attribute domains (attacker side swept)");
    let base = catalog::money_theft_tree();

    fn with_attacker_domain<DA: AttributeDomain + Clone>(
        base: &AugmentedAdt<MinCost, MinCost>,
        domain: DA,
        map: impl Fn(u64) -> DA::Value,
    ) -> AugmentedAdt<MinCost, DA> {
        AugmentedAdt::from_fns(
            base.adt().clone(),
            MinCost,
            domain,
            |t, id| {
                let pos = t.basic_position(id).expect("leaf");
                *base.defense_value(pos)
            },
            |t, id| {
                let pos = t.basic_position(id).expect("leaf");
                map(*base.attack_value(pos).finite().expect("finite cost"))
            },
        )
    }

    println!("{:<22} {:<10} front", "metric", "⊗ / ⪯");
    let t = with_attacker_domain(&base, MinCost, Ext::Fin);
    println!(
        "{:<22} {:<10} {}",
        "min cost",
        "+ / ≤",
        bottom_up(&t).unwrap()
    );
    let t = with_attacker_domain(&base, MinTimeSeq, Ext::Fin);
    println!(
        "{:<22} {:<10} {}",
        "min time (sequential)",
        "+ / ≤",
        bottom_up(&t).unwrap()
    );
    let t = with_attacker_domain(&base, MinTimePar, Ext::Fin);
    println!(
        "{:<22} {:<10} {}",
        "min time (parallel)",
        "max / ≤",
        bottom_up(&t).unwrap()
    );
    let t = with_attacker_domain(&base, MinSkill, Ext::Fin);
    println!(
        "{:<22} {:<10} {}",
        "min skill",
        "max / ≤",
        bottom_up(&t).unwrap()
    );
    let t = with_attacker_domain(&base, Probability, |c| {
        Prob::new(c as f64 / 200.0).expect("costs are below 200")
    });
    println!(
        "{:<22} {:<10} {}",
        "probability",
        "· / ≥",
        bottom_up(&t).unwrap()
    );
    println!("(probability uses the synthetic mapping p = cost/200)");
}

// ---------------------------------------------------------------------------
// Table II
// ---------------------------------------------------------------------------

fn table2() {
    heading("Table II — bottom-up operators (defender op is always ⊗_D)");
    println!(
        "{:<6} {:<6} {:<8} {:<8}",
        "γ(v)", "τ(v)", "def op", "att op"
    );
    for gate in [Gate::And, Gate::Or, Gate::Inh] {
        for agent in [Agent::Attacker, Agent::Defender] {
            println!(
                "{:<6} {:<6} {:<8} {:<8}",
                gate.to_string(),
                agent.to_string(),
                "⊗_D",
                match table2_attacker_op(gate, agent) {
                    adt_core::SemiringOp::Add => "⊕_A",
                    adt_core::SemiringOp::Mul => "⊗_A",
                }
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Worked examples
// ---------------------------------------------------------------------------

fn fig3() {
    heading("Fig. 3 — running example (Examples 1-3)");
    let t = catalog::fig3();
    let front = bottom_up(&t).unwrap();
    println!("bottom-up front : {front}");
    println!("naive front     : {}", naive(&t).unwrap());
    println!("bddbu front     : {}", bdd_bu(&t).unwrap());
    println!("expected (paper): feasible events S = {{(00,010),(01,010),(10,010),(11,110)}}");
}

fn fig4(max_n: u32, exec: &Exec) {
    heading("Fig. 4 — worst case |PF(T)| = 2^n");
    println!(
        "{:>3} {:>8} {:>10} {:>12} {:>12} {:>12}",
        "n", "|N|", "|PF|", "t_bu (s)", "t_bddbu (s)", "t_naive (s)"
    );
    let sizes = Arc::new((1..=max_n).collect::<Vec<u32>>());
    let rows = exec.run(&sizes, |ctx, _, &n| {
        let t = catalog::fig4(n);
        // The reported front comes from the worker's engine (cached across
        // reruns under --warm); the timing columns below measure the
        // one-shot algorithms, as the paper does.
        let front = ctx.engine.analyze(&t).unwrap();
        assert_eq!(front.len(), 1usize << n, "|PF| must equal 2^n");
        let t_bu = time_avg(Duration::from_millis(5), || bottom_up(&t).unwrap());
        let t_bdd = time_avg(Duration::from_millis(5), || bdd_bu(&t).unwrap());
        let t_naive = if n <= 10 {
            Some(time_once(|| naive(&t).unwrap()).1)
        } else {
            None
        };
        (t.adt().node_count(), front.len(), t_bu, t_bdd, t_naive)
    });
    for (row, n) in rows.iter().zip(sizes.iter()) {
        let (nodes, front_len, t_bu, t_bdd, t_naive) = &row.result;
        println!(
            "{:>3} {:>8} {:>10} {:>12} {:>12} {:>12}",
            n,
            nodes,
            front_len,
            secs(*t_bu),
            secs(*t_bdd),
            secs_opt(*t_naive),
        );
    }
}

fn fig5() {
    heading("Fig. 5 — worked bottom-up example (Example 5)");
    let t = catalog::fig5();
    println!("bottom-up front : {}", bottom_up(&t).unwrap());
    println!("expected (paper): {{(0, 5), (4, 10), (12, ∞)}}");
}

fn fig6() {
    heading("Fig. 6 — ROBDD of the example ADT (order d2 < d1 < a1 < a2)");
    let adt = catalog::fig6();
    let order = DefenseFirstOrder::custom(
        &adt,
        ["d2", "d1", "a1", "a2"]
            .iter()
            .map(|n| adt.node_id(n).expect("catalog names"))
            .collect(),
    )
    .expect("defense-first");
    let (bdd, root) = adt_analysis::compile(&adt, &order);
    println!("BDD nodes: {}", bdd.node_count(root));
    println!("paths to 1 (level, value):");
    for path in bdd.paths(root, true) {
        let rendered: Vec<String> = path
            .iter()
            .map(|&(level, value)| {
                format!("{}={}", adt[order.event(level)].name(), u8::from(value))
            })
            .collect();
        println!("  {}", rendered.join(" → "));
    }
    println!(
        "dot:\n{}",
        bdd.to_dot(root, |l| adt[order.event(l)].name().to_owned())
    );
}

// ---------------------------------------------------------------------------
// §VI-A case study (Figs. 7 and 8)
// ---------------------------------------------------------------------------

fn case_study() {
    heading("§VI-A case study — money theft (Figs. 7 and 8)");
    let tree = catalog::money_theft_tree();
    let dag = catalog::money_theft();

    let bu_front = bottom_up(&tree).unwrap();
    let (bdd_front, t_bdd) = time_once(|| bdd_bu(&dag).unwrap());
    let t_bu = time_avg(Duration::from_millis(5), || bottom_up(&tree).unwrap());
    let naive_front = naive(&dag).unwrap();

    println!("tree analysis (BU):    {bu_front}");
    println!("  paper:               {{(0, 90), (30, 150), (50, 165)}}");
    println!("  attack-only baseline [Kordy & Wideł 2018]: 165");
    println!("dag analysis (BDDBU):  {bdd_front}");
    println!("  paper:               {{(0, 80), (20, 90), (50, 140)}}");
    println!("  set-semantics baseline [Kordy & Wideł 2018]: 140");
    println!("dag analysis (Naive):  {naive_front}");
    println!("t_bu = {} s, t_bddbu = {} s", secs(t_bu), secs(t_bdd));

    println!("\nFig. 8 series (defense budget → attack cost):");
    for (label, front) in [("BU", &bu_front), ("BDDBU", &bdd_front)] {
        let series: Vec<String> = front.iter().map(|(d, a)| format!("({d}, {a})")).collect();
        println!("  {label:<6} {}", series.join(" "));
    }
}

// ---------------------------------------------------------------------------
// Fig. 9 — pairwise runtime comparison
// ---------------------------------------------------------------------------

struct Timings {
    t_naive: Option<Duration>,
    t_bu: Option<Duration>,
    t_bddbu: Duration,
}

fn measure(instance: &Instance, work_cap: u128) -> Timings {
    let t = &instance.adt;
    let t_naive = match naive_work(t) {
        Some(work) if work <= work_cap => Some(time_once(|| naive(t).unwrap()).1),
        _ => None,
    };
    let t_bu = if t.adt().is_tree() {
        Some(time_avg(Duration::from_millis(2), || bottom_up(t).unwrap()))
    } else {
        None
    };
    let t_bddbu = time_avg(Duration::from_millis(2), || bdd_bu(t).unwrap());
    Timings {
        t_naive,
        t_bu,
        t_bddbu,
    }
}

fn fig9(flags: &Flags, exec: &Exec) {
    let count = flags.num("count", 120) as usize;
    let max_nodes = flags.num("max-nodes", 45) as usize;
    let seed = flags.num("seed", 42);
    let work_cap = 1u128 << flags.num("work-cap", 26);
    heading("Fig. 9 — pairwise runtimes on random ADTs");
    println!(
        "{count} instances, |N| < {max_nodes}, master seed {seed}, naive capped at 2^{} evals",
        flags.num("work-cap", 26)
    );

    let mut csv = Csv::new(&[
        "instance",
        "seed",
        "nodes",
        "shape",
        "t_naive_s",
        "t_bu_s",
        "t_bddbu_s",
    ]);
    // Half trees (so BU participates), half DAGs — the generator's natural
    // mix in the paper.
    let mut instances = paper_suite(count / 2, max_nodes, Shape::Tree, seed);
    instances.extend(paper_suite(
        count - count / 2,
        max_nodes,
        Shape::Dag,
        seed + 1,
    ));
    let instances = Arc::new(instances);
    // Each instance is a self-contained job: workers own their engines,
    // and results come back in suite order, so the CSV rows come out
    // exactly as the sequential driver emitted them.
    let measured = exec.run(&instances, move |_, _, instance| {
        measure(instance, work_cap)
    });
    for (i, (instance, timed)) in instances.iter().zip(&measured).enumerate() {
        let timings = &timed.result;
        let shape = if instance.adt.adt().is_tree() {
            "tree"
        } else {
            "dag"
        };
        csv.row([
            i.to_string(),
            instance.seed.to_string(),
            instance.nodes().to_string(),
            shape.to_owned(),
            secs_opt(timings.t_naive),
            secs_opt(timings.t_bu),
            secs(timings.t_bddbu),
        ]);
    }
    emit(&csv, flags.path("csv"));
    summarize_wins(&csv);
}

fn summarize_wins(csv: &Csv) {
    // Parse our own CSV back for a quick textual summary of who wins.
    let text = csv.finish();
    let mut naive_vs_bdd = (0usize, 0usize);
    let mut bu_vs_bdd = (0usize, 0usize);
    for line in text.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let parse = |s: &str| s.parse::<f64>().ok();
        if let (Some(n), Some(b)) = (parse(fields[4]), parse(fields[6])) {
            if n < b {
                naive_vs_bdd.0 += 1;
            } else {
                naive_vs_bdd.1 += 1;
            }
        }
        if let (Some(u), Some(b)) = (parse(fields[5]), parse(fields[6])) {
            if u < b {
                bu_vs_bdd.0 += 1;
            } else {
                bu_vs_bdd.1 += 1;
            }
        }
    }
    println!(
        "naive faster than bddbu on {} instances, slower on {} \
         (paper: naive wins only on very small trees)",
        naive_vs_bdd.0, naive_vs_bdd.1
    );
    println!(
        "bu faster than bddbu on {} tree instances, slower on {} (paper: BU wins on trees)",
        bu_vs_bdd.0, bu_vs_bdd.1
    );
}

// ---------------------------------------------------------------------------
// Fig. 10 — median runtime per 20-node bucket
// ---------------------------------------------------------------------------

fn fig10(flags: &Flags, exec: &Exec) {
    let per_bucket = flags.num("per-bucket", 6) as usize;
    let max_nodes = flags.num("max-nodes", 325) as usize;
    let seed = flags.num("seed", 43);
    let work_cap = 1u128 << flags.num("work-cap", 26);
    heading("Fig. 10 — median runtime per 20-node size bucket");
    println!("{per_bucket} instances per bucket, sizes up to {max_nodes}, master seed {seed}");

    type BucketTimes = (Vec<Duration>, Vec<Duration>, Vec<Duration>);
    let instances = Arc::new(bucket_suite(per_bucket, max_nodes, Shape::Tree, seed));
    let measured = exec.run(&instances, move |_, _, instance| {
        measure(instance, work_cap)
    });
    let mut buckets: HashMap<usize, BucketTimes> = HashMap::new();
    for (instance, timed) in instances.iter().zip(&measured) {
        let timings = &timed.result;
        let entry = buckets.entry(bucket_of(instance.nodes())).or_default();
        if let Some(t) = timings.t_naive {
            entry.0.push(t);
        }
        if let Some(t) = timings.t_bu {
            entry.1.push(t);
        }
        entry.2.push(timings.t_bddbu);
    }
    let mut csv = Csv::new(&["bucket", "median_naive_s", "median_bu_s", "median_bddbu_s"]);
    let mut keys: Vec<usize> = buckets.keys().copied().collect();
    keys.sort_unstable();
    for bucket in keys {
        let (naive_ts, bu_ts, bdd_ts) = buckets.get_mut(&bucket).expect("key");
        csv.row([
            bucket.to_string(),
            median(naive_ts).map(secs).unwrap_or_else(|| "-".into()),
            median(bu_ts).map(secs).unwrap_or_else(|| "-".into()),
            median(bdd_ts).map(secs).unwrap_or_else(|| "-".into()),
        ]);
    }
    emit(&csv, flags.path("csv"));
}

// ---------------------------------------------------------------------------
// Ablations (the paper's §VII future work, implemented)
// ---------------------------------------------------------------------------

fn ablation_ordering(flags: &Flags, exec: &Exec) {
    let count = flags.num("count", 30) as usize;
    let max_nodes = flags.num("max-nodes", 60) as usize;
    let seed = flags.num("seed", 44);
    heading("Ablation — BDD size under defense-first orderings");
    let instances = Arc::new(paper_suite(count, max_nodes, Shape::Dag, seed));
    let mut csv = Csv::new(&[
        "instance",
        "nodes",
        "bdd_declaration",
        "bdd_dfs",
        "bdd_force",
        "bdd_sift",
        "t_decl_s",
        "t_dfs_s",
        "t_force_s",
        "t_sift_s",
    ]);
    let mut totals = [0usize; 4];
    let measured = exec.run(&instances, |ctx, _, instance| {
        let t = &instance.adt;
        let orders = [
            DefenseFirstOrder::declaration(t.adt()),
            DefenseFirstOrder::dfs(t.adt()),
            DefenseFirstOrder::force(t.adt(), 20),
        ];
        // Size/front columns through the worker's engine (cached when the
        // instance recurs under --warm); timings below stay one-shot.
        let mut reports: Vec<_> = orders
            .iter()
            .map(|o| ctx.engine.bdd_bu_report(t, o))
            .collect();
        // The sifted column: a job-local engine (deterministic at any
        // --jobs value) armed to always reorder, so the column reports
        // what dynamic reordering achieves on this instance rather than
        // whether a production threshold would have fired.
        let sift = |engine: &mut SuiteEngine| {
            engine.set_reorder_threshold(1);
            engine.bdd_bu_report(t, &orders[0])
        };
        reports.push(sift(&mut SuiteEngine::new()));
        assert!(
            reports.windows(2).all(|w| w[0].front == w[1].front),
            "orders must agree on the front"
        );
        let mut times: Vec<Duration> = orders
            .iter()
            .map(|o| {
                time_avg(Duration::from_millis(2), || {
                    bdd_bu_with_order(t, o).unwrap()
                })
            })
            .collect();
        times.push(time_avg(Duration::from_millis(2), || {
            sift(&mut SuiteEngine::new())
        }));
        let sizes: Vec<usize> = reports.iter().map(|r| r.bdd_nodes).collect();
        (sizes, times)
    });
    for (i, (instance, timed)) in instances.iter().zip(&measured).enumerate() {
        let (sizes, times) = &timed.result;
        for (k, nodes) in sizes.iter().enumerate() {
            totals[k] += nodes;
        }
        csv.row([
            i.to_string(),
            instance.nodes().to_string(),
            sizes[0].to_string(),
            sizes[1].to_string(),
            sizes[2].to_string(),
            sizes[3].to_string(),
            secs(times[0]),
            secs(times[1]),
            secs(times[2]),
            secs(times[3]),
        ]);
    }
    emit(&csv, flags.path("csv"));
    println!(
        "total BDD nodes — declaration: {}, dfs: {}, force: {}, sift: {}",
        totals[0], totals[1], totals[2], totals[3]
    );
}

fn ablation_modular(flags: &Flags, exec: &Exec) {
    let count = flags.num("count", 30) as usize;
    let max_nodes = flags.num("max-nodes", 80) as usize;
    let seed = flags.num("seed", 45);
    heading("Ablation — modular decomposition vs plain BDDBU");
    let instances = Arc::new(paper_suite(count, max_nodes, Shape::Dag, seed));
    let mut csv = Csv::new(&[
        "instance",
        "nodes",
        "shared",
        "t_bddbu_s",
        "t_modular_s",
        "cache_hits",
        "perm_hits",
        "store_hits",
        "cache_lookups",
    ]);
    let mut wins = 0usize;
    let measured = exec.run(&instances, |ctx, _, instance| {
        let t = &instance.adt;
        let reference = bdd_bu(t).unwrap();
        // Deterministic cache columns: a fresh engine per instance counts
        // the module-root cache traffic *within* this one query (shared
        // modules recurring inside the instance), so the CSV is identical
        // at any --jobs value. The worker's persistent engine is exercised
        // separately below — its cross-query hits depend on what this
        // worker served before, which BENCH_PR4 (not this CSV) quantifies.
        let mut local = SuiteEngine::new();
        let local_front = local.modular(t).unwrap();
        let stats = local.stats();
        assert_eq!(
            local_front, reference,
            "modular analysis must agree with BDDBU"
        );
        // The store column *is* per-worker state: it counts how many of
        // this instance's module fronts the persistent tier served (always
        // 0 without --store; with --store it shows the disk tier carrying
        // module reuse across engine resets and process restarts).
        let store_before = ctx.engine.stats().store_hits;
        assert_eq!(
            ctx.engine.modular(t).unwrap(),
            reference,
            "warm-engine modular analysis must agree with BDDBU"
        );
        let store_hits = ctx.engine.stats().store_hits - store_before;
        assert_eq!(
            modular_bdd_bu(t).unwrap(),
            reference,
            "stateless modular analysis must agree with BDDBU"
        );
        let t_bdd = time_avg(Duration::from_millis(2), || bdd_bu(t).unwrap());
        let t_mod = time_avg(Duration::from_millis(2), || modular_bdd_bu(t).unwrap());
        (
            t_bdd,
            t_mod,
            stats.cache_hits,
            stats.perm_module_hits,
            store_hits,
            stats.lookups(),
        )
    });
    let (mut total_hits, mut total_perm, mut total_store, mut total_lookups) =
        (0usize, 0usize, 0usize, 0usize);
    for (i, (instance, timed)) in instances.iter().zip(&measured).enumerate() {
        let (t_bdd, t_mod, hits, perm_hits, store_hits, lookups) = timed.result;
        if t_mod < t_bdd {
            wins += 1;
        }
        total_hits += hits;
        total_perm += perm_hits;
        total_store += store_hits;
        total_lookups += lookups;
        csv.row([
            i.to_string(),
            instance.nodes().to_string(),
            instance.adt.adt().stats().shared_nodes.to_string(),
            secs(t_bdd),
            secs(t_mod),
            hits.to_string(),
            perm_hits.to_string(),
            store_hits.to_string(),
            lookups.to_string(),
        ]);
    }
    emit(&csv, flags.path("csv"));
    println!("modular faster on {wins}/{count} instances");
    let rate = if total_lookups == 0 {
        0.0
    } else {
        total_hits as f64 / total_lookups as f64
    };
    println!(
        "module-root cache: {total_hits}/{total_lookups} intra-query lookups hit ({:.1}% — \
         modules recurring within one instance; cross-query reuse under --warm is measured \
         by BENCH_PR4.json); {total_perm} of the hits exist only because permutation-\
         canonical keys matched order-isomorphic modules",
        rate * 100.0
    );
    println!(
        "persistent store tier: {total_store} worker-engine module fronts served from disk \
         ({}; see docs/STORE.md and BENCH_PR9.json)",
        if exec.store.is_some() {
            "--store attached"
        } else {
            "no --store given, so necessarily 0"
        }
    );
}

fn emit(csv: &Csv, path: Option<&str>) {
    match path {
        Some(path) => {
            std::fs::write(path, csv.finish()).expect("writable csv path");
            println!("wrote {} rows to {path}", csv.rows());
        }
        None => print!("{}", csv.finish()),
    }
}
