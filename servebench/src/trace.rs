//! The traced run: request spans recorded around the benchmark's calls into
//! the server, and an in-process replay of the same inputs through each
//! layer's public functions, reduced to the per-layer metrics.
//!
//! Spans are recorded only by the benchmark's own code; each carries a
//! name, start and end (ns since the run began), its parent's name and a
//! request id shared by the spans of one request. They stay in memory and
//! are written out as JSON lines when the run ends. A span's self time is
//! its duration minus its children's.

use std::collections::HashMap;
use std::fs;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use adt_analysis::{bdd_bu_report, compile, AnalysisEngine, DefenseFirstOrder};
use adt_core::dsl::Document;
use adt_core::semiring::Ext;
use adt_core::{Agent, MinCost};
use adt_gen::EditOp;
use adt_store::Store;

use crate::inputs::{is_structural, SessionInput, Tree};
use crate::measure::{mean, nanos, quantile_us};
use crate::Metric;

/// One timed interval of one request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran: `layer.operation`.
    pub name: &'static str,
    /// Shared by the spans of one request: the phase in the high 32 bits,
    /// the request's sequence number within the phase below.
    pub request: u64,
    /// The enclosing span of the same request, by name.
    pub parent: Option<&'static str>,
    /// Start, ns since the run began.
    pub start_ns: u64,
    /// End, ns since the run began.
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span context of one phase.
#[derive(Debug, Clone, Copy)]
pub struct Tracing {
    /// When the run began.
    pub epoch: Instant,
    /// The phase's number, the high half of its request ids.
    pub phase: u64,
}

impl Tracing {
    /// Records a span of request `seq` of this phase.
    pub fn span(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        parent: Option<&'static str>,
        seq: usize,
        start: Instant,
        end: Instant,
    ) {
        spans.push(Span {
            name,
            request: self.phase << 32 | seq as u64,
            parent,
            start_ns: nanos(start.saturating_duration_since(self.epoch)),
            end_ns: nanos(end.saturating_duration_since(self.epoch)),
        });
    }

    /// Records a wire request: the client round trip as the root span and,
    /// as its child, the server-reported admitted interval (the `S`
    /// frame's `micros`), placed to end when the reply arrived.
    pub fn request(
        &self,
        spans: &mut Vec<Span>,
        seq: usize,
        sent: Instant,
        replied: Instant,
        micros: u128,
    ) {
        let admitted = Duration::from_micros(u64::try_from(micros).unwrap_or(u64::MAX));
        let admitted_from = replied.checked_sub(admitted).unwrap_or(sent).max(sent);
        self.span(spans, "serve.round_trip", None, seq, sent, replied);
        self.span(
            spans,
            "serve.admitted",
            Some("serve.round_trip"),
            seq,
            admitted_from,
            replied,
        );
    }
}

/// Durations of the spans called `name`, in ns.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ns)
        .collect()
}

/// Self times of the spans called `name`, in ns.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    let mut children: HashMap<(u64, &str), u64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *children.entry((span.request, parent)).or_default() += span.ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.ns()
                .saturating_sub(children.get(&(s.request, s.name)).copied().unwrap_or(0))
        })
        .collect()
}

/// Mean of ns samples, in µs.
fn mean_us(ns: &[u64]) -> f64 {
    mean(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

/// Writes the spans as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| format!("\"{p}\""));
        writeln!(
            out,
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The per-layer metrics of the wire side: round trips and admitted
/// intervals from `spans`, and response data frames per request.
pub fn wire_metrics(spans: &[Span], requests: u64, frames: u64) -> Vec<Metric> {
    let mut round_trip = durations(spans, "serve.round_trip");
    let mut admitted = durations(spans, "serve.admitted");
    let mut wire = self_times(spans, "serve.round_trip");
    vec![
        (
            "serve.round_trip_us",
            "us",
            quantile_us(&mut round_trip, 0.5),
        ),
        ("serve.admitted_us", "us", quantile_us(&mut admitted, 0.5)),
        ("serve.wire_us", "us", quantile_us(&mut wire, 0.5)),
        (
            "serve.frames_per_query",
            "count",
            frames as f64 / requests.max(1) as f64,
        ),
    ]
}

/// The inputs the in-process replay runs through the layers.
pub struct Replay<'a> {
    /// Model documents in the order the workload sent them.
    pub dsl: &'a [String],
    /// How long the model pass may run.
    pub budget: Duration,
    /// The servers' garbage-collection threshold, which the long-lived
    /// engines of the model and edit passes take too.
    pub gc_threshold: usize,
    /// What-if sessions for the incremental pass.
    pub sessions: &'a [SessionInput],
    /// Models (from the front of `dsl`) the store pass answers.
    pub store_models: usize,
    /// A scratch directory for the store pass.
    pub store_dir: PathBuf,
}

type Engine = AnalysisEngine<MinCost, MinCost>;

/// Replays the inputs on this thread through the parser, the kernel,
/// one-shot BDDBU, a long-lived engine configured like a server worker, an
/// incremental session and the store, and reduces the spans to metrics.
pub fn replay(r: &Replay, tr: Tracing, spans: &mut Vec<Span>) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut engine = Engine::with_gc_threshold(r.gc_threshold);
    let mut trees: Vec<Tree> = Vec::new();
    let (mut bytes, mut nodes, mut points, mut width) = (0usize, 0usize, 0usize, 0usize);
    let deadline = Instant::now() + r.budget;
    for (i, text) in r.dsl.iter().enumerate() {
        if Instant::now() >= deadline && trees.len() >= r.store_models {
            break;
        }
        let t0 = Instant::now();
        let t = Document::parse(text)
            .and_then(|doc| doc.to_cost_adt("cost"))
            .expect("generated DSL parses");
        let t1 = Instant::now();
        let order = DefenseFirstOrder::declaration(t.adt());
        let (bdd, root) = compile(t.adt(), &order);
        black_box((&bdd, root));
        drop(bdd);
        let t2 = Instant::now();
        let report = bdd_bu_report(&t, &order);
        let t3 = Instant::now();
        black_box(engine.bdd_bu_report(&t, &order));
        let t4 = Instant::now();
        tr.span(spans, "dsl.parse", None, i, t0, t1);
        tr.span(spans, "bdd.compile", None, i, t1, t2);
        tr.span(spans, "bddbu.report", None, i, t2, t3);
        tr.span(spans, "engine.query", None, i, t3, t4);
        bytes += text.len();
        nodes += report.bdd_nodes;
        points += report.front.len();
        width = width.max(report.max_front_width);
        trees.push(t);
    }
    let count = trees.len().max(1) as f64;
    let parse = durations(spans, "dsl.parse");
    let compile_ns = durations(spans, "bdd.compile");
    let report_ns = durations(spans, "bddbu.report");
    let engine_ns = durations(spans, "engine.query");
    let compile_s = compile_ns.iter().sum::<u64>() as f64 / 1e9;
    metrics.extend([
        ("dsl.parse_us", "us", mean_us(&parse)),
        (
            "dsl.parse_ns_per_byte",
            "ns/B",
            parse.iter().sum::<u64>() as f64 / bytes.max(1) as f64,
        ),
        ("dsl.query_bytes", "B", bytes as f64 / count),
        ("bdd.compile_us", "us", mean_us(&compile_ns)),
        ("bdd.nodes", "count", nodes as f64 / count),
        ("bdd.nodes_per_s", "1/s", nodes as f64 / compile_s.max(1e-9)),
        (
            "bddbu.propagate_us",
            "us",
            mean_us(&report_ns) - mean_us(&compile_ns),
        ),
        ("bddbu.max_front_width", "count", width as f64),
        ("bddbu.front_points", "count", points as f64 / count),
        ("engine.query_us", "us", mean_us(&engine_ns)),
        (
            "engine.overhead_us",
            "us",
            mean_us(&engine_ns) - mean_us(&report_ns),
        ),
    ]);
    metrics.extend(replay_edits(r.sessions, r.gc_threshold, tr, spans));
    let stored = &trees[..r.store_models.min(trees.len())];
    metrics.extend(replay_store(stored, &r.store_dir, tr, spans));
    metrics
}

/// Applies every session's script through an [`IncrementalSession`] on one
/// long-lived engine, as a server connection's what-if state does.
///
/// [`IncrementalSession`]: adt_analysis::IncrementalSession
fn replay_edits(
    sessions: &[SessionInput],
    gc_threshold: usize,
    tr: Tracing,
    spans: &mut Vec<Span>,
) -> Vec<Metric> {
    let mut engine = Engine::with_gc_threshold(gc_threshold);
    let (mut dirty, mut reused, mut fallbacks, mut edits) = (0usize, 0usize, 0usize, 0usize);
    for (k, input) in sessions.iter().enumerate() {
        let mut session = engine.incremental_session(input.base.clone());
        for (j, op) in input.ops.iter().enumerate() {
            let start = Instant::now();
            let report = match op {
                EditOp::SetValue { name, value } => {
                    let id = session
                        .tree()
                        .adt()
                        .require(name)
                        .expect("scripted leaf exists");
                    match session.tree().adt()[id].agent() {
                        Agent::Attacker => {
                            session.set_attack_value(&mut engine, name, Ext::Fin(*value))
                        }
                        Agent::Defender => {
                            session.set_defense_value(&mut engine, name, Ext::Fin(*value))
                        }
                    }
                }
                EditOp::Toggle { name } => session.toggle_defense(&mut engine, name),
                EditOp::SetGate { name, gate } => session.set_gate_kind(&mut engine, name, *gate),
                EditOp::Replace { at, replacement } => {
                    session.replace_subtree(&mut engine, at, replacement)
                }
            }
            .expect("generated scripts apply cleanly");
            let name = if is_structural(op) {
                "incremental.structural_edit"
            } else {
                "incremental.value_edit"
            };
            tr.span(spans, name, None, k * 64 + j, start, Instant::now());
            dirty += report.dirty_nodes;
            reused += report.reused;
            fallbacks += usize::from(report.full_fallback);
            edits += 1;
        }
        session.close(&mut engine);
    }
    vec![
        (
            "incremental.value_edit_us",
            "us",
            mean_us(&durations(spans, "incremental.value_edit")),
        ),
        (
            "incremental.structural_edit_us",
            "us",
            mean_us(&durations(spans, "incremental.structural_edit")),
        ),
        (
            "incremental.dirty_nodes",
            "count",
            dirty as f64 / edits.max(1) as f64,
        ),
        (
            "incremental.reuse_ratio",
            "ratio",
            reused as f64 / (dirty + reused).max(1) as f64,
        ),
        ("incremental.full_fallbacks", "count", fallbacks as f64),
    ]
}

/// Answers the models with a storeless engine and with an engine over an
/// empty store (the write cost per query is the difference), then reopens
/// the populated store and answers them again from it.
fn replay_store(trees: &[Tree], dir: &Path, tr: Tracing, spans: &mut Vec<Span>) -> Vec<Metric> {
    let _ = fs::remove_dir_all(dir);
    let mut plain = Engine::new();
    let mut writer = Engine::new();
    writer.open_store(dir).expect("scratch store opens");
    let mut index_bytes = 0u64;
    for (i, t) in trees.iter().enumerate() {
        let order = DefenseFirstOrder::declaration(t.adt());
        let t0 = Instant::now();
        black_box(plain.bdd_bu_report(t, &order));
        let t1 = Instant::now();
        let writes = writer.stats().store_writes;
        black_box(writer.bdd_bu_report(t, &order));
        let t2 = Instant::now();
        tr.span(spans, "store.plain_query", None, i, t0, t1);
        tr.span(spans, "store.write_query", None, i, t1, t2);
        let puts = (writer.stats().store_writes - writes) as u64;
        index_bytes += puts * fs::metadata(dir.join("store.idx")).map_or(0, |m| m.len());
    }
    let records = writer.store().map_or(0, |s| s.stats().puts);
    drop(writer);
    let log_bytes = fs::metadata(dir.join("store.log")).map_or(0, |m| m.len());
    let t0 = Instant::now();
    let store = Store::open(dir).expect("populated store reopens");
    tr.span(spans, "store.open", None, 0, t0, Instant::now());
    let mut reader = Engine::new();
    reader.set_store(store);
    for (i, t) in trees.iter().enumerate() {
        let order = DefenseFirstOrder::declaration(t.adt());
        let t0 = Instant::now();
        black_box(reader.bdd_bu_report(t, &order));
        tr.span(spans, "store.read_query", None, i, t0, Instant::now());
    }
    drop(reader);
    let _ = fs::remove_dir_all(dir);
    vec![
        (
            "store.open_ms",
            "ms",
            mean_us(&durations(spans, "store.open")) / 1e3,
        ),
        (
            "store.write_us",
            "us",
            mean_us(&durations(spans, "store.write_query"))
                - mean_us(&durations(spans, "store.plain_query")),
        ),
        (
            "store.read_us",
            "us",
            mean_us(&durations(spans, "store.read_query")),
        ),
        ("store.records_written", "count", records as f64),
        ("store.log_bytes", "B", log_bytes as f64),
        ("store.index_bytes_written", "B", index_bytes as f64),
    ]
}
