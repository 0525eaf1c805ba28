//! Per-edit latency of the PR-10 incremental what-if engine vs full
//! recompilation, written to `BENCH_PR10.json`.
//!
//! Three questions, three sections:
//!
//! 1. **Single-leaf edits** (the headline): for every instance of the five
//!    suite families (`paper_tree`, `paper_dag`, `bucket_tree`,
//!    `bucket_dag`, `fig4_family`), a seeded values-only edit script is
//!    replayed through an [`IncrementalSession`], and every edit is timed
//!    against a from-scratch `bdd_bu` of the same edited tree. Before any
//!    clock starts, a separate untimed pass asserts each incremental
//!    front byte-identical to the cold recompile, and that value edits
//!    never fall back to full recompilation. The acceptance gate —
//!    per-edit geomean speedup ≥ ×3 on the two DAG families — is
//!    asserted, not just reported.
//!
//! 2. **Mixed edits**: the same measurement under scripts that also
//!    toggle defenses, flip gate kinds, and replace subtrees (the
//!    structural ops recompile their dirty cone); reported per family,
//!    no gate.
//!
//! 3. **Served what-if**: a representative DAG is opened over a
//!    socketpair against a real [`Server`] and the single-leaf script is
//!    replayed through `E`-channel frames via the blocking [`Client`];
//!    per-edit p50 wall-clock shows the interactive loop end-to-end
//!    through the wire protocol.
//!
//! Usage: `cargo run --release -p adt-serve --bin bench_incremental
//! [-- OUT]` (default output `BENCH_PR10.json`). `BENCH_INCR_QUICK=1`
//! shrinks every family for CI smoke.

use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use adt_analysis::{bdd_bu, AnalysisEngine, EditReport, IncrementalSession};
use adt_bench::json::{bench_report, parallelism_note, Object, Value};
use adt_bench::median;
use adt_core::dsl::Document;
use adt_core::semiring::Ext;
use adt_core::{catalog, Agent, AugmentedAdt, MinCost};
use adt_gen::{bucket_suite, edit_script, paper_suite, EditOp, EditScriptConfig, Shape};
use adt_serve::{Client, ServeConfig, Server, DEFAULT_MAX_QUERY_BYTES};

type CostAdt = AugmentedAdt<MinCost, MinCost>;
type Session = IncrementalSession<MinCost, MinCost>;
type Engine = AnalysisEngine<MinCost, MinCost>;
type Report = EditReport<Ext<u64>, Ext<u64>>;

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// One of the five suite families, with a deterministic edit-script seed
/// per instance.
struct Family {
    name: &'static str,
    instances: Vec<CostAdt>,
    /// Whether the headline ×3 gate applies (the two DAG families).
    gated: bool,
}

fn families(quick: bool) -> Vec<Family> {
    let count = if quick { 4 } else { 10 };
    let bucket_max = if quick { 60 } else { 120 };
    let fig4_max = if quick { 6 } else { 8 };
    let paper = |shape| {
        paper_suite(count, 45, shape, 42)
            .into_iter()
            .map(|i| i.adt)
            .collect()
    };
    let bucket = |shape| {
        bucket_suite(1, bucket_max, shape, 7)
            .into_iter()
            .map(|i| i.adt)
            .collect()
    };
    vec![
        Family {
            name: "paper_tree",
            instances: paper(Shape::Tree),
            gated: false,
        },
        Family {
            name: "paper_dag",
            instances: paper(Shape::Dag),
            gated: true,
        },
        Family {
            name: "bucket_tree",
            instances: bucket(Shape::Tree),
            gated: false,
        },
        Family {
            name: "bucket_dag",
            instances: bucket(Shape::Dag),
            gated: true,
        },
        Family {
            name: "fig4_family",
            instances: (4..=fig4_max).map(catalog::fig4).collect(),
            gated: false,
        },
    ]
}

/// Applies one generated op through the session's typed edit methods
/// (value edits dispatch on the leaf's agent, exactly like the wire
/// grammar's `set`).
fn session_apply(session: &mut Session, engine: &mut Engine, op: &EditOp) -> Report {
    match op {
        EditOp::SetValue { name, value } => {
            let id = session
                .tree()
                .adt()
                .node_id(name)
                .expect("generated scripts only target live leaves");
            match session.tree().adt()[id].agent() {
                Agent::Attacker => session.set_attack_value(engine, name, Ext::Fin(*value)),
                Agent::Defender => session.set_defense_value(engine, name, Ext::Fin(*value)),
            }
        }
        EditOp::Toggle { name } => session.toggle_defense(engine, name),
        EditOp::SetGate { name, gate } => session.set_gate_kind(engine, name, *gate),
        EditOp::Replace { at, replacement } => session.replace_subtree(engine, at, replacement),
    }
    .expect("generated scripts replay cleanly")
}

/// Aggregates of one measured script replay.
#[derive(Default)]
struct Measured {
    /// Per-edit `full / incremental` latency ratios.
    ratios: Vec<f64>,
    incr: Vec<Duration>,
    full: Vec<Duration>,
    dirty: usize,
    reused: usize,
    fallbacks: usize,
}

impl Measured {
    fn absorb(&mut self, other: Measured) {
        self.ratios.extend(other.ratios);
        self.incr.extend(other.incr);
        self.full.extend(other.full);
        self.dirty += other.dirty;
        self.reused += other.reused;
        self.fallbacks += other.fallbacks;
    }
}

fn geomean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geomean of an empty section");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// Untimed differential pass: every incremental front must be
/// byte-identical to a from-scratch `bdd_bu` of the session's own edited
/// tree. `forbid_fallbacks` additionally asserts the dirty-cone property
/// for value-only scripts (a value edit never recompiles the BDD).
fn assert_correct(base: &CostAdt, script: &[EditOp], forbid_fallbacks: bool) {
    let mut engine = Engine::new();
    let mut session = engine.incremental_session(base.clone());
    for op in script {
        let report = session_apply(&mut session, &mut engine, op);
        let cold = bdd_bu(session.tree()).expect("edited trees stay well-formed");
        assert_eq!(
            report.front, cold,
            "incremental front diverged from the cold recompile"
        );
        assert_eq!(
            report.front.to_string(),
            cold.to_string(),
            "fronts must render byte-identically"
        );
        if forbid_fallbacks {
            assert!(
                !report.full_fallback,
                "a value edit must stay on the dirty-cone path"
            );
        }
    }
    session.close(&mut engine);
}

/// Timed pass on a fresh session: each edit's incremental latency against
/// a from-scratch recompile of the same edited tree.
fn measure(base: &CostAdt, script: &[EditOp]) -> Measured {
    let mut engine = Engine::new();
    let mut session = engine.incremental_session(base.clone());
    let mut out = Measured::default();
    for op in script {
        let start = Instant::now();
        let report = session_apply(&mut session, &mut engine, op);
        let incr = start.elapsed();
        let start = Instant::now();
        std::hint::black_box(bdd_bu(session.tree()).expect("edited trees stay well-formed"));
        let full = start.elapsed();
        out.ratios
            .push(full.as_secs_f64() / incr.as_secs_f64().max(1e-9));
        out.incr.push(incr);
        out.full.push(full);
        out.dirty += report.dirty_nodes;
        out.reused += report.reused;
        out.fallbacks += usize::from(report.full_fallback);
    }
    session.close(&mut engine);
    out
}

/// Runs one family under one script config: correctness first, then the
/// timed replay, aggregated across instances.
fn run_section(family: &Family, config: &EditScriptConfig, forbid_fallbacks: bool) -> Measured {
    let mut total = Measured::default();
    for (i, base) in family.instances.iter().enumerate() {
        let script = edit_script(base, config, 1000 + i as u64);
        assert_correct(base, &script, forbid_fallbacks);
        total.absorb(measure(base, &script));
    }
    total
}

fn section_object(family: &Family, m: &Measured) -> Object {
    let mut incr = m.incr.clone();
    let mut full = m.full.clone();
    let edits = m.ratios.len();
    Object::new()
        .field("instances", family.instances.len())
        .field("edits", edits)
        .field(
            "incr_p50_us",
            Value::float(us(median(&mut incr).expect("edits >= 1")), 1),
        )
        .field(
            "full_p50_us",
            Value::float(us(median(&mut full).expect("edits >= 1")), 1),
        )
        .field("geomean_speedup", Value::float(geomean(&m.ratios), 2))
        .field(
            "mean_dirty_nodes",
            Value::float(m.dirty as f64 / edits as f64, 1),
        )
        .field(
            "mean_reused_nodes",
            Value::float(m.reused as f64 / edits as f64, 1),
        )
        .field("full_fallbacks", m.fallbacks)
}

/// Replays the script through `E` frames against a one-worker server over
/// a socketpair; returns per-edit wall-clock latencies.
fn served_latencies(base: &CostAdt, script: &[EditOp]) -> Vec<Duration> {
    let server = Server::new(ServeConfig {
        jobs: 1,
        max_inflight: 1,
        gc_threshold: adt_analysis::DEFAULT_GC_THRESHOLD,
        max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
        store: None,
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
    let dsl = Document::from_cost_adt("g", base).to_dsl();
    client
        .edit(&format!("open {dsl}"))
        .expect("the representative tree opens");
    let mut latencies = Vec::with_capacity(script.len());
    for op in script {
        let line = op.to_line();
        let start = Instant::now();
        client.edit(&line).expect("generated edits replay cleanly");
        latencies.push(start.elapsed());
    }
    client.shutdown().expect("graceful shutdown flush");
    server_thread.join().expect("server thread");
    latencies
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_PR10.json".into());
    let quick = std::env::var("BENCH_INCR_QUICK").is_ok();
    let single_len = if quick { 6 } else { 12 };
    let mixed_len = if quick { 6 } else { 10 };
    let families = families(quick);

    // --- sections 1 and 2: single-leaf and mixed edit scripts ------------
    let values_cfg = EditScriptConfig::values_only(single_len);
    let mixed_cfg = EditScriptConfig::of_len(mixed_len);
    let mut single = Object::new();
    let mut mixed = Object::new();
    let mut gate_ratios = Vec::new();
    for family in &families {
        let m = run_section(family, &values_cfg, true);
        assert_eq!(m.fallbacks, 0, "value edits never fall back");
        if family.gated {
            gate_ratios.extend(m.ratios.iter().copied());
        }
        eprintln!(
            "{}: {} instances, single-leaf geomean x{:.1}, mixed pass next",
            family.name,
            family.instances.len(),
            geomean(&m.ratios)
        );
        single = single.field(family.name, section_object(family, &m));
        let mm = run_section(family, &mixed_cfg, false);
        mixed = mixed.field(family.name, section_object(family, &mm));
    }
    let gate = geomean(&gate_ratios);
    eprintln!("gate: single-leaf DAG geomean x{gate:.2} (needs >= x3)");
    assert!(
        gate >= 3.0,
        "acceptance gate: single-leaf edits on the DAG families must re-propagate \
         at least x3 faster than full recompilation (measured x{gate:.2})"
    );

    // --- section 3: the served what-if loop ------------------------------
    let representative = families
        .iter()
        .find(|f| f.name == "bucket_dag")
        .expect("bucket_dag exists")
        .instances
        .last()
        .expect("bucket_dag is nonempty");
    let served_script = edit_script(representative, &values_cfg, 4242);
    let mut served = served_latencies(representative, &served_script);
    let served_p50 = median(&mut served).expect("script is nonempty");
    eprintln!(
        "served: {} edits over the socketpair, p50 {:.0}us per edit",
        served_script.len(),
        us(served_p50)
    );

    // --- JSON emission ---------------------------------------------------
    let description = format!(
        "Incremental what-if engine: dirty-cone re-propagation vs full recompile. \
         single_leaf: values-only edit scripts ({single_len} edits/instance) replayed \
         through an IncrementalSession over the five suite families; every edit timed \
         against a from-scratch bdd_bu of the same edited tree, fronts asserted \
         byte-identical in an untimed pass before any clock starts, zero full-recompile \
         fallbacks asserted. The x3 per-edit geomean gate on the two DAG families is \
         asserted. mixed: the same measurement with toggles, gate flips, and subtree \
         replacements in the script. served: the values-only script replayed through \
         E-channel frames against a one-worker server over a socketpair."
    );
    let report = bench_report(10, &description, 1)
        .field("single_leaf", single)
        .field(
            "single_leaf_gate",
            Object::new()
                .field("families", "paper_dag + bucket_dag")
                .field("geomean_speedup", Value::float(gate, 2))
                .field("gate_x3", gate >= 3.0),
        )
        .field("mixed", mixed)
        .field(
            "served",
            Object::new()
                .field("edits", served_script.len())
                .field("per_edit_p50_us", Value::float(us(served_p50), 1)),
        )
        .field("quick_mode", quick)
        .field(
            "summary",
            Object::new().field("note", parallelism_note(1, 1)).field(
                "method",
                "Both sides of every ratio run on this machine in the same process: \
                     the incremental edit on a live session with its retained memo, the \
                     full recompile as the paper's one-shot bdd_bu on a fresh manager — \
                     the cost a non-incremental server would pay per edit. Correctness \
                     is settled before timing, so the ratios compare two ways of \
                     computing the same bytes.",
            ),
        );
    std::fs::write(&out_path, report.render()).expect("write incremental benchmark");
    eprintln!("wrote {out_path}: single-leaf DAG geomean x{gate:.1}");
}
