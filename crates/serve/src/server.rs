//! The request router: one [`Server`] owning the persistent engine pool,
//! serving any number of framed connections (sequentially or from
//! caller-managed threads).
//!
//! ## Request lifecycle
//!
//! A query is parsed **on the connection thread** (malformed DSL never
//! occupies a worker), then admitted into the pool with
//! [`WorkerPool::try_submit`] under the `max_inflight` bound. Admission
//! rejection is answered with a `B` (busy) frame — explicit backpressure,
//! never blocking the connection's read loop. Admitted requests run
//! detached on a pool worker: the worker computes the `BDDBU` report via
//! the request-scoped [`try_bdd_bu_report`] entry point, streams the
//! Pareto front back as tagged `R` chunks, and terminates the request with
//! an `S` (status, with BDD size / front width / wall-clock) or `E`
//! (error) frame. Responses of concurrent requests may interleave —
//! delivery is *tagged*, not ordered.
//!
//! ## What-if edits
//!
//! `E` (edit) requests are *stateful*: a connection's `open` edit compiles
//! a tree into a per-connection [`IncrementalSession`] over a dedicated
//! engine, and subsequent `set`/`toggle`/`gate`/`replace` edits mutate
//! that session in place, re-propagating only the dirty cone. Because
//! edits mutate connection-local state they run **on the connection
//! thread**, never on the pool — ordering within a connection is the
//! ordering the client sent, and a long edit never occupies a query
//! worker. The refreshed front streams back as `R` chunks; the `S` status
//! additionally carries `dirty_nodes=`/`reused=` re-propagation stats.
//!
//! ## Disconnect and shutdown
//!
//! Client EOF closes the connection immediately: inflight requests keep
//! their worker only until they finish computing (writes to the dead
//! transport are swallowed), so a disconnecting client cannot wedge the
//! pool. A graceful `X` shutdown instead waits for the connection's
//! inflight requests, answers a final flush frame, and then closes.
//!
//! [`try_bdd_bu_report`]: adt_analysis::AnalysisEngine::try_bdd_bu_report

use std::io::{Read, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use adt_analysis::{
    AnalysisEngine, DefenseFirstOrder, EditReport, IncrementalSession, DEFAULT_GC_THRESHOLD,
};
use adt_bench::{default_jobs, PoolFull, WorkerPool};
use adt_core::dsl::Document;
use adt_core::semiring::Ext;
use adt_core::{Agent, AugmentedAdt, Gate, MinCost};

use crate::frame::{FrameError, FrameReader, FrameWriter, OwnedFrame};
use crate::session::{
    busy_frame, edit_status_frame, error_frame, result_frames, status_frame, Session, SessionStep,
    DEFAULT_MAX_QUERY_BYTES, SESSION_ID,
};

/// Server tuning knobs, mirrored by the `experiments serve` CLI flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Pool workers (`--jobs`): concurrent queries in execution.
    pub jobs: usize,
    /// Kernel threads per worker engine (`--kernel-threads`): intra-query
    /// parallelism of the shared-manager kernel.
    pub kernel_threads: usize,
    /// Admission bound (`--max-inflight`): queued + executing requests
    /// above this answer `B` (busy) instead of being admitted.
    pub max_inflight: usize,
    /// Automatic-GC threshold of each worker engine, in arena nodes.
    pub gc_threshold: usize,
    /// Per-query DSL size cap, in bytes.
    pub max_query_bytes: usize,
    /// Persistent store directory (`--store`): attached to every worker
    /// engine as the second cache tier, so a restarted server starts warm
    /// from the fronts (and compiled diagrams) its predecessor persisted.
    /// `None` (the default) keeps the pure in-memory engines.
    pub store: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let jobs = default_jobs();
        ServeConfig {
            jobs,
            kernel_threads: 1,
            max_inflight: 2 * jobs,
            gc_threshold: DEFAULT_GC_THRESHOLD,
            max_query_bytes: DEFAULT_MAX_QUERY_BYTES,
            store: None,
        }
    }
}

/// A query server over a persistent [`WorkerPool`] of analysis engines.
pub struct Server {
    cfg: ServeConfig,
    pool: WorkerPool,
}

/// The per-connection inflight tracker: count + "drained" signal.
type Inflight = Arc<(Mutex<usize>, Condvar)>;

impl Server {
    /// Builds a server with its own pool of `cfg.jobs` workers.
    ///
    /// # Panics
    ///
    /// When `cfg.store` names a directory the persistent store cannot be
    /// opened in (unwritable, foreign log file, lock timeout) — a server
    /// explicitly asked to persist must not silently serve without doing
    /// so.
    pub fn new(cfg: ServeConfig) -> Self {
        let pool = WorkerPool::new(cfg.jobs.max(1), cfg.gc_threshold);
        pool.set_kernel_threads(cfg.kernel_threads.max(1));
        if let Some(dir) = &cfg.store {
            pool.open_store(dir)
                .unwrap_or_else(|e| panic!("--store {}: {e}", dir.display()));
        }
        Server { cfg, pool }
    }

    /// Builds a server over a caller-supplied pool — the hook the
    /// robustness tests use to pre-occupy workers deterministically.
    pub fn with_pool(cfg: ServeConfig, pool: WorkerPool) -> Self {
        Server { cfg, pool }
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The underlying pool (tests inspect queue depth through this).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Blocks until every admitted request (across all connections) has
    /// finished — the server-level drain of a graceful process shutdown.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Serves one framed connection until client EOF, graceful shutdown,
    /// or a protocol error.
    ///
    /// # Errors
    ///
    /// Returns the [`FrameError`] that desynchronized the stream (after
    /// answering a final session-level `E` frame, best-effort). Client
    /// EOF and `X` shutdown return `Ok(())`.
    pub fn serve_connection<R, W>(&self, reader: R, writer: W) -> Result<(), FrameError>
    where
        R: Read,
        W: Write + Send + 'static,
    {
        let writer = Arc::new(Mutex::new(FrameWriter::new(writer)));
        let inflight: Inflight = Arc::new((Mutex::new(0), Condvar::new()));
        let mut session = Session::new(self.cfg.max_query_bytes);
        let mut whatif: Option<WhatIf> = None;
        let mut reader = FrameReader::new(reader);
        loop {
            let frame = match reader.next_frame() {
                // Client EOF: close now. Inflight requests finish on their
                // workers; their writes to the dead transport are
                // swallowed, so no worker is wedged.
                Ok(None) => return Ok(()),
                Err(e) => {
                    // Framing sync is lost: report once, then close.
                    let fatal = error_frame(SESSION_ID, &format!("protocol: {e}"));
                    write_best_effort(&writer, &fatal);
                    return Err(e);
                }
                Ok(Some(frame)) => frame,
            };
            match session.on_frame(frame) {
                SessionStep::None => {}
                SessionStep::Reply(reply) => write_best_effort(&writer, &reply),
                SessionStep::Submit { id, query } => {
                    self.route(id, &query, &writer, &inflight);
                }
                SessionStep::SubmitEdit { id, script } => {
                    // Stateful: runs here, on the connection thread.
                    let start = Instant::now();
                    match apply_wire_edit(&self.cfg, &mut whatif, &script) {
                        Ok(outcome) => {
                            let micros = start.elapsed().as_micros();
                            for frame in result_frames(id, &outcome.front) {
                                write_best_effort(&writer, &frame);
                            }
                            write_best_effort(
                                &writer,
                                &edit_status_frame(
                                    id,
                                    outcome.nodes,
                                    outcome.width,
                                    micros,
                                    outcome.dirty_nodes,
                                    outcome.reused,
                                ),
                            );
                        }
                        Err(message) => {
                            write_best_effort(&writer, &error_frame(id, &message));
                        }
                    }
                }
                SessionStep::Shutdown => {
                    let (count, drained) = &*inflight;
                    let mut n = count.lock().expect("inflight lock poisoned");
                    while *n > 0 {
                        n = drained.wait(n).expect("inflight lock poisoned");
                    }
                    drop(n);
                    write_best_effort(&writer, &OwnedFrame::Flush);
                    return Ok(());
                }
            }
        }
    }

    /// Parses, admits, and (on admission) detaches one query.
    fn route<W: Write + Send + 'static>(
        &self,
        id: u32,
        query: &str,
        writer: &Arc<Mutex<FrameWriter<W>>>,
        inflight: &Inflight,
    ) {
        let t = match Document::parse(query).and_then(|doc| doc.to_cost_adt("cost")) {
            Ok(t) => t,
            Err(e) => {
                write_best_effort(writer, &error_frame(id, &e.to_string()));
                return;
            }
        };
        // Count the request before admission so a racing `X` shutdown can
        // never observe it half-registered.
        *inflight.0.lock().expect("inflight lock poisoned") += 1;
        let start = Instant::now();
        let task_writer = Arc::clone(writer);
        let tracker = Arc::clone(inflight);
        // The inflight count drops in the pool's completion hook, after the
        // pool has stopped counting the task: an `X` shutdown that waits
        // for the count then finds the pool idle too.
        let admitted = self.pool.try_submit(
            self.cfg.max_inflight,
            move |ctx| {
                let order = DefenseFirstOrder::declaration(t.adt());
                let frames = match ctx.engine.try_bdd_bu_report(&t, &order) {
                    Ok(report) => {
                        let micros = start.elapsed().as_micros();
                        let mut frames = result_frames(id, &report.front.to_string());
                        frames.push(status_frame(
                            id,
                            report.bdd_nodes,
                            report.max_front_width,
                            micros,
                        ));
                        frames
                    }
                    Err(e) => vec![error_frame(id, &e.to_string())],
                };
                for frame in &frames {
                    write_best_effort(&task_writer, frame);
                }
            },
            move || finish_one(&tracker),
        );
        if let Err(PoolFull { pending }) = admitted {
            finish_one(inflight);
            write_best_effort(writer, &busy_frame(id, pending));
        }
    }
}

/// A connection's what-if state: one dedicated engine plus the open
/// incremental session over it. Connection-local by construction — edits
/// are applied on the connection thread, so no lock is needed.
struct WhatIf {
    engine: AnalysisEngine<MinCost, MinCost>,
    session: Option<IncrementalSession<MinCost, MinCost>>,
}

/// What a successful edit sends back: the refreshed front plus the
/// status-line fields.
struct EditOutcome {
    front: String,
    nodes: usize,
    width: usize,
    dirty_nodes: usize,
    reused: usize,
}

impl EditOutcome {
    fn from_report(
        session: &IncrementalSession<MinCost, MinCost>,
        report: &EditReport<Ext<u64>, Ext<u64>>,
    ) -> Self {
        EditOutcome {
            front: session.front().to_string(),
            nodes: report.bdd_nodes,
            width: report.max_front_width,
            dirty_nodes: report.dirty_nodes,
            reused: report.reused,
        }
    }
}

/// Parses and applies one wire edit op against the connection's what-if
/// state. Grammar (one op per request):
///
/// ```text
/// open <dsl>              compile a tree into a fresh session
/// set <leaf> <u64>        re-cost a basic step (attack or defense)
/// toggle <leaf>           flip a defense between free and its cost
/// gate <node> and|or      rewrite a gate's kind
/// replace <node> <dsl>    splice a replacement subtree in at <node>
/// ```
///
/// Every op except `open` requires an open session. Errors come back as
/// strings ready for an `E` frame.
fn apply_wire_edit(
    cfg: &ServeConfig,
    whatif: &mut Option<WhatIf>,
    script: &str,
) -> Result<EditOutcome, String> {
    let script = script.trim();
    let (op, rest) = script
        .split_once(char::is_whitespace)
        .unwrap_or((script, ""));
    let rest = rest.trim();
    if op == "open" {
        let t = parse_cost_tree(rest)?;
        let state = match whatif {
            Some(state) => {
                // Re-opening replaces the session; release the old root.
                if let Some(old) = state.session.take() {
                    old.close(&mut state.engine);
                }
                state
            }
            None => {
                let mut engine = AnalysisEngine::with_gc_threshold(cfg.gc_threshold);
                engine.set_kernel_threads(cfg.kernel_threads.max(1));
                if let Some(dir) = &cfg.store {
                    engine
                        .open_store(dir)
                        .map_err(|e| format!("store {}: {e}", dir.display()))?;
                }
                whatif.insert(WhatIf {
                    engine,
                    session: None,
                })
            }
        };
        let session = state.engine.incremental_session(t);
        let outcome = EditOutcome {
            front: session.front().to_string(),
            nodes: session.bdd_nodes(),
            width: session.max_front_width(),
            dirty_nodes: 0,
            reused: 0,
        };
        state.session = Some(session);
        return Ok(outcome);
    }
    let state = whatif
        .as_mut()
        .ok_or_else(|| format!("edit `{op}` before `open`"))?;
    let session = state
        .session
        .as_mut()
        .ok_or_else(|| format!("edit `{op}` before `open`"))?;
    let engine = &mut state.engine;
    let report = match op {
        "set" => {
            let (name, value) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "usage: set <leaf> <u64>".to_owned())?;
            let value: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("`{}` is not a u64 cost", value.trim()))?;
            let id = session
                .tree()
                .adt()
                .require(name)
                .map_err(|e| e.to_string())?;
            match session.tree().adt()[id].agent() {
                Agent::Attacker => session.set_attack_value(engine, name, Ext::Fin(value)),
                Agent::Defender => session.set_defense_value(engine, name, Ext::Fin(value)),
            }
        }
        "toggle" => {
            if rest.is_empty() {
                return Err("usage: toggle <leaf>".to_owned());
            }
            session.toggle_defense(engine, rest)
        }
        "gate" => {
            let (name, kind) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "usage: gate <node> and|or".to_owned())?;
            let gate = match kind.trim() {
                "and" => Gate::And,
                "or" => Gate::Or,
                other => return Err(format!("`{other}` is not a gate kind (and|or)")),
            };
            session.set_gate_kind(engine, name, gate)
        }
        "replace" => {
            let (name, dsl) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| "usage: replace <node> <dsl>".to_owned())?;
            let replacement = parse_cost_tree(dsl.trim())?;
            session.replace_subtree(engine, name, &replacement)
        }
        other => return Err(format!("unknown edit op `{other}`")),
    }
    .map_err(|e| e.to_string())?;
    Ok(EditOutcome::from_report(session, &report))
}

/// Parses a DSL document into a min-cost tree, flattening both error
/// stages into one message.
fn parse_cost_tree(dsl: &str) -> Result<AugmentedAdt<MinCost, MinCost>, String> {
    Document::parse(dsl)
        .and_then(|doc| doc.to_cost_adt("cost"))
        .map_err(|e| e.to_string())
}

/// Decrements a connection's inflight count, waking its drain waiter at
/// zero.
fn finish_one(inflight: &Inflight) {
    let (count, drained) = &**inflight;
    let mut n = count.lock().expect("inflight lock poisoned");
    *n -= 1;
    if *n == 0 {
        drained.notify_all();
    }
}

/// Writes one frame, swallowing transport failures — the peer may be gone,
/// and a dead client must not take a worker down with it.
fn write_best_effort<W: Write>(writer: &Arc<Mutex<FrameWriter<W>>>, frame: &OwnedFrame) {
    if let Ok(mut w) = writer.lock() {
        let _ = w.write_frame(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{CH_ERROR, CH_QUERY};
    use adt_core::catalog;
    use adt_core::dsl::Document;

    /// Drives one query stream through an in-memory connection and
    /// returns the decoded response frames.
    fn exchange(server: &Server, frames: &[OwnedFrame]) -> Vec<OwnedFrame> {
        let mut request = Vec::new();
        for f in frames {
            request.extend_from_slice(&f.encode().expect("request frame fits"));
        }
        let response: Arc<Mutex<Vec<u8>>> = Arc::default();
        let sink = SharedSink(Arc::clone(&response));
        server
            .serve_connection(&request[..], sink)
            .expect("clean session");
        server.drain();
        let bytes = response.lock().unwrap().clone();
        let mut decoder = crate::frame::FrameDecoder::new();
        decoder.feed(&bytes);
        let mut out = Vec::new();
        while let Some(f) = decoder.next_frame().expect("well-formed response") {
            out.push(f);
        }
        out
    }

    #[derive(Debug, Clone)]
    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn query_frames(dsl: &str) -> Vec<OwnedFrame> {
        vec![
            OwnedFrame::Data {
                channel: CH_QUERY,
                payload: dsl.as_bytes().to_vec(),
            },
            OwnedFrame::Flush,
        ]
    }

    #[test]
    fn one_query_round_trip() {
        // The client side is the library's own [`crate::Client`] — the
        // same code path `experiments query` ships — over a socketpair.
        let server = Server::new(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        });
        let t = catalog::fig3();
        let dsl = Document::from_cost_adt("fig3", &t).to_dsl();
        let (local, remote) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let server_thread = std::thread::spawn(move || {
            let write_half = remote.try_clone().expect("clonable stream");
            server
                .serve_connection(&remote, write_half)
                .expect("clean session");
            server.drain();
        });
        let write_half = local.try_clone().expect("clonable stream");
        let mut client = crate::Client::new(&local, write_half);
        let reply = client.query(&dsl).expect("fig3 serves");
        let direct = adt_analysis::analyze(&t).expect("fig3 analyzes");
        assert_eq!(reply.front, direct.to_string());
        assert!(reply.nodes > 0, "status carried the BDD size");
        assert!(reply.width > 0, "status carried the front width");
        client.shutdown().expect("graceful shutdown flush");
        server_thread.join().expect("server thread");
    }

    #[test]
    fn whatif_session_round_trip_over_a_socketpair() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        });
        let t = catalog::money_theft();
        let dsl = Document::from_cost_adt("money", &t).to_dsl();
        let (local, remote) = std::os::unix::net::UnixStream::pair().expect("socketpair");
        let server_thread = std::thread::spawn(move || {
            let write_half = remote.try_clone().expect("clonable stream");
            server
                .serve_connection(&remote, write_half)
                .expect("clean session");
            server.drain();
        });
        let write_half = local.try_clone().expect("clonable stream");
        let mut client = crate::Client::new(&local, write_half);

        // Edits before `open` are rejected with a tagged error.
        match client.edit("set phishing 10") {
            Err(crate::ClientError::Server(msg)) => assert!(msg.contains("before `open`")),
            other => panic!("expected server error, got {other:?}"),
        }

        // `open` compiles the tree and answers the base front.
        let opened = client.edit(&format!("open {dsl}")).expect("open serves");
        let direct = adt_analysis::analyze(&t).expect("money_theft analyzes");
        assert_eq!(opened.front, direct.to_string());
        assert!(opened.nodes > 0);

        // A value edit re-propagates incrementally and matches a cold
        // recompute of the edited tree.
        let reply = client.edit("set phishing 10").expect("value edit serves");
        let mut edited = t.clone();
        let phishing = edited.adt().require("phishing").unwrap();
        edited
            .set_attack_value_of(phishing, adt_core::semiring::Ext::Fin(10))
            .unwrap();
        let cold = adt_analysis::analyze(&edited).expect("edited tree analyzes");
        assert_eq!(reply.front, cold.to_string());
        assert!(reply.reused > 0, "value edit reused no memoized fronts");

        // Toggling a defense twice restores the opened front exactly.
        let toggled = client.edit("toggle sms_auth").expect("toggle serves");
        assert_ne!(toggled.front, reply.front);
        let restored = client.edit("toggle sms_auth").expect("toggle serves");
        assert_eq!(restored.front, reply.front);

        // Structural edits flow through the same channel.
        client.edit("gate via_atm or").expect("gate edit serves");
        client
            .edit("replace learn_pin adt \"sub\" { attack bribe { cost = 45 } root bribe }")
            .expect("replace serves");

        // Queries and edits interleave on one connection.
        let query = client.query(&dsl).expect("query still serves");
        assert_eq!(query.front, direct.to_string());

        client.shutdown().expect("graceful shutdown flush");
        server_thread.join().expect("server thread");
    }

    #[test]
    fn malformed_dsl_gets_a_tagged_error() {
        let server = Server::new(ServeConfig {
            jobs: 1,
            ..ServeConfig::default()
        });
        let replies = exchange(&server, &query_frames("this is not DSL"));
        assert_eq!(replies.len(), 1);
        match &replies[0] {
            OwnedFrame::Data { channel, payload } => {
                assert_eq!(*channel, CH_ERROR);
                assert!(payload.starts_with(b"00000000 err "));
            }
            other => panic!("expected error frame, got {other:?}"),
        }
    }
}
