//! The serving rig: an in-process `adt-serve` [`Server`] with client
//! connections over Unix socketpairs, and the three load loops that drive
//! it through the public [`Client`] and frame API.

use std::collections::HashMap;
use std::io::{self, Read};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use adt_analysis::DefenseFirstOrder;
use adt_core::dsl::Document;
use adt_serve::session::{CH_BUSY, CH_ERROR, CH_QUERY, CH_RESULT, CH_SHUTDOWN, CH_STATUS};
use adt_serve::{Client, ClientError, FrameReader, FrameWriter, OwnedFrame, ServeConfig, Server};

use crate::measure::{nanos, Tally};
use crate::reference::{verify, Answer};
use crate::trace::{Span, Tracing};

/// A client connection. Its read half is a [`Tap`], so the traced run can
/// count the frames the server sends.
pub type Conn = Client<Tap, UnixStream>;

/// A transport read half that, when given a counter, counts the data
/// frames passing through it by following the 4-hex-digit length words.
pub struct Tap {
    inner: UnixStream,
    frames: Option<Arc<AtomicU64>>,
    header: Vec<u8>,
    skip: usize,
}

impl Tap {
    fn new(inner: UnixStream, frames: Option<Arc<AtomicU64>>) -> Tap {
        Tap {
            inner,
            frames,
            header: Vec::with_capacity(4),
            skip: 0,
        }
    }
}

impl Read for Tap {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if let Some(frames) = &self.frames {
            let mut bytes = &buf[..n];
            while !bytes.is_empty() {
                if self.skip > 0 {
                    let step = self.skip.min(bytes.len());
                    self.skip -= step;
                    bytes = &bytes[step..];
                    continue;
                }
                self.header.push(bytes[0]);
                bytes = &bytes[1..];
                if self.header.len() == 4 {
                    let len = std::str::from_utf8(&self.header)
                        .ok()
                        .and_then(|h| usize::from_str_radix(h, 16).ok())
                        .unwrap_or(0);
                    if len > 4 {
                        frames.fetch_add(1, Ordering::Relaxed);
                        self.skip = len - 4;
                    }
                    self.header.clear();
                }
            }
        }
        Ok(n)
    }
}

/// Counters of the server's pool engines, summed over workers (the arena
/// peak is the largest worker's).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Front-cache hits.
    pub hits: usize,
    /// Front-cache misses.
    pub misses: usize,
    /// Memory misses answered by the persistent store.
    pub store_hits: usize,
    /// Memory misses the store missed too.
    pub store_misses: usize,
    /// Compiled diagrams replayed from the store.
    pub store_bdd_loads: usize,
    /// Garbage collections run.
    pub collections: usize,
    /// Largest arena any worker reached.
    pub peak_arena: usize,
}

impl Counters {
    /// The change from `before` to `self` (the arena peak is not a count
    /// and is kept as is).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            store_hits: self.store_hits - before.store_hits,
            store_misses: self.store_misses - before.store_misses,
            store_bdd_loads: self.store_bdd_loads - before.store_bdd_loads,
            collections: self.collections - before.collections,
            peak_arena: self.peak_arena,
        }
    }

    /// Adds another server's counters to these.
    pub fn add(&mut self, other: &Counters) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.store_hits += other.store_hits;
        self.store_misses += other.store_misses;
        self.store_bdd_loads += other.store_bdd_loads;
        self.collections += other.collections;
        self.peak_arena = self.peak_arena.max(other.peak_arena);
    }
}

/// What one load loop measured. Fields marked "traced" stay empty in
/// untraced runs.
#[derive(Default)]
pub struct LoadOut {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Answered model queries, in ns: the client round trip (closed loop)
    /// or from due time to terminal frame (open loop). `open` edits count
    /// here.
    pub queries: Vec<u64>,
    /// Answered edits other than `open`: the client round trip, in ns.
    pub edits: Vec<u64>,
    /// Answers kept for a check after the timed phase: `(model, front, nodes)`.
    pub answers: Vec<(usize, String, usize)>,
    /// Traced: the generator's delay before each send, in ns — behind
    /// schedule (open loop) or after the previous reply (closed loop).
    pub delay_ns: Vec<u64>,
    /// Traced: the largest pool `pending_tasks` seen before a send.
    pub queue_max: usize,
    /// Traced: request spans.
    pub spans: Vec<Span>,
    /// Wall time of the loop, from its start until every answer was in.
    pub elapsed: Duration,
    /// A connection ran out of requests before the deadline.
    pub ran_out: bool,
}

impl LoadOut {
    /// Folds another loop's outcome into this one (the wall time adds up).
    pub fn absorb(&mut self, other: LoadOut) {
        self.tally.absorb(other.tally);
        self.queries.extend(other.queries);
        self.edits.extend(other.edits);
        self.answers.extend(other.answers);
        self.delay_ns.extend(other.delay_ns);
        self.queue_max = self.queue_max.max(other.queue_max);
        self.spans.extend(other.spans);
        self.elapsed += other.elapsed;
        self.ran_out |= other.ran_out;
    }
}

/// The requests of a query loop.
pub struct Requests<'a> {
    /// DSL documents, by model index.
    pub dsl: &'a [String],
    /// Request `i` asks for model `sequence[i % len]`, cycling; `None`:
    /// request `i` asks for model `i`, and the requests end with `dsl`.
    pub sequence: Option<&'a [usize]>,
    /// Expected answers by model index, checked as they arrive; `None`
    /// keeps the answers in [`LoadOut::answers`] instead.
    pub expected: Option<&'a [Answer]>,
    /// The next request's index. Loops over the same requests share it,
    /// so a later loop continues where an earlier one stopped.
    pub cursor: &'a AtomicUsize,
}

impl Requests<'_> {
    fn model(&self, i: usize) -> Option<usize> {
        match self.sequence {
            Some(seq) => Some(seq[i % seq.len()]),
            None => (i < self.dsl.len()).then_some(i),
        }
    }
}

/// One what-if session on the wire.
pub struct SessionScript {
    /// `open <dsl>`, then one edit line per op.
    pub lines: Vec<String>,
    /// The reference answer of each line.
    pub answers: Vec<Answer>,
}

/// An in-process server and its client connections.
pub struct Rig {
    server: Arc<Server>,
    serving: Vec<JoinHandle<()>>,
    clients: Vec<Conn>,
    frames: Option<Arc<AtomicU64>>,
}

impl Rig {
    /// Starts a server and connects `connections` clients to it; with a
    /// `frames` counter their read halves count the frames they receive.
    pub fn start(cfg: &ServeConfig, connections: usize, frames: Option<Arc<AtomicU64>>) -> Rig {
        let mut rig = Rig {
            server: Arc::new(Server::new(cfg.clone())),
            serving: Vec::new(),
            clients: Vec::new(),
            frames,
        };
        for _ in 0..connections {
            let stream = rig.connect();
            let write = stream.try_clone().expect("socket halves clone");
            let tap = Tap::new(stream, rig.frames.clone());
            rig.clients.push(Client::new(tap, write));
        }
        rig
    }

    /// Opens one more connection: a socketpair whose far end a new thread
    /// serves. Returns the client end.
    fn connect(&mut self) -> UnixStream {
        let (local, remote) = UnixStream::pair().expect("socketpair");
        let server = Arc::clone(&self.server);
        self.serving.push(thread::spawn(move || {
            let write = remote.try_clone().expect("socket halves clone");
            // A broken connection shows on the client side as failed
            // requests; nothing more to report here.
            let _ = server.serve_connection(&remote, write);
        }));
        local
    }

    /// The server's pool-engine counters, read by a task that runs once on
    /// every worker (a barrier holds each worker to one task). Call only
    /// while no requests are in flight.
    pub fn counters(&self) -> Counters {
        let pool = self.server.pool();
        let workers = pool.workers();
        let barrier = Arc::new(Barrier::new(workers));
        let per_worker = pool.submit((0..workers).collect::<Vec<_>>(), move |ctx, _, _| {
            barrier.wait();
            (
                ctx.engine.stats(),
                ctx.engine.gc_stats(),
                ctx.engine.peak_arena(),
            )
        });
        per_worker
            .into_iter()
            .fold(Counters::default(), |sum, out| {
                let (stats, gc, peak) = out.result;
                Counters {
                    hits: sum.hits + stats.cache_hits,
                    misses: sum.misses + stats.cache_misses,
                    store_hits: sum.store_hits + stats.store_hits,
                    store_misses: sum.store_misses + stats.store_misses,
                    store_bdd_loads: sum.store_bdd_loads + stats.store_bdd_loads,
                    collections: sum.collections + gc.collections,
                    peak_arena: sum.peak_arena.max(peak),
                }
            })
    }

    /// Loads every model into every worker's front cache, parsed and
    /// ordered exactly as the server's query route does.
    pub fn warm(&self, dsl: &Arc<Vec<String>>) {
        let pool = self.server.pool();
        let workers = pool.workers();
        let barrier = Arc::new(Barrier::new(workers));
        let dsl = Arc::clone(dsl);
        pool.submit((0..workers).collect::<Vec<_>>(), move |ctx, _, _| {
            barrier.wait();
            for text in dsl.iter() {
                let t = Document::parse(text)
                    .and_then(|doc| doc.to_cost_adt("cost"))
                    .expect("generated DSL parses");
                let order = DefenseFirstOrder::declaration(t.adt());
                ctx.engine.bdd_bu_report(&t, &order);
            }
        });
    }

    /// Closed loop: every connection sends its next request as soon as the
    /// previous one is answered, until `deadline` or the requests run out
    /// ([`LoadOut::ran_out`]).
    pub fn query_loop(
        &mut self,
        requests: &Requests,
        deadline: Instant,
        tracing: Option<Tracing>,
    ) -> LoadOut {
        let start = Instant::now();
        let server = &*self.server;
        let mut out = LoadOut::default();
        thread::scope(|s| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut out = LoadOut::default();
                        let mut last_reply = Instant::now();
                        while Instant::now() < deadline {
                            let i = requests.cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(model) = requests.model(i) else {
                                out.ran_out = true;
                                break;
                            };
                            if tracing.is_some() {
                                out.queue_max = out.queue_max.max(server.pool().pending_tasks());
                                out.delay_ns.push(nanos(last_reply.elapsed()));
                            }
                            let sent = Instant::now();
                            let result = client.query(&requests.dsl[model]);
                            last_reply = Instant::now();
                            out.tally.attempted += 1;
                            match result {
                                Ok(reply) => {
                                    out.queries.push(nanos(last_reply - sent));
                                    if let Some(tr) = tracing {
                                        tr.request(
                                            &mut out.spans,
                                            i,
                                            sent,
                                            last_reply,
                                            reply.micros,
                                        );
                                    }
                                    match requests.expected {
                                        Some(expected) => {
                                            if let Err(e) =
                                                verify(&reply.front, reply.nodes, &expected[model])
                                            {
                                                out.tally.mismatch(format!("model {model}: {e}"));
                                            }
                                        }
                                        None => out.answers.push((model, reply.front, reply.nodes)),
                                    }
                                }
                                Err(e) => {
                                    if !count_failure(&mut out.tally, e) {
                                        break;
                                    }
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            for handle in loops {
                out.absorb(handle.join().expect("load thread"));
            }
        });
        out.elapsed = start.elapsed();
        out
    }

    /// Closed loop over what-if sessions: every connection takes the next
    /// session (cycling through `sessions`, from `cursor` on) and sends its
    /// lines one at a time, until `deadline`; a session once started runs
    /// to its end.
    pub fn edit_loop(
        &mut self,
        sessions: &[SessionScript],
        cursor: &AtomicUsize,
        deadline: Instant,
        tracing: Option<Tracing>,
    ) -> LoadOut {
        let start = Instant::now();
        let server = &*self.server;
        let mut out = LoadOut::default();
        thread::scope(|s| {
            let loops: Vec<_> = self
                .clients
                .iter_mut()
                .map(|client| {
                    s.spawn(move || {
                        let mut out = LoadOut::default();
                        let mut last_reply = Instant::now();
                        while Instant::now() < deadline {
                            let k = cursor.fetch_add(1, Ordering::Relaxed);
                            let session = &sessions[k % sessions.len()];
                            for (j, (line, expected)) in
                                session.lines.iter().zip(&session.answers).enumerate()
                            {
                                if tracing.is_some() {
                                    out.queue_max =
                                        out.queue_max.max(server.pool().pending_tasks());
                                    out.delay_ns.push(nanos(last_reply.elapsed()));
                                }
                                let sent = Instant::now();
                                let result = client.edit(line);
                                last_reply = Instant::now();
                                out.tally.attempted += 1;
                                let reply = match result {
                                    Ok(reply) => reply,
                                    Err(e) => {
                                        // The rest of the script depends on
                                        // this line: skip it.
                                        if count_failure(&mut out.tally, e) {
                                            break;
                                        }
                                        return out;
                                    }
                                };
                                let took = nanos(last_reply - sent);
                                if j == 0 {
                                    out.queries.push(took);
                                } else {
                                    out.edits.push(took);
                                }
                                if let Some(tr) = tracing {
                                    tr.request(
                                        &mut out.spans,
                                        k * 64 + j,
                                        sent,
                                        last_reply,
                                        reply.micros,
                                    );
                                }
                                let mut check = verify(&reply.front, reply.nodes, expected);
                                if j > 0
                                    && check.is_ok()
                                    && reply.dirty_nodes + reply.reused != reply.nodes
                                {
                                    check = Err(format!(
                                        "dirty_nodes {} + reused {} != nodes {}",
                                        reply.dirty_nodes, reply.reused, reply.nodes
                                    ));
                                }
                                if let Err(e) = check {
                                    out.tally.mismatch(format!(
                                        "session {}, line {j}: {e}",
                                        k % sessions.len()
                                    ));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            for handle in loops {
                out.absorb(handle.join().expect("load thread"));
            }
        });
        out.elapsed = start.elapsed();
        out
    }

    /// Open loop on one new connection: a sender thread (this one) sends
    /// its `i`-th request at `start + i/rate` whatever the replies, and a
    /// receiver thread collects the tagged replies. Each request is timed
    /// from when it was due to its terminal frame. `requests` must cycle
    /// and carry expected answers.
    pub fn open_loop(
        &mut self,
        requests: &Requests,
        rate: f64,
        deadline: Instant,
        tracing: Option<Tracing>,
    ) -> LoadOut {
        let expected = requests
            .expected
            .expect("open-loop answers are checked as they arrive");
        let first = requests.cursor.load(Ordering::Relaxed);
        let stream = self.connect();
        let read_half = Tap::new(
            stream.try_clone().expect("socket halves clone"),
            self.frames.clone(),
        );
        let mut writer = FrameWriter::new(stream);
        let mut out = LoadOut::default();
        let mut due = Vec::new();
        let start = Instant::now();
        let terminals = thread::scope(|s| {
            let receiver = s.spawn(move || receive(read_half));
            for i in 0.. {
                let at = start + Duration::from_secs_f64(i as f64 / rate);
                if at >= deadline {
                    break;
                }
                let model = requests.model(first + i).expect("open-loop requests cycle");
                // Yield instead of sleeping: on a small virtual machine a
                // sleeping sender wakes tens of µs to ms late, and that
                // lateness would be charged to the server.
                while Instant::now() < at {
                    thread::yield_now();
                }
                if tracing.is_some() {
                    out.queue_max = out.queue_max.max(self.server.pool().pending_tasks());
                    out.delay_ns.push(nanos(Instant::now() - at));
                }
                let text = requests.dsl[model].as_bytes();
                let sent = text
                    .chunks(adt_serve::MAX_PAYLOAD)
                    .try_for_each(|chunk| writer.write_data(CH_QUERY, chunk))
                    .and_then(|()| writer.write_flush());
                if sent.is_err() {
                    break;
                }
                due.push((at, model));
            }
            // Graceful shutdown: the server answers every admitted request,
            // then a final flush that ends the receiver.
            let _ = writer.write_data(CH_SHUTDOWN, b"");
            receiver.join().expect("receiver thread")
        });
        requests.cursor.fetch_add(due.len(), Ordering::Relaxed);
        out.tally.attempted = due.len() as u64;
        for (i, &(at, model)) in due.iter().enumerate() {
            match terminals.get(&(i as u32)) {
                None => out.tally.error(format!("request {i}: no terminal frame")),
                Some(t) => match t.channel {
                    CH_STATUS => {
                        let Some((nodes, micros)) = status_fields(&t.status) else {
                            out.tally
                                .error(format!("request {i}: status `{}`", t.status));
                            continue;
                        };
                        out.queries.push(nanos(t.at - at));
                        if let Some(tr) = tracing {
                            tr.request(&mut out.spans, first + i, at, t.at, micros);
                        }
                        if let Err(e) = verify(&t.front, nodes, &expected[model]) {
                            out.tally.mismatch(format!("model {model}: {e}"));
                        }
                    }
                    CH_BUSY => out.tally.refused += 1,
                    _ => out.tally.error(format!("request {i}: {}", t.status)),
                },
            }
        }
        out.elapsed = start.elapsed();
        out
    }
}

impl Drop for Rig {
    fn drop(&mut self) {
        for client in self.clients.drain(..) {
            let _ = client.shutdown();
        }
        for handle in self.serving.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Counts a failed request; `false` when the connection is unusable.
fn count_failure(tally: &mut Tally, e: ClientError) -> bool {
    match e {
        ClientError::Busy { .. } => tally.refused += 1,
        ClientError::Server(message) => tally.error(message),
        other => {
            tally.error(other.to_string());
            return false;
        }
    }
    true
}

/// One request's terminal frame, as the open-loop receiver saw it.
struct Terminal {
    channel: u8,
    at: Instant,
    front: String,
    status: String,
}

/// Reads tagged replies until the server's shutdown flush.
fn receive(read_half: Tap) -> HashMap<u32, Terminal> {
    let mut reader = FrameReader::new(read_half);
    let mut fronts: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut terminals = HashMap::new();
    while let Ok(Some(OwnedFrame::Data { channel, payload })) = reader.next_frame() {
        let Some(id) = payload
            .get(..8)
            .and_then(|tag| std::str::from_utf8(tag).ok())
            .and_then(|tag| u32::from_str_radix(tag, 16).ok())
        else {
            continue;
        };
        let body = &payload[8..];
        if channel == CH_RESULT {
            fronts.entry(id).or_default().extend_from_slice(body);
        } else if matches!(channel, CH_STATUS | CH_ERROR | CH_BUSY) {
            let front = fronts.remove(&id).unwrap_or_default();
            terminals.insert(
                id,
                Terminal {
                    channel,
                    at: Instant::now(),
                    front: String::from_utf8_lossy(&front).into_owned(),
                    status: String::from_utf8_lossy(body).into_owned(),
                },
            );
        }
    }
    terminals
}

/// `nodes` and `micros` of an ` ok nodes=N width=W micros=M` status body.
fn status_fields(body: &str) -> Option<(usize, u128)> {
    let rest = body.strip_prefix(" ok nodes=")?;
    let (nodes, rest) = rest.split_once(" width=")?;
    let (_, micros) = rest.split_once(" micros=")?;
    Some((nodes.parse().ok()?, micros.parse().ok()?))
}
