//! Robustness regressions for the serving front: every failure mode a
//! hostile or unlucky client can cause must leave the session (or at
//! least the pool) fully usable.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Condvar, Mutex};

use adt_analysis::DEFAULT_GC_THRESHOLD;
use adt_bench::WorkerPool;
use adt_core::dsl::Document;
use adt_serve::{FrameReader, FrameWriter, OwnedFrame, ServeConfig, Server};

fn fig3_query() -> String {
    Document::from_cost_adt("fig3", &adt_core::catalog::fig3()).to_dsl()
}

fn write_query(writer: &mut FrameWriter<UnixStream>, dsl: &str) {
    writer.write_data(b'Q', dsl.as_bytes()).expect("query");
    writer.write_frame(&OwnedFrame::Flush).expect("flush");
}

/// Reads frames until `id`'s terminal (`S`/`E`/`B`) frame arrives;
/// returns the terminal channel and its body.
fn read_terminal(reader: &mut FrameReader<UnixStream>, id: u32) -> (u8, String) {
    loop {
        match reader.next_frame().expect("response stream") {
            Some(OwnedFrame::Data { channel, payload }) => {
                let got =
                    u32::from_str_radix(std::str::from_utf8(&payload[..8]).expect("hex id"), 16)
                        .expect("tagged");
                if got == id && channel != b'R' {
                    return (
                        channel,
                        String::from_utf8(payload[8..].to_vec()).expect("utf8"),
                    );
                }
            }
            other => panic!("stream ended while waiting for id {id}: {other:?}"),
        }
    }
}

/// A session driver over a socketpair with the server on its own thread.
struct Client {
    writer: FrameWriter<UnixStream>,
    reader: FrameReader<UnixStream>,
}

impl Client {
    fn connect<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        server: &'scope Server,
    ) -> Client {
        let (client, remote) = UnixStream::pair().expect("socketpair");
        scope.spawn(move || {
            let read_half = remote.try_clone().expect("clone");
            // Protocol errors are an expected outcome in these tests.
            let _ = server.serve_connection(read_half, remote);
        });
        Client {
            writer: FrameWriter::new(client.try_clone().expect("clone")),
            reader: FrameReader::new(client),
        }
    }
}

#[test]
fn malformed_dsl_leaves_the_session_usable() {
    let server = Server::new(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    std::thread::scope(|scope| {
        let mut c = Client::connect(scope, &server);
        // Three malformed shapes: junk, truncated document, wrong key.
        for (id, bad) in ["not a document", "cost attack a =", "time tree;"]
            .iter()
            .enumerate()
        {
            write_query(&mut c.writer, bad);
            let (channel, body) = read_terminal(&mut c.reader, id as u32);
            assert_eq!(channel, b'E', "query {id} must fail");
            assert!(body.starts_with(" err "), "body: {body}");
        }
        // The session (same connection, same pool) still serves.
        write_query(&mut c.writer, &fig3_query());
        let (channel, body) = read_terminal(&mut c.reader, 3);
        assert_eq!(channel, b'S', "recovery query failed: {body}");
        c.writer.write_data(b'X', b"").expect("shutdown");
        assert_eq!(c.reader.next_frame(), Ok(Some(OwnedFrame::Flush)));
    });
    assert_eq!(server.pool().pending_tasks(), 0);
}

#[test]
fn client_disconnect_mid_stream_does_not_wedge_a_worker() {
    let server = Server::new(ServeConfig {
        jobs: 1,
        max_inflight: 8,
        ..ServeConfig::default()
    });
    std::thread::scope(|scope| {
        // Submit a real query, then slam the connection before the
        // response can be written.
        let mut c = Client::connect(scope, &server);
        write_query(
            &mut c.writer,
            &Document::from_cost_adt("g", &adt_core::catalog::fig4(8)).to_dsl(),
        );
        drop(c);
        // The worker finishes the orphaned query (its writes are
        // swallowed) and must come back for new work.
        server.drain();
        assert_eq!(server.pool().pending_tasks(), 0);
        let mut c = Client::connect(scope, &server);
        write_query(&mut c.writer, &fig3_query());
        let (channel, _) = read_terminal(&mut c.reader, 0);
        assert_eq!(channel, b'S', "worker wedged by the disconnected client");
        c.writer.write_data(b'X', b"").expect("shutdown");
        assert_eq!(c.reader.next_frame(), Ok(Some(OwnedFrame::Flush)));
    });
}

#[test]
fn full_admission_queue_answers_busy_and_recovers() {
    // A caller-supplied pool whose single worker is parked on a gate the
    // test controls: admission is saturated deterministically, no timing
    // assumptions.
    let pool = WorkerPool::new(1, DEFAULT_GC_THRESHOLD);
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    {
        let gate = Arc::clone(&gate);
        pool.try_submit(
            usize::MAX,
            move |_| {
                let (open, opened) = &*gate;
                let mut open = open.lock().unwrap();
                while !*open {
                    open = opened.wait(open).unwrap();
                }
            },
            || (),
        )
        .expect("blocker admitted");
    }
    let server = Server::with_pool(
        ServeConfig {
            jobs: 1,
            max_inflight: 1,
            ..ServeConfig::default()
        },
        pool,
    );
    std::thread::scope(|scope| {
        let mut c = Client::connect(scope, &server);
        // The blocker occupies the only slot: pending (1) >= limit (1).
        write_query(&mut c.writer, &fig3_query());
        let (channel, body) = read_terminal(&mut c.reader, 0);
        assert_eq!(channel, b'B', "expected backpressure, got {body}");
        assert_eq!(body, " busy inflight=1");
        // Open the gate, wait for the pool to go idle, and retry: the
        // same session must now be served.
        {
            let (open, opened) = &*gate;
            *open.lock().unwrap() = true;
            opened.notify_all();
        }
        server.pool().drain();
        write_query(&mut c.writer, &fig3_query());
        let (channel, body) = read_terminal(&mut c.reader, 1);
        assert_eq!(channel, b'S', "post-backpressure query failed: {body}");
        c.writer.write_data(b'X', b"").expect("shutdown");
        assert_eq!(c.reader.next_frame(), Ok(Some(OwnedFrame::Flush)));
    });
}

#[test]
fn graceful_shutdown_drains_inflight_queries() {
    // Pile up more queries than workers, then shut down immediately: every
    // response must arrive before the final flush.
    let server = Server::new(ServeConfig {
        jobs: 2,
        max_inflight: 32,
        ..ServeConfig::default()
    });
    let queries: Vec<String> = (1..=10)
        .map(|n| Document::from_cost_adt("g", &adt_core::catalog::fig4(n)).to_dsl())
        .collect();
    std::thread::scope(|scope| {
        let mut c = Client::connect(scope, &server);
        for q in &queries {
            write_query(&mut c.writer, q);
        }
        c.writer.write_data(b'X', b"").expect("shutdown");
        let mut terminals = std::collections::HashMap::new();
        loop {
            match c.reader.next_frame().expect("response stream") {
                Some(OwnedFrame::Flush) => break,
                Some(OwnedFrame::Data { channel, payload }) => {
                    if channel != b'R' {
                        let id =
                            u32::from_str_radix(std::str::from_utf8(&payload[..8]).unwrap(), 16)
                                .unwrap();
                        terminals.insert(id, channel);
                    }
                }
                None => panic!("stream ended before the shutdown flush"),
            }
        }
        // Every admitted query completed before the flush, successfully.
        assert_eq!(terminals.len(), queries.len());
        assert!(
            terminals.values().all(|&ch| ch == b'S'),
            "terminals: {terminals:?}"
        );
        // After the flush the stream is cleanly closed.
        assert_eq!(c.reader.next_frame(), Ok(None));
    });
}

#[test]
fn protocol_desync_is_reported_then_the_connection_closes() {
    let server = Server::new(ServeConfig {
        jobs: 1,
        ..ServeConfig::default()
    });
    std::thread::scope(|scope| {
        let (client, remote) = UnixStream::pair().expect("socketpair");
        let handle = scope.spawn(move || {
            let read_half = remote.try_clone().expect("clone");
            server.serve_connection(read_half, remote)
        });
        let mut raw = client.try_clone().expect("clone");
        raw.write_all(b"zzzz").expect("garbage write");
        let mut reader = FrameReader::new(client);
        // One session-level error frame, then EOF.
        match reader.next_frame() {
            Ok(Some(OwnedFrame::Data { channel, payload })) => {
                assert_eq!(channel, b'E');
                assert!(payload.starts_with(b"ffffffff err protocol: "));
            }
            other => panic!("expected a fatal protocol error frame, got {other:?}"),
        }
        assert_eq!(reader.next_frame(), Ok(None));
        assert!(handle.join().expect("server thread").is_err());
    });
}
