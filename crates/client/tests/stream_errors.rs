//! Error semantics of the streaming loop shared by `Client::stream`
//! and `ResilientClient::stream`, for faults no retry can heal.
//!
//! * A stored frame damaged where its CRC cannot see — the frame
//!   header's record count. Both clients forward store frames verbatim,
//!   so they must validate each frame's structure before sending it. A
//!   damaged frame must end the stream as a local, non-transient
//!   `ClientError::Trace(Corrupt)` — without reconnects and without a
//!   single byte of it reaching the server. (Had it been sent, the
//!   server would answer with a framing error, which the retry client
//!   treats as transient and resends until its budget runs out.)
//! * A session that already holds sequenced chunks. The stream numbers
//!   its chunks from 1, so the server dedupes its first chunks as
//!   retransmits; the stream must fail with `ClientError::Diverged`
//!   instead of returning a record count the session never applied.
//! * A peer that speaks another wire version. Its hello must fail the
//!   connect with the typed version error, which no reconnect retries.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use stems_client::{Client, ClientError, FaultStats, ResilientClient, RetryPolicy};
use stems_core::protocol::{OpenRequest, Request};
use stems_core::{Predictor, PrefetchConfig};
use stems_memsim::SystemConfig;
use stems_server::{Server, ServerConfig};
use stems_trace::store::{FRAME_HEADER_BYTES, HEADER_BYTES};
use stems_trace::{Access, Trace, TraceReader, TraceStoreError, TraceWriter};
use stems_types::wire::{self, WireError};
use stems_types::{Addr, Pc};

const FRAME: usize = 16;
const FRAMES: usize = 4;
/// The frame whose record count is damaged.
const DAMAGED: usize = 2;
/// Large enough that neither loop waits for a reply before it reaches
/// the damaged frame, so the stand-in server never has to answer.
const WINDOW: usize = FRAMES;
const TIMEOUT: Duration = Duration::from_secs(5);

fn trace() -> Trace {
    (0..(FRAME * FRAMES) as u64)
        .map(|i| Access::read(Pc::new(0x400 + (i % 7) * 4), Addr::new(i * 200 + (i % 3))))
        .collect()
}

/// A store of `FRAMES` frames whose `DAMAGED` frame claims one record
/// more than it holds. The frame CRC covers only the payload, so the
/// damage is invisible to it.
fn damaged_store() -> Vec<u8> {
    let mut store = intact_store();
    let mut pos = HEADER_BYTES;
    for _ in 0..DAMAGED {
        let len = u32::from_le_bytes(store[pos + 4..pos + 8].try_into().unwrap()) as usize;
        pos += FRAME_HEADER_BYTES + len + 4;
    }
    assert_eq!(store[pos..pos + 4], (FRAME as u32).to_le_bytes());
    store[pos] += 1;
    store
}

fn intact_store() -> Vec<u8> {
    let mut store = Vec::new();
    let mut w = TraceWriter::new(&mut store)
        .unwrap()
        .with_frame_capacity(FRAME);
    w.write_accesses(trace().as_slice()).unwrap();
    w.finish().unwrap();
    drop(w);
    store
}

fn policy() -> RetryPolicy {
    RetryPolicy {
        connect_timeout: TIMEOUT,
        read_timeout: TIMEOUT,
        write_timeout: TIMEOUT,
        ..RetryPolicy::default()
    }
}

/// Every request a stand-in server received, and how the connection
/// ended.
type Recording = (Vec<Request>, Result<(), WireError>);

/// A stand-in daemon for one connection: it answers the hello, then
/// records every request until the client hangs up.
fn recording_server() -> (SocketAddr, JoinHandle<Recording>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut received = Vec::new();
        let mut payload = Vec::new();
        let outcome = (|| {
            wire::read_hello(&mut reader)?;
            wire::write_hello(&mut writer)?;
            while let Some(req) = Request::read_from(&mut reader, &mut payload)? {
                received.push(req);
            }
            Ok(())
        })();
        (received, outcome)
    });
    (addr, handle)
}

fn assert_damaged_frame_error(err: &ClientError) {
    assert!(
        matches!(
            err,
            ClientError::Trace(TraceStoreError::Corrupt { frame, .. }) if *frame == DAMAGED as u64
        ),
        "expected Trace(Corrupt) on frame {DAMAGED}, got {err:?}"
    );
    assert!(!err.is_transient(), "a damaged store must not be retried");
}

/// The server saw exactly the frames before the damaged one, each as
/// one sequenced chunk of its records, and the connection ended cleanly
/// on a message boundary.
fn assert_only_intact_frames_arrived(received: &[Request], outcome: Result<(), WireError>) {
    if let Err(e) = outcome {
        panic!("the server saw a bad byte stream: {e}");
    }
    let trace = trace();
    let expected: Vec<&[Access]> = trace.as_slice().chunks(FRAME).take(DAMAGED).collect();
    assert_eq!(received.len(), expected.len(), "requests: {received:?}");
    for (i, (req, want)) in received.iter().zip(expected).enumerate() {
        match req {
            Request::SeqChunk {
                session,
                seq,
                records,
            } => {
                assert_eq!(
                    (*session, *seq, records.as_slice()),
                    (9, i as u64 + 1, want),
                    "frame {i}"
                );
            }
            other => panic!("frame {i}: unexpected request {other:?}"),
        }
    }
}

#[test]
fn client_stream_stops_at_a_damaged_count_before_sending_it() {
    let store = damaged_store();
    let (addr, server) = recording_server();
    let mut client = Client::connect_with(addr, TIMEOUT, TIMEOUT, TIMEOUT).unwrap();
    let mut reader = TraceReader::new(store.as_slice()).unwrap();
    let err = client.stream(9, &mut reader, WINDOW).unwrap_err();
    assert_damaged_frame_error(&err);
    // Hanging up flushes whatever the client still buffered.
    drop(client);
    let (received, outcome) = server.join().unwrap();
    assert_only_intact_frames_arrived(&received, outcome);
}

#[test]
fn resilient_stream_fails_fast_on_a_damaged_count_without_reconnecting() {
    let store = damaged_store();
    let (addr, server) = recording_server();
    let mut client = ResilientClient::new(addr.to_string(), policy());
    let mut reader = TraceReader::new(store.as_slice()).unwrap();
    let err = client.stream(9, &mut reader, WINDOW).unwrap_err();
    assert_damaged_frame_error(&err);
    assert_eq!(
        client.stats(),
        FaultStats::default(),
        "no retry of any kind"
    );
    drop(client);
    let (received, outcome) = server.join().unwrap();
    assert_only_intact_frames_arrived(&received, outcome);
}

/// A real daemon with one session that has already applied seq 1 — a
/// chunk of `FRAME + 1` records, so the count differs from the stream's
/// first frame. Returns the address, the session id, and the server.
fn session_with_one_chunk() -> (SocketAddr, u32, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    let mut client = Client::connect_with(addr, TIMEOUT, TIMEOUT, TIMEOUT).unwrap();
    let session = client
        .open(&OpenRequest {
            system: SystemConfig::small(),
            prefetch: PrefetchConfig::small(),
            predictor: Predictor::None,
            invalidations: None,
        })
        .unwrap();
    client
        .write_seq_chunk(session, 1, &trace().as_slice()[..FRAME + 1])
        .unwrap();
    assert_eq!(client.read_stats().unwrap().accesses_fed, FRAME as u64 + 1);
    (addr, session, handle)
}

fn assert_diverged(err: &ClientError) {
    assert!(
        matches!(
            err,
            ClientError::Diverged { seq: 1, sent, applied: a }
                if *sent == FRAME as u64 && *a == FRAME as u64 + 1
        ),
        "expected Diverged at seq 1, got {err:?}"
    );
    assert!(
        !err.is_transient(),
        "a diverged session must not be retried"
    );
}

fn shut_down(addr: SocketAddr, server: JoinHandle<std::io::Result<()>>) {
    Client::connect(addr).unwrap().shutdown_server().unwrap();
    server.join().unwrap().unwrap();
}

#[test]
fn client_stream_into_a_session_with_chunks_fails_instead_of_deduping() {
    let (addr, session, server) = session_with_one_chunk();
    let store = intact_store();
    let mut client = Client::connect_with(addr, TIMEOUT, TIMEOUT, TIMEOUT).unwrap();
    let mut reader = TraceReader::new(store.as_slice()).unwrap();
    assert_diverged(&client.stream(session, &mut reader, WINDOW).unwrap_err());
    drop(client);
    shut_down(addr, server);
}

#[test]
fn resilient_stream_into_a_session_with_chunks_fails_without_reconnecting() {
    let (addr, session, server) = session_with_one_chunk();
    let store = intact_store();
    let mut client = ResilientClient::new(addr.to_string(), policy());
    let mut reader = TraceReader::new(store.as_slice()).unwrap();
    assert_diverged(&client.stream(session, &mut reader, WINDOW).unwrap_err());
    assert_eq!(
        client.stats(),
        FaultStats::default(),
        "no retry of any kind"
    );
    drop(client);
    shut_down(addr, server);
}

/// A peer on another wire version answers the hello with its own, as
/// `stems-serve` does. The client must fail at once with the typed,
/// non-transient version error, not back off and reconnect as it would
/// after a torn connection.
#[test]
fn resilient_client_fails_fast_on_a_wire_version_mismatch() {
    use std::io::{Read, Write};
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut theirs = [0u8; wire::HELLO_BYTES];
        stream.read_exact(&mut theirs).unwrap();
        let mut ours = Vec::new();
        wire::encode_hello(&mut ours);
        ours[8..10].copy_from_slice(&3u16.to_le_bytes());
        stream.write_all(&ours).unwrap();
        // Hold the connection open until the client hangs up.
        let _ = stream.read_to_end(&mut Vec::new());
    });
    let mut client = ResilientClient::new(addr.to_string(), RetryPolicy::default());
    let err = client
        .open(&OpenRequest {
            system: SystemConfig::small(),
            prefetch: PrefetchConfig::small(),
            predictor: Predictor::None,
            invalidations: None,
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            ClientError::Wire(WireError::UnsupportedVersion { got: 3 })
        ),
        "expected UnsupportedVersion(3), got {err:?}"
    );
    assert!(
        !err.is_transient(),
        "a version mismatch must not be retried"
    );
    assert_eq!(client.stats(), FaultStats::default(), "no reconnects");
    drop(client);
    server.join().unwrap();
}
