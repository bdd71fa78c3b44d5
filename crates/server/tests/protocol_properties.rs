//! Property tests for the session protocol and the live service:
//! arbitrary records survive the full client → TCP → server → session
//! round trip at any chunking, and hostile payloads fed to the typed
//! message decoders are rejected — never panics, never garbage.

use proptest::prelude::*;

use stems_client::Client;
use stems_core::protocol::{encode_chunk_columns, encode_raw_frame, encode_seq_chunk};
use stems_core::protocol::{OpenRequest, Request, Response};
use stems_core::{Predictor, PrefetchConfig, Session};
use stems_memsim::SystemConfig;
use stems_server::{Server, ServerConfig};
use stems_trace::{Access, AccessKind, Dependence, Trace, TraceReader, TraceWriter};
use stems_types::{Addr, Pc};

fn access(pc: u64, addr: u64, write: bool, dep: bool, work: u16) -> Access {
    Access {
        pc: Pc::new(pc),
        addr: Addr::new(addr),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        dep: if dep {
            Dependence::OnPrevAccess
        } else {
            Dependence::Independent
        },
        work_before: work,
    }
}

fn open_request(predictor: Predictor) -> OpenRequest {
    OpenRequest {
        system: SystemConfig::small(),
        prefetch: PrefetchConfig::small(),
        predictor,
        invalidations: Some((0.01, 42)),
    }
}

/// Pins the worked example in `docs/WIRE_PROTOCOL.md` byte for byte: a
/// `SeqChunk` feeding session 7 its first chunk of two reads, whose
/// inner 10 payload bytes are the trace store spec's frame payload for
/// the same records.
#[test]
fn chunk_worked_example_is_byte_exact() {
    const CRC: u32 = 0xD257_4480;
    let records = [
        access(0x400, 0x1000, false, false, 0),
        access(0x404, 0x1040, false, false, 0),
    ];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    encode_seq_chunk(&mut out, &mut scratch, 7, 1, &records);
    let body: &[u8] = &[
        0x06, // kind = SeqChunk
        0x0d, 0x00, 0x00, 0x00, // payload_len = 13
        0x07, // session = 7
        0x01, // seq = 1
        0x02, // count = 2
        0x80, 0x10, 0x08, // pc deltas
        0x80, 0x40, 0x80, 0x01, // addr deltas
        0x00, // flags: two reads, independent
        0x00, 0x00, // work: 0, 0
    ];
    let crc = stems_types::crc::crc32(body);
    assert_eq!(crc, CRC, "the documented CRC-32 over the 18 bytes");
    let expected = [body, &crc.to_le_bytes()].concat();
    assert_eq!(
        out, expected,
        "docs/WIRE_PROTOCOL.md worked example drifted"
    );
    // Forwarding the store frame's columns verbatim gives the same bytes.
    let mut forwarded = Vec::new();
    encode_chunk_columns(&mut forwarded, &mut scratch, 7, 1, 2, &body[8..18]);
    assert_eq!(forwarded, expected);

    // And it decodes back to the same request.
    let (kind, payload, n) = stems_types::wire::decode_message(&out).unwrap();
    assert_eq!(n, out.len());
    match Request::decode(kind, payload).unwrap() {
        Request::SeqChunk {
            session,
            seq,
            records: decoded,
        } => {
            assert_eq!((session, seq), (7, 1));
            assert_eq!(decoded, records);
        }
        other => panic!("expected SeqChunk, decoded {other:?}"),
    }
}

/// A daemon on an ephemeral port, one client connection to it, and a
/// session opened on that connection.
fn server_with_session() -> (
    std::net::SocketAddr,
    std::thread::JoinHandle<std::io::Result<()>>,
    Client,
    u32,
) {
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).unwrap();
    let session = client.open(&open_request(Predictor::None)).unwrap();
    (addr, handle, client, session)
}

fn scraped(client: &mut Client, name: &str) -> u64 {
    let exposition = client.metrics(false).unwrap().exposition;
    exposition
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("{name} missing from the scrape"))
}

/// Wire version 1 is retired: the daemon answers a version-1 hello
/// with its own version-2 hello, so the peer can tell a version
/// mismatch from a dropped connection, then closes without serving it,
/// and counts the failed hello.
#[test]
fn version_1_hello_is_refused() {
    use std::io::{Read, Write};
    let (addr, handle, mut client, _) = server_with_session();
    let mut hello = Vec::new();
    stems_types::wire::encode_hello(&mut hello);
    hello[8..10].copy_from_slice(&1u16.to_le_bytes());
    let mut v1 = std::net::TcpStream::connect(addr).unwrap();
    v1.write_all(&hello).unwrap();
    let mut reply = Vec::new();
    v1.read_to_end(&mut reply).unwrap();
    let mut v2_hello = Vec::new();
    stems_types::wire::encode_hello(&mut v2_hello);
    assert_eq!(
        reply, v2_hello,
        "a v1 hello must get exactly the v2 hello, then EOF"
    );
    assert_eq!(scraped(&mut client, "stems_hello_failures_total"), 1);
    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

/// A correctly framed message of the retired unsequenced chunk kind
/// (0x02) is a framing error: the daemon answers with a typed `Error`,
/// closes the connection, and leaves the addressed session untouched.
#[test]
fn retired_chunk_kind_is_a_framing_error_that_touches_no_session() {
    let (addr, handle, mut client, session) = server_with_session();
    // Wire version 1's `Chunk` layout: session, count, columns.
    let mut payload = Vec::new();
    stems_types::varint::write_u64(&mut payload, session as u64);
    stems_types::varint::write_u64(&mut payload, 1);
    stems_trace::store::encode_records(&[access(0x400, 0x1000, false, false, 0)], &mut payload);
    let mut message = Vec::new();
    stems_types::wire::encode_message(&mut message, 0x02, &payload);

    let stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    stems_types::wire::write_hello(&mut writer).unwrap();
    std::io::Write::write_all(&mut writer, &message).unwrap();
    stems_types::wire::read_hello(&mut reader).unwrap();
    let mut buf = Vec::new();
    match Response::read_from(&mut reader, &mut buf).unwrap() {
        Some(Response::Error {
            session: None,
            message,
        }) => {
            assert!(
                message.starts_with(stems_core::protocol::FRAMING_ERROR_PREFIX)
                    && message.contains("0x02"),
                "{message}"
            );
        }
        other => panic!("expected a framing Error, got {other:?}"),
    }
    assert!(
        Response::read_from(&mut reader, &mut buf)
            .unwrap()
            .is_none(),
        "the connection stays open after a framing error"
    );

    assert_eq!(scraped(&mut client, "stems_chunks_total"), 0);
    let summary = client.close(session).unwrap();
    assert_eq!(
        summary.accesses_fed, 0,
        "the retired chunk reached the session"
    );
    client.shutdown_server().unwrap();
    handle.join().unwrap().unwrap();
}

proptest! {
    /// Any record sequence, delivered in chunks of any size over a real
    /// loopback connection, finalizes to exactly the counters a local
    /// session produces from the same records — chunk boundaries are
    /// invisible to the simulation.
    #[test]
    fn loopback_replay_is_chunking_invariant(
        records in proptest::collection::vec(
            (any::<u64>(), 0u64..(1 << 20), any::<bool>(), any::<bool>(), any::<u16>()),
            1..120,
        ),
        chunk in 1usize..48,
        predictor_ix in 0usize..6,
    ) {
        let trace: Trace = records
            .iter()
            .map(|&(pc, addr, w, d, work)| access(pc, addr, w, d, work))
            .collect();
        let predictor = Predictor::all()[predictor_ix % Predictor::all().len()];
        let open = open_request(predictor);

        // Local oracle.
        let mut local = Session::builder(&open.system)
            .prefetch(&open.prefetch)
            .predictor(open.predictor)
            .invalidations(0.01, 42)
            .build();
        local.run_chunk(trace.as_slice());
        let expected = local.finalize();

        // Remote run, chunked at `chunk` records per message.
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).unwrap();
        let session = client.open(&open).unwrap();
        for (seq, piece) in (1..).zip(trace.as_slice().chunks(chunk)) {
            client.write_seq_chunk(session, seq, piece).unwrap();
            let stats = client.read_stats().unwrap();
            prop_assert_eq!(stats.session, session);
        }
        let summary = client.close(session).unwrap();
        prop_assert!(client.shutdown_server().unwrap().is_empty());
        handle.join().unwrap().unwrap();

        prop_assert_eq!(summary.accesses_fed, trace.len() as u64);
        prop_assert_eq!(summary.counters, expected, "chunk={} predictor={}", chunk, predictor.name());
    }

    /// Forwarding a `TraceWriter` store's frames verbatim yields, byte
    /// for byte, the `SeqChunk` messages that encoding the decoded
    /// records yields: the streaming clients' raw path, whose message
    /// CRC is combined from the stored frame CRC, cannot drift from the
    /// record encoders.
    #[test]
    fn raw_forwarded_chunks_match_the_record_encoders(
        records in proptest::collection::vec(
            (any::<u64>(), any::<u64>(), any::<bool>(), any::<bool>(), any::<u16>()),
            0..200,
        ),
        capacity in 1usize..48,
        session in any::<u32>(),
        first_seq in any::<u64>(),
    ) {
        let trace: Trace = records
            .iter()
            .map(|&(pc, addr, w, d, work)| access(pc, addr, w, d, work))
            .collect();
        let mut store = Vec::new();
        let mut writer = TraceWriter::new(&mut store).unwrap().with_frame_capacity(capacity);
        writer.write_accesses(trace.as_slice()).unwrap();
        writer.finish().unwrap();
        drop(writer);

        let mut decoded = TraceReader::new(store.as_slice()).unwrap();
        let mut raw = TraceReader::new(store.as_slice()).unwrap();
        let (mut scratch, mut expected, mut forwarded) = (Vec::new(), Vec::new(), Vec::new());
        let mut seq = first_seq;
        while let Some(chunk) = decoded.next_chunk().unwrap() {
            let frame = raw.next_raw_frame().unwrap().unwrap();
            expected.clear();
            forwarded.clear();
            encode_seq_chunk(&mut expected, &mut scratch, session, seq, chunk);
            encode_raw_frame(&mut forwarded, session, seq, &frame);
            prop_assert_eq!(&forwarded, &expected);
            forwarded.clear();
            encode_chunk_columns(&mut forwarded, &mut scratch, session, seq, frame.count, frame.columns);
            prop_assert_eq!(&forwarded, &expected);
            seq = seq.wrapping_add(1);
        }
        prop_assert!(raw.next_raw_frame().unwrap().is_none());
    }

    /// Random bytes under any defined kind never panic the typed
    /// decoders: they decode to a valid message or a typed `WireError`.
    #[test]
    fn random_payloads_never_panic_typed_decoders(
        kind in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let _ = Request::decode(kind, &payload);
        let _ = Response::decode(kind, &payload);
    }

    /// Corrupting a valid encoded request — any single byte — either
    /// still decodes (the flip landed in a don't-care value like an
    /// address bit) or reports a typed error. Never a panic. The wire
    /// CRC normally screens these out; this pins the defense in depth
    /// when the payload itself is hostile.
    #[test]
    fn flipped_request_payloads_never_panic(pos in 0usize..4096, bit in 0u32..8) {
        let open = open_request(Predictor::Stems);
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let req = Request::Open(Box::new(open));
        req.encode(&mut out, &mut scratch);
        let pos = pos % out.len();
        out[pos] ^= 1 << bit;
        let _ = Request::decode(stems_core::protocol::KIND_OPEN, &out);
    }
}
