//! Property tests for the session protocol and the live service:
//! arbitrary records survive the full client → TCP → server → session
//! round trip at any chunking, and hostile payloads fed to the typed
//! message decoders are rejected — never panics, never garbage.

use proptest::prelude::*;

use stems_client::Client;
use stems_core::protocol::{encode_chunk, encode_chunk_columns, encode_seq_chunk};
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
/// `Chunk` feeding session 7 two reads, whose inner 10 payload bytes
/// are the trace store spec's frame payload for the same records.
#[test]
fn chunk_worked_example_is_byte_exact() {
    let records = [
        access(0x400, 0x1000, false, false, 0),
        access(0x404, 0x1040, false, false, 0),
    ];
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    encode_chunk(&mut out, &mut scratch, 7, &records);
    let expected: &[u8] = &[
        0x02, // kind = Chunk
        0x0c, 0x00, 0x00, 0x00, // payload_len = 12
        0x07, // session = 7
        0x02, // count = 2
        0x80, 0x10, 0x08, // pc deltas
        0x80, 0x40, 0x80, 0x01, // addr deltas
        0x00, // flags: two reads, independent
        0x00, 0x00, // work: 0, 0
        0x50, 0x85, 0x31, 0x81, // CRC-32 (0x81318550) over the 17 bytes above
    ];
    assert_eq!(
        out, expected,
        "docs/WIRE_PROTOCOL.md worked example drifted"
    );
    // Forwarding the store frame's columns verbatim gives the same bytes.
    let mut forwarded = Vec::new();
    encode_chunk_columns(&mut forwarded, &mut scratch, 7, None, 2, &expected[7..17]);
    assert_eq!(forwarded, expected);

    // And it decodes back to the same request.
    let (kind, payload, n) = stems_types::wire::decode_message(&out).unwrap();
    assert_eq!(n, out.len());
    match Request::decode(kind, payload).unwrap() {
        Request::Chunk {
            session,
            records: decoded,
        } => {
            assert_eq!(session, 7);
            assert_eq!(decoded, records);
        }
        other => panic!("expected Chunk, decoded {other:?}"),
    }
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
        for piece in trace.as_slice().chunks(chunk) {
            let stats = client.send_chunk(session, piece).unwrap();
            prop_assert_eq!(stats.session, session);
        }
        let summary = client.close(session).unwrap();
        prop_assert!(client.shutdown_server().unwrap().is_empty());
        handle.join().unwrap().unwrap();

        prop_assert_eq!(summary.accesses_fed, trace.len() as u64);
        prop_assert_eq!(summary.counters, expected, "chunk={} predictor={}", chunk, predictor.name());
    }

    /// Forwarding a `TraceWriter` store's frames verbatim yields, byte
    /// for byte, the `Chunk` and `SeqChunk` messages that encoding the
    /// decoded records yields: the streaming clients' raw path cannot
    /// drift from the record encoders.
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
            let (count, columns) = raw.next_raw_frame().unwrap().unwrap();
            expected.clear();
            forwarded.clear();
            encode_chunk(&mut expected, &mut scratch, session, chunk);
            encode_chunk_columns(&mut forwarded, &mut scratch, session, None, count, columns);
            prop_assert_eq!(&forwarded, &expected);
            expected.clear();
            forwarded.clear();
            encode_seq_chunk(&mut expected, &mut scratch, session, seq, chunk);
            encode_chunk_columns(&mut forwarded, &mut scratch, session, Some(seq), count, columns);
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
