//! The traced run: a per-layer cost ledger, closure checks against the
//! end-to-end figures, and the tracing overhead of one workload.
//!
//! Each layer is timed around its crate's public call, over the whole
//! corpus, as the median of several repetitions. The engine layers are
//! interleaved (null predictor, STeMS, TMS+SMS in turn) so a slow moment
//! of the machine lands on all three rather than on one marginal cost.
//! The end-to-end figures the ledger must add up to are re-measured here
//! with short runs of `replay-stems` and `wire-null`, and the server's
//! per-chunk stages come from scrapes bracketing a short `wire-tenants`
//! run.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use stems_client::Client;
use stems_core::protocol::{encode_seq_chunk, Request};
use stems_core::{Counters, Predictor};
use stems_harness::runner::session_builder;
use stems_obs::{MetricsRegistry, SessionObs};
use stems_trace::store::{encode_records, DEFAULT_FRAME_RECORDS};
use stems_trace::{Trace, TraceReader, TraceWriter};
use stems_types::clock::MonotonicClock;
use stems_types::{crc, wire};
use stems_workloads::trace_file_name;

use crate::corpus::{Entry, SCALE, WORKLOADS};
use crate::daemon::{bucket_delta, Daemon, Scrape};
use crate::procfs::Proc;
use crate::spans::Spans;
use crate::stats;
use crate::workloads::{
    replay_pass, stream_pass, tenants_until, Ctx, Kind, Res, Served, SessionOut, TENANTS,
};

/// Repetitions of each codec probe.
const CODEC_REPS: usize = 5;
/// Repetitions of each engine probe.
const ENGINE_REPS: usize = 3;
/// Empty-chunk calls per repetition of the hook probe.
const HOOK_CALLS: u32 = 200_000;
/// Passes of the short `wire-null` run.
const STREAM_PASSES: usize = 4;
/// Length of each short `wire-tenants` run: long enough for 1000 round
/// trips, so that p99 has ten beyond it.
const TENANT_SECONDS: f64 = 15.0;

/// Closure tolerance for `replay-stems`: its blocking path is decode,
/// hierarchy and predictor, run back to back on one thread, so the
/// ledger should explain its time closely.
const REPLAY_TOLERANCE: (f64, f64) = (0.85, 1.15);
/// Closure tolerance for `wire-null`: the ledger has no row for socket
/// system calls, buffer copies or the per-chunk `Stats` replies, so it
/// explains less of the CPU.
const WIRE_TOLERANCE: (f64, f64) = (0.5, 1.1);

/// One printed metric.
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What the traced run reports.
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Whether every short run matched its oracle.
    pub correct: bool,
    /// Sessions and chunks sent in the short runs.
    pub attempted: u64,
    /// Deterministic counts for the ledger.
    pub counts: Vec<String>,
}

/// Median seconds of `reps` runs of `f`.
fn probe(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

fn frames(trace: &Trace) -> std::slice::Chunks<'_, stems_trace::Access> {
    trace.as_slice().chunks(DEFAULT_FRAME_RECORDS)
}

/// Runs `predictor` over every trace, frame by frame, one fresh session
/// per trace, returning the seconds taken and each session's output.
fn engine(ctx: &Ctx, traces: &[Trace], predictor: Predictor) -> (f64, Vec<SessionOut>) {
    let start = Instant::now();
    let outs = WORKLOADS
        .iter()
        .zip(traces)
        .map(|(&w, trace)| {
            let mut session = session_builder(w, predictor, &ctx.sys).build();
            for frame in frames(trace) {
                session.run_chunk(frame);
            }
            let counters = session.finalize();
            SessionOut {
                workload: w,
                fed: trace.len() as u64,
                chunks: frames(trace).len() as u64,
                counters,
                pst_probes: session.pst_probes(),
                recon: session.recon_stats(),
            }
        })
        .collect();
    (start.elapsed().as_secs_f64(), outs)
}

fn sum_counters(outs: &[SessionOut]) -> Counters {
    outs.iter().fold(Counters::default(), |mut a, o| {
        let c = &o.counters;
        a.covered += c.covered;
        a.uncovered += c.uncovered;
        a.fetches += c.fetches;
        a
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Checks a short run's sessions against the engine probe's, exactly.
fn matches(label: &str, got: &[SessionOut], want: &[SessionOut]) -> bool {
    let same = got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            SessionOut {
                chunks: w.chunks,
                ..g.clone()
            } == *w
        });
    if !same {
        eprintln!("gate: {label} differs from its oracle:\n  got  {got:?}\n  want {want:?}");
    }
    same
}

/// The traced run for `kind`.
pub fn traced(kind: Kind, ctx: &Ctx) -> Res<Traced> {
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };

    // --- workloads and trace: generate and write the corpus -----------
    let mut traces: Vec<Trace> = Vec::new();
    let gen = probe(ENGINE_REPS, || {
        traces = WORKLOADS
            .iter()
            .map(|w| w.generate_scaled(SCALE, ctx.seed))
            .collect()
    });
    let n: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let per_acc = |seconds: f64| seconds * 1e9 / n as f64;
    let mut stores: Vec<Vec<u8>> = Vec::new();
    let write = probe(ENGINE_REPS, || {
        stores = traces
            .iter()
            .map(|t| {
                let mut store = Vec::new();
                let mut writer = TraceWriter::new(&mut store).expect("in-memory store");
                writer
                    .write_accesses(t.as_slice())
                    .expect("in-memory store");
                writer.finish().expect("in-memory store");
                drop(writer);
                store
            })
            .collect()
    });
    let store_bytes: u64 = stores.iter().map(|s| s.len() as u64).sum();
    put("workloads.gen_ns_per_acc", per_acc(gen), "ns/acc");
    put("trace.write_ns_per_acc", per_acc(write), "ns/acc");
    put(
        "trace.bytes_per_acc",
        store_bytes as f64 / n as f64,
        "B/acc",
    );

    // --- codecs ----------------------------------------------------------
    let mut payloads: Vec<Vec<u8>> = Vec::new();
    let mut messages: Vec<Vec<u8>> = Vec::new();
    let mut scratch = Vec::new();
    for (seq, frame) in traces.iter().flat_map(frames).enumerate() {
        let mut payload = Vec::new();
        encode_records(frame, &mut payload);
        payloads.push(payload);
        let mut message = Vec::new();
        encode_seq_chunk(&mut message, &mut scratch, 1, seq as u64 + 1, frame);
        messages.push(message);
    }
    let crc = probe(CODEC_REPS, || {
        for p in &payloads {
            black_box(crc::crc32(black_box(p)));
        }
    });
    let decode = probe(CODEC_REPS, || {
        for store in &stores {
            let mut reader = TraceReader::new(store.as_slice()).expect("in-memory store");
            while let Some(chunk) = reader.next_chunk().expect("in-memory store") {
                black_box(chunk);
            }
        }
    });
    let mut out = Vec::new();
    let encode = probe(CODEC_REPS, || {
        for frame in traces.iter().flat_map(frames) {
            out.clear();
            encode_records(black_box(frame), &mut out);
            black_box(&out);
        }
    });
    let chunk_encode = probe(CODEC_REPS, || {
        for (seq, frame) in traces.iter().flat_map(frames).enumerate() {
            out.clear();
            encode_seq_chunk(&mut out, &mut scratch, 1, seq as u64 + 1, black_box(frame));
            black_box(&out);
        }
    });
    let chunk_decode = probe(CODEC_REPS, || {
        for msg in &messages {
            let (kind, payload, _) = wire::decode_message(black_box(msg)).expect("own message");
            black_box(Request::decode(kind, payload).expect("own message"));
        }
    });
    put("types.crc_ns_per_acc", per_acc(crc), "ns/acc");
    put("trace.decode_ns_per_acc", per_acc(decode), "ns/acc");
    put("trace.encode_ns_per_acc", per_acc(encode), "ns/acc");
    put(
        "protocol.chunk_encode_ns_per_acc",
        per_acc(chunk_encode),
        "ns/acc",
    );
    put(
        "protocol.chunk_decode_ns_per_acc",
        per_acc(chunk_decode),
        "ns/acc",
    );

    // The store files the short end-to-end runs read.
    let corpus: Vec<Entry> = WORKLOADS
        .iter()
        .zip(&traces)
        .zip(&stores)
        .map(|((&w, t), store)| {
            let path = ctx.work.join(trace_file_name(w));
            std::fs::write(&path, store)?;
            Ok(Entry {
                workload: w,
                path,
                accesses: t.len() as u64,
                frames: frames(t).len() as u64,
                bytes: store.len() as u64,
            })
        })
        .collect::<Res<_>>()?;
    let mut correct = true;
    let mut attempted = 0;
    let mut spans = Spans::default();
    let mut overhead = None;

    // --- memsim and core: the engine, interleaved with replay-stems passes
    // (whose blocking path is decode + hierarchy + STeMS), so the closure
    // compares figures taken over the same stretch of time.
    engine(ctx, &traces, Predictor::None);
    let mut t: [Vec<f64>; 5] = Default::default();
    let mut outs = Vec::new();
    for _ in 0..ENGINE_REPS {
        let none = engine(ctx, &traces, Predictor::None);
        let stems = engine(ctx, &traces, Predictor::Stems);
        let naive = engine(ctx, &traces, Predictor::Naive);
        let replay = replay_pass(ctx, &corpus, None)?;
        if kind == Kind::ReplayStems {
            let traced = replay_pass(ctx, &corpus, Some(&mut spans))?;
            correct &= matches("replay-stems traced", &traced.sessions, &stems.1);
            attempted += traced.attempted;
            t[4].push(traced.seconds);
        }
        correct &= matches("replay-stems", &replay.sessions, &stems.1);
        attempted += replay.attempted;
        for (times, secs) in t.iter_mut().zip([none.0, stems.0, naive.0, replay.seconds]) {
            times.push(secs);
        }
        outs = vec![none.1, stems.1, naive.1];
    }
    drop(traces);
    let [none_out, stems_out, naive_out]: [Vec<SessionOut>; 3] =
        outs.try_into().expect("three engine runs");
    let floor = per_acc(stats::median(&t[0]));
    let stems_marginal = per_acc(stats::median(&t[1])) - floor;
    put("memsim.hierarchy_ns_per_acc", floor, "ns/acc");
    put("core.stems_ns_per_acc", stems_marginal, "ns/acc");
    put(
        "core.tms_sms_ns_per_acc",
        per_acc(stats::median(&t[2])) - floor,
        "ns/acc",
    );
    let replay_ns = per_acc(stats::median(&t[3]));
    let replay_sum = per_acc(decode) + floor + stems_marginal;
    put("closure.replay-stems", replay_sum / replay_ns, "ratio");
    put(
        "closure.replay-stems.unattributed_ns_per_acc",
        replay_ns - replay_sum,
        "ns/acc",
    );
    if kind == Kind::ReplayStems {
        overhead = Some(stats::median(&t[4]) / stats::median(&t[3]));
    }

    let probes: u64 = stems_out.iter().filter_map(|o| o.pst_probes).sum();
    let (mut attempts, mut exact, mut dropped) = (0, 0, 0);
    for r in stems_out.iter().filter_map(|o| o.recon) {
        attempts += r.attempts();
        exact += r.exact;
        dropped += r.dropped_conflict + r.dropped_window;
    }
    put(
        "core.stems.pst_probes_per_acc",
        ratio(probes, n),
        "probes/acc",
    );
    put(
        "core.stems.recon_exact_frac",
        ratio(exact, attempts),
        "ratio",
    );
    put(
        "core.stems.recon_dropped_frac",
        ratio(dropped, attempts),
        "ratio",
    );
    for (label, outs) in [("stems", &stems_out), ("tms_sms", &naive_out)] {
        let c = sum_counters(outs);
        let coverage = ratio(c.covered, c.covered + c.uncovered);
        put(&format!("core.{label}.coverage"), coverage, "ratio");
        put(
            &format!("core.{label}.accuracy"),
            ratio(c.covered, c.fetches),
            "ratio",
        );
    }

    // --- obs: the chunk hook, on empty chunks so the engine adds nothing ----
    let registry = MetricsRegistry::new();
    let hook = SessionObs::builder(Arc::new(MonotonicClock::new()))
        .registry(&registry)
        .build();
    let mut plain = session_builder(WORKLOADS[0], Predictor::None, &ctx.sys).build();
    let mut hooked = session_builder(WORKLOADS[0], Predictor::None, &ctx.sys)
        .obs(hook)
        .build();
    let (mut plain_t, mut hooked_t) = (Vec::new(), Vec::new());
    for _ in 0..CODEC_REPS {
        plain_t.push(probe(1, || {
            (0..HOOK_CALLS).for_each(|_| plain.run_chunk(black_box(&[])))
        }));
        hooked_t.push(probe(1, || {
            (0..HOOK_CALLS).for_each(|_| hooked.run_chunk(black_box(&[])))
        }));
    }
    let hook_ns = (stats::median(&hooked_t) - stats::median(&plain_t)) * 1e9 / HOOK_CALLS as f64;
    put("obs.hook_ns_per_chunk", hook_ns, "ns/chunk");

    // wire-null: client and server CPU against the codec and engine rows.
    let daemon = Daemon::spawn(&ctx.serve_bin, &ctx.work, 0)?;
    let clients = (0..TENANTS.len())
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut served = Served {
        corpus: corpus.clone(),
        daemon,
        clients,
    };
    let server = served.daemon.proc();
    stream_pass(ctx, &mut served.clients[0], &corpus, None)?;
    let (mut untraced, mut traced_t, mut client_cpu, mut server_cpu) = (vec![], vec![], 0, 0);
    for _ in 0..STREAM_PASSES {
        let (client0, server0) = (Proc::Current.cpu_nanos()?, server.cpu_nanos()?);
        let pass = stream_pass(ctx, &mut served.clients[0], &corpus, None)?;
        client_cpu += Proc::Current.cpu_nanos()? - client0;
        server_cpu += server.cpu_nanos()? - server0;
        correct &= matches("wire-null", &pass.sessions, &none_out);
        attempted += pass.attempted;
        untraced.push(pass.seconds);
        if kind == Kind::WireNull {
            let traced = stream_pass(ctx, &mut served.clients[0], &corpus, Some(&mut spans))?;
            correct &= matches("wire-null traced", &traced.sessions, &none_out);
            attempted += traced.attempted;
            traced_t.push(traced.seconds);
        }
    }
    if kind == Kind::WireNull {
        overhead = Some(stats::median(&traced_t) / stats::median(&untraced));
    }
    let streamed = (n * STREAM_PASSES as u64) as f64;
    let client_ns = client_cpu as f64 / streamed;
    let server_ns = server_cpu as f64 / streamed;
    let wire_sum = per_acc(decode + chunk_encode + chunk_decode) + floor;
    put("client.cpu_ns_per_acc", client_ns, "ns/acc");
    put("server.cpu_ns_per_acc", server_ns, "ns/acc");
    put(
        "closure.wire-null",
        wire_sum / (client_ns + server_ns),
        "ratio",
    );
    put(
        "closure.wire-null.unattributed_ns_per_acc",
        client_ns + server_ns - wire_sum,
        "ns/acc",
    );

    // wire-tenants: the server's per-chunk stages from scrapes.
    let tenants_oracle = TENANTS.map(|(w, predictor)| {
        let outs = match predictor {
            Predictor::Stems => &stems_out,
            Predictor::Naive => &naive_out,
            _ => &none_out,
        };
        outs.iter()
            .filter(|o| o.workload == w)
            .cloned()
            .collect::<Vec<_>>()
    });
    let mut tenants = |served: &mut Served, traced: bool| -> Res<(f64, Vec<f64>, Scrape, Scrape)> {
        let before = Scrape::parse(&served.clients[0].metrics(false)?.exposition);
        let deadline = Duration::from_secs_f64(TENANT_SECONDS);
        let per_tenant = tenants_until(ctx, &mut served.clients, &corpus, deadline, traced)?;
        let after = Scrape::parse(&served.clients[0].metrics(false)?.exposition);
        let mut rate = 0.0;
        let mut rtts = Vec::new();
        for ((passes, tenant_spans), oracle) in per_tenant.into_iter().zip(&tenants_oracle) {
            let seconds: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
            rate += passes[0].sessions[0].fed as f64 / stats::median(&seconds);
            for p in &passes {
                correct &= matches("wire-tenants", &p.sessions, oracle);
                attempted += p.attempted;
                rtts.extend(&p.chunks);
            }
            if traced {
                spans.absorb(tenant_spans);
            }
        }
        Ok((rate, rtts, before, after))
    };
    let (rate, rtts, before, after) = tenants(&mut served, false)?;
    if kind == Kind::WireTenants {
        overhead = Some(rate / tenants(&mut served, true)?.0);
    }
    let service = bucket_delta(
        &before.buckets("stems_chunk_nanos"),
        &after.buckets("stems_chunk_nanos"),
    );
    let service_ms = |q| stats::bucket_quantile(&service, q).unwrap_or(0.0) / 1e6;
    let chunks = after.value("stems_chunks_total") - before.value("stems_chunks_total");
    let busy = after.value("stems_busy_total") - before.value("stems_busy_total");
    put("server.chunk_service_ms_p50", service_ms(0.5), "ms");
    put("server.chunk_service_ms_p99", service_ms(0.99), "ms");
    put(
        "server.busy_per_chunk",
        busy / chunks.max(1.0),
        "busy/chunk",
    );
    let rtt_p50 = stats::percentile(&rtts, 0.5) * 1e3;
    put("client.overhead_ms_p50", rtt_p50 - service_ms(0.5), "ms");
    eprintln!(
        "wire-tenants round trips: {} samples, {} beyond p99",
        rtts.len(),
        stats::beyond(rtts.len(), 0.99)
    );
    put(
        "client.rtt_ms_p99",
        stats::percentile(&rtts, 0.99) * 1e3,
        "ms",
    );
    drop(served.clients);
    served.daemon.shutdown()?;

    put(
        "bench.trace_overhead_frac",
        overhead.expect("one workload traced"),
        "ratio",
    );
    for (name, (count, secs)) in spans.self_times() {
        eprintln!("span {name}: {count} spans, {:.1} ms self time", secs * 1e3);
    }
    for (name, tolerance, value) in [
        ("replay-stems", REPLAY_TOLERANCE, replay_sum / replay_ns),
        (
            "wire-null",
            WIRE_TOLERANCE,
            wire_sum / (client_ns + server_ns),
        ),
    ] {
        let verdict = if (tolerance.0..=tolerance.1).contains(&value) {
            "within"
        } else {
            "FLAGGED: outside"
        };
        eprintln!(
            "closure {name}: ratio {value:.3}, {verdict} [{}, {}]",
            tolerance.0, tolerance.1
        );
    }

    let mut counts = vec![format!("trace.bytes={store_bytes}")];
    for (label, outs) in [
        ("none", &none_out),
        ("stems", &stems_out),
        ("tms_sms", &naive_out),
    ] {
        for o in outs {
            counts.extend(o.count_lines(&format!("{label}.{}", o.workload.name())));
        }
    }
    Ok(Traced {
        metrics: m,
        correct,
        attempted,
        counts,
    })
}
