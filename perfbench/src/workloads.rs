//! The three closed-loop workloads and their correctness gate.
//!
//! Every workload follows the same shape: set up several times and keep
//! the last set-up (the median of the set-up times is `setup_s`), run one
//! untimed warm-up pass, then run timed passes over the corpus until the
//! time budget is spent and the chunk sample supports a p99, and finally
//! check every session's counters against an in-process oracle, untimed.

use std::error::Error;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use stems_client::Client;
use stems_core::protocol::SessionSummary;
use stems_core::stems::ReconStats;
use stems_core::{Counters, Predictor, Session};
use stems_harness::runner::{remote_open_request, session_builder};
use stems_memsim::SystemConfig;
use stems_trace::TraceReader;
use stems_workloads::Workload;

use crate::corpus::{self, Entry, FrameClock, SCALE};
use crate::daemon::Daemon;
use crate::procfs::Proc;
use crate::spans::{self, Spans};
use crate::stats;

/// Boxed error for the benchmark's fallible steps.
pub type Res<T> = Result<T, Box<dyn Error + Send + Sync>>;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Chunks kept in flight by the bulk stream (`tracegen replay --remote`'s
/// default window).
pub const STREAM_WINDOW: usize = 4;
/// The tail percentile a run collects enough chunks for. It is printed
/// with its sample count but not gated (see `README.md`).
pub const TAIL: f64 = 0.99;

/// The workloads, by the names `--workload` takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process `Session::replay` of the store files through STeMS.
    ReplayStems,
    /// `Client::stream` of the corpus through a null-predictor daemon session.
    WireNull,
    /// Two tenants sending small sequenced chunks at window 1.
    WireTenants,
}

impl Kind {
    /// Every workload `--workload` accepts.
    pub const ALL: [Kind; 3] = [Kind::ReplayStems, Kind::WireNull, Kind::WireTenants];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayStems => "replay-stems",
            Kind::WireNull => "wire-null",
            Kind::WireTenants => "wire-tenants",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Everything a run needs to know.
pub struct Ctx {
    /// Corpus seed.
    pub seed: u64,
    /// Timed-phase budget.
    pub seconds: f64,
    /// Per-run scratch directory (removed at exit).
    pub work: PathBuf,
    /// The `stems-serve` binary.
    pub serve_bin: PathBuf,
    /// The cache hierarchy for the corpus scale.
    pub sys: SystemConfig,
}

/// What one session produced: the values the gate compares.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionOut {
    /// The trace it ran.
    pub workload: Workload,
    /// Records fed.
    pub fed: u64,
    /// Chunks sent or replayed.
    pub chunks: u64,
    /// Final counters.
    pub counters: Counters,
    /// PST probes, for STeMS.
    pub pst_probes: Option<u64>,
    /// Placement statistics, for STeMS.
    pub recon: Option<ReconStats>,
}

impl SessionOut {
    fn from_summary(workload: Workload, chunks: u64, s: &SessionSummary) -> SessionOut {
        SessionOut {
            workload,
            fed: s.accesses_fed,
            chunks,
            counters: s.counters,
            pst_probes: s.pst_probes,
            recon: s.recon,
        }
    }

    fn from_session(workload: Workload, fed: u64, chunks: u64, s: &mut Session) -> SessionOut {
        SessionOut {
            workload,
            fed,
            chunks,
            counters: s.finalize(),
            pst_probes: s.pst_probes(),
            recon: s.recon_stats(),
        }
    }

    /// The deterministic counts, as `name=value` lines for the ledger.
    pub fn count_lines(&self, prefix: &str) -> Vec<String> {
        let c = &self.counters;
        let mut lines = vec![
            format!("{prefix}.fed={}", self.fed),
            format!("{prefix}.chunks={}", self.chunks),
            format!("{prefix}.counters={c:?}"),
        ];
        if let Some(p) = self.pst_probes {
            lines.push(format!("{prefix}.pst_probes={p}"));
        }
        if let Some(r) = self.recon {
            lines.push(format!("{prefix}.recon={r:?}"));
        }
        lines
    }
}

/// One timed pass.
pub(crate) struct Pass {
    pub seconds: f64,
    /// Each chunk's latency in seconds.
    pub chunks: Vec<f64>,
    pub sessions: Vec<SessionOut>,
    pub attempted: u64,
}

/// The measured result of a run's timed phase.
pub struct Outcome {
    /// Median set-up time.
    pub setup_s: f64,
    /// Accesses per second over the median pass.
    pub acc_per_s: f64,
    /// Client plus server CPU per access over the timed phase.
    pub cpu_ns_per_acc: f64,
    /// Peak RSS of the replaying or serving process.
    pub peak_rss_mb: f64,
    /// Every timed chunk's latency in seconds.
    pub chunk_seconds: Vec<f64>,
    /// Sessions opened plus chunks sent in the timed phase.
    pub attempted: u64,
    /// Accesses in the timed phase.
    pub accesses: u64,
    /// Timed pass times, per closed loop (one loop per tenant).
    pub pass_seconds: Vec<Vec<f64>>,
    /// Whether every session matched its oracle and every pass matched
    /// the first.
    pub correct: bool,
    /// The deterministic counts of one pass, plus the corpus sizes.
    pub counts: Vec<String>,
}

/// Runs one workload untraced.
pub fn run(kind: Kind, ctx: &Ctx) -> Res<Outcome> {
    match kind {
        Kind::ReplayStems => replay_stems(ctx),
        Kind::WireNull => wire_null(ctx),
        Kind::WireTenants => wire_tenants(ctx),
    }
}

/// Repeats `once` [`SETUP_REPS`] times, keeping the last result; earlier
/// results are dropped (a dropped daemon is killed and reaped).
fn setup<T>(ctx: &Ctx, mut once: impl FnMut(&Ctx, usize) -> Res<T>) -> Res<(T, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        last = Some(once(ctx, rep)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&times)))
}

/// Runs passes until `seconds` have passed and the chunk latencies
/// support a p99, or until twice the budget.
fn timed_passes(seconds: f64, mut pass: impl FnMut() -> Res<Pass>) -> Res<Vec<Pass>> {
    let needed = stats::samples_needed(TAIL);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(pass()?);
        let elapsed = start.elapsed().as_secs_f64();
        let chunks: usize = passes.iter().map(|p| p.chunks.len()).sum();
        if elapsed >= 2.0 * seconds || (elapsed >= seconds && chunks >= needed && passes.len() >= 3)
        {
            return Ok(passes);
        }
    }
}

/// Compares every pass with the first and the first with `oracle`,
/// printing each mismatch.
fn gate(passes: &[Pass], oracle: &[SessionOut]) -> bool {
    let mut ok = passes[0].sessions.len() == oracle.len();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.sessions != passes[0].sessions {
            eprintln!("gate: pass {i} differs from pass 0 (nondeterminism)");
            ok = false;
        }
    }
    for (got, want) in passes[0].sessions.iter().zip(oracle) {
        // The oracle's chunking is its own; everything else must match.
        let got = SessionOut {
            chunks: want.chunks,
            ..got.clone()
        };
        if &got != want {
            eprintln!(
                "gate: {} differs from its oracle:\n  got  {got:?}\n  want {want:?}",
                want.workload.name()
            );
            ok = false;
        }
    }
    ok
}

fn corpus_counts(corpus: &[Entry]) -> Vec<String> {
    corpus
        .iter()
        .flat_map(|e| {
            let w = e.workload.name();
            [
                format!("corpus.{w}.accesses={}", e.accesses),
                format!("corpus.{w}.frames={}", e.frames),
                format!("corpus.{w}.bytes={}", e.bytes),
            ]
        })
        .collect()
}

/// One closed loop's timed passes and the oracle its sessions must match.
struct Loop {
    passes: Vec<Pass>,
    oracle: Vec<SessionOut>,
}

/// Gates every loop and reduces the passes to the end-to-end figures.
/// `acc_per_s` sums each loop's records per pass over its median pass.
fn outcome(
    setup_s: f64,
    loops: Vec<Loop>,
    cpu: (u64, u64),
    peak_rss_kib: u64,
    corpus: &[Entry],
) -> Outcome {
    let mut out = Outcome {
        setup_s,
        acc_per_s: 0.0,
        cpu_ns_per_acc: 0.0,
        peak_rss_mb: peak_rss_kib as f64 / 1024.0,
        chunk_seconds: Vec::new(),
        attempted: 0,
        accesses: 0,
        pass_seconds: Vec::new(),
        correct: true,
        counts: corpus_counts(corpus),
    };
    for (l, lp) in loops.iter().enumerate() {
        out.correct &= gate(&lp.passes, &lp.oracle);
        let per_pass: u64 = lp.passes[0].sessions.iter().map(|s| s.fed).sum();
        let seconds: Vec<f64> = lp.passes.iter().map(|p| p.seconds).collect();
        out.acc_per_s += per_pass as f64 / stats::median(&seconds);
        out.accesses += per_pass * lp.passes.len() as u64;
        out.pass_seconds.push(seconds);
        for p in &lp.passes {
            out.chunk_seconds.extend(&p.chunks);
            out.attempted += p.attempted;
        }
        for (i, s) in lp.passes[0].sessions.iter().enumerate() {
            out.counts
                .extend(s.count_lines(&format!("loop{l}.session{i}.{}", s.workload.name())));
        }
    }
    out.cpu_ns_per_acc = (cpu.0 + cpu.1) as f64 / out.accesses as f64;
    out
}

/// Resets the peak RSS of `proc`, noting when the kernel refuses (the
/// reading then covers the process's whole life).
fn reset_peak(proc: Proc) {
    if let Err(e) = proc.reset_peak_rss() {
        eprintln!("note: cannot reset peak RSS ({e}); peak_rss_mb covers the whole process");
    }
}

/// Records one span per store frame `clock` saw, when tracing. The
/// frames were read inside a library call (`Session::replay` or
/// `Client::stream`), so the spans come from the clock's marks rather
/// than from wrapping calls.
fn frame_spans<R: Read>(spans: &mut Option<&mut Spans>, name: &'static str, clock: &FrameClock<R>) {
    if let Some(spans) = spans.as_deref_mut() {
        for (start, end) in clock.frame_intervals() {
            spans.record(name, start, end);
        }
    }
}

// --- replay-stems ----------------------------------------------------

/// One pass of `replay-stems`. Traced, each store frame gets a span.
pub(crate) fn replay_pass(ctx: &Ctx, corpus: &[Entry], mut spans: Option<&mut Spans>) -> Res<Pass> {
    let start = Instant::now();
    let pass = spans::begin(&mut spans, "pass");
    let mut chunks = Vec::new();
    let mut sessions = Vec::new();
    for e in corpus {
        let mut clock = corpus::open_timed(e)?;
        let mut reader = TraceReader::new(&mut clock)?;
        let mut session = session_builder(e.workload, Predictor::Stems, &ctx.sys).build();
        let fed = session.replay(&mut reader)?;
        let frames = reader.frames_read();
        drop(reader);
        frame_spans(&mut spans, "replay.frame", &clock);
        chunks.extend(clock.frame_seconds());
        sessions.push(SessionOut::from_session(
            e.workload,
            fed,
            frames,
            &mut session,
        ));
    }
    spans::end(&mut spans, pass);
    Ok(Pass {
        seconds: start.elapsed().as_secs_f64(),
        chunks,
        sessions,
        attempted: corpus.len() as u64,
    })
}

fn replay_stems(ctx: &Ctx) -> Res<Outcome> {
    let (corpus, setup_s) = setup(ctx, |ctx, _| Ok(corpus::capture(&ctx.work, ctx.seed)?))?;
    replay_pass(ctx, &corpus, None)?;
    reset_peak(Proc::Current);
    let cpu0 = Proc::Current.cpu_nanos()?;
    let passes = timed_passes(ctx.seconds, || replay_pass(ctx, &corpus, None))?;
    let cpu = Proc::Current.cpu_nanos()? - cpu0;
    let peak = Proc::Current.peak_rss_kib()?;
    let oracle: Vec<SessionOut> = corpus
        .iter()
        .map(|e| {
            let trace = e.workload.generate_scaled(SCALE, ctx.seed);
            let mut session = session_builder(e.workload, Predictor::Stems, &ctx.sys).build();
            session.run_chunk(trace.as_slice());
            SessionOut::from_session(e.workload, trace.len() as u64, 1, &mut session)
        })
        .collect();
    let loops = vec![Loop { passes, oracle }];
    Ok(outcome(setup_s, loops, (cpu, 0), peak, &corpus))
}

// --- the daemon workloads ---------------------------------------------

/// A corpus, a daemon, and connected clients: the wire workloads' set-up.
pub(crate) struct Served {
    pub corpus: Vec<Entry>,
    pub daemon: Daemon,
    pub clients: Vec<Client>,
}

fn serve(ctx: &Ctx, rep: usize, clients: usize) -> Res<Served> {
    let corpus = corpus::capture(&ctx.work, ctx.seed)?;
    let daemon = Daemon::spawn(&ctx.serve_bin, &ctx.work, rep)?;
    let clients = (0..clients)
        .map(|_| Client::connect(daemon.addr))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Served {
        corpus,
        daemon,
        clients,
    })
}

/// The oracle for a daemon session: the same store replayed locally.
fn local_replay(ctx: &Ctx, e: &Entry, predictor: Predictor) -> Res<SessionOut> {
    let mut reader = TraceReader::open(&e.path)?;
    let mut session = session_builder(e.workload, predictor, &ctx.sys).build();
    let fed = session.replay(&mut reader)?;
    Ok(SessionOut::from_session(
        e.workload,
        fed,
        e.frames,
        &mut session,
    ))
}

/// Reads CPU and RSS and shuts the daemon down; the readings come first
/// because the process is gone after `Shutdown`.
fn finish_daemon(served: Served, client_cpu0: u64, server_cpu0: u64) -> Res<((u64, u64), u64)> {
    let client_cpu = Proc::Current.cpu_nanos()? - client_cpu0;
    let server_cpu = served.daemon.proc().cpu_nanos()? - server_cpu0;
    let peak = served.daemon.proc().peak_rss_kib()?;
    drop(served.clients);
    served.daemon.shutdown()?;
    Ok(((client_cpu, server_cpu), peak))
}

/// One pass of `wire-null`. Traced, each store frame gets a span.
pub(crate) fn stream_pass(
    ctx: &Ctx,
    client: &mut Client,
    corpus: &[Entry],
    mut spans: Option<&mut Spans>,
) -> Res<Pass> {
    let start = Instant::now();
    let pass = spans::begin(&mut spans, "pass");
    let mut chunks = Vec::new();
    let mut sessions = Vec::new();
    let mut attempted = 0;
    for e in corpus {
        let id = client.open(&remote_open_request(e.workload, Predictor::None, &ctx.sys))?;
        let mut clock = corpus::open_timed(e)?;
        let mut reader = TraceReader::new(&mut clock)?;
        client.stream(id, &mut reader, STREAM_WINDOW)?;
        let frames = reader.frames_read();
        drop(reader);
        let summary = client.close(id)?;
        attempted += 1 + frames;
        frame_spans(&mut spans, "stream.frame", &clock);
        chunks.extend(clock.frame_seconds());
        sessions.push(SessionOut::from_summary(e.workload, frames, &summary));
    }
    spans::end(&mut spans, pass);
    Ok(Pass {
        seconds: start.elapsed().as_secs_f64(),
        chunks,
        sessions,
        attempted,
    })
}

fn wire_null(ctx: &Ctx) -> Res<Outcome> {
    let (mut served, setup_s) = setup(ctx, |ctx, rep| serve(ctx, rep, 1))?;
    let corpus = served.corpus.clone();
    stream_pass(ctx, &mut served.clients[0], &corpus, None)?;
    reset_peak(served.daemon.proc());
    let (client0, server0) = (
        Proc::Current.cpu_nanos()?,
        served.daemon.proc().cpu_nanos()?,
    );
    let passes = timed_passes(ctx.seconds, || {
        stream_pass(ctx, &mut served.clients[0], &corpus, None)
    })?;
    let (cpu, peak) = finish_daemon(served, client0, server0)?;
    let oracle = corpus
        .iter()
        .map(|e| local_replay(ctx, e, Predictor::None))
        .collect::<Res<Vec<_>>>()?;
    let loops = vec![Loop { passes, oracle }];
    Ok(outcome(setup_s, loops, cpu, peak, &corpus))
}

/// The two tenants: DB2 through STeMS and em3d through TMS+SMS.
pub const TENANTS: [(Workload, Predictor); 2] = [
    (Workload::Db2, Predictor::Stems),
    (Workload::Em3d, Predictor::Naive),
];

/// One tenant pass: open, send each store frame as one sequenced chunk
/// at window 1, timing each round trip, then close. Whole frames are what
/// the repository's sequenced-chunk sender, `ResilientClient::stream`,
/// sends. Traced, the write and the wait of each round trip get their own
/// spans.
fn tenant_pass(
    ctx: &Ctx,
    client: &mut Client,
    (workload, predictor): (Workload, Predictor),
    store: &Path,
    mut spans: Option<&mut Spans>,
) -> Res<Pass> {
    let start = Instant::now();
    let pass = spans::begin(&mut spans, "pass");
    let id = client.open(&remote_open_request(workload, predictor, &ctx.sys))?;
    let mut reader = TraceReader::open(store)?;
    let mut seq = 0u64;
    let mut fed = 0u64;
    let mut chunks = Vec::new();
    while let Some(chunk) = reader.next_chunk()? {
        seq += 1;
        let sent = Instant::now();
        spans::time(&mut spans, "client.write_seq_chunk", || {
            client.write_seq_chunk(id, seq, chunk)
        })?;
        let stats = spans::time(&mut spans, "client.read_stats", || client.read_stats())?;
        chunks.push(sent.elapsed().as_secs_f64());
        fed += chunk.len() as u64;
        if stats.accesses_fed != fed {
            let got = stats.accesses_fed;
            let w = workload.name();
            return Err(format!("tenant {w}: server fed {got} after {fed} sent").into());
        }
    }
    let summary = client.close(id)?;
    spans::end(&mut spans, pass);
    Ok(Pass {
        seconds: start.elapsed().as_secs_f64(),
        chunks,
        sessions: vec![SessionOut::from_summary(workload, seq, &summary)],
        attempted: 1 + seq,
    })
}

fn tenant_entry(corpus: &[Entry], w: Workload) -> &Entry {
    corpus
        .iter()
        .find(|e| e.workload == w)
        .expect("tenant trace is in the corpus")
}

/// Runs both tenants concurrently, each until `deadline` has passed
/// (at least one pass each), returning each tenant's passes and, when
/// `traced`, its spans.
pub(crate) fn tenants_until(
    ctx: &Ctx,
    clients: &mut [Client],
    corpus: &[Entry],
    deadline: Duration,
    traced: bool,
) -> Res<Vec<(Vec<Pass>, Spans)>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(TENANTS)
            .map(|(client, tenant)| {
                let store = &tenant_entry(corpus, tenant.0).path;
                scope.spawn(move || -> Res<(Vec<Pass>, Spans)> {
                    let start = Instant::now();
                    let mut spans = Spans::default();
                    let mut passes = Vec::new();
                    while passes.is_empty() || start.elapsed() < deadline {
                        let traced = traced.then_some(&mut spans);
                        passes.push(tenant_pass(ctx, client, tenant, store, traced)?);
                    }
                    Ok((passes, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread panicked"))
            .collect()
    })
}

fn wire_tenants(ctx: &Ctx) -> Res<Outcome> {
    let (mut served, setup_s) = setup(ctx, |ctx, rep| serve(ctx, rep, TENANTS.len()))?;
    let corpus = served.corpus.clone();
    tenants_until(ctx, &mut served.clients, &corpus, Duration::ZERO, false)?;
    reset_peak(served.daemon.proc());
    let (client0, server0) = (
        Proc::Current.cpu_nanos()?,
        served.daemon.proc().cpu_nanos()?,
    );
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let per_tenant = tenants_until(ctx, &mut served.clients, &corpus, deadline, false)?;
    let (cpu, peak) = finish_daemon(served, client0, server0)?;
    let loops = per_tenant
        .into_iter()
        .zip(TENANTS)
        .map(|((passes, _), (w, predictor))| {
            eprintln!(
                "wire-tenants: {} through {predictor}: {} passes",
                w.name(),
                passes.len()
            );
            let oracle = vec![local_replay(ctx, tenant_entry(&corpus, w), predictor)?];
            Ok(Loop { passes, oracle })
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(outcome(setup_s, loops, cpu, peak, &corpus))
}

/// Removes the per-run scratch directory when dropped, so every exit
/// path, a failed gate included, cleans up the temporary corpus.
pub struct WorkDir(pub PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

impl WorkDir {
    /// Creates `root/<pid>`.
    pub fn create(root: &Path) -> std::io::Result<WorkDir> {
        let dir = root.join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}
