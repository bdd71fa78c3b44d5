//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload replay-stems|wire-null|wire-tenants --serve-bin PATH
//!           [--seed N] [--seconds S] [--trace 0|1] [--root DIR] [--rev STR]
//! ```
//!
//! Normally started through `run.py`, which builds this package and the
//! `stems-serve` daemon first. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). The line
//! before it records the run's context. Exit code 0 means the run
//! measured and every output matched its oracle. A failed call (a `Busy`
//! or `Error` reply included) ends the run with an error and no result
//! line, so `failed` is 0 on every printed result. See `README.md` here.

mod corpus;
mod daemon;
mod layers;
mod procfs;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use corpus::SCALE;
use layers::Metric;
use stems_harness::runner::system_config;
use workloads::{Ctx, Kind, Res, WorkDir, TAIL};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    root: PathBuf,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut kind = None;
    let mut out = Args {
        kind: Kind::ReplayStems,
        seed: 2009,
        seconds: 10.0,
        trace: false,
        serve_bin: PathBuf::new(),
        root: PathBuf::from("."),
        rev: "unknown".into(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        let badf = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => out.seed = value.parse().map_err(bad)?,
            "--seconds" => out.seconds = value.parse().map_err(badf)?,
            "--trace" => out.trace = value.parse::<u8>().map_err(bad)? != 0,
            "--serve-bin" => out.serve_bin = value.into(),
            "--root" => out.root = value.into(),
            "--rev" => out.rev = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    out.kind = kind.ok_or("--workload is required")?;
    if !out.seconds.is_finite() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !out.serve_bin.is_file() {
        return Err(format!(
            "--serve-bin {} is not a file",
            out.serve_bin.display()
        ));
    }
    Ok(out)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(kind: Kind, ctx: &Ctx) -> Res<(Vec<Metric>, bool, u64, Vec<String>)> {
    let out = workloads::run(kind, ctx)?;
    let chunks = &out.chunk_seconds;
    eprintln!(
        "{}: {} accesses timed; {} chunk samples; chunk p90 {:.4} ms, p99 {}",
        kind.name(),
        out.accesses,
        chunks.len(),
        stats::percentile(chunks, 0.9) * 1e3,
        match stats::tail_percentile(chunks, TAIL) {
            Some(p99) => format!(
                "{:.4} ms ({} beyond it)",
                p99 * 1e3,
                stats::beyond(chunks.len(), TAIL)
            ),
            None => "not supported by the sample".into(),
        },
    );
    for (i, seconds) in out.pass_seconds.iter().enumerate() {
        let spread = stats::quartile_spread(seconds);
        eprintln!(
            "  loop {i}: {} passes, quartile spread of pass times {spread:.4}",
            seconds.len()
        );
    }
    let metrics = vec![
        metric("setup_s", out.setup_s, "s"),
        metric("acc_per_s", out.acc_per_s, "1/s"),
        metric("cpu_ns_per_acc", out.cpu_ns_per_acc, "ns"),
        metric("peak_rss_mb", out.peak_rss_mb, "MB"),
        metric("chunk_p50_ms", stats::percentile(chunks, 0.5) * 1e3, "ms"),
    ];
    Ok((metrics, out.correct, out.attempted, out.counts))
}

/// Compares the deterministic counts of a run that passed its gate with
/// the first such run's at the same workload, seed, mode and source
/// revision, recording them when this is the first. The record is written
/// under a temporary name and renamed, so a run stopped mid-write leaves
/// no partial record. A difference is nondeterminism.
fn check_counts(root: &Path, args: &Args, counts: &[String]) -> Res<bool> {
    let dir = root.join(".perfbench_state");
    std::fs::create_dir_all(&dir)?;
    let rev: String = args
        .rev
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect();
    let file = dir.join(format!(
        "counts-{}-trace{}-seed{}-{rev}.txt",
        args.kind.name(),
        u8::from(args.trace),
        args.seed,
    ));
    let text = counts.join("\n") + "\n";
    match std::fs::read_to_string(&file) {
        Ok(earlier) if earlier == text => Ok(true),
        Ok(earlier) => {
            for (a, b) in earlier.lines().zip(text.lines()).filter(|(a, b)| a != b) {
                eprintln!("nondeterminism: earlier run had {a}, this run has {b}");
            }
            Ok(false)
        }
        Err(_) => {
            let partial = file.with_extension(format!("{}.tmp", std::process::id()));
            std::fs::write(&partial, text)?;
            std::fs::rename(&partial, &file)?;
            Ok(true)
        }
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> Res<String> {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !stats::valid_metric_name(&m.name) || !m.value.is_finite() {
            return Err(format!("metric {} = {} is not reportable", m.name, m.value).into());
        }
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )?;
    }
    line.push_str("}}");
    Ok(line)
}

fn run(args: &Args) -> Res<bool> {
    let work = WorkDir::create(&args.root.join(".perfbench_work"))?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"context\": {{\"workload\": \"{}\", \"seed\": {}, \"scale\": {:?}, \"seconds\": {:?}, \
         \"trace\": {}, \"nproc\": {nproc}, \"rev\": \"{}\"}}}}",
        args.kind.name(),
        args.seed,
        SCALE,
        args.seconds,
        u8::from(args.trace),
        args.rev.escape_default(),
    );
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        work: work.0.clone(),
        serve_bin: args.serve_bin.clone(),
        sys: system_config(SCALE),
    };
    let (metrics, correct, attempted, counts) = if args.trace {
        let t = layers::traced(args.kind, &ctx)?;
        (t.metrics, t.correct, t.attempted, t.counts)
    } else {
        end_to_end(args.kind, &ctx)?
    };
    let correct = correct && check_counts(&args.root, args, &counts)?;
    println!("{}", json_line(correct, attempted, 0, &metrics)?);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_rejects_bad_names_and_values() {
        let ok = json_line(true, 3, 0, &[metric("acc_per_s", 1.5, "1/s")]).unwrap();
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"acc_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
        assert!(json_line(true, 1, 0, &[metric("bad name", 1.0, "s")]).is_err());
        assert!(json_line(true, 1, 0, &[metric("x", f64::NAN, "s")]).is_err());
    }
}
