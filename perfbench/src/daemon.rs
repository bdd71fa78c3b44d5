//! The `stems-serve` daemon as a child process, and its metrics scrape.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use stems_client::Client;

use crate::procfs::Proc;

const START_TIMEOUT: Duration = Duration::from_secs(20);
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
const POLL: Duration = Duration::from_millis(1);

/// A running daemon. Dropping it kills and reaps the process, so no exit
/// path of the benchmark leaves one behind.
pub struct Daemon {
    child: Child,
    port_file: PathBuf,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on an ephemeral loopback port and waits until it has
    /// written that port to a file in `dir`.
    pub fn spawn(bin: &Path, dir: &Path, tag: usize) -> io::Result<Daemon> {
        let port_file = dir.join(format!("serve-{tag}.port"));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            port_file,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let started = Instant::now();
        loop {
            // The daemon writes the port and a newline in one call; until
            // the newline is there the write may be incomplete.
            if let Ok(text) = std::fs::read_to_string(&daemon.port_file) {
                if let Some(port) = text.strip_suffix('\n') {
                    let port = port.parse::<u16>().map_err(io::Error::other)?;
                    daemon.addr.set_port(port);
                    return Ok(daemon);
                }
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "stems-serve exited early: {status}"
                )));
            }
            if started.elapsed() > START_TIMEOUT {
                return Err(io::Error::other("stems-serve did not report its port"));
            }
            sleep(POLL);
        }
    }

    /// The daemon's process, for CPU and RSS readings.
    pub fn proc(&self) -> Proc {
        Proc::Pid(self.child.id())
    }

    /// Asks the daemon to drain and exit, then reaps it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut client = Client::connect(self.addr).map_err(io::Error::other)?;
        client.shutdown_server().map_err(io::Error::other)?;
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!(
                        "stems-serve exited with {status}"
                    )))
                };
            }
            if started.elapsed() > EXIT_TIMEOUT {
                return Err(io::Error::other("stems-serve did not exit after Shutdown"));
            }
            sleep(POLL);
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.port_file);
    }
}

/// The process-wide (unlabelled by session) samples of a scrape.
#[derive(Clone, Debug, Default)]
pub struct Scrape {
    samples: Vec<(String, String, f64)>,
}

impl Scrape {
    /// Parses a Prometheus-style text exposition, keeping only lines
    /// without a `session` label.
    pub fn parse(exposition: &str) -> Scrape {
        let samples = exposition
            .lines()
            .filter(|l| !l.starts_with('#') && !l.contains("session=\""))
            .filter_map(|line| {
                let (head, value) = line.rsplit_once(' ')?;
                let value = value.parse().ok()?;
                let (name, labels) = match head.split_once('{') {
                    Some((name, rest)) => (name, rest.trim_end_matches('}')),
                    None => (head, ""),
                };
                Some((name.to_string(), labels.to_string(), value))
            })
            .collect();
        Scrape { samples }
    }

    /// An unlabelled sample's value, 0 when absent (counters the daemon
    /// has not touched yet are not rendered).
    pub fn value(&self, name: &str) -> f64 {
        self.samples
            .iter()
            .find(|(n, l, _)| n == name && l.is_empty())
            .map_or(0.0, |s| s.2)
    }

    /// Per-bucket counts of histogram `name` as `(upper_bound, count)`,
    /// de-accumulated from the cumulative `_bucket` lines.
    pub fn buckets(&self, name: &str) -> Vec<(f64, u64)> {
        let bucket = format!("{name}_bucket");
        let mut cumulative: Vec<(f64, f64)> = self
            .samples
            .iter()
            .filter(|(n, _, _)| *n == bucket)
            .filter_map(|(_, labels, v)| {
                let le = labels.strip_prefix("le=\"")?.strip_suffix('"')?;
                (le != "+Inf").then(|| Some((le.parse().ok()?, *v)))?
            })
            .collect();
        cumulative.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut previous = 0.0;
        cumulative
            .into_iter()
            .map(|(le, c)| {
                let count = (c - previous) as u64;
                previous = c;
                (le, count)
            })
            .collect()
    }
}

/// Bucket-wise difference `after - before` of two [`Scrape::buckets`]
/// readings of the same histogram.
pub fn bucket_delta(before: &[(f64, u64)], after: &[(f64, u64)]) -> Vec<(f64, u64)> {
    after
        .iter()
        .map(|&(le, n)| {
            let earlier = before.iter().find(|b| b.0 == le).map_or(0, |b| b.1);
            (le, n - earlier)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_keeps_process_samples_and_de_accumulates_buckets() {
        let text = "stems_chunks_total 7\n\
                    stems_chunks_total{session=\"1\",predictor=\"none\"} 7\n\
                    stems_chunk_nanos_bucket{le=\"1\"} 0\n\
                    stems_chunk_nanos_bucket{le=\"1024\"} 3\n\
                    stems_chunk_nanos_bucket{le=\"2048\"} 7\n\
                    stems_chunk_nanos_bucket{le=\"+Inf\"} 7\n\
                    stems_chunk_nanos{quantile=\"0.5\"} 1500\n";
        let s = Scrape::parse(text);
        assert_eq!(s.value("stems_chunks_total"), 7.0);
        assert_eq!(s.value("stems_busy_total"), 0.0);
        assert_eq!(
            s.buckets("stems_chunk_nanos"),
            vec![(1.0, 0), (1024.0, 3), (2048.0, 4)]
        );
        let earlier = vec![(1024.0, 1)];
        assert_eq!(
            bucket_delta(&earlier, &s.buckets("stems_chunk_nanos")),
            vec![(1.0, 0), (1024.0, 2), (2048.0, 4)]
        );
    }
}
