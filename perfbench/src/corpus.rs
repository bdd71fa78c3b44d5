//! The benchmark corpus: DB2 (OLTP), Apache (web) and em3d (scientific)
//! captured to trace-store files, plus a `Read` wrapper that timestamps
//! each store frame as a caller pulls it through `TraceReader`.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};
use std::time::Instant;

use stems_trace::store::{FRAME_HEADER_BYTES, HEADER_BYTES};
use stems_trace::{SyncPolicy, TraceStoreError};
use stems_workloads::{capture_to_path, trace_file_name, Workload};

/// The corpus scale: at 0.5 the OLTP and web traces hold over a million
/// accesses each, past the engine's warm-up regime.
pub const SCALE: f64 = 0.5;

/// The three corpus workloads, one per category the paper's claims rest on.
pub const WORKLOADS: [Workload; 3] = [Workload::Db2, Workload::Apache, Workload::Em3d];

/// One captured trace.
#[derive(Clone, Debug)]
pub struct Entry {
    /// Which generator produced it.
    pub workload: Workload,
    /// The store file.
    pub path: PathBuf,
    /// Records in the trace.
    pub accesses: u64,
    /// Frames in the store.
    pub frames: u64,
    /// Size of the store file.
    pub bytes: u64,
}

/// Captures every corpus workload at [`SCALE`] from `seed` into `dir`.
/// The store is written without fsync: set-up time should measure the
/// capture work, not the disk's flush latency.
pub fn capture(dir: &Path, seed: u64) -> Result<Vec<Entry>, TraceStoreError> {
    WORKLOADS
        .iter()
        .map(|&workload| {
            let path = dir.join(trace_file_name(workload));
            let summary = capture_to_path(workload, SCALE, seed, &path, SyncPolicy::Never)?;
            Ok(Entry {
                workload,
                bytes: std::fs::metadata(&path)?.len(),
                path,
                accesses: summary.records,
                frames: summary.frames,
            })
        })
        .collect()
}

/// Opens `entry`'s store for a timed pass. Read it through
/// `TraceReader::new(&mut clock)` so the marks outlive the reader.
pub fn open_timed(entry: &Entry) -> io::Result<FrameClock<BufReader<File>>> {
    Ok(FrameClock::new(BufReader::new(File::open(&entry.path)?)))
}

/// A `Read` wrapper that records the instant each store frame starts to
/// be read, plus the instant the reader hits the end of the store.
///
/// `TraceReader::next_chunk` reads a frame's header the moment its caller
/// asks for the next chunk, so the gap between two marks is the time the
/// caller spent on one chunk: decoding it and handing it on (running it
/// through a session, or sending it and waiting out the pipeline).
pub struct FrameClock<R> {
    inner: R,
    pos: u64,
    next_frame: u64,
    header: [u8; FRAME_HEADER_BYTES],
    marks: Vec<Instant>,
}

impl<R: Read> FrameClock<R> {
    /// Wraps `inner`, which must be positioned at the start of a store.
    pub fn new(inner: R) -> FrameClock<R> {
        FrameClock {
            inner,
            pos: 0,
            next_frame: HEADER_BYTES as u64,
            header: [0; FRAME_HEADER_BYTES],
            marks: Vec::new(),
        }
    }

    /// The interval spent on each frame, in store order.
    pub fn frame_intervals(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        self.marks.windows(2).map(|w| (w[0], w[1]))
    }

    /// Time spent on each frame, in seconds, in store order.
    pub fn frame_seconds(&self) -> impl Iterator<Item = f64> + '_ {
        self.frame_intervals()
            .map(|(start, end)| end.duration_since(start).as_secs_f64())
    }
}

impl<R: Read> Read for FrameClock<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.next_frame {
            self.marks.push(Instant::now());
        }
        let n = self.inner.read(buf)?;
        // Copy whatever part of the current frame header this read
        // covered; once the header is complete, the next frame's offset
        // follows from its payload length.
        let start = self.pos;
        let end = start + n as u64;
        let header_end = self.next_frame + FRAME_HEADER_BYTES as u64;
        if end > self.next_frame && start < header_end {
            let from = self.next_frame.max(start);
            let to = header_end.min(end);
            let dst = (from - self.next_frame) as usize..(to - self.next_frame) as usize;
            let src = (from - start) as usize..(to - start) as usize;
            self.header[dst].copy_from_slice(&buf[src]);
            if to == header_end {
                let payload = u32::from_le_bytes(self.header[4..8].try_into().expect("4 bytes"));
                self.next_frame = header_end + payload as u64 + 4;
            }
        }
        self.pos = end;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stems_trace::store::TraceWriter;
    use stems_trace::{Trace, TraceReader};

    /// Hands out at most `step` bytes per read, to split headers.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.1).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn one_mark_per_frame_plus_the_end() {
        let mut trace = Trace::new();
        for i in 0..1000u64 {
            trace.read(0x400 + i % 7, (i * 4099) << 6);
        }
        let mut bytes = Vec::new();
        let mut writer = TraceWriter::new(&mut bytes)
            .unwrap()
            .with_frame_capacity(128);
        writer.write_accesses(trace.as_slice()).unwrap();
        let frames = writer.finish().unwrap().frames;
        drop(writer);
        assert_eq!(frames, 8);
        for step in [1, 3, 8, usize::MAX] {
            let mut clock = FrameClock::new(Dribble(&bytes, step));
            let mut reader = TraceReader::new(&mut clock).unwrap();
            let mut chunks = 0;
            while reader.next_chunk().unwrap().is_some() {
                chunks += 1;
            }
            assert_eq!(chunks, frames);
            drop(reader);
            assert_eq!(clock.frame_seconds().count() as u64, frames, "step {step}");
        }
    }
}
