//! The one sequenced streaming loop behind [`Client::stream`] and
//! [`ResilientClient::stream`](crate::ResilientClient::stream).
//!
//! Every store frame is wrapped once as a `SeqChunk` and buffered until
//! the server acknowledges it, so the buffered message is also the
//! retransmit unit. What happens when the connection faults mid-stream
//! is the only difference between the two clients, and it is the
//! [`Link`] they plug in: a plain [`Client`] returns the error, a
//! `ResilientClient` reconnects, resumes, and resends the window.
//!
//! Every acknowledgement — a `Stats` for the window's head, or a
//! `Resumed` covering a prefix of it — is checked against the
//! cumulative record count of the frames it acknowledges. A session
//! that already held sequenced chunks before the stream started would
//! otherwise dedupe the stream's first chunks as retransmits and drop
//! their records without an error.

use std::collections::VecDeque;
use std::io::Read;

use stems_core::protocol::{self, ChunkStats};
use stems_trace::TraceReader;

use crate::{Client, ClientError};

/// One buffered in-flight chunk: its sequence number, the stream's
/// cumulative record count through it, and the exact wire frame that
/// was sent.
struct Pending {
    seq: u64,
    fed: u64,
    frame: Vec<u8>,
}

/// A stream's unacknowledged window and what the server has
/// acknowledged so far.
pub(crate) struct Window {
    /// Sent but unacknowledged chunks, in sequence order.
    pending: VecDeque<Pending>,
    /// Highest acknowledged sequence number (0 = none yet).
    pub(crate) acked_seq: u64,
    /// The stream's cumulative record count through `acked_seq`.
    acked_fed: u64,
    /// The latest counter snapshot.
    pub(crate) last: Option<ChunkStats>,
    /// Consecutive faults since the last acknowledgement or recovery.
    pub(crate) failures: u32,
    /// A freed frame buffer, reused for the next push.
    spare: Vec<u8>,
}

impl Window {
    /// The wire frames of the unacknowledged chunks, in sequence order.
    pub(crate) fn unacked(&self) -> impl Iterator<Item = &[u8]> {
        self.pending.iter().map(|p| p.frame.as_slice())
    }

    /// Acknowledges every pending chunk with `seq <= through` and checks
    /// that the server's `accesses_fed` equals the records the stream
    /// sent through the last of them. Returns how many chunks it
    /// acknowledged.
    pub(crate) fn ack_through(
        &mut self,
        through: u64,
        accesses_fed: u64,
    ) -> Result<u64, ClientError> {
        let mut acked = 0;
        while self.pending.front().is_some_and(|p| p.seq <= through) {
            let done = self.pending.pop_front().expect("checked non-empty");
            self.acked_seq = done.seq;
            self.acked_fed = done.fed;
            self.spare = done.frame;
            acked += 1;
        }
        if accesses_fed != self.acked_fed {
            return Err(ClientError::Diverged {
                seq: self.acked_seq,
                sent: self.acked_fed,
                applied: accesses_fed,
            });
        }
        Ok(acked)
    }
}

/// A connection the sequenced stream runs over, and its answer to a
/// mid-stream fault.
pub(crate) trait Link {
    /// The live connection, (re)connecting when there is none.
    fn conn(&mut self) -> Result<&mut Client, ClientError>;

    /// Heals `cause` and resends every pending frame of `window`, or
    /// returns the fault that ends the stream.
    fn heal(
        &mut self,
        session: u32,
        window: &mut Window,
        cause: ClientError,
    ) -> Result<(), ClientError>;
}

impl Link for Client {
    fn conn(&mut self) -> Result<&mut Client, ClientError> {
        Ok(self)
    }

    fn heal(&mut self, _: u32, _: &mut Window, cause: ClientError) -> Result<(), ClientError> {
        Err(cause)
    }
}

/// Streams a whole persisted trace into `session` as sequenced chunks
/// numbered from 1, keeping up to `window` chunks in flight (clamped to
/// at least 1). Returns the records fed and the last counter snapshot,
/// which reflects every record because all snapshots are drained before
/// returning.
pub(crate) fn stream<R: Read>(
    link: &mut impl Link,
    session: u32,
    reader: &mut TraceReader<R>,
    window: usize,
) -> Result<(u64, Option<ChunkStats>), ClientError> {
    let capacity = window.max(1);
    let mut w = Window {
        pending: VecDeque::with_capacity(capacity),
        acked_seq: 0,
        acked_fed: 0,
        last: None,
        failures: 0,
        spare: Vec::new(),
    };
    let (mut next_seq, mut fed, mut exhausted) = (1u64, 0u64, false);
    loop {
        // Fill the window, wrapping each store frame's verified columns
        // once; a frame that fails its checks ends the stream before
        // any byte of it is sent.
        while !exhausted && w.pending.len() < capacity {
            let Some(raw) = reader.next_raw_frame()? else {
                exhausted = true;
                break;
            };
            let mut frame = std::mem::take(&mut w.spare);
            frame.clear();
            protocol::encode_raw_frame(&mut frame, session, next_seq, &raw);
            fed += raw.count as u64;
            let sent = link.conn().and_then(|c| c.write_frame_bytes(&frame));
            w.pending.push_back(Pending {
                seq: next_seq,
                fed,
                frame,
            });
            next_seq += 1;
            if let Err(e) = sent {
                link.heal(session, &mut w, e)?;
            }
        }
        let Some(head) = w.pending.front().map(|p| p.seq) else {
            break;
        };
        // One snapshot owed per in-flight chunk, in order.
        match link.conn().and_then(|c| c.read_stats()) {
            Ok(stats) => {
                w.failures = 0;
                w.ack_through(head, stats.accesses_fed)?;
                w.last = Some(stats);
            }
            Err(e) => link.heal(session, &mut w, e)?,
        }
    }
    Ok((fed, w.last))
}
