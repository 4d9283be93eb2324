//! A compact, versionless byte codec for [`Execution`]s, used to bank
//! per-unit Forbid candidates in the sweep journal.
//!
//! The encoding is exact (decode ∘ encode = identity, pinned by tests): the
//! event list followed by the eleven primitive relations as explicit pair
//! lists, everything little-endian. No attempt is made at compression —
//! banked candidates are rare (a handful per sweep) and tiny (at most
//! [`MAX_UNIVERSE`] = 16 events, the most a relation can range over; a
//! record claiming more is rejected before anything is built).

use tm_exec::{Annot, Event, EventKind, Execution, Fence, Loc, LockCall, ThreadId};
use tm_relation::{Relation, MAX_UNIVERSE};

/// Why a byte string failed to decode as an [`Execution`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the structure it promised.
    Truncated,
    /// The event count exceeds [`MAX_UNIVERSE`].
    TooManyEvents(u32),
    /// An event carried an unknown kind tag.
    BadEventTag(u8),
    /// A fence event carried an out-of-range fence index.
    BadFence(u32),
    /// A lock-call event carried an out-of-range call index.
    BadLockCall(u32),
    /// A relation pair referenced an event id outside the universe.
    BadEventId(u32),
    /// Trailing bytes followed the final relation.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "execution record truncated"),
            CodecError::TooManyEvents(n) => {
                write!(f, "{n} events exceed the limit of {MAX_UNIVERSE}")
            }
            CodecError::BadEventTag(t) => write!(f, "unknown event kind tag {t}"),
            CodecError::BadFence(i) => write!(f, "fence index {i} out of range"),
            CodecError::BadLockCall(i) => write!(f, "lock-call index {i} out of range"),
            CodecError::BadEventId(e) => write!(f, "event id {e} outside the universe"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing byte(s) after the execution"),
        }
    }
}

impl std::error::Error for CodecError {}

const KIND_READ: u8 = 0;
const KIND_WRITE: u8 = 1;
const KIND_FENCE: u8 = 2;
const KIND_LOCK: u8 = 3;

fn annot_bits(a: Annot) -> u8 {
    u8::from(a.acq) | u8::from(a.rel) << 1 | u8::from(a.sc) << 2 | u8::from(a.atomic) << 3
}

fn annot_from_bits(b: u8) -> Annot {
    Annot {
        acq: b & 1 != 0,
        rel: b & 2 != 0,
        sc: b & 4 != 0,
        atomic: b & 8 != 0,
    }
}

/// The inverse of [`Fence::index`] (pinned against it by a test).
fn fence_from_index(i: u32) -> Option<Fence> {
    Some(match i {
        0 => Fence::MFence,
        1 => Fence::Sync,
        2 => Fence::Lwsync,
        3 => Fence::Isync,
        4 => Fence::Dmb,
        5 => Fence::DmbLd,
        6 => Fence::DmbSt,
        7 => Fence::Isb,
        8 => Fence::FenceSc,
        9 => Fence::FenceAcq,
        10 => Fence::FenceRel,
        _ => return None,
    })
}

fn lock_call_index(c: LockCall) -> u32 {
    match c {
        LockCall::Lock => 0,
        LockCall::Unlock => 1,
        LockCall::TxLock => 2,
        LockCall::TxUnlock => 3,
    }
}

fn lock_call_from_index(i: u32) -> Option<LockCall> {
    Some(match i {
        0 => LockCall::Lock,
        1 => LockCall::Unlock,
        2 => LockCall::TxLock,
        3 => LockCall::TxUnlock,
        _ => return None,
    })
}

/// The eleven primitive relations of an execution, in a fixed order shared
/// by encoder and decoder.
fn relations(exec: &Execution) -> [&Relation; 11] {
    [
        &exec.po,
        &exec.rf,
        &exec.co,
        &exec.addr,
        &exec.data,
        &exec.ctrl,
        &exec.rmw,
        &exec.stxn,
        &exec.stxnat,
        &exec.scr,
        &exec.scrt,
    ]
}

/// Serialises `exec` into a self-delimiting byte string.
pub fn encode_execution(exec: &Execution) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(&(exec.len() as u32).to_le_bytes());
    for event in &exec.events {
        let (tag, payload) = match event.kind {
            EventKind::Read(Loc(l)) => (KIND_READ, l),
            EventKind::Write(Loc(l)) => (KIND_WRITE, l),
            EventKind::Fence(fence) => (KIND_FENCE, fence.index() as u32),
            EventKind::LockCall(call) => (KIND_LOCK, lock_call_index(call)),
        };
        out.push(tag);
        out.extend_from_slice(&event.thread.0.to_le_bytes());
        out.extend_from_slice(&payload.to_le_bytes());
        out.push(annot_bits(event.annot));
    }
    for rel in relations(exec) {
        let pairs: Vec<(usize, usize)> = rel.iter().collect();
        out.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
        for (a, b) in pairs {
            out.extend_from_slice(&(a as u32).to_le_bytes());
            out.extend_from_slice(&(b as u32).to_le_bytes());
        }
    }
    out
}

/// A cursor over the encoded bytes.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.bytes.get(self.at).ok_or(CodecError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        let end = self.at.checked_add(4).ok_or(CodecError::Truncated)?;
        let slice = self.bytes.get(self.at..end).ok_or(CodecError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(slice.try_into().expect("4 bytes")))
    }
}

/// Decodes a byte string produced by [`encode_execution`].
pub fn decode_execution(bytes: &[u8]) -> Result<Execution, CodecError> {
    let mut r = Reader { bytes, at: 0 };
    let count = r.u32()?;
    if count > MAX_UNIVERSE as u32 {
        return Err(CodecError::TooManyEvents(count));
    }
    let n = count as usize;
    let mut events = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.u8()?;
        let thread = r.u32()?;
        let payload = r.u32()?;
        let annot = annot_from_bits(r.u8()?);
        let kind = match tag {
            KIND_READ => EventKind::Read(Loc(payload)),
            KIND_WRITE => EventKind::Write(Loc(payload)),
            KIND_FENCE => {
                EventKind::Fence(fence_from_index(payload).ok_or(CodecError::BadFence(payload))?)
            }
            KIND_LOCK => EventKind::LockCall(
                lock_call_from_index(payload).ok_or(CodecError::BadLockCall(payload))?,
            ),
            other => return Err(CodecError::BadEventTag(other)),
        };
        events.push(Event {
            thread: ThreadId(thread),
            kind,
            annot,
        });
    }
    let mut exec = Execution::with_events(events);
    for rel_at in 0..11 {
        let pairs = r.u32()?;
        for _ in 0..pairs {
            let a = r.u32()?;
            let b = r.u32()?;
            if a as usize >= n {
                return Err(CodecError::BadEventId(a));
            }
            if b as usize >= n {
                return Err(CodecError::BadEventId(b));
            }
            let rel = match rel_at {
                0 => &mut exec.po,
                1 => &mut exec.rf,
                2 => &mut exec.co,
                3 => &mut exec.addr,
                4 => &mut exec.data,
                5 => &mut exec.ctrl,
                6 => &mut exec.rmw,
                7 => &mut exec.stxn,
                8 => &mut exec.stxnat,
                9 => &mut exec.scr,
                _ => &mut exec.scrt,
            };
            rel.insert(a as usize, b as usize);
        }
    }
    if r.at != bytes.len() {
        return Err(CodecError::TrailingBytes(bytes.len() - r.at));
    }
    Ok(exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_exec::ExecutionBuilder;

    fn sample() -> Execution {
        let mut b = ExecutionBuilder::new();
        let wx = b.push(Event::write(0, 0));
        let wy = b.push(Event::write(0, 1).with_annot(Annot::release()));
        let ry = b.push(Event::read(1, 1).with_annot(Annot::acquire()));
        let rx = b.push(Event::read(1, 0));
        b.rf(wy, ry);
        b.txn(&[wx, wy]);
        let mut exec = b.build().expect("well-formed");
        exec.data.insert(ry, rx);
        exec
    }

    #[test]
    fn round_trip_is_identity() {
        let exec = sample();
        let bytes = encode_execution(&exec);
        let back = decode_execution(&bytes).expect("decodes");
        assert_eq!(exec, back);
        assert_eq!(exec.signature(), back.signature());
    }

    #[test]
    fn fence_events_round_trip_every_kind() {
        for i in 0..Fence::COUNT as u32 {
            let fence = fence_from_index(i).expect("in range");
            assert_eq!(fence.index() as u32, i, "fence_from_index inverts index");
            let exec = Execution::with_events(vec![Event::fence(0, fence)]);
            let back = decode_execution(&encode_execution(&exec)).expect("decodes");
            assert_eq!(exec, back);
        }
        assert!(fence_from_index(Fence::COUNT as u32).is_none());
    }

    #[test]
    fn truncation_and_garbage_are_rejected() {
        let bytes = encode_execution(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_execution(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_execution(&trailing),
            Err(CodecError::TrailingBytes(1))
        );
        let mut bad_tag = bytes.clone();
        bad_tag[4] = 9; // first event's kind tag
        assert_eq!(decode_execution(&bad_tag), Err(CodecError::BadEventTag(9)));
        // An event count past the limit is refused before any event is read.
        for count in [MAX_UNIVERSE as u32 + 1, u32::MAX] {
            let mut oversized = bytes.clone();
            oversized[..4].copy_from_slice(&count.to_le_bytes());
            assert_eq!(
                decode_execution(&oversized),
                Err(CodecError::TooManyEvents(count))
            );
        }
    }
}
