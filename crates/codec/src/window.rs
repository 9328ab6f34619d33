//! The sliding window every decoder writes through.
//!
//! A decoder appends literals and back-references here; the window hands
//! its output to a sink in pieces of exactly [`FLUSH_QUANTUM`] bytes (the
//! last one may be shorter) and keeps only as much history as the codec's
//! back-references can reach. So a decode holds at most
//! `reach + FLUSH_QUANTUM` bytes, whatever the size of its output.

use crate::CodecError;

/// The most output a window holds beyond its codec's reach before it hands
/// the output to its sink.
pub const FLUSH_QUANTUM: usize = 1 << 20;

/// A decoder's output window over a sink of `(offset, bytes)` pieces.
pub(crate) struct Window<S> {
    /// The last `reach` bytes already handed out, then the pending ones.
    buf: Vec<u8>,
    /// Output offset of `buf[0]`.
    base: u64,
    /// Index in `buf` of the first byte not yet handed out.
    pending: usize,
    /// How far back a reference may reach.
    reach: usize,
    /// The output length the container declares.
    declared: u64,
    sink: S,
}

impl<S, E> Window<S>
where
    S: FnMut(u64, &[u8]) -> Result<(), E>,
    E: From<CodecError>,
{
    /// A window of `reach` bytes of history for an output of `declared`
    /// bytes. Its buffer starts at `reach + FLUSH_QUANTUM` bytes, or
    /// `declared` if that is less, but at most two quanta, so a corrupted
    /// header cannot force a large allocation before any payload is
    /// validated; it grows (see [`Window::reserve`]) only as output needs.
    pub(crate) fn new(reach: usize, declared: u64, sink: S) -> Self {
        let size = (reach + FLUSH_QUANTUM).min(2 * FLUSH_QUANTUM);
        Window {
            buf: Vec::with_capacity(usize::try_from(declared).map_or(size, |d| d.min(size))),
            base: 0,
            pending: 0,
            reach,
            declared,
            sink,
        }
    }

    /// Bytes of output produced so far.
    fn pos(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Refuses `n` more bytes that would pass the declared length.
    fn room(&self, n: usize) -> Result<(), E> {
        let pos = self.pos();
        if n as u64 > self.declared.saturating_sub(pos) {
            return Err(CodecError::LengthMismatch {
                expected: self.declared,
                actual: pos.saturating_add(n as u64),
            }
            .into());
        }
        Ok(())
    }

    /// Bytes that fit before the next flush.
    fn space(&self) -> usize {
        FLUSH_QUANTUM - (self.buf.len() - self.pending)
    }

    /// Makes room for `n` more bytes (at most [`Window::space`]): doubling,
    /// but never past `reach + FLUSH_QUANTUM`.
    fn reserve(&mut self, n: usize) {
        let need = self.buf.len() + n;
        if need > self.buf.capacity() {
            let to = (2 * self.buf.capacity()).clamp(need, self.reach + FLUSH_QUANTUM);
            self.buf.reserve_exact(to - self.buf.len());
        }
    }

    /// Hands the pending bytes to the sink, then drops history beyond the
    /// reach.
    fn flush(&mut self) -> Result<(), E> {
        if self.pending == self.buf.len() {
            return Ok(());
        }
        (self.sink)(self.base + self.pending as u64, &self.buf[self.pending..])?;
        let drop = self.buf.len().saturating_sub(self.reach);
        self.buf.drain(..drop);
        self.base += drop as u64;
        self.pending = self.buf.len();
        Ok(())
    }

    /// Appends literal bytes.
    pub(crate) fn literal(&mut self, mut bytes: &[u8]) -> Result<(), E> {
        self.room(bytes.len())?;
        while !bytes.is_empty() {
            let (now, rest) = bytes.split_at(bytes.len().min(self.space()));
            self.reserve(now.len());
            self.buf.extend_from_slice(now);
            bytes = rest;
            if self.space() == 0 {
                self.flush()?;
            }
        }
        Ok(())
    }

    /// Appends `len` bytes copied from `distance` bytes back. An
    /// overlapping copy (distance < length) repeats the last `distance`
    /// bytes: each piece copies every whole period appended so far, so a
    /// long run takes a logarithmic number of copies between flushes (a
    /// flush keeps at least one period and starts the doubling again).
    pub(crate) fn copy_back(&mut self, distance: usize, len: usize) -> Result<(), E> {
        let pos = self.pos();
        if distance == 0 || distance as u64 > pos || distance > self.reach {
            return Err(CodecError::InvalidBackReference { at: pos as usize }.into());
        }
        self.room(len)?;
        let (mut left, mut span) = (len, distance);
        while left > 0 {
            let start = self.buf.len() - span;
            let piece = left.min(span).min(self.space());
            self.reserve(piece);
            self.buf.extend_from_within(start..start + piece);
            // A short piece ends the copy or fills the quantum, so `span`
            // stays a whole number of periods while it is used.
            (left, span) = (left - piece, span + piece);
            if self.space() == 0 {
                self.flush()?;
                span = distance;
            }
        }
        Ok(())
    }

    /// Hands out the rest of the output and checks it is the declared
    /// length. Returns that length.
    pub(crate) fn finish(mut self) -> Result<u64, E> {
        self.flush()?;
        if self.pos() != self.declared {
            return Err(CodecError::LengthMismatch {
                expected: self.declared,
                actual: self.pos(),
            }
            .into());
        }
        Ok(self.pos())
    }

    /// The buffer's capacity, which only grows: at least the most it ever
    /// held.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}
