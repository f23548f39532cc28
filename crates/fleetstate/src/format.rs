//! The one framed binary container, shared by snapshots, the journal
//! and the `fleetd` wire protocol.
//!
//! Every record is one **frame**:
//!
//! ```text
//! offset  size  field
//! 0       4     magic (names the container, see below)
//! 4       2     format version (little-endian u16, currently 1)
//! 6       1     frame kind
//! 7       1     reserved (zero)
//! 8       4     payload length (little-endian u32, at most the container's cap)
//! 12      n     payload
//! 12+n    4     CRC-32 (IEEE) over bytes [0, 12+n)
//! ```
//!
//! Two containers use this layout. They differ only in magic and payload
//! cap, so a frame of one never verifies as a frame of the other:
//!
//! | container | magic | payload cap | kinds |
//! |---|---|---|---|
//! | [`STATE`]: snapshot and journal files | `FLST` | 2^28 bytes | [`FrameKind`] |
//! | `fleetd::proto`: daemon messages | `FLTD` | 2^26 bytes | requests 1–63, replies 64–127 |
//!
//! All integers are little-endian and every `f64` travels as its raw
//! IEEE-754 bits, never as text. The checksum covers the header *and*
//! the payload, so a bit flip anywhere in the frame — including the
//! length field itself — fails verification. A length field above the
//! container's cap is rejected before anything is sized from it.
//!
//! Files are frames concatenated back to back with no padding. A reader
//! walks them with [`frames`] and distinguishes a **torn tail** (the
//! expected artifact of a crash mid-append: the last frame runs out of
//! bytes or fails its checksum, with nothing valid after it) from
//! **mid-stream corruption** (damage followed by further valid frames,
//! which is never a crash artifact and always an error).

use crate::error::PersistError;
use numeric::crc32;

/// The four magic bytes opening every snapshot and journal frame.
pub const MAGIC: [u8; 4] = *b"FLST";

/// The current format version, shared by every container.
pub const VERSION: u16 = 1;

/// Bytes of the fixed frame header (before the payload).
pub const HEADER_LEN: usize = 12;

/// Bytes of the trailing checksum.
pub const TRAILER_LEN: usize = 4;

/// Cap on one snapshot or journal frame's payload.
pub const MAX_PAYLOAD: u32 = 1 << 28;

/// A frame container: the magic that opens its frames and the cap on one
/// frame's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Container {
    /// The four bytes every frame of this container opens with.
    pub magic: [u8; 4],
    /// The largest payload length a frame header may claim.
    pub max_payload: u32,
}

/// The snapshot and journal container.
pub const STATE: Container = Container { magic: MAGIC, max_payload: MAX_PAYLOAD };

/// Why a buffer does not hold a valid frame. Offsets are relative to the
/// start of the frame; each container maps this into its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Bytes the frame needs.
        needed: u64,
        /// Bytes available.
        available: u64,
    },
    /// The first four bytes are not the container's magic.
    BadMagic,
    /// A frame from a different format version.
    UnsupportedVersion {
        /// The version the header claims.
        version: u16,
    },
    /// The length field exceeds the container's payload cap.
    OversizedPayload {
        /// The length the header claims.
        len: u32,
    },
    /// The stored CRC-32 does not match the frame's contents.
    ChecksumMismatch {
        /// Offset of the stored checksum.
        offset: u64,
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the frame's bytes.
        computed: u32,
    },
}

impl FrameError {
    /// This failure as a [`PersistError`] naming the frame's file offset.
    #[must_use]
    pub fn at(self, offset: u64) -> PersistError {
        match self {
            Self::Truncated { needed, available } => {
                PersistError::TruncatedFrame { offset, needed, available }
            }
            Self::BadMagic => PersistError::BadMagic { offset },
            Self::UnsupportedVersion { version } => {
                PersistError::UnsupportedVersion { offset, version }
            }
            Self::OversizedPayload { len } => PersistError::OversizedPayload { offset, len },
            Self::ChecksumMismatch { stored, computed, .. } => {
                PersistError::ChecksumMismatch { offset, stored, computed }
            }
        }
    }
}

impl Container {
    /// Appends the header of a `kind` frame to `out` and returns where
    /// the frame starts. Append the payload, then [`seal`] the frame.
    pub fn open(self, out: &mut Vec<u8>, kind: u8) -> usize {
        let start = out.len();
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&[kind, 0, 0, 0, 0, 0]);
        start
    }

    /// Encodes one frame whose payload `write` appends.
    #[must_use]
    pub fn encode(self, kind: u8, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        let start = self.open(&mut out, kind);
        write(&mut out);
        seal(&mut out, start);
        out
    }

    /// Checks the header at the start of `bytes` alone and returns
    /// `(kind, payload_len)`, so a stream reader learns how many more
    /// bytes the frame needs before it can be verified.
    ///
    /// # Errors
    ///
    /// [`FrameError::Truncated`], [`FrameError::BadMagic`],
    /// [`FrameError::UnsupportedVersion`] or
    /// [`FrameError::OversizedPayload`].
    pub fn decode_header(self, bytes: &[u8]) -> Result<(u8, u32), FrameError> {
        if bytes.len() < HEADER_LEN {
            return Err(FrameError::Truncated {
                needed: HEADER_LEN as u64,
                available: bytes.len() as u64,
            });
        }
        if bytes[0..4] != self.magic {
            return Err(FrameError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(FrameError::UnsupportedVersion { version });
        }
        let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if len > self.max_payload {
            return Err(FrameError::OversizedPayload { len });
        }
        Ok((bytes[6], len))
    }

    /// Verifies the frame at the start of `bytes` (bytes after it are
    /// ignored) and returns `(kind, payload)`.
    ///
    /// # Errors
    ///
    /// Any [`Container::decode_header`] error, [`FrameError::Truncated`]
    /// if the buffer ends inside the frame, or
    /// [`FrameError::ChecksumMismatch`].
    pub fn decode(self, bytes: &[u8]) -> Result<(u8, &[u8]), FrameError> {
        let (kind, len) = self.decode_header(bytes)?;
        let end = HEADER_LEN + len as usize;
        let Some(t) = bytes.get(end..end + TRAILER_LEN) else {
            return Err(FrameError::Truncated {
                needed: (end + TRAILER_LEN) as u64,
                available: bytes.len() as u64,
            });
        };
        let stored = u32::from_le_bytes([t[0], t[1], t[2], t[3]]);
        let computed = checksum(&bytes[..end]);
        if stored != computed {
            return Err(FrameError::ChecksumMismatch { offset: end as u64, stored, computed });
        }
        Ok((kind, &bytes[HEADER_LEN..end]))
    }
}

/// Closes the frame [`Container::open`] started at `start`: fills in
/// the payload length (everything appended after the header) and
/// appends the checksum.
pub fn seal(out: &mut Vec<u8>, start: usize) {
    let len = (out.len() - start - HEADER_LEN) as u32;
    out[start + 8..start + HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; TRAILER_LEN]);
    reseal(&mut out[start..]);
}

/// Recomputes the checksum of the complete frame `frame` in place, so a
/// deliberately edited header (a fault injector's version bump) still
/// verifies up to the edited field.
pub fn reseal(frame: &mut [u8]) {
    let body = frame.len() - TRAILER_LEN;
    let crc = checksum(&frame[..body]);
    frame[body..].copy_from_slice(&crc.to_le_bytes());
}

fn checksum(body: &[u8]) -> u32 {
    crc32::crc32(body)
}

// ---------------------------------------------------------------------
// Payload codec.
// ---------------------------------------------------------------------

/// Appends `v` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v`'s IEEE-754 bits little-endian.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends every value of `vs` as by [`put_f64`].
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    out.reserve(vs.len() * 8);
    for &v in vs {
        put_f64(out, v);
    }
}

/// A payload that does not decode: what was wrong, and the payload
/// offset at which it was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadError {
    /// Offset within the payload.
    pub pos: u64,
    /// What was wrong.
    pub what: &'static str,
}

impl PayloadError {
    /// This failure as a [`PersistError::BadPayload`] naming the frame's
    /// file offset.
    #[must_use]
    pub fn at(self, offset: u64) -> PersistError {
        PersistError::BadPayload { offset, what: self.what }
    }
}

/// A bounds-checked little-endian cursor over one payload. Every read
/// past the end is a [`PayloadError`] at the cursor's position, never a
/// panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// A [`PayloadError`] at the cursor's position.
    #[must_use]
    pub fn err(&self, what: &'static str) -> PayloadError {
        PayloadError { pos: self.pos as u64, what }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        if n > self.remaining() {
            return Err(self.err("payload ends early"));
        }
        self.pos += n;
        Ok(&self.bytes[self.pos - n..self.pos])
    }

    /// The next byte.
    pub fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    /// The next `u32`.
    pub fn u32(&mut self) -> Result<u32, PayloadError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// The next `u64`.
    pub fn u64(&mut self) -> Result<u64, PayloadError> {
        Ok(le_u64(self.take(8)?))
    }

    /// The next `f64`.
    pub fn f64(&mut self) -> Result<f64, PayloadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// The next `n` `f64`s. The bytes are checked to be present before
    /// anything is allocated, so an untrusted `n` cannot size a buffer.
    pub fn f64s(&mut self, n: usize) -> Result<Vec<f64>, PayloadError> {
        let bytes = self.take(n.checked_mul(8).ok_or(self.err("payload ends early"))?)?;
        Ok(bytes.chunks_exact(8).map(|b| f64::from_bits(le_u64(b))).collect())
    }

    /// Bytes not yet consumed. Length and count fields read from the
    /// payload are checked against this *before* any allocation is sized
    /// from them.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Checks that the whole payload was consumed.
    pub fn finish(&self) -> Result<(), PayloadError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.err("trailing payload bytes"))
        }
    }
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Decodes the whole of `payload` with `decode`, failing if it leaves
/// bytes unread.
///
/// # Errors
///
/// Whatever `decode` returns, or the [`Cursor::finish`] error.
pub fn read_payload<'a, T, E: From<PayloadError>>(
    payload: &'a [u8],
    decode: impl FnOnce(&mut Cursor<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut r = Cursor::new(payload);
    let value = decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------
// Snapshot and journal frames.
// ---------------------------------------------------------------------

/// What a snapshot or journal frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// A full fleet snapshot ([`crate::state::FleetState`]).
    Snapshot = 1,
    /// The journal's opening configuration echo.
    JournalHeader = 2,
    /// One step's observations, one `f64` per lane.
    Observations = 3,
    /// A scalar controller snapshot ([`skirental::degraded::LadderState`]).
    ScalarSnapshot = 4,
}

impl FrameKind {
    /// Decodes a kind byte.
    #[must_use]
    pub fn from_u8(kind: u8) -> Option<Self> {
        match kind {
            1 => Some(Self::Snapshot),
            2 => Some(Self::JournalHeader),
            3 => Some(Self::Observations),
            4 => Some(Self::ScalarSnapshot),
            _ => None,
        }
    }
}

/// One verified frame: its kind, its payload (borrowed from the scanned
/// bytes), and its location in the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The frame's kind byte (validated against [`FrameKind`] by the
    /// journal/snapshot readers, which know which kinds they accept).
    pub kind: u8,
    /// The payload bytes.
    pub payload: &'a [u8],
    /// Byte offset of the frame's header in the file.
    pub offset: u64,
    /// Total encoded length (header + payload + checksum).
    pub len: u64,
}

/// Encodes one snapshot or journal frame.
#[must_use]
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    STATE.encode(kind as u8, |out| out.extend_from_slice(payload))
}

/// Decodes the snapshot or journal frame starting at `offset`, verifying
/// magic, version, length, and checksum.
///
/// # Errors
///
/// [`PersistError::TruncatedFrame`], [`PersistError::BadMagic`],
/// [`PersistError::UnsupportedVersion`],
/// [`PersistError::OversizedPayload`], or
/// [`PersistError::ChecksumMismatch`] — each naming `offset`.
pub fn decode_frame_at(bytes: &[u8], offset: u64) -> Result<Frame<'_>, PersistError> {
    let (kind, payload) = STATE.decode(&bytes[offset as usize..]).map_err(|e| e.at(offset))?;
    Ok(Frame { kind, payload, offset, len: (HEADER_LEN + payload.len() + TRAILER_LEN) as u64 })
}

/// The frame walker behind every reader: yields each frame of a
/// snapshot or journal file in order, or the error at a damaged offset,
/// after which it resyncs on the next occurrence of the magic.
#[derive(Debug, Clone)]
pub struct Frames<'a> {
    bytes: &'a [u8],
    offset: usize,
}

/// Walks `bytes` frame by frame; see [`Frames`].
#[must_use]
pub fn frames(bytes: &[u8]) -> Frames<'_> {
    Frames { bytes, offset: 0 }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<Frame<'a>, PersistError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.offset >= self.bytes.len() {
            return None;
        }
        let item = decode_frame_at(self.bytes, self.offset as u64);
        self.offset = match &item {
            Ok(frame) => self.offset + frame.len as usize,
            Err(_) => (self.offset + 1..=self.bytes.len().saturating_sub(MAGIC.len()))
                .find(|&i| self.bytes[i..i + MAGIC.len()] == MAGIC)
                .unwrap_or(self.bytes.len()),
        };
        Some(item)
    }
}

/// The result of walking a file frame by frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameScan<'a> {
    /// The valid frames, in file order.
    pub frames: Vec<Frame<'a>>,
    /// Bytes of the clean prefix (everything before the first damage;
    /// the whole file when undamaged).
    pub clean_len: u64,
    /// The error that stopped the walk at the file's tail, if any —
    /// `None` for a cleanly terminated file. A `Some` here means the
    /// trailing bytes look like a torn write (no valid frame follows
    /// the damage).
    pub torn_tail: Option<PersistError>,
}

/// Walks `bytes` frame by frame, strictly. Damage at the **tail**
/// (nothing valid after it) is reported in [`FrameScan::torn_tail`] and
/// the clean prefix returned; damage **mid-stream** (any later offset
/// decodes to a valid frame) is a hard [`PersistError::CorruptMidStream`].
///
/// # Errors
///
/// [`PersistError::CorruptMidStream`] naming both the damaged offset and
/// the offset where valid frames resume.
pub fn scan_frames(bytes: &[u8]) -> Result<FrameScan<'_>, PersistError> {
    let mut walk = frames(bytes);
    let mut valid = Vec::new();
    loop {
        let offset = walk.offset as u64;
        match walk.next() {
            None => return Ok(FrameScan { frames: valid, clean_len: offset, torn_tail: None }),
            Some(Ok(frame)) => valid.push(frame),
            Some(Err(e)) => {
                return match walk.find_map(Result::ok) {
                    Some(resync) => {
                        Err(PersistError::CorruptMidStream { offset, resync_offset: resync.offset })
                    }
                    None => Ok(FrameScan { frames: valid, clean_len: offset, torn_tail: Some(e) }),
                };
            }
        }
    }
}

/// The `(offset, total_len)` of every frame-shaped region in `bytes`,
/// walking leniently past damage. Fault injectors use this to address
/// "frame #k" in a file without trusting it to be fully clean.
#[must_use]
pub fn frame_offsets(bytes: &[u8]) -> Vec<(u64, u64)> {
    frames(bytes).filter_map(Result::ok).map(|f| (f.offset, f.len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_frames() -> Vec<u8> {
        let mut buf = encode_frame(FrameKind::JournalHeader, b"header");
        buf.extend_from_slice(&encode_frame(FrameKind::Observations, b"step zero"));
        buf
    }

    #[test]
    fn roundtrip_single_frame() {
        let buf = encode_frame(FrameKind::Snapshot, b"payload bytes");
        let frame = decode_frame_at(&buf, 0).unwrap();
        assert_eq!(frame.kind, FrameKind::Snapshot as u8);
        assert_eq!(frame.payload, b"payload bytes");
        assert_eq!(frame.len as usize, buf.len());
    }

    #[test]
    fn scan_walks_concatenated_frames() {
        let buf = two_frames();
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.clean_len as usize, buf.len());
        assert!(scan.torn_tail.is_none());
        assert_eq!(frame_offsets(&buf).len(), 2);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let mut buf = two_frames();
        let cut = buf.len() - 5;
        buf.truncate(cut);
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.torn_tail, Some(PersistError::TruncatedFrame { .. })));
    }

    #[test]
    fn bit_flip_in_last_frame_is_a_tail_condition() {
        let mut buf = two_frames();
        let n = buf.len();
        buf[n - 6] ^= 0x40; // payload of the final frame
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert!(matches!(scan.torn_tail, Some(PersistError::ChecksumMismatch { .. })));
    }

    #[test]
    fn bit_flip_mid_stream_is_fatal() {
        let mut buf = two_frames();
        buf[HEADER_LEN + 2] ^= 0x01; // payload of the first frame
        let err = scan_frames(&buf).unwrap_err();
        match err {
            PersistError::CorruptMidStream { offset, resync_offset } => {
                assert_eq!(offset, 0);
                assert!(resync_offset > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_bump_detected() {
        let mut buf = encode_frame(FrameKind::Snapshot, b"x");
        buf[4] = 2;
        // Recompute the checksum so only the version differs.
        let body_len = buf.len() - TRAILER_LEN;
        let crc = crc32::crc32(&buf[..body_len]).to_le_bytes();
        buf[body_len..].copy_from_slice(&crc);
        let err = decode_frame_at(&buf, 0).unwrap_err();
        assert_eq!(err, PersistError::UnsupportedVersion { offset: 0, version: 2 });
    }

    #[test]
    fn bad_magic_detected() {
        let mut buf = encode_frame(FrameKind::Snapshot, b"x");
        buf[0] = b'X';
        assert_eq!(decode_frame_at(&buf, 0).unwrap_err(), PersistError::BadMagic { offset: 0 });
    }

    #[test]
    fn oversized_length_field_is_rejected_before_sizing() {
        let mut buf = two_frames();
        let second = decode_frame_at(&buf, 0).unwrap().len as usize;
        buf[second + 8..second + HEADER_LEN].copy_from_slice(&u32::MAX.to_le_bytes());
        reseal(&mut buf[second..]);
        assert_eq!(
            decode_frame_at(&buf, second as u64).unwrap_err(),
            PersistError::OversizedPayload { offset: second as u64, len: u32::MAX }
        );
        let scan = scan_frames(&buf).unwrap();
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.clean_len, second as u64);
        assert!(matches!(scan.torn_tail, Some(PersistError::OversizedPayload { .. })));
        // The cap is the container's: the same header is accepted up to it.
        assert_eq!(
            STATE.decode_header(&buf[second..]),
            Err(FrameError::OversizedPayload { len: u32::MAX })
        );
        buf[second + 8..second + HEADER_LEN].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
        assert_eq!(
            STATE.decode_header(&buf[second..]),
            Ok((FrameKind::Observations as u8, MAX_PAYLOAD))
        );
    }

    #[test]
    fn open_seal_matches_encode() {
        let mut buf = vec![0xAA];
        let start = STATE.open(&mut buf, FrameKind::Observations as u8);
        put_u64(&mut buf, 7);
        put_f64s(&mut buf, &[1.5, -0.0]);
        seal(&mut buf, start);
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        payload.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        assert_eq!(buf[1..], encode_frame(FrameKind::Observations, &payload)[..]);
    }

    #[test]
    fn cursor_reads_are_bounds_checked() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 3);
        put_f64(&mut bytes, 2.5);
        let mut r = Cursor::new(&bytes);
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.f64s(2), Err(PayloadError { pos: 4, what: "payload ends early" }));
        assert_eq!(r.f64s(usize::MAX), Err(PayloadError { pos: 4, what: "payload ends early" }));
        assert_eq!(r.finish(), Err(PayloadError { pos: 4, what: "trailing payload bytes" }));
        assert_eq!(r.f64s(1), Ok(vec![2.5]));
        assert_eq!(r.u8(), Err(PayloadError { pos: 12, what: "payload ends early" }));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.err("x").at(40), PersistError::BadPayload { offset: 40, what: "x" });
    }

    #[test]
    fn frame_kind_codec() {
        for kind in [
            FrameKind::Snapshot,
            FrameKind::JournalHeader,
            FrameKind::Observations,
            FrameKind::ScalarSnapshot,
        ] {
            assert_eq!(FrameKind::from_u8(kind as u8), Some(kind));
        }
        assert_eq!(FrameKind::from_u8(0), None);
        assert_eq!(FrameKind::from_u8(99), None);
    }

    #[test]
    fn empty_file_scans_clean() {
        let scan = scan_frames(&[]).unwrap();
        assert!(scan.frames.is_empty());
        assert!(scan.torn_tail.is_none());
        assert_eq!(scan.clean_len, 0);
    }
}
