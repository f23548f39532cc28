//! The `fleetd` wire protocol: length-prefixed, CRC-framed binary
//! messages over a byte stream.
//!
//! Every message is one frame of the shared container described in
//! [`fleetstate::format`] (layout table there), with its own magic
//! `FLTD` and payload cap [`MAX_PAYLOAD`] so a message and a journal or
//! snapshot frame can never be confused. Request kinds live in
//! `[1, 63]`, reply kinds in `[64, 127]`, so a stray reply can never
//! parse as a request. The decoder is total: arbitrary bytes produce a
//! typed, offset-carrying [`WireError`] — never a panic, never an
//! unbounded allocation (the payload length is checked against
//! [`MAX_PAYLOAD`] *before* any buffer is sized).

use fleetstate::format::{
    put_f64, put_f64s, put_u32, put_u64, read_payload, Container, Cursor, FrameError, PayloadError,
};
use fleetstate::state::{decode_config, encode_config};
use fleetstate::FleetConfig;
use skirental::batch::VertexKind;
use std::io::{Read, Write};

pub use fleetstate::format::{HEADER_LEN, TRAILER_LEN, VERSION};

/// The four magic bytes opening every protocol frame.
pub const MAGIC: [u8; 4] = *b"FLTD";

/// Hard cap on a frame's payload: a 4096-step block for a 262k-vehicle
/// fleet still fits, while a crafted length field cannot demand an
/// absurd allocation.
pub const MAX_PAYLOAD: u32 = 1 << 26;

/// The protocol's frame container.
const WIRE: Container = Container { magic: MAGIC, max_payload: MAX_PAYLOAD };

/// Cap on string fields (client names, error messages).
const MAX_STRING: u32 = 1 << 16;

/// Why decoding a frame or payload failed. Every variant names the byte
/// offset (within the frame buffer handed to the decoder) at which the
/// problem was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the frame does.
    Truncated {
        /// Offset where more bytes were needed.
        offset: u64,
        /// Bytes the frame claims to need from offset 0.
        needed: u64,
        /// Bytes actually available.
        available: u64,
    },
    /// The first four bytes are not the protocol magic.
    BadMagic {
        /// Offset of the expected magic (always 0 for a frame decode).
        offset: u64,
    },
    /// A frame from a different protocol version.
    UnsupportedVersion {
        /// Offset of the version field.
        offset: u64,
        /// The version the header claims.
        version: u16,
    },
    /// The payload length field exceeds [`MAX_PAYLOAD`].
    OversizedPayload {
        /// Offset of the length field.
        offset: u64,
        /// The length the header claims.
        len: u32,
    },
    /// The frame's CRC-32 does not match its contents.
    ChecksumMismatch {
        /// Offset of the stored checksum.
        offset: u64,
        /// The checksum stored in the frame.
        stored: u32,
        /// The checksum computed over the frame's bytes.
        computed: u32,
    },
    /// A structurally valid frame whose kind byte is not a message this
    /// decoder accepts.
    UnknownKind {
        /// Offset of the kind byte.
        offset: u64,
        /// The kind byte the header carries.
        kind: u8,
    },
    /// A CRC-valid frame whose payload does not decode.
    BadPayload {
        /// Offset (within the frame) where decoding failed.
        offset: u64,
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated { offset, needed, available } => write!(
                f,
                "truncated frame at offset {offset}: needs {needed} bytes, {available} available"
            ),
            Self::BadMagic { offset } => write!(f, "bad magic at offset {offset}"),
            Self::UnsupportedVersion { offset, version } => {
                write!(f, "unsupported protocol version {version} at offset {offset}")
            }
            Self::OversizedPayload { offset, len } => {
                write!(f, "oversized payload length {len} at offset {offset}")
            }
            Self::ChecksumMismatch { offset, stored, computed } => write!(
                f,
                "checksum mismatch at offset {offset}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::UnknownKind { offset, kind } => {
                write!(f, "unknown message kind {kind} at offset {offset}")
            }
            Self::BadPayload { offset, what } => {
                write!(f, "bad payload at offset {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Truncated { needed, available } => {
                Self::Truncated { offset: available, needed, available }
            }
            FrameError::BadMagic => Self::BadMagic { offset: 0 },
            FrameError::UnsupportedVersion { version } => {
                Self::UnsupportedVersion { offset: 4, version }
            }
            FrameError::OversizedPayload { len } => Self::OversizedPayload { offset: 8, len },
            FrameError::ChecksumMismatch { offset, stored, computed } => {
                Self::ChecksumMismatch { offset, stored, computed }
            }
        }
    }
}

impl From<PayloadError> for WireError {
    fn from(e: PayloadError) -> Self {
        Self::BadPayload { offset: e.pos, what: e.what }
    }
}

/// Appends `s` with a `u32` length prefix, cut to at most [`MAX_STRING`]
/// bytes at a char boundary so the result is still UTF-8.
fn put_string(out: &mut Vec<u8>, s: &str) {
    let mut end = s.len().min(MAX_STRING as usize);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    put_u32(out, end as u32);
    out.extend_from_slice(&s.as_bytes()[..end]);
}

/// Appends `s` with a `u32` length prefix and no length cap.
fn put_text(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn read_string(r: &mut Cursor<'_>) -> Result<String, PayloadError> {
    let len = r.u32()?;
    if len > MAX_STRING {
        return Err(r.err("string too long"));
    }
    let bytes = r.take(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| r.err("string is not UTF-8"))
}

/// Reads a [`put_text`] field; a non-UTF-8 body is reported at `offset`.
fn read_text(r: &mut Cursor<'_>, offset: u64, what: &'static str) -> Result<String, WireError> {
    let len = r.u32()?;
    let bytes = r.take(len as usize)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload { offset, what })
}

// ---------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------

/// A client → daemon message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: identify the client, learn the fleet configuration and
    /// current step.
    Hello {
        /// A short client name (for session trace events).
        name: String,
    },
    /// Ingest a block of observations, time-major: `rows[t][lane]` is
    /// lane `lane`'s stop duration at step `first_step + t`. Answered
    /// with [`Reply::Decisions`], [`Reply::Busy`] (backpressure), or
    /// [`Reply::Error`].
    Submit {
        /// The step the client believes the block starts at
        /// (`u64::MAX` = don't check). The daemon rejects a mismatch so
        /// a resumed client can't silently double-feed.
        first_step: u64,
        /// The observation rows.
        rows: Vec<Vec<f64>>,
    },
    /// Serving statistics. Answered with [`Reply::Stats`].
    Stats,
    /// The complete fleet state ([`fleetstate::encode_fleet_state`]
    /// bytes) — the byte-comparison oracle drills use. Answered with
    /// [`Reply::State`].
    ExportState,
    /// Switch this connection into an event tail: the daemon pushes
    /// [`Reply::Events`] frames (never `last`) until the connection
    /// closes. No further requests are read.
    Subscribe,
    /// Replay the complete journal through a fresh engine, regenerating
    /// the canonical event history of the whole session. Answered with a
    /// sequence of [`Reply::Events`] frames, the final one marked
    /// `last`.
    ReplayEvents,
    /// Take a snapshot now. Answered with [`Reply::Ack`].
    Snapshot,
    /// The daemon's telemetry page (Prometheus text exposition:
    /// per-stage latency histograms, health gauges). Answered with
    /// [`Reply::Telemetry`].
    Telemetry,
    /// Gracefully stop the daemon. Answered with [`Reply::Ack`], then
    /// the daemon exits.
    Shutdown,
}

/// Serving statistics carried by [`Reply::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsInfo {
    /// Steps processed per lane so far.
    pub step: u64,
    /// Vehicles in the fleet.
    pub lanes: u32,
    /// Ingest blocks currently queued.
    pub queue_depth: u32,
    /// Ingest queue capacity (blocks).
    pub queue_capacity: u32,
    /// Connections accepted so far.
    pub connections: u32,
    /// Live event subscribers.
    pub subscribers: u32,
    /// Submits rejected with [`Reply::Busy`] so far.
    pub busy_rejections: u64,
    /// Blocks ingested so far.
    pub blocks_ingested: u64,
    /// Journal frames written so far.
    pub journal_frames: u64,
    /// Total online cost across the fleet.
    pub online_total: f64,
    /// Total offline (clairvoyant) cost across the fleet.
    pub offline_total: f64,
}

/// A daemon → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake answer: the fleet configuration, the current step, and
    /// the id the daemon assigned this client (its session trace events
    /// ride stream `meta_stream + 1 + client_id`).
    HelloAck {
        /// The daemon's fleet configuration.
        config: FleetConfig,
        /// Steps processed per lane so far.
        step: u64,
        /// This connection's client id.
        client_id: u64,
    },
    /// The decisions for a submitted block, lane-major: index
    /// `lane * steps + t` holds lane `lane`'s decision at block-relative
    /// step `t`.
    Decisions {
        /// First step the block covered.
        first_step: u64,
        /// Steps in the block.
        steps: u32,
        /// Lanes in the fleet.
        lanes: u32,
        /// Idle-threshold decisions, seconds (`+inf` = never restart).
        thresholds: Vec<f64>,
        /// The vertex each decision came from.
        vertices: Vec<VertexKind>,
    },
    /// Explicit backpressure: the ingest queue is full, nothing was
    /// journaled or processed — resubmit later.
    Busy {
        /// Blocks queued at rejection time.
        queued: u32,
        /// The queue's capacity.
        capacity: u32,
    },
    /// Serving statistics.
    Stats(StatsInfo),
    /// The complete fleet state, [`fleetstate::encode_fleet_state`]
    /// bytes.
    State(Vec<u8>),
    /// A batch of trace events as canonical JSONL (one record per
    /// line). Subscribe tails never set `last`; replay answers end with
    /// `last = true`.
    Events {
        /// Whether this is the final frame of a replay answer.
        last: bool,
        /// Canonical JSONL, possibly empty.
        jsonl: String,
    },
    /// Command acknowledged.
    Ack {
        /// Human-readable detail (e.g. the snapshot step).
        info: String,
    },
    /// The daemon's telemetry page.
    Telemetry {
        /// Prometheus text exposition ([`obsv::telemetry::render`]
        /// output; parse with [`obsv::telemetry::parse`]).
        text: String,
    },
    /// The request failed; nothing changed.
    Error {
        /// What went wrong.
        message: String,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_SUBMIT: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_EXPORT_STATE: u8 = 4;
const KIND_SUBSCRIBE: u8 = 5;
const KIND_REPLAY_EVENTS: u8 = 6;
const KIND_SNAPSHOT: u8 = 7;
const KIND_SHUTDOWN: u8 = 8;
const KIND_TELEMETRY: u8 = 9;

const KIND_HELLO_ACK: u8 = 64;
const KIND_DECISIONS: u8 = 65;
const KIND_BUSY: u8 = 66;
const KIND_STATS_REPLY: u8 = 67;
const KIND_STATE: u8 = 68;
const KIND_EVENTS: u8 = 69;
const KIND_ACK: u8 = 70;
const KIND_ERROR: u8 = 71;
const KIND_TELEMETRY_REPLY: u8 = 72;

impl Request {
    fn kind(&self) -> u8 {
        match self {
            Self::Hello { .. } => KIND_HELLO,
            Self::Submit { .. } => KIND_SUBMIT,
            Self::Stats => KIND_STATS,
            Self::ExportState => KIND_EXPORT_STATE,
            Self::Subscribe => KIND_SUBSCRIBE,
            Self::ReplayEvents => KIND_REPLAY_EVENTS,
            Self::Snapshot => KIND_SNAPSHOT,
            Self::Telemetry => KIND_TELEMETRY,
            Self::Shutdown => KIND_SHUTDOWN,
        }
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::Hello { name } => put_string(out, name),
            Self::Submit { first_step, rows } => {
                put_u64(out, *first_step);
                put_u32(out, rows.len() as u32);
                put_u32(out, rows.first().map_or(0, |r| r.len() as u32));
                for row in rows {
                    put_f64s(out, row);
                }
            }
            Self::Stats
            | Self::ExportState
            | Self::Subscribe
            | Self::ReplayEvents
            | Self::Snapshot
            | Self::Telemetry
            | Self::Shutdown => {}
        }
    }

    fn read_payload(kind: u8, r: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(match kind {
            KIND_HELLO => Self::Hello { name: read_string(r)? },
            KIND_SUBMIT => {
                let first_step = r.u64()?;
                let steps = r.u32()? as usize;
                let lanes = r.u32()? as usize;
                let cells = steps
                    .checked_mul(lanes)
                    .and_then(|c| c.checked_mul(8))
                    .ok_or(r.err("block size overflow"))?;
                if cells != r.remaining() {
                    return Err(r.err("block size does not match payload length").into());
                }
                let rows = (0..steps).map(|_| r.f64s(lanes)).collect::<Result<_, _>>()?;
                Self::Submit { first_step, rows }
            }
            KIND_STATS => Self::Stats,
            KIND_EXPORT_STATE => Self::ExportState,
            KIND_SUBSCRIBE => Self::Subscribe,
            KIND_REPLAY_EVENTS => Self::ReplayEvents,
            KIND_SNAPSHOT => Self::Snapshot,
            KIND_TELEMETRY => Self::Telemetry,
            KIND_SHUTDOWN => Self::Shutdown,
            other => return Err(WireError::UnknownKind { offset: 6, kind: other }),
        })
    }
}

impl Reply {
    fn kind(&self) -> u8 {
        match self {
            Self::HelloAck { .. } => KIND_HELLO_ACK,
            Self::Decisions { .. } => KIND_DECISIONS,
            Self::Busy { .. } => KIND_BUSY,
            Self::Stats(_) => KIND_STATS_REPLY,
            Self::State(_) => KIND_STATE,
            Self::Events { .. } => KIND_EVENTS,
            Self::Ack { .. } => KIND_ACK,
            Self::Error { .. } => KIND_ERROR,
            Self::Telemetry { .. } => KIND_TELEMETRY_REPLY,
        }
    }

    fn write_payload(&self, out: &mut Vec<u8>) {
        match self {
            Self::HelloAck { config, step, client_id } => {
                encode_config(out, config);
                put_u64(out, *step);
                put_u64(out, *client_id);
            }
            Self::Decisions { first_step, steps, lanes, thresholds, vertices } => {
                put_u64(out, *first_step);
                put_u32(out, *steps);
                put_u32(out, *lanes);
                put_f64s(out, thresholds);
                out.extend(vertices.iter().map(|&v| v as u8));
            }
            Self::Busy { queued, capacity } => {
                put_u32(out, *queued);
                put_u32(out, *capacity);
            }
            Self::Stats(s) => {
                put_u64(out, s.step);
                put_u32(out, s.lanes);
                put_u32(out, s.queue_depth);
                put_u32(out, s.queue_capacity);
                put_u32(out, s.connections);
                put_u32(out, s.subscribers);
                put_u64(out, s.busy_rejections);
                put_u64(out, s.blocks_ingested);
                put_u64(out, s.journal_frames);
                put_f64(out, s.online_total);
                put_f64(out, s.offline_total);
            }
            Self::State(bytes) => out.extend_from_slice(bytes),
            Self::Events { last, jsonl } => {
                out.push(u8::from(*last));
                put_text(out, jsonl);
            }
            Self::Ack { info } => put_string(out, info),
            Self::Error { message } => put_string(out, message),
            // A full exposition page can exceed the short-string cap, so
            // it rides as length-prefixed raw bytes like `Events`.
            Self::Telemetry { text } => put_text(out, text),
        }
    }

    fn read_payload(kind: u8, r: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(match kind {
            KIND_HELLO_ACK => {
                Self::HelloAck { config: decode_config(r)?, step: r.u64()?, client_id: r.u64()? }
            }
            KIND_DECISIONS => {
                let first_step = r.u64()?;
                let steps = r.u32()?;
                let lanes = r.u32()?;
                let cells = (steps as usize)
                    .checked_mul(lanes as usize)
                    .ok_or(r.err("decision count overflow"))?;
                if cells.checked_mul(9).ok_or(r.err("decision count overflow"))? != r.remaining() {
                    return Err(r.err("decision count does not match payload length").into());
                }
                let thresholds = r.f64s(cells)?;
                let mut vertices = Vec::with_capacity(cells);
                for _ in 0..cells {
                    let code = r.u8()?;
                    vertices.push(
                        VertexKind::from_u8(code).ok_or(r.err("unknown vertex discriminant"))?,
                    );
                }
                Self::Decisions { first_step, steps, lanes, thresholds, vertices }
            }
            KIND_BUSY => Self::Busy { queued: r.u32()?, capacity: r.u32()? },
            KIND_STATS_REPLY => Self::Stats(StatsInfo {
                step: r.u64()?,
                lanes: r.u32()?,
                queue_depth: r.u32()?,
                queue_capacity: r.u32()?,
                connections: r.u32()?,
                subscribers: r.u32()?,
                busy_rejections: r.u64()?,
                blocks_ingested: r.u64()?,
                journal_frames: r.u64()?,
                online_total: r.f64()?,
                offline_total: r.f64()?,
            }),
            KIND_STATE => Self::State(r.take(r.remaining())?.to_vec()),
            KIND_EVENTS => {
                let last = match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(r.err("last flag is not 0 or 1").into()),
                };
                Self::Events { last, jsonl: read_text(r, 5, "jsonl is not UTF-8")? }
            }
            KIND_ACK => Self::Ack { info: read_string(r)? },
            KIND_ERROR => Self::Error { message: read_string(r)? },
            KIND_TELEMETRY_REPLY => Self::Telemetry { text: read_text(r, 4, "text is not UTF-8")? },
            other => return Err(WireError::UnknownKind { offset: 6, kind: other }),
        })
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Decodes the frame header alone: `(kind, payload_len)`. Used by stream
/// readers to learn how many more bytes to read before the full frame
/// can be verified.
///
/// # Errors
///
/// [`WireError::Truncated`], [`WireError::BadMagic`],
/// [`WireError::UnsupportedVersion`], or [`WireError::OversizedPayload`].
pub fn decode_header(bytes: &[u8]) -> Result<(u8, u32), WireError> {
    Ok(WIRE.decode_header(bytes)?)
}

/// Verifies a complete frame buffer (header + payload + checksum) and
/// returns `(kind, payload)`.
///
/// # Errors
///
/// Any [`decode_header`] error, [`WireError::Truncated`] if the buffer
/// is shorter than the frame, or [`WireError::ChecksumMismatch`].
pub fn decode_frame(bytes: &[u8]) -> Result<(u8, &[u8]), WireError> {
    Ok(WIRE.decode(bytes)?)
}

/// Encodes a request as one frame.
#[must_use]
pub fn encode_request(req: &Request) -> Vec<u8> {
    WIRE.encode(req.kind(), |out| req.write_payload(out))
}

/// Decodes a complete request frame.
///
/// # Errors
///
/// Any [`decode_frame`] error, [`WireError::UnknownKind`], or
/// [`WireError::BadPayload`].
pub fn decode_request(bytes: &[u8]) -> Result<Request, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    read_payload(payload, |r| Request::read_payload(kind, r))
}

/// Encodes a reply as one frame.
#[must_use]
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    WIRE.encode(reply.kind(), |out| reply.write_payload(out))
}

/// Decodes a complete reply frame.
///
/// # Errors
///
/// Any [`decode_frame`] error, [`WireError::UnknownKind`], or
/// [`WireError::BadPayload`].
pub fn decode_reply(bytes: &[u8]) -> Result<Reply, WireError> {
    let (kind, payload) = decode_frame(bytes)?;
    read_payload(payload, |r| Reply::read_payload(kind, r))
}

// ---------------------------------------------------------------------
// Stream I/O.
// ---------------------------------------------------------------------

/// Reads one complete frame from a stream: header first (to size the
/// rest), then payload + checksum. Returns the whole frame buffer;
/// `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// `std::io::Error` on transport failure; a [`WireError`] from the
/// header (wrapped as `InvalidData`) aborts before reading the body, so
/// garbage cannot make the reader wait for gigabytes.
pub fn read_frame<R: Read>(stream: &mut R) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        let n = stream.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
        got += n;
    }
    let (_, len) = decode_header(&header)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let mut frame = vec![0u8; HEADER_LEN + len as usize + TRAILER_LEN];
    frame[..HEADER_LEN].copy_from_slice(&header);
    stream.read_exact(&mut frame[HEADER_LEN..])?;
    Ok(Some(frame))
}

/// Writes one already-encoded frame to a stream and flushes it.
///
/// # Errors
///
/// `std::io::Error` on transport failure.
pub fn write_frame<W: Write>(stream: &mut W, frame: &[u8]) -> std::io::Result<()> {
    stream.write_all(frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Hello { name: "drill".to_string() },
            Request::Submit {
                first_step: 7,
                rows: vec![vec![1.0, 2.5, f64::INFINITY], vec![0.0, 4.25, 9.75]],
            },
            Request::Submit { first_step: u64::MAX, rows: Vec::new() },
            Request::Stats,
            Request::ExportState,
            Request::Subscribe,
            Request::ReplayEvents,
            Request::Snapshot,
            Request::Telemetry,
            Request::Shutdown,
        ]
    }

    fn sample_replies() -> Vec<Reply> {
        let config = FleetConfig {
            lanes: 3,
            break_even: 28.0,
            window: Some(8),
            min_history: 4,
            seed: 99,
            trace_stream_base: 1000,
        };
        vec![
            Reply::HelloAck { config, step: 41, client_id: 2 },
            Reply::Decisions {
                first_step: 41,
                steps: 2,
                lanes: 3,
                thresholds: vec![28.0, f64::INFINITY, 0.0, 1.5, 2.5, 3.5],
                vertices: vec![
                    VertexKind::ColdStart,
                    VertexKind::Det,
                    VertexKind::Toi,
                    VertexKind::BDet,
                    VertexKind::NRand,
                    VertexKind::Det,
                ],
            },
            Reply::Busy { queued: 8, capacity: 8 },
            Reply::Stats(StatsInfo {
                step: 41,
                lanes: 3,
                queue_depth: 1,
                queue_capacity: 8,
                connections: 4,
                subscribers: 1,
                busy_rejections: 2,
                blocks_ingested: 20,
                journal_frames: 41,
                online_total: 123.5,
                offline_total: 100.25,
            }),
            Reply::State(vec![1, 2, 3, 250]),
            Reply::Events { last: true, jsonl: "{\"a\":1}\n".to_string() },
            Reply::Events { last: false, jsonl: String::new() },
            Reply::Ack { info: "snapshot at step 41".to_string() },
            Reply::Error { message: "step mismatch".to_string() },
            Reply::Telemetry {
                text: "# TYPE fleetd_queue_depth gauge\nfleetd_queue_depth 3\n".to_string(),
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn reply_roundtrip() {
        for reply in sample_replies() {
            let frame = encode_reply(&reply);
            assert_eq!(decode_reply(&frame).unwrap(), reply, "{reply:?}");
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_typed() {
        let frame = encode_request(&Request::Submit {
            first_step: 3,
            rows: vec![vec![1.0, 2.0], vec![3.0, 4.0]],
        });
        for cut in 0..frame.len() {
            let err = decode_request(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. }),
                "cut {cut}: expected Truncated, got {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let frame = encode_reply(&Reply::Busy { queued: 1, capacity: 2 });
        // Payload flip → checksum mismatch.
        let mut bad = frame.clone();
        bad[HEADER_LEN] ^= 0x10;
        assert!(matches!(decode_reply(&bad), Err(WireError::ChecksumMismatch { .. })));
        // Magic flip → bad magic before anything else.
        let mut bad = frame.clone();
        bad[0] ^= 0x01;
        assert!(matches!(decode_reply(&bad), Err(WireError::BadMagic { offset: 0 })));
        // Version flip → unsupported version.
        let mut bad = frame;
        bad[4] = 9;
        assert!(matches!(
            decode_reply(&bad),
            Err(WireError::UnsupportedVersion { version: 9, .. })
        ));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = encode_request(&Request::Stats);
        frame[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&frame),
            Err(WireError::OversizedPayload { len: u32::MAX, .. })
        ));
    }

    #[test]
    fn request_reply_kind_spaces_disjoint() {
        let frame = encode_reply(&Reply::Ack { info: String::new() });
        assert!(matches!(decode_request(&frame), Err(WireError::UnknownKind { .. })));
        let frame = encode_request(&Request::Stats);
        assert!(matches!(decode_reply(&frame), Err(WireError::UnknownKind { .. })));
    }

    #[test]
    fn stream_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&Request::Hello { name: "x".into() })).unwrap();
        write_frame(&mut buf, &encode_request(&Request::Stats)).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let f1 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&f1).unwrap(), Request::Hello { name: "x".into() });
        let f2 = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&f2).unwrap(), Request::Stats);
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn long_strings_are_cut_at_a_char_boundary() {
        // 30 000 three-byte chars: byte 65 536 falls inside a char.
        let name = "€".repeat(30_000);
        let back = decode_request(&encode_request(&Request::Hello { name: name.clone() }));
        let Ok(Request::Hello { name: cut }) = back else { panic!("{back:?}") };
        assert_eq!(cut.len(), 65_535);
        assert!(name.starts_with(&cut));
        let message = format!("x{}", "€".repeat(30_000));
        let back = decode_reply(&encode_reply(&Reply::Error { message })).unwrap();
        assert!(matches!(back, Reply::Error { message } if message.len() == MAX_STRING as usize));
    }

    #[test]
    fn journal_snapshot_and_wire_frames_never_cross() {
        use fleetstate::format::{encode_frame, FrameKind};
        let config = FleetConfig {
            lanes: 1,
            break_even: 28.0,
            window: None,
            min_history: 2,
            seed: 1,
            trace_stream_base: 0,
        };
        let mut header = Vec::new();
        encode_config(&mut header, &config);
        let snapshot = fleetstate::FleetState {
            config,
            step: 0,
            lanes: vec![fleetstate::LaneSnapshot {
                lane: skirental::batch::LaneState {
                    count: 0,
                    short_sum: 0.0,
                    sum_sq: 0.0,
                    long_count: 0,
                    head: 0,
                    ring: Vec::new(),
                },
                rng_key: 0,
                rng_ctr: 0,
                online: 0.0,
                offline: 0.0,
            }],
        };
        let snapshot =
            encode_frame(FrameKind::Snapshot, &fleetstate::encode_fleet_state(&snapshot));
        assert_eq!(fleetstate::scan_snapshots(&snapshot, &config).states.len(), 1);
        // State frames are not messages...
        for frame in [encode_frame(FrameKind::JournalHeader, &header), snapshot] {
            assert_eq!(decode_request(&frame), Err(WireError::BadMagic { offset: 0 }));
            assert_eq!(decode_reply(&frame), Err(WireError::BadMagic { offset: 0 }));
        }
        // ...and messages are neither journals nor snapshots.
        let hello = encode_reply(&Reply::HelloAck { config, step: 0, client_id: 0 });
        assert_eq!(
            fleetstate::parse_journal(&hello),
            Err(fleetstate::PersistError::MissingJournalHeader)
        );
        let scan = fleetstate::scan_snapshots(&hello, &config);
        assert!(scan.states.is_empty());
        assert_eq!(scan.rejected, 1);
    }

    #[test]
    fn mid_frame_eof_is_unexpected_eof() {
        let frame = encode_request(&Request::Stats);
        let mut cursor = std::io::Cursor::new(frame[..5].to_vec());
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
