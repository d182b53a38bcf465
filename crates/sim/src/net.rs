//! The one frame codec, plus the fleet's handshake messages and
//! deadline-carrying TCP streams.
//!
//! Every worker link speaks length-prefixed JSON frames: a local pool
//! seat over a child's stdin/stdout, and a fleet seat over TCP. A pipe is
//! a trusted transport where the only failure modes are EOF and a crashed
//! peer; TCP adds failure modes a pipe never has: a peer that vanishes
//! mid-frame, a partition that silences the stream while both ends live,
//! and bytes that were corrupted (or hostile) in flight. This module
//! gives the frame codec teeth for that environment:
//!
//! * [`FrameError`] — a typed decode error. The length prefix is capped
//!   *before* any allocation ([`FrameError::Oversized`]), so a corrupted
//!   or attacker-controlled prefix can never drive an unbounded
//!   pre-allocation; truncation and garbage are distinguished from plain
//!   I/O failure so callers can count and classify.
//! * [`read_frame`] / [`write_frame`] — the codec itself, generic over
//!   `Read`/`Write` so the same functions serve pipes and sockets.
//! * [`Hello`] / [`Welcome`] — the registration handshake. A dialing
//!   pool proves protocol version and build fingerprint before the
//!   worker daemon accepts cells; a mismatched peer is refused with a
//!   reason rather than fed frames it may misinterpret.
//! * [`NetFault`] — the injectable network failures (`drop`, `partition`,
//!   `slowlink`, `truncframe`) the fleet realizes at its transport layer
//!   so every recovery path is drill-testable deterministically.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use fdip_types::Json;

/// Upper bound on one frame, on pipes and sockets alike. A run request
/// (config + workload) is a few KiB and a reply smaller still; anything
/// larger means a desynchronized, corrupted, or hostile stream.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Fleet wire-protocol version; bump on any incompatible frame change so
/// a mixed-version fleet refuses to pair instead of mis-decoding.
pub const PROTOCOL_VERSION: u64 = 1;

/// The build fingerprint exchanged during registration. Cells are keyed
/// by the config's `Debug` fingerprint and results are reused verbatim,
/// so a supervisor must never accept stats from a worker built from a
/// different simulator: crate version changes cover that (the workspace
/// versions move together), and the journal schema version guards the
/// stats encoding itself.
///
/// A non-empty `FDIP_FLEET_TAG` environment variable is appended to the
/// fingerprint, segregating clusters that must not pair (and giving
/// drift-refusal drills a deterministic lever: restart a daemon with a
/// different tag and every re-handshake is refused by name).
pub fn build_fingerprint() -> String {
    let mut fingerprint = format!(
        "fdip-sim {} proto {PROTOCOL_VERSION} journal {}",
        env!("CARGO_PKG_VERSION"),
        crate::journal::JOURNAL_SCHEMA_VERSION
    );
    if let Ok(tag) = std::env::var("FDIP_FLEET_TAG") {
        if !tag.is_empty() {
            fingerprint.push_str(" tag ");
            fingerprint.push_str(&tag);
        }
    }
    fingerprint
}

/// Why a frame could not be decoded from the stream.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix claimed more than [`MAX_FRAME_BYTES`]. Detected
    /// before any buffer is sized from it, so a corrupt or hostile prefix
    /// costs a closed connection, never an allocation.
    Oversized {
        /// The length the prefix claimed.
        len: usize,
        /// The cap it exceeded.
        max: usize,
    },
    /// The stream ended inside a frame (torn prefix or short body).
    Truncated,
    /// The frame arrived whole but its body was not valid JSON text.
    Garbage(String),
    /// The underlying transport failed (includes read timeouts, which
    /// callers poll for via [`FrameError::is_timeout`]).
    Io(io::Error),
}

impl FrameError {
    /// Whether this is a read-deadline expiry rather than a dead peer —
    /// the poll tick the fleet's liveness loop is built on.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame length {len} exceeds the {max} byte cap")
            }
            FrameError::Truncated => write!(f, "stream ended inside a frame"),
            FrameError::Garbage(detail) => write!(f, "undecodable frame: {detail}"),
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Io(io) => io,
            FrameError::Truncated => io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()),
            FrameError::Oversized { .. } | FrameError::Garbage(_) => {
                io::Error::new(io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Writes `doc` as one length-prefixed frame and flushes.
///
/// # Errors
///
/// Propagates I/O errors; rejects frames over [`MAX_FRAME_BYTES`].
pub fn write_frame(writer: &mut impl Write, doc: &Json) -> io::Result<()> {
    let body = doc.to_string();
    if body.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_BYTES} cap",
                body.len()
            ),
        ));
    }
    let len = body.len() as u32;
    writer.write_all(&len.to_be_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Reads one frame. `Ok(None)` is a clean EOF *at a frame boundary* (the
/// peer closed between messages — the orderly shutdown signal); EOF
/// mid-frame is [`FrameError::Truncated`].
///
/// The length prefix is validated against [`MAX_FRAME_BYTES`] before the
/// body buffer is allocated, so no input can size an allocation.
///
/// # Errors
///
/// [`FrameError`] as documented per variant; a read deadline on the
/// underlying stream surfaces as `Io` with `is_timeout() == true`.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Json>, FrameError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0usize;
    while filled < len_buf.len() {
        let n = reader.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(FrameError::Truncated);
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut body = vec![0u8; len];
    if let Err(e) = reader.read_exact(&mut body) {
        return Err(if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        });
    }
    let text = std::str::from_utf8(&body)
        .map_err(|e| FrameError::Garbage(format!("non-UTF-8 body: {e}")))?;
    Json::parse(text)
        .map(Some)
        .map_err(|e| FrameError::Garbage(format!("bad JSON: {e}")))
}

/// The supervisor's opening frame on a fresh connection: who it is built
/// as, so the worker daemon can refuse a mismatched peer up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// The dialer's [`PROTOCOL_VERSION`].
    pub protocol: u64,
    /// The dialer's [`build_fingerprint`].
    pub fingerprint: String,
}

impl Hello {
    /// This build's hello.
    pub fn current() -> Hello {
        Hello {
            protocol: PROTOCOL_VERSION,
            fingerprint: build_fingerprint(),
        }
    }

    /// Encodes the handshake frame.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("op", Json::str("hello")),
            ("protocol", Json::uint(self.protocol)),
            ("fingerprint", Json::str(&self.fingerprint)),
        ])
    }

    /// Decodes a handshake frame.
    pub fn from_json(doc: &Json) -> Option<Hello> {
        if doc.get("op")?.as_str()? != "hello" {
            return None;
        }
        Some(Hello {
            protocol: doc.get("protocol")?.as_u64()?,
            fingerprint: doc.get("fingerprint")?.as_str()?.to_string(),
        })
    }
}

/// The worker daemon's answer to a [`Hello`]: registration accepted (with
/// the daemon's cell-slot count) or refused with a reason.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Welcome {
    /// Handshake accepted; the daemon will serve cells on this connection.
    Accepted {
        /// Concurrent cell slots the daemon offers (the dialer opens one
        /// connection per slot).
        slots: usize,
    },
    /// Handshake refused (version/fingerprint mismatch, or draining).
    Refused {
        /// Human-readable refusal reason.
        reason: String,
    },
}

impl Welcome {
    /// Encodes the handshake answer.
    pub fn to_json(&self) -> Json {
        match self {
            Welcome::Accepted { slots } => Json::obj([
                ("op", Json::str("welcome")),
                ("slots", Json::uint(*slots as u64)),
            ]),
            Welcome::Refused { reason } => {
                Json::obj([("op", Json::str("reject")), ("reason", Json::str(reason))])
            }
        }
    }

    /// Decodes a handshake answer.
    pub fn from_json(doc: &Json) -> Option<Welcome> {
        match doc.get("op")?.as_str()? {
            "welcome" => Some(Welcome::Accepted {
                slots: usize::try_from(doc.get("slots")?.as_u64()?).ok()?,
            }),
            "reject" => Some(Welcome::Refused {
                reason: doc.get("reason")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

/// The drain notice a worker daemon sends before closing an idle
/// connection: "orderly goodbye", so the dialer retires the slot without
/// charging a node loss.
pub fn bye_frame() -> Json {
    Json::obj([("op", Json::str("bye"))])
}

/// Whether `doc` is a drain notice.
pub fn is_bye(doc: &Json) -> bool {
    doc.get("op").and_then(Json::as_str) == Some("bye")
}

/// A deterministic network fault the fleet transport realizes while
/// dispatching one cell (see the `drop`/`partition`/`slowlink`/
/// `truncframe` kinds in [`crate::fault::FaultPlan`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Sever the connection instead of dispatching — a node dying the
    /// instant it was picked.
    Drop,
    /// Dispatch, then receive nothing (heartbeats included) — a network
    /// partition with both ends alive. Recovery is the heartbeat-loss
    /// path.
    Partition,
    /// Delay the dispatch by this long — a congested or lossy link.
    Slowlink(Duration),
    /// Send a truncated, garbage-bytes frame instead of the request —
    /// corruption in flight. The worker daemon must reject it and the
    /// dialer must recover by re-dispatching.
    TruncFrame,
}

/// Dials `addr` with `timeout` applied to the connect *and* installed as
/// the stream's read/write deadline — every fleet I/O is bounded, so a
/// silent peer can stall a dispatch by at most one deadline, never
/// forever.
///
/// # Errors
///
/// Resolution and connection failures, or an address that resolves to
/// nothing.
pub fn connect(addr: &str, timeout: Duration) -> io::Result<TcpStream> {
    let mut last = io::Error::new(
        io::ErrorKind::InvalidInput,
        format!("{addr}: no usable socket address"),
    );
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                stream.set_read_timeout(Some(timeout))?;
                stream.set_write_timeout(Some(timeout))?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(doc: &Json) -> Json {
        let mut buf = Vec::new();
        write_frame(&mut buf, doc).unwrap();
        read_frame(&mut buf.as_slice()).unwrap().unwrap()
    }

    #[test]
    fn handshake_frames_round_trip() {
        let hello = Hello::current();
        assert_eq!(hello.protocol, PROTOCOL_VERSION);
        assert_eq!(Hello::from_json(&roundtrip(&hello.to_json())), Some(hello));

        for welcome in [
            Welcome::Accepted { slots: 3 },
            Welcome::Refused {
                reason: "protocol 99 != 1".to_string(),
            },
        ] {
            assert_eq!(
                Welcome::from_json(&roundtrip(&welcome.to_json())),
                Some(welcome)
            );
        }
        assert!(is_bye(&roundtrip(&bye_frame())));
        assert!(!is_bye(&Hello::current().to_json()));
        assert_eq!(Hello::from_json(&bye_frame()), None);
        assert_eq!(Welcome::from_json(&bye_frame()), None);
    }

    #[test]
    fn oversized_length_prefix_is_typed_and_never_allocated() {
        // A 4 GiB claim must come back as Oversized without any attempt
        // to buffer it — the body bytes are absent and irrelevant.
        let mut stream: &[u8] = &u32::MAX.to_be_bytes();
        match read_frame(&mut stream) {
            Err(FrameError::Oversized { len, max }) => {
                assert_eq!(len, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_BYTES);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
        // One past the cap still trips it; the cap itself does not.
        let over = (MAX_FRAME_BYTES as u32 + 1).to_be_bytes();
        assert!(matches!(
            read_frame(&mut &over[..]),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_at_every_byte_is_typed() {
        // Mirrors the trace-codec truncation sweeps: a valid frame cut at
        // any interior byte is Truncated — never a panic, never a bogus
        // document, never a misclassified I/O error.
        let mut full = Vec::new();
        write_frame(&mut full, &Hello::current().to_json()).unwrap();
        for cut in 1..full.len() {
            let mut stream = &full[..cut];
            match read_frame(&mut stream) {
                Err(FrameError::Truncated) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
        // Cut at zero is the clean-EOF boundary.
        assert!(read_frame(&mut &full[..0]).unwrap().is_none());
    }

    #[test]
    fn garbage_bodies_are_rejected_not_trusted() {
        for body in [
            &b"not json at all"[..],
            b"{\"op\": ",
            b"\xff\xfe\xfd\xfc",
            b"[1, 2",
        ] {
            let mut stream = Vec::new();
            stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
            stream.extend_from_slice(body);
            match read_frame(&mut stream.as_slice()) {
                Err(FrameError::Garbage(_)) => {}
                other => panic!("{body:?}: expected Garbage, got {other:?}"),
            }
        }
    }

    #[test]
    fn frame_errors_convert_to_io_and_display() {
        let over = FrameError::Oversized { len: 99, max: 10 };
        assert!(over.to_string().contains("99"));
        assert_eq!(io::Error::from(over).kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            io::Error::from(FrameError::Truncated).kind(),
            io::ErrorKind::UnexpectedEof
        );
        let timeout = FrameError::Io(io::Error::new(io::ErrorKind::WouldBlock, "deadline"));
        assert!(timeout.is_timeout());
        assert!(!FrameError::Truncated.is_timeout());
    }

    #[test]
    fn fingerprint_names_the_protocol_and_schema() {
        let fp = build_fingerprint();
        assert!(fp.contains("proto 1"), "{fp}");
        assert!(fp.contains("journal"), "{fp}");
    }
}
