//! The payload grammar: typed requests/responses and their binary
//! codecs.
//!
//! Every frame payload starts with one tag byte; all integers are
//! little-endian, all reals are IEEE-754 `f64` in little-endian byte
//! order. The full frame layout table lives in the [crate docs](crate).
//!
//! Decoding is total: any byte string either parses into a
//! [`Request`]/[`Response`] or yields a typed [`ProtocolError`] — no
//! panics, no unchecked allocations (declared element counts are
//! validated against the bytes actually present *before* any buffer is
//! sized, so a 12-byte frame cannot ask for a 4-billion-point vector).

use sinr_core::{ChannelModel, Located, Network, NetworkError, StationId, SurgeryOp, WireError};
use sinr_geometry::Point;

/// Request tags (client → server).
const TAG_BIND: u8 = 0x01;
const TAG_LOCATE_BATCH: u8 = 0x02;
const TAG_SINR_BATCH: u8 = 0x03;
const TAG_MUTATE: u8 = 0x04;
const TAG_RECEPTION_PROB_BATCH: u8 = 0x05;
const TAG_REGISTER: u8 = 0x06;
const TAG_ATTACH: u8 = 0x07;
const TAG_SINR_QUANTILES_BATCH: u8 = 0x08;
const TAG_HEATMAP_BATCH: u8 = 0x09;
const TAG_UNREGISTER: u8 = 0x0A;

/// Response tags (server → client).
const TAG_BOUND: u8 = 0x81;
const TAG_LOCATED: u8 = 0x82;
const TAG_SINRS: u8 = 0x83;
const TAG_MUTATED: u8 = 0x84;
const TAG_RECEPTION_PROBS: u8 = 0x85;
const TAG_REGISTERED: u8 = 0x86;
const TAG_ATTACHED: u8 = 0x87;
const TAG_SINR_QUANTILES: u8 = 0x88;
const TAG_HEATMAP: u8 = 0x89;
const TAG_UNREGISTERED: u8 = 0x8A;
const TAG_ERROR: u8 = 0xEE;

/// Bounds on a named network's name (wire: length byte + UTF-8 bytes).
pub const MAX_NETWORK_NAME_LEN: usize = 255;

/// Atom tags of the [`ChannelModel`] wire encoding (one byte each).
const CHANNEL_DETERMINISTIC: u8 = 0;
const CHANNEL_LOG_NORMAL: u8 = 1;
const CHANNEL_RAYLEIGH: u8 = 2;
const CHANNEL_FIXED_GAINS: u8 = 3;
const CHANNEL_COMPOSED: u8 = 4;

/// Run kinds of the run-length-encoded `Located` answer stream.
const RUN_RECEPTION: u8 = 0;
const RUN_UNCERTAIN: u8 = 1;
const RUN_SILENT: u8 = 2;

/// The backend a session binds, as named on the wire (one byte).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// `0` — [`sinr_core::ExactScan`]: exact for every network.
    ExactScan,
    /// `1` — [`sinr_core::SimdScan`]: the vectorized exact scan.
    SimdScan,
    /// `2` — [`sinr_core::VoronoiAssisted`]: weighted kd-tree dispatch
    /// for every power assignment — nearest-station (Observation 2.2)
    /// under uniform power, power-diagram cells otherwise.
    VoronoiAssisted,
    /// `3` — the Theorem-3 `PointLocator` of `sinr-pointloc`:
    /// `O(log n)` queries, may answer [`Located::Uncertain`]; requires
    /// uniform power, `α = 2`, `β > 1`.
    Qds,
}

impl BackendId {
    /// Every backend, in wire-id order.
    pub const ALL: [BackendId; 4] = [
        BackendId::ExactScan,
        BackendId::SimdScan,
        BackendId::VoronoiAssisted,
        BackendId::Qds,
    ];

    /// The wire byte.
    pub fn to_wire(self) -> u8 {
        match self {
            BackendId::ExactScan => 0,
            BackendId::SimdScan => 1,
            BackendId::VoronoiAssisted => 2,
            BackendId::Qds => 3,
        }
    }

    /// Parses the wire byte.
    pub fn from_wire(b: u8) -> Option<BackendId> {
        BackendId::ALL.into_iter().find(|id| id.to_wire() == b)
    }

    /// The stable textual name (`exact_scan`, `simd_scan`,
    /// `voronoi_assisted`, `qds`).
    pub fn name(self) -> &'static str {
        match self {
            BackendId::ExactScan => "exact_scan",
            BackendId::SimdScan => "simd_scan",
            BackendId::VoronoiAssisted => "voronoi_assisted",
            BackendId::Qds => "qds",
        }
    }

    /// Parses the textual name (the CLI/config-file spelling).
    pub fn from_name(s: &str) -> Option<BackendId> {
        BackendId::ALL.into_iter().find(|id| id.name() == s)
    }
}

impl std::fmt::Display for BackendId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A network description as carried by a `Bind` frame: enough to
/// reconstruct a [`Network`] server-side (validation stays with
/// [`Network`]'s builder — the wire layer does not re-model it).
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkSpec {
    /// Background noise `N`.
    pub noise: f64,
    /// Reception threshold `β`.
    pub beta: f64,
    /// Path-loss exponent `α`.
    pub alpha: f64,
    /// Stations as `(position, transmit power)`, in index order.
    pub stations: Vec<(Point, f64)>,
}

impl NetworkSpec {
    /// The spec describing `net`'s current state.
    pub fn of(net: &Network) -> NetworkSpec {
        NetworkSpec {
            noise: net.noise(),
            beta: net.beta(),
            alpha: net.alpha(),
            stations: net.stations().map(|s| (s.position, s.power)).collect(),
        }
    }

    /// Builds the described network.
    ///
    /// # Errors
    ///
    /// Whatever [`Network`]'s builder rejects (too few stations,
    /// non-finite coordinates, invalid noise/threshold/power/path-loss).
    pub fn build(&self) -> Result<Network, NetworkError> {
        let mut b = Network::builder()
            .background_noise(self.noise)
            .threshold(self.beta)
            .path_loss(self.alpha);
        for (p, power) in &self.stations {
            b = b.station_with_power(*p, *power);
        }
        b.build()
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Binds the session: the network to serve and the backend to serve
    /// it with. Must be the first frame; exactly one per session.
    Bind {
        /// The backend to build.
        backend: BackendId,
        /// Approximation parameter for [`BackendId::Qds`] (ignored by
        /// the exact backends).
        epsilon: f64,
        /// The network to serve.
        network: NetworkSpec,
    },
    /// A batch of point-location queries.
    LocateBatch {
        /// The query points.
        points: Vec<Point>,
    },
    /// A batch of SINR evaluations for one station.
    SinrBatch {
        /// The station whose SINR is sampled.
        station: StationId,
        /// The sample points.
        points: Vec<Point>,
    },
    /// A timestep of network surgery, revision-fenced: the server
    /// rejects the frame unless its network is exactly at
    /// `expected_revision` (so a delta computed against another
    /// revision can never be applied silently).
    Mutate {
        /// The revision the ops were computed against.
        expected_revision: u64,
        /// The surgery ops, applied in order via
        /// [`Network::apply_ops`].
        ops: Vec<SurgeryOp>,
    },
    /// A batch of seeded Monte-Carlo reception-probability queries
    /// under a stochastic [`ChannelModel`]
    /// ([`sinr_core::QueryEngine::reception_probability_batch`]).
    /// Fully replayable: the same `(trials, seed, channel, points)`
    /// against the same network revision answers bit-identically on
    /// every conforming server.
    ReceptionProbBatch {
        /// Monte-Carlo trial count (`1..=`[`sinr_core::channel::MAX_TRIALS`]).
        trials: u32,
        /// The base RNG seed; see the channel module's seeding contract.
        seed: u64,
        /// The stochastic channel to sample.
        channel: ChannelModel,
        /// The query points.
        points: Vec<Point>,
    },
    /// Publishes a network under a server-wide name so that any number
    /// of sessions can [`Request::Attach`] to it and share one engine
    /// snapshot per (backend, revision) — the registry path, as opposed
    /// to [`Request::Bind`]'s private-engine path. Works in any session
    /// state (registering does not bind the registering session).
    Register {
        /// The registry name (1–[`MAX_NETWORK_NAME_LEN`] UTF-8 bytes).
        name: String,
        /// The network to publish.
        network: NetworkSpec,
    },
    /// Attaches the session to a registered network: queries are served
    /// from the shared [`sinr_core::EngineSnapshot`] current at each
    /// request, and `Mutate` publishes a new snapshot every attached
    /// session observes at its next revision fence.
    Attach {
        /// The name the network was registered under.
        name: String,
        /// The backend to serve it with (shared with every other
        /// session attached via the same backend and epsilon).
        backend: BackendId,
        /// Approximation parameter for [`BackendId::Qds`] (ignored by
        /// the exact backends).
        epsilon: f64,
    },
    /// A batch of seeded Monte-Carlo SINR-distribution queries for one
    /// station ([`sinr_core::QueryEngine::sinr_quantiles_batch`]): for
    /// each point, the requested quantiles (nearest-rank over `trials`
    /// sampled SINR values) of station `station`'s SINR under the
    /// channel. Replayable like [`Request::ReceptionProbBatch`].
    SinrQuantilesBatch {
        /// The station whose SINR distribution is sampled.
        station: StationId,
        /// Monte-Carlo trial count.
        trials: u32,
        /// The base RNG seed.
        seed: u64,
        /// The stochastic channel to sample.
        channel: ChannelModel,
        /// The quantiles to report, each in `[0, 1]`.
        quantiles: Vec<f64>,
        /// The query points.
        points: Vec<Point>,
    },
    /// A reception-map raster over a window: the server labels every
    /// pixel centre of a `width × height` grid (row-major, bottom row
    /// first) and streams the labels back run-length encoded
    /// ([`Response::Heatmap`]). Served from both Private and Attached
    /// sessions; the server renders hierarchically (quadtree refinement
    /// over interval certificates) but the pixels are bit-identical to
    /// a dense per-pixel evaluation on the same backend.
    HeatmapBatch {
        /// Window minimum corner (finite; strictly below `max` on both
        /// axes).
        min: Point,
        /// Window maximum corner.
        max: Point,
        /// Raster width in pixels (`≥ 1`).
        width: u32,
        /// Raster height in pixels (`≥ 1`).
        height: u32,
    },
    /// Removes a network from the server-wide registry. Fails with
    /// [`ErrorCode::StillAttached`] while any session is attached to it
    /// (detach by unbinding/closing those sessions first); succeeds
    /// idempotently from any session, bound or not.
    Unregister {
        /// The name the network was registered under.
        name: String,
    },
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The session is bound and ready.
    Bound {
        /// The served network's revision (0 for a fresh bind).
        revision: u64,
        /// The backend actually built.
        backend: BackendId,
    },
    /// Answers to a `LocateBatch`, index-aligned with the request
    /// points (run-length encoded on the wire).
    Located {
        /// The revision the answers are valid for.
        revision: u64,
        /// One answer per query point.
        answers: Vec<Located>,
    },
    /// Answers to a `SinrBatch`.
    Sinrs {
        /// The revision the values are valid for.
        revision: u64,
        /// One SINR value per sample point.
        values: Vec<f64>,
    },
    /// A `Mutate` was applied in full.
    Mutated {
        /// The network's revision after the whole timestep.
        revision: u64,
        /// Number of ops applied.
        applied: u32,
    },
    /// Answers to a `ReceptionProbBatch`, index-aligned with the
    /// request points.
    ReceptionProbs {
        /// The revision the probabilities are valid for.
        revision: u64,
        /// One reception probability (in `[0, 1]`) per query point.
        values: Vec<f64>,
    },
    /// The network is registered ([`Request::Register`]).
    Registered {
        /// The registered network's starting revision.
        revision: u64,
    },
    /// The session is attached to a registered network
    /// ([`Request::Attach`]).
    Attached {
        /// The revision of the snapshot the session will observe next.
        revision: u64,
        /// The backend serving the shared snapshots.
        backend: BackendId,
    },
    /// Answers to a `SinrQuantilesBatch`.
    SinrQuantiles {
        /// The revision the values are valid for.
        revision: u64,
        /// Number of quantiles per point (the row width of `values`).
        quantiles: u32,
        /// Row-major: `values[k * quantiles + q]` is quantile `q` of
        /// point `k`.
        values: Vec<f64>,
    },
    /// Answers to a `HeatmapBatch`: one label per pixel, row-major
    /// bottom-first, run-length encoded on the wire (zones are
    /// contiguous, so rasters compress extremely well).
    Heatmap {
        /// The revision the raster is valid for.
        revision: u64,
        /// Raster width in pixels (echoes the request).
        width: u32,
        /// Raster height in pixels (echoes the request).
        height: u32,
        /// How many pixels the server actually evaluated per-point
        /// (the rest were resolved wholesale from interval
        /// certificates) — observability only, answers never depend on
        /// it.
        cells_evaluated: u64,
        /// One answer per pixel (`width · height` of them):
        /// `Reception`/`Silent` labels; `Uncertain` never occurs (the
        /// raster projection folds it into `Silent` server-side).
        cells: Vec<Located>,
    },
    /// The network was removed from the registry
    /// ([`Request::Unregister`]).
    Unregistered,
    /// The request failed; the session stays usable unless the
    /// [`ErrorCode`] docs say otherwise.
    Error {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail (the underlying typed error's
        /// `Display` output).
        message: String,
    },
}

/// Error codes of [`Response::Error`] (one byte on the wire).
///
/// Unless noted, the error is *per-request*: the session survives and
/// the next frame is processed normally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// `1` — the frame payload did not parse; the offending frame is
    /// dropped (frame boundaries are intact, the session continues).
    MalformedFrame,
    /// `2` — `Bind` named an unknown backend id.
    UnknownBackend,
    /// `3` — a query/mutate frame arrived before a successful `Bind`.
    NotBound,
    /// `4` — a second `Bind` on an already-bound session.
    AlreadyBound,
    /// `5` — the `Bind` network failed [`Network`] validation.
    InvalidNetwork,
    /// `6` — the backend refused the network (e.g. the Theorem-3
    /// preconditions).
    BackendBuild,
    /// `7` — `Mutate`'s `expected_revision` does not match the session
    /// network (ops computed against a foreign/stale revision). Nothing
    /// was applied.
    RevisionMismatch,
    /// `8` — a surgery op failed validation mid-timestep; the ops
    /// before it **stay applied** (the message carries the failing
    /// index) and the engine is re-synced to the resulting revision.
    Surgery,
    /// `9` — `SinrBatch` named a station the network does not have.
    StationOutOfRange,
    /// `10` — the engine reported staleness at query time
    /// ([`sinr_core::LocateError`]); re-sync and retry.
    Stale,
    /// `11` — a frame length prefix exceeded
    /// [`MAX_FRAME_LEN`](crate::transport::MAX_FRAME_LEN); the stream
    /// position is unrecoverable, the server closes the connection
    /// after sending this.
    Oversized,
    /// `12` — after a mutate, the bound backend cannot represent the
    /// new network (e.g. QDS and non-uniform power); the session is
    /// **unbound** (subsequent queries get [`ErrorCode::NotBound`]).
    Unsupported,
    /// `13` — the server caught an unexpected panic while handling the
    /// frame; it closes the connection after sending this.
    Internal,
    /// `14` — the bound backend does not implement stochastic channels
    /// ([`sinr_core::ChannelError::Unsupported`]); like
    /// [`ErrorCode::Unsupported`], the session is **unbound**
    /// (subsequent queries get [`ErrorCode::NotBound`]).
    ChannelUnsupported,
    /// `15` — the `ReceptionProbBatch` channel spec or Monte-Carlo
    /// config failed [`ChannelModel`] validation (bad `σ`, wrong gain
    /// vector length, zero trials, …). Per-request: the session
    /// survives.
    InvalidChannel,
    /// `16` — `Register` named a network that already exists in the
    /// registry. Per-request: the session survives (and may `Attach` to
    /// the existing network instead).
    NameTaken,
    /// `17` — `Attach` named a network the registry does not have, or
    /// the network a session was attached to can no longer be served by
    /// its backend (the shared store was poisoned by a mutation — the
    /// session is then **detached**, like [`ErrorCode::Unsupported`]).
    UnknownNetwork,
    /// `18` — `Unregister` named a network that sessions are still
    /// attached to; nothing was removed. Per-request: the session
    /// survives (retry once the attached sessions detach or close).
    StillAttached,
    /// `19` — the server is at its configured connection cap
    /// ([`ServerConfig::max_connections`](crate::server::ServerConfig))
    /// and shed this connection at accept time: **no frame was
    /// processed**, the server closes the connection after sending
    /// this. Always safe to retry after a backoff —
    /// [`ResilientClient`](crate::resilient::ResilientClient) does so
    /// automatically.
    Overloaded,
}

impl ErrorCode {
    /// Every code, in wire order.
    pub const ALL: [ErrorCode; 19] = [
        ErrorCode::MalformedFrame,
        ErrorCode::UnknownBackend,
        ErrorCode::NotBound,
        ErrorCode::AlreadyBound,
        ErrorCode::InvalidNetwork,
        ErrorCode::BackendBuild,
        ErrorCode::RevisionMismatch,
        ErrorCode::Surgery,
        ErrorCode::StationOutOfRange,
        ErrorCode::Stale,
        ErrorCode::Oversized,
        ErrorCode::Unsupported,
        ErrorCode::Internal,
        ErrorCode::ChannelUnsupported,
        ErrorCode::InvalidChannel,
        ErrorCode::NameTaken,
        ErrorCode::UnknownNetwork,
        ErrorCode::StillAttached,
        ErrorCode::Overloaded,
    ];

    /// The wire byte.
    pub fn to_wire(self) -> u8 {
        match self {
            ErrorCode::MalformedFrame => 1,
            ErrorCode::UnknownBackend => 2,
            ErrorCode::NotBound => 3,
            ErrorCode::AlreadyBound => 4,
            ErrorCode::InvalidNetwork => 5,
            ErrorCode::BackendBuild => 6,
            ErrorCode::RevisionMismatch => 7,
            ErrorCode::Surgery => 8,
            ErrorCode::StationOutOfRange => 9,
            ErrorCode::Stale => 10,
            ErrorCode::Oversized => 11,
            ErrorCode::Unsupported => 12,
            ErrorCode::Internal => 13,
            ErrorCode::ChannelUnsupported => 14,
            ErrorCode::InvalidChannel => 15,
            ErrorCode::NameTaken => 16,
            ErrorCode::UnknownNetwork => 17,
            ErrorCode::StillAttached => 18,
            ErrorCode::Overloaded => 19,
        }
    }

    /// Parses the wire byte.
    pub fn from_wire(b: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.to_wire() == b)
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}({})", self, self.to_wire())
    }
}

/// Why a frame payload failed to decode.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// The payload was empty (no tag byte).
    EmptyFrame,
    /// The tag byte names no known frame type.
    UnknownTag(u8),
    /// A field ran past the end of the payload, or a declared element
    /// count promised more bytes than the payload holds.
    Truncated {
        /// Which field was being read.
        what: &'static str,
        /// How many more bytes it needed.
        missing: usize,
    },
    /// The payload continued past the end of the frame's fields.
    Trailing {
        /// How many bytes were left over.
        extra: usize,
    },
    /// `Bind` carried an unknown backend byte.
    UnknownBackend(u8),
    /// An `Error` response carried an unknown code byte.
    UnknownErrorCode(u8),
    /// A `Located` run carried an unknown kind byte.
    UnknownRunKind(u8),
    /// The `Located` runs did not sum to the declared answer count.
    RunLengthMismatch {
        /// The declared total.
        declared: u64,
        /// What the runs actually summed to.
        decoded: u64,
    },
    /// A `Located` response declared more answers than any legal
    /// request could have asked for. Run-length coding means the byte
    /// budget cannot bound this count (one 9-byte run can claim 2³²
    /// answers), so it gets its own explicit cap.
    AnswerCountTooLarge {
        /// The declared total.
        declared: u64,
        /// The cap ([`MAX_FRAME_LEN`](crate::transport::MAX_FRAME_LEN)
        /// divided by the 16-byte wire size of a query point).
        limit: u64,
    },
    /// An `Error` response message was not UTF-8.
    BadMessageEncoding,
    /// A surgery op inside `Mutate` failed to decode.
    Op(WireError),
    /// A `ReceptionProbBatch` channel atom carried an unknown tag byte.
    UnknownChannelTag(u8),
    /// A `ReceptionProbBatch` channel nested a `Composed` atom inside
    /// another `Composed` — the model family is flat by construction
    /// ([`ChannelModel::validate`] rejects it), so the wire grammar
    /// rejects it too rather than decode an always-invalid value.
    NestedChannelCompose,
    /// A `Register`/`Attach` network name was structurally invalid:
    /// empty, or not UTF-8 (the length bound is enforced by the 1-byte
    /// wire length itself).
    InvalidName(&'static str),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::EmptyFrame => write!(f, "empty frame payload"),
            ProtocolError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            ProtocolError::Truncated { what, missing } => {
                write!(
                    f,
                    "frame truncated reading {what}: {missing} more bytes needed"
                )
            }
            ProtocolError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after the frame's fields")
            }
            ProtocolError::UnknownBackend(b) => write!(f, "unknown backend id {b}"),
            ProtocolError::UnknownErrorCode(b) => write!(f, "unknown error code {b}"),
            ProtocolError::UnknownRunKind(b) => write!(f, "unknown Located run kind {b}"),
            ProtocolError::RunLengthMismatch { declared, decoded } => write!(
                f,
                "Located runs sum to {decoded} answers but {declared} were declared"
            ),
            ProtocolError::AnswerCountTooLarge { declared, limit } => write!(
                f,
                "Located declares {declared} answers but no request can ask for more than {limit}"
            ),
            ProtocolError::BadMessageEncoding => write!(f, "error message is not UTF-8"),
            ProtocolError::Op(e) => write!(f, "bad surgery op: {e}"),
            ProtocolError::UnknownChannelTag(b) => write!(f, "unknown channel atom tag {b}"),
            ProtocolError::NestedChannelCompose => {
                write!(f, "Composed channel atom nested inside another Composed")
            }
            ProtocolError::InvalidName(reason) => {
                write!(f, "invalid network name: {reason}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Op(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Op(e)
    }
}

/// Bounded sequential reader over a frame payload.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtocolError> {
        if self.remaining() < n {
            return Err(ProtocolError::Truncated {
                what,
                missing: n - self.remaining(),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2"),
        ))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4"),
        ))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8"),
        ))
    }

    fn point(&mut self, what: &'static str) -> Result<Point, ProtocolError> {
        Ok(Point::new(self.f64(what)?, self.f64(what)?))
    }

    /// A declared element count, pre-validated against the bytes left:
    /// `count · elem_size` must fit in what remains, so adversarial
    /// counts can never drive an allocation past the frame itself.
    fn count(&mut self, elem_size: usize, what: &'static str) -> Result<usize, ProtocolError> {
        let n = self.u32(what)? as usize;
        let need = n.saturating_mul(elem_size);
        if need > self.remaining() {
            return Err(ProtocolError::Truncated {
                what,
                missing: need - self.remaining(),
            });
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), ProtocolError> {
        if self.remaining() != 0 {
            return Err(ProtocolError::Trailing {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn push_point(buf: &mut Vec<u8>, p: Point) {
    buf.extend_from_slice(&p.x.to_le_bytes());
    buf.extend_from_slice(&p.y.to_le_bytes());
}

/// Pixel cap on a heatmap grid (16 Mi pixels — a 4096×4096 raster).
///
/// This bounds the *dense* cost of a heatmap on both sides of the wire
/// — the raster the session rasterises and the `Located` vector the
/// client materialises on decode — independently of how small the
/// run-length encoding turns out. Whether the *encoded* response fits a
/// frame is a separate check the session makes against the real run
/// count ([`collect_runs`]): a near-uniform 2048² map is a few KB of runs
/// and round-trips fine, while a worst-case checkerboard of the same
/// size is refused as oversized only because it genuinely is.
pub const MAX_HEATMAP_PIXELS: u64 = 16 * 1024 * 1024;

/// Run-length encodes a `Located` stream (shared by `Located` and
/// `Heatmap` responses): each run is a kind byte, a station id, and a
/// length — 9 bytes for any stretch of identical answers.
fn push_runs(buf: &mut Vec<u8>, answers: &[Located]) {
    let mut i = 0;
    while i < answers.len() {
        let mut j = i + 1;
        while j < answers.len() && answers[j] == answers[i] {
            j += 1;
        }
        let (kind, station) = match answers[i] {
            Located::Reception(s) => (RUN_RECEPTION, s.0 as u32),
            Located::Uncertain(s) => (RUN_UNCERTAIN, s.0 as u32),
            Located::Silent => (RUN_SILENT, 0),
        };
        buf.push(kind);
        buf.extend_from_slice(&station.to_le_bytes());
        buf.extend_from_slice(&((j - i) as u32).to_le_bytes());
        i = j;
    }
}

/// Collects `answers` (reserving `capacity`) and counts, in the same
/// pass, the runs [`push_runs`] will emit for them — the exact encoded
/// length is `9 × runs` bytes. Lets the session check a response's real
/// wire size against the frame limit *before* encoding (and refuse with
/// a typed error instead of dying on `send_frame`'s length check)
/// without a second pass over a megapixel raster.
pub(crate) fn collect_runs(
    answers: impl IntoIterator<Item = Located>,
    capacity: usize,
) -> (Vec<Located>, usize) {
    let mut out = Vec::with_capacity(capacity);
    let mut runs = 0;
    for answer in answers {
        if out.last() != Some(&answer) {
            runs += 1;
        }
        out.push(answer);
    }
    (out, runs)
}

/// Decodes exactly `total` run-length encoded answers. The caller must
/// have bounded `total` already (run-length coding sidesteps the
/// bytes-present bound `Cursor::count` gives other collections).
fn decode_runs(c: &mut Cursor<'_>, total: u64) -> Result<Vec<Located>, ProtocolError> {
    let mut answers = Vec::new();
    let mut decoded: u64 = 0;
    while decoded < total {
        let kind = c.u8("run kind")?;
        let station = c.u32("run station")? as usize;
        let len = c.u32("run length")? as u64;
        let answer = match kind {
            RUN_RECEPTION => Located::Reception(StationId(station)),
            RUN_UNCERTAIN => Located::Uncertain(StationId(station)),
            RUN_SILENT => Located::Silent,
            other => return Err(ProtocolError::UnknownRunKind(other)),
        };
        decoded = decoded.saturating_add(len);
        if len == 0 || decoded > total {
            return Err(ProtocolError::RunLengthMismatch {
                declared: total,
                decoded,
            });
        }
        answers.extend(std::iter::repeat_n(answer, len as usize));
    }
    Ok(answers)
}

/// Encodes a registry name: a length byte, then that many UTF-8 bytes.
/// Callers (the typed [`Request`] constructors) are trusted to stay
/// within [`MAX_NETWORK_NAME_LEN`]; longer names are truncated at a
/// char boundary rather than silently corrupting the frame.
fn push_name(buf: &mut Vec<u8>, name: &str) {
    let mut len = name.len().min(MAX_NETWORK_NAME_LEN);
    while !name.is_char_boundary(len) {
        len -= 1;
    }
    buf.push(len as u8);
    buf.extend_from_slice(&name.as_bytes()[..len]);
}

fn push_spec(buf: &mut Vec<u8>, network: &NetworkSpec) {
    buf.extend_from_slice(&network.noise.to_le_bytes());
    buf.extend_from_slice(&network.beta.to_le_bytes());
    buf.extend_from_slice(&network.alpha.to_le_bytes());
    buf.extend_from_slice(&(network.stations.len() as u32).to_le_bytes());
    for (p, power) in &network.stations {
        push_point(buf, *p);
        buf.extend_from_slice(&power.to_le_bytes());
    }
}

fn decode_name(c: &mut Cursor<'_>) -> Result<String, ProtocolError> {
    let len = c.u8("name length")? as usize;
    if len == 0 {
        return Err(ProtocolError::InvalidName("empty name"));
    }
    let raw = c.take(len, "name bytes")?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| ProtocolError::InvalidName("not UTF-8"))
}

fn decode_spec(c: &mut Cursor<'_>) -> Result<NetworkSpec, ProtocolError> {
    let noise = c.f64("noise")?;
    let beta = c.f64("beta")?;
    let alpha = c.f64("alpha")?;
    let n = c.count(24, "station count")?;
    let mut stations = Vec::with_capacity(n);
    for _ in 0..n {
        let p = c.point("station position")?;
        let power = c.f64("station power")?;
        stations.push((p, power));
    }
    Ok(NetworkSpec {
        noise,
        beta,
        alpha,
        stations,
    })
}

/// Encodes one channel atom (recursing once for `Composed`): a tag
/// byte, then the atom's parameters.
fn encode_channel(buf: &mut Vec<u8>, model: &ChannelModel) {
    match model {
        ChannelModel::Deterministic => buf.push(CHANNEL_DETERMINISTIC),
        ChannelModel::LogNormalShadowing { sigma_db } => {
            buf.push(CHANNEL_LOG_NORMAL);
            buf.extend_from_slice(&sigma_db.to_le_bytes());
        }
        ChannelModel::RayleighFading => buf.push(CHANNEL_RAYLEIGH),
        ChannelModel::FixedGains { gains } => {
            buf.push(CHANNEL_FIXED_GAINS);
            buf.extend_from_slice(&(gains.len() as u32).to_le_bytes());
            for g in gains {
                buf.extend_from_slice(&g.to_le_bytes());
            }
        }
        ChannelModel::Composed(atoms) => {
            buf.push(CHANNEL_COMPOSED);
            buf.push(atoms.len() as u8);
            for atom in atoms {
                encode_channel(buf, atom);
            }
        }
    }
}

/// Decodes one channel atom. The wire grammar mirrors
/// [`ChannelModel::validate`]'s structural rule — `Composed` cannot
/// nest — so `allow_compose` is false while inside one; semantic
/// validation (finite `σ`, gain count vs the bound network, atom
/// limits) stays with the engine, surfacing as
/// [`ErrorCode::InvalidChannel`] rather than a decode failure.
fn decode_channel(c: &mut Cursor<'_>, allow_compose: bool) -> Result<ChannelModel, ProtocolError> {
    let tag = c.u8("channel atom tag")?;
    Ok(match tag {
        CHANNEL_DETERMINISTIC => ChannelModel::Deterministic,
        CHANNEL_LOG_NORMAL => ChannelModel::LogNormalShadowing {
            sigma_db: c.f64("shadowing sigma")?,
        },
        CHANNEL_RAYLEIGH => ChannelModel::RayleighFading,
        CHANNEL_FIXED_GAINS => {
            let n = c.count(8, "gain count")?;
            let mut gains = Vec::with_capacity(n);
            for _ in 0..n {
                gains.push(c.f64("gain value")?);
            }
            ChannelModel::FixedGains { gains }
        }
        CHANNEL_COMPOSED => {
            if !allow_compose {
                return Err(ProtocolError::NestedChannelCompose);
            }
            let n = c.u8("composed atom count")? as usize;
            let mut atoms = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                atoms.push(decode_channel(c, false)?);
            }
            ChannelModel::Composed(atoms)
        }
        other => return Err(ProtocolError::UnknownChannelTag(other)),
    })
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    match req {
        Request::Bind {
            backend,
            epsilon,
            network,
        } => {
            buf.push(TAG_BIND);
            buf.push(backend.to_wire());
            buf.extend_from_slice(&epsilon.to_le_bytes());
            push_spec(&mut buf, network);
        }
        Request::LocateBatch { points } => {
            buf.push(TAG_LOCATE_BATCH);
            buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for p in points {
                push_point(&mut buf, *p);
            }
        }
        Request::SinrBatch { station, points } => {
            buf.push(TAG_SINR_BATCH);
            buf.extend_from_slice(&(station.0 as u32).to_le_bytes());
            buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for p in points {
                push_point(&mut buf, *p);
            }
        }
        Request::Mutate {
            expected_revision,
            ops,
        } => {
            buf.push(TAG_MUTATE);
            buf.extend_from_slice(&expected_revision.to_le_bytes());
            buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for op in ops {
                op.encode_into(&mut buf);
            }
        }
        Request::ReceptionProbBatch {
            trials,
            seed,
            channel,
            points,
        } => {
            buf.push(TAG_RECEPTION_PROB_BATCH);
            buf.extend_from_slice(&trials.to_le_bytes());
            buf.extend_from_slice(&seed.to_le_bytes());
            encode_channel(&mut buf, channel);
            buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for p in points {
                push_point(&mut buf, *p);
            }
        }
        Request::Register { name, network } => {
            buf.push(TAG_REGISTER);
            push_name(&mut buf, name);
            push_spec(&mut buf, network);
        }
        Request::Attach {
            name,
            backend,
            epsilon,
        } => {
            buf.push(TAG_ATTACH);
            push_name(&mut buf, name);
            buf.push(backend.to_wire());
            buf.extend_from_slice(&epsilon.to_le_bytes());
        }
        Request::SinrQuantilesBatch {
            station,
            trials,
            seed,
            channel,
            quantiles,
            points,
        } => {
            buf.push(TAG_SINR_QUANTILES_BATCH);
            buf.extend_from_slice(&(station.0 as u32).to_le_bytes());
            buf.extend_from_slice(&trials.to_le_bytes());
            buf.extend_from_slice(&seed.to_le_bytes());
            encode_channel(&mut buf, channel);
            buf.extend_from_slice(&(quantiles.len() as u32).to_le_bytes());
            for q in quantiles {
                buf.extend_from_slice(&q.to_le_bytes());
            }
            buf.extend_from_slice(&(points.len() as u32).to_le_bytes());
            for p in points {
                push_point(&mut buf, *p);
            }
        }
        Request::HeatmapBatch {
            min,
            max,
            width,
            height,
        } => {
            buf.push(TAG_HEATMAP_BATCH);
            push_point(&mut buf, *min);
            push_point(&mut buf, *max);
            buf.extend_from_slice(&width.to_le_bytes());
            buf.extend_from_slice(&height.to_le_bytes());
        }
        Request::Unregister { name } => {
            buf.push(TAG_UNREGISTER);
            push_name(&mut buf, name);
        }
    }
    buf
}

/// Decodes a frame payload as a request.
///
/// # Errors
///
/// A typed [`ProtocolError`]; never panics, never over-allocates.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("frame tag").map_err(|_| ProtocolError::EmptyFrame)?;
    let req = match tag {
        TAG_BIND => {
            let backend_byte = c.u8("backend id")?;
            let backend = BackendId::from_wire(backend_byte)
                .ok_or(ProtocolError::UnknownBackend(backend_byte))?;
            let epsilon = c.f64("epsilon")?;
            let network = decode_spec(&mut c)?;
            Request::Bind {
                backend,
                epsilon,
                network,
            }
        }
        TAG_LOCATE_BATCH => {
            let n = c.count(16, "point count")?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(c.point("query point")?);
            }
            Request::LocateBatch { points }
        }
        TAG_SINR_BATCH => {
            let station = StationId(c.u32("station id")? as usize);
            let n = c.count(16, "point count")?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(c.point("sample point")?);
            }
            Request::SinrBatch { station, points }
        }
        TAG_MUTATE => {
            let expected_revision = c.u64("expected revision")?;
            // Smallest op is 5 bytes (Remove).
            let n = c.count(5, "op count")?;
            // The count bounds wire bytes, not heap bytes: an in-memory
            // op is ~6× its smallest wire form, so a full pre-allocation
            // would let a 16 MiB frame pin ~100 MB before one op
            // decodes. Cap the *hint*; the vector still grows to any
            // honest op count.
            let mut ops = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let (op, used) = SurgeryOp::decode(&c.bytes[c.pos..])?;
                c.pos += used;
                ops.push(op);
            }
            Request::Mutate {
                expected_revision,
                ops,
            }
        }
        TAG_RECEPTION_PROB_BATCH => {
            let trials = c.u32("trial count")?;
            let seed = c.u64("seed")?;
            let channel = decode_channel(&mut c, true)?;
            let n = c.count(16, "point count")?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(c.point("query point")?);
            }
            Request::ReceptionProbBatch {
                trials,
                seed,
                channel,
                points,
            }
        }
        TAG_REGISTER => {
            let name = decode_name(&mut c)?;
            let network = decode_spec(&mut c)?;
            Request::Register { name, network }
        }
        TAG_ATTACH => {
            let name = decode_name(&mut c)?;
            let backend_byte = c.u8("backend id")?;
            let backend = BackendId::from_wire(backend_byte)
                .ok_or(ProtocolError::UnknownBackend(backend_byte))?;
            let epsilon = c.f64("epsilon")?;
            Request::Attach {
                name,
                backend,
                epsilon,
            }
        }
        TAG_SINR_QUANTILES_BATCH => {
            let station = StationId(c.u32("station id")? as usize);
            let trials = c.u32("trial count")?;
            let seed = c.u64("seed")?;
            let channel = decode_channel(&mut c, true)?;
            let nq = c.count(8, "quantile count")?;
            let mut quantiles = Vec::with_capacity(nq);
            for _ in 0..nq {
                quantiles.push(c.f64("quantile value")?);
            }
            let n = c.count(16, "point count")?;
            let mut points = Vec::with_capacity(n);
            for _ in 0..n {
                points.push(c.point("query point")?);
            }
            Request::SinrQuantilesBatch {
                station,
                trials,
                seed,
                channel,
                quantiles,
                points,
            }
        }
        TAG_HEATMAP_BATCH => {
            let min = c.point("window min")?;
            let max = c.point("window max")?;
            let width = c.u32("grid width")?;
            let height = c.u32("grid height")?;
            Request::HeatmapBatch {
                min,
                max,
                width,
                height,
            }
        }
        TAG_UNREGISTER => {
            let name = decode_name(&mut c)?;
            Request::Unregister { name }
        }
        other => return Err(ProtocolError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(req)
}

/// Encodes a response into a frame payload. `Located` answers are
/// run-length encoded: long stretches of identical answers (the common
/// shape — zones are contiguous regions) compress to 9 bytes per run.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    match resp {
        Response::Bound { revision, backend } => {
            buf.push(TAG_BOUND);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.push(backend.to_wire());
        }
        Response::Located { revision, answers } => {
            buf.push(TAG_LOCATED);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&(answers.len() as u32).to_le_bytes());
            push_runs(&mut buf, answers);
        }
        Response::Sinrs { revision, values } => {
            buf.push(TAG_SINRS);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Mutated { revision, applied } => {
            buf.push(TAG_MUTATED);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&applied.to_le_bytes());
        }
        Response::ReceptionProbs { revision, values } => {
            buf.push(TAG_RECEPTION_PROBS);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Registered { revision } => {
            buf.push(TAG_REGISTERED);
            buf.extend_from_slice(&revision.to_le_bytes());
        }
        Response::Attached { revision, backend } => {
            buf.push(TAG_ATTACHED);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.push(backend.to_wire());
        }
        Response::SinrQuantiles {
            revision,
            quantiles,
            values,
        } => {
            buf.push(TAG_SINR_QUANTILES);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&quantiles.to_le_bytes());
            buf.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Heatmap {
            revision,
            width,
            height,
            cells_evaluated,
            cells,
        } => {
            buf.push(TAG_HEATMAP);
            buf.extend_from_slice(&revision.to_le_bytes());
            buf.extend_from_slice(&width.to_le_bytes());
            buf.extend_from_slice(&height.to_le_bytes());
            buf.extend_from_slice(&cells_evaluated.to_le_bytes());
            push_runs(&mut buf, cells);
        }
        Response::Unregistered => {
            buf.push(TAG_UNREGISTERED);
        }
        Response::Error { code, message } => {
            buf.push(TAG_ERROR);
            buf.push(code.to_wire());
            // Truncate oversized messages on a char boundary: cutting a
            // multi-byte character in half would make the frame fail
            // decode_response's UTF-8 check and lose the typed error.
            let mut len = message.len().min(u16::MAX as usize);
            while !message.is_char_boundary(len) {
                len -= 1;
            }
            buf.extend_from_slice(&(len as u16).to_le_bytes());
            buf.extend_from_slice(&message.as_bytes()[..len]);
        }
    }
    buf
}

/// Decodes a frame payload as a response.
///
/// # Errors
///
/// A typed [`ProtocolError`]; never panics, never over-allocates.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let mut c = Cursor::new(payload);
    let tag = c.u8("frame tag").map_err(|_| ProtocolError::EmptyFrame)?;
    let resp = match tag {
        TAG_BOUND => {
            let revision = c.u64("revision")?;
            let backend_byte = c.u8("backend id")?;
            let backend = BackendId::from_wire(backend_byte)
                .ok_or(ProtocolError::UnknownBackend(backend_byte))?;
            Response::Bound { revision, backend }
        }
        TAG_LOCATED => {
            let revision = c.u64("revision")?;
            let total = c.u32("answer count")? as u64;
            // Run-length coding breaks the bytes-present bound every
            // other collection gets from `Cursor::count` (a 9-byte run
            // can claim 2³² answers), so cap the total explicitly: no
            // legal request fits more than MAX_FRAME_LEN/16 query
            // points, so no honest response answers more.
            let limit = (crate::transport::MAX_FRAME_LEN / 16) as u64;
            if total > limit {
                return Err(ProtocolError::AnswerCountTooLarge {
                    declared: total,
                    limit,
                });
            }
            let answers = decode_runs(&mut c, total)?;
            Response::Located { revision, answers }
        }
        TAG_SINRS => {
            let revision = c.u64("revision")?;
            let n = c.count(8, "value count")?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.f64("sinr value")?);
            }
            Response::Sinrs { revision, values }
        }
        TAG_MUTATED => Response::Mutated {
            revision: c.u64("revision")?,
            applied: c.u32("applied count")?,
        },
        TAG_RECEPTION_PROBS => {
            let revision = c.u64("revision")?;
            let n = c.count(8, "probability count")?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.f64("probability value")?);
            }
            Response::ReceptionProbs { revision, values }
        }
        TAG_REGISTERED => Response::Registered {
            revision: c.u64("revision")?,
        },
        TAG_ATTACHED => {
            let revision = c.u64("revision")?;
            let backend_byte = c.u8("backend id")?;
            let backend = BackendId::from_wire(backend_byte)
                .ok_or(ProtocolError::UnknownBackend(backend_byte))?;
            Response::Attached { revision, backend }
        }
        TAG_SINR_QUANTILES => {
            let revision = c.u64("revision")?;
            let quantiles = c.u32("quantile width")?;
            let n = c.count(8, "quantile value count")?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(c.f64("quantile value")?);
            }
            Response::SinrQuantiles {
                revision,
                quantiles,
                values,
            }
        }
        TAG_HEATMAP => {
            let revision = c.u64("revision")?;
            let width = c.u32("grid width")?;
            let height = c.u32("grid height")?;
            let cells_evaluated = c.u64("cells evaluated")?;
            let total = width as u64 * height as u64;
            // Run-length coding breaks the bytes-present bound other
            // collections get from `Cursor::count` (one 9-byte run can
            // claim 2³² answers), so the dense answer count is capped
            // explicitly at the grid pixel cap the session enforces on
            // requests — the decode-side allocation bound.
            if total > MAX_HEATMAP_PIXELS {
                return Err(ProtocolError::AnswerCountTooLarge {
                    declared: total,
                    limit: MAX_HEATMAP_PIXELS,
                });
            }
            let cells = decode_runs(&mut c, total)?;
            Response::Heatmap {
                revision,
                width,
                height,
                cells_evaluated,
                cells,
            }
        }
        TAG_UNREGISTERED => Response::Unregistered,
        TAG_ERROR => {
            let code_byte = c.u8("error code")?;
            let code = ErrorCode::from_wire(code_byte)
                .ok_or(ProtocolError::UnknownErrorCode(code_byte))?;
            let len = c.u16("message length")? as usize;
            let raw = c.take(len, "message bytes")?;
            let message = std::str::from_utf8(raw)
                .map_err(|_| ProtocolError::BadMessageEncoding)?
                .to_owned();
            Response::Error { code, message }
        }
        other => return Err(ProtocolError::UnknownTag(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> NetworkSpec {
        NetworkSpec {
            noise: 0.02,
            beta: 1.5,
            alpha: 2.0,
            stations: vec![
                (Point::new(0.0, 0.0), 1.0),
                (Point::new(4.0, 0.0), 1.0),
                (Point::new(1.0, 3.0), 2.5),
            ],
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Bind {
                backend: BackendId::VoronoiAssisted,
                epsilon: 0.3,
                network: sample_spec(),
            },
            Request::LocateBatch {
                points: vec![Point::new(0.5, -0.25), Point::new(1e9, -1e-9)],
            },
            Request::SinrBatch {
                station: StationId(2),
                points: vec![Point::new(0.0, 0.0)],
            },
            Request::Mutate {
                expected_revision: 41,
                ops: vec![
                    SurgeryOp::Add {
                        position: Point::new(2.0, 2.0),
                        power: 1.0,
                    },
                    SurgeryOp::Remove { id: StationId(1) },
                    SurgeryOp::Move {
                        id: StationId(0),
                        to: Point::new(-1.0, 0.5),
                    },
                    SurgeryOp::SetPower {
                        id: StationId(2),
                        power: 0.75,
                    },
                ],
            },
            Request::LocateBatch { points: vec![] },
            Request::ReceptionProbBatch {
                trials: 256,
                seed: 0xDEAD_BEEF_F00D_u64,
                channel: ChannelModel::Deterministic,
                points: vec![Point::new(0.25, -3.0)],
            },
            Request::ReceptionProbBatch {
                trials: 1,
                seed: 0,
                channel: ChannelModel::Composed(vec![
                    ChannelModel::LogNormalShadowing { sigma_db: 4.0 },
                    ChannelModel::RayleighFading,
                    ChannelModel::FixedGains {
                        gains: vec![0.5, 1.0, 2.0],
                    },
                ]),
                points: vec![],
            },
            Request::Register {
                name: "cell-grid/région-7".into(),
                network: sample_spec(),
            },
            Request::Attach {
                name: "cell-grid/région-7".into(),
                backend: BackendId::Qds,
                epsilon: 0.25,
            },
            Request::SinrQuantilesBatch {
                station: StationId(1),
                trials: 128,
                seed: 42,
                channel: ChannelModel::RayleighFading,
                quantiles: vec![0.1, 0.5, 0.9],
                points: vec![Point::new(0.5, -0.25), Point::new(-2.0, 3.0)],
            },
            Request::HeatmapBatch {
                min: Point::new(-3.5, -1.25),
                max: Point::new(4.0, 2.75),
                width: 640,
                height: 480,
            },
            Request::Unregister {
                name: "cell-grid/région-7".into(),
            },
        ];
        for req in &reqs {
            let bytes = encode_request(req);
            assert_eq!(&decode_request(&bytes).unwrap(), req, "for {req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Bound {
                revision: 7,
                backend: BackendId::Qds,
            },
            Response::Located {
                revision: 3,
                answers: vec![
                    Located::Reception(StationId(0)),
                    Located::Reception(StationId(0)),
                    Located::Silent,
                    Located::Uncertain(StationId(4)),
                    Located::Silent,
                ],
            },
            Response::Located {
                revision: 0,
                answers: vec![],
            },
            Response::Sinrs {
                revision: 9,
                values: vec![0.5, f64::INFINITY, 0.0],
            },
            Response::Mutated {
                revision: 12,
                applied: 4,
            },
            Response::ReceptionProbs {
                revision: 5,
                values: vec![0.0, 0.5, 1.0],
            },
            Response::Error {
                code: ErrorCode::RevisionMismatch,
                message: "expected 3, at 5".into(),
            },
            Response::Registered { revision: 0 },
            Response::Attached {
                revision: 17,
                backend: BackendId::SimdScan,
            },
            Response::SinrQuantiles {
                revision: 4,
                quantiles: 3,
                values: vec![0.0, 1.5, f64::INFINITY, 0.25, 0.5, 0.75],
            },
            Response::Error {
                code: ErrorCode::NameTaken,
                message: "grid".into(),
            },
            Response::Error {
                code: ErrorCode::UnknownNetwork,
                message: "no such network".into(),
            },
            Response::Heatmap {
                revision: 21,
                width: 3,
                height: 2,
                cells_evaluated: 4,
                cells: vec![
                    Located::Reception(StationId(1)),
                    Located::Reception(StationId(1)),
                    Located::Silent,
                    Located::Silent,
                    Located::Uncertain(StationId(0)),
                    Located::Reception(StationId(2)),
                ],
            },
            Response::Unregistered,
            Response::Error {
                code: ErrorCode::StillAttached,
                message: "2 session(s) are still attached".into(),
            },
        ];
        for resp in &resps {
            let bytes = encode_response(resp);
            assert_eq!(&decode_response(&bytes).unwrap(), resp, "for {resp:?}");
        }
    }

    #[test]
    fn oversized_error_messages_truncate_on_char_boundaries() {
        // 'é' is 2 bytes and every occurrence starts at an even offset,
        // so a blind cut at u16::MAX (odd) would split one in half and
        // the frame would fail the decoder's UTF-8 check.
        let resp = Response::Error {
            code: ErrorCode::Internal,
            message: "é".repeat(40_000),
        };
        let bytes = encode_response(&resp);
        match decode_response(&bytes).expect("truncated frame must still decode") {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert_eq!(message.len(), u16::MAX as usize - 1);
                assert!(message.chars().all(|c| c == 'é'));
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn located_runs_compress() {
        let answers = vec![Located::Reception(StationId(3)); 10_000];
        let bytes = encode_response(&Response::Located {
            revision: 0,
            answers,
        });
        // tag + revision + count + one 9-byte run.
        assert_eq!(bytes.len(), 1 + 8 + 4 + 9);
    }

    #[test]
    fn run_count_predicts_encoded_heatmap_length() {
        // The session's pre-send size check relies on `collect_runs`
        // agreeing byte-for-byte with what `push_runs` will emit:
        // 25 header bytes + 9 per run.
        let mut cells = Vec::new();
        for k in 0..1000usize {
            let answer = match k % 3 {
                0 => Located::Reception(StationId(k % 7)),
                1 => Located::Silent,
                _ => Located::Uncertain(StationId(2)),
            };
            // Variable-length runs, including singletons.
            for _ in 0..(k % 4) + 1 {
                cells.push(answer);
            }
        }
        let (collected, runs) = collect_runs(cells.iter().copied(), cells.len());
        assert_eq!(collected, cells);
        let bytes = encode_response(&Response::Heatmap {
            revision: 5,
            width: cells.len() as u32,
            height: 1,
            cells_evaluated: 0,
            cells: cells.clone(),
        });
        assert_eq!(bytes.len(), 25 + 9 * runs);
        assert_eq!(collect_runs([], 0).1, 0);
        assert_eq!(collect_runs(vec![Located::Silent; 10_000], 0).1, 1);
    }

    #[test]
    fn malformed_payloads_yield_typed_errors() {
        assert_eq!(decode_request(&[]), Err(ProtocolError::EmptyFrame));
        assert_eq!(
            decode_request(&[0x7F]),
            Err(ProtocolError::UnknownTag(0x7F))
        );
        // Bind with an unknown backend id.
        assert_eq!(
            decode_request(&[TAG_BIND, 200]),
            Err(ProtocolError::UnknownBackend(200))
        );
        // LocateBatch whose count promises more points than the frame holds.
        let mut lying = vec![TAG_LOCATE_BATCH];
        lying.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_request(&lying),
            Err(ProtocolError::Truncated { .. })
        ));
        // Trailing garbage after a valid frame.
        let mut trailing = encode_request(&Request::LocateBatch { points: vec![] });
        trailing.push(0xAA);
        assert_eq!(
            decode_request(&trailing),
            Err(ProtocolError::Trailing { extra: 1 })
        );
        // Mutate with a bad op tag.
        let mut bad_op = vec![TAG_MUTATE];
        bad_op.extend_from_slice(&0u64.to_le_bytes());
        bad_op.extend_from_slice(&1u32.to_le_bytes());
        bad_op.extend_from_slice(&[99, 0, 0, 0, 0]);
        assert!(matches!(
            decode_request(&bad_op),
            Err(ProtocolError::Op(WireError::UnknownOpTag(99)))
        ));
        // A lying Located frame declaring ~4 billion answers in one
        // 9-byte run: must be rejected by the explicit answer cap
        // before any allocation happens (run-length coding sidesteps
        // the bytes-present bound, so this is its own check).
        let mut lying_rle = vec![TAG_LOCATED];
        lying_rle.extend_from_slice(&0u64.to_le_bytes());
        lying_rle.extend_from_slice(&u32::MAX.to_le_bytes());
        lying_rle.push(RUN_SILENT);
        lying_rle.extend_from_slice(&0u32.to_le_bytes());
        lying_rle.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&lying_rle),
            Err(ProtocolError::AnswerCountTooLarge { declared, .. }) if declared == u32::MAX as u64
        ));
        // Located runs overshooting their declared total.
        let mut overshoot = vec![TAG_LOCATED];
        overshoot.extend_from_slice(&0u64.to_le_bytes());
        overshoot.extend_from_slice(&2u32.to_le_bytes());
        overshoot.push(RUN_SILENT);
        overshoot.extend_from_slice(&0u32.to_le_bytes());
        overshoot.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_response(&overshoot),
            Err(ProtocolError::RunLengthMismatch { .. })
        ));
        // A lying Heatmap frame declaring a ~16-terapixel grid in one
        // run: rejected by the explicit raster cap (same rationale as
        // the Located cap — RLE sidesteps the bytes-present bound).
        let mut lying_heatmap = vec![TAG_HEATMAP];
        lying_heatmap.extend_from_slice(&0u64.to_le_bytes());
        lying_heatmap.extend_from_slice(&u32::MAX.to_le_bytes());
        lying_heatmap.extend_from_slice(&4096u32.to_le_bytes());
        lying_heatmap.extend_from_slice(&0u64.to_le_bytes());
        lying_heatmap.push(RUN_SILENT);
        lying_heatmap.extend_from_slice(&0u32.to_le_bytes());
        lying_heatmap.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&lying_heatmap),
            Err(ProtocolError::AnswerCountTooLarge { declared, .. })
                if declared == u32::MAX as u64 * 4096
        ));
        // Heatmap runs not covering the full grid.
        let mut short_grid = vec![TAG_HEATMAP];
        short_grid.extend_from_slice(&0u64.to_le_bytes());
        short_grid.extend_from_slice(&2u32.to_le_bytes());
        short_grid.extend_from_slice(&2u32.to_le_bytes());
        short_grid.extend_from_slice(&0u64.to_le_bytes());
        short_grid.push(RUN_SILENT);
        short_grid.extend_from_slice(&0u32.to_le_bytes());
        short_grid.extend_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            decode_response(&short_grid),
            Err(ProtocolError::Truncated { .. }) | Err(ProtocolError::RunLengthMismatch { .. })
        ));
        // Truncated HeatmapBatch request (window but no grid dims).
        let mut short_heatmap = vec![TAG_HEATMAP_BATCH];
        for v in [-1.0f64, -1.0, 1.0, 1.0] {
            short_heatmap.extend_from_slice(&v.to_le_bytes());
        }
        assert!(matches!(
            decode_request(&short_heatmap),
            Err(ProtocolError::Truncated { .. })
        ));
        // ReceptionProbBatch with an unknown channel atom tag.
        let mut bad_channel = vec![TAG_RECEPTION_PROB_BATCH];
        bad_channel.extend_from_slice(&8u32.to_le_bytes());
        bad_channel.extend_from_slice(&0u64.to_le_bytes());
        bad_channel.push(77);
        assert_eq!(
            decode_request(&bad_channel),
            Err(ProtocolError::UnknownChannelTag(77))
        );
        // Truncated shadowing sigma.
        let mut short_sigma = vec![TAG_RECEPTION_PROB_BATCH];
        short_sigma.extend_from_slice(&8u32.to_le_bytes());
        short_sigma.extend_from_slice(&0u64.to_le_bytes());
        short_sigma.push(CHANNEL_LOG_NORMAL);
        short_sigma.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_request(&short_sigma),
            Err(ProtocolError::Truncated {
                what: "shadowing sigma",
                ..
            })
        ));
        // FixedGains whose count promises more gains than the frame holds.
        let mut lying_gains = vec![TAG_RECEPTION_PROB_BATCH];
        lying_gains.extend_from_slice(&8u32.to_le_bytes());
        lying_gains.extend_from_slice(&0u64.to_le_bytes());
        lying_gains.push(CHANNEL_FIXED_GAINS);
        lying_gains.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            decode_request(&lying_gains),
            Err(ProtocolError::Truncated {
                what: "gain count",
                ..
            })
        ));
        // Composed nested inside Composed: structurally invalid, the
        // grammar rejects it rather than decode an always-invalid value.
        let mut nested = vec![TAG_RECEPTION_PROB_BATCH];
        nested.extend_from_slice(&8u32.to_le_bytes());
        nested.extend_from_slice(&0u64.to_le_bytes());
        nested.push(CHANNEL_COMPOSED);
        nested.push(1);
        nested.push(CHANNEL_COMPOSED);
        nested.push(0);
        nested.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            decode_request(&nested),
            Err(ProtocolError::NestedChannelCompose)
        );
        // Register with an empty name.
        let mut empty_name = vec![TAG_REGISTER];
        empty_name.push(0);
        assert_eq!(
            decode_request(&empty_name),
            Err(ProtocolError::InvalidName("empty name"))
        );
        // Attach with a non-UTF-8 name.
        let mut bad_name = vec![TAG_ATTACH];
        bad_name.push(2);
        bad_name.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_request(&bad_name),
            Err(ProtocolError::InvalidName("not UTF-8"))
        );
        // Attach whose name length byte promises more bytes than exist.
        let mut short_name = vec![TAG_ATTACH];
        short_name.push(10);
        short_name.extend_from_slice(b"abc");
        assert!(matches!(
            decode_request(&short_name),
            Err(ProtocolError::Truncated {
                what: "name bytes",
                ..
            })
        ));
        // SinrQuantilesBatch whose quantile count promises more values
        // than the frame holds.
        let mut lying_q = vec![TAG_SINR_QUANTILES_BATCH];
        lying_q.extend_from_slice(&0u32.to_le_bytes());
        lying_q.extend_from_slice(&8u32.to_le_bytes());
        lying_q.extend_from_slice(&0u64.to_le_bytes());
        lying_q.push(CHANNEL_DETERMINISTIC);
        lying_q.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_request(&lying_q),
            Err(ProtocolError::Truncated {
                what: "quantile count",
                ..
            })
        ));
    }

    #[test]
    fn oversized_names_truncate_on_char_boundaries() {
        // 'é' is 2 bytes; MAX_NETWORK_NAME_LEN is odd, so the blind cut
        // would split one in half.
        let req = Request::Register {
            name: "é".repeat(200),
            network: sample_spec(),
        };
        match decode_request(&encode_request(&req)).unwrap() {
            Request::Register { name, .. } => {
                assert_eq!(name.len(), MAX_NETWORK_NAME_LEN - 1);
                assert!(name.chars().all(|c| c == 'é'));
            }
            other => panic!("expected Register, got {other:?}"),
        }
    }

    #[test]
    fn backend_and_error_code_wire_bytes_are_stable() {
        for id in BackendId::ALL {
            assert_eq!(BackendId::from_wire(id.to_wire()), Some(id));
            assert_eq!(BackendId::from_name(id.name()), Some(id));
        }
        assert_eq!(BackendId::from_wire(99), None);
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_wire(code.to_wire()), Some(code));
        }
        assert_eq!(ErrorCode::from_wire(0), None);
    }

    #[test]
    fn network_spec_round_trips_through_build() {
        let spec = sample_spec();
        let net = spec.build().unwrap();
        assert_eq!(NetworkSpec::of(&net), spec);
        // Invalid specs surface the model's own validation.
        let bad = NetworkSpec {
            beta: -1.0,
            ..sample_spec()
        };
        assert!(bad.build().is_err());
    }
}
