//! The per-connection session state machine: decode → dispatch → encode.
//!
//! One [`SessionCore`] serves one client. It is transport-agnostic —
//! [`serve_session`] drives it over a blocking [`Transport`], and the
//! worker-pool server drives many cores over polled transports from a
//! fixed set of threads — and it runs in one of three modes:
//!
//! * **Unbound** — fresh session; only `Bind`, `Attach` and `Register`
//!   do real work.
//! * **Private** (`Bind`) — the legacy share-nothing path: the session
//!   owns its [`Network`] and its [`BoxedEngine`], so a hostile or
//!   crashing client can never poison a neighbouring session. Behavior
//!   on this path is pinned bit-identical to the pre-registry server by
//!   the e2e and fuzz suites.
//! * **Attached** (`Attach`) — the shared path: queries are served from
//!   the [`Arc<EngineSnapshot>`](sinr_core::EngineSnapshot) currently
//!   published by a [`SnapshotStore`] shared with every other session
//!   attached to the same (network, backend, epsilon). `Mutate` goes
//!   through the named network's revision fence and publishes a new
//!   snapshot; a batch already running keeps its loaded `Arc` (RCU — it
//!   finishes on the old snapshot, which frees when released).
//!
//! `Register` works in any mode and does not change the session's mode.
//!
//! ## Pipelined mode
//!
//! The loop's discipline — **exactly one response per request, emitted
//! strictly in request order, never reordered and never coalesced** —
//! is a load-bearing protocol guarantee, not an implementation detail:
//! it is what makes client pipelining safe. A client may keep multiple
//! request frames in flight; while the engine chews on one
//! `LocateBatch`, the peer's subsequent frames queue in the transport,
//! so the tiled batch executor always has a full batch waiting and the
//! inter-burst round-trip idle disappears. One caveat is the client's,
//! not the loop's: this loop does not read ahead while computing, so a
//! *blocking* client must bound its unanswered request bytes to what
//! the transport buffers (or it can wedge against a session blocked
//! writing a response the client is not draining) — the shipped
//! pipelined client enforces exactly that budget
//! ([`PIPELINE_REQUEST_BUDGET`](crate::client::PIPELINE_REQUEST_BUDGET)). [`Client::locate_batches_pipelined`](crate::client::Client::locate_batches_pipelined)
//! is the client half; the e2e suite pins that pipelined answers are
//! bit-identical to request/response answers, and
//! `server_throughput`'s `pipelined_stream` scenario measures the win.
//! Mid-stream errors keep their slot in the response order (an error
//! frame *is* that request's response), so a pipelined client never
//! loses frame alignment.
//!
//! Error discipline (the hard part of a long-lived server):
//!
//! * **Malformed payloads** get a typed [`ErrorCode::MalformedFrame`]
//!   reply and the session continues — frame boundaries come from the
//!   length prefix, so one bad payload does not desynchronize the
//!   stream.
//! * **Oversized frames** get [`ErrorCode::Oversized`] and then the
//!   connection closes: after a lying length prefix the stream position
//!   is meaningless.
//! * **Semantic failures** (unknown backend, revision fences, surgery
//!   validation, staleness) are per-request typed errors; the session
//!   survives.
//! * **Mode-ending failures**: [`ErrorCode::Unsupported`] and
//!   [`ErrorCode::ChannelUnsupported`] unbind/detach the session, and
//!   [`ErrorCode::UnknownNetwork`] detaches an *attached* session (its
//!   shared store was poisoned by a mutation its backend cannot
//!   represent). Subsequent queries get [`ErrorCode::NotBound`].
//! * **Panics** while handling a frame are caught, answered with
//!   [`ErrorCode::Internal`], and close only this session. The handler
//!   itself is written not to panic — the catch is the last line of
//!   defence, not the error path.

use crate::protocol::{decode_request, encode_response, BackendId, ErrorCode, Request, Response};
use crate::registry::{
    build_backend, AttachError, AttachGuard, MutateError, NamedNetwork, NetworkRegistry,
    RegisterError, UnregisterError,
};
use crate::transport::{RecvError, Transport, MAX_FRAME_LEN};
use sinr_core::engine::BoxedEngine;
use sinr_core::{
    ChannelError, ChannelModel, Located, McConfig, Network, NetworkDelta, QueryEngine,
    SnapshotStore, StationId,
};
use sinr_geometry::Point;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The private half of a session: one network, one engine, built by the
/// `Bind` frame and mutated only by this session's `Mutate` frames.
struct BoundState {
    net: Network,
    engine: BoxedEngine,
    backend: BackendId,
}

/// The shared half of a session: a handle onto a registered network and
/// the snapshot store shared with every session attached alike.
struct AttachedState {
    network: Arc<NamedNetwork>,
    store: Arc<SnapshotStore>,
    backend: BackendId,
    /// Holds the registry attachment alive: dropping this state (detach,
    /// unbind, session end) releases the refcount that gates
    /// [`NetworkRegistry::unregister`].
    _guard: Arc<AttachGuard>,
}

/// What the session is currently serving.
enum Mode {
    Unbound,
    Private(BoundState),
    Attached(AttachedState),
}

/// The transport-independent session state machine: feed it one request
/// payload at a time ([`SessionCore::handle_payload`]), send back the
/// bytes it returns. Both the blocking per-connection loop
/// ([`serve_session`]) and the worker-pool server drive sessions
/// through this type, so the two serving modes cannot drift apart.
pub struct SessionCore {
    registry: Arc<NetworkRegistry>,
    mode: Mode,
}

impl SessionCore {
    /// A fresh, unbound session over `registry`.
    pub fn new(registry: Arc<NetworkRegistry>) -> SessionCore {
        SessionCore {
            registry,
            mode: Mode::Unbound,
        }
    }

    /// Handles one request payload (the frame body, length prefix
    /// already stripped) and returns the encoded response frame body
    /// plus whether the connection must close after sending it (a
    /// caught panic — [`ErrorCode::Internal`]).
    ///
    /// Never panics out: dispatch runs under `catch_unwind`.
    pub fn handle_payload(&mut self, payload: &[u8]) -> (Vec<u8>, bool) {
        let request = match decode_request(payload) {
            Ok(request) => request,
            Err(e) => {
                let code = match e {
                    crate::protocol::ProtocolError::UnknownBackend(_) => ErrorCode::UnknownBackend,
                    _ => ErrorCode::MalformedFrame,
                };
                return (encode_response(&error(code, e.to_string())), false);
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| self.handle(request)));
        match outcome {
            Ok(response) => {
                // An Unsupported/ChannelUnsupported error unbinds or
                // detaches (documented on the codes): the engine can no
                // longer serve what the session is asking of it. An
                // UnknownNetwork error on an *attached* session means
                // its shared store was poisoned — detach likewise.
                let mode_over = matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::Unsupported | ErrorCode::ChannelUnsupported,
                        ..
                    }
                ) || (matches!(
                    response,
                    Response::Error {
                        code: ErrorCode::UnknownNetwork,
                        ..
                    }
                ) && matches!(self.mode, Mode::Attached(_)));
                if mode_over {
                    self.mode = Mode::Unbound;
                }
                (encode_response(&response), false)
            }
            Err(_) => (
                encode_response(&error(
                    ErrorCode::Internal,
                    "panic while handling the frame; closing this session".to_string(),
                )),
                true,
            ),
        }
    }

    /// One request → one response. Pure with respect to the transport.
    fn handle(&mut self, request: Request) -> Response {
        match request {
            Request::Bind {
                backend,
                epsilon,
                network,
            } => {
                if !matches!(self.mode, Mode::Unbound) {
                    return already_bound();
                }
                let net = match network.build() {
                    Ok(net) => net,
                    Err(e) => return error(ErrorCode::InvalidNetwork, e.to_string()),
                };
                let engine = match build_backend(backend, epsilon, &net) {
                    Ok(engine) => engine,
                    Err(msg) => return error(ErrorCode::BackendBuild, msg),
                };
                let revision = net.revision();
                self.mode = Mode::Private(BoundState {
                    net,
                    engine,
                    backend,
                });
                Response::Bound { revision, backend }
            }
            Request::Register { name, network } => match self.registry.register(&name, &network) {
                Ok(revision) => Response::Registered { revision },
                Err(RegisterError::NameTaken) => error(
                    ErrorCode::NameTaken,
                    format!("network name '{name}' is already registered"),
                ),
                // Unreachable from the wire (the name codec enforces the
                // length bound), reachable through in-process use.
                Err(e @ RegisterError::InvalidName) => {
                    error(ErrorCode::MalformedFrame, e.to_string())
                }
                Err(RegisterError::InvalidNetwork(e)) => {
                    error(ErrorCode::InvalidNetwork, e.to_string())
                }
            },
            Request::Attach {
                name,
                backend,
                epsilon,
            } => {
                if !matches!(self.mode, Mode::Unbound) {
                    return already_bound();
                }
                match self.registry.attach(&name, backend, epsilon) {
                    Ok(handle) => {
                        let revision = handle.revision;
                        self.mode = Mode::Attached(AttachedState {
                            network: handle.network,
                            store: handle.store,
                            backend,
                            _guard: handle.guard,
                        });
                        Response::Attached { revision, backend }
                    }
                    Err(AttachError::UnknownNetwork) => error(
                        ErrorCode::UnknownNetwork,
                        format!("no network registered under '{name}'"),
                    ),
                    Err(AttachError::BackendBuild(msg)) => error(ErrorCode::BackendBuild, msg),
                }
            }
            Request::LocateBatch { points } => match &self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => locate_on(&bound.engine, &points),
                Mode::Attached(att) => match load_snapshot(att) {
                    Ok(snap) => locate_on(snap.engine(), &points),
                    Err(resp) => resp,
                },
            },
            Request::SinrBatch { station, points } => match &self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => sinrs_on(&bound.engine, bound.net.len(), station, &points),
                Mode::Attached(att) => match load_snapshot(att) {
                    Ok(snap) => sinrs_on(snap.engine(), snap.stations(), station, &points),
                    Err(resp) => resp,
                },
            },
            Request::Mutate {
                expected_revision,
                ops,
            } => match &mut self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => {
                    let current = bound.net.revision();
                    if expected_revision != current {
                        return error(
                            ErrorCode::RevisionMismatch,
                            format!(
                                "mutate was computed against revision {expected_revision} but the \
                                 session network is at revision {current}; nothing was applied"
                            ),
                        );
                    }
                    match bound.net.apply_ops(&ops) {
                        Ok(deltas) => {
                            if let Err(resp) = catch_up(bound, &deltas) {
                                return resp;
                            }
                            Response::Mutated {
                                revision: bound.net.revision(),
                                applied: deltas.len() as u32,
                            }
                        }
                        Err(batch) => {
                            // The prefix stays applied (in-place surgery,
                            // not a transaction): re-sync the engine to it,
                            // then report the failing op. The revision in
                            // the message tells the client where the
                            // session network now is.
                            if let Err(resp) = catch_up(bound, &batch.applied) {
                                return resp;
                            }
                            error(
                                ErrorCode::Surgery,
                                format!(
                                    "{batch}; session network is now at revision {}",
                                    bound.net.revision()
                                ),
                            )
                        }
                    }
                }
                Mode::Attached(att) => match att.network.mutate(expected_revision, &ops) {
                    Ok(ok) => Response::Mutated {
                        revision: ok.revision,
                        applied: ok.applied,
                    },
                    Err(MutateError::RevisionMismatch { expected, current }) => error(
                        ErrorCode::RevisionMismatch,
                        format!(
                            "mutate was computed against revision {expected} but network '{}' \
                             is at revision {current}; nothing was applied",
                            att.network.name()
                        ),
                    ),
                    Err(MutateError::Surgery { message, revision }) => error(
                        ErrorCode::Surgery,
                        format!(
                            "{message}; network '{}' is now at revision {revision}",
                            att.network.name()
                        ),
                    ),
                },
            },
            Request::ReceptionProbBatch {
                trials,
                seed,
                channel,
                points,
            } => match &self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => reception_on(
                    &bound.engine,
                    bound.backend,
                    trials,
                    seed,
                    &channel,
                    &points,
                ),
                Mode::Attached(att) => match load_snapshot(att) {
                    Ok(snap) => {
                        reception_on(snap.engine(), att.backend, trials, seed, &channel, &points)
                    }
                    Err(resp) => resp,
                },
            },
            Request::SinrQuantilesBatch {
                station,
                trials,
                seed,
                channel,
                quantiles,
                points,
            } => match &self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => quantiles_on(
                    &bound.engine,
                    bound.net.len(),
                    bound.backend,
                    station,
                    trials,
                    seed,
                    &channel,
                    &quantiles,
                    &points,
                ),
                Mode::Attached(att) => match load_snapshot(att) {
                    Ok(snap) => quantiles_on(
                        snap.engine(),
                        snap.stations(),
                        att.backend,
                        station,
                        trials,
                        seed,
                        &channel,
                        &quantiles,
                        &points,
                    ),
                    Err(resp) => resp,
                },
            },
            Request::HeatmapBatch {
                min,
                max,
                width,
                height,
            } => match &self.mode {
                Mode::Unbound => not_bound(),
                Mode::Private(bound) => heatmap_on(&bound.engine, min, max, width, height),
                Mode::Attached(att) => match load_snapshot(att) {
                    Ok(snap) => heatmap_on(snap.engine(), min, max, width, height),
                    Err(resp) => resp,
                },
            },
            Request::Unregister { name } => match self.registry.unregister(&name) {
                Ok(()) => Response::Unregistered,
                Err(UnregisterError::UnknownNetwork) => error(
                    ErrorCode::UnknownNetwork,
                    format!("no network registered under '{name}'"),
                ),
                Err(e @ UnregisterError::StillAttached { .. }) => error(
                    ErrorCode::StillAttached,
                    format!("cannot unregister '{name}': {e}"),
                ),
            },
        }
    }
}

/// Serves one client to completion over a **private** registry: reads
/// frames until the peer closes (or the stream becomes unrecoverable)
/// and answers every request with exactly one response frame. With a
/// per-session registry, `Register`ed networks are invisible to other
/// sessions — the share-nothing contract of the original server. Accept
/// loops that want shared networks use
/// [`serve_session_with_registry`].
///
/// Never panics out: frame handling runs under `catch_unwind`, and a
/// caught panic answers [`ErrorCode::Internal`] before dropping the
/// connection.
pub fn serve_session<T: Transport>(transport: T) {
    serve_session_with_registry(transport, Arc::new(NetworkRegistry::new()));
}

/// [`serve_session`] against a shared [`NetworkRegistry`]: every
/// session served with the same `registry` sees the same named
/// networks and shares their snapshot stores.
pub fn serve_session_with_registry<T: Transport>(mut transport: T, registry: Arc<NetworkRegistry>) {
    let mut core = SessionCore::new(registry);
    loop {
        let payload = match transport.recv_frame() {
            Ok(Some(payload)) => payload,
            // Clean close on a frame boundary: the session is over.
            Ok(None) => return,
            Err(RecvError::Oversized { len }) => {
                let _ = transport.send_frame(&encode_response(&error(
                    ErrorCode::Oversized,
                    format!("frame length {len} exceeds the limit"),
                )));
                return;
            }
            // A session deadline expired (idle or mid-frame slowloris —
            // see [`crate::transport::Deadlines`]): evict by closing.
            // No error frame: an idle peer will learn on its next use,
            // and a dribbling peer is exactly who we stop serving.
            Err(RecvError::DeadlineExpired { .. }) => return,
            // I/O failure or EOF mid-frame: nothing sensible to say.
            Err(_) => return,
        };
        let (frame, close) = core.handle_payload(&payload);
        if transport.send_frame(&frame).is_err() || close {
            return;
        }
    }
}

fn error(code: ErrorCode, message: String) -> Response {
    Response::Error { code, message }
}

fn not_bound() -> Response {
    error(
        ErrorCode::NotBound,
        "session is not bound; send a Bind or Attach frame first".to_string(),
    )
}

fn already_bound() -> Response {
    error(
        ErrorCode::AlreadyBound,
        "this session is already bound; open a new connection".to_string(),
    )
}

/// The attached session's current snapshot, or the typed detach error
/// (the caller returns it; [`SessionCore::handle_payload`] sees the
/// [`ErrorCode::UnknownNetwork`] and drops the session to unbound).
fn load_snapshot(att: &AttachedState) -> Result<Arc<sinr_core::EngineSnapshot>, Response> {
    att.store.load().map_err(|e| {
        error(
            ErrorCode::UnknownNetwork,
            format!("detached from network '{}': {e}", att.network.name()),
        )
    })
}

/// Brings a private engine up to date with deltas the session network
/// just emitted: incremental [`QueryEngine::apply`] per delta, falling
/// back to a full [`QueryEngine::sync`] if any application is refused.
/// A failed sync means the backend cannot represent the mutated network
/// at all — reported as [`ErrorCode::Unsupported`] (the caller unbinds).
fn catch_up(bound: &mut BoundState, deltas: &[NetworkDelta]) -> Result<(), Response> {
    for delta in deltas {
        if bound.engine.apply(delta).is_err() {
            break;
        }
    }
    if bound.engine.is_stale() {
        bound.engine.sync(&bound.net).map_err(|e| {
            error(
                ErrorCode::Unsupported,
                format!(
                    "backend {} cannot represent the mutated network: {e}",
                    bound.backend
                ),
            )
        })?;
    }
    Ok(())
}

fn locate_on(engine: &BoxedEngine, points: &[Point]) -> Response {
    let mut answers = vec![Located::Silent; points.len()];
    match engine.try_locate_batch(points, &mut answers) {
        Ok(()) => Response::Located {
            revision: engine.revision(),
            answers,
        },
        Err(e) => error(ErrorCode::Stale, e.to_string()),
    }
}

/// Serves a `HeatmapBatch`: rasterises the engine's SINR diagram over
/// the window by hierarchical (interval-certified quadtree) refinement
/// — bit-identical to a dense per-pixel sweep, but paying per-point
/// evaluation only near the zone boundaries. The raster rows are
/// returned bottom-first, row-major, as [`Located`] runs.
fn heatmap_on(engine: &BoxedEngine, min: Point, max: Point, width: u32, height: u32) -> Response {
    if width == 0
        || height == 0
        || !min.is_finite()
        || !max.is_finite()
        || !(max.x - min.x).is_finite()
        || !(max.y - min.y).is_finite()
        || max.x <= min.x
        || max.y <= min.y
    {
        return error(
            ErrorCode::MalformedFrame,
            format!(
                "heatmap window must be finite with positive extent and positive grid \
                 dimensions (got [{min:?}, {max:?}] at {width}x{height})"
            ),
        );
    }
    // Cheap pre-compute screen only: the grid's *dense* pixel count
    // must be representable and within the protocol's pixel cap (the
    // bound on the raster this handler materialises and on the client's
    // decode allocation). Whether the *response* fits one frame is
    // decided below against the real run-length encoding — a raster's
    // wire size depends on how uniform it is, not on its pixel count,
    // so a mostly-uniform 2048² map (a few KB of runs) is served rather
    // than refused on its 9-bytes-per-pixel worst case.
    match (width as u64).checked_mul(height as u64) {
        Some(pixels) if pixels <= crate::protocol::MAX_HEATMAP_PIXELS => {}
        _ => {
            return error(
                ErrorCode::MalformedFrame,
                format!("heatmap grid {width}x{height} exceeds the pixel cap"),
            )
        }
    }
    if engine.is_stale() {
        return error(
            ErrorCode::Stale,
            "engine is stale relative to its network".to_string(),
        );
    }
    let window = sinr_geometry::BBox::new(min, max);
    let (map, stats) = sinr_diagram::ReceptionMap::compute_hierarchical_with_engine(
        engine,
        window,
        width as usize,
        height as usize,
    );
    // Materialise the answers and count their runs in one pass. The
    // real frame-size check: 25 bytes of header (tag + revision + dims
    // + cells_evaluated) plus exactly 9 bytes per run.
    let (answers, runs) = crate::protocol::collect_runs(
        map.iter().map(|(_, _, label)| match label {
            sinr_diagram::PixelLabel::Heard(i) => Located::Reception(i),
            sinr_diagram::PixelLabel::Silent => Located::Silent,
        }),
        width as usize * height as usize,
    );
    let encoded = 25 + 9 * runs;
    if encoded > MAX_FRAME_LEN {
        return error(
            ErrorCode::Oversized,
            format!(
                "heatmap response for {width}x{height} run-length encodes to {encoded} bytes, \
                 over the {MAX_FRAME_LEN}-byte frame limit; request a smaller window or grid"
            ),
        );
    }
    Response::Heatmap {
        revision: engine.revision(),
        width,
        height,
        cells_evaluated: stats.cells_evaluated,
        cells: answers,
    }
}

fn sinrs_on(
    engine: &BoxedEngine,
    stations: usize,
    station: StationId,
    points: &[Point],
) -> Response {
    if station.0 >= stations {
        return error(
            ErrorCode::StationOutOfRange,
            format!(
                "station {} out of range (network has {})",
                station.0, stations
            ),
        );
    }
    let mut values = vec![0.0; points.len()];
    match engine.try_sinr_batch(station, points, &mut values) {
        Ok(()) => Response::Sinrs {
            revision: engine.revision(),
            values,
        },
        Err(e) => error(ErrorCode::Stale, e.to_string()),
    }
}

fn reception_on(
    engine: &BoxedEngine,
    backend: BackendId,
    trials: u32,
    seed: u64,
    channel: &ChannelModel,
    points: &[Point],
) -> Response {
    let mc = McConfig { trials, seed };
    let mut values = vec![0.0; points.len()];
    match engine.reception_probability_batch(channel, mc, points, &mut values) {
        Ok(()) => Response::ReceptionProbs {
            revision: engine.revision(),
            values,
        },
        Err(ChannelError::Unsupported(msg)) => error(
            ErrorCode::ChannelUnsupported,
            format!("backend {backend} cannot serve stochastic channels: {msg}"),
        ),
        Err(e @ ChannelError::InvalidChannel(_)) => error(ErrorCode::InvalidChannel, e.to_string()),
        Err(ChannelError::Stale(e)) => error(ErrorCode::Stale, e.to_string()),
    }
}

#[allow(clippy::too_many_arguments)]
fn quantiles_on(
    engine: &BoxedEngine,
    stations: usize,
    backend: BackendId,
    station: StationId,
    trials: u32,
    seed: u64,
    channel: &ChannelModel,
    quantiles: &[f64],
    points: &[Point],
) -> Response {
    if station.0 >= stations {
        return error(
            ErrorCode::StationOutOfRange,
            format!(
                "station {} out of range (network has {})",
                station.0, stations
            ),
        );
    }
    // The response carries points × quantiles f64s; refuse grids whose
    // *response* could not fit in one frame (the request decoded fine,
    // but answering it would break the framing contract). 17 bytes of
    // header: tag + revision + quantile width + value count.
    let cells = points.len().checked_mul(quantiles.len());
    match cells {
        Some(cells) if 17 + 8 * cells <= MAX_FRAME_LEN => {}
        _ => {
            return error(
                ErrorCode::MalformedFrame,
                format!(
                    "quantile grid ({} points x {} quantiles) exceeds the response frame limit",
                    points.len(),
                    quantiles.len()
                ),
            )
        }
    }
    let mc = McConfig { trials, seed };
    let mut values = vec![0.0; points.len() * quantiles.len()];
    match engine.sinr_quantiles_batch(channel, mc, station, points, quantiles, &mut values) {
        Ok(()) => Response::SinrQuantiles {
            revision: engine.revision(),
            quantiles: quantiles.len() as u32,
            values,
        },
        Err(ChannelError::Unsupported(msg)) => error(
            ErrorCode::ChannelUnsupported,
            format!("backend {backend} cannot serve stochastic channels: {msg}"),
        ),
        Err(e @ ChannelError::InvalidChannel(_)) => error(ErrorCode::InvalidChannel, e.to_string()),
        Err(ChannelError::Stale(e)) => error(ErrorCode::Stale, e.to_string()),
    }
}
