//! # sinr-core
//!
//! The SINR model of *"SINR Diagrams: Towards Algorithmically Usable SINR
//! Models of Wireless Networks"* (Avin, Emek, Kantor, Lotker, Peleg,
//! Roditty — PODC 2009), implemented as a reusable library.
//!
//! ## The model (paper, Section 2.2)
//!
//! A wireless network is `A = ⟨S, ψ, N, β⟩`: stations `S = {s₀, …, s_{n−1}}`
//! embedded in the plane, transmit powers `ψᵢ > 0`, background noise
//! `N ≥ 0`, and reception threshold `β`. The energy of `sᵢ` at `p` is
//! `E(sᵢ, p) = ψᵢ·dist(sᵢ, p)^{−α}` (the paper fixes the path-loss
//! exponent `α = 2`; this crate supports general `α > 0` for evaluation,
//! while the algebraic machinery requires `α = 2`). Station `sᵢ` is
//! *heard* at `p` iff
//!
//! ```text
//! SINR(sᵢ, p) = E(sᵢ, p) / (Σ_{j≠i} E(sⱼ, p) + N) ≥ β .
//! ```
//!
//! The *reception zone* `Hᵢ` is the set of points hearing `sᵢ` (plus `sᵢ`
//! itself); the *SINR diagram* is the partition of the plane into the `Hᵢ`
//! and the silent remainder `H_∅`.
//!
//! ## Query engine
//!
//! The [`engine`] module is the production query surface: build a
//! [`SinrEvaluator`] (a structure-of-arrays snapshot of the network with
//! an `α = 2` fast path) once, then answer *batches* of point-location
//! queries through the [`QueryEngine`] trait. Backend selection:
//!
//! * [`ExactScan`] — one amortized `O(n)` pass per point; exact for every
//!   network (any power assignment, `α`, `β`). The safe default.
//! * [`SimdScan`] — the same exact scan explicitly vectorized
//!   ([`simd`] module): 8×`f64` AVX-512 or 4×`f64` AVX2 lanes detected
//!   at runtime on x86-64, with SSE2 and portable scalar fallbacks;
//!   per-lane compensated summation. The raw-throughput default.
//! * [`VoronoiAssisted`] — kd-tree nearest-station dispatch per
//!   Observation 2.2; exact for uniform power (falls back to the scan
//!   otherwise) with smaller per-query constants.
//! * `PointLocator` (crate `sinr-pointloc`) — the Theorem-3 structure:
//!   `O(log n)` queries that may answer [`Located::Uncertain`] inside an
//!   `ε`-area band along zone boundaries; requires uniform power,
//!   `α = 2`, `β > 1` and `O(n³·ε⁻¹)` preprocessing.
//!
//! All four implement [`QueryEngine`], so consumers (rasterisation,
//! figures, benchmarks, servers) are backend-generic. Large batch calls
//! run through the spatially-coherent tiled executor of [`tile`]
//! (Morton-ordered tiles, certified per-tile candidate pruning,
//! bit-identical answers) on top of a std-only work-stealing scheduler
//! ([`engine::batch_map`]); see the [execution
//! model](engine#execution-model). The scalar functions in [`sinr`]
//! remain the ground truth the engine is tested against.
//!
//! ## Stochastic channels
//!
//! The [`channel`] module layers fading/shadowing over the deterministic
//! engines: a sealed [`ChannelModel`] family (log-normal shadowing,
//! Rayleigh fading, fixed gain offsets, and their composition) draws
//! seeded multiplicative per-station gain vectors, and
//! [`QueryEngine::reception_probability_batch`] /
//! [`QueryEngine::sinr_quantiles_batch`] answer Monte-Carlo reception
//! probability and SINR-distribution quantiles by folding the gains into
//! the power column — the SoA layout and Morton tiling are built once,
//! and every trial runs the tiled executor's certified per-tile ladder. Identity channels answer
//! bit-identically to `locate_batch`; see the [`channel`] module docs
//! for the gain-folding math and the seeding contract.
//!
//! ## Dynamic networks (epochs and deltas)
//!
//! Networks are mutable **in place**: [`Network::add_station`],
//! [`Network::remove_station`] (swap-remove), [`Network::move_station`]
//! and [`Network::set_power`] bump the network's revision counter and
//! emit a [`NetworkDelta`]. Engines track the revision they reflect —
//! querying a mutated-but-unsynced engine panics with a revision
//! mismatch (never a silently stale answer) — and
//! [`QueryEngine::apply`] patches any backend incrementally instead of
//! rebuilding, which is what makes mobile-station workloads
//! (`examples/mobile_stations.rs`) run on the batched path. See the
//! [`network`] and [`engine`] module docs for the full contract.
//!
//! ## Shared engines (RCU snapshots)
//!
//! Between mutations the diagram is a pure function of the network, so
//! one engine can serve any number of concurrent readers. The
//! [`snapshot`] module packages that as read-copy-update publication:
//! a [`SnapshotStore`] keeps a private master engine in step with a
//! live network via the epoch/delta path and publishes an immutable,
//! [frozen](QueryEngine::freeze) [`EngineSnapshot`] per revision behind
//! an [`Arc`](std::sync::Arc). Readers never block (loading a snapshot
//! is an `Arc` clone); mutations publish a *new* snapshot while
//! in-flight batches finish on the old one, which deallocates when its
//! last reader releases it. `sinr-server`'s named-network registry
//! serves N sessions from one store per (network, backend) this way.
//!
//! ```
//! use sinr_core::{Network, QueryEngine, Located};
//! use sinr_geometry::Point;
//!
//! let net = Network::uniform(
//!     vec![Point::new(0.0, 0.0), Point::new(4.0, 0.0)],
//!     0.0,
//!     2.0,
//! )?;
//! let engine = net.query_engine();
//! let points = [Point::new(0.5, 0.0), Point::new(2.0, 0.0)];
//! let mut out = [Located::Silent; 2];
//! engine.locate_batch(&points, &mut out);
//! assert_eq!(out[0].station().map(|s| s.index()), Some(0));
//! assert_eq!(out[1], Located::Silent);
//! # Ok::<(), sinr_core::NetworkError>(())
//! ```
//!
//! ## What this crate provides
//!
//! * [`Network`] / [`NetworkBuilder`] — model construction, validation,
//!   similarity transforms (Lemma 2.3), station surgery (add / silence /
//!   relocate — the operations used by the paper's reductions), and the
//!   epoch-versioned in-place surgery with [`NetworkDelta`] emission and
//!   stable [`StationKey`] handles;
//! * [`sinr`] — energy, interference and SINR evaluation (Eq. (1));
//! * [`charpoly`] — the characteristic polynomial `Hᵢ(x, y)` of degree
//!   `2n` and its fast restriction to segments (the input to the Sturm
//!   segment test);
//! * [`ReceptionZone`] — boundary ray-shooting (via the monotonicity of
//!   Lemma 3.1), `δ`, `Δ` and the fatness parameter `φ = Δ/δ`
//!   (Section 2.1), boundary polygons, area estimates;
//! * [`convexity`] — empirical and algebraic convexity verification
//!   (Theorem 1 / Lemma 2.1);
//! * [`bounds`] — the closed-form bounds of Theorems 4.1 and 4.2;
//! * [`reductions`] — the executable proof constructions of Section 3
//!   (Lemma 3.10's replacement station, noise elimination);
//! * [`gen`] — seeded workload generators for benchmarks and tests.
//!
//! ## Example
//!
//! ```
//! use sinr_core::{Network, StationId};
//! use sinr_geometry::Point;
//!
//! let net = Network::builder()
//!     .station(Point::new(0.0, 0.0))
//!     .station(Point::new(4.0, 0.0))
//!     .threshold(2.0)
//!     .build()?;
//!
//! // Near s0, its signal dominates:
//! assert_eq!(net.heard_at(Point::new(0.5, 0.0)), Some(StationId(0)));
//! // Midway, nobody clears β = 2:
//! assert_eq!(net.heard_at(Point::new(2.0, 0.0)), None);
//! # Ok::<(), sinr_core::NetworkError>(())
//! ```

#![deny(missing_docs)]
// `unsafe` is denied everywhere except the two audited corners that need
// it: the `std::arch` intrinsics of [`simd`] and the disjoint-slot output
// writer of the work-stealing scheduler in [`engine`] (both opt out with
// a scoped `allow` and documented safety contracts).
#![deny(unsafe_code)]

pub mod bounds;
pub mod channel;
pub mod charpoly;
pub mod convexity;
pub mod engine;
pub mod gen;
pub mod network;
pub mod power;
pub mod reductions;
pub mod simd;
pub mod sinr;
pub mod snapshot;
pub mod station;
pub mod tile;
pub mod zone;

pub use channel::{ChannelError, ChannelModel, McConfig};
pub use convexity::{ConvexityReport, ConvexityViolation};
pub use engine::{
    BoxedEngine, ExactScan, LocateError, Located, QueryEngine, SinrEvaluator, SyncError,
    VoronoiAssisted,
};
pub use network::{
    BatchSurgeryError, DeltaOp, Network, NetworkBuilder, NetworkDelta, NetworkError, SurgeryOp,
    WireError,
};
pub use power::PowerAssignment;
pub use simd::{SimdKernel, SimdScan};
pub use snapshot::{EngineSnapshot, SnapshotError, SnapshotStore};
pub use station::{Station, StationId, StationKey};
pub use tile::{CellCert, CellDecision, SinrInterval, TileConfig, TileStats};
pub use zone::{RadialProfile, ReceptionZone};
