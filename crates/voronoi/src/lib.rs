//! # sinr-voronoi
//!
//! Proximity substrate for the `sinr-diagrams` workspace: Voronoi diagrams
//! and nearest-neighbour search.
//!
//! Two results of the paper make proximity structures load-bearing:
//!
//! * **Observation 2.2** — in a non-trivial uniform power network, every
//!   reception zone `Hᵢ` is *strictly contained* in the Voronoi cell of
//!   its station. Consequently only the nearest station can possibly be
//!   heard at a query point.
//! * **Theorem 3 / Section 5.2** — the point-location data structure
//!   dispatches each query to the unique candidate station via a
//!   proximity query in `O(log n)`, then consults that station's
//!   per-zone grid structure.
//!
//! [`VoronoiDiagram`] builds explicit convex polygonal cells (half-plane
//! intersection clipped to a window — `O(n² log n)` total, plenty for the
//! paper's scales and handy for rendering and verification);
//! [`KdTree`] answers nearest-neighbour queries in expected `O(log n)`;
//! [`naive_nearest`] is the linear-scan reference both are tested against.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod diagram;
pub mod kdtree;
pub mod naive;

pub use diagram::{VoronoiCell, VoronoiDiagram};
pub use kdtree::{Dominator, EnergyBracket, KdTree};
pub use naive::naive_nearest;
