#![warn(missing_docs)]
//! Sensor-field substrate for the `sparse-groupdet` workspace.
//!
//! A sparse sensor network is a set of sensor positions in a rectangular
//! field together with the machinery the simulator needs:
//!
//! * [`sensor`] — sensor identities and positions;
//! * [`deployment`] — deployment strategies (uniform random as assumed by
//!   the paper, plus grid and jittered-grid comparators);
//! * [`field`] — [`field::SensorField`]: a CSR spatial-hash indexed sensor
//!   set with circle and stadium range queries under either a bounded or a
//!   toroidal boundary policy, rebuildable in place and focusable on a
//!   query corridor for large-N simulation;
//! * the pre-CSR nested-`Vec` field is not shipped: `gbd-sim` keeps it as
//!   a test oracle (`tests/nested_grid_oracle`) and checks whole trials
//!   and campaigns against the CSR path bit for bit;
//! * [`coverage`] — coverage statistics: covered-area fraction, k-coverage,
//!   and the analytic Poisson approximation they are tested against.
//!
//! The toroidal boundary policy exists because the paper's analytical model
//! implicitly assumes the target's Aggregate Region sees the full sensor
//! density everywhere (no border truncation); wrapping the field reproduces
//! that assumption exactly, while the bounded policy quantifies the border
//! effect (an ablation experiment in `gbd-bench`).
//!
//! # Example
//!
//! ```
//! use gbd_field::deployment::{Deployer, UniformRandom};
//! use gbd_field::field::{BoundaryPolicy, SensorField};
//! use gbd_geometry::point::{Aabb, Point};
//! use rand::SeedableRng;
//!
//! let extent = Aabb::from_extent(32_000.0, 32_000.0);
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
//! let positions = UniformRandom.deploy(240, &extent, &mut rng);
//! let field = SensorField::new(extent, positions, BoundaryPolicy::Bounded);
//! let nearby = field.query_circle(Point::new(16_000.0, 16_000.0), 1_000.0);
//! assert!(nearby.len() < 240);
//! ```

pub mod coverage;
pub mod deployment;
pub mod field;
pub mod sensor;
