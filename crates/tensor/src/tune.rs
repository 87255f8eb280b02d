//! What remains of the packed-GEMM tile autotuner.
//!
//! The GEMM now has one fixed register tile per ISA
//! (`linalg::isa`), so there is nothing to search. [`stats`] stays because
//! the benchmark (`benchmark/src/main.rs`) still reads it to reject a timed
//! window in which a tuner searched; it can go once the benchmark stops
//! reading it.

/// `(searches, hits)` of the tile search: always `(0, 0)`, since nothing
/// searches.
pub fn stats() -> (u64, u64) {
    (0, 0)
}
