//! What is left of the host-thread worker pool: one accepted-and-ignored
//! call. The simulator is single-threaded (DESIGN.md §7); die and drive
//! parallelism are modelled on the virtual clock, one [`crate::Timeline`]
//! per resource.

/// Accepted and ignored. `benchmark/src/main.rs` still calls this before
/// its timed and two-thread rounds, and only a `[benchmark]` PR may edit
/// that package: the next one drops the call, the two-thread round and
/// `sim.t2_wall_ratio`, and then this shim.
pub fn set_threads(_: usize) {}
