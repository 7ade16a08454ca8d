//! An empty package, kept only so that `benchmark/Cargo.lock`, which lists
//! `aco-tune` as a dependency of `pipeline` and `sched-serve`, stays valid.
//!
//! The self-tuning store that lived here (a per-class bandit over ACO
//! configurations plus a pheromone warm-start store) was removed: with the
//! schedule cache on, a cold store was slower than the paper's fixed
//! configuration. Every region now compiles under that one configuration.
//! No code may depend on this crate; the package goes with the next change
//! to the benchmark.
