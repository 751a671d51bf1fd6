//! # aviv-bench — experiment harness for the AVIV reproduction
//!
//! Workloads, table generators, and figure regenerators for every table
//! and figure in the paper's evaluation (see `EXPERIMENTS.md` at the
//! repository root for the recorded results).

#![warn(missing_docs)]

pub mod compare;
pub mod examples;
pub mod figures;
pub mod kernels;
pub mod tables;

pub use compare::{
    compare_examples, compare_random, render_compare, render_scaling, scaling_sweep,
};
pub use examples::{table2_examples, table_examples, Example};
pub use kernels::{all_kernels, Kernel};
pub use tables::{render, run_row, table1, table2, TableConfig, TableRow};
