//! CPU-time scaling with basic-block size, heuristics on vs off —
//! reproducing the growth pattern behind the paper's CPU-time columns.
//!
//! Flags: `--full` raises the heuristics-off size limit from 10 to 14
//! operations (minutes of CPU).

use aviv_bench::{render_scaling, scaling_sweep};

fn main() {
    let full = std::env::args().skip(1).any(|a| a == "--full");
    let off_limit = if full { 14 } else { 10 };
    let sizes = [4usize, 6, 8, 10, 12, 14, 18, 24, 32];
    let points = scaling_sweep(&sizes, off_limit, 42);
    print!("{}", render_scaling(&points));
    println!("\nHeuristics-off runs capped at {off_limit} operations.");
}
