//! One violation per moved lint, in library code.

use std::time::{Instant, SystemTime};

/// `clippy::unwrap_used`.
pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

/// `clippy::expect_used`.
pub fn parse(s: &str) -> u32 {
    s.parse().expect("numeric input")
}

/// `clippy::print_stdout`, `clippy::print_stderr` and
/// `clippy::dbg_macro`.
pub fn report(x: u32) -> u32 {
    println!("x = {x}");
    eprintln!("x = {x}");
    dbg!(x)
}

/// `clippy::undocumented_unsafe_blocks`.
pub fn head(b: &[u8]) -> u8 {
    unsafe { *b.get_unchecked(0) }
}

/// `clippy::disallowed_methods`.
pub fn elapsed_ns() -> u128 {
    Instant::now().elapsed().as_nanos()
}

/// `clippy::disallowed_types`.
pub fn stamp(t: SystemTime) -> SystemTime {
    t
}
