//! Chapter 7's overhead predictions, run with this package's suite as well:
//! the checks live beside the counting functions they test, in
//! `crates/bench/tests/overhead.rs`.

#[path = "../crates/bench/tests/overhead.rs"]
mod overhead;
