//! Statistical substrate for the `fatih` malicious-router detection library.
//!
//! Protocol χ (dissertation Chapter 6) attributes packet losses to either
//! congestion or malice by comparing a router's *actual* queue behaviour with
//! a *predicted* one, and then asking how surprising the observed losses are.
//! That question is answered with classic statistics: the error function for
//! the single-packet-loss confidence test (Figure 6.2), a Z-test for the
//! combined-losses test (§6.2.1), and descriptive statistics everywhere the
//! evaluation reports max/average/median series (Figures 5.2 and 5.4).
//!
//! This crate keeps those tools in one dependency-free place:
//!
//! * [`erf`], [`erfc`] — the error function, accurate to ~1e-15;
//! * [`normal`] — standard-normal CDF, survival function and quantile;
//! * [`ztest`] — one-sample Z-tests as used by Protocol χ;
//! * [`descriptive`] — batch and online (Welford) summaries;
//! * [`hist`] — fixed-bin histograms plus normality diagnostics for the
//!   Figure 6.3 experiment.
//!
//! # Examples
//!
//! ```
//! use fatih_stats::{erf, normal};
//!
//! // Probability that a standard normal variable is below 1.96:
//! let p = normal::cdf(1.96);
//! assert!((p - 0.975).abs() < 1e-3);
//! // erf and the normal CDF are consistent:
//! assert!((normal::cdf(1.0) - 0.5 * (1.0 + erf(1.0 / 2f64.sqrt()))).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod descriptive;
mod erf_impl;
pub mod hist;
pub mod normal;
pub mod ztest;

pub use descriptive::{OnlineStats, Summary};
pub use erf_impl::{erf, erfc};
pub use hist::Histogram;
