//! Traffic validation for malicious-router detection.
//!
//! Traffic validation (dissertation §2.4.1, §4.2.1) is the first of the
//! three subproblems of detecting a compromised router: *what information is
//! kept about packet traffic and how it is used to decide that traffic was
//! altered en route*. The governing principle is **conservation of
//! traffic** — some property of the traffic entering a region of the network
//! must be consistent with the same property of the traffic leaving it.
//!
//! This crate provides:
//!
//! * [`summary`] — per-policy traffic summaries (`info(r, π, τ)`): flow
//!   counters, fingerprint multisets, ordered lists, timestamped lists;
//! * [`tv`] — the `TV` predicates for conservation of **flow**,
//!   **content**, **order** and **timeliness**, each returning a structured
//!   verdict;
//! * [`reconcile`](mod@reconcile) — the Appendix A characteristic-polynomial set
//!   reconciliation used to exchange fingerprint sets in bandwidth
//!   proportional to the *difference*;
//! * [`digest`] — fixed-size [`ContentDigest`]s (sketch + flow counter +
//!   multiset checksum) whose recovered differences are certified
//!   bit-for-bit equal to a full-summary `difference_pair`;
//! * [`bloom`] — the cheaper, approximate Bloom-filter alternative;
//! * [`sampling`] — trajectory-sampling-style deterministic subsampling;
//! * [`field`] and [`poly`] — the GF(2⁶¹ − 1) algebra beneath
//!   reconciliation.
//!
//! # Examples
//!
//! Validate conservation of content across a path segment:
//!
//! ```
//! use fatih_validation::summary::ContentSummary;
//! use fatih_validation::tv::tv_content;
//! use fatih_crypto::UhashKey;
//!
//! let key = UhashKey::from_seed(1);
//! let mut sent = ContentSummary::default();
//! let mut received = ContentSummary::default();
//! for i in 0u64..10 {
//!     let fp = key.fingerprint(&i.to_le_bytes());
//!     sent.observe(fp, 1000);
//!     if i != 3 {
//!         received.observe(fp, 1000); // packet 3 vanished in transit
//!     }
//! }
//! let verdict = tv_content(&sent, &received);
//! assert_eq!(verdict.lost.len(), 1);
//! assert!(verdict.passes(1));  // tolerable as congestion…
//! assert!(!verdict.passes(0)); // …but not if the allowance is zero
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bloom;
pub mod digest;
pub mod field;
pub mod poly;
pub mod reconcile;
pub mod sampling;
pub mod summary;
pub mod tv;

pub use bloom::BloomFilter;
pub use digest::{diff_digests, diff_via_digest, ContentDigest};
pub use reconcile::{reconcile, Delta, ReconcileError, SetSketch};
pub use sampling::SamplingPattern;
pub use summary::{ContentSummary, FlowCounter, OrderedSummary, TimedEntry, TimedSummary};
pub use tv::{
    tv_content, tv_flow, tv_order, tv_timeliness, ContentVerdict, FlowVerdict, OrderVerdict,
    TimelinessVerdict,
};
