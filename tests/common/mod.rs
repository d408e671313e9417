//! What the live-runtime suites share.

use fatih::net::runtime::LiveOutcome;
use std::collections::HashMap;
use std::time::Duration;

/// The longest any shard thread went without recording a trace event. A
/// flow ticks every 2 ms and the retransmission pump every 12.5 ms, so
/// anything much longer is the host holding the thread.
///
/// Accuracy and completeness are conditional on bounded delay: a packet
/// held between two taps for longer than the maturity lag reads as
/// fabricated, summaries held past the exchange budget as a timeout, and a
/// dropper scheduled a few dozen times in a run drops too little to
/// convict. A run in which the host held a shard that long shows nothing
/// either way, so the suites judge a failed run only if this stayed within
/// the maturity lag, and otherwise run it again (three attempts at most).
pub fn longest_stall(outcome: &LiveOutcome) -> Duration {
    assert_eq!(outcome.trace.dropped(), 0, "the trace ring is too small");
    let mut last: HashMap<u32, u64> = HashMap::new();
    let mut longest = 0;
    for e in outcome.trace.events() {
        if let Some(prev) = last.insert(e.shard, e.t_ns) {
            longest = longest.max(e.t_ns.saturating_sub(prev));
        }
    }
    Duration::from_nanos(longest)
}
