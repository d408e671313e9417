//! A summary's wire form is its record's columns (`Report::encode`): the
//! entry count, the time marks' and size runs' counts, the fingerprints,
//! the low time words, the `(first index, high word)` marks and the
//! `(first index, size)` runs. Seeded loops, as in `properties.rs`.
//!
//! Every report round-trips exactly, across several 2³² ns marks and
//! whatever its sizes. Every malformed input is refused without a panic
//! and without an allocation: a counting global allocator counts this
//! thread's allocations around each refused decode. A decode that succeeds
//! on mutated bytes is canonical — it encodes back to those bytes.

use fatih::crypto::Fingerprint;
use fatih::protocols::monitor::{Report, ReportEntry};
use fatih::sim::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations made by this thread so far (const-initialised, so
    /// reading it allocates nothing).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn counted() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is passed to `System` unchanged; counting touches a
// thread-local `Cell` only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        counted();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        counted();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const WRAP: u64 = 1 << 32;
/// Bytes ahead of the columns.
const HEADER: usize = 16;

/// `Report::decode(bytes)` and the allocations it made.
fn decode(bytes: &[u8]) -> (Option<Report>, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let report = Report::decode(bytes);
    (report, ALLOCATIONS.with(Cell::get) - before)
}

/// Asserts that `bytes` are refused, allocating nothing.
#[track_caller]
fn refused(bytes: &[u8], what: &str) {
    let (report, allocated) = decode(bytes);
    assert_eq!(report, None, "{what}: accepted");
    assert_eq!(
        allocated, 0,
        "{what}: refused after {allocated} allocations"
    );
}

/// A report of up to `max` entries whose times start anywhere in the
/// first few 2³² ns and may jump whole marks; sizes hold, change or all
/// differ.
fn random_report(rng: &mut StdRng, max: usize) -> Report {
    let mut t = rng.gen_range(0..4 * WRAP);
    let mut size = 1000u32;
    let all_differ = rng.gen_bool(0.2);
    let entries = (0..rng.gen_range(0..max + 1))
        .map(|_| {
            t += match rng.gen_range(0..8u32) {
                0 => 0,
                1 => WRAP * rng.gen_range(1..3u64),
                _ => rng.gen_range(1..WRAP / 4),
            };
            if all_differ || rng.gen_bool(0.1) {
                size = rng.gen();
            }
            ReportEntry {
                fingerprint: Fingerprint::new(rng.gen()),
                size,
                time: SimTime::from_ns(t),
            }
        })
        .collect();
    Report { entries }
}

/// How many times a value differs from the one before it (the first
/// counts), over `values`.
fn changes(values: impl Iterator<Item = u64>) -> usize {
    let mut last = None;
    values.filter(|&v| last.replace(v) != Some(v)).count()
}

/// The marks' and runs' counts a report's encoding holds.
fn lists(r: &Report) -> (usize, usize) {
    let marks = changes(r.entries.iter().map(|e| e.time.as_ns() >> 32));
    let runs = changes(r.entries.iter().map(|e| u64::from(e.size)));
    (marks, runs)
}

#[test]
fn every_report_round_trips_in_its_columns() {
    let mut crossed = 0;
    for case in 0u64..400 {
        let rng = &mut StdRng::seed_from_u64(0x5EED_0000 + case);
        let report = random_report(rng, 200);
        let bytes = report.encode();
        let (marks, runs) = lists(&report);
        let n = report.len();
        assert_eq!(
            bytes.len(),
            HEADER + 12 * n + 8 * (marks + runs),
            "case {case}"
        );
        // Never more than the row form's 20 B an entry, past a header and
        // 8 B a 2³² ns mark: a size run per entry costs 8 B, as in memory.
        assert!(bytes.len() <= HEADER + 20 * n + 8 * marks, "case {case}");
        assert_eq!(Report::decode(&bytes), Some(report), "case {case}");
        crossed += usize::from(marks > 2);
    }
    assert!(crossed > 100, "only {crossed} reports crossed two marks");
    let empty = Report::default().encode();
    assert_eq!(empty, [0; HEADER]);
    assert_eq!(Report::decode(&empty), Some(Report::default()));
}

fn entry(fp: u64, size: u32, ns: u64) -> ReportEntry {
    ReportEntry {
        fingerprint: Fingerprint::new(fp),
        size,
        time: SimTime::from_ns(ns),
    }
}

#[test]
fn malformed_summaries_are_refused_without_allocating() {
    // Three marks, three runs: entries 0–1 in mark 1 at 1000 B, 2–3 in
    // mark 2 (2 at 40 B, 3 at 1500 B), 4 in mark 4 at 1500 B.
    let report = Report {
        entries: vec![
            entry(1, 1000, WRAP + 5),
            entry(2, 1000, WRAP + 9),
            entry(3, 40, 2 * WRAP + 1),
            entry(4, 1500, 2 * WRAP + 7),
            entry(5, 1500, 4 * WRAP),
        ],
    };
    let good = report.encode();
    assert_eq!(good.len(), HEADER + 12 * 5 + 8 * (3 + 3));
    assert_eq!(decode(&good).0, Some(report.clone()));
    // Byte offsets: entry i's low word, mark k and run k.
    let lo = |i: usize| HEADER + 8 * 5 + 4 * i;
    let mark = |k: usize| HEADER + 12 * 5 + 8 * k;
    let run = |k: usize| mark(3 + k);
    // `good` with the u32 at each offset replaced.
    let edited = |edits: &[(usize, u32)]| {
        let mut b = good.clone();
        for &(at, v) in edits {
            b[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        b
    };

    // Every truncation, and one byte too many.
    for len in 0..good.len() {
        refused(&good[..len], &format!("truncated to {len}"));
    }
    refused(&[&good[..], &[0]].concat(), "one byte past");

    // Counts whose byte totals overflow — one wrapping round to the true
    // length — and counts the lists cannot hold.
    let with_header = |n: u64, marks: u32, runs: u32, body: &[u8]| {
        let mut b = n.to_le_bytes().to_vec();
        b.extend_from_slice(&marks.to_le_bytes());
        b.extend_from_slice(&runs.to_le_bytes());
        b.extend_from_slice(body);
        b
    };
    let body = &good[HEADER..];
    let wraps = 5 + 3 * (1u64 << 62);
    assert_eq!(wraps.wrapping_mul(12), 12 * 5);
    refused(&with_header(wraps, 3, 3, body), "entry count wraps");
    refused(
        &with_header(u64::MAX, 3, 3, body),
        "entry count at u64::MAX",
    );
    refused(
        &with_header(5, u32::MAX, u32::MAX, body),
        "lists at u32::MAX",
    );
    refused(&with_header(0, 0, 1, &[0; 8]), "a run with no entries");
    refused(&with_header(1, 0, 1, &[0; 20]), "an entry with no mark");
    refused(&with_header(1, 1, 0, &[0; 20]), "an entry with no run");

    // Marks and runs that do not start at 0, do not increase, point past
    // the count, or repeat the value before.
    for (first, name) in [(mark(0), "marks"), (run(0), "runs")] {
        let third = first + 16;
        refused(&edited(&[(first, 1)]), &format!("{name} starting at 1"));
        refused(
            &edited(&[(first + 8, 0)]),
            &format!("{name} opening 0 twice"),
        );
        refused(&edited(&[(third, 2)]), &format!("{name} opening 2 twice"));
        refused(&edited(&[(third, 1)]), &format!("{name} going back"));
        refused(&edited(&[(third, 5)]), &format!("{name} at the count"));
        refused(
            &edited(&[(third, u32::MAX)]),
            &format!("{name} far past it"),
        );
    }
    refused(
        &edited(&[(mark(1) + 4, 1)]),
        "a mark repeating its high word",
    );
    refused(&edited(&[(run(1) + 4, 1000)]), "a run repeating its size");
    // A fingerprint outside its field, which would read back reduced.
    refused(
        &edited(&[(HEADER + 4, u32::MAX)]),
        "a fingerprint past the prime",
    );

    // Descending times: within a mark, and a mark whose high word falls.
    refused(&edited(&[(lo(1), 4)]), "low words falling in a mark");
    refused(&edited(&[(mark(2) + 4, 1)]), "a mark falling");
    // A low word falling across a mark is a rising time, and accepted.
    let (rising, _) = decode(&edited(&[(lo(2), 0)]));
    let second_mark = rising.map(|r| r.entries[2].time);
    assert_eq!(second_mark, Some(SimTime::from_ns(2 * WRAP)));
}

/// Random byte edits of random reports' encodings: nothing panics, a
/// refusal allocates nothing, and whatever is accepted is canonical.
#[test]
fn mutated_summaries_are_refused_or_canonical() {
    let mut accepted = 0;
    for case in 0u64..2_000 {
        let rng = &mut StdRng::seed_from_u64(0xF022_0000 + case);
        let mut bytes = random_report(rng, 12).encode();
        for _ in 0..rng.gen_range(1..4u32) {
            let i = rng.gen_range(0..bytes.len() + 1);
            match rng.gen_range(0..4u32) {
                _ if i == bytes.len() => bytes.push(rng.gen()),
                0 => bytes[i] ^= 1 << rng.gen_range(0..8u32),
                1 => bytes[i] = rng.gen(),
                2 => bytes.truncate(i),
                _ => bytes.insert(i, rng.gen()),
            }
        }
        match decode(&bytes) {
            (Some(report), _) => {
                accepted += 1;
                assert_eq!(report.encode(), bytes, "case {case}: not canonical");
            }
            (None, allocated) => assert_eq!(allocated, 0, "case {case}"),
        }
    }
    // Fingerprint and some low-word edits are well formed.
    assert!(accepted > 100, "only {accepted} edits accepted");
}
