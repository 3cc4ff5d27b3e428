//! End-to-end test of the counting allocator: this test binary actually
//! installs [`CountingAlloc`] as its global allocator (the one place in
//! the workspace that does so unconditionally), so the tallies here come
//! from real heap traffic.

use std::sync::{Mutex, MutexGuard};

use qa_obs::Observer;
use qa_pulse::{CountingAlloc, HeapStats, SpanProfiler, Weight};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// The tallies are process-wide and `cargo test` runs tests on parallel
/// threads, so a buffer another test frees between two snapshots would
/// show up here. Each test holds this lock while it allocates; the test
/// harness's own small frees are covered by slack in the live-bytes
/// check.
static HEAP: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    HEAP.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn installed_allocator_counts_real_traffic() {
    let _heap = serial();
    let before = HeapStats::snapshot();
    let v: Vec<u8> = vec![7; 1 << 20];
    let mid = HeapStats::snapshot();
    drop(v);
    let after = HeapStats::snapshot();

    assert!(mid.enabled(), "allocator is installed");
    assert!(
        mid.allocated_bytes - before.allocated_bytes >= 1 << 20,
        "the 1 MiB buffer is visible in the monotone total"
    );
    assert!(
        mid.live_bytes >= before.live_bytes + (1 << 19),
        "the 1 MiB buffer is live, less any concurrent harness frees"
    );
    assert!(after.frees > before.frees);
    assert!(after.peak_bytes >= mid.live_bytes.min(mid.peak_bytes));
}

#[test]
fn heap_gauges_appear_on_the_scrape_when_accounting_is_live() {
    let _heap = serial();
    let text = qa_pulse::metrics_text(&qa_obs::Metrics::new(), "qa_alloc_test");
    for name in [
        "qa_heap_live_bytes",
        "qa_heap_peak_bytes",
        "qa_heap_allocated_bytes",
        "qa_heap_allocs",
        "qa_heap_frees",
    ] {
        assert!(text.contains(&format!("# TYPE {name} gauge")), "{name}");
    }
    qa_pulse::validate_prometheus(&text).expect("well-formed exposition");
}

#[test]
fn span_profiler_attributes_alloc_bytes_to_phases() {
    let _heap = serial();
    let mut p = SpanProfiler::new();
    p.phase_start("alloc heavy phase");
    let buf: Vec<u8> = vec![1; 1 << 20];
    p.phase_end("alloc heavy phase");
    drop(buf);

    let folded = p.into_profile().to_collapsed(Weight::AllocBytes);
    let line = folded
        .lines()
        .find(|l| l.starts_with("alloc_heavy_phase "))
        .expect("phase appears in alloc-weighted profile");
    let bytes: u64 = line.rsplit_once(' ').unwrap().1.parse().unwrap();
    assert!(
        bytes >= 1 << 20,
        "phase charged at least the 1 MiB it allocated: {line}"
    );
}
