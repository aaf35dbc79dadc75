//! Reading a snapshot back costs about its own size in memory, not a JSON
//! tree's (some 780 bytes per 32-byte event, about 14 times the text).
//!
//! This is a test binary of its own, with one test, so no other test's
//! allocations share the process high-water mark it reads. Linux only: it
//! reads `VmHWM` from `/proc/self/status`.

#![cfg(target_os = "linux")]

use skia_telemetry::{Event, EventKind, Snapshot};

const EVENTS: u64 = 200_000;

/// The process's peak resident set size so far, in bytes.
fn vm_hwm_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .expect("VmHWM in kB");
    kb * 1024
}

#[test]
fn parsing_a_snapshot_raises_peak_rss_by_less_than_its_length() {
    // Keep only the text: the snapshot it came from is freed before the
    // measurement starts.
    let text = {
        let mut snap = Snapshot::default();
        snap.counters.insert("sim.steps_total".into(), EVENTS);
        snap.events = (0..EVENTS)
            .map(|i| Event {
                cycle: i * 3,
                kind: EventKind::ALL[(i % 7) as usize],
                // Every fifth pc is a wrapped wrong-path address near 2^64.
                pc: if i % 5 == 0 {
                    0xffff_ffff_8000_0000 + i
                } else {
                    0x40_0000 + i * 4
                },
                arg: i % 11,
            })
            .collect();
        snap.events_seen = EVENTS;
        snap.to_json_string()
    };

    let before = vm_hwm_bytes();
    let snap = Snapshot::from_json_str(&text).expect("the snapshot reads back");
    let rise = vm_hwm_bytes().saturating_sub(before);

    assert_eq!(snap.events.len() as u64, EVENTS);
    assert_eq!(snap.events[5].pc, 0xffff_ffff_8000_0005);
    assert!(
        rise < text.len() as u64,
        "parsing {} bytes raised peak RSS by {rise} bytes",
        text.len()
    );
}
