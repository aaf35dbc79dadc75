//! Concurrent cache discipline: simultaneous `load_or_generate` /
//! `load_or_record_trace` calls for the *same* key must never publish a torn
//! entry or return divergent results.
//!
//! The store path writes a uniquely-named temp file and renames it into
//! place; the unique name must hold per thread, not just per process — a
//! pid-only suffix lets two racing threads interleave writes into one temp
//! file and then publish the mangled bytes. These tests race threads through
//! a barrier and verify byte-identical results, a loadable published entry,
//! and no stray temp files.

use std::sync::{Arc, Barrier};

use skia_workloads::cache::{load_or_generate_in, load_or_record_trace_in};
use skia_workloads::{Program, ProgramSpec, RecordedTrace};

fn test_spec(seed: u64) -> ProgramSpec {
    ProgramSpec {
        seed,
        functions: 50,
        ..ProgramSpec::default()
    }
}

fn assert_programs_equal(a: &Program, b: &Program) {
    assert_eq!(a.base(), b.base());
    assert_eq!(
        a.bytes_at(a.base(), a.code_bytes()),
        b.bytes_at(b.base(), b.code_bytes())
    );
    assert_eq!(a.functions(), b.functions());
    assert_eq!(a.branch_table(), b.branch_table());
}

fn no_temp_leftovers(dir: &std::path::Path) {
    let leftovers: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
}

#[test]
fn racing_program_stores_publish_identical_untorn_entries() {
    let dir = std::env::temp_dir().join(format!("skia-conc-prog-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const THREADS: usize = 4;
    const ROUNDS: usize = 6;
    for round in 0..ROUNDS {
        let spec = test_spec(0xC0CC + round as u64);
        let reference = Program::generate(&spec);
        let barrier = Arc::new(Barrier::new(THREADS));
        let results: Vec<Program> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let dir = dir.clone();
                    let spec = spec.clone();
                    s.spawn(move || {
                        barrier.wait();
                        load_or_generate_in(Some(&dir), &spec)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &results {
            assert_programs_equal(&reference, got);
        }
        // Whatever entry the race published must itself load cleanly and
        // byte-identically (a torn file would miss, or worse, differ).
        assert_programs_equal(&reference, &load_or_generate_in(Some(&dir), &spec));
        no_temp_leftovers(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_trace_stores_publish_identical_untorn_entries() {
    let dir = std::env::temp_dir().join(format!("skia-conc-trace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    const THREADS: usize = 4;
    let spec = test_spec(0x7CACE);
    let program = Program::generate(&spec);
    let reference = RecordedTrace::record(&program, 11, 8, 600);

    for _ in 0..4 {
        let barrier = Arc::new(Barrier::new(THREADS));
        let results: Vec<RecordedTrace> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let barrier = Arc::clone(&barrier);
                    let dir = dir.clone();
                    let (program, spec) = (&program, &spec);
                    s.spawn(move || {
                        barrier.wait();
                        let (t, _outcome) =
                            load_or_record_trace_in(Some(&dir), program, spec, 11, 8, 600);
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for got in &results {
            assert_eq!(&reference, got);
        }
        let (served, _) = load_or_record_trace_in(Some(&dir), &program, &spec, 11, 8, 600);
        assert_eq!(reference, served);
        no_temp_leftovers(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
