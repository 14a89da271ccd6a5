//! Bad command-line arguments end in a usage error (exit 2), never in a
//! panic.

use std::process::Command;

#[test]
fn leaf_counts_that_are_not_powers_of_two_are_usage_errors() {
    let cases: [&[&str]; 5] = [
        &["decomp", "--pes", "6"],
        &["decomp", "--pes", "0"],
        &["stream", "--pes", "6"],
        &["stream", "--pes", "0"],
        &["model", "conform", "--pes", "6"],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_cst-tools")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("--pes wants a power of two"), "{args:?}: {stderr}");
    }
}
