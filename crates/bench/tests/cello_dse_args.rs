//! `cello_dse` runs one trajectory and takes one option, `--audit`. Any
//! other argument, the retired mode flags included, prints the usage and
//! exits 2 before anything is tuned.

use std::process::Command;

#[test]
fn only_audit_is_accepted() {
    for args in [
        &["--quick"][..],
        &["--nodes", "4,16,64"],
        &["--tier0"],
        &["--prefilter"],
        &["--per-phase-sram"],
        &["--audit", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cello_dse"))
            .args(args)
            .output()
            .expect("cello_dse runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: cello_dse"),
            "{args:?} prints no usage: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} tuned before refusing");
    }
}
