//! `cello_run` refuses a count that is not a positive integer with the
//! usage and exit status 2, before building anything; it used to panic
//! (exit 101) or, for `--n 0`, run an empty CG.

use std::process::Command;

#[test]
fn counts_must_be_positive_integers() {
    for args in [
        &["--n", "abc"][..],
        &["--n", "0"],
        &["--n", "-3"],
        &["--iterations", "0"],
        &["--blocks", "0", "--workload", "resnet"],
        &["--sram-mb", "0"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_cello_run"))
            .args(args)
            .output()
            .expect("cello_run runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("USAGE:"),
            "{args:?} prints no usage: {stderr}"
        );
    }
}
