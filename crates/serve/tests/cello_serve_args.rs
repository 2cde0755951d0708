//! `cello_serve` refuses a worker count or flight-recorder depth that is
//! not a positive integer with the usage and exit status 2, before opening
//! its cache or binding a socket. `--workers 0` used to be accepted and
//! silently run one worker.

use std::process::Command;

#[test]
fn counts_must_be_positive_integers() {
    for flag in ["--workers", "--flight-depth"] {
        for value in ["0", "-1", "x"] {
            let out = Command::new(env!("CARGO_BIN_EXE_cello_serve"))
                .args([flag, value])
                .env_remove("CELLO_LOG")
                .output()
                .expect("cello_serve runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
            assert!(
                stderr.contains("usage: cello_serve"),
                "{flag} {value} prints no usage: {stderr}"
            );
        }
    }
}
