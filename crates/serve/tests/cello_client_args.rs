//! `cello_client` refuses an iteration or layer count that is not a `u32`
//! with exit status 2, before connecting. An out-of-range count used to be
//! truncated: `--iterations 4294967298` reached the server as 2.

use std::process::Command;

#[test]
fn counts_must_fit_u32() {
    for flag in ["--iterations", "--layers"] {
        for value in ["4294967296", "-1", "x"] {
            let out = Command::new(env!("CARGO_BIN_EXE_cello_client"))
                .args(["--addr", "127.0.0.1:1", flag, value])
                .output()
                .expect("cello_client runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
            assert!(
                stderr.contains(&format!("{flag}: not a u32")),
                "{flag} {value}: {stderr}"
            );
        }
    }
}
