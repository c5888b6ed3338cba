//! `shadowfax-server` argument handling: malformed `--peer` / `--layout`
//! values (and invalid resolved layouts), and anything asking one process
//! to host more than one server, must print the offending detail plus the
//! usage text and exit with the distinct code 64 (`EX_USAGE`) — never bind
//! a socket, never exit with the generic 1, and never panic.

use std::process::Command;

/// Runs the server binary with `args` and returns `(exit code, stderr)`.
/// None of the invocations here may ever reach the serving loop.
fn server(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_shadowfax-server"))
        .args(args)
        .output()
        .expect("run shadowfax-server");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

/// Exit code for malformed flags / invalid layouts (`EX_USAGE`), as
/// documented in the server binary's header.
const EXIT_USAGE: i32 = 64;

#[test]
fn malformed_values_exit_64_with_the_usage_message() {
    // Malformed --peer specs: missing addr, garbage, a key given twice
    // (never silently overwritten), and the removed `owns=` field
    // (`--layout` assigns every id's ranges).
    for peer in [
        "id=1",
        "id=x,addr=127.0.0.1:1",
        "total garbage",
        "id=1,addr=127.0.0.1:1,id=2",
        "id=1,addr=127.0.0.1:1,addr=127.0.0.1:2",
        "id=1,addr=127.0.0.1:1,owns=none",
        "id=1,addr=127.0.0.1:1,owns=0x10-0x5",
    ] {
        let (code, _, stderr) = server(&["--peer", peer]);
        assert_eq!(
            code,
            Some(EXIT_USAGE),
            "--peer {peer:?} should exit {EXIT_USAGE}; stderr: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "--peer {peer:?} did not print usage; stderr: {stderr}"
        );
        assert!(
            stderr.contains("--peer"),
            "--peer {peer:?} error does not name the flag; stderr: {stderr}"
        );
    }

    // Malformed --layout specs.
    for layout in ["bogus", "0=0x10-0x5", "0=0x0-0xzz", ""] {
        let (code, _, stderr) = server(&["--layout", layout]);
        assert_eq!(
            code,
            Some(EXIT_USAGE),
            "--layout {layout:?} should exit {EXIT_USAGE}; stderr: {stderr}"
        );
        assert!(stderr.contains("usage:"), "stderr: {stderr}");
    }

    // A layout that parses but does not resolve (gap in the space, id not
    // registered anywhere) is the same class of configuration error.
    let (code, _, stderr) = server(&[
        "--peer",
        "id=1,addr=127.0.0.1:9",
        "--layout",
        "0=0x0-0x1000,1=0x2000-0xffffffffffffffff",
    ]);
    assert_eq!(code, Some(EXIT_USAGE), "gap layout; stderr: {stderr}");
    assert!(stderr.contains("no server owns"), "stderr: {stderr}");

    // A peer colliding with this process's own id (0 by default) is a
    // duplicate-registration error.
    let (code, _, stderr) = server(&["--peer", "id=0,addr=127.0.0.1:9"]);
    assert_eq!(
        code,
        Some(EXIT_USAGE),
        "peer/local id collision; stderr: {stderr}"
    );
    assert!(stderr.contains("registered twice"), "stderr: {stderr}");

    // One process hosts one server: two peers at one address would be two
    // servers in one process, and --servers accepts only 1.
    let (code, _, stderr) = server(&[
        "--peer",
        "id=1,addr=127.0.0.1:9",
        "--peer",
        "id=2,addr=127.0.0.1:9",
    ]);
    assert_eq!(
        code,
        Some(EXIT_USAGE),
        "duplicate peer addr; stderr: {stderr}"
    );
    assert!(stderr.contains("named twice"), "stderr: {stderr}");
    for servers in ["2", "0", "lots"] {
        let (code, _, stderr) = server(&["--servers", servers]);
        assert_eq!(
            code,
            Some(EXIT_USAGE),
            "--servers {servers}; stderr: {stderr}"
        );
        assert!(stderr.contains("--servers"), "stderr: {stderr}");
    }
    let (_, _, stderr) = server(&["--servers", "2"]);
    assert!(
        stderr.contains("one process hosts one server"),
        "stderr: {stderr}"
    );
    // `--servers 1` stays accepted, for the scripts that pass it.
    let (code, stdout, _) = server(&["--servers", "1", "--help"]);
    assert_eq!(code, Some(0), "--servers 1 must be accepted");
    assert!(stdout.contains("usage:"), "stdout: {stdout}");

    // The removed --coordinator flag is an unknown flag: the coordinator
    // runs exactly when peers are given.
    let (code, _, stderr) = server(&["--coordinator", "on"]);
    assert_eq!(code, Some(EXIT_USAGE), "stderr: {stderr}");
    assert!(
        stderr.contains("unknown flag --coordinator"),
        "stderr: {stderr}"
    );

    // An out-of-range --base-id is rejected, never silently truncated to a
    // colliding 32-bit id.
    let (code, _, stderr) = server(&["--base-id", "4294967296"]);
    assert_eq!(code, Some(EXIT_USAGE), "stderr: {stderr}");
    assert!(stderr.contains("--base-id"), "stderr: {stderr}");

    // Unknown flags too.
    let (code, _, stderr) = server(&["--frobnicate"]);
    assert_eq!(code, Some(EXIT_USAGE), "stderr: {stderr}");
    assert!(stderr.contains("unknown flag"), "stderr: {stderr}");

    // --help is not an error: usage on stdout, exit 0.
    let (code, stdout, _) = server(&["--help"]);
    assert_eq!(code, Some(0), "--help should exit 0");
    assert!(stdout.contains("usage:"), "stdout: {stdout}");
}
