//! The `experiments` binary refuses bad arguments up front: usage on
//! stderr and exit code 2, before it prepares any project.

use std::process::Command;

fn exit_code(args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
        .status
        .code()
}

#[test]
fn bad_arguments_exit_2_before_any_work() {
    for args in [
        &["fgi6"][..],
        &["exec", "--scale", "ful"],
        &["parallel", "--threads", "two"],
        &["thm1", "--scale"],
        &["fig5", "--bogus"],
        &["compare", "a.json", "b.json", "--threshold", "x"],
        &["compare", "a.json"],
    ] {
        assert_eq!(exit_code(args), Some(2), "experiments {args:?}");
    }
}
