//! Command-line flags, parsed one way for the `scenario` binary and the
//! experiment binaries of `guanyu-bench`: `--name value` pairs and bare
//! `--name` switches; unknown flags are ignored. Each binary crate tests the
//! flags it reads against [`parse_arg`].

use std::str::FromStr;

/// [`arg`] with the error returned: the message names the flag.
///
/// # Errors
///
/// `--name` is present but its value is missing or does not parse as `T`.
pub fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(i) = args.iter().position(|a| a == &format!("--{name}")) else {
        return Ok(default);
    };
    let value = args
        .get(i + 1)
        .ok_or_else(|| format!("--{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("--{name}: cannot read `{value}`"))
}

/// The value of `--name` in `args`, or `default` when the flag is absent.
/// A present flag with a missing or unparsable value prints an error naming
/// the flag and exits with code 2 — `--steps 4o0` must not silently run the
/// default.
pub fn arg<T: FromStr>(args: &[String], name: &str, default: T) -> T {
    parse_arg(args, name, default).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Whether the bare switch `--name` is present.
pub fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}
