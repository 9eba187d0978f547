//! Tiny `--flag value` argument parsing shared by `kg-serve`,
//! `kg-loadgen` and the bench harness's experiment binaries (no external
//! parser crate). Each binary names its [`Flags`], and [`Args::parse`],
//! the one way in, refuses an unknown flag or a malformed value with exit
//! status 2 before the binary does anything.

/// Flags a binary accepts, each of which takes a value, and the test
/// their values must pass (see [`Args::parse`]).
pub type Flags = [(&'static [&'static str], fn(&str) -> bool)];

/// Whether `value` parses as a `T`: the value test of numeric [`Flags`].
pub fn parses<T: std::str::FromStr>(value: &str) -> bool {
    value.parse::<T>().is_ok()
}

/// Captured process arguments.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (skipping the program name) and
    /// checks them against `flags`. An unknown flag, a flag without a
    /// value, or a value that fails its test is printed, naming the flag,
    /// and the process exits with status 2.
    pub fn parse(flags: &Flags) -> Self {
        let args = Args { raw: std::env::args().skip(1).collect() };
        if let Err(e) = args.check(flags) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        args
    }

    /// Checks that the arguments are pairs of a `--name` from `flags` and
    /// a value that passes its test. The error names the first flag that
    /// is unknown, or whose value is missing or does not parse.
    fn check(&self, flags: &Flags) -> Result<(), String> {
        for pair in self.raw.chunks(2) {
            let name = pair[0].strip_prefix("--").unwrap_or_default();
            let Some((_, valid)) = flags.iter().find(|(names, _)| names.contains(&name)) else {
                return Err(format!("unknown flag '{}'", pair[0]));
            };
            match pair.get(1) {
                Some(value) if valid(value) => {}
                Some(value) => return Err(format!("--{name}: cannot parse '{value}'")),
                None => return Err(format!("--{name} needs a value")),
            }
        }
        Ok(())
    }

    /// The value after `--name`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get_str(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The value after `--name`, parsed, if present.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get_str(name).and_then(|v| v.parse().ok())
    }

    /// The value after `--name` as a string, if present.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Args {
        Args { raw: raw.iter().map(|s| s.to_string()).collect() }
    }

    #[test]
    fn flags_parse_with_defaults() {
        let a = args(&["--workers", "3", "--addr", "0.0.0.0:80"]);
        assert_eq!(a.get("workers", 8usize), 3);
        assert_eq!(a.get("missing", 8usize), 8);
        assert_eq!(a.get_opt::<u64>("workers"), Some(3));
        assert_eq!(a.get_opt::<u64>("missing"), None);
        assert_eq!(a.get_str("addr"), Some("0.0.0.0:80"));
    }

    #[test]
    fn check_names_the_first_bad_flag() {
        const FLAGS: &Flags = &[(&["addr"], |_| true), (&["workers"], parses::<usize>)];
        let check = |raw: &[&str]| args(raw).check(FLAGS);
        assert_eq!(check(&[]), Ok(()));
        assert_eq!(check(&["--workers", "3", "--addr", "x"]), Ok(()));
        assert_eq!(check(&["--data_dir", "x"]), Err("unknown flag '--data_dir'".into()));
        assert_eq!(check(&["stray"]), Err("unknown flag 'stray'".into()));
        assert_eq!(check(&["--workers", "eight"]), Err("--workers: cannot parse 'eight'".into()));
        assert_eq!(check(&["--addr", "x", "--workers"]), Err("--workers needs a value".into()));
    }
}
