//! Tiny `--flag value` argument parsing shared by `kg-serve`,
//! `kg-loadgen` and the bench harness's experiment binaries (no external
//! parser crate; unknown flags are ignored, and a malformed value falls
//! back to the default).

/// Captured process arguments.
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (skipping the program name).
    pub fn parse() -> Self {
        Args { raw: std::env::args().skip(1).collect() }
    }

    /// Builds from an explicit list (tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// The value after `--name`, parsed, or `default`.
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get_str(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    /// The value after `--name`, parsed, if present.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.get_str(name).and_then(|v| v.parse().ok())
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
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

    #[test]
    fn flags_parse_with_defaults() {
        let a = Args::from_vec(
            ["--workers", "3", "--verbose", "--addr", "0.0.0.0:80"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        );
        assert_eq!(a.get("workers", 8usize), 3);
        assert_eq!(a.get("missing", 8usize), 8);
        assert_eq!(a.get_opt::<u64>("workers"), Some(3));
        assert_eq!(a.get_opt::<u64>("missing"), None);
        assert!(a.has("verbose") && !a.has("quiet"));
        assert_eq!(a.get_str("addr"), Some("0.0.0.0:80"));
    }
}
