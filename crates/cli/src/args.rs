//! Minimal `--key value` flag parsing with typed accessors.

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed `--key value` flags.
#[derive(Debug, Clone, Default)]
pub struct Flags {
    values: BTreeMap<String, String>,
}

/// Flags that stand alone: their presence means `true` and no value
/// token follows them on the command line.
const BOOLEAN_FLAGS: &[&str] = &["lenient", "resume"];

impl Flags {
    /// Parse a flag list. Every flag must start with `--` and carry
    /// exactly one value — except the boolean flags in [`BOOLEAN_FLAGS`],
    /// which take none. A value may not itself start with `--`: that
    /// token is the next flag, so the flag before it is missing its
    /// value. Repeated flags keep the last value.
    pub fn parse(argv: &[String]) -> Result<Self, CliError> {
        let mut values = BTreeMap::new();
        let mut iter = argv.iter();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!(
                    "expected --flag, found {token:?}"
                )));
            };
            if BOOLEAN_FLAGS.contains(&key) {
                values.insert(key.to_string(), "true".to_string());
                continue;
            }
            let Some(value) = iter.next().filter(|v| !v.starts_with("--")) else {
                return Err(CliError::Usage(format!("flag --{key} is missing a value")));
            };
            values.insert(key.to_string(), value.clone());
        }
        Ok(Flags { values })
    }

    /// Build from key/value pairs (tests and programmatic use).
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        Flags {
            values: pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        }
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))
    }

    /// Whether a boolean flag (e.g. `--lenient`) was given.
    pub fn is_set(&self, key: &str) -> bool {
        self.get(key).is_some_and(|v| v != "false" && v != "0")
    }

    /// Optional typed flag with default; malformed values are an error.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| {
                CliError::Usage(format!("flag --{key} has invalid value {raw:?}"))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs() {
        let f = Flags::parse(&strings(&["--seed", "7", "--out", "x.json"])).unwrap();
        assert_eq!(f.get("seed"), Some("7"));
        assert_eq!(f.require("out").unwrap(), "x.json");
        assert_eq!(f.get_or("seed", 0u64).unwrap(), 7);
        assert_eq!(f.get_or("missing", 42u64).unwrap(), 42);
    }

    #[test]
    fn rejects_positional() {
        assert!(Flags::parse(&strings(&["oops"])).is_err());
    }

    #[test]
    fn rejects_dangling_flag() {
        assert!(Flags::parse(&strings(&["--seed"])).is_err());
    }

    #[test]
    fn flag_followed_by_flag_is_missing_its_value() {
        // A flag must not swallow the next flag as its value.
        let err = Flags::parse(&strings(&["--quantized", "--seed", "5"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(err.to_string().contains("--quantized is missing a value"), "{err}");
        // Single-dash values such as negative numbers are still values.
        let f = Flags::parse(&strings(&["--offset", "-5"])).unwrap();
        assert_eq!(f.get("offset"), Some("-5"));
    }

    #[test]
    fn boolean_flag_takes_no_value() {
        let f = Flags::parse(&strings(&["--lenient", "--out", "x.json"])).unwrap();
        assert!(f.is_set("lenient"));
        assert_eq!(f.get("out"), Some("x.json"));
    }

    #[test]
    fn trailing_boolean_flag_parses() {
        let f = Flags::parse(&strings(&["--out", "x.json", "--lenient"])).unwrap();
        assert!(f.is_set("lenient"));
        assert!(!f.is_set("missing"));
    }

    #[test]
    fn missing_required_flag() {
        let f = Flags::parse(&[]).unwrap();
        let err = f.require("dataset").unwrap_err();
        assert!(err.to_string().contains("--dataset"));
    }

    #[test]
    fn invalid_typed_value() {
        let f = Flags::from_pairs(&[("seed", "abc")]);
        assert!(f.get_or("seed", 0u64).is_err());
    }

    #[test]
    fn repeated_flag_keeps_last() {
        let f = Flags::parse(&strings(&["--seed", "1", "--seed", "2"])).unwrap();
        assert_eq!(f.get("seed"), Some("2"));
    }
}
