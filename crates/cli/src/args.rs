//! Minimal argument parsing (the approved dependency set has no CLI
//! parser, and four subcommands do not justify one).

use std::collections::BTreeMap;

/// Parsed arguments: positional words plus `--flag [value]` options.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// Positional arguments in order (the first is the subcommand).
    pub positional: Vec<String>,
    /// `--key value` / `-k value` options; bare flags map to `""`.
    pub options: BTreeMap<String, String>,
}

impl Parsed {
    /// Parse an argument vector. A token starting with `-` begins an
    /// option unless it parses as a number (`--seed -1` gives `seed`
    /// the value `-1`); if the next token exists and is not an option,
    /// it becomes the option's value, otherwise the option is a bare flag.
    pub fn parse(argv: &[String]) -> Parsed {
        let is_option = |token: &str| token.starts_with('-') && token.parse::<f64>().is_err();
        let mut parsed = Parsed::default();
        let mut iter = argv.iter().peekable();
        while let Some(token) = iter.next() {
            if !is_option(token) {
                parsed.positional.push(token.clone());
                continue;
            }
            let name = token
                .strip_prefix("--")
                .or_else(|| token.strip_prefix('-'))
                .unwrap_or(token);
            let value = iter.next_if(|next| !is_option(next)).cloned();
            parsed
                .options
                .insert(name.to_string(), value.unwrap_or_default());
        }
        parsed
    }

    /// Reject the first option (in name order) that is neither global
    /// (`--help`, `--jobs`) nor in one of the `declared` groups, naming
    /// it and `command`.
    pub fn check_options(&self, command: &str, declared: &[&[&str]]) -> Result<(), String> {
        let known = |k: &str| {
            matches!(k, "help" | "jobs") || declared.iter().any(|group| group.contains(&k))
        };
        match self.options.keys().find(|k| !known(k)) {
            Some(name) => {
                let dashes = if name.len() == 1 { "-" } else { "--" };
                Err(format!(
                    "unknown option {dashes}{name} for `mnemo {command}` (see mnemo --help)"
                ))
            }
            None => Ok(()),
        }
    }

    /// A bare flag (or any option) present?
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// String option with a default.
    pub fn get_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        match self.options.get(name) {
            Some(v) if !v.is_empty() => v,
            _ => default,
        }
    }

    /// Required string option.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        match self.options.get(name) {
            Some(v) if !v.is_empty() => Ok(v),
            _ => Err(format!("missing required option -{name} / --{name}")),
        }
    }

    /// Numeric option with a default.
    pub fn number_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.options.get(name) {
            Some(v) if !v.is_empty() => v
                .parse()
                .map_err(|_| format!("option --{name}: '{v}' is not a valid number")),
            _ => Ok(default),
        }
    }

    /// First positional argument after the subcommand.
    pub fn positional_required(&self, what: &str) -> Result<&str, String> {
        self.positional
            .first()
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Parsed {
        Parsed::parse(&parts.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn positionals_and_options_split() {
        let p = parse(&[
            "consult",
            "file.trace",
            "--store",
            "redis",
            "--cache-aware",
            "-o",
            "x",
        ]);
        assert_eq!(p.positional, vec!["consult", "file.trace"]);
        assert_eq!(p.get_or("store", "?"), "redis");
        assert!(p.flag("cache-aware"));
        assert_eq!(p.require("o").unwrap(), "x");
    }

    #[test]
    fn bare_flag_followed_by_option() {
        let p = parse(&["--cache-aware", "--slo", "0.1"]);
        assert!(p.flag("cache-aware"));
        assert_eq!(p.number_or("slo", 0.0).unwrap(), 0.1);
    }

    #[test]
    fn numeric_validation() {
        let p = parse(&["--keys", "abc"]);
        assert!(p.number_or::<u64>("keys", 1).is_err());
        assert_eq!(p.number_or::<u64>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn negative_numbers_are_values_not_options() {
        let p = parse(&["--seed", "-1", "--slo", "-0.5", "-5", "--offset", "-1e3"]);
        assert_eq!(p.get_or("seed", "?"), "-1");
        assert_eq!(p.get_or("slo", "?"), "-0.5");
        assert_eq!(p.get_or("offset", "?"), "-1e3");
        assert_eq!(p.positional, vec!["-5"]);
        assert!(
            p.number_or::<u64>("seed", 42).is_err(),
            "not silently the default"
        );
    }

    #[test]
    fn undeclared_options_are_rejected_by_name() {
        let p = parse(&["serve", "--jbos", "4", "--jobs", "2", "--epoch", "8"]);
        let err = p.check_options("serve", &[&["epoch"]]).unwrap_err();
        assert!(
            err.contains("--jbos") && err.contains("`mnemo serve`"),
            "{err}"
        );
        assert!(p.check_options("serve", &[&["epoch"], &["jbos"]]).is_ok());
        let err = parse(&["-x"])
            .check_options("generate", &[&["o"]])
            .unwrap_err();
        assert!(err.contains("unknown option -x"), "{err}");
    }

    #[test]
    fn require_fails_on_missing_or_empty() {
        let p = parse(&["cmd"]);
        assert!(p.require("o").is_err());
        assert!(p.positional_required("trace file").is_ok());
        assert!(parse(&[]).positional_required("trace file").is_err());
    }
}
