//! Strict command-line flags for the bench binaries.
//!
//! Each binary declares its flags up front. An unknown flag, a flag
//! missing its value, or a value that does not parse prints the usage
//! text and exits with status 2 — before the binary runs or writes
//! anything. An input file that cannot be read or parsed exits 2 the
//! same way, through [`bad_input`].

use std::str::FromStr;

/// A binary's parsed command line.
#[derive(Debug)]
pub struct Flags {
    usage: &'static str,
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    /// Parse the process arguments. `valued` flags take the next
    /// argument as their value; `switches` stand alone.
    pub fn parse(usage: &'static str, valued: &[&str], switches: &[&str]) -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::from_args(usage, valued, switches, &args).unwrap_or_else(|e| exit_usage(usage, &e))
    }

    /// [`Flags::parse`] over explicit arguments, returning the complaint
    /// instead of exiting.
    fn from_args(
        usage: &'static str,
        valued: &[&str],
        switches: &[&str],
        args: &[String],
    ) -> Result<Flags, String> {
        let mut flags = Flags {
            usage,
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.values.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
                flags.switches.push(a.clone());
            } else {
                return Err(format!("unknown argument {a:?}"));
            }
        }
        Ok(flags)
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The raw value of flag `name` (its first occurrence), if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of flag `name` converted by `conv`; exits with usage if
    /// `conv` rejects it.
    pub fn get_with<T>(&self, name: &str, conv: impl FnOnce(&str) -> Option<T>) -> Option<T> {
        let raw = self.get(name)?;
        Some(conv(raw).unwrap_or_else(|| self.fail(&format!("invalid value {raw:?} for {name}"))))
    }

    /// The parsed value of flag `name`, or `default` when the flag is
    /// absent; exits with usage if it does not parse.
    pub fn value_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.get_with(name, |s| s.parse().ok()).unwrap_or(default)
    }

    /// Print `msg` and the usage text, then exit with status 2.
    pub fn fail(&self, msg: &str) -> ! {
        exit_usage(self.usage, msg)
    }
}

/// Report input file `path` and the typed error that refused it, then
/// exit with status 2.
pub fn bad_input(path: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("error: {path}: {err}");
    std::process::exit(2)
}

fn exit_usage(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}\n{usage}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Flags, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::from_args("usage: t", &["--n", "--name"], &["--quick"], &args)
    }

    #[test]
    fn reads_values_and_switches() {
        let f = parse(&["--n", "3", "--quick", "--name", "x"]).unwrap();
        assert_eq!(f.value_or("--n", 0u32), 3);
        assert_eq!(f.get("--name"), Some("x"));
        assert!(f.has("--quick"));
        assert_eq!(f.value_or("--absent", 7u32), 7);
        assert_eq!(f.get_with("--name", |s| Some(s.len())), Some(1));
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["positional"]).is_err());
        assert!(parse(&["--n"]).unwrap_err().contains("needs a value"));
    }
}
