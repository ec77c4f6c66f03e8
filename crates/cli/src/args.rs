//! The `sirupctl` grammar: the types of the subcommand table
//! ([`crate::commands::COMMANDS`]), the parser that checks a command line
//! against it, typed flag reads that take their defaults from it, and the
//! `help` text generated from it.
//!
//! Grammar: `sirupctl <command> [positional…] [--flag [value]]…`, flags
//! anywhere after the command. A Boolean flag stands alone (`--sigma`) and
//! takes the next token as its value only if that token is a literal `true`
//! or `false`, so `bound --sigma '<cq>'` reads the CQ as a positional. Every
//! other flag takes the next token as its value.
//!
//! A command may have several entries told apart by a mode flag (`serve
//! --listen ADDR`, `serve --scaling`, `stats --connect ADDR`, …): the first
//! entry whose mode flag is given (and not `false`) applies, else the one
//! without a mode, and each entry accepts only its own flags.
//!
//! [`parse_args`] rejects an unknown flag, a repeated flag, a flag missing
//! its value and a surplus positional. `Args::check`, which
//! [`crate::commands::run`] calls before any work, rejects an unknown
//! command, a value that does not parse as its flag's [`Kind`] and a
//! missing positional.

use crate::commands::{CliError, COMMANDS, SERVICE};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::str::FromStr;

/// What a flag's value must parse as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Stands alone, or takes a literal `true`/`false`.
    Bool,
    /// A non-negative integer.
    Int,
    /// A floating-point number.
    Float,
    /// Free text; the payload names the value in `help` (`ADDR`, `DIR`, …).
    Text(&'static str),
    /// Comma-separated non-negative integers, e.g. `1,2,4,8`.
    List,
}

impl Kind {
    /// Whether `value` is well-typed for this kind.
    pub(crate) fn accepts(self, value: &str) -> bool {
        match self {
            Kind::Bool => value == "true" || value == "false",
            Kind::Int => value.parse::<u64>().is_ok(),
            Kind::Float => value.parse::<f64>().is_ok(),
            Kind::Text(_) => true,
            Kind::List => value.split(',').all(|n| n.trim().parse::<u64>().is_ok()),
        }
    }

    /// The value's placeholder in `help`, and what a well-typed value is.
    fn describe(self) -> (&'static str, &'static str) {
        match self {
            Kind::Bool => ("", "true or false"),
            Kind::Int => ("N", "a non-negative integer"),
            Kind::Float => ("F", "a number"),
            Kind::Text(v) => (v, "text"),
            Kind::List => ("N,N,…", "a comma-separated list of integers like 1,2,4,8"),
        }
    }
}

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name, without the leading `--`.
    pub name: &'static str,
    /// What its value must parse as.
    pub kind: Kind,
    /// The value when the flag is absent; with `None`, absent means unset
    /// and the help line says what the command does then.
    pub default: Option<&'static str>,
    /// One-line help.
    pub help: &'static str,
}

impl Flag {
    /// A flag declaration (the table's one constructor).
    pub const fn of(
        name: &'static str,
        kind: Kind,
        default: Option<&'static str>,
        help: &'static str,
    ) -> Flag {
        Flag {
            name,
            kind,
            default,
            help,
        }
    }
}

/// One entry of the subcommand table.
#[derive(Debug, Clone, Copy)]
pub struct Command {
    /// The subcommand name.
    pub name: &'static str,
    /// The flag (one of its own) that selects this entry among those
    /// sharing `name`.
    pub mode: Option<&'static str>,
    /// Required positionals as `(name, what is missing without it)`; a
    /// last name ending in `...` takes every remaining one (one or more).
    pub positionals: &'static [(&'static str, &'static str)],
    /// The entry's own flags.
    pub flags: &'static [Flag],
    /// Whether it also accepts the shared [`SERVICE`] flags.
    pub service: bool,
    /// What runs it: the report it prints, or the error.
    pub run: fn(&Args) -> Result<String, CliError>,
    /// Help paragraph; `\n` separates its lines.
    pub about: &'static str,
}

impl Command {
    /// The declaration of flag `name`, own or shared.
    pub(crate) fn flag(&self, name: &str) -> Option<&'static Flag> {
        let shared = if self.service { SERVICE } else { &[] };
        self.flags.iter().chain(shared).find(|f| f.name == name)
    }

    /// `name`, or `name --mode` for a mode entry.
    pub(crate) fn title(&self) -> String {
        match self.mode {
            Some(mode) => format!("{} --{mode}", self.name),
            None => self.name.to_owned(),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The subcommand (first argument).
    pub command: String,
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// Given flags (keys without dashes; a lone Boolean flag is `true`).
    pub flags: BTreeMap<String, String>,
    /// The table entry the line selected; `None` for an unknown command.
    spec: Option<&'static Command>,
}

/// Parse a raw argument list (without the program name) against the
/// subcommand table. An unknown command parses, every later token a
/// positional, so that `Args::check` can name it.
pub fn parse_args<I, S>(raw: I) -> Result<Args, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut it = raw.into_iter().map(Into::into).peekable();
    let mut command = it.next().ok_or(CliError::MissingArgument(
        "a subcommand (try `sirupctl help`)",
    ))?;
    if command == "--help" || command == "-h" {
        command = "help".to_owned();
    }
    let entries = || COMMANDS.iter().filter(|c| c.name == command);
    let unknown = |key: &str, title: String| {
        CliError::BadFlag(format!(
            "unknown flag --{key} for `{title}` (see `sirupctl help`)"
        ))
    };
    let (mut positional, mut flags) = (Vec::new(), BTreeMap::new());
    if entries().next().is_none() {
        positional.extend(it);
        return Ok(Args {
            command,
            positional,
            flags,
            spec: None,
        });
    }
    while let Some(tok) = it.next() {
        let Some(key) = tok.strip_prefix("--") else {
            positional.push(tok);
            continue;
        };
        // A flag name has one kind across a command's entries (a table
        // test pins it), so the value rule holds before the mode is known.
        let value = match entries().find_map(|c| c.flag(key)).map(|f| f.kind) {
            None => return Err(unknown(key, command.clone())),
            Some(Kind::Bool) => it
                .next_if(|v| v == "true" || v == "false")
                .unwrap_or_else(|| "true".to_owned()),
            Some(_) => it
                .next_if(|v| !v.starts_with("--"))
                .ok_or_else(|| CliError::BadFlag(format!("flag --{key} needs a value")))?,
        };
        if flags.insert(key.to_owned(), value).is_some() {
            return Err(CliError::BadFlag(format!("flag --{key} given twice")));
        }
    }
    let given = |mode: &str| flags.get(mode).is_some_and(|v| v != "false");
    let spec = entries()
        .find(|c| c.mode.is_some_and(given))
        .or_else(|| entries().find(|c| c.mode.is_none()))
        .expect("every command has an entry without a mode");
    if let Some(key) = flags.keys().find(|k| spec.flag(k).is_none()) {
        return Err(unknown(key, spec.title()));
    }
    let variadic = spec
        .positionals
        .last()
        .is_some_and(|p| p.0.ends_with("..."));
    match positional.get(spec.positionals.len()) {
        Some(extra) if !variadic => Err(CliError::BadInput(format!(
            "unexpected argument {extra:?} for `{}`",
            spec.title()
        ))),
        _ => Ok(Args {
            command,
            positional,
            flags,
            spec: Some(spec),
        }),
    }
}

impl Args {
    /// Check what [`parse_args`] leaves to run time: the command is known,
    /// every given value parses as its flag's kind, and no positional is
    /// missing. Returns the selected table entry.
    pub(crate) fn check(&self) -> Result<&'static Command, CliError> {
        let spec = self
            .spec
            .ok_or_else(|| CliError::UnknownCommand(self.command.clone()))?;
        for (key, value) in &self.flags {
            if let Some(flag) = spec.flag(key).filter(|f| !f.kind.accepts(value)) {
                return Err(bad_value(flag, value));
            }
        }
        match spec.positionals.get(self.positional.len()) {
            Some((_, what)) => Err(CliError::MissingArgument(what)),
            None => Ok(spec),
        }
    }

    /// The value of flag `key` as given, if it was.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Boolean flag: given, and not as `false`.
    pub fn flag_bool(&self, key: &str) -> bool {
        self.flag(key).is_some_and(|v| v != "false")
    }

    /// Flag `key` as given, else its table default; `None` if it has
    /// neither. Panics if the command does not declare `key`.
    pub(crate) fn get_opt<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        let flag = self.spec.and_then(|s| s.flag(key));
        let flag = flag.unwrap_or_else(|| panic!("--{key} is not declared for {}", self.command));
        match self.flag(key).or(flag.default) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| bad_value(flag, v)),
        }
    }

    /// Flag `key` as given, else its table default. Panics if the command
    /// does not declare `key` with a default.
    pub(crate) fn get<T: FromStr>(&self, key: &str) -> Result<T, CliError> {
        let value = self.get_opt(key)?;
        Ok(value.unwrap_or_else(|| panic!("--{key} has no default")))
    }
}

fn bad_value(flag: &Flag, value: &str) -> CliError {
    let (name, expected) = (flag.name, flag.kind.describe().1);
    if flag.kind.accepts(value) {
        return CliError::BadFlag(format!("--{name} {value} is out of range"));
    }
    CliError::BadFlag(format!("--{name} expects {expected}, got {value:?}"))
}

/// The `help` text, generated from the subcommand table.
pub(crate) fn help_text() -> String {
    let mut out = String::from(
        "sirupctl — analyse monadic (disjunctive) sirups  [PODS'21 reproduction]\n\n\
         USAGE: sirupctl <command> [args] [--flags]\n\
         A Boolean flag stands alone or takes a literal true/false; every other\n\
         flag takes the next token as its value. Unknown flags are errors.\n\n\
         COMMANDS\n",
    );
    for c in COMMANDS {
        let mode = c.mode.and_then(|m| c.flag(m)).map(flag_usage);
        write!(out, "  {}{}", c.name, mode.unwrap_or_default()).unwrap();
        for (name, _) in c.positionals {
            write!(out, " <{name}>").unwrap();
        }
        if c.service {
            out.push_str(" [SERVICE FLAGS]");
        }
        for line in c.about.lines() {
            write!(out, "\n      {line}").unwrap();
        }
        out.push('\n');
        for f in c.flags.iter().filter(|f| Some(f.name) != c.mode) {
            flag_line(&mut out, f);
        }
    }
    out.push_str("\nSERVICE FLAGS (the in-process query service and its plans):\n");
    for f in SERVICE {
        flag_line(&mut out, f);
    }
    out + "\nCQs and instances are comma-separated atom lists, e.g. 'F(x), R(x,y), T(y)'.\n"
}

/// ` --name VALUE`, or ` --name` for a Boolean.
fn flag_usage(f: &Flag) -> String {
    match f.kind.describe().0 {
        "" => format!(" --{}", f.name),
        value => format!(" --{} {value}", f.name),
    }
}

fn flag_line(out: &mut String, f: &Flag) {
    let default = f.default.map(|d| format!(" [default: {d}]"));
    let (usage, help) = (flag_usage(f), f.help);
    writeln!(
        out,
        "     {usage:<26} {help}{}",
        default.unwrap_or_default()
    )
    .unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The message of a `BadFlag` or `BadInput` error.
    fn message(r: Result<impl std::fmt::Debug, CliError>) -> String {
        match r {
            Err(CliError::BadFlag(m) | CliError::BadInput(m)) => m,
            other => panic!("expected a flag or input error, got {other:?}"),
        }
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = parse_args(["classify", "F(x), T(y)"]).unwrap();
        assert_eq!(a.command, "classify");
        assert_eq!(a.positional, vec!["F(x), T(y)"]);
        assert!(a.flags.is_empty());
    }

    #[test]
    fn flags_with_values_and_booleans() {
        let a = parse_args(["bound", "F(x)", "--max-d", "3", "--sigma", "--cap", "100"]).unwrap();
        assert_eq!(a.flag("max-d"), Some("3"));
        assert_eq!(a.flag("cap"), Some("100"));
        assert!(a.flag_bool("sigma"));
        assert!(!a.flag_bool("absent"));
        assert_eq!(a.get::<u32>("max-d").unwrap(), 3);
        assert_eq!(a.get_opt::<u32>("horizon").unwrap(), None);
        // Absent flags read their table default.
        let d = parse_args(["bound", "F(x)"]).unwrap();
        assert_eq!(d.get::<u32>("max-d").unwrap(), 2);
        assert_eq!(d.get::<usize>("cap").unwrap(), 10_000);
    }

    #[test]
    fn float_flags() {
        let a = parse_args(["serve", "--mutation-ratio", "0.25"]).unwrap();
        assert_eq!(a.get::<f64>("mutation-ratio").unwrap(), 0.25);
        assert_eq!(a.get::<f64>("hot").unwrap(), 0.0);
        let bad = parse_args(["serve", "--hot", "x"]).unwrap();
        assert!(bad.get::<f64>("hot").is_err());
        assert!(message(bad.check()).contains("--hot"));
    }

    #[test]
    fn flag_followed_by_flag_is_boolean() {
        let a = parse_args(["replay", "w", "--dump-answers", "--threads", "2"]).unwrap();
        assert_eq!(a.flag("dump-answers"), Some("true"));
        assert_eq!(a.flag("threads"), Some("2"));
        // A value-taking flag never takes a flag as its value.
        let m = message(parse_args(["replay", "w", "--threads", "--open"]));
        assert!(m.contains("--threads needs a value"), "{m}");
    }

    #[test]
    fn errors() {
        assert!(matches!(
            parse_args(Vec::<String>::new()),
            Err(CliError::MissingArgument(_))
        ));
        let m = message(parse_args(["bound", "q", "--cap", "1", "--cap", "2"]));
        assert!(m.contains("--cap given twice"), "{m}");
        let a = parse_args(["bound", "q", "--cap", "abc"]).unwrap();
        assert!(a.get::<usize>("cap").is_err());
        assert!(message(a.check()).contains("--cap expects a non-negative integer"));
        let big = parse_args(["bound", "q", "--max-d", "5000000000"]).unwrap();
        assert!(message(big.get::<u32>("max-d")).contains("--max-d 5000000000 is out of range"));
        let m = message(parse_args(["bound", "q", "--horizn", "9"]));
        assert!(m.contains("unknown flag --horizn for `bound`"), "{m}");
        let m = message(parse_args(["bound", "F(x)", "T(y)"]));
        assert!(m.contains("unexpected argument \"T(y)\""), "{m}");
        // An unknown command parses; `check` names it.
        let u = parse_args(["frobnicate", "--x", "1"]).unwrap();
        assert!(matches!(u.check(), Err(CliError::UnknownCommand(_))));
    }

    #[test]
    fn positionals_after_flags() {
        // A Boolean flag never takes a positional as its value…
        let a = parse_args(["bound", "--sigma", "F(x)"]).unwrap();
        assert_eq!(a.flag("sigma"), Some("true"));
        assert_eq!(a.positional, vec!["F(x)"]);
        // …only a literal true/false.
        let b = parse_args(["bound", "--sigma", "false", "F(x)"]).unwrap();
        assert!(!b.flag_bool("sigma"));
        assert_eq!(b.positional, vec!["F(x)"]);
    }

    #[test]
    fn mode_flags_select_the_entry() {
        let title = |line: &[&str]| {
            let args = parse_args(line.iter().copied()).unwrap();
            args.check().unwrap().title()
        };
        assert_eq!(title(&["serve"]), "serve");
        assert_eq!(title(&["serve", "--scaling"]), "serve --scaling");
        assert_eq!(
            title(&["serve", "--listen", ":0", "--threads", "2"]),
            "serve --listen"
        );
        assert_eq!(title(&["stats", "--connect", "a:1"]), "stats --connect");
        // Each entry accepts only its own flags.
        let m = message(parse_args(["serve", "--listen", ":0", "--emit"]));
        assert!(
            m.contains("unknown flag --emit for `serve --listen`"),
            "{m}"
        );
    }

    #[test]
    fn variadic_positionals_take_the_rest() {
        let a = parse_args(["connect", "a:1", "mutate", "d", "=", "-T(n1)"]).unwrap();
        assert_eq!(a.positional.len(), 5);
        let missing = parse_args(["connect", "a:1"]).unwrap();
        assert!(matches!(missing.check(), Err(CliError::MissingArgument(_))));
    }
}
