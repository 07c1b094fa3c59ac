//! Option declarations. Every command declares its operands and options
//! once, in an `options!` block whose `declare` function builds its typed
//! arguments. That one function serves three purposes: a describing pass
//! learns the declarations (which options take a value, how many operands
//! there are), the parsing pass reads and converts the values, and usage
//! text is rendered from the declarations. Anything the declarations do
//! not account for is an error naming the command: an unknown option, a
//! repeated option, a value option with no value, or a stray operand.

use super::CliError;

/// Declare typed argument structs, one line per field: its type, then
/// the expression over the [`Args`] bound by `|a|` that declares and reads
/// it, in usage order. Each struct gets a `declare` function. A struct
/// named with a subcommand, `struct RunArgs("run")`, is that command's
/// arguments and gets an [`Options`] impl; one without is an option group
/// its commands declare.
macro_rules! options {
    ($($(#[$meta:meta])* $vis:vis struct $name:ident $(($command:literal))? |$a:ident| {
        $($field:ident: $ty:ty = $decl:expr,)*
    })*) => {$(
        $(#[$meta])* $vis struct $name { $($field: $ty),* }

        impl $name {
            fn declare(
                $a: &mut $crate::commands::args::Args,
            ) -> Result<Self, $crate::commands::CliError> {
                Ok($name { $($field: $decl),* })
            }
        }

        $(impl $crate::commands::args::Options for $name {
            const NAME: &'static str = $command;
            fn declare(
                a: &mut $crate::commands::args::Args,
            ) -> Result<Self, $crate::commands::CliError> {
                $name::declare(a)
            }
        })?
    )*};
}

/// A command's typed arguments.
pub(super) trait Options: Sized {
    /// The subcommand, as typed after `flagsim`.
    const NAME: &'static str;

    /// Declare every operand and option in usage order and return their
    /// values. Runs once to describe and once to parse, so it only reads
    /// arguments, never acts on them.
    fn declare(a: &mut Args) -> Result<Self, CliError>;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Arity {
    /// `--name`, no value.
    Switch,
    /// `--name VALUE`, at most once.
    Single,
    /// `--name VALUE`, exactly once.
    Required,
    /// `--name VALUE`, any number of times.
    Repeat,
}

/// One declared option.
pub(super) struct Decl {
    pub(super) name: &'static str,
    /// The value placeholder shown in usage (empty for a switch).
    pub(super) value: &'static str,
    pub(super) arity: Arity,
}

/// A command's declarations and, once split, its command line.
#[derive(Default)]
pub(super) struct Args {
    command: &'static str,
    pub(super) options: Vec<Decl>,
    /// Operand placeholders in order, each with whether it is required.
    pub(super) operands: Vec<(&'static str, bool)>,
    /// The command line split by the declarations; `None` while describing.
    given: Option<Given>,
    /// How many declared options the command line set, so far.
    set: usize,
}

struct Given {
    options: Vec<(&'static str, String)>,
    operands: std::vec::IntoIter<String>,
}

/// `A`'s declarations, without parsing anything.
pub(super) fn describe<A: Options>() -> Args {
    let mut a = Args {
        command: A::NAME,
        ..Args::default()
    };
    // While describing every getter returns its default, so this cannot
    // fail; the declarations are what it leaves behind.
    let _ = A::declare(&mut a);
    a
}

/// Parse `args` (the words after the subcommand) against `A`'s
/// declarations.
pub(super) fn parse<A: Options>(args: &[String]) -> Result<A, CliError> {
    let mut a = describe::<A>();
    a.split(args)?;
    A::declare(&mut a)
}

/// `A`'s one-line synopsis, as the error for a command line that lacks
/// an operand or option the body needs.
pub(super) fn usage_error<A: Options>() -> CliError {
    describe::<A>().usage_error()
}

impl Args {
    /// Split a command line by the declarations, rejecting whatever they
    /// do not account for.
    pub(super) fn split(&mut self, args: &[String]) -> Result<(), CliError> {
        let mut options: Vec<(&'static str, String)> = Vec::new();
        let mut operands = Vec::new();
        let mut words = args.iter();
        while let Some(word) = words.next() {
            let Some(key) = word.strip_prefix("--") else {
                operands.push(word.clone());
                continue;
            };
            let Some(decl) = self.options.iter().find(|d| d.name == key) else {
                return Err(self.misuse(format!("unknown option {word}")));
            };
            if decl.arity != Arity::Repeat && options.iter().any(|(n, _)| *n == decl.name) {
                return Err(self.misuse(format!("{word} given more than once")));
            }
            let value = if decl.arity == Arity::Switch {
                String::new()
            } else {
                match words.next() {
                    Some(value) => value.clone(),
                    None => {
                        return Err(self.misuse(format!("{word} needs a value {}", decl.value)))
                    }
                }
            };
            options.push((decl.name, value));
        }
        if let Some(extra) = operands.get(self.operands.len()) {
            return Err(self.misuse(format!("unexpected argument {extra:?}")));
        }
        let required_operands = self.operands.iter().filter(|(_, required)| *required).count();
        let missing_option = self
            .options
            .iter()
            .any(|d| d.arity == Arity::Required && !options.iter().any(|(n, _)| *n == d.name));
        if operands.len() < required_operands || missing_option {
            return Err(self.usage_error());
        }
        self.given = Some(Given {
            options,
            operands: operands.into_iter(),
        });
        Ok(())
    }

    /// `--name`: whether it was given.
    pub(super) fn switch(&mut self, name: &'static str) -> bool {
        !self.take(name, "", Arity::Switch).is_empty()
    }

    /// `--name VALUE`, at most once, converted by `convert`.
    pub(super) fn opt<T>(
        &mut self,
        name: &'static str,
        value: &'static str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Option<T>, CliError> {
        let given = self.take(name, value, Arity::Single);
        given.first().map(|v| self.convert(name, v, &convert)).transpose()
    }

    /// `--name A|B|C`: one of the `|`-separated alternatives the
    /// placeholder lists.
    pub(super) fn choice(
        &mut self,
        name: &'static str,
        alternatives: &'static str,
    ) -> Result<Option<&'static str>, CliError> {
        self.opt(name, alternatives, |s| {
            alternatives
                .split('|')
                .find(|alt| *alt == s)
                .ok_or_else(|| format!("expected one of {alternatives}"))
        })
    }

    /// `--name VALUE`, any number of times, each converted by `convert`.
    pub(super) fn many<T>(
        &mut self,
        name: &'static str,
        value: &'static str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, CliError> {
        let given = self.take(name, value, Arity::Repeat);
        given.iter().map(|v| self.convert(name, v, &convert)).collect()
    }

    /// `--name VALUE`, exactly once; a missing one is a usage error.
    pub(super) fn required(&mut self, name: &'static str, value: &'static str) -> String {
        self.take(name, value, Arity::Required).pop().unwrap_or_default()
    }

    /// A required operand; a missing one is a usage error.
    pub(super) fn operand(&mut self, placeholder: &'static str) -> String {
        self.next_operand(placeholder, true).unwrap_or_default()
    }

    /// An optional operand.
    pub(super) fn optional_operand(&mut self, placeholder: &'static str) -> Option<String> {
        self.next_operand(placeholder, false)
    }

    /// Declare the option group `declare`, also reporting whether the
    /// command line gave any of its options.
    pub(super) fn group<T>(
        &mut self,
        declare: fn(&mut Args) -> Result<T, CliError>,
    ) -> Result<(T, bool), CliError> {
        let before = self.set;
        let group = declare(self)?;
        Ok((group, self.set > before))
    }

    /// The one-line synopsis, as the error for a command line that lacks
    /// a required operand or option.
    pub(super) fn usage_error(&self) -> CliError {
        CliError {
            message: format!("usage: flagsim {}{}", self.command, self.words().concat()),
        }
    }

    /// The synopsis for the top-level usage text, wrapped to `width`
    /// columns with continuation lines aligned after the command name.
    pub(super) fn synopsis(&self, width: usize) -> String {
        let mut out = format!("  flagsim {}", self.command);
        let indent = out.len();
        let mut line_len = out.len();
        for word in self.words() {
            if line_len + word.len() > width && line_len > indent {
                out.push('\n');
                out.push_str(&" ".repeat(indent));
                line_len = indent;
            }
            out.push_str(&word);
            line_len += word.len();
        }
        out
    }

    /// Usage words, each with its leading space: operands, then options
    /// in declaration order.
    fn words(&self) -> Vec<String> {
        let operands = self.operands.iter().map(|&(placeholder, required)| {
            if required {
                format!(" {placeholder}")
            } else {
                format!(" [{placeholder}]")
            }
        });
        let options = self.options.iter().map(|d| match d.arity {
            Arity::Switch => format!(" [--{}]", d.name),
            Arity::Required => format!(" --{} {}", d.name, d.value),
            Arity::Single | Arity::Repeat => format!(" [--{} {}]", d.name, d.value),
        });
        operands.chain(options).collect()
    }

    /// Declare option `name` (while describing) and return the values the
    /// command line gave it (while parsing).
    fn take(&mut self, name: &'static str, value: &'static str, arity: Arity) -> Vec<String> {
        let Some(given) = &self.given else {
            self.options.push(Decl { name, value, arity });
            return Vec::new();
        };
        let values: Vec<String> = given
            .options
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.clone())
            .collect();
        if !values.is_empty() {
            self.set += 1;
        }
        values
    }

    fn next_operand(&mut self, placeholder: &'static str, required: bool) -> Option<String> {
        match &mut self.given {
            None => {
                self.operands.push((placeholder, required));
                None
            }
            Some(given) => given.operands.next(),
        }
    }

    fn convert<T>(
        &self,
        name: &str,
        value: &str,
        convert: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        convert(value).map_err(|why| CliError {
            message: format!("flagsim {}: --{name} {value:?}: {why}", self.command),
        })
    }

    /// A command line the declarations do not account for: say what and
    /// show the synopsis.
    fn misuse(&self, what: String) -> CliError {
        CliError {
            message: format!(
                "flagsim {}: {what}\n{}",
                self.command,
                self.usage_error().message
            ),
        }
    }
}

/// Any non-negative integer.
pub(super) fn uint<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| "expected a non-negative integer".to_owned())
}

/// An integer of at least 1.
pub(super) fn positive<T: std::str::FromStr + Default + PartialEq>(s: &str) -> Result<T, String> {
    let n: T = uint(s)?;
    if n == T::default() {
        return Err("must be at least 1".into());
    }
    Ok(n)
}

/// Free text: a path, an address, a name.
pub(super) fn text(s: &str) -> Result<String, String> {
    Ok(s.to_owned())
}

#[cfg(test)]
mod tests {
    use super::super::COMMANDS;
    use super::*;

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn every_command_rejects_what_it_does_not_declare() {
        let mut with_value_options = 0;
        for command in COMMANDS {
            let declared = command.describe();
            let mut bad = vec![
                strings(&["--no-such-option"]),
                vec!["stray".to_owned(); declared.operands.len() + 1],
            ];
            if let Some(d) = declared.options.iter().find(|d| d.arity == Arity::Single) {
                let option = format!("--{}", d.name);
                bad.push(vec![option.clone(), "1".into(), option.clone(), "1".into()]);
                bad.push(vec![option]);
                with_value_options += 1;
            }
            for args in bad {
                let e = command.describe().split(&args).unwrap_err();
                assert_eq!(e.exit_code(), 2, "{args:?}: {e}");
                let named = format!("flagsim {}: ", command.name());
                assert!(e.message.starts_with(&named), "{args:?}: {e}");
            }
        }
        assert!(with_value_options >= 13, "only {with_value_options} commands checked");
    }

    /// Shell words of one command line, up to a redirect, operator, or
    /// comment.
    fn shell_words(line: &str) -> Vec<String> {
        let (mut words, mut word) = (Vec::new(), String::new());
        let (mut quote, mut in_word) = (None, false);
        for c in line.chars() {
            match (quote, c) {
                (Some(q), c) if c == q => quote = None,
                (Some(_), c) => word.push(c),
                (None, '"' | '\'') => {
                    quote = Some(c);
                    in_word = true;
                }
                (None, c) if c.is_whitespace() => {
                    if in_word {
                        words.push(std::mem::take(&mut word));
                        in_word = false;
                    }
                }
                (None, c) => {
                    word.push(c);
                    in_word = true;
                }
            }
        }
        if in_word {
            words.push(word);
        }
        let stop = |w: &String| {
            ["|", "||", "&&", "&", ";"].contains(&w.as_str())
                || w.starts_with(['#', '>'])
                || w.starts_with("2>")
        };
        words.into_iter().take_while(|w| !stop(w)).collect()
    }

    /// Lines with trailing-backslash continuations joined.
    fn joined(text: &str) -> Vec<String> {
        let mut lines = vec![String::new()];
        for line in text.lines() {
            let last = lines.last_mut().expect("never empty");
            match line.trim_end().strip_suffix('\\') {
                Some(head) => last.push_str(head),
                None => {
                    last.push_str(line);
                    lines.push(String::new());
                }
            }
        }
        lines
    }

    #[test]
    fn documented_command_lines_parse_with_declared_options_only() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let read = |path: &str| std::fs::read_to_string(format!("{root}/{path}")).unwrap();
        let mut command_lines = Vec::new();
        let mut in_block = false;
        for line in joined(&read("README.md")) {
            if line.trim_start().starts_with("```") {
                in_block = !in_block;
                continue;
            }
            let bare = line.trim().trim_start_matches("$ ");
            let rest = line.split_once("--bin flagsim -- ").map(|(_, r)| r);
            if let Some(rest) = rest.or(bare.strip_prefix("flagsim ")).filter(|_| in_block) {
                command_lines.push(shell_words(rest));
            }
        }
        for line in joined(&read(".github/workflows/ci.yml")) {
            let rest = line.split_once("$BIN ").or(line.split_once("--bin flagsim -- "));
            if let Some((_, rest)) = rest {
                command_lines.push(shell_words(rest));
            }
        }
        // Prose that mentions flagsim (the crate diagram) is not a command.
        command_lines.retain(|w| {
            w.first().is_some_and(|c| c.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-'))
        });
        assert!(command_lines.len() >= 50, "found only {}", command_lines.len());
        for words in command_lines {
            let command = COMMANDS.iter().find(|c| c.name() == words[0]);
            let command = command.unwrap_or_else(|| panic!("unknown command in {words:?}"));
            if let Err(e) = command.describe().split(&words[1..]) {
                panic!("{words:?} does not parse: {e}");
            }
        }
    }
}
