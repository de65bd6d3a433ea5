//! PUB — public library items that no other code names.
//!
//! rustc's `dead_code` lint never fires on a library's `pub` items, so an
//! item that lost its last caller stays in the tree, compiled, documented
//! and tested, until someone notices. This pass notices: a `pub fn`,
//! `pub const` or `pub static` in a library file under `crates/*/src`
//! whose name occurs in no code outside its own file is reported.
//!
//! A *caller* is any scrubbed code line of any other file: library code,
//! tests, bins, examples, the root package and the benchmark harness all
//! count (tests count because some test-only items are real fixtures).
//! Comments, doc examples and strings are scrubbed away by the lexer, and
//! a `pub use` re-export does not count either: it publishes the name
//! without calling it.
//!
//! The match is by name, so it errs toward silence: a name that collides
//! with any other identifier used elsewhere (`name`, `new`) is never
//! reported. Types, traits, fields and trait-impl methods are out of
//! scope — a word scan cannot see a type reached only through another
//! item's signature.

use std::collections::BTreeMap;

use crate::registry::LintCode;
use crate::report::Diagnostic;
use crate::source::SourceFile;

/// The kind and name of the public item declared on `line`, if any.
/// `pub(crate)` and other restricted visibilities are not public.
fn public_item(line: &str) -> Option<(&'static str, &str)> {
    let mut tokens = line.trim_start().strip_prefix("pub ")?.split_whitespace().peekable();
    while let Some(token) = tokens.next() {
        match token {
            "fn" => return ident(tokens.next()?).map(|name| ("fn", name)),
            "const" if !matches!(tokens.peek(), Some(&("fn" | "unsafe" | "async" | "extern"))) => {
                return ident(tokens.next()?).map(|name| ("const", name));
            }
            "static" => {
                let name = tokens.next().filter(|t| *t != "mut").or_else(|| tokens.next())?;
                return ident(name).map(|name| ("static", name));
            }
            // Qualifiers, and the scrubbed ABI string of `extern "C"`.
            "const" | "unsafe" | "async" | "extern" | "\"" => {}
            _ => return None,
        }
    }
    None
}

/// The identifier `token` starts with, unless it is empty or `_`.
fn ident(token: &str) -> Option<&str> {
    let end = token.find(|c: char| !c.is_alphanumeric() && c != '_').unwrap_or(token.len());
    let name = &token[..end];
    (!name.is_empty() && name != "_").then_some(name)
}

/// Whether `rel_path` is a library file of a workspace crate.
fn is_crate_library(rel_path: &str) -> bool {
    let mut parts = rel_path.split('/');
    parts.next() == Some("crates") && parts.next().is_some() && parts.next() == Some("src")
}

/// Adds every identifier of `file`'s counted code to `seen`, keyed to the
/// first file index it occurs in and whether a second file names it too.
/// Lines of a `pub use` statement are not counted.
fn index_words<'a>(
    file: &'a SourceFile,
    index: usize,
    seen: &mut BTreeMap<&'a str, (usize, bool)>,
) {
    let mut in_reexport = false;
    for line in &file.code {
        in_reexport |= line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
            continue;
        }
        for word in line.split(|c: char| !c.is_alphanumeric() && c != '_') {
            if word.starts_with(|c: char| c.is_alphabetic() || c == '_') {
                let entry = seen.entry(word).or_insert((index, false));
                entry.1 |= entry.0 != index;
            }
        }
    }
}

/// Runs the PUB pass: `files` are the library files (the only ones that
/// get diagnostics); `references` are read for callers only.
pub fn run(files: &[SourceFile], references: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut seen = BTreeMap::new();
    for (index, file) in files.iter().chain(references).enumerate() {
        index_words(file, index, &mut seen);
    }
    for (index, file) in files.iter().enumerate() {
        if !is_crate_library(&file.rel_path) {
            continue;
        }
        for (idx, line) in file.code.iter().enumerate() {
            if file.is_test_line(idx + 1) {
                continue;
            }
            let Some((kind, name)) = public_item(line) else { continue };
            if seen.get(name) == Some(&(index, false)) {
                out.push(Diagnostic::new(
                    LintCode::PubUnused,
                    &file.rel_path,
                    idx + 1,
                    format!(
                        "`pub {kind} {name}` is named by no code outside this file; make it \
                         private or delete it"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_items_are_recognized_by_kind() {
        assert_eq!(public_item("    pub fn run<T>(x: T) {"), Some(("fn", "run")));
        assert_eq!(public_item("pub const fn lanes() -> usize {"), Some(("fn", "lanes")));
        assert_eq!(public_item("pub unsafe extern \" \" fn raw() {"), Some(("fn", "raw")));
        assert_eq!(public_item("pub const LIMIT: u32 = 4;"), Some(("const", "LIMIT")));
        assert_eq!(public_item("pub static mut HITS: u64 = 0;"), Some(("static", "HITS")));
        assert_eq!(public_item("pub const _: () = ();"), None);
        assert_eq!(public_item("pub(crate) fn hidden() {}"), None);
        assert_eq!(public_item("pub fn_ptr: fn(),"), None);
        assert_eq!(public_item("pub struct Spec {"), None);
    }
}
