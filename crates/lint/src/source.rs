//! Workspace source model: file discovery, comment/string scrubbing and
//! `#[cfg(test)]` region detection.
//!
//! The passes never see raw source text. Every file is lexed once into a
//! [`SourceFile`]: the *scrubbed* code (comments and string/char-literal
//! contents blanked, line structure preserved, so identifier matching
//! can't be fooled by `"HashMap"` in a string or a doc comment), the
//! comments themselves (carrying the suppression markers), and a per-line
//! map of `#[cfg(test)]` regions (test code is exempt from every pass).

use std::fs;
use std::path::{Path, PathBuf};

use cohort_types::{Error, Result};

/// One comment as found in the source, with its 1-based starting line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line the comment starts on.
    pub line: usize,
    /// The comment text without the `//` / `/*` markers, trimmed.
    pub text: String,
    /// Whether code precedes the comment on its line (a trailing comment
    /// suppresses its own line; a full-line comment suppresses the next
    /// code line).
    pub trailing: bool,
}

/// One lexed source file, ready for the lint passes.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The owning crate's package name (e.g. `cohort-sim`).
    pub crate_name: String,
    /// Scrubbed code, one entry per source line (index 0 = line 1).
    pub code: Vec<String>,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
    /// Per-line flag: `true` when the line sits inside a `#[cfg(test)]`
    /// region (index 0 = line 1).
    pub test_line: Vec<bool>,
}

impl SourceFile {
    /// Lexes `source` into a file model. `rel_path` and `crate_name` are
    /// recorded verbatim.
    #[must_use]
    pub fn parse(rel_path: &str, crate_name: &str, source: &str) -> Self {
        let (code_text, comments) = scrub(source);
        let code: Vec<String> = code_text.split('\n').map(str::to_string).collect();
        let test_line = test_regions(&code);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            code,
            comments,
            test_line,
        }
    }

    /// Whether 1-based `line` lies in a `#[cfg(test)]` region.
    #[must_use]
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_line.get(line.wrapping_sub(1)).copied().unwrap_or(false)
    }

    /// Scrubbed text of 1-based `line` (empty for out-of-range lines).
    #[must_use]
    pub fn code_line(&self, line: usize) -> &str {
        self.code.get(line.wrapping_sub(1)).map_or("", String::as_str)
    }
}

/// Strips comments and literal contents from `source`, preserving the
/// line structure exactly, and collects the comments. String and char
/// literal *contents* become spaces (the quotes stay); comments become
/// spaces wholesale.
fn scrub(source: &str) -> (String, Vec<Comment>) {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    // Push a scrubbed char: newlines survive (and advance the counter),
    // everything else inside a skipped region becomes a space.
    macro_rules! blank {
        ($c:expr) => {
            if $c == '\n' {
                out.push('\n');
                line += 1;
                line_has_code = false;
            } else {
                out.push(' ');
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '/' if next == Some('/') => {
                let start_line = line;
                let trailing = line_has_code;
                let mut text = String::new();
                while i < chars.len() && chars[i] != '\n' {
                    text.push(chars[i]);
                    out.push(' ');
                    i += 1;
                }
                let text = text.trim_start_matches('/').trim().to_string();
                comments.push(Comment { line: start_line, text, trailing });
            }
            '/' if next == Some('*') => {
                let start_line = line;
                let trailing = line_has_code;
                let mut depth = 0usize;
                let mut text = String::new();
                while i < chars.len() {
                    let c = chars[i];
                    let next = chars.get(i + 1).copied();
                    if c == '/' && next == Some('*') {
                        depth += 1;
                        blank!(c);
                        blank!('*');
                        i += 2;
                    } else if c == '*' && next == Some('/') {
                        depth -= 1;
                        blank!(c);
                        blank!('/');
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        text.push(c);
                        blank!(c);
                        i += 1;
                    }
                }
                let text = text.trim_matches(['*', ' ', '\n']).to_string();
                comments.push(Comment { line: start_line, text, trailing });
            }
            '"' => {
                out.push('"');
                line_has_code = true;
                i += 1;
                while i < chars.len() {
                    let c = chars[i];
                    if c == '\\' {
                        blank!(c);
                        i += 1;
                        if i < chars.len() {
                            blank!(chars[i]);
                            i += 1;
                        }
                    } else if c == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        blank!(c);
                        i += 1;
                    }
                }
            }
            'r' | 'b' if is_raw_string_start(&chars, i) => {
                // r"..." / r#"..."# / br#"..."# / b"..." — find the quote,
                // count the hashes, skip to the matching close.
                while i < chars.len() && chars[i] != '"' && chars[i] != '#' {
                    out.push(chars[i]);
                    line_has_code = true;
                    i += 1;
                }
                let mut hashes = 0usize;
                while i < chars.len() && chars[i] == '#' {
                    out.push('#');
                    hashes += 1;
                    i += 1;
                }
                if i < chars.len() && chars[i] == '"' {
                    out.push('"');
                    i += 1;
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut ok = true;
                            for h in 0..hashes {
                                if chars.get(i + 1 + h) != Some(&'#') {
                                    ok = false;
                                    break;
                                }
                            }
                            if ok {
                                out.push('"');
                                for _ in 0..hashes {
                                    out.push('#');
                                }
                                i += 1 + hashes;
                                break 'raw;
                            }
                        }
                        blank!(chars[i]);
                        i += 1;
                    }
                }
            }
            '\'' => {
                // Char literal vs lifetime: 'x' / '\n' are literals,
                // 'static is a lifetime and passes through as code.
                if next == Some('\\') {
                    out.push('\'');
                    i += 2; // quote + backslash
                    out.push(' ');
                    if i < chars.len() {
                        blank!(chars[i]);
                        i += 1;
                    }
                    while i < chars.len() && chars[i] != '\'' {
                        blank!(chars[i]);
                        i += 1;
                    }
                    if i < chars.len() {
                        out.push('\'');
                        i += 1;
                    }
                } else if next.is_some() && chars.get(i + 2) == Some(&'\'') {
                    out.push('\'');
                    out.push(' ');
                    out.push('\'');
                    line_has_code = true;
                    i += 3;
                } else {
                    out.push('\'');
                    line_has_code = true;
                    i += 1;
                }
            }
            '\n' => {
                out.push('\n');
                line += 1;
                line_has_code = false;
                i += 1;
            }
            c => {
                if !c.is_whitespace() {
                    line_has_code = true;
                }
                out.push(c);
                i += 1;
            }
        }
    }
    (out, comments)
}

/// Whether position `i` (an `r` or `b`) starts a raw/byte string literal.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    // Reject identifiers ending in r/b (e.g. `for`, `var"...` is not
    // valid Rust anyway, but `foor#` could fool us): the previous char
    // must not be part of an identifier.
    if i > 0 {
        let prev = chars[i - 1];
        if prev.is_alphanumeric() || prev == '_' {
            return false;
        }
    }
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        j += 1;
        while chars.get(j) == Some(&'#') {
            j += 1;
        }
        return chars.get(j) == Some(&'"');
    }
    // Plain byte string b"..."
    j == i + 1 && chars.get(j) == Some(&'"')
}

/// Marks every line inside a `#[cfg(test)]` (or `#[cfg(all(test, ...))]`)
/// item's braces. Runs on scrubbed code so strings can't confuse it.
fn test_regions(code: &[String]) -> Vec<bool> {
    let mut marks = vec![false; code.len()];
    let mut depth = 0usize;
    // Stack of depths at which a test region opened.
    let mut regions: Vec<usize> = Vec::new();
    // Set when a test cfg attribute was seen and its item's `{` is pending.
    let mut armed = false;
    for (idx, line) in code.iter().enumerate() {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]") || compact.contains("#[cfg(all(test") {
            armed = true;
        }
        if !regions.is_empty() {
            marks[idx] = true;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    if armed {
                        regions.push(depth);
                        armed = false;
                        marks[idx] = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                ';' if armed => {
                    // `#[cfg(test)] use ...;` — attribute spent on a
                    // braceless item.
                    armed = false;
                    marks[idx] = true;
                }
                _ => {}
            }
        }
    }
    marks
}

/// Reads the `name = "..."` of a crate's `Cargo.toml`.
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(rest) = rest.strip_prefix('=') {
                return Some(rest.trim().trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Collects `.rs` files under `dir` recursively, sorted by path for a
/// deterministic scan order. Directories named `bin` are skipped: lints
/// target library code, and bench bins measure wall-clock by design.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| Error::Codec(format!("cannot read {}: {e}", dir.display())))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks the workspace at `root`, lexing every library source file:
/// `crates/*/src/**/*.rs` plus the root package's `src/**/*.rs`. Test
/// targets (`tests/`, `benches/`, `examples/`) and `src/bin/` are outside
/// the scan; `#[cfg(test)]` modules inside library files are lexed but
/// exempted per line.
///
/// # Errors
///
/// Returns [`Error::Codec`] when the workspace layout cannot be read.
pub fn walk_workspace(root: &Path) -> Result<Vec<SourceFile>> {
    walk(root, &workspace_packages(root)?, &["src"])
}

/// Walks every file that may call library code without being library
/// code itself: each workspace package's `src/bin/`, `tests/`,
/// `examples/` and `benches/`, plus the benchmark harness's
/// `perfbench/src/`. The `pub-unused` pass reads them for callers only.
///
/// # Errors
///
/// Returns [`Error::Codec`] when the workspace layout cannot be read.
pub fn walk_references(root: &Path) -> Result<Vec<SourceFile>> {
    let mut files =
        walk(root, &workspace_packages(root)?, &["src/bin", "tests", "examples", "benches"])?;
    files.extend(walk(root, &[root.join("perfbench")], &["src"])?);
    Ok(files)
}

/// The package directories of the workspace: `crates/*`, sorted, then
/// the root package.
fn workspace_packages(root: &Path) -> Result<Vec<PathBuf>> {
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        crate_dirs = fs::read_dir(&crates)
            .map_err(|e| Error::Codec(format!("cannot read {}: {e}", crates.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
    }
    crate_dirs.push(root.to_path_buf());
    Ok(crate_dirs)
}

/// Lexes every `.rs` file under each package's `subdirs`.
fn walk(root: &Path, packages: &[PathBuf], subdirs: &[&str]) -> Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    for crate_dir in packages {
        let name = package_name(&crate_dir.join("Cargo.toml")).unwrap_or_else(|| {
            crate_dir.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned())
        });
        let mut paths = Vec::new();
        for subdir in subdirs {
            let dir = crate_dir.join(subdir);
            if dir.is_dir() {
                collect_rs(&dir, &mut paths)?;
            }
        }
        for path in paths {
            let text = fs::read_to_string(&path)
                .map_err(|e| Error::Codec(format!("cannot read {}: {e}", path.display())))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::parse(&rel, &name, &text));
        }
    }
    Ok(files)
}

/// Whether the byte range `[start, end)` of `text` is an isolated word
/// (not embedded in a longer identifier).
#[must_use]
fn is_word_boundary(text: &str, start: usize, end: usize) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let before_ok = start == 0 || !text[..start].chars().next_back().is_some_and(ident);
    let after_ok = end >= text.len() || !text[end..].chars().next().is_some_and(ident);
    before_ok && after_ok
}

/// Finds every word-boundary occurrence of `word` in `text`, returning
/// byte offsets.
#[must_use]
pub fn find_words(text: &str, word: &str) -> Vec<usize> {
    let mut hits = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        if is_word_boundary(text, start, end) {
            hits.push(start);
        }
        from = end;
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_scrubbed() {
        let src = "let x = \"HashMap\"; // HashMap here\nlet y = 1; /* Instant::now */\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert!(!file.code_line(1).contains("HashMap"));
        assert!(!file.code_line(2).contains("Instant"));
        assert_eq!(file.comments.len(), 2);
        assert_eq!(file.comments[0].text, "HashMap here");
        assert!(file.comments[0].trailing);
        assert_eq!(file.comments[1].line, 2);
    }

    #[test]
    fn raw_strings_and_chars_are_scrubbed_lifetimes_survive() {
        let src = "let s = r#\"HashSet \"inner\" text\"#;\nlet c = 'H'; let l: &'static str = \"x\";\nlet e = '\\n';\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert!(!file.code_line(1).contains("HashSet"));
        assert!(!file.code_line(2).contains('H'), "char literal contents blanked");
        assert!(file.code_line(2).contains("'static"), "lifetime kept as code");
        assert!(!file.code_line(3).contains('n'));
    }

    #[test]
    fn multi_line_strings_keep_line_numbers() {
        let src = "let s = \"line one\nInstant::now\nthree\";\nfn after() {}\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert_eq!(file.code.len(), 5);
        assert!(!file.code.iter().any(|line| line.contains("Instant")));
        assert!(file.code_line(4).contains("fn after"));
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { lock(); }\n}\nfn lib2() {}\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert!(!file.is_test_line(1));
        assert!(file.is_test_line(4));
        assert!(!file.is_test_line(6));
    }

    #[test]
    fn cfg_test_on_braceless_item_does_not_leak() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn lib() {\n    body();\n}\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert!(!file.is_test_line(4), "the region must not swallow the next braces");
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ fn code() {}\n";
        let file = SourceFile::parse("a.rs", "demo", src);
        assert!(file.code_line(1).contains("fn code"));
        assert!(!file.code_line(1).contains("outer"));
    }

    #[test]
    fn word_boundaries_reject_embedded_matches() {
        assert_eq!(find_words("HashMap MyHashMap HashMapX", "HashMap"), vec![0]);
        assert_eq!(find_words("a.lock().unwrap()", "lock"), vec![2]);
    }
}
