//! FPR — fingerprint coverage of digested structs.
//!
//! The fleet memoizes on content addresses: `JobSpec::fingerprint` folds
//! every outcome-affecting knob through
//! [`FingerprintBuilder`](cohort_types::FingerprintBuilder). The bug
//! class this pass exists for is *drift*: someone adds a field to
//! `GaConfig` or `SystemSpec`, forgets the digest helper, and two
//! different configurations silently share a fingerprint — the store
//! serves a stale result instead of recomputing.
//!
//! The pass is structural, not semantic. A **digest site** is either
//!
//! 1. a function whose signature mentions `FingerprintBuilder` — every
//!    known struct named in that signature is being digested there; or
//! 2. an inherent method `fn fingerprint(&self)` — the impl's `Self`
//!    struct is being digested (the `&self`-receiver requirement keeps
//!    `FingerprintBuilder::fingerprint(mut self)` itself out of scope).
//!
//! A field is **covered** when its name occurs as a word anywhere in the
//! digest function's body — this works because accessors share the field
//! name. That proves *mention*, not *value influence*; a digest that
//! reads a field and drops it still passes. The lint catches the
//! forgot-the-field drift, which is the failure mode that actually
//! happens. Structs defined under more than one name collision are
//! dropped from resolution rather than guessed at.

use std::collections::BTreeMap;

use crate::registry::LintCode;
use crate::report::Diagnostic;
use crate::source::{find_words, SourceFile};

/// One named-field struct definition.
#[derive(Debug, Clone)]
struct StructDef {
    fields: Vec<String>,
}

/// One function definition with its signature and body extent.
#[derive(Debug, Clone)]
struct FnDef {
    /// 1-based line of the `fn` keyword.
    line: usize,
    /// 1-based line of the last body line.
    end_line: usize,
    /// The whole signature, `fn` through the body's opening brace.
    signature: String,
    /// The function name.
    name: String,
    /// `Self` type when the fn sits in an inherent impl block.
    impl_type: Option<String>,
}

/// Collects every named-field struct in `file`. Tuple and unit structs
/// carry no field names to cover, so they are skipped.
fn parse_structs(file: &SourceFile, out: &mut BTreeMap<String, Option<StructDef>>) {
    let lines = &file.code;
    for (idx, line) in lines.iter().enumerate() {
        let Some(at) = find_words(line, "struct").first().copied() else { continue };
        let after = line[at + "struct".len()..].trim_start();
        let name: String = after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if name.is_empty() {
            continue;
        }
        // Named-field structs open a brace on the definition line (the
        // workspace is rustfmt-formatted); `struct X;` and `struct X(...)`
        // have no named fields.
        let rest = &after[name.len()..];
        if !rest.contains('{') {
            continue;
        }
        let mut fields = Vec::new();
        let mut depth = 0i32;
        'scan: for (offset, body_line) in lines[idx..].iter().enumerate() {
            for ch in body_line.chars() {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'scan;
                        }
                    }
                    _ => {}
                }
            }
            if depth == 1 && offset > 0 {
                // A field line inside the struct body: `name: Type,`
                // (optionally pub-qualified).
                let trimmed = body_line.trim();
                let unqualified = strip_visibility(trimmed).unwrap_or(trimmed);
                if let Some(colon) = unqualified.find(':') {
                    let field: String = unqualified[..colon].trim().to_string();
                    if !field.is_empty() && field.chars().all(|c| c.is_alphanumeric() || c == '_') {
                        fields.push(field);
                    }
                }
            }
        }
        // A name seen twice is ambiguous across the workspace: drop it
        // from resolution instead of guessing which definition a digest
        // signature refers to.
        match out.get(&name) {
            Some(_) => {
                out.insert(name, None);
            }
            None => {
                out.insert(name, Some(StructDef { fields }));
            }
        }
    }
}

/// Strips a leading `pub` / `pub(crate)` / `pub(super)` qualifier.
fn strip_visibility(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub")?;
    let rest = rest.trim_start();
    if let Some(inner) = rest.strip_prefix('(') {
        let close = inner.find(')')?;
        return Some(inner[close + 1..].trim_start());
    }
    Some(rest)
}

/// Collects every function definition in `file`, with inherent-impl
/// context resolved.
fn parse_fns(file: &SourceFile) -> Vec<FnDef> {
    let lines = &file.code;
    // Depth before each line (brace nesting of scrubbed code).
    let mut depth_before = Vec::with_capacity(lines.len());
    let mut depth = 0i32;
    for line in lines {
        depth_before.push(depth);
        for ch in line.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
    }
    let depth_after = |idx: usize| depth_before.get(idx + 1).copied().unwrap_or(0);

    // Inherent impl regions at module depth.
    let mut impls: Vec<(String, usize, usize)> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if depth_before[idx] != 0 {
            continue;
        }
        let trimmed = line.trim_start();
        if !(trimmed.starts_with("impl ") || trimmed.starts_with("impl<")) {
            continue;
        }
        // Accumulate the (possibly wrapped) header up to its brace.
        let mut header = String::new();
        let mut open = idx;
        for (j, hl) in lines.iter().enumerate().skip(idx) {
            let cut = hl.find('{').map_or(hl.len(), |p| p);
            header.push_str(&hl[..cut]);
            header.push(' ');
            if hl.contains('{') {
                open = j;
                break;
            }
        }
        if !find_words(&header, "for").is_empty() {
            continue; // trait impl: `fn fingerprint` there is someone else's contract
        }
        let Some(ty) = impl_self_type(&header) else { continue };
        let mut end = open;
        for j in open..lines.len() {
            if depth_after(j) == 0 {
                end = j;
                break;
            }
        }
        impls.push((ty, idx + 1, end + 1));
    }

    let mut fns = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(fn_at) = fn_keyword(line) else { continue };
        // Require a named definition: `fn` followed by an identifier.
        let after = line[fn_at + 2..].trim_start();
        let name: String = after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
        if name.is_empty() {
            continue;
        }
        // Signature runs to the body's opening brace; a `;` first means a
        // bodiless trait declaration.
        let mut signature = String::new();
        let mut body_open: Option<usize> = None;
        'sig: for (j, sl) in lines.iter().enumerate().skip(idx) {
            for (ci, ch) in sl.char_indices() {
                if j == idx && ci < fn_at {
                    continue;
                }
                if ch == '{' {
                    body_open = Some(j);
                    break 'sig;
                }
                if ch == ';' {
                    break 'sig;
                }
                signature.push(ch);
            }
            signature.push(' ');
        }
        let Some(open) = body_open else { continue };
        let start_depth = depth_before[idx];
        let mut end = open;
        for j in open..lines.len() {
            if depth_after(j) <= start_depth {
                end = j;
                break;
            }
        }
        let impl_type = impls
            .iter()
            .find(|(_, s, e)| (*s..=*e).contains(&(idx + 1)))
            .map(|(ty, _, _)| ty.clone());
        fns.push(FnDef { line: idx + 1, end_line: end + 1, signature, name, impl_type });
    }
    fns
}

/// The `Self` type of an inherent impl header, generics stripped.
fn impl_self_type(header: &str) -> Option<String> {
    let after = header.trim_start().strip_prefix("impl")?;
    // Skip the generic-parameter list if present.
    let mut at = 0;
    if after.trim_start().starts_with('<') {
        let mut depth = 0i32;
        for (i, ch) in after.char_indices() {
            match ch {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        at = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    let ty_part = after[at..].trim_start();
    let ty: String =
        ty_part.chars().take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':').collect();
    let last = ty.rsplit("::").next().unwrap_or(&ty).to_string();
    if last.is_empty() {
        None
    } else {
        Some(last)
    }
}

/// Position of a `fn` keyword introducing a definition on `line`, if any.
fn fn_keyword(line: &str) -> Option<usize> {
    find_words(line, "fn").into_iter().find(|&at| {
        // `fn(` with no name is a fn-pointer type, not a definition.
        line[at + 2..].trim_start().starts_with(|c: char| c.is_alphabetic() || c == '_')
    })
}

/// Runs the FPR pass over the whole workspace at once (struct
/// definitions and digest sites live in different crates).
pub fn run(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let mut structs: BTreeMap<String, Option<StructDef>> = BTreeMap::new();
    for file in files {
        parse_structs(file, &mut structs);
    }
    for file in files {
        for fndef in parse_fns(file) {
            if file.is_test_line(fndef.line) {
                continue;
            }
            let mut digested: Vec<&str> = Vec::new();
            if !find_words(&fndef.signature, "FingerprintBuilder").is_empty() {
                for (name, def) in &structs {
                    // The builder itself is the digest mechanism, not a
                    // digested payload.
                    if name == "FingerprintBuilder" {
                        continue;
                    }
                    if def.is_some() && !find_words(&fndef.signature, name).is_empty() {
                        digested.push(name);
                    }
                }
            }
            let squeezed: String = fndef.signature.chars().filter(|c| !c.is_whitespace()).collect();
            if fndef.name == "fingerprint" && squeezed.contains("(&self") {
                if let Some(ty) = &fndef.impl_type {
                    if structs.get(ty.as_str()).is_some_and(Option::is_some)
                        && !digested.iter().any(|d| d == ty)
                    {
                        digested.push(ty);
                    }
                }
            }
            if digested.is_empty() {
                continue;
            }
            let body: String = file.code[fndef.line - 1..fndef.end_line].join("\n");
            for name in digested {
                let Some(Some(def)) = structs.get(name) else { continue };
                for field in &def.fields {
                    if find_words(&body, field).is_empty() {
                        let mut diag = Diagnostic::new(
                            LintCode::FprMissedField,
                            &file.rel_path,
                            fndef.line,
                            format!(
                                "digest fn `{}` covers `{name}` but never mentions field \
                                 `{field}` — two specs differing only there share a \
                                 fingerprint",
                                fndef.name
                            ),
                        );
                        diag.span = Some((fndef.line, fndef.end_line));
                        diag.key = Some(field.clone());
                        out.push(diag);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let files: Vec<SourceFile> =
            sources.iter().map(|(path, src)| SourceFile::parse(path, "demo", src)).collect();
        let mut out = Vec::new();
        run(&files, &mut out);
        out
    }

    const STRUCT_SRC: &str = "pub struct Knobs {\n    pub seed: u64,\n    pub workers: usize,\n}\n";

    #[test]
    fn missed_field_in_builder_signature_fn_is_flagged() {
        let digest = "fn digest(b: FingerprintBuilder, k: &Knobs) -> FingerprintBuilder {\n    b.u64(k.seed)\n}\n";
        let diags = scan(&[("a.rs", STRUCT_SRC), ("b.rs", digest)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, LintCode::FprMissedField);
        assert_eq!(diags[0].key.as_deref(), Some("workers"));
        assert_eq!(diags[0].span, Some((1, 3)));
    }

    #[test]
    fn full_coverage_is_clean() {
        let digest = "fn digest(b: FingerprintBuilder, k: &Knobs) -> FingerprintBuilder {\n    b.u64(k.seed).u64(k.workers as u64)\n}\n";
        assert!(scan(&[("a.rs", STRUCT_SRC), ("b.rs", digest)]).is_empty());
    }

    #[test]
    fn inherent_fingerprint_method_digests_self() {
        let src = "struct Pair {\n    a: u64,\n    b: u64,\n}\n\
                   impl Pair {\n    fn fingerprint(&self) -> u64 {\n        self.a\n    }\n}\n";
        let diags = scan(&[("p.rs", src)]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].key.as_deref(), Some("b"));
    }

    #[test]
    fn owning_fingerprint_method_is_not_a_digest_site() {
        let src = "struct Builder {\n    acc: u64,\n}\n\
                   impl Builder {\n    fn fingerprint(mut self) -> u64 {\n        0\n    }\n}\n";
        assert!(scan(&[("b.rs", src)]).is_empty());
    }

    #[test]
    fn ambiguous_struct_names_are_dropped_from_resolution() {
        let dup = "struct Knobs {\n    hidden: u64,\n}\n";
        let digest =
            "fn digest(b: FingerprintBuilder, k: &Knobs) -> FingerprintBuilder {\n    b\n}\n";
        assert!(scan(&[("a.rs", STRUCT_SRC), ("c.rs", dup), ("b.rs", digest)]).is_empty());
    }
}
