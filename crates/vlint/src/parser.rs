//! Item-level parser: a brace tree over the lexer's token stream.
//!
//! J001 needs to know *what* a file declares, not just which identifiers
//! it mentions: which `impl` blocks exist for which type, and which of
//! their methods are public `&mut self` entry points. This module
//! recovers exactly that — and nothing more — from the token stream. It
//! is resilient rather than complete: anything it cannot parse
//! (macro-generated items, exotic generics) is skipped, never guessed
//! at, so a parse gap can only ever cost a finding, not invent one.

use crate::lexer::{Kind, Token};
use crate::{attr_end, matching_brace};

/// A method (or associated fn) inside an `impl` block.
#[derive(Debug)]
pub struct MethodInfo {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    pub is_pub: bool,
    pub takes_mut_self: bool,
    /// Token range of the body, `tokens[body.0]` being the `{`.
    pub body: (usize, usize),
}

/// An `impl` block: `impl [Trait for] Type { methods }`.
#[derive(Debug)]
pub struct ImplInfo {
    /// Last path segment of the implemented trait (`Snapshot` for
    /// `impl vusion_snapshot::Snapshot for T`), `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Last path segment of the self type (`System` for `System<P>`).
    pub type_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    pub methods: Vec<MethodInfo>,
}

/// Everything the item parser recovers from one file.
#[derive(Debug, Default)]
pub struct Items {
    pub impls: Vec<ImplInfo>,
}

/// Token index one past the `>` closing the generic-argument list opened
/// at `open` (`tokens[open]` is the `<`). `->` arrows inside fn-pointer
/// types do not close the list.
fn skip_angles(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('<') {
            depth += 1;
        } else if tokens[i].is_punct('>') {
            let arrow = i > 0 && (tokens[i - 1].is_punct('-') || tokens[i - 1].is_punct('='));
            if !arrow {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Parses a type/trait path starting at `i` (`a::b::C<...>`), returning
/// the last path segment and the index one past the path.
fn parse_path(tokens: &[Token], mut i: usize) -> Option<(String, usize)> {
    let mut last = None;
    loop {
        let t = tokens.get(i)?;
        if t.kind != Kind::Ident {
            return last.map(|l| (l, i));
        }
        last = Some(t.text.clone());
        i += 1;
        if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
            i = skip_angles(tokens, i);
        }
        if tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 2).is_some_and(|t| t.kind == Kind::Ident)
        {
            i += 2;
            continue;
        }
        return last.map(|l| (l, i));
    }
}

/// Whether the tokens directly before the `fn` at `i` carry a `pub`
/// (skipping `const`/`unsafe`/`async`/`extern "C"` qualifiers and the
/// parenthesized part of `pub(crate)`).
fn fn_is_pub(tokens: &[Token], i: usize, floor: usize) -> bool {
    let mut k = i;
    while k > floor {
        k -= 1;
        let t = &tokens[k];
        if t.is_ident("const") || t.is_ident("unsafe") || t.is_ident("async") {
            continue;
        }
        if t.is_ident("extern") || t.kind == Kind::Str {
            continue;
        }
        if t.is_punct(')') {
            while k > floor && !tokens[k].is_punct('(') {
                k -= 1;
            }
            continue;
        }
        return t.is_ident("pub");
    }
    false
}

/// Parses the methods between an impl block's braces.
fn parse_methods(tokens: &[Token], open: usize, close: usize) -> Vec<MethodInfo> {
    let mut methods = Vec::new();
    let mut i = open + 1;
    let end = close.saturating_sub(1);
    while i < end {
        let t = &tokens[i];
        if t.is_punct('#') && tokens.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            i = attr_end(tokens, i + 1);
            continue;
        }
        if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|n| n.kind == Kind::Ident) {
            let name = tokens[i + 1].text.clone();
            let line = t.line;
            let is_pub = fn_is_pub(tokens, i, open);
            // Scan the signature to the body `{` (or a `;`).
            let mut j = i + 2;
            let mut takes_mut_self = false;
            while j < end && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                if tokens[j].is_ident("self") {
                    let back: Vec<&Token> = tokens[..j].iter().rev().take(3).collect();
                    let has_mut = back.first().is_some_and(|t| t.is_ident("mut"));
                    let has_amp = back.iter().any(|t| t.is_punct('&'));
                    if has_mut && has_amp {
                        takes_mut_self = true;
                    }
                }
                j += 1;
            }
            if j < end && tokens[j].is_punct('{') {
                let body_close = matching_brace(tokens, j);
                methods.push(MethodInfo {
                    name,
                    line,
                    is_pub,
                    takes_mut_self,
                    body: (j, body_close),
                });
                i = body_close; // skips nested fns inside the body
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    methods
}

/// Recovers the impl blocks of one file.
pub fn parse_items(tokens: &[Token]) -> Items {
    let mut items = Items::default();
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_ident("impl") {
            let line = t.line;
            let mut j = i + 1;
            if tokens.get(j).is_some_and(|n| n.is_punct('<')) {
                j = skip_angles(tokens, j);
            }
            // Skip `&`/`mut`/lifetimes before the first path (rare).
            while tokens
                .get(j)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut") || n.kind == Kind::Lifetime)
            {
                j += 1;
            }
            let Some((first, mut j)) = parse_path(tokens, j) else {
                i += 1;
                continue;
            };
            let (trait_name, type_name) = if tokens.get(j).is_some_and(|n| n.is_ident("for")) {
                j += 1;
                while tokens.get(j).is_some_and(|n| {
                    n.is_punct('&') || n.is_ident("mut") || n.kind == Kind::Lifetime
                }) {
                    j += 1;
                }
                let Some((ty, after)) = parse_path(tokens, j) else {
                    i += 1;
                    continue;
                };
                j = after;
                (Some(first), ty)
            } else {
                (None, first)
            };
            // Skip a `where` clause to the body.
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                items.impls.push(ImplInfo {
                    trait_name,
                    type_name,
                    line,
                    methods: parse_methods(tokens, j, close),
                });
                i = close;
                continue;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Items {
        parse_items(&lex(src))
    }

    #[test]
    fn impls_recover_trait_type_and_methods() {
        let it = parse(
            "impl<P: Policy> System<P> {\n\
             \x20   pub fn read(&mut self, x: u64) -> u64 { self.go(x) }\n\
             \x20   fn go(&self, x: u64) -> u64 { x }\n\
             }\n\
             impl vusion_snapshot::Snapshot for Pool {\n\
             \x20   fn save(&self, w: &mut Writer) { fn nested() {} w.u64(self.a); }\n\
             \x20   fn load(&mut self, r: &mut Reader<'_>) -> Result<(), E> { Ok(()) }\n\
             }\n",
        );
        assert_eq!(it.impls.len(), 2);
        let sys = &it.impls[0];
        assert_eq!(sys.trait_name, None);
        assert_eq!(sys.type_name, "System");
        assert_eq!(sys.methods.len(), 2);
        assert!(sys.methods[0].is_pub && sys.methods[0].takes_mut_self);
        assert!(!sys.methods[1].is_pub && !sys.methods[1].takes_mut_self);
        let snap = &it.impls[1];
        assert_eq!(snap.trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(snap.type_name, "Pool");
        // The nested fn inside `save` is not a method.
        let names: Vec<&str> = snap.methods.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["save", "load"]);
        assert!(snap.methods[1].takes_mut_self);
    }

    #[test]
    fn where_clauses_and_fn_pointer_arrows_do_not_derail() {
        let it = parse(
            "impl<T> Holder<T> where T: Fn(u64) -> u64 {\n\
             \x20   pub fn put(&mut self) {}\n\
             }\n",
        );
        assert_eq!(it.impls.len(), 1);
        assert_eq!(it.impls[0].type_name, "Holder");
        assert_eq!(it.impls[0].methods.len(), 1);
    }
}
