//! Same-crate call graph, resolved from the token stream.
//!
//! The interprocedural rules ([`crate::summary`]) need to know, for every
//! function, *which workspace functions it calls* — without a type
//! checker. The resolution here is deliberately lexical and deliberately
//! honest about its limits:
//!
//! * **free functions** — a snake_case `name(…)` call resolves to the
//!   crate's unique free function of that name (capitalized idents are
//!   tuple-struct / enum constructors and are skipped);
//! * **`self.method(…)` / `Self::method(…)`** — resolves within the
//!   enclosing `impl` block's type;
//! * **`Type::method(…)`** — resolves to that type's method in the same
//!   crate;
//! * **`expr.method(…)`** (any other receiver) — a receiver-type
//!   heuristic: resolves only when the crate declares exactly one method
//!   of that name, so the binding is unambiguous without type inference.
//!   A receiver named like a declared latch (`wal.commit()`) is guarded
//!   data and stays unresolved.
//!
//! Everything else — cross-crate calls, std, ambiguous names, closures —
//! is **recorded as unresolved**, not silently dropped: every function
//! keeps the list of call names it could not bind, and the summary layer
//! treats them as effect-free (the same under-approximation bias as the
//! intraprocedural guard heuristic: the analyzer may miss a violation
//! through an unresolved call, but it does not invent one).

use crate::lexer::{Token, TokenKind};
use crate::scope::{self, Func};
use hermit_core::latches::level_for_receiver;

/// One call site inside a function body.
#[derive(Debug)]
pub struct CallSite {
    /// Global function index of the resolved callee, if any.
    pub callee: Option<usize>,
    /// Callee name as written (method or function identifier).
    pub name: String,
    /// 1-based source line of the call.
    pub line: u32,
    /// Position of the callee identifier in the caller's effective token
    /// stream (see `rules::latch::effective_indices`).
    pub eff_pos: usize,
}

/// One function node of the call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Workspace-relative file path.
    pub file: String,
    /// Crate key (`core` for `crates/core/src/…`, `root` for `src/…`).
    pub krate: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing `impl` type, when the function is a method.
    pub impl_type: Option<String>,
    /// `Type::name` or `name`, for diagnostics.
    pub display: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Index of the [`Func`] in its file's `scope::functions` output.
    pub func_idx: usize,
    /// Test functions carry no rules but stay in the graph (a production
    /// function never resolves *to* a test; tests are filtered out of the
    /// candidate set entirely).
    pub is_test: bool,
    /// Resolved and unresolved calls this function makes.
    pub calls: Vec<CallSite>,
    /// Call names that could not be bound to a workspace function.
    pub unresolved: Vec<String>,
}

/// Per-file context the graph keeps so downstream passes can re-scan
/// bodies (tokens are owned here; functions index into them).
pub struct FileCtx {
    pub path: String,
    pub tokens: Vec<Token>,
    pub funcs: Vec<Func>,
}

/// The whole-workspace call graph.
pub struct CallGraph {
    pub files: Vec<FileCtx>,
    pub fns: Vec<FnNode>,
    /// `(file index, func index within file)` for each `FnNode`.
    pub origin: Vec<(usize, usize)>,
}

/// Crate key of a workspace-relative path.
pub fn crate_of(path: &str) -> Option<&str> {
    if let Some(rest) = path.strip_prefix("crates/") {
        rest.split('/').next()
    } else if path.starts_with("src/") {
        Some("root")
    } else {
        None
    }
}

/// `impl` block body ranges with the implemented type's name:
/// `(body_open, body_close, type_name)` in token indices.
fn impl_ranges(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_ident("impl") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // Skip generics: `impl<T: Foo<B>, …>`. The lexer emits `<<`/`>>`
        // as single tokens, so count their weight.
        if j < tokens.len() && tokens[j].is_punct("<") {
            let mut depth = 0isize;
            while j < tokens.len() {
                let t = &tokens[j];
                if t.is_punct("<") {
                    depth += 1;
                } else if t.is_punct("<<") {
                    depth += 2;
                } else if t.is_punct(">") {
                    depth -= 1;
                } else if t.is_punct(">>") {
                    depth -= 2;
                } else if t.is_punct("->") {
                    // `Fn() -> T` inside bounds: not an angle close.
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
        }
        // Collect the head up to the body `{` (or `;` for e.g. stray
        // tokens), remembering idents and whether a `for` splits
        // `impl Trait for Type`.
        let mut type_name: Option<String> = None;
        let mut after_for = false;
        let mut angle = 0isize;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct("<") {
                angle += 1;
            } else if t.is_punct("<<") {
                angle += 2;
            } else if t.is_punct(">") {
                angle -= 1;
            } else if t.is_punct(">>") {
                angle -= 2;
            } else if angle == 0 {
                if t.is_punct("{") || t.is_punct(";") {
                    break;
                }
                if t.is_ident("for") {
                    after_for = true;
                    type_name = None;
                } else if t.is_ident("where") {
                    // Bounds follow; the type name is already fixed.
                    let _ = after_for;
                } else if t.kind == TokenKind::Ident && !t.text.starts_with(char::is_lowercase) {
                    // Last capitalized path segment wins (`a::b::Foo`).
                    type_name = Some(t.text.clone());
                }
            }
            j += 1;
        }
        if j < tokens.len() && tokens[j].is_punct("{") {
            let close = scope::matching_brace(tokens, j);
            if let Some(name) = type_name {
                out.push((j, close, name));
            }
            // `impl` blocks do not nest; resume after the head so nested
            // items are still scanned by the outer loop.
            i = j + 1;
            continue;
        }
        i = j + 1;
    }
    out
}

/// Keywords and builtin forms that look like `ident (` but are not calls.
fn is_call_keyword(name: &str) -> bool {
    matches!(
        name,
        "if" | "while"
            | "match"
            | "for"
            | "return"
            | "loop"
            | "fn"
            | "let"
            | "move"
            | "in"
            | "as"
            | "else"
            | "unsafe"
    )
}

/// Build the call graph over every file of the workspace.
pub fn build(files: &[(String, String)]) -> CallGraph {
    let mut ctxs: Vec<FileCtx> = Vec::new();
    let mut fns: Vec<FnNode> = Vec::new();
    let mut origin: Vec<(usize, usize)> = Vec::new();

    // Pass 1: lex, scope, and register every function with its impl type.
    for (path, text) in files {
        let Some(krate) = crate_of(path) else { continue };
        let krate = krate.to_string();
        let tokens = crate::lexer::lex(text);
        let funcs = scope::functions(&tokens);
        let impls = impl_ranges(&tokens);
        let file_idx = ctxs.len();
        for (func_idx, f) in funcs.iter().enumerate() {
            let impl_type = impls
                .iter()
                .find(|&&(s, e, _)| f.body_start > s && f.body_end <= e)
                .map(|(_, _, n)| n.clone());
            let display = match &impl_type {
                Some(t) => format!("{t}::{}", f.name),
                None => f.name.clone(),
            };
            fns.push(FnNode {
                file: path.clone(),
                krate: krate.clone(),
                name: f.name.clone(),
                impl_type,
                display,
                line: f.line,
                func_idx,
                is_test: f.is_test,
                calls: Vec::new(),
                unresolved: Vec::new(),
            });
            origin.push((file_idx, func_idx));
        }
        ctxs.push(FileCtx { path: path.clone(), tokens, funcs });
    }

    // Candidate tables for resolution, production functions only.
    use std::collections::HashMap;
    // (crate, type, method) -> fn index
    let mut methods: HashMap<(&str, &str, &str), Vec<usize>> = HashMap::new();
    // (crate, free fn name) -> fn indices
    let mut free: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    // (crate, method name) -> fn indices, for the unique-name heuristic
    let mut by_method_name: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    for (idx, f) in fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        match &f.impl_type {
            Some(t) => {
                methods.entry((&f.krate, t, &f.name)).or_default().push(idx);
                by_method_name.entry((&f.krate, &f.name)).or_default().push(idx);
            }
            None => free.entry((&f.krate, &f.name)).or_default().push(idx),
        }
    }

    // Pass 2: extract and resolve call sites.
    let mut resolved: Vec<(Vec<CallSite>, Vec<String>)> =
        (0..fns.len()).map(|_| (Vec::new(), Vec::new())).collect();
    for fn_idx in 0..fns.len() {
        let (file_idx, func_idx) = origin[fn_idx];
        let ctx = &ctxs[file_idx];
        let func = &ctx.funcs[func_idx];
        let eff = crate::rules::latch::effective_indices(&ctx.tokens, func);
        let tok = |p: usize| -> &Token { &ctx.tokens[eff[p]] };
        let krate = fns[fn_idx].krate.clone();
        let self_type = fns[fn_idx].impl_type.clone();
        let (calls, unresolved) = &mut resolved[fn_idx];

        for p in 0..eff.len() {
            let t = tok(p);
            if t.kind != TokenKind::Ident
                || p + 1 >= eff.len()
                || !tok(p + 1).is_punct("(")
                || is_call_keyword(&t.text)
            {
                continue;
            }
            // `fn name(` is a definition (nested fns are excluded from
            // eff already; closures never use `fn`).
            if p > 0 && tok(p - 1).is_ident("fn") {
                continue;
            }
            let name = t.text.clone();
            let target: Option<usize>;
            if p > 0 && tok(p - 1).is_punct(".") {
                // Method call. Receiver is the ident before the dot when
                // there is one (`self.x(…)`, `db.x(…)`).
                let recv = (p >= 2 && tok(p - 2).kind == TokenKind::Ident)
                    .then(|| tok(p - 2).text.clone());
                target = match recv.as_deref() {
                    Some("self") => self_type
                        .as_deref()
                        .and_then(|ty| methods.get(&(krate.as_str(), ty, name.as_str())))
                        .and_then(|v| (v.len() == 1).then(|| v[0])),
                    // A receiver named like a declared latch (`wal`,
                    // `table`, …) is that latch's guarded value, never an
                    // engine handle: unresolved, like chained receivers.
                    Some(r) if level_for_receiver(r).is_some() => None,
                    // Receiver-type heuristic: a named receiver whose
                    // method name is unique crate-wide binds unambiguously.
                    Some(_) => by_method_name
                        .get(&(krate.as_str(), name.as_str()))
                        .and_then(|v| (v.len() == 1).then(|| v[0])),
                    // Chained receivers (`t.read().schema()`) stay
                    // unresolved: the value flowing out of the chain is
                    // usually *guarded data* (a table under its latch, the
                    // WAL writer under its guard), and binding its methods
                    // to same-named workspace functions invents recursion
                    // that does not exist.
                    None => None,
                };
            } else if p > 1 && tok(p - 1).is_punct("::") && tok(p - 2).kind == TokenKind::Ident {
                let ty_name = tok(p - 2).text.as_str();
                let ty = if ty_name == "Self" { self_type.as_deref() } else { Some(ty_name) };
                target = ty
                    .and_then(|ty| methods.get(&(krate.as_str(), ty, name.as_str())))
                    .and_then(|v| (v.len() == 1).then(|| v[0]));
            } else if p > 0 && tok(p - 1).is_punct("!") {
                continue; // macro invocation
            } else if name.starts_with(char::is_lowercase) || name.starts_with('_') {
                target = free
                    .get(&(krate.as_str(), name.as_str()))
                    .and_then(|v| (v.len() == 1).then(|| v[0]));
            } else {
                continue; // capitalized: struct / enum-variant constructor
            }
            match target {
                Some(callee) => {
                    calls.push(CallSite { callee: Some(callee), name, line: t.line, eff_pos: p })
                }
                None => {
                    calls.push(CallSite {
                        callee: None,
                        name: name.clone(),
                        line: t.line,
                        eff_pos: p,
                    });
                    unresolved.push(name);
                }
            }
        }
    }
    for (fn_idx, (calls, unresolved)) in resolved.into_iter().enumerate() {
        fns[fn_idx].calls = calls;
        fns[fn_idx].unresolved = unresolved;
    }

    CallGraph { files: ctxs, fns, origin }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(src: &str) -> CallGraph {
        build(&[("crates/core/src/x.rs".to_string(), src.to_string())])
    }

    fn node<'g>(g: &'g CallGraph, name: &str) -> &'g FnNode {
        g.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn resolves_free_self_and_type_methods() {
        let g = graph(
            "fn helper() {}\n\
             struct Db;\n\
             impl Db {\n\
                 fn apply(&self) { helper(); }\n\
                 fn outer(&self) { self.apply(); Db::apply(&d); }\n\
             }\n",
        );
        let outer = node(&g, "outer");
        assert_eq!(outer.calls.iter().filter(|c| c.callee.is_some()).count(), 2);
        let apply = node(&g, "apply");
        assert_eq!(apply.calls.len(), 1);
        assert_eq!(apply.calls[0].name, "helper");
        assert!(apply.calls[0].callee.is_some());
    }

    #[test]
    fn unique_method_name_heuristic_binds_unknown_receivers() {
        let g = graph(
            "struct A;\n\
             impl A { fn only_here(&self) {} }\n\
             fn caller(a: &A) { a.only_here(); }\n",
        );
        let caller = node(&g, "caller");
        assert!(caller.calls[0].callee.is_some(), "unique method should bind");
    }

    #[test]
    fn latch_named_receivers_are_guarded_data() {
        let g = graph(
            "struct Db;\n\
             impl Db { fn commit(&self) {} }\n\
             fn log(wal: &mut WalWriter) { wal.commit(); }\n",
        );
        let log = node(&g, "log");
        assert!(log.calls[0].callee.is_none(), "the WAL writer is not the Db handle");
    }

    #[test]
    fn ambiguous_and_foreign_calls_are_recorded_unresolved() {
        let g = graph(
            "struct A;\n\
             struct B;\n\
             impl A { fn dup(&self) {} }\n\
             impl B { fn dup(&self) {} }\n\
             fn caller(x: &A) { x.dup(); std::fs::rename(a, b); }\n",
        );
        let caller = node(&g, "caller");
        assert!(caller.calls.iter().all(|c| c.callee.is_none()));
        assert!(caller.unresolved.contains(&"dup".to_string()));
        assert!(caller.unresolved.contains(&"rename".to_string()));
    }

    #[test]
    fn impl_trait_for_type_attributes_methods_to_the_type() {
        let g = graph(
            "trait T { fn go(&self); }\n\
             struct Store;\n\
             impl T for Store { fn go(&self) {} }\n\
             impl Store { fn caller(&self) { self.go(); } }\n",
        );
        let caller = node(&g, "caller");
        assert!(caller.calls[0].callee.is_some(), "trait impl method should bind via Store");
    }
}
