//! `error-swallow`: a `Result` from a durability-path call must not be
//! silently discarded.
//!
//! Two discard shapes are recognized, both statement-level:
//!
//! * `let _ = …durability_call(…)…;` — the classic "I know it can fail"
//!   shrug;
//! * `…durability_call(…)….ok();` as a whole statement — same shrug,
//!   different spelling.
//!
//! The durability set is `rules::latch::IO_CALLS` (fsync + WAL
//! append family) plus the engine-level commit points (`flush`,
//! `write_all`, `commit`, `rollback`, `checkpoint`): exactly the calls
//! whose `Err` means bytes may not be on the device or a transaction's
//! fate is unrecorded. Dropping those errors turns crash-safety bugs into
//! silent data loss; when a discard really is the right call (best-effort
//! cleanup on an already-failing path), it takes an
//! `// hermit-lint: allow(error-swallow) reason` like every other
//! exception.
//!
//! Findings anchor on the durability call's line, so the allow sits next
//! to the call a reviewer will actually look at.

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};
use crate::scope::Func;

/// Commit-point calls beyond the raw device set whose `Result` must not
/// be discarded.
const COMMIT_CALLS: &[&str] =
    &["flush", "write_all", "write_all_at", "commit", "rollback", "checkpoint"];

fn is_durability_call(name: &str) -> bool {
    super::latch::IO_CALLS.contains(&name) || COMMIT_CALLS.contains(&name)
}

/// Run the rule over one function. Both shapes are recognized at any
/// statement nesting depth (inside `if` arms, loops, …): the scan finds
/// the pattern tokens and then delimits the statement around them.
pub fn check_function(file: &str, tokens: &[Token], func: &Func, out: &mut Vec<Diagnostic>) {
    let eff = super::latch::effective_indices(tokens, func);
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };

    for p in 0..eff.len() {
        // Shape 1: `let _ = … ;` — judge the initializer up to the
        // statement's own `;`.
        if tok(p).is_ident("let")
            && p + 2 < eff.len()
            && tok(p + 1).is_ident("_")
            && tok(p + 2).is_punct("=")
        {
            let end = stmt_end(tokens, &eff, p + 3);
            emit_if_durability(file, tokens, &eff, p + 3, end, "let _ =", func, out);
        }
        // Shape 2: `… .ok() ;` terminating a statement — walk back to the
        // statement start and judge the expression being discarded.
        if tok(p).is_punct(".")
            && p + 3 < eff.len()
            && tok(p + 1).is_ident("ok")
            && tok(p + 2).is_punct("(")
            && tok(p + 3).is_punct(")")
            && p + 4 < eff.len()
            && tok(p + 4).is_punct(";")
        {
            let start = stmt_start(tokens, &eff, p);
            emit_if_durability(file, tokens, &eff, start, p, ".ok()", func, out);
        }
    }
}

/// First position at or after `from` whose `;` closes the statement
/// (bracket groups skipped).
fn stmt_end(tokens: &[Token], eff: &[usize], from: usize) -> usize {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };
    let mut depth = 0usize;
    let mut p = from;
    while p < eff.len() {
        let t = tok(p);
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                return p; // unbalanced close: the statement ends here
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return p;
        }
        p += 1;
    }
    p
}

/// Walk backwards from `at` to the start of the enclosing statement,
/// skipping complete bracket groups.
fn stmt_start(tokens: &[Token], eff: &[usize], at: usize) -> usize {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };
    let mut depth = 0usize;
    let mut q = at;
    while q > 0 {
        q -= 1;
        let t = tok(q);
        if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            if depth == 0 {
                return q + 1;
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(";") || t.is_punct("=>") || t.is_punct(",")) {
            return q + 1;
        }
    }
    0
}

/// Emit an `error-swallow` finding when span `[start, end)` contains a
/// durability call at its own nesting level (closure/block bodies inside
/// the span are statements of their own and are not this discard's fault).
#[allow(clippy::too_many_arguments)]
fn emit_if_durability(
    file: &str,
    tokens: &[Token],
    eff: &[usize],
    start: usize,
    end: usize,
    how: &str,
    func: &Func,
    out: &mut Vec<Diagnostic>,
) {
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };
    let mut depth = 0usize;
    for p in start..end.min(eff.len()) {
        let t = tok(p);
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth = depth.saturating_sub(1);
        }
        if depth > 0 || t.kind != TokenKind::Ident || !is_durability_call(&t.text) {
            continue;
        }
        if p + 1 >= end || !tok(p + 1).is_punct("(") {
            continue;
        }
        out.push(Diagnostic::new(
            file,
            t.line,
            RuleId::ErrorSwallow,
            format!(
                "fn `{}` discards the Result of `{}` via `{how}`; a durability error dropped \
                 here is silent data loss — handle it or annotate why it is safe",
                func.name, t.text
            ),
        ));
        return; // one finding per discard statement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope;

    fn run(src: &str) -> Vec<Diagnostic> {
        let tokens = crate::lexer::lex(src);
        let mut out = Vec::new();
        for f in scope::functions(&tokens) {
            check_function("t.rs", &tokens, &f, &mut out);
        }
        out
    }

    #[test]
    fn let_underscore_discard_fires() {
        let out = run("fn f(d: &File) { let _ = d.sync_all(); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("sync_all"));
        assert!(out[0].message.contains("let _ ="));
    }

    #[test]
    fn ok_discard_fires() {
        let out = run("fn f(w: &mut W) { w.flush().ok(); }");
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains(".ok()"));
    }

    #[test]
    fn handled_results_are_silent() {
        let out = run("fn f(d: &File) -> io::Result<()> { d.sync_all()?; Ok(()) }\n\
             fn g(w: &mut W) { if let Err(e) = w.flush() { log(e); } }\n\
             fn h(w: &mut W) -> bool { w.commit().is_ok() }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn non_durability_discards_are_silent() {
        let out = run("fn f(tx: &Sender<u32>) { let _ = tx.send(1); sink.write(b).ok(); }");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn nested_statement_discards_are_found() {
        let out = run("fn f(d: &File) { if degraded { let _ = d.sync_all(); } }\n\
             fn g(w: &mut W) { match m { Mode::Fast => { w.flush().ok(); } _ => {} } }");
        assert_eq!(out.len(), 2, "{out:?}");
    }

    #[test]
    fn closure_body_is_not_blamed_on_the_outer_discard() {
        let out = run("fn f() { let _ = spawn(move || { db.commit(t).unwrap(); }); }");
        assert!(out.is_empty(), "{out:?}");
    }
}
