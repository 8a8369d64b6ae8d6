//! Fault-injection hygiene over `crates/storage`: `fault-coverage`,
//! `fault-unique`, `fault-matrix`, and `fsync-before-rename`.
//!
//! The crash-schedule explorer (`crates/fault`) can only exercise crash
//! points that exist — a durability syscall with no `fault_point` beside
//! it is a recovery path no test will ever reach. These rules keep the
//! three artifacts reconciled:
//!
//! 1. every fsync/rename/durable-write in storage has a `fault_point` in
//!    the same function (`fault-coverage`);
//! 2. site names are globally unique, so a schedule names one call site
//!    (`fault-unique`);
//! 3. the set of site string literals equals
//!    [`hermit_fault::CRASH_MATRIX_SITES`] (`fault-matrix`) — the same
//!    constant the explorer test checks dynamically, closing the loop;
//! 4. any `rename` must be preceded (same function) by a `sync_all` /
//!    `sync_data` / `sync_dir`, the classic write-new/fsync/rename recipe
//!    (`fsync-before-rename`).

use crate::diag::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};
use crate::scope::Func;
use hermit_fault::CRASH_MATRIX_SITES;

/// Syscalls that must be crash-testable (`fault-coverage`).
const DURABILITY_CALLS: &[&str] =
    &["sync_all", "sync_data", "sync_dir", "rename", "write_all", "write_all_at"];

/// The fsync family: what `fsync-before-rename` wants to see before a
/// `rename`.
const SYNC_CALLS: &[&str] = &["sync_all", "sync_data", "sync_dir"];

/// A `fault_point("site")` occurrence.
pub struct FaultSite {
    pub name: String,
    pub file: String,
    pub line: u32,
}

/// Per-function checks; appends every `fault_point` found to `sites` for
/// the later global pass.
pub fn check_function(
    file: &str,
    tokens: &[Token],
    func: &Func,
    sites: &mut Vec<FaultSite>,
    out: &mut Vec<Diagnostic>,
) {
    let eff: Vec<usize> = func
        .body_indices()
        .filter(|&i| !matches!(tokens[i].kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let tok = |p: usize| -> &Token { &tokens[eff[p]] };

    let mut io_calls: Vec<usize> = Vec::new(); // positions of durability syscalls
    let mut sync_positions: Vec<usize> = Vec::new(); // fsync-family only
    let mut fp_count = 0usize;

    for p in 0..eff.len() {
        let t = tok(p);
        if t.kind != TokenKind::Ident || p + 1 >= eff.len() || !tok(p + 1).is_punct("(") {
            continue;
        }
        // Skip definitions: `fn sync_dir(` is the helper, not a call.
        if p > 0 && tok(p - 1).is_ident("fn") {
            continue;
        }
        let name = t.text.as_str();
        if name == "fault_point" {
            fp_count += 1;
            if p + 2 < eff.len() && tok(p + 2).kind == TokenKind::Str {
                sites.push(FaultSite {
                    name: tok(p + 2).text.clone(),
                    file: file.to_string(),
                    line: tok(p + 2).line,
                });
            }
            continue;
        }
        if !DURABILITY_CALLS.contains(&name) {
            continue;
        }
        io_calls.push(p);
        if SYNC_CALLS.contains(&name) {
            sync_positions.push(p);
        } else if name == "rename" && !sync_positions.iter().any(|&s| s < p) {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: RuleId::FsyncBeforeRename,
                message: format!(
                    "fn `{}` calls `rename` with no preceding sync_all/sync_data/sync_dir in the \
                     same function; an unsynced rename can publish a torn file after a crash",
                    func.name
                ),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }

    if fp_count == 0 {
        if let Some(&first) = io_calls.first() {
            out.push(Diagnostic {
                file: file.to_string(),
                line: tok(first).line,
                rule: RuleId::FaultCoverage,
                message: format!(
                    "fn `{}` performs durability I/O (`{}`) but declares no fault_point; the \
                     crash explorer cannot exercise this path",
                    func.name,
                    tok(first).text
                ),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }
}

/// Global pass once all storage files are scanned: uniqueness plus
/// reconciliation against the crash matrix.
///
/// `matrix_decl` is the `(file, line)` where `CRASH_MATRIX_SITES` is
/// declared, used to anchor "in matrix but not in code" findings.
pub fn check_global(sites: &[FaultSite], matrix_decl: (&str, u32), out: &mut Vec<Diagnostic>) {
    // Uniqueness: every duplicate after the first occurrence is flagged.
    for (i, s) in sites.iter().enumerate() {
        if let Some(first) = sites[..i].iter().find(|t| t.name == s.name) {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                rule: RuleId::FaultUnique,
                message: format!(
                    "fault site \"{}\" already declared at {}:{}; site names must identify one \
                     call site so crash schedules are unambiguous",
                    s.name, first.file, first.line
                ),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }

    // Matrix reconciliation, both directions.
    for s in sites {
        if !CRASH_MATRIX_SITES.contains(&s.name.as_str()) {
            out.push(Diagnostic {
                file: s.file.clone(),
                line: s.line,
                rule: RuleId::FaultMatrix,
                message: format!(
                    "fault site \"{}\" is not listed in hermit_fault::CRASH_MATRIX_SITES; add it \
                     so the crash explorer covers it",
                    s.name
                ),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }
    for m in CRASH_MATRIX_SITES {
        if !sites.iter().any(|s| s.name == *m) {
            out.push(Diagnostic {
                file: matrix_decl.0.to_string(),
                line: matrix_decl.1,
                rule: RuleId::FaultMatrix,
                message: format!(
                    "CRASH_MATRIX_SITES lists \"{m}\" but no fault_point(\"{m}\") exists in \
                     crates/storage; remove the stale entry or restore the site"
                ),
                chain: Vec::new(),
                allowed: None,
            });
        }
    }
}
