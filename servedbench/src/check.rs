//! Output checks against the oracle built from the generated rows. A
//! mismatch fails the run; it is never folded into a metric.

use crate::gen::{self, Dataset, Victims, TARGET};
use hermit_core::{Query, SharedDatabase};
use hermit_storage::Value;
use std::collections::{BTreeSet, HashSet};

/// What the table holds beyond the loaded rows once writers have stopped.
#[derive(Debug, Default)]
pub struct Expect {
    /// Loaded rows deleted by acknowledged commits.
    pub deleted: HashSet<i64>,
    /// Acknowledged inserts as `(target bits, pk)`.
    pub inserted: BTreeSet<(u64, i64)>,
    /// Rows touched by failed transactions: present or absent.
    pub uncertain: HashSet<i64>,
}

impl Expect {
    /// The post-run state of a closed loop's writes.
    pub fn after(inserted: &[(i64, f64)], deleted: &[i64], uncertain: &HashSet<i64>) -> Expect {
        Expect {
            deleted: deleted.iter().copied().collect(),
            inserted: inserted.iter().map(|&(pk, t)| (t.to_bits(), pk)).collect(),
            uncertain: uncertain.clone(),
        }
    }
}

/// Validate every returned row: an integer pk, content equal to the
/// generated row, a target inside `[lo, hi]`, and no pk twice. Returns the
/// set of returned pks.
fn returned(data: &Dataset, lo: f64, hi: f64, rows: &[Vec<Value>]) -> Result<HashSet<i64>, String> {
    let n = data.rows.len() as i64;
    let mut seen = HashSet::with_capacity(rows.len());
    for row in rows {
        let Some(Value::Int(pk)) = row.first() else {
            return Err(format!("row without an integer pk: {row:?}"));
        };
        let pk = *pk;
        let want = match pk {
            pk if (0..n).contains(&pk) => data.rows[pk as usize],
            pk if pk >= n => gen::inserted_row(data.seed, data.rows.len(), pk),
            _ => return Err(format!("pk {pk} was never generated")),
        };
        if !want.matches(row) {
            return Err(format!("pk {pk}: stored row {row:?} differs from the generated {want:?}"));
        }
        if !(lo <= want.target && want.target <= hi) {
            return Err(format!("pk {pk}: target {} outside the predicate", want.target));
        }
        if !seen.insert(pk) {
            return Err(format!("pk {pk} returned twice"));
        }
    }
    Ok(seen)
}

/// Exact check when no writer is running: the returned pks are the loaded
/// rows in range minus deletes plus inserts, give or take rows of unknown
/// fate.
pub fn exact(
    data: &Dataset,
    expect: &Expect,
    lo: f64,
    hi: f64,
    rows: &[Vec<Value>],
) -> Result<(), String> {
    let seen = returned(data, lo, hi, rows)?;
    let inserted = expect
        .inserted
        .range((lo.to_bits(), i64::MIN)..=(hi.to_bits(), i64::MAX))
        .map(|&(_, pk)| pk);
    let required: HashSet<i64> = data
        .expected(lo, hi)
        .filter(|pk| !expect.deleted.contains(pk))
        .chain(inserted)
        .filter(|pk| !expect.uncertain.contains(pk))
        .collect();
    if let Some(pk) = required.iter().find(|pk| !seen.contains(pk)) {
        return Err(format!(
            "pk {pk} missing ({} of {} expected rows returned)",
            seen.len(),
            required.len()
        ));
    }
    if let Some(pk) =
        seen.iter().find(|pk| !required.contains(pk) && !expect.uncertain.contains(pk))
    {
        return Err(format!("pk {pk} returned but not expected"));
    }
    Ok(())
}

/// Check a read that raced the durable_rw writers. `before[c]` is client
/// `c`'s acknowledged-delete count read before the request was sent and
/// `after[c]` its started-delete count read after the reply arrived: a
/// victim below `before` must be gone, one at or above `after` must be
/// there, and one in between may be either. Loaded rows outside the victim
/// pools must be there, as must the reader's own acknowledged inserts
/// (`own`). Other clients' inserts may appear once content-checked.
#[allow(clippy::too_many_arguments)]
pub fn concurrent(
    data: &Dataset,
    victims: &Victims,
    before: &[usize],
    after: &[usize],
    uncertain: &HashSet<i64>,
    own: &[i64],
    lo: f64,
    hi: f64,
    rows: &[Vec<Value>],
) -> Result<(), String> {
    let seen = returned(data, lo, hi, rows)?;
    for pk in data.expected(lo, hi) {
        let must_exist = match victims.slot(pk) {
            None => Some(true),
            Some(_) if uncertain.contains(&pk) => None,
            Some((c, j)) if j < before[c] => Some(false),
            Some((c, j)) if j >= after[c] => Some(true),
            Some(_) => None,
        };
        match must_exist {
            Some(true) if !seen.contains(&pk) => return Err(format!("loaded pk {pk} missing")),
            Some(false) if seen.contains(&pk) => {
                return Err(format!("pk {pk} returned after its delete was acknowledged"))
            }
            _ => {}
        }
    }
    if let Some(pk) = own.iter().find(|pk| !seen.contains(pk)) {
        return Err(format!("own acknowledged insert pk {pk} missing"));
    }
    Ok(())
}

/// Pks a point query on `target` returns, executed in-process.
fn point_pks(db: &SharedDatabase, target: f64) -> Vec<i64> {
    let result = db.execute(&Query::new().point(TARGET, target));
    result
        .rows
        .iter()
        .filter_map(|&loc| db.db().heap().get(loc).ok())
        .filter_map(|row| row.first().and_then(Value::as_i64))
        .collect()
}

/// End-of-run durability check for durable_rw, after the clients stopped:
/// every acknowledged insert is found by a point query, every acknowledged
/// delete is gone, and the row count is loaded + inserted − deleted (up to
/// rows of unknown fate).
pub fn final_state(
    db: &SharedDatabase,
    data: &Dataset,
    inserted: &[(i64, f64)],
    deleted: &[i64],
    uncertain: &HashSet<i64>,
) -> Result<(), String> {
    if let Some(&(pk, _)) = inserted.iter().find(|&&(pk, t)| !point_pks(db, t).contains(&pk)) {
        return Err(format!("acknowledged insert pk {pk} not found after the run"));
    }
    if let Some(pk) =
        deleted.iter().find(|&&pk| point_pks(db, data.rows[pk as usize].target).contains(&pk))
    {
        return Err(format!("acknowledged delete pk {pk} still present after the run"));
    }
    let n = data.rows.len() as i64;
    let unsure_inserts = uncertain.iter().filter(|&&pk| pk >= n).count();
    let unsure_deletes = uncertain.len() - unsure_inserts;
    let expected = data.rows.len() + inserted.len() - deleted.len();
    let got = db.db().len();
    if got + unsure_deletes < expected || got > expected + unsure_inserts {
        return Err(format!(
            "row count {got} != loaded {} + inserted {} - deleted {} (uncertain {})",
            data.rows.len(),
            inserted.len(),
            deleted.len(),
            uncertain.len()
        ));
    }
    Ok(())
}
