#![forbid(unsafe_code)]
//! Multi-statement transaction mechanism for the Hermit engine.
//!
//! This crate owns the *bookkeeping* of transactions — ids, the transaction
//! table, per-pk write locks, undo records, and read visibility — while
//! `hermit_core` owns their *integration*: routing DML through the manager,
//! writing the `TxnBegin`/`TxnInsert`/`TxnDelete`/`TxnCommit`/`TxnAbort`
//! records into the epoch-fenced WAL, and rolling losers back on recovery.
//!
//! ## Design
//!
//! * **Monotonic txn ids.** [`TxnManager::begin`] hands out ids from a
//!   counter that recovery re-seeds past the highest id seen in the WAL
//!   ([`TxnManager::seed_next_id`]), so a reopened database never reuses an
//!   id that still appears in the current log generation. Ids reset with
//!   the log: a checkpoint starts a new WAL epoch (PR 5's epoch fencing)
//!   and only records of the current epoch replay, so cross-epoch collisions
//!   are fenced off the same way stale DML records are.
//! * **First-writer-wins pk locks.** The lock table maps each written
//!   primary key to its owning open transaction. A second writer — another
//!   transaction *or* an auto-commit statement — fails fast with
//!   [`TxnError::Conflict`] instead of blocking; the caller may retry after
//!   the owner finishes. There is no lock queue and therefore no deadlock.
//! * **Undo records.** Every applied txn write pushes its inverse:
//!   [`Undo::Insert`] (delete the pk) or [`Undo::Delete`] (reinstate the
//!   pre-image row). Rollback applies the list in reverse; the operations
//!   are idempotent ("delete if present" / "insert if absent"), so a crash
//!   mid-rollback re-converges when recovery runs the same undo again.
//! * **Deferred deletes.** Deleting a row other readers may still read
//!   does not tombstone it in place — the pre-image must stay readable.
//!   The delete parks in the txn's pending list and is applied (and WAL-
//!   logged, carrying the full pre-image) at commit, under the same WAL
//!   guard as the commit record. Deleting a row the *same* transaction
//!   inserted applies immediately: no concurrent reader ever saw it.
//! * **Read committed.** A [`ReadView`] is the live lock table plus the
//!   reader's own txn id. A pk locked by another open transaction reads as
//!   its *committed* state (insert → invisible, pending delete → still
//!   visible); the owner sees its own writes. Each statement takes a fresh
//!   view, so two statements of one transaction may see different committed
//!   states. When no pk is locked the view filters nothing.
//! * **The lock table is the visibility latch.** It sits behind one
//!   reader-parallel latch. A query holds the shared side
//!   ([`TxnManager::read_view`]) from view creation through the last
//!   validated row; every lock change goes through the exclusive side
//!   ([`TxnManager::write_visibility`]), which `hermit_core` also holds
//!   across each transactional *physical* apply and commit/abort
//!   publication. An in-flight query therefore never observes a lock
//!   change or a row applied after it started, and commits/aborts become
//!   visible all-or-nothing. A thread holding a [`ReadView`] must not take
//!   any other view or lock method: that deadlocks on itself.
//!
//! The counters ([`TxnCounters`]) feed the server's `Stats` exporter as
//! `hermit_txn_begins` / `hermit_txn_commits` / `hermit_txn_aborts` /
//! `hermit_txn_conflicts` and the `hermit_txn_active` gauge.

use hermit_storage::{ColumnId, RowRef, Value};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Transaction-management failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnError {
    /// The transaction id is not open (never begun, or already finished).
    UnknownTxn {
        /// The offending id.
        txn: u64,
    },
    /// The primary key is write-locked by another open transaction, or
    /// would violate the one-write-per-pk rule within the same transaction.
    Conflict {
        /// The contended primary key.
        pk: i64,
    },
}

impl fmt::Display for TxnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TxnError::UnknownTxn { txn } => write!(f, "transaction {txn} is not open"),
            TxnError::Conflict { pk } => {
                write!(f, "primary key {pk} is write-locked by an open transaction")
            }
        }
    }
}

impl std::error::Error for TxnError {}

/// What kind of write an open transaction holds on a pk (drives both
/// conflict detection and read visibility).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// The txn inserted this pk (physically present, invisible to others).
    Insert,
    /// The txn deleted this pk (pre-existing rows stay physically present
    /// until commit and remain visible to others; the owner no longer sees
    /// them).
    Delete,
}

/// Inverse of one applied transactional write, pushed in statement order
/// and applied in reverse on rollback. Both operations are idempotent.
#[derive(Debug, Clone, PartialEq)]
pub enum Undo {
    /// Undo an applied insert: delete `pk` if it is present.
    Insert {
        /// Primary key the transaction inserted.
        pk: i64,
    },
    /// Undo an applied delete: reinstate `row` if `pk` is absent.
    Delete {
        /// Primary key the transaction deleted.
        pk: i64,
        /// Full pre-image of the deleted row, in schema order.
        row: Vec<Value>,
    },
}

/// How a transactional delete must be executed, as decided by the lock
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeleteMode {
    /// The row was inserted by this same transaction: apply the physical
    /// delete immediately (no other reader ever saw the row).
    OwnInsert,
    /// The row pre-exists the transaction: defer the physical delete to
    /// commit so concurrent readers keep reading the pre-image.
    Deferred,
}

struct OpenTxn {
    undo: Vec<Undo>,
    /// Deferred deletes: `(pk, pre-image)` applied and WAL-logged at commit.
    pending: Vec<(i64, Vec<Value>)>,
    /// Pks this txn holds locks on (for O(own writes) release).
    locked: Vec<i64>,
}

struct TableState {
    next_id: u64,
    open: HashMap<u64, OpenTxn>,
}

/// pk → (owning txn, kind): the write locks, and the read view itself.
type LockTable = HashMap<i64, (u64, WriteKind)>;

/// Monotonic counter snapshot for the metrics exporter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnCounters {
    /// Transactions ever begun.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions rolled back (explicitly or by disconnect).
    pub aborts: u64,
    /// Write-write conflicts reported (first-writer-wins losers).
    pub conflicts: u64,
    /// Currently open transactions (gauge).
    pub active: usize,
}

/// The transaction table: id allocation, pk write locks, undo bookkeeping,
/// and read views. One per [`Database`](../hermit_core).
///
/// Lock order: the lock table's latch first, then the `state` mutex, which
/// is a leaf.
pub struct TxnManager {
    state: Mutex<TableState>,
    /// The pk lock table behind the visibility latch (see the module docs).
    locks: RwLock<LockTable>,
    begins: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    conflicts: AtomicU64,
}

impl Default for TxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl TxnManager {
    /// Fresh manager with no open transactions; ids start at 1.
    pub fn new() -> Self {
        TxnManager {
            state: Mutex::new(TableState { next_id: 1, open: HashMap::new() }),
            locks: RwLock::new(HashMap::new()),
            begins: AtomicU64::new(0),
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// Raise the id counter to at least `floor` (recovery calls this with
    /// one past the highest txn id seen in the replayed WAL).
    pub fn seed_next_id(&self, floor: u64) {
        let mut s = self.state.lock();
        s.next_id = s.next_id.max(floor);
    }

    /// Open a transaction and return its id.
    pub fn begin(&self) -> u64 {
        let mut s = self.state.lock();
        let id = s.next_id;
        s.next_id += 1;
        s.open.insert(id, OpenTxn { undo: Vec::new(), pending: Vec::new(), locked: Vec::new() });
        self.begins.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Whether `txn` is currently open.
    pub fn is_open(&self, txn: u64) -> bool {
        self.state.lock().open.contains_key(&txn)
    }

    /// Number of open transactions.
    pub fn active(&self) -> usize {
        self.state.lock().open.len()
    }

    /// Counter snapshot for the metrics exporter.
    pub fn counters(&self) -> TxnCounters {
        TxnCounters {
            begins: self.begins.load(Ordering::Relaxed),
            commits: self.commits.load(Ordering::Relaxed),
            aborts: self.aborts.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            active: self.active(),
        }
    }

    fn conflict(&self, pk: i64) -> TxnError {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        TxnError::Conflict { pk }
    }

    /// Guard for **auto-commit** (non-transactional) DML: fails with
    /// [`TxnError::Conflict`] when `pk` is write-locked by an open
    /// transaction.
    pub fn check_unlocked(&self, pk: i64) -> Result<(), TxnError> {
        if self.locks.read().contains_key(&pk) {
            return Err(self.conflict(pk));
        }
        Ok(())
    }

    /// Record the undo for a physically-applied delete (own-insert deletes,
    /// and each deferred delete as commit applies it).
    pub fn note_applied_delete(&self, txn: u64, pk: i64, row: Vec<Value>) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.undo.push(Undo::Delete { pk, row });
        Ok(())
    }

    /// Park a deferred delete `(pk, pre-image)` for application at commit.
    pub fn note_pending_delete(&self, txn: u64, pk: i64, row: Vec<Value>) -> Result<(), TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.pending.push((pk, row));
        Ok(())
    }

    /// Whether `txn` holds a **pending (deferred) delete** on `pk` — i.e.
    /// the row is still physically present but the owner must not see it.
    pub fn has_pending_delete(&self, txn: u64, pk: i64) -> bool {
        matches!(self.locks.read().get(&pk), Some(&(owner, WriteKind::Delete)) if owner == txn)
    }

    /// Start committing: returns the deferred deletes to apply (in
    /// statement order). The txn stays open and locked; call
    /// [`note_applied_delete`](Self::note_applied_delete) as each lands and
    /// [`WriteVisibility::finish_commit`] once the commit record is in the
    /// WAL.
    pub fn start_commit(&self, txn: u64) -> Result<Vec<(i64, Vec<Value>)>, TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        Ok(std::mem::take(&mut t.pending))
    }

    /// Start a rollback: returns the undo list in **push order** (apply it
    /// in reverse). The txn stays open and locked until
    /// [`WriteVisibility::finish_abort`].
    pub fn start_abort(&self, txn: u64) -> Result<Vec<Undo>, TxnError> {
        let mut s = self.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        t.pending.clear(); // deferred deletes were never applied — nothing to undo
        Ok(std::mem::take(&mut t.undo))
    }

    /// Shared side of the visibility latch: the live lock table as a read
    /// view for `owner` (`None` = auto-commit reader). A query holds it
    /// until its last row is validated; while held, no transaction can
    /// change a lock, physically apply a write, or publish a commit/abort.
    pub fn read_view(&self, owner: Option<u64>) -> ReadView<'_> {
        ReadView { owner, locks: self.locks.read() }
    }

    /// Exclusive side of the visibility latch. Every lock change is a
    /// method of the returned guard; `hermit_core` also holds it across
    /// every transactional **physical** mutation (statement apply, commit's
    /// deferred-delete application, rollback's undo) together with the
    /// lock release that publishes it, so running queries never observe a
    /// half-applied or half-published transaction.
    pub fn write_visibility(&self) -> WriteVisibility<'_> {
        WriteVisibility { manager: self, locks: self.locks.write() }
    }
}

/// The exclusive side of the visibility latch, from
/// [`TxnManager::write_visibility`]: the only way to change a lock.
pub struct WriteVisibility<'a> {
    manager: &'a TxnManager,
    locks: RwLockWriteGuard<'a, LockTable>,
}

impl WriteVisibility<'_> {
    /// Lock `pk` for insert by `txn` and push its undo record. Fails on any
    /// existing lock (another txn's, or a second write by the same txn —
    /// each txn writes a pk at most once, except delete-after-own-insert).
    pub fn note_insert(&mut self, txn: u64, pk: i64) -> Result<(), TxnError> {
        let mut s = self.manager.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        if self.locks.contains_key(&pk) {
            return Err(self.manager.conflict(pk));
        }
        self.locks.insert(pk, (txn, WriteKind::Insert));
        t.undo.push(Undo::Insert { pk });
        t.locked.push(pk);
        Ok(())
    }

    /// Undo the lock and bookkeeping of a [`note_insert`](Self::note_insert)
    /// whose WAL append failed before anything was applied.
    pub fn forget_insert(&mut self, txn: u64, pk: i64) {
        if self.locks.get(&pk) == Some(&(txn, WriteKind::Insert)) {
            self.locks.remove(&pk);
        }
        if let Some(t) = self.manager.state.lock().open.get_mut(&txn) {
            if t.undo.last() == Some(&Undo::Insert { pk }) {
                t.undo.pop();
                t.locked.retain(|&p| p != pk);
            }
        }
    }

    /// Lock `pk` for delete by `txn`: decides between the immediate
    /// (own-insert) and deferred (pre-existing row) execution modes.
    pub fn lock_delete(&mut self, txn: u64, pk: i64) -> Result<DeleteMode, TxnError> {
        let mut s = self.manager.state.lock();
        let t = s.open.get_mut(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        match self.locks.get(&pk).copied() {
            // Another txn's lock, or a double delete by the same txn (the
            // caller normally catches that earlier as "pk not visible";
            // this is the backstop).
            Some((owner, kind)) if owner != txn || kind == WriteKind::Delete => {
                Err(self.manager.conflict(pk))
            }
            Some(_) => {
                self.locks.insert(pk, (txn, WriteKind::Delete));
                Ok(DeleteMode::OwnInsert)
            }
            None => {
                t.locked.push(pk);
                self.locks.insert(pk, (txn, WriteKind::Delete));
                Ok(DeleteMode::Deferred)
            }
        }
    }

    /// Finish a commit: release locks and close the txn.
    pub fn finish_commit(&mut self, txn: u64) -> Result<(), TxnError> {
        self.release(txn)?;
        self.manager.commits.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Finish a rollback: release locks and close the txn.
    pub fn finish_abort(&mut self, txn: u64) -> Result<(), TxnError> {
        self.release(txn)?;
        self.manager.aborts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn release(&mut self, txn: u64) -> Result<(), TxnError> {
        let t = self.manager.state.lock().open.remove(&txn).ok_or(TxnError::UnknownTxn { txn })?;
        for pk in &t.locked {
            if matches!(self.locks.get(pk), Some(&(owner, _)) if owner == txn) {
                self.locks.remove(pk);
            }
        }
        Ok(())
    }
}

/// A read view: the live lock table, held under the shared side of the
/// visibility latch, plus the reader's own transaction id. See the module
/// docs for the rules.
pub struct ReadView<'a> {
    owner: Option<u64>,
    locks: RwLockReadGuard<'a, LockTable>,
}

impl ReadView<'_> {
    /// Whether this view needs per-row pk checks at all. `false` is the
    /// fast path: no pk is locked, every physically present row is visible.
    pub fn is_filtering(&self) -> bool {
        !self.locks.is_empty()
    }

    /// Is the physically-present row with this pk visible to the reader?
    ///
    /// * Untouched pk → visible (committed state).
    /// * Another txn's insert → invisible; its pending delete → visible.
    /// * Own insert → visible; own delete → invisible (read-your-writes).
    pub fn visible_pk(&self, pk: i64) -> bool {
        match self.locks.get(&pk) {
            None => true,
            Some(&(owner, kind)) => (self.owner == Some(owner)) == (kind == WriteKind::Insert),
        }
    }

    /// The per-row check of every read path: is `row`, whose primary key
    /// sits in column `pk_col`, visible to the reader? Rows without an
    /// integer pk are never filtered.
    pub fn visible_row(&self, row: &RowRef<'_>, pk_col: ColumnId) -> bool {
        !self.is_filtering() || row.value(pk_col).as_i64().is_none_or(|pk| self.visible_pk(pk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_monotonic_and_seedable() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        assert!(b > a);
        m.seed_next_id(100);
        assert_eq!(m.begin(), 100);
        m.seed_next_id(50); // floor only raises
        assert_eq!(m.begin(), 101);
    }

    #[test]
    fn first_writer_wins() {
        let m = TxnManager::new();
        let a = m.begin();
        let b = m.begin();
        m.write_visibility().note_insert(a, 7).unwrap();
        assert_eq!(m.write_visibility().note_insert(b, 7), Err(TxnError::Conflict { pk: 7 }));
        assert_eq!(m.write_visibility().lock_delete(b, 7), Err(TxnError::Conflict { pk: 7 }));
        assert_eq!(m.check_unlocked(7), Err(TxnError::Conflict { pk: 7 }));
        assert!(m.check_unlocked(8).is_ok());
        assert_eq!(m.counters().conflicts, 3);
        m.write_visibility().finish_commit(a).unwrap();
        assert!(m.write_visibility().note_insert(b, 7).is_ok());
    }

    #[test]
    fn delete_modes() {
        let m = TxnManager::new();
        let t = m.begin();
        let mut vis = m.write_visibility();
        vis.note_insert(t, 1).unwrap();
        assert_eq!(vis.lock_delete(t, 1), Ok(DeleteMode::OwnInsert));
        assert_eq!(vis.lock_delete(t, 2), Ok(DeleteMode::Deferred));
        // Double delete is a conflict backstop.
        assert_eq!(vis.lock_delete(t, 2), Err(TxnError::Conflict { pk: 2 }));
        drop(vis);
        assert!(m.has_pending_delete(t, 2));
    }

    #[test]
    fn visibility_rules() {
        let m = TxnManager::new();
        let t = m.begin();
        {
            let mut vis = m.write_visibility();
            vis.note_insert(t, 1).unwrap();
            vis.lock_delete(t, 2).unwrap();
        }
        {
            let other = m.read_view(None);
            assert!(other.is_filtering());
            assert!(!other.visible_pk(1), "another txn's insert is invisible");
            assert!(other.visible_pk(2), "another txn's pending delete stays visible");
            assert!(other.visible_pk(3), "untouched pk is visible");
        }
        {
            let own = m.read_view(Some(t));
            assert!(own.visible_pk(1), "own insert is visible");
            assert!(!own.visible_pk(2), "own delete is invisible");
        }
        m.write_visibility().finish_abort(t).unwrap();
        assert!(!m.read_view(None).is_filtering(), "empty table is the fast path");
    }

    #[test]
    fn visible_row_reads_the_pk_column() {
        use hermit_storage::{ColumnDef, Schema, Table};
        let schema = Schema::new(vec![ColumnDef::float_null("x"), ColumnDef::int("pk")]);
        let mut table = Table::new(schema);
        table.insert(&[Value::Null, Value::Int(7)]).unwrap();
        let row = RowRef::Columnar { table: &table, idx: 0 };
        let m = TxnManager::new();
        assert!(m.read_view(None).visible_row(&row, 1), "no lock: nothing is filtered");
        let t = m.begin();
        m.write_visibility().note_insert(t, 7).unwrap();
        {
            let other = m.read_view(None);
            assert!(!other.visible_row(&row, 1), "another txn's insert is invisible");
            assert!(other.visible_row(&row, 0), "a NULL pk cell is never filtered");
        }
        assert!(m.read_view(Some(t)).visible_row(&row, 1), "own insert is visible");
    }

    #[test]
    fn undo_is_returned_in_push_order_and_pending_cleared_on_abort() {
        let m = TxnManager::new();
        let t = m.begin();
        m.write_visibility().note_insert(t, 1).unwrap();
        m.write_visibility().lock_delete(t, 2).unwrap();
        m.note_pending_delete(t, 2, vec![Value::Int(2)]).unwrap();
        m.note_applied_delete(t, 1, vec![Value::Int(1)]).unwrap();
        let undo = m.start_abort(t).unwrap();
        assert_eq!(
            undo,
            vec![Undo::Insert { pk: 1 }, Undo::Delete { pk: 1, row: vec![Value::Int(1)] }]
        );
        m.write_visibility().finish_abort(t).unwrap();
        assert_eq!(m.active(), 0);
        assert!(m.check_unlocked(2).is_ok(), "locks released on abort");
    }

    #[test]
    fn commit_hands_back_pending_deletes() {
        let m = TxnManager::new();
        let t = m.begin();
        m.write_visibility().lock_delete(t, 9).unwrap();
        m.note_pending_delete(t, 9, vec![Value::Int(9)]).unwrap();
        let pending = m.start_commit(t).unwrap();
        assert_eq!(pending, vec![(9, vec![Value::Int(9)])]);
        m.note_applied_delete(t, 9, vec![Value::Int(9)]).unwrap();
        m.write_visibility().finish_commit(t).unwrap();
        assert!(!m.read_view(None).is_filtering(), "commit released the lock");
        let c = m.counters();
        assert_eq!((c.begins, c.commits, c.aborts, c.active), (1, 1, 0, 0));
    }

    #[test]
    fn unknown_txn_is_typed() {
        let m = TxnManager::new();
        assert_eq!(m.write_visibility().note_insert(42, 1), Err(TxnError::UnknownTxn { txn: 42 }));
        assert_eq!(m.start_commit(42), Err(TxnError::UnknownTxn { txn: 42 }));
        assert_eq!(m.write_visibility().finish_abort(42), Err(TxnError::UnknownTxn { txn: 42 }));
    }
}
