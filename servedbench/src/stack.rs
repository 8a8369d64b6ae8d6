//! Setting up the serving stack the way the `hermit-server` binary does:
//! a [`Database`] with a B+-tree on `host` and a Hermit index on `target`
//! routed through it, wrapped in a [`SharedDatabase`] with the default
//! [`MaintenanceWorker`] and served by a [`HermitServer`] with the default
//! [`ServerConfig`] on a loopback port.

use crate::gen::{self, Dataset, HOST, PK, TARGET};
use crate::Workload;
use hermit_core::{
    Database, DurabilityConfig, MaintenanceConfig, MaintenanceWorker, SecondaryIndex,
    SharedDatabase,
};
use hermit_server::{HermitServer, ServerConfig};
use hermit_storage::TidScheme;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Commit batch used while bulk-loading a durable database. The load is
/// made durable by the checkpoint that follows it, so it needs no fsync
/// per row; the workload's own `wal_sync_every` applies after the reopen.
const LOAD_SYNC_EVERY: usize = 1 << 20;

/// Wall time of each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Inserting the generated rows.
    pub load_s: f64,
    /// Building the host B+-tree and the Hermit index.
    pub index_build_s: f64,
    /// Checkpointing (durable workloads; 0 on the in-memory substrate).
    pub checkpoint_s: f64,
    /// Reopening from disk (durable workloads; 0 on the in-memory
    /// substrate).
    pub open_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.load_s + self.index_build_s + self.checkpoint_s + self.open_s
    }
}

/// A scratch directory inside the working tree, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh directory under `parent`.
    pub fn create(parent: &Path, tag: &str) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let dir = parent.join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is only disk space.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build the workload's database from `data`, timing each step. Durable
/// workloads are created, loaded, indexed and checkpointed in `dir`, then
/// reopened from disk with the workload's commit batch.
pub fn build(
    workload: Workload,
    data: &Dataset,
    dir: &Path,
) -> Result<(Database, SetupTimes), String> {
    let mut times = SetupTimes::default();
    let load = |db: &Database| -> Result<(), String> {
        for row in &data.rows {
            db.insert(&row.values()).map_err(|e| format!("load insert failed: {e}"))?;
        }
        Ok(())
    };
    let index = |db: &mut Database| -> Result<(), String> {
        db.create_baseline_index(HOST, true).map_err(|e| format!("host index: {e}"))?;
        db.create_hermit_index(TARGET, HOST).map_err(|e| format!("hermit index: {e}"))
    };
    let Some(sync_every) = workload.wal_sync_every() else {
        let mut db = Database::new(gen::schema(), PK, TidScheme::Physical);
        let t = Instant::now();
        load(&db)?;
        times.load_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        index(&mut db)?;
        times.index_build_s = t.elapsed().as_secs_f64();
        return Ok((db, times));
    };
    let load_config = DurabilityConfig { wal_sync_every: LOAD_SYNC_EVERY, ..Default::default() };
    let t = Instant::now();
    let mut db = Database::create_durable(gen::schema(), PK, dir, &load_config)
        .map_err(|e| format!("create durable database: {e}"))?;
    load(&db)?;
    times.load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    index(&mut db)?;
    times.index_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    db.checkpoint(dir).map_err(|e| format!("checkpoint: {e}"))?;
    drop(db);
    times.checkpoint_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let config = DurabilityConfig { wal_sync_every: sync_every, ..Default::default() };
    let db = Database::open(dir, &config).map_err(|e| format!("reopen: {e}"))?;
    times.open_s = t.elapsed().as_secs_f64();
    Ok((db, times))
}

/// Heap bytes of the Hermit index on `target` and of the host B+-tree.
pub fn index_bytes(db: &Database) -> (usize, usize) {
    let bytes = |col| db.index(col).map_or(0, SecondaryIndex::memory_bytes);
    (bytes(TARGET), bytes(HOST))
}

/// Heap pages and buffer-pool capacity; `(0, 0)` on the in-memory heap.
pub fn heap_pages(db: &Database) -> (usize, usize) {
    match db.heap() {
        hermit_core::Heap::Mem(_) => (0, 0),
        hermit_core::Heap::Paged(t) => (t.page_count(), t.pool().capacity()),
    }
}

/// The running stack.
pub struct Stack {
    /// The shared handle the server serves.
    pub shared: SharedDatabase,
    /// The server, owning the maintenance worker.
    pub server: HermitServer,
}

impl Stack {
    /// Serve `db` on an ephemeral loopback port.
    pub fn start(db: Database) -> Result<Stack, String> {
        let shared = SharedDatabase::new(db);
        let worker = MaintenanceWorker::start(shared.clone(), MaintenanceConfig::default());
        let server = HermitServer::start(
            shared.clone(),
            Some(worker),
            ServerConfig::default(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("cannot bind a loopback port: {e}"))?;
        Ok(Stack { shared, server })
    }
}
