// Fixture for `fault-coverage`, `fault-unique`, and
// `fsync-before-rename`. Not compiled — lexed by the test suite under a
// virtual `crates/storage/src/` path.

/// BAD: durability I/O with no fault_point in the function.
fn write_meta_uncovered(f: &File) -> io::Result<()> {
    f.write_all(b"meta")?;
    f.sync_all()?;
    Ok(())
}

/// GOOD: the same shape with an injection site.
fn write_meta_covered(f: &File) -> io::Result<()> {
    if fault_point("fixture.meta") == FaultAction::Error {
        return Err(injected());
    }
    f.write_all(b"meta")?;
    f.sync_all()?;
    Ok(())
}

/// BAD: re-uses the site name declared above (`fault-unique`).
fn duplicate_site(f: &File) -> io::Result<()> {
    if fault_point("fixture.meta") == FaultAction::Error {
        return Err(injected());
    }
    f.sync_data()?;
    Ok(())
}

/// BAD: rename with no fsync anywhere in the function.
fn publish_unsynced(dir: &Path) -> io::Result<()> {
    if fault_point("fixture.publish") == FaultAction::Error {
        return Err(injected());
    }
    std::fs::rename(dir.join("tmp"), dir.join("live"))?;
    Ok(())
}

/// GOOD: write-new / fsync / rename, the atomic-replace recipe.
fn publish_synced(f: &File, dir: &Path) -> io::Result<()> {
    if fault_point("fixture.publish2") == FaultAction::Error {
        return Err(injected());
    }
    f.sync_all()?;
    std::fs::rename(dir.join("tmp"), dir.join("live"))?;
    Ok(())
}

/// BAD: a positional page write with no fault_point in the function.
fn write_page_uncovered(f: &File, page: &[u8]) -> io::Result<()> {
    f.write_all_at(page, 0)?;
    Ok(())
}

/// GOOD: the same positional write behind an injection site.
fn write_page_covered(f: &File, page: &[u8]) -> io::Result<()> {
    if fault_point("fixture.page") == FaultAction::Error {
        return Err(injected());
    }
    f.write_all_at(page, 0)?;
    Ok(())
}
