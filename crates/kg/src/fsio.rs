//! Putting a file on disk. Every file the workspace creates or replaces
//! (snapshots, checkpoints, write-ahead logs, text dumps, result files)
//! goes through [`install`], so a reader of the destination sees the old
//! file or the new one, whole, and never a half-written one.

use crate::error::GraphError;
use std::fs::{self, File};
use std::path::Path;

/// Writes a new file at `dst` through `write` and installs it atomically:
/// `write` fills `<dst file name>.<pid>.tmp` in `dst`'s directory, which
/// is then fsynced and renamed over `dst`, and the directory is fsynced so
/// the new entry survives a crash. Returns the new file, open for writing
/// where `write` left it.
///
/// On an error before the rename `dst` is untouched. On any error the temp
/// file is removed (best effort) and the first error is returned; only
/// the directory sync can fail after the rename. A crash can leave the
/// temp file behind, for the directory's owner to sweep (durable recovery
/// removes every `*.tmp` in its data directory).
///
/// `dst` is replaced, never written through: a symlink at `dst` is
/// replaced by the new file, which gets default permissions. Two installs
/// of one `dst` from one process share the temp name, so the caller runs
/// them one at a time.
pub fn install<E: From<GraphError>>(
    dst: &Path,
    write: impl FnOnce(&mut File) -> Result<(), E>,
) -> Result<File, E> {
    let mut tmp_name = dst.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = dst.with_file_name(tmp_name);
    let io = |e: std::io::Error| E::from(GraphError::from(e));
    let installed = File::create(&tmp).map_err(io).and_then(|mut file| {
        write(&mut file)?;
        file.sync_all().map_err(io)?;
        fs::rename(&tmp, dst).map_err(io)?;
        fsync_parent_dir(dst).map_err(io)?;
        Ok(file)
    });
    if installed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    installed
}

/// Fsyncs the directory containing `path`, making a freshly renamed entry
/// itself durable (file data syncs don't cover the dirent).
fn fsync_parent_dir(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::snapshot::write_graph_snapshot;
    use std::io::Write;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kgfsio-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn entries(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// A writer that fails once `left` bytes have gone through.
    struct FailAfter<'f> {
        file: &'f mut File,
        left: usize,
    }

    impl Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.left == 0 {
                return Err(std::io::Error::other("seeded write failure"));
            }
            let n = buf.len().min(self.left);
            self.left -= n;
            self.file.write(&buf[..n])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.file.flush()
        }
    }

    #[test]
    fn a_write_failing_after_any_byte_leaves_the_destination_and_no_temp_file() {
        let dir = tmp_dir("sweep");
        let dst = dir.join("graph.kgsnap");
        fs::write(&dst, b"the file that was there before").expect("seed destination");
        let mut b = GraphBuilder::new();
        b.add_triple("alice", "knows", "bob");
        b.add_triple("bob", "knows", "carol");
        let g = b.build().expect("build");
        let mut full = Vec::new();
        write_graph_snapshot(&g, &mut full).expect("encode");
        for k in 0..full.len() {
            let failed =
                install(&dst, |file| write_graph_snapshot(&g, FailAfter { file, left: k }));
            assert!(failed.is_err(), "a write cut at {k} bytes must fail");
            assert_eq!(fs::read(&dst).expect("read"), b"the file that was there before", "{k}");
            assert_eq!(entries(&dir), ["graph.kgsnap"], "cut at {k}");
        }
        install(&dst, |file| write_graph_snapshot(&g, file)).expect("install");
        assert_eq!(fs::read(&dst).expect("read"), full);
        assert_eq!(entries(&dir), ["graph.kgsnap"]);
    }

    #[test]
    fn the_returned_file_appends_to_the_installed_entry() {
        let dir = tmp_dir("handle");
        let dst = dir.join("log");
        let mut file = install(&dst, |f| Ok::<_, GraphError>(f.write_all(b"head")?)).expect("ok");
        file.write_all(b"+tail").expect("append");
        assert_eq!(fs::read(&dst).expect("read"), b"head+tail");
        // A symlink at the destination is replaced, not written through.
        let link = dir.join("link");
        std::os::unix::fs::symlink(&dst, &link).expect("symlink");
        install(&link, |f| Ok::<_, GraphError>(f.write_all(b"new")?)).expect("over the link");
        assert_eq!(fs::read(&dst).expect("read"), b"head+tail");
        assert!(fs::symlink_metadata(&link).expect("stat").is_file());
    }
}
