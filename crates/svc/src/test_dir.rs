//! Scratch journal directories for the unit tests, removed on drop so a
//! passing run leaves nothing in the temp dir.

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// An empty directory under the temp dir, unique to this process and
/// call, removed with everything in it when dropped.
pub(crate) struct TestDir(PathBuf);

/// A fresh [`TestDir`] whose name carries `tag`.
pub(crate) fn tmp_dir(tag: &str) -> TestDir {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("etrain-svc-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a test directory");
    TestDir(dir)
}

impl Deref for TestDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

/// Lets `WalConfig::new(&dir)` take the guard where it takes a path.
impl From<&TestDir> for PathBuf {
    fn from(dir: &TestDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
