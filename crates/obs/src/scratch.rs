//! Private scratch directories.
//!
//! Anything that needs a directory of working files — a WAL and its
//! checkpoints, flight-recorder dumps — takes a [`Scratch`]: a fresh
//! directory under `target/ppp-scratch`, named by the process id and a
//! per-process counter, and removed when the value drops. Two concurrent
//! invocations, or two tests in one process, never share one, so neither
//! can see the other's files.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A uniquely named directory under `target/ppp-scratch`, removed with
/// everything in it on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates the empty directory `target/ppp-scratch/<tag>-<pid>-<n>`,
    /// where `n` counts the scratch directories this process has made.
    ///
    /// # Errors
    ///
    /// Returns the error if the directory cannot be created.
    pub fn new(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        // A dead process with the same pid may have left one behind.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl AsRef<Path> for Scratch {
    fn as_ref(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_scratch_is_its_own_directory_and_is_removed_on_drop() {
        let a = Scratch::new("unit").expect("scratch");
        let b = Scratch::new("unit").expect("scratch");
        assert_ne!(a.path(), b.path());
        assert!(a.path().is_dir() && b.path().is_dir());
        std::fs::write(a.path().join("f"), b"x").expect("write");
        let gone = a.path().to_owned();
        drop(a);
        assert!(!gone.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn concurrent_scratches_never_collide() {
        let paths: Vec<PathBuf> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| s.spawn(|| Scratch::new("race").expect("scratch")))
                .collect();
            let held: Vec<Scratch> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            held.iter().map(|d| d.path().to_owned()).collect()
        });
        let mut unique = paths.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), paths.len());
        assert!(paths.iter().all(|p| !p.exists()), "all removed on drop");
    }
}
