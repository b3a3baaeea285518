//! Helpers for the integration tests that start the `ppm` binary.
//!
//! Each test binary compiles this module on its own and uses a subset
//! of it, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};

/// A fresh, empty scratch directory for one test.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppm-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Kills the child on drop so a failing assertion cannot leak a
/// running process.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cmd` (stdout discarded, stderr piped) and reads stderr up
/// to its `listening on http://` banner. Returns the child, the bound
/// address from the banner, and the rest of stderr.
pub fn spawn_listening(cmd: &mut Command) -> (Reaped, String, Lines<BufReader<ChildStderr>>) {
    let child = cmd
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("ppm binary spawns");
    let mut child = Reaped(child);
    let stderr = child.0.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    // Earlier lines (e.g. the analytical-only registry notice) are
    // skipped.
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.split("listening on http://").nth(1) {
                    break addr.trim().to_string();
                }
            }
            other => panic!("no listening banner on stderr (got {other:?})"),
        }
    };
    (child, addr, lines)
}

/// [`spawn_listening`], with the rest of stderr drained on a thread so
/// the child never blocks on a full pipe.
pub fn spawn_serving(cmd: &mut Command) -> (Reaped, String) {
    let (child, addr, rest) = spawn_listening(cmd);
    std::thread::spawn(move || rest.for_each(drop));
    (child, addr)
}

/// Builds a small real RBF model in `dir` and publishes it into
/// `registry`, returning the content-hash version `ppm publish`
/// reported.
pub fn build_and_publish(dir: &Path, registry: &Path) -> String {
    let model = dir.join("model.txt");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args([
            "build",
            "--benchmark",
            "ammp",
            "--sample",
            "16",
            "--instructions",
            "8000",
            "--seed",
            "7",
            "--holdout",
            "0",
            "--no-ledger",
            "--quiet",
            "--train-threads",
            "2",
            "--out",
        ])
        .arg(&model)
        .output()
        .expect("ppm build runs");
    assert!(
        out.status.success(),
        "build failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = Command::new(env!("CARGO_BIN_EXE_ppm"))
        .args(["publish", "--model"])
        .arg(&model)
        .arg("--registry")
        .arg(registry)
        .output()
        .expect("ppm publish runs");
    assert!(
        out.status.success(),
        "publish failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .rsplit("as version ")
        .next()
        .expect("publish names the version")
        .trim()
        .to_string()
}
