//! The two primitives every persisted artifact shares: the FNV-1a hash
//! behind model and journal checksums, registry versions and ledger
//! content hashes, and the crash-safe writer that puts each of those
//! files in place.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// [`fnv1a64`] rendered as 16 lowercase hex digits.
pub fn fnv1a64_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// Writes `bytes` to `path` crash-safely: the data goes to the sibling
/// `<file name>.tmp`, is synced, and is renamed over `path`, so a reader
/// or a crash never sees a torn file. Parent directories are created as
/// needed.
///
/// # Errors
///
/// Any I/O failure creating directories, writing, syncing or renaming;
/// [`io::ErrorKind::InvalidInput`] when `path` names no file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file", path.display()),
        )
    })?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv1a64_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn write_atomic_creates_parents_and_replaces() {
        let dir = std::env::temp_dir().join(format!("ppm-tel-atomic-{}", std::process::id()));
        let path = dir.join("nested/out.json");
        write_atomic(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        write_atomic(&path, b"two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two");
        assert!(!dir.join("nested/out.json.tmp").exists());
        assert_eq!(
            write_atomic(Path::new("/"), b"x").unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        fs::remove_dir_all(&dir).ok();
    }
}
