//! CPIO "newc" (SVR4) archives — the initrd format Linux consumes.
//!
//! The guest kernel unpacks the initrd by walking these records; the paper's
//! Fig. 5 point about leaving the initrd uncompressed rests on the fact that
//! this unpack pass happens either way (§3.3).

use crate::ImageError;

const MAGIC: &[u8; 6] = b"070701";
const TRAILER: &str = "TRAILER!!!";

/// One file in a CPIO archive, its contents owned or (from [`parse`])
/// borrowed from the archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpioEntry<D = Vec<u8>> {
    /// Path (no leading slash, as in real initrds).
    pub name: String,
    /// File mode bits (e.g. `0o100755` for an executable).
    pub mode: u32,
    /// File contents.
    pub data: D,
}

impl CpioEntry {
    /// Creates a regular file entry with mode 0644.
    pub fn file(name: impl Into<String>, data: Vec<u8>) -> Self {
        CpioEntry {
            name: name.into(),
            mode: 0o100644,
            data,
        }
    }

    /// Creates an executable entry with mode 0755.
    pub fn executable(name: impl Into<String>, data: Vec<u8>) -> Self {
        CpioEntry {
            name: name.into(),
            mode: 0o100755,
            data,
        }
    }

    /// Creates a directory entry.
    pub fn directory(name: impl Into<String>) -> Self {
        CpioEntry {
            name: name.into(),
            mode: 0o040755,
            data: Vec::new(),
        }
    }
}

fn pad4(len: usize) -> usize {
    (4 - len % 4) % 4
}

fn push_record(out: &mut Vec<u8>, ino: u32, name: &str, mode: u32, data: &[u8]) {
    out.extend_from_slice(MAGIC);
    // The thirteen header fields, each eight hex digits: c_ino, c_mode,
    // c_uid, c_gid, c_nlink, c_mtime, c_filesize, c_devmajor, c_devminor,
    // c_rdevmajor, c_rdevminor, c_namesize (counting the NUL), c_check.
    let (filesize, namesize) = (data.len() as u32, name.len() as u32 + 1);
    for field in [ino, mode, 0, 0, 1, 0, filesize, 0, 0, 0, 0, namesize, 0] {
        out.extend_from_slice(format!("{field:08x}").as_bytes());
    }
    out.extend_from_slice(name.as_bytes());
    out.push(0);
    // Name is padded so data starts 4-aligned (header is 110 bytes).
    let so_far = 110 + name.len() + 1;
    out.extend(std::iter::repeat_n(0u8, pad4(so_far)));
    out.extend_from_slice(data);
    out.extend(std::iter::repeat_n(0u8, pad4(data.len())));
}

/// Serializes entries into a newc archive (with trailer).
///
/// # Example
///
/// ```
/// use sevf_image::cpio::{build, parse, CpioEntry};
///
/// let archive = build(&[CpioEntry::executable("init", b"#!/bin/sh".to_vec())]);
/// let entries = parse(&archive)?;
/// assert_eq!(entries[0].name, "init");
/// # Ok::<(), sevf_image::ImageError>(())
/// ```
pub fn build<D: AsRef<[u8]>>(entries: &[CpioEntry<D>]) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, entry) in entries.iter().enumerate() {
        let data = entry.data.as_ref();
        push_record(&mut out, i as u32 + 1, &entry.name, entry.mode, data);
    }
    push_record(&mut out, 0, TRAILER, 0, &[]);
    out
}

/// One header field: exactly eight ASCII hex digits. (`from_str_radix`
/// would also take a leading `+`.)
fn parse_hex8(bytes: &[u8]) -> Result<u32, ImageError> {
    let hex = |acc: u32, &b: &u8| Some(acc << 4 | (b as char).to_digit(16)?);
    let value = bytes.iter().try_fold(0, hex);
    value.ok_or(ImageError::BadCpio("bad hex field"))
}

/// Parses a newc archive into its entries (trailer excluded), each
/// borrowing its contents from `archive`.
///
/// # Errors
///
/// Returns [`ImageError::BadCpio`] for bad magic, a header field that is not
/// eight hex digits, a name without its NUL terminator, truncated records,
/// or a missing trailer.
pub fn parse(archive: &[u8]) -> Result<Vec<CpioEntry<&[u8]>>, ImageError> {
    let mut entries = Vec::new();
    let mut pos = 0usize;
    loop {
        if pos + 110 > archive.len() {
            return Err(ImageError::BadCpio("truncated before trailer"));
        }
        if &archive[pos..pos + 6] != MAGIC {
            return Err(ImageError::BadCpio("bad record magic"));
        }
        let field = |idx: usize| parse_hex8(&archive[pos + 6 + idx * 8..pos + 6 + (idx + 1) * 8]);
        let mode = field(1)?;
        let filesize = field(6)? as usize;
        let namesize = field(11)? as usize;
        let name_start = pos + 110;
        // `c_namesize` counts the name's NUL terminator, which must be there.
        let (terminator, name_bytes) = archive
            .get(name_start..name_start + namesize)
            .and_then(<[u8]>::split_last)
            .ok_or(ImageError::BadCpio("empty or out-of-bounds name"))?;
        if *terminator != 0 {
            return Err(ImageError::BadCpio("name not NUL-terminated"));
        }
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| ImageError::BadCpio("non-UTF-8 name"))?
            .to_string();
        let data_start = name_start + namesize + pad4(110 + namesize);
        if name == TRAILER {
            return Ok(entries);
        }
        let data = archive
            .get(data_start..data_start + filesize)
            .ok_or(ImageError::BadCpio("data out of bounds"))?;
        entries.push(CpioEntry { name, mode, data });
        pos = data_start + filesize + pad4(filesize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let entries = vec![
            CpioEntry::directory("bin"),
            CpioEntry::executable("init", b"#!/bin/sh\nexec /bin/attest\n".to_vec()),
            CpioEntry::file("etc/config", vec![1, 2, 3, 4, 5]),
            CpioEntry::file("odd-size", vec![9; 7]),
        ];
        let archive = build(&entries);
        let parsed = parse(&archive).unwrap();
        assert_eq!(parsed.len(), entries.len());
        for (got, want) in parsed.iter().zip(&entries) {
            assert_eq!(
                (&got.name, got.mode, got.data),
                (&want.name, want.mode, &want.data[..])
            );
        }
        assert_eq!(build(&parsed), archive);
    }

    #[test]
    fn empty_archive_has_only_trailer() {
        let archive = build::<Vec<u8>>(&[]);
        assert_eq!(parse(&archive).unwrap(), vec![]);
    }

    #[test]
    fn alignment_is_4_bytes() {
        let archive = build(&[CpioEntry::file("a", vec![1])]);
        assert_eq!(archive.len() % 4, 0);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut archive = build(&[CpioEntry::file("a", vec![1])]);
        archive[0] = b'9';
        assert!(parse(&archive).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let archive = build(&[CpioEntry::file("a", vec![1, 2, 3])]);
        for cut in [10, 50, archive.len() - 4] {
            assert!(parse(&archive[..cut]).is_err(), "cut {cut}");
        }
    }

    /// Byte offset of header field `idx` in the first record.
    fn field_at(idx: usize) -> usize {
        6 + idx * 8
    }

    #[test]
    fn signed_hex_field_rejected() {
        let mut archive = build(&[CpioEntry::file("a", vec![1, 2, 3])]);
        let filesize = field_at(6);
        assert_eq!(&archive[filesize..filesize + 8], b"00000003");
        archive[filesize] = b'+';
        assert_eq!(
            parse(&archive),
            Err(ImageError::BadCpio("bad hex field")),
            "`+0000003` is not eight hex digits"
        );
    }

    #[test]
    fn name_without_nul_terminator_rejected() {
        let mut archive = build(&[CpioEntry::file("ab", vec![1, 2, 3])]);
        // c_namesize is 3 ("ab" + NUL); the NUL sits at 110 + 3 - 1.
        assert_eq!(&archive[field_at(11)..field_at(11) + 8], b"00000003");
        assert_eq!(archive[112], 0);
        archive[112] = b'c';
        assert_eq!(
            parse(&archive),
            Err(ImageError::BadCpio("name not NUL-terminated"))
        );
    }

    #[test]
    fn large_binary_entries() {
        let blob = vec![0xabu8; 100_000];
        let entries = vec![CpioEntry::executable("bin/attest", blob.clone())];
        let archive = build(&entries);
        let parsed = parse(&archive).unwrap();
        assert_eq!(parsed[0].data, blob);
    }
}
