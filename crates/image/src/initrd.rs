//! The attestation initrd.
//!
//! Per §2.3/§2.6 of the paper, the initrd is plain text, secret-free, and
//! contains only what remote attestation needs: an `/init` script, the
//! `sev-guest` kernel module, and the attestation client with its supporting
//! tools. Its size does not depend on the kernel config. The paper's
//! compressed initrd is 12 MB (§3.2) and barely benefits from compression
//! (mostly binaries), so we build a ≈ 14 MB archive of poorly compressible
//! content — which is exactly why Fig. 5 concludes it should ship
//! uncompressed.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use sevf_codec::Codec;

use crate::content::{generate, ContentProfile};
use crate::cpio::{build, CpioEntry};
use crate::Component;

const MB: u64 = 1024 * 1024;

/// Full-scale initrd payload size (≈ 14 MB uncompressed; LZ4 lands near the
/// paper's 12 MB compressed figure).
pub const FULL_SIZE: u64 = 14 * MB;

/// The `/init` script shipped in every attestation initrd.
pub const INIT_SCRIPT: &str = "#!/bin/sh\n\
    # SEVeriFast attestation initrd\n\
    insmod /lib/modules/sev-guest.ko\n\
    exec /bin/sev-attest --server \"$ATTEST_SERVER\" --wrap-key dh\n";

/// Builds the attestation initrd CPIO with roughly `total_size` bytes of
/// content (cached per size).
///
/// # Example
///
/// ```
/// let initrd = sevf_image::initrd::build_initrd(64 * 1024);
/// let entries = sevf_image::cpio::parse(&initrd)?;
/// assert!(entries.iter().any(|e| e.name == "init"));
/// # Ok::<(), sevf_image::ImageError>(())
/// ```
pub fn build_initrd(total_size: u64) -> Arc<Vec<u8>> {
    Arc::clone(staged_initrd(total_size, Codec::None).bytes())
}

/// The initrd as a boot stages it — [`build_initrd`]'s archive compressed
/// with `codec` — with the digest taken when it was built (cached per size
/// and codec; with [`Codec::None`] the bytes are the archive's own buffer).
pub fn staged_initrd(total_size: u64, codec: Codec) -> Component {
    static CACHE: OnceLock<Mutex<HashMap<(u64, Codec), Component>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (total_size, codec);
    if let Some(staged) = cache.lock().expect("initrd cache").get(&key) {
        return staged.clone();
    }
    let staged = Component::new(match codec {
        Codec::None => archive(total_size),
        codec => codec.compress(&build_initrd(total_size)),
    });
    cache
        .lock()
        .expect("initrd cache")
        .entry(key)
        .or_insert(staged)
        .clone()
}

fn archive(total_size: u64) -> Vec<u8> {
    // Fixed small files; the attestation client and its shared libraries
    // absorb the rest of the size budget.
    let fixed: Vec<CpioEntry> = vec![
        CpioEntry::directory("bin"),
        CpioEntry::directory("lib"),
        CpioEntry::directory("lib/modules"),
        CpioEntry::directory("etc"),
        CpioEntry::executable("init", INIT_SCRIPT.as_bytes().to_vec()),
        CpioEntry::file(
            "etc/attest.conf",
            b"server=guest-owner.example\nport=8443\nretries=3\n".to_vec(),
        ),
    ];
    let fixed_bytes: u64 = fixed.iter().map(|e| e.data.len() as u64 + 128).sum();
    let budget = total_size.saturating_sub(fixed_bytes);
    // Split: module 4%, attestation client 36%, libcrypto 40%, busybox 20%.
    let module = (budget * 4 / 100) as usize;
    let client = (budget * 36 / 100) as usize;
    let libcrypto = (budget * 40 / 100) as usize;
    let busybox = budget as usize - module - client - libcrypto;

    let profile = ContentProfile::initrd();
    let mut entries = fixed;
    entries.push(CpioEntry::file(
        "lib/modules/sev-guest.ko",
        generate(profile, module, b"sev-guest.ko"),
    ));
    entries.push(CpioEntry::executable(
        "bin/sev-attest",
        generate(profile, client, b"sev-attest"),
    ));
    entries.push(CpioEntry::file(
        "lib/libcrypto.so.3",
        generate(profile, libcrypto, b"libcrypto"),
    ));
    entries.push(CpioEntry::executable(
        "bin/busybox",
        generate(profile, busybox, b"busybox"),
    ));
    build(&entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpio::parse;
    use sevf_codec::Codec;

    #[test]
    fn contains_attestation_pieces() {
        let archive = build_initrd(256 * 1024);
        let entries = parse(&archive).unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"init"));
        assert!(names.contains(&"bin/sev-attest"));
        assert!(names.contains(&"lib/modules/sev-guest.ko"));
        let init = entries.iter().find(|e| e.name == "init").unwrap();
        assert_eq!(init.mode, 0o100755);
        assert!(std::str::from_utf8(init.data)
            .unwrap()
            .contains("sev-attest"));
    }

    #[test]
    fn size_close_to_request() {
        let archive = build_initrd(512 * 1024);
        let len = archive.len() as u64;
        assert!(
            (450 * 1024..600 * 1024).contains(&len),
            "archive size {len}"
        );
    }

    #[test]
    fn compresses_poorly() {
        // §3.3: the initrd should barely benefit from compression.
        let archive = build_initrd(512 * 1024);
        let ratio = archive.len() as f64 / Codec::Lz4.compress(&archive).len() as f64;
        assert!(ratio < 1.6, "initrd compression ratio {ratio:.2}");
        assert!(ratio > 1.0);
    }

    #[test]
    fn cached_per_size() {
        let a = build_initrd(128 * 1024);
        let b = build_initrd(128 * 1024);
        assert!(Arc::ptr_eq(&a, &b));
        let c = build_initrd(129 * 1024);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn no_secrets_in_initrd() {
        // "Secret-free construction" (§2.6): nothing resembling key material
        // may ship in the plain-text initrd. Our marker for generated key
        // material is the "sevf-dh-priv" domain tag — it must not appear.
        let archive = build_initrd(256 * 1024);
        let needle = b"sevf-dh-priv";
        assert!(!archive.windows(needle.len()).any(|w| w == needle));
    }
}
