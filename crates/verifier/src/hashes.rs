//! The pre-encrypted hash page.
//!
//! Measured direct boot pre-encrypts *hashes* of the boot components instead
//! of the components themselves (§2.5/§2.6). SEVeriFast additionally takes
//! the hashing itself off the critical path (§4.3): the VMM is handed a
//! pre-computed hash file and simply pre-encrypts this page, which the
//! launch measurement then covers.

use sevf_crypto::Digest256;
use sevf_image::kernel::FwCfgDigests;

use crate::VerifierError;

/// Magic prefix of a serialized hash page.
pub const HASH_PAGE_MAGIC: &[u8; 4] = b"SVHP";

/// How the kernel image is hashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelHashes {
    /// One hash over the whole image file (bzImage boot).
    WholeImage(Digest256),
    /// Three hashes for the fw_cfg vmlinux protocol of §5: ELF header,
    /// program headers, and concatenated loadable segments.
    FwCfg(FwCfgDigests),
}

/// The contents of the pre-encrypted hash page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPage {
    /// Kernel hash(es).
    pub kernel: KernelHashes,
    /// Hash of the initrd archive.
    pub initrd: Digest256,
}

impl HashPage {
    /// Serializes to exactly one 4 KiB page (zero padded).
    pub fn to_page(&self) -> [u8; 4096] {
        let mut page = [0u8; 4096];
        page[..4].copy_from_slice(HASH_PAGE_MAGIC);
        match &self.kernel {
            KernelHashes::WholeImage(k) => {
                page[4] = 1;
                page[8..40].copy_from_slice(k);
            }
            KernelHashes::FwCfg(d) => {
                page[4] = 2;
                page[8..40].copy_from_slice(&d.ehdr);
                page[40..72].copy_from_slice(&d.phdrs);
                page[72..104].copy_from_slice(&d.segments);
            }
        }
        page[104..136].copy_from_slice(&self.initrd);
        page
    }

    /// Parses a hash page read back from pre-encrypted guest memory.
    ///
    /// # Errors
    ///
    /// Returns [`VerifierError::BadHashPage`] on bad magic or mode.
    pub fn from_page(page: &[u8]) -> Result<Self, VerifierError> {
        if page.len() < 136 {
            return Err(VerifierError::BadHashPage("too short"));
        }
        if &page[..4] != HASH_PAGE_MAGIC {
            return Err(VerifierError::BadHashPage("bad magic"));
        }
        let take32 = |at: usize| -> Digest256 { page[at..at + 32].try_into().expect("32") };
        let kernel = match page[4] {
            1 => KernelHashes::WholeImage(take32(8)),
            2 => KernelHashes::FwCfg(FwCfgDigests {
                ehdr: take32(8),
                phdrs: take32(40),
                segments: take32(72),
            }),
            _ => return Err(VerifierError::BadHashPage("unknown kernel hash mode")),
        };
        Ok(HashPage {
            kernel,
            initrd: take32(104),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use sevf_crypto::hex::to_hex;

    fn whole_image() -> HashPage {
        HashPage {
            kernel: KernelHashes::WholeImage([7u8; 32]),
            initrd: [9u8; 32],
        }
    }

    fn fw_cfg() -> HashPage {
        HashPage {
            kernel: KernelHashes::FwCfg(FwCfgDigests {
                ehdr: [1u8; 32],
                phdrs: [2u8; 32],
                segments: [3u8; 32],
            }),
            initrd: [4u8; 32],
        }
    }

    #[test]
    fn whole_image_roundtrip() {
        let hp = whole_image();
        assert_eq!(HashPage::from_page(&hp.to_page()).unwrap(), hp);
    }

    #[test]
    fn fw_cfg_roundtrip() {
        let hp = fw_cfg();
        assert_eq!(HashPage::from_page(&hp.to_page()).unwrap(), hp);
    }

    #[test]
    fn page_bytes_match_known_answers() {
        // The launch measurement covers these bytes: the page layout of
        // both modes is pinned, not just round-tripped.
        assert_eq!(
            to_hex(&sevf_crypto::sha256(&whole_image().to_page())),
            "27e06a5a160e7e40595892fc75f2371332df4e822322c0fe2b4c037d9a8bbf53"
        );
        assert_eq!(
            to_hex(&sevf_crypto::sha256(&fw_cfg().to_page())),
            "a648418fc32c4bd60666b7df7856682f9d603165ec147d8e3c3cd4472bd6cc12"
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(HashPage::from_page(&[0u8; 4096]).is_err());
        assert!(HashPage::from_page(b"SVHP").is_err());
        let mut page = HashPage {
            kernel: KernelHashes::WholeImage([0u8; 32]),
            initrd: [0u8; 32],
        }
        .to_page();
        page[4] = 9;
        assert!(HashPage::from_page(&page).is_err());
    }
}
