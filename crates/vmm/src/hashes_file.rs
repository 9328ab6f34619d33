//! Out-of-band component hashes (§4.3).
//!
//! Hashing the kernel and initrd in the VMM "could add up to 23 ms of boot
//! time", so SEVeriFast moves it off the critical path: a tool hashes the
//! components ahead of time and the VMM is handed the hash file. Here the
//! tool is `sevf-image`: every staged component carries the SHA-256 taken
//! when its bytes were built, once per image. This module only lays those
//! digests out as the [`HashPage`] the boot pre-encrypts — it is given no
//! component bytes, so the VMM cannot hash on the boot path. The page is
//! covered by the launch measurement and the guest re-hashes what was
//! actually staged against it, so a wrong digest here refuses the boot or
//! fails attestation; it never weakens the trust story.

use sevf_crypto::Digest256;
use sevf_image::kernel::FwCfgDigests;
use sevf_verifier::hashes::{HashPage, KernelHashes};

/// The hash file of a bzImage boot: one digest over the whole image file.
pub fn whole_image(kernel: Digest256, initrd: Digest256) -> HashPage {
    HashPage {
        kernel: KernelHashes::WholeImage(kernel),
        initrd,
    }
}

/// The hash file of the vmlinux boot: the three fw_cfg piece digests (§5).
pub fn fw_cfg(kernel: FwCfgDigests, initrd: Digest256) -> HashPage {
    HashPage {
        kernel: KernelHashes::FwCfg {
            ehdr: kernel.ehdr,
            phdrs: kernel.phdrs,
            segments: kernel.segments,
        },
        initrd,
    }
}
