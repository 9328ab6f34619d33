//! The one driver of the verifier's steps: host machinery, not root of
//! trust.
//!
//! [`run_then`] calls [`Verifier`]'s steps in order and overlaps one of
//! them in host wall time: the initrd's SHA-256 starts on a second thread
//! right after [`Verifier::copy_initrd`], before the kernel is copied, and
//! runs beside the kernel's checks and the continuation. The thread computes
//! only a pure digest; the priced steps stay sequential, as in the paper.
//! Its docs hold the verdict order.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};

use sevf_mem::GuestMemory;
use sevf_sim::CostModel;

use crate::layout::GuestLayout;
use crate::loader;
use crate::verify::{VerifiedBoot, Verifier, VerifierConfig};
use crate::VerifierError;

/// Runs the boot verifier against guest memory prepared by the VMM: the
/// continuation-less [`run_then`].
///
/// Preconditions (the VMM's half of the contract):
/// * the private range (`layout.private_ranges()`) is RMP-assigned;
/// * the hash page, boot structures, and this verifier are pre-encrypted;
/// * the kernel image and initrd are staged in the shared window.
///
/// # Errors
///
/// * [`VerifierError::HashMismatch`] — tampered component; boot refused.
/// * [`VerifierError::Memory`] — RMP/#VC faults (e.g. the host remapped a
///   page mid-boot).
/// * [`VerifierError::BadHashPage`] / [`VerifierError::Image`] — corrupt
///   root-of-trust contents.
///
/// In [`run_then`]'s verdict order.
pub fn run(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
    config: VerifierConfig,
) -> Result<VerifiedBoot, VerifierError> {
    run_then(mem, layout, cost, config, |_, _| Ok::<_, VerifierError>(()))
        .map(|(verified, ())| verified)
}

/// [`run`], which also calls `then(mem, kernel_entry)` — for a bzImage, its
/// bootstrap loader — while the initrd's digest is still being taken.
///
/// # Errors
///
/// [`run`]'s. **Verdict order:** when several measured-boot checks fail, the
/// first in this order is reported, although the initrd is hashed while the
/// kernel is checked: a fault copying the kernel, a malformed kernel image,
/// a hash page of the wrong mode, the kernel hash, a fault copying the
/// initrd, the initrd hash. `then` runs only once the kernel has passed and
/// the initrd is in private memory, and its own error comes after all of
/// them: a refused initrd discards whatever `then` returned. A refused
/// kernel stops the initrd digest between pages instead of waiting for the
/// whole of it.
pub fn run_then<T, E: From<VerifierError>>(
    mem: &mut GuestMemory,
    layout: &GuestLayout,
    cost: &CostModel,
    config: VerifierConfig,
    then: impl FnOnce(&mut GuestMemory, u64) -> Result<T, E>,
) -> Result<(VerifiedBoot, T), E> {
    let verifier = Verifier::enter(mem, layout, cost, config)?;
    drive(mem, verifier, &AtomicBool::new(false), || true, then)
}

/// [`run_then`] from the entered `verifier`, with the flag that stops the
/// initrd digest in `stop`, and `hashing` asked before each page the digest
/// takes once the flag has said go on.
fn drive<T, E: From<VerifierError>>(
    mem: &mut GuestMemory,
    mut verifier: Verifier,
    stop: &AtomicBool,
    hashing: impl Fn() -> bool + Sync,
    then: impl FnOnce(&mut GuestMemory, u64) -> Result<T, E>,
) -> Result<(VerifiedBoot, T), E> {
    // A stopped digest covers only the pages before the stop, and only a
    // refused kernel, whose boot never reads the digest, stops it.
    let go_on = |_: &&[u8]| !stop.load(SeqCst) && hashing();
    std::thread::scope(|s| {
        // A fault copying the initrd is held until the kernel has passed.
        let held_initrd = verifier
            .copy_initrd(mem)
            .map(|private| s.spawn(move || loader::digest(private.chunks().take_while(go_on))));
        let entry = verifier
            .load_kernel(mem)
            .inspect_err(|_| stop.store(true, SeqCst))?;
        let initrd = held_initrd?;
        let outcome = then(mem, entry);
        let digest = initrd.join().unwrap_or_else(|panic| resume_unwind(panic));
        Ok((verifier.check_initrd(digest)?, outcome?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    use sevf_codec::Codec;
    use sevf_image::kernel::KernelConfig;

    use crate::hashes::KernelHashes;
    use crate::verify::tests::prepare;

    #[test]
    fn a_refused_kernel_stops_the_initrd_digest_within_a_page() {
        // A 12 MiB initrd takes far longer to hash than the tiny kernel
        // takes to copy, hash and refuse; the refusal stops the digest
        // between pages instead of waiting for all 3,072.
        let bz = KernelConfig::test_tiny().build().bzimage(Codec::Lz4);
        let mut tampered = bz.to_vec();
        let mid = tampered.len() / 2;
        tampered[mid] ^= 0x40;
        let initrd: Vec<u8> = (0..12 << 20).map(|i: u32| ((i * 31) >> 7) as u8).collect();
        let hashes = KernelHashes::WholeImage(sevf_crypto::sha256(&bz));
        let (mut mem, layout) = prepare(&tampered, &initrd, hashes);

        // The pages the digest takes, and those of them it takes once the
        // stop flag is already set.
        let (stop, pages, after_stop) =
            (AtomicBool::new(false), AtomicU64::new(0), AtomicU64::new(0));
        let cost = CostModel::calibrated();
        let config = VerifierConfig::severifast();
        let count = || {
            pages.fetch_add(1, SeqCst);
            after_stop.fetch_add(u64::from(stop.load(SeqCst)), SeqCst);
            true
        };
        let verifier = Verifier::enter(&mut mem, &layout, &cost, config).unwrap();
        let outcome = drive(&mut mem, verifier, &stop, count, |_, _| {
            Ok::<_, VerifierError>(())
        });
        assert_eq!(
            outcome.unwrap_err(),
            VerifierError::HashMismatch {
                component: "kernel"
            }
        );
        assert!(stop.load(SeqCst));
        let (hashed, late) = (pages.load(SeqCst), after_stop.load(SeqCst));
        assert!(
            late <= 1,
            "{hashed} pages hashed, {late} of them after the stop"
        );
    }
}
