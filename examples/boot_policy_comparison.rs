//! Boot-policy comparison: where each policy spends its boot (Fig. 11).
//!
//! ```text
//! cargo run --release --example boot_policy_comparison
//! cargo run --release --example boot_policy_comparison -- --quick
//! cargo run --release --example boot_policy_comparison -- --quick --json
//! ```
//!
//! Boots every kernel config under stock Firecracker, SEVeriFast with a
//! bzImage and SEVeriFast with an uncompressed vmlinux, and splits each
//! boot (VMM exec → guest init, §6.1; attestation excluded) into VMM,
//! boot verification, bootstrap loader and Linux. This is
//! `figures --fig 11`; the QEMU/OVMF baseline an order of magnitude above
//! all three is `--fig 10` (same split) and `--fig 9` (end to end).

use sevf_bench::experiment::run_example;

fn main() {
    run_example("boot_policy_comparison", intro, TAKEAWAY);
}

fn intro(quick: bool) {
    println!("three boot policies × three kernel configs, one jitter-free boot each");
    if quick {
        println!("(--quick: 16×-scaled images; the relative results hold)");
    }
}

const TAKEAWAY: &str = "\
takeaway: stock Firecracker is fastest; SEVeriFast adds a bounded SEV
tax (~4× on the AWS kernel), most of it Linux itself booting slower
under SNP, and the bzImage build edges out the vmlinux build because
hashing 7 MB and decompressing beats hashing 43 MB.";
