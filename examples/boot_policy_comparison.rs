//! Boot-policy comparison: every policy × every kernel config.
//!
//! ```text
//! cargo run --release --example boot_policy_comparison
//! cargo run --release --example boot_policy_comparison -- --quick
//! ```
//!
//! Reproduces the relationships behind Figs. 9–11 in one table: stock
//! Firecracker is fastest, SEVeriFast adds a bounded SEV tax (~4× on the
//! AWS kernel), the bzImage build edges out the uncompressed-vmlinux build,
//! and the QEMU/OVMF baseline is an order of magnitude slower than all of
//! them.

use severifast::experiments::ExperimentScale;
use severifast::prelude::*;
use sevf_bench::experiment::parse_cli;
use sevf_bench::pick;

fn main() -> Result<(), VmmError> {
    let cli = parse_cli("boot_policy_comparison", &[]);
    let scale = pick(cli.quick, ExperimentScale::quick, ExperimentScale::full);
    let mut machine = Machine::new(5);

    println!(
        "{:<20} {:<12} {:>12} {:>12} {:>14}",
        "policy", "kernel", "boot(ms)", "e2e(ms)", "vs stock"
    );
    for kernel in scale.kernels() {
        let mut stock_ms = None;
        for policy in [
            BootPolicy::StockFirecracker,
            BootPolicy::Severifast,
            BootPolicy::SeverifastVmlinux,
            BootPolicy::QemuOvmf,
        ] {
            let report = scale.boot(&mut machine, policy, kernel.clone())?;
            let boot = report.boot_time().as_millis_f64();
            let total = report.total_time().as_millis_f64();
            let vs = match stock_ms {
                None => {
                    stock_ms = Some(boot);
                    "1.0x".to_string()
                }
                Some(stock) => format!("{:.1}x", boot / stock),
            };
            println!(
                "{:<20} {:<12} {:>12.1} {:>12.1} {:>14}",
                policy.name(),
                kernel.name,
                boot,
                total,
                vs
            );
        }
        println!();
    }

    println!("notes:");
    println!("  - boot(ms) is VMM exec → guest init (§6.1); e2e adds attestation");
    println!("  - the lupine config has no networking, so it never attests");
    println!("  - the quick flag (header comment) runs 16x-scaled images (fast debug runs)");
    Ok(())
}
