//! Attestation storm: the fleet-scale attestation control plane under
//! load, a TCB rollout, and a key-compromise revocation drill.
//!
//! ```text
//! cargo run --release --example attestation_storm            # paper-scale sweep
//! cargo run --release --example attestation_storm -- --quick
//! cargo run --release --example attestation_storm -- --quick --json
//! ```
//!
//! Three arms over one measured catalog. **Load**: the same cluster and
//! request stream under naive per-launch verification (full KDS
//! cert-chain fetch + context setup + signature check every time),
//! cached verification (VCEK chains cached per chip id + TCB version),
//! and cached + batched verification (concurrent launches share one
//! setup per batch window). The verifier is one shared service on the
//! cluster clock: naive's ceiling sits far below the serving capacity,
//! so past it the verify queue stretches every launch and p99 collapses.
//! **Storm**: a staggered TCB/firmware rollout re-measures every host
//! mid-stream — the cache key includes the TCB version, so the whole
//! fleet re-fetches and re-attests at once. **Drill**: one host's chip
//! key is distrusted mid-stream; its templates die with the key (§6.2),
//! and its queued and in-flight guests fail over, re-launch, and
//! re-attest on the surviving hosts with conservation holding.
//!
//! `--json` prints the full result as deterministic JSON: two runs with
//! the same flags emit byte-identical output (the CI replay gate diffs
//! one against `data/golden/`).

use sevf_attplane::AttPlaneConfig as Verifier;
use sevf_bench::experiment::run_example;

fn main() {
    run_example("attestation_storm", intro, TAKEAWAY);
}

fn intro(_quick: bool) {
    println!("verifying a cluster's launch stream through one attestation plane\n");
    println!(
        "verifier model (chip seed {:#x}): cert fetch {:.1} ms, batch setup {:.1} ms,",
        Verifier::SEED,
        Verifier::CERT_FETCH.as_millis_f64(),
        Verifier::BATCH_SETUP.as_millis_f64()
    );
    println!(
        "signature check {:.1} ms, batch window {:.1} ms, cache TTL {:.0} s — so the",
        Verifier::SIG_CHECK.as_millis_f64(),
        Verifier::BATCH_WINDOW.as_millis_f64(),
        Verifier::CACHE_TTL.as_millis_f64() / 1000.0
    );
    let naive = Verifier::CERT_FETCH + Verifier::BATCH_SETUP + Verifier::SIG_CHECK;
    println!(
        "naive verifier ceiling is ≈{:.0} req/s cluster-wide.",
        1000.0 / naive.as_millis_f64()
    );
}

const TAKEAWAY: &str = "\
takeaway: per-launch verification is a second shared bottleneck next
to the PSP — naive checks re-pay the KDS round trip every launch and
queue without bound past their ceiling, while the VCEK cache removes
the fetch from the steady state and batching amortizes the setup, so
the cached+batched plane tracks the offered load. The TCB rollout
re-keys every cache at once and the plane re-fetches exactly once per
host; when a chip key is revoked its templates die with it and the
survivors re-attest every re-launched guest, conservation intact.";
