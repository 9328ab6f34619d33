//! The SEV-SNP launch digest.
//!
//! Each `LAUNCH_UPDATE_DATA` folds one 4 KiB page into a running SHA-384
//! chain together with its guest-physical address and page type, mirroring
//! the shape of the SNP ABI's launch-digest construction:
//!
//! ```text
//! digest' = SHA-384(digest || page_contents || gpa_le64 || page_type)
//! ```
//!
//! The same chain is computed out-of-band by the guest owner's
//! expected-measurement tool (`sevf-attest`), which is what lets remote
//! attestation detect a host that pre-encrypted different bytes (§2.6,
//! attack 2) or a tampered boot verifier (attack 3).
//!
//! # The fast paths
//!
//! Measurement dominates real CPU time in the reproduction (it is the one
//! functional operation proportional to guest-image bytes), so this module
//! also carries the raw-speed machinery:
//!
//! * [`IncrementalChain`] — caches the chain's prefix digests so a §6.2
//!   template hit whose image differs in a few pages re-hashes only from the
//!   first dirtied page onward. Bit-exact with [`MeasurementChain`].
//! * [`PagedMeasurement`] + [`PageDigestCache`] — a two-level digest
//!   (per-page digests folded by a cheap 96-byte chain) whose page digests
//!   are content-addressed and therefore shared across kernel configs that
//!   place the same bytes at the same address. Page-digest misses are hashed
//!   through the 4-lane multi-buffer SHA-384 ([`sevf_crypto::sha384_batch`]).

use std::collections::HashMap;

use sevf_crypto::{sha384_batch, Sha384};

/// Page types distinguished by the launch digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageType {
    /// Normal measured data page.
    Normal,
    /// An encrypted vCPU state save area.
    Vmsa,
}

impl PageType {
    fn tag(self) -> u8 {
        match self {
            PageType::Normal => 0x01,
            PageType::Vmsa => 0x02,
        }
    }
}

/// An incrementally built launch measurement.
///
/// # Example
///
/// ```
/// use sevf_psp::MeasurementChain;
///
/// let mut chain = MeasurementChain::new();
/// chain.add_page(0x1000, &[0u8; 4096]);
/// let digest = chain.finalize();
/// assert_eq!(digest.len(), 48);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasurementChain {
    digest: [u8; 48],
    pages: u64,
}

impl Default for MeasurementChain {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasurementChain {
    /// Starts an empty chain (all-zero digest, as before any update).
    pub fn new() -> Self {
        MeasurementChain {
            digest: [0u8; 48],
            pages: 0,
        }
    }

    /// Folds a measured data page into the chain.
    ///
    /// # Panics
    ///
    /// Panics if `contents` is not exactly 4096 bytes.
    pub fn add_page(&mut self, gpa: u64, contents: &[u8]) {
        self.add_typed(gpa, contents, PageType::Normal);
    }

    /// Folds a VMSA page into the chain.
    pub fn add_vmsa(&mut self, vcpu_index: u64, vmsa: &[u8; 4096]) {
        // VMSAs are keyed by vCPU index rather than GPA.
        self.add_typed(vcpu_index, vmsa, PageType::Vmsa);
    }

    fn add_typed(&mut self, gpa: u64, contents: &[u8], page_type: PageType) {
        assert_eq!(
            contents.len(),
            4096,
            "launch digest operates on whole 4 KiB pages"
        );
        self.digest = fold_page(&self.digest, gpa, contents, page_type);
        self.pages += 1;
    }

    /// Number of pages folded in so far.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// The current digest value.
    pub fn finalize(&self) -> [u8; 48] {
        self.digest
    }
}

/// Convenience: measures a byte region as consecutive pages starting at
/// `base_gpa` (zero-padding the final partial page), exactly as
/// `LAUNCH_UPDATE_DATA` over that region would.
pub fn measure_region(chain: &mut MeasurementChain, base_gpa: u64, data: &[u8]) {
    for (i, page) in data.chunks(4096).enumerate() {
        if page.len() == 4096 {
            chain.add_page(base_gpa + i as u64 * 4096, page);
        } else {
            let mut padded = [0u8; 4096];
            padded[..page.len()].copy_from_slice(page);
            chain.add_page(base_gpa + i as u64 * 4096, &padded);
        }
    }
}

/// One chain step: `SHA-384(digest || page || gpa_le64 || type_tag)`.
fn fold_page(digest: &[u8; 48], gpa: u64, contents: &[u8], page_type: PageType) -> [u8; 48] {
    let mut hasher = Sha384::new();
    hasher.update(digest);
    hasher.update(contents);
    hasher.update(&gpa.to_le_bytes());
    hasher.update(&[page_type.tag()]);
    hasher.finalize()
}

/// A borrowed 4 KiB page scheduled for measurement.
#[derive(Debug, Clone, Copy)]
pub struct PageRef<'a> {
    /// Guest-physical address (or vCPU index for VMSA pages).
    pub gpa: u64,
    /// How the launch digest types the page.
    pub page_type: PageType,
    /// The page contents.
    pub data: &'a [u8; 4096],
}

/// Fast 128-bit non-cryptographic fingerprint of `(gpa, type, contents)`.
///
/// Used only to *detect change* for digest-cache reuse inside the
/// simulation — the measurement itself is always full SHA-384 over whatever
/// the fingerprint check decides must be re-hashed, so a collision could at
/// worst reuse a stale digest in a perf cache, never weaken the modeled
/// attestation. (wyhash-style multiply-mix, two independent lanes.)
fn fingerprint(gpa: u64, page_type: PageType, data: &[u8; 4096]) -> (u64, u64) {
    const M0: u64 = 0xa076_1d64_78bd_642f;
    const M1: u64 = 0xe703_7ed1_a0b4_28db;
    let mut h0 = gpa ^ 0x2d35_8dcc_aa6c_78a5;
    let mut h1 = (page_type.tag() as u64).wrapping_mul(M1) ^ 0x8bb8_4b93_962e_acc9;
    for chunk in data.chunks_exact(16) {
        let a = u64::from_le_bytes(chunk[..8].try_into().expect("8 bytes"));
        let b = u64::from_le_bytes(chunk[8..].try_into().expect("8 bytes"));
        h0 = (h0 ^ a).wrapping_mul(M0).rotate_left(29);
        h1 = (h1 ^ b).wrapping_mul(M1).rotate_left(31);
        h0 ^= h1.rotate_left(7);
    }
    (
        h0.wrapping_mul(M1) ^ (h0 >> 32),
        h1.wrapping_mul(M0) ^ (h1 >> 29),
    )
}

/// A strict-chain measurement with prefix-digest caching.
///
/// Produces digests **bit-identical** to running [`MeasurementChain`] over
/// the same page sequence, but remembers the digest after every prefix: when
/// the same instance measures a page list again (the §6.2 template-hit path,
/// where a config re-launch dirties only the boot-param and CPUID pages),
/// only the suffix from the first changed page is re-hashed.
///
/// Because the chain is strict — page *i*'s digest folds in everything
/// before it — a dirty page invalidates its whole suffix; that is inherent
/// to the SNP launch-digest construction, not a cache limitation. For
/// cross-config content sharing see [`paged_measure`].
///
/// # Example
///
/// ```
/// use sevf_psp::{IncrementalChain, MeasurementChain, PageRef, PageType};
///
/// let pages = [[1u8; 4096], [2u8; 4096]];
/// let refs: Vec<PageRef> = pages
///     .iter()
///     .enumerate()
///     .map(|(i, p)| PageRef { gpa: i as u64 * 4096, page_type: PageType::Normal, data: p })
///     .collect();
/// let mut inc = IncrementalChain::new();
/// let d = inc.measure(&refs);
///
/// let mut full = MeasurementChain::new();
/// for r in &refs {
///     full.add_page(r.gpa, r.data);
/// }
/// assert_eq!(d, full.finalize());
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalChain {
    /// `prefix[i]` = chain digest after the first `i` pages.
    prefix: Vec<[u8; 48]>,
    /// Fingerprint of page `i` from the last measurement.
    fps: Vec<(u64, u64)>,
}

impl Default for IncrementalChain {
    fn default() -> Self {
        Self::new()
    }
}

impl IncrementalChain {
    /// A chain with no cached prefixes.
    pub fn new() -> Self {
        IncrementalChain {
            prefix: vec![[0u8; 48]],
            fps: Vec::new(),
        }
    }

    /// Measures `pages`, reusing the longest cached clean prefix. Returns
    /// the same digest a fresh [`MeasurementChain`] over `pages` would.
    pub fn measure(&mut self, pages: &[PageRef<'_>]) -> [u8; 48] {
        let mut keep = 0;
        while keep < pages.len() && keep < self.fps.len() {
            let p = &pages[keep];
            if self.fps[keep] != fingerprint(p.gpa, p.page_type, p.data) {
                break;
            }
            keep += 1;
        }
        self.fps.truncate(keep);
        self.prefix.truncate(keep + 1);
        let mut digest = self.prefix[keep];
        for p in &pages[keep..] {
            digest = fold_page(&digest, p.gpa, p.data, p.page_type);
            self.fps.push(fingerprint(p.gpa, p.page_type, p.data));
            self.prefix.push(digest);
        }
        digest
    }
}

/// Content-addressed cache of per-page digests, shared across kernel
/// configs: two configurations that place the same bytes at the same
/// guest-physical address share one entry.
#[derive(Debug, Clone, Default)]
pub struct PageDigestCache {
    map: HashMap<(u64, u8, u64, u64), [u8; 48]>,
    hits: u64,
    misses: u64,
}

impl PageDigestCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached page digests.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Two-level paged measurement:
///
/// ```text
/// pd_i    = SHA-384(page_i || gpa_le64 || type_tag)     (content-cacheable)
/// digest' = SHA-384(digest || pd_i)                      (96-byte fold)
/// ```
///
/// Unlike the strict chain, the expensive per-page digest `pd_i` depends
/// only on the page itself, so it is cached in [`PageDigestCache`] across
/// measurements *and across kernel configs*; a re-measure with any dirty
/// subset pays full hashing only for the dirty pages plus the cheap fold.
/// Cache misses are hashed four-at-a-time through
/// [`sevf_crypto::sha384_batch`] (all miss messages are the same 4105-byte
/// shape, the multi-buffer fast path).
///
/// The result is deterministic in `pages` alone — cache state never changes
/// the digest, only the work. Note this is a *different* digest scheme from
/// [`MeasurementChain`] (deliberately: the strict chain cannot skip clean
/// pages mid-sequence); it models the template-measurement bookkeeping the
/// control plane keeps, not the PSP's ABI digest.
pub fn paged_measure(pages: &[PageRef<'_>], cache: &mut PageDigestCache) -> [u8; 48] {
    let mut page_digests: Vec<[u8; 48]> = vec![[0u8; 48]; pages.len()];
    let mut miss_idx: Vec<usize> = Vec::new();
    let mut miss_keys: Vec<(u64, u8, u64, u64)> = Vec::new();
    let mut miss_bufs: Vec<Vec<u8>> = Vec::new();
    for (i, p) in pages.iter().enumerate() {
        let (f0, f1) = fingerprint(p.gpa, p.page_type, p.data);
        let key = (p.gpa, p.page_type.tag(), f0, f1);
        if let Some(d) = cache.map.get(&key) {
            cache.hits += 1;
            page_digests[i] = *d;
        } else {
            cache.misses += 1;
            let mut buf = Vec::with_capacity(4096 + 8 + 1);
            buf.extend_from_slice(p.data);
            buf.extend_from_slice(&p.gpa.to_le_bytes());
            buf.push(p.page_type.tag());
            miss_idx.push(i);
            miss_keys.push(key);
            miss_bufs.push(buf);
        }
    }
    let miss_refs: Vec<&[u8]> = miss_bufs.iter().map(|b| b.as_slice()).collect();
    for ((i, key), d) in miss_idx
        .into_iter()
        .zip(miss_keys)
        .zip(sha384_batch(&miss_refs))
    {
        page_digests[i] = d;
        cache.map.insert(key, d);
    }
    let mut digest = [0u8; 48];
    for pd in &page_digests {
        let mut h = Sha384::new();
        h.update(&digest);
        h.update(pd);
        digest = h.finalize();
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = MeasurementChain::new();
        let mut b = MeasurementChain::new();
        a.add_page(0, &[1u8; 4096]);
        b.add_page(0, &[1u8; 4096]);
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn order_matters() {
        let mut a = MeasurementChain::new();
        a.add_page(0, &[1u8; 4096]);
        a.add_page(4096, &[2u8; 4096]);
        let mut b = MeasurementChain::new();
        b.add_page(4096, &[2u8; 4096]);
        b.add_page(0, &[1u8; 4096]);
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn gpa_matters() {
        let mut a = MeasurementChain::new();
        a.add_page(0x1000, &[7u8; 4096]);
        let mut b = MeasurementChain::new();
        b.add_page(0x2000, &[7u8; 4096]);
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn page_type_matters() {
        let page = [3u8; 4096];
        let mut a = MeasurementChain::new();
        a.add_page(0, &page);
        let mut b = MeasurementChain::new();
        b.add_vmsa(0, &page);
        assert_ne!(a.finalize(), b.finalize());
    }

    #[test]
    fn region_padding_is_stable() {
        let mut a = MeasurementChain::new();
        measure_region(&mut a, 0, &[9u8; 5000]);
        assert_eq!(a.page_count(), 2);
        let mut b = MeasurementChain::new();
        let mut padded = vec![9u8; 5000];
        padded.resize(8192, 0);
        measure_region(&mut b, 0, &padded);
        assert_eq!(a.finalize(), b.finalize());
    }

    #[test]
    fn single_bit_flip_changes_digest() {
        let mut page = [0u8; 4096];
        let mut a = MeasurementChain::new();
        a.add_page(0, &page);
        page[4095] ^= 0x80;
        let mut b = MeasurementChain::new();
        b.add_page(0, &page);
        assert_ne!(a.finalize(), b.finalize());
    }

    /// A deterministic page set with distinct contents, mixed page types.
    fn test_pages(n: usize, salt: u8) -> Vec<([u8; 4096], u64, PageType)> {
        (0..n)
            .map(|i| {
                let mut page = [0u8; 4096];
                for (j, b) in page.iter_mut().enumerate() {
                    *b = (i as u8)
                        .wrapping_mul(37)
                        .wrapping_add(j as u8)
                        .wrapping_add(salt);
                }
                let ty = if i % 5 == 4 {
                    PageType::Vmsa
                } else {
                    PageType::Normal
                };
                (page, i as u64 * 4096, ty)
            })
            .collect()
    }

    fn refs(pages: &[([u8; 4096], u64, PageType)]) -> Vec<PageRef<'_>> {
        pages
            .iter()
            .map(|(data, gpa, ty)| PageRef {
                gpa: *gpa,
                page_type: *ty,
                data,
            })
            .collect()
    }

    fn full_chain(pages: &[([u8; 4096], u64, PageType)]) -> [u8; 48] {
        let mut chain = MeasurementChain::new();
        for (data, gpa, ty) in pages {
            match ty {
                PageType::Normal => chain.add_page(*gpa, data),
                PageType::Vmsa => chain.add_vmsa(*gpa, data),
            }
        }
        chain.finalize()
    }

    #[test]
    fn incremental_equals_full_rehash_for_every_dirty_pattern() {
        const N: usize = 6;
        let base = test_pages(N, 0);
        // Every one of the 2^N dirty subsets, applied to a chain that has
        // already measured the clean sequence.
        for mask in 0u32..(1 << N) {
            let mut inc = IncrementalChain::new();
            assert_eq!(inc.measure(&refs(&base)), full_chain(&base));

            let mut dirtied = base.clone();
            for (i, entry) in dirtied.iter_mut().enumerate() {
                if mask & (1 << i) != 0 {
                    entry.0[17] ^= 0xFF;
                    entry.0[4000] = entry.0[4000].wrapping_add(1);
                }
            }
            let got = inc.measure(&refs(&dirtied));
            assert_eq!(got, full_chain(&dirtied), "mask {mask:06b}");
        }
    }

    #[test]
    fn incremental_tracks_gpa_and_type_changes_too() {
        let base = test_pages(4, 0);
        let mut inc = IncrementalChain::new();
        inc.measure(&refs(&base));

        // Same bytes, different GPA: must re-hash from that page.
        let mut moved = base.clone();
        moved[2].1 += 4096;
        assert_eq!(inc.measure(&refs(&moved)), full_chain(&moved));

        // Same bytes, different page type: ditto.
        let mut retyped = base.clone();
        retyped[1].2 = PageType::Vmsa;
        assert_eq!(inc.measure(&refs(&retyped)), full_chain(&retyped));

        // Shrunk and grown sequences still match a full re-hash.
        let shorter = &base[..2];
        assert_eq!(inc.measure(&refs(shorter)), full_chain(shorter));
        let longer = test_pages(9, 0);
        assert_eq!(inc.measure(&refs(&longer)), full_chain(&longer));
    }

    #[test]
    fn paged_measure_is_cache_independent_and_deterministic() {
        let pages = test_pages(10, 3);
        let mut cold = PageDigestCache::new();
        let d1 = paged_measure(&refs(&pages), &mut cold);
        assert_eq!(cold.misses(), 10);
        assert_eq!(cold.hits(), 0);

        // Warm re-measure: same digest, all hits, no new entries.
        let d2 = paged_measure(&refs(&pages), &mut cold);
        assert_eq!(d1, d2);
        assert_eq!(cold.hits(), 10);
        assert_eq!(cold.len(), 10);

        // A different cache instance produces the identical digest.
        let mut other = PageDigestCache::new();
        assert_eq!(paged_measure(&refs(&pages), &mut other), d1);

        // Dirtying one mid-sequence page re-hashes exactly that page.
        let mut dirtied = pages.clone();
        dirtied[5].0[0] ^= 1;
        let d3 = paged_measure(&refs(&dirtied), &mut cold);
        assert_ne!(d3, d1);
        assert_eq!(cold.misses(), 11, "only the dirty page misses");
    }

    #[test]
    fn page_digest_cache_shares_across_configs() {
        // Two "kernel configs" overlapping in 6 of 8 pages: the shared pages
        // are hashed once.
        let a = test_pages(8, 0);
        let mut b = a.clone();
        b[3].0[100] ^= 0x55;
        b[7].0[2000] ^= 0x55;
        let mut cache = PageDigestCache::new();
        let da = paged_measure(&refs(&a), &mut cache);
        let db = paged_measure(&refs(&b), &mut cache);
        assert_ne!(da, db);
        assert_eq!(cache.misses(), 8 + 2);
        assert_eq!(cache.hits(), 6);
    }

    #[test]
    fn paged_measure_matches_scalar_construction() {
        // Pin the two-level construction: pd_i = H(page||gpa||tag), folded
        // by H(prev||pd_i) from zero.
        let pages = test_pages(3, 9);
        let mut cache = PageDigestCache::new();
        let got = paged_measure(&refs(&pages), &mut cache);
        let mut digest = [0u8; 48];
        for (data, gpa, ty) in &pages {
            let mut h = Sha384::new();
            h.update(data);
            h.update(&gpa.to_le_bytes());
            h.update(&[ty.tag()]);
            let pd = h.finalize();
            let mut f = Sha384::new();
            f.update(&digest);
            f.update(&pd);
            digest = f.finalize();
        }
        assert_eq!(got, digest);
    }

    #[test]
    fn paged_measure_order_matters() {
        let pages = test_pages(4, 1);
        let mut rev = pages.clone();
        rev.reverse();
        let mut cache = PageDigestCache::new();
        let fwd = paged_measure(&refs(&pages), &mut cache);
        let bwd = paged_measure(&refs(&rev), &mut cache);
        assert_ne!(fwd, bwd);
        // Reordering hits the page-digest cache for every page.
        assert_eq!(cache.hits(), 4);
    }
}
