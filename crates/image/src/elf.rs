//! Minimal ELF64 executable reader/writer.
//!
//! Enough of the format for the boot paths in the paper: the VMM's direct
//! vmlinux loader, the boot verifier's measured ELF loader, and the fw_cfg
//! protocol of §5 (which serves the ELF header, program headers, and
//! loadable segments as three separately hashed pieces).
//!
//! [`header`] and [`load_segments`] are the one reader of ELF fields: the
//! host-side parse ([`ElfImage::parse_layout`], which the bootstrap loader
//! also runs) and the verifier's fw_cfg loader both read through them, so
//! the trusted loader refuses what the host-side reader refuses.

use std::ops::Range;

use crate::ImageError;

/// ELF header size for 64-bit objects.
pub const EHDR_SIZE: usize = 64;
/// Program header entry size for 64-bit objects.
pub const PHDR_SIZE: usize = 56;

/// Segment permission flags (bitwise-OR of R=4, W=2, X=1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentFlags(pub u32);

impl SegmentFlags {
    /// Read + execute (text).
    pub const RX: SegmentFlags = SegmentFlags(0b101);
    /// Read only (rodata).
    pub const R: SegmentFlags = SegmentFlags(0b100);
    /// Read + write (data/bss).
    pub const RW: SegmentFlags = SegmentFlags(0b110);
}

/// One loadable segment, its contents owned or borrowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<D = Vec<u8>> {
    /// Virtual/physical load address.
    pub vaddr: u64,
    /// File contents of the segment.
    pub data: D,
    /// Extra zero-initialized bytes beyond the file contents (bss).
    pub bss: u64,
    /// Permissions.
    pub flags: SegmentFlags,
}

impl<D: AsRef<[u8]>> Segment<D> {
    /// Total in-memory size (file bytes + bss).
    pub fn mem_size(&self) -> u64 {
        self.data.as_ref().len() as u64 + self.bss
    }
}

/// A parsed or constructed ELF64 executable: segment contents owned, or
/// (`ElfImage<&[u8]>`, from [`ElfImage::parse`]) borrowed from the file it
/// was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElfImage<D = Vec<u8>> {
    /// Entry-point virtual address.
    pub entry: u64,
    /// Loadable segments, in program-header order.
    pub segments: Vec<Segment<D>>,
}

impl<D> ElfImage<D> {
    /// The same image with each segment's contents replaced by `f` of them.
    pub(crate) fn map<E>(&self, mut f: impl FnMut(&D) -> E) -> ElfImage<E> {
        let segment = |seg: &Segment<D>| Segment {
            vaddr: seg.vaddr,
            data: f(&seg.data),
            bss: seg.bss,
            flags: seg.flags,
        };
        ElfImage {
            entry: self.entry,
            segments: self.segments.iter().map(segment).collect(),
        }
    }
}

impl<D: AsRef<[u8]>> ElfImage<D> {
    /// File offset of the first segment's contents: the headers, padded
    /// to a page as linkers align it.
    fn data_offset(&self) -> usize {
        (EHDR_SIZE + self.segments.len() * PHDR_SIZE + 0xfff) & !0xfff
    }

    /// The segment table of `to_bytes`'s output: each segment's contents
    /// as its file range, from [`ElfImage::data_offset`] back to back.
    pub(crate) fn layout(&self) -> ElfImage<Range<usize>> {
        let mut at = self.data_offset();
        self.map(|data| {
            let start = at;
            at += data.as_ref().len();
            start..at
        })
    }

    /// The ELF header followed by the program header table, as
    /// [`ElfImage::to_bytes`] writes them.
    fn headers(&self) -> Vec<u8> {
        let phnum = self.segments.len();
        let mut out = Vec::with_capacity(EHDR_SIZE + phnum * PHDR_SIZE);
        out.extend_from_slice(&[0x7f, b'E', b'L', b'F', 2, 1, 1, 0]); // ident
        out.extend_from_slice(&[0u8; 8]); // ident padding
        out.extend_from_slice(&2u16.to_le_bytes()); // e_type = EXEC
        out.extend_from_slice(&62u16.to_le_bytes()); // e_machine = x86-64
        out.extend_from_slice(&1u32.to_le_bytes()); // e_version
        out.extend_from_slice(&self.entry.to_le_bytes()); // e_entry
        out.extend_from_slice(&(EHDR_SIZE as u64).to_le_bytes()); // e_phoff
        out.extend_from_slice(&0u64.to_le_bytes()); // e_shoff
        out.extend_from_slice(&0u32.to_le_bytes()); // e_flags
        out.extend_from_slice(&(EHDR_SIZE as u16).to_le_bytes()); // e_ehsize
        out.extend_from_slice(&(PHDR_SIZE as u16).to_le_bytes()); // e_phentsize
        out.extend_from_slice(&(phnum as u16).to_le_bytes()); // e_phnum
        out.extend_from_slice(&0u16.to_le_bytes()); // e_shentsize
        out.extend_from_slice(&0u16.to_le_bytes()); // e_shnum
        out.extend_from_slice(&0u16.to_le_bytes()); // e_shstrndx
        debug_assert_eq!(out.len(), EHDR_SIZE);

        for seg in self.layout().segments {
            let (offset, filesz) = (seg.data.start as u64, seg.data.len() as u64);
            out.extend_from_slice(&1u32.to_le_bytes()); // p_type = LOAD
            out.extend_from_slice(&seg.flags.0.to_le_bytes()); // p_flags
            out.extend_from_slice(&offset.to_le_bytes()); // p_offset
            out.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_vaddr
            out.extend_from_slice(&seg.vaddr.to_le_bytes()); // p_paddr
            out.extend_from_slice(&filesz.to_le_bytes()); // p_filesz
            out.extend_from_slice(&(filesz + seg.bss).to_le_bytes()); // p_memsz
            out.extend_from_slice(&0x1000u64.to_le_bytes()); // p_align
        }
        out
    }

    /// Serializes to ELF64 bytes (header, program headers, then segment
    /// contents packed back to back from the first page boundary).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.headers();
        out.resize(self.data_offset(), 0);
        out.reserve(self.loadable_bytes() as usize);
        for seg in &self.segments {
            out.extend_from_slice(seg.data.as_ref());
        }
        out
    }

    /// The three pieces the fw_cfg loader of §5 transfers and hashes
    /// separately: (ELF header, program headers, concatenated loadable
    /// segment data), as [`ElfImage::to_bytes`] lays them out.
    pub fn fw_cfg_pieces(&self) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let mut ehdr = self.headers();
        let phdrs = ehdr.split_off(EHDR_SIZE);
        let segs: Vec<&[u8]> = self.segments.iter().map(|s| s.data.as_ref()).collect();
        (ehdr, phdrs, segs.concat())
    }

    /// Sum of loadable file bytes (what a loader must copy).
    pub fn loadable_bytes(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| s.data.as_ref().len() as u64)
            .sum()
    }
}

impl<'a> ElfImage<&'a [u8]> {
    /// Walks ELF64 `bytes` produced by [`ElfImage::to_bytes`] (or any simple
    /// static executable with LOAD segments) to the entry point and the LOAD
    /// segments, in program-header order, each borrowing its contents from
    /// `bytes`: [`ElfImage::parse_layout`] over the whole file.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadElf`] on malformed input.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, ImageError> {
        let layout = ElfImage::parse_layout(bytes, bytes.len())?;
        Ok(layout.map(|range| &bytes[range.clone()]))
    }
}

impl ElfImage<Range<usize>> {
    /// Walks the ELF header and program headers of a `file_len`-byte file
    /// to its entry point and LOAD segments, in program-header order, each
    /// segment's contents given as its range in the file. `head` is the
    /// start of the file, holding at least its ELF header and program
    /// header table (or the whole file); every range is checked against
    /// `file_len`, so a loader can place the contents as they arrive.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::BadElf`] on malformed input, and for a program
    /// header table that ends past `head`.
    pub fn parse_layout(head: &[u8], file_len: usize) -> Result<Self, ImageError> {
        let (entry, phoff, phnum) = header(head)?;
        // Every offset and size below is the file's word: add them checked,
        // so a hostile one is an error, never a wrapped index.
        let phdrs = in_range(file_len, phoff, (phnum * PHDR_SIZE) as u64)
            .and_then(|table| head.get(table))
            .ok_or(ImageError::BadElf("program headers out of bounds"))?;
        let segments = load_segments(phdrs, |offset, filesz| {
            in_range(file_len, offset, filesz)
                .ok_or(ImageError::BadElf("segment data out of bounds"))
        })?;
        Ok(ElfImage { entry, segments })
    }
}

/// The entry point, program header offset and program header count of the
/// ELF64 header at the start of `head`, once its magic, class and program
/// header size check.
///
/// # Errors
///
/// Returns [`ImageError::BadElf`] if `head` is shorter than the header or
/// fails one of those checks.
pub fn header(head: &[u8]) -> Result<(u64, u64, usize), ImageError> {
    if head.len() < EHDR_SIZE {
        return Err(ImageError::BadElf("shorter than the ELF header"));
    }
    if &head[..4] != b"\x7fELF" {
        return Err(ImageError::BadElf("bad magic"));
    }
    if head[4] != 2 {
        return Err(ImageError::BadElf("not 64-bit"));
    }
    let entry = u64::from_le_bytes(head[24..32].try_into().expect("8"));
    let phoff = u64::from_le_bytes(head[32..40].try_into().expect("8"));
    let phentsize = u16::from_le_bytes(head[54..56].try_into().expect("2")) as usize;
    let phnum = u16::from_le_bytes(head[56..58].try_into().expect("2")) as usize;
    if phentsize != PHDR_SIZE {
        return Err(ImageError::BadElf("unexpected program header size"));
    }
    Ok((entry, phoff, phnum))
}

/// The LOAD segments of the program header table `phdrs`, in table order,
/// each one's contents `data(p_offset, p_filesz)`. A segment's contents are
/// checked (by `data`) before its memory size.
///
/// # Errors
///
/// `data`'s error, or [`ImageError::BadElf`] for a segment whose memory
/// size is below its file size, or a table with no LOAD entry.
pub fn load_segments<D>(
    phdrs: &[u8],
    mut data: impl FnMut(u64, u64) -> Result<D, ImageError>,
) -> Result<Vec<Segment<D>>, ImageError> {
    let mut segments = Vec::with_capacity(phdrs.len() / PHDR_SIZE);
    for ph in phdrs.chunks_exact(PHDR_SIZE) {
        let p_type = u32::from_le_bytes(ph[0..4].try_into().expect("4"));
        if p_type != 1 {
            continue; // skip non-LOAD
        }
        let flags = u32::from_le_bytes(ph[4..8].try_into().expect("4"));
        let p_offset = u64::from_le_bytes(ph[8..16].try_into().expect("8"));
        let vaddr = u64::from_le_bytes(ph[16..24].try_into().expect("8"));
        let filesz = u64::from_le_bytes(ph[32..40].try_into().expect("8"));
        let memsz = u64::from_le_bytes(ph[40..48].try_into().expect("8"));
        let data = data(p_offset, filesz)?;
        if memsz < filesz {
            return Err(ImageError::BadElf("memsz smaller than filesz"));
        }
        segments.push(Segment {
            vaddr,
            data,
            bss: memsz - filesz,
            flags: SegmentFlags(flags),
        });
    }
    if segments.is_empty() {
        return Err(ImageError::BadElf("no loadable segments"));
    }
    Ok(segments)
}

/// `offset..offset + len`, or `None` if any of it lies past `file_len`.
fn in_range(file_len: usize, offset: u64, len: u64) -> Option<Range<usize>> {
    let end = usize::try_from(offset.checked_add(len)?).ok()?;
    (end <= file_len).then_some(usize::try_from(offset).ok()?..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ElfImage {
        ElfImage {
            entry: 0x1_0000_0000,
            segments: vec![
                Segment {
                    vaddr: 0x1_0000_0000,
                    data: vec![0x90; 5000],
                    bss: 0,
                    flags: SegmentFlags::RX,
                },
                Segment {
                    vaddr: 0x1_0001_0000,
                    data: vec![0x41; 3000],
                    bss: 0x2000,
                    flags: SegmentFlags::RW,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes();
        assert_eq!(ElfImage::parse(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn parsed_segments_borrow_the_input() {
        let bytes = sample().to_bytes();
        let elf = ElfImage::parse(&bytes).unwrap();
        assert_eq!((elf.entry, elf.segments.len()), (sample().entry, 2));
        let file = bytes.as_ptr_range();
        for (seg, owned) in elf.segments.iter().zip(&sample().segments) {
            assert_eq!(seg.data, &owned.data[..]);
            let slice = seg.data.as_ptr_range();
            assert!(file.start <= slice.start && slice.end <= file.end);
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = 0;
        assert!(matches!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf(_))
        ));
    }

    #[test]
    fn truncated_segment_rejected() {
        let bytes = sample().to_bytes();
        assert!(ElfImage::parse(&bytes[..bytes.len() - 100]).is_err());
    }

    #[test]
    fn not_64bit_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = 1;
        assert!(ElfImage::parse(&bytes).is_err());
    }

    /// A 120-byte ELF: the file header and one LOAD program header.
    fn one_header() -> Vec<u8> {
        let elf = ElfImage {
            entry: 0x1000,
            segments: vec![Segment {
                vaddr: 0x1000,
                data: Vec::new(),
                bss: 0,
                flags: SegmentFlags::R,
            }],
        };
        elf.to_bytes()[..EHDR_SIZE + PHDR_SIZE].to_vec()
    }

    #[test]
    fn program_header_offset_past_the_address_space_is_bad_elf() {
        let mut bytes = one_header();
        assert_eq!(bytes.len(), 120);
        bytes[32..40].copy_from_slice(&u64::MAX.to_le_bytes()); // e_phoff
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("program headers out of bounds"))
        );
    }

    #[test]
    fn segment_offset_past_the_address_space_is_bad_elf() {
        let mut bytes = one_header();
        let p_offset = EHDR_SIZE + 8;
        bytes[p_offset..p_offset + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes[EHDR_SIZE + 32..EHDR_SIZE + 40].copy_from_slice(&1u64.to_le_bytes()); // p_filesz
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("segment data out of bounds"))
        );
    }

    #[test]
    fn memsz_below_filesz_is_bad_elf() {
        // The segment's data lies in the file, so the size check decides.
        let mut bytes = one_header();
        bytes[EHDR_SIZE + 8..EHDR_SIZE + 16].copy_from_slice(&0u64.to_le_bytes()); // p_offset
        bytes[EHDR_SIZE + 32..EHDR_SIZE + 40].copy_from_slice(&8u64.to_le_bytes()); // p_filesz
        bytes[EHDR_SIZE + 40..EHDR_SIZE + 48].copy_from_slice(&4u64.to_le_bytes()); // p_memsz
        assert_eq!(
            ElfImage::parse(&bytes),
            Err(ImageError::BadElf("memsz smaller than filesz"))
        );
    }

    #[test]
    fn fw_cfg_pieces_are_the_serialized_headers_and_segments() {
        let elf = sample();
        let (ehdr, phdrs, segs) = elf.fw_cfg_pieces();
        let bytes = elf.to_bytes();
        let phdrs_end = EHDR_SIZE + 2 * PHDR_SIZE;
        assert_eq!(ehdr, bytes[..EHDR_SIZE]);
        assert_eq!(phdrs, bytes[EHDR_SIZE..phdrs_end]);
        assert_eq!(segs, bytes[0x1000..]);
        assert_eq!(segs.len() as u64, elf.loadable_bytes());
    }

    #[test]
    fn entry_and_bss_preserved() {
        let bytes = sample().to_bytes();
        let parsed = ElfImage::parse(&bytes).unwrap();
        assert_eq!(parsed.entry, 0x1_0000_0000);
        assert_eq!(parsed.segments[1].bss, 0x2000);
        assert_eq!(parsed.segments[1].mem_size(), 3000 + 0x2000);
    }
}
