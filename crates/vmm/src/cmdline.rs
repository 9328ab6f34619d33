//! The kernel command line.
//!
//! §4.2: the cmdline is supplied by the client, has a 4 KiB maximum, and
//! Firecracker's default is 155 bytes — small enough that pre-encrypting it
//! is cheaper than adding hash-and-verify plumbing for it.

/// Maximum command line length Linux accepts.
const CMDLINE_MAX: usize = 4096;

/// The Firecracker-style default command line used throughout the paper's
/// experiments (sized to the 155 bytes Fig. 7 reports).
pub(crate) fn default_cmdline() -> String {
    let mut cmdline = "console=ttyS0 reboot=k panic=1 pci=off nomodule 8250.nr_uarts=0 \
         i8042.noaux i8042.nomux i8042.nopnp i8042.dumbkbd tsc=reliable ipv6.disable=1 \
         quiet"
        .to_string();
    debug_assert!(cmdline.len() <= 155);
    // Pad with spaces to exactly the paper's 155 bytes for size fidelity.
    while cmdline.len() < 155 {
        cmdline.push(' ');
    }
    cmdline
}

/// Validates a client-supplied command line.
///
/// # Errors
///
/// Rejects empty, oversized, or non-ASCII/NUL-containing command lines.
pub fn validate(cmdline: &str) -> Result<(), &'static str> {
    if cmdline.is_empty() {
        return Err("command line is empty");
    }
    if cmdline.len() > CMDLINE_MAX {
        return Err("command line exceeds 4096 bytes");
    }
    if cmdline.bytes().any(|b| b == 0 || !b.is_ascii()) {
        return Err("command line must be NUL-free ASCII");
    }
    Ok(())
}

/// Serializes the command line into its pre-encrypted page (NUL-terminated).
pub fn to_page(cmdline: &str) -> [u8; 4096] {
    let mut page = [0u8; 4096];
    page[..cmdline.len()].copy_from_slice(cmdline.as_bytes());
    page
}

/// Reads a command line back from its page.
pub fn from_page(page: &[u8]) -> String {
    let end = page.iter().position(|&b| b == 0).unwrap_or(page.len());
    String::from_utf8_lossy(&page[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_155_bytes() {
        // Fig. 7: the default Firecracker cmdline is 155 B.
        let c = default_cmdline();
        assert_eq!(c.len(), 155);
        assert!(validate(&c).is_ok());
        assert!(c.contains("console=ttyS0"));
    }

    #[test]
    fn page_roundtrip() {
        let c = default_cmdline();
        assert_eq!(from_page(&to_page(&c)), c);
    }

    #[test]
    fn validation_limits() {
        assert!(validate("").is_err());
        assert!(validate(&"x".repeat(4097)).is_err());
        assert!(validate(&"x".repeat(4096)).is_ok());
        assert!(validate("has\0nul").is_err());
        assert!(validate("émoji").is_err());
    }
}
