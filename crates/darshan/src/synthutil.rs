//! Small shared helpers for trace producers (hashing, checksums).

/// FNV-1a 64-bit hash, used to derive stable record ids from file paths —
/// the same role Darshan's record-id hashing plays.
pub fn fnv1a64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Stable record id for a file path.
#[inline]
pub fn record_id(path: &str) -> u64 {
    fnv1a64(path.as_bytes())
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), table-driven.
///
/// Used by the MDF footer to detect truncation/bit-rot — the property the
/// MOSAIC pre-processing validity check ① leans on for "corrupted entries".
pub struct Crc32 {
    state: u32,
}

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "const fn (try_from is non-const); i < 256 always fits u32"
        )]
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xffff_ffff }
    }

    /// Feed bytes.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        for &b in data {
            let idx = crate::convert::u32_to_usize((c ^ u32::from(b)) & 0xff);
            // lint: allow(panic, "idx is masked with & 0xff, always < CRC_TABLE.len() == 256")
            c = CRC_TABLE[idx] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final digest.
    pub fn finalize(self) -> u32 {
        self.state ^ 0xffff_ffff
    }

    /// One-shot convenience.
    pub fn checksum(data: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update(data);
        c.finalize()
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn crc32_matches_reference_vectors() {
        // "123456789" is the canonical CRC-32 check value.
        assert_eq!(Crc32::checksum(b"123456789"), 0xcbf4_3926);
        assert_eq!(Crc32::checksum(b""), 0);
    }

    #[test]
    fn crc32_incremental_equals_oneshot() {
        let mut c = Crc32::new();
        c.update(b"hello ");
        c.update(b"world");
        assert_eq!(c.finalize(), Crc32::checksum(b"hello world"));
    }

    #[test]
    fn record_ids_differ_for_different_paths() {
        assert_ne!(record_id("/a"), record_id("/b"));
        assert_eq!(record_id("/a"), record_id("/a"));
    }
}
