//! CRC-32 (IEEE 802.3), the checksum used by every binary format in the
//! workspace.
//!
//! Both the persistent trace store (`docs/TRACE_FORMAT.md`) and the wire
//! protocol (`docs/WIRE_PROTOCOL.md`) terminate their length-prefixed
//! payloads with this checksum, so the implementation lives here in the
//! leaf crate. The polynomial is the reflected `0xEDB88320`; the check
//! value for `"123456789"` is `0xCBF43926`.

/// The reflected CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables. `TABLES[0]` is the classic bytewise
/// table; `TABLES[k][b]` is the CRC state contributed by byte `b`
/// followed by `k` zero bytes, so eight table lookups fold eight input
/// bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) over one contiguous
/// slice. Slicing-by-8: the tables are built in a const context and
/// the hot loop folds eight bytes per iteration with eight lookups.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 over a sequence of slices.
///
/// `Crc32::new()` → [`update`](Crc32::update) in any split →
/// [`finish`](Crc32::finish) produces exactly what [`crc32`] returns
/// over the concatenation; the wire codec uses this to checksum a
/// message header and its separately-buffered payload without copying
/// them together.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Crc32 { state: u32::MAX }
    }

    /// Folds `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7] = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t7[(lo & 0xFF) as usize]
                ^ t6[((lo >> 8) & 0xFF) as usize]
                ^ t5[((lo >> 16) & 0xFF) as usize]
                ^ t4[(lo >> 24) as usize]
                ^ t3[(hi & 0xFF) as usize]
                ^ t2[((hi >> 8) & 0xFF) as usize]
                ^ t1[((hi >> 16) & 0xFF) as usize]
                ^ t0[(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t0[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Finalizes and returns the checksum.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// The CRC-32 of `A ‖ B` from `crc_a = crc32(A)`, `crc_b = crc32(B)` and
/// `len_b = B.len()`, without reading either input (zlib's
/// `crc32_combine`). It costs O(log `len_b`) polynomial products, so a
/// forwarder that already holds the checksum of a large body can
/// checksum a small header plus that body without a pass over the body.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    // Appending len_b bytes to A multiplies A's CRC register by
    // x^(8·len_b) mod P; B's own CRC adds in linearly.
    multiply_mod_p(x_pow_8n_mod_p(len_b), crc_a) ^ crc_b
}

/// `X2N[k]` = x^(2^k) mod P, in the reflected bit order (x^0 is bit 31).
const X2N: [u32; 64] = {
    let mut table = [0u32; 64];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 64 {
        table[k] = p;
        p = multiply_mod_p(p, p);
        k += 1;
    }
    table
};

/// The product `a · b` mod P of two reflected polynomials.
const fn multiply_mod_p(a: u32, mut b: u32) -> u32 {
    let mut product = 0u32;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// x^(8·n) mod P, by square-and-multiply over the bits of `n`.
fn x_pow_8n_mod_p(n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut n = n as u64;
    let mut k = 3; // 8·n = n · 2^3
    while n != 0 {
        if n & 1 != 0 {
            p = multiply_mod_p(X2N[k], p);
        }
        n >>= 1;
        k += 1;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise table-driven CRC that slicing-by-8 replaced: one
    /// lookup per byte. The differential oracle for [`Crc32::update`].
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic pseudo-random bytes (xorshift): varied byte values
    /// with no structure for the tables to hide a bug behind.
    fn noise(n: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_oracle() {
        let data = noise(64 + 8);
        // Every length across several 8-byte blocks plus every tail, at
        // every start offset within a block.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &data[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_the_oracle_at_every_incremental_split() {
        let data = noise(64);
        let whole = bytewise(&data);
        for a in 0..=data.len() {
            for b in a..=data.len() {
                let mut h = Crc32::new();
                h.update(&data[..a]);
                h.update(&data[a..b]);
                h.update(&data[b..]);
                assert_eq!(h.finish(), whole, "splits at {a} and {b}");
            }
        }
    }

    /// `crc32_combine` against a direct CRC of the concatenation, for
    /// every split of buffers of every length up to 300 bytes, empty
    /// sides included.
    #[test]
    fn combine_matches_the_crc_of_the_concatenation_at_every_split() {
        let data = noise(300);
        for len in 0..=data.len() {
            let buf = &data[..len];
            let whole = bytewise(buf);
            for cut in 0..=len {
                let (a, b) = buf.split_at(cut);
                assert_eq!(
                    crc32_combine(crc32(a), crc32(b), b.len()),
                    whole,
                    "len {len}, split at {cut}"
                );
            }
        }
    }

    /// A body as long as a full trace-store frame's payload, where the
    /// square-and-multiply reaches the upper powers of the table.
    #[test]
    fn combine_matches_at_frame_scale_lengths() {
        let body = noise((1 << 20) + 3);
        let head = b"header";
        let want = crc32(&[&head[..], &body[..]].concat());
        assert_eq!(crc32_combine(crc32(head), crc32(&body), body.len()), want);
    }

    #[test]
    fn crc32_matches_the_standard_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_matches_contiguous_at_every_split() {
        let data = b"split me anywhere and the checksum must not care";
        let whole = crc32(data);
        for cut in 0..=data.len() {
            let mut h = Crc32::new();
            h.update(&data[..cut]);
            h.update(&data[cut..]);
            assert_eq!(h.finish(), whole, "split at {cut}");
        }
    }
}
