//! IPv4 header encoding, parsing, and checksumming.
//!
//! Only the fields the tracer needs are modeled richly (addresses,
//! protocol, total length); options are preserved but uninterpreted, and
//! fragmentation is not modeled because NFS-over-UDP on both traced
//! systems ran below the interface MTU (CAMPUS used jumbo frames for
//! exactly this reason).

use crate::{Error, Result};
use std::fmt;

/// Minimum IPv4 header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// IP protocol number for TCP.
pub const PROTO_TCP: u8 = 6;
/// IP protocol number for UDP.
pub const PROTO_UDP: u8 = 17;

/// A 32-bit IPv4 address.
///
/// Named `Ipv4Addr4` to avoid colliding with `std::net::Ipv4Addr`, which
/// we deliberately do not use: trace anonymization treats addresses as
/// opaque 32-bit tokens.
///
/// # Examples
///
/// ```
/// use nfstrace_net::ipv4::Ipv4Addr4;
/// let a = Ipv4Addr4::new(10, 1, 2, 3);
/// assert_eq!(a.to_string(), "10.1.2.3");
/// assert_eq!(Ipv4Addr4::from_u32(a.as_u32()), a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr4(pub u32);

impl Ipv4Addr4 {
    /// Builds an address from four dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Self(u32::from_be_bytes([a, b, c, d]))
    }

    /// Builds an address from its 32-bit big-endian value.
    pub const fn from_u32(v: u32) -> Self {
        Self(v)
    }

    /// The 32-bit big-endian value.
    pub const fn as_u32(&self) -> u32 {
        self.0
    }

    /// The four dotted-quad octets.
    pub const fn octets(&self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Addr4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// A parsed IPv4 packet borrowing its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet<'a> {
    /// Source address.
    pub src: Ipv4Addr4,
    /// Destination address.
    pub dst: Ipv4Addr4,
    /// IP protocol number ([`PROTO_TCP`] or [`PROTO_UDP`] for NFS traffic).
    pub protocol: u8,
    /// Time-to-live as seen on the wire.
    pub ttl: u8,
    /// Identification field.
    pub ident: u16,
    /// Transport payload.
    pub payload: &'a [u8],
}

impl<'a> Ipv4Packet<'a> {
    /// Parses an IPv4 packet, verifying version, header length, and that
    /// the total-length field fits the buffer.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] for short input; [`Error::Unsupported`] for a
    /// non-4 version field or a bad header-length field.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                what: "ipv4 header",
                needed: MIN_HEADER_LEN,
                got: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(Error::Unsupported {
                what: "ip version",
                value: u32::from(version),
            });
        }
        let ihl = usize::from(data[0] & 0x0f) * 4;
        if ihl < MIN_HEADER_LEN || data.len() < ihl {
            return Err(Error::Unsupported {
                what: "ipv4 header length",
                value: ihl as u32,
            });
        }
        let total_len = usize::from(u16::from_be_bytes([data[2], data[3]]));
        if total_len < ihl || data.len() < total_len {
            return Err(Error::Truncated {
                what: "ipv4 packet body",
                needed: total_len,
                got: data.len(),
            });
        }
        Ok(Ipv4Packet {
            src: Ipv4Addr4::from_u32(u32::from_be_bytes([data[12], data[13], data[14], data[15]])),
            dst: Ipv4Addr4::from_u32(u32::from_be_bytes([data[16], data[17], data[18], data[19]])),
            protocol: data[9],
            ttl: data[8],
            ident: u16::from_be_bytes([data[4], data[5]]),
            payload: &data[ihl..total_len],
        })
    }

    /// Appends a minimal (option-free) 20-byte header for a payload of
    /// `payload_len` bytes to `out`, checksum computed; the payload
    /// follows it. The one place the header layout is written —
    /// [`Ipv4Packet::encode`] and [`crate::packet::PacketBuilder`] both
    /// build on it. Panics if the 16-bit total length cannot count it.
    pub fn write_header(
        src: Ipv4Addr4,
        dst: Ipv4Addr4,
        protocol: u8,
        ident: u16,
        payload_len: usize,
        out: &mut Vec<u8>,
    ) {
        let Ok(total_len) = u16::try_from(MIN_HEADER_LEN + payload_len) else {
            panic!("a {payload_len}-byte IPv4 payload exceeds the 65515-byte limit");
        };
        let mut hdr = [0u8; MIN_HEADER_LEN];
        hdr[0] = 0x45; // version 4, ihl 5
        hdr[1] = 0; // dscp/ecn
        hdr[2..4].copy_from_slice(&total_len.to_be_bytes());
        hdr[4..6].copy_from_slice(&ident.to_be_bytes());
        hdr[6] = 0x40; // don't fragment
        hdr[8] = 64; // ttl
        hdr[9] = protocol;
        hdr[12..16].copy_from_slice(&src.octets());
        hdr[16..20].copy_from_slice(&dst.octets());
        let csum = header_checksum(&hdr);
        hdr[10..12].copy_from_slice(&csum.to_be_bytes());
        out.extend_from_slice(&hdr);
    }

    /// Serializes a minimal (option-free) IPv4 packet around `payload`.
    ///
    /// The header checksum is computed; `ident` increments help exercise
    /// parsers but carry no semantics here.
    pub fn encode(
        src: Ipv4Addr4,
        dst: Ipv4Addr4,
        protocol: u8,
        ident: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(MIN_HEADER_LEN + payload.len());
        Self::write_header(src, dst, protocol, ident, payload.len(), &mut out);
        out.extend_from_slice(payload);
        out
    }

    /// Verifies the header checksum of a raw IPv4 header slice.
    pub fn verify_checksum(header: &[u8]) -> bool {
        internet_checksum(header) == 0
    }
}

/// Computes the checksum field value for a header whose checksum bytes
/// are currently zero.
pub fn header_checksum(header: &[u8]) -> u16 {
    internet_checksum(header)
}

/// The one's-complement Internet checksum over `data`.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let src = Ipv4Addr4::new(192, 168, 1, 10);
        let dst = Ipv4Addr4::new(10, 0, 0, 2);
        let bytes = Ipv4Packet::encode(src, dst, PROTO_UDP, 42, b"data");
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.src, src);
        assert_eq!(p.dst, dst);
        assert_eq!(p.protocol, PROTO_UDP);
        assert_eq!(p.ident, 42);
        assert_eq!(p.payload, b"data");
    }

    #[test]
    #[should_panic(expected = "exceeds the 65515-byte limit")]
    fn header_refuses_a_length_it_cannot_count() {
        let (a, b) = (Ipv4Addr4::new(1, 2, 3, 4), Ipv4Addr4::new(5, 6, 7, 8));
        Ipv4Packet::write_header(a, b, PROTO_UDP, 0, 70_000, &mut Vec::new());
    }

    #[test]
    fn checksum_verifies() {
        let bytes = Ipv4Packet::encode(
            Ipv4Addr4::new(1, 2, 3, 4),
            Ipv4Addr4::new(5, 6, 7, 8),
            PROTO_TCP,
            7,
            b"xyz",
        );
        assert!(Ipv4Packet::verify_checksum(&bytes[..MIN_HEADER_LEN]));
    }

    #[test]
    fn corrupt_checksum_detected() {
        let mut bytes = Ipv4Packet::encode(
            Ipv4Addr4::new(1, 2, 3, 4),
            Ipv4Addr4::new(5, 6, 7, 8),
            PROTO_TCP,
            7,
            b"xyz",
        );
        bytes[12] ^= 0xff;
        assert!(!Ipv4Packet::verify_checksum(&bytes[..MIN_HEADER_LEN]));
    }

    #[test]
    fn rejects_version_6() {
        let mut bytes = Ipv4Packet::encode(
            Ipv4Addr4::default(),
            Ipv4Addr4::default(),
            PROTO_UDP,
            0,
            b"",
        );
        bytes[0] = 0x65;
        assert!(matches!(
            Ipv4Packet::parse(&bytes),
            Err(Error::Unsupported { .. })
        ));
    }

    #[test]
    fn rejects_total_length_beyond_buffer() {
        let mut bytes = Ipv4Packet::encode(
            Ipv4Addr4::default(),
            Ipv4Addr4::default(),
            PROTO_UDP,
            0,
            b"abcd",
        );
        bytes[2..4].copy_from_slice(&1000u16.to_be_bytes());
        assert!(matches!(
            Ipv4Packet::parse(&bytes),
            Err(Error::Truncated { .. })
        ));
    }

    #[test]
    fn payload_respects_total_length_with_trailer() {
        // Ethernet padding after the IP datagram must be excluded.
        let mut bytes = Ipv4Packet::encode(
            Ipv4Addr4::new(1, 1, 1, 1),
            Ipv4Addr4::new(2, 2, 2, 2),
            PROTO_UDP,
            0,
            b"abc",
        );
        bytes.extend_from_slice(&[0u8; 7]); // trailer padding
        let p = Ipv4Packet::parse(&bytes).unwrap();
        assert_eq!(p.payload, b"abc");
    }

    #[test]
    fn internet_checksum_odd_length() {
        // Known value check: checksum of a single byte 0x01 is !0x0100.
        assert_eq!(internet_checksum(&[0x01]), !0x0100);
    }
}
