//! Ethernet II framing.
//!
//! The CAMPUS network used gigabit Ethernet with 9000-byte jumbo frames;
//! EECS used standard 1500-byte frames. Frames here carry no FCS (as
//! delivered by a capture interface).

use crate::{Error, Result};
use std::fmt;

/// Length of an Ethernet II header: two MACs plus the EtherType.
pub const HEADER_LEN: usize = 14;

/// A 48-bit IEEE MAC address.
///
/// # Examples
///
/// ```
/// use nfstrace_net::ethernet::MacAddr;
/// let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]);
/// assert_eq!(mac.to_string(), "de:ad:be:ef:00:01");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        Self(octets)
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

/// EtherType values this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800) — the only payload NFS tracing needs.
    Ipv4,
    /// Anything else, preserved verbatim.
    Other(u16),
}

impl EtherType {
    /// The 16-bit wire value.
    pub(crate) fn as_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    /// Interprets a 16-bit wire value.
    pub(crate) fn from_u16(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// A parsed Ethernet II frame borrowing its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload protocol.
    pub ethertype: EtherType,
    /// The bytes after the header.
    pub payload: &'a [u8],
}

impl<'a> Frame<'a> {
    /// Parses a frame from raw bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] if `data` is shorter than the 14-byte header.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated {
                what: "ethernet frame",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = EtherType::from_u16(u16::from_be_bytes([data[12], data[13]]));
        Ok(Frame {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: &data[HEADER_LEN..],
        })
    }

    /// Appends the 14-byte header to `out`; the payload follows it. The
    /// one place the header layout is written — [`Frame::encode`] and
    /// [`crate::packet::PacketBuilder`] both build on it.
    pub(crate) fn write_header(
        dst: MacAddr,
        src: MacAddr,
        ethertype: EtherType,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&dst.0);
        out.extend_from_slice(&src.0);
        out.extend_from_slice(&ethertype.as_u16().to_be_bytes());
    }

    /// Serializes a frame around `payload`.
    pub fn encode(dst: MacAddr, src: MacAddr, ethertype: EtherType, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        Self::write_header(dst, src, ethertype, &mut out);
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let dst = MacAddr::new([1, 2, 3, 4, 5, 6]);
        let src = MacAddr::new([7, 8, 9, 10, 11, 12]);
        let bytes = Frame::encode(dst, src, EtherType::Ipv4, b"hello");
        let f = Frame::parse(&bytes).unwrap();
        assert_eq!(f.dst, dst);
        assert_eq!(f.src, src);
        assert_eq!(f.ethertype, EtherType::Ipv4);
        assert_eq!(f.payload, b"hello");
    }

    #[test]
    fn too_short_errors() {
        assert!(Frame::parse(&[0u8; 13]).is_err());
    }

    #[test]
    fn jumbo_payload_roundtrips() {
        // The 9000-byte jumbo frames of the CAMPUS gigabit network.
        let payload = vec![0xabu8; 9000];
        let bytes = Frame::encode(
            MacAddr::new([0xff; 6]),
            MacAddr::default(),
            EtherType::Ipv4,
            &payload,
        );
        let f = Frame::parse(&bytes).unwrap();
        assert_eq!(f.payload.len(), 9000);
    }

    #[test]
    fn other_ethertype_preserved() {
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Other(0x86dd));
        assert_eq!(EtherType::Other(0x86dd).as_u16(), 0x86dd);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            MacAddr::new([0, 0x1b, 0x21, 0xab, 0xcd, 0xef]).to_string(),
            "00:1b:21:ab:cd:ef"
        );
    }
}
