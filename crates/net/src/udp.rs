//! UDP datagram header handling.
//!
//! All EECS clients spoke NFS over UDP (paper §3.1), so the sniffer's UDP
//! path is the hot path for that trace.

use crate::{Error, Result};

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// The longest payload one datagram carries over option-free IPv4.
pub const MAX_PAYLOAD_LEN: usize = u16::MAX as usize - crate::ipv4::MIN_HEADER_LEN - HEADER_LEN;

/// The well-known NFS server port.
pub const NFS_PORT: u16 = 2049;

/// A parsed UDP datagram borrowing its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload after the 8-byte header.
    pub payload: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// Parses a datagram, honoring the length field.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] if the buffer is shorter than the header or
    /// the declared length.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated {
                what: "udp header",
                needed: HEADER_LEN,
                got: data.len(),
            });
        }
        let len = usize::from(u16::from_be_bytes([data[4], data[5]]));
        if len < HEADER_LEN || data.len() < len {
            return Err(Error::Truncated {
                what: "udp datagram",
                needed: len,
                got: data.len(),
            });
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: &data[HEADER_LEN..len],
        })
    }

    /// Appends the 8-byte header for a payload of `payload_len` bytes to
    /// `out` (checksum zero: legal for IPv4 UDP and what many NFS stacks
    /// of the era actually sent); the payload follows it. The one place
    /// the header layout is written — [`UdpDatagram::encode`] and
    /// [`crate::packet::PacketBuilder`] both build on it. Panics if the
    /// 16-bit length field cannot count the datagram.
    pub fn write_header(src_port: u16, dst_port: u16, payload_len: usize, out: &mut Vec<u8>) {
        let Ok(len) = u16::try_from(HEADER_LEN + payload_len) else {
            panic!("a {payload_len}-byte UDP payload exceeds the 65527-byte limit");
        };
        out.extend_from_slice(&src_port.to_be_bytes());
        out.extend_from_slice(&dst_port.to_be_bytes());
        out.extend_from_slice(&len.to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes());
    }

    /// Serializes a datagram around `payload`.
    pub fn encode(src_port: u16, dst_port: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        Self::write_header(src_port, dst_port, payload.len(), &mut out);
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bytes = UdpDatagram::encode(1023, NFS_PORT, b"rpc call");
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert_eq!(d.src_port, 1023);
        assert_eq!(d.dst_port, NFS_PORT);
        assert_eq!(d.payload, b"rpc call");
    }

    #[test]
    #[should_panic(expected = "exceeds the 65527-byte limit")]
    fn header_refuses_a_length_it_cannot_count() {
        UdpDatagram::write_header(1, 2, 70_000, &mut Vec::new());
    }

    #[test]
    fn short_header_rejected() {
        assert!(UdpDatagram::parse(&[0u8; 7]).is_err());
    }

    #[test]
    fn length_field_truncates_trailer() {
        let mut bytes = UdpDatagram::encode(1, 2, b"abc");
        bytes.extend_from_slice(&[9, 9, 9]);
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert_eq!(d.payload, b"abc");
    }

    #[test]
    fn declared_length_beyond_buffer_rejected() {
        let mut bytes = UdpDatagram::encode(1, 2, b"abc");
        bytes[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert!(UdpDatagram::parse(&bytes).is_err());
    }

    #[test]
    fn empty_payload() {
        let bytes = UdpDatagram::encode(5, 6, b"");
        let d = UdpDatagram::parse(&bytes).unwrap();
        assert!(d.payload.is_empty());
    }
}
