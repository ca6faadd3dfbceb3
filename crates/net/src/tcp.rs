//! TCP segment header handling.
//!
//! All CAMPUS clients spoke NFSv3 over TCP (paper §3.2). The sniffer must
//! reassemble the byte stream (see [`crate::reassembly`]) and then split
//! RPC messages out of it via record marking (`nfstrace-rpc`).

use crate::{Error, Result};

/// Minimum TCP header length (no options).
pub const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits, as in the wire format's flags octet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// PSH: push buffered data to the application.
    pub const PSH: u8 = 0x08;
    /// ACK: acknowledgment field is valid.
    pub const ACK: u8 = 0x10;

    /// Whether the given flag bit(s) are all set.
    pub fn contains(self, bits: u8) -> bool {
        self.0 & bits == bits
    }
}

/// A parsed TCP segment borrowing its payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number of the first payload byte.
    pub seq: u32,
    /// Acknowledgment number (meaningful when ACK set).
    pub ack: u32,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u16,
    /// Payload after the header and options.
    pub payload: &'a [u8],
}

impl<'a> TcpSegment<'a> {
    /// Parses a segment, skipping options.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] for short buffers; [`Error::Unsupported`] for
    /// a data-offset field below the minimum.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < MIN_HEADER_LEN {
            return Err(Error::Truncated {
                what: "tcp header",
                needed: MIN_HEADER_LEN,
                got: data.len(),
            });
        }
        let data_off = usize::from(data[12] >> 4) * 4;
        if data_off < MIN_HEADER_LEN {
            return Err(Error::Unsupported {
                what: "tcp data offset",
                value: data_off as u32,
            });
        }
        if data.len() < data_off {
            return Err(Error::Truncated {
                what: "tcp options",
                needed: data_off,
                got: data.len(),
            });
        }
        Ok(TcpSegment {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            flags: TcpFlags(data[13]),
            window: u16::from_be_bytes([data[14], data[15]]),
            payload: &data[data_off..],
        })
    }

    /// Appends a minimal (option-free) 20-byte header to `out`; the
    /// payload follows it. The one place the header layout is written —
    /// [`TcpSegment::encode`] and [`crate::packet::PacketBuilder`] both
    /// build on it.
    pub(crate) fn write_header(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        out: &mut Vec<u8>,
    ) {
        out.extend_from_slice(&src_port.to_be_bytes());
        out.extend_from_slice(&dst_port.to_be_bytes());
        out.extend_from_slice(&seq.to_be_bytes());
        out.extend_from_slice(&ack.to_be_bytes());
        out.push(5 << 4); // data offset = 5 words
        out.push(flags.0);
        out.extend_from_slice(&65535u16.to_be_bytes()); // window
        out.extend_from_slice(&0u16.to_be_bytes()); // checksum (not computed)
        out.extend_from_slice(&0u16.to_be_bytes()); // urgent pointer
    }

    /// Serializes a minimal (option-free) segment around `payload`.
    pub fn encode(
        src_port: u16,
        dst_port: u16,
        seq: u32,
        ack: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(MIN_HEADER_LEN + payload.len());
        Self::write_header(src_port, dst_port, seq, ack, flags, &mut out);
        out.extend_from_slice(payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let bytes = TcpSegment::encode(
            700,
            2049,
            1000,
            2000,
            TcpFlags(TcpFlags::ACK | TcpFlags::PSH),
            b"stream data",
        );
        let s = TcpSegment::parse(&bytes).unwrap();
        assert_eq!(s.src_port, 700);
        assert_eq!(s.dst_port, 2049);
        assert_eq!(s.seq, 1000);
        assert_eq!(s.ack, 2000);
        assert!(s.flags.contains(TcpFlags::ACK));
        assert!(s.flags.contains(TcpFlags::PSH));
        assert_eq!(s.flags, TcpFlags(TcpFlags::ACK | TcpFlags::PSH));
        assert_eq!(s.payload, b"stream data");
    }

    #[test]
    fn options_are_skipped() {
        // Hand-build a header with data offset 6 (one option word).
        let mut bytes = TcpSegment::encode(1, 2, 0, 0, TcpFlags(TcpFlags::ACK), b"");
        bytes[12] = 6 << 4;
        bytes.extend_from_slice(&[1, 1, 1, 1]); // NOP options
        bytes.extend_from_slice(b"xy");
        let s = TcpSegment::parse(&bytes).unwrap();
        assert_eq!(s.payload, b"xy");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut bytes = TcpSegment::encode(1, 2, 0, 0, TcpFlags::default(), b"");
        bytes[12] = 2 << 4;
        assert!(matches!(
            TcpSegment::parse(&bytes),
            Err(Error::Unsupported { .. })
        ));
    }

    #[test]
    fn short_buffer_rejected() {
        assert!(TcpSegment::parse(&[0u8; 10]).is_err());
    }
}
