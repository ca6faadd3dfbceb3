//! Whole-packet composition and decomposition.
//!
//! [`PacketBuilder`] assembles Ethernet/IPv4/UDP (or TCP) frames for the
//! workload simulator; [`DecodedPacket`] is the sniffer's first parsing
//! stage, peeling the three headers off a captured frame.

use crate::ethernet::{EtherType, Frame, MacAddr};
use crate::ipv4::{Ipv4Addr4, Ipv4Packet, PROTO_TCP, PROTO_UDP};
use crate::tcp::{TcpFlags, TcpSegment};
use crate::udp::UdpDatagram;
use crate::{ethernet, ipv4, tcp, udp, Result};

/// Which transport a decoded packet used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// UDP, with no stream state.
    Udp,
    /// TCP, with the segment's sequence number for reassembly.
    Tcp {
        /// Sequence number of the first payload byte.
        seq: u32,
        /// Raw flag bits.
        flags: u8,
    },
}

/// A fully decoded frame: addresses, ports, transport, and payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedPacket {
    /// IP source address.
    pub src_ip: Ipv4Addr4,
    /// IP destination address.
    pub dst_ip: Ipv4Addr4,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// Transport kind plus stream metadata.
    pub transport: Transport,
    /// The transport payload (an RPC message or stream fragment).
    pub payload: Vec<u8>,
}

impl DecodedPacket {
    /// Decodes an Ethernet frame down to its transport payload.
    ///
    /// This is [`PacketView::parse`] plus one copy of the payload; use
    /// the view form when the payload only needs to be looked at, not
    /// kept.
    ///
    /// # Errors
    ///
    /// Any truncation or unsupported field from the ethernet, ipv4, udp,
    /// or tcp parsers.
    pub fn parse(frame: &[u8]) -> Result<Self> {
        PacketView::parse(frame).map(PacketView::to_owned)
    }
}

/// A decoded frame whose payload is a view into the captured bytes.
///
/// The borrow is tied to the frame slice, not to any parser state, so
/// the payload stays valid for as long as the capture buffer does.
/// [`DecodedPacket::parse`] is this plus [`PacketView::to_owned`], so
/// the two parsers accept and reject exactly the same frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketView<'a> {
    /// IP source address.
    pub src_ip: Ipv4Addr4,
    /// IP destination address.
    pub dst_ip: Ipv4Addr4,
    /// Transport source port.
    pub src_port: u16,
    /// Transport destination port.
    pub dst_port: u16,
    /// Transport kind plus stream metadata.
    pub transport: Transport,
    /// The transport payload, borrowed from the frame.
    pub payload: &'a [u8],
}

impl<'a> PacketView<'a> {
    /// Decodes an Ethernet frame down to its transport payload without
    /// copying it.
    ///
    /// # Errors
    ///
    /// Any truncation or unsupported field from the ethernet, ipv4, udp,
    /// or tcp parsers.
    pub fn parse(frame: &'a [u8]) -> Result<Self> {
        let eth = Frame::parse(frame)?;
        let ip = Ipv4Packet::parse(eth.payload)?;
        match ip.protocol {
            PROTO_UDP => {
                let udp = UdpDatagram::parse(ip.payload)?;
                Ok(PacketView {
                    src_ip: ip.src,
                    dst_ip: ip.dst,
                    src_port: udp.src_port,
                    dst_port: udp.dst_port,
                    transport: Transport::Udp,
                    payload: udp.payload,
                })
            }
            PROTO_TCP => {
                let tcp = TcpSegment::parse(ip.payload)?;
                Ok(PacketView {
                    src_ip: ip.src,
                    dst_ip: ip.dst,
                    src_port: tcp.src_port,
                    dst_port: tcp.dst_port,
                    transport: Transport::Tcp {
                        seq: tcp.seq,
                        flags: tcp.flags.0,
                    },
                    payload: tcp.payload,
                })
            }
            other => Err(crate::Error::Unsupported {
                what: "ip protocol",
                value: u32::from(other),
            }),
        }
    }

    /// Materializes an owned [`DecodedPacket`], copying the payload.
    pub fn to_owned(self) -> DecodedPacket {
        DecodedPacket {
            src_ip: self.src_ip,
            dst_ip: self.dst_ip,
            src_port: self.src_port,
            dst_port: self.dst_port,
            transport: self.transport,
            payload: self.payload.to_vec(),
        }
    }
}

/// Constructors for complete frames, each built in a single `Vec`.
///
/// Every layer's header is written straight into the frame by that
/// layer's `write_header` ([`Frame`], [`Ipv4Packet`], [`TcpSegment`],
/// [`UdpDatagram`]) — the same functions the per-layer `encode`s are
/// made of, so a frame from here is byte for byte the composition
/// `Frame::encode(Ipv4Packet::encode(TcpSegment::encode(..)))` without
/// its two intermediate buffers. [`PacketBuilder::udp`] and
/// [`PacketBuilder::tcp`] take the payload whole; the `write_*_headers`
/// forms stop after the headers, written into a buffer the caller
/// already has (a lent frame buffer, reused frame to frame), so a
/// caller whose payload lies in several pieces (a record mark and a
/// slice of a message) can append them itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct PacketBuilder;

impl PacketBuilder {
    /// Appends the Ethernet/IPv4/UDP headers of a frame whose payload
    /// is `payload_len` bytes to `out`, growing `out`, if need be, to
    /// hold the whole frame: append exactly `payload_len` bytes to
    /// complete it.
    #[allow(clippy::too_many_arguments)]
    pub fn write_udp_headers(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr4,
        dst_ip: Ipv4Addr4,
        src_port: u16,
        dst_port: u16,
        payload_len: usize,
        out: &mut Vec<u8>,
    ) {
        let udp_len = udp::HEADER_LEN + payload_len;
        out.reserve(ethernet::HEADER_LEN + ipv4::MIN_HEADER_LEN + udp_len);
        Frame::write_header(dst_mac, src_mac, EtherType::Ipv4, out);
        Ipv4Packet::write_header(src_ip, dst_ip, PROTO_UDP, 0, udp_len, out);
        UdpDatagram::write_header(src_port, dst_port, payload_len, out);
    }

    /// Appends the Ethernet/IPv4/TCP headers (`ACK | PSH`, no options)
    /// of a frame carrying `payload_len` bytes at `seq` to `out`,
    /// growing `out`, if need be, to hold the whole frame: append
    /// exactly `payload_len` bytes to complete it.
    #[allow(clippy::too_many_arguments)]
    pub fn write_tcp_headers(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr4,
        dst_ip: Ipv4Addr4,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        payload_len: usize,
        out: &mut Vec<u8>,
    ) {
        let tcp_len = tcp::MIN_HEADER_LEN + payload_len;
        out.reserve(ethernet::HEADER_LEN + ipv4::MIN_HEADER_LEN + tcp_len);
        Frame::write_header(dst_mac, src_mac, EtherType::Ipv4, out);
        Ipv4Packet::write_header(src_ip, dst_ip, PROTO_TCP, 0, tcp_len, out);
        let flags = TcpFlags(TcpFlags::ACK | TcpFlags::PSH);
        TcpSegment::write_header(src_port, dst_port, seq, 0, flags, out);
    }

    /// Builds an Ethernet/IPv4/UDP frame.
    #[allow(clippy::too_many_arguments)]
    pub fn udp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr4,
        dst_ip: Ipv4Addr4,
        src_port: u16,
        dst_port: u16,
        payload: Vec<u8>,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        Self::write_udp_headers(
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            payload.len(),
            &mut out,
        );
        out.extend_from_slice(&payload);
        out
    }

    /// Builds an Ethernet/IPv4/TCP frame carrying `payload` at `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr4,
        dst_ip: Ipv4Addr4,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        payload: Vec<u8>,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        Self::write_tcp_headers(
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            seq,
            payload.len(),
            &mut out,
        );
        out.extend_from_slice(&payload);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn macs() -> (MacAddr, MacAddr) {
        (
            MacAddr::new([0, 0, 0, 0, 0, 1]),
            MacAddr::new([0, 0, 0, 0, 0, 2]),
        )
    }

    #[test]
    fn udp_roundtrip() {
        let (m1, m2) = macs();
        let frame = PacketBuilder::udp(
            m1,
            m2,
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(10, 0, 0, 2),
            900,
            2049,
            b"call".to_vec(),
        );
        let d = DecodedPacket::parse(&frame).unwrap();
        assert_eq!(d.transport, Transport::Udp);
        assert_eq!(d.src_port, 900);
        assert_eq!(d.dst_port, 2049);
        assert_eq!(d.payload, b"call");
    }

    #[test]
    fn tcp_roundtrip_preserves_seq() {
        let (m1, m2) = macs();
        let frame = PacketBuilder::tcp(
            m1,
            m2,
            Ipv4Addr4::new(10, 0, 0, 1),
            Ipv4Addr4::new(10, 0, 0, 2),
            700,
            2049,
            123456,
            b"streambytes".to_vec(),
        );
        let d = DecodedPacket::parse(&frame).unwrap();
        match d.transport {
            Transport::Tcp { seq, .. } => assert_eq!(seq, 123456),
            other => panic!("expected tcp, got {other:?}"),
        }
        assert_eq!(d.payload, b"streambytes");
    }

    #[test]
    fn non_ip_protocol_rejected() {
        let (m1, m2) = macs();
        let ip = Ipv4Packet::encode(
            Ipv4Addr4::new(1, 1, 1, 1),
            Ipv4Addr4::new(2, 2, 2, 2),
            1, // ICMP
            0,
            b"ping",
        );
        let frame = Frame::encode(m2, m1, EtherType::Ipv4, &ip);
        assert!(DecodedPacket::parse(&frame).is_err());
    }
}
