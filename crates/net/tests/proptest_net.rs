//! Property tests for the network substrate.
//!
//! The central invariant: TCP reassembly recovers exactly the original
//! byte stream under arbitrary segmentation, arbitrary delivery order,
//! and duplication — the conditions a mirror port actually produces.

use nfstrace_net::ethernet::{self, EtherType, Frame, MacAddr};
use nfstrace_net::ipv4::{self, Ipv4Addr4, Ipv4Packet, PROTO_TCP, PROTO_UDP};
use nfstrace_net::packet::{DecodedPacket, PacketBuilder, Transport};
use nfstrace_net::pcap::{CapturedPacket, PcapHeader, PcapReader, PcapWriter};
use nfstrace_net::reassembly::StreamReassembler;
use nfstrace_net::tcp::{TcpFlags, TcpSegment};
use nfstrace_net::udp::UdpDatagram;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

proptest! {
    #[test]
    fn reassembly_recovers_stream(
        stream in proptest::collection::vec(any::<u8>(), 1..4096),
        cuts in proptest::collection::vec(any::<u16>(), 0..32),
        seed in any::<u64>(),
        initial_seq in any::<u32>(),
        dup_first in any::<bool>(),
    ) {
        // Cut the stream into segments at arbitrary points.
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&c| usize::from(c) % stream.len())
            .collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();
        let mut segments: Vec<(usize, &[u8])> = points
            .windows(2)
            .map(|w| (w[0], &stream[w[0]..w[1]]))
            .collect();

        // Shuffle delivery order deterministically; optionally duplicate
        // the first segment to exercise the dedup path.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        segments.shuffle(&mut rng);
        if dup_first && !segments.is_empty() {
            segments.push(segments[0]);
        }

        let mut r = StreamReassembler::new(initial_seq);
        let mut out = Vec::new();
        for (off, seg) in segments {
            r.push(initial_seq.wrapping_add(off as u32), seg);
            out.extend_from_slice(r.read_available());
        }
        out.extend_from_slice(r.read_available());
        prop_assert_eq!(out, stream);
        prop_assert!(!r.has_gap());
    }

    /// `push_read` is `push` + `read_available` without the copy: over
    /// one stream mixing in-order runs, reordering, duplicates, overlaps
    /// and gaps that are skipped, two reassemblers fed the same segments
    /// — one per form, a third mixing both — hand out the same bytes at
    /// every step and agree on the frontier, the parked bytes and the
    /// gap.
    #[test]
    fn push_read_equals_push_then_read_available(
        stream in proptest::collection::vec(any::<u8>(), 64..2048),
        segments in proptest::collection::vec(
            // Start (of the stream's length, in 1/1024ths, from the
            // previous segment's end when in order), length, in order?,
            // which form the mixed reassembler uses, skip a gap after?
            (any::<u16>(), 1usize..200, 0u8..4, any::<bool>(), 0u8..8),
            1..48,
        ),
        initial_seq in any::<u32>(),
    ) {
        let mut staged = StreamReassembler::new(initial_seq);
        let mut borrowed = StreamReassembler::new(initial_seq);
        let mut mixed = StreamReassembler::new(initial_seq);
        let mut next = 0usize;
        for (at, len, in_order, mix_borrowed, skip) in segments {
            // Three in four segments continue where the last one ended
            // (the fast path); the rest land anywhere: behind the
            // frontier (duplicate, overlap) or beyond it (gap).
            let start = if in_order > 0 {
                next % stream.len()
            } else {
                usize::from(at) * stream.len() / 65_536
            };
            let end = (start + len).min(stream.len());
            next = end;
            let (seq, seg) = (initial_seq.wrapping_add(start as u32), &stream[start..end]);

            staged.push(seq, seg);
            let want = staged.read_available().to_vec();
            prop_assert_eq!(borrowed.push_read(seq, seg), &want[..]);
            if mix_borrowed {
                prop_assert_eq!(mixed.push_read(seq, seg), &want[..]);
            } else {
                mixed.push(seq, seg);
                prop_assert_eq!(mixed.read_available(), &want[..]);
            }
            if skip == 0 {
                let skipped = staged.skip_gap();
                prop_assert_eq!(borrowed.skip_gap(), skipped);
                prop_assert_eq!(mixed.skip_gap(), skipped);
                let want = staged.read_available().to_vec();
                prop_assert_eq!(borrowed.read_available(), &want[..]);
                prop_assert_eq!(mixed.read_available(), &want[..]);
            }
            for other in [&borrowed, &mixed] {
                prop_assert_eq!(other.next_seq(), staged.next_seq());
                prop_assert_eq!(other.pending_bytes(), staged.pending_bytes());
                prop_assert_eq!(other.gap_len(), staged.gap_len());
            }
        }
    }

    /// Several `push`es before one read: `push_read` as the last feed
    /// returns everything staged plus its own bytes, in stream order.
    #[test]
    fn push_read_after_unread_pushes_keeps_stream_order(
        stream in proptest::collection::vec(any::<u8>(), 3..512),
        a in any::<u16>(),
        b in any::<u16>(),
    ) {
        let (a, b) = (usize::from(a) % stream.len(), usize::from(b) % stream.len());
        let (a, b) = (a.min(b), a.max(b));
        let mut r = StreamReassembler::new(7);
        r.push(7, &stream[..a]);
        r.push(7 + a as u32, &stream[a..b]);
        prop_assert_eq!(r.push_read(7 + b as u32, &stream[b..]), &stream[..]);
        prop_assert!(r.read_available().is_empty());
    }

    #[test]
    fn udp_frame_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        sport in any::<u16>(),
        dport in any::<u16>(),
        sip in any::<u32>(),
        dip in any::<u32>(),
    ) {
        let frame = PacketBuilder::udp(
            MacAddr::new([1, 2, 3, 4, 5, 6]),
            MacAddr::new([6, 5, 4, 3, 2, 1]),
            Ipv4Addr4::from_u32(sip),
            Ipv4Addr4::from_u32(dip),
            sport,
            dport,
            payload.clone(),
        );
        let d = DecodedPacket::parse(&frame).unwrap();
        prop_assert_eq!(d.transport, Transport::Udp);
        prop_assert_eq!(d.src_ip.as_u32(), sip);
        prop_assert_eq!(d.dst_ip.as_u32(), dip);
        prop_assert_eq!(d.src_port, sport);
        prop_assert_eq!(d.dst_port, dport);
        prop_assert_eq!(d.payload, payload);
    }

    /// The single-buffer frame builder against the layer-by-layer
    /// composition it replaces: the same bytes, for both transports.
    #[test]
    fn packet_builder_equals_the_layered_encoders(
        payload in proptest::collection::vec(any::<u8>(), 0..9001),
        macs in any::<u64>(),
        sip in any::<u32>(),
        dip in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
    ) {
        let [_, _, m @ ..] = macs.to_be_bytes();
        let (smac, dmac) = (MacAddr::new(m), MacAddr::new(m.map(|b| !b)));
        let (sip, dip) = (Ipv4Addr4::from_u32(sip), Ipv4Addr4::from_u32(dip));
        let ip_header = ethernet::HEADER_LEN..ethernet::HEADER_LEN + ipv4::MIN_HEADER_LEN;

        let tcp = PacketBuilder::tcp(smac, dmac, sip, dip, sport, dport, seq, payload.clone());
        let flags = TcpFlags(TcpFlags::ACK | TcpFlags::PSH);
        let segment = TcpSegment::encode(sport, dport, seq, 0, flags, &payload);
        let packet = Ipv4Packet::encode(sip, dip, PROTO_TCP, 0, &segment);
        prop_assert_eq!(&tcp, &Frame::encode(dmac, smac, EtherType::Ipv4, &packet));
        prop_assert!(Ipv4Packet::verify_checksum(&tcp[ip_header.clone()]));

        let udp = PacketBuilder::udp(smac, dmac, sip, dip, sport, dport, payload.clone());
        let datagram = UdpDatagram::encode(sport, dport, &payload);
        let packet = Ipv4Packet::encode(sip, dip, PROTO_UDP, 0, &datagram);
        prop_assert_eq!(&udp, &Frame::encode(dmac, smac, EtherType::Ipv4, &packet));
        prop_assert!(Ipv4Packet::verify_checksum(&udp[ip_header]));
    }

    #[test]
    fn pcap_roundtrip(
        pkts in proptest::collection::vec(
            (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..256)),
            0..20,
        ),
        keep in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, PcapHeader::default()).unwrap();
            for (ts, data) in &pkts {
                w.write_packet(&CapturedPacket::new(u64::from(*ts), data.clone())).unwrap();
            }
        }
        let r = PcapReader::new(&buf[..]).unwrap();
        let read: Vec<_> = r.packets().collect::<Result<Vec<_>, _>>().unwrap();
        prop_assert_eq!(read.len(), pkts.len());
        for (got, (ts, data)) in read.iter().zip(&pkts) {
            prop_assert_eq!(got.timestamp_micros, u64::from(*ts));
            prop_assert_eq!(&got.data, data);
        }

        // The reader lends its frame buffer to a packet and takes it
        // back when the packet is dropped: whichever packets the caller
        // keeps, and for however long, each holds the bytes it was read
        // with.
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let mut kept = Vec::new();
        for (i, (_, data)) in pkts.iter().enumerate() {
            let got = r.read_packet().unwrap().unwrap();
            prop_assert_eq!(&got.data, data);
            if keep[i] {
                kept.push((i, got.clone()));
                kept.push((i, got));
            } else if i % 2 == 0 {
                kept.pop();
            }
            for (j, k) in &kept {
                prop_assert_eq!(&k.data, &pkts[*j].1);
            }
        }
        prop_assert!(r.read_packet().unwrap().is_none());
    }

    #[test]
    fn decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = DecodedPacket::parse(&data);
    }
}
