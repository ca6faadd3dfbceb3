//! Classic libpcap capture-file format (the `tcpdump` on-disk format the
//! paper's tracer was built on).
//!
//! Supports the microsecond-resolution little-endian variant, which is
//! what every contemporary tcpdump wrote, plus big-endian reading.

use crate::{Error, Result};
use std::io::{Read, Write};

/// Little-endian, microsecond-timestamp magic.
pub const MAGIC_USEC: u32 = 0xa1b2c3d4;
/// The same magic as read from an opposite-endian file.
pub const MAGIC_USEC_SWAPPED: u32 = 0xd4c3b2a1;
/// LINKTYPE_ETHERNET.
pub const LINKTYPE_ETHERNET: u32 = 1;

/// Largest per-packet captured length a reader accepts from a file
/// whose snap length is smaller (tcpdump's historical maximum).
const MAX_LENIENT_INCL_LEN: u32 = 65_535;

/// The fixed 24-byte global header of a pcap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapHeader {
    /// Snap length: maximum stored bytes per packet.
    pub snaplen: u32,
    /// Link type (always Ethernet here).
    pub linktype: u32,
}

impl Default for PcapHeader {
    fn default() -> Self {
        // 9216 comfortably covers jumbo frames (paper §3.2).
        Self {
            snaplen: 9216,
            linktype: LINKTYPE_ETHERNET,
        }
    }
}

/// One captured packet: a microsecond timestamp and the frame bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapturedPacket {
    /// Microseconds since the epoch of the simulation or system clock.
    pub timestamp_micros: u64,
    /// Original (on-the-wire) length, which may exceed `data.len()` if
    /// the snap length truncated the capture.
    pub orig_len: u32,
    /// The captured bytes.
    pub data: Vec<u8>,
}

impl CapturedPacket {
    /// Captures `data` in full at `timestamp_micros`.
    pub fn new(timestamp_micros: u64, data: Vec<u8>) -> Self {
        let orig_len = data.len() as u32;
        Self {
            timestamp_micros,
            orig_len,
            data,
        }
    }
}

/// Writes pcap files.
///
/// # Examples
///
/// ```
/// use nfstrace_net::pcap::{CapturedPacket, PcapWriter, PcapReader, PcapHeader};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut buf = Vec::new();
/// let mut w = PcapWriter::new(&mut buf, PcapHeader::default())?;
/// w.write_packet(&CapturedPacket::new(1_000_000, vec![1, 2, 3]))?;
/// drop(w);
///
/// let mut r = PcapReader::new(&buf[..])?;
/// let pkt = r.read_packet()?.expect("one packet");
/// assert_eq!(pkt.data, vec![1, 2, 3]);
/// assert!(r.read_packet()?.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PcapWriter<W: Write> {
    inner: W,
    snaplen: u32,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header and returns the writer.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn new(mut inner: W, header: PcapHeader) -> Result<Self> {
        inner.write_all(&MAGIC_USEC.to_le_bytes())?;
        inner.write_all(&2u16.to_le_bytes())?; // version major
        inner.write_all(&4u16.to_le_bytes())?; // version minor
        inner.write_all(&0i32.to_le_bytes())?; // thiszone
        inner.write_all(&0u32.to_le_bytes())?; // sigfigs
        inner.write_all(&header.snaplen.to_le_bytes())?;
        inner.write_all(&header.linktype.to_le_bytes())?;
        Ok(Self {
            inner,
            snaplen: header.snaplen,
        })
    }

    /// Appends one packet record, truncating to the snap length.
    ///
    /// # Errors
    ///
    /// Any I/O error from the underlying writer.
    pub fn write_packet(&mut self, pkt: &CapturedPacket) -> Result<()> {
        let secs = (pkt.timestamp_micros / 1_000_000) as u32;
        let usecs = (pkt.timestamp_micros % 1_000_000) as u32;
        let incl = pkt.data.len().min(self.snaplen as usize);
        self.inner.write_all(&secs.to_le_bytes())?;
        self.inner.write_all(&usecs.to_le_bytes())?;
        self.inner.write_all(&(incl as u32).to_le_bytes())?;
        self.inner.write_all(&pkt.orig_len.to_le_bytes())?;
        self.inner.write_all(&pkt.data[..incl])?;
        Ok(())
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Reads pcap files in either byte order.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    /// The file's global header, as parsed.
    pub header: PcapHeader,
}

impl<R: Read> PcapReader<R> {
    /// Parses the global header and returns the reader.
    ///
    /// # Errors
    ///
    /// [`Error::BadMagic`] for unknown file magic, or I/O errors.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let swapped = match magic {
            MAGIC_USEC => false,
            MAGIC_USEC_SWAPPED => true,
            other => return Err(Error::BadMagic(other)),
        };
        let rd32 = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        Ok(Self {
            inner,
            swapped,
            header: PcapHeader {
                snaplen: rd32(&hdr[16..20]),
                linktype: rd32(&hdr[20..24]),
            },
        })
    }

    /// Reads the next packet, or `None` at end of file.
    ///
    /// # Errors
    ///
    /// I/O errors, including truncation mid-record, or
    /// [`Error::Unsupported`] for a record header claiming more
    /// captured bytes than `max(snaplen, 65 535)` — rejected before
    /// anything is allocated for it.
    pub fn read_packet(&mut self) -> Result<Option<CapturedPacket>> {
        let mut rec = [0u8; 16];
        match self.inner.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let rd32 = |b: &[u8]| {
            let arr = [b[0], b[1], b[2], b[3]];
            if self.swapped {
                u32::from_be_bytes(arr)
            } else {
                u32::from_le_bytes(arr)
            }
        };
        let secs = u64::from(rd32(&rec[0..4]));
        let usecs = u64::from(rd32(&rec[4..8]));
        let incl = rd32(&rec[8..12]);
        let orig_len = rd32(&rec[12..16]);
        // The length is the file's claim: bound it before allocating.
        // A global header may understate the snap length (or leave it
        // 0), so lengths up to the classic 65 535-byte maximum pass.
        if incl > self.header.snaplen.max(MAX_LENIENT_INCL_LEN) {
            return Err(Error::Unsupported {
                what: "pcap record captured length",
                value: incl,
            });
        }
        let mut data = vec![0u8; incl as usize];
        self.inner.read_exact(&mut data)?;
        Ok(Some(CapturedPacket {
            timestamp_micros: secs * 1_000_000 + usecs,
            orig_len,
            data,
        }))
    }

    /// Iterates over all remaining packets.
    pub fn packets(self) -> Packets<R> {
        Packets { reader: self }
    }
}

/// Iterator over the packets of a [`PcapReader`].
#[derive(Debug)]
pub struct Packets<R: Read> {
    reader: PcapReader<R>,
}

impl<R: Read> Iterator for Packets<R> {
    type Item = Result<CapturedPacket>;

    fn next(&mut self) -> Option<Self::Item> {
        self.reader.read_packet().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_packets() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, PcapHeader::default()).unwrap();
            for i in 0..5u8 {
                w.write_packet(&CapturedPacket::new(
                    u64::from(i) * 1_500_000,
                    vec![i; usize::from(i) + 1],
                ))
                .unwrap();
            }
        }
        let r = PcapReader::new(&buf[..]).unwrap();
        assert_eq!(r.header.linktype, LINKTYPE_ETHERNET);
        let pkts: Vec<_> = r.packets().collect::<Result<_>>().unwrap();
        assert_eq!(pkts.len(), 5);
        assert_eq!(pkts[3].timestamp_micros, 4_500_000);
        assert_eq!(pkts[3].data, vec![3; 4]);
    }

    #[test]
    fn snaplen_truncates_but_keeps_orig_len() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(
                &mut buf,
                PcapHeader {
                    snaplen: 4,
                    linktype: LINKTYPE_ETHERNET,
                },
            )
            .unwrap();
            w.write_packet(&CapturedPacket::new(0, vec![7; 100]))
                .unwrap();
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let p = r.read_packet().unwrap().unwrap();
        assert_eq!(p.data.len(), 4);
        assert_eq!(p.orig_len, 100);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = [0u8; 24];
        buf[0] = 0x11;
        assert!(matches!(PcapReader::new(&buf[..]), Err(Error::BadMagic(_))));
    }

    #[test]
    fn big_endian_file_is_read() {
        // Hand-build a big-endian header plus one empty packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&9216u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&3u32.to_be_bytes()); // secs
        buf.extend_from_slice(&7u32.to_be_bytes()); // usecs
        buf.extend_from_slice(&2u32.to_be_bytes()); // incl
        buf.extend_from_slice(&2u32.to_be_bytes()); // orig
        buf.extend_from_slice(&[0xaa, 0xbb]);
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let p = r.read_packet().unwrap().unwrap();
        assert_eq!(p.timestamp_micros, 3_000_007);
        assert_eq!(p.data, vec![0xaa, 0xbb]);
    }

    /// A 16-byte record header must not be able to demand a 4 GiB
    /// buffer: the claimed length is rejected before allocation, in
    /// either byte order, while lengths up to the lenient cap pass the
    /// check (and then fail as plain truncation).
    #[test]
    fn oversized_captured_length_is_rejected_before_allocating() {
        for big_endian in [false, true] {
            let w32 = |v: u32| {
                if big_endian {
                    v.to_be_bytes()
                } else {
                    v.to_le_bytes()
                }
            };
            let file = |incl: u32| {
                let mut buf = Vec::new();
                buf.extend_from_slice(&w32(MAGIC_USEC));
                buf.extend_from_slice(&[0; 12]); // version, zone, sigfigs
                buf.extend_from_slice(&w32(9216));
                buf.extend_from_slice(&w32(LINKTYPE_ETHERNET));
                for v in [1, 2, incl, incl] {
                    buf.extend_from_slice(&w32(v));
                }
                buf
            };
            for incl in [u32::MAX, MAX_LENIENT_INCL_LEN + 1] {
                let buf = file(incl);
                let mut r = PcapReader::new(&buf[..]).unwrap();
                assert_eq!(r.header.snaplen, 9216);
                assert!(
                    matches!(
                        r.read_packet(),
                        Err(Error::Unsupported { value, .. }) if value == incl
                    ),
                    "incl_len {incl}, big_endian {big_endian}"
                );
            }
            let buf = file(MAX_LENIENT_INCL_LEN);
            let mut r = PcapReader::new(&buf[..]).unwrap();
            assert!(matches!(r.read_packet(), Err(Error::Io(_))));
        }
    }

    #[test]
    fn empty_file_yields_none() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf, PcapHeader::default()).unwrap();
        let mut r = PcapReader::new(&buf[..]).unwrap();
        assert!(r.read_packet().unwrap().is_none());
    }
}
