//! Classic libpcap capture-file format (the `tcpdump` on-disk format the
//! paper's tracer was built on).
//!
//! Supports the microsecond-resolution little-endian variant, which is
//! what every contemporary tcpdump wrote, plus big-endian reading.

use crate::{Error, Result};
use std::io::{Read, Write};
use std::ops::Deref;
use std::sync::Arc;

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

/// The owned bytes of one captured frame; derefs to `[u8]`.
///
/// Two representations, indistinguishable through the slice:
///
/// * a plain `Vec<u8>` — what [`CapturedPacket::new`] wraps (no extra
///   allocation, the vector moves in) and what a [`FrameLender`] hands
///   out while an earlier packet of its is still alive;
/// * a prefix of a [`FrameLender`]'s **lent** frame buffer. The lender
///   shares one buffer with the packet it last produced and writes the
///   next frame into the same storage once that packet has been
///   dropped, so a loop that observes each packet and lets it go — the
///   streaming capture path, the serving loop's tap — neither allocates
///   nor zero-fills per frame.
///
/// Lending is safe to ignore: a packet that is kept (collected, cloned,
/// batched) keeps its bytes for as long as it lives, because the lender
/// reuses the buffer only when it is the sole owner again.
#[derive(Clone)]
pub struct FrameBytes(Repr);

#[derive(Clone)]
enum Repr {
    Owned(Vec<u8>),
    /// The first `len` bytes of a buffer shared with a [`FrameLender`].
    /// The buffer keeps its high-water length so that reuse never
    /// zero-fills; `len` is this frame's part of it.
    Lent {
        buf: Arc<Vec<u8>>,
        len: usize,
    },
}

impl Deref for FrameBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(v) => v,
            Repr::Lent { buf, len } => &buf[..*len],
        }
    }
}

impl From<Vec<u8>> for FrameBytes {
    fn from(v: Vec<u8>) -> Self {
        FrameBytes(Repr::Owned(v))
    }
}

impl std::fmt::Debug for FrameBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for FrameBytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for FrameBytes {}

impl PartialEq<Vec<u8>> for FrameBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        **self == **other
    }
}

/// The one frame buffer behind [`FrameBytes`]' lent form: every frame
/// producer that hands out packets one at a time — [`PcapReader`], and
/// the wire encoder's frame cursor — lends through one of these.
///
/// [`FrameLender::lend`] writes the next frame into the buffer the last
/// frame was lent from when that frame is gone (the lender is the
/// buffer's sole owner again), and into a fresh `Vec` otherwise. A
/// consumer that drops each packet before asking for the next thus
/// costs no allocation per frame; one that keeps packets gets plain
/// allocations, never bytes overwritten under it.
#[derive(Debug, Default)]
pub struct FrameLender {
    buf: Arc<Vec<u8>>,
}

impl FrameLender {
    /// A lender with an empty buffer; it grows to the largest frame
    /// lent from it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Produces one frame: `fill` writes it into the vector it is given
    /// and returns its length, the frame being that prefix of the
    /// vector. The vector is the lent buffer — holding the previous
    /// frames' bytes, its length their high-water mark, so a fill that
    /// overwrites a prefix need not zero it — or, while the last frame
    /// is still alive, an empty `Vec` of the frame's own.
    ///
    /// # Errors
    ///
    /// Whatever `fill` returns; the frame is then discarded.
    pub fn lend<E>(
        &mut self,
        fill: impl FnOnce(&mut Vec<u8>) -> std::result::Result<usize, E>,
    ) -> std::result::Result<FrameBytes, E> {
        let repr = match Arc::get_mut(&mut self.buf) {
            // The previous frame is gone: reuse the buffer it had.
            Some(buf) => {
                let len = fill(buf)?;
                Repr::Lent {
                    buf: Arc::clone(&self.buf),
                    len,
                }
            }
            // The caller kept it: this frame owns a plain allocation.
            None => {
                let mut data = Vec::new();
                let len = fill(&mut data)?;
                data.truncate(len);
                Repr::Owned(data)
            }
        };
        Ok(FrameBytes(repr))
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
    pub data: FrameBytes,
}

impl CapturedPacket {
    /// Captures `data` in full at `timestamp_micros`.
    pub fn new(timestamp_micros: u64, data: Vec<u8>) -> Self {
        let orig_len = data.len() as u32;
        Self {
            timestamp_micros,
            orig_len,
            data: data.into(),
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
///
/// The reader lends its frames through one [`FrameLender`]: drop each
/// packet before asking for the next and the whole file is read through
/// one buffer; keep packets and each later one is a plain allocation of
/// its own.
#[derive(Debug)]
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    frames: FrameLender,
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
            frames: FrameLender::new(),
            header: PcapHeader {
                snaplen: rd32(&hdr[16..20]),
                linktype: rd32(&hdr[20..24]),
            },
        })
    }

    /// Reads the next packet, or `None` at end of file (a file that
    /// ends exactly on a record boundary).
    ///
    /// # Errors
    ///
    /// I/O errors, including truncation inside a packet's data;
    /// [`Error::Truncated`] for a file that ends 1–15 bytes into a
    /// record header; or [`Error::Unsupported`] for a record header
    /// claiming more captured bytes than `max(snaplen, 65 535)` —
    /// rejected before any buffer is grown for it.
    pub fn read_packet(&mut self) -> Result<Option<CapturedPacket>> {
        let mut rec = [0u8; 16];
        let mut have = 0;
        while have < rec.len() {
            match self.inner.read(&mut rec[have..]) {
                Ok(0) if have == 0 => return Ok(None),
                Ok(0) => {
                    return Err(Error::Truncated {
                        what: "pcap record header",
                        needed: rec.len(),
                        got: have,
                    })
                }
                Ok(n) => have += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
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
        let incl = incl as usize;
        let inner = &mut self.inner;
        let data = self.frames.lend(|buf| {
            if buf.len() < incl {
                buf.resize(incl, 0);
            }
            inner.read_exact(&mut buf[..incl]).map(|()| incl)
        })?;
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

    /// A file cut inside a record header is damaged, not finished: only
    /// a cut exactly on a record boundary is a clean end.
    #[test]
    fn partial_record_header_is_truncation_not_end_of_file() {
        for big_endian in [false, true] {
            let w32 = |v: u32| {
                if big_endian {
                    v.to_be_bytes()
                } else {
                    v.to_le_bytes()
                }
            };
            let mut file = Vec::new();
            file.extend_from_slice(&w32(MAGIC_USEC));
            file.extend_from_slice(&[0; 12]);
            file.extend_from_slice(&w32(9216));
            file.extend_from_slice(&w32(LINKTYPE_ETHERNET));
            for v in [1, 2, 3, 3] {
                file.extend_from_slice(&w32(v));
            }
            file.extend_from_slice(&[7, 8, 9]);
            let whole = file.len();
            for v in [4, 5, 1, 1] {
                file.extend_from_slice(&w32(v));
            }
            for cut in 0..16 {
                let mut r = PcapReader::new(&file[..whole + cut]).unwrap();
                assert_eq!(r.read_packet().unwrap().unwrap().data, vec![7, 8, 9]);
                match (cut, r.read_packet()) {
                    (0, Ok(None)) => {}
                    (
                        1..,
                        Err(Error::Truncated {
                            what: "pcap record header",
                            needed: 16,
                            got,
                        }),
                    ) => assert_eq!(got, cut),
                    (_, other) => panic!("cut {cut}, big_endian {big_endian}: {other:?}"),
                }
            }
            // The complete header, its one data byte missing.
            let mut r = PcapReader::new(&file[..]).unwrap();
            r.read_packet().unwrap();
            assert!(matches!(r.read_packet(), Err(Error::Io(_))));
        }
    }

    #[test]
    fn lent_buffer_is_reused_only_once_its_packet_is_gone() {
        let mut buf = Vec::new();
        {
            let mut w = PcapWriter::new(&mut buf, PcapHeader::default()).unwrap();
            for i in 0..6u8 {
                w.write_packet(&CapturedPacket::new(0, vec![i; 8 - usize::from(i)]))
                    .unwrap();
            }
        }
        let mut r = PcapReader::new(&buf[..]).unwrap();
        let first = r.read_packet().unwrap().unwrap();
        let at = first.data.as_ptr();
        drop(first);
        // Dropped: the next (shorter) frame lands in the same storage.
        let second = r.read_packet().unwrap().unwrap();
        assert_eq!(second.data, vec![1; 7]);
        assert_eq!(second.data.as_ptr(), at);
        // Kept, and cloned: later frames go elsewhere, and stay put.
        let copy = second.clone();
        let third = r.read_packet().unwrap().unwrap();
        drop(second);
        let fourth = r.read_packet().unwrap().unwrap();
        assert_eq!(copy.data, vec![1; 7]);
        assert_eq!(third.data, vec![2; 6]);
        assert_eq!(fourth.data, vec![3; 5]);
        drop(copy);
        let fifth = r.read_packet().unwrap().unwrap();
        assert_eq!(fifth.data.as_ptr(), at);
        assert_eq!(fifth.data, vec![4; 4]);
        assert_eq!(format!("{:?}", fifth.data), "[4, 4, 4, 4]");
        assert_eq!(third.data, vec![2; 6]);
    }
}
