//! NFS file handles.
//!
//! A file handle is an opaque server token naming a file. NFSv2 handles
//! are exactly 32 bytes; NFSv3 handles are variable up to 64 bytes. The
//! simulated server packs a 64-bit file id into its handles, and the
//! analysis layer treats handles as opaque identities, exactly as the
//! paper's tools do.

use nfstrace_xdr::{Decoder, Encoder, Error, Pack, Result, Unpack};
use std::fmt;

/// Fixed NFSv2 handle size.
pub(crate) const FHSIZE_V2: usize = 32;
/// Maximum NFSv3 handle size.
pub(crate) const FHSIZE_V3_MAX: usize = 64;

/// An opaque NFS file handle of at most 64 bytes.
///
/// # Examples
///
/// ```
/// use nfstrace_nfs::fh::FileHandle;
///
/// let fh = FileHandle::from_u64(1234);
/// assert_eq!(fh.as_u64(), Some(1234));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileHandle {
    len: u8,
    data: [u8; FHSIZE_V3_MAX],
}

impl FileHandle {
    /// Creates a handle from raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds 64 bytes; wire decoding validates length
    /// before calling this.
    pub fn new(bytes: &[u8]) -> Self {
        assert!(bytes.len() <= FHSIZE_V3_MAX, "file handle too long");
        let mut data = [0u8; FHSIZE_V3_MAX];
        data[..bytes.len()].copy_from_slice(bytes);
        Self {
            len: bytes.len() as u8,
            data,
        }
    }

    /// A compact handle embedding a 64-bit file id, as the simulated
    /// server issues.
    pub fn from_u64(id: u64) -> Self {
        Self::new(&id.to_be_bytes())
    }

    /// Extracts the embedded file id if this is an 8-byte handle.
    pub fn as_u64(&self) -> Option<u64> {
        if self.len == 8 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.data[..8]);
            Some(u64::from_be_bytes(b))
        } else {
            None
        }
    }

    /// The handle bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data[..usize::from(self.len)]
    }

    /// Handle length in bytes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the handle is empty (never valid on the wire, but useful
    /// as a sentinel).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Zero-pads (or truncates) to the fixed 32-byte NFSv2 form.
    pub(crate) fn to_v2(&self) -> [u8; FHSIZE_V2] {
        let mut out = [0u8; FHSIZE_V2];
        let n = self.len().min(FHSIZE_V2);
        out[..n].copy_from_slice(&self.as_bytes()[..n]);
        out
    }

    /// Encodes as a fixed 32-byte NFSv2 handle.
    pub(crate) fn pack_v2(&self, enc: &mut Encoder) {
        enc.put_opaque_fixed(&self.to_v2());
    }

    /// Decodes a fixed 32-byte NFSv2 handle. Heap-free: the handle is an
    /// inline array filled straight from the decoder's view.
    ///
    /// # Errors
    ///
    /// XDR truncation errors.
    pub(crate) fn unpack_v2(dec: &mut Decoder<'_>) -> Result<Self> {
        let bytes = dec.get_opaque_fixed_ref(FHSIZE_V2)?;
        // v2 handles embedding a u64 id are zero-padded; strip the pad so
        // identities match across protocol versions.
        let mut end = bytes.len();
        while end > 8 && bytes[end - 1] == 0 {
            end -= 1;
        }
        Ok(Self::new(&bytes[..end.max(8)]))
    }
}

impl fmt::Debug for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FileHandle(")?;
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for FileHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.as_bytes() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl Default for FileHandle {
    fn default() -> Self {
        Self::new(&[])
    }
}

/// NFSv3 variable-length encoding.
impl Pack for FileHandle {
    fn pack(&self, enc: &mut Encoder) {
        enc.put_opaque_var(self.as_bytes());
    }
}

impl Unpack for FileHandle {
    fn unpack(dec: &mut Decoder<'_>) -> Result<Self> {
        // Heap-free: the handle is an inline array filled straight from
        // the decoder's borrowed view.
        let bytes = dec.get_opaque_var_ref()?;
        if bytes.len() > FHSIZE_V3_MAX {
            return Err(Error::LengthTooLarge {
                declared: bytes.len(),
                limit: FHSIZE_V3_MAX,
            });
        }
        Ok(Self::new(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrip() {
        let fh = FileHandle::from_u64(0xdead_beef_cafe_f00d);
        assert_eq!(fh.as_u64(), Some(0xdead_beef_cafe_f00d));
        assert_eq!(fh.len(), 8);
    }

    #[test]
    fn v3_wire_roundtrip() {
        let fh = FileHandle::from_u64(99);
        let got = FileHandle::from_xdr_bytes(&fh.to_xdr_bytes()).unwrap();
        assert_eq!(got, fh);
    }

    #[test]
    fn v2_wire_roundtrip_preserves_id() {
        let fh = FileHandle::from_u64(12345);
        let mut enc = Encoder::new();
        fh.pack_v2(&mut enc);
        let bytes = enc.into_bytes();
        assert_eq!(bytes.len(), FHSIZE_V2);
        let mut dec = Decoder::new(&bytes);
        let got = FileHandle::unpack_v2(&mut dec).unwrap();
        assert_eq!(got.as_u64(), Some(12345));
    }

    #[test]
    fn oversized_v3_handle_rejected() {
        let mut enc = Encoder::new();
        enc.put_opaque_var(&[1u8; 65]);
        assert!(FileHandle::from_xdr_bytes(&enc.into_bytes()).is_err());
    }

    #[test]
    fn display_is_hex() {
        let fh = FileHandle::new(&[0xab, 0xcd]);
        assert_eq!(fh.to_string(), "abcd");
        assert_eq!(format!("{fh:?}"), "FileHandle(abcd)");
    }

    #[test]
    fn default_is_empty_sentinel() {
        assert!(FileHandle::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "file handle too long")]
    fn new_panics_on_oversize() {
        let _ = FileHandle::new(&[0u8; 65]);
    }
}
