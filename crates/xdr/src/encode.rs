//! The XDR encoder.

use crate::pad4;

/// Appends XDR-encoded items to an internal buffer.
///
/// Encoding never fails; the buffer grows as needed. Retrieve the result
/// with [`Encoder::into_bytes`] or borrow it with [`Encoder::as_bytes`].
///
/// # Examples
///
/// ```
/// use nfstrace_xdr::Encoder;
///
/// let mut enc = Encoder::new();
/// enc.put_u32(0xdeadbeef);
/// assert_eq!(enc.as_bytes(), &[0xde, 0xad, 0xbe, 0xef]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Borrows the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends an unsigned 32-bit integer.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 32-bit integer.
    pub(crate) fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an unsigned 64-bit integer (XDR "unsigned hyper").
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 64-bit integer (XDR "hyper").
    pub(crate) fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a 32-bit 0 or 1.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends fixed-length opaque data, zero-padded to 4 bytes.
    ///
    /// The length is *not* written; the receiver must know it.
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad_to_4(data.len());
    }

    /// Appends variable-length opaque data: a length word followed by the
    /// bytes, zero-padded to 4 bytes.
    pub fn put_opaque_var(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Appends an XDR string (length word + UTF-8 bytes + padding).
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque_var(s.as_bytes());
    }

    /// Appends a counted array: a length word followed by each element.
    pub fn put_array<T, F>(&mut self, items: &[T], mut f: F)
    where
        F: FnMut(&mut Self, &T),
    {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }

    fn pad_to_4(&mut self, written: usize) {
        for _ in written..pad4(written) {
            self.buf.push(0);
        }
    }
}

/// Continues encoding at the end of an existing buffer: items are
/// appended after the bytes `buf` already holds (every XDR item is a
/// whole number of words, so alignment is relative to where the
/// message starts, not to the buffer). [`Encoder::into_bytes`] hands
/// the buffer back — a message can be packed into a caller's reused
/// `Vec` without an intermediate copy.
impl From<Vec<u8>> for Encoder {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_appends_after_existing_bytes() {
        let mut enc = Encoder::from(vec![9, 9, 9]);
        enc.put_opaque_var(&[0xaa]);
        assert_eq!(enc.into_bytes(), [9, 9, 9, 0, 0, 0, 1, 0xaa, 0, 0, 0]);
    }

    #[test]
    fn u32_is_big_endian() {
        let mut enc = Encoder::new();
        enc.put_u32(1);
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 1]);
    }

    #[test]
    fn i32_negative() {
        let mut enc = Encoder::new();
        enc.put_i32(-1);
        assert_eq!(enc.as_bytes(), &[0xff, 0xff, 0xff, 0xff]);
    }

    #[test]
    fn u64_layout() {
        let mut enc = Encoder::new();
        enc.put_u64(0x0102030405060708);
        assert_eq!(enc.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn opaque_var_pads_to_four() {
        let mut enc = Encoder::new();
        enc.put_opaque_var(&[0xaa, 0xbb, 0xcc]);
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 3, 0xaa, 0xbb, 0xcc, 0]);
    }

    #[test]
    fn opaque_fixed_multiple_of_four_gets_no_padding() {
        let mut enc = Encoder::new();
        enc.put_opaque_fixed(&[1, 2, 3, 4]);
        assert_eq!(enc.len(), 4);
    }

    #[test]
    fn empty_string_is_single_zero_word() {
        let mut enc = Encoder::new();
        enc.put_string("");
        assert_eq!(enc.as_bytes(), &[0, 0, 0, 0]);
    }

    #[test]
    fn array_prefixes_count() {
        let mut enc = Encoder::new();
        enc.put_array(&[1u32, 2, 3], |e, v| e.put_u32(*v));
        assert_eq!(enc.len(), 16);
        assert_eq!(&enc.as_bytes()[..4], &[0, 0, 0, 3]);
    }

    #[test]
    fn with_capacity_reserves() {
        let enc = Encoder::with_capacity(64);
        assert!(enc.is_empty());
        assert!(enc.buf.capacity() >= 64);
    }
}
