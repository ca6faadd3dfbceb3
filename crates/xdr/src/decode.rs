//! The XDR decoder.

use crate::{pad4, Error, Result};

/// Default ceiling on variable-length items, to keep corrupt length words
/// from causing huge allocations. NFSv3 WRITE payloads with jumbo frames
/// stay well under this.
pub(crate) const DEFAULT_MAX_LEN: usize = 16 * 1024 * 1024;

/// Reads XDR items from the front of a borrowed byte slice.
///
/// The decoder tracks its position; every `get_*` call consumes bytes.
/// Truncated input yields [`Error::UnexpectedEof`] rather than a panic.
///
/// # Lifetime contract
///
/// The decoder borrows its input for `'a` and the `*_ref` accessors
/// ([`Decoder::get_opaque_fixed_ref`], [`Decoder::get_opaque_var_ref`],
/// [`Decoder::get_str_ref`]) return views tied to that **input** lifetime,
/// not to the decoder value itself. A returned `&'a [u8]` therefore stays
/// valid across further `get_*` calls and after the decoder is dropped —
/// it dies only with the underlying buffer. This is what lets the whole
/// RPC/NFS decode stack run over one reassembled record buffer without
/// copying: every layer's view points back into the same bytes.
///
/// The owning accessors ([`Decoder::get_opaque_var`],
/// [`Decoder::get_string`], …) are thin `to_vec`/`to_owned` wrappers over
/// the `*_ref` forms, so both families consume input and fail
/// identically.
///
/// # Examples
///
/// ```
/// use nfstrace_xdr::Decoder;
///
/// # fn main() -> Result<(), nfstrace_xdr::Error> {
/// let mut dec = Decoder::new(&[0, 0, 0, 5]);
/// assert_eq!(dec.get_u32()?, 5);
/// assert!(dec.is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    max_len: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `data` with the default length limit.
    pub fn new(data: &'a [u8]) -> Self {
        Self {
            data,
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Creates a decoder with a custom ceiling for variable-length items.
    pub fn with_max_len(data: &'a [u8], max_len: usize) -> Self {
        Self {
            data,
            pos: 0,
            max_len,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads an unsigned 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than 4 bytes remain.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.take_fixed::<4>()?))
    }

    /// Reads a signed 32-bit integer.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than 4 bytes remain.
    pub(crate) fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an unsigned 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than 8 bytes remain.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.take_fixed::<8>()?))
    }

    /// Reads a signed 64-bit integer.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than 8 bytes remain.
    pub(crate) fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Reads a boolean.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidBool`] if the word is neither 0 nor 1, or
    /// [`Error::UnexpectedEof`] on truncation.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::InvalidBool(v)),
        }
    }

    /// Reads `len` bytes of fixed-length opaque data plus padding,
    /// returning a view into the input buffer (see the type-level
    /// lifetime contract: the slice outlives the decoder).
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] on truncation, or
    /// [`Error::LengthTooLarge`] if `len` exceeds the decoder limit.
    #[inline]
    pub fn get_opaque_fixed_ref(&mut self, len: usize) -> Result<&'a [u8]> {
        if len > self.max_len {
            return Err(Error::LengthTooLarge {
                declared: len,
                limit: self.max_len,
            });
        }
        let b = self.take(pad4(len))?;
        Ok(&b[..len])
    }

    /// Reads variable-length opaque data (length word + bytes + padding)
    /// as a view into the input buffer.
    ///
    /// # Errors
    ///
    /// [`Error::LengthTooLarge`] if the declared length exceeds the
    /// decoder limit, or [`Error::UnexpectedEof`] on truncation.
    #[inline]
    pub fn get_opaque_var_ref(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.get_opaque_fixed_ref(len)
    }

    /// Reads an XDR string as a UTF-8-validated view into the input
    /// buffer.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidUtf8`] for non-UTF-8 data, plus the errors of
    /// [`Decoder::get_opaque_var_ref`].
    #[inline]
    pub fn get_str_ref(&mut self) -> Result<&'a str> {
        let bytes = self.get_opaque_var_ref()?;
        std::str::from_utf8(bytes).map_err(|_| Error::InvalidUtf8)
    }

    /// Reads `len` bytes of fixed-length opaque data plus padding.
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] on truncation, or
    /// [`Error::LengthTooLarge`] if `len` exceeds the decoder limit.
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<Vec<u8>> {
        self.get_opaque_fixed_ref(len).map(<[u8]>::to_vec)
    }

    /// Reads variable-length opaque data (length word + bytes + padding).
    ///
    /// # Errors
    ///
    /// [`Error::LengthTooLarge`] if the declared length exceeds the
    /// decoder limit, or [`Error::UnexpectedEof`] on truncation.
    pub fn get_opaque_var(&mut self) -> Result<Vec<u8>> {
        self.get_opaque_var_ref().map(<[u8]>::to_vec)
    }

    /// Reads an XDR string and validates UTF-8.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidUtf8`] for non-UTF-8 data, plus the errors of
    /// [`Decoder::get_opaque_var`].
    pub fn get_string(&mut self) -> Result<String> {
        self.get_str_ref().map(str::to_owned)
    }

    /// Reads a counted array, decoding each element with `f`.
    ///
    /// # Errors
    ///
    /// Propagates errors from `f` and from reading the count; rejects
    /// counts larger than the decoder limit.
    pub fn get_array<T, F>(&mut self, mut f: F) -> Result<Vec<T>>
    where
        F: FnMut(&mut Self) -> Result<T>,
    {
        let n = self.get_u32()? as usize;
        if n > self.max_len {
            return Err(Error::LengthTooLarge {
                declared: n,
                limit: self.max_len,
            });
        }
        // Each element occupies at least 4 bytes, so bound by remaining.
        if n > self.remaining() / 4 + 1 {
            return Err(Error::LengthTooLarge {
                declared: n,
                limit: self.remaining() / 4 + 1,
            });
        }
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Skips `n` raw bytes (no padding applied).
    ///
    /// # Errors
    ///
    /// [`Error::UnexpectedEof`] if fewer than `n` bytes remain.
    pub fn skip(&mut self, n: usize) -> Result<()> {
        self.take(n).map(|_| ())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let b = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(b)
    }

    /// Fixed-width read: one bounds check, then a constant-size copy the
    /// optimizer lowers to a plain load (no per-byte branches).
    #[inline]
    fn take_fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        match self.data.get(self.pos..self.pos + N) {
            Some(b) => {
                self.pos += N;
                Ok(b.try_into().expect("slice length is exactly N"))
            }
            None => Err(Error::UnexpectedEof {
                needed: N,
                remaining: self.remaining(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn truncated_u32_errors() {
        let mut dec = Decoder::new(&[0, 0, 1]);
        assert!(matches!(
            dec.get_u32(),
            Err(Error::UnexpectedEof {
                needed: 4,
                remaining: 3
            })
        ));
    }

    #[test]
    fn bool_rejects_two() {
        let mut dec = Decoder::new(&[0, 0, 0, 2]);
        assert_eq!(dec.get_bool(), Err(Error::InvalidBool(2)));
    }

    #[test]
    fn opaque_var_respects_limit() {
        let mut enc = Encoder::new();
        enc.put_u32(100);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::with_max_len(&bytes, 10);
        assert!(matches!(
            dec.get_opaque_var(),
            Err(Error::LengthTooLarge {
                declared: 100,
                limit: 10
            })
        ));
    }

    #[test]
    fn opaque_var_consumes_padding() {
        let mut enc = Encoder::new();
        enc.put_opaque_var(b"ab");
        enc.put_u32(7);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_opaque_var().unwrap(), b"ab");
        assert_eq!(dec.get_u32().unwrap(), 7);
    }

    #[test]
    fn string_rejects_bad_utf8() {
        let mut enc = Encoder::new();
        enc.put_opaque_var(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_string(), Err(Error::InvalidUtf8));
    }

    #[test]
    fn array_roundtrip() {
        let mut enc = Encoder::new();
        enc.put_array(&[10u32, 20, 30], |e, v| e.put_u32(*v));
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let v = dec.get_array(|d| d.get_u32()).unwrap();
        assert_eq!(v, vec![10, 20, 30]);
    }

    #[test]
    fn array_count_bounded_by_remaining() {
        // Claims 1000 elements but only 4 bytes follow.
        let mut enc = Encoder::new();
        enc.put_u32(1000);
        enc.put_u32(1);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_array(|d| d.get_u32()).is_err());
    }

    #[test]
    fn ref_accessors_outlive_the_decoder() {
        let mut enc = Encoder::new();
        enc.put_opaque_var(b"abc");
        enc.put_string("name");
        enc.put_u32(9);
        let bytes = enc.into_bytes();
        let (opaque, name, tail) = {
            let mut dec = Decoder::new(&bytes);
            let opaque = dec.get_opaque_var_ref().unwrap();
            let name = dec.get_str_ref().unwrap();
            let tail = dec.get_u32().unwrap();
            assert!(dec.is_empty());
            (opaque, name, tail)
        };
        // The views borrow `bytes`, not the (now dropped) decoder.
        assert_eq!(opaque, b"abc");
        assert_eq!(name, "name");
        assert_eq!(tail, 9);
    }

    #[test]
    fn ref_and_owned_accessors_fail_identically() {
        // Truncated opaque: length word says 8, only 4 bytes follow.
        let mut enc = Encoder::new();
        enc.put_u32(8);
        enc.put_u32(1);
        let bytes = enc.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).get_opaque_var_ref().unwrap_err(),
            Decoder::new(&bytes).get_opaque_var().unwrap_err(),
        );
        // Oversized declared length.
        let mut enc = Encoder::new();
        enc.put_u32(100);
        let bytes = enc.into_bytes();
        assert_eq!(
            Decoder::with_max_len(&bytes, 10)
                .get_opaque_var_ref()
                .unwrap_err(),
            Decoder::with_max_len(&bytes, 10)
                .get_opaque_var()
                .unwrap_err(),
        );
        // Invalid UTF-8.
        let mut enc = Encoder::new();
        enc.put_opaque_var(&[0xff, 0xfe]);
        let bytes = enc.into_bytes();
        assert_eq!(
            Decoder::new(&bytes).get_str_ref().unwrap_err(),
            Decoder::new(&bytes).get_string().unwrap_err(),
        );
    }

    #[test]
    fn skip_advances_position() {
        let mut dec = Decoder::new(&[1, 2, 3, 4, 5, 6, 7, 8]);
        dec.skip(4).unwrap();
        assert_eq!(dec.position(), 4);
        assert_eq!(dec.get_u32().unwrap(), 0x05060708);
    }
}
