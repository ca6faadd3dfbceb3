//! Field codecs for the mapping blob ([`crate::Anonymizer::to_bytes`])
//! on the store's varints. Collections are written sorted and read back
//! only if still strictly ascending, so one mapping has one encoding.

use nfstrace_store::codec::{read_varint, write_varint};
use nfstrace_store::error::{Result, StoreError};

/// A [`StoreError::Format`] naming the mapping blob.
pub(crate) fn malformed(what: &str) -> StoreError {
    StoreError::Format(format!("anonymizer mapping: {what}"))
}

/// Reads a varint that must fit in a `u32`.
pub(crate) fn read_u32(bytes: &[u8], pos: &mut usize) -> Result<u32> {
    u32::try_from(read_varint(bytes, pos)?).map_err(|_| malformed("u32 field out of range"))
}

/// Appends a length-prefixed UTF-8 string.
pub(crate) fn write_str(buf: &mut Vec<u8>, s: &str) {
    write_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Reads a string [`write_str`] wrote.
pub(crate) fn read_str(bytes: &[u8], pos: &mut usize) -> Result<String> {
    let len = read_varint(bytes, pos)?;
    let raw = usize::try_from(len)
        .ok()
        .and_then(|len| bytes.get(*pos..pos.checked_add(len)?))
        .ok_or_else(|| malformed("truncated string"))?;
    *pos += raw.len();
    String::from_utf8(raw.to_vec()).map_err(|_| malformed("string is not UTF-8"))
}

/// Appends the number of distinct `items`, then each in sorted order.
pub(crate) fn write_sorted<T: Ord>(
    buf: &mut Vec<u8>,
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut Vec<u8>, T),
) {
    let mut items: Vec<T> = items.into_iter().collect();
    items.sort_unstable();
    items.dedup();
    write_varint(buf, items.len() as u64);
    for item in items {
        write_item(buf, item);
    }
}

/// Reads what [`write_sorted`] wrote. An entry takes at least
/// `min_entry_bytes`, which bounds the untrusted count before anything
/// is reserved for it; entries out of order or repeated are an error.
pub(crate) fn read_sorted<T: PartialOrd>(
    bytes: &[u8],
    pos: &mut usize,
    min_entry_bytes: usize,
    mut read_entry: impl FnMut(&[u8], &mut usize) -> Result<T>,
) -> Result<Vec<T>> {
    let count = read_varint(bytes, pos)?;
    let room = (bytes.len() - *pos) / min_entry_bytes;
    if count > room as u64 {
        return Err(malformed(&format!("{count} entries in room for {room}")));
    }
    let mut entries: Vec<T> = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let entry = read_entry(bytes, pos)?;
        if entries.last().is_some_and(|last| *last >= entry) {
            return Err(malformed("entries out of order or repeated"));
        }
        entries.push(entry);
    }
    Ok(entries)
}
