//! The on-disk trace format.
//!
//! One record per line, in the spirit of the `nfsdump` format the paper's
//! tools emit: a fixed prefix of always-present fields followed by
//! `key=value` pairs for optional ones. Names are percent-escaped so the
//! format stays line- and space-delimited. The format is what the
//! anonymizer reads and writes.
//!
//! ```text
//! v1 <micros> <reply_micros> <client> <server> <uid> <gid> <xid> <vers>
//!    <op> <fh-hex> <status> [off=N] [cnt=N] [ret=N] [eof=1] [name=...]
//!    [name2=...] [fh2=H] [pre=N] [post=N] [trunc=N] [newfh=H] [ftype=N]
//! ```

use crate::record::{FileId, Op, TraceRecord};
use std::fmt;
use std::io::{BufRead, Write};

/// An error from parsing the text trace format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Percent-escapes a name so it contains no whitespace, `%`, or `=`.
pub fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for b in name.bytes() {
        match b {
            b'%' | b'=' | b' ' | b'\t' | b'\n' | b'\r' => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
            0x21..=0x7e => out.push(b as char),
            _ => {
                out.push('%');
                out.push_str(&format!("{b:02x}"));
            }
        }
    }
    out
}

/// Reverses [`escape_name`].
pub fn unescape_name(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s.get(i + 1..i + 3)?;
            out.push(u8::from_str_radix(hex, 16).ok()?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).ok()
}

/// Serializes one record as a format line (no trailing newline).
pub fn format_record(r: &TraceRecord) -> String {
    let mut line = String::with_capacity(96);
    write_record_into(r, &mut line);
    line
}

/// Appends one record's format line (no trailing newline) to `line`.
///
/// The allocation-free building block behind [`format_record`] and
/// [`write_trace`], which streams multi-gigabyte traces through one
/// reused buffer instead of allocating a `String` per record.
fn write_record_into(r: &TraceRecord, line: &mut String) {
    use std::fmt::Write as _;
    // Writing into a String is infallible.
    let _ = write!(
        line,
        "v1 {} {} {} {} {} {} {} {} {} {:x} {}",
        r.micros,
        r.reply_micros,
        r.client,
        r.server,
        r.uid,
        r.gid,
        r.xid,
        r.vers,
        r.op.token(),
        r.fh.0,
        r.status,
    );
    if r.offset != 0 || r.count != 0 || r.ret_count != 0 {
        let _ = write!(
            line,
            " off={} cnt={} ret={}",
            r.offset, r.count, r.ret_count
        );
    }
    if r.eof {
        line.push_str(" eof=1");
    }
    if let Some(n) = &r.name {
        line.push_str(" name=");
        line.push_str(&escape_name(n));
    }
    if let Some(n) = &r.name2 {
        line.push_str(" name2=");
        line.push_str(&escape_name(n));
    }
    if let Some(f) = r.fh2 {
        let _ = write!(line, " fh2={:x}", f.0);
    }
    if let Some(v) = r.pre_size {
        let _ = write!(line, " pre={v}");
    }
    if let Some(v) = r.post_size {
        let _ = write!(line, " post={v}");
    }
    if let Some(v) = r.truncate_to {
        let _ = write!(line, " trunc={v}");
    }
    if let Some(f) = r.new_fh {
        let _ = write!(line, " newfh={:x}", f.0);
    }
    if let Some(t) = r.ftype {
        let _ = write!(line, " ftype={t}");
    }
}

/// Parses one format line.
///
/// # Errors
///
/// [`ParseError`] describing the malformed field; `line_no` is echoed in
/// the error.
pub fn parse_record(line: &str, line_no: usize) -> Result<TraceRecord, ParseError> {
    let err = |m: &str| ParseError {
        line: line_no,
        message: m.to_string(),
    };
    let mut it = line.split_ascii_whitespace();
    if it.next() != Some("v1") {
        return Err(err("missing v1 magic"));
    }
    let mut next_u64 = |what: &str| -> Result<u64, ParseError> {
        it.next()
            .ok_or_else(|| err(&format!("missing {what}")))?
            .parse::<u64>()
            .map_err(|_| err(&format!("bad {what}")))
    };
    let micros = next_u64("micros")?;
    let reply_micros = next_u64("reply_micros")?;
    let client = next_u64("client")? as u32;
    let server = next_u64("server")? as u32;
    let uid = next_u64("uid")? as u32;
    let gid = next_u64("gid")? as u32;
    let xid = next_u64("xid")? as u32;
    let vers = next_u64("vers")? as u8;
    let op_tok = it.next().ok_or_else(|| err("missing op"))?;
    let op = Op::from_token(op_tok).ok_or_else(|| err("unknown op"))?;
    let fh = u64::from_str_radix(it.next().ok_or_else(|| err("missing fh"))?, 16)
        .map_err(|_| err("bad fh"))?;
    let status = it
        .next()
        .ok_or_else(|| err("missing status"))?
        .parse::<u32>()
        .map_err(|_| err("bad status"))?;

    let mut r = TraceRecord::new(micros, op, FileId(fh));
    r.reply_micros = reply_micros;
    r.client = client;
    r.server = server;
    r.uid = uid;
    r.gid = gid;
    r.xid = xid;
    r.vers = vers;
    r.status = status;
    r.ret_count = 0;

    for kv in it {
        let (k, v) = kv
            .split_once('=')
            .ok_or_else(|| err(&format!("bad key=value: {kv}")))?;
        match k {
            "off" => r.offset = v.parse().map_err(|_| err("bad off"))?,
            "cnt" => r.count = v.parse().map_err(|_| err("bad cnt"))?,
            "ret" => r.ret_count = v.parse().map_err(|_| err("bad ret"))?,
            "eof" => r.eof = v == "1",
            "name" => r.name = Some(unescape_name(v).ok_or_else(|| err("bad name escape"))?),
            "name2" => r.name2 = Some(unescape_name(v).ok_or_else(|| err("bad name2 escape"))?),
            "fh2" => {
                r.fh2 = Some(FileId(
                    u64::from_str_radix(v, 16).map_err(|_| err("bad fh2"))?,
                ))
            }
            "pre" => r.pre_size = Some(v.parse().map_err(|_| err("bad pre"))?),
            "post" => r.post_size = Some(v.parse().map_err(|_| err("bad post"))?),
            "trunc" => r.truncate_to = Some(v.parse().map_err(|_| err("bad trunc"))?),
            "newfh" => {
                r.new_fh = Some(FileId(
                    u64::from_str_radix(v, 16).map_err(|_| err("bad newfh"))?,
                ))
            }
            "ftype" => r.ftype = Some(v.parse().map_err(|_| err("bad ftype"))?),
            other => return Err(err(&format!("unknown key {other}"))),
        }
    }
    Ok(r)
}

/// Writes records as lines to `w`, streaming every record through one
/// reused line buffer (no per-record allocation).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<'a, W: Write, I>(mut w: W, records: I) -> std::io::Result<()>
where
    I: IntoIterator<Item = &'a TraceRecord>,
{
    let mut line = String::with_capacity(160);
    for r in records {
        line.clear();
        write_record_into(r, &mut line);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    Ok(())
}

/// Reads all records from `r`, skipping blank and `#`-comment lines.
///
/// # Errors
///
/// I/O errors are converted to a [`ParseError`] with the failing line.
pub fn read_trace<R: BufRead>(r: R) -> Result<Vec<TraceRecord>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in r.lines().enumerate() {
        let line = line.map_err(|e| ParseError {
            line: i + 1,
            message: format!("i/o error: {e}"),
        })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        out.push(parse_record(trimmed, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceRecord {
        let mut r = TraceRecord::new(1_234_567, Op::Lookup, FileId(0xdead)).with_name("inbox.lock");
        r.reply_micros = 1_234_999;
        r.client = 0x0a000001;
        r.uid = 501;
        r.gid = 100;
        r.xid = 0x77;
        r.new_fh = Some(FileId(0xbeef));
        r.ftype = Some(1);
        r
    }

    #[test]
    fn roundtrip_basic() {
        let r = sample();
        let line = format_record(&r);
        let got = parse_record(&line, 1).unwrap();
        assert_eq!(got, r);
    }

    #[test]
    fn roundtrip_read_record() {
        let mut r = TraceRecord::new(5, Op::Read, FileId(9)).with_range(8192, 8192);
        r.eof = true;
        r.post_size = Some(16384);
        let got = parse_record(&format_record(&r), 1).unwrap();
        assert_eq!(got, r);
    }

    #[test]
    fn names_with_spaces_and_percent_escape() {
        for name in ["a b", "100% done", "tab\there", "eq=sign", "naïve"] {
            let r = TraceRecord::new(0, Op::Create, FileId(1)).with_name(name);
            let line = format_record(&r);
            assert!(!line.contains('\t'));
            let got = parse_record(&line, 1).unwrap();
            assert_eq!(got.name.as_deref(), Some(name));
        }
    }

    #[test]
    fn write_and_read_trace() {
        let recs = vec![
            sample(),
            TraceRecord::new(10, Op::Write, FileId(3)).with_range(0, 100),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, recs.iter()).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let got = read_trace(text.as_bytes()).unwrap();
        assert_eq!(got, recs);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# a comment\n\nv1 0 0 0 0 0 0 0 3 null 0 0\n";
        let got = read_trace(text.as_bytes()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].op, Op::Null);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let text = "v1 0 0 0 0 0 0 0 3 null 0 0\nv1 bogus\n";
        let e = read_trace(text.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("line 2"));
    }

    #[test]
    fn unknown_op_rejected() {
        assert!(parse_record("v1 0 0 0 0 0 0 0 3 frobnicate 0 0", 1).is_err());
    }

    #[test]
    fn unescape_rejects_truncated_escape() {
        assert_eq!(unescape_name("abc%2"), None);
        assert_eq!(unescape_name("abc%zz"), None);
        assert_eq!(unescape_name("abc%20"), Some("abc ".to_string()));
    }
}
