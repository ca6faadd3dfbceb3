//! Streaming store writer.

use crate::codec::{encode_record, write_varint, NameTable};
use crate::compress;
use crate::error::{Result, StoreError};
use crate::format::{
    fnv1a64, ChunkMeta, FilterBuilder, FilterKind, Fnv1a64, END_MAGIC, FILTER_KIND_BLOOM,
    FILTER_KIND_EXACT, FLAG_COMPRESSED, MAGIC, MAX_CHUNK_PAYLOAD,
};
use crate::reader::{StoreReader, VerifiedChunk};
use nfstrace_core::record::TraceRecord;
use nfstrace_core::sink::RecordSink;
use nfstrace_telemetry::{Counter, Gauge, Registry};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// The one store layout knob.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Soft cap on a chunk's encoded size: the writer flushes the
    /// pending chunk once its record bytes plus name table reach this.
    /// Whatever the cap, a chunk's payload never grows past
    /// 1 GiB (`MAX_CHUNK_PAYLOAD`), the most a reader accepts: the writer
    /// flushes before a record could take it there.
    /// Smaller chunks mean finer-grained parallel indexing and lower
    /// peak memory; larger chunks amortize per-chunk overhead.
    pub target_chunk_bytes: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            // ~4 MiB encoded ≈ a few hundred thousand records per
            // chunk: decoded, tens of MB — bounded regardless of how
            // many days the whole trace spans.
            target_chunk_bytes: 4 << 20,
        }
    }
}

/// Writes a time-ordered record stream into a chunked store file.
///
/// Records are encoded into an in-memory chunk buffer; when the buffer
/// reaches [`StoreConfig::target_chunk_bytes`] the chunk is flushed to
/// disk and its [`ChunkMeta`] (offset, length, record count, time
/// range, checksum, and a primary-file-handle filter sized from the
/// chunk's distinct-handle count) queued for the footer. Each flushed
/// chunk is LZ-compressed when that wins, with the raw form kept
/// otherwise; the choice is recorded in the chunk's flags byte.
/// [`StoreWriter::finish`] flushes the trailing chunk and writes the
/// footer — nothing but the current chunk's encoding (and its
/// distinct-handle set) is ever resident.
///
/// # Examples
///
/// ```no_run
/// use nfstrace_core::record::{FileId, Op, TraceRecord};
/// use nfstrace_store::{StoreConfig, StoreWriter};
///
/// let mut w = StoreWriter::create("trace.nfstore", StoreConfig::default()).unwrap();
/// w.push(&TraceRecord::new(0, Op::Read, FileId(1)).with_range(0, 8192)).unwrap();
/// let summary = w.finish().unwrap();
/// assert_eq!(summary.total_records, 1);
/// ```
#[derive(Debug)]
pub struct StoreWriter {
    out: BufWriter<File>,
    /// Where `out` writes, and where [`StoreWriter::snapshot`]'s reader
    /// opens its handle.
    path: Box<Path>,
    /// Where the writer's telemetry lands, and its snapshots' reads.
    registry: Registry,
    config: StoreConfig,
    /// Encoded records of the pending chunk; at flush, its whole
    /// payload.
    chunk_buf: Vec<u8>,
    names: NameTable,
    chunk_records: u64,
    chunk_min: u64,
    /// Distinct primary handles of the pending chunk (its footer
    /// filter is finished from this at flush time).
    filter: FilterBuilder,
    /// Previous record's `micros` (delta-encoding state + order check).
    prev_micros: u64,
    any_pushed: bool,
    /// Current file offset (next chunk lands here).
    offset: u64,
    chunks: Vec<ChunkMeta>,
    metrics: StoreWriteMetrics,
}

/// The most bytes `r` can add to a chunk payload: every field a
/// full-width varint, and each name a new table entry escaped at three
/// bytes a byte behind a full-width length.
fn record_payload_bound(r: &TraceRecord) -> usize {
    const FIELDS: usize = 24 * 10;
    let name = |n: &Option<String>| n.as_ref().map_or(0, |n| 3 * n.len() + 10);
    FIELDS + name(&r.name) + name(&r.name2)
}

/// The write-side `store.*` slice of the pipeline-health export.
#[derive(Debug)]
struct StoreWriteMetrics {
    /// `store.records_written` — records in the chunks this writer has
    /// flushed or relocated by [`StoreWriter::append_chunk`]: counted
    /// per chunk, when the chunk reaches the file, never per
    /// [`StoreWriter::push`].
    records_written: Counter,
    /// `store.chunks_written` — chunks flushed or relocated to disk.
    chunks_written: Counter,
    /// `store.chunk_bytes_raw` — chunk payload bytes before compression.
    chunk_bytes_raw: Counter,
    /// `store.chunk_bytes_stored` — chunk bytes as stored on disk
    /// (compressed form when it won, raw fallback otherwise).
    chunk_bytes_stored: Counter,
    /// `store.compression_ratio` — stored/raw bytes across every chunk
    /// this registry has seen (1.0 = stored raw, smaller is better).
    compression_ratio: Gauge,
}

impl StoreWriteMetrics {
    fn register(registry: &Registry) -> Self {
        StoreWriteMetrics {
            records_written: registry.counter("store.records_written"),
            chunks_written: registry.counter("store.chunks_written"),
            chunk_bytes_raw: registry.counter("store.chunk_bytes_raw"),
            chunk_bytes_stored: registry.counter("store.chunk_bytes_stored"),
            compression_ratio: registry.gauge("store.compression_ratio"),
        }
    }

    /// Accounts one flushed chunk of `records` records and refreshes
    /// the ratio gauge.
    fn record_chunk(&self, records: u64, raw_len: usize, stored_len: usize) {
        self.records_written.add(records);
        self.chunks_written.inc();
        self.chunk_bytes_raw.add(raw_len as u64);
        self.chunk_bytes_stored.add(stored_len as u64);
        let raw = self.chunk_bytes_raw.value();
        if raw > 0 {
            self.compression_ratio
                .set(self.chunk_bytes_stored.value() as f64 / raw as f64);
        }
    }
}

/// What [`StoreWriter::finish`] reports.
#[derive(Debug, Clone)]
pub struct StoreSummary {
    /// Records written.
    pub total_records: u64,
    /// Chunks written.
    pub chunks: usize,
    /// Final file size in bytes.
    pub file_bytes: u64,
}

impl StoreWriter {
    /// Creates (truncating) a store file.
    ///
    /// # Errors
    ///
    /// On file creation or header-write failure.
    pub fn create<P: AsRef<Path>>(path: P, config: StoreConfig) -> Result<Self> {
        Self::create_with_registry(path, config, &Registry::new())
    }

    /// [`StoreWriter::create`] reporting the write-side `store.*`
    /// telemetry into `registry`.
    ///
    /// # Errors
    ///
    /// On file creation or header-write failure.
    pub fn create_with_registry<P: AsRef<Path>>(
        path: P,
        config: StoreConfig,
        registry: &Registry,
    ) -> Result<Self> {
        let path = path.as_ref();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        Ok(StoreWriter {
            out,
            path: path.into(),
            registry: registry.clone(),
            config,
            chunk_buf: Vec::new(),
            names: NameTable::new(),
            chunk_records: 0,
            chunk_min: 0,
            filter: FilterBuilder::new(),
            prev_micros: 0,
            any_pushed: false,
            offset: MAGIC.len() as u64,
            chunks: Vec::new(),
            metrics: StoreWriteMetrics::register(registry),
        })
    }

    /// Appends one record. Records must arrive in nondecreasing
    /// `micros` order.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] on a time-travelling record,
    /// [`StoreError::Format`] on a record whose names could not fit
    /// even an empty chunk under the 1 GiB payload cap, or I/O errors
    /// from a chunk flush.
    pub fn push(&mut self, r: &TraceRecord) -> Result<()> {
        self.push_under(r, MAX_CHUNK_PAYLOAD as usize)
    }

    /// [`StoreWriter::push`], keeping each chunk payload within
    /// `ceiling` bytes (tests pass a small one to reach it cheaply).
    fn push_under(&mut self, r: &TraceRecord, ceiling: usize) -> Result<()> {
        if self.any_pushed && r.micros < self.prev_micros {
            return Err(StoreError::OutOfOrder {
                prev: self.prev_micros,
                next: r.micros,
            });
        }
        let most = record_payload_bound(r);
        if self.payload_bound() + most > ceiling {
            self.flush_chunk()?;
            if self.payload_bound() + most > ceiling {
                return Err(StoreError::Format(format!(
                    "a record of up to {most} bytes does not fit a chunk payload of at most {ceiling} bytes"
                )));
            }
        }
        if self.chunk_records == 0 {
            self.chunk_min = r.micros;
            self.prev_micros = r.micros;
            // First delta in a chunk is from the chunk's own first
            // record, so every chunk decodes standalone.
            encode_record(&mut self.chunk_buf, r, r.micros, &mut self.names);
        } else {
            encode_record(&mut self.chunk_buf, r, self.prev_micros, &mut self.names);
        }
        self.filter.insert(r.fh);
        self.prev_micros = r.micros;
        self.any_pushed = true;
        self.chunk_records += 1;
        if self.chunk_buf.len() + self.names.encoded_len() >= self.config.target_chunk_bytes {
            self.flush_chunk()?;
        }
        Ok(())
    }

    /// An upper bound on the pending chunk's payload: its records; its
    /// name table, whose running estimate allows two bytes for each
    /// length varint and four for the count, where either may take
    /// ten; and the two varints [`StoreWriter::flush_chunk`] puts in
    /// front.
    fn payload_bound(&self) -> usize {
        self.chunk_buf.len() + self.names.encoded_len() + 8 * self.names.len() + 6 + 2 * 10
    }

    /// Appends one already-stored chunk verbatim — compaction's unit of
    /// work. Any pending chunk is flushed first; the stored bytes are
    /// written as they are and the footer entry (record count, time
    /// range, checksum, [`crate::FileIdFilter`]) is carried over with
    /// only `offset` rewritten, so nothing is decoded, re-interned,
    /// re-compressed or re-filtered. A zero-record chunk is dropped.
    /// The write-side compression counters keep describing only the
    /// chunks this writer encoded itself.
    ///
    /// # Errors
    ///
    /// [`StoreError::OutOfOrder`] when the chunk starts before the
    /// last record already written, or I/O errors.
    pub(crate) fn append_chunk(&mut self, chunk: VerifiedChunk<'_>) -> Result<()> {
        let VerifiedChunk { meta, bytes } = chunk;
        if meta.records == 0 {
            return Ok(());
        }
        if self.any_pushed && meta.min_micros < self.prev_micros {
            return Err(StoreError::OutOfOrder {
                prev: self.prev_micros,
                next: meta.min_micros,
            });
        }
        self.flush_chunk()?;
        self.out.write_all(&bytes)?;
        self.metrics.records_written.add(meta.records);
        self.metrics.chunks_written.inc();
        self.chunks.push(ChunkMeta {
            offset: self.offset,
            ..meta.clone()
        });
        self.offset += meta.len;
        self.prev_micros = meta.max_micros;
        self.any_pushed = true;
        Ok(())
    }

    /// What goes in front of the pending chunk's records to make its
    /// payload: the name table, the record count and the first
    /// record's time. Reserves `room` bytes more.
    fn chunk_head(&self, room: usize) -> Vec<u8> {
        let mut head = Vec::with_capacity(self.names.encoded_len() + 20 + room);
        self.names.encode(&mut head);
        write_varint(&mut head, self.chunk_records);
        write_varint(&mut head, self.chunk_min);
        head
    }

    /// What this writer holds right now, as a [`StoreReader`] that
    /// reads it while the writer keeps writing: the chunks it has
    /// flushed, with their footer entries, through the reader's own
    /// handle onto the file, then — when it holds any record — the
    /// pending chunk as one last chunk, its raw payload copied into the
    /// reader and its entry made as a flush would make it (`offset`
    /// where the chunk would land, `len` and `checksum` zero: it is
    /// not stored). Nothing is decoded. The reader counts into the
    /// writer's registry, and its handle keeps the flushed chunks
    /// readable after the file is renamed or deleted.
    ///
    /// # Errors
    ///
    /// On I/O failure pushing the flushed chunks to the file or opening
    /// the read handle.
    pub fn snapshot(&mut self) -> Result<StoreReader> {
        self.out.flush()?;
        let pending = (self.chunk_records > 0).then(|| {
            let mut payload = self.chunk_head(self.chunk_buf.len());
            payload.extend_from_slice(&self.chunk_buf);
            let meta = ChunkMeta {
                offset: self.offset,
                len: 0,
                records: self.chunk_records,
                min_micros: self.chunk_min,
                max_micros: self.prev_micros,
                checksum: 0,
                filter: self.filter.finish_adaptive(),
            };
            (meta, payload)
        });
        StoreReader::of_writer(&self.path, self.chunks.clone(), pending, &self.registry)
    }

    fn flush_chunk(&mut self) -> Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        // The payload is built in place: the head goes in front of the
        // records.
        let head = self.chunk_head(0);
        self.chunk_buf.reserve_exact(head.len());
        self.chunk_buf.splice(0..0, head);
        let payload = &self.chunk_buf;
        let raw_len = payload.len();

        let c = compress::compress(payload);
        let mut frame = Vec::new();
        write_varint(&mut frame, payload.len() as u64);
        // Raw fallback: only keep the compressed form when flags +
        // frame + stream beat flags + raw. The stored chunk goes to the
        // file piece by piece, checksummed on the way.
        let stored: [&[u8]; 3] = if frame.len() + c.len() < payload.len() {
            [&[FLAG_COMPRESSED], &frame, &c]
        } else {
            [&[0], payload, &[]]
        };
        let mut checksum = Fnv1a64::new();
        let mut stored_len = 0;
        for piece in stored {
            self.out.write_all(piece)?;
            checksum.update(piece);
            stored_len += piece.len();
        }
        self.metrics
            .record_chunk(self.chunk_records, raw_len, stored_len);
        self.chunks.push(ChunkMeta {
            offset: self.offset,
            len: stored_len as u64,
            records: self.chunk_records,
            min_micros: self.chunk_min,
            max_micros: self.prev_micros,
            checksum: checksum.finish(),
            filter: self.filter.finish_adaptive(),
        });
        self.offset += stored_len as u64;
        self.chunk_buf.clear();
        self.names = NameTable::new();
        self.chunk_records = 0;
        self.filter.clear();
        Ok(())
    }

    /// Flushes the trailing chunk, writes the footer, and syncs.
    ///
    /// # Errors
    ///
    /// On I/O failure; the store is unreadable unless `finish` returned
    /// `Ok`.
    pub fn finish(mut self) -> Result<StoreSummary> {
        self.flush_chunk()?;
        let footer_offset = self.offset;
        let total: u64 = self.chunks.iter().map(|m| m.records).sum();
        let mut footer = Vec::with_capacity(self.chunks.len() * 136 + 40);
        // Entries are variable-length, so the counts lead the footer.
        footer.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        footer.extend_from_slice(&total.to_le_bytes());
        for m in &self.chunks {
            let f = &m.filter;
            for v in [
                m.offset,
                m.len,
                m.records,
                m.min_micros,
                m.max_micros,
                f.min_fh,
                f.max_fh,
                m.checksum,
            ] {
                footer.extend_from_slice(&v.to_le_bytes());
            }
            match &f.kind {
                FilterKind::Exact(handles) => {
                    footer.push(FILTER_KIND_EXACT);
                    footer.extend_from_slice(&(handles.len() as u32).to_le_bytes());
                    for h in handles {
                        footer.extend_from_slice(&h.to_le_bytes());
                    }
                }
                FilterKind::Bloom { hashes, bits } => {
                    footer.push(FILTER_KIND_BLOOM);
                    footer.push(u8::try_from(*hashes).expect("small hash count"));
                    footer.extend_from_slice(&(bits.len() as u32).to_le_bytes());
                    footer.extend_from_slice(bits);
                }
            }
        }
        let sum = fnv1a64(&footer);
        footer.extend_from_slice(&sum.to_le_bytes());
        footer.extend_from_slice(&footer_offset.to_le_bytes());
        footer.extend_from_slice(END_MAGIC);
        self.out.write_all(&footer)?;
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        Ok(StoreSummary {
            total_records: total,
            chunks: self.chunks.len(),
            file_bytes: footer_offset + footer.len() as u64,
        })
    }
}

impl RecordSink for StoreWriter {
    type Err = StoreError;

    fn push_record(&mut self, record: TraceRecord) -> Result<()> {
        self.push(&record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StoreReader;
    use nfstrace_core::record::{FileId, Op};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("nfstrace-store-writer-tests");
        std::fs::create_dir_all(&dir).expect("mkdir tempdir");
        dir.join(format!("{name}-{}", std::process::id()))
    }

    /// A sealed one-chunk store holding records at `micros`.
    fn sealed(name: &str, micros: std::ops::Range<u64>) -> StoreReader {
        let path = tmp(name);
        let mut w = StoreWriter::create(&path, StoreConfig::default()).expect("create");
        for t in micros {
            w.push(&TraceRecord::new(t, Op::Read, FileId(t % 3)))
                .expect("push");
        }
        w.finish().expect("finish");
        StoreReader::open(&path).expect("open")
    }

    #[test]
    fn append_chunk_relocates_bytes_and_footer_entry() {
        let early = sealed("append-early", 0..10);
        let late = sealed("append-late", 10..20);
        let out = tmp("append-out");
        let mut w = StoreWriter::create(&out, StoreConfig::default()).expect("create");
        w.append_chunk(early.read_chunk_verified(0).expect("read"))
            .expect("append");
        // A pushed record after a relocated chunk opens a fresh chunk,
        // which the next relocation flushes ahead of itself.
        w.push(&TraceRecord::new(10, Op::Write, FileId(9)))
            .expect("push");
        w.append_chunk(late.read_chunk_verified(0).expect("read"))
            .expect("append");
        let summary = w.finish().expect("finish");
        assert_eq!((summary.total_records, summary.chunks), (21, 3));

        let merged = StoreReader::open(&out).expect("open");
        for (moved, source) in [(0, &early), (2, &late)] {
            let expect = ChunkMeta {
                offset: merged.chunks()[moved].offset,
                ..source.chunks()[0].clone()
            };
            assert_eq!(merged.chunks()[moved], expect);
            assert_eq!(
                merged.read_chunk(moved).expect("decode"),
                source.read_chunk(0).expect("decode")
            );
        }
        for r in [&early, &late, &merged] {
            std::fs::remove_file(r.path()).ok();
        }
    }

    #[test]
    fn append_chunk_rejects_a_chunk_that_starts_in_the_past() {
        let early = sealed("order-early", 0..10);
        let late = sealed("order-late", 5..20);
        let out = tmp("order-out");
        let mut w = StoreWriter::create(&out, StoreConfig::default()).expect("create");
        w.append_chunk(early.read_chunk_verified(0).expect("read"))
            .expect("append");
        let err = w
            .append_chunk(late.read_chunk_verified(0).expect("read"))
            .expect_err("5 precedes 9");
        assert!(
            matches!(err, StoreError::OutOfOrder { prev: 9, next: 5 }),
            "{err}"
        );
        // Equal timestamps across the seam are in order.
        let tie = sealed("order-tie", 9..12);
        w.append_chunk(tie.read_chunk_verified(0).expect("read"))
            .expect("a tie is nondecreasing");
        for r in [&early, &late, &tie] {
            std::fs::remove_file(r.path()).ok();
        }
        std::fs::remove_file(&out).ok();
    }

    #[test]
    fn append_chunk_drops_zero_record_chunks() {
        let out = tmp("empty-out");
        let mut w = StoreWriter::create(&out, StoreConfig::default()).expect("create");
        w.push(&TraceRecord::new(100, Op::Read, FileId(1)))
            .expect("push");
        // The reader's normalized empty chunk: no records, the empty
        // time range — which must neither trip the order check nor
        // reach the footer.
        let empty = ChunkMeta {
            offset: 8,
            len: 1,
            records: 0,
            min_micros: u64::MAX,
            max_micros: 0,
            checksum: fnv1a64(&[0]),
            filter: FilterBuilder::new().finish_adaptive(),
        };
        w.append_chunk(VerifiedChunk {
            meta: &empty,
            bytes: vec![0],
        })
        .expect("dropped, not an error");
        let summary = w.finish().expect("finish");
        assert_eq!((summary.total_records, summary.chunks), (1, 1));
        std::fs::remove_file(&out).ok();
    }

    /// A snapshot is a reader over what the writer holds: its flushed
    /// chunks with their footer entries, filters included, then the
    /// pending chunk, which decodes but has no stored bytes to verify.
    #[test]
    fn a_snapshot_reads_the_flushed_chunks_and_the_pending_one() {
        let path = tmp("snapshot");
        let config = StoreConfig {
            target_chunk_bytes: 256,
        };
        let mut w = StoreWriter::create(&path, config).expect("create");
        let records: Vec<TraceRecord> = (0..300u64)
            .map(|t| TraceRecord::new(t * 10, Op::Read, FileId(t % 4)))
            .collect();
        for r in &records {
            w.push(r).expect("push");
        }
        let snapshot = w.snapshot().expect("snapshot");
        let pending = snapshot.chunk_count() - 1;
        assert!(pending > 1, "flushed chunks and a pending one");
        assert_eq!(snapshot.total_records(), 300);
        let mut back = Vec::new();
        snapshot.for_each(|r| back.push(r.clone())).expect("decode");
        assert_eq!(back, records);
        let probe = FileId(2);
        let want: Vec<TraceRecord> = records.iter().filter(|r| r.fh == probe).cloned().collect();
        assert_eq!(snapshot.records_for_file(probe).expect("query"), want);
        assert!(
            matches!(snapshot.read_chunk_verified(pending), Err(StoreError::Format(m)) if m.contains("pending")),
            "the pending chunk has no stored bytes"
        );

        // The flushed chunks' entries are the ones the footer gets.
        w.push(&TraceRecord::new(5_000, Op::Write, FileId(9)))
            .expect("push");
        w.finish().expect("finish");
        let sealed = StoreReader::open(&path).expect("open");
        assert_eq!(sealed.chunks()[..pending], snapshot.chunks()[..pending]);
        std::fs::remove_file(&path).ok();
    }

    /// The raw payload length of each stored chunk: the frame's varint
    /// when compressed, the bytes after the flags byte when not.
    fn payload_lens(reader: &StoreReader) -> Vec<usize> {
        (0..reader.chunks().len())
            .map(|i| {
                let chunk = reader.read_chunk_verified(i).expect("read");
                if chunk.bytes[0] & FLAG_COMPRESSED != 0 {
                    let mut pos = 1;
                    crate::codec::read_varint(&chunk.bytes, &mut pos).expect("frame") as usize
                } else {
                    chunk.bytes.len() - 1
                }
            })
            .collect()
    }

    /// A chunk target past what any reader accepts still writes a
    /// readable store: the writer flushes before a payload could pass
    /// the ceiling (here 4 KiB through `push_under`, since the
    /// `MAX_CHUNK_PAYLOAD` that `push` keeps to is 1 GiB, more than a
    /// test can afford to reach), and refuses a record that could
    /// not fit even an empty chunk.
    #[test]
    fn no_chunk_payload_passes_the_ceiling() {
        let path = tmp("ceiling");
        let config = StoreConfig {
            target_chunk_bytes: usize::MAX,
        };
        let mut w = StoreWriter::create(&path, config).expect("create");
        let records: Vec<TraceRecord> = (0..2_000u64)
            .map(|t| {
                TraceRecord::new(t, Op::Lookup, FileId(t % 7)).with_name(format!("name-{}", t % 50))
            })
            .collect();
        for r in &records {
            w.push_under(r, 4096).expect("push");
        }
        let huge = TraceRecord::new(2_000, Op::Lookup, FileId(1)).with_name("x".repeat(2_000));
        assert!(
            matches!(w.push_under(&huge, 4096), Err(StoreError::Format(m)) if m.contains("does not fit")),
            "a record that fits no chunk is refused"
        );
        let summary = w.finish().expect("finish");
        assert!(summary.chunks > 1, "{} chunk(s)", summary.chunks);

        let reader = StoreReader::open(&path).expect("open");
        for (i, len) in payload_lens(&reader).into_iter().enumerate() {
            assert!(len <= 4096, "chunk {i} holds a {len}-byte payload");
        }
        let mut back = Vec::new();
        reader.for_each(|r| back.push(r.clone())).expect("decode");
        assert_eq!(back, records);
        std::fs::remove_file(&path).ok();
    }
}
