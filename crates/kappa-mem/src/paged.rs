//! `PagedGraph` — the out-of-core store of the [`SegmentGraph`].
//!
//! The Θ(m) part of the graph (the per-node edge segments, same encoding as
//! [`CompactCsr`](crate::CompactCsr)) lives in a file; RAM holds only the
//! Θ(n) per-node scalars — byte offsets, degrees, node weights — plus a
//! **fixed-budget direct-mapped page cache**. Every segment read goes through
//! `seek` + `read_exact` on cache miss; there is no `mmap` and no `unsafe`,
//! so behaviour (and peak RSS) is fully deterministic: the cache never holds
//! more than `page_size × cache_pages` bytes regardless of graph size.
//!
//! Direct mapping (slot = `page mod slots`) instead of LRU is deliberate:
//! the pipeline's hot loops are either sequential node sweeps (matching,
//! contraction — misses once per page) or boundary-local re-reads (FM — the
//! band fits in a few hundred pages), and a predictable eviction rule keeps
//! the replacement behaviour identical run to run.
//!
//! Coordinates are dropped by design: they are only consulted by the
//! geometric pre-partition of the parallel matcher, which the tiered
//! pipeline does not use (see `kappa-core::tiered`).
//!
//! # Row order
//!
//! The file keeps the rows in the graph's storage order, which the writer's
//! caller chooses: a scattered input's
//! [`locality_order`], and below it the order
//! each coarse level inherits from its fine level. A band search then reads
//! rows that sit on a few neighbouring pages instead of one page per row.
//! Node ids are unchanged; only the offsets are indexed by position.
//!
//! # File format (`KMEMPGv2`, little-endian)
//!
//! ```text
//! [0, 64)    header: magic "KMEMPGv2" | flags u32 (1 = edge weights stored,
//!            2 = node weights stored, 4 = row order stored) | 4 zero bytes |
//!            n | 2m | c(V) | max c(v) | edge-region length (five u64) |
//!            8 zero bytes
//! [64, …)    edge region: one delta-varint segment per row, in storage order
//! then       offsets (n + 1) × u64 by position, degrees n × u32 by node,
//!            node weights n × u64 by node (only with flag 2), the node at
//!            each position n × u32 (only with flag 4; without it the rows
//!            are in id order)
//! ```
//!
//! [`open`](SegmentGraph::open) trusts none of it: flags, lengths, offsets,
//! sums and the order (a permutation of the nodes) are checked against the
//! file before anything is allocated, and a mismatch is `InvalidData` naming
//! the field. What it cannot see without
//! per-page checksums (a later format) is damage *inside* the edge region,
//! or a flipped edge-weights flag, which changes how segments are read but
//! not how long they are.
//!
//! # Scratch, not archive
//!
//! A paged file is a run's scratch: the pipeline writes it (a spill level,
//! the CLI's finest graph), reads it back only through the descriptor that
//! wrote it, and deletes it when the graph drops. Read-after-write through
//! the OS page cache is all that needs, so `seal` does **not** fsync. An
//! fsync would make the filesystem allocate and write blocks that the
//! unlink then has to free again, and that free lands on the last `close`:
//! on ext4 mounted with `discard` it cost 0.04–0.16 s per spill level, about
//! half of a paged rgg 2^17 call. (A file that outlives the kernel's own
//! writeback interval still pays it once, on its close.)
//!
//! The cost is that nothing is promised after an OS crash or power loss.
//! No run reopens a spill file then (it is garbage of a dead process), but
//! a file reopened by hand with `open` may be any mix of written and lost
//! pages. `open` still rejects every such file whose header, length or
//! index is incomplete or inconsistent. It cannot vouch for the edge
//! region: lost edge pages behind an intact index decode as wrong edges or
//! panic in the varint decoder, exactly like the damage above.

use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use kappa_graph::{locality_order, CsrGraph, EdgeWeight, NodeId, NodeOrder};

use crate::graph::{
    csr_rows, is_weighted, weight_totals, Index, SegmentGraph, SegmentWriter, Store,
};
use crate::segment::{encode_segment, SegmentIter};

const MAGIC: [u8; 8] = *b"KMEMPGv2";
const HEADER_LEN: u64 = 64;
const FLAG_WEIGHTED: u32 = 1;
const FLAG_HAS_VWGT: u32 = 2;
const FLAG_HAS_ORDER: u32 = 4;
/// Byte position of the first of the header's five consecutive `u64` fields.
const HEADER_FIELDS_AT: usize = 16;

/// A frozen graph whose edge segments live on disk behind a page cache.
pub type PagedGraph = SegmentGraph<PageFile>;

/// Streaming builder of a [`PagedGraph`]: edge segments go straight to disk
/// through a `BufWriter`, only the Θ(n) offset/degree tables stay in RAM.
pub type PagedWriter = SegmentWriter<PageFile>;

/// Page-cache geometry. The RAM ceiling of a paged graph's edge storage is
/// `page_size * cache_pages` (default 64 MiB) — independent of graph size.
#[derive(Clone, Copy, Debug)]
pub struct PageCacheConfig {
    /// Bytes per page (default 64 KiB).
    pub page_size: usize,
    /// Number of direct-mapped cache slots (default 1024).
    pub cache_pages: usize,
}

impl Default for PageCacheConfig {
    fn default() -> Self {
        PageCacheConfig {
            page_size: 64 << 10,
            cache_pages: 1024,
        }
    }
}

/// Hit/miss counters of the page cache (monotonic since open/reset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Page lookups served from a resident slot.
    pub hits: u64,
    /// Page lookups that had to read from disk.
    pub misses: u64,
}

struct CacheSlot {
    /// Page id resident in this slot; `u64::MAX` = empty.
    page: u64,
    data: Vec<u8>,
}

struct PageCache {
    file: File,
    /// Byte length of the edge region (starts at `HEADER_LEN` in the file).
    region_len: u64,
    page_size: usize,
    slots: Vec<CacheSlot>,
    stats: CacheStats,
}

impl PageCache {
    fn new(file: File, region_len: u64, config: PageCacheConfig) -> Self {
        let slots = (0..config.cache_pages.max(1))
            .map(|_| CacheSlot {
                page: u64::MAX,
                data: Vec::new(),
            })
            .collect();
        PageCache {
            file,
            region_len,
            page_size: config.page_size.max(512),
            slots,
            stats: CacheStats::default(),
        }
    }

    /// Appends the edge-region bytes `[lo, hi)` to `out`.
    fn copy_range(&mut self, lo: u64, hi: u64, out: &mut Vec<u8>) -> io::Result<()> {
        debug_assert!(hi <= self.region_len);
        let ps = self.page_size as u64;
        let mut pos = lo;
        while pos < hi {
            let page = pos / ps;
            let slot_idx = (page % self.slots.len() as u64) as usize;
            if self.slots[slot_idx].page != page {
                self.stats.misses += 1;
                let page_start = page * ps;
                let len = (self.region_len - page_start).min(ps) as usize;
                let slot = &mut self.slots[slot_idx];
                slot.data.resize(len, 0);
                self.file.seek(SeekFrom::Start(HEADER_LEN + page_start))?;
                self.file.read_exact(&mut slot.data[..len])?;
                slot.page = page;
            } else {
                self.stats.hits += 1;
            }
            let in_page = (pos - page * ps) as usize;
            let take = ((hi - pos) as usize).min(self.page_size - in_page);
            out.extend_from_slice(&self.slots[slot_idx].data[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok(())
    }
}

/// The file store: a segment is copied out through the page cache into a
/// per-thread scratch (so its edges are handed out owned — the slot can be
/// evicted), degrees stay resident so `degree` never touches disk, and
/// coordinates are dropped.
pub struct PageFile {
    path: PathBuf,
    delete_on_drop: bool,
    degrees: Vec<u32>,
    cache: Mutex<PageCache>,
}

/// A [`PageFile`] being written.
pub struct PageFileSink {
    path: PathBuf,
    out: BufWriter<File>,
    /// The degree of each pushed row, in storage order.
    degrees: Vec<u32>,
    segment: Vec<u8>,
    cache: PageCacheConfig,
}

thread_local! {
    /// Per-thread byte scratch for segment reads. `Cell` + take/set instead
    /// of `RefCell` so a re-entrant read (callback reads the graph again)
    /// degrades to a fresh allocation rather than a borrow panic.
    static SEGMENT_SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

impl Store for PageFile {
    type Sink = PageFileSink;

    fn push(
        sink: &mut PageFileSink,
        edges: &[(NodeId, EdgeWeight)],
        weighted: bool,
    ) -> io::Result<usize> {
        sink.segment.clear();
        encode_segment(&mut sink.segment, edges, weighted);
        sink.out.write_all(&sink.segment)?;
        sink.degrees.push(edges.len() as u32);
        Ok(sink.segment.len())
    }

    /// Writes the index regions after the edge region and back-fills the
    /// header. No fsync: the graph reads back through this descriptor, which
    /// the OS page cache serves (see the module docs).
    fn seal(
        mut sink: PageFileSink,
        index: &Index,
        _coords: Option<Vec<[f64; 2]>>,
    ) -> io::Result<PageFile> {
        let n = sink.degrees.len();
        let degrees = match &index.order {
            Some(order) => {
                let mut by_node = vec![0u32; n];
                for (&v, &d) in order.nodes().iter().zip(&sink.degrees) {
                    by_node[v as usize] = d;
                }
                by_node
            }
            None => std::mem::take(&mut sink.degrees),
        };
        for &o in &index.offsets {
            sink.out.write_all(&o.to_le_bytes())?;
        }
        for &d in &degrees {
            sink.out.write_all(&d.to_le_bytes())?;
        }
        for &w in index.vwgt.iter().flatten() {
            sink.out.write_all(&w.to_le_bytes())?;
        }
        for &v in index.order.iter().flat_map(NodeOrder::nodes) {
            sink.out.write_all(&v.to_le_bytes())?;
        }
        let region_len = index.offsets[n];
        let mut flags = 0u32;
        if index.weighted {
            flags |= FLAG_WEIGHTED;
        }
        if index.vwgt.is_some() {
            flags |= FLAG_HAS_VWGT;
        }
        if index.order.is_some() {
            flags |= FLAG_HAS_ORDER;
        }
        let mut header = [0u8; HEADER_LEN as usize];
        header[..8].copy_from_slice(&MAGIC);
        header[8..12].copy_from_slice(&flags.to_le_bytes());
        let fields = [
            n as u64,
            index.num_half_edges as u64,
            index.total_node_weight,
            index.max_node_weight,
            region_len,
        ];
        for (field, at) in fields.iter().zip((HEADER_FIELDS_AT..).step_by(8)) {
            header[at..at + 8].copy_from_slice(&field.to_le_bytes());
        }
        let mut file = sink.out.into_inner().map_err(|e| e.into_error())?;
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header)?;
        Ok(PageFile {
            path: sink.path,
            delete_on_drop: false,
            degrees,
            cache: Mutex::new(PageCache::new(file, region_len, sink.cache)),
        })
    }

    /// # Panics
    /// Panics on I/O failure: the partitioning pipeline cannot continue
    /// without its graph, so disk errors after a successful open are fatal by
    /// design.
    fn with_segment<R>(&self, lo: u64, hi: u64, f: impl FnOnce(&[u8]) -> R) -> R {
        SEGMENT_SCRATCH.with(|cell| {
            let mut buf = cell.take();
            buf.clear();
            self.cache
                .lock()
                .expect("page cache poisoned")
                .copy_range(lo, hi, &mut buf)
                .unwrap_or_else(|e| {
                    panic!("paged graph read failed ({}): {e}", self.path.display())
                });
            let result = f(&buf);
            cell.set(buf);
            result
        })
    }

    fn segment_edges(
        &self,
        lo: u64,
        hi: u64,
        weighted: bool,
    ) -> impl Iterator<Item = (NodeId, EdgeWeight)> + '_ {
        // `SegmentIter` knows its length, so this allocates the degree once.
        self.with_segment(lo, hi, |bytes| {
            Vec::from_iter(SegmentIter::new(bytes, weighted))
        })
        .into_iter()
    }

    #[inline]
    fn resident_degree(&self, v: NodeId) -> Option<usize> {
        Some(self.degrees[v as usize] as usize)
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        if self.delete_on_drop {
            let _ = fs::remove_file(&self.path);
        }
    }
}

impl SegmentWriter<PageFile> {
    /// Creates (truncates) `path` and positions the writer at the edge
    /// region; the finished graph reads through a cache shaped by `cache`.
    pub fn create(
        path: &Path,
        nodes_hint: usize,
        weighted: bool,
        cache: PageCacheConfig,
    ) -> io::Result<Self> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        // Header is back-filled by `seal`; reserve its bytes now.
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        let sink = PageFileSink {
            path: path.to_path_buf(),
            out: BufWriter::with_capacity(1 << 20, file),
            degrees: Vec::with_capacity(nodes_hint),
            segment: Vec::new(),
            cache,
        };
        Ok(SegmentWriter::over(sink, nodes_hint, weighted))
    }
}

fn invalid(path: &Path, what: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{}: {what}", path.display()),
    )
}

/// Reads `len` little-endian integers. `len` must already be bounded by the
/// file's length.
fn read_le_vec<T, const N: usize>(
    r: &mut impl Read,
    len: usize,
    from_le: fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out = Vec::with_capacity(len);
    let mut b = [0u8; N];
    for _ in 0..len {
        r.read_exact(&mut b)?;
        out.push(from_le(b));
    }
    Ok(out)
}

impl SegmentGraph<PageFile> {
    /// Opens a graph file written by [`PagedWriter`], validating its header
    /// and index against the file's length before allocating for them.
    ///
    /// # Errors
    /// `InvalidData` naming the offending field for anything that is not a
    /// complete `KMEMPGv2` file; other kinds are the I/O errors underneath.
    pub fn open(path: &Path, config: PageCacheConfig) -> io::Result<PagedGraph> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(invalid(path, "shorter than a paged-graph header"));
        }
        file.read_exact(&mut header)?;
        if header[..8] != MAGIC {
            return Err(invalid(path, "not a kappa-mem paged graph"));
        }
        let flags = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
        if flags & !(FLAG_WEIGHTED | FLAG_HAS_VWGT | FLAG_HAS_ORDER) != 0 {
            return Err(invalid(path, format_args!("unknown flags {flags:#x}")));
        }
        let field = |i: usize| {
            let at = HEADER_FIELDS_AT + 8 * i;
            u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"))
        };
        let (num_nodes, num_half_edges, region_len) = (field(0), field(1), field(4));
        // (n + 1) offsets, n degrees, n node weights and n order entries if
        // stored: nothing is allocated until these add up to the file's
        // length.
        let per_node = 12
            + if flags & FLAG_HAS_VWGT != 0 { 8 } else { 0 }
            + if flags & FLAG_HAS_ORDER != 0 { 4 } else { 0 };
        let expected_len = num_nodes
            .checked_mul(per_node)
            .and_then(|index| index.checked_add(HEADER_LEN + 8))
            .and_then(|rest| rest.checked_add(region_len));
        if expected_len != Some(file_len) {
            return Err(invalid(
                path,
                format_args!(
                    "num_nodes {num_nodes} and region_len {region_len} do not add up to the \
                     file's {file_len} bytes"
                ),
            ));
        }
        let n = num_nodes as usize;

        file.seek(SeekFrom::Start(HEADER_LEN + region_len))?;
        let mut reader = BufReader::new(file);
        let offsets = read_le_vec(&mut reader, n + 1, u64::from_le_bytes)?;
        let degrees = read_le_vec(&mut reader, n, u32::from_le_bytes)?;
        let vwgt = if flags & FLAG_HAS_VWGT != 0 {
            Some(read_le_vec(&mut reader, n, u64::from_le_bytes)?)
        } else {
            None
        };
        let order = if flags & FLAG_HAS_ORDER != 0 {
            let order = read_le_vec(&mut reader, n, u32::from_le_bytes)?;
            NodeOrder::new(order)
                .map_err(|e| invalid(path, format_args!("order is not a permutation: {e}")))?
        } else {
            None
        };
        if offsets[0] != 0 || offsets[n] != region_len || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(invalid(path, "offsets do not ascend from 0 to region_len"));
        }
        if degrees.iter().map(|&d| u64::from(d)).sum::<u64>() != num_half_edges {
            return Err(invalid(path, "degrees do not sum to num_half_edges"));
        }
        let (total_node_weight, max_node_weight) = (field(2), field(3));
        if weight_totals(vwgt.as_deref(), n) != Some((total_node_weight, max_node_weight)) {
            return Err(invalid(
                path,
                "total_node_weight / max_node_weight disagree with the node weights",
            ));
        }
        Ok(SegmentGraph {
            index: Index {
                offsets,
                order,
                weighted: flags & FLAG_WEIGHTED != 0,
                vwgt,
                num_half_edges: num_half_edges as usize,
                total_node_weight,
                max_node_weight,
            },
            store: PageFile {
                path: path.to_path_buf(),
                delete_on_drop: false,
                degrees,
                cache: Mutex::new(PageCache::new(reader.into_inner(), region_len, config)),
            },
        })
    }

    /// Writes `graph` to `path` in paged form and opens it. Convenience for
    /// tests and for spilling an in-RAM graph; large graphs should stream
    /// through [`TierGraph::from_source`](crate::TierGraph::from_source)
    /// instead of materialising the CSR first.
    ///
    /// A scattered graph's rows are stored in its
    /// [`locality_order`].
    pub fn from_graph(
        graph: &CsrGraph,
        path: &Path,
        config: PageCacheConfig,
    ) -> io::Result<PagedGraph> {
        let weighted = is_weighted(graph);
        PagedWriter::create(path, graph.num_nodes(), weighted, config)?
            .fill(locality_order(graph), |order, push| {
                csr_rows(graph, order, weighted, false, push)
            })
    }

    /// When set, the backing file is removed when the graph is dropped —
    /// used for hierarchy spill files in temp directories.
    pub fn set_delete_on_drop(&mut self, delete: bool) {
        self.store.delete_on_drop = delete;
    }

    /// Snapshot of the page-cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.cache.lock().expect("page cache poisoned").stats
    }

    /// Resets the hit/miss counters to zero.
    pub fn reset_cache_stats(&self) {
        self.store.cache.lock().expect("page cache poisoned").stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::conformance::tmp;
    use crate::TierSpec;
    use kappa_graph::{graph_from_edges, GraphAccess, GraphBuilder};

    fn tiny_cache() -> PageCacheConfig {
        PageCacheConfig {
            page_size: 512,
            cache_pages: 2,
        }
    }

    crate::graph::conformance::store_conformance!(|path| TierSpec::Paged {
        path,
        cache: tiny_cache(),
    });

    #[test]
    fn reopen_from_disk_sees_identical_graph() {
        let g = kappa_gen::rgg::random_geometric_graph(512, 7);
        let path = tmp("reopen");
        {
            let p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
            assert_eq!(GraphAccess::num_half_edges(&p), g.num_half_edges());
        }
        let mut p = PagedGraph::open(&path, PageCacheConfig::default()).unwrap();
        p.set_delete_on_drop(true);
        for v in g.nodes() {
            let a: Vec<_> = g.edges_of(v).collect();
            let b: Vec<_> = GraphAccess::edges_of(&p, v).collect();
            assert_eq!(a, b, "node {v}");
        }
        assert_eq!(GraphAccess::max_node_weight(&p), g.max_node_weight());
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let g = kappa_gen::grid::grid2d(32, 32);
        let path = tmp("stats");
        let mut p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
        p.set_delete_on_drop(true);
        // Sequential sweep: mostly hits after the first touch of each page.
        for v in g.nodes() {
            p.for_each_edge(v, |_, _| {});
        }
        let s = p.cache_stats();
        assert!(s.hits > s.misses, "sweep should be cache-friendly: {s:?}");
        p.reset_cache_stats();
        assert_eq!(p.cache_stats(), CacheStats::default());
        // Ping-pong between distant nodes with a 2-slot cache: mostly misses.
        for _ in 0..64 {
            p.for_each_edge(0, |_, _| {});
            p.for_each_edge((g.num_nodes() - 1) as NodeId, |_, _| {});
        }
        let s = p.cache_stats();
        assert!(s.misses > 0);
    }

    #[test]
    fn delete_on_drop_removes_file() {
        let g = graph_from_edges(3, vec![(0, 1, 1), (1, 2, 1)]);
        let path = tmp("dropdel");
        {
            let mut p = PagedGraph::from_graph(&g, &path, tiny_cache()).unwrap();
            p.set_delete_on_drop(true);
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn rejects_foreign_files() {
        let path = tmp("foreign");
        std::fs::write(&path, b"definitely not a graph").unwrap();
        assert!(PagedGraph::open(&path, PageCacheConfig::default()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    /// The graph `LITERAL_FILE` spells: a weighted path 0 –5– 2 –300– 1 with
    /// node weights 2, 1, 4. Its ids are scattered (mean span 1.5 of 3
    /// nodes), so its rows are stored in BFS order 0, 2, 1.
    fn literal_graph() -> CsrGraph {
        let mut b = GraphBuilder::with_node_weights(vec![2, 1, 4]);
        b.add_edge(0, 2, 5);
        b.add_edge(2, 1, 300);
        b.build()
    }

    /// Where the order section of `LITERAL_FILE` starts.
    const LITERAL_ORDER_AT: usize = 145;

    /// `KMEMPGv2` byte by byte, written out by hand from the layout in the
    /// module docs — not produced by the writer, so writer and reader cannot
    /// drift together.
    #[rustfmt::skip]
    const LITERAL_FILE: [u8; 157] = [
        // header: magic, flags = weighted | has_vwgt | has_order, padding
        b'K', b'M', b'E', b'M', b'P', b'G', b'v', b'2',   7, 0, 0, 0,   0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0, // n
        4, 0, 0, 0, 0, 0, 0, 0, // half-edges
        7, 0, 0, 0, 0, 0, 0, 0, // total node weight
        4, 0, 0, 0, 0, 0, 0, 0, // max node weight
        13, 0, 0, 0, 0, 0, 0, 0, // edge-region length
        0, 0, 0, 0, 0, 0, 0, 0, // padding
        // edge region, rows of nodes 0, 2, 1: degree, then (target delta,
        // weight) pairs; 300 = AC 02
        1,   2, 5,
        2,   0, 5,   1, 0xAC, 0x02,
        1,   2, 0xAC, 0x02,
        // offsets (n + 1), by position
        0, 0, 0, 0, 0, 0, 0, 0,
        3, 0, 0, 0, 0, 0, 0, 0,
        9, 0, 0, 0, 0, 0, 0, 0,
        13, 0, 0, 0, 0, 0, 0, 0,
        // degrees, by node
        1, 0, 0, 0,   1, 0, 0, 0,   2, 0, 0, 0,
        // node weights, by node
        2, 0, 0, 0, 0, 0, 0, 0,
        1, 0, 0, 0, 0, 0, 0, 0,
        4, 0, 0, 0, 0, 0, 0, 0,
        // the node at each position
        0, 0, 0, 0,   2, 0, 0, 0,   1, 0, 0, 0,
    ];

    /// `open` on a scratch file holding `bytes` (unlinked again right away —
    /// an opened graph keeps reading through its descriptor).
    fn open_bytes(bytes: &[u8], what: &str) -> io::Result<PagedGraph> {
        let path = tmp(&what.replace(' ', "-"));
        std::fs::write(&path, bytes).unwrap();
        let opened = PagedGraph::open(&path, tiny_cache());
        std::fs::remove_file(&path).unwrap();
        opened
    }

    #[test]
    fn hand_assembled_file_pins_the_format() {
        let g = literal_graph();
        let p = open_bytes(&LITERAL_FILE, "literal").unwrap();
        assert_eq!(p.to_csr(), g);
        assert_eq!(p.total_node_weight(), 7);
        assert_eq!(p.max_node_weight(), 4);
        assert_eq!(p.degree(2), 2);
        assert!(p.is_weighted());
        assert_eq!(
            p.storage_order().map(NodeOrder::nodes),
            Some(&[0, 2, 1][..])
        );

        let written = tmp("literal-written");
        let mut w = PagedGraph::from_graph(&g, &written, tiny_cache()).unwrap();
        w.set_delete_on_drop(true);
        assert_eq!(std::fs::read(&written).unwrap(), LITERAL_FILE);
    }

    /// `open` on `bytes`: an error must be `InvalidData` (its message is
    /// returned), a success must be the literal graph.
    fn rejected_or_exact(bytes: &[u8], what: &str) -> Option<String> {
        match open_bytes(bytes, what) {
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{what}: {e}");
                Some(e.to_string())
            }
            Ok(p) => {
                assert_eq!(p.to_csr(), literal_graph(), "{what}");
                assert_eq!(p.total_node_weight(), 7, "{what}");
                assert_eq!(p.max_node_weight(), 4, "{what}");
                None
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        for cut in 0..LITERAL_FILE.len() {
            let what = format!("prefix {cut}");
            assert!(
                rejected_or_exact(&LITERAL_FILE[..cut], &what).is_some(),
                "{what} opened"
            );
        }
    }

    #[test]
    fn every_header_bit_flip_is_rejected_or_harmless() {
        for byte in 0..HEADER_LEN as usize {
            for bit in 0..8 {
                // The edge-weights flag changes how segments decode, not how
                // long anything is: only per-page checksums could catch it.
                if (byte, 1u32 << bit) == (8, FLAG_WEIGHTED) {
                    continue;
                }
                let mut bad = LITERAL_FILE;
                bad[byte] ^= 1 << bit;
                rejected_or_exact(&bad, &format!("byte {byte} bit {bit}"));
            }
            let mut bad = LITERAL_FILE;
            bad[byte] ^= 0xFF;
            rejected_or_exact(&bad, &format!("byte {byte} inverted"));
        }
    }

    #[test]
    fn every_order_bit_flip_is_rejected() {
        // A flip turns one entry of a permutation into another node's id or
        // past the last node: a repeat or an overrun either way.
        for byte in LITERAL_ORDER_AT..LITERAL_FILE.len() {
            for bit in 0..8 {
                let mut bad = LITERAL_FILE;
                bad[byte] ^= 1 << bit;
                let what = format!("byte {byte} bit {bit}");
                let message = rejected_or_exact(&bad, &what).expect(&what);
                assert!(message.contains("order"), "{what}: {message}");
            }
        }
    }

    #[test]
    fn oversized_header_fields_do_not_allocate() {
        // A header-only file claiming 2^60 nodes used to die in
        // `Vec::with_capacity`; the largest counts must not overflow either.
        for num_nodes in [1u64 << 60, u64::MAX, u64::MAX / 12] {
            let mut bytes = LITERAL_FILE[..HEADER_LEN as usize].to_vec();
            bytes[16..24].copy_from_slice(&num_nodes.to_le_bytes());
            assert!(rejected_or_exact(&bytes, &format!("num_nodes {num_nodes}")).is_some());
        }
        let mut bytes = LITERAL_FILE;
        bytes[48..56].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(rejected_or_exact(&bytes, "region_len max").is_some());
    }

    #[test]
    fn inconsistent_index_is_rejected() {
        let offsets_at = 64 + 13;
        for (at, value, what, names) in [
            (offsets_at, 1, "first offset", "offsets"),
            (offsets_at + 8, 10, "descending offset", "offsets"),
            (offsets_at + 24, 12, "last offset", "offsets"),
            (offsets_at + 32, 2, "degree", "num_half_edges"),
            (offsets_at + 44, 3, "node weight", "total_node_weight"),
            (LITERAL_ORDER_AT + 4, 0, "repeated node", "listed twice"),
            (
                LITERAL_ORDER_AT + 8,
                3,
                "node past the last",
                "out of range",
            ),
        ] {
            let mut bad = LITERAL_FILE;
            bad[at] = value;
            let message = rejected_or_exact(&bad, what).expect(what);
            assert!(message.contains(names), "{what}: {message}");
        }
    }
}
