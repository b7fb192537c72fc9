//! Trace sources: where the pipeline pulls its inputs from.

use bytes::Bytes;
use mosaic_darshan::TraceLog;
use std::sync::Arc;

/// One raw input: either undecoded MDF bytes (as read from disk) or an
/// already-decoded log (as handed over by a generator or simulator).
///
/// Both payloads are reference-counted ([`Bytes`] / [`Arc`]), so cloning a
/// `TraceInput` is O(1) — sources can hand the same trace to many fetches
/// without duplicating megabytes of records.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceInput {
    /// Raw MDF bytes; the pipeline parses (and may reject) them.
    Bytes(Bytes),
    /// A decoded log; the pipeline still validates it.
    Log(Arc<TraceLog>),
}

impl TraceInput {
    /// Wrap raw MDF bytes.
    pub fn bytes(bytes: impl Into<Bytes>) -> TraceInput {
        TraceInput::Bytes(bytes.into())
    }

    /// Wrap a decoded log.
    pub fn log(log: impl Into<Arc<TraceLog>>) -> TraceInput {
        TraceInput::Log(log.into())
    }

    /// On-the-wire size of the input: byte length for raw inputs, `0` for
    /// already-decoded logs (they never crossed the parse stage).
    pub fn wire_len(&self) -> usize {
        match self {
            TraceInput::Bytes(b) => b.len(),
            TraceInput::Log(_) => 0,
        }
    }
}

impl From<Vec<u8>> for TraceInput {
    fn from(bytes: Vec<u8>) -> TraceInput {
        TraceInput::Bytes(bytes.into())
    }
}

impl From<TraceLog> for TraceInput {
    fn from(log: TraceLog) -> TraceInput {
        TraceInput::Log(Arc::new(log))
    }
}

/// A random-access collection of trace inputs. `fetch` must be thread-safe
/// and pure — the pipeline calls it from worker threads in arbitrary order.
pub trait TraceSource: Sync {
    /// Number of traces available.
    fn len(&self) -> usize;

    /// `true` when the source is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch trace `i`. An `Err` means the input could not be *read* (I/O
    /// failure); the pipeline accounts it separately from corrupt bytes.
    fn fetch(&self, i: usize) -> std::io::Result<TraceInput>;
}

/// Adapts any `Fn(usize) -> TraceInput` closure (plus a length) into a
/// source — the glue between the pipeline and e.g.
/// `mosaic_synth::Dataset::generate`. In-memory generation cannot fail, so
/// `fetch` always succeeds.
pub struct ClosureSource<F: Fn(usize) -> TraceInput + Sync> {
    len: usize,
    fetch: F,
}

impl<F: Fn(usize) -> TraceInput + Sync> ClosureSource<F> {
    /// Wrap a closure.
    pub fn new(len: usize, fetch: F) -> Self {
        ClosureSource { len, fetch }
    }
}

impl<F: Fn(usize) -> TraceInput + Sync> TraceSource for ClosureSource<F> {
    fn len(&self) -> usize {
        self.len
    }

    fn fetch(&self, i: usize) -> std::io::Result<TraceInput> {
        debug_assert!(i < self.len);
        Ok((self.fetch)(i))
    }
}

/// An in-memory source (tests, small experiments).
pub struct VecSource {
    items: Vec<TraceInput>,
}

impl VecSource {
    /// Wrap a vector of inputs.
    pub fn new(items: Vec<TraceInput>) -> Self {
        VecSource { items }
    }
}

impl TraceSource for VecSource {
    fn len(&self) -> usize {
        self.items.len()
    }

    fn fetch(&self, i: usize) -> std::io::Result<TraceInput> {
        match self.items.get(i) {
            Some(item) => Ok(item.clone()),
            None => Err(out_of_range(i, self.items.len())),
        }
    }
}

/// An index past the end of a source is a driver bug, but it surfaces as a
/// typed I/O error rather than a panic so one bad stage cannot abort a
/// 462k-trace run.
fn out_of_range(i: usize, len: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotFound,
        format!("trace index {i} out of range for source of length {len}"),
    )
}

/// A directory of `.mdf` trace files — the production ingestion path.
///
/// Files are enumerated once at construction (sorted, for determinism) and
/// read lazily per fetch, so a directory of hundreds of thousands of traces
/// costs memory proportional to the path list only.
pub struct DirSource {
    paths: Vec<std::path::PathBuf>,
}

impl DirSource {
    /// Scan `dir` for `*.mdf` files.
    pub fn scan(dir: &std::path::Path) -> std::io::Result<DirSource> {
        let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().map(|e| e == "mdf").unwrap_or(false))
            .collect();
        // Every path is `dir` joined with one file name, so their raw bytes
        // order them exactly as `Path`'s component-wise `Ord` does, at about
        // a seventh of the cost; that sort was most of the scan.
        paths.sort_unstable_by(|a, b| a.as_os_str().cmp(b.as_os_str()));
        Ok(DirSource { paths })
    }

    /// The enumerated file paths.
    pub fn paths(&self) -> &[std::path::PathBuf] {
        &self.paths
    }
}

impl TraceSource for DirSource {
    fn len(&self) -> usize {
        self.paths.len()
    }

    fn fetch(&self, i: usize) -> std::io::Result<TraceInput> {
        let path = self.paths.get(i).ok_or_else(|| out_of_range(i, self.paths.len()))?;
        // A file that cannot be read is an I/O failure, not format
        // corruption: propagate the error so the funnel can say so.
        Ok(TraceInput::bytes(std::fs::read(path)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_darshan::job::JobHeader;
    use mosaic_darshan::log::TraceLogBuilder;

    fn tiny_log() -> TraceLog {
        TraceLogBuilder::new(JobHeader::new(1, 1, 1, 0, 10)).finish()
    }

    #[test]
    fn closure_source_delegates() {
        let s = ClosureSource::new(3, |i| TraceInput::bytes(vec![i as u8]));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.fetch(2).unwrap(), TraceInput::bytes(vec![2u8]));
    }

    #[test]
    fn vec_source_round_trips() {
        let s = VecSource::new(vec![TraceInput::log(tiny_log())]);
        assert_eq!(s.len(), 1);
        match s.fetch(0).unwrap() {
            TraceInput::Log(l) => assert_eq!(l.header().job_id, 1),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn clones_share_the_payload() {
        let input = TraceInput::log(tiny_log());
        let copy = input.clone();
        match (&input, &copy) {
            (TraceInput::Log(a), TraceInput::Log(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => panic!("wrong variants"),
        }
        let input = TraceInput::bytes(vec![1u8, 2, 3]);
        assert_eq!(input.wire_len(), 3);
        assert_eq!(TraceInput::log(tiny_log()).wire_len(), 0);
    }

    #[test]
    fn empty_source() {
        let s = VecSource::new(vec![]);
        assert!(s.is_empty());
    }

    #[test]
    fn dir_source_scans_only_mdf_files_in_order() {
        let dir = std::env::temp_dir().join(format!("mosaic_dirsource_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let log = tiny_log();
        let bytes = mosaic_darshan::mdf::to_bytes(&log);
        std::fs::write(dir.join("b.mdf"), &bytes).unwrap();
        std::fs::write(dir.join("a.mdf"), &bytes).unwrap();
        std::fs::write(dir.join("ignore.txt"), b"nope").unwrap();

        let source = DirSource::scan(&dir).unwrap();
        assert_eq!(source.len(), 2);
        assert!(source.paths()[0].ends_with("a.mdf"));
        match source.fetch(0).unwrap() {
            TraceInput::Bytes(b) => {
                assert_eq!(mosaic_darshan::mdf::from_bytes(&b).unwrap(), log)
            }
            _ => panic!("expected bytes"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_source_order_is_path_order() {
        let dir = std::env::temp_dir().join(format!("mosaic_dirsource_ord_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Prefixes of one another, punctuation either side of '.', case,
        // digits of unequal width, a space and non-ASCII bytes.
        let names =
            ["t000010", "t00001", "t0000100", "a", "a-b", "a.b", "a b", "A", "ab", "é", "z", "_"];
        for name in names {
            std::fs::write(dir.join(format!("{name}.mdf")), b"x").unwrap();
        }
        let source = DirSource::scan(&dir).unwrap();
        let mut by_path = source.paths().to_vec();
        by_path.sort();
        assert_eq!(source.paths(), &by_path[..]);
        assert_eq!(source.len(), names.len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_source_propagates_read_errors() {
        let dir = std::env::temp_dir().join(format!("mosaic_dirsource_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("gone.mdf"), b"soon deleted").unwrap();
        let source = DirSource::scan(&dir).unwrap();
        std::fs::remove_file(dir.join("gone.mdf")).unwrap();
        assert!(source.fetch(0).is_err(), "a vanished file must surface as Err, not empty bytes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dir_source_on_missing_dir_errors() {
        assert!(DirSource::scan(std::path::Path::new("/definitely/not/here")).is_err());
    }
}
