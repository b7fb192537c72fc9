//! Counter vocabulary for trace records.
//!
//! Real Darshan defines per-module counter sets (POSIX has 69 integer and 17
//! floating-point counters). This crate models the subset MOSAIC's analyses
//! read, plus a handful of counters that make synthetic traces realistic
//! (alignment, sequentiality, access-size extrema). Counters are stored as
//! dense arrays indexed by these enums, mirroring Darshan's
//! `counters[CP_POSIX_*]` layout: cheap to copy, trivially serializable and
//! friendly to the cache when millions of records are scanned.

use serde::{Deserialize, Serialize};

/// I/O API module a record was captured from.
///
/// Darshan instruments several APIs; Blue Waters traces predominantly carry
/// POSIX and MPI-IO records. The module tag travels with every record so
/// analyses can filter by API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
#[repr(u8)]
pub enum Module {
    /// POSIX syscall layer (`open`/`read`/`write`/`lseek`/`close`).
    #[default]
    Posix = 0,
    /// MPI-IO layer (`MPI_File_*`).
    MpiIo = 1,
    /// Buffered C stdio layer (`fopen`/`fread`/...).
    Stdio = 2,
}

impl Module {
    /// All modules, in tag order.
    pub const ALL: [Module; 3] = [Module::Posix, Module::MpiIo, Module::Stdio];

    /// Stable on-disk tag.
    #[inline]
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Module::tag`].
    pub fn from_tag(tag: u8) -> Option<Module> {
        match tag {
            0 => Some(Module::Posix),
            1 => Some(Module::MpiIo),
            2 => Some(Module::Stdio),
            _ => None,
        }
    }

    /// Darshan-style module name (`POSIX`, `MPIIO`, `STDIO`).
    pub fn name(self) -> &'static str {
        match self {
            Module::Posix => "POSIX",
            Module::MpiIo => "MPIIO",
            Module::Stdio => "STDIO",
        }
    }

    /// Parse a module name as produced by [`Module::name`].
    pub fn from_name(name: &str) -> Option<Module> {
        match name {
            "POSIX" => Some(Module::Posix),
            "MPIIO" => Some(Module::MpiIo),
            "STDIO" => Some(Module::Stdio),
            _ => None,
        }
    }
}

macro_rules! counter_enum {
    (
        $(#[$meta:meta])*
        $name:ident, $count:ident, $all:ident {
            $( $(#[$vmeta:meta])* $variant:ident => $text:literal ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        #[repr(usize)]
        pub enum $name {
            $( $(#[$vmeta])* $variant ),+
        }

        /// Number of counters in this set.
        pub const $count: usize = [$($name::$variant),+].len();

        impl $name {
            /// All counters, in index order.
            pub const $all: [$name; $count] = [$($name::$variant),+];

            /// Dense array index of this counter.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Darshan-style counter name (e.g. `POSIX_BYTES_READ`).
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $text ),+
                }
            }

            /// Parse a counter from its Darshan-style name.
            pub fn from_name(name: &str) -> Option<$name> {
                match name {
                    $( $text => Some($name::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

counter_enum! {
    /// Integer counters of a POSIX-module record.
    ///
    /// Names follow Darshan's `POSIX_*` vocabulary so text output is
    /// recognizable to anyone who has read `darshan-parser` output.
    PosixCounter, N_POSIX_COUNTERS, ALL {
        /// Number of `open()` calls.
        Opens => "POSIX_OPENS",
        /// Number of `close()` calls (a missing close relative to opens is a
        /// corruption signal; see [`crate::validate`]).
        Closes => "POSIX_CLOSES",
        /// Number of `read()`-family calls.
        Reads => "POSIX_READS",
        /// Number of `write()`-family calls.
        Writes => "POSIX_WRITES",
        /// Number of `lseek()`-family calls.
        Seeks => "POSIX_SEEKS",
        /// Number of `stat()`-family calls.
        Stats => "POSIX_STATS",
        /// Total bytes read from the file.
        BytesRead => "POSIX_BYTES_READ",
        /// Total bytes written to the file.
        BytesWritten => "POSIX_BYTES_WRITTEN",
        /// Highest offset read.
        MaxByteRead => "POSIX_MAX_BYTE_READ",
        /// Highest offset written.
        MaxByteWritten => "POSIX_MAX_BYTE_WRITTEN",
        /// Number of consecutive (offset-adjacent) reads.
        ConsecReads => "POSIX_CONSEC_READS",
        /// Number of consecutive (offset-adjacent) writes.
        ConsecWrites => "POSIX_CONSEC_WRITES",
        /// Number of sequential (monotonically increasing offset) reads.
        SeqReads => "POSIX_SEQ_READS",
        /// Number of sequential (monotonically increasing offset) writes.
        SeqWrites => "POSIX_SEQ_WRITES",
        /// Number of read→write / write→read switches.
        RwSwitches => "POSIX_RW_SWITCHES",
        /// Accesses not aligned in memory.
        MemNotAligned => "POSIX_MEM_NOT_ALIGNED",
        /// Accesses not aligned in file.
        FileNotAligned => "POSIX_FILE_NOT_ALIGNED",
        /// Size histogram: accesses in [0, 100) bytes.
        SizeRead0To100 => "POSIX_SIZE_READ_0_100",
        /// Size histogram: accesses in [100, 1K) bytes.
        SizeRead100To1k => "POSIX_SIZE_READ_100_1K",
        /// Size histogram: accesses in [1K, 1M) bytes.
        SizeRead1kTo1m => "POSIX_SIZE_READ_1K_1M",
        /// Size histogram: accesses ≥ 1M bytes.
        SizeRead1mPlus => "POSIX_SIZE_READ_1M_PLUS",
        /// Size histogram: writes in [0, 100) bytes.
        SizeWrite0To100 => "POSIX_SIZE_WRITE_0_100",
        /// Size histogram: writes in [100, 1K) bytes.
        SizeWrite100To1k => "POSIX_SIZE_WRITE_100_1K",
        /// Size histogram: writes in [1K, 1M) bytes.
        SizeWrite1kTo1m => "POSIX_SIZE_WRITE_1K_1M",
        /// Size histogram: writes ≥ 1M bytes.
        SizeWrite1mPlus => "POSIX_SIZE_WRITE_1M_PLUS",
    }
}

counter_enum! {
    /// Floating-point counters of a POSIX-module record (seconds relative to
    /// job start, except cumulative `*Time` counters which are durations).
    ///
    /// A value of `0.0` in a `*Timestamp` counter means "never happened",
    /// matching Darshan's convention.
    PosixFCounter, N_POSIX_FCOUNTERS, ALL {
        /// Timestamp of first `open()`.
        OpenStartTimestamp => "POSIX_F_OPEN_START_TIMESTAMP",
        /// Timestamp of last `open()` returning.
        OpenEndTimestamp => "POSIX_F_OPEN_END_TIMESTAMP",
        /// Timestamp of first `close()`.
        CloseStartTimestamp => "POSIX_F_CLOSE_START_TIMESTAMP",
        /// Timestamp of last `close()` returning.
        CloseEndTimestamp => "POSIX_F_CLOSE_END_TIMESTAMP",
        /// Timestamp of first read.
        ReadStartTimestamp => "POSIX_F_READ_START_TIMESTAMP",
        /// Timestamp of last read completing.
        ReadEndTimestamp => "POSIX_F_READ_END_TIMESTAMP",
        /// Timestamp of first write.
        WriteStartTimestamp => "POSIX_F_WRITE_START_TIMESTAMP",
        /// Timestamp of last write completing.
        WriteEndTimestamp => "POSIX_F_WRITE_END_TIMESTAMP",
        /// Cumulative seconds spent in reads.
        ReadTime => "POSIX_F_READ_TIME",
        /// Cumulative seconds spent in writes.
        WriteTime => "POSIX_F_WRITE_TIME",
        /// Cumulative seconds spent in metadata operations.
        MetaTime => "POSIX_F_META_TIME",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_tag_roundtrip() {
        for m in Module::ALL {
            assert_eq!(Module::from_tag(m.tag()), Some(m));
            assert_eq!(Module::from_name(m.name()), Some(m));
        }
        assert_eq!(Module::from_tag(7), None);
        assert_eq!(Module::from_name("HDF5"), None);
    }

    #[test]
    fn counter_indices_are_dense_and_unique() {
        for (i, c) in PosixCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in PosixFCounter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn counter_name_roundtrip() {
        for c in PosixCounter::ALL {
            assert_eq!(PosixCounter::from_name(c.name()), Some(c));
        }
        for c in PosixFCounter::ALL {
            assert_eq!(PosixFCounter::from_name(c.name()), Some(c));
        }
        assert_eq!(PosixCounter::from_name("POSIX_NOPE"), None);
    }

    #[test]
    fn counter_counts_match() {
        assert_eq!(PosixCounter::ALL.len(), N_POSIX_COUNTERS);
        assert_eq!(PosixFCounter::ALL.len(), N_POSIX_FCOUNTERS);
        // The MDF format relies on these being stable; bump MDF version if
        // they ever change.
        assert_eq!(N_POSIX_COUNTERS, 25);
        assert_eq!(N_POSIX_FCOUNTERS, 11);
    }

    #[test]
    fn names_follow_darshan_convention() {
        for c in PosixCounter::ALL {
            assert!(c.name().starts_with("POSIX_"), "{}", c.name());
        }
        for c in PosixFCounter::ALL {
            assert!(c.name().starts_with("POSIX_F_"), "{}", c.name());
        }
    }
}
