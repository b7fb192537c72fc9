//! Error types for parsing and validating traces.

use std::fmt;

/// Errors raised while encoding or decoding a trace serialization (binary MDF
/// or the text format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The input does not begin with the expected magic bytes.
    BadMagic,
    /// The format version is newer than this library understands.
    UnsupportedVersion(u16),
    /// The input ended before a complete structure could be decoded.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// The trailing CRC does not match the payload.
    ChecksumMismatch {
        /// CRC recorded in the file footer.
        expected: u32,
        /// CRC computed over the payload actually read.
        actual: u32,
    },
    /// A module tag byte did not name a known module.
    UnknownModule(u8),
    /// A length or count field exceeds sane bounds (decompression-bomb guard).
    ImplausibleLength {
        /// What was being decoded.
        context: &'static str,
        /// The offending length.
        len: u64,
    },
    /// A string field contained invalid UTF-8.
    InvalidUtf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// Text-format specific: a malformed line.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// Short description of the problem.
        reason: String,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "bad magic bytes: not an MDF trace"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported MDF version {v}"),
            FormatError::Truncated { context } => {
                write!(f, "truncated input while reading {context}")
            }
            FormatError::ChecksumMismatch { expected, actual } => write!(
                f,
                "checksum mismatch: footer says {expected:#010x}, payload hashes to {actual:#010x}"
            ),
            FormatError::UnknownModule(t) => write!(f, "unknown module tag {t}"),
            FormatError::ImplausibleLength { context, len } => {
                write!(f, "implausible length {len} while reading {context}")
            }
            FormatError::InvalidUtf8 { context } => write!(f, "invalid UTF-8 in {context}"),
            FormatError::MalformedLine { line, reason } => {
                write!(f, "malformed text-format line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A validity violation found in an otherwise decodable trace.
///
/// MOSAIC's pre-processing step ① deletes corrupted entries; the paper calls
/// out "a deallocation happens before the end of the application's execution"
/// as the canonical example. Each variant names one rule; a trace may violate
/// several at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ValidityError {
    /// Job end time is not after job start time.
    NonPositiveRuntime,
    /// A record was deallocated (closed out) before the application finished
    /// while I/O activity was still attributed to it.
    DeallocatedBeforeEnd,
    /// A timestamp counter is negative.
    NegativeTimestamp,
    /// An interval end precedes its start (e.g. read end < read start).
    InvertedInterval,
    /// A timestamp exceeds the job's wallclock runtime (plus one second of
    /// slack), or is NaN and so cannot be placed within it.
    TimestampBeyondRuntime,
    /// Byte counters are negative.
    NegativeBytes,
    /// A record reports bytes moved but zero corresponding operations.
    BytesWithoutOps,
    /// The job header reports zero processes.
    ZeroProcs,
    /// A record references a rank outside `[-1, nprocs)`.
    RankOutOfRange,
    /// A record id has no entry in the file-name table.
    MissingName,
}

impl ValidityError {
    /// Every rule, for exhaustive iteration (tests, slug round-trips).
    pub const ALL: [ValidityError; 10] = [
        ValidityError::NonPositiveRuntime,
        ValidityError::DeallocatedBeforeEnd,
        ValidityError::NegativeTimestamp,
        ValidityError::InvertedInterval,
        ValidityError::TimestampBeyondRuntime,
        ValidityError::NegativeBytes,
        ValidityError::BytesWithoutOps,
        ValidityError::ZeroProcs,
        ValidityError::RankOutOfRange,
        ValidityError::MissingName,
    ];

    /// Stable snake_case identifier (used in funnel JSON keys).
    pub fn slug(self) -> &'static str {
        match self {
            ValidityError::NonPositiveRuntime => "non_positive_runtime",
            ValidityError::DeallocatedBeforeEnd => "deallocated_before_end",
            ValidityError::NegativeTimestamp => "negative_timestamp",
            ValidityError::InvertedInterval => "inverted_interval",
            ValidityError::TimestampBeyondRuntime => "timestamp_beyond_runtime",
            ValidityError::NegativeBytes => "negative_bytes",
            ValidityError::BytesWithoutOps => "bytes_without_ops",
            ValidityError::ZeroProcs => "zero_procs",
            ValidityError::RankOutOfRange => "rank_out_of_range",
            ValidityError::MissingName => "missing_name",
        }
    }

    /// Inverse of [`ValidityError::slug`].
    pub fn from_slug(slug: &str) -> Option<ValidityError> {
        ValidityError::ALL.into_iter().find(|e| e.slug() == slug)
    }

    /// Human-readable rule description.
    pub fn describe(self) -> &'static str {
        match self {
            ValidityError::NonPositiveRuntime => "job end time not after start time",
            ValidityError::DeallocatedBeforeEnd => {
                "record deallocated before end of application execution"
            }
            ValidityError::NegativeTimestamp => "negative timestamp counter",
            ValidityError::InvertedInterval => "interval end precedes its start",
            ValidityError::TimestampBeyondRuntime => "timestamp beyond job runtime",
            ValidityError::NegativeBytes => "negative byte counter",
            ValidityError::BytesWithoutOps => "bytes moved with zero operations",
            ValidityError::ZeroProcs => "job header reports zero processes",
            ValidityError::RankOutOfRange => "record rank outside [-1, nprocs)",
            ValidityError::MissingName => "record id missing from name table",
        }
    }
}

impl fmt::Display for ValidityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

impl std::error::Error for ValidityError {}

/// Coarse funnel bucket of an [`EvictReason`] — which aggregate counter the
/// eviction lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictClass {
    /// The input could not be read at all (source-level I/O failure).
    Io,
    /// The bytes were read but do not decode (format corruption).
    Format,
    /// The trace decodes but fails validation fatally (semantic corruption).
    Validation,
}

/// Why one trace was evicted from the pre-processing funnel.
///
/// The paper's Fig 3 collapses everything into "corrupted"; at production
/// scale the operator needs the *class* of failure per trace — an NFS mount
/// flapping (`IoError`), a torn write (`Truncated`), bit rot
/// (`ChecksumMismatch`) and a semantically broken job header
/// (`ValidationFatal`) have entirely different remediations. Serialized as a
/// stable snake_case slug so funnel breakdowns keyed by reason survive JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EvictReason {
    /// The source failed to deliver the bytes (unreadable file, permission
    /// error, vanished path). Distinct from format corruption: the trace
    /// itself may be fine.
    IoError,
    /// Input does not begin with the MDF magic.
    BadMagic,
    /// MDF version newer than this library.
    UnsupportedVersion,
    /// Input ended mid-structure.
    Truncated,
    /// CRC-32 footer mismatch.
    ChecksumMismatch,
    /// Unknown module tag byte.
    UnknownModule,
    /// Length/count field beyond sane bounds.
    ImplausibleLength,
    /// Non-UTF-8 string field.
    InvalidUtf8,
    /// Malformed darshan-parser-style text dump.
    MalformedText,
    /// The job header violates an invariant; carries the first violated rule.
    ValidationFatal(ValidityError),
    /// Every record failed validation — nothing survived sanitization.
    AllRecordsInvalid,
}

// Every reason is named in `class`, `slug` and `describe`: a wildcard arm
// would let a new variant fall silently through the `by_reason` funnel
// accounting. rustc's exhaustiveness check does the rest.
#[deny(clippy::wildcard_enum_match_arm, clippy::match_wildcard_for_single_variants)]
impl EvictReason {
    /// Which aggregate funnel counter this reason belongs to.
    pub fn class(self) -> EvictClass {
        match self {
            EvictReason::IoError => EvictClass::Io,
            EvictReason::BadMagic
            | EvictReason::UnsupportedVersion
            | EvictReason::Truncated
            | EvictReason::ChecksumMismatch
            | EvictReason::UnknownModule
            | EvictReason::ImplausibleLength
            | EvictReason::InvalidUtf8
            | EvictReason::MalformedText => EvictClass::Format,
            EvictReason::ValidationFatal(_) | EvictReason::AllRecordsInvalid => {
                EvictClass::Validation
            }
        }
    }

    /// Stable identifier: `"checksum_mismatch"`, `"validation:zero_procs"`, …
    pub fn slug(self) -> String {
        match self {
            EvictReason::IoError => "io_error".to_owned(),
            EvictReason::BadMagic => "bad_magic".to_owned(),
            EvictReason::UnsupportedVersion => "unsupported_version".to_owned(),
            EvictReason::Truncated => "truncated".to_owned(),
            EvictReason::ChecksumMismatch => "checksum_mismatch".to_owned(),
            EvictReason::UnknownModule => "unknown_module".to_owned(),
            EvictReason::ImplausibleLength => "implausible_length".to_owned(),
            EvictReason::InvalidUtf8 => "invalid_utf8".to_owned(),
            EvictReason::MalformedText => "malformed_text".to_owned(),
            EvictReason::ValidationFatal(rule) => format!("validation:{}", rule.slug()),
            EvictReason::AllRecordsInvalid => "all_records_invalid".to_owned(),
        }
    }

    /// Human-readable description.
    pub fn describe(self) -> String {
        match self {
            EvictReason::IoError => "input could not be read (I/O error)".to_owned(),
            EvictReason::BadMagic => FormatError::BadMagic.to_string(),
            EvictReason::UnsupportedVersion => "unsupported MDF version".to_owned(),
            EvictReason::Truncated => "truncated input".to_owned(),
            EvictReason::ChecksumMismatch => "checksum mismatch".to_owned(),
            EvictReason::UnknownModule => "unknown module tag".to_owned(),
            EvictReason::ImplausibleLength => "implausible length field".to_owned(),
            EvictReason::InvalidUtf8 => "invalid UTF-8 string field".to_owned(),
            EvictReason::MalformedText => "malformed text-format line".to_owned(),
            EvictReason::ValidationFatal(rule) => format!("fatal validation: {}", rule.describe()),
            EvictReason::AllRecordsInvalid => "no record survived sanitization".to_owned(),
        }
    }
}

impl From<&FormatError> for EvictReason {
    fn from(e: &FormatError) -> EvictReason {
        match e {
            FormatError::BadMagic => EvictReason::BadMagic,
            FormatError::UnsupportedVersion(_) => EvictReason::UnsupportedVersion,
            FormatError::Truncated { .. } => EvictReason::Truncated,
            FormatError::ChecksumMismatch { .. } => EvictReason::ChecksumMismatch,
            FormatError::UnknownModule(_) => EvictReason::UnknownModule,
            FormatError::ImplausibleLength { .. } => EvictReason::ImplausibleLength,
            FormatError::InvalidUtf8 { .. } => EvictReason::InvalidUtf8,
            FormatError::MalformedLine { .. } => EvictReason::MalformedText,
        }
    }
}

impl fmt::Display for EvictReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.slug())
    }
}

impl std::str::FromStr for EvictReason {
    type Err = String;

    fn from_str(s: &str) -> Result<EvictReason, String> {
        if let Some(rule) = s.strip_prefix("validation:") {
            return ValidityError::from_slug(rule)
                .map(EvictReason::ValidationFatal)
                .ok_or_else(|| format!("unknown validation rule {rule:?}"));
        }
        match s {
            "io_error" => Ok(EvictReason::IoError),
            "bad_magic" => Ok(EvictReason::BadMagic),
            "unsupported_version" => Ok(EvictReason::UnsupportedVersion),
            "truncated" => Ok(EvictReason::Truncated),
            "checksum_mismatch" => Ok(EvictReason::ChecksumMismatch),
            "unknown_module" => Ok(EvictReason::UnknownModule),
            "implausible_length" => Ok(EvictReason::ImplausibleLength),
            "invalid_utf8" => Ok(EvictReason::InvalidUtf8),
            "malformed_text" => Ok(EvictReason::MalformedText),
            "all_records_invalid" => Ok(EvictReason::AllRecordsInvalid),
            other => Err(format!("unknown evict reason {other:?}")),
        }
    }
}

// Serialized as the slug string so maps keyed by `EvictReason` become plain
// JSON objects (`{"checksum_mismatch": 3, ...}`).
impl serde::Serialize for EvictReason {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.slug())
    }
}

impl<'de> serde::Deserialize<'de> for EvictReason {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<EvictReason, D::Error> {
        struct SlugVisitor;
        impl serde::de::Visitor<'_> for SlugVisitor {
            type Value = EvictReason;

            fn expecting(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str("an evict-reason slug string")
            }

            fn visit_str<E: serde::de::Error>(self, v: &str) -> Result<EvictReason, E> {
                v.parse().map_err(serde::de::Error::custom)
            }
        }
        deserializer.deserialize_str(SlugVisitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FormatError::ChecksumMismatch { expected: 1, actual: 2 };
        let s = e.to_string();
        assert!(s.contains("checksum"));
        assert!(s.contains("0x00000001"));
        assert!(ValidityError::DeallocatedBeforeEnd.to_string().contains("deallocated"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&FormatError::BadMagic);
        takes_err(&ValidityError::ZeroProcs);
    }

    #[test]
    fn validity_slugs_round_trip() {
        for rule in ValidityError::ALL {
            assert_eq!(ValidityError::from_slug(rule.slug()), Some(rule));
        }
        assert_eq!(ValidityError::from_slug("nope"), None);
    }

    #[test]
    fn evict_reason_slugs_round_trip() {
        let mut reasons = vec![
            EvictReason::IoError,
            EvictReason::BadMagic,
            EvictReason::UnsupportedVersion,
            EvictReason::Truncated,
            EvictReason::ChecksumMismatch,
            EvictReason::UnknownModule,
            EvictReason::ImplausibleLength,
            EvictReason::InvalidUtf8,
            EvictReason::MalformedText,
            EvictReason::AllRecordsInvalid,
        ];
        reasons.extend(ValidityError::ALL.into_iter().map(EvictReason::ValidationFatal));
        for reason in reasons {
            let slug = reason.slug();
            assert_eq!(slug.parse::<EvictReason>().unwrap(), reason, "slug {slug}");
        }
        assert!("garbage".parse::<EvictReason>().is_err());
        assert!("validation:garbage".parse::<EvictReason>().is_err());
    }

    #[test]
    fn format_errors_map_to_reasons() {
        assert_eq!(EvictReason::from(&FormatError::BadMagic), EvictReason::BadMagic);
        assert_eq!(
            EvictReason::from(&FormatError::Truncated { context: "x" }),
            EvictReason::Truncated
        );
        assert_eq!(
            EvictReason::from(&FormatError::ChecksumMismatch { expected: 1, actual: 2 }),
            EvictReason::ChecksumMismatch
        );
        assert_eq!(
            EvictReason::from(&FormatError::MalformedLine { line: 1, reason: "x".into() }),
            EvictReason::MalformedText
        );
    }

    /// Every decode failure lands in the `Format` funnel class, under the
    /// reason named after it.
    #[test]
    fn every_format_error_maps_to_a_format_class_reason() {
        let errors = [
            (FormatError::BadMagic, "bad_magic"),
            (FormatError::UnsupportedVersion(9), "unsupported_version"),
            (FormatError::Truncated { context: "x" }, "truncated"),
            (FormatError::ChecksumMismatch { expected: 1, actual: 2 }, "checksum_mismatch"),
            (FormatError::UnknownModule(7), "unknown_module"),
            (FormatError::ImplausibleLength { context: "x", len: u64::MAX }, "implausible_length"),
            (FormatError::InvalidUtf8 { context: "x" }, "invalid_utf8"),
            (FormatError::MalformedLine { line: 1, reason: "x".into() }, "malformed_text"),
        ];
        for (error, slug) in &errors {
            let reason = EvictReason::from(error);
            assert_eq!(reason.class(), EvictClass::Format, "{error}");
            assert_eq!(reason.slug(), *slug, "{error}");
        }
    }

    /// Funnel breakdowns print `describe`; two reasons sharing a text
    /// would be indistinguishable there.
    #[test]
    fn evict_reason_descriptions_are_distinct() {
        let mut reasons = vec![
            EvictReason::IoError,
            EvictReason::BadMagic,
            EvictReason::UnsupportedVersion,
            EvictReason::Truncated,
            EvictReason::ChecksumMismatch,
            EvictReason::UnknownModule,
            EvictReason::ImplausibleLength,
            EvictReason::InvalidUtf8,
            EvictReason::MalformedText,
            EvictReason::AllRecordsInvalid,
        ];
        reasons.extend(ValidityError::ALL.into_iter().map(EvictReason::ValidationFatal));
        let texts: std::collections::BTreeSet<String> =
            reasons.iter().map(|r| r.describe()).collect();
        assert_eq!(texts.len(), reasons.len(), "{texts:?}");
        assert!(texts.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn reason_classes_partition() {
        assert_eq!(EvictReason::IoError.class(), EvictClass::Io);
        assert_eq!(EvictReason::ChecksumMismatch.class(), EvictClass::Format);
        assert_eq!(
            EvictReason::ValidationFatal(ValidityError::ZeroProcs).class(),
            EvictClass::Validation
        );
        assert_eq!(EvictReason::AllRecordsInvalid.class(), EvictClass::Validation);
    }
}
