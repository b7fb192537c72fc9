//! The category vocabulary of Table I.

use mosaic_darshan::ops::OpKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Temporality labels: *when* the I/O of one direction happens, relative to
/// the four equal execution-time chunks (§III-B3b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TemporalityLabel {
    /// Dominant activity in the first quarter.
    OnStart,
    /// Dominant activity in the second quarter.
    AfterStart,
    /// Dominant activity in the third quarter.
    BeforeEnd,
    /// Dominant activity in the last quarter.
    OnEnd,
    /// Activity concentrated in the middle two quarters.
    AfterStartBeforeEnd,
    /// Activity spread evenly (coefficient of variation < 25 %).
    Steady,
    /// Below the significance threshold (default < 100 MB).
    Insignificant,
}

impl TemporalityLabel {
    /// All labels, in a stable order.
    pub const ALL: [TemporalityLabel; 7] = [
        TemporalityLabel::OnStart,
        TemporalityLabel::AfterStart,
        TemporalityLabel::BeforeEnd,
        TemporalityLabel::OnEnd,
        TemporalityLabel::AfterStartBeforeEnd,
        TemporalityLabel::Steady,
        TemporalityLabel::Insignificant,
    ];

    /// Paper-style snake_case suffix (combined with a direction prefix).
    pub fn suffix(self) -> &'static str {
        match self {
            TemporalityLabel::OnStart => "on_start",
            TemporalityLabel::AfterStart => "after_start",
            TemporalityLabel::BeforeEnd => "before_end",
            TemporalityLabel::OnEnd => "on_end",
            TemporalityLabel::AfterStartBeforeEnd => "after_start_before_end",
            TemporalityLabel::Steady => "steady",
            TemporalityLabel::Insignificant => "insignificant",
        }
    }
}

/// Order of magnitude of a detected period (§III-B3a: "several labels give
/// an order of magnitude of the period").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PeriodMagnitude {
    /// Period under a minute.
    Second,
    /// Period in minutes (< 1 h).
    Minute,
    /// Period in hours (< 1 day).
    Hour,
    /// Period of a day or more.
    DayOrMore,
}

impl PeriodMagnitude {
    /// Classify a period in seconds.
    pub fn of(period_seconds: f64) -> PeriodMagnitude {
        if period_seconds < 60.0 {
            PeriodMagnitude::Second
        } else if period_seconds < 3600.0 {
            PeriodMagnitude::Minute
        } else if period_seconds < 86_400.0 {
            PeriodMagnitude::Hour
        } else {
            PeriodMagnitude::DayOrMore
        }
    }

    /// Paper-style suffix.
    pub fn suffix(self) -> &'static str {
        match self {
            PeriodMagnitude::Second => "second",
            PeriodMagnitude::Minute => "minute",
            PeriodMagnitude::Hour => "hour",
            PeriodMagnitude::DayOrMore => "day_or_more",
        }
    }
}

/// Metadata-impact labels (§III-B3c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MetadataLabel {
    /// More than 250 requests in one second, at least once.
    HighSpike,
    /// At least 5 spikes of 50+ requests.
    MultipleSpikes,
    /// At least 5 spikes *and* an average of 50+ requests per second over
    /// the whole execution.
    HighDensity,
    /// Fewer metadata operations than ranks.
    InsignificantLoad,
}

impl MetadataLabel {
    /// All labels, in a stable order.
    pub const ALL: [MetadataLabel; 4] = [
        MetadataLabel::HighSpike,
        MetadataLabel::MultipleSpikes,
        MetadataLabel::HighDensity,
        MetadataLabel::InsignificantLoad,
    ];

    /// Paper-style name.
    pub fn name(self) -> &'static str {
        match self {
            MetadataLabel::HighSpike => "metadata_high_spike",
            MetadataLabel::MultipleSpikes => "metadata_multiple_spikes",
            MetadataLabel::HighDensity => "metadata_high_density",
            MetadataLabel::InsignificantLoad => "metadata_insignificant_load",
        }
    }
}

/// One MOSAIC category. Categories are non-exclusive: a trace holds a set of
/// them (e.g. a simulation can be `read_on_start`, `write_periodic_minute`
/// *and* `metadata_multiple_spikes` at once).
///
/// Serializes as its canonical snake_case [`Category::name`] so JSON reports
/// read exactly like the paper's vocabulary (and categories can key JSON
/// maps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// A temporality label for one direction.
    Temporality {
        /// Read or write.
        kind: OpKindTag,
        /// The label.
        label: TemporalityLabel,
    },
    /// The direction exhibits at least one periodic operation.
    Periodic {
        /// Read or write.
        kind: OpKindTag,
    },
    /// Period order of magnitude for a periodic direction.
    PeriodicMagnitude {
        /// Read or write.
        kind: OpKindTag,
        /// The magnitude bucket.
        magnitude: PeriodMagnitude,
    },
    /// Periodic operations spend < 25 % of each period doing I/O.
    PeriodicLowBusyTime {
        /// Read or write.
        kind: OpKindTag,
    },
    /// Periodic operations spend ≥ 25 % of each period doing I/O.
    PeriodicHighBusyTime {
        /// Read or write.
        kind: OpKindTag,
    },
    /// A metadata-impact label (direction-independent).
    Metadata(MetadataLabel),
}

/// `OpKind` mirror that implements `Ord` so categories can live in sorted
/// sets; converts freely to/from [`OpKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKindTag {
    /// Read direction.
    Read,
    /// Write direction.
    Write,
}

impl From<OpKind> for OpKindTag {
    fn from(k: OpKind) -> Self {
        match k {
            OpKind::Read => OpKindTag::Read,
            OpKind::Write => OpKindTag::Write,
        }
    }
}

impl From<OpKindTag> for OpKind {
    fn from(k: OpKindTag) -> Self {
        match k {
            OpKindTag::Read => OpKind::Read,
            OpKindTag::Write => OpKind::Write,
        }
    }
}

impl OpKindTag {
    /// Lowercase prefix used in category names.
    pub fn prefix(self) -> &'static str {
        match self {
            OpKindTag::Read => "read",
            OpKindTag::Write => "write",
        }
    }
}

/// The three characterization axes of §III-B3. Every [`Category`] belongs to
/// exactly one axis; invariant checks (e.g. time-scale metamorphic tests)
/// often hold on one axis but not the others, so reports can be projected
/// per axis via [`crate::TraceReport::categories_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CategoryAxis {
    /// §III-B3b: when the I/O of a direction happens.
    Temporality,
    /// §III-B3a: periodic behavior, period magnitude, busy time.
    Periodicity,
    /// §III-B3c: metadata pressure.
    Metadata,
}

impl CategoryAxis {
    /// All axes, in a stable order.
    pub const ALL: [CategoryAxis; 3] =
        [CategoryAxis::Temporality, CategoryAxis::Periodicity, CategoryAxis::Metadata];
}

impl Category {
    /// Number of distinct categories.
    pub(crate) const COUNT: usize = 32;

    /// Dense position in `0..COUNT`, increasing with `Ord`, so aggregates
    /// can count into a flat array and still come out in category order.
    pub(crate) fn index(self) -> usize {
        let kind = |k: OpKindTag| match k {
            OpKindTag::Read => 0,
            OpKindTag::Write => 1,
        };
        match self {
            Category::Temporality { kind: k, label } => {
                let l = match label {
                    TemporalityLabel::OnStart => 0,
                    TemporalityLabel::AfterStart => 1,
                    TemporalityLabel::BeforeEnd => 2,
                    TemporalityLabel::OnEnd => 3,
                    TemporalityLabel::AfterStartBeforeEnd => 4,
                    TemporalityLabel::Steady => 5,
                    TemporalityLabel::Insignificant => 6,
                };
                7 * kind(k) + l
            }
            Category::Periodic { kind: k } => 14 + kind(k),
            Category::PeriodicMagnitude { kind: k, magnitude } => {
                let m = match magnitude {
                    PeriodMagnitude::Second => 0,
                    PeriodMagnitude::Minute => 1,
                    PeriodMagnitude::Hour => 2,
                    PeriodMagnitude::DayOrMore => 3,
                };
                16 + 4 * kind(k) + m
            }
            Category::PeriodicLowBusyTime { kind: k } => 24 + kind(k),
            Category::PeriodicHighBusyTime { kind: k } => 26 + kind(k),
            Category::Metadata(label) => {
                28 + match label {
                    MetadataLabel::HighSpike => 0,
                    MetadataLabel::MultipleSpikes => 1,
                    MetadataLabel::HighDensity => 2,
                    MetadataLabel::InsignificantLoad => 3,
                }
            }
        }
    }

    /// The characterization axis this category belongs to.
    pub fn axis(&self) -> CategoryAxis {
        match self {
            Category::Temporality { .. } => CategoryAxis::Temporality,
            Category::Periodic { .. }
            | Category::PeriodicMagnitude { .. }
            | Category::PeriodicLowBusyTime { .. }
            | Category::PeriodicHighBusyTime { .. } => CategoryAxis::Periodicity,
            Category::Metadata(_) => CategoryAxis::Metadata,
        }
    }

    /// Canonical snake_case name, matching the paper's vocabulary with the
    /// direction made explicit (the paper writes "*periodic*" and clarifies
    /// the direction in prose; we encode it in the name).
    pub fn name(&self) -> String {
        match self {
            Category::Temporality { kind, label } => {
                format!("{}_{}", kind.prefix(), label.suffix())
            }
            Category::Periodic { kind } => format!("{}_periodic", kind.prefix()),
            Category::PeriodicMagnitude { kind, magnitude } => {
                format!("{}_periodic_{}", kind.prefix(), magnitude.suffix())
            }
            Category::PeriodicLowBusyTime { kind } => {
                format!("{}_periodic_low_busy_time", kind.prefix())
            }
            Category::PeriodicHighBusyTime { kind } => {
                format!("{}_periodic_high_busy_time", kind.prefix())
            }
            Category::Metadata(label) => label.name().to_owned(),
        }
    }

    /// Parse a canonical name back into a category. Inverse of
    /// [`Category::name`].
    pub fn parse(name: &str) -> Option<Category> {
        for label in MetadataLabel::ALL {
            if label.name() == name {
                return Some(Category::Metadata(label));
            }
        }
        let (kind, rest) = if let Some(rest) = name.strip_prefix("read_") {
            (OpKindTag::Read, rest)
        } else if let Some(rest) = name.strip_prefix("write_") {
            (OpKindTag::Write, rest)
        } else {
            return None;
        };
        if rest == "periodic" {
            return Some(Category::Periodic { kind });
        }
        if rest == "periodic_low_busy_time" {
            return Some(Category::PeriodicLowBusyTime { kind });
        }
        if rest == "periodic_high_busy_time" {
            return Some(Category::PeriodicHighBusyTime { kind });
        }
        if let Some(mag) = rest.strip_prefix("periodic_") {
            for m in [
                PeriodMagnitude::Second,
                PeriodMagnitude::Minute,
                PeriodMagnitude::Hour,
                PeriodMagnitude::DayOrMore,
            ] {
                if m.suffix() == mag {
                    return Some(Category::PeriodicMagnitude { kind, magnitude: m });
                }
            }
            return None;
        }
        for label in TemporalityLabel::ALL {
            if label.suffix() == rest {
                return Some(Category::Temporality { kind, label });
            }
        }
        None
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl Serialize for Category {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.name())
    }
}

impl<'de> Deserialize<'de> for Category {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let name = String::deserialize(deserializer)?;
        Category::parse(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown category {name:?}")))
    }
}

/// Category fixtures shared by the aggregate modules' differential tests.
#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Every category, built variant by variant (not from [`Category::index`]).
    pub(crate) fn every_category() -> Vec<Category> {
        let mut all: Vec<Category> = Vec::new();
        for kind in [OpKindTag::Read, OpKindTag::Write] {
            for label in TemporalityLabel::ALL {
                all.push(Category::Temporality { kind, label });
            }
            all.push(Category::Periodic { kind });
            all.push(Category::PeriodicLowBusyTime { kind });
            all.push(Category::PeriodicHighBusyTime { kind });
            for magnitude in [
                PeriodMagnitude::Second,
                PeriodMagnitude::Minute,
                PeriodMagnitude::Hour,
                PeriodMagnitude::DayOrMore,
            ] {
                all.push(Category::PeriodicMagnitude { kind, magnitude });
            }
        }
        for label in MetadataLabel::ALL {
            all.push(Category::Metadata(label));
        }
        all
    }

    /// A seeded collection of up to 60 category sets (possibly none), mixing
    /// empty sets, sets of all 32 categories and random subsets of random
    /// density.
    pub(crate) fn random_sets(seed: u64) -> Vec<BTreeSet<Category>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let all = every_category();
        let n = rng.gen_range(0..60usize);
        (0..n)
            .map(|_| match rng.gen_range(0..8u32) {
                0 => BTreeSet::new(),
                1 => all.iter().copied().collect(),
                _ => {
                    let density = rng.gen_range(0.0..0.5);
                    all.iter().copied().filter(|_| rng.gen_bool(density)).collect()
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn magnitude_buckets() {
        assert_eq!(PeriodMagnitude::of(5.0), PeriodMagnitude::Second);
        assert_eq!(PeriodMagnitude::of(59.99), PeriodMagnitude::Second);
        assert_eq!(PeriodMagnitude::of(60.0), PeriodMagnitude::Minute);
        assert_eq!(PeriodMagnitude::of(3599.0), PeriodMagnitude::Minute);
        assert_eq!(PeriodMagnitude::of(3600.0), PeriodMagnitude::Hour);
        assert_eq!(PeriodMagnitude::of(90_000.0), PeriodMagnitude::DayOrMore);
    }

    #[test]
    fn names_match_paper_vocabulary() {
        let c = Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::OnStart };
        assert_eq!(c.name(), "read_on_start");
        let c = Category::Temporality { kind: OpKindTag::Write, label: TemporalityLabel::OnEnd };
        assert_eq!(c.name(), "write_on_end");
        let c = Category::PeriodicMagnitude {
            kind: OpKindTag::Write,
            magnitude: PeriodMagnitude::Minute,
        };
        assert_eq!(c.name(), "write_periodic_minute");
        assert_eq!(Category::Metadata(MetadataLabel::HighSpike).name(), "metadata_high_spike");
        assert_eq!(
            Category::PeriodicLowBusyTime { kind: OpKindTag::Write }.name(),
            "write_periodic_low_busy_time"
        );
    }

    #[test]
    fn dense_index_is_the_rank_in_ord_order() {
        let mut sorted = testutil::every_category();
        sorted.sort();
        assert_eq!(sorted.len(), Category::COUNT);
        for (i, c) in sorted.into_iter().enumerate() {
            assert_eq!(c.index(), i, "{}", c.name());
        }
    }

    #[test]
    fn parse_roundtrips_every_category() {
        for c in testutil::every_category() {
            assert_eq!(Category::parse(&c.name()), Some(c), "{}", c.name());
        }
        assert_eq!(Category::parse("bogus"), None);
        assert_eq!(Category::parse("read_periodic_nanosecond"), None);
        assert_eq!(Category::parse("write_bogus"), None);
    }

    #[test]
    fn opkind_conversion() {
        assert_eq!(OpKindTag::from(OpKind::Read), OpKindTag::Read);
        assert_eq!(OpKind::from(OpKindTag::Write).label(), "write");
    }

    #[test]
    fn display_matches_name() {
        let c = Category::Metadata(MetadataLabel::HighDensity);
        assert_eq!(format!("{c}"), c.name());
    }

    #[test]
    fn every_category_maps_to_one_axis() {
        let t = Category::Temporality { kind: OpKindTag::Read, label: TemporalityLabel::Steady };
        assert_eq!(t.axis(), CategoryAxis::Temporality);
        for c in [
            Category::Periodic { kind: OpKindTag::Write },
            Category::PeriodicMagnitude { kind: OpKindTag::Read, magnitude: PeriodMagnitude::Hour },
            Category::PeriodicLowBusyTime { kind: OpKindTag::Read },
            Category::PeriodicHighBusyTime { kind: OpKindTag::Write },
        ] {
            assert_eq!(c.axis(), CategoryAxis::Periodicity, "{}", c.name());
        }
        assert_eq!(Category::Metadata(MetadataLabel::HighSpike).axis(), CategoryAxis::Metadata);
    }
}
