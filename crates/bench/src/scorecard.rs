//! Rows, their checks, and the two renderings of a row list: the JSON file
//! and the text table.

use crate::{FIGURES, READINGS};
use std::fmt;

/// One measured quantity of one scorecard entry.
#[derive(Clone, Debug)]
pub struct Row {
    /// The entry's key (see [`crate::Figure::key`]).
    pub figure: &'static str,
    /// What was measured.
    pub quantity: String,
    /// The paper's value as the paper states it, where it states one.
    pub paper: Option<&'static str>,
    /// What this repo measures.
    pub measured: Measured,
    /// The bound the measured value must meet, if any.
    pub check: Option<Check>,
    /// Why the measured value knowingly departs from the paper's.
    pub deviation: Option<&'static str>,
}

/// A measured value and how it is shown.
#[derive(Clone, Debug, PartialEq)]
pub enum Measured {
    /// A count.
    Count(usize),
    /// A fraction, shown as a percentage with this many decimals.
    Pct(f64, usize),
    /// A number with this many decimals, followed by a unit suffix.
    Num(f64, usize, &'static str),
    /// A label.
    Text(String),
}

impl Measured {
    /// A fraction shown as a one-decimal percentage.
    pub(crate) fn pct(fraction: f64) -> Measured {
        Measured::Pct(fraction, 1)
    }

    /// The numeric value, unless this is a label.
    pub fn value(&self) -> Option<f64> {
        match *self {
            Measured::Count(n) => Some(n as f64),
            Measured::Pct(v, _) | Measured::Num(v, _, _) => Some(v),
            Measured::Text(_) => None,
        }
    }

    /// `v` shown the way this value is shown.
    fn show(&self, v: f64) -> String {
        match *self {
            Measured::Count(_) => format!("{v}"),
            Measured::Pct(_, d) => format!("{:.d$}%", 100.0 * v),
            Measured::Num(_, d, unit) => format!("{v:.d$}{unit}"),
            Measured::Text(_) => String::new(),
        }
    }
}

impl fmt::Display for Measured {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Measured::Text(s) => f.write_str(s),
            _ => f.write_str(&self.show(self.value().unwrap_or(f64::NAN))),
        }
    }
}

/// A bound on a row's measured value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Check {
    /// Strictly greater than.
    Above(f64),
    /// Greater than or equal to.
    AtLeast(f64),
    /// In the half-open range `[lo, hi)`.
    Within(f64, f64),
}

impl Check {
    /// Whether `v` meets the bound (NaN never does).
    pub fn passes(self, v: f64) -> bool {
        match self {
            Check::Above(lo) => v > lo,
            Check::AtLeast(lo) => v >= lo,
            Check::Within(lo, hi) => (lo..hi).contains(&v),
        }
    }

    /// The bound in the row's own units, e.g. `> 85.0%`.
    fn describe(self, measured: &Measured) -> String {
        match self {
            Check::Above(lo) => format!("> {}", measured.show(lo)),
            Check::AtLeast(lo) => format!("≥ {}", measured.show(lo)),
            Check::Within(lo, hi) => format!("in [{}, {})", measured.show(lo), measured.show(hi)),
        }
    }
}

impl Row {
    /// Whether the row meets its check (a row without one always does).
    pub fn passes(&self) -> bool {
        match self.check {
            None => true,
            Some(check) => self.measured.value().is_some_and(|v| check.passes(v)),
        }
    }

    /// The check, shown in the row's units.
    pub fn rule(&self) -> Option<String> {
        self.check.map(|c| c.describe(&self.measured))
    }

    /// Give the row a check.
    pub(crate) fn check(&mut self, check: Check) -> &mut Row {
        self.check = Some(check);
        self
    }

    /// Mark the row as a known deviation from the paper.
    pub(crate) fn deviation(&mut self, reason: &'static str) -> &mut Row {
        self.deviation = Some(reason);
        self
    }

    fn json(&self) -> String {
        let text = |s: &str| serde_json::to_string(s).expect("a string serializes");
        let opt = |s: Option<&str>| s.map_or_else(|| "null".to_owned(), text);
        let measured = match self.measured.value() {
            None => text(&self.measured.to_string()),
            Some(v) if v.is_finite() => format!("{v}"),
            Some(_) => "null".to_owned(),
        };
        let check = match self.rule() {
            None => "null".to_owned(),
            Some(rule) => format!("{{\"rule\": {}, \"pass\": {}}}", text(&rule), self.passes()),
        };
        format!(
            "{{\"figure\": {}, \"quantity\": {}, \"paper\": {}, \"measured\": {measured}, \
             \"shown\": {}, \"check\": {check}, \"deviation\": {}}}",
            text(self.figure),
            text(&self.quantity),
            opt(self.paper),
            text(&self.measured.to_string()),
            opt(self.deviation),
        )
    }
}

/// The rows of one entry, in the order they are shown.
pub struct Rows {
    figure: &'static str,
    /// The rows so far.
    pub rows: Vec<Row>,
}

impl Rows {
    /// No rows yet for the entry `figure`.
    pub(crate) fn new(figure: &'static str) -> Rows {
        Rows { figure, rows: Vec::new() }
    }

    /// A row the paper states a value for.
    pub(crate) fn paper(
        &mut self,
        quantity: impl Into<String>,
        paper: &'static str,
        measured: Measured,
    ) -> &mut Row {
        self.push(quantity.into(), Some(paper), measured)
    }

    /// A row of this repo's own.
    pub(crate) fn add(&mut self, quantity: impl Into<String>, measured: Measured) -> &mut Row {
        self.push(quantity.into(), None, measured)
    }

    fn push(
        &mut self,
        quantity: String,
        paper: Option<&'static str>,
        measured: Measured,
    ) -> &mut Row {
        let figure = self.figure;
        self.rows.push(Row { figure, quantity, paper, measured, check: None, deviation: None });
        self.rows.last_mut().expect("just pushed")
    }
}

/// The row `quantity` (readings cite rows by name; a missing one is a bug).
pub(crate) fn get<'a>(rows: &'a [Row], quantity: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.quantity == quantity)
        .unwrap_or_else(|| panic!("no row {quantity:?} in {:?}", rows.first().map(|r| r.figure)))
}

/// The shown value of the row `quantity`.
pub(crate) fn shown(rows: &[Row], quantity: &str) -> String {
    get(rows, quantity).measured.to_string()
}

/// The numeric value of the row `quantity`.
pub(crate) fn value(rows: &[Row], quantity: &str) -> f64 {
    get(rows, quantity).measured.value().unwrap_or(f64::NAN)
}

/// The scorecard as JSON: one row object per line.
pub fn to_json(rows: &[Row]) -> String {
    let lines: Vec<String> = rows.iter().map(Row::json).collect();
    format!("{{\"rows\": [\n  {}\n]}}\n", lines.join(",\n  "))
}

/// The scorecard as text: per entry, a paper-vs-measured table with each
/// check and deviation beside its row, then the entry's reading.
pub fn render_text(rows: &[Row]) -> String {
    let mut out = String::new();
    for group in rows.chunk_by(|a, b| a.figure == b.figure) {
        let figure = FIGURES.iter().find(|f| f.key == group[0].figure);
        let title = figure.map_or("", |f| f.title);
        let width = group.iter().map(|r| r.quantity.chars().count()).max().unwrap_or(0);
        out.push_str(&format!("== {} — {title} ==\n", group[0].figure));
        out.push_str(&format!("  {:<width$} {:>14} {:>14}\n", "", "paper", "measured"));
        for row in group {
            let mut line = format!(
                "  {:<width$} {:>14} {:>14}",
                row.quantity,
                row.paper.unwrap_or("—"),
                row.measured.to_string()
            );
            if let Some(rule) = row.rule() {
                let verdict = if row.passes() { "pass" } else { "FAIL" };
                line.push_str(&format!("   check {rule}: {verdict}"));
            }
            if let Some(reason) = row.deviation {
                line.push_str(&format!("   DEVIATION: {reason}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        let reading = READINGS.iter().find(|(key, _)| *key == group[0].figure);
        let reading = reading.map(|(_, read)| read(group)).unwrap_or_default();
        if !reading.is_empty() {
            out.push('\n');
            for sentence in reading {
                out.push_str(&format!("reading: {sentence}\n"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_show_in_their_own_units() {
        assert_eq!(Measured::pct(0.325).to_string(), "32.5%");
        assert_eq!(Measured::Pct(0.0, 0).to_string(), "0%");
        assert_eq!(Measured::Count(1318).to_string(), "1318");
        assert_eq!(Measured::Num(274.94, 1, " s").to_string(), "274.9 s");
        assert_eq!(Measured::Text("Steady".into()).to_string(), "Steady");
    }

    #[test]
    fn checks_keep_their_bounds_and_show_them_in_row_units() {
        let mut rows = Rows::new("t");
        rows.add("open", Measured::pct(0.35)).check(Check::Within(0.35, 0.9));
        rows.add("shut", Measured::pct(0.9)).check(Check::Within(0.35, 0.9));
        rows.add("edge", Measured::pct(0.85)).check(Check::Above(0.85));
        rows.add("count", Measured::Count(2)).check(Check::AtLeast(2.0));
        rows.add("nan", Measured::pct(f64::NAN)).check(Check::AtLeast(0.0));
        let pass: Vec<bool> = rows.rows.iter().map(Row::passes).collect();
        assert_eq!(pass, [true, false, false, true, false]);
        assert_eq!(rows.rows[0].rule().as_deref(), Some("in [35.0%, 90.0%)"));
        assert_eq!(rows.rows[3].rule().as_deref(), Some("≥ 2"));
    }

    #[test]
    fn a_zero_only_bound_admits_zero_and_nothing_more() {
        // §II-B's "the FFT fails" row: Within(0, 1) on a count.
        let mut rows = Rows::new("t");
        for n in [0, 1, 6] {
            rows.add(format!("{n}"), Measured::Count(n)).check(Check::Within(0.0, 1.0));
        }
        let pass: Vec<bool> = rows.rows.iter().map(Row::passes).collect();
        assert_eq!(pass, [true, false, false]);
        assert_eq!(rows.rows[0].rule().as_deref(), Some("in [0, 1)"));
    }

    #[test]
    fn a_label_cannot_meet_a_check() {
        let mut rows = Rows::new("t");
        rows.add("unchecked", Measured::Text("yes".into()));
        rows.add("checked", Measured::Text("yes".into())).check(Check::AtLeast(0.0));
        assert!(rows.rows[0].passes() && rows.rows[0].rule().is_none());
        assert!(!rows.rows[1].passes());
    }

    #[test]
    fn a_deviation_keeps_its_check_and_the_text_shows_both() {
        let mut rows = Rows::new("t");
        rows.add("k = 4: purity", Measured::pct(0.78)).check(Check::Above(0.8)).deviation("why");
        rows.add("k = 6: purity", Measured::pct(0.86)).check(Check::Above(0.8));
        assert!(!rows.rows[0].passes(), "a deviation does not waive the bound");
        let text = render_text(&rows.rows);
        let lines: Vec<&str> = text.lines().filter(|l| l.contains("purity")).collect();
        assert!(lines[0].contains("check > 80.0%: FAIL") && lines[0].contains("DEVIATION: why"));
        assert!(lines[1].contains("check > 80.0%: pass") && !lines[1].contains("DEVIATION"));
    }

    #[test]
    fn json_rows_parse_and_carry_every_field() {
        let mut rows = Rows::new("t");
        rows.paper("a \"quoted\" name", "14%", Measured::pct(0.261)).deviation("why");
        rows.add("label", Measured::Text("x".into()));
        let json: serde_json::Value = serde_json::from_str(&to_json(&rows.rows)).expect("parses");
        let first = &json["rows"][0];
        assert_eq!(first["quantity"].as_str(), Some("a \"quoted\" name"));
        assert_eq!(first["measured"].as_f64(), Some(0.261));
        assert_eq!(first["shown"].as_str(), Some("26.1%"));
        assert_eq!(first["deviation"].as_str(), Some("why"));
        assert!(json["rows"][1]["paper"].is_null());
    }
}
