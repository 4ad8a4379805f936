//! The perf regression gate: compares two `uds-bench-v1` documents.
//!
//! `tables compare OLD NEW` is how a throughput regression becomes a
//! CI failure instead of a silent merge. The engine:
//!
//! 1. parses both documents and rejects anything that is not
//!    `uds-bench-v1` for the same figure (a usage error, exit 2 — a
//!    schema bump must never be silently "compared");
//! 2. flattens each document's rows into cells keyed by
//!    **circuit × engine × jobs × word** (the `batched` array of the
//!    `parallel` figure contributes one cell per jobs level; the word
//!    width rides in from the calibration fingerprint, unless a row
//!    names its own in a `word_bits` member);
//! 3. converts every timing cell's median to vectors/second and
//!    normalizes the NEW side by the **calibration ratio**
//!    `old_score / new_score`, so replaying a baseline on a faster or
//!    slower host does not masquerade as a perf change;
//! 4. classifies each cell — `improved` / `unchanged` / `regressed`
//!    beyond the tolerance for timings; deterministic static cells
//!    (op counts, shifts, widths, generated lines, activity factors)
//!    must match *exactly* and classify as `regressed` on any drift,
//!    because a drifting deterministic metric means the compiler
//!    changed without its baseline being regenerated; `missing` /
//!    `new` for coverage changes;
//! 5. renders a delta table and an optional `uds-bench-compare-v1`
//!    JSON report, and reports whether the gate passes: any
//!    `regressed` or `missing` cell fails it.

use std::collections::BTreeMap;
use std::fmt;

use uds_core::telemetry::json::Json;

use crate::table::Table;

/// Schema tag on the JSON delta report.
pub const COMPARE_SCHEMA: &str = "uds-bench-compare-v1";

/// Schema every compared document must carry.
pub const BENCH_SCHEMA: &str = "uds-bench-v1";

/// Default regression tolerance, percent of baseline throughput.
pub const DEFAULT_TOLERANCE_PCT: f64 = 10.0;

/// A usage-class comparison failure (malformed or mismatched inputs);
/// maps to exit 2, never a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompareError(pub String);

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CompareError {}

/// Identity of one comparable cell.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CellKey {
    /// Circuit name (`c432`).
    pub circuit: String,
    /// Engine / column name inside the row (`parallel`, `pc_set`,
    /// `batched`, `trimming_word_ops`, …).
    pub engine: String,
    /// Worker count (1 except for `batched` sweep entries).
    pub jobs: u64,
    /// Arena word width the document was measured at.
    pub word: u64,
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} j{} w{}",
            self.circuit, self.engine, self.jobs, self.word
        )
    }
}

/// One measured value, unit-tagged.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Cell {
    /// A wall-clock measurement, already converted to vectors/second
    /// (higher is better). `seconds` keeps the raw statistic for the
    /// report.
    Timing {
        /// The median the cell was derived from.
        seconds: f64,
        /// Throughput: document `vectors` / `seconds`.
        vectors_per_s: f64,
    },
    /// A deterministic integer metric (op counts, shifts, widths,
    /// emitted lines). Must reproduce exactly.
    Static(u64),
    /// A deterministic float metric (activity factor). Must reproduce
    /// to within float-rendering noise.
    Factor(f64),
}

/// One parsed `uds-bench-v1` document, flattened to comparable cells.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchDoc {
    /// Which figure the document reproduces.
    pub figure: String,
    /// Stimulus vectors per timing, when the figure is timed.
    pub vectors: Option<u64>,
    /// Calibration score of the recording host (None for documents
    /// recorded before the fingerprint existed → ratio 1).
    pub score: Option<f64>,
    /// Build profile of the recording binary, when fingerprinted.
    pub profile: Option<String>,
    /// The comparable cells.
    pub cells: BTreeMap<CellKey, Cell>,
}

/// Parses one `uds-bench-v1` document into comparable cells.
///
/// # Errors
///
/// [`CompareError`] on a missing/mismatched schema, a missing figure
/// name, or rows that are not objects with a `circuit` member.
pub fn parse_doc(doc: &Json) -> Result<BenchDoc, CompareError> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| CompareError("document has no `schema` member".into()))?;
    if schema != BENCH_SCHEMA {
        return Err(CompareError(format!(
            "schema mismatch: expected `{BENCH_SCHEMA}`, found `{schema}`"
        )));
    }
    let figure = doc
        .get("figure")
        .and_then(Json::as_str)
        .ok_or_else(|| CompareError("document has no `figure` member".into()))?
        .to_owned();
    let vectors = doc.get("vectors").and_then(Json::as_u64);
    let calibration = doc.get("calibration");
    let score = calibration
        .and_then(|c| c.get("score"))
        .and_then(Json::as_f64);
    let profile = calibration
        .and_then(|c| c.get("profile"))
        .and_then(Json::as_str)
        .map(str::to_owned);
    let word = calibration
        .and_then(|c| c.get("word_bits"))
        .and_then(Json::as_u64)
        .unwrap_or(32);

    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or_else(|| CompareError("document has no `rows` array".into()))?;
    let mut cells = BTreeMap::new();
    let push_timing = |cells: &mut BTreeMap<CellKey, Cell>,
                       key: CellKey,
                       obj: &Json|
     -> Result<(), CompareError> {
        let seconds = obj
            .get("median_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| CompareError(format!("timing cell `{key}` has no `median_s`")))?;
        // Throughput needs the vector count; a figure without one
        // (none today) would compare per-pass rates instead, which
        // is still consistent between two documents of the figure.
        let per = vectors.unwrap_or(1) as f64;
        let vectors_per_s = per / seconds.max(1e-12);
        cells.insert(
            key,
            Cell::Timing {
                seconds,
                vectors_per_s,
            },
        );
        Ok(())
    };
    for row in rows {
        let circuit = row
            .get("circuit")
            .and_then(Json::as_str)
            .ok_or_else(|| CompareError("row without a `circuit` member".into()))?
            .to_owned();
        // A row measured at another width than the document's says so.
        let word = row.get("word_bits").and_then(Json::as_u64).unwrap_or(word);
        let members = row
            .as_obj()
            .ok_or_else(|| CompareError("row is not an object".into()))?;
        for (name, value) in members {
            // Paper transcriptions are constants, not measurements.
            if name == "circuit" || name == "word_bits" || name.starts_with("paper_") {
                continue;
            }
            let key = |engine: &str, jobs: u64| CellKey {
                circuit: circuit.clone(),
                engine: engine.to_owned(),
                jobs,
                word,
            };
            match value {
                Json::Obj(_) if value.get("min_s").is_some() => {
                    push_timing(&mut cells, key(name, 1), value)?;
                }
                Json::Arr(entries) if name == "batched" => {
                    for entry in entries {
                        let jobs = entry.get("jobs").and_then(Json::as_u64).ok_or_else(|| {
                            CompareError(format!("batched entry for {circuit} has no `jobs`"))
                        })?;
                        let timing = entry.get("timing").ok_or_else(|| {
                            CompareError(format!("batched entry for {circuit} has no `timing`"))
                        })?;
                        push_timing(&mut cells, key(name, jobs), timing)?;
                    }
                }
                Json::UInt(v) => {
                    cells.insert(key(name, 1), Cell::Static(*v));
                }
                Json::Float(v) => {
                    cells.insert(key(name, 1), Cell::Factor(*v));
                }
                _ => {} // unknown shapes are ignored, additively
            }
        }
    }
    Ok(BenchDoc {
        figure,
        vectors,
        score,
        profile,
        cells,
    })
}

/// How one cell moved between OLD and NEW.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellClass {
    /// Normalized throughput rose beyond tolerance.
    Improved,
    /// Within tolerance (timings) or exactly equal (static cells).
    Unchanged,
    /// Normalized throughput fell beyond tolerance, or a deterministic
    /// metric drifted at all.
    Regressed,
    /// Present in OLD, absent in NEW — lost coverage fails the gate.
    Missing,
    /// Present only in NEW — new coverage is welcome.
    New,
}

impl CellClass {
    /// Stable label for tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            CellClass::Improved => "improved",
            CellClass::Unchanged => "unchanged",
            CellClass::Regressed => "regressed",
            CellClass::Missing => "missing",
            CellClass::New => "new",
        }
    }
}

/// One compared cell in the delta report.
#[derive(Clone, PartialEq, Debug)]
pub struct CellDelta {
    /// The cell's identity.
    pub key: CellKey,
    /// OLD-side value (None for `new` cells).
    pub old: Option<Cell>,
    /// NEW-side value (None for `missing` cells).
    pub new: Option<Cell>,
    /// NEW throughput after calibration normalization (timings only).
    pub normalized_new_vps: Option<f64>,
    /// Percent change of normalized throughput vs OLD (timings only;
    /// positive = faster).
    pub delta_pct: Option<f64>,
    /// The verdict.
    pub class: CellClass,
}

/// The full delta report of one `tables compare` run.
#[derive(Clone, PartialEq, Debug)]
pub struct CompareReport {
    /// The figure both documents reproduce.
    pub figure: String,
    /// Tolerance applied to timing deltas, percent.
    pub tolerance_pct: f64,
    /// `new_score / old_score` (1.0 when either side lacks the
    /// fingerprint). NEW throughputs are *divided* by this before
    /// comparison.
    pub calibration_ratio: f64,
    /// Every compared cell, sorted by key.
    pub cells: Vec<CellDelta>,
}

impl CompareReport {
    /// Cells carrying `class`.
    pub fn count(&self, class: CellClass) -> usize {
        self.cells.iter().filter(|c| c.class == class).count()
    }

    /// `true` when nothing regressed and nothing went missing — the CI
    /// gate condition.
    pub fn gate_passes(&self) -> bool {
        self.count(CellClass::Regressed) == 0 && self.count(CellClass::Missing) == 0
    }

    /// One-line summary (`improved 2, unchanged 37, regressed 1, …`).
    pub fn summary(&self) -> String {
        format!(
            "improved {}, unchanged {}, regressed {}, missing {}, new {}",
            self.count(CellClass::Improved),
            self.count(CellClass::Unchanged),
            self.count(CellClass::Regressed),
            self.count(CellClass::Missing),
            self.count(CellClass::New),
        )
    }

    /// The rendered human delta table plus summary and verdict lines.
    pub fn render_table(&self) -> String {
        let mut table = Table::new(&["cell", "old", "new(norm)", "delta", "class"]);
        let text = |cell: Option<Cell>| match cell {
            Some(Cell::Timing { vectors_per_s, .. }) => format!("{vectors_per_s:.0}/s"),
            Some(Cell::Static(v)) => v.to_string(),
            Some(Cell::Factor(v)) => format!("{v:.4}"),
            None => "-".to_owned(),
        };
        for delta in &self.cells {
            let old = text(delta.old);
            // Timing cells show the calibration-normalized NEW side —
            // the number the gate actually compared.
            let new = match (delta.normalized_new_vps, delta.new) {
                (Some(vps), _) => format!("{vps:.0}/s"),
                (None, cell) => text(cell),
            };
            let shift = match delta.delta_pct {
                Some(pct) => format!("{pct:+.1}%"),
                None => "-".to_owned(),
            };
            table.row(vec![
                delta.key.to_string(),
                old,
                new,
                shift,
                delta.class.name().to_owned(),
            ]);
        }
        let mut out = format!(
            "== compare {}: tolerance {:.0}%, calibration ratio {:.3} ==\n",
            self.figure, self.tolerance_pct, self.calibration_ratio
        );
        out.push_str(&table.render());
        out.push_str(&format!("{}\n", self.summary()));
        out.push_str(if self.gate_passes() {
            "gate: PASS\n"
        } else {
            "gate: FAIL (regressed or missing cells)\n"
        });
        out
    }

    /// The delta report as an `uds-bench-compare-v1` document.
    pub fn to_json(&self) -> Json {
        let cell_json = |cell: &Cell| match *cell {
            Cell::Timing {
                seconds,
                vectors_per_s,
            } => Json::obj([
                ("seconds", Json::Float(seconds)),
                ("vectors_per_s", Json::Float(vectors_per_s)),
            ]),
            Cell::Static(v) => Json::UInt(v),
            Cell::Factor(v) => Json::Float(v),
        };
        let cells = self
            .cells
            .iter()
            .map(|delta| {
                let mut members = vec![
                    ("circuit".to_owned(), Json::Str(delta.key.circuit.clone())),
                    ("engine".to_owned(), Json::Str(delta.key.engine.clone())),
                    ("jobs".to_owned(), Json::UInt(delta.key.jobs)),
                    ("word".to_owned(), Json::UInt(delta.key.word)),
                    ("class".to_owned(), Json::Str(delta.class.name().to_owned())),
                ];
                if let Some(old) = &delta.old {
                    members.push(("old".to_owned(), cell_json(old)));
                }
                if let Some(new) = &delta.new {
                    members.push(("new".to_owned(), cell_json(new)));
                }
                if let Some(vps) = delta.normalized_new_vps {
                    members.push(("normalized_new_vps".to_owned(), Json::Float(vps)));
                }
                if let Some(pct) = delta.delta_pct {
                    members.push(("delta_pct".to_owned(), Json::Float(pct)));
                }
                Json::Obj(members)
            })
            .collect();
        Json::obj([
            ("schema", Json::Str(COMPARE_SCHEMA.to_owned())),
            ("figure", Json::Str(self.figure.clone())),
            ("tolerance_pct", Json::Float(self.tolerance_pct)),
            ("calibration_ratio", Json::Float(self.calibration_ratio)),
            (
                "gate",
                Json::Str(if self.gate_passes() { "pass" } else { "fail" }.to_owned()),
            ),
            (
                "counts",
                Json::obj([
                    (
                        "improved",
                        Json::UInt(self.count(CellClass::Improved) as u64),
                    ),
                    (
                        "unchanged",
                        Json::UInt(self.count(CellClass::Unchanged) as u64),
                    ),
                    (
                        "regressed",
                        Json::UInt(self.count(CellClass::Regressed) as u64),
                    ),
                    ("missing", Json::UInt(self.count(CellClass::Missing) as u64)),
                    ("new", Json::UInt(self.count(CellClass::New) as u64)),
                ]),
            ),
            ("cells", Json::Arr(cells)),
        ])
    }
}

/// Relative equality for deterministic float metrics: exact modulo
/// the JSON render/parse round-trip.
fn factors_match(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compares two parsed documents.
///
/// # Errors
///
/// [`CompareError`] when the documents reproduce different figures or
/// were recorded under different build profiles (debug vs release
/// timings are never comparable).
pub fn compare_docs(
    old: &BenchDoc,
    new: &BenchDoc,
    tolerance_pct: f64,
) -> Result<CompareReport, CompareError> {
    if old.figure != new.figure {
        return Err(CompareError(format!(
            "figure mismatch: OLD is `{}`, NEW is `{}`",
            old.figure, new.figure
        )));
    }
    if let (Some(old_profile), Some(new_profile)) = (&old.profile, &new.profile) {
        if old_profile != new_profile {
            return Err(CompareError(format!(
                "build profile mismatch: OLD is `{old_profile}`, NEW is `{new_profile}` \
                 (debug and release timings are not comparable)"
            )));
        }
    }
    let calibration_ratio = match (old.score, new.score) {
        (Some(old_score), Some(new_score)) if old_score > 0.0 && new_score > 0.0 => {
            new_score / old_score
        }
        _ => 1.0,
    };

    let mut cells = Vec::new();
    for (key, old_cell) in &old.cells {
        match new.cells.get(key) {
            None => cells.push(CellDelta {
                key: key.clone(),
                old: Some(*old_cell),
                new: None,
                normalized_new_vps: None,
                delta_pct: None,
                class: CellClass::Missing,
            }),
            Some(new_cell) => {
                let delta = match (old_cell, new_cell) {
                    (
                        Cell::Timing {
                            vectors_per_s: old_vps,
                            ..
                        },
                        Cell::Timing {
                            vectors_per_s: new_vps,
                            ..
                        },
                    ) => {
                        // Divide the machine out of the NEW side: on a
                        // 2× host, 2× raw throughput is "unchanged".
                        let normalized = new_vps / calibration_ratio;
                        let pct = 100.0 * (normalized - old_vps) / old_vps.max(1e-12);
                        let class = if pct < -tolerance_pct {
                            CellClass::Regressed
                        } else if pct > tolerance_pct {
                            CellClass::Improved
                        } else {
                            CellClass::Unchanged
                        };
                        CellDelta {
                            key: key.clone(),
                            old: Some(*old_cell),
                            new: Some(*new_cell),
                            normalized_new_vps: Some(normalized),
                            delta_pct: Some(pct),
                            class,
                        }
                    }
                    (Cell::Static(a), Cell::Static(b)) => CellDelta {
                        key: key.clone(),
                        old: Some(*old_cell),
                        new: Some(*new_cell),
                        normalized_new_vps: None,
                        delta_pct: None,
                        class: if a == b {
                            CellClass::Unchanged
                        } else {
                            CellClass::Regressed
                        },
                    },
                    (Cell::Factor(a), Cell::Factor(b)) => CellDelta {
                        key: key.clone(),
                        old: Some(*old_cell),
                        new: Some(*new_cell),
                        normalized_new_vps: None,
                        delta_pct: None,
                        class: if factors_match(*a, *b) {
                            CellClass::Unchanged
                        } else {
                            CellClass::Regressed
                        },
                    },
                    // A cell that changed *kind* is a schema drift the
                    // additive contract forbids: fail loudly.
                    _ => CellDelta {
                        key: key.clone(),
                        old: Some(*old_cell),
                        new: Some(*new_cell),
                        normalized_new_vps: None,
                        delta_pct: None,
                        class: CellClass::Regressed,
                    },
                };
                cells.push(delta);
            }
        }
    }
    for (key, new_cell) in &new.cells {
        if !old.cells.contains_key(key) {
            cells.push(CellDelta {
                key: key.clone(),
                old: None,
                new: Some(*new_cell),
                normalized_new_vps: None,
                delta_pct: None,
                class: CellClass::New,
            });
        }
    }
    cells.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(CompareReport {
        figure: old.figure.clone(),
        tolerance_pct,
        calibration_ratio,
        cells,
    })
}

/// Parses and compares two rendered documents in one call.
///
/// # Errors
///
/// JSON syntax errors and every [`parse_doc`]/[`compare_docs`] error,
/// all usage-class.
pub fn compare_rendered(
    old_text: &str,
    new_text: &str,
    tolerance_pct: f64,
) -> Result<CompareReport, CompareError> {
    let parse = |label: &str, text: &str| -> Result<BenchDoc, CompareError> {
        let doc =
            Json::parse(text).map_err(|e| CompareError(format!("{label}: not valid JSON: {e}")))?;
        parse_doc(&doc).map_err(|e| CompareError(format!("{label}: {e}")))
    };
    compare_docs(
        &parse("OLD", old_text)?,
        &parse("NEW", new_text)?,
        tolerance_pct,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal fig-like document with one timed engine column and
    /// one static column.
    fn doc(figure: &str, vectors: u64, score: f64, seconds: f64, ops: u64) -> String {
        format!(
            r#"{{"schema":"uds-bench-v1","figure":"{figure}","vectors":{vectors},
               "calibration":{{"score":{score},"alu_mops":300.0,"mem_mops":12.0,
                               "cores":1,"profile":"release","word_bits":32}},
               "rows":[{{"circuit":"c432",
                         "parallel":{{"min_s":{seconds},"median_s":{seconds},"reps":3}},
                         "word_ops":{ops},
                         "paper_parallel_s":9.9}}]}}"#
        )
    }

    #[test]
    fn identical_documents_pass_with_all_unchanged() {
        let text = doc("fig19", 500, 1.0, 0.05, 1234);
        let report = compare_rendered(&text, &text, 10.0).unwrap();
        assert!(report.gate_passes());
        assert_eq!(report.count(CellClass::Unchanged), 2);
        assert_eq!(report.cells.len(), 2, "paper_* columns are skipped");
    }

    #[test]
    fn throughput_regression_beyond_tolerance_fails_the_gate() {
        let old = doc("fig19", 500, 1.0, 0.05, 1234);
        let new = doc("fig19", 500, 1.0, 0.08, 1234); // 60% slower
        let report = compare_rendered(&old, &new, 10.0).unwrap();
        assert!(!report.gate_passes());
        assert_eq!(report.count(CellClass::Regressed), 1);
        let cell = report
            .cells
            .iter()
            .find(|c| c.class == CellClass::Regressed)
            .unwrap();
        assert_eq!(cell.key.engine, "parallel");
        assert!(cell.delta_pct.unwrap() < -30.0);
    }

    #[test]
    fn noise_within_tolerance_is_unchanged() {
        let old = doc("fig19", 500, 1.0, 0.050, 7);
        let new = doc("fig19", 500, 1.0, 0.053, 7); // ~5.7% slower
        let report = compare_rendered(&old, &new, 10.0).unwrap();
        assert!(report.gate_passes());
        assert_eq!(report.count(CellClass::Unchanged), 2);
    }

    #[test]
    fn calibration_ratio_normalizes_host_speed_away() {
        // NEW host scores 2× and also ran 2× faster: unchanged.
        let old = doc("fig19", 500, 1.0, 0.06, 7);
        let new = doc("fig19", 500, 2.0, 0.03, 7);
        let report = compare_rendered(&old, &new, 10.0).unwrap();
        assert_eq!(report.calibration_ratio, 2.0);
        assert!(report.gate_passes(), "{}", report.summary());
        // Same 2× host but the *raw* time did not improve at all: the
        // normalized throughput halved — regression.
        let lazy = doc("fig19", 500, 2.0, 0.06, 7);
        let report = compare_rendered(&old, &lazy, 10.0).unwrap();
        assert!(!report.gate_passes());
    }

    #[test]
    fn different_vector_counts_compare_by_throughput() {
        // 500 vectors in 0.05 s ≡ 5000 vectors in 0.5 s.
        let old = doc("fig19", 500, 1.0, 0.05, 7);
        let new = doc("fig19", 5000, 1.0, 0.5, 7);
        let report = compare_rendered(&old, &new, 10.0).unwrap();
        assert!(report.gate_passes(), "{}", report.summary());
    }

    #[test]
    fn static_drift_regresses_with_zero_tolerance() {
        let old = doc("fig19", 500, 1.0, 0.05, 1234);
        let new = doc("fig19", 500, 1.0, 0.05, 1235);
        let report = compare_rendered(&old, &new, 99.0).unwrap();
        assert!(!report.gate_passes());
        let cell = report
            .cells
            .iter()
            .find(|c| c.key.engine == "word_ops")
            .unwrap();
        assert_eq!(cell.class, CellClass::Regressed);
    }

    #[test]
    fn a_row_naming_its_word_width_keys_its_own_cells() {
        // The same circuit measured at the document's 32-bit words and
        // again at 64: two cells per column, neither a static member.
        let text = r#"{"schema":"uds-bench-v1","figure":"fig24","vectors":500,
            "calibration":{"score":1.0,"word_bits":32},"rows":[
            {"circuit":"c432","word_ops":327},
            {"circuit":"c432","word_bits":64,"word_ops":327}]}"#;
        let doc = parse_doc(&Json::parse(text).unwrap()).unwrap();
        let words: Vec<u64> = doc.cells.keys().map(|key| key.word).collect();
        assert_eq!(words, [32, 64]);
        assert!(doc.cells.keys().all(|key| key.engine == "word_ops"));
    }

    #[test]
    fn missing_rows_fail_and_new_rows_pass() {
        let two_rows = r#"{"schema":"uds-bench-v1","figure":"fig21","rows":[
            {"circuit":"c432","shifts":160},{"circuit":"c499","shifts":200}]}"#;
        let one_row = r#"{"schema":"uds-bench-v1","figure":"fig21","rows":[
            {"circuit":"c432","shifts":160}]}"#;
        let shrunk = compare_rendered(two_rows, one_row, 10.0).unwrap();
        assert!(!shrunk.gate_passes());
        assert_eq!(shrunk.count(CellClass::Missing), 1);
        let grown = compare_rendered(one_row, two_rows, 10.0).unwrap();
        assert!(grown.gate_passes());
        assert_eq!(grown.count(CellClass::New), 1);
    }

    #[test]
    fn schema_and_figure_mismatches_are_usage_errors() {
        let good = doc("fig19", 500, 1.0, 0.05, 7);
        let bad_schema = good.replace("uds-bench-v1", "uds-bench-v2");
        let err = compare_rendered(&good, &bad_schema, 10.0).unwrap_err();
        assert!(err.0.contains("schema mismatch"), "{err}");
        let other_figure = doc("fig20", 500, 1.0, 0.05, 7);
        let err = compare_rendered(&good, &other_figure, 10.0).unwrap_err();
        assert!(err.0.contains("figure mismatch"), "{err}");
        let err = compare_rendered(&good, "not json", 10.0).unwrap_err();
        assert!(err.0.contains("NEW"), "{err}");
    }

    #[test]
    fn profile_mismatch_is_a_usage_error() {
        let release = doc("fig19", 500, 1.0, 0.05, 7);
        let debug = release.replace("\"release\"", "\"debug\"");
        let err = compare_rendered(&release, &debug, 10.0).unwrap_err();
        assert!(err.0.contains("profile mismatch"), "{err}");
    }

    #[test]
    fn batched_entries_match_by_jobs() {
        let batched = |j4: f64| {
            format!(
                r#"{{"schema":"uds-bench-v1","figure":"parallel","vectors":500,"rows":[
                    {{"circuit":"c432",
                      "sequential":{{"min_s":0.05,"median_s":0.05}},
                      "batched":[
                        {{"jobs":1,"timing":{{"min_s":0.06,"median_s":0.06}}}},
                        {{"jobs":4,"timing":{{"min_s":{j4},"median_s":{j4}}}}}]}}]}}"#
            )
        };
        let report = compare_rendered(&batched(0.02), &batched(0.02), 10.0).unwrap();
        assert!(report.gate_passes());
        assert_eq!(report.cells.len(), 3);
        let report = compare_rendered(&batched(0.02), &batched(0.2), 10.0).unwrap();
        let regressed: Vec<String> = report
            .cells
            .iter()
            .filter(|c| c.class == CellClass::Regressed)
            .map(|c| c.key.to_string())
            .collect();
        assert_eq!(regressed, ["c432/batched j4 w32"]);
    }

    #[test]
    fn word_width_is_part_of_the_key() {
        let w32 = doc("fig19", 500, 1.0, 0.05, 7);
        let w64 = w32.replace("\"word_bits\":32", "\"word_bits\":64");
        let report = compare_rendered(&w32, &w64, 10.0).unwrap();
        // Nothing matches: everything is missing/new, and the gate
        // fails on the lost coverage.
        assert_eq!(report.count(CellClass::Missing), 2);
        assert_eq!(report.count(CellClass::New), 2);
        assert!(!report.gate_passes());
    }

    #[test]
    fn report_renders_table_and_json() {
        let old = doc("fig19", 500, 1.0, 0.05, 7);
        let new = doc("fig19", 500, 1.0, 0.09, 7);
        let report = compare_rendered(&old, &new, 10.0).unwrap();
        let table = report.render_table();
        assert!(table.contains("c432/parallel j1 w32"), "{table}");
        assert!(table.contains("gate: FAIL"), "{table}");
        let json = report.to_json();
        assert_eq!(json.get("schema").unwrap().as_str(), Some(COMPARE_SCHEMA));
        assert_eq!(json.get("gate").unwrap().as_str(), Some("fail"));
        let reparsed = Json::parse(&json.render()).expect("report round-trips");
        assert_eq!(
            reparsed
                .get("counts")
                .unwrap()
                .get("regressed")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn legacy_documents_without_fingerprint_compare_at_ratio_one() {
        // The pre-calibration BENCH_parallel.json shape: min/median
        // only, no calibration object.
        let legacy = r#"{"schema":"uds-bench-v1","figure":"parallel","vectors":500,"rows":[
            {"circuit":"c432","sequential":{"min_s":0.05,"median_s":0.06}}]}"#;
        let report = compare_rendered(legacy, legacy, 10.0).unwrap();
        assert_eq!(report.calibration_ratio, 1.0);
        assert!(report.gate_passes());
        // The statistic is the median, not the min.
        if let Some(Cell::Timing { seconds, .. }) = report.cells[0].old {
            assert_eq!(seconds, 0.06);
        } else {
            panic!("expected a timing cell");
        }
    }

    #[test]
    fn committed_baselines_with_a_trimmed_mean_compare_to_documents_without() {
        // Committed baselines carry `trimmed_mean_s` (equal to the median
        // under three reps); current documents do not. The gate reads
        // the median on both sides, so every cell matches.
        let old = r#"{"schema":"uds-bench-v1","figure":"fig23","vectors":500,"rows":[
            {"circuit":"c432",
             "unoptimized":{"min_s":0.04,"median_s":0.05,"trimmed_mean_s":0.05,"reps":3},
             "path_tracing":{"min_s":0.02,"median_s":0.03,"trimmed_mean_s":0.03,"reps":3},
             "unoptimized_word_ops":1234}]}"#;
        let new = r#"{"schema":"uds-bench-v1","figure":"fig23","vectors":500,"rows":[
            {"circuit":"c432",
             "unoptimized":{"min_s":0.04,"median_s":0.05,"reps":3,"vectors_per_s":10000.0},
             "path_tracing":{"min_s":0.02,"median_s":0.03,"reps":3,"vectors_per_s":16666.7},
             "unoptimized_word_ops":1234}]}"#;
        let report = compare_rendered(old, new, 10.0).unwrap();
        assert_eq!(report.cells.len(), 3);
        assert_eq!(
            report.count(CellClass::Unchanged),
            3,
            "{}",
            report.summary()
        );
        assert!(report.gate_passes());
    }

    #[test]
    fn a_timing_cell_without_a_median_is_a_usage_error() {
        let min_only = r#"{"schema":"uds-bench-v1","figure":"fig19","vectors":500,"rows":[
            {"circuit":"c432","parallel":{"min_s":0.05}}]}"#;
        let err = compare_rendered(min_only, min_only, 10.0).unwrap_err();
        assert!(err.0.contains("median_s"), "{err}");
    }
}
