//! JSON checkpoint/resume for long GA runs.
//!
//! A [`GaCheckpoint`] is a complete snapshot of a run after some
//! generation: the scored population, the convergence history, the
//! evaluation counters **and the fitness memo cache**. Restoring it via
//! [`crate::GeneticAlgorithm::resume`] continues bit-identically to the
//! uninterrupted run — including the `evaluations`/`cache_hits` counters,
//! which is why the memo travels with the snapshot.
//!
//! The JSON codec is written by hand over `serde_json::Value` because the
//! format must stay stable and hand-inspectable: a long LUT optimization's
//! checkpoint may be moved between hosts mid-run. Non-finite fitness
//! values (an infeasible-penalty fitness can legitimately return `+∞`)
//! are encoded as the strings `"inf"`/`"-inf"`, since JSON numbers cannot
//! represent them.

use std::path::{Path, PathBuf};

use serde_json::{json, Value};

use cohort_types::{Error, Result};

use crate::ga::Individual;
use crate::observer::{GaObserver, GenerationReport};

/// Format version written to (and required from) checkpoint documents.
const FORMAT: &str = "cohort-ga-checkpoint/1";

/// A resumable snapshot of a GA run after `generations_done` generations.
#[derive(Debug, Clone, PartialEq)]
pub struct GaCheckpoint {
    /// The seed of the run (resume validates it against the engine's).
    pub seed: u64,
    /// Completed generations; resume continues at this generation index.
    pub generations_done: usize,
    /// The scored population after the last completed generation.
    pub population: Vec<Individual>,
    /// Best fitness after each completed generation.
    pub history: Vec<f64>,
    /// Fitness evaluations performed so far (memo hits excluded).
    pub evaluations: u64,
    /// Memo-cache hits so far.
    pub cache_hits: u64,
    /// NaN evaluations coerced to `+∞` so far.
    pub nan_evaluations: u64,
    /// The fitness memo (every genome scored so far), sorted by genes.
    pub memo: Vec<Individual>,
}

/// Encodes a fitness value, representing non-finite values as strings.
fn fitness_to_json(f: f64) -> Value {
    if f.is_finite() {
        json!(f)
    } else if f > 0.0 {
        json!("inf")
    } else {
        json!("-inf")
    }
}

fn fitness_from_json(v: &Value, what: &str) -> Result<f64> {
    if let Some(f) = v.as_f64() {
        return Ok(f);
    }
    match v.as_str() {
        Some("inf") => Ok(f64::INFINITY),
        Some("-inf") => Ok(f64::NEG_INFINITY),
        _ => Err(Error::Codec(format!("{what}: fitness is neither a number nor \"inf\"/\"-inf\""))),
    }
}

fn individual_to_json(i: &Individual) -> Value {
    json!({ "genes": i.genes.clone(), "fitness": fitness_to_json(i.fitness) })
}

fn individual_from_json(v: &Value, what: &str) -> Result<Individual> {
    let genes = v
        .get("genes")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Codec(format!("{what}: missing `genes` array")))?
        .iter()
        .map(|g| g.as_u64().ok_or_else(|| Error::Codec(format!("{what}: non-integer gene"))))
        .collect::<Result<Vec<u64>>>()?;
    let fitness = fitness_from_json(
        v.get("fitness").ok_or_else(|| Error::Codec(format!("{what}: missing `fitness`")))?,
        what,
    )?;
    Ok(Individual { genes, fitness })
}

fn individuals_from_json(v: &Value, key: &str) -> Result<Vec<Individual>> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Codec(format!("checkpoint: missing `{key}` array")))?
        .iter()
        .enumerate()
        .map(|(i, entry)| individual_from_json(entry, &format!("checkpoint.{key}[{i}]")))
        .collect()
}

/// Finds the byte offset where `text` stops being well-formed JSON: the
/// offending byte for structural garbage (a close bracket that matches
/// nothing), or the end of the document for truncations (an unterminated
/// string or unbalanced brackets — the torn-write signature). The scan is
/// independent of the parser so the diagnosis works with any `serde_json`
/// error type, including string-only offline stubs.
fn malformed_json_offset(text: &str) -> usize {
    let bytes = text.as_bytes();
    let mut stack: Vec<u8> = Vec::new();
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' | b'[' => stack.push(b),
            b'}' if stack.pop() != Some(b'{') => return i,
            b']' if stack.pop() != Some(b'[') => return i,
            _ => {}
        }
    }
    bytes.len()
}

fn u64_field(v: &Value, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| Error::Codec(format!("checkpoint: missing or non-integer `{key}`")))
}

impl GaCheckpoint {
    /// Serializes the checkpoint to a JSON document.
    #[must_use]
    pub fn to_json_value(&self) -> Value {
        json!({
            "format": FORMAT,
            "seed": self.seed,
            "generations_done": self.generations_done,
            "evaluations": self.evaluations,
            "cache_hits": self.cache_hits,
            "nan_evaluations": self.nan_evaluations,
            "history": self.history.iter().map(|&f| fitness_to_json(f)).collect::<Vec<Value>>(),
            "population": self.population.iter().map(individual_to_json).collect::<Vec<Value>>(),
            "memo": self.memo.iter().map(individual_to_json).collect::<Vec<Value>>(),
        })
    }

    /// Parses a checkpoint from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on a missing/mistyped field or an unknown
    /// format version.
    pub fn from_json_value(doc: &Value) -> Result<Self> {
        let format = doc.get("format").and_then(Value::as_str).unwrap_or("<missing>");
        if format != FORMAT {
            return Err(Error::Codec(format!("checkpoint: format `{format}` is not `{FORMAT}`")));
        }
        let history = doc
            .get("history")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::Codec("checkpoint: missing `history` array".into()))?
            .iter()
            .enumerate()
            .map(|(i, v)| fitness_from_json(v, &format!("checkpoint.history[{i}]")))
            .collect::<Result<Vec<f64>>>()?;
        let population = individuals_from_json(doc, "population")?;
        if population.is_empty() {
            return Err(Error::Codec(format!(
                "{FORMAT}: `population` is empty — there is nothing to resume from"
            )));
        }
        Ok(GaCheckpoint {
            seed: u64_field(doc, "seed")?,
            generations_done: u64_field(doc, "generations_done")? as usize,
            population,
            history,
            evaluations: u64_field(doc, "evaluations")?,
            cache_hits: u64_field(doc, "cache_hits")?,
            nan_evaluations: u64_field(doc, "nan_evaluations")?,
            memo: individuals_from_json(doc, "memo")?,
        })
    }

    /// Serializes to a pretty-printed JSON string.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(&self.to_json_value())
            .expect("a Value serializes infallibly");
        text.push('\n');
        text
    }

    /// Parses from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on malformed JSON or schema violations.
    /// Malformed documents — including torn writes that truncated the file
    /// mid-token — are diagnosed with the format name and the byte offset
    /// where the document stops being well-formed, so a broken resume
    /// points at the damage instead of panicking somewhere downstream.
    pub fn from_json(text: &str) -> Result<Self> {
        let doc: Value = serde_json::from_str(text).map_err(|e| {
            let offset = malformed_json_offset(text);
            let kind = if offset >= text.len() { "truncated" } else { "corrupt" };
            Error::Codec(format!(
                "{FORMAT}: {kind} checkpoint JSON at byte {offset} of {}: {e}",
                text.len()
            ))
        })?;
        Self::from_json_value(&doc)
    }

    /// Writes the checkpoint to `path` atomically (temp file + rename), so
    /// an interruption mid-write never corrupts the previous snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on filesystem failures.
    pub fn save(&self, path: &Path) -> Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent).map_err(|e| Error::Codec(e.to_string()))?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, self.to_json()).map_err(|e| Error::Codec(e.to_string()))?;
        std::fs::rename(&tmp, path).map_err(|e| Error::Codec(e.to_string()))
    }

    /// Loads a checkpoint previously written with [`Self::save`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on filesystem or parse failures.
    pub fn load(path: &Path) -> Result<Self> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Codec(format!("cannot read checkpoint {}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

/// A [`GaObserver`] that persists a checkpoint to one file every
/// `every_generations` generations (and always on the first generation, so
/// even a run killed early leaves a resume point).
///
/// # Examples
///
/// ```no_run
/// use cohort_optim::{CheckpointFile, GaConfig, GeneticAlgorithm, SearchSpace};
///
/// let ga = GeneticAlgorithm::new(SearchSpace::new(vec![(0, 999); 4]), GaConfig::default());
/// let sink = CheckpointFile::new("out/ga-checkpoint.json", 5);
/// let outcome = ga.run_observed(&[], &sink, |g| g.iter().sum::<u64>() as f64)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CheckpointFile {
    path: PathBuf,
    every_generations: usize,
}

impl CheckpointFile {
    /// Creates a sink writing to `path` every `every_generations`
    /// generations (clamped to at least 1).
    #[must_use]
    pub fn new(path: impl Into<PathBuf>, every_generations: usize) -> Self {
        CheckpointFile { path: path.into(), every_generations: every_generations.max(1) }
    }
}

impl GaObserver for CheckpointFile {
    fn generation_finished(&self, report: &GenerationReport<'_>) {
        if !report.generation.is_multiple_of(self.every_generations) {
            return;
        }
        // Checkpointing is best-effort: a full disk must not kill the
        // optimization it was meant to protect.
        if let Err(e) = report.checkpoint().save(&self.path) {
            eprintln!("cohort-optim: checkpoint write to {} failed: {e}", self.path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaConfig, GeneticAlgorithm, SearchSpace};

    fn sample_checkpoint() -> GaCheckpoint {
        GaCheckpoint {
            seed: 7,
            generations_done: 3,
            population: vec![
                Individual { genes: vec![1, 2], fitness: 3.5 },
                Individual { genes: vec![4, 5], fitness: f64::INFINITY },
            ],
            history: vec![9.0, 4.0, 3.5],
            evaluations: 40,
            cache_hits: 6,
            nan_evaluations: 1,
            memo: vec![
                Individual { genes: vec![1, 2], fitness: 3.5 },
                Individual { genes: vec![4, 5], fitness: f64::INFINITY },
                Individual { genes: vec![9, 9], fitness: 100.0 },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let cp = sample_checkpoint();
        let parsed = GaCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(cp, parsed, "round trip including +inf fitness");
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(GaCheckpoint::from_json("not json").is_err());
        assert!(GaCheckpoint::from_json("{}").is_err(), "missing format marker");
        let wrong = r#"{"format": "cohort-ga-checkpoint/999"}"#;
        let err = GaCheckpoint::from_json(wrong).unwrap_err();
        assert!(err.to_string().contains("format"), "{err}");
        // Valid marker but a broken field.
        let broken = sample_checkpoint().to_json().replace("\"seed\"", "\"dees\"");
        assert!(GaCheckpoint::from_json(&broken).is_err());
    }

    #[test]
    fn torn_writes_are_rejected_with_format_and_offset() {
        // A power cut mid-write leaves a prefix of the document. Every
        // truncation point must produce a descriptive Codec error naming
        // the format and the byte offset — never a panic.
        let full = sample_checkpoint().to_json();
        for cut in [1, 2, full.len() / 4, full.len() / 2, full.len() - 2] {
            let torn = &full[..cut];
            let err = GaCheckpoint::from_json(torn).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains(FORMAT), "error names the format: {msg}");
            assert!(msg.contains("byte"), "error names the byte offset: {msg}");
            assert!(msg.contains("truncated"), "a torn prefix is a truncation: {msg}");
        }
        // Structural corruption (a bracket flip) points at the offending
        // byte rather than the end of the document.
        let corrupt = full.replace("\"history\": [", "\"history\": ]");
        let err = GaCheckpoint::from_json(&corrupt).unwrap_err().to_string();
        assert!(err.contains(FORMAT) && err.contains("corrupt"), "{err}");
        // The diagnosis scanner is escape-aware: quotes inside strings do
        // not confuse the truncation offset.
        assert_eq!(malformed_json_offset("{\"a\": \"x\\\"y"), 11);
        assert_eq!(malformed_json_offset("[1, 2}"), 5);
    }

    #[test]
    fn empty_population_checkpoints_cannot_resume() {
        let empty = sample_checkpoint().to_json().replace("\"population\"", "\"xpopulation\"");
        assert!(GaCheckpoint::from_json(&empty).is_err(), "missing population is rejected");
        let mut cp = sample_checkpoint();
        let doc = cp.to_json();
        let hollowed = {
            // Rewrite the document with an empty population array.
            let v: Value = serde_json::from_str(&doc).unwrap();
            let mut m = v.as_object().unwrap().clone();
            m.insert("population".into(), Value::Array(Vec::new()));
            serde_json::to_string_pretty(&Value::Object(m)).unwrap()
        };
        let err = GaCheckpoint::from_json(&hollowed).unwrap_err().to_string();
        assert!(err.contains("empty"), "{err}");
        // A hand-built empty checkpoint is refused by resume itself, with
        // the dedicated diagnosis rather than a size-mismatch message.
        cp.population.clear();
        let ga = GeneticAlgorithm::new(
            SearchSpace::new(vec![(0, 500); 2]),
            GaConfig { population: 8, generations: 4, seed: 7, ..Default::default() },
        );
        let err = ga.resume(&cp, |g| g.iter().sum::<u64>() as f64).unwrap_err();
        assert!(err.to_string().contains("empty population"), "{err}");
    }

    #[test]
    fn file_sink_writes_and_resumes() {
        let dir = std::env::temp_dir().join("cohort-optim-checkpoint-test");
        let path = dir.join("ga.json");
        let space = SearchSpace::new(vec![(0, 500); 3]);
        let config = GaConfig { population: 10, generations: 8, ..Default::default() };
        let f = |g: &[u64]| g.iter().map(|&x| (x as f64 - 250.0).abs()).sum::<f64>();

        let sink = CheckpointFile::new(&path, 3);
        let full = GeneticAlgorithm::new(space.clone(), config.clone())
            .run_observed(&[], &sink, f)
            .unwrap();
        // Generations 0, 3 and 6 snapshot; the last one resumes to the
        // same outcome.
        let cp = GaCheckpoint::load(&path).unwrap();
        assert_eq!(cp.generations_done, 7);
        let resumed = GeneticAlgorithm::new(space, config).resume(&cp, f).unwrap();
        assert_eq!(resumed, full);
        std::fs::remove_dir_all(&dir).ok();
    }
}
