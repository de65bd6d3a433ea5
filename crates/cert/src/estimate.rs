//! Streaming estimators: everything the certification campaign keeps.
//!
//! Millions of trials flow through these accumulators and nothing else is
//! retained — log2 latency histograms, binomial rates with Wilson score
//! confidence intervals, and the bucketed schedulability curve. Every
//! structure merges associatively (batch payloads from the fleet are
//! folded in submission order) and serializes to/from the `Value` API so
//! the fleet store can carry the payloads.

use serde_json::{json, Value};

use cohort_types::{Error, Log2Histogram, Result};

use crate::trial::{FaultTrialOutcome, SchedSpace, SchedTrialOutcome};

/// How many convicting seeds one batch payload names for the minimizer
/// (the aggregate counts always cover every conviction).
const CONVICTING_SEEDS_CAP: usize = 16;

/// The z value of the 95% Wilson score interval.
pub const WILSON_Z95: f64 = 1.959_963_984_540_054;

/// The Wilson score interval for a binomial proportion: `(lo, hi)` with
/// `0 <= lo <= s/n <= hi <= 1`. Zero trials yield the vacuous `(0, 1)`.
#[must_use]
pub fn wilson(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / denom;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / denom;
    // Clamp against rounding: the interval must bracket the point estimate
    // even when `centre - half` lands epsilon above an exact 0.
    ((centre - half).clamp(0.0, p), (centre + half).clamp(p, 1.0))
}

/// A binomial rate with its Wilson interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rate {
    /// Successes observed.
    pub successes: u64,
    /// Trials observed.
    pub trials: u64,
}

impl Rate {
    /// The point estimate (`0` for zero trials).
    #[must_use]
    pub fn value(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes as f64 / self.trials as f64
        }
    }

    /// Folds another rate in.
    pub fn merge(&mut self, other: &Rate) {
        self.successes += other.successes;
        self.trials += other.trials;
    }

    /// `{successes, trials, rate, wilson_lo, wilson_hi}`.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let (lo, hi) = wilson(self.successes, self.trials, WILSON_Z95);
        json!({
            "successes": self.successes,
            "trials": self.trials,
            "rate": self.value(),
            "wilson_lo": lo,
            "wilson_hi": hi,
        })
    }

    /// Parses a payload produced by [`Rate::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on a malformed document, including one with
    /// more successes than trials.
    pub fn from_json(doc: &Value) -> Result<Rate> {
        let (successes, trials) = (get_u64(doc, "successes")?, get_u64(doc, "trials")?);
        if successes > trials {
            return Err(Error::Codec(format!("rate has {successes} successes in {trials} trials")));
        }
        Ok(Rate { successes, trials })
    }
}

/// The sparse `{total, max, buckets: [[bucket, count], ...]}` payload of a
/// detection-latency histogram.
fn histogram_to_json(hist: &Log2Histogram) -> Value {
    let buckets: Vec<Value> =
        hist.nonzero_buckets().map(|(bucket, count)| json!([bucket as u64, count])).collect();
    json!({ "total": hist.count(), "max": hist.max(), "buckets": buckets })
}

/// Parses a [`histogram_to_json`] payload; the bucket counts must sum to
/// the document's `total`.
fn histogram_from_json(doc: &Value) -> Result<Log2Histogram> {
    let total = get_u64(doc, "total")?;
    let pairs = doc
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or_else(|| Error::Codec("histogram is missing `buckets`".into()))?
        .iter()
        .map(|pair| match pair.as_array().map(Vec::as_slice) {
            Some([bucket, count]) => bucket
                .as_u64()
                .zip(count.as_u64())
                .ok_or_else(|| Error::Codec("histogram bucket is not a u64 pair".into())),
            _ => Err(Error::Codec("histogram bucket is not a pair".into())),
        })
        .collect::<Result<Vec<(u64, u64)>>>()?;
    let hist = Log2Histogram::from_buckets(get_u64(doc, "max")?, pairs)?;
    if hist.count() != total {
        return Err(Error::Codec(format!(
            "histogram bucket counts sum to {}, total says {total}",
            hist.count()
        )));
    }
    Ok(hist)
}

/// The streaming aggregate of the fault-injection campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultAggregate {
    /// Trials run, control arm included.
    pub trials: u64,
    /// Control (empty-plan) trials.
    pub control_trials: u64,
    /// Detection: convicted trials among faulted trials.
    pub detected: Rate,
    /// False convictions: convicted trials among control trials.
    pub false_convictions: Rate,
    /// Degradation: faulted trials in which the driver escalated.
    pub degraded: Rate,
    /// Degradation success: escalated trials whose post-switch tail was
    /// Eq. 1 compliant.
    pub degradation_success: Rate,
    /// Machine-attributed (coreless) convictions across all trials.
    pub machine_violations: u64,
    /// Detection-latency distribution (cycles, log2 buckets).
    pub detection: Log2Histogram,
    /// The first convicting seeds, capped at `CONVICTING_SEEDS_CAP` per
    /// batch, for the minimizer.
    pub convicting_seeds: Vec<u64>,
}

impl FaultAggregate {
    /// Streams one trial outcome in.
    pub fn record(&mut self, seed: u64, outcome: &FaultTrialOutcome) {
        self.trials += 1;
        self.machine_violations += outcome.machine_violations;
        if outcome.control {
            self.control_trials += 1;
            self.false_convictions.trials += 1;
            if outcome.convicted() {
                self.false_convictions.successes += 1;
            }
        } else {
            self.detected.trials += 1;
            if outcome.convicted() {
                self.detected.successes += 1;
                if self.convicting_seeds.len() < CONVICTING_SEEDS_CAP {
                    self.convicting_seeds.push(seed);
                }
            }
            self.degraded.trials += 1;
            if outcome.switched {
                self.degraded.successes += 1;
                self.degradation_success.trials += 1;
                if outcome.post_switch_compliant == Some(true) {
                    self.degradation_success.successes += 1;
                }
            }
            if let Some(latency) = outcome.detection_latency {
                self.detection.record(latency);
            }
        }
    }

    /// Folds another aggregate in (batch merge, submission order).
    pub fn merge(&mut self, other: &FaultAggregate) {
        self.trials += other.trials;
        self.control_trials += other.control_trials;
        self.detected.merge(&other.detected);
        self.false_convictions.merge(&other.false_convictions);
        self.degraded.merge(&other.degraded);
        self.degradation_success.merge(&other.degradation_success);
        self.machine_violations += other.machine_violations;
        self.detection.merge(&other.detection);
        for &seed in &other.convicting_seeds {
            self.convicting_seeds.push(seed);
        }
    }

    /// The JSON payload of this aggregate.
    #[must_use]
    pub fn to_json(&self) -> Value {
        json!({
            "trials": self.trials,
            "control_trials": self.control_trials,
            "detected": self.detected.to_json(),
            "false_convictions": self.false_convictions.to_json(),
            "degraded": self.degraded.to_json(),
            "degradation_success": self.degradation_success.to_json(),
            "machine_violations": self.machine_violations,
            "detection_latency": histogram_to_json(&self.detection),
            "convicting_seeds": self.convicting_seeds.clone(),
        })
    }

    /// Parses a payload produced by [`FaultAggregate::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on a malformed document.
    pub fn from_json(doc: &Value) -> Result<FaultAggregate> {
        let seeds = doc
            .get("convicting_seeds")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::Codec("fault aggregate is missing `convicting_seeds`".into()))?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| Error::Codec("convicting seed".into())))
            .collect::<Result<Vec<u64>>>()?;
        Ok(FaultAggregate {
            trials: get_u64(doc, "trials")?,
            control_trials: get_u64(doc, "control_trials")?,
            detected: Rate::from_json(get(doc, "detected")?)?,
            false_convictions: Rate::from_json(get(doc, "false_convictions")?)?,
            degraded: Rate::from_json(get(doc, "degraded")?)?,
            degradation_success: Rate::from_json(get(doc, "degradation_success")?)?,
            machine_violations: get_u64(doc, "machine_violations")?,
            detection: histogram_from_json(get(doc, "detection_latency")?)?,
            convicting_seeds: seeds,
        })
    }
}

/// One utilisation bucket of the schedulability curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedBucket {
    /// Inclusive lower utilisation edge, percent.
    pub lo_pct: u64,
    /// Exclusive upper utilisation edge, percent.
    pub hi_pct: u64,
    /// Schedulable sets over sampled sets in this bucket.
    pub rate: Rate,
}

/// The streaming schedulability curve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedAggregate {
    /// Sets sampled.
    pub trials: u64,
    /// Sets schedulable overall.
    pub schedulable: u64,
    /// The curve, in ascending utilisation order with fixed edges derived
    /// from the sampling space (identical across batches so merges align).
    pub buckets: Vec<SchedBucket>,
}

impl SchedAggregate {
    /// An empty curve with the bucket edges of `space`.
    #[must_use]
    pub(crate) fn for_space(space: &SchedSpace) -> Self {
        let width = space.bucket_pct.max(1);
        let mut buckets = Vec::new();
        let mut lo = space.util_min_pct;
        while lo <= space.util_max_pct {
            let hi = (lo + width).min(space.util_max_pct + 1);
            buckets.push(SchedBucket { lo_pct: lo, hi_pct: hi, rate: Rate::default() });
            lo = hi;
        }
        SchedAggregate { trials: 0, schedulable: 0, buckets }
    }

    /// Streams one trial outcome in.
    pub fn record(&mut self, outcome: &SchedTrialOutcome) {
        self.trials += 1;
        if outcome.schedulable {
            self.schedulable += 1;
        }
        if let Some(bucket) = self
            .buckets
            .iter_mut()
            .find(|b| outcome.util_pct >= b.lo_pct && outcome.util_pct < b.hi_pct)
        {
            bucket.rate.trials += 1;
            if outcome.schedulable {
                bucket.rate.successes += 1;
            }
        }
    }

    /// Folds another curve in.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the bucket edges disagree (the
    /// batches were sampled from different spaces).
    pub fn merge(&mut self, other: &SchedAggregate) -> Result<()> {
        if self.buckets.is_empty() {
            *self = other.clone();
            return Ok(());
        }
        if self.buckets.len() != other.buckets.len()
            || self
                .buckets
                .iter()
                .zip(&other.buckets)
                .any(|(a, b)| a.lo_pct != b.lo_pct || a.hi_pct != b.hi_pct)
        {
            return Err(Error::InvalidConfig(
                "schedulability curves with different bucket edges cannot merge".into(),
            ));
        }
        self.trials += other.trials;
        self.schedulable += other.schedulable;
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            mine.rate.merge(&theirs.rate);
        }
        Ok(())
    }

    /// The JSON payload of this curve.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .buckets
            .iter()
            .map(|b| {
                let (lo, hi) = wilson(b.rate.successes, b.rate.trials, WILSON_Z95);
                json!({
                    "util_lo_pct": b.lo_pct,
                    "util_hi_pct": b.hi_pct,
                    "successes": b.rate.successes,
                    "trials": b.rate.trials,
                    "rate": b.rate.value(),
                    "wilson_lo": lo,
                    "wilson_hi": hi,
                })
            })
            .collect();
        json!({ "trials": self.trials, "schedulable": self.schedulable, "curve": buckets })
    }

    /// Parses a payload produced by [`SchedAggregate::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on a malformed document.
    pub fn from_json(doc: &Value) -> Result<SchedAggregate> {
        let curve = doc
            .get("curve")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::Codec("sched aggregate is missing `curve`".into()))?;
        let buckets = curve
            .iter()
            .map(|b| {
                Ok(SchedBucket {
                    lo_pct: get_u64(b, "util_lo_pct")?,
                    hi_pct: get_u64(b, "util_hi_pct")?,
                    rate: Rate::from_json(b)?,
                })
            })
            .collect::<Result<Vec<SchedBucket>>>()?;
        Ok(SchedAggregate {
            trials: get_u64(doc, "trials")?,
            schedulable: get_u64(doc, "schedulable")?,
            buckets,
        })
    }
}

fn get<'a>(doc: &'a Value, key: &str) -> Result<&'a Value> {
    doc.get(key).ok_or_else(|| Error::Codec(format!("aggregate payload is missing `{key}`")))
}

fn get_u64(doc: &Value, key: &str) -> Result<u64> {
    get(doc, key)?.as_u64().ok_or_else(|| Error::Codec(format!("`{key}` is not a u64")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_brackets_the_point_estimate() {
        for (s, n) in [(0u64, 0u64), (0, 50), (25, 50), (50, 50), (1, 1_000_000)] {
            let (lo, hi) = wilson(s, n, WILSON_Z95);
            assert!((0.0..=1.0).contains(&lo));
            assert!((0.0..=1.0).contains(&hi));
            assert!(lo <= hi);
            if n > 0 {
                let p = s as f64 / n as f64;
                assert!(lo <= p && p <= hi, "({s},{n}): {lo} <= {p} <= {hi}");
            }
        }
        // The interval tightens with evidence.
        let wide = wilson(5, 10, WILSON_Z95);
        let tight = wilson(5_000, 10_000, WILSON_Z95);
        assert!(tight.1 - tight.0 < wide.1 - wide.0);
    }

    #[test]
    fn histogram_merge_equals_streaming() {
        let values = [0u64, 1, 1, 7, 300, 5_000, 5_001, u64::from(u32::MAX)];
        let mut whole = Log2Histogram::new();
        let mut left = Log2Histogram::new();
        let mut right = Log2Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        let back = histogram_from_json(&histogram_to_json(&whole)).expect("round-trips");
        assert_eq!(back, whole);
    }

    #[test]
    fn rate_with_more_successes_than_trials_is_a_codec_error() {
        let doc = json!({ "successes": 3, "trials": 2 });
        assert!(matches!(Rate::from_json(&doc), Err(Error::Codec(_))));
        let doc = json!({ "successes": 2, "trials": 2 });
        assert_eq!(Rate::from_json(&doc).expect("valid"), Rate { successes: 2, trials: 2 });
    }

    #[test]
    fn histogram_bucket_index_above_64_is_a_codec_error() {
        let hist = |bucket: u64| json!({ "total": 1, "max": 1, "buckets": [[bucket, 1]] });
        for bucket in [65, 1u64 << 40, u64::MAX] {
            assert!(
                matches!(histogram_from_json(&hist(bucket)), Err(Error::Codec(_))),
                "bucket {bucket}"
            );
        }
        let decoded = histogram_from_json(&hist(64)).expect("valid");
        assert_eq!(decoded.nonzero_buckets().collect::<Vec<_>>(), [(64, 1)]);
    }

    #[test]
    fn histogram_total_that_disagrees_with_its_buckets_is_a_codec_error() {
        let mut agg = FaultAggregate::default();
        agg.detection.record(900);
        assert_eq!(FaultAggregate::from_json(&agg.to_json()).expect("valid"), agg);
        let Value::Object(mut doc) = agg.to_json() else { panic!("an object") };
        let detection = json!({ "total": 5, "max": 900, "buckets": [[10, 1]] });
        doc.insert("detection_latency".into(), detection);
        assert!(matches!(FaultAggregate::from_json(&Value::Object(doc)), Err(Error::Codec(_))));
    }

    #[test]
    fn aggregates_round_trip_through_json() {
        let mut agg = FaultAggregate::default();
        agg.record(
            1,
            &crate::trial::FaultTrialOutcome {
                control: false,
                faults_fired: 2,
                violations: 3,
                machine_violations: 1,
                switched: true,
                post_switch_compliant: Some(true),
                detection_latency: Some(900),
            },
        );
        agg.record(
            4,
            &crate::trial::FaultTrialOutcome {
                control: true,
                faults_fired: 0,
                violations: 0,
                machine_violations: 0,
                switched: false,
                post_switch_compliant: None,
                detection_latency: None,
            },
        );
        let back = FaultAggregate::from_json(&agg.to_json()).expect("round-trips");
        assert_eq!(back, agg);
        assert_eq!(back.convicting_seeds, vec![1]);

        let space = SchedSpace::default();
        let mut curve = SchedAggregate::for_space(&space);
        curve.record(&SchedTrialOutcome { util_pct: 15, schedulable: true });
        curve.record(&SchedTrialOutcome { util_pct: 140, schedulable: false });
        let back = SchedAggregate::from_json(&curve.to_json()).expect("round-trips");
        assert_eq!(back, curve);
        let covered: u64 = back.buckets.iter().map(|b| b.rate.trials).sum();
        assert_eq!(covered, back.trials, "every sample lands in exactly one bucket");
    }
}
