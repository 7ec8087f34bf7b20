//! Point-in-time snapshots and their JSON wire form.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::{Json, JsonError};

/// What kind of metric a family holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FamilyKind {
    Counter,
    Gauge,
    Histogram,
}

impl FamilyKind {
    fn as_str(self) -> &'static str {
        match self {
            FamilyKind::Counter => "counter",
            FamilyKind::Gauge => "gauge",
            FamilyKind::Histogram => "histogram",
        }
    }

    fn parse(s: &str) -> Result<Self, JsonError> {
        match s {
            "counter" => Ok(FamilyKind::Counter),
            "gauge" => Ok(FamilyKind::Gauge),
            "histogram" => Ok(FamilyKind::Histogram),
            other => Err(JsonError::new(format!("unknown family kind {other:?}"))),
        }
    }
}

impl fmt::Display for FamilyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Frozen state of one histogram: `(upper_bound, count)` per bucket
/// (last bound is `+Inf`), plus total count and sum.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    pub buckets: Vec<(f64, u64)>,
    pub count: u64,
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean observation, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One labeled child's frozen value.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    pub labels: BTreeMap<String, String>,
    pub value: SampleValue,
}

/// The frozen value of a sample, by kind.
#[derive(Clone, Debug, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// Frozen state of one family.
#[derive(Clone, Debug, PartialEq)]
pub struct FamilySnapshot {
    pub name: String,
    pub help: String,
    pub kind: FamilyKind,
    pub samples: Vec<Sample>,
}

/// A point-in-time capture of every published family, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub families: Vec<FamilySnapshot>,
}

fn labels_match(labels: &BTreeMap<String, String>, want: &[(&str, &str)]) -> bool {
    labels.len() == want.len()
        && want
            .iter()
            .all(|(k, v)| labels.get(*k).map(String::as_str) == Some(*v))
}

impl MetricsSnapshot {
    /// Look up a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    fn sample(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Sample> {
        self.family(name)?
            .samples
            .iter()
            .find(|s| labels_match(&s.labels, labels))
    }

    /// Counter value for the exact label set, or `None` if absent.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match &self.sample(name, labels)?.value {
            SampleValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Sum of all children of a counter family (0 if family is absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name)
            .map(|f| {
                f.samples
                    .iter()
                    .filter_map(|s| match &s.value {
                        SampleValue::Counter(v) => Some(*v),
                        _ => None,
                    })
                    .sum()
            })
            .unwrap_or(0)
    }

    /// Gauge value for the exact label set, or `None` if absent.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match &self.sample(name, labels)?.value {
            SampleValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// Histogram state for the exact label set, or `None` if absent.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        match &self.sample(name, labels)?.value {
            SampleValue::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// Fold another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise (when bucket layouts match — children
    /// of one family always do; on a layout mismatch the other sample is
    /// kept as-is alongside). Families or samples absent here are
    /// appended. This is how the bench harness aggregates metrics across
    /// the many short-lived jobs one figure runs.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for fam in &other.families {
            let Some(mine) = self
                .families
                .iter_mut()
                .find(|f| f.name == fam.name && f.kind == fam.kind)
            else {
                self.families.push(fam.clone());
                continue;
            };
            for sample in &fam.samples {
                let Some(existing) = mine.samples.iter_mut().find(|s| s.labels == sample.labels)
                else {
                    mine.samples.push(sample.clone());
                    continue;
                };
                match (&mut existing.value, &sample.value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a += b,
                    (SampleValue::Gauge(a), SampleValue::Gauge(b)) => *a += b,
                    (SampleValue::Histogram(a), SampleValue::Histogram(b)) => {
                        let same_layout = a.buckets.len() == b.buckets.len()
                            && a.buckets.iter().zip(&b.buckets).all(|(x, y)| {
                                x.0 == y.0 || (x.0.is_infinite() && y.0.is_infinite())
                            });
                        if same_layout {
                            for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                                x.1 += y.1;
                            }
                            a.count += b.count;
                            a.sum += b.sum;
                        } else {
                            mine.samples.push(sample.clone());
                        }
                    }
                    // Kind mismatch within a family cannot happen for
                    // snapshots of one source; keep ours.
                    _ => {}
                }
            }
        }
    }

    /// What happened since `base`, an earlier snapshot of the same
    /// source: counters and histogram buckets/count/sum subtract, gauges
    /// keep their current value. A family or sample `base` lacks (registered
    /// since) counts from zero. The phase-delta view over counters that
    /// never reset.
    pub fn since(&self, base: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = self.clone();
        for fam in &mut out.families {
            let Some(old) = base.family(&fam.name) else {
                continue;
            };
            for sample in &mut fam.samples {
                let Some(was) = old.samples.iter().find(|s| s.labels == sample.labels) else {
                    continue;
                };
                match (&mut sample.value, &was.value) {
                    (SampleValue::Counter(a), SampleValue::Counter(b)) => *a = a.saturating_sub(*b),
                    (SampleValue::Histogram(a), SampleValue::Histogram(b)) => {
                        for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                            x.1 = x.1.saturating_sub(y.1);
                        }
                        a.count = a.count.saturating_sub(b.count);
                        a.sum -= b.sum;
                    }
                    _ => {}
                }
            }
        }
        out
    }

    /// Serialize to a stable, human-diffable JSON document.
    pub fn to_json(&self) -> String {
        Json::from(self).render()
    }

    /// Parse a document produced by [`Self::to_json`].
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let json = Json::parse(text)?;
        Self::from_json_value(&json)
    }

    fn from_json_value(json: &Json) -> Result<Self, JsonError> {
        let families = json
            .get("families")
            .and_then(Json::as_array)
            .ok_or_else(|| JsonError::new("missing \"families\" array"))?;
        let families = families
            .iter()
            .map(family_from_json)
            .collect::<Result<_, _>>()?;
        Ok(MetricsSnapshot { families })
    }
}

fn family_from_json(j: &Json) -> Result<FamilySnapshot, JsonError> {
    let name = j
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| JsonError::new("family missing \"name\""))?
        .to_string();
    let help = j
        .get("help")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let kind = FamilyKind::parse(
        j.get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| JsonError::new("family missing \"kind\""))?,
    )?;
    let samples = j
        .get("samples")
        .and_then(Json::as_array)
        .ok_or_else(|| JsonError::new("family missing \"samples\""))?
        .iter()
        .map(|s| sample_from_json(s, kind))
        .collect::<Result<_, _>>()?;
    Ok(FamilySnapshot {
        name,
        help,
        kind,
        samples,
    })
}

fn sample_from_json(j: &Json, kind: FamilyKind) -> Result<Sample, JsonError> {
    let mut labels = BTreeMap::new();
    if let Some(obj) = j.get("labels").and_then(Json::as_object) {
        for (k, v) in obj {
            let v = v
                .as_str()
                .ok_or_else(|| JsonError::new("label values must be strings"))?;
            labels.insert(k.clone(), v.to_string());
        }
    }
    let value = match kind {
        FamilyKind::Counter => SampleValue::Counter(
            j.get("value")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::new("counter sample missing \"value\""))?,
        ),
        FamilyKind::Gauge => SampleValue::Gauge(
            j.get("value")
                .and_then(Json::as_i64)
                .ok_or_else(|| JsonError::new("gauge sample missing \"value\""))?,
        ),
        FamilyKind::Histogram => {
            let count = j
                .get("count")
                .and_then(Json::as_u64)
                .ok_or_else(|| JsonError::new("histogram sample missing \"count\""))?;
            let sum = j
                .get("sum")
                .and_then(Json::as_f64)
                .ok_or_else(|| JsonError::new("histogram sample missing \"sum\""))?;
            let buckets = j
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or_else(|| JsonError::new("histogram sample missing \"buckets\""))?
                .iter()
                .map(|b| {
                    let pair = b
                        .as_array()
                        .filter(|a| a.len() == 2)
                        .ok_or_else(|| JsonError::new("bucket must be [bound, count]"))?;
                    let bound = pair[0]
                        .as_f64()
                        .or_else(|| {
                            // +Inf is not representable in JSON numbers; we
                            // write it as the string "inf".
                            pair[0]
                                .as_str()
                                .filter(|s| *s == "inf")
                                .map(|_| f64::INFINITY)
                        })
                        .ok_or_else(|| JsonError::new("bucket bound must be number or \"inf\""))?;
                    let c = pair[1]
                        .as_u64()
                        .ok_or_else(|| JsonError::new("bucket count must be u64"))?;
                    Ok((bound, c))
                })
                .collect::<Result<_, JsonError>>()?;
            SampleValue::Histogram(HistogramSnapshot {
                buckets,
                count,
                sum,
            })
        }
    };
    Ok(Sample { labels, value })
}

impl From<&MetricsSnapshot> for Json {
    fn from(snap: &MetricsSnapshot) -> Json {
        Json::object([(
            "families",
            Json::array(snap.families.iter().map(|fam| {
                Json::object([
                    ("name", Json::string(&fam.name)),
                    ("help", Json::string(&fam.help)),
                    ("kind", Json::string(fam.kind.as_str())),
                    (
                        "samples",
                        Json::array(fam.samples.iter().map(|s| {
                            let mut fields = vec![(
                                "labels",
                                Json::Object(
                                    s.labels
                                        .iter()
                                        .map(|(k, v)| (k.clone(), Json::string(v)))
                                        .collect(),
                                ),
                            )];
                            match &s.value {
                                SampleValue::Counter(v) => {
                                    fields.push(("value", Json::from(*v)));
                                }
                                SampleValue::Gauge(v) => {
                                    fields.push(("value", Json::from(*v)));
                                }
                                SampleValue::Histogram(h) => {
                                    fields.push(("count", Json::from(h.count)));
                                    fields.push(("sum", Json::from(h.sum)));
                                    fields.push((
                                        "buckets",
                                        Json::array(h.buckets.iter().map(|&(bound, c)| {
                                            let b = if bound.is_infinite() {
                                                Json::string("inf")
                                            } else {
                                                Json::from(bound)
                                            };
                                            Json::Array(vec![b, Json::from(c)])
                                        })),
                                    ));
                                }
                            }
                            Json::object(fields)
                        })),
                    ),
                ])
            })),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// A snapshot of three families: `depth` (gauge), `jobs_total`
    /// (counter, one sample per `kind`) and `latency` (a histogram over
    /// bounds 1 and 10 holding `hist`).
    fn snap_with(counts: &[(&str, u64)], depth: i64, hist: &[f64]) -> MetricsSnapshot {
        let mut buckets = vec![(1.0, 0), (10.0, 0), (f64::INFINITY, 0)];
        for &v in hist {
            buckets.iter_mut().find(|(bound, _)| v <= *bound).unwrap().1 += 1;
        }
        let family = |name: &str, help: &str, kind, samples| FamilySnapshot {
            name: name.into(),
            help: help.into(),
            kind,
            samples,
        };
        let sample = |pairs: &[(&str, &str)], value| Sample {
            labels: labels(pairs),
            value,
        };
        let mut jobs: Vec<Sample> = counts
            .iter()
            .map(|&(kind, n)| sample(&[("kind", kind)], SampleValue::Counter(n)))
            .collect();
        jobs.sort_by(|a, b| a.labels.cmp(&b.labels));
        let latency = HistogramSnapshot {
            buckets,
            count: hist.len() as u64,
            sum: hist.iter().fold(0.0, |s, v| s + v),
        };
        MetricsSnapshot {
            families: vec![
                family(
                    "depth",
                    "queue depth",
                    FamilyKind::Gauge,
                    vec![sample(&[], SampleValue::Gauge(depth))],
                ),
                family("jobs_total", "jobs seen", FamilyKind::Counter, jobs),
                family(
                    "latency",
                    "op latency",
                    FamilyKind::Histogram,
                    vec![sample(&[], SampleValue::Histogram(latency))],
                ),
            ],
        }
    }

    #[test]
    fn absorb_adds_counters_and_merges_histograms() {
        let mut a = snap_with(&[("read", 3), ("write", 1)], 0, &[0.5, 5.0]);
        let b = snap_with(&[("read", 2), ("flush", 7)], 0, &[20.0]);
        a.absorb(&b);
        assert_eq!(a.counter("jobs_total", &[("kind", "read")]), Some(5));
        assert_eq!(a.counter("jobs_total", &[("kind", "write")]), Some(1));
        assert_eq!(a.counter("jobs_total", &[("kind", "flush")]), Some(7));
        let h = a.histogram("latency", &[]).expect("merged histogram");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 25.5);
        // Bucket-wise (non-cumulative): 0.5 → ≤1, 5.0 → ≤10, 20.0 → +Inf.
        assert_eq!(
            h.buckets.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![1, 1, 1]
        );
    }

    #[test]
    fn since_subtracts_counters_and_buckets_and_keeps_gauges() {
        let base = snap_with(&[("read", 3)], 5, &[0.5, 5.0]);
        // Four more reads, a child born after the base, two observations.
        let now = snap_with(&[("read", 7), ("flush", 7)], 2, &[0.5, 5.0, 5.0, 20.0]);
        let d = now.since(&base);

        assert_eq!(d.counter("jobs_total", &[("kind", "read")]), Some(4));
        assert_eq!(d.counter("jobs_total", &[("kind", "flush")]), Some(7));
        assert_eq!(d.gauge("depth", &[]), Some(2), "gauges are not deltas");
        let h = d.histogram("latency", &[]).expect("histogram delta");
        assert_eq!((h.count, h.sum), (2, 25.0));
        assert_eq!(
            h.buckets.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            vec![0, 1, 1]
        );
        // Against an empty base everything counts from zero.
        assert_eq!(now.since(&MetricsSnapshot::default()), now);
    }

    #[test]
    fn absorb_into_empty_clones_everything() {
        let b = snap_with(&[("read", 4)], 0, &[2.0]);
        let mut a = MetricsSnapshot::default();
        a.absorb(&b);
        assert_eq!(a, b);
    }
}
