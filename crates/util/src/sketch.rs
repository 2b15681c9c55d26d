//! Bounded-memory, mergeable streaming aggregates for metric series.
//!
//! The experiment drivers sweep hundreds of snapshots and record
//! thousands of per-pair samples at each one; materializing every sample
//! before aggregating makes a run's memory O(snapshots × pairs). This
//! module provides the fixed-size state those loops accumulate into
//! instead:
//!
//! * [`QuantileSketch`] — a log-bucket quantile sketch over non-negative
//!   `f64` samples. Bucket boundaries come straight from the IEEE-754
//!   bit pattern (32 linear subbuckets per power of two), so indexing is
//!   a shift — no `log` calls — and fully deterministic. Any quantile is
//!   answered within a **relative value error of at most 1/64**
//!   ([`QuantileSketch::RELATIVE_ERROR`]) for samples in the trackable
//!   range `[2⁻⁶⁴, 2⁶⁴)`; smaller samples collapse into an underflow
//!   bucket whose representative is exact to within `2⁻⁶⁴` absolute.
//! * [`FixedSum`] — an exactly-associative fixed-point accumulator for
//!   `f64` sums. Merging partial sums is integer addition, so a sum
//!   chunked across worker threads is bit-identical for every thread
//!   count — the property the sweep-fold drivers rely on.
//!
//! Both types merge: `merge(a, merge(b, c)) == merge(merge(a, b), c)`
//! **exactly** (bucket counts, count, min, max, and the fixed-point sum
//! are all integers or exact folds), which is what lets
//! `StudyContext::sweep_fold` split a time series into per-thread chunks
//! without changing any output bit. The property suite in
//! `crates/util/tests/sketch_proptests.rs` pins both guarantees.
//!
//! Serialized form (the `series` telemetry event inlines it):
//! `"count":N,"low":N,"sum":S,"min":M,"max":X,"sub":32,"buckets":[[k,c],…]`
//! where `k` is the bucket index and `c` its occupancy; only non-empty
//! buckets are listed, so a snapshot with `s` distinct sample magnitudes
//! costs O(min(s, 4096)) bytes.

use crate::telemetry::Json;

/// log₂ of the number of linear subbuckets per octave (power of two).
const SUB_BITS: u32 = 5;
/// Linear subbuckets per octave.
pub const SUBBUCKETS: usize = 1 << SUB_BITS;
/// Smallest exponent tracked: values below `2^MIN_EXP` collapse into the
/// underflow (`low`) bucket.
const MIN_EXP: i32 = -64;
/// Number of octaves tracked: `[2^-64, 2^64)`.
const OCTAVES: usize = 128;
/// Total bucket count (128 octaves × 32 subbuckets).
pub const NUM_BUCKETS: usize = OCTAVES * SUBBUCKETS;
/// Biased-exponent offset of bucket 0 in the `f64` bit pattern.
const BIAS_OFFSET: u64 = ((1023 + MIN_EXP as i64) as u64) << SUB_BITS;

/// Smallest trackable sample; anything below lands in the underflow
/// bucket.
pub const MIN_TRACKABLE: f64 = 5.421010862427522e-20; // 2^-64

/// Bucket index of a finite sample `v ≥ MIN_TRACKABLE`.
///
/// The top 12 + [`SUB_BITS`] bits of the IEEE-754 pattern (sign 0,
/// 11-bit exponent, top 5 mantissa bits) increase monotonically with the
/// value, so the index is one shift and one subtract. Values at or above
/// `2^64` clamp into the last bucket (their exact `max` is tracked
/// separately, and quantiles clamp to it).
#[inline]
fn bucket_of(v: f64) -> usize {
    let top = v.to_bits() >> (52 - SUB_BITS);
    let idx = top.saturating_sub(BIAS_OFFSET) as usize;
    idx.min(NUM_BUCKETS - 1)
}

/// Midpoint representative of bucket `k`: `2^e · (1 + (j + ½)/32)` for
/// `e = k/32 − 64`, `j = k mod 32`. Constructed from bits (no `exp2`),
/// so it is deterministic across platforms.
fn bucket_mid(k: usize) -> f64 {
    let e = (k >> SUB_BITS) as i64 + 1023 + MIN_EXP as i64;
    let pow = f64::from_bits((e as u64) << 52);
    pow * (1.0 + ((k & (SUBBUCKETS - 1)) as f64 + 0.5) / SUBBUCKETS as f64)
}

/// Exclusive upper bound of bucket `k` (the value where the next bucket
/// starts).
fn bucket_hi(k: usize) -> f64 {
    let e = (k >> SUB_BITS) as i64 + 1023 + MIN_EXP as i64;
    let pow = f64::from_bits((e as u64) << 52);
    pow * (1.0 + ((k & (SUBBUCKETS - 1)) as f64 + 1.0) / SUBBUCKETS as f64)
}

// ---------------------------------------------------------------------------
// FixedSum

/// Binary point of the fixed-point accumulator: sums carry `2⁻⁷⁵`
/// resolution.
const FIX_FRAC_BITS: i32 = 75;
/// `2⁻⁷⁵` as an `f64` (exact power of two: multiplying by it only
/// rescales the exponent).
const FIX_SCALE_INV: f64 = 2.6469779601696886e-23;

/// An exactly-associative streaming sum of `f64` samples.
///
/// Each sample is truncated onto a `2⁻⁷⁵` fixed-point grid and
/// accumulated in an `i128`, so addition order — and therefore thread
/// count and chunk boundaries — cannot change the result by even one
/// bit. The truncation error is at most `2⁻⁷⁵` per sample (zero for
/// samples whose lowest mantissa bit is ≥ `2⁻⁷⁵`, i.e. all values ≥
/// ~`2⁻²³`), and the capacity is ±`2⁵¹` in value units before
/// saturation — far beyond any metric this workspace sums.
///
/// Non-finite samples are ignored (mirroring how the exact pipeline
/// drops NaNs before aggregating).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedSum {
    acc: i128,
}

impl FixedSum {
    /// An empty (zero) sum.
    pub const fn new() -> FixedSum {
        FixedSum { acc: 0 }
    }

    /// Add one sample (non-finite samples are ignored).
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.acc = self.acc.saturating_add(to_fixed(v));
    }

    /// Fold another sum in. Integer addition: exact, associative,
    /// commutative.
    pub fn merge(&mut self, other: &FixedSum) {
        self.acc = self.acc.saturating_add(other.acc);
    }

    /// The accumulated sum, rounded once to `f64`.
    pub fn value(&self) -> f64 {
        (self.acc as f64) * FIX_SCALE_INV
    }

    /// True when nothing (or only zeros) has been added.
    pub fn is_zero(&self) -> bool {
        self.acc == 0
    }

    /// The raw fixed-point accumulator (grid units of `2⁻⁷⁵`).
    ///
    /// This is the *lossless* form: [`FixedSum::value`] rounds the
    /// accumulator once to `f64`, which can drop low-order grid units
    /// for large sums. Serializers that need bit-exact round-trips
    /// (the `fsum` field of `series` events) persist this integer
    /// instead.
    pub fn raw(&self) -> i128 {
        self.acc
    }

    /// Rebuild a sum from its raw accumulator (inverse of
    /// [`FixedSum::raw`]). Exact: no rounding anywhere.
    pub const fn from_raw(acc: i128) -> FixedSum {
        FixedSum { acc }
    }
}

/// `v` on the `2⁻⁷⁵` grid (truncated toward zero). Non-finite → 0.
#[inline]
fn to_fixed(v: f64) -> i128 {
    if !v.is_finite() {
        return 0;
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        // Subnormal: |v| < 2^-1022, far below the grid.
        return 0;
    }
    let mant = ((bits & ((1u64 << 52) - 1)) | (1u64 << 52)) as i128;
    // v = mant · 2^(exp − 1075); scaled = v · 2^75 = mant · 2^shift.
    let shift = exp - 1075 + FIX_FRAC_BITS;
    let mag = if shift >= 0 {
        if shift > 74 {
            // |v| ≥ 2^51: saturate (no workspace metric sums get here).
            i128::MAX
        } else {
            mant << shift
        }
    } else if shift < -53 {
        0
    } else {
        mant >> (-shift)
    };
    if bits >> 63 == 1 {
        -mag
    } else {
        mag
    }
}

// ---------------------------------------------------------------------------
// QuantileSketch

/// A fixed-size, exactly-mergeable log-bucket quantile sketch.
///
/// Designed for the workspace's non-negative metric streams (RTT ms,
/// attenuation dB, Gbps, fractions). Memory is O(1) in the sample count:
/// 4096 `u64` buckets (lazily allocated on the first trackable sample)
/// plus scalar count/sum/min/max state.
///
/// * Non-finite samples are dropped (NaN mirrors
///   `Distribution::from_samples`; infinities have no JSON form).
/// * Samples below [`MIN_TRACKABLE`] (including zero and any negatives)
///   collapse into an underflow count; quantiles falling there report
///   the exact minimum.
/// * Quantile answers are bucket midpoints clamped to the exact
///   `[min, max]`, so the relative value error is at most
///   [`QuantileSketch::RELATIVE_ERROR`] in the trackable range.
#[derive(Debug, Clone, Default)]
pub struct QuantileSketch {
    count: u64,
    low: u64,
    sum: FixedSum,
    min: f64,
    max: f64,
    /// Empty until the first trackable sample; then `NUM_BUCKETS` long.
    buckets: Vec<u64>,
}

impl QuantileSketch {
    /// Documented error bound: any quantile of trackable samples is
    /// within `true_value · RELATIVE_ERROR` of the corresponding exact
    /// order statistic's bucket (half a subbucket's relative width).
    pub const RELATIVE_ERROR: f64 = 1.0 / 64.0;

    /// An empty sketch.
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            count: 0,
            low: 0,
            sum: FixedSum::new(),
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            buckets: Vec::new(),
        }
    }

    /// Record one sample (non-finite samples are dropped: NaN mirrors
    /// `Distribution::from_samples`, and ±∞ would break the JSON
    /// serialization of `min`/`max`).
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        self.count += 1;
        self.sum.add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < MIN_TRACKABLE {
            self.low += 1;
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0u64; NUM_BUCKETS];
        }
        self.buckets[bucket_of(v)] += 1;
    }

    /// Fold `other` in. Exact and associative: bucket counts, counts,
    /// and the fixed-point sum add; min/max fold.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.low += other.low;
        self.sum.merge(&other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if !other.buckets.is_empty() {
            if self.buckets.is_empty() {
                self.buckets = other.buckets.clone();
            } else {
                for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                    *a += *b;
                }
            }
        }
    }

    /// Samples recorded (excluding dropped NaNs).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Samples that fell below [`MIN_TRACKABLE`].
    pub fn low_count(&self) -> u64 {
        self.low
    }

    /// Sum of samples (deterministic under any merge order).
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Exact minimum (NaN when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Exact maximum (NaN when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Arithmetic mean (NaN when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum() / self.count as f64
        }
    }

    /// The sample at quantile `q ∈ [0, 1]`, within the documented error
    /// bound. NaN when empty. The boundary quantiles are exact: `q = 0`
    /// returns the tracked minimum and `q = 1` the tracked maximum
    /// (never a bucket representative), so `quantile(0.0)` /
    /// `quantile(1.0)` agree bitwise with [`QuantileSketch::min`] /
    /// [`QuantileSketch::max`] — including single-sample and
    /// all-equal-sample sketches.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        if target <= self.low {
            return self.min;
        }
        let mut cum = self.low;
        for (k, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_mid(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// [`QuantileSketch::quantile`] with `p ∈ [0, 100]`, mirroring
    /// `Distribution::percentile`.
    pub fn percentile(&self, p: f64) -> f64 {
        self.quantile(p / 100.0)
    }

    /// CDF points `(value, fraction ≤ value)`, decimated to at most
    /// `max_points` (the last point always closes at 1.0). Values are
    /// bucket upper bounds clamped to the exact max, so each point's
    /// fraction is exact and its value is within the bucket-width bound.
    pub fn cdf_points(&self, max_points: usize) -> Vec<(f64, f64)> {
        if self.count == 0 || max_points == 0 {
            return Vec::new();
        }
        let mut pts = Vec::new();
        let mut cum = 0u64;
        if self.low > 0 {
            cum = self.low;
            pts.push((self.min, cum as f64 / self.count as f64));
        }
        for (k, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            pts.push((bucket_hi(k).min(self.max), cum as f64 / self.count as f64));
        }
        if pts.len() <= max_points {
            return pts;
        }
        // Decimate, always keeping the final (fraction 1.0) point.
        let step = pts.len() as f64 / max_points as f64;
        let mut out = Vec::with_capacity(max_points + 1);
        let mut i = 0.0;
        while (i as usize) < pts.len() {
            out.push(pts[i as usize]);
            i += step;
        }
        let last = pts[pts.len() - 1];
        if out.last() != Some(&last) {
            out.push(last);
        }
        out
    }

    /// Non-empty buckets as `(index, occupancy)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(k, &c)| (c > 0).then_some((k, c)))
            .collect()
    }

    /// Serialize as a JSON object *fragment* (no surrounding braces):
    /// the `series` telemetry event embeds this inline.
    pub fn to_json_fragment(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|&(k, c)| format!("[{k},{c}]"))
            .collect();
        let (min, max) = if self.count == 0 {
            (0.0, 0.0)
        } else {
            (self.min, self.max)
        };
        format!(
            "\"count\":{},\"low\":{},\"sum\":{},\"fsum\":\"{}\",\"min\":{},\"max\":{},\"sub\":{},\"buckets\":[{}]",
            self.count,
            self.low,
            self.sum(),
            self.sum.raw(),
            min,
            max,
            SUBBUCKETS,
            buckets.join(",")
        )
    }

    /// Rebuild a sketch from a parsed `series` event object (the inverse
    /// of [`QuantileSketch::to_json_fragment`]). The rebuilt sketch
    /// merges and answers quantiles exactly like the original; only the
    /// fixed-point sub-`2⁻⁷⁵` residue of `sum` is lost to the decimal
    /// round-trip.
    pub fn from_json(v: &Json) -> Result<QuantileSketch, String> {
        let num = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("sketch: missing number field `{key}`"))
        };
        let sub = num("sub")? as usize;
        if sub != SUBBUCKETS {
            return Err(format!(
                "sketch: resolution {sub} subbuckets, this build expects {SUBBUCKETS}"
            ));
        }
        let count = num("count")? as u64;
        let low = num("low")? as u64;
        let mut s = QuantileSketch::new();
        s.count = count;
        s.low = low;
        // Prefer the exact fixed-point accumulator (`fsum`): re-fixing
        // the rounded decimal `sum` of several partial sketches can
        // disagree with the single-stream accumulator in the last grid
        // units, and `leo-report`'s roll-up of a run's per-snapshot
        // `series` events must be bit-exact. Older logs without `fsum`
        // fall back to the decimal field.
        s.sum = match v.get("fsum").and_then(Json::as_str) {
            Some(raw) => FixedSum::from_raw(
                raw.parse::<i128>()
                    .map_err(|_| format!("sketch: malformed fsum `{raw}`"))?,
            ),
            None => {
                let mut sum = FixedSum::new();
                sum.add(num("sum")?);
                sum
            }
        };
        if count > 0 {
            s.min = num("min")?;
            s.max = num("max")?;
        }
        let Some(Json::Arr(pairs)) = v.get("buckets") else {
            return Err("sketch: missing array field `buckets`".into());
        };
        if !pairs.is_empty() {
            s.buckets = vec![0u64; NUM_BUCKETS];
            for p in pairs {
                let Json::Arr(kc) = p else {
                    return Err("sketch: bucket entry is not a [k,c] pair".into());
                };
                let (Some(k), Some(c)) = (
                    kc.first().and_then(Json::as_num),
                    kc.get(1).and_then(Json::as_num),
                ) else {
                    return Err("sketch: bucket entry is not a [k,c] pair".into());
                };
                let k = k as usize;
                if k >= NUM_BUCKETS {
                    return Err(format!("sketch: bucket index {k} out of range"));
                }
                s.buckets[k] += c as u64;
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_in_range() {
        let vals = [
            MIN_TRACKABLE,
            1e-12,
            0.001,
            0.5,
            1.0,
            1.03,
            2.0,
            3.7,
            1e6,
            1e18,
        ];
        let mut last = 0usize;
        for (i, &v) in vals.iter().enumerate() {
            let k = bucket_of(v);
            assert!(k < NUM_BUCKETS, "{v} -> {k}");
            if i > 0 {
                assert!(k >= last, "bucket index must be monotone in value");
            }
            last = k;
            // The bucket's own bounds contain the value.
            assert!(v < bucket_hi(k) || v >= bucket_hi(NUM_BUCKETS - 1));
            assert!(bucket_mid(k) < bucket_hi(k));
        }
        assert_eq!(bucket_of(MIN_TRACKABLE), 0);
        assert_eq!(bucket_of(1.0), 64 * SUBBUCKETS);
    }

    #[test]
    fn quantiles_within_documented_bound() {
        let mut s = QuantileSketch::new();
        let mut exact: Vec<f64> = Vec::new();
        for i in 0..10_000u32 {
            // A spread of magnitudes: 0.01 .. ~1e3.
            let v = 0.01 * (1.0 + (i as f64 % 997.0)) * (1.0 + (i as f64 / 5000.0));
            s.record(v);
            exact.push(v);
        }
        exact.sort_by(f64::total_cmp);
        for &q in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = s.quantile(q);
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1) - 1;
            let truth = exact[rank];
            assert!(
                (est - truth).abs() <= truth * QuantileSketch::RELATIVE_ERROR,
                "q={q}: est {est} vs exact {truth}"
            );
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.min(), exact[0]);
        assert_eq!(s.max(), exact[exact.len() - 1]);
        let exact_sum: f64 = exact.iter().sum();
        assert!((s.sum() - exact_sum).abs() <= exact_sum * 1e-12);
    }

    #[test]
    fn zeros_and_tiny_values_collapse_to_underflow() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(1e-30);
        s.record(2.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.low_count(), 2);
        assert_eq!(s.min(), 0.0);
        // q targeting the underflow region reports the exact min.
        assert_eq!(s.quantile(0.3), 0.0);
        assert!((s.quantile(1.0) - 2.0).abs() <= 2.0 * QuantileSketch::RELATIVE_ERROR);
    }

    #[test]
    fn nan_dropped_empty_is_nan() {
        let mut s = QuantileSketch::new();
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        s.record(f64::NEG_INFINITY);
        assert!(s.is_empty());
        assert!(s.quantile(0.5).is_nan());
        assert!(s.min().is_nan() && s.max().is_nan() && s.mean().is_nan());
        assert!(s.cdf_points(10).is_empty());
    }

    #[test]
    fn merge_matches_single_stream() {
        let vals: Vec<f64> = (1..500).map(|i| (i as f64) * 0.37).collect();
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.sum().to_bits(), whole.sum().to_bits());
        assert_eq!(a.nonzero_buckets(), whole.nonzero_buckets());
    }

    #[test]
    fn cdf_points_monotone_and_close_at_one() {
        let mut s = QuantileSketch::new();
        for i in 0..1000u32 {
            s.record(1.0 + (i as f64 * 37.0) % 101.0);
        }
        let pts = s.cdf_points(20);
        assert!(pts.len() <= 21);
        for w in pts.windows(2) {
            assert!(w[1].0 >= w[0].0, "values monotone: {pts:?}");
            assert!(w[1].1 >= w[0].1, "fractions monotone");
        }
        // lint: allow(float-fastmath) the closing CDF fraction is exactly count/count == 1.0 by construction
        assert!(pts.last().is_some_and(|&(v, f)| f == 1.0 && v == s.max()));
    }

    #[test]
    fn json_roundtrip_preserves_quantiles() {
        let mut s = QuantileSketch::new();
        for i in 0..300u32 {
            s.record(0.25 + i as f64 * 1.5);
        }
        s.record(0.0);
        let text = format!("{{{}}}", s.to_json_fragment());
        let back = QuantileSketch::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.count(), s.count());
        assert_eq!(back.low_count(), s.low_count());
        assert_eq!(back.min().to_bits(), s.min().to_bits());
        assert_eq!(back.max().to_bits(), s.max().to_bits());
        assert_eq!(back.nonzero_buckets(), s.nonzero_buckets());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(back.quantile(q).to_bits(), s.quantile(q).to_bits());
        }
        // Display round-trips f64 exactly, so even the sum survives.
        assert_eq!(back.sum().to_bits(), s.sum().to_bits());
    }

    #[test]
    fn fixed_sum_is_order_independent() {
        let vals: Vec<f64> = (0..2000).map(|i| 0.001 + (i as f64) * 0.013).collect();
        let mut fwd = FixedSum::new();
        for &v in &vals {
            fwd.add(v);
        }
        let mut rev = FixedSum::new();
        for &v in vals.iter().rev() {
            rev.add(v);
        }
        // Chunked merge in a third order.
        let mut chunks = FixedSum::new();
        for chunk in vals.chunks(7) {
            let mut part = FixedSum::new();
            for &v in chunk {
                part.add(v);
            }
            chunks.merge(&part);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd, chunks);
        let exact: f64 = vals.iter().sum();
        assert!((fwd.value() - exact).abs() <= exact.abs() * 1e-12);
    }

    #[test]
    fn json_fsum_restores_exact_accumulator() {
        // Large accumulators lose sub-grid residue through the decimal
        // `sum` field; the `fsum` string must restore them bit-exactly
        // so merges of partial sketches stay associative.
        let mut s = QuantileSketch::new();
        for i in 0..5000u32 {
            s.record(1e9 + i as f64 * 0.0137);
        }
        let text = format!("{{{}}}", s.to_json_fragment());
        let back = QuantileSketch::from_json(&Json::parse(&text).unwrap()).unwrap();
        // The fragment carries the exact `fsum`, so equal text means an
        // equal accumulator.
        assert_eq!(back.to_json_fragment(), s.to_json_fragment());
        // The legacy path (no fsum) still parses, with decimal fidelity.
        let fsum = format!("\"{}\"", s.sum.raw());
        let legacy = text.replacen(&format!(",\"fsum\":{fsum}"), "", 1);
        assert_ne!(legacy, text);
        let old = QuantileSketch::from_json(&Json::parse(&legacy).unwrap()).unwrap();
        assert_eq!(old.count(), s.count());
        // A malformed fsum is a hard error, not a silent fallback.
        let bad = text.replacen(&fsum, "\"12x\"", 1);
        assert!(QuantileSketch::from_json(&Json::parse(&bad).unwrap()).is_err());
    }

    #[test]
    fn fixed_sum_raw_roundtrip_is_exact() {
        let mut s = FixedSum::new();
        s.add(1.0e12);
        s.add(-0.625);
        s.add(3.0e-20);
        let back = FixedSum::from_raw(s.raw());
        assert_eq!(back, s);
        assert_eq!(back.value().to_bits(), s.value().to_bits());
    }

    #[test]
    fn fixed_sum_handles_signs_and_ignores_non_finite() {
        let mut s = FixedSum::new();
        s.add(5.0);
        s.add(-3.0);
        s.add(f64::NAN);
        s.add(f64::INFINITY);
        assert_eq!(s.value(), 2.0);
        assert!(!s.is_zero());
    }
}
