//! Byte codec between the engine's cache layers and [`gbd_store`].
//!
//! Every cache key and value serializes through the store's little-endian
//! [`ByteWriter`]/[`ByteReader`]; floats travel as raw IEEE-754 bits, so a
//! value decoded from disk is bit-identical to the one computed — the
//! warm≡cold invariant survives a round trip through the store.
//!
//! Identity: [`STORE_TAG`] names this codec (and is bumped with it), and
//! the keys themselves are the engine's in-memory cache keys re-encoded,
//! so everything that splits an in-memory cache entry — parameters by bit
//! pattern, `eps`, caps, backend, seed — splits the on-disk record too.
//! Truncated (`eps > 0`) results can therefore never shadow exact ones.
//!
//! Decoders are total: any undecodable record yields `None` and is
//! skipped at warm-start (the entry is simply recomputed), never a panic
//! or a wrong value.

use crate::request::{BackendKey, ResultKey};
use crate::{EvalOutput, GeometryKey, StageKey};
use gbd_core::ms_approach::{AnalysisResult, StageInput};
use gbd_sim::runner::SimResult;
use gbd_stats::discrete::DiscreteDist;
use gbd_stats::interval::ProportionInterval;
use gbd_stats::summary::Summary;
use gbd_store::{ByteReader, ByteWriter};

/// Identity tag of the engine's store records. Bump the suffix whenever
/// the codec in this module (or the semantics of any cached value)
/// changes incompatibly; the store then refuses old files instead of
/// serving stale bytes under new semantics.
pub(crate) const STORE_TAG: &[u8] = b"gbd-engine-cache-v3";

/// Record kind: geometry layer (`GeometryKey -> Vec<StageInput>`).
pub(crate) const KIND_GEOMETRY: u8 = 1;
/// Record kind: stage layer (`StageKey -> (DiscreteDist, f64, f64)`).
pub(crate) const KIND_STAGE: u8 = 2;
/// Record kind: result layer (`ResultKey -> EvalOutput`).
pub(crate) const KIND_RESULT: u8 = 3;

fn to_usize(v: u64) -> Option<usize> {
    usize::try_from(v).ok()
}

pub(crate) fn encode_geometry_key(key: &GeometryKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64(key.sensing_range);
    w.put_u64(key.step);
    w.put_u64(key.m_periods as u64);
    w.put_u64(key.g_eff as u64);
    w.put_u64(key.gh_eff as u64);
    w.finish()
}

pub(crate) fn decode_geometry_key(bytes: &[u8]) -> Option<GeometryKey> {
    let mut r = ByteReader::new(bytes);
    let key = GeometryKey {
        sensing_range: r.get_u64()?,
        step: r.get_u64()?,
        m_periods: to_usize(r.get_u64()?)?,
        g_eff: to_usize(r.get_u64()?)?,
        gh_eff: to_usize(r.get_u64()?)?,
    };
    r.is_empty().then_some(key)
}

pub(crate) fn encode_stage_inputs(inputs: &[StageInput]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(inputs.len() as u32);
    for input in inputs {
        w.put_f64_slice(&input.areas);
        w.put_u64(input.cap as u64);
    }
    w.finish()
}

pub(crate) fn decode_stage_inputs(bytes: &[u8]) -> Option<Vec<StageInput>> {
    let mut r = ByteReader::new(bytes);
    let count = r.get_u32()? as usize;
    let mut inputs = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        inputs.push(StageInput {
            areas: r.get_f64_slice()?,
            cap: to_usize(r.get_u64()?)?,
        });
    }
    r.is_empty().then_some(inputs)
}

pub(crate) fn encode_stage_key(key: &StageKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u64_slice(&key.areas);
    w.put_u64(key.field_area);
    w.put_u64(key.n_sensors as u64);
    w.put_u64(key.pd);
    w.put_u64(key.cap as u64);
    w.put_u64(key.eps);
    w.finish()
}

pub(crate) fn decode_stage_key(bytes: &[u8]) -> Option<StageKey> {
    let mut r = ByteReader::new(bytes);
    let key = StageKey {
        areas: r.get_u64_slice()?,
        field_area: r.get_u64()?,
        n_sensors: to_usize(r.get_u64()?)?,
        pd: r.get_u64()?,
        cap: to_usize(r.get_u64()?)?,
        eps: r.get_u64()?,
    };
    r.is_empty().then_some(key)
}

pub(crate) fn encode_stage_value(value: &(DiscreteDist, f64, f64)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_f64_slice(value.0.as_slice());
    w.put_f64(value.1);
    w.put_f64(value.2);
    w.finish()
}

pub(crate) fn decode_stage_value(bytes: &[u8]) -> Option<(DiscreteDist, f64, f64)> {
    let mut r = ByteReader::new(bytes);
    let pmf = r.get_f64_slice()?;
    let accuracy = r.get_f64()?;
    let dropped = r.get_f64()?;
    if !r.is_empty() {
        return None;
    }
    // `DiscreteDist::new` re-validates (finite, non-negative, mass bound),
    // so a bit-flipped-but-CRC-colliding value still cannot smuggle an
    // invalid distribution into the cache.
    let dist = DiscreteDist::new(pmf).ok()?;
    Some((dist, accuracy, dropped))
}

pub(crate) fn encode_result_key(key: &ResultKey) -> Vec<u8> {
    let mut w = ByteWriter::new();
    for &p in &key.params {
        w.put_u64(p);
    }
    w.put_u64(key.n_sensors as u64);
    w.put_u64(key.m_periods as u64);
    w.put_u64(key.k as u64);
    match &key.backend {
        BackendKey::Ms { g, gh, eps } => {
            w.put_u8(0);
            w.put_u64(*g as u64);
            w.put_u64(*gh as u64);
            w.put_u64(*eps);
        }
        BackendKey::S { cap } => {
            w.put_u8(1);
            w.put_u64(*cap as u64);
        }
        BackendKey::Exact { cap } => {
            w.put_u8(2);
            w.put_u64(*cap as u64);
        }
        BackendKey::T { g, gh, max_states } => {
            w.put_u8(3);
            w.put_u64(*g as u64);
            w.put_u64(*gh as u64);
            w.put_u64(*max_states as u64);
        }
        BackendKey::Poisson => w.put_u8(4),
        BackendKey::Sim {
            trials,
            seed,
            motion,
            boundary,
            false_alarm_rate,
            awake_probability,
            deployment,
        } => {
            w.put_u8(5);
            w.put_u64(*trials);
            w.put_u64(*seed);
            w.put_u8(motion.0);
            w.put_u64(motion.1);
            w.put_u64(motion.2);
            w.put_u8(*boundary);
            w.put_u64(*false_alarm_rate);
            w.put_u64(*awake_probability);
            w.put_u8(deployment.0);
            w.put_u64(deployment.1);
        }
    }
    w.finish()
}

pub(crate) fn decode_result_key(bytes: &[u8]) -> Option<ResultKey> {
    let mut r = ByteReader::new(bytes);
    let mut params = [0u64; 6];
    for p in &mut params {
        *p = r.get_u64()?;
    }
    let n_sensors = to_usize(r.get_u64()?)?;
    let m_periods = to_usize(r.get_u64()?)?;
    let k = to_usize(r.get_u64()?)?;
    let backend = match r.get_u8()? {
        0 => BackendKey::Ms {
            g: to_usize(r.get_u64()?)?,
            gh: to_usize(r.get_u64()?)?,
            eps: r.get_u64()?,
        },
        1 => BackendKey::S {
            cap: to_usize(r.get_u64()?)?,
        },
        2 => BackendKey::Exact {
            cap: to_usize(r.get_u64()?)?,
        },
        3 => BackendKey::T {
            g: to_usize(r.get_u64()?)?,
            gh: to_usize(r.get_u64()?)?,
            max_states: to_usize(r.get_u64()?)?,
        },
        4 => BackendKey::Poisson,
        5 => BackendKey::Sim {
            trials: r.get_u64()?,
            seed: r.get_u64()?,
            motion: (r.get_u8()?, r.get_u64()?, r.get_u64()?),
            boundary: r.get_u8()?,
            false_alarm_rate: r.get_u64()?,
            awake_probability: r.get_u64()?,
            deployment: (r.get_u8()?, r.get_u64()?),
        },
        _ => return None,
    };
    let key = ResultKey {
        params,
        n_sensors,
        m_periods,
        k,
        backend,
    };
    r.is_empty().then_some(key)
}

fn put_summary(w: &mut ByteWriter, s: &Summary) {
    let (count, mean, m2, min, max) = s.raw_parts();
    w.put_u64(count);
    w.put_f64(mean);
    w.put_f64(m2);
    w.put_f64(min);
    w.put_f64(max);
}

fn get_summary(r: &mut ByteReader<'_>) -> Option<Summary> {
    Some(Summary::from_raw_parts(
        r.get_u64()?,
        r.get_f64()?,
        r.get_f64()?,
        r.get_f64()?,
        r.get_f64()?,
    ))
}

pub(crate) fn encode_output(output: &EvalOutput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match output {
        EvalOutput::Analysis(result) => {
            w.put_u8(0);
            w.put_f64_slice(result.raw_distribution().as_slice());
            w.put_f64(result.predicted_accuracy());
            w.put_f64(result.truncation_error());
        }
        EvalOutput::Simulation(result) => {
            w.put_u8(1);
            w.put_u64(result.trials);
            w.put_u64(result.detections);
            w.put_f64(result.detection_probability);
            w.put_f64(result.confidence.estimate);
            w.put_f64(result.confidence.lo);
            w.put_f64(result.confidence.hi);
            put_summary(&mut w, &result.report_counts);
            put_summary(&mut w, &result.false_alarm_counts);
            put_summary(&mut w, &result.dropped_report_counts);
        }
    }
    w.finish()
}

pub(crate) fn decode_output(bytes: &[u8]) -> Option<EvalOutput> {
    let mut r = ByteReader::new(bytes);
    let output = match r.get_u8()? {
        0 => {
            let pmf = r.get_f64_slice()?;
            let accuracy = r.get_f64()?;
            let truncation = r.get_f64()?;
            let raw = DiscreteDist::new(pmf).ok()?;
            EvalOutput::Analysis(AnalysisResult::from_parts(raw, accuracy, truncation))
        }
        1 => EvalOutput::Simulation(SimResult {
            trials: r.get_u64()?,
            detections: r.get_u64()?,
            detection_probability: r.get_f64()?,
            confidence: ProportionInterval {
                estimate: r.get_f64()?,
                lo: r.get_f64()?,
                hi: r.get_f64()?,
            },
            report_counts: get_summary(&mut r)?,
            false_alarm_counts: get_summary(&mut r)?,
            dropped_report_counts: get_summary(&mut r)?,
        }),
        _ => return None,
    };
    r.is_empty().then_some(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::result_key;
    use crate::{geometry_key, BackendSpec, SimulationSpec};
    use gbd_core::ms_approach::{self, MsOptions};
    use gbd_core::params::SystemParams;

    fn assert_output_bits(a: &EvalOutput, b: &EvalOutput) {
        match (a, b) {
            (EvalOutput::Analysis(x), EvalOutput::Analysis(y)) => {
                let (xs, ys) = (
                    x.raw_distribution().as_slice(),
                    y.raw_distribution().as_slice(),
                );
                assert_eq!(xs.len(), ys.len());
                for (p, q) in xs.iter().zip(ys) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
                assert_eq!(
                    x.predicted_accuracy().to_bits(),
                    y.predicted_accuracy().to_bits()
                );
                assert_eq!(
                    x.truncation_error().to_bits(),
                    y.truncation_error().to_bits()
                );
            }
            (EvalOutput::Simulation(x), EvalOutput::Simulation(y)) => {
                assert_eq!(x, y);
                assert_eq!(
                    x.report_counts.raw_parts().2.to_bits(),
                    y.report_counts.raw_parts().2.to_bits()
                );
            }
            _ => panic!("variant changed across the round trip"),
        }
    }

    #[test]
    fn geometry_round_trips() {
        let params = SystemParams::paper_defaults().with_n_sensors(90);
        let opts = MsOptions::default();
        let key = geometry_key(&params, &opts);
        assert_eq!(
            decode_geometry_key(&encode_geometry_key(&key)).as_ref(),
            Some(&key)
        );
        let steps = vec![params.step(); params.m_periods()];
        let inputs =
            ms_approach::stage_inputs(params.sensing_range(), &steps, 90, &opts).unwrap();
        let decoded = decode_stage_inputs(&encode_stage_inputs(&inputs)).unwrap();
        assert_eq!(decoded.len(), inputs.len());
        for (a, b) in inputs.iter().zip(&decoded) {
            assert_eq!(a.cap, b.cap);
            assert_eq!(a.areas.len(), b.areas.len());
            for (x, y) in a.areas.iter().zip(&b.areas) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn result_keys_round_trip_for_every_backend() {
        let params = SystemParams::paper_defaults();
        let backends = [
            BackendSpec::ms_default(),
            BackendSpec::S(gbd_core::s_approach::SOptions::default()),
            BackendSpec::Exact { saturation_cap: 16 },
            BackendSpec::T {
                opts: MsOptions::default(),
                max_states: 5000,
            },
            BackendSpec::Poisson,
            BackendSpec::Simulation(SimulationSpec {
                trials: 100,
                seed: 7,
                ..SimulationSpec::default()
            }),
        ];
        for backend in &backends {
            let key = result_key(&params, backend);
            assert_eq!(
                decode_result_key(&encode_result_key(&key)).as_ref(),
                Some(&key),
                "{}",
                backend.name()
            );
        }
    }

    #[test]
    fn outputs_round_trip_bit_identically() {
        let params = SystemParams::paper_defaults().with_n_sensors(60);
        let analysis =
            EvalOutput::Analysis(ms_approach::analyze(&params, &MsOptions::default()).unwrap());
        assert_output_bits(
            &analysis,
            &decode_output(&encode_output(&analysis)).unwrap(),
        );

        let sim = EvalOutput::Simulation(gbd_sim::runner::run(
            &SimulationSpec {
                trials: 50,
                seed: 3,
                threads: 1,
                ..SimulationSpec::default()
            }
            .to_config(params)
            .unwrap(),
        ));
        assert_output_bits(&sim, &decode_output(&encode_output(&sim)).unwrap());
    }

    #[test]
    fn truncated_and_garbage_bytes_decode_to_none() {
        let params = SystemParams::paper_defaults();
        let key_bytes = encode_result_key(&result_key(&params, &BackendSpec::ms_default()));
        for cut in 0..key_bytes.len() {
            assert!(decode_result_key(&key_bytes[..cut]).is_none(), "cut={cut}");
        }
        let mut extended = key_bytes;
        extended.push(0);
        assert!(
            decode_result_key(&extended).is_none(),
            "trailing bytes must be rejected"
        );
        assert!(decode_output(&[9, 9, 9]).is_none());
        assert!(decode_stage_value(&[]).is_none());
        assert!(decode_geometry_key(b"short").is_none());
    }
}
