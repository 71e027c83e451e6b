//! Staleness-fair reweighting (FedStaleWeight-style) as a [`ServerPolicy`].
//!
//! This policy exists as the proof of the engine/policy seam: it was added
//! without touching the event loop or the checkpoint framing — one struct
//! here, one [`crate::Algorithm`] variant, nothing else (DESIGN.md §8).
//! It is the one policy whose variant does not wrap its struct:
//! `Algorithm::FedStale` holds only the parameters, and
//! [`build_policy`](crate::build_policy) adds the per-client running means,
//! sized by the config's `num_clients`.

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use crate::policy::{mix, Admission, ServerPolicy};
use crate::update::ModelUpdate;

/// Buffered semi-asynchronous aggregation that weights each update by
/// `num_samples · (mean staleness + 1)`, where the mean is a per-client
/// running average of the staleness the server has observed from that
/// client. Chronically slow devices get *boosted* so their data is not
/// under-represented in the global model — the opposite bias correction to
/// SEAFL's Eq. 4 damping (which trusts stale gradients less), in the spirit
/// of FedStaleWeight's staleness-aware fair aggregation.
pub(crate) struct FedStaleWeightPolicy {
    /// Devices kept training concurrently (M).
    pub(crate) concurrency: usize,
    /// Buffered updates per aggregation (K).
    pub(crate) buffer_k: usize,
    /// Server mixing coefficient ϑ (Eq. 8-style).
    pub(crate) theta: f32,
    /// Updates observed per client (running-mean denominator).
    obs: Vec<u64>,
    /// Running mean of each client's observed staleness.
    mean_staleness: Vec<f32>,
}

impl FedStaleWeightPolicy {
    /// Fresh policy with zeroed per-client staleness statistics.
    pub(crate) fn new(concurrency: usize, buffer_k: usize, theta: f32, num_clients: usize) -> Self {
        FedStaleWeightPolicy {
            concurrency,
            buffer_k,
            theta,
            obs: vec![0; num_clients],
            mean_staleness: vec![0.0; num_clients],
        }
    }

    /// The fairness boost for one update: its client's mean observed
    /// staleness plus one (so never-stale clients keep weight ∝ samples).
    fn boost(&self, client: usize) -> f32 {
        self.mean_staleness[client] + 1.0
    }
}

impl ServerPolicy for FedStaleWeightPolicy {
    fn name(&self) -> &'static str {
        "fedstale"
    }

    fn concurrency(&self) -> usize {
        self.concurrency
    }

    fn buffer_k(&self) -> usize {
        self.buffer_k
    }

    fn on_update_received(&mut self, update: &ModelUpdate, round: u64) -> Admission {
        // Fold this arrival's staleness into the client's running mean.
        let c = update.client_id;
        let s = update.staleness(round) as f32;
        self.obs[c] += 1;
        self.mean_staleness[c] += (s - self.mean_staleness[c]) / self.obs[c] as f32;
        Admission::Admit
    }

    fn weights_for_buffer(
        &self,
        updates: &[ModelUpdate],
        _global: &[f32],
        _round: u64,
    ) -> Vec<f32> {
        let raw: Vec<f32> =
            updates.iter().map(|u| u.num_samples as f32 * self.boost(u.client_id)).collect();
        let total: f32 = raw.iter().sum();
        if !(total.is_finite() && total > 0.0) {
            // Degenerate buffer (e.g. sample-free updates in property
            // tests): fall back to uniform weights.
            return vec![1.0 / updates.len() as f32; updates.len()];
        }
        raw.into_iter().map(|w| w / total).collect()
    }

    fn mix_into_global(&self, global: &[f32], avg: &[f32]) -> Vec<f32> {
        mix(global, avg, self.theta)
    }

    fn encode_state(&self, w: &mut BinWriter) {
        // The running means are cumulative over the whole run — a resumed
        // run must weight exactly as the uninterrupted one would.
        w.vec_u64(&self.obs);
        w.vec_f32(&self.mean_staleness);
    }

    fn decode_state(&mut self, r: &mut BinReader) -> Result<(), CodecError> {
        let obs = r.vec_u64()?;
        let mean = r.vec_f32()?;
        if obs.len() != self.obs.len() || mean.len() != self.mean_staleness.len() {
            return Err(CodecError(format!(
                "fedstale: {}/{} staleness stats for {} clients",
                obs.len(),
                mean.len(),
                self.obs.len()
            )));
        }
        self.obs = obs;
        self.mean_staleness = mean;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, born: u64, samples: usize, params: Vec<f32>) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            params,
            num_samples: samples,
            born_round: born,
            epochs_completed: 5,
            train_loss: 0.0,
        }
    }

    #[test]
    fn running_mean_tracks_observed_staleness() {
        let mut p = FedStaleWeightPolicy::new(10, 2, 0.8, 4);
        // Client 0 arrives with staleness 4 then 2 → mean 3.
        assert_eq!(p.on_update_received(&upd(0, 1, 10, vec![1.0]), 5), Admission::Admit);
        p.on_update_received(&upd(0, 3, 10, vec![1.0]), 5);
        assert!((p.mean_staleness[0] - 3.0).abs() < 1e-6);
        assert_eq!(p.obs[0], 2);
        assert_eq!(p.obs[1], 0);
    }

    #[test]
    fn chronically_stale_client_gets_boosted() {
        let mut p = FedStaleWeightPolicy::new(10, 2, 0.8, 2);
        // Client 1 has been consistently stale (mean 4), client 0 fresh.
        p.on_update_received(&upd(0, 5, 10, vec![1.0]), 5);
        p.on_update_received(&upd(1, 1, 10, vec![1.0]), 5);
        let updates = vec![upd(0, 5, 10, vec![1.0]), upd(1, 1, 10, vec![-1.0])];
        let w = p.weights_for_buffer(&updates, &[0.0], 5);
        // Equal samples: weights ∝ (0+1) vs (4+1).
        assert!((w[0] - 1.0 / 6.0).abs() < 1e-6, "{w:?}");
        assert!((w[1] - 5.0 / 6.0).abs() < 1e-6, "{w:?}");
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn state_roundtrips_through_codec() {
        let mut p = FedStaleWeightPolicy::new(10, 2, 0.8, 3);
        p.on_update_received(&upd(2, 0, 10, vec![1.0]), 7);
        let mut w = BinWriter::new();
        p.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FedStaleWeightPolicy::new(10, 2, 0.8, 3);
        let mut r = BinReader::new(&bytes);
        restored.decode_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.obs, p.obs);
        assert_eq!(restored.mean_staleness, p.mean_staleness);
    }

    #[test]
    fn wrong_client_count_is_a_decode_error() {
        let p = FedStaleWeightPolicy::new(10, 2, 0.8, 3);
        let mut w = BinWriter::new();
        p.encode_state(&mut w);
        let bytes = w.into_bytes();
        let mut restored = FedStaleWeightPolicy::new(10, 2, 0.8, 5);
        assert!(restored.decode_state(&mut BinReader::new(&bytes)).is_err());
    }
}
