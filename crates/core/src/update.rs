//! A client's uploaded model update.

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use serde::{Deserialize, Serialize};

/// One local update as received by the server.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Uploading device.
    pub client_id: usize,
    /// Full flattened model state after local training.
    pub params: Vec<f32>,
    /// Number of local training samples (`|D_k|` in Eq. 6).
    pub num_samples: usize,
    /// Server round at which the client received the model it trained from
    /// (`t_k`; staleness at aggregation time `t` is `t − t_k`).
    pub born_round: u64,
    /// Local epochs actually completed (may be `< E` under SEAFL² partial
    /// training).
    pub epochs_completed: usize,
    /// Mean training loss over the completed epochs (diagnostics).
    pub train_loss: f32,
}

impl ModelUpdate {
    /// Staleness `S_k = t − t_k` of this update at server round `t`.
    pub fn staleness(&self, current_round: u64) -> u64 {
        current_round.saturating_sub(self.born_round)
    }

    /// True when this update came from a partial (interrupted) training
    /// session.
    pub fn is_partial(&self, full_epochs: usize) -> bool {
        self.epochs_completed < full_epochs
    }

    /// Serialize bit-exactly — a corrupt client may have planted NaNs in
    /// `params`, and a checkpoint must carry them unchanged.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.client_id);
        w.vec_f32(&self.params);
        w.usize(self.num_samples);
        w.u64(self.born_round);
        w.usize(self.epochs_completed);
        w.f32(self.train_loss);
    }

    /// Inverse of [`ModelUpdate::encode`].
    pub fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        Ok(ModelUpdate {
            client_id: r.usize()?,
            params: r.vec_f32()?,
            num_samples: r.usize()?,
            born_round: r.u64()?,
            epochs_completed: r.usize()?,
            train_loss: r.f32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(born: u64, epochs: usize) -> ModelUpdate {
        ModelUpdate {
            client_id: 0,
            params: vec![0.0; 4],
            num_samples: 10,
            born_round: born,
            epochs_completed: epochs,
            train_loss: 1.0,
        }
    }

    #[test]
    fn staleness_is_round_delta() {
        assert_eq!(upd(3, 5).staleness(7), 4);
        assert_eq!(upd(7, 5).staleness(7), 0);
        // born_round can never exceed current round in a correct engine, but
        // saturate defensively.
        assert_eq!(upd(9, 5).staleness(7), 0);
    }

    #[test]
    fn partial_detection() {
        assert!(upd(0, 3).is_partial(5));
        assert!(!upd(0, 5).is_partial(5));
    }
}
