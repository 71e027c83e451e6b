//! The server's secure update buffer.

use crate::checkpoint::{BinReader, BinWriter, CodecError};
use crate::update::ModelUpdate;

/// Buffered client updates awaiting aggregation (the "secure buffer" of
/// FedBuff that SEAFL inherits). The server drains it when the trigger
/// policy fires; SEAFL's wait-for-stale policy may let it grow beyond `K`.
#[derive(Default)]
pub struct UpdateBuffer {
    updates: Vec<ModelUpdate>,
}

impl UpdateBuffer {
    /// Fresh empty buffer.
    pub fn new() -> Self {
        UpdateBuffer { updates: Vec::new() }
    }

    /// Store an update. If the same client already has a pending update
    /// (possible under SEAFL² when a partial upload is later superseded),
    /// the newer one replaces it — the newest weights strictly dominate.
    pub fn push(&mut self, update: ModelUpdate) {
        if let Some(existing) = self.updates.iter_mut().find(|u| u.client_id == update.client_id) {
            *existing = update;
        } else {
            self.updates.push(update);
        }
    }

    /// Number of buffered updates (at most one per client).
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether the buffer holds no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Client ids currently buffered.
    pub fn client_ids(&self) -> Vec<usize> {
        self.updates.iter().map(|u| u.client_id).collect()
    }

    /// Peek at buffered updates.
    pub fn updates(&self) -> &[ModelUpdate] {
        &self.updates
    }

    /// Drain all buffered updates for aggregation.
    pub fn drain(&mut self) -> Vec<ModelUpdate> {
        std::mem::take(&mut self.updates)
    }

    /// Serialize the buffered updates in arrival order.
    pub fn encode(&self, w: &mut BinWriter) {
        w.usize(self.updates.len());
        for u in &self.updates {
            u.encode(w);
        }
    }

    /// Inverse of [`UpdateBuffer::encode`].
    pub fn decode(r: &mut BinReader<'_>) -> Result<Self, CodecError> {
        let mut buffer = UpdateBuffer::new();
        for _ in 0..r.count(8)? {
            buffer.push(ModelUpdate::decode(r)?);
        }
        Ok(buffer)
    }

    /// Maximum staleness among buffered updates at server round `t`.
    pub fn max_staleness(&self, current_round: u64) -> u64 {
        self.updates.iter().map(|u| u.staleness(current_round)).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn upd(client: usize, born: u64) -> ModelUpdate {
        ModelUpdate {
            client_id: client,
            params: vec![born as f32],
            num_samples: 1,
            born_round: born,
            epochs_completed: 5,
            train_loss: 0.0,
        }
    }

    #[test]
    fn push_and_drain() {
        let mut b = UpdateBuffer::new();
        b.push(upd(1, 0));
        b.push(upd(2, 1));
        assert_eq!(b.len(), 2);
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    fn same_client_replaces() {
        let mut b = UpdateBuffer::new();
        b.push(upd(1, 0));
        b.push(upd(1, 3));
        assert_eq!(b.len(), 1);
        assert_eq!(b.updates()[0].born_round, 3);
    }

    #[test]
    fn drain_on_empty_yields_empty_and_stays_usable() {
        let mut b = UpdateBuffer::new();
        assert!(b.drain().is_empty());
        assert!(b.is_empty());
        // Draining twice in a row is safe (the engine may aggregate-then-
        // reject everything and come straight back).
        assert!(b.drain().is_empty());
        b.push(upd(1, 0));
        assert_eq!(b.len(), 1);
        assert_eq!(b.drain().len(), 1);
        assert!(b.drain().is_empty());
    }

    #[test]
    fn max_staleness() {
        let mut b = UpdateBuffer::new();
        assert_eq!(b.max_staleness(5), 0);
        b.push(upd(1, 4));
        b.push(upd(2, 1));
        assert_eq!(b.max_staleness(5), 4);
    }
}
