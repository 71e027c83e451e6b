//! # seafl-sim
//!
//! A deterministic discrete-event simulator for heterogeneous federated
//! learning fleets.
//!
//! The SEAFL paper measures *elapsed wall-clock time to reach a target
//! accuracy* on a testbed that **emulates** client speed (all clients run on
//! one GPU; artificial Pareto/Zipf delays model heterogeneity — §III and
//! §VI-A). This crate makes that emulation explicit: a virtual clock
//! ([`SimTime`]), a totally ordered event queue ([`EventQueue`]) with
//! deterministic tie-breaking, and per-device compute/idle/network models
//! ([`DeviceProfile`]). Model training is *real* (the `seafl-nn` stack);
//! only time is simulated, so every experiment is exactly reproducible from
//! a seed.

pub mod bin;
pub mod device;
pub mod digest;
pub mod event;
pub mod faults;
pub mod id;
pub mod loss;
pub mod rng;
pub mod time;
pub mod trace;

pub use device::{DeviceProfile, Fleet, FleetConfig};
pub use event::{EventQueue, ScheduleError};
pub use faults::{
    AttackConfig, AttackKind, AttackPlan, ConfigError, CorruptionKind, DeviceFaults, FaultConfig,
    FaultPlan, SpeedSpike,
};
pub use id::ClientId;
pub use loss::{FrameFate, LossConfig};
pub use rng::{LazyStreams, SimRng, SimRngState};
pub use time::SimTime;
pub use trace::{RejectCause, TerminationReason, TraceEvent, TraceLog};
