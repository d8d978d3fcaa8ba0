//! # insomnia-dslphy
//!
//! DSL physical-layer substrate for the *Insomnia in the Access*
//! reproduction — the synthetic stand-in for the paper's Alcatel 7302 ISAM
//! testbed with 24 VDSL2 modems and a 25-pair cable switchboard (§6).
//!
//! Pipeline: [`cable`] (copper insertion loss) → [`binder`] (25-pair
//! geometry, pairwise coupling) → [`fext`] (far-end crosstalk PSD) →
//! [`band`]/[`bitload`] (DMT tone plans, gap-approximation bit-loading) →
//! [`line`](mod@line)/[`bundle`] (service profiles, sync, the Fig. 14 experiment).
//! [`attenuation`] covers the appendix's production-DSLAM measurement
//! (Fig. 15).
//!
//! Calibration: the FEXT constant is tuned so the 24×600 m / 62 Mbps
//! configuration reproduces the paper's baseline (≈43.7 Mbps) and per-line
//! speedup slope (≈1.1–1.2% per silenced disturber); everything else
//! follows from standard models (skin-effect loss, equal-level FEXT f²·L
//! scaling, Shannon-gap loading with 6 dB margin).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attenuation;
pub mod band;
pub mod binder;
pub mod bitload;
pub mod bundle;
pub mod cable;
pub mod experiment;
pub mod fext;
pub mod line;
pub mod units;

pub use attenuation::{sample as sample_attenuations, AttenuationConfig, AttenuationSamples};
pub use band::{tone_freq_hz, Band, TonePlan, MAX_BITS_PER_TONE, SYMBOL_RATE, TONE_SPACING_HZ};
pub use binder::{Binder, BINDER_PAIRS};
pub use bitload::BitLoading;
pub use bundle::{
    fixed_length_lines, telco_length_lines, with_loss_spread, BundleConfig, BundleSim,
};
pub use cable::CableModel;
pub use experiment::{CrosstalkExperiment, LengthSetup, SpeedupPoint};
pub use fext::{shared_length_m, FextModel};
pub use line::{Line, ServiceProfile};
pub use units::{db_to_lin, dbm_hz_to_mw_hz, lin_to_db, mw_hz_to_dbm_hz};
