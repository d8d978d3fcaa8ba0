//! # insomnia-access
//!
//! Access-network device models for the *Insomnia in the Access*
//! reproduction:
//!
//! * [`power`] — measured constant draws (gateway 9 W, line card 98 W,
//!   shelf 21 W, modem 1 W) and the configurable doze ladder
//!   ([`PowerLadder`]) generalizing the binary on/off model,
//! * [`gwstate`] — the gateway Sleep-on-Idle state machine with 60 s wake
//!   and multi-level doze descent,
//! * [`kswitch`] — the HDF switch fabrics: fixed wiring, the paper's
//!   k-switches, and the idealized full switch, chosen at run time
//!   through the [`Fabric`] enum,
//! * [`dslam`] — shelf + line cards + modems with energy metering,
//! * [`sleepprob`] — Eq. (2) analytics (corrected; see the module docs for
//!   the paper's erratum) and Monte-Carlo validation (Fig. 5),
//! * [`energy`] — breakdown and savings arithmetic (Figs. 6, 8).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dslam;
pub mod energy;
pub mod gwstate;
pub mod kswitch;
pub mod power;
pub mod sleepprob;

pub use dslam::{Dslam, DslamConfig};
pub use energy::{joules_to_kwh, watts_to_twh_per_year, EnergyBreakdown};
pub use gwstate::{Gateway, GwState};
pub use kswitch::{random_mapping, Fabric, FixedFabric, FullFabric, KSwitchFabric, PortLoc};
pub use power::{PowerLadder, PowerModel, PowerState};
pub use sleepprob::{
    binomial_coeff, expected_sleeping_cards, full_switch_sleeping_cards, p_at_least, p_card_sleeps,
    p_card_sleeps_monte_carlo, p_card_sleeps_no_switch, p_card_sleeps_paper_formula,
};
