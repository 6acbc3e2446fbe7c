//! Baseline amplification accountants from prior work, used as the
//! comparison curves of Figures 1–2 of the paper.
//!
//! * [`efmrtt`] — the closed form of Erlingsson et al. (SODA 2019).
//! * [`clone`] — the clone reduction of Feldman–McMillan–Talwar (FOCS 2021)
//!   and the stronger clone (SODA 2023), both expressed as exact parameter
//!   mappings into the variation-ratio accountant.
//! * [`blanket`] — privacy-blanket style Hoeffding/Bennett bounds
//!   (Balle–Bell–Gascón–Nissim, CRYPTO 2019), re-derived from first
//!   principles (see the module docs for the derivation; this is a
//!   reconstruction, not a transcription).
//!
//! Every baseline is exposed as an
//! [`AmplificationBound`](crate::bound::AmplificationBound) adapter
//! (registered by [`crate::bound::BoundRegistry::ldp_baselines`]).

pub mod blanket;
pub mod clone;
pub mod efmrtt;

pub use blanket::{
    generic_gamma, BlanketBound, BlanketOptions, BlanketProfile, GenericBlanketBound,
    SpecificBlanketBound,
};
pub use clone::{clone_bound, clone_params, stronger_clone_bound, stronger_clone_params};
pub use efmrtt::{efmrtt_premises_hold, EfmrttBound};
