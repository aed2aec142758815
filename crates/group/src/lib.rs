//! # gcr-group — trace-assisted process group formation
//!
//! The paper's Algorithm 2 ([`formation`]): merge intensively-communicating
//! rank pairs into checkpoint groups under a maximum-size bound (default
//! ⌈√n⌉), producing a [`def::GroupDef`] partition. The fixed shapes of
//! the evaluation's GP1 / GP4 / NORM are in [`strategy`].

#![warn(missing_docs)]
#![forbid(dead_code)]
#![deny(clippy::let_underscore_must_use, clippy::unused_result_ok)]

pub mod def;
pub mod formation;
pub mod strategy;
pub mod windowed;

pub use def::{GroupDef, GroupDefError, GroupId};
pub use formation::{
    default_max_group_size, form_groups, form_groups_default, form_groups_from_flows,
};
pub use strategy::{contiguous, single, singletons};
pub use windowed::{detect_phases, is_stationary, Phase};
