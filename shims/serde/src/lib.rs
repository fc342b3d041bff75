//! Offline stand-in for the `serde` crate.
//!
//! The build environment cannot reach crates.io, so the workspace patches
//! `serde` to this crate. No code in the workspace actually serializes
//! through serde (there is no format crate in the sanctioned dependency
//! set; persistence uses the repo's own trace formats and the workspace
//! JSON codec in `smith85-tracelog::json`). The derives exist to keep the public
//! types *ready* for a real serde, so this shim preserves exactly that
//! contract: `Serialize`/`Deserialize`/`DeserializeOwned` bounds are
//! satisfiable for every type, and `#[derive(Serialize, Deserialize)]`
//! (including `#[serde(...)]` attributes) compiles to nothing.

#![forbid(unsafe_code)]

/// Marker stand-in for `serde::Serialize`; blanket-implemented.
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker stand-in for `serde::Deserialize<'de>`; blanket-implemented.
pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}

pub mod de {
    //! Deserialization marker traits.

    /// Marker stand-in for `serde::de::DeserializeOwned`.
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}

pub mod ser {
    //! Serialization marker traits.

    pub use crate::Serialize;
}

pub use serde_derive::{Deserialize, Serialize};
