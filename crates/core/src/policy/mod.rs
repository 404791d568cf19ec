//! The four methodologies the paper evaluates (Section IV-B).

mod cooling;
pub(crate) mod dual;
mod otem;
mod parallel;

pub use cooling::ActiveCooling;
pub use dual::Dual;
pub use otem::Otem;
pub use parallel::Parallel;
