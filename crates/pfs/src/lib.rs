//! # univistor-pfs — Lustre-like parallel file system model
//!
//! The paper's persistent layer is Cori's Lustre file system: 248 Object
//! Storage Targets (OSTs), files striped across OSTs with a configurable
//! stripe size and count, and extent locks that make concurrent shared-file
//! writes expensive. This crate reproduces that substrate at the level the
//! evaluation exercises:
//!
//! * [`layout::StripeLayout`] — the offset → (OST, object offset) mapping
//!   Lustre uses (RAID-0 round-robin over `stripe_count` OSTs starting at
//!   `start_ost`);
//! * [`ost::Ost`] — a functional OST: objects are sparse byte buffers, so
//!   flushed data reads back exactly;
//! * [`locks::ExtentLockManager`] — per-(file, OST) extent locks with
//!   conflict/revocation counting, the mechanism behind shared-file write
//!   degradation;
//! * [`lustre::Lustre`] — the file system: create/write/read/stat/delete
//!   plus per-OST load accounting that the timing plane turns into
//!   bottleneck bounds.
//!
//! Timing is *not* computed here — writes return a [`lustre::WriteReceipt`]
//! describing exactly which OSTs received how many bytes and how many lock
//! conflicts occurred; the closed-form timing plane in `bench::timing`
//! turns the busiest OST's load and the revocation count into phase time.

pub mod layout;
pub mod locks;
pub mod lustre;
pub mod ost;

pub use layout::{FileLayout, RangeLayout, StripeLayout, StripePiece};
pub use locks::{ExtentLockManager, LockMode};
pub use lustre::{Lustre, WriteReceipt};
pub use ost::Ost;
