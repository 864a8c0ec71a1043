//! # ghost-baselines — the systems the paper compares ghOSt against
//!
//! * [`microquanta`] — Google's soft real-time kernel scheduler for Snap
//!   worker threads (§4.3): each thread gets a quanta of CPU per period
//!   at high priority, then is throttled — "networking blackouts of up to
//!   0.1 ms". Installed at the RT class slot of the simulated kernel.
//! * [`shinjuku_dataplane`] — the original Shinjuku system (§4.2): a
//!   dedicated spinning dispatcher plus spinning worker threads on pinned
//!   hyperthreads, preempting requests at a 30 µs timeslice via posted
//!   interrupts. Modelled as its own closed system: its CPUs are not
//!   sharable with anything else (the property Fig. 6c exposes).
//! * [`kernel_core_sched`] — in-kernel secure core scheduling (§4.5):
//!   a cookie-aware fair class that never co-schedules threads of
//!   different VMs on SMT siblings.

pub mod kernel_core_sched;
pub mod microquanta;
pub mod shinjuku_dataplane;

pub use kernel_core_sched::KernelCoreSched;
pub use microquanta::MicroQuanta;
pub use shinjuku_dataplane::{DataplaneResult, ShinjukuDataplane};
