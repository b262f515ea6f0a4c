//! # akita-gpu — an MGPUSim-style multi-chiplet GPU timing simulator
//!
//! The GPU substrate of the AkitaRTM reproduction: [`ComputeUnit`]s execute
//! wavefront traces ([`Kernel`]s) and issue memory accesses into per-CU L1
//! chains (ROB → address translator → L1V cache), which reach interleaved
//! L2 banks and DRAM — or, on multi-chiplet platforms, cross the
//! inter-chiplet network through [`RdmaEngine`]s. A [`Dispatcher`] assigns
//! workgroups to CUs and drives progress bars; a [`Driver`] models the host
//! side (allocation, timed memcpy, kernel launches).
//!
//! [`Platform::build`] wires everything from a [`PlatformConfig`]:
//!
//! ```
//! use std::rc::Rc;
//! use akita_gpu::{GpuConfig, Platform, PlatformConfig, UniformKernel};
//! use akita_gpu::kernel::{Inst, WavefrontProgram};
//!
//! let mut platform = Platform::build(PlatformConfig {
//!     gpu: GpuConfig::scaled(2),
//!     ..PlatformConfig::default()
//! });
//! let program = WavefrontProgram::new(vec![Inst::Compute(4), Inst::Load(0x1000, 4)]);
//! let kernel = Rc::new(UniformKernel::new("demo", 8, 2, program));
//! platform.driver.borrow_mut().enqueue_kernel(kernel);
//! platform.start();
//! platform.sim.run();
//! assert!(platform.driver.borrow().finished());
//! ```

#![warn(missing_docs)]

mod builder;
mod cu;
mod dispatcher;
mod driver;
pub mod kernel;
pub mod proto;
mod rdma;

pub use builder::{ChipletHandles, GpuConfig, Platform, PlatformConfig};
pub use cu::{ComputeUnit, CuConfig};
pub use dispatcher::{Dispatcher, DispatcherConfig};
pub use driver::Driver;
pub use kernel::{Inst, Kernel, UniformKernel, WavefrontProgram, WorkGroupSpec};
pub use rdma::{RdmaConfig, RdmaEngine};
