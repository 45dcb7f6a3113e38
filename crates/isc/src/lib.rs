//! Baseline in-storage computing runtime (§2.2, §2.3) — the **ISC**
//! configuration of the evaluation, and the shared SSD platform
//! assembly IceClave builds on.
//!
//! This is the state of the art the paper hardens: offloaded programs
//! run on the SSD's embedded cores with a *software* privilege table
//! kept in ordinary SSD DRAM. There is no TEE: the permission metadata
//! can be corrupted by a buffer-overflow-style privilege escalation,
//! flash transfers cross the internal bus in plaintext (bus snooping),
//! and nothing isolates co-located programs. The attack hooks on
//! [`IscRuntime`] make those §2.3 vulnerabilities executable so tests
//! can show the contrast with `iceclave-core`.
//!
//! # Examples
//!
//! ```
//! use iceclave_isc::{IscConfig, IscRuntime};
//! use iceclave_types::{Lpn, SimTime};
//!
//! let mut isc = IscRuntime::new(IscConfig::tiny());
//! let t = isc.platform.populate(Lpn::new(0), 8, SimTime::ZERO)?;
//! let grant = 0..4;
//! let task = isc.offload(vec![grant]);
//! // Within the granted range: allowed.
//! assert!(isc.read_page(task, Lpn::new(2), t).is_ok());
//! // Outside it: the software check stops an honest program...
//! assert!(isc.read_page(task, Lpn::new(6), t).is_err());
//! // ...but a privilege-escalation attack rewrites the table (§2.3).
//! isc.corrupt_privilege_table(task, 0..8);
//! assert!(isc.read_page(task, Lpn::new(6), t).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

use iceclave_cpu::{CoreModel, OpCounts};
use iceclave_dram::{Dram, DramConfig};
use iceclave_flash::FlashConfig;
use iceclave_ftl::{Ftl, FtlConfig, FtlError, Requestor};
use iceclave_sim::ResourcePool;
use iceclave_trustzone::WorldMonitor;
use iceclave_types::{Lpn, SimDuration, SimTime, WriteBatchRequest};

/// Configuration of the computational SSD platform (Table 3).
#[derive(Clone, Debug)]
pub struct IscConfig {
    /// Flash geometry and timing.
    pub flash: FlashConfig,
    /// FTL knobs.
    pub ftl: FtlConfig,
    /// Internal DRAM.
    pub dram: DramConfig,
    /// Number of embedded cores available to in-storage programs.
    pub cores: usize,
    /// The embedded core model.
    pub core_model: CoreModel,
    /// Effective host ingest bandwidth in bytes/second: the PCIe 3.0 x4
    /// link's 3.2 GB/s reduced by the host I/O stack (filesystem, block
    /// layer, page-cache copies, DMA setup) to ~1.6 GB/s — the external
    /// bottleneck of §2.2.
    pub pcie_bandwidth: u64,
}

impl IscConfig {
    /// The paper's simulated SSD (Table 3) with four A72 cores.
    pub fn table3() -> Self {
        IscConfig {
            flash: FlashConfig::table3(),
            ftl: FtlConfig::default(),
            dram: DramConfig::table3(),
            cores: 4,
            core_model: CoreModel::a72_1_6ghz(),
            pcie_bandwidth: 1_600_000_000,
        }
    }

    /// Miniature platform for unit tests.
    pub fn tiny() -> Self {
        IscConfig {
            flash: FlashConfig::tiny(),
            ..IscConfig::table3()
        }
    }
}

/// The assembled SSD hardware: FTL+flash, DRAM, cores, and the
/// TrustZone monitor. Both the ISC baseline and IceClave run on this.
#[derive(Debug)]
pub struct SsdPlatform {
    /// Flash translation layer (owns the flash array).
    pub ftl: Ftl,
    /// Internal DRAM timing model.
    pub dram: Dram,
    /// Embedded processor pool.
    pub cores: ResourcePool,
    /// World monitor (tracks secure/normal switches).
    pub monitor: WorldMonitor,
    config: IscConfig,
}

impl SsdPlatform {
    /// Assembles a fresh platform.
    pub fn new(config: IscConfig) -> Self {
        SsdPlatform {
            ftl: Ftl::new(config.flash, config.ftl),
            dram: Dram::new(config.dram),
            cores: ResourcePool::new("ssd-core", config.cores),
            monitor: WorldMonitor::with_table5_cost(),
            config: config.clone(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &IscConfig {
        &self.config
    }

    /// Host-populates `pages` logical pages starting at `base`
    /// (sequential dataset load). The load goes through the batched,
    /// channel-parallel program path in chunks, so dataset staging
    /// overlaps every channel bus instead of serializing per page.
    /// Returns when the last program completes.
    ///
    /// # Errors
    ///
    /// Propagates FTL allocation failures.
    pub fn populate(&mut self, base: Lpn, pages: u64, now: SimTime) -> Result<SimTime, FtlError> {
        /// Pages per program batch (one host I/O request granule).
        const CHUNK: u64 = 64;
        let mut t = now;
        let mut offset = 0;
        while offset < pages {
            let n = CHUNK.min(pages - offset);
            let lpns: Vec<Lpn> = (0..n).map(|i| base.offset(offset + i)).collect();
            let out = self.ftl.write_batch(
                Requestor::Host,
                &WriteBatchRequest::from_lpns(&lpns),
                &mut self.monitor,
                t,
            )?;
            t = out.finished;
            offset += n;
        }
        Ok(t)
    }

    /// Time to move `bytes` across the host link (the external
    /// bottleneck for host-based computing).
    pub fn pcie_transfer_time(&self, bytes: u64) -> SimDuration {
        let ps = (bytes as u128 * 1_000_000_000_000u128) / self.config.pcie_bandwidth as u128;
        SimDuration::from_ps(ps as u64)
    }

    /// Runs a compute demand on the embedded core pool, returning the
    /// completion time.
    pub fn compute(&mut self, ops: &OpCounts, now: SimTime) -> SimTime {
        let service = self.config.core_model.time_for(ops);
        self.cores.acquire(now, service).end
    }
}

/// A baseline in-storage task handle.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct TaskId(u64);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Errors from the baseline runtime.
#[derive(Clone, Eq, PartialEq, Debug)]
pub enum IscError {
    /// The task id was never offloaded.
    UnknownTask(TaskId),
    /// The software privilege table denied the access.
    Denied {
        /// The offending task.
        task: TaskId,
        /// The page it asked for.
        lpn: Lpn,
    },
    /// FTL-level failure.
    Ftl(FtlError),
}

impl fmt::Display for IscError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IscError::UnknownTask(t) => write!(f, "{t} was never offloaded"),
            IscError::Denied { task, lpn } => {
                write!(f, "software check denied {task} access to {lpn}")
            }
            IscError::Ftl(e) => write!(f, "ftl: {e}"),
        }
    }
}

impl Error for IscError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IscError::Ftl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FtlError> for IscError {
    fn from(e: FtlError) -> Self {
        IscError::Ftl(e)
    }
}

/// The baseline runtime: software privilege table, no TEE, plaintext
/// data path.
#[derive(Debug)]
pub struct IscRuntime {
    /// The underlying platform (public: the baseline gives programs the
    /// run of the house, which is rather the point).
    pub platform: SsdPlatform,
    privileges: HashMap<TaskId, Vec<Range<u64>>>,
    next_task: u64,
}

impl IscRuntime {
    /// Creates the runtime on a fresh platform.
    pub fn new(config: IscConfig) -> Self {
        IscRuntime {
            platform: SsdPlatform::new(config),
            privileges: HashMap::new(),
            next_task: 0,
        }
    }

    /// Offloads a program granted the given LPN ranges; a copy of the
    /// privilege information is kept in SSD DRAM (§2.3).
    pub fn offload(&mut self, allowed: Vec<Range<u64>>) -> TaskId {
        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.privileges.insert(id, allowed);
        id
    }

    /// Reads a flash page on behalf of a task: software permission check
    /// followed by an unchecked host-privilege FTL access (there are no
    /// hardware ID bits in the baseline).
    ///
    /// # Errors
    ///
    /// [`IscError::Denied`] when the software table says no;
    /// [`IscError::UnknownTask`]; FTL errors.
    pub fn read_page(&mut self, task: TaskId, lpn: Lpn, now: SimTime) -> Result<SimTime, IscError> {
        let allowed = self
            .privileges
            .get(&task)
            .ok_or(IscError::UnknownTask(task))?;
        if !allowed.iter().any(|r| r.contains(&lpn.raw())) {
            return Err(IscError::Denied { task, lpn });
        }
        let done = self
            .platform
            .ftl
            .read(Requestor::Host, lpn, &mut self.platform.monitor, now)?;
        Ok(done)
    }

    /// **Attack hook (§2.3):** a malicious program exploits a memory
    /// vulnerability to rewrite its own privilege entry in SSD DRAM —
    /// privilege escalation. Nothing in the baseline prevents it.
    pub fn corrupt_privilege_table(&mut self, task: TaskId, grant: Range<u64>) {
        self.privileges.entry(task).or_default().push(grant);
    }

    /// **Attack hook (§2.3):** bus snooping on the flash-to-DRAM path.
    /// In the baseline the observed bytes are the plaintext page
    /// content.
    pub fn snoop_flash_transfer(&mut self, lpn: Lpn, now: SimTime) -> Option<Vec<u8>> {
        let translation = self
            .platform
            .ftl
            .translate(Requestor::Host, lpn, &mut self.platform.monitor, now)
            .ok()?;
        self.platform
            .ftl
            .flash()
            .read_data(translation.ppn)
            .map(<[u8]>::to_vec)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use iceclave_cpu::OpClass;

    fn runtime() -> IscRuntime {
        IscRuntime::new(IscConfig::tiny())
    }

    #[test]
    fn populate_then_read() {
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 4, SimTime::ZERO)
            .unwrap();
        let grant = 0..4;
        let task = isc.offload(vec![grant]);
        assert!(isc.read_page(task, Lpn::new(0), t).is_ok());
    }

    #[test]
    fn unknown_task_is_rejected() {
        let mut isc = runtime();
        let ghost = TaskId(99);
        assert_eq!(
            isc.read_page(ghost, Lpn::new(0), SimTime::ZERO),
            Err(IscError::UnknownTask(ghost))
        );
    }

    #[test]
    fn software_check_blocks_honest_overreach() {
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 8, SimTime::ZERO)
            .unwrap();
        let grant = 0..2;
        let task = isc.offload(vec![grant]);
        assert!(matches!(
            isc.read_page(task, Lpn::new(5), t),
            Err(IscError::Denied { .. })
        ));
    }

    #[test]
    fn privilege_escalation_succeeds_in_baseline() {
        // The vulnerability IceClave exists to fix.
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 8, SimTime::ZERO)
            .unwrap();
        let grant = 0..1;
        let task = isc.offload(vec![grant]);
        assert!(isc.read_page(task, Lpn::new(7), t).is_err());
        isc.corrupt_privilege_table(task, 0..8);
        assert!(isc.read_page(task, Lpn::new(7), t).is_ok());
    }

    #[test]
    fn bus_snooper_sees_plaintext() {
        let mut isc = runtime();
        let t = isc
            .platform
            .populate(Lpn::new(0), 1, SimTime::ZERO)
            .unwrap();
        // Store known content at the mapped physical page.
        let tr = isc
            .platform
            .ftl
            .translate(Requestor::Host, Lpn::new(0), &mut isc.platform.monitor, t)
            .unwrap();
        isc.platform.ftl.flash_mut().write_data(tr.ppn, b"secret");
        let snooped = isc.snoop_flash_transfer(Lpn::new(0), t).unwrap();
        assert_eq!(snooped, b"secret");
    }

    #[test]
    fn compute_occupies_cores() {
        let mut isc = runtime();
        let mut ops = OpCounts::new();
        ops.add(OpClass::ScanTuple, 1_000_000);
        let done = isc.platform.compute(&ops, SimTime::ZERO);
        assert!(done > SimTime::ZERO);
        assert_eq!(isc.platform.cores.operations(), 1);
    }

    #[test]
    fn pcie_is_slower_than_internal_bandwidth() {
        // Table 3's 8 channels: 4.8 GB/s internal vs 3.2 GB/s PCIe.
        let isc = IscRuntime::new(IscConfig::table3());
        let pcie = isc.platform.pcie_transfer_time(1 << 30);
        let internal = isc.platform.config().flash.internal_bandwidth();
        let internal_time =
            SimDuration::from_secs_f64((1u64 << 30) as f64 / internal.as_bytes() as f64);
        assert!(pcie > internal_time);
    }
}
