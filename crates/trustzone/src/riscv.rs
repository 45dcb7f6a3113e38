//! RISC-V realization of the IceClave memory regions (§4.7).
//!
//! The paper's discussion notes that SSD vendors are adopting RISC-V
//! controllers and sketches how IceClave maps onto them: the machine /
//! supervisor / user privilege levels take the roles of the secure
//! world, the FTL service layer, and in-storage programs, with Physical
//! Memory Protection (PMP) entries enforcing the three-region policy of
//! Figure 4. This module implements that mapping so the portability
//! claim is executable, not rhetorical.

use iceclave_types::{ByteSize, PhysAddr};

use crate::attributes::{AccessType, Region};
use crate::map::MemoryMap;

/// RISC-V privilege levels (the three levels of §4.7).
#[derive(Copy, Clone, Eq, PartialEq, Ord, PartialOrd, Hash, Debug)]
pub enum PrivilegeLevel {
    /// U-mode: offloaded in-storage programs.
    User,
    /// S-mode: the FTL's service layer / IceClave runtime services.
    Supervisor,
    /// M-mode: the security monitor (root of trust).
    Machine,
}

/// One PMP entry: a NAPOT-style range with R/W/X bits per privilege
/// class (modelled at the granularity IceClave needs).
#[derive(Copy, Clone, Debug)]
pub struct PmpEntry {
    /// Range start.
    pub start: u64,
    /// Exclusive range end.
    pub end: u64,
    /// U-mode may read.
    pub u_read: bool,
    /// U-mode may write.
    pub u_write: bool,
    /// S-mode may read.
    pub s_read: bool,
    /// S-mode may write.
    pub s_write: bool,
}

/// Standard RISC-V cores expose 16 PMP entries.
pub const MAX_PMP_ENTRIES: usize = 16;

/// A PMP-based encoding of the IceClave memory map.
///
/// # Examples
///
/// ```
/// use iceclave_trustzone::riscv::{PmpMemoryMap, PrivilegeLevel};
/// use iceclave_trustzone::{AccessType, MemoryMap, Region};
/// use iceclave_types::{ByteSize, PhysAddr};
///
/// let mut arm = MemoryMap::new();
/// arm.define(PhysAddr::new(0), ByteSize::from_mib(64), Region::Secure)?;
/// arm.define(
///     PhysAddr::new(64 << 20),
///     ByteSize::from_mib(16),
///     Region::Protected,
/// )?;
/// let pmp = PmpMemoryMap::from_memory_map(&arm);
///
/// // U-mode (an in-storage program) can read the mapping table...
/// assert!(pmp.permits(PrivilegeLevel::User, PhysAddr::new(64 << 20), AccessType::Read));
/// // ...but not write it, and cannot touch the secure region at all.
/// assert!(!pmp.permits(PrivilegeLevel::User, PhysAddr::new(64 << 20), AccessType::Write));
/// assert!(!pmp.permits(PrivilegeLevel::User, PhysAddr::new(0), AccessType::Read));
/// # Ok::<(), iceclave_trustzone::RegionError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct PmpMemoryMap {
    entries: Vec<PmpEntry>,
}

impl PmpMemoryMap {
    /// Translates a TrustZone-style [`MemoryMap`] into PMP entries:
    /// secure regions become M-mode-only, protected regions
    /// U-read/S-write, and the normal background stays open.
    pub fn from_memory_map(map: &MemoryMap) -> Self {
        // Walk the address space by probing region boundaries; the
        // MemoryMap's registers are not exposed directly, so probe at
        // page granularity over the configured regions by asking for
        // the region of each register's range. For the fidelity needed
        // here, re-deriving entries from region_of at 1 MiB probes over
        // the first 256 MiB (where IceClave places its windows) is
        // sufficient and keeps the API decoupled.
        let mut entries = Vec::new();
        let probe = ByteSize::from_mib(1).as_bytes();
        let horizon = ByteSize::from_mib(256).as_bytes();
        let mut current: Option<(u64, Region)> = None;
        let mut addr = 0u64;
        while addr <= horizon {
            let region = map.region_of(PhysAddr::new(addr));
            match current {
                Some((_, r)) if r == region => {}
                Some((start, r)) => {
                    if r != Region::Normal {
                        entries.push(Self::entry_for(start, addr, r));
                    }
                    current = Some((addr, region));
                }
                None => current = Some((addr, region)),
            }
            addr += probe;
        }
        if let Some((start, r)) = current {
            if r != Region::Normal {
                entries.push(Self::entry_for(start, addr, r));
            }
        }
        entries.truncate(MAX_PMP_ENTRIES);
        PmpMemoryMap { entries }
    }

    fn entry_for(start: u64, end: u64, region: Region) -> PmpEntry {
        match region {
            Region::Secure => PmpEntry {
                start,
                end,
                u_read: false,
                u_write: false,
                s_read: false,
                s_write: false,
            },
            Region::Protected => PmpEntry {
                start,
                end,
                u_read: true,
                u_write: false,
                s_read: true,
                s_write: true,
            },
            Region::Normal => PmpEntry {
                start,
                end,
                u_read: true,
                u_write: true,
                s_read: true,
                s_write: true,
            },
        }
    }

    /// Whether `level` may perform `access` at `addr`. M-mode bypasses
    /// PMP checks entirely (as on real hardware with no locked
    /// entries).
    pub fn permits(&self, level: PrivilegeLevel, addr: PhysAddr, access: AccessType) -> bool {
        if level == PrivilegeLevel::Machine {
            return true;
        }
        let a = addr.raw();
        for e in &self.entries {
            if e.start <= a && a < e.end {
                return match (level, access) {
                    (PrivilegeLevel::User, AccessType::Read) => e.u_read,
                    (PrivilegeLevel::User, AccessType::Write) => e.u_write,
                    (PrivilegeLevel::Supervisor, AccessType::Read) => e.s_read,
                    (PrivilegeLevel::Supervisor, AccessType::Write) => e.s_write,
                    (PrivilegeLevel::Machine, _) => true,
                };
            }
        }
        // Background: open (the normal region).
        true
    }

    /// Number of PMP entries used.
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn iceclave_layout() -> MemoryMap {
        let mut map = MemoryMap::new();
        map.define(PhysAddr::new(0), ByteSize::from_mib(64), Region::Secure)
            .unwrap();
        map.define(
            PhysAddr::new(64 << 20),
            ByteSize::from_mib(16),
            Region::Protected,
        )
        .unwrap();
        map
    }

    #[test]
    fn permission_matrix_matches_trustzone_semantics() {
        let arm = iceclave_layout();
        let pmp = PmpMemoryMap::from_memory_map(&arm);
        let secure = PhysAddr::new(0);
        let table = PhysAddr::new(64 << 20);
        let app = PhysAddr::new(128 << 20);
        use AccessType::*;
        use PrivilegeLevel::*;

        // User = normal world.
        assert!(!pmp.permits(User, secure, Read));
        assert!(pmp.permits(User, table, Read));
        assert!(!pmp.permits(User, table, Write));
        assert!(pmp.permits(User, app, Write));

        // Machine = secure world: everything.
        assert!(pmp.permits(Machine, secure, Write));
        assert!(pmp.permits(Machine, table, Write));

        // Supervisor: runtime services can maintain the mapping table
        // but stay out of M-mode memory.
        assert!(pmp.permits(Supervisor, table, Write));
        assert!(!pmp.permits(Supervisor, secure, Read));
    }

    #[test]
    fn entry_budget_respected() {
        let pmp = PmpMemoryMap::from_memory_map(&iceclave_layout());
        assert!(pmp.entry_count() <= MAX_PMP_ENTRIES);
        assert!(pmp.entry_count() >= 2, "secure + protected windows");
    }

    #[test]
    fn agreement_with_arm_map_on_sampled_addresses() {
        let arm = iceclave_layout();
        let pmp = PmpMemoryMap::from_memory_map(&arm);
        for mib in 0..200u64 {
            let addr = PhysAddr::new(mib << 20);
            for access in [AccessType::Read, AccessType::Write] {
                let arm_allows = arm
                    .check(crate::attributes::World::Normal, addr, access)
                    .is_ok();
                let pmp_allows = pmp.permits(PrivilegeLevel::User, addr, access);
                assert_eq!(
                    arm_allows, pmp_allows,
                    "divergence at {addr} for {access:?}"
                );
            }
        }
    }
}
