//! Page attributes and the Figure 6 encoding.

use std::fmt;

/// The two TrustZone execution worlds.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum World {
    /// The secure world: FTL core functions and the IceClave runtime.
    Secure,
    /// The normal world: offloaded in-storage programs.
    Normal,
}

/// The three memory regions of Figure 4.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum Region {
    /// Secure-world-only memory.
    Secure,
    /// IceClave's protected region: normal world reads, secure world
    /// writes. Hosts the cached FTL mapping table.
    Protected,
    /// Ordinary non-secure memory.
    Normal,
}

/// Read or write, for permission checks.
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub enum AccessType {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// The Figure 6 page-attribute encoding: `NS` (non-secure), `AP[2:1]`
/// (access permission) and the repurposed reserved bit `ES` that marks
/// the protected region.
///
/// | Region    | ES | NS | AP\[2:1\] | Normal world | Secure world |
/// |-----------|----|----|---------|--------------|--------------|
/// | Normal    | 1  | 1  | 01      | R/W          | R/W          |
/// | Protected | 0  | 1  | 01      | R            | R/W          |
/// | Secure    | 0  | 0  | 00      | no access    | R/W          |
///
/// # Examples
///
/// ```
/// use iceclave_trustzone::{AccessType, PageAttributes, Region, World};
///
/// let attrs = PageAttributes::for_region(Region::Protected);
/// assert!(attrs.permits(World::Normal, AccessType::Read));
/// assert!(!attrs.permits(World::Normal, AccessType::Write));
/// assert!(attrs.permits(World::Secure, AccessType::Write));
/// ```
#[derive(Copy, Clone, Eq, PartialEq, Hash, Debug)]
pub struct PageAttributes {
    /// The repurposed reserved bit: cleared for protected and secure
    /// pages.
    pub es: bool,
    /// Non-secure bit.
    pub ns: bool,
    /// `AP[2:1]` access-permission field.
    pub ap: u8,
}

impl PageAttributes {
    /// The canonical attribute encoding for each region (Figure 6).
    pub fn for_region(region: Region) -> Self {
        match region {
            Region::Normal => PageAttributes {
                es: true,
                ns: true,
                ap: 0b01,
            },
            Region::Protected => PageAttributes {
                es: false,
                ns: true,
                ap: 0b01,
            },
            Region::Secure => PageAttributes {
                es: false,
                ns: false,
                ap: 0b00,
            },
        }
    }

    /// Decodes the attribute bits back to a region, if the encoding is
    /// one of the three canonical ones.
    pub fn region(&self) -> Option<Region> {
        match (self.es, self.ns, self.ap) {
            (true, true, 0b01) => Some(Region::Normal),
            (false, true, 0b01) => Some(Region::Protected),
            (false, false, 0b00) => Some(Region::Secure),
            _ => None,
        }
    }

    /// Whether an access from `world` of type `access` is allowed.
    ///
    /// The secure world can access everything (it hosts the FTL, which
    /// manages the whole address space, §4.2). The normal world gets
    /// R/W on normal pages, R on protected pages, nothing on secure
    /// pages.
    pub fn permits(&self, world: World, access: AccessType) -> bool {
        match world {
            World::Secure => true,
            World::Normal => match self.region() {
                Some(Region::Normal) => true,
                Some(Region::Protected) => access == AccessType::Read,
                Some(Region::Secure) | None => false,
            },
        }
    }

    /// The raw descriptor bits as they would appear in a stage-1 page
    /// table entry (ES at bit 55 of the ignored field, NS at bit 5,
    /// AP\[2:1\] at bits 7:6 — the layout sketched in Figure 6).
    pub fn descriptor_bits(&self) -> u64 {
        (u64::from(self.es) << 55) | (u64::from(self.ap) << 6) | (u64::from(self.ns) << 5)
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Region::Secure => "secure",
            Region::Protected => "protected",
            Region::Normal => "normal",
        };
        f.write_str(s)
    }
}

impl fmt::Display for World {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            World::Secure => "secure-world",
            World::Normal => "normal-world",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        for region in [Region::Secure, Region::Protected, Region::Normal] {
            let attrs = PageAttributes::for_region(region);
            assert_eq!(attrs.region(), Some(region));
        }
    }

    #[test]
    fn non_canonical_encoding_decodes_to_none() {
        let attrs = PageAttributes {
            es: true,
            ns: false,
            ap: 0b11,
        };
        assert_eq!(attrs.region(), None);
        // And an unknown encoding denies the normal world entirely.
        assert!(!attrs.permits(World::Normal, AccessType::Read));
    }

    #[test]
    fn permission_matrix_matches_figure6() {
        use AccessType::*;
        use World::*;
        let n = PageAttributes::for_region(Region::Normal);
        let p = PageAttributes::for_region(Region::Protected);
        let s = PageAttributes::for_region(Region::Secure);

        assert!(n.permits(Normal, Read) && n.permits(Normal, Write));
        assert!(n.permits(Secure, Read) && n.permits(Secure, Write));

        assert!(p.permits(Normal, Read) && !p.permits(Normal, Write));
        assert!(p.permits(Secure, Read) && p.permits(Secure, Write));

        assert!(!s.permits(Normal, Read) && !s.permits(Normal, Write));
        assert!(s.permits(Secure, Read) && s.permits(Secure, Write));
    }

    #[test]
    fn descriptor_bits_place_fields() {
        let p = PageAttributes::for_region(Region::Protected);
        let bits = p.descriptor_bits();
        assert_eq!((bits >> 55) & 1, 0); // ES clear
        assert_eq!((bits >> 5) & 1, 1); // NS set
        assert_eq!((bits >> 6) & 0b11, 0b01); // AP[2:1]
    }
}
