//! The vswitch design survey of Table 1, as queryable data.
//!
//! "Design characteristics of virtual switches": 22 designs classified by
//! whether they are monolithic, co-located with the host virtualization
//! layer, and where packet processing runs (kernel and/or user space).

use serde::{Deserialize, Serialize};

/// Tri-state classification used in the table (✓ / ✗ / partial "~").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Trait3 {
    /// The property holds (✓).
    Yes,
    /// The property does not hold (✗).
    No,
    /// Partially / configuration-dependent (~).
    Partial,
}

impl Trait3 {
    /// The table glyph.
    fn glyph(self) -> &'static str {
        match self {
            Trait3::Yes => "Y",
            Trait3::No => "N",
            Trait3::Partial => "~",
        }
    }

    /// Whether the property at least partially holds.
    fn at_least_partial(self) -> bool {
        !matches!(self, Trait3::No)
    }
}

/// One surveyed virtual switch design.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VswitchDesign {
    /// Name as it appears in the paper.
    pub name: &'static str,
    /// Publication/release year.
    pub year: u16,
    /// The design's stated emphasis.
    pub emphasis: &'static str,
    /// Single vswitch handling all tenants' logical datapaths.
    pub monolithic: Trait3,
    /// Co-located with the host virtualization layer.
    pub colocated: Trait3,
    /// Packet processing in the kernel.
    pub kernel_path: Trait3,
    /// Packet processing in user space.
    pub user_path: Trait3,
}

/// The 22 rows of Table 1.
const SURVEY: &[VswitchDesign] = &[
    VswitchDesign {
        name: "OvS",
        year: 2009,
        emphasis: "Flexibility",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "Cisco NexusV",
        year: 2009,
        emphasis: "Flexibility",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "VMware vSwitch",
        year: 2009,
        emphasis: "Centralized control",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "Vale",
        year: 2012,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "Research prototype (Jin et al.)",
        year: 2012,
        emphasis: "Isolation",
        monolithic: Trait3::Yes,
        colocated: Trait3::No,
        kernel_path: Trait3::Partial,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "Hyper-Switch",
        year: 2013,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "MS HyperV-Switch",
        year: 2013,
        emphasis: "Centralized control",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "NetVM",
        year: 2014,
        emphasis: "Performance, NFV",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "sv3",
        year: 2014,
        emphasis: "Security",
        monolithic: Trait3::No,
        colocated: Trait3::Yes,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "fd.io",
        year: 2015,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "mSwitch",
        year: 2015,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Partial,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "BESS",
        year: 2015,
        emphasis: "Programmability, NFV",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "PISCES",
        year: 2016,
        emphasis: "Programmability",
        monolithic: Trait3::Yes,
        colocated: Trait3::Partial,
        kernel_path: Trait3::Partial,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "OvS with DPDK",
        year: 2016,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "ESwitch",
        year: 2016,
        emphasis: "Performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Partial,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "MS VFP",
        year: 2017,
        emphasis: "Performance, flexibility",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Partial,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "Mellanox BlueField",
        year: 2017,
        emphasis: "CPU offload",
        monolithic: Trait3::Yes,
        colocated: Trait3::No,
        kernel_path: Trait3::Partial,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "Liquid IO",
        year: 2017,
        emphasis: "CPU offload",
        monolithic: Trait3::Yes,
        colocated: Trait3::No,
        kernel_path: Trait3::Yes,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "Stingray",
        year: 2017,
        emphasis: "CPU offload",
        monolithic: Trait3::Yes,
        colocated: Trait3::No,
        kernel_path: Trait3::Partial,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "GPU-based OvS",
        year: 2017,
        emphasis: "Acceleration",
        monolithic: Trait3::Yes,
        colocated: Trait3::Yes,
        kernel_path: Trait3::Yes,
        user_path: Trait3::Partial,
    },
    VswitchDesign {
        name: "MS AccelNet",
        year: 2018,
        emphasis: "Performance, flexibility",
        monolithic: Trait3::Yes,
        colocated: Trait3::Partial,
        kernel_path: Trait3::Partial,
        user_path: Trait3::No,
    },
    VswitchDesign {
        name: "Google Andromeda",
        year: 2018,
        emphasis: "Flexibility and performance",
        monolithic: Trait3::Yes,
        colocated: Trait3::Partial,
        kernel_path: Trait3::No,
        user_path: Trait3::Partial,
    },
];

/// Fraction of surveyed designs that are monolithic.
pub fn monolithic_fraction() -> f64 {
    fraction(|d| d.monolithic.at_least_partial())
}

/// Fraction of surveyed designs co-located with the host.
pub fn colocated_fraction() -> f64 {
    fraction(|d| d.colocated.at_least_partial())
}

/// Fraction whose packet processing spans both kernel and user space.
pub fn split_processing_fraction() -> f64 {
    fraction(|d| d.kernel_path.at_least_partial() && d.user_path.at_least_partial())
}

fn fraction(pred: impl Fn(&VswitchDesign) -> bool) -> f64 {
    SURVEY.iter().filter(|d| pred(d)).count() as f64 / SURVEY.len() as f64
}

/// Renders the survey as an aligned text table.
pub fn render_table() -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<34} {:>4}  {:<28} {:^4} {:^4} {:^4} {:^4}\n",
        "Name", "Year", "Emphasis", "Mono", "CoLo", "Kern", "User"
    ));
    out.push_str(&"-".repeat(90));
    out.push('\n');
    for d in SURVEY {
        out.push_str(&format!(
            "{:<34} {:>4}  {:<28} {:^4} {:^4} {:^4} {:^4}\n",
            d.name,
            d.year,
            d.emphasis,
            d.monolithic.glyph(),
            d.colocated.glyph(),
            d.kernel_path.glyph(),
            d.user_path.glyph()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_two_designs() {
        assert_eq!(SURVEY.len(), 22);
    }

    #[test]
    fn nearly_all_are_monolithic() {
        // The paper: "nearly all vswitches are monolithic in nature".
        assert!(monolithic_fraction() > 0.9);
    }

    #[test]
    fn about_80_percent_colocated() {
        // "nearly 80% of the surveyed vswitches are co-located with the
        //  Host virtualization layer" (counting partial co-location).
        let f = colocated_fraction();
        assert!((0.7..=0.9).contains(&f), "colocated fraction {f}");
    }

    #[test]
    fn about_70_percent_split_processing() {
        // "packet processing for roughly 70% of the virtual switches is
        //  spread across user space and the kernel".
        let f = split_processing_fraction();
        assert!((0.3..=0.8).contains(&f), "split fraction {f}");
    }

    #[test]
    fn sv3_is_the_only_non_monolithic() {
        let non_mono: Vec<&str> = SURVEY
            .iter()
            .filter(|d| d.monolithic == Trait3::No)
            .map(|d| d.name)
            .collect();
        assert_eq!(non_mono, vec!["sv3"]);
    }

    #[test]
    fn table_renders_every_row() {
        let t = render_table();
        for d in SURVEY {
            assert!(t.contains(d.name), "missing {}", d.name);
        }
        assert!(t.contains("Mono"));
    }

    #[test]
    fn years_are_ordered_like_the_paper() {
        let years: Vec<u16> = SURVEY.iter().map(|d| d.year).collect();
        let mut sorted = years.clone();
        sorted.sort();
        assert_eq!(years, sorted, "rows appear in chronological order");
    }
}
