//! Per-tenant cycle-attribution meters — the `mts-slo` substrate.
//!
//! Every unit of work a frame causes is charged to a *layer* (NIC VEB,
//! vswitch datapath, vhost, host kernel, overlay encap, tenant VM) and,
//! when the simulator can tell, to the tenant whose traffic caused it.
//! The meters keep three ledgers per layer:
//!
//! * **total** — everything charged to the layer;
//! * **truth** — per-tenant ground truth, attributed by the frame's inner
//!   IPs (the simulator is omniscient; production systems are not);
//! * **unresolved** — work no frame→tenant mapping exists for (ARP,
//!   malformed frames).
//!
//! By construction `Σ truth + unresolved == total` for every layer; the
//! interesting identity is *external*: the vswitch layer's total must
//! equal the CPU core ledger's per-vswitch busy time **exactly**, and the
//! NIC layer's total must equal the NIC's own VEB busy ledger. Those are
//! independently accumulated (inside [`mts_sim::CpuCore::acquire`] and
//! [`mts_nic::SriovNic::note_veb_work`]), so the check catches any charge
//! site the meters miss. `BillingReport` enforces it at collection time;
//! see `billing.rs` and OBSERVABILITY.md §cycle-attribution.
//!
//! **Exact vs. proportional.** What a *biller* may use depends on the
//! security level: Baseline runs one switch for everyone (vswitch cycles
//! unattributable), Level-1/shared compartments serve several tenants
//! (proportional split), and singleton Level-2 compartments make the
//! compartment's entire cycle count one tenant's bill (exact). The
//! [`Attribution`] flag records which regime each charge was made under.

use mts_sim::Dur;

/// A layer of the frame's journey that consumes attributable work.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The NIC's embedded switch (VEB) pipeline.
    NicVeb,
    /// The vswitch datapath (CPU core grants; conserved vs. the ledger).
    Vswitch,
    /// vhost-user copy work (sub-meter: charged inside vswitch grants).
    Vhost,
    /// Host-kernel involvement: IRQ delivery, vhost notify syscalls.
    HostKernel,
    /// VXLAN encap/decap work (sub-meter of the vswitch datapath).
    OverlayEncap,
    /// Cycles burnt inside the tenant's own VM (l2fwd / guest bridge).
    TenantVm,
}

impl Layer {
    /// Number of layers (array dimension).
    pub const COUNT: usize = 6;

    /// Every layer, in export order.
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::NicVeb,
        Layer::Vswitch,
        Layer::Vhost,
        Layer::HostKernel,
        Layer::OverlayEncap,
        Layer::TenantVm,
    ];

    /// Stable label used in telemetry series and panel CSVs.
    pub fn label(self) -> &'static str {
        match self {
            Layer::NicVeb => "nic-veb",
            Layer::Vswitch => "vswitch",
            Layer::Vhost => "vhost",
            Layer::HostKernel => "host-kernel",
            Layer::OverlayEncap => "overlay-encap",
            Layer::TenantVm => "tenant-vm",
        }
    }

    fn idx(self) -> usize {
        match self {
            Layer::NicVeb => 0,
            Layer::Vswitch => 1,
            Layer::Vhost => 2,
            Layer::HostKernel => 3,
            Layer::OverlayEncap => 4,
            Layer::TenantVm => 5,
        }
    }
}

/// How cycles were attributable to tenants when they were charged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attribution {
    /// The charge maps to exactly one tenant by construction.
    Exact,
    /// Shared infrastructure: billing splits it by observed work share.
    Proportional,
    /// Shared infrastructure with no per-tenant observables (Baseline).
    Unattributed,
}

impl Attribution {
    /// Stable label used in telemetry series and panel CSVs.
    pub fn label(self) -> &'static str {
        match self {
            Attribution::Exact => "exact",
            Attribution::Proportional => "proportional",
            Attribution::Unattributed => "unattributed",
        }
    }
}

/// The cycle-attribution ledgers for one [`crate::runtime::World`].
#[derive(Clone, Debug)]
pub struct CycleMeters {
    tenants: usize,
    /// Per-layer totals.
    total: [Dur; Layer::COUNT],
    /// Ground truth per tenant per layer: `truth[tenant][layer]`.
    truth: Vec<[Dur; Layer::COUNT]>,
    /// Per-layer work with no tenant attribution (ARP, control frames).
    unresolved: [Dur; Layer::COUNT],
    /// Per-vswitch datapath totals (must equal the core ledger exactly).
    vswitch_total: Vec<Dur>,
    /// Ground truth per vswitch per tenant: `vswitch_truth[i][tenant]`.
    vswitch_truth: Vec<Vec<Dur>>,
    /// Per-vswitch work with no tenant attribution.
    vswitch_unresolved: Vec<Dur>,
    /// The attribution regime each vswitch's cycles fall under (fixed by
    /// the deployment: who shares the compartment).
    vswitch_attr: Vec<Attribution>,
}

impl CycleMeters {
    /// Creates zeroed meters for `tenants` tenants and the given
    /// per-vswitch attribution regimes.
    pub fn new(tenants: usize, vswitch_attr: Vec<Attribution>) -> Self {
        let vswitches = vswitch_attr.len();
        CycleMeters {
            tenants,
            total: [Dur::ZERO; Layer::COUNT],
            truth: vec![[Dur::ZERO; Layer::COUNT]; tenants],
            unresolved: [Dur::ZERO; Layer::COUNT],
            vswitch_total: vec![Dur::ZERO; vswitches],
            vswitch_truth: vec![vec![Dur::ZERO; tenants]; vswitches],
            vswitch_unresolved: vec![Dur::ZERO; vswitches],
            vswitch_attr,
        }
    }

    /// The attribution regime of vswitch `i`'s cycles.
    pub fn vswitch_attribution(&self, i: usize) -> Attribution {
        self.vswitch_attr
            .get(i)
            .copied()
            .unwrap_or(Attribution::Unattributed)
    }

    /// Charges `d` of work at `layer` to `tenant` (or unresolved).
    pub fn charge(&mut self, layer: Layer, tenant: Option<usize>, d: Dur) {
        let l = layer.idx();
        self.total[l] += d;
        match tenant {
            Some(t) if t < self.tenants => self.truth[t][l] += d,
            _ => self.unresolved[l] += d,
        }
    }

    /// Charges `d` of vswitch-datapath work on vswitch `i` to `tenant`.
    ///
    /// Updates both the per-vswitch ledgers (billing's input) and the
    /// [`Layer::Vswitch`] layer ledger.
    pub fn charge_vswitch(&mut self, i: usize, tenant: Option<usize>, d: Dur) {
        self.charge(Layer::Vswitch, tenant, d);
        if let Some(slot) = self.vswitch_total.get_mut(i) {
            *slot += d;
        }
        match tenant {
            Some(t) if t < self.tenants => {
                if let Some(row) = self.vswitch_truth.get_mut(i) {
                    row[t] += d;
                }
            }
            _ => {
                if let Some(slot) = self.vswitch_unresolved.get_mut(i) {
                    *slot += d;
                }
            }
        }
    }

    /// Total work charged at `layer`.
    pub fn layer_total(&self, layer: Layer) -> Dur {
        self.total[layer.idx()]
    }

    /// Ground-truth work at `layer` caused by `tenant`.
    pub fn layer_truth(&self, layer: Layer, tenant: usize) -> Dur {
        self.truth
            .get(tenant)
            .map(|row| row[layer.idx()])
            .unwrap_or(Dur::ZERO)
    }

    /// Ground-truth vswitch-datapath work caused by `tenant`, across all
    /// vswitches — the billing-accuracy experiment's reference value.
    pub fn tenant_vswitch_truth(&self, tenant: usize) -> Dur {
        let mut sum = Dur::ZERO;
        for row in &self.vswitch_truth {
            sum += row.get(tenant).copied().unwrap_or(Dur::ZERO);
        }
        sum
    }

    /// Internal conservation: for every layer,
    /// `Σ per-tenant truth + unresolved == total`. Holds by construction;
    /// verified anyway so a future refactor cannot silently break it.
    pub fn internally_consistent(&self) -> bool {
        for layer in Layer::ALL {
            let l = layer.idx();
            let mut sum = self.unresolved[l];
            for row in &self.truth {
                sum += row[l];
            }
            if sum != self.total[l] {
                return false;
            }
        }
        for (i, total) in self.vswitch_total.iter().enumerate() {
            let mut sum = self.vswitch_unresolved[i];
            for d in &self.vswitch_truth[i] {
                sum += *d;
            }
            if sum != *total {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_split_between_truth_and_unresolved() {
        let mut m = CycleMeters::new(2, vec![Attribution::Exact, Attribution::Proportional]);
        m.charge(Layer::NicVeb, Some(0), Dur::nanos(100));
        m.charge(Layer::NicVeb, Some(1), Dur::nanos(50));
        m.charge(Layer::NicVeb, None, Dur::nanos(7));
        m.charge(Layer::NicVeb, Some(99), Dur::nanos(3)); // out of range -> unresolved
        assert_eq!(m.layer_total(Layer::NicVeb), Dur::nanos(160));
        assert_eq!(m.layer_truth(Layer::NicVeb, 0), Dur::nanos(100));
        assert_eq!(m.layer_truth(Layer::NicVeb, 1), Dur::nanos(50));
        assert_eq!(m.unresolved[Layer::NicVeb.idx()], Dur::nanos(10));
        assert!(m.internally_consistent());
    }

    #[test]
    fn vswitch_charges_feed_both_ledgers() {
        let mut m = CycleMeters::new(2, vec![Attribution::Exact, Attribution::Exact]);
        m.charge_vswitch(0, Some(0), Dur::nanos(40));
        m.charge_vswitch(1, Some(1), Dur::nanos(25));
        m.charge_vswitch(1, None, Dur::nanos(5));
        assert_eq!(m.layer_total(Layer::Vswitch), Dur::nanos(70));
        assert_eq!(m.vswitch_total[0], Dur::nanos(40));
        assert_eq!(m.vswitch_total[1], Dur::nanos(30));
        assert_eq!(m.vswitch_truth[1][1], Dur::nanos(25));
        assert_eq!(m.vswitch_unresolved[1], Dur::nanos(5));
        assert_eq!(m.tenant_vswitch_truth(1), Dur::nanos(25));
        assert!(m.internally_consistent());
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = Layer::ALL.iter().map(|l| l.label()).collect();
        assert_eq!(
            labels,
            vec![
                "nic-veb",
                "vswitch",
                "vhost",
                "host-kernel",
                "overlay-encap",
                "tenant-vm"
            ]
        );
        assert_eq!(Attribution::Exact.label(), "exact");
        assert_eq!(Attribution::Proportional.label(), "proportional");
        assert_eq!(Attribution::Unattributed.label(), "unattributed");
    }
}
