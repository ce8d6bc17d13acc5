//! Shared-link occupancy: the contention model consumed by the event-driven
//! runtime simulator.
//!
//! The analytic [`CommModel`](crate::CommModel) prices every transfer as if it
//! ran alone on the wire. Real clusters are not so polite: several concurrent
//! flows crossing the same NVLink fabric or the same node's network uplink
//! share its bandwidth. This module gives transfers an explicit *link
//! footprint* — the set of shared physical resources a flow occupies — and a
//! [`LinkOccupancy`] tracker that reports, for any footprint, the worst
//! congestion (number of concurrent flows) on any of its links. A flow-level
//! simulator divides the flow's nominal bandwidth by that congestion factor,
//! which is the classic equal-share approximation of max-min fairness.

use crate::{ClusterSpec, DeviceGroup, NodeId};

/// One shared physical communication resource of the cluster.
///
/// The granularity matches what the simulator needs to express the two
/// contention effects that matter for wave execution: intra-island transfers
/// contending on a node's NVLink fabric, and inter-island transfers contending
/// on a node's network uplink/downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkId {
    /// The NVLink/NVSwitch fabric of one node (island). All intra-island
    /// transfers on that node share it.
    IslandBus(NodeId),
    /// The egress side of a node's inter-island network interface.
    Uplink(NodeId),
    /// The ingress side of a node's inter-island network interface.
    Downlink(NodeId),
    /// A node's link to the checkpoint storage fabric (see
    /// [`StorageSpec`](crate::StorageSpec)). Checkpoint writes and restores
    /// of that node's devices share it.
    StorageLink(NodeId),
    /// The shared storage spine every storage transfer crosses — the
    /// oversubscription point of the checkpoint tier.
    StorageSpine,
}

impl LinkId {
    /// Dense index of this link, independent of the cluster size: the spine
    /// is slot 0 and node `n`'s island bus, uplink, downlink and storage
    /// link are slots `4n+1` to `4n+4`.
    fn slot(self) -> usize {
        match self {
            LinkId::StorageSpine => 0,
            LinkId::IslandBus(n) => 4 * n.index() + 1,
            LinkId::Uplink(n) => 4 * n.index() + 2,
            LinkId::Downlink(n) => 4 * n.index() + 3,
            LinkId::StorageLink(n) => 4 * n.index() + 4,
        }
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkId::IslandBus(n) => write!(f, "bus:{n}"),
            LinkId::Uplink(n) => write!(f, "up:{n}"),
            LinkId::Downlink(n) => write!(f, "down:{n}"),
            LinkId::StorageLink(n) => write!(f, "store:{n}"),
            LinkId::StorageSpine => write!(f, "spine"),
        }
    }
}

/// The set of shared links a group-to-group transfer occupies.
///
/// Empty footprints (single-device or intra-device transfers) never contend.
/// The footprint is sorted and duplicate-free so footprints compare and hash
/// deterministically.
#[must_use]
pub fn transfer_footprint(
    cluster: &ClusterSpec,
    src: &DeviceGroup,
    dst: &DeviceGroup,
) -> Vec<LinkId> {
    let src_nodes = nodes_of(cluster, src);
    let dst_nodes = nodes_of(cluster, dst);
    let mut links = Vec::new();
    if src_nodes.len() == 1 && src_nodes == dst_nodes {
        // Same island: a pure NVLink transfer, unless it is one device talking
        // to itself (a local copy contends with nothing).
        let same_single_device = src.len() == 1 && dst.len() == 1 && src.devices() == dst.devices();
        if !same_single_device {
            links.push(LinkId::IslandBus(src_nodes[0]));
        }
    } else {
        for &n in &src_nodes {
            links.push(LinkId::Uplink(n));
        }
        for &n in &dst_nodes {
            links.push(LinkId::Downlink(n));
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// The set of shared links an intra-group collective (e.g. the gradient
/// all-reduce of a parameter device group) occupies.
#[must_use]
pub fn collective_footprint(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<LinkId> {
    let nodes = nodes_of(cluster, group);
    let mut links = Vec::new();
    if nodes.len() <= 1 {
        if group.len() > 1 {
            if let Some(&n) = nodes.first() {
                links.push(LinkId::IslandBus(n));
            }
        }
    } else {
        // A hierarchical all-reduce touches every participating island's
        // fabric and both directions of its uplink (ring neighbours).
        for &n in &nodes {
            links.push(LinkId::IslandBus(n));
            links.push(LinkId::Uplink(n));
            links.push(LinkId::Downlink(n));
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

fn nodes_of(cluster: &ClusterSpec, group: &DeviceGroup) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = group
        .iter()
        .filter_map(|d| cluster.node_of(d).ok())
        .collect();
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// Tracks which active flows occupy each shared link.
///
/// The tracker is deliberately simple — register a flow's footprint when it
/// starts, release it when the flow completes, and ask for the congestion of
/// any footprint in between. A flow is named by a caller-chosen id, so a
/// simulator can also ask which flows share a link ([`LinkOccupancy::flows`])
/// and reprice only those. All operations are deterministic: the flows are
/// kept in one vector of per-link lists indexed by a dense link slot, grown
/// to the highest node registered.
#[derive(Debug, Clone, Default)]
pub struct LinkOccupancy {
    /// The flows on each link, by slot; a flow is listed once for each
    /// occurrence of the link in its footprint.
    links: Vec<Vec<usize>>,
}

impl LinkOccupancy {
    /// Creates an empty tracker.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the active flow `flow` occupying `footprint`.
    pub fn register(&mut self, flow: usize, footprint: &[LinkId]) {
        for &link in footprint {
            let slot = link.slot();
            if slot >= self.links.len() {
                self.links.resize_with(slot + 1, Vec::new);
            }
            self.links[slot].push(flow);
        }
    }

    /// Releases the flow `flow` from `footprint`.
    ///
    /// Releasing a flow from links it was never registered on is a no-op
    /// (the tracker saturates at zero rather than underflowing).
    pub fn release(&mut self, flow: usize, footprint: &[LinkId]) {
        for &link in footprint {
            if let Some(listed) = self.links.get_mut(link.slot()) {
                if let Some(at) = listed.iter().position(|&f| f == flow) {
                    listed.swap_remove(at);
                }
            }
        }
    }

    /// The flows on `link`, in no particular order.
    #[must_use]
    pub fn flows(&self, link: LinkId) -> &[usize] {
        self.links.get(link.slot()).map_or(&[], Vec::as_slice)
    }

    /// Number of active flows on `link`.
    #[must_use]
    pub fn flows_on(&self, link: LinkId) -> usize {
        self.flows(link).len()
    }

    /// Worst-case congestion over `footprint`: the maximum number of
    /// concurrent flows on any of its links, at least 1 (a flow always has
    /// itself). A registered flow asking about its own footprint therefore
    /// gets `1` when it runs alone and `k` when `k` flows share its most
    /// contended link.
    #[must_use]
    pub fn congestion(&self, footprint: &[LinkId]) -> usize {
        footprint
            .iter()
            .map(|&l| self.flows_on(l))
            .max()
            .unwrap_or(0)
            .max(1)
    }

    /// Number of links currently carrying at least one flow.
    #[must_use]
    pub fn busy_links(&self) -> usize {
        self.links.iter().filter(|flows| !flows.is_empty()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceId;

    fn cluster() -> ClusterSpec {
        ClusterSpec::homogeneous(2, 4)
    }

    #[test]
    fn intra_island_transfer_occupies_the_island_bus() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let dst = DeviceGroup::contiguous(DeviceId(2), 2);
        assert_eq!(
            transfer_footprint(&c, &src, &dst),
            vec![LinkId::IslandBus(NodeId(0))]
        );
    }

    #[test]
    fn self_transfer_contends_with_nothing() {
        let c = cluster();
        let g = DeviceGroup::contiguous(DeviceId(1), 1);
        assert!(transfer_footprint(&c, &g, &g).is_empty());
    }

    #[test]
    fn cross_island_transfer_occupies_uplink_and_downlink() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let dst = DeviceGroup::contiguous(DeviceId(4), 2);
        assert_eq!(
            transfer_footprint(&c, &src, &dst),
            vec![LinkId::Uplink(NodeId(0)), LinkId::Downlink(NodeId(1))]
        );
    }

    #[test]
    fn collective_footprints_scale_with_span() {
        let c = cluster();
        let single = DeviceGroup::contiguous(DeviceId(0), 1);
        assert!(collective_footprint(&c, &single).is_empty());
        let intra = DeviceGroup::contiguous(DeviceId(0), 4);
        assert_eq!(
            collective_footprint(&c, &intra),
            vec![LinkId::IslandBus(NodeId(0))]
        );
        let cross = DeviceGroup::contiguous(DeviceId(2), 4);
        let links = collective_footprint(&c, &cross);
        assert_eq!(links.len(), 6); // bus + up + down per island
        assert!(links.contains(&LinkId::Uplink(NodeId(1))));
    }

    #[test]
    fn occupancy_counts_and_saturates() {
        let c = cluster();
        let src = DeviceGroup::contiguous(DeviceId(0), 2);
        let near = DeviceGroup::contiguous(DeviceId(2), 2);
        let far = DeviceGroup::contiguous(DeviceId(4), 2);
        let f1 = transfer_footprint(&c, &src, &near);
        let f2 = transfer_footprint(&c, &src, &far);
        let mut occ = LinkOccupancy::new();
        assert_eq!(occ.congestion(&f1), 1);
        occ.register(0, &f1);
        occ.register(1, &f1);
        assert_eq!(occ.congestion(&f1), 2);
        // The cross-island flow does not contend with the NVLink flow.
        occ.register(2, &f2);
        assert_eq!(occ.congestion(&f2), 1);
        assert_eq!(occ.busy_links(), 3);
        occ.release(0, &f1);
        assert_eq!(occ.congestion(&f1), 1);
        occ.release(1, &f1);
        occ.release(1, &f1); // over-release saturates
        assert_eq!(occ.flows_on(LinkId::IslandBus(NodeId(0))), 0);
        assert_eq!(occ.congestion(&[]), 1);
    }

    fn every_link(nodes: u32) -> Vec<LinkId> {
        let mut links: Vec<LinkId> = (0..nodes)
            .flat_map(|n| {
                let n = NodeId(n);
                [
                    LinkId::IslandBus(n),
                    LinkId::Uplink(n),
                    LinkId::Downlink(n),
                    LinkId::StorageLink(n),
                ]
            })
            .collect();
        links.push(LinkId::StorageSpine);
        links
    }

    #[test]
    fn every_link_maps_to_a_distinct_dense_slot() {
        let links = every_link(8);
        let mut slots: Vec<usize> = links.iter().map(|l| l.slot()).collect();
        slots.sort_unstable();
        // Distinct and dense: the 33 links of 8 nodes fill slots 0..33.
        assert_eq!(slots, (0..links.len()).collect::<Vec<_>>());
    }

    #[test]
    fn release_of_an_unregistered_flow_saturates_at_zero() {
        let mut occ = LinkOccupancy::new();
        occ.release(0, &[LinkId::Uplink(NodeId(1)), LinkId::StorageSpine]);
        assert_eq!(occ.busy_links(), 0);
        occ.register(1, &[LinkId::Uplink(NodeId(1))]);
        // Another flow's release leaves the registered one in place.
        occ.release(2, &[LinkId::Uplink(NodeId(1)), LinkId::Downlink(NodeId(7))]);
        assert_eq!(occ.flows(LinkId::Uplink(NodeId(1))), &[1]);
    }

    #[test]
    fn empty_footprint_has_congestion_one() {
        let mut occ = LinkOccupancy::new();
        assert_eq!(occ.congestion(&[]), 1);
        occ.register(0, &every_link(2));
        assert_eq!(occ.congestion(&[]), 1);
    }

    #[test]
    fn duplicated_link_counts_twice() {
        let up = LinkId::Uplink(NodeId(0));
        let footprint = [up, up, LinkId::StorageSpine];
        let mut occ = LinkOccupancy::new();
        occ.register(3, &footprint);
        assert_eq!(occ.flows(up), &[3, 3]);
        assert_eq!(occ.congestion(&[LinkId::StorageSpine]), 1);
        assert_eq!(occ.congestion(&footprint), 2);
        occ.release(3, &footprint);
        assert_eq!(occ.busy_links(), 0);
    }

    #[test]
    fn flows_lists_every_flow_on_a_link() {
        let mut occ = LinkOccupancy::new();
        occ.register(0, &every_link(2));
        occ.register(1, &[LinkId::Downlink(NodeId(5)), LinkId::StorageSpine]);
        occ.register(2, &[LinkId::StorageSpine]);
        let mut spine = occ.flows(LinkId::StorageSpine).to_vec();
        spine.sort_unstable();
        assert_eq!(spine, [0, 1, 2]);
        assert_eq!(occ.flows(LinkId::Downlink(NodeId(5))), &[1]);
        assert!(occ.flows(LinkId::Uplink(NodeId(9))).is_empty());
        occ.release(1, &[LinkId::StorageSpine]);
        assert_eq!(occ.flows_on(LinkId::StorageSpine), 2);
    }

    #[test]
    fn link_display_is_compact() {
        assert_eq!(LinkId::IslandBus(NodeId(0)).to_string(), "bus:node0");
        assert_eq!(LinkId::Uplink(NodeId(1)).to_string(), "up:node1");
        assert_eq!(LinkId::Downlink(NodeId(2)).to_string(), "down:node2");
    }
}
