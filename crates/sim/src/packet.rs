//! Packets and flits.

/// The four transaction packet types of the paper's traffic model (§3.2).
///
/// "Read requests and write replies consist of a single flit, while read
/// replies and write requests comprise a head flit and four flits containing
/// payload data."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// 1-flit read request.
    ReadRequest,
    /// 5-flit write request (head + 4 payload).
    WriteRequest,
    /// 5-flit read reply.
    ReadReply,
    /// 1-flit write reply.
    WriteReply,
}

/// Payload flits per data-carrying packet in the paper's traffic model
/// ("a head flit and four flits containing payload data", §3.2).
pub const PAYLOAD_FLITS: usize = 4;

impl PacketKind {
    /// Number of flits in a packet of this kind (never zero, so there is
    /// deliberately no `is_empty`).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        match self {
            PacketKind::ReadRequest | PacketKind::WriteReply => 1,
            PacketKind::WriteRequest | PacketKind::ReadReply => 1 + PAYLOAD_FLITS,
        }
    }

    /// Mean flits per transaction (request plus its reply) under the
    /// 50/50 read/write mix — the offered-load divisor that converts a
    /// flits/cycle rate into a transaction firing probability, derived
    /// from the packet lengths.
    pub fn mean_transaction_flits() -> f64 {
        let read = PacketKind::ReadRequest.len() + PacketKind::ReadReply.len();
        let write = PacketKind::WriteRequest.len() + PacketKind::WriteReply.len();
        (read + write) as f64 / 2.0
    }

    /// Message class (0 = request, 1 = reply) — requests and replies use
    /// disjoint VC sets to break protocol deadlock at the network boundary
    /// (§4.2).
    pub fn msg_class(self) -> usize {
        match self {
            PacketKind::ReadRequest | PacketKind::WriteRequest => 0,
            PacketKind::ReadReply | PacketKind::WriteReply => 1,
        }
    }

    /// The reply kind generated when a request of this kind reaches its
    /// destination terminal.
    pub fn reply_kind(self) -> Option<PacketKind> {
        match self {
            PacketKind::ReadRequest => Some(PacketKind::ReadReply),
            PacketKind::WriteRequest => Some(PacketKind::WriteReply),
            _ => None,
        }
    }
}

/// Routing decision state carried by a packet's head flit: for UGAL, the
/// Valiant intermediate router still to be visited in phase 1 (`None` once
/// the packet routes minimally).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteState {
    /// Phase-1 intermediate router for non-minimal (Valiant) routing.
    pub intermediate: Option<usize>,
    /// Torus dateline routing: the packet has crossed the wraparound edge
    /// in the dimension it is currently traversing.
    pub crossed_dateline: bool,
    /// Which dimension the `crossed_dateline` flag refers to (false = x).
    pub dateline_in_y: bool,
}

/// The lookahead routing decision for the *next* router, computed one hop
/// upstream (§3.2: lookahead routing removes the routing logic from the
/// critical path).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lookahead {
    /// Output port to request at the next router.
    pub out_port: usize,
    /// Resource class of the VCs to acquire at that output.
    pub resource_class: usize,
}

/// One flit in flight.
#[derive(Clone, Copy, Debug)]
pub struct Flit {
    /// Unique packet id.
    pub packet_id: u64,
    /// Position within the packet (0 = head).
    pub flit_index: usize,
    /// True for the first flit of the packet.
    pub head: bool,
    /// True for the last flit (a 1-flit packet is both).
    pub tail: bool,
    /// Packet kind.
    pub kind: PacketKind,
    /// Source terminal.
    pub src: usize,
    /// Destination terminal.
    pub dest: usize,
    /// Cycle the packet was created (entered the source queue).
    pub birth: u64,
    /// Cycle the head flit left the source queue into the network.
    pub injected: u64,
    /// Lookahead route for the router this flit is heading to (meaningful
    /// on head flits; body flits follow their VC's state).
    pub lookahead: Lookahead,
    /// Adaptive-routing state (head flits).
    pub route_state: RouteState,
}

impl Flit {
    /// Message class of the packet this flit belongs to.
    pub fn msg_class(&self) -> usize {
        self.kind.msg_class()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flit_counts_match_paper() {
        assert_eq!(PacketKind::ReadRequest.len(), 1);
        assert_eq!(PacketKind::WriteReply.len(), 1);
        assert_eq!(PacketKind::WriteRequest.len(), 5);
        assert_eq!(PacketKind::ReadReply.len(), 5);
        // A read transaction and a write transaction are both 6 flits total.
        for k in [PacketKind::ReadRequest, PacketKind::WriteRequest] {
            assert_eq!(k.len() + k.reply_kind().unwrap().len(), 6);
        }
    }

    #[test]
    fn transaction_flits_derive_from_payload_size() {
        // 4 payload flits: a head plus payload each way, 6 flits per
        // transaction of either kind.
        assert_eq!(PacketKind::WriteRequest.len(), 1 + PAYLOAD_FLITS);
        assert_eq!(PacketKind::mean_transaction_flits(), 6.0);
    }

    #[test]
    fn classes_and_replies() {
        assert_eq!(PacketKind::ReadRequest.msg_class(), 0);
        assert_eq!(PacketKind::ReadReply.msg_class(), 1);
        assert_eq!(
            PacketKind::WriteRequest.reply_kind(),
            Some(PacketKind::WriteReply)
        );
        assert_eq!(PacketKind::ReadReply.reply_kind(), None);
        assert_eq!(PacketKind::WriteRequest.msg_class(), 0);
        assert_eq!(PacketKind::WriteReply.msg_class(), 1);
    }
}
