//! Virtual-channel state: input buffers.
//!
//! The flits themselves live in flat storage owned by
//! [`Network`](crate::Network): every link input VC owns a fixed-stride
//! window of `capacity` slots in one shared ring array, and every injection
//! VC — which holds at most one message, all of whose flits are at the
//! source — is a [`InjectionCursor`] over that message. No input VC owns a
//! heap allocation, so a link move touches contiguous memory.
//!
//! The sending side (output-VC reservations and credits) lives directly in
//! [`Network`](crate::Network) as parallel `out_owner` / `out_credits`
//! arrays, keeping the switch-allocation hot loop in compact memory.

use crate::{Flit, MessageId};

/// Where a routed input VC sends its flits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RouteTarget {
    /// Forward on the given output direction and physical VC index.
    Link {
        /// Packed direction index (`Direction::index()`).
        dir: u8,
        /// Physical VC index on that channel (`class * replicas + replica`).
        vc: u16,
    },
    /// Deliver locally: this node is the destination.
    Eject,
}

/// The receiving side of one virtual channel: the route of the message at
/// its front plus, for a link VC, the cursor of its flit ring.
///
/// The ring methods take the VC's window of the network's ring array
/// (`capacity` slots, `capacity ≤ 255`); injection VCs leave `head`, `len`
/// and `tails` at zero and keep their flits in an [`InjectionCursor`].
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct InputVc {
    /// Route of the message whose head has been routed; `None` while the
    /// front flit is an unrouted head (or the buffer is empty).
    pub route: Option<RouteTarget>,
    /// The message that owns `route`. Tracked so fault handling can find
    /// and revoke a message's reservations even after its flits have
    /// drained past this buffer (the route outlives the flits until the
    /// tail passes).
    pub route_msg: Option<MessageId>,
    /// Ring slot of the oldest buffered flit.
    head: u8,
    /// Buffered flits.
    len: u8,
    /// Number of tail/single flits currently in the buffer. Used by
    /// store-and-forward to detect "message fully arrived".
    tails: u8,
}

impl InputVc {
    /// Buffered flits.
    pub fn len(&self) -> u32 {
        u32::from(self.len)
    }

    /// Appends an arriving flit to the ring window `ring`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the window is full: credit flow control
    /// must prevent that.
    #[inline]
    pub fn push(&mut self, ring: &mut [Flit], flit: Flit) {
        debug_assert!(
            usize::from(self.len) < ring.len(),
            "credit flow control must prevent overflow"
        );
        if flit.kind.is_tail() {
            self.tails += 1;
        }
        let mut slot = usize::from(self.head) + usize::from(self.len);
        if slot >= ring.len() {
            slot -= ring.len();
        }
        ring[slot] = flit;
        self.len += 1;
    }

    /// Pops the front flit of the ring window `ring`. Clears the route when
    /// the tail leaves.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the buffer is empty.
    #[inline]
    pub fn pop(&mut self, ring: &[Flit]) -> Flit {
        debug_assert!(self.len > 0, "pop from non-empty buffer");
        let flit = ring[usize::from(self.head)];
        self.head += 1;
        if usize::from(self.head) == ring.len() {
            self.head = 0;
        }
        self.len -= 1;
        if flit.kind.is_tail() {
            self.tails -= 1;
            self.clear_route();
        }
        flit
    }

    /// Forgets the route: the message's tail has left this VC.
    #[inline]
    pub fn clear_route(&mut self) {
        self.route = None;
        self.route_msg = None;
    }

    /// The flit at the front, if any.
    #[inline]
    pub fn front(&self, ring: &[Flit]) -> Option<Flit> {
        (self.len > 0).then(|| ring[usize::from(self.head)])
    }

    /// The buffered flits, oldest first.
    pub fn flits<'a>(&self, ring: &'a [Flit]) -> impl Iterator<Item = Flit> + 'a {
        let (head, len) = (usize::from(self.head), usize::from(self.len));
        (0..len).map(move |i| ring[(head + i) % ring.len()])
    }

    /// Removes every flit of `msg` from the ring window (fault handling),
    /// keeping the other flits in order.
    ///
    /// Returns the number of flits removed and whether the *front* flit
    /// belonged to `msg` (in which case the caller must re-examine the new
    /// front). Does not touch `route`/`route_msg` — the caller revokes
    /// those explicitly.
    pub fn purge_message(&mut self, ring: &mut [Flit], msg: MessageId) -> (u32, bool) {
        let cap = ring.len();
        let head = usize::from(self.head);
        let front_was_msg = self.front(ring).is_some_and(|f| f.msg == msg);
        // Compact the survivors toward the head: the write index never
        // overtakes the read index, so no survivor is overwritten unread.
        let mut kept = 0;
        for i in 0..usize::from(self.len) {
            let flit = ring[(head + i) % cap];
            if flit.msg == msg {
                if flit.kind.is_tail() {
                    self.tails -= 1;
                }
            } else {
                ring[(head + kept) % cap] = flit;
                kept += 1;
            }
        }
        let removed = u32::from(self.len) - kept as u32;
        self.len = kept as u8;
        (removed, front_was_msg)
    }

    /// Whether the message at the front is fully buffered (its tail is in
    /// the buffer) — the store-and-forward forwarding condition.
    pub fn front_message_complete(&self) -> bool {
        self.tails > 0
    }
}

/// The contents of an injection VC: the flits of one message that have not
/// yet left the source, as a cursor instead of a buffer. An injection VC is
/// handed a message only when it is empty and unrouted, so it never holds
/// flits of two messages.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InjectionCursor {
    msg: MessageId,
    /// Index of the next flit to leave.
    next: u32,
    /// Flits in the message.
    length: u32,
}

impl Default for InjectionCursor {
    fn default() -> Self {
        InjectionCursor {
            msg: MessageId(0),
            next: 0,
            length: 0,
        }
    }
}

impl InjectionCursor {
    /// A cursor holding all `length` flits of `msg`.
    pub fn new(msg: MessageId, length: u32) -> Self {
        InjectionCursor {
            msg,
            next: 0,
            length,
        }
    }

    /// Flits still at the source.
    pub fn len(&self) -> u32 {
        self.length - self.next
    }

    /// The flit at the front, if any.
    #[inline]
    pub fn front(&self) -> Option<Flit> {
        (self.next < self.length).then(|| Flit::nth(self.msg, self.next, self.length))
    }

    /// Pops the front flit.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the cursor is exhausted.
    #[inline]
    pub fn pop(&mut self) -> Flit {
        debug_assert!(self.next < self.length, "pop from non-empty cursor");
        let flit = Flit::nth(self.msg, self.next, self.length);
        self.next += 1;
        flit
    }

    /// The flits still at the source, oldest first.
    pub fn flits(&self) -> impl Iterator<Item = Flit> {
        let (msg, length) = (self.msg, self.length);
        (self.next..length).map(move |i| Flit::nth(msg, i, length))
    }

    /// Drops the remaining flits if they belong to `msg` (fault handling).
    /// Returns the number of flits removed and whether the front flit
    /// belonged to `msg`, as [`InputVc::purge_message`] does.
    pub fn purge_message(&mut self, msg: MessageId) -> (u32, bool) {
        if self.msg != msg || self.len() == 0 {
            return (0, false);
        }
        let removed = self.len();
        self.next = self.length;
        (removed, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlitKind, MessageId};

    #[test]
    fn tails_track_and_route_clears() {
        let mut ring = [Flit::nth(MessageId(0), 0, 1); 3];
        let mut vc = InputVc::default();
        for flit in Flit::sequence(MessageId(1), 3) {
            vc.push(&mut ring, flit);
        }
        assert_eq!(vc.tails, 1);
        assert!(vc.front_message_complete());
        vc.route = Some(RouteTarget::Eject);
        assert_eq!(vc.pop(&ring).kind, FlitKind::Head);
        assert!(vc.route.is_some(), "route persists until the tail leaves");
        vc.pop(&ring);
        assert_eq!(vc.pop(&ring).kind, FlitKind::Tail);
        assert_eq!(vc.route, None);
        assert_eq!(vc.tails, 0);
        assert_eq!(vc.len(), 0);
        assert_eq!(vc.front(&ring), None);
    }

    #[test]
    fn ring_wraps_in_fifo_order() {
        let mut ring = [Flit::nth(MessageId(0), 0, 1); 2];
        let mut vc = InputVc::default();
        let flits: Vec<Flit> = Flit::sequence(MessageId(5), 7).collect();
        vc.push(&mut ring, flits[0]);
        for pair in flits.windows(2) {
            vc.push(&mut ring, pair[1]);
            assert_eq!(vc.len(), 2);
            assert_eq!(vc.pop(&ring), pair[0]);
        }
        assert_eq!(vc.pop(&ring), flits[6]);
        assert_eq!(vc.len(), 0);
    }

    #[test]
    fn partial_message_is_incomplete() {
        let mut ring = [Flit::nth(MessageId(0), 0, 1); 4];
        let mut vc = InputVc::default();
        let flits: Vec<Flit> = Flit::sequence(MessageId(0), 4).collect();
        vc.push(&mut ring, flits[0]);
        vc.push(&mut ring, flits[1]);
        assert!(!vc.front_message_complete());
        vc.push(&mut ring, flits[2]);
        vc.push(&mut ring, flits[3]);
        assert!(vc.front_message_complete());
    }

    #[test]
    fn purge_removes_only_the_doomed_message() {
        let mut ring = [Flit::nth(MessageId(0), 0, 1); 6];
        let mut vc = InputVc::default();
        // Start mid-ring so the purge has to compact across the wrap.
        vc.push(&mut ring, Flit::nth(MessageId(9), 0, 1));
        vc.push(&mut ring, Flit::nth(MessageId(9), 0, 1));
        vc.pop(&ring);
        vc.pop(&ring);
        for flit in Flit::sequence(MessageId(1), 2) {
            vc.push(&mut ring, flit);
        }
        for flit in Flit::sequence(MessageId(2), 3) {
            vc.push(&mut ring, flit);
        }
        assert_eq!(vc.tails, 2);
        let (removed, front_was) = vc.purge_message(&mut ring, MessageId(1));
        assert_eq!(removed, 2);
        assert!(front_was);
        assert_eq!(vc.tails, 1);
        assert_eq!(vc.len(), 3);
        let left: Vec<Flit> = vc.flits(&ring).collect();
        let expected: Vec<Flit> = Flit::sequence(MessageId(2), 3).collect();
        assert_eq!(left, expected);
        let (removed, front_was) = vc.purge_message(&mut ring, MessageId(7));
        assert_eq!((removed, front_was), (0, false));
    }

    #[test]
    fn two_messages_in_one_buffer() {
        // A tail followed by the next message's head: after the tail pops,
        // the new head is at the front with no route.
        let mut ring = [Flit::nth(MessageId(0), 0, 1); 2];
        let mut vc = InputVc::default();
        vc.push(
            &mut ring,
            Flit {
                msg: MessageId(1),
                kind: FlitKind::Tail,
            },
        );
        vc.push(
            &mut ring,
            Flit {
                msg: MessageId(2),
                kind: FlitKind::Head,
            },
        );
        vc.route = Some(RouteTarget::Eject);
        vc.pop(&ring);
        assert_eq!(vc.route, None);
        assert_eq!(vc.front(&ring).unwrap().msg, MessageId(2));
        assert!(vc.front(&ring).unwrap().kind.is_head());
    }

    #[test]
    fn injection_cursor_streams_one_message() {
        let mut cursor = InjectionCursor::new(MessageId(4), 3);
        let expected: Vec<Flit> = Flit::sequence(MessageId(4), 3).collect();
        assert_eq!(cursor.flits().collect::<Vec<_>>(), expected);
        assert_eq!(cursor.front(), Some(expected[0]));
        assert_eq!(cursor.pop(), expected[0]);
        assert_eq!(cursor.len(), 2);
        assert_eq!(cursor.purge_message(MessageId(3)), (0, false));
        assert_eq!(cursor.purge_message(MessageId(4)), (2, true));
        assert_eq!(cursor.len(), 0);
        assert_eq!(cursor.front(), None);
        assert_eq!(InjectionCursor::default().len(), 0);
    }
}
