//! Logical audio devices (LOUDs).
//!
//! Virtual devices are organised within containers called logical audio
//! devices, which form tree hierarchies (paper §5.1). The root of a LOUD
//! tree controls and coordinates the audio streams of the tree: it is the
//! unit of mapping, activation and command queueing.

use crate::core::Claims;
use crate::queue::CommandQueue;
use da_proto::ids::{ClientId, LoudId};

/// One logical audio device.
#[derive(Debug)]
pub struct Loud {
    /// Resource id.
    pub id: LoudId,
    /// Owning client.
    pub owner: ClientId,
    /// Parent LOUD (raw id), `None` for roots.
    pub parent: Option<u32>,
    /// Child LOUDs (raw ids).
    pub children: Vec<u32>,
    /// Virtual devices directly contained (raw ids).
    pub vdevs: Vec<u32>,
    /// Whether the root is mapped (on the active stack). Meaningful for
    /// roots only.
    pub mapped: bool,
    /// Whether the server currently has the root activated.
    pub active: bool,
    /// The command queue (roots only, paper §5.1: "A command queue is
    /// provided for each root LOUD").
    pub queue: Option<CommandQueue>,
    /// Activation memo (roots only, DESIGN.md §5): the hardware claims
    /// that entered this root at its last trial bind...
    pub claims_in: Claims,
    /// ...and the claims it passed down the stack (equal to `claims_in`
    /// when the bind failed).
    pub claims_out: Claims,
    /// Set by every change to the tree's binding inputs (a device
    /// created, destroyed or augmented, the root mapped); the next
    /// activation walk re-binds the root.
    pub dirty: bool,
    /// A root's slot in the engine data plane, which holds its running
    /// queue node; assigned at plan build (under the write lock).
    pub slot: Option<u32>,
}

impl Loud {
    /// Creates a LOUD; roots get a command queue.
    pub fn new(id: LoudId, owner: ClientId, parent: Option<u32>) -> Self {
        let queue = if parent.is_none() { Some(CommandQueue::new()) } else { None };
        Loud {
            id,
            owner,
            parent,
            children: Vec::new(),
            vdevs: Vec::new(),
            mapped: false,
            active: false,
            queue,
            claims_in: Claims::default(),
            claims_out: Claims::default(),
            dirty: true,
            slot: None,
        }
    }

    /// Whether this LOUD is a root.
    pub fn is_root(&self) -> bool {
        self.parent.is_none()
    }
}
