package mpi

import (
	"cmp"
	"slices"
	"sync"
)

// Communicator splitting (MPI_Comm_split): the sub-communicators the
// 2-D data × pipeline trainers run their per-axis collectives on.

// commTagStride is the width of one communicator's tag block: user tags
// [0, maxUserTag) plus the internal collective band above them.
const commTagStride = maxUserTag * 64

// group is the state the members of one communicator share. The world
// communicator is group 0 over the identity member list; every other
// group comes out of a Split rendezvous, which hands it a world-unique id.
// The id fixes the group's tag block [id·commTagStride, (id+1)·commTagStride)
// — so two groups never share a tag even when they share members, which is
// what keeps receives on sibling groups apart even when the same two world
// ranks talk on the same group-local tag in both — and is the CommID its
// traced p2p spans carry.
type group struct {
	id      int
	members []int // world rank of each group rank, in group order
	tagBase int
	ring    []ringSlot // the ring collectives' slots, one per member (ring.go)
	split   splitState // rendezvous for Split calls on this group
	gce     gceRound   // this group's slot in the world's collective engine
}

func newGroup(id int, members []int) *group {
	g := &group{id: id, members: members, tagBase: id * commTagStride, ring: make([]ringSlot, len(members))}
	g.split.cond = sync.NewCond(&g.split.mu)
	return g
}

// splitState coordinates one Split call across a group's members.
type splitState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	gen     int
	entries []splitEntry
	result  []splitResult // indexed by the caller's rank in the parent group
}

type splitEntry struct {
	rank, color, key int
}

type splitResult struct {
	g    *group // nil for a rank that passed a negative color
	rank int
}

// Split partitions the communicator by color, ordering each group by
// (key, rank), and returns this rank's handle on its new group — the
// semantics of MPI_Comm_split. It is a collective call: every member must
// invoke it. A negative color means "not in any group" and returns a nil
// Communicator. The result is a *Comm, so it can be split again.
func (c *Comm) Split(color, key int) Communicator {
	if sub := c.split(color, key); sub != nil {
		return sub
	}
	return nil // an untyped nil, not a (*Comm)(nil) boxed in the interface
}

func (c *Comm) split(color, key int) *Comm {
	defer c.collective(KindSplit, 0, "")()
	st := &c.g.split
	st.mu.Lock()
	gen := st.gen
	st.entries = append(st.entries, splitEntry{rank: c.rank, color: color, key: key})
	if len(st.entries) == c.Size() {
		// Last arriver builds every new group. Entries sort by (color, key,
		// rank) and ids are drawn in that order, so for splits issued on one
		// communicator at a time the id of each group — hence its tag block
		// and trace CommID — is the same on every run.
		es := st.entries
		slices.SortFunc(es, func(a, b splitEntry) int {
			return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.rank, b.rank))
		})
		st.result = make([]splitResult, len(es))
		for lo := 0; lo < len(es); {
			hi := lo
			for hi < len(es) && es[hi].color == es[lo].color {
				hi++
			}
			if es[lo].color >= 0 {
				members := make([]int, hi-lo)
				for i, e := range es[lo:hi] {
					members[i] = c.g.members[e.rank]
				}
				g := newGroup(int(c.world.commIDs.Add(1)), members)
				for i, e := range es[lo:hi] {
					st.result[e.rank] = splitResult{g: g, rank: i}
				}
			}
			lo = hi
		}
		st.entries = nil
		st.gen++
		st.cond.Broadcast()
	}
	for st.gen == gen {
		st.cond.Wait()
	}
	res := st.result[c.rank]
	st.mu.Unlock()
	if res.g == nil {
		return nil
	}
	return &Comm{world: c.world, g: res.g, rank: res.rank, wrank: c.wrank}
}
