// Package storage implements the two storage architectures the paper
// compares (§3.4, Figure 10): node-local disks and a shared file system
// (GPFS). Both expose block reads and writes as simulated I/O over the
// cluster's contended links, plus the block-location metadata the
// data-locality scheduler consults.
//
// Blocks are identified by their interned datum ID (see dag.Interner), so
// location metadata lives in flat slices indexed by ID — the per-access
// lookup the scheduler and the task lifecycle perform is a bounds check
// and a load, not a string hash.
//
// With local disks, a block read from the node that holds it costs only
// that node's disk; a remote read streams disk → network (owner's NIC and
// reader's NIC both traversed). With the shared architecture, every access
// crosses the reader's NIC and the cluster-wide GPFS backend pipe, adding
// the network latency and resource contention the paper attributes to
// shared disks.
//
// A System decides where bytes go, not when: Read and Write return the
// Path of contended links an access streams through, and the caller drives
// its own continuation across the legs in order (sim.Link.Transfer), then
// records a written block with Place the instant the last leg completes.
package storage

import (
	"fmt"

	"wfsim/internal/cluster"
	"wfsim/internal/sim"
)

// Architecture enumerates the paper's storage factor (Table 1, factor g).
type Architecture int

const (
	// Shared is the decoupled processing/storage architecture (GPFS) —
	// the paper's default.
	Shared Architecture = iota
	// Local uses node-local disks.
	Local
)

func (a Architecture) String() string {
	if a == Local {
		return "local disk"
	}
	return "shared disk"
}

// MaxLegs bounds the links one block access traverses: a remote local-disk
// read streams owner disk → owner NIC → reader NIC.
const MaxLegs = 3

// Path is the ordered chain of links one block access streams through, each
// leg transferring the block's full size after the previous one completes.
type Path struct {
	Links [MaxLegs]*sim.Link
	N     int // legs in use: Links[:N]
}

// PathOf builds a Path over the given legs, in streaming order.
func PathOf(legs ...*sim.Link) Path {
	var p Path
	p.N = copy(p.Links[:], legs)
	return p
}

// System is a simulated storage architecture.
type System interface {
	// Arch identifies the architecture.
	Arch() Architecture
	// Place records the location of a block (Local) or its presence on the
	// backend (Shared): its initial placement, and the commit of a write or
	// re-stage once the access's last leg completes. Node is ignored for
	// Shared.
	Place(id int32, node int)
	// Location returns the node holding the block and true, or -1 and
	// false when the block has no node affinity (shared storage or
	// unknown block). The data-locality scheduler uses this.
	Location(id int32) (int, bool)
	// Read returns the path the block's bytes stream through to reach the
	// reader node. A block the system has no record of is an explicit
	// miss: Read returns (Path{}, false). In a fault-free run a miss is a
	// placement bug (the runtime asserts on it); under fault injection it
	// means the block died with a node's local disk and must be recovered.
	Read(reader *cluster.Node, id int32) (Path, bool)
	// Write returns the path a block streams through from the writer node
	// into storage. The caller commits the block's new location with Place
	// when the last leg completes.
	Write(writer *cluster.Node) Path
	// Invalidate discards every block whose only copy lives on the given
	// node (a crash takes the node's local disk with it) and returns the
	// number of blocks lost. Shared storage survives node loss untouched
	// and always returns 0.
	Invalidate(node int) int
	// Drop forgets one block (an aborted attempt's write on a crashed
	// node). A no-op for shared storage, where writes are durable.
	Drop(id int32)
}

// LocalDisks is the node-local architecture.
type LocalDisks struct {
	c   *cluster.Cluster
	loc []int32 // datum ID -> holding node, -1 unknown
}

// NewLocal creates a local-disk system over the cluster, pre-sized for
// numData distinct datum IDs (more are accommodated on demand).
func NewLocal(c *cluster.Cluster, numData int) *LocalDisks {
	l := &LocalDisks{c: c, loc: make([]int32, numData)}
	for i := range l.loc {
		l.loc[i] = -1
	}
	return l
}

// grow extends the location table to cover id.
func (l *LocalDisks) grow(id int32) {
	for int(id) >= len(l.loc) {
		l.loc = append(l.loc, -1)
	}
}

// Arch implements System.
func (l *LocalDisks) Arch() Architecture { return Local }

// Place implements System.
func (l *LocalDisks) Place(id int32, node int) {
	l.grow(id)
	l.loc[id] = int32(node)
}

// Location implements System.
func (l *LocalDisks) Location(id int32) (int, bool) {
	if int(id) >= len(l.loc) || l.loc[id] < 0 {
		return -1, false
	}
	return int(l.loc[id]), true
}

// Read implements System. Local hits cost the node disk; remote reads
// stream through the owner's disk, the owner's NIC and the reader's NIC.
// An unplaced block is a miss, not a free local hit — silently treating it
// as local scratch masked placement bugs and made lost blocks
// unobservable.
func (l *LocalDisks) Read(reader *cluster.Node, id int32) (Path, bool) {
	owner, ok := l.Location(id)
	if !ok {
		return Path{}, false
	}
	if owner == reader.ID {
		return PathOf(reader.Disk), true
	}
	ownerNode := l.c.Node(owner)
	return PathOf(ownerNode.Disk, ownerNode.NIC, reader.NIC), true
}

// Invalidate implements System: a crashed node's disk contents are gone.
func (l *LocalDisks) Invalidate(node int) int {
	lost := 0
	for i, n := range l.loc {
		if n == int32(node) {
			l.loc[i] = -1
			lost++
		}
	}
	return lost
}

// Drop implements System.
func (l *LocalDisks) Drop(id int32) {
	if int(id) < len(l.loc) {
		l.loc[id] = -1
	}
}

// Write implements System. Output blocks land on the writer's local disk,
// which is what makes locality scheduling matter downstream.
func (l *LocalDisks) Write(writer *cluster.Node) Path { return PathOf(writer.Disk) }

// SharedDisk is the GPFS-style decoupled architecture.
type SharedDisk struct {
	c     *cluster.Cluster
	known []bool // datum ID -> present on the backend
}

// NewShared creates a shared-disk system over the cluster, pre-sized for
// numData distinct datum IDs.
func NewShared(c *cluster.Cluster, numData int) *SharedDisk {
	return &SharedDisk{c: c, known: make([]bool, numData)}
}

// grow extends the presence table to cover id.
func (s *SharedDisk) grow(id int32) {
	for int(id) >= len(s.known) {
		s.known = append(s.known, false)
	}
}

// Arch implements System.
func (s *SharedDisk) Arch() Architecture { return Shared }

// Place implements System.
func (s *SharedDisk) Place(id int32, node int) {
	s.grow(id)
	s.known[id] = true
}

// Location implements System: shared storage has no node affinity, so the
// locality scheduler gets no signal — matching the paper's finding that
// scheduling-policy changes behave differently on shared disk.
func (s *SharedDisk) Location(id int32) (int, bool) { return -1, false }

// Read implements System: reader NIC + shared backend, both contended.
// A block never written to the backend is a miss.
func (s *SharedDisk) Read(reader *cluster.Node, id int32) (Path, bool) {
	if int(id) >= len(s.known) || !s.known[id] {
		return Path{}, false
	}
	return PathOf(reader.NIC, s.c.Shared), true
}

// Invalidate implements System: the decoupled backend survives node loss.
func (s *SharedDisk) Invalidate(node int) int { return 0 }

// Drop implements System: shared writes are durable once issued.
func (s *SharedDisk) Drop(id int32) {}

// Write implements System: writer NIC + shared backend.
func (s *SharedDisk) Write(writer *cluster.Node) Path { return PathOf(writer.NIC, s.c.Shared) }

// New constructs the architecture selected by arch, pre-sized for numData
// distinct datum IDs.
func New(arch Architecture, c *cluster.Cluster, numData int) (System, error) {
	switch arch {
	case Local:
		return NewLocal(c, numData), nil
	case Shared:
		return NewShared(c, numData), nil
	default:
		return nil, fmt.Errorf("storage: unknown architecture %d", arch)
	}
}
