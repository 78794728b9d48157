package exec

import (
	"sync"

	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// taskKind tags the exchange traffic between workers.
type taskKind uint8

const (
	// taskInit carries an Init tree to its seed's owner (coordinator only).
	taskInit taskKind = iota
	// taskGrowOp routes a Grow opportunity to the owner of the edge's far
	// endpoint; the receiver queues it and builds the tree on pop.
	taskGrowOp
	// taskMo carries a Mo re-rooting to the new root's owner.
	taskMo
)

// task is one exchange message. For taskGrowOp, t is the parent tree and
// (e, prio) the opportunity; for the other kinds, t is the tree itself.
type task struct {
	kind taskKind
	t    *tree.Tree
	e    graph.EdgeID
	prio float64
}

// inbox is a worker's one exchange channel: every peer appends to items
// under mu. Two buffers alternate: senders append to items while the
// receiver processes the previously drained slice, which it hands back as
// free — so at steady state the exchange reuses capacity instead of
// growing fresh slices (free is touched only by the receiver).
type inbox struct {
	mu    sync.Mutex
	items []task
	free  []task
}
