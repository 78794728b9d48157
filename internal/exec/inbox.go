package exec

import (
	"sync"

	"ctpquery/internal/core"
	"ctpquery/internal/tree"
)

// taskKind tags the exchange traffic between workers.
type taskKind uint8

const (
	// taskInit carries an Init tree to its seed's owner (coordinator only).
	taskInit taskKind = iota
	// taskGrows routes a tree's Grow steps toward one far endpoint owner;
	// the receiver queues them as one run and builds a tree per pop.
	taskGrows
	// taskMo carries a Mo re-rooting to the new root's owner.
	taskMo
)

// task is one exchange message. For taskGrows, t is the parent tree and
// steps, all at priority prio, are its Grow opportunities whose new roots
// the receiver owns, in the sender's order — they live in the sender's
// step slab until the search ends. For the other kinds, t is the tree
// itself.
type task struct {
	kind  taskKind
	t     *tree.Tree
	steps []core.Step
	prio  float64
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
