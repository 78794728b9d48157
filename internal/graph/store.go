package graph

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ctpquery/internal/fault"
	"ctpquery/internal/hash64"
)

// compactPoint lets chaos tests kill a compaction mid-merge: the probe
// sits between pinning the pre-merge view and building the replacement
// base, so an armed panic or error aborts the rebuild after real work has
// started. The store must absorb the abort — the delta keeps serving, no
// published view is ever torn — which is exactly what the chaos suite
// asserts.
var compactPoint = fault.Register("graph.compact")

// Store is a live graph: an immutable CSR base plus a delta overlay
// (node/edge/type additions and edge deletions), published to readers as
// a sequence of immutable epoch views.
//
// Every Mutate applies one atomic batch to a private successor of the
// current view — bumping the epoch and chaining the fingerprint — and
// publishes it; View (and Snapshot) return the current view with one
// atomic load. A reader holds its view for the duration of a query — that
// is the entire pinning protocol: views are immutable, unreferenced ones
// are reclaimed by the garbage collector, and no reader can ever observe a
// half-applied batch because the swap is a single pointer store. The
// published view's overlay is the only copy of the delta.
//
// Once the accumulated delta crosses CompactThreshold logical operations,
// a background goroutine rebuilds a fresh CSR base from the current view
// and swaps it in, replaying any batches that arrived mid-rebuild.
// Compaction changes no logical content: the epoch and fingerprint are
// inherited, so query caches keyed on the fingerprint survive it (edge IDs
// may renumber — in-flight queries are unaffected because they hold the
// pre-compaction view).
type Store struct {
	mu  sync.Mutex // serializes writers: Mutate and the compaction swap
	cur atomic.Pointer[Graph]

	// batchLog holds every batch applied since the current base was built,
	// so a compaction can replay the suffix that arrived while it rebuilt.
	batchLog []Batch

	threshold     int
	compacting    bool
	baseGen       uint64
	compactions   uint64
	compactAborts uint64
	lastCompactNS int64
	wg            sync.WaitGroup

	obsMu    sync.Mutex
	observer func(CompactionInfo)
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// CompactThreshold is the number of logical delta operations (nodes or
	// edges added, edges deleted, types attached) that triggers a
	// background compaction. 0 selects the default (4096); negative
	// disables automatic compaction (CompactNow still works).
	CompactThreshold int
}

// DefaultCompactThreshold is the automatic-compaction trigger used when
// StoreOptions.CompactThreshold is zero.
const DefaultCompactThreshold = 4096

// Triple names an edge by node labels — the write-path mirror of the
// triples text format: node identity is by label.
type Triple struct {
	Source string
	Label  string
	Target string
}

// NodeAdd declares a node by label, with optional types. Adding a label
// that already names exactly one node is an upsert: missing types are
// attached, nothing else changes. An empty label always creates a fresh
// unlabeled node.
type NodeAdd struct {
	Label string
	Types []string
}

// TypeAdd attaches a type to an existing node (identified by label).
type TypeAdd struct {
	Node string
	Type string
}

// Batch is one atomic group of mutations. Operations apply in field order
// — AddNodes, AddTypes, AddEdges, DelEdges — and each list in declaration
// order, so an edge may reference a node added earlier in the same batch
// and a deletion may remove an edge the same batch added. Edge endpoints
// that name no existing node are created implicitly (like the triples
// loader); deletions remove every live edge matching the triple and are
// idempotent (zero matches is not an error). A batch either applies
// completely or — on a validation error such as an ambiguous node label —
// not at all.
type Batch struct {
	AddNodes []NodeAdd
	AddTypes []TypeAdd
	AddEdges []Triple
	DelEdges []Triple
}

// Empty reports whether the batch contains no operations.
func (b Batch) Empty() bool {
	return len(b.AddNodes) == 0 && len(b.AddTypes) == 0 &&
		len(b.AddEdges) == 0 && len(b.DelEdges) == 0
}

// MutateResult reports what one Mutate applied.
type MutateResult struct {
	Epoch        uint64
	Fingerprint  uint64
	NodesAdded   int
	EdgesAdded   int
	EdgesDeleted int
	TypesAdded   int
}

// StoreStats is a point-in-time snapshot of the store's shape.
type StoreStats struct {
	Epoch            uint64
	Fingerprint      uint64
	BaseGen          uint64 // how many times the base has been rebuilt
	BaseNodes        int
	BaseEdges        int
	AddedNodes       int
	DeltaEdges       int // live delta edges
	DeadEdges        int
	TypesAdded       int
	PendingOps       int // logical ops accumulated toward the threshold
	CompactThreshold int
	Compacting       bool
	Compactions      uint64
	CompactAborts    uint64
	LastCompactNS    int64
}

// CompactionInfo is delivered to the observer installed with
// SetCompactionObserver after every compaction attempt.
type CompactionInfo struct {
	Epoch    uint64
	BaseGen  uint64
	Duration time.Duration
	Aborted  bool
	Err      error
}

// NewStore wraps base — which must be a graph frozen by Build, or any
// epoch view (compacted first) — into a live Store at epoch 0.
func NewStore(base *Graph, opts StoreOptions) *Store {
	base = base.Compact()
	th := opts.CompactThreshold
	if th == 0 {
		th = DefaultCompactThreshold
	}
	s := &Store{threshold: th}
	v := *base
	v.epoch = 0
	// The store's epochs grow their own dictionary, never base's.
	v.labels = base.labels.flatten()
	s.cur.Store(&v)
	return s
}

// View returns the current epoch view: an immutable graph a query holds
// for its whole run. One atomic load; never nil.
func (s *Store) View() *Graph { return s.cur.Load() }

// Snapshot is View under the name the pinning protocol is documented by:
// holding the returned graph pins its epoch — its content never changes,
// however many batches or compactions follow.
func (s *Store) Snapshot() *Graph { return s.View() }

// Epoch returns the current epoch (the number of batches applied).
func (s *Store) Epoch() uint64 { return s.View().Epoch() }

// SetCompactionObserver installs fn, called (from the compaction
// goroutine, without store locks held) after every compaction attempt.
func (s *Store) SetCompactionObserver(fn func(CompactionInfo)) {
	s.obsMu.Lock()
	s.observer = fn
	s.obsMu.Unlock()
}

func (s *Store) notifyCompaction(info CompactionInfo) {
	s.obsMu.Lock()
	fn := s.observer
	s.obsMu.Unlock()
	if fn != nil {
		fn(info)
	}
}

// Stats returns a consistent snapshot of the store's counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.cur.Load()
	st := StoreStats{
		Epoch:            v.epoch,
		Fingerprint:      v.fingerprint,
		BaseGen:          s.baseGen,
		BaseNodes:        len(v.nodeLabel),
		BaseEdges:        len(v.edges),
		CompactThreshold: s.threshold,
		Compacting:       s.compacting,
		Compactions:      s.compactions,
		CompactAborts:    s.compactAborts,
		LastCompactNS:    s.lastCompactNS,
	}
	if ov := v.ov; ov != nil {
		st.AddedNodes = len(ov.addedLabel)
		st.DeltaEdges = len(ov.deltaEdges) - ov.deadDelta
		st.DeadEdges = ov.deadBase + ov.deadDelta
		st.TypesAdded = ov.typesAdded
		st.PendingOps = ov.pendingOps()
	}
	return st
}

// Mutate applies one batch atomically, publishes the next epoch view, and
// reports what changed. On error nothing is applied and the current view
// is unchanged.
func (s *Store) Mutate(b Batch) (MutateResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	next := cur.successor(cur.epoch + 1)
	res, err := next.apply(b)
	if err != nil {
		return MutateResult{}, err
	}
	next.fingerprint = hash64.Mix(cur.fingerprint ^ batchDigest(b))
	res.Epoch, res.Fingerprint = next.epoch, next.fingerprint
	s.batchLog = append(s.batchLog, b)
	s.publishLocked(next)
	s.maybeCompactLocked()
	return res, nil
}

// publishLocked makes v the current view. An empty delta (a fresh store,
// or right after a compaction that absorbed everything) publishes no
// overlay: the view IS the base, and readers pay only the accessors'
// nil-check.
func (s *Store) publishLocked(v *Graph) {
	if v.ov != nil && v.ov.pendingOps() == 0 {
		v.ov = nil
	}
	s.cur.Store(v)
}

// Quiesce blocks until any in-flight background compaction finishes.
// Tests and benchmarks use it for deterministic sequencing.
func (s *Store) Quiesce() { s.wg.Wait() }

// ---------------------------------------------------------------------------
// Compaction: rebuild a fresh CSR base from the current view, then replay
// whatever arrived mid-rebuild.

func (s *Store) maybeCompactLocked() {
	pinned := s.cur.Load()
	if s.threshold < 0 || s.compacting || pinned.ov == nil || pinned.ov.pendingOps() < s.threshold {
		return
	}
	s.compacting = true
	logLen := len(s.batchLog)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.compact(pinned, logLen)
	}()
}

// CompactNow runs one compaction synchronously, regardless of threshold.
// It fails if a background compaction is already in flight.
func (s *Store) CompactNow() error {
	s.mu.Lock()
	if s.compacting {
		s.mu.Unlock()
		return fmt.Errorf("graph: compaction already in progress")
	}
	s.compacting = true
	pinned := s.cur.Load()
	logLen := len(s.batchLog)
	s.mu.Unlock()
	return s.compact(pinned, logLen)
}

func (s *Store) compact(pinned *Graph, logLen int) error {
	start := time.Now()
	newBase, err := rebuildSafe(pinned)
	if err == nil {
		err = s.swapBase(newBase, logLen)
	}
	s.mu.Lock()
	s.compacting = false
	if err != nil {
		s.compactAborts++
	} else {
		s.compactions++
		s.lastCompactNS = time.Since(start).Nanoseconds()
	}
	info := CompactionInfo{
		Epoch:    s.cur.Load().epoch,
		BaseGen:  s.baseGen,
		Duration: time.Since(start),
		Aborted:  err != nil,
		Err:      err,
	}
	// More delta may have accumulated while we rebuilt; go again rather
	// than wait for the next mutation (aborts don't retry on their own —
	// whatever killed this run would kill the next).
	if err == nil {
		s.maybeCompactLocked()
	}
	s.mu.Unlock()
	s.notifyCompaction(info)
	return err
}

// rebuildSafe builds the replacement base off-lock. Chaos faults (and any
// genuine rebuild panic) surface as an error: an aborted compaction leaves
// the store serving the overlay exactly as before.
func rebuildSafe(pinned *Graph) (g *Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fault.Recovered("graph: compaction", r)
		}
	}()
	if err := compactPoint.Err(); err != nil {
		return nil, err
	}
	return rebuildBase(pinned), nil
}

// swapBase installs the rebuilt base and replays, onto one successor of
// it, the batches that arrived after the rebuild pinned its view — batches
// are expressed in labels, so they resolve identically against the
// logically-identical new base — keeping the epoch and fingerprint. A
// replay error (which would take a logic bug, not bad input: every batch
// here applied cleanly once) drops the successor: the published view and
// the batch log are untouched.
func (s *Store) swapBase(newBase *Graph, logLen int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	v := *newBase
	v.epoch, v.fingerprint = cur.epoch, cur.fingerprint
	next := &v
	replay := s.batchLog[logLen:]
	if len(replay) > 0 {
		next = next.successor(cur.epoch)
		for _, b := range replay {
			if _, err := next.apply(b); err != nil {
				return fmt.Errorf("graph: compaction replay: %w", err)
			}
		}
	}
	s.batchLog = append([]Batch(nil), replay...)
	s.baseGen++
	s.publishLocked(next)
	return nil
}

// rebuildBase materializes v's logical content into a fresh frozen base:
// node IDs are preserved, dead edges are squeezed out (renumbering live
// ones), and label IDs are kept. Callers holding older views are
// unaffected — they keep their own arrays. The fingerprint is the
// caller's: a compaction keeps the view's, Compact computes it.
func rebuildBase(v *Graph) *Graph {
	n := v.NumNodes()
	g := &Graph{
		labels:    v.labels.flatten(),
		nodeLabel: make([]LabelID, n),
		nodeTypes: make([][]LabelID, n),
		nodeProps: v.nodeProps, // node IDs are stable and props frozen: share
	}
	for i := 0; i < n; i++ {
		g.nodeLabel[i] = v.NodeLabelID(NodeID(i))
		if ts := v.NodeTypes(NodeID(i)); len(ts) > 0 {
			g.nodeTypes[i] = append([]LabelID(nil), ts...)
		}
	}
	total := v.NumEdges()
	g.edges = make([]Edge, 0, total)
	var remap map[EdgeID]EdgeID
	if len(v.edgeProps) > 0 {
		remap = make(map[EdgeID]EdgeID)
	}
	for e := 0; e < total; e++ {
		id := EdgeID(e)
		if !v.EdgeAlive(id) {
			continue
		}
		if remap != nil {
			remap[id] = EdgeID(len(g.edges))
		}
		g.edges = append(g.edges, v.Edge(id))
	}
	if len(v.edgeProps) > 0 {
		g.edgeProps = make(map[string]map[EdgeID]string, len(v.edgeProps))
		for p, m := range v.edgeProps {
			nm := make(map[EdgeID]string, len(m))
			for e, val := range m {
				if ne, ok := remap[e]; ok {
					nm[ne] = val
				}
			}
			g.edgeProps[p] = nm
		}
	}
	freezeIndexes(g)
	return g
}

// Compact returns a graph with the same logical content and no overlay:
// g itself when it already has none, otherwise a fresh frozen base (dead
// edges squeezed out, edge IDs renumbered, fingerprint recomputed from
// content). Snapshot serialization uses it so a live view persists its
// logical content, not its in-memory layout.
func (g *Graph) Compact() *Graph {
	if g.ov == nil {
		return g
	}
	c := rebuildBase(g)
	c.fingerprint = c.computeFingerprint()
	return c
}

// batchDigest hashes a batch's operations, order-sensitively, for the
// epoch fingerprint chain: fp' = Mix(fp ^ digest). Strings hash by
// content, so the chain is stable across processes and replays.
func batchDigest(b Batch) uint64 {
	h := uint64(fingerprintSeed)
	mix := func(v uint64) { h = hash64.Mix(h ^ v) }
	str := func(s string) { mix(fnv64a(s)) }
	for _, n := range b.AddNodes {
		mix(1)
		str(n.Label)
		for _, t := range n.Types {
			str(t)
		}
	}
	for _, t := range b.AddTypes {
		mix(2)
		str(t.Node)
		str(t.Type)
	}
	for _, e := range b.AddEdges {
		mix(3)
		str(e.Source)
		str(e.Label)
		str(e.Target)
	}
	for _, e := range b.DelEdges {
		mix(4)
		str(e.Source)
		str(e.Label)
		str(e.Target)
	}
	return h
}
