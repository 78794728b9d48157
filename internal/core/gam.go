package core

import (
	"sync"
	"time"

	"ctpquery/internal/bitset"
	"ctpquery/internal/fault"
	"ctpquery/internal/graph"
	"ctpquery/internal/tree"
)

// variant toggles the three orthogonal refinements that turn GAM into
// ESP, MoESP, LESP, and MoLESP.
type variant struct {
	ESP  bool // prune on edge sets (Definition 4.3) instead of rooted trees
	Mo   bool // inject seed-rooted Mo copies (Section 4.5)
	LESP bool // exempt well-connected merge roots from pruning (Section 4.6)
}

// variantOf resolves a GAM-family algorithm to its refinement toggles; it
// panics on BFT-family algorithms, which Search never routes here.
func variantOf(a Algorithm) variant {
	switch a {
	case GAM:
		return variant{}
	case ESP:
		return variant{ESP: true}
	case MoESP:
		return variant{ESP: true, Mo: true}
	case LESP:
		return variant{ESP: true, LESP: true}
	case MoLESP:
		return variant{ESP: true, Mo: true, LESP: true}
	}
	panic("core: not a GAM-family algorithm: " + a.String())
}

// Setup is the immutable part of one GAM-family search — graph, seed
// index, refinement toggles and the pushed-down filters — built once and
// shared, read-only, by every Kernel of the run.
type Setup struct {
	g        *graph.Graph
	seeds    []SeedSet
	si       *seedIndex
	variant  variant
	opts     Options
	allowed  labelSet // LABEL filter; nil = all
	maxEdges int      // MAX filter; 0 = unlimited
	uni      bool
	priority PriorityFunc // nil = smallest trees first
}

// NewSetup resolves a search's options. opts.Algorithm must be one of the
// GAM family (Search validates it).
func NewSetup(g *graph.Graph, seeds []SeedSet, opts Options) *Setup {
	return &Setup{
		g:        g,
		seeds:    seeds,
		si:       buildSeedIndex(seeds),
		variant:  variantOf(opts.Algorithm),
		opts:     opts,
		allowed:  labelAllow(g, opts.Filters.Labels),
		maxEdges: opts.Filters.MaxEdges,
		uni:      opts.Filters.Uni,
		priority: opts.Priority,
	}
}

// NewCollector returns the search's result sink.
func (s *Setup) NewCollector() *ResultCollector { return newResultCollector(s.g, s.si, s.opts) }

// Scheduler is the seam between the kernel and whatever drives it: all
// that differs between running a search on the caller's goroutine
// (callerSched below: plain fields, one queue) and across root-sharded
// workers (internal/exec: atomics, a lock-striped history, inboxes).
// Every method is called from the goroutine that owns the Kernel.
type Scheduler interface {
	// Stopped reports whether the run has ended, by a filter, a failure
	// or completion; the kernel then abandons the candidate in hand.
	Stopped() bool
	Timeout()  // stop the run, reported as Stats.TimedOut
	Truncate() // stop the run, reported as Stats.Truncated
	// Claim inserts an identity into the run-wide ESP edge-set history
	// and reports whether it was absent: exactly one claimant wins.
	Claim(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool
	// Seen reports whether the identity (root, a ∪ b) — a and b sorted and
	// disjoint — is in that history already, so a Claim on it would lose.
	Seen(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool
	// CountKept counts one kept tree against Options.MaxTrees (> 0) and
	// reports whether the bound is reached.
	CountKept() bool
	// Result hands a covering tree to the collector; true means LIMIT (or
	// a streaming callback) asks the search to stop.
	Result(t *tree.Tree) bool
	// PushGrow queues a Grow opportunity whose tree will be rooted at
	// root: here, or on whichever shard owns root.
	PushGrow(root graph.NodeID, op GrowOp)
	QueueLen() int // of the queue PushGrow feeds here
	// Mo takes a Mo copy to the Kernel owning mo.Root, for CommitMo.
	Mo(mo *tree.Tree)
}

// Kernel is the GAM family itself — Algorithms 2–5 with the ESP/Mo/LESP
// toggles — over one shard of the search: the state keyed by tree root
// (TreesRootedIn, the rooted history, the seed signatures ss_n), the
// effort counters and the deadline are private to it, and everything
// run-wide goes through its Scheduler. A sequential search is one Kernel
// owning every root. A Kernel is single-goroutine. Everything it builds
// is a bump of its arena and slabs, which live as long as the search:
// Start readies a zero or Reset Kernel, Reset takes all of it back.
type Kernel struct {
	s     Setup // by value: the hot loops read it without an extra hop
	sched Scheduler

	arena      tree.Arena
	rootedSeen SigSet               // kept rooted trees, by rooted signature
	roots      nodeTable[rootState] // per-root state, entered when a tree first roots there
	runs       tree.Slab[partner]   // partner runs
	ssWords    tree.Slab[uint64]    // seed signatures
	dl         deadline

	probeTree, probeMo *fault.Point // the driver's, hit per candidate / Mo commit; nil for none

	// Stats holds this kernel's counters. TimedOut, Truncated, Results,
	// Duration and the parallel-runtime fields are the driver's to fill.
	Stats Stats
}

// rootState is what the kernel knows of one root n: the seed signature
// ss_n (Section 4.6; nil until a seed path reaches n) and TreesRootedIn(n)
// as one contiguous run in keep order — Algorithm 5 scans a run per kept
// tree (3.1M partners on Star(10,2)), and a run chained through the slab
// cost fig11-grid a third of its p99.
type rootState struct {
	ss  bitset.Bits
	run []partner
}

// partner is one TreesRootedIn entry. sat caches the first word of t.Sat
// beside the pointer so mergeAll rejects a Merge2-incompatible partner
// with one AND over dense memory, before touching the tree.
type partner struct {
	t   *tree.Tree
	sat uint64
}

// satWord is the word of a seed signature the partner prefilter tests:
// all of it for m <= 64, a necessary condition beyond.
func satWord(b bitset.Bits) uint64 {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// What a Kernel's own slabs keep across Reset, in elements (see the
// retention constants of tree.Arena and flatTable).
const (
	keepPartners = 1 << 15
	keepSSWords  = 1 << 13
)

// Start readies k for one search driven by sched.
func (k *Kernel) Start(s *Setup, sched Scheduler, probeTree, probeMo *fault.Point) {
	k.s, k.sched = *s, sched
	k.dl = newDeadline(s.opts.Filters.Timeout, s.opts.Done)
	k.probeTree, k.probeMo = probeTree, probeMo
	k.Stats = Stats{}
}

// Reset ends a search that ran to completion: every tree the kernel built
// is gone, and every reference to the graph, options and callbacks; the
// memory kept for the next Start is bounded. After a failure the Kernel
// is dropped instead — its state may be half-written.
func (k *Kernel) Reset() {
	k.arena.Reset()
	k.rootedSeen.Reset()
	k.roots.Reset()
	k.runs.Reset(keepPartners)
	k.ssWords.Reset(keepSSWords)
	k.s, k.sched, k.dl = Setup{}, nil, deadline{}
}

// Inits yields the Init trees: one per distinct seed node, over all
// non-universal sets (universal sets spawn no Init trees, Section 4.9).
// It stops early when yield returns false.
func (k *Kernel) Inits(yield func(*tree.Tree) bool) {
	for _, n := range k.s.si.inits {
		if !yield(k.arena.NewInit(n, k.s.si.mask(n))) {
			return
		}
	}
}

func hit(p *fault.Point) {
	if p != nil {
		p.Hit()
	}
}

// callerSched drives one Kernel on the caller's goroutine: no goroutine,
// lock or atomic anywhere.
type callerSched struct {
	k         Kernel
	queue     opQueue
	single    singleQueue // queue, unless Options.MultiQueue
	seq       uint64
	histEdge  SigSet // ESP history: edge-set signatures
	collector *ResultCollector
	stop      bool
}

func (s *callerSched) Stopped() bool { return s.stop }
func (s *callerSched) Timeout()      { s.k.Stats.TimedOut, s.stop = true, true }
func (s *callerSched) Truncate()     { s.k.Stats.Truncated, s.stop = true, true }
func (s *callerSched) Claim(sig uint64, root graph.NodeID, edges []graph.EdgeID) bool {
	return s.histEdge.Add(sig, root, edges)
}
func (s *callerSched) Seen(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	return s.histEdge.HasUnion(sig, root, a, b)
}
func (s *callerSched) CountKept() bool          { return s.k.Stats.Kept() >= s.k.s.opts.MaxTrees }
func (s *callerSched) Result(t *tree.Tree) bool { return s.collector.Add(t) }
func (s *callerSched) PushGrow(_ graph.NodeID, op GrowOp) {
	s.seq++
	op.Seq = s.seq
	s.queue.push(op)
}
func (s *callerSched) QueueLen() int    { return s.queue.len() }
func (s *callerSched) Mo(mo *tree.Tree) { s.k.CommitMo(mo) }

// Pool is a bounded free list of search states, the one way state
// outlives a search: a state whose search ran to completion is emptied
// under its retention bounds and Put back; one whose search failed is
// never Put, and the GC takes it. Unlike a sync.Pool it holds a constant
// number of states, the most recently used — a caller searching back to
// back reuses one state, not one per P it happened to run on.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

const poolSize = 4

// Get returns a pooled state, or a zero one.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return new(T)
	}
	x := p.free[n-1]
	p.free = p.free[:n-1]
	return x
}

// Put offers x, emptied, for reuse.
func (p *Pool[T]) Put(x *T) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < poolSize {
		p.free = append(p.free, x)
	}
}

// Emptied zeroes a queue or exchange buffer for the next search, dropping
// one that grew beyond maxKeptOps entries.
func Emptied[T any](s []T) []T {
	if cap(s) > maxKeptOps {
		return nil
	}
	clear(s)
	return s[:0]
}

const maxKeptOps = 1 << 16

var schedPool Pool[callerSched]

// gamSearch runs GAM or one of its pruning variants (Algorithm 1) on the
// caller's goroutine.
func gamSearch(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error) {
	s := schedPool.Get()
	rs, st := s.search(NewSetup(g, seeds, opts))
	schedPool.Put(s)
	return rs, st, nil
}

// search runs one search on s — new, or reset by the last one — and
// leaves it reset. Nothing it returns points into s.
func (s *callerSched) search(setup *Setup) (*ResultSet, *Stats) {
	start := time.Now()
	s.run(setup)
	st := s.k.Stats
	st.Duration = time.Since(start)
	rs := s.collector.finish()
	st.Results = len(rs.Results)
	s.reset()
	return rs, &st
}

func (s *callerSched) reset() {
	s.k.Reset()
	s.histEdge.Reset()
	s.single.h = Emptied(s.single.h)
	s.queue, s.collector, s.seq, s.stop = nil, nil, 0, false
}

// run is Algorithm 1: admit the Init trees, then pop until the queue
// drains or the run stops.
func (s *callerSched) run(setup *Setup) {
	s.collector = setup.NewCollector()
	s.queue = &s.single
	if setup.opts.MultiQueue {
		s.queue = newMultiQueue()
	}
	k := &s.k
	k.Start(setup, s, nil, nil)
	k.Inits(func(t *tree.Tree) bool {
		k.Admit(t)
		return !s.stop
	})
	for !s.stop {
		op, ok := s.queue.pop()
		if !ok {
			break
		}
		probeGamPop.Hit()
		k.Grow(op)
	}
}

// Grow counts a queue pop, builds the popped Grow opportunity's candidate
// — rooted in this shard, since the op was routed to the new root's owner
// — and admits it; past the deadline it stops the run instead.
func (k *Kernel) Grow(op GrowOp) {
	k.Stats.QueuePops++
	if k.dl.expired() {
		k.sched.Timeout()
		return
	}
	newRoot := k.s.g.Other(op.E, op.T.Root)
	k.Admit(k.arena.NewGrow(op.T, op.E, newRoot, k.s.si.mask(newRoot)))
}

// Admit runs a freshly built Init or Grow tree rooted in this shard
// through Algorithm 2.
func (k *Kernel) Admit(t *tree.Tree) {
	k.Stats.created()
	k.updateSignature(t)
	if k.live() {
		k.processTree(t)
	}
}

// NoteQueueLen samples the local grow queue for Stats.PeakQueueLen; the
// driver calls it after queueing ops the kernel did not push itself.
func (k *Kernel) NoteQueueLen() { k.Stats.noteQueueLen(k.sched.QueueLen()) }

// updateSignature maintains ss_n: when a new (n,s)-rooted path (Definition
// 4.4) reaches n, the bits of its origin seed are set on n.
func (k *Kernel) updateSignature(t *tree.Tree) {
	if !k.s.variant.LESP || !t.SeedPath {
		return
	}
	r := k.roots.at(t.Root)
	if r.ss == nil {
		r.ss = k.ssWords.Alloc(k.s.si.words)
	}
	r.ss.UnionInPlace(t.Sat)
}

// isNew implements Algorithm 4 for the ESP family, plain rooted-tree
// deduplication for GAM, and always-true for 0-edge (Init) trees, which
// are deduplicated at creation. Identity checks run on 64-bit signatures
// with collision-checked buckets — no string key is built. The edge-set
// check is a claim: a new edge set enters the history here, not in keep,
// so that among concurrent shards exactly one keeps it.
func (k *Kernel) isNew(t *tree.Tree) bool {
	if t.Size() == 0 || !k.s.variant.ESP {
		// GAM (and 0-edge trees): discard all but the first provenance of
		// a rooted tree.
		return !k.rootedSeen.Has(t.RootedSig(), t.Root, t.Edges)
	}
	if k.sched.Claim(t.Sig(), unrootedRef, t.Edges) {
		return true
	}
	if k.exempt(t.Sig(), t.Root, t.Edges, nil) {
		k.Stats.Spared++
		return true
	}
	return false
}

// exempt is the LESP exemption for the tree with edge set a ∪ b: roots
// already connected to >= 3 seed sets with graph degree >= 3 keep their
// (new) rooted trees.
func (k *Kernel) exempt(sig uint64, root graph.NodeID, a, b []graph.EdgeID) bool {
	if !k.s.variant.LESP {
		return false
	}
	r := k.roots.find(root)
	return r != nil && r.ss.Count() >= 3 && k.s.g.Degree(root) >= 3 &&
		!k.rootedSeen.HasUnion(tree.SigWithRoot(sig, root), root, a, b)
}

// mergeSeen is isNew's verdict on Merge(a, b) before it is built: the
// signatures are XOR-incremental and the histories compare a stored edge
// list against the merge-walk of the parents', so a candidate Algorithm 4
// is about to reject is never carved. It only reads the histories;
// a candidate it lets through is built and claimed by isNew as before.
func (k *Kernel) mergeSeen(a, b *tree.Tree) bool {
	sig := tree.MergeSigs(a.Sig(), b.Sig())
	if !k.s.variant.ESP {
		return k.rootedSeen.HasUnion(tree.SigWithRoot(sig, a.Root), a.Root, a.Edges, b.Edges)
	}
	return k.sched.Seen(sig, unrootedRef, a.Edges, b.Edges) && !k.exempt(sig, a.Root, a.Edges, b.Edges)
}

// keep records a tree in the rooted history and statistics (its edge set
// was claimed in isNew, or by the parent of a Mo copy). The history
// aliases the tree's edge slice, which is safe: kept trees are immutable
// and live as long as the history does.
func (k *Kernel) keep(t *tree.Tree) {
	k.rootedSeen.Add(t.RootedSig(), t.Root, t.Edges)
	switch t.Kind {
	case tree.Init:
		k.Stats.Inits++
	case tree.Grow:
		k.Stats.Grows++
	case tree.Merge:
		k.Stats.Merges++
	case tree.Mo:
		k.Stats.MoTrees++
	}
	if k.s.opts.MaxTrees > 0 && k.sched.CountKept() {
		k.sched.Truncate()
	}
}

// processTree implements Algorithm 2 for a candidate that passed the live
// gate: deduplicate, report results, record for merging (with Mo
// injection), feed the queue, and merge aggressively.
func (k *Kernel) processTree(t *tree.Tree) {
	if !k.isNew(t) {
		k.Stats.Pruned++
		k.recycle(t)
		return
	}
	k.keep(t)
	if k.sched.Stopped() {
		return
	}
	if k.s.si.covers(t.Sat) {
		if k.sched.Result(t) {
			k.sched.Truncate()
			return
		}
		// With universal seed sets, larger results exist (Definition 2.8's
		// adjustment for N seed sets): results keep growing and merging.
		if !k.s.si.hasUniversal {
			return
		}
	}
	k.recordForMerging(t)
	if !t.HasMo {
		k.pushGrows(t)
	}
	k.mergeAll(t)
}

// live is the gate every candidate passes before Algorithm 2, built or
// not: it reports whether the run is still going, stopping it when the
// deadline has passed.
func (k *Kernel) live() bool {
	hit(k.probeTree)
	if k.sched.Stopped() {
		return false
	}
	if k.dl.expired() {
		k.sched.Timeout()
		return false
	}
	return true
}

// recycle discounts a rejected candidate from the live trees and, when it
// is this arena's latest carve, takes its memory back. Only called on
// trees no history, index, queue, or result references.
func (k *Kernel) recycle(t *tree.Tree) {
	k.arena.Release(t)
	k.Stats.Recycled++
}

// recordForMerging implements Algorithm 3: index the tree by its root and,
// for Mo variants, inject copies rooted at each seed node of the tree
// whenever the provenance gained seeds over its children (Section 4.5).
// Mo trees are skipped under UNI: re-rooting breaks the directed-tree
// invariant the UNI filter requires.
func (k *Kernel) recordForMerging(t *tree.Tree) {
	k.addPartner(t)
	if !k.s.variant.Mo || k.s.uni || !gainedSeeds(t) {
		return
	}
	for _, n := range t.Nodes {
		if n == t.Root || !k.s.si.isSeed(n) {
			continue
		}
		k.sched.Mo(k.arena.NewMo(t, n))
		if k.sched.Stopped() {
			return
		}
	}
}

// addPartner appends t to TreesRootedIn(t.Root), moving a full run to a
// carve of twice its size; the old one is abandoned to the slab, where a
// mergeAll snapshot may still be reading it.
func (k *Kernel) addPartner(t *tree.Tree) {
	r := k.roots.at(t.Root)
	if n := len(r.run); n == cap(r.run) {
		grown := k.runs.Alloc(max(2*n, 1))
		copy(grown, r.run)
		r.run = grown[:n]
	}
	r.run = append(r.run, partner{t, satWord(t.Sat)})
}

// CommitMo is the tail of Algorithm 3 on the shard owning the copy's
// root: Mo trees bypass the edge-set history — their edge set is the
// (already claimed) parent's — and deduplicate on the rooted identity
// only. Created is counted here, where a rejected copy is also recycled,
// so live-tree accounting balances per Kernel.
func (k *Kernel) CommitMo(mo *tree.Tree) {
	hit(k.probeMo)
	if k.sched.Stopped() {
		return
	}
	k.Stats.created()
	if k.rootedSeen.Has(mo.RootedSig(), mo.Root, mo.Edges) {
		k.Stats.Pruned++
		k.recycle(mo)
		return
	}
	k.keep(mo)
	if k.sched.Stopped() {
		return
	}
	k.addPartner(mo)
	k.mergeAll(mo)
}

// gainedSeeds reports whether t has strictly more seeds than each of its
// provenance children — the Section 4.5 trigger for Mo injection.
func gainedSeeds(t *tree.Tree) bool {
	switch t.Kind {
	case tree.Init:
		return false // single node: no other seed to re-root at
	case tree.Grow:
		return t.Sat.Count() > t.Left.Sat.Count()
	case tree.Merge:
		return true // children have disjoint, non-empty coverage
	}
	return false
}

// pushGrows feeds the scheduler with the (t, e) pairs satisfying Grow1,
// Grow2, and the pushed-down filters (Section 4.8).
func (k *Kernel) pushGrows(t *tree.Tree) {
	if k.s.maxEdges > 0 && t.Size() >= k.s.maxEdges {
		return
	}
	g := k.s.g
	prio := float64(t.Size()) // the default order: smallest trees first, FIFO among equals
	for _, e := range g.IncidentEdges(t.Root) {
		if !k.s.allowed.allows(g.EdgeLabelID(e)) {
			continue
		}
		other := g.Other(e, t.Root)
		if t.ContainsNode(other) {
			continue // Grow1
		}
		if k.s.si.mask(other).Intersects(t.Sat) {
			continue // Grow2
		}
		if k.s.uni && g.Source(e) != other {
			// UNI: grow backward over the edge so the eventual root
			// reaches every seed along directed paths.
			continue
		}
		if k.s.priority != nil {
			prio = k.s.priority(t, e)
		}
		k.sched.PushGrow(other, GrowOp{T: t, E: e, Prio: prio})
	}
	k.NoteQueueLen()
}

// mergeable checks Merge1/Merge2 (Section 4.2) plus the MAX filter for two
// trees rooted at the node whose seed memberships are rootMask. The
// Merge2 condition "sat(t1) ∩ sat(t2) = ∅" is implemented as "no seed set
// is represented in both trees except through the shared root": trees
// rooted at a seed node legitimately share that seed's sets (e.g. the
// Figure 3 merge of A-1-2-B with B-3-C at root B).
func (k *Kernel) mergeable(a, b *tree.Tree, rootMask bitset.Bits) bool {
	if a.Size() == 0 || b.Size() == 0 {
		return false // merging with a single-node tree recreates the partner
	}
	if k.s.maxEdges > 0 && a.Size()+b.Size() > k.s.maxEdges {
		return false
	}
	if a.Sat.IntersectsOutside(b.Sat, rootMask) {
		return false // Merge2
	}
	return tree.OverlapOnlyRoot(a, b) // Merge1
}

// mergeAll implements Algorithm 5: aggressively merge t with every
// compatible tree sharing its root — all of which live in this shard.
// New merges recurse through processTree, which records them before
// merging further, so every compatible pair is eventually examined from
// its later member. Partners are visited in insertion order; the word
// test only skips partners mergeable would refuse on Merge2.
func (k *Kernel) mergeAll(t *tree.Tree) {
	// A snapshot: processTree below may append to the run (or move it); new
	// entries merge with t from their own mergeAll.
	partners := k.roots.find(t.Root).run
	if len(partners) < 2 || k.sched.Stopped() {
		return // t is alone at its root: the common case on large graphs
	}
	rootMask := k.s.si.mask(t.Root)
	free := satWord(t.Sat) &^ satWord(rootMask)
	for _, p := range partners {
		tp := p.t
		if p.sat&free != 0 || tp == t || !k.mergeable(t, tp, rootMask) {
			continue
		}
		k.Stats.created()
		if !k.live() {
			return
		}
		if k.mergeSeen(t, tp) {
			// Rejected unbuilt: it carved nothing, but counts where a built
			// reject is pruned and recycled so live-tree accounting holds.
			k.Stats.Pruned++
			k.Stats.Recycled++
			continue
		}
		k.processTree(k.arena.NewMerge(t, tp))
		// Only a candidate's processing (or, across shards, a peer) stops
		// the run, so partners that do not merge need no re-check.
		if k.sched.Stopped() {
			return
		}
	}
}
