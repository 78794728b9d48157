package core

import (
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
	allowed  map[graph.LabelID]bool // LABEL filter; nil = all
	maxEdges int                    // MAX filter; 0 = unlimited
	uni      bool
	priority PriorityFunc
}

// NewSetup resolves a search's options. opts.Algorithm must be one of the
// GAM family (Search validates it).
func NewSetup(g *graph.Graph, seeds []SeedSet, opts Options) *Setup {
	s := &Setup{
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
	if s.priority == nil {
		// Default order: smallest trees first (the order used in all of
		// the paper's experiments), FIFO among equals.
		s.priority = func(t *tree.Tree, e graph.EdgeID) float64 { return float64(t.Size()) }
	}
	return s
}

// NewCollector returns the search's result sink.
func (s *Setup) NewCollector() *ResultCollector { return newResultCollector(s.g, s.si, s.opts) }

// Inits yields the Init trees: one per distinct seed node, over all
// non-universal sets (universal sets spawn no Init trees, Section 4.9).
// It stops early when yield returns false.
func (s *Setup) Inits(yield func(*tree.Tree) bool) {
	inited := make(map[graph.NodeID]bool)
	for _, set := range s.seeds {
		if set.Universal {
			continue
		}
		for _, n := range set.Nodes {
			if inited[n] {
				continue
			}
			inited[n] = true
			if !yield(tree.NewInit(n, s.si.mask(n))) {
				return
			}
		}
	}
}

// Scheduler is the seam between the kernel and whatever drives it: all
// that differs between running a search on the caller's goroutine
// (callerSched below: plain fields, one queue) and across root-sharded
// workers (internal/exec: atomics, a lock-striped history, mailboxes).
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
// owning every root. A Kernel is single-goroutine.
type Kernel struct {
	s     Setup // by value: the hot loops read it without an extra hop
	sched Scheduler

	rootedSeen *SigSet                      // kept rooted trees, by rooted signature
	byRoot     map[graph.NodeID][]partner   // TreesRootedIn
	ss         map[graph.NodeID]bitset.Bits // seed signatures (Section 4.6)
	dl         *deadline

	probeTree, probeMo *fault.Point // the driver's, hit per candidate / Mo commit; nil for none

	// Stats holds this kernel's counters. TimedOut, Truncated, Results,
	// Duration and the parallel-runtime fields are the driver's to fill.
	Stats Stats
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

// NewKernel returns an empty shard of the search driven by sched.
func (s *Setup) NewKernel(sched Scheduler, probeTree, probeMo *fault.Point) *Kernel {
	return &Kernel{
		s:          *s,
		sched:      sched,
		rootedSeen: NewSigSet(),
		byRoot:     make(map[graph.NodeID][]partner),
		ss:         make(map[graph.NodeID]bitset.Bits),
		dl:         newDeadline(s.opts.Filters.Timeout, s.opts.Done),
		probeTree:  probeTree,
		probeMo:    probeMo,
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
	k         *Kernel
	queue     opQueue
	seq       uint64
	histEdge  *SigSet // ESP history: edge-set signatures
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

// gamSearch runs GAM or one of its pruning variants (Algorithm 1) on the
// caller's goroutine.
func gamSearch(g *graph.Graph, seeds []SeedSet, opts Options) (*ResultSet, *Stats, error) {
	start := time.Now()
	setup := NewSetup(g, seeds, opts)
	s := newCallerSched(setup)
	s.run(setup)

	// A copy, so the caller's Stats do not pin the kernel's indexes.
	st := s.k.Stats
	st.Duration = time.Since(start)
	rs := s.collector.finish()
	st.Results = len(rs.Results)
	return rs, &st, nil
}

func newCallerSched(setup *Setup) *callerSched {
	s := &callerSched{histEdge: NewSigSet(), collector: setup.NewCollector()}
	if setup.opts.MultiQueue {
		s.queue = newMultiQueue()
	} else {
		s.queue = newSingleQueue()
	}
	s.k = setup.NewKernel(s, nil, nil)
	return s
}

// run is Algorithm 1: admit the Init trees, then pop until the queue
// drains or the run stops.
func (s *callerSched) run(setup *Setup) {
	k := s.k
	setup.Inits(func(t *tree.Tree) bool {
		k.Admit(t)
		return !s.stop
	})
	for !s.stop {
		op, ok := s.queue.pop()
		if !ok {
			break
		}
		probeGamPop.Hit()
		if t := k.Construct(op); t != nil {
			k.Admit(t)
		}
	}
}

// Construct counts a queue pop and turns the popped Grow opportunity into
// its candidate tree, for Admit on the Kernel owning the new root. It
// returns nil after stopping the run when the deadline has passed.
func (k *Kernel) Construct(op GrowOp) *tree.Tree {
	k.Stats.QueuePops++
	if k.dl.expired() {
		k.sched.Timeout()
		return nil
	}
	newRoot := k.s.g.Other(op.E, op.T.Root)
	return tree.NewGrow(op.T, op.E, newRoot, k.s.si.mask(newRoot))
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
	m := k.ss[t.Root]
	(&m).UnionInPlace(t.Sat)
	k.ss[t.Root] = m
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
	return k.s.variant.LESP && k.ss[root].Count() >= 3 && k.s.g.Degree(root) >= 3 &&
		!k.rootedSeen.HasUnion(tree.SigWithRoot(sig, root), root, a, b)
}

// mergeSeen is isNew's verdict on Merge(a, b) before it is built: the
// signatures are XOR-incremental and the histories compare a stored edge
// list against the merge-walk of the parents', so a candidate Algorithm 4
// is about to reject never takes a carrier. It only reads the histories;
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
// and never recycled.
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

// recycle returns a rejected candidate's buffers to the pool. Only called
// on trees no history, index, queue, or result references.
func (k *Kernel) recycle(t *tree.Tree) {
	if tree.Recycle(t) {
		k.Stats.Recycled++
	}
}

// recordForMerging implements Algorithm 3: index the tree by its root and,
// for Mo variants, inject copies rooted at each seed node of the tree
// whenever the provenance gained seeds over its children (Section 4.5).
// Mo trees are skipped under UNI: re-rooting breaks the directed-tree
// invariant the UNI filter requires.
func (k *Kernel) recordForMerging(t *tree.Tree) {
	k.byRoot[t.Root] = append(k.byRoot[t.Root], partner{t, satWord(t.Sat)})
	if !k.s.variant.Mo || k.s.uni || !gainedSeeds(t) {
		return
	}
	for _, n := range t.Nodes {
		if n == t.Root || !k.s.si.isSeed(n) {
			continue
		}
		k.sched.Mo(tree.NewMo(t, n))
		if k.sched.Stopped() {
			return
		}
	}
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
	k.byRoot[mo.Root] = append(k.byRoot[mo.Root], partner{mo, satWord(mo.Sat)})
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
	for _, e := range g.IncidentEdges(t.Root) {
		if k.s.allowed != nil && !k.s.allowed[g.EdgeLabelID(e)] {
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
		k.sched.PushGrow(other, GrowOp{T: t, E: e, Prio: k.s.priority(t, e)})
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
	// A snapshot: processTree below may append to byRoot[t.Root]; new
	// entries merge with t from their own mergeAll.
	partners := k.byRoot[t.Root]
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
			// Rejected unbuilt: it held no buffers, but counts where a built
			// reject is pruned and recycled so live-tree accounting holds.
			k.Stats.Pruned++
			k.Stats.Recycled++
			continue
		}
		k.processTree(tree.NewMerge(t, tp))
		// Only a candidate's processing (or, across shards, a peer) stops
		// the run, so partners that do not merge need no re-check.
		if k.sched.Stopped() {
			return
		}
	}
}
