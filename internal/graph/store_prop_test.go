package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"ctpquery/internal/fault"
)

// batchGen generates batch streams. next builds a batch that cannot fail
// validation: adds between labels known unique (the base labels plus
// nodes this generator created), brand-new uniquely-labeled nodes,
// idempotent deletes, and type attachments on known nodes. varied adds
// the cases next never produces.
type batchGen struct {
	r      *rand.Rand
	labels []string // unique node labels, grows as nodes are added
	nBase  int      // labels[:nBase] name base nodes
	base   []Triple // base edges, for varied's duplicates
	added  []Triple // edges added so far, eligible for deletion
	nextID int
}

func newBatchGen(seed int64, baseLabels []string) *batchGen {
	return &batchGen{r: rand.New(rand.NewSource(seed)), labels: append([]string(nil), baseLabels...), nBase: len(baseLabels)}
}

// varied extends next's batch with one of: a second copy of a base
// triple, a second copy of an added triple, two copies of a fresh triple
// and a deletion of it in the same batch, an upsert of types onto a base
// node, or a type attachment to a node that does not exist — which fails
// the batch after its earlier ops ran.
func (g *batchGen) varied() Batch {
	b := g.next()
	switch g.r.Intn(5) {
	case 0:
		if len(g.base) > 0 {
			t := g.base[g.r.Intn(len(g.base))]
			b.AddEdges = append(b.AddEdges, t)
			g.added = append(g.added, t)
		}
	case 1:
		if len(g.added) > 0 {
			t := g.added[g.r.Intn(len(g.added))]
			b.AddEdges = append(b.AddEdges, t)
			g.added = append(g.added, t)
		}
	case 2:
		t := Triple{Source: g.pick(), Label: "twice", Target: g.pick()}
		b.AddEdges = append(b.AddEdges, t, t)
		b.DelEdges = append(b.DelEdges, t)
	case 3:
		l := g.labels[g.r.Intn(g.nBase)]
		b.AddNodes = append(b.AddNodes, NodeAdd{Label: l, Types: []string{"upserted", "generated"}})
	default:
		b.AddTypes = append(b.AddTypes, TypeAdd{Node: "nobody", Type: "touched"})
	}
	return b
}

func (g *batchGen) pick() string { return g.labels[g.r.Intn(len(g.labels))] }

func (g *batchGen) next() Batch {
	var b Batch
	for ops := 1 + g.r.Intn(3); ops > 0; ops-- {
		switch roll := g.r.Float64(); {
		case roll < 0.5:
			t := Triple{Source: g.pick(), Label: "rel", Target: g.pick()}
			b.AddEdges = append(b.AddEdges, t)
			g.added = append(g.added, t)
		case roll < 0.7:
			g.nextID++
			label := fmt.Sprintf("gen%d", g.nextID)
			b.AddNodes = append(b.AddNodes, NodeAdd{Label: label, Types: []string{"generated"}})
			t := Triple{Source: label, Label: "rel", Target: g.pick()}
			b.AddEdges = append(b.AddEdges, t)
			g.added = append(g.added, t)
			g.labels = append(g.labels, label)
		case roll < 0.9:
			if len(g.added) == 0 {
				continue
			}
			i := g.r.Intn(len(g.added))
			b.DelEdges = append(b.DelEdges, g.added[i])
			g.added[i] = g.added[len(g.added)-1]
			g.added = g.added[:len(g.added)-1]
		default:
			b.AddTypes = append(b.AddTypes, TypeAdd{Node: g.pick(), Type: "touched"})
		}
	}
	return b
}

// TestStoreLinearizability is the epoch-isolation property test: one
// writer applies a random batch stream (with background compaction
// forced into the middle of it) while reader goroutines continuously
// snapshot and fingerprint the logical content they see. Afterward,
// every observation must match the content signature the writer recorded
// when it published that epoch — i.e. every concurrent read was
// consistent with exactly one epoch, never a blend.
func TestStoreLinearizability(t *testing.T) {
	batches := 120
	if testing.Short() {
		batches = 40
	}
	baseLabels := make([]string, 30)
	for i := range baseLabels {
		baseLabels[i] = fmt.Sprintf("base%d", i)
	}
	st := NewStore(lineGraph(baseLabels...), StoreOptions{CompactThreshold: 25})
	defer st.Quiesce()

	// expected[epoch] = logical content signature at publish time. The
	// writer is the only goroutine that writes it; readers never touch it
	// (they record observations and the main goroutine verifies after the
	// barrier), so the map needs no lock.
	expected := map[uint64]string{0: logicalSig(st.View())}

	type obs struct {
		epoch uint64
		sig   string
	}
	const readers = 4
	observations := make([][]obs, readers)
	stop := make(chan struct{})
	var wg, ready sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func(i int) {
			defer wg.Done()
			var last uint64
			for first := true; ; first = false {
				select {
				case <-stop:
					return
				default:
				}
				v := st.Snapshot()
				e := v.Epoch()
				if e < last {
					t.Errorf("reader %d: epoch went backward (%d after %d)", i, e, last)
					return
				}
				last = e
				observations[i] = append(observations[i], obs{epoch: e, sig: logicalSig(v)})
				if first {
					ready.Done()
				}
			}
		}(i)
	}
	// Barrier: the writer is fast enough to finish the whole stream before
	// the scheduler ever runs a reader, so wait for every reader to record
	// its first observation — otherwise the test observes nothing.
	ready.Wait()

	gen := newBatchGen(7, baseLabels)
	for i := 0; i < batches; i++ {
		b := gen.next()
		if b.Empty() {
			continue
		}
		res := mustMutate(t, st, b)
		// One writer: the view right after Mutate is exactly this epoch's
		// (a landed compaction republishes the same epoch with identical
		// content, so the signature is stable either way).
		expected[res.Epoch] = logicalSig(st.View())
		if i%8 == 0 {
			runtime.Gosched() // let readers interleave with the stream
		}
	}
	close(stop)
	wg.Wait()
	st.Quiesce()

	total := 0
	for i, seq := range observations {
		for _, o := range seq {
			want, ok := expected[o.epoch]
			if !ok {
				t.Fatalf("reader %d observed epoch %d the writer never published", i, o.epoch)
			}
			if o.sig != want {
				t.Fatalf("reader %d: epoch %d content diverged from its publish-time signature", i, o.epoch)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("readers made no observations")
	}
	st.Quiesce()
	checkConsistent(t, st.View())
	if st.Stats().Compactions == 0 {
		t.Fatalf("no compaction ran during the property test (pending %d)", st.Stats().PendingOps)
	}
}

// TestChaosCompactionAbort arms the graph.compact probe with both fault
// kinds: a panic mid-merge must be contained as an aborted compaction
// (not a crash), an injected error likewise, and in both cases the store
// keeps serving its exact pre-compaction content and accepts further
// mutations; disarmed, compaction succeeds.
func TestChaosCompactionAbort(t *testing.T) {
	defer fault.Reset()
	st := NewStore(lineGraph("a", "b", "c", "d"), StoreOptions{CompactThreshold: -1})
	defer st.Quiesce()
	mustMutate(t, st, Batch{AddEdges: []Triple{{Source: "a", Label: "x", Target: "c"}}})
	mustMutate(t, st, Batch{DelEdges: []Triple{{Source: "a", Label: "next", Target: "b"}}})
	sig := logicalSig(st.View())
	fp := st.View().Fingerprint()

	for _, kind := range []fault.Kind{fault.Panic, fault.Error} {
		fault.Reset()
		if err := fault.Arm("graph.compact", fault.Fault{Kind: kind}); err != nil {
			t.Fatal(err)
		}
		if err := st.CompactNow(); err == nil {
			t.Fatalf("kind %v: CompactNow succeeded with the probe armed", kind)
		}
		if got := logicalSig(st.View()); got != sig {
			t.Fatalf("kind %v: aborted compaction changed the served content", kind)
		}
		if st.View().Fingerprint() != fp {
			t.Fatalf("kind %v: aborted compaction changed the fingerprint", kind)
		}
		checkConsistent(t, st.View())
	}
	stats := st.Stats()
	if stats.CompactAborts != 2 || stats.Compactions != 0 {
		t.Fatalf("aborts=%d compactions=%d, want 2/0", stats.CompactAborts, stats.Compactions)
	}

	// The store still takes writes after the aborts...
	fault.Reset()
	mustMutate(t, st, Batch{AddEdges: []Triple{{Source: "d", Label: "x", Target: "a"}}})
	sig = logicalSig(st.View())
	// ...and a disarmed compaction lands, preserving content and epoch.
	epoch := st.Epoch()
	if err := st.CompactNow(); err != nil {
		t.Fatalf("disarmed CompactNow: %v", err)
	}
	if got := logicalSig(st.View()); got != sig {
		t.Fatal("successful compaction changed the served content")
	}
	if st.Epoch() != epoch {
		t.Fatalf("compaction moved the epoch: %d -> %d", epoch, st.Epoch())
	}
	if st.View().ov != nil {
		t.Fatal("compacted view still has an overlay")
	}
	checkConsistent(t, st.View())
	if st.Stats().Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Stats().Compactions)
	}
}
