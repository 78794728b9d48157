package exec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ctpquery/internal/core"
	"ctpquery/internal/eql"
	"ctpquery/internal/graph"
	"ctpquery/internal/hash64"
	"ctpquery/internal/tree"
)

// The striped signature set must grant exactly one claim per identity no
// matter how many workers race on it.
func TestShardedSigSetSingleClaim(t *testing.T) {
	s := new(shardedSigSet)
	const goroutines = 8
	const identities = 2000
	sets := make([][]graph.EdgeID, identities)
	sigs := make([]uint64, identities)
	for i := range sets {
		sets[i] = []graph.EdgeID{graph.EdgeID(i), graph.EdgeID(i + 1)}
		sigs[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	claims := make([][]bool, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		gi := gi
		claims[gi] = make([]bool, identities)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				claims[gi][i] = s.add(sigs[i], -1, sets[i])
			}
		}()
	}
	wg.Wait()
	for i := 0; i < identities; i++ {
		won := 0
		for gi := 0; gi < goroutines; gi++ {
			if claims[gi][i] {
				won++
			}
		}
		if won != 1 {
			t.Fatalf("identity %d claimed %d times, want exactly 1", i, won)
		}
		if !s.hasUnion(sigs[i], -1, sets[i], nil) {
			t.Fatalf("identity %d missing after claim", i)
		}
	}
}

// Worker ownership must cover every worker for a spread of node IDs, so
// shards actually balance.
func TestOwnerSpread(t *testing.T) {
	r := &run{k: 8}
	seen := make(map[int]int)
	for n := 0; n < 10000; n++ {
		o := r.owner(graph.NodeID(n))
		if o < 0 || o >= 8 {
			t.Fatalf("owner(%d) = %d out of range", n, o)
		}
		seen[o]++
	}
	for w := 0; w < 8; w++ {
		if seen[w] < 10000/8/2 {
			t.Fatalf("worker %d owns only %d of 10000 nodes — sharding is skewed", w, seen[w])
		}
	}
}

// A K = 2 search whose every root is owned by worker 0: no balancing path
// moves work to worker 1, so it must park, stay idle and exit with the
// run, and the answer must still be exactly the K = 0 one.
func TestAllRootsOnOneWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := graph.NewBuilder()
	first := b.AddNodes(64)
	var ids []graph.NodeID // the nodes owner() gives worker 0; the rest stay isolated
	for n := first; n < first+64; n++ {
		if hash64.Mix(uint64(uint32(n)))%2 == 0 {
			ids = append(ids, n)
		}
	}
	labels := []string{"a", "b"}
	for i := 1; i < len(ids); i++ {
		b.AddEdge(ids[rng.Intn(i)], labels[rng.Intn(2)], ids[i])
	}
	for i := 0; i < len(ids)/2; i++ {
		b.AddEdge(ids[rng.Intn(len(ids))], labels[rng.Intn(2)], ids[rng.Intn(len(ids))])
	}
	g := b.Build()
	seeds := core.Explicit(ids[:1], ids[len(ids)/2:len(ids)/2+1], ids[len(ids)-1:])
	for _, alg := range []core.Algorithm{core.GAM, core.MoLESP} {
		opts := core.Options{Algorithm: alg, Filters: eql.Filters{MaxEdges: 6}}
		want := fmt.Sprint(resultMultiset(searchOrFatal(t, g, seeds, opts)))
		opts.Parallelism = 2
		rs, st, err := core.Search(g, seeds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(resultMultiset(rs)); got != want || rs.Len() == 0 {
			t.Fatalf("%v: K=2 answers differ from K=0\nwant %s\ngot  %s", alg, want, got)
		}
		if w0, w1 := st.Workers[0], st.Workers[1]; w0.Ops == 0 || w1.Ops != 0 || w0.Shipped+w1.Shipped != 0 {
			t.Fatalf("%v: work left worker 0: %+v %+v", alg, w0, w1)
		}
	}
}

// PushGrows ships per destination: at K = 3, one tree's steps leave as
// one task per remote owner holding that owner's steps in step order, the
// local steps join the queue as they came, and every step is one pending
// unit while only the remote ones count as shipped.
func TestPushGrowsShipsOneTaskPerOwner(t *testing.T) {
	b := graph.NewBuilder()
	first := b.AddNodes(24)
	for n := first; n+1 < first+24; n++ {
		b.AddEdge(n, "a", n+1)
	}
	g := b.Build()
	r := newRun(new(runState), g, core.Explicit([]graph.NodeID{first}), core.Options{Algorithm: core.MoLESP, Parallelism: 3}, 3)
	var tr *tree.Tree
	r.workers[0].k.Inits(func(t *tree.Tree) bool { tr = t; return false })

	var steps []core.Step
	want := make([][]core.Step, 3) // per owner, in step order
	for i := 23; i >= 0; i-- {     // descending node IDs: step order is not ID order
		s := core.Step{E: graph.EdgeID(100 + i), To: first + graph.NodeID(i)}
		steps = append(steps, s)
		d := r.owner(s.To)
		want[d] = append(want[d], s)
	}
	for d, part := range want {
		if len(part) == 0 {
			t.Fatalf("no step owned by worker %d: widen the input", d)
		}
	}

	w := r.workers[0]
	w.PushGrows(tr, 4, steps)

	if got := r.pending.Load(); got != int64(len(steps)) {
		t.Fatalf("pending = %d, want %d", got, len(steps))
	}
	if remote := len(want[1]) + len(want[2]); w.shipped != remote {
		t.Fatalf("shipped = %d, want the %d remote steps", w.shipped, remote)
	}
	if len(w.in.items) != 0 {
		t.Fatalf("worker 0 mailed itself %d tasks", len(w.in.items))
	}
	for d := 1; d < 3; d++ {
		items := r.workers[d].in.items
		if len(items) != 1 || r.workers[d].mail.Load() != 1 {
			t.Fatalf("worker %d received %d tasks (mail %d), want one", d, len(items), r.workers[d].mail.Load())
		}
		tk := items[0]
		if tk.kind != taskGrows || tk.t != tr || tk.prio != 4 || fmt.Sprint(tk.steps) != fmt.Sprint(want[d]) {
			t.Fatalf("worker %d task: kind %d prio %v steps %v, want steps %v", d, tk.kind, tk.prio, tk.steps, want[d])
		}
	}
	if w.q.Len() != len(want[0]) {
		t.Fatalf("local queue holds %d ops, want %d", w.q.Len(), len(want[0]))
	}
	var local []core.Step
	for w.q.Len() > 0 {
		qt, s := w.q.Pop()
		if qt != tr {
			t.Fatal("a queued step names another tree")
		}
		local = append(local, s)
	}
	if fmt.Sprint(local) != fmt.Sprint(want[0]) {
		t.Fatalf("local steps %v, want %v", local, want[0])
	}
}
