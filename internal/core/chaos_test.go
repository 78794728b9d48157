package core

import (
	"errors"
	"testing"

	"ctpquery/internal/fault"
	"ctpquery/internal/gen"
)

// TestChaosSequentialKernelContainment injects a panic into each
// sequential kernel's main loop (the gam and bft pop probes) and asserts
// Search returns a contained *fault.PanicError instead of panicking the
// caller — and that a clean rerun still produces results.
func TestChaosSequentialKernelContainment(t *testing.T) {
	defer fault.Reset()
	cases := []struct {
		point string
		alg   Algorithm
	}{
		{"core.gam.pop", MoLESP},
		{"core.gam.pop", GAM},
		{"core.bft.pop", BFT},
	}
	for _, c := range cases {
		t.Run(c.point+"/"+c.alg.String(), func(t *testing.T) {
			w := gen.Line(3, 3, gen.Alternate)
			fault.Reset()
			if err := fault.Arm(c.point, fault.Fault{Kind: fault.Panic}); err != nil {
				t.Fatal(err)
			}
			_, _, err := Search(w.Graph, Explicit(w.Seeds...), Options{Algorithm: c.alg})
			if fault.Fired(c.point) == 0 {
				t.Fatalf("probe %s never fired for %s", c.point, c.alg)
			}
			if err == nil {
				t.Fatal("panic in kernel did not surface as an error")
			}
			var pe *fault.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a contained panic: %v", err)
			}
			if !fault.IsInjected(err) {
				t.Fatalf("contained panic lost the injection marker: %v", err)
			}

			fault.Reset()
			rs, _, err := Search(w.Graph, Explicit(w.Seeds...), Options{Algorithm: c.alg})
			if err != nil {
				t.Fatalf("clean search after containment errored: %v", err)
			}
			if rs == nil {
				t.Fatal("clean search returned nil result set")
			}
		})
	}
}

// A scheduler whose search panicked must not come back from the pool: a
// half-written arena or history would poison the searches after it.
func TestChaosFailedSearchStateIsNotPooled(t *testing.T) {
	defer fault.Reset()
	w := gen.Star(5, 4, gen.Alternate)
	seeds, opts := Explicit(w.Seeds...), Options{Algorithm: MoLESP}
	_, fresh := new(callerSched).search(NewSetup(w.Graph, seeds, opts))
	for _, after := range []uint64{0, 7, 150} {
		fault.Reset()
		if err := fault.Arm("core.gam.pop", fault.Fault{Kind: fault.Panic, After: after}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Search(w.Graph, seeds, opts); !fault.IsInjected(err) {
			t.Fatalf("after=%d: want the injected panic, got %v", after, err)
		}
		fault.Reset()
		// The pool hands out its most recent return first: had the failed
		// scheduler been returned, it would be among these.
		var drawn []*callerSched
		for i := 0; i <= poolSize; i++ {
			s := schedPool.Get()
			if s.k.sched != nil || s.queue != nil || len(s.histEdge.ids) != 0 || len(s.k.rootedSeen.ids) != 0 || len(s.k.roots.recs) != 0 || s.single.h.Len() != 0 {
				t.Fatalf("after=%d: the pool holds a scheduler its search never reset", after)
			}
			drawn = append(drawn, s)
		}
		for _, s := range drawn {
			schedPool.Put(s)
		}
		rs, st := run(t, w.Graph, seeds, opts)
		if rs.Len() != 1 || st.Created != fresh.Created || st.Pruned != fresh.Pruned || st.QueuePops != fresh.QueuePops || st.PeakTrees != fresh.PeakTrees {
			t.Fatalf("after=%d: the search after a failed one diverges: %+v, fresh %+v", after, st, fresh)
		}
	}
}
