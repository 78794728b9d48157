package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"ctpquery/benchmarks"
)

// goldenPath is where seed's golden file lives, next to the sources.
func goldenPath(seed int64) string {
	dir := "golden"
	if fi, err := os.Stat("benchmarks"); err == nil && fi.IsDir() {
		dir = filepath.Join("benchmarks", "golden")
	}
	return filepath.Join(dir, fmt.Sprintf("seed-%d.json", seed))
}

// runSet runs every workload repeat times and returns all results. With
// reverse it walks the workloads backwards, so that two sets driven as a
// pair do not both meet each workload at the same point of the machine's
// warm-up.
func runSet(seed int64, seconds float64, repeat int, traced, smoke, reverse bool) ([]*benchmarks.Result, error) {
	var runs []*benchmarks.Result
	for rep := 0; rep < repeat; rep++ {
		for i := range benchmarks.Specs {
			spec := benchmarks.Specs[i]
			if reverse {
				spec = benchmarks.Specs[len(benchmarks.Specs)-1-i]
			}
			res, err := runWorkload(spec.Name, seed, seconds, traced, smoke, benchmarks.DefaultSizes)
			if err != nil {
				return nil, err
			}
			runs = append(runs, res)
		}
	}
	return runs, nil
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", benchmarks.RunSeconds, "timed window per workload")
	repeat := fs.Int("repeat", 1, "runs per workload")
	trace := fs.Bool("trace", false, "add the traced run that yields the per-layer metrics")
	smoke := fs.Bool("smoke", false, "check the oracle only: one set-up per workload, and a window too short for a p99 leaves it out instead of failing")
	out := fs.String("out", "", "write every run to this file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runs, err := runSet(*seed, *seconds, *repeat, false, *smoke, false)
	if err != nil {
		return err
	}
	if *trace {
		traced, err := runSet(*seed, *seconds, 1, true, *smoke, false)
		if err != nil {
			return err
		}
		runs = append(runs, traced...)
	}
	if err := benchmarks.WriteResults(os.Stdout, runs); err != nil {
		return err
	}
	if *out != "" {
		data, err := json.MarshalIndent(benchmarks.Set{Seed: *seed, Seconds: *seconds, Runs: runs}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	return failedRuns(runs)
}

func failedRuns(runs []*benchmarks.Result) error {
	for _, r := range runs {
		if !r.Correct() {
			return fmt.Errorf("%s: %d of %d operations failed: %v", r.Workload, r.Failed, r.Attempted, r.Errors)
		}
	}
	return nil
}

func readSet(path string) (*benchmarks.Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarks.Set
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// split separates untraced runs (end-to-end metrics) from traced ones.
func split(runs []*benchmarks.Result) (plain, traced []*benchmarks.Result) {
	for _, r := range runs {
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	return plain, traced
}

func compareSets(a, b []*benchmarks.Result) []benchmarks.Row {
	ap, at := split(a)
	bp, bt := split(b)
	rows := benchmarks.Compare(ap, bp, append(append([]benchmarks.MetricDef{}, benchmarks.EndToEnd...), benchmarks.Specific...))
	return append(rows, benchmarks.Compare(at, bt, benchmarks.PerLayer)...)
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: ctpmark compare A.json B.json")
	}
	a, err := readSet(args[0])
	if err != nil {
		return err
	}
	b, err := readSet(args[1])
	if err != nil {
		return err
	}
	return benchmarks.WriteRows(os.Stdout, compareSets(a.Runs, b.Runs))
}

// exactCounts are the layer metrics that are counts of deterministic
// work: they must repeat exactly between runs of one seed. (The heap
// allocation count core.allocs_per_search is sampled from the runtime and
// does not.)
var exactCounts = map[string]bool{
	"core.created": true, "core.pruned": true, "core.queue_pops": true, "core.peak_trees": true,
}

// cmdSelfcheck drives two sets of runs of the current tree as pairs,
// alternating which side goes first, and fails unless every row of the
// five end-to-end metrics every workload reports is "same", no row of
// the three that belong to one workload is "better" or "worse" (two of
// those, the p99s, are "unresolved" on the calibration machine — see
// README.md — which is printed and does not fail the check), and every
// exact count is equal.
func cmdSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", benchmarks.RunSeconds, "timed window per workload")
	repeat := fs.Int("repeat", 3, "pairs of runs per workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var a, b []*benchmarks.Result
	for pair := 0; pair < *repeat; pair++ {
		first, second := &a, &b
		if pair%2 == 1 {
			first, second = &b, &a
		}
		for _, side := range []*[]*benchmarks.Result{first, second} {
			runs, err := runSet(*seed, *seconds, 1, false, false, pair%2 == 1)
			if err != nil {
				return err
			}
			*side = append(*side, runs...)
		}
	}
	for _, side := range []*[]*benchmarks.Result{&a, &b} {
		runs, err := runSet(*seed, *seconds, 1, true, false, false)
		if err != nil {
			return err
		}
		*side = append(*side, runs...)
	}
	if err := failedRuns(append(append([]*benchmarks.Result{}, a...), b...)); err != nil {
		return err
	}
	rows := compareSets(a, b)
	if err := benchmarks.WriteRows(os.Stdout, rows); err != nil {
		return err
	}
	everywhere, specific := map[string]bool{}, map[string]bool{}
	for _, d := range benchmarks.EndToEnd {
		everywhere[d.Name] = true
	}
	for _, d := range benchmarks.Specific {
		specific[d.Name] = d.Bound > 0
	}
	bad := 0
	for _, r := range rows {
		// The traced run repeats the names of Specific among its layer
		// metrics, from one run a side and without a bound: not judged.
		judged := specific[r.Metric] && r.Bound > 0
		differs := r.Verdict == benchmarks.Better || r.Verdict == benchmarks.Worse
		switch {
		case everywhere[r.Metric] && r.Verdict != benchmarks.Same,
			judged && differs,
			exactCounts[r.Metric] && r.A.Median != r.B.Median:
			fmt.Printf("selfcheck: %s %s: %s (A %.6g, B %.6g)\n", r.Workload, r.Metric, r.Verdict, r.A.Median, r.B.Median)
			bad++
		case judged && r.Verdict == benchmarks.Unresolved:
			fmt.Printf("selfcheck: %s %s: unresolved — its spread is wider than its bound, so it can show no difference\n", r.Workload, r.Metric)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d rows differ between two sets of runs of the same code", bad)
	}
	fmt.Println("selfcheck: no row differs between the two sets")
	return nil
}

func cmdGolden(args []string) error {
	fs := flag.NewFlagSet("golden", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed")
	write := fs.Bool("write", false, "write the golden file instead of checking it")
	if err := fs.Parse(args); err != nil {
		return err
	}
	g := benchmarks.Golden{Seed: *seed, Workloads: map[string]benchmarks.GoldenWorkload{}}
	for _, spec := range benchmarks.Specs {
		dir, err := workDir()
		if err != nil {
			return err
		}
		plan, err := benchmarks.Prepare(spec.Name, *seed, benchmarks.DefaultSizes, benchmarks.RunSeconds, dir)
		os.RemoveAll(dir)
		if err != nil {
			return err
		}
		g.Workloads[spec.Name] = plan.Golden()
	}
	path := goldenPath(*seed)
	if *write {
		data, err := json.MarshalIndent(g, "", " ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		return os.WriteFile(path, append(data, '\n'), 0o644)
	}
	want, ok, err := benchmarks.ReadGolden(path)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no golden file %s (write one with -write)", path)
	}
	for _, spec := range benchmarks.Specs {
		if err := want.Check(spec.Name, g.Workloads[spec.Name]); err != nil {
			return err
		}
	}
	fmt.Println("golden: seed", *seed, "matches", path)
	return nil
}
