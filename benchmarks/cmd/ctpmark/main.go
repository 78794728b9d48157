// Command ctpmark is the repository's benchmark (see ../../README.md and
// BENCHMARK.json at the repository root).
//
//	ctpmark --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload; the last line of standard output is the
//	    result object the benchmark contract defines
//	ctpmark all [-seed 1] [-seconds 18] [-repeat N] [-trace] [-smoke] [-out FILE]
//	    every workload, one child process each, sequentially
//	ctpmark compare A.json B.json
//	    per (metric, workload): medians, quartiles, ratio, bound, verdict
//	ctpmark selfcheck [-seed 1] [-seconds 18] [-repeat 3]
//	    two sets of runs of this tree; fails unless every row is "same"
//	ctpmark golden [-seed 1] [-write]
//	    check (or write) golden/seed-N.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"ctpquery/benchmarks"
)

func main() {
	if err := dispatch(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ctpmark:", err)
		os.Exit(1)
	}
}

func dispatch(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: ctpmark --workload W --seed N --seconds S --trace 0|1 | all | compare | selfcheck | golden")
	}
	switch args[0] {
	case "all":
		return cmdAll(args[1:])
	case "compare":
		return cmdCompare(args[1:])
	case "selfcheck":
		return cmdSelfcheck(args[1:])
	case "golden":
		return cmdGolden(args[1:])
	case "child":
		return cmdChild(args[1:])
	}
	if strings.HasPrefix(args[0], "-") {
		return cmdOne(args)
	}
	return fmt.Errorf("unknown command %q", args[0])
}

// workDir is where a run keeps its generated inputs: inside the checkout,
// under the build directory the contract names.
func workDir() (string, error) {
	base := filepath.Join(".bench_build", "ctpmark-work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// traceDir is where traced runs write their spans.
func traceDir() string {
	if fi, err := os.Stat("benchmarks"); err == nil && fi.IsDir() {
		return filepath.Join("benchmarks", "out")
	}
	return "out"
}

// runWorkload prepares one workload's inputs in this process and measures
// it in a child process, so peak_rss_mb is the program's memory and not
// the generator's, and returns the child's result.
func runWorkload(workload string, seed int64, seconds float64, traced, smoke bool, sizes benchmarks.Sizes) (*benchmarks.Result, error) {
	dir, err := workDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	plan, err := benchmarks.Prepare(workload, seed, sizes, seconds, dir)
	if err != nil {
		return nil, err
	}
	prepared := time.Now()
	if golden, ok, err := benchmarks.ReadGolden(goldenPath(seed)); err != nil {
		return nil, err
	} else if ok && sizes == benchmarks.DefaultSizes {
		if err := golden.Check(workload, plan.Golden()); err != nil {
			return nil, fmt.Errorf("inputs or expected answers drifted from %s: %w", goldenPath(seed), err)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"child", "-plan", filepath.Join(dir, "plan.json"), "-seconds", fmt.Sprint(seconds)}
	if traced {
		args = append(args, "-trace", "-traceout", filepath.Join(traceDir(), workload+".trace.jsonl"))
	}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	if err != nil {
		return nil, fmt.Errorf("%s: measuring process: %w", workload, err)
	}
	fmt.Fprintf(os.Stderr, "ctpmark: %s seed %d: prepare %.1f s, measuring process %.1f s\n",
		workload, seed, prepared.Sub(start).Seconds(), time.Since(prepared).Seconds())
	var res benchmarks.Result
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%s: measuring process printed no result: %w", workload, err)
	}
	return &res, nil
}

func cmdChild(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	planPath := fs.String("plan", "", "plan file written by prepare")
	seconds := fs.Float64("seconds", benchmarks.RunSeconds, "timed window")
	traced := fs.Bool("trace", false, "traced run")
	traceOut := fs.String("traceout", "", "span file")
	smoke := fs.Bool("smoke", false, "one set-up; a window too short for a p99 leaves it out instead of failing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	plan, err := benchmarks.ReadPlan(*planPath)
	if err != nil {
		return err
	}
	res, err := benchmarks.Run(plan, benchmarks.RunOptions{Seconds: *seconds, Traced: *traced, TraceOut: *traceOut, Smoke: *smoke})
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// cmdOne is the contract's form: one workload, one result line.
func cmdOne(args []string) error {
	fs := flag.NewFlagSet("ctpmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", benchmarks.RunSeconds, "timed window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := runWorkload(*workload, *seed, *seconds, *trace == 1, false, benchmarks.DefaultSizes)
	if err != nil {
		return err
	}
	for _, e := range res.Errors {
		fmt.Fprintln(os.Stderr, "ctpmark: failed operation:", e)
	}
	defs := benchmarks.EndToEnd
	if *trace == 1 {
		defs = benchmarks.PerLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed, map[string]metric{}}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s did not report %s", *workload, d.Name)
		}
		line.Metrics[d.Name] = metric{m.Value, m.Unit}
	}
	_ = benchmarks.WriteResults(os.Stderr, []*benchmarks.Result{res}) // diagnostics; the result line is what counts
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct() {
		return fmt.Errorf("%s: %d of %d operations failed", *workload, res.Failed, res.Attempted)
	}
	return nil
}
