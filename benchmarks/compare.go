package benchmarks

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Set is the output file of "ctpmark all": every run of every workload.
type Set struct {
	Seed    int64     `json:"seed"`
	Seconds float64   `json:"seconds"`
	Runs    []*Result `json:"runs"`
}

// Verdicts of a comparison row.
const (
	Better     = "better"
	Same       = "same"
	Worse      = "worse"
	Unresolved = "unresolved" // the run-to-run spread is wider than the bound
)

// Row compares one metric on one workload between two sets of runs.
type Row struct {
	Workload, Metric, Unit string
	A, B                   Quart
	// Ratio is B's median over A's (the base).
	Ratio   float64
	Bound   float64
	Verdict string
}

// Quart is a median with its quartiles and sample count.
type Quart struct {
	Median, Q1, Q3 float64
	N              int
}

func quart(vs []float64) Quart {
	q1, q3 := Quartiles(vs)
	return Quart{Median: Median(vs), Q1: q1, Q3: q3, N: len(vs)}
}

// spread is the quartile distance as a share of the median.
func (q Quart) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / q.Median
}

// Compare builds one row per (workload, metric) both sets report, for the
// metrics in defs. A row is "unresolved" when either side's spread exceeds
// the metric's bound, "worse"/"better" when B's median differs from A's by
// more than the bound in that direction, and "same" otherwise. Metrics
// without a bound (per-layer ones) are judged with bound 0: any
// difference shows, which is what exactly-repeating counts need.
func Compare(a, b []*Result, defs []MetricDef) []Row {
	collect := func(runs []*Result) map[[2]string][]float64 {
		out := map[[2]string][]float64{}
		for _, r := range runs {
			for name, m := range r.Metrics {
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], m.Value)
			}
		}
		return out
	}
	av, bv := collect(a), collect(b)
	var rows []Row
	for _, spec := range Specs {
		for _, d := range defs {
			k := [2]string{spec.Name, d.Name}
			if len(av[k]) == 0 || len(bv[k]) == 0 {
				continue
			}
			row := Row{Workload: spec.Name, Metric: d.Name, Unit: d.Unit, A: quart(av[k]), B: quart(bv[k]), Bound: d.Bound}
			row.Verdict = verdict(row.A, row.B, d)
			if row.A.Median != 0 {
				row.Ratio = row.B.Median / row.A.Median
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func verdict(a, b Quart, d MetricDef) string {
	if a.N > 1 && b.N > 1 && (a.spread() > d.Bound || b.spread() > d.Bound) && d.Bound > 0 {
		return Unresolved
	}
	delta := b.Median - a.Median
	if d.Better == "higher" {
		delta = -delta
	}
	// delta > 0 now means B is worse.
	limit := d.Bound * a.Median
	if limit < 0 {
		limit = -limit
	}
	switch {
	case delta > limit:
		return Worse
	case -delta > limit:
		return Better
	}
	return Same
}

// WriteRows prints a comparison table.
func WriteRows(w io.Writer, rows []Row) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] n\tB median [q1, q3] n\tB/A\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g] %d\t%.4g [%.4g, %.4g] %d\t%.3f\t%.2f\t%s\n",
			r.Workload, r.Metric, r.Unit,
			r.A.Median, r.A.Q1, r.A.Q3, r.A.N, r.B.Median, r.B.Q1, r.B.Q3, r.B.N,
			r.Ratio, r.Bound, r.Verdict)
	}
	return tw.Flush()
}

// WriteResults prints every metric of every run by name, with its unit.
func WriteResults(w io.Writer, runs []*Result) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tn")
	for _, r := range runs {
		names := make([]string, 0, len(r.Metrics))
		for name := range r.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := r.Metrics[name]
			n := ""
			if m.N > 0 {
				n = fmt.Sprint(m.N)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t%s\n", r.Workload, name, m.Value, m.Unit, n)
		}
		classNames := make([]string, 0, len(r.Classes))
		for name := range r.Classes {
			classNames = append(classNames, name)
		}
		sort.Strings(classNames)
		for _, name := range classNames {
			c := r.Classes[name]
			fmt.Fprintf(tw, "%s\tclass %s p50\t%.6g\tms\t%d\n", r.Workload, name, c.P50MS, c.N)
		}
	}
	return tw.Flush()
}
