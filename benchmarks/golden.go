package benchmarks

import (
	"encoding/json"
	"fmt"
	"os"
)

// Golden pins, for one seed, what prepare generates and what the oracle
// answers: graph fingerprints and every distinct query with its expected
// rows and digest. A run whose seed has a golden file is checked against
// it before anything is measured, so semantic drift between commits — or
// a silent change in internal/gen — is caught rather than benchmarked.
type Golden struct {
	Seed      int64                     `json:"seed"`
	Workloads map[string]GoldenWorkload `json:"workloads"`
}

// GoldenWorkload is the pinned part of one workload's plan.
type GoldenWorkload struct {
	Graphs  []GraphFile   `json:"graphs"`
	Queries []GoldenQuery `json:"queries"`
}

// GoldenQuery is one query with its expected answer.
type GoldenQuery struct {
	Text   string `json:"text"`
	Rows   int    `json:"rows"`
	Digest string `json:"digest"`
}

// Golden extracts the pinned part of p.
func (p *Plan) Golden() GoldenWorkload {
	var g GoldenWorkload
	for _, gf := range p.Graphs {
		gf.Path = ""
		g.Graphs = append(g.Graphs, gf)
	}
	for _, q := range p.Queries {
		g.Queries = append(g.Queries, GoldenQuery{q.Text, q.Rows, q.Digest})
	}
	return g
}

// ReadGolden loads a golden file; ok is false when it does not exist.
func ReadGolden(path string) (g *Golden, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	g = &Golden{}
	if err := json.Unmarshal(data, g); err != nil {
		return nil, false, fmt.Errorf("golden file %s: %w", path, err)
	}
	return g, true, nil
}

// Check compares got, the pinned part of workload's freshly prepared
// plan, with the golden file's.
func (g *Golden) Check(workload string, got GoldenWorkload) error {
	want, ok := g.Workloads[workload]
	if !ok {
		return fmt.Errorf("golden file has no workload %s", workload)
	}
	if len(got.Graphs) != len(want.Graphs) {
		return fmt.Errorf("%s: %d graphs, golden has %d", workload, len(got.Graphs), len(want.Graphs))
	}
	for i := range got.Graphs {
		if got.Graphs[i] != want.Graphs[i] {
			return fmt.Errorf("%s: graph %+v, golden has %+v", workload, got.Graphs[i], want.Graphs[i])
		}
	}
	if len(got.Queries) != len(want.Queries) {
		return fmt.Errorf("%s: %d queries, golden has %d", workload, len(got.Queries), len(want.Queries))
	}
	for i := range got.Queries {
		if got.Queries[i] != want.Queries[i] {
			return fmt.Errorf("%s: query %d is %+v, golden has %+v", workload, i, got.Queries[i], want.Queries[i])
		}
	}
	return nil
}
