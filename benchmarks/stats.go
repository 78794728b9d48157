// Package benchmarks is the harness behind ctpmark, the repository's one
// named benchmark (see README.md in this directory and BENCHMARK.json at
// the repository root). Everything here measures the program from the
// outside: it times calls into each layer's public functions and reads
// the values those functions already return.
package benchmarks

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the value is one or two outliers rather than a property of
// the distribution.
const minBeyond = 10

// Percentile returns the q-th percentile (0 < q < 100) of sorted by the
// nearest-rank rule. It refuses — with an error naming the shortfall — a
// percentile that has fewer than minBeyond samples beyond it.
func Percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if q <= 0 || q >= 100 {
		return 0, fmt.Errorf("percentile %v out of range", q)
	}
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", q, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// Median returns the middle value of vs (mean of the two middle values
// for an even count); 0 for an empty slice. vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Quartiles returns the first and third quartile of vs by the exclusive
// method — the one Python's statistics.quantiles(values, n=4) uses, which
// is how the benchmark contract defines a spread. It needs two values.
func Quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of 4 cut points, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// Samples collects per-operation durations in milliseconds, in the order
// they were added.
type Samples struct {
	ms     []float64
	sorted []float64 // ms sorted; nil until needed, dropped by Add
}

func (s *Samples) Add(d time.Duration) {
	s.ms = append(s.ms, float64(d)/float64(time.Millisecond))
	s.sorted = nil
}

func (s *Samples) N() int { return len(s.ms) }

func (s *Samples) sort() []float64 {
	if s.sorted == nil {
		s.sorted = sortedCopy(s.ms)
	}
	return s.sorted
}

// P returns the q-th percentile in milliseconds under Percentile's rule.
func (s *Samples) P(q float64) (float64, error) { return Percentile(s.sort(), q) }

// Median returns the median in milliseconds.
func (s *Samples) Median() float64 { return Median(s.sort()) }

// BatchP99 is the p99 a single stall of the machine does not decide: the
// samples are cut, in arrival order, into consecutive batches of batch
// samples, each whole batch gives its own p99 (under Percentile's rule, so
// a batch holds at least 1,000), and the median of those is returned with
// the number of batches. A stall — a compaction, a garbage collection, a
// descheduled core — lands in one batch and moves that batch's p99 only.
func (s *Samples) BatchP99(batch int) (p99 float64, batches int, err error) {
	var each []float64
	for lo := 0; lo+batch <= len(s.ms); lo += batch {
		p, err := Percentile(sortedCopy(s.ms[lo:lo+batch]), 99)
		if err != nil {
			return 0, 0, err
		}
		each = append(each, p)
	}
	if len(each) == 0 {
		return 0, 0, fmt.Errorf("%d samples do not fill one batch of %d", len(s.ms), batch)
	}
	return Median(each), len(each), nil
}
