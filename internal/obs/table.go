package obs

import (
	"fmt"
	"strings"
)

// Stat is one row of a server's counter table: the single declaration
// behind a /stats key and a /metrics sample. A server builds its table
// once per render, loading each value once, and hands it to JSON for
// /stats and to Exposition.Table for /metrics — so the two surfaces
// cannot disagree about a counter they share.
type Stat struct {
	// Key is the row's /stats path, its levels separated by dots
	// ("cache.hits"); empty for a /metrics-only row.
	Key string
	// Name is the row's /metrics family; empty for a /stats-only row.
	// Consecutive rows naming the same family are its samples, told
	// apart by Labels; Help and Type ("counter" or "gauge") come from
	// the first.
	Name       string
	Help, Type string
	Labels     []Label
	// Value is any JSON value for /stats; a row with a Name holds a
	// number or a bool (rendered 1 or 0).
	Value any
}

// JSON nests the rows that have a Key into the /stats object.
func JSON(rows []Stat) map[string]any {
	doc := map[string]any{}
	for _, r := range rows {
		if r.Key == "" {
			continue
		}
		m, key := doc, r.Key
		for {
			i := strings.IndexByte(key, '.')
			if i < 0 {
				break
			}
			sub, ok := m[key[:i]].(map[string]any)
			if !ok {
				sub = map[string]any{}
				m[key[:i]] = sub
			}
			m, key = sub, key[i+1:]
		}
		m[key] = r.Value
	}
	return doc
}

// Table emits the rows that have a Name as /metrics families, a family
// header wherever the Name changes.
func (e *Exposition) Table(rows []Stat) {
	for _, r := range rows {
		if r.Name == "" {
			continue
		}
		if r.Name != e.family {
			e.Family(r.Name, r.Help, r.Type)
		}
		e.Sample("", r.Labels, sampleValue(r.Name, r.Value))
	}
}

// sampleValue converts a row's value to a sample.
func sampleValue(name string, v any) float64 {
	switch x := v.(type) {
	case float64:
		return x
	case int:
		return float64(x)
	case int64:
		return float64(x)
	case uint64:
		return float64(x)
	case bool:
		if x {
			return 1
		}
		return 0
	}
	panic(fmt.Sprintf("obs: metric %s has a %T value", name, v))
}
