package graph

import (
	"maps"
	"slices"
)

// Dict interns label strings to dense LabelIDs. ID 0 is always the empty
// label ε. A Dict is append-only; lookups after Build are read-only and
// safe for concurrent use.
//
// A Builder interns into byString directly. A Store never writes a map a
// view can reach: each epoch's Dict is a copy of the last one's header
// that appends to byID past every published length and files the new ID
// in grown, a persistent table of hash buckets (see table), so interning
// costs the same however many labels the live graph has.
type Dict struct {
	byString map[string]LabelID // IDs [0, len(byString)); frozen once a Store holds the Dict
	byID     []string
	grown    table[[]LabelID] // IDs from len(byString) on, by growBucket
}

// growBuckets is the size of grown's key space; a Store's compaction folds
// grown back into byString, so the buckets hold at most one delta's labels.
const growBuckets = 1 << 15

func growBucket(s string) int { return int(fnv64a(s) & (growBuckets - 1)) }

// NewDict returns a dictionary pre-seeded with the empty label at ID 0.
func NewDict() *Dict {
	d := &Dict{byString: make(map[string]LabelID)}
	d.byString[""] = NoLabel
	d.byID = append(d.byID, "")
	return d
}

// Intern returns the ID for s, adding it if absent.
func (d *Dict) Intern(s string) LabelID {
	if id, ok := d.byString[s]; ok {
		return id
	}
	id := LabelID(len(d.byID))
	d.byString[s] = id
	d.byID = append(d.byID, s)
	return id
}

// grow is Intern for a Dict that published views share: the new ID goes
// to byID's spare capacity and to grown, whose nodes of generation gen
// are the only ones it writes.
func (d *Dict) grow(gen uint64, s string) LabelID {
	if id, ok := d.Lookup(s); ok {
		return id
	}
	id := LabelID(len(d.byID))
	d.byID = append(d.byID, s)
	b := growBucket(s)
	d.grown.set(gen, b, append(d.grown.get(b), id))
	return id
}

// flatten returns a Dict with d's IDs, all in byString, that shares no
// spare capacity with d: a Store's compaction starts the next chain of
// epochs from it.
func (d *Dict) flatten() *Dict {
	nd := &Dict{byString: maps.Clone(d.byString), byID: slices.Clip(d.byID)}
	for id := len(d.byString); id < len(d.byID); id++ {
		nd.byString[d.byID[id]] = LabelID(id)
	}
	return nd
}

// Lookup returns the ID for s without adding it.
func (d *Dict) Lookup(s string) (LabelID, bool) {
	if id, ok := d.byString[s]; ok {
		return id, true
	}
	for _, id := range d.grown.get(growBucket(s)) {
		if d.byID[id] == s {
			return id, true
		}
	}
	return 0, false
}

// String returns the string for id.
func (d *Dict) String(id LabelID) string { return d.byID[id] }

// Len returns the number of interned labels, including ε.
func (d *Dict) Len() int { return len(d.byID) }
