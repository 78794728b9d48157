package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// Binary snapshots persist a graph much faster than the triple text
// format and, unlike it, round-trip graphs with duplicate or empty node
// labels, node types, and string properties. The format (version 3) is
// little-endian, all integers u32:
//
//	magic "CTPG" | version 3 |
//	counts §      nLabels | dictBytes | nNodes | nTypes | nEdges
//	dictionary §  dictOff [nLabels+1] | dict [dictBytes]byte
//	nodes §       nodeLabel [nNodes] | typeOff [nNodes+1] | types [nTypes]
//	edges §       [nEdges](source, target, label)
//	node-props §  count, then per property: name, count, then per value: node, value
//	edge-props §  likewise, keyed by edge ID
//
// where each § section ends with a CRC32 (IEEE) of its payload bytes and
// strings in the property sections are length-prefixed. Label i is
// dict[dictOff[i]:dictOff[i+1]] (label 0 is ε); node n's types, ascending,
// are types[typeOff[n]:typeOff[n+1]]. The reader checks the counts
// section's checksum before it allocates anything sized by a count, reads
// every other section as whole slabs (one checksum update per chunk), and
// validates every offset and ID before it assembles the graph. The CSR
// indexes are not stored: rebuilding them costs about what validating
// stored ones would, and a rebuilt index cannot disagree with the edges.
//
// Corruption — a flipped bit, a truncated file, garbage — surfaces as a
// structured *SnapshotError naming the section and byte offset, never as
// a panic or a silently wrong graph. The format is a cache, not an
// archive: a file of an older version fails with an error that says to
// write it again.

const (
	snapshotMagic   = "CTPG"
	snapshotVersion = 3

	// slabChunk is the unit of slab I/O and checksumming.
	slabChunk = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// SnapshotError is a structured snapshot decoding failure: which
// section could not be decoded and at what byte offset into the stream,
// so an operator can tell a truncated copy from a flipped disk bit.
type SnapshotError struct {
	Section string // "header", "counts", "dictionary", "nodes", "edges", "node-props", "edge-props", "decode"
	Offset  int64  // bytes consumed when the failure was detected
	Err     error
}

func (e *SnapshotError) Error() string {
	return fmt.Sprintf("graph: snapshot %s section at offset %d: %v", e.Section, e.Offset, e.Err)
}

func (e *SnapshotError) Unwrap() error { return e.Err }

// snapshotContent is what a snapshot holds, slab by slab. WriteSnapshot
// flattens a graph into one and encodes it; ReadSnapshot decodes and
// validates one and assembles the graph around its slabs.
type snapshotContent struct {
	dictOff   []uint32
	dict      string
	nodeLabel []LabelID
	typeOff   []uint32
	types     []LabelID
	edges     []Edge
	nodeProps map[string]map[NodeID]string
	edgeProps map[string]map[EdgeID]string
}

// contentOf flattens g, which must have no overlay.
func contentOf(g *Graph) *snapshotContent {
	c := &snapshotContent{
		dictOff:   make([]uint32, 1, g.labels.Len()+1),
		nodeLabel: g.nodeLabel,
		typeOff:   make([]uint32, 1, len(g.nodeTypes)+1),
		edges:     g.edges,
		nodeProps: g.nodeProps,
		edgeProps: g.edgeProps,
	}
	var dict strings.Builder
	for i := 0; i < g.labels.Len(); i++ {
		dict.WriteString(g.labels.String(LabelID(i)))
		c.dictOff = append(c.dictOff, uint32(dict.Len()))
	}
	c.dict = dict.String()
	for _, ts := range g.nodeTypes {
		c.types = append(c.types, ts...)
		c.typeOff = append(c.typeOff, uint32(len(c.types)))
	}
	return c
}

// WriteSnapshot serializes g into w.
func WriteSnapshot(w io.Writer, g *Graph) error {
	// A live epoch view serializes its logical content: compact the
	// overlay away first so the raw-field walk below sees a plain base.
	return contentOf(g.Compact()).encode(w)
}

// encode writes c as a snapshot. It checksums whatever c holds; only
// ReadSnapshot validates.
func (c *snapshotContent) encode(w io.Writer) error {
	sw := &snapWriter{bw: bufio.NewWriter(w)}
	sw.raw([]byte(snapshotMagic))
	sw.raw(binary.LittleEndian.AppendUint32(nil, snapshotVersion))

	for _, n := range []int{len(c.dictOff) - 1, len(c.dict), len(c.nodeLabel), len(c.types), len(c.edges)} {
		sw.u32(uint32(n))
	}
	sw.endSection()

	for _, o := range c.dictOff {
		sw.u32(o)
	}
	sw.blob(c.dict)
	sw.endSection()

	for _, l := range c.nodeLabel {
		sw.u32(uint32(l))
	}
	for _, o := range c.typeOff {
		sw.u32(o)
	}
	for _, t := range c.types {
		sw.u32(uint32(t))
	}
	sw.endSection()

	for _, e := range c.edges {
		sw.u32(uint32(e.Source))
		sw.u32(uint32(e.Target))
		sw.u32(uint32(e.Label))
	}
	sw.endSection()

	writeProps(sw, c.nodeProps)
	writeProps(sw, c.edgeProps)

	if sw.err != nil {
		return sw.err
	}
	return sw.bw.Flush()
}

func writeProps[K NodeID | EdgeID](sw *snapWriter, props map[string]map[K]string) {
	sw.u32(uint32(len(props)))
	for p, m := range props {
		sw.str(p)
		sw.u32(uint32(len(m)))
		for k, v := range m {
			sw.u32(uint32(k))
			sw.str(v)
		}
	}
	sw.endSection()
}

// snapWriter buffers a section's payload in chunks and accumulates its
// CRC32 one chunk at a time; endSection emits it.
type snapWriter struct {
	bw  *bufio.Writer
	buf []byte
	crc uint32
	err error
}

// raw writes outside the checksum (magic, version, the CRCs themselves).
func (w *snapWriter) raw(b []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(b); err != nil {
		w.err = err
	}
}

func (w *snapWriter) flush() {
	w.crc = crc32.Update(w.crc, crcTable, w.buf)
	w.raw(w.buf)
	w.buf = w.buf[:0]
}

func (w *snapWriter) u32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	if len(w.buf) >= slabChunk {
		w.flush()
	}
}

// blob writes the bytes of s.
func (w *snapWriter) blob(s string) {
	w.buf = append(w.buf, s...)
	if len(w.buf) >= slabChunk {
		w.flush()
	}
}

// str writes s length-prefixed.
func (w *snapWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.blob(s)
}

func (w *snapWriter) endSection() {
	w.flush()
	w.raw(binary.LittleEndian.AppendUint32(nil, w.crc))
	w.crc = 0
}

// snapReader funnels every payload read through one point that tracks
// the byte offset and the running section CRC. The CRC is computed at
// the consumption layer (not a TeeReader) because bufio's read-ahead
// would otherwise checksum bytes the decoder never reached.
type snapReader struct {
	br      *bufio.Reader
	buf     []byte // one slab chunk
	crc     uint32
	off     int64
	err     *SnapshotError
	section string
}

func (r *snapReader) fail(err error) {
	if r.err == nil {
		r.err = &SnapshotError{Section: r.section, Offset: r.off, Err: err}
	}
}

func (r *snapReader) failf(format string, args ...any) {
	r.fail(fmt.Errorf(format, args...))
}

func (r *snapReader) read(b []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.br, b); err != nil {
		r.fail(fmt.Errorf("truncated: %w", err))
		return false
	}
	r.off += int64(len(b))
	r.crc = crc32.Update(r.crc, crcTable, b)
	return true
}

func (r *snapReader) u32() uint32 {
	var buf [4]byte
	if !r.read(buf[:]) {
		return 0
	}
	return binary.LittleEndian.Uint32(buf[:])
}

func (r *snapReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > 1<<24 {
		r.failf("implausible string length %d", n)
		return ""
	}
	// The property sections are checksummed only at their end: size
	// nothing by a length the data has not yet backed.
	var sb strings.Builder
	sb.Grow(min(int(n), slabChunk))
	r.slab(int(n), 1, func(_ int, b []byte) { sb.Write(b) })
	return sb.String()
}

// slab reads n records of size bytes each, in chunks of whole records
// of up to slabChunk bytes, and hands each chunk to decode with the
// index of its first record.
func (r *snapReader) slab(n, size int, decode func(first int, chunk []byte)) {
	per := slabChunk / size
	for first := 0; first < n && r.err == nil; first += per {
		b := r.buf[:min(per, n-first)*size]
		if r.read(b) {
			decode(first, b)
		}
	}
}

// readU32s fills dst from a slab of u32s.
func readU32s[T ~int32 | ~uint32](r *snapReader, dst []T) {
	r.slab(len(dst), 4, func(first int, b []byte) {
		d := dst[first : first+len(b)/4]
		for i := range d {
			d[i] = T(binary.LittleEndian.Uint32(b[4*i:]))
		}
	})
}

// endSection verifies the current section's stored checksum, which is
// read outside the running one, and reports whether the stream is still
// good.
func (r *snapReader) endSection() bool {
	if r.err == nil {
		sum := r.crc
		var buf [4]byte
		if _, err := io.ReadFull(r.br, buf[:]); err != nil {
			r.fail(fmt.Errorf("truncated checksum: %w", err))
		} else {
			r.off += 4
			if got := binary.LittleEndian.Uint32(buf[:]); got != sum {
				r.failf("checksum mismatch (stored %#08x, computed %#08x): corrupted snapshot", got, sum)
			}
		}
	}
	r.crc = 0
	return r.err == nil
}

// ReadSnapshot deserializes a graph written by WriteSnapshot. Any
// failure — truncation, corruption, an older format version, implausible
// counts, out-of-range IDs — returns a *SnapshotError; the function never
// panics on arbitrary input.
func ReadSnapshot(rd io.Reader) (g *Graph, err error) {
	// Backstop: any decode panic the validations below miss becomes a
	// structured error — a corrupted cache file must never take down the
	// process that tries to load it.
	defer func() {
		if rec := recover(); rec != nil {
			g, err = nil, &SnapshotError{Section: "decode", Err: fmt.Errorf("panic: %v", rec)}
		}
	}()

	r := &snapReader{br: bufio.NewReaderSize(rd, slabChunk), buf: make([]byte, slabChunk), section: "header"}
	magic := make([]byte, 4)
	if !r.read(magic) {
		return nil, r.err
	}
	if string(magic) != snapshotMagic {
		return nil, &SnapshotError{Section: "header", Err: fmt.Errorf("not a snapshot (magic %q)", magic)}
	}
	if v := r.u32(); r.err == nil && v != snapshotVersion {
		r.failf("unsupported snapshot version %d; re-save it with -save-snapshot", v)
	}
	if r.err != nil {
		return nil, r.err
	}
	r.crc = 0 // the header is not checksummed
	c, dict := r.content()
	if r.err != nil {
		return nil, r.err
	}
	g, dup := c.graph(dict)
	if dup >= 0 {
		r.section = "dictionary"
		r.failf("label %d %q repeats an earlier label", dup, dict.byID[dup])
		return nil, r.err
	}
	return g, nil
}

// content decodes and validates every section after the header but for
// the dictionary's duplicate check, and returns the content and its
// dictionary, byString still empty.
func (r *snapReader) content() (*snapshotContent, *Dict) {
	r.section = "counts"
	nLabels, dictBytes, nNodes, nTypes, nEdges := r.u32(), r.u32(), r.u32(), r.u32(), r.u32()
	if !r.endSection() {
		return nil, nil
	}
	switch {
	case nLabels == 0:
		r.failf("empty dictionary (ε is always present)")
	case nLabels > 1<<24:
		r.failf("implausible label count %d", nLabels)
	case dictBytes > 1<<30:
		r.failf("implausible dictionary size %d", dictBytes)
	case nNodes > 1<<28:
		r.failf("implausible node count %d", nNodes)
	case nTypes > 1<<28:
		r.failf("implausible type count %d", nTypes)
	case nEdges > 1<<28:
		r.failf("implausible edge count %d", nEdges)
	}
	if r.err != nil {
		return nil, nil
	}

	r.section = "dictionary"
	c := &snapshotContent{dictOff: make([]uint32, nLabels+1)}
	readU32s(r, c.dictOff)
	var dict strings.Builder
	dict.Grow(int(dictBytes))
	r.slab(int(dictBytes), 1, func(_ int, b []byte) { dict.Write(b) })
	c.dict = dict.String()
	if !r.endSection() {
		return nil, nil
	}
	d := r.dictionary(c)
	if r.err != nil {
		return nil, nil
	}

	r.section = "nodes"
	c.nodeLabel = make([]LabelID, nNodes)
	readU32s(r, c.nodeLabel)
	c.typeOff = make([]uint32, nNodes+1)
	readU32s(r, c.typeOff)
	c.types = make([]LabelID, nTypes)
	readU32s(r, c.types)
	if !r.endSection() {
		return nil, nil
	}
	r.checkNodes(c, nLabels)
	if r.err != nil {
		return nil, nil
	}

	r.section = "edges"
	c.edges = make([]Edge, nEdges)
	r.slab(int(nEdges), 12, func(first int, b []byte) {
		es := c.edges[first : first+len(b)/12]
		for i := range es {
			p := b[12*i : 12*i+12]
			es[i] = Edge{
				Source: NodeID(binary.LittleEndian.Uint32(p)),
				Target: NodeID(binary.LittleEndian.Uint32(p[4:])),
				Label:  LabelID(binary.LittleEndian.Uint32(p[8:])),
			}
		}
	})
	if !r.endSection() {
		return nil, nil
	}
	for i, e := range c.edges {
		if uint32(e.Source) >= nNodes || uint32(e.Target) >= nNodes {
			r.failf("edge %d endpoint (%d -> %d) outside nodes [0,%d)", i, uint32(e.Source), uint32(e.Target), nNodes)
			return nil, nil
		}
		if uint32(e.Label) >= nLabels {
			r.failf("edge %d label %d outside dictionary [0,%d)", i, uint32(e.Label), nLabels)
			return nil, nil
		}
	}

	c.nodeProps = readProps[NodeID](r, "node-props", nNodes, "nodes")
	c.edgeProps = readProps[EdgeID](r, "edge-props", nEdges, "edges")
	return c, d
}

// dictionary validates the dictionary slabs and lays the Dict's byID
// over them: every label is a substring of c.dict.
func (r *snapReader) dictionary(c *snapshotContent) *Dict {
	off := c.dictOff
	n := len(off) - 1
	if off[0] != 0 || off[n] != uint32(len(c.dict)) {
		r.failf("dictionary offsets span [%d,%d), want [0,%d)", off[0], off[n], len(c.dict))
		return nil
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			r.failf("dictionary offset %d (%d) exceeds the next (%d)", i, off[i], off[i+1])
			return nil
		}
	}
	if off[1] != 0 {
		r.failf("label 0 is %q, not ε", c.dict[:off[1]])
		return nil
	}
	d := &Dict{byID: make([]string, n)}
	for i := range d.byID {
		d.byID[i] = c.dict[off[i]:off[i+1]]
	}
	return d
}

// index fills d.byString, presized, with one write per label, and
// returns the first label that repeats an earlier one, or -1.
func (d *Dict) index() int {
	d.byString = make(map[string]LabelID, len(d.byID))
	for i, s := range d.byID {
		if d.byString[s] = LabelID(i); len(d.byString) != i+1 {
			return i
		}
	}
	return -1
}

// checkNodes validates node labels, type offsets and type lists.
func (r *snapReader) checkNodes(c *snapshotContent, nLabels uint32) {
	for i, l := range c.nodeLabel {
		if uint32(l) >= nLabels {
			r.failf("node %d label %d outside dictionary [0,%d)", i, uint32(l), nLabels)
			return
		}
	}
	off := c.typeOff
	n := len(off) - 1
	if off[0] != 0 || off[n] != uint32(len(c.types)) {
		r.failf("type offsets span [%d,%d), want [0,%d)", off[0], off[n], len(c.types))
		return
	}
	for i := 0; i < n; i++ {
		if off[i] > off[i+1] {
			r.failf("node %d type offset %d exceeds the next (%d)", i, off[i], off[i+1])
			return
		}
		prev := int64(-1)
		for _, t := range c.types[off[i]:off[i+1]] {
			if uint32(t) >= nLabels {
				r.failf("node %d type label %d outside dictionary [0,%d)", i, uint32(t), nLabels)
				return
			}
			if int64(t) <= prev {
				r.failf("node %d types not strictly ascending (%d after %d)", i, t, prev)
				return
			}
			prev = int64(t)
		}
	}
}

// readProps decodes one property section, whose keys must lie in
// [0, limit).
func readProps[K NodeID | EdgeID](r *snapReader, section string, limit uint32, noun string) map[string]map[K]string {
	if r.err != nil {
		return nil
	}
	r.section = section
	nProps := r.u32()
	if r.err == nil && nProps > 1<<20 {
		r.failf("implausible property count %d", nProps)
	}
	props := make(map[string]map[K]string)
	for i := uint32(0); i < nProps && r.err == nil; i++ {
		p := r.str()
		k := r.u32()
		if r.err != nil {
			break
		}
		if k > limit {
			r.failf("property %q has %d values for %d %s", p, k, limit, noun)
			break
		}
		m := make(map[K]string)
		for j := uint32(0); j < k && r.err == nil; j++ {
			key := r.u32()
			v := r.str()
			if r.err != nil {
				break
			}
			if key >= limit {
				r.failf("property %q key %d outside %s [0,%d)", p, key, noun, limit)
				break
			}
			m[K(key)] = v
		}
		props[p] = m
	}
	r.endSection()
	return props
}

// graph assembles the Graph around c's validated slabs: node type lists
// are cap-clipped subslices of one slab, and the indexes, the fingerprint
// and d's byString are built concurrently. It returns the index of the
// first duplicate label, or -1.
func (c *snapshotContent) graph(d *Dict) (*Graph, int) {
	g := &Graph{
		labels:    d,
		nodeLabel: c.nodeLabel,
		nodeTypes: make([][]LabelID, len(c.nodeLabel)),
		edges:     c.edges,
		nodeProps: c.nodeProps,
		edgeProps: c.edgeProps,
	}
	for i := range g.nodeTypes {
		if a, b := c.typeOff[i], c.typeOff[i+1]; a < b {
			g.nodeTypes[i] = c.types[a:b:b]
		}
	}
	dup := -1
	freezeIndexes(g, func() { g.fingerprint = g.computeFingerprint() }, func() { dup = d.index() })
	return g, dup
}
