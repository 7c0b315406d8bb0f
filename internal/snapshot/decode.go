package snapshot

import (
	"rdfalign/internal/archive"
	"rdfalign/internal/rdf"
)

// dictExpansionFactor bounds how much larger the decoded term dictionary
// may be than its encoded bytes. Front-coding legitimately expands —
// terms sharing a long prefix decode to many times their suffix bytes —
// but the expansion of a crafted input is quadratic in the payload, so a
// linear budget is what keeps "never over-allocate" true.
const dictExpansionFactor = 512

// decodeGraphBody decodes one legacy GRPH graph section straight into the
// columns rdf.FromColumns takes. The section's subject column is
// redundant with its out index; each subject is checked against the run
// that holds its triple.
func decodeGraphBody(c *cursor) (*heapColumns, error) {
	name, err := c.readString()
	if err != nil {
		return nil, err
	}
	numNodes, err := c.count("node")
	if err != nil {
		return nil, err
	}
	numTriples, err := c.count("triple")
	if err != nil {
		return nil, err
	}
	labels, kinds, err := decodeDict(c, numNodes)
	if err != nil {
		return nil, err
	}
	subjects := *c // rewound below, once the out index is known
	for i := 0; i < numTriples; i++ {
		if _, err := c.uvarint(); err != nil {
			return nil, err
		}
	}
	outEdges := make([]rdf.Edge, numTriples)
	for _, col := range []func(i int, v rdf.NodeID){
		func(i int, v rdf.NodeID) { outEdges[i].P = v },
		func(i int, v rdf.NodeID) { outEdges[i].O = v },
	} {
		prev := int64(0)
		for i := 0; i < numTriples; i++ {
			d, err := c.varint()
			if err != nil {
				return nil, err
			}
			prev += d
			if prev < 0 || prev > maxInt {
				return nil, corrupt(c.off(), "triple column out of range at triple %d", i)
			}
			col(i, rdf.NodeID(prev))
		}
	}
	outIndex, err := decodeDegrees(c, "out", numNodes, numTriples)
	if err != nil {
		return nil, err
	}
	depIndex, err := decodeDegrees(c, "dependency", numNodes, 2*numTriples)
	if err != nil {
		return nil, err
	}
	depTotal := int(depIndex[numNodes])
	depNodes := make([]rdf.NodeID, depTotal)
	for n := 0; n < numNodes; n++ {
		prevNode := int64(-1)
		for i := depIndex[n]; i < depIndex[n+1]; i++ {
			d, err := c.uvarint()
			if err != nil {
				return nil, err
			}
			if d == 0 {
				return nil, corrupt(c.off(), "dependency run of node %d not strictly ascending", n)
			}
			prevNode += int64(d)
			if prevNode > maxInt {
				return nil, corrupt(c.off(), "dependency run of node %d overflows", n)
			}
			depNodes[i] = rdf.NodeID(prevNode)
		}
	}
	if err := c.expectEnd(); err != nil {
		return nil, err
	}
	var subj uint64
	for i := 0; i < numTriples; i++ {
		d, err := subjects.uvarint()
		if err != nil {
			return nil, err
		}
		if d >= uint64(numNodes)-subj {
			return nil, corrupt(subjects.off(), "subject of triple %d outside [0,%d)", i, numNodes)
		}
		subj += d
		if int32(i) < outIndex[subj] || int32(i) >= outIndex[subj+1] {
			return nil, corrupt(subjects.off(), "out index run of node %d excludes its triple %d", subj, i)
		}
	}
	return &heapColumns{
		name:     name,
		labels:   labels,
		kinds:    kinds,
		outIndex: outIndex,
		outEdges: outEdges,
		depIndex: depIndex,
		depNodes: depNodes,
	}, nil
}

// heapColumns is the slice-backed Columns the decode of a legacy GRPH
// section produces.
type heapColumns struct {
	name     string
	labels   []rdf.Label
	kinds    []rdf.Kind
	outIndex []int32
	outEdges []rdf.Edge
	depIndex []int32
	depNodes []rdf.NodeID
}

func (hc *heapColumns) GraphName() string               { return hc.name }
func (hc *heapColumns) NumNodes() int                   { return len(hc.labels) }
func (hc *heapColumns) NumTriples() int                 { return len(hc.outEdges) }
func (hc *heapColumns) Label(n rdf.NodeID) rdf.Label    { return hc.labels[n] }
func (hc *heapColumns) Kinds() []rdf.Kind               { return hc.kinds }
func (hc *heapColumns) OutCSR() ([]int32, []rdf.Edge)   { return hc.outIndex, hc.outEdges }
func (hc *heapColumns) DepCSR() ([]int32, []rdf.NodeID) { return hc.depIndex, hc.depNodes }
func (hc *heapColumns) Close() error                    { return nil }

// decodeDict decodes the front-coded term dictionary in two passes: the
// first validates every (lcp, suffix) pair and sizes the decoded arena,
// the second fills one contiguous byte arena and converts it to a single
// string, so every label value is a zero-copy substring — two large
// allocations for the whole dictionary instead of one per term.
func decodeDict(c *cursor, numNodes int) ([]rdf.Label, []rdf.Kind, error) {
	type spec struct {
		lcp, suffOff, suffLen int
	}
	kinds := make([]rdf.Kind, numNodes)
	specs := make([]spec, numNodes)
	budget := int64(dictExpansionFactor)*int64(len(c.data)) + 4096
	var total int64
	prevLen := 0
	for i := 0; i < numNodes; i++ {
		k, err := c.byte()
		if err != nil {
			return nil, nil, err
		}
		kinds[i] = rdf.Kind(k)
		if rdf.Kind(k) == rdf.Blank {
			specs[i] = spec{lcp: -1}
			continue
		}
		lcp, err := c.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if lcp > uint64(prevLen) {
			return nil, nil, corrupt(c.off(), "term %d shares %d prefix bytes with a %d-byte predecessor", i, lcp, prevLen)
		}
		suffLen, err := c.count("term suffix")
		if err != nil {
			return nil, nil, err
		}
		suffOff := c.pos
		if _, err := c.bytes(suffLen); err != nil {
			return nil, nil, err
		}
		specs[i] = spec{lcp: int(lcp), suffOff: suffOff, suffLen: suffLen}
		prevLen = int(lcp) + suffLen
		total += int64(prevLen)
		if total > budget {
			return nil, nil, corrupt(c.off(), "term dictionary decodes to over %d bytes from %d encoded", budget, len(c.data))
		}
	}
	arena := make([]byte, 0, total)
	type span struct{ start, end int }
	spans := make([]span, numNodes)
	prevSpan := span{}
	for i, sp := range specs {
		if sp.lcp < 0 {
			spans[i] = span{-1, -1}
			continue
		}
		start := len(arena)
		arena = append(arena, arena[prevSpan.start:prevSpan.start+sp.lcp]...)
		arena = append(arena, c.data[sp.suffOff:sp.suffOff+sp.suffLen]...)
		prevSpan = span{start, len(arena)}
		spans[i] = prevSpan
	}
	blob := string(arena)
	labels := make([]rdf.Label, numNodes)
	for i := range labels {
		labels[i].Kind = kinds[i]
		if spans[i].start >= 0 {
			labels[i].Value = blob[spans[i].start:spans[i].end]
		}
	}
	return labels, kinds, nil
}

// decodeDegrees reads a varint degree column and prefix-sums it into a
// CSR index, rejecting totals beyond maxTotal before anything downstream
// allocates from them.
func decodeDegrees(c *cursor, what string, numNodes, maxTotal int) ([]int32, error) {
	cap64 := int64(maxTotal)
	if cap64 > maxInt {
		cap64 = maxInt
	}
	index := make([]int32, numNodes+1)
	var total int64
	for n := 0; n < numNodes; n++ {
		d, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		total += int64(d)
		if total > cap64 {
			return nil, corrupt(c.off(), "%s degrees sum past %d at node %d", what, cap64, n)
		}
		index[n+1] = int32(total)
	}
	return index, nil
}

// frontDecoder is the allocation-per-term counterpart of decodeDict for
// the lower-volume archive label section, with the same expansion budget.
type frontDecoder struct {
	prev   []byte
	budget int64
}

func (fd *frontDecoder) read(c *cursor) (string, error) {
	lcp, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if lcp > uint64(len(fd.prev)) {
		return "", corrupt(c.off(), "term shares %d prefix bytes with a %d-byte predecessor", lcp, len(fd.prev))
	}
	suffLen, err := c.count("term suffix")
	if err != nil {
		return "", err
	}
	suff, err := c.bytes(suffLen)
	if err != nil {
		return "", err
	}
	fd.budget -= int64(lcp) + int64(suffLen)
	if fd.budget < 0 {
		return "", corrupt(c.off(), "terms decode past the expansion budget")
	}
	val := make([]byte, int(lcp)+suffLen)
	copy(val, fd.prev[:lcp])
	copy(val[lcp:], suff)
	fd.prev = val
	return string(val), nil
}

func decodeArchiveMeta(c *cursor) (versions, entities, rows int, err error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	e, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	r, err := c.uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	if err := c.expectEnd(); err != nil {
		return 0, 0, 0, err
	}
	if v < 1 || v > maxInt || e > maxInt || r > maxInt {
		return 0, 0, 0, corrupt(c.base, "archive counts out of range (versions=%d entities=%d rows=%d)", v, e, r)
	}
	return int(v), int(e), int(r), nil
}

// readInterval decodes one gap/length interval after prevTo.
func readInterval(c *cursor, prevTo, versions int) (archive.Interval, error) {
	gap, err := c.uvarint()
	if err != nil {
		return archive.Interval{}, err
	}
	length, err := c.uvarint()
	if err != nil {
		return archive.Interval{}, err
	}
	from := int64(prevTo) + 1 + int64(gap)
	to := from + int64(length)
	if gap > uint64(versions) || to >= int64(versions) {
		return archive.Interval{}, corrupt(c.off(), "interval [%d,%d] outside %d versions", from, to, versions)
	}
	return archive.Interval{From: int(from), To: int(to)}, nil
}

func decodeArchiveLabels(c *cursor, versions, entities int) ([][]archive.LabelRun, error) {
	if entities > c.remaining() {
		return nil, corrupt(c.off(), "%d entities claimed in %d payload bytes", entities, c.remaining())
	}
	fd := frontDecoder{budget: int64(dictExpansionFactor)*int64(len(c.data)) + 4096}
	labels := make([][]archive.LabelRun, entities)
	for e := 0; e < entities; e++ {
		runCount, err := c.count("label run")
		if err != nil {
			return nil, err
		}
		runs := make([]archive.LabelRun, runCount)
		prevTo := -1
		for i := range runs {
			k, err := c.byte()
			if err != nil {
				return nil, err
			}
			l := rdf.Label{Kind: rdf.Kind(k)}
			if l.Kind != rdf.Blank {
				if l.Value, err = fd.read(c); err != nil {
					return nil, err
				}
			}
			iv, err := readInterval(c, prevTo, versions)
			if err != nil {
				return nil, err
			}
			prevTo = iv.To
			runs[i] = archive.LabelRun{Label: l, Interval: iv}
		}
		labels[e] = runs
	}
	if err := c.expectEnd(); err != nil {
		return nil, err
	}
	return labels, nil
}

func decodeArchiveRows(c *cursor, versions, rows int) ([]archive.TripleRow, error) {
	if rows > c.remaining() {
		return nil, corrupt(c.off(), "%d rows claimed in %d payload bytes", rows, c.remaining())
	}
	out := make([]archive.TripleRow, rows)
	var prevS, prevP, prevO int64
	for i := range out {
		dS, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		prevS += int64(dS)
		dP, err := c.varint()
		if err != nil {
			return nil, err
		}
		prevP += dP
		dO, err := c.varint()
		if err != nil {
			return nil, err
		}
		prevO += dO
		if prevS > maxInt || prevP < 0 || prevP > maxInt || prevO < 0 || prevO > maxInt {
			return nil, corrupt(c.off(), "row %d entity IDs out of range", i)
		}
		ivCount, err := c.count("interval")
		if err != nil {
			return nil, err
		}
		if ivCount == 0 {
			return nil, corrupt(c.off(), "row %d has no intervals", i)
		}
		ivs := make([]archive.Interval, ivCount)
		prevTo := -1
		for j := range ivs {
			iv, err := readInterval(c, prevTo, versions)
			if err != nil {
				return nil, err
			}
			prevTo = iv.To
			ivs[j] = iv
		}
		out[i] = archive.TripleRow{
			S: archive.EntityID(prevS), P: archive.EntityID(prevP), O: archive.EntityID(prevO),
			Intervals: ivs,
		}
	}
	if err := c.expectEnd(); err != nil {
		return nil, err
	}
	return out, nil
}
