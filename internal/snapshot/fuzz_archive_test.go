package snapshot

import (
	"bytes"
	"errors"
	"os"
	"slices"
	"testing"

	"rdfalign/internal/archive"
	"rdfalign/internal/core"
	"rdfalign/internal/rdf"
)

// appendHybrid appends g to a, aligning it with a's newest graph by the
// Hybrid partition of the pair's union: the archive pair alignment of this
// package's tests.
func appendHybrid(a *archive.Archive, g *rdf.Graph, resolve bool) error {
	c := rdf.Union(a.LatestGraph(), g)
	p, _, err := (&core.Engine{}).Hybrid(c, core.NewInterner())
	if err != nil {
		return err
	}
	return a.Append(c, p, resolve)
}

// buildHybrid archives a non-empty history through appendHybrid.
func buildHybrid(graphs []*rdf.Graph, resolve bool) (*archive.Archive, error) {
	a := archive.New(graphs[0])
	for _, g := range graphs[1:] {
		if err := appendHybrid(a, g, resolve); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// fuzzArchiveDocs are the versions of the small archive whose snapshot
// seeds FuzzReadArchive: URIs, a literal, a blank node, a triple that
// leaves and returns, and a renamed URI.
var fuzzArchiveDocs = []string{
	"<a> <p> <b> .\n<b> <p> \"x\" .\n_:n <q> <a> .\n",
	"<a> <p> <b> .\n<b> <p> \"y\" .\n_:n <q> <a> .\n<c> <p> <a> .\n",
	"<a> <p> <b> .\n<b2> <p> \"y\" .\n<c> <p> <a> .\n<a> <q> <c> .\n",
}

// fuzzAppendDoc is the version FuzzReadArchive appends to every archive it
// manages to load.
const fuzzAppendDoc = "<a> <p> <b> .\n<d> <p> \"z\" .\n<a> <q> <d> .\n"

func fuzzGraph(tb testing.TB, doc string) *rdf.Graph {
	tb.Helper()
	g, err := rdf.ParseNTriplesString(doc, "fuzz")
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// writeRawArchive frames raw archive columns exactly as WriteArchive does,
// without going through an Archive: it produces well-framed snapshots
// (valid CRCs) of columns that break the archive invariants, so the seeds
// reach FromRaw's checks and beyond.
func writeRawArchive(tb testing.TB, raw archive.Raw) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := writeArchiveRaw(&buf, raw); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// seedArchives returns a small written archive, byte-level corruptions of
// it, the same archive as an earlier build wrote it, and well-framed
// snapshots of hand-corrupted raw columns.
func seedArchives(tb testing.TB) [][]byte {
	tb.Helper()
	var graphs []*rdf.Graph
	for _, doc := range fuzzArchiveDocs {
		graphs = append(graphs, fuzzGraph(tb, doc))
	}
	a, err := buildHybrid(graphs, true)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteArchive(&buf, a); err != nil {
		tb.Fatal(err)
	}
	blob := buf.Bytes()
	flip := bytes.Clone(blob)
	flip[len(flip)/2] ^= 0x55
	seeds := [][]byte{blob, blob[:len(blob)/2], blob[:len(blob)-trailerSize], flip}

	raw := a.Raw()
	if len(raw.Rows) < 2 {
		tb.Fatalf("seed archive has %d rows", len(raw.Rows))
	}
	broken := func(edit func(r *archive.Raw)) {
		r := archive.Raw{Versions: raw.Versions, Labels: slices.Clone(raw.Labels), Rows: slices.Clone(raw.Rows)}
		edit(&r)
		seeds = append(seeds, writeRawArchive(tb, r))
	}
	legacy, err := os.ReadFile(legacyArchiveFixture) // with per-version GRPH sections
	if err != nil {
		tb.Fatal(err)
	}
	seeds = append(seeds, legacy)
	broken(func(r *archive.Raw) { r.Rows[0], r.Rows[1] = r.Rows[1], r.Rows[0] })
	broken(func(r *archive.Raw) { r.Rows = append(r.Rows, r.Rows[len(r.Rows)-1]) })
	broken(func(r *archive.Raw) { r.Rows[0].Intervals = nil })
	// A row whose subject is absent at the newest version: FromRaw accepts
	// it, RebuildTail must refuse it.
	broken(func(r *archive.Raw) {
		e := archive.EntityID(len(r.Labels))
		r.Labels = append(r.Labels, []archive.LabelRun{{Label: rdf.URILabel("gone"), Interval: archive.Interval{}}})
		last := r.Versions - 1
		r.Rows = append(r.Rows, archive.TripleRow{S: e, P: r.Rows[0].P, O: r.Rows[0].O,
			Intervals: []archive.Interval{{From: last, To: last}}})
	})
	// A literal subject: loads, but the newest version does not rebuild.
	broken(func(r *archive.Raw) {
		s := r.Rows[0].S
		runs := slices.Clone(r.Labels[s])
		for i := range runs {
			runs[i].Label = rdf.LiteralLabel("lit")
		}
		r.Labels[s] = runs
	})
	return seeds
}

// FuzzReadArchive is the adversarial-input wall around the archive reader:
// whatever bytes arrive, Open and Archive must return (never panic) and classify
// every failure as ErrCorrupt. An archive that loads must survive
// RebuildTail plus one Append — the append merge-joins into the
// loaded rows, relying on the (S, P, O) order FromRaw checked — and still
// satisfy the raw invariants afterwards.
func FuzzReadArchive(f *testing.F) {
	for _, seed := range seedArchives(f) {
		f.Add(seed)
	}
	next := fuzzGraph(f, fuzzAppendDoc)
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := openArchive(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("failure does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		if err := a.RebuildTail(); err != nil {
			return // a loaded archive whose newest version does not rebuild
		}
		if err := appendHybrid(a, next, false); err != nil {
			t.Fatalf("append to a rebuilt archive: %v", err)
		}
		if _, err := archive.FromRaw(a.Raw()); err != nil {
			t.Fatalf("append broke the archive invariants: %v", err)
		}
		// The row order once more, independently of FromRaw's own check.
		rows := a.Rows()
		for i := 1; i < len(rows); i++ {
			x, y := rows[i-1], rows[i]
			if x.S > y.S || x.S == y.S && (x.P > y.P || x.P == y.P && x.O >= y.O) {
				t.Fatalf("rows %d and %d out of (S, P, O) order after append", i-1, i)
			}
		}
	})
}
