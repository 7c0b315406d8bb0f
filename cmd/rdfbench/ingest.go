package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rdfalign"
)

// streamText generates one release of the DBpedia-like stream corpus as
// N-Triples.
func streamText(cfg rdfalign.StreamConfig) (string, error) {
	var b strings.Builder
	if _, err := rdfalign.StreamNTriples(&b, cfg); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ingest is the ingest-stream workload: a curator ingests a new release.
// One operation opens the previous release's mapped snapshot, parses the new
// release, aligns the two, appends the release to the archive and saves it
// as a mapped snapshot.
type ingest struct {
	al             *rdfalign.Aligner
	v1, v2         string // the releases as N-Triples
	v1Path, v2Path string // their mapped snapshots
	heapV1         *rdfalign.Graph
	arch           *rdfalign.Archive
	// last holds the newest untraced ([0]) and traced ([1]) operation's
	// results for the gates. Each keeps its mapped source graph open.
	last [2]*ingestOp
	rows int // archive rows after the first operation
}

type ingestOp struct {
	g1, g2 *rdfalign.Graph
	public *rdfalign.Alignment // untraced operations
	traced *decomposed         // traced operations
	arch   *rdfalign.Archive
}

func runIngest(ctx context.Context, cfg *config) (*result, error) {
	sc := rdfalign.StreamConfig{Triples: cfg.sizes.ingestTriples, Seed: cfg.seed}
	v1, err := streamText(sc)
	if err != nil {
		return nil, err
	}
	sc.Version = 2
	v2, err := streamText(sc)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "rdfbench-ingest-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	al, err := rdfalign.NewAligner(rdfalign.WithMethod(rdfalign.Hybrid))
	if err != nil {
		return nil, err
	}
	w := &ingest{al: al, v1: v1, v2: v2, v1Path: filepath.Join(dir, "v1.snap"), v2Path: filepath.Join(dir, "v2.snap")}
	defer w.release(0)
	defer w.release(1)
	return runBatch(ctx, cfg, w)
}

func (w *ingest) setup(ctx context.Context) error {
	g1, err := rdfalign.ParseNTriplesString(w.v1, "v1", rdfalign.WithParseWorkers(-1))
	if err != nil {
		return err
	}
	if err := rdfalign.WriteGraphSnapshotMappedFile(w.v1Path, g1); err != nil {
		return err
	}
	arch, err := w.al.BuildArchive(ctx, []*rdfalign.Graph{g1})
	if err != nil {
		return err
	}
	w.heapV1, w.arch = g1, arch
	return nil
}

func (w *ingest) op(ctx context.Context, i int, tr *tracer) error {
	slot := 0
	if tr != nil {
		slot = 1
	}
	w.release(slot)
	o := &ingestOp{}
	w.last[slot] = o
	var err error
	end := tr.begin(layerSnapshot, "open")
	o.g1, err = rdfalign.OpenGraphSnapshotMapped(w.v1Path)
	end()
	if err != nil {
		return err
	}
	end = tr.begin(layerRDF, "parse")
	o.g2, err = rdfalign.ParseNTriplesString(w.v2, "v2", rdfalign.WithParseWorkers(-1))
	end()
	if err != nil {
		return err
	}
	if tr == nil {
		o.public, err = w.al.Align(ctx, o.g1, o.g2)
	} else {
		o.traced, err = alignTraced(ctx, tr, rdfalign.Hybrid, 0, o.g1, o.g2)
	}
	if err != nil {
		return err
	}
	end = tr.begin(layerArchive, "append")
	o.arch = w.arch.Clone()
	_, err = w.al.AppendVersion(ctx, o.arch, o.g2, nil)
	end()
	if err != nil {
		return err
	}
	end = tr.begin(layerSnapshot, "write")
	err = rdfalign.WriteGraphSnapshotMappedFile(w.v2Path, o.g2)
	end()
	if err != nil {
		return err
	}
	if i == 0 {
		w.rows = o.arch.NumRows()
	} else if n := o.arch.NumRows(); n != w.rows {
		return fmt.Errorf("archive has %d rows after the append, the first operation had %d", n, w.rows)
	}
	return nil
}

// release closes the mapped graph of a kept operation result.
func (w *ingest) release(slot int) {
	if o := w.last[slot]; o != nil && o.g1 != nil {
		o.g1.Close()
	}
	w.last[slot] = nil
}

// check runs the ingest gates: the archive reproduces the new release, the
// written snapshot re-opens to the same graph, the alignment of the mapped
// source equals the alignment of the parsed one, and on a traced run the
// traced decomposition equals Aligner.Align.
func (w *ingest) check(ctx context.Context, res *result) error {
	o := w.last[0]
	want := graphDigest(o.g2)
	got, err := o.arch.Snapshot(o.arch.Versions() - 1)
	if err != nil {
		return err
	}
	if graphDigest(got) != want {
		return fmt.Errorf("archive snapshot of the appended version differs from the ingested release")
	}
	reopened, err := rdfalign.OpenGraphSnapshotMapped(w.v2Path)
	if err != nil {
		return err
	}
	same := graphDigest(reopened) == want
	reopened.Close()
	if !same {
		return fmt.Errorf("re-opened snapshot differs from the ingested release")
	}
	public := alignmentDigest(o.public)
	heap, err := w.al.Align(ctx, w.heapV1, o.g2)
	if err != nil {
		return err
	}
	if err := sameDigest("alignment of the mapped release vs the parsed release", public, alignmentDigest(heap)); err != nil {
		return err
	}
	if t := w.last[1]; t != nil {
		if err := sameDigest("traced decomposition vs Aligner.Align", t.traced.digest(), public); err != nil {
			return err
		}
	}
	st, err := os.Stat(w.v2Path)
	if err != nil {
		return err
	}
	res.layer["archive.rows"] = float64(w.rows)
	res.layer["snapshot.bytes_per_triple"] = float64(st.Size()) / float64(o.g2.NumTriples())
	res.header = append(res.header, fmt.Sprintf("release v1=%d triples v2=%d triples, alignment %v",
		w.heapV1.NumTriples(), o.g2.NumTriples(), public))
	return nil
}
