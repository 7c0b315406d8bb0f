// Command datagen writes the synthetic evaluation datasets as N-Triples
// files, one per version:
//
//	datagen -dataset gtopdb -scale 0.02 -versions 10 -out /tmp/gtopdb
//
// generates /tmp/gtopdb/v1.nt … v10.nt (plus truth files mapping URIs of
// consecutive versions, for datasets that have a ground truth). Graphs
// are serialised with the parallel N-Triples writer.
//
// The bench dataset streams straight to disk — no graph is materialised,
// so million-triple corpora for the parse benchmarks generate in seconds
// with O(1) memory:
//
//	datagen -dataset bench -triples 1000000 -versions 2 -out /tmp/bench
//
// With -emit-delta, the bench dataset also writes the edit script between
// each pair of consecutive versions (delta-v1-v2.delta, …) in the
// canonical "- / +" text form that rdfalign -apply-delta and
// rdfalign.ParseEditScript consume — the maintenance benchmarks and the CI
// apply-delta smoke test feed on exactly these files.
//
// With -format snap, versions are written as binary snapshots (v1.snap …)
// that cmd/rdfalign loads without parsing; the bench dataset additionally
// keeps the streamed v<N>.nt files so parse and load benchmarks share a
// corpus.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"rdfalign"
)

func main() {
	ds := flag.String("dataset", "gtopdb", "dataset: efo, gtopdb, dbpedia, bench (streaming)")
	scale := flag.Float64("scale", 0, "scale relative to the paper's sizes (0 = dataset default)")
	versions := flag.Int("versions", 0, "number of versions (0 = dataset default)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", ".", "output directory")
	format := flag.String("format", "nt", "output format: nt (N-Triples), ttl (Turtle) or snap (binary snapshot)")
	triples := flag.Int("triples", 1_000_000, "bench dataset: target triples for version 1")
	emitDelta := flag.Bool("emit-delta", false, "bench dataset: also write the edit script between consecutive versions as delta-v<N>-v<N+1>.delta")
	flag.Parse()
	if *format != "nt" && *format != "ttl" && *format != "snap" {
		fatal(fmt.Errorf("unknown format %q (nt, ttl, snap)", *format))
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}

	if *ds == "bench" {
		if *format == "ttl" {
			fatal(fmt.Errorf("the bench dataset streams N-Triples (or snapshots) only"))
		}
		n := *versions
		if n <= 0 {
			n = 2
		}
		for v := 1; v <= n; v++ {
			path := filepath.Join(*out, fmt.Sprintf("v%d.nt", v))
			count, err := streamVersion(path, rdfalign.StreamConfig{
				Triples: *triples, Version: v, Seed: *seed,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d triples (streamed)\n", path, count)
			if *format == "snap" {
				snapPath := filepath.Join(*out, fmt.Sprintf("v%d.snap", v))
				if err := snapshotFromNT(path, snapPath); err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s (snapshot)\n", snapPath)
			}
			if *emitDelta && v < n {
				deltaPath := filepath.Join(*out, fmt.Sprintf("delta-v%d-v%d.delta", v, v+1))
				dels, ins, err := streamDelta(deltaPath, rdfalign.StreamConfig{
					Triples: *triples, Version: v, Seed: *seed,
				})
				if err != nil {
					fatal(err)
				}
				fmt.Printf("wrote %s: %d deletions, %d insertions\n", deltaPath, dels, ins)
			}
		}
		return
	}
	if *emitDelta {
		fatal(fmt.Errorf("-emit-delta is only defined for the bench dataset"))
	}

	var graphs []*rdfalign.Graph
	var truths []func(i, j int) *rdfalign.GroundTruth
	switch *ds {
	case "efo":
		d, err := rdfalign.GenerateEFO(rdfalign.EFOConfig{Versions: *versions, Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		graphs = d.Graphs
		truths = append(truths, d.GroundTruth)
	case "gtopdb":
		d, err := rdfalign.GenerateGtoPdb(rdfalign.GtoPdbConfig{Versions: *versions, Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		graphs = d.Graphs
		truths = append(truths, d.GroundTruth)
	case "dbpedia":
		d, err := rdfalign.GenerateDBpedia(rdfalign.DBpediaConfig{Versions: *versions, Scale: *scale, Seed: *seed})
		if err != nil {
			fatal(err)
		}
		graphs = d.Graphs
	default:
		fatal(fmt.Errorf("unknown dataset %q (efo, gtopdb, dbpedia)", *ds))
	}

	for i, g := range graphs {
		path := filepath.Join(*out, fmt.Sprintf("v%d.%s", i+1, *format))
		if err := writeGraph(path, g, *format); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %s\n", path, rdfalign.GatherStats(g))
	}
	for _, gt := range truths {
		for i := 0; i+1 < len(graphs); i++ {
			tr := gt(i, i+1)
			path := filepath.Join(*out, fmt.Sprintf("truth-v%d-v%d.tsv", i+1, i+2))
			if err := writeTruth(path, tr, graphs[i]); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %s: %d pairs\n", path, tr.Size())
		}
	}
}

func writeGraph(path string, g *rdfalign.Graph, format string) error {
	if format == "snap" {
		return rdfalign.WriteGraphSnapshotMappedFile(path, g)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	if format == "ttl" {
		err = rdfalign.WriteTurtle(w, g)
	} else {
		// Stream with the parallel formatting fast path; output is
		// byte-identical to the sequential writer.
		err = rdfalign.WriteNTriples(w, g, rdfalign.WithWriteWorkers(-1))
	}
	if err != nil {
		return err
	}
	return w.Flush()
}

// snapshotFromNT parses a streamed N-Triples file with the parallel
// pipeline and writes it back as a binary snapshot.
func snapshotFromNT(ntPath, snapPath string) error {
	f, err := os.Open(ntPath)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := rdfalign.ParseNTriples(f, filepath.Base(ntPath), rdfalign.WithParseWorkers(-1))
	if err != nil {
		return err
	}
	return rdfalign.WriteGraphSnapshotMappedFile(snapPath, g)
}

// streamVersion streams one bench-dataset version straight to disk.
// StreamNTriples buffers internally, so the file handle is passed as-is.
func streamVersion(path string, cfg rdfalign.StreamConfig) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	n, err := rdfalign.StreamNTriples(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return n, err
}

// streamDelta writes the edit script between cfg.Version and cfg.Version+1.
func streamDelta(path string, cfg rdfalign.StreamConfig) (dels, ins int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	dels, ins, err = rdfalign.StreamDelta(f, cfg)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return dels, ins, err
}

func writeTruth(path string, tr *rdfalign.GroundTruth, src *rdfalign.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	var lines []string
	src.Nodes(func(n rdfalign.NodeID) {
		if !src.IsURI(n) {
			return
		}
		su := src.Label(n).Value
		if tu, ok := tr.TargetOf(su); ok {
			lines = append(lines, su+"\t"+tu)
		}
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
	return w.Flush()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
