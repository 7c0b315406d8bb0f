package snapshot

import (
	"fmt"
	"strings"
)

// SectionInfo describes one section of a snapshot file.
type SectionInfo struct {
	Name   string // 4-character section tag
	Index  int    // section index (the version of a legacy per-version GRPH section)
	Offset int64  // file offset of the section header
	Length int64  // payload length in bytes
}

// GraphInfo summarises one graph section (decoded header only).
type GraphInfo struct {
	Version int // section index: 0, or the version of a legacy archive's GRPH section
	Name    string
	Nodes   int
	Triples int
}

// Info is the inspection summary of a snapshot file. Reading it verifies
// the CRC of every section it touches.
type Info struct {
	FormatVersion uint16
	Size          int64
	Kind          string // "graph" or "archive"
	Versions      int    // archive only
	Entities      int    // archive only
	Rows          int    // archive only
	Graphs        []GraphInfo
	Sections      []SectionInfo
}

// inspect reads every section of f through its footer table, verifying
// its CRC and decoding only graph headers (GRPH), the column layout of
// GRPM sections and archive counts.
func (f *file) inspect() (*Info, error) {
	info := &Info{FormatVersion: FormatVersion, Size: f.size, Kind: "graph"}
	for _, e := range append(f.table, f.footer) {
		info.Sections = append(info.Sections, SectionInfo{
			Name: sectionName(e.id), Index: int(e.index), Offset: e.off, Length: e.length,
		})
		c, err := f.sectionAt(e.off, e.id)
		if err != nil {
			return nil, err
		}
		switch e.id {
		case secArchiveMeta:
			info.Kind = "archive"
			if info.Versions, info.Entities, info.Rows, err = decodeArchiveMeta(c); err != nil {
				return nil, err
			}
		case secGraph:
			name, err := c.readString()
			if err != nil {
				return nil, err
			}
			nodes, err := c.count("node")
			if err != nil {
				return nil, err
			}
			triples, err := c.count("triple")
			if err != nil {
				return nil, err
			}
			info.Graphs = append(info.Graphs, GraphInfo{
				Version: int(e.index), Name: name, Nodes: nodes, Triples: triples,
			})
		case secGraphMapped:
			mc, err := mappedColumnsOver(nil, c.data, c.base)
			if err != nil {
				return nil, err
			}
			info.Graphs = append(info.Graphs, GraphInfo{
				Version: int(e.index), Name: mc.name, Nodes: mc.nnodes, Triples: mc.NumTriples(),
			})
		}
	}
	return info, nil
}

// String renders the inspection summary, one line per fact, for the CLI.
func (info *Info) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "snapshot: kind=%s format=v%d size=%d bytes, %d sections (all CRCs verified)\n",
		info.Kind, info.FormatVersion, info.Size, len(info.Sections))
	if info.Kind == "archive" {
		fmt.Fprintf(&b, "archive: versions=%d entities=%d rows=%d\n",
			info.Versions, info.Entities, info.Rows)
	}
	for _, g := range info.Graphs {
		fmt.Fprintf(&b, "graph[%d]: name=%q nodes=%d triples=%d\n",
			g.Version, g.Name, g.Nodes, g.Triples)
	}
	for _, s := range info.Sections {
		fmt.Fprintf(&b, "section %s[%d]: offset=%d payload=%d bytes\n",
			s.Name, s.Index, s.Offset, s.Length)
	}
	return strings.TrimRight(b.String(), "\n")
}
