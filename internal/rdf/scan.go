package rdf

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// This file implements the chunked input scanner feeding the N-Triples
// parser at every worker count: input is split into
// blocks of roughly blockSize bytes, each ending on a line boundary, and
// every block carries the 1-based global line number of its first line so
// that workers parsing blocks out of order still report exact error
// positions.

const (
	// defaultParseBlockSize is the target block size handed to parse
	// workers. Large enough that per-block overhead (one buffer
	// allocation, one string conversion, one commit) is negligible
	// against lexing cost; small enough that a worker pool load-balances
	// across blocks of a multi-megabyte document.
	defaultParseBlockSize = 256 * 1024

	// maxLineBytes bounds a single line, mirroring the 16 MB limit the
	// previous bufio.Scanner-based reader enforced.
	maxLineBytes = 16 * 1024 * 1024
)

// parseBlock is one chunk of input: a run of whole lines. A block with a
// non-nil readErr carries no data; it reports the input failure at its
// position in the block sequence so the error surfaces only after every
// earlier block parsed cleanly (matching document order).
type parseBlock struct {
	startLine int    // 1-based global line number of the first line
	data      string // whole lines; all but possibly the last end in '\n'
	readErr   error
}

// blockScanner cuts input into parseBlocks on line boundaries. Two
// sources are supported: an io.Reader, whose blocks are read into fresh
// buffers and converted to strings once, and an in-memory document, whose
// blocks are zero-copy substring views.
type blockScanner struct {
	r    io.Reader
	src  string // in-memory mode when r == nil
	pos  int    // consumed prefix of src
	size int
	rem  []byte // partial trailing line carried to the next block (reader mode)
	line int    // 1-based line number of the next block
	done bool
}

func newBlockScanner(r io.Reader, size int) *blockScanner {
	if size <= 0 {
		size = defaultParseBlockSize
	}
	return &blockScanner{r: r, size: size, line: 1}
}

// newBlockScannerString scans an in-memory document without copying it.
func newBlockScannerString(doc string, size int) *blockScanner {
	if size <= 0 {
		size = defaultParseBlockSize
	}
	return &blockScanner{src: doc, size: size, line: 1}
}

// next returns the next block, or ok == false at the end of input. Read
// failures and over-long lines are returned as a block with readErr set.
func (s *blockScanner) next() (blk parseBlock, ok bool) {
	if s.done {
		return parseBlock{}, false
	}
	if s.r == nil {
		return s.nextString()
	}
	buf := make([]byte, 0, s.size+len(s.rem))
	buf = append(buf, s.rem...)
	s.rem = nil
	for {
		if len(buf) >= s.size {
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
				return s.emit(buf, i), true
			}
			if len(buf) > maxLineBytes {
				s.done = true
				return parseBlock{startLine: s.line,
					readErr: fmt.Errorf("line %d exceeds %d bytes", s.line, maxLineBytes)}, true
			}
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf))
			copy(grown, buf)
			buf = grown
		}
		n, err := s.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			s.done = true
			if len(buf) == 0 {
				return parseBlock{}, false
			}
			blk := parseBlock{startLine: s.line, data: string(buf)}
			return blk, true
		}
		if err != nil {
			s.done = true
			return parseBlock{startLine: s.line, readErr: err}, true
		}
	}
}

// nextString cuts the next block out of the in-memory document: the last
// line boundary within the first size bytes (or the end of the line
// straddling it), as a zero-copy substring.
func (s *blockScanner) nextString() (parseBlock, bool) {
	rest := s.src[s.pos:]
	if len(rest) == 0 {
		s.done = true
		return parseBlock{}, false
	}
	cut := len(rest)
	if len(rest) > s.size {
		if i := strings.LastIndexByte(rest[:s.size], '\n'); i >= 0 {
			cut = i + 1
		} else if i := strings.IndexByte(rest[s.size:], '\n'); i >= 0 {
			cut = s.size + i + 1
		}
	}
	blk := parseBlock{startLine: s.line, data: rest[:cut]}
	s.pos += cut
	s.line += strings.Count(blk.data, "\n")
	return blk, true
}

// emit cuts buf after the newline at i: everything through it becomes the
// block, the tail is carried over. The carried tail is copied out so the
// emitted data does not alias the next block's buffer.
func (s *blockScanner) emit(buf []byte, i int) parseBlock {
	if i+1 < len(buf) {
		s.rem = append([]byte(nil), buf[i+1:]...)
	}
	blk := parseBlock{startLine: s.line, data: string(buf[:i+1])}
	s.line += strings.Count(blk.data, "\n")
	return blk
}

// forEachLine calls f for every line of data with its global line number,
// replicating bufio.ScanLines framing: lines split on '\n', one trailing
// '\r' stripped, and a final unterminated line still delivered. Line
// strings are views into data — no per-line allocation.
func forEachLine(data string, startLine int, f func(line string, lineNo int) error) error {
	lineNo := startLine
	for len(data) > 0 {
		var line string
		if i := strings.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			line, data = data, ""
		}
		if len(line) > 0 && line[len(line)-1] == '\r' {
			line = line[:len(line)-1]
		}
		if err := f(line, lineNo); err != nil {
			return err
		}
		lineNo++
	}
	return nil
}
