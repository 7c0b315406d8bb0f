package delta

// This file extends the package from a diff *output* into an edit-script
// *input*: a Script is an ordered list of insert/delete triple operations
// in a canonical line-oriented text form, parsed with the N-Triples lexer
// (same escapes, same error positions) and applied through rdf.Editor —
// the mutation feed of the alignment session's delta maintenance
// (ApplyDelta) and of archive.AppendVersion.
//
// The text form is one operation per line,
//
//	+ <s> <p> <o> .
//	- <s> <p> "literal" .
//
// with '+' inserting and '-' deleting the statement that follows; blank
// lines and '#' comments are allowed. Format output is canonical:
// Parse(Format(s)) reproduces s exactly, and Format(Parse(text))
// normalises text to the canonical escaping with comments dropped.

import (
	"fmt"
	"io"
	"strings"

	"rdfalign/internal/rdf"
)

// Op is one edit-script operation: insert or delete one triple, written at
// the label level (rdf.EditOp).
type Op = rdf.EditOp

// Script is an ordered edit script. Order matters: a blank term denotes
// the node introduced by the earliest insert using its name, and strict
// application (rdf.Editor.Apply) resolves cancelling insert/delete pairs in
// sequence.
type Script struct {
	Ops []Op
}

// Summary renders the operation counts.
func (s *Script) Summary() string {
	ins := 0
	for _, op := range s.Ops {
		if op.Insert {
			ins++
		}
	}
	return fmt.Sprintf("ops=%d inserted=%d deleted=%d", len(s.Ops), ins, len(s.Ops)-ins)
}

// Format renders the script in the canonical text form.
func (s *Script) Format() string {
	var sb strings.Builder
	for _, op := range s.Ops {
		if op.Insert {
			sb.WriteString("+ ")
		} else {
			sb.WriteString("- ")
		}
		sb.WriteString(op.T.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Inverse returns the script that undoes s: the operations reversed, each
// insert flipped to a delete and vice versa. Applying s then Inverse()
// restores the original triple set (introduced labels remain as isolated
// nodes — node IDs are never reclaimed). The inverse of a script whose
// *delete* operations mention blank terms is not applicable, since a
// flipped insert cannot re-introduce a forgotten blank name's node.
func (s *Script) Inverse() *Script {
	inv := &Script{Ops: make([]Op, len(s.Ops))}
	for i, op := range s.Ops {
		inv.Ops[len(s.Ops)-1-i] = Op{Insert: !op.Insert, T: op.T}
	}
	return inv
}

// Parse reads an edit script. Errors carry exact 1-based line and column
// positions (the same lexer as the N-Triples parser reports term errors).
func Parse(r io.Reader) (*Script, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseString(string(src))
}

// ParseString parses an in-memory edit script.
func ParseString(src string) (*Script, error) {
	s := &Script{}
	for lineNo := 1; src != ""; lineNo++ {
		line := src
		if i := strings.IndexByte(src, '\n'); i >= 0 {
			line, src = src[:i], src[i+1:]
		} else {
			src = ""
		}
		line = strings.TrimSuffix(line, "\r")
		trimmed := strings.TrimLeft(line, " \t")
		if trimmed == "" || trimmed[0] == '#' {
			continue
		}
		indent := len(line) - len(trimmed)
		insert := false
		switch trimmed[0] {
		case '+':
			insert = true
		case '-':
		default:
			return nil, &rdf.ParseError{Format: "delta", Line: lineNo, Col: indent + 1, Msg: fmt.Sprintf("expected '+' or '-' operation marker, found %q", trimmed[0])}
		}
		if len(trimmed) < 2 || (trimmed[1] != ' ' && trimmed[1] != '\t') {
			return nil, &rdf.ParseError{Format: "delta", Line: lineNo, Col: indent + 2, Msg: "expected a space after the operation marker"}
		}
		body := trimmed[2:]
		t, ok, err := rdf.ParseTermTriple(body, lineNo, false)
		if err != nil {
			// Term errors are positioned within body; shift them to the
			// full-line column so editors jump to the right byte, and
			// name the script's grammar rather than the term lexer's.
			if pe, isPE := err.(*rdf.ParseError); isPE {
				pe.Format = "delta"
				pe.Col += indent + 2
			}
			return nil, err
		}
		if !ok {
			return nil, &rdf.ParseError{Format: "delta", Line: lineNo, Col: indent + 3, Msg: "operation marker with no statement"}
		}
		s.Ops = append(s.Ops, Op{Insert: insert, T: t})
	}
	return s, nil
}

// Apply runs the script through the editor (see rdf.Editor.Apply for the
// transactional strict-application semantics).
func (s *Script) Apply(ed *rdf.Editor) (*rdf.EditResult, error) {
	return ed.Apply(s.Ops)
}
