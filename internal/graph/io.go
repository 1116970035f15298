package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text form of a graph, written by WriteTo and AppendText and read
// by Read, ReadGset and ParseText, is line oriented and compatible with
// common MaxCut instance collections:
//
//	n m
//	i j w        (one line per edge, 0-based endpoints)

// WriteTo serializes g in the text form. It returns the number of bytes
// written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(AppendText(nil, g.n, g.edges, self))
	return int64(n), err
}

// self is the edge argument of AppendText, scan and build for a slice
// of Edge.
func self(e Edge) Edge { return e }

// AppendText appends the text form of a graph on n nodes with the given
// edges to dst, each weight in the shortest form that parses back to
// the same float64, and returns the extended slice. edge spells out one
// element of edges, so a caller holding edges of another type (the
// solve service's wire form) writes them without copying.
func AppendText[E any](dst []byte, n int, edges []E, edge func(E) Edge) []byte {
	dst = slices.Grow(dst, 16+10*len(edges)) // a line of a sparse unit-weight graph is about ten bytes
	dst = strconv.AppendInt(dst, int64(n), 10)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(len(edges)), 10)
	dst = append(dst, '\n')
	for _, x := range edges {
		e := edge(x)
		dst = strconv.AppendInt(dst, int64(e.I), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(e.J), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendFloat(dst, e.W, 'g', -1, 64)
		dst = append(dst, '\n')
	}
	return dst
}

// MaxNodes is the largest node count Read and ReadGset accept. A
// header is a few bytes, so without a bound it could ask for any node
// table: "2000000000 0" alone would be a 48 GB allocation. The bound
// equals the solve service's instance limit and is far above the
// largest catalogued instance (3000 nodes).
const MaxNodes = 1 << 20

// maxLine is the longest line the readers accept: a longer one fails
// with bufio.ErrTooLong, as it did when they ran on a bufio.Scanner.
const maxLine = 1 << 24

// RefusedError is the error the readers and FromEdges return for input
// that parses but is refused: a header declaring more than MaxNodes
// nodes, an edge weight that is NaN or infinite, or merged weights
// (a pair listed twice is summed) whose absolute values sum past
// float64's range.
type RefusedError struct {
	Format string // "" for Read's own format, "gset" for ReadGset's
	Line   int    // physical line, comments and blanks counted; 0 for a summed weight or no file
	Reason string
}

func (e *RefusedError) Error() string { return readPrefix(e.Format, e.Line) + e.Reason }

// readPrefix starts every reader error: the package, the format, and
// the line when there is one.
func readPrefix(format string, line int) string {
	p := "graph: "
	if format != "" {
		p += format + " "
	}
	if line > 0 {
		p += fmt.Sprintf("line %d: ", line)
	}
	return p
}

// format is one dialect of the text form: Read's own or Gset's.
type format struct {
	name    string // as in RefusedError
	base    int    // the file's first node number: 0 or 1
	comment func(line string) bool
}

// plain is Read's dialect: 0-based, '#' comments.
var plain = format{comment: func(line string) bool { return strings.HasPrefix(line, "#") }}

func (f format) errorf(line int, msg string, args ...any) error {
	return errors.New(readPrefix(f.name, line) + fmt.Sprintf(msg, args...))
}

// read reads the whole input, scans it and builds the graph.
func (f format) read(r io.Reader) (*Graph, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	n, edges, err := scan(f, text.String(), self)
	if err != nil {
		return nil, err
	}
	return build(f, n, edges, self)
}

// scan is the one reader of the text form: blank lines and the
// dialect's comments skipped, the first other line the "n m" header,
// every later one an "i j w" edge. It returns the header's node count
// and the edges as listed, endpoints made 0-based and each line checked
// on its own (syntax, range, self-loop, finite weight); the edge count
// must match the header. It keeps at most the declared number of edges
// and reserves no more than the input has lines, so a failed or refused
// read allocates in proportion to its input, never to its header.
func scan[E any](f format, text string, mk func(Edge) E) (int, []E, error) {
	n, m, found := -1, 0, 0
	var edges []E
	var fields [4]string
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if k := strings.IndexByte(text, '\n'); k >= 0 {
			line, text = text[:k], text[k+1:]
		} else {
			text = ""
		}
		if len(line) >= maxLine {
			return 0, nil, bufio.ErrTooLong
		}
		line, k := split(line, &fields)
		if line == "" || f.comment(line) {
			continue
		}
		if n < 0 {
			if k != 2 {
				return 0, nil, f.errorf(lineNo, "want header \"n m\", got %q", line)
			}
			var err error
			if n, m, err = f.header(lineNo, line, fields[0], fields[1]); err != nil {
				return 0, nil, err
			}
			edges = make([]E, 0, min(m, strings.Count(text, "\n")+1))
			continue
		}
		if k != 3 {
			return 0, nil, f.errorf(lineNo, "want \"i j w\", got %q", line)
		}
		e, err := f.edge(lineNo, n, fields[0], fields[1], fields[2])
		if err != nil {
			return 0, nil, err
		}
		if found++; found <= m {
			edges = append(edges, mk(e))
		}
	}
	if n < 0 {
		if f.name != "" {
			return 0, nil, fmt.Errorf("graph: empty %s input", f.name)
		}
		return 0, nil, fmt.Errorf("graph: empty input")
	}
	if found != m {
		return 0, nil, f.errorf(0, "header declares %d edges, found %d", m, found)
	}
	return n, edges, nil
}

// split trims a line and splits it into fields as strings.TrimSpace and
// strings.Fields do. It keeps the first four fields in f (a fourth says
// there are too many) and returns the trimmed line and the field count.
// An ASCII line, which is every line of a well-formed file, splits in
// one pass without allocating.
func split(line string, f *[4]string) (string, int) {
	k, start, lo, hi := 0, -1, -1, 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c >= utf8.RuneSelf:
			line = strings.TrimSpace(line)
			all := strings.Fields(line)
			copy(f[:], all)
			return line, len(all)
		case !isSpace(c):
			if start < 0 {
				start = i
			}
			if lo < 0 {
				lo = i
			}
			hi = i + 1
		case start >= 0:
			if k < len(f) {
				f[k] = line[start:i]
			}
			k, start = k+1, -1
		}
	}
	if start >= 0 {
		if k < len(f) {
			f[k] = line[start:]
		}
		k++
	}
	if lo < 0 {
		return "", 0
	}
	return line[lo:hi], k
}

// isSpace reports the ASCII white space of unicode.IsSpace: ' ' and
// '\t' through '\r'.
func isSpace(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

// header parses and bounds the declared node and edge counts. Read's
// own format names the count that failed; the Gset format quotes the
// whole line.
func (f format) header(lineNo int, line, sn, sm string) (int, int, error) {
	n, errN := strconv.Atoi(sn)
	m, errM := strconv.Atoi(sm)
	switch {
	case f.name != "" && (errN != nil || errM != nil || n < 0 || m < 0):
		return 0, 0, f.errorf(lineNo, "bad header %q", line)
	case errN != nil:
		return 0, 0, f.errorf(lineNo, "bad node count: %v", errN)
	case errM != nil:
		return 0, 0, f.errorf(lineNo, "bad edge count: %v", errM)
	case n < 0 || m < 0:
		return 0, 0, f.errorf(lineNo, "negative header values")
	case n > MaxNodes:
		return 0, 0, &RefusedError{Format: f.name, Line: lineNo,
			Reason: fmt.Sprintf("header declares %d nodes, limit %d", n, MaxNodes)}
	}
	return n, m, nil
}

// edge parses and checks one edge line of a graph on n nodes, endpoints
// numbered as in the file, and returns it 0-based.
func (f format) edge(line, n int, si, sj, sw string) (Edge, error) {
	i, err := strconv.Atoi(si)
	if err != nil {
		return Edge{}, f.errorf(line, "bad endpoint: %v", err)
	}
	j, err := strconv.Atoi(sj)
	if err != nil {
		return Edge{}, f.errorf(line, "bad endpoint: %v", err)
	}
	w, err := strconv.ParseFloat(sw, 64)
	if err != nil {
		return Edge{}, f.errorf(line, "bad weight: %v", err)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return Edge{}, &RefusedError{Format: f.name, Line: line, Reason: fmt.Sprintf("weight %v is not finite", w)}
	}
	if i < f.base || j < f.base {
		if f.base == 1 {
			return Edge{}, f.errorf(line, "endpoints are 1-based, got (%d,%d)", i, j)
		}
		return Edge{}, f.errorf(line, "edge {%d,%d} out of range [0,%d)", i, j, n)
	}
	i, j = i-f.base, j-f.base
	if i == j {
		return Edge{}, f.errorf(line, "self-loop on node %d", i)
	}
	if i >= n || j >= n {
		return Edge{}, f.errorf(line, "edge {%d,%d} out of range [0,%d)", i, j, n)
	}
	return Edge{I: i, J: j, W: w}, nil
}

// Read parses the text form WriteTo produces. Lines starting with '#'
// and blank lines are ignored. A header over MaxNodes nodes and a
// non-finite weight fail with a *RefusedError.
func Read(r io.Reader) (*Graph, error) { return plain.read(r) }

// ParseText is Read without the graph build: it returns the header's
// node count and the edges as listed, each checked on its own, for a
// caller that keeps them in a type of its own (edge converts one) and
// builds the graph later with FromEdges. It fails with the error Read
// gives for the same text, except that an edge listed twice is summed
// (and its sum checked) only by the build.
func ParseText[E any](text string, edge func(Edge) E) (n int, edges []E, err error) {
	return scan(plain, text, edge)
}

// FromEdges builds the graph on n nodes with the given edges, endpoints
// in either order, in one pass over them: the graph an AddEdge per edge
// would build, with the same edge order, adjacency order and weights, a
// pair listed more than once summed in input order. edge spells out one
// element of edges. A self-loop or an endpoint out of range fails as in
// AddEdge; a non-finite weight, or merged weights whose absolute values
// sum past float64's range, is a *RefusedError.
func FromEdges[E any](n int, edges []E, edge func(E) Edge) (*Graph, error) {
	return build(plain, n, edges, edge)
}

// build is FromEdges under a reader's dialect, which names the format
// and numbers the endpoints of a refused sum. Each pair keeps the index
// of its first listing in a map, so the work and the memory before the
// graph itself is allocated are proportional to the edges, not to n.
func build[E any](f format, n int, in []E, edge func(E) Edge) (*Graph, error) {
	out := make([]Edge, 0, len(in))
	index := make(map[[2]int]int, len(in))
	for _, x := range in {
		e := edge(x)
		if e.I == e.J {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.I)
		}
		if e.I < 0 || e.I >= n || e.J < 0 || e.J >= n {
			return nil, fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", e.I, e.J, n)
		}
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, &RefusedError{Format: f.name,
				Reason: fmt.Sprintf("edge {%d,%d} has weight %v, which is not finite", e.I+f.base, e.J+f.base, e.W)}
		}
		if e.I > e.J {
			e.I, e.J = e.J, e.I
		}
		key := [2]int{e.I, e.J}
		if k, ok := index[key]; ok {
			out[k].W += e.W
			continue
		}
		index[key] = len(out)
		out = append(out, e)
	}
	// A pair summing to ±Inf takes abs past the range too.
	abs := absSum(out)
	if r := absRefusal(abs); r != "" {
		return nil, &RefusedError{Format: f.name, Reason: r}
	}
	return fromEdges(n, out, abs, make([]int, n)), nil
}
