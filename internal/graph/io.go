package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WriteTo serializes g in a simple line-oriented format compatible with
// common MaxCut instance collections:
//
//	n m
//	i j w        (one line per edge, 0-based endpoints)
//
// It returns the number of bytes written.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	n, err := fmt.Fprintf(bw, "%d %d\n", g.n, len(g.edges))
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range g.edges {
		n, err = fmt.Fprintf(bw, "%d %d %s\n", e.I, e.J, strconv.FormatFloat(e.W, 'g', -1, 64))
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, bw.Flush()
}

// MaxNodes is the largest node count Read and ReadGset accept. A
// header is a few bytes, so without a bound it could ask for any node
// table: "2000000000 0" alone would be a 48 GB allocation. The bound
// equals the solve service's instance limit and is far above the
// largest catalogued instance (3000 nodes).
const MaxNodes = 1 << 20

// RefusedError is the error the readers return for input that parses
// but is refused: a header declaring more than MaxNodes nodes, or an
// edge weight — as written, or summed over an edge listed twice — that
// is NaN or infinite.
type RefusedError struct {
	Format string // "" for Read's own format, "gset" for ReadGset's
	Line   int    // physical line, comments and blanks counted; 0 for a summed weight
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

// edgeReader is the one loop both readers run: blank lines and the
// format's comments skipped, the first other line the "n m" header,
// every later one an "i j w" edge. It holds the header's bound, the
// per-edge checks, and a graph built only after the whole input has
// been read and checked, so a failed or refused read allocates in
// proportion to its input, never to its header.
type edgeReader struct {
	format  string // as in RefusedError
	base    int    // the file's first node number: 0 or 1
	comment func(line string) bool
	n, m    int // declared sizes; n is -1 before the header
	edges   []Edge
}

func (r *edgeReader) errorf(line int, format string, args ...any) error {
	return errors.New(readPrefix(r.format, line) + fmt.Sprintf(format, args...))
}

// read scans the whole input and builds the graph.
func (r *edgeReader) read(in io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	r.n = -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || r.comment(line) {
			continue
		}
		fields := strings.Fields(line)
		if r.n < 0 {
			if len(fields) != 2 {
				return nil, r.errorf(lineNo, "want header \"n m\", got %q", line)
			}
			if err := r.header(lineNo, line, fields[0], fields[1]); err != nil {
				return nil, err
			}
			continue
		}
		if len(fields) != 3 {
			return nil, r.errorf(lineNo, "want \"i j w\", got %q", line)
		}
		i, j, w, err := edgeFields(fields[0], fields[1], fields[2])
		if err != nil {
			return nil, r.errorf(lineNo, "%v", err)
		}
		if err := r.edge(lineNo, i, j, w); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if r.n < 0 {
		if r.format != "" {
			return nil, fmt.Errorf("graph: empty %s input", r.format)
		}
		return nil, fmt.Errorf("graph: empty input")
	}
	return r.graph()
}

// header parses and bounds the declared node and edge counts. Read's
// own format names the count that failed; the Gset format quotes the
// whole line.
func (r *edgeReader) header(lineNo int, line, sn, sm string) error {
	n, errN := strconv.Atoi(sn)
	m, errM := strconv.Atoi(sm)
	switch {
	case r.format != "" && (errN != nil || errM != nil || n < 0 || m < 0):
		return r.errorf(lineNo, "bad header %q", line)
	case errN != nil:
		return r.errorf(lineNo, "bad node count: %v", errN)
	case errM != nil:
		return r.errorf(lineNo, "bad edge count: %v", errM)
	case n < 0 || m < 0:
		return r.errorf(lineNo, "negative header values")
	case n > MaxNodes:
		return &RefusedError{Format: r.format, Line: lineNo,
			Reason: fmt.Sprintf("header declares %d nodes, limit %d", n, MaxNodes)}
	}
	r.n, r.m = n, m
	return nil
}

// edge checks one edge line, endpoints numbered as in the file.
func (r *edgeReader) edge(line, i, j int, w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return &RefusedError{Format: r.format, Line: line, Reason: fmt.Sprintf("weight %v is not finite", w)}
	}
	if i < r.base || j < r.base {
		if r.base == 1 {
			return r.errorf(line, "endpoints are 1-based, got (%d,%d)", i, j)
		}
		return r.errorf(line, "edge {%d,%d} out of range [0,%d)", i, j, r.n)
	}
	i, j = i-r.base, j-r.base
	if i == j {
		return r.errorf(line, "self-loop on node %d", i)
	}
	if i >= r.n || j >= r.n {
		return r.errorf(line, "edge {%d,%d} out of range [0,%d)", i, j, r.n)
	}
	r.edges = append(r.edges, Edge{I: i, J: j, W: w})
	return nil
}

// graph builds the graph from a fully read input.
func (r *edgeReader) graph() (*Graph, error) {
	if len(r.edges) != r.m {
		return nil, r.errorf(0, "header declares %d edges, found %d", r.m, len(r.edges))
	}
	g := New(r.n)
	for _, e := range r.edges {
		g.MustAddEdge(e.I, e.J, e.W) // every edge was checked
	}
	for _, e := range g.edges {
		if math.IsNaN(e.W) || math.IsInf(e.W, 0) {
			return nil, &RefusedError{Format: r.format,
				Reason: fmt.Sprintf("edge {%d,%d} is listed more than once and its weights sum to %v", e.I+r.base, e.J+r.base, e.W)}
		}
	}
	return g, nil
}

// edgeFields parses one "i j w" edge triple.
func edgeFields(si, sj, sw string) (int, int, float64, error) {
	i, err := strconv.Atoi(si)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad endpoint: %v", err)
	}
	j, err := strconv.Atoi(sj)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad endpoint: %v", err)
	}
	w, err := strconv.ParseFloat(sw, 64)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("bad weight: %v", err)
	}
	return i, j, w, nil
}

// Read parses the format produced by WriteTo. Lines starting with '#'
// and blank lines are ignored. A header over MaxNodes nodes and a
// non-finite weight fail with a *RefusedError.
func Read(r io.Reader) (*Graph, error) {
	er := edgeReader{comment: func(line string) bool { return strings.HasPrefix(line, "#") }}
	return er.read(r)
}
