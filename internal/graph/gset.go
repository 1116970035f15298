package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadGset parses the Gset benchmark format (Ye's MaxCut collection,
// the instances G1..G81 used across the MaxCut literature):
//
//	n m
//	i j w        (one line per edge, 1-based endpoints, integer weight)
//
// It is the 1-based sibling of Read; blank lines and '#' or 'c'
// comment lines are ignored. The declared edge count must match. A
// header over MaxNodes nodes and a non-finite weight fail with a
// *RefusedError.
func ReadGset(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	er := edgeReader{format: "gset", base: 1, n: -1}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "c ") || line == "c" {
			continue
		}
		fields := strings.Fields(line)
		if er.n < 0 {
			if len(fields) != 2 {
				return nil, er.errorf(lineNo, "want header \"n m\", got %q", line)
			}
			n, err1 := strconv.Atoi(fields[0])
			m, err2 := strconv.Atoi(fields[1])
			if err1 != nil || err2 != nil || n < 0 || m < 0 {
				return nil, er.errorf(lineNo, "bad header %q", line)
			}
			if err := er.header(lineNo, n, m); err != nil {
				return nil, err
			}
			continue
		}
		if len(fields) != 3 {
			return nil, er.errorf(lineNo, "want \"i j w\", got %q", line)
		}
		i, j, w, err := edgeFields(fields[0], fields[1], fields[2])
		if err != nil {
			return nil, er.errorf(lineNo, "%v", err)
		}
		if err := er.edge(lineNo, i, j, w); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if er.n < 0 {
		return nil, fmt.Errorf("graph: empty gset input")
	}
	return er.graph()
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
