package graph

import (
	"io"
	"strings"
)

// gset is ReadGset's dialect: 1-based, '#' and 'c' comments.
var gset = format{name: "gset", base: 1, comment: func(line string) bool {
	return strings.HasPrefix(line, "#") || strings.HasPrefix(line, "c ") || line == "c"
}}

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
func ReadGset(r io.Reader) (*Graph, error) { return gset.read(r) }
