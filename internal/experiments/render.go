// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): the Fig. 3 grid-search heatmaps, Table 1's
// high-qubit win rates, the Fig. 4 large-graph solver comparison, and
// the workflow measurements behind Figs. 1-2 (device idle time,
// coordinator overhead, distributed-simulation scaling).
//
// Fig. 4 runs at the paper's scale. The Fig. 3 grid and Table 1 have a
// reduced default configuration and a Full configuration at paper
// scale (see DESIGN.md for the documented substitutions); rendered
// output mirrors the paper's row/column layout so the two can be
// compared side by side.
package experiments

import (
	"fmt"
	"strings"
)

// RenderHeatmap renders a labeled matrix the way the paper's Fig. 3
// panels are laid out: one row per rowLabel, one column per colLabel,
// %.3g values.
func RenderHeatmap(title string, rowHeader, colHeader string, rowLabels, colLabels []string, values [][]float64) string {
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	width := 8
	for _, l := range append(append([]string{}, rowLabels...), colLabels...) {
		if len(l)+2 > width {
			width = len(l) + 2
		}
	}
	fmt.Fprintf(&sb, "%*s", width, rowHeader+"\\"+colHeader)
	for _, c := range colLabels {
		fmt.Fprintf(&sb, "%*s", width, c)
	}
	sb.WriteByte('\n')
	for i, r := range rowLabels {
		fmt.Fprintf(&sb, "%*s", width, r)
		for j := range colLabels {
			fmt.Fprintf(&sb, "%*.3g", width, values[i][j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// RenderTable renders rows of cells under a header, columns padded.
func RenderTable(title string, header []string, rows [][]string) string {
	var sb strings.Builder
	if title != "" {
		fmt.Fprintf(&sb, "%s\n", title)
	}
	widths := make([]int, len(header))
	for j, h := range header {
		widths[j] = len(h)
	}
	for _, row := range rows {
		for j, cell := range row {
			if j < len(widths) && len(cell) > widths[j] {
				widths[j] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for j, cell := range cells {
			if j > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[j], cell)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

func fmtF(v float64) string { return fmt.Sprintf("%.3f", v) }
