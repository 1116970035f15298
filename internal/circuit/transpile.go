package circuit

// RouteLinear rewrites the circuit for a 1-D nearest-neighbor topology:
// SWAPs are inserted so every two-qubit gate acts on adjacent physical
// wires. It returns the routed circuit (in physical wire indices), a
// gate index map from input gate position to its position in the routed
// circuit, and the final layout where layout[logical] = physical wire
// holding that logical qubit at the end. Measurement results on wire
// layout[q] belong to logical qubit q.
func RouteLinear(c *Circuit) (routed *Circuit, indexMap []int, layout []int) {
	routed = New(c.N)
	indexMap = make([]int, len(c.Gates))
	layout = make([]int, c.N) // logical -> physical
	wireOf := make([]int, c.N)
	for q := range layout {
		layout[q] = q
		wireOf[q] = q // physical -> logical
	}
	swapPhysical := func(a, b int) {
		routed.AddSwap(a, b)
		la, lb := wireOf[a], wireOf[b]
		wireOf[a], wireOf[b] = lb, la
		layout[la], layout[lb] = b, a
	}
	for gi, g := range c.Gates {
		if g.Q1 < 0 {
			ng := g
			ng.Q0 = layout[g.Q0]
			indexMap[gi] = len(routed.Gates)
			routed.Gates = append(routed.Gates, ng)
			continue
		}
		p0, p1 := layout[g.Q0], layout[g.Q1]
		// Walk the farther operand toward the other until adjacent.
		for abs(p0-p1) > 1 {
			if p0 < p1 {
				swapPhysical(p1-1, p1)
				p1--
			} else {
				swapPhysical(p0-1, p0)
				p0--
			}
		}
		ng := g
		ng.Q0, ng.Q1 = p0, p1
		indexMap[gi] = len(routed.Gates)
		routed.Gates = append(routed.Gates, ng)
	}
	return routed, indexMap, layout
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
