package main

import (
	"strings"
	"testing"
)

func TestPrintCPUFeatures(t *testing.T) {
	var b strings.Builder
	printCPUFeatures(&b)
	out := b.String()
	for _, want := range []string{"kernel tier: ", "QAOA2_NOASM", "QAOA2_NOAVX512"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cpufeatures output missing %q:\n%s", want, out)
		}
	}
	switch {
	case strings.Contains(out, "avx512"), strings.Contains(out, "avx2"), strings.Contains(out, "portable"):
	default:
		t.Fatalf("no kernel tier named in:\n%s", out)
	}
}
