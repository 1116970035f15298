package qsim

import (
	"fmt"
	"os"
	"slices"
)

// kernelTier is the instruction-set tier every kernel dispatches on
// (rxTile, rxRows, rxMirror, phaseIdx, indexMax). The tiers are
// ordered: each one's CPU requirements include the one below it.
type kernelTier uint8

const (
	tierPortable kernelTier = iota // the Go kernels, on every GOARCH
	tierAVX2                       // AVX2+FMA assembly (mixer_amd64.s)
	tierAVX512                     // AVX-512F assembly (mixer_avx512_amd64.s)
)

// tierNames are the tiers' names, as KernelTier reports them and
// SetKernelTier takes them.
var tierNames = [...]string{tierPortable: "portable", tierAVX2: "avx2", tierAVX512: "avx512"}

// hostTier is the highest tier this process may run, resolved once at
// process start: what CPUID/XGETBV detection allows (detectTier),
// capped to avx2 by QAOA2_NOAVX512 (for downclocking-sensitive
// deployments and A/B benchmarking) and to portable by QAOA2_NOASM
// (debugging, fallback-path benchmarking).
var hostTier = resolveTier()

// activeTier is the tier the kernels dispatch on: hostTier unless
// SetKernelTier lowered it.
var activeTier = hostTier

func resolveTier() kernelTier {
	t := detectTier()
	if os.Getenv("QAOA2_NOAVX512") != "" {
		t = min(t, tierAVX2)
	}
	if os.Getenv("QAOA2_NOASM") != "" {
		t = tierPortable
	}
	return t
}

// KernelTier reports the active kernel tier: "avx512", "avx2" or
// "portable". Bench provenance (maxcutbench -cpufeatures, the bench
// machine-class block) records it so results from different kernel
// tiers never gate against each other.
func KernelTier() string { return tierNames[activeTier] }

// SetKernelTier makes every kernel dispatch on the named tier and
// returns a func that restores the tier active before the call. It
// refuses an unknown name and any tier above the one the process
// resolved at start, so it can only lower the tier. It is the
// in-process tier switch of the cross-tier parity tests, and must not
// run while a sweep does.
func SetKernelTier(name string) (restore func(), err error) {
	i := slices.Index(tierNames[:], name)
	if i < 0 {
		return nil, fmt.Errorf("qsim: unknown kernel tier %q", name)
	}
	if kernelTier(i) > hostTier {
		return nil, fmt.Errorf("qsim: kernel tier %s is above this process's %s", name, tierNames[hostTier])
	}
	prev := activeTier
	activeTier = kernelTier(i)
	return func() { activeTier = prev }, nil
}
