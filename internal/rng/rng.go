// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic component of the repository (graph
// generation, Goemans-Williamson hyperplane rounding, QAOA shot sampling,
// simulated annealing, ...).
//
// Reproducibility is a hard requirement for the experiment harness: the
// paper's figures are proportions over fixed graph ensembles, so every
// subsystem derives its stream from an explicit seed rather than global
// state. The generator is xoshiro256** seeded through SplitMix64, the
// textbook combination with good statistical quality and a tiny state.
package rng

import "math"

// Rand is a deterministic xoshiro256** generator. It is NOT safe for
// concurrent use; use Split to derive independent streams per goroutine.
type Rand struct {
	s0, s1, s2, s3 uint64
	// cached spare normal variate for Box-Muller
	hasSpare bool
	spare    float64
}

// splitMix64 advances the SplitMix64 state and returns the next value.
// It is used only to expand a single seed into xoshiro's 256-bit state.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams. New and Split are kept small
// enough to inline, the seeding living in a method, so a generator that
// does not outlive its caller is built on the caller's stack, not the
// heap.
func New(seed uint64) *Rand {
	r := new(Rand)
	r.seed(seed)
	return r
}

// seed expands seed into xoshiro's state through SplitMix64.
func (r *Rand) seed(seed uint64) {
	sm := seed
	r.s0 = splitMix64(&sm)
	r.s1 = splitMix64(&sm)
	r.s2 = splitMix64(&sm)
	r.s3 = splitMix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Split derives a new, statistically independent generator from r.
// The child stream is a function of the parent state and the label,
// so sub-components can be given stable streams regardless of how many
// draws the parent made before the split.
func (r *Rand) Split(label uint64) *Rand {
	c := new(Rand)
	c.seedFrom(r, label)
	return c
}

// seedFrom seeds r as parent's child stream for label. Split's one call,
// so Split stays within the inlining budget.
func (r *Rand) seedFrom(parent *Rand, label uint64) {
	r.seed(parent.Uint64() ^ (label * 0xd1342543de82ef95))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * 0x1p-53
}

// NextBelow draws until a draw's top 53 bits, u>>11 read as an integer,
// fall below below, taking at most limit draws. It returns how many it
// took and whether the last was such a hit, and leaves the stream where
// that many Uint64 calls would. Float64() is (u>>11)·2⁻⁵³ exactly, so
// with below = ⌈p·2⁵³⌉ a hit is a draw whose Float64() < p: a run of
// Bernoulli(p) trials skipped to its next success, the state held in
// registers rather than written back on every draw.
func (r *Rand) NextBelow(limit int, below uint64) (draws int, hit bool) {
	s0, s1, s2, s3 := r.s0, r.s1, r.s2, r.s3
	for draws < limit {
		draws++
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if u>>11 < below {
			hit = true
			break
		}
	}
	r.s0, r.s1, r.s2, r.s3 = s0, s1, s2, s3
	return draws, hit
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// NormFloat64 returns a standard normal variate via Box-Muller, caching
// the spare value. GW rounding consumes these in bulk.
func (r *Rand) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := r.Float64()
		v := r.Float64()
		if u <= 1e-300 {
			continue
		}
		mag := math.Sqrt(-2 * math.Log(u))
		r.spare = mag * math.Sin(2*math.Pi*v)
		r.hasSpare = true
		return mag * math.Cos(2*math.Pi*v)
	}
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bool returns a fair coin flip.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }
