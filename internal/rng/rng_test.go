package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestZeroSeedIsValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) returned %d", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[r.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", b, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.NormFloat64()
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 5, 64} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(23)
	a := parent.Split(1)
	b := parent.Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collide: %d identical draws", same)
	}
}

func TestShuffleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 20
		xs := make([]int, n)
		for i := range xs {
			xs[i] = i
		}
		r.Shuffle(n, func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		seen := make([]bool, n)
		for _, v := range xs {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolIsFair(t *testing.T) {
	r := New(29)
	trues := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool() {
			trues++
		}
	}
	if math.Abs(float64(trues)/n-0.5) > 0.01 {
		t.Fatalf("Bool true fraction %v not fair", float64(trues)/n)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// TestStreamsArePinned: the first draws of a seeded stream and of a
// split child are fixed values, so a change to how New or Split is
// built cannot move any stream a golden output depends on.
func TestStreamsArePinned(t *testing.T) {
	r := New(42)
	c := r.Split(7)
	var mix uint64
	for i := 0; i < 100; i++ {
		mix ^= c.Uint64() + uint64(i)*r.Uint64()
	}
	got := [3]uint64{New(0).Uint64(), mix, New(1).Split(0).Uint64()}
	want := [3]uint64{0x99ec5f36cb75f2b4, 0xd57c1be2e7b6af9e, 0x2c83f301eb3f9c90}
	if got != want {
		t.Fatalf("streams moved: got %#x, want %#x", got, want)
	}

	// Streams derived by value into one array, as a best-of derives its
	// members' (labels 1, 2, … from the caller's stream) and a runtime
	// stage its parts' (labels 0x9e37, … from New(seed)): the draws of
	// the heap Split of the same labels, and the caller's stream left
	// where those Splits leave it.
	r = New(3)
	members := make([]Rand, 2)
	for i := range members {
		members[i] = *r.Split(uint64(i) + 1)
	}
	parts := make([]Rand, 3)
	for i := range parts {
		parts[i] = *New(9).Split(uint64(i) + 0x9e37)
	}
	arrays := [6]uint64{members[0].Uint64(), members[1].Uint64(), r.Uint64(),
		parts[0].Uint64(), parts[1].Uint64(), parts[2].Uint64()}
	wantArrays := [6]uint64{0x3ed5eaf709c31163, 0x4535373c4f57b4dc, 0x37e00afb3229fd51,
		0xd85e3161ebc49dc7, 0xac329b27dd09d4eb, 0xf2e6eb9c1841a290}
	if arrays != wantArrays {
		t.Fatalf("array-derived streams moved: got %#x, want %#x", arrays, wantArrays)
	}
}

// TestLocalGeneratorDoesNotAllocate: New inlines, so a generator that
// does not outlive its caller stays on the caller's stack.
func TestLocalGeneratorDoesNotAllocate(t *testing.T) {
	seed := uint64(5)
	sum := 0.0
	allocs := testing.AllocsPerRun(20, func() {
		r := New(seed)
		for i := 0; i < 100; i++ {
			sum += r.NormFloat64()
		}
		seed++
	})
	if allocs != 0 {
		t.Fatalf("a local generator and 100 normal draws allocate %.0f times, want 0", allocs)
	}
}

// TestNextBelowMatchesUint64Loop: NextBelow takes the draws, reports
// the hit and leaves the stream exactly as a loop of Uint64 calls that
// stops at the first draw whose top 53 bits fall below the threshold,
// or after limit draws.
func TestNextBelowMatchesUint64Loop(t *testing.T) {
	loop := func(r *Rand, limit int, below uint64) (int, bool) {
		for draws := 1; draws <= limit; draws++ {
			if r.Uint64()>>11 < below {
				return draws, true
			}
		}
		return max(limit, 0), false
	}
	// A stream one draw past its seed, and the draw on which it first
	// falls below 2⁵³/100, so a limit of that many hits on its last.
	stream := func() *Rand {
		r := New(8)
		r.Uint64()
		return r
	}
	const rare = 1 << 53 / 100
	first, _ := loop(stream(), 1000, rare)
	if first < 2 {
		t.Fatalf("the stream hits 2⁵³/100 on draw %d; the cases need a later first hit", first)
	}
	cases := []struct {
		name      string
		limit     int
		below     uint64
		wantDraws int
		wantHit   bool
	}{
		{"limit 0", 0, 1 << 53, 0, false},
		{"negative limit", -3, 1 << 53, 0, false},
		{"threshold 0", 50, 0, 50, false},
		{"threshold 2^53", 50, 1 << 53, 1, true},
		{"no hit before the limit", first - 1, rare, first - 1, false},
		{"hit on the last draw", first, rare, first, true},
		{"hit before the limit", first + 40, rare, first, true},
		{"threshold 1", 1000, 1, 1000, false},
	}
	for _, tc := range cases {
		got, want := stream(), stream()
		draws, hit := got.NextBelow(tc.limit, tc.below)
		loopDraws, loopHit := loop(want, tc.limit, tc.below)
		if draws != loopDraws || hit != loopHit || draws != tc.wantDraws || hit != tc.wantHit {
			t.Fatalf("%s: %d draws, hit %v; the Uint64 loop %d, %v; want %d, %v",
				tc.name, draws, hit, loopDraws, loopHit, tc.wantDraws, tc.wantHit)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: next draw %#x, want %#x", tc.name, g, w)
		}
	}
	// A long run at an even threshold, call after call.
	got, want := stream(), stream()
	for k := 0; k < 1000; k++ {
		draws, hit := got.NextBelow(5, 1<<52)
		loopDraws, loopHit := loop(want, 5, 1<<52)
		if draws != loopDraws || hit != loopHit {
			t.Fatalf("call %d: %d draws, hit %v; the Uint64 loop %d, %v", k, draws, hit, loopDraws, loopHit)
		}
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Fatalf("after 1000 calls: next draw %#x, want %#x", g, w)
	}
}
