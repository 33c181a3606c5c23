package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(42)
	a := parent.Split("alpha")
	b := parent.Split("beta")
	equal := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("split streams look correlated: %d/64 equal draws", equal)
	}
}

// TestRNGStreamUnchanged holds NewRNG and Split to the streams of a PCG
// seeded (seed, seed^0x9e3779b97f4a7c15) behind its own rand.Rand, which
// every seeded result in the repository was produced from.
func TestRNGStreamUnchanged(t *testing.T) {
	ref := func(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)) }
	g, want := NewRNG(9), ref(9)
	for i := 0; i < 100; i++ {
		if got, w := g.Uint64(), want.Uint64(); got != w {
			t.Fatalf("draw %d: %d, want %d", i, got, w)
		}
	}
	child := g.Split("child")
	h := uint64(14695981039346656037)
	for _, c := range []byte("child") {
		h ^= uint64(c)
		h *= 1099511628211
	}
	wantChild := ref(h ^ want.Uint64())
	for i := 0; i < 100; i++ {
		if got, w := child.Float64(), wantChild.Float64(); got != w {
			t.Fatalf("split draw %d: %v, want %v", i, got, w)
		}
	}
}

// TestNewRNGAllocs: a generator is one object, its source held by value.
func TestNewRNGAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	parent := NewRNG(1)
	var sink *RNG
	if allocs := testing.AllocsPerRun(100, func() { sink = NewRNG(7) }); allocs != 1 {
		t.Errorf("NewRNG allocates %.1f objects, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { sink = parent.Split("sub") }); allocs != 1 {
		t.Errorf("Split allocates %.1f objects, want 1", allocs)
	}
	_ = sink
}

// TestRNGSplitIntoMatchesSplit: seeding an embedded generator in place
// yields Split's stream draw for draw and advances the parent as Split
// does, for several labels and parent states.
func TestRNGSplitIntoMatchesSplit(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63} {
		for _, label := range []string{"", "x", "applet-a0000001-001", "shard-7"} {
			viaSplit, viaInto := NewRNG(seed), NewRNG(seed)
			for k := 0; k < 3; k++ { // three parent states: each split draws once
				want := viaSplit.Split(label)
				var got struct {
					pad int
					g   RNG
				}
				viaInto.SplitInto(&got.g, label)
				for i := 0; i < 1000; i++ {
					if a, b := got.g.Uint64(), want.Uint64(); a != b {
						t.Fatalf("seed %d label %q split %d draw %d: %d, want %d", seed, label, k, i, a, b)
					}
				}
			}
			if a, b := viaInto.Uint64(), viaSplit.Uint64(); a != b {
				t.Fatalf("seed %d label %q: parents diverged after splitting", seed, label)
			}
		}
	}
}

// TestRNGSplitIntoAllocs: seeding a generator in place allocates
// nothing, so a struct embedding one costs no object for it.
func TestRNGSplitIntoAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews allocation counts")
	}
	parent, dst := NewRNG(1), new(RNG)
	if allocs := testing.AllocsPerRun(100, func() { parent.SplitInto(dst, "applet-a0000001-001") }); allocs != 0 {
		t.Errorf("SplitInto allocates %.1f objects, want 0", allocs)
	}
}

func TestUniformBounds(t *testing.T) {
	g := NewRNG(1)
	u := Uniform{Lo: 3, Hi: 9}
	for i := 0; i < 1000; i++ {
		v := u.Sample(g)
		if v < 3 || v >= 9 {
			t.Fatalf("uniform draw %v outside [3,9)", v)
		}
	}
}

func TestLognormalMedian(t *testing.T) {
	g := NewRNG(2)
	l := Lognormal{Median: 120, Sigma: 0.4}
	n, below := 20000, 0
	for i := 0; i < n; i++ {
		if l.Sample(g) < 120 {
			below++
		}
	}
	frac := float64(below) / float64(n)
	if frac < 0.47 || frac > 0.53 {
		t.Fatalf("fraction below median = %.3f, want ≈0.5", frac)
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(3)
	e := Exponential{Mean: 5}
	sum := 0.0
	n := 50000
	for i := 0; i < n; i++ {
		sum += e.Sample(g)
	}
	mean := sum / float64(n)
	if math.Abs(mean-5) > 0.2 {
		t.Fatalf("sample mean %.3f, want ≈5", mean)
	}
}

func TestClamped(t *testing.T) {
	g := NewRNG(4)
	c := Clamped{D: Lognormal{Median: 100, Sigma: 2}, Lo: 10, Hi: 500}
	for i := 0; i < 5000; i++ {
		v := c.Sample(g)
		if v < 10 || v > 500 {
			t.Fatalf("clamped draw %v outside [10,500]", v)
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	g := NewRNG(5)
	m := Mixture{
		Weights:    []float64{0.9, 0.1},
		Components: []Dist{Constant(1), Constant(2)},
	}
	ones := 0
	n := 20000
	for i := 0; i < n; i++ {
		if m.Sample(g) == 1 {
			ones++
		}
	}
	frac := float64(ones) / float64(n)
	if frac < 0.87 || frac > 0.93 {
		t.Fatalf("component-1 fraction %.3f, want ≈0.9", frac)
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(1.5) != 1500*time.Millisecond {
		t.Error("Duration(1.5) wrong")
	}
	if Duration(-3) != 0 {
		t.Error("negative seconds should clamp to 0")
	}
	ds := Durations([]time.Duration{time.Second, 250 * time.Millisecond})
	if ds[0] != 1 || ds[1] != 0.25 {
		t.Errorf("Durations = %v", ds)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {-5, 1}, {105, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%.0f) = %v, want %v", c.p, got, c.want)
		}
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Percentile(xs, 50); got != 5 {
		t.Fatalf("interpolated median = %v, want 5", got)
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	s := Summarize(xs)
	if s.N != 101 || s.Min != 0 || s.Max != 100 || s.P50 != 50 || s.P25 != 25 || s.P75 != 75 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.Mean != 50 {
		t.Fatalf("mean = %v, want 50", s.Mean)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{1, 2, 2, 3})
	want := []CDFPoint{{1, 0.25}, {2, 0.75}, {3, 1}}
	if len(pts) != len(want) {
		t.Fatalf("CDF = %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("CDF[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) should be nil")
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{100, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	got := TopShare(xs, 0.1) // top 1 of 10 items
	want := 100.0 / 109.0
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TopShare = %v, want %v", got, want)
	}
}

func TestGini(t *testing.T) {
	equal := []float64{1, 1, 1, 1}
	if g := Gini(equal); math.Abs(g) > 1e-9 {
		t.Errorf("Gini(equal) = %v, want 0", g)
	}
	skewed := []float64{0, 0, 0, 100}
	if g := Gini(skewed); g < 0.7 {
		t.Errorf("Gini(skewed) = %v, want high", g)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{-1, 0, 0.5, 1.5, 9.9, 12}, 0, 10, 10)
	if h.Counts[0] != 3 { // -1 clamped, 0, 0.5
		t.Errorf("bin0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[9] != 2 { // 9.9 and 12 clamped
		t.Errorf("bin9 = %d, want 2", h.Counts[9])
	}
	if c := h.BinCenter(0); c != 0.5 {
		t.Errorf("BinCenter(0) = %v, want 0.5", c)
	}
}

func TestZipfWeightsNormalized(t *testing.T) {
	w := ZipfWeights(100, 1.1)
	if math.Abs(Sum(w)-1) > 1e-9 {
		t.Fatalf("weights sum to %v", Sum(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i] > w[i-1] {
			t.Fatalf("weights not descending at %d", i)
		}
	}
}

func TestCalibrateZipfHitsTarget(t *testing.T) {
	n := 10000
	s := CalibrateZipf(n, 0.01, 0.841)
	got := zipfTopShare(n, s, 0.01)
	if math.Abs(got-0.841) > 0.001 {
		t.Fatalf("calibrated top-1%% share = %.4f, want 0.841", got)
	}
}

func TestHeavyTailCountsExactTotal(t *testing.T) {
	counts := HeavyTailCounts(1000, 1.5, 1_000_000)
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != 1_000_000 {
		t.Fatalf("counts sum to %d", sum)
	}
	if counts[0] < counts[999] {
		t.Fatal("head not larger than tail")
	}
}

func TestWeightedChoiceDistribution(t *testing.T) {
	g := NewRNG(6)
	wc := NewWeightedChoice([]float64{1, 0, 3})
	counts := make([]int, 3)
	n := 40000
	for i := 0; i < n; i++ {
		counts[wc.Draw(g)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index drawn %d times", counts[1])
	}
	frac := float64(counts[2]) / float64(n)
	if frac < 0.72 || frac > 0.78 {
		t.Fatalf("heavy index fraction %.3f, want ≈0.75", frac)
	}
}

// Property: for any sample set, Percentile is monotone in p and bounded
// by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		pa := math.Mod(math.Abs(a), 100)
		pb := math.Mod(math.Abs(b), 100)
		if pa > pb {
			pa, pb = pb, pa
		}
		va, vb := Percentile(xs, pa), Percentile(xs, pb)
		return va <= vb && va >= Min(xs) && vb <= Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TopShare is monotone in the fraction and always within (0,1].
func TestTopShareMonotoneProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		any := false
		for i, x := range raw {
			xs[i] = float64(x)
			if x > 0 {
				any = true
			}
		}
		if !any {
			return true
		}
		prev := 0.0
		for _, frac := range []float64{0.01, 0.1, 0.5, 1} {
			s := TopShare(xs, frac)
			if s < prev || s > 1+1e-9 {
				return false
			}
			prev = s
		}
		return prev > 1-1e-9 // top 100% holds everything
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: HeavyTailCounts always sums exactly to the requested total
// and is non-increasing after the rounding-residue head.
func TestHeavyTailCountsSumProperty(t *testing.T) {
	f := func(n uint8, total uint32) bool {
		nn := int(n%200) + 1
		tt := int64(total % 1_000_000)
		counts := HeavyTailCounts(nn, 1.2, tt)
		var sum int64
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == tt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the empirical CDF is a valid distribution function —
// strictly increasing in X, non-decreasing in P, ending at exactly 1.
func TestCDFValidProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, x := range raw {
			xs[i] = float64(x)
		}
		pts := CDF(xs)
		for i := 1; i < len(pts); i++ {
			if pts[i].X <= pts[i-1].X || pts[i].P <= pts[i-1].P {
				return false
			}
		}
		return math.Abs(pts[len(pts)-1].P-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Percentile empty", func() { Percentile(nil, 50) })
	mustPanic("Min empty", func() { Min(nil) })
	mustPanic("Max empty", func() { Max(nil) })
	mustPanic("Gini empty", func() { Gini(nil) })
	mustPanic("TopShare empty", func() { TopShare(nil, 0.5) })
	mustPanic("TopShare frac", func() { TopShare([]float64{1}, 1.5) })
	mustPanic("ZipfWeights n", func() { ZipfWeights(0, 1) })
	mustPanic("ZipfWeights s", func() { ZipfWeights(5, -1) })
	mustPanic("HeavyTailCounts n", func() { HeavyTailCounts(0, 1, 10) })
	mustPanic("CalibrateZipf range", func() { CalibrateZipf(10, 0.5, 0.4) })
	mustPanic("NewHistogram bins", func() { NewHistogram(nil, 0, 1, 0) })
	mustPanic("NewHistogram range", func() { NewHistogram(nil, 1, 1, 4) })
	mustPanic("WeightedChoice empty", func() { NewWeightedChoice(nil) })
	mustPanic("WeightedChoice neg", func() { NewWeightedChoice([]float64{-1}) })
	mustPanic("WeightedChoice zero", func() { NewWeightedChoice([]float64{0, 0}) })
}
