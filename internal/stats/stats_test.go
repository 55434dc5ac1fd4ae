package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func uniformSample(r *rand.Rand, n int) *Sample {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Float64()
	}
	return NewSample(xs)
}

func TestKSSameDistributionAccepts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rejections := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		x := uniformSample(r, 100)
		y := uniformSample(r, 100)
		res, err := KSTest(x, y, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	// At alpha=0.95 the false-rejection rate should be around 5%.
	if rejections > trials/4 {
		t.Errorf("%d/%d same-distribution pairs rejected", rejections, trials)
	}
}

func TestKSDifferentDistributionsReject(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	x := uniformSample(r, 200)
	ys := make([]float64, 200)
	for i := range ys {
		ys[i] = r.Float64()*0.5 + 0.5 // uniform on [0.5, 1]
	}
	res, err := KSTest(x, NewSample(ys), 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("disjoint-ish distributions accepted: %v", res)
	}
	if res.D < 0.4 {
		t.Errorf("D = %v, expected about 0.5", res.D)
	}
}

func TestKSIdenticalSamplesDZero(t *testing.T) {
	x := NewSample([]float64{1, 2, 3, 4})
	y := NewSample([]float64{1, 2, 3, 4})
	res, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 0 || res.Reject {
		t.Errorf("identical samples: %v", res)
	}
	if res.P != 1 {
		t.Errorf("p = %v, want 1", res.P)
	}
}

func TestKSCompletelyDisjoint(t *testing.T) {
	x := NewSample([]float64{1, 1, 1})
	y := NewSample([]float64{2, 2, 2})
	res, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if res.D != 1 {
		t.Errorf("D = %v, want 1", res.D)
	}
}

func TestKSWeightedEquivalence(t *testing.T) {
	// A weighted sample must behave exactly like its expansion.
	x := &Sample{}
	x.Add(1, 3)
	x.Add(5, 2)
	expanded := NewSample([]float64{1, 1, 1, 5, 5})
	y := NewSample([]float64{1, 2, 3, 4, 5})
	r1, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KSTest(expanded, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r1.D-r2.D) > 1e-12 || math.Abs(r1.P-r2.P) > 1e-12 {
		t.Errorf("weighted %v != expanded %v", r1, r2)
	}
}

func TestKSSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := uniformSample(r, 30)
		y := uniformSample(r, 50)
		a, err1 := KSTest(x, y, 0.95)
		b, err2 := KSTest(y, x, 0.95)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.D-b.D) < 1e-12 && math.Abs(a.P-b.P) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestKSThresholdEq3(t *testing.T) {
	// Eq. 3 at alpha=0.95, n=m=100: c(alpha)=sqrt(-ln(0.025)/2)=1.3581,
	// sqrt(200/10000)=0.1414 => 0.1921.
	got := KSThreshold(0.95, 100, 100)
	if math.Abs(got-0.19206) > 1e-4 {
		t.Errorf("threshold = %v, want ~0.19206", got)
	}
}

func TestKSRejectMatchesThreshold(t *testing.T) {
	// The p-value rule p < 1-alpha and the D > D_{n,m} rule agree.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := uniformSample(r, 40)
		ys := make([]float64, 40)
		for i := range ys {
			ys[i] = r.Float64() * (0.5 + r.Float64())
		}
		res, err := KSTest(x, NewSample(ys), 0.95)
		if err != nil {
			return false
		}
		return res.Reject == (res.D > res.Threshold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKSValidation(t *testing.T) {
	x := NewSample([]float64{1})
	if _, err := KSTest(x, &Sample{}, 0.95); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := KSTest(x, x, 1.5); err == nil {
		t.Error("alpha=1.5 accepted")
	}
}

func TestSampleMoments(t *testing.T) {
	s := NewSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("mean = %v, want 5", got)
	}
	if got := s.Variance(); math.Abs(got-32.0/7) > 1e-9 {
		t.Errorf("variance = %v, want %v", got, 32.0/7)
	}
	if s.N() != 8 {
		t.Errorf("N = %v", s.N())
	}
}

func TestSampleIgnoresNonPositiveWeights(t *testing.T) {
	s := &Sample{}
	s.Add(1, 0)
	s.Add(2, -3)
	if s.N() != 0 || s.Len() != 0 {
		t.Errorf("non-positive weights recorded: N=%v Len=%d", s.N(), s.Len())
	}
}

func TestWelchTDetectsMeanShift(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = r.NormFloat64()
		ys[i] = r.NormFloat64() + 3
	}
	res, err := WelchT(NewSample(xs), NewSample(ys))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("3-sigma mean shift not rejected: %+v", res)
	}
}

func TestWelchTConstantSamples(t *testing.T) {
	x := NewSample([]float64{5, 5, 5})
	y := NewSample([]float64{5, 5, 5})
	res, err := WelchT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reject {
		t.Errorf("identical constants rejected: %+v", res)
	}
	z := NewSample([]float64{6, 6, 6})
	res, err = WelchT(x, z)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Errorf("different constants accepted: %+v", res)
	}
}

// TestWelchMissesShapeChange demonstrates the paper's argument for KS
// (§VII-B): a distribution change that preserves the mean is invisible to
// the t-test but caught by KS.
func TestWelchMissesShapeChange(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	xs := make([]float64, 400) // all mass near the mean
	ys := make([]float64, 400) // bimodal with the same mean
	for i := range xs {
		xs[i] = 0.5 + 0.01*r.NormFloat64()
		if i%2 == 0 {
			ys[i] = 0
		} else {
			ys[i] = 1
		}
	}
	x, y := NewSample(xs), NewSample(ys)
	wres, err := WelchT(x, y)
	if err != nil {
		t.Fatal(err)
	}
	kres, err := KSTest(x, y, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !kres.Reject {
		t.Errorf("KS missed the shape change: %v", kres)
	}
	if wres.Reject {
		t.Skipf("t-test happened to reject (t=%v); the KS advantage still holds", wres.T)
	}
}

// refSorted is the index-permutation sort every sample took before
// presorted and unweighted samples got their own paths.
func refSorted(s *Sample) ([]float64, []float64) {
	idx := make([]int, len(s.values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return s.values[idx[i]] < s.values[idx[j]] })
	var vs, ws []float64
	for _, i := range idx {
		v, w := s.values[i], s.weights[i]
		if len(vs) > 0 && vs[len(vs)-1] == v {
			ws[len(ws)-1] += w
			continue
		}
		vs = append(vs, v)
		ws = append(ws, w)
	}
	return vs, ws
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSortedMatchesIndexSort checks sorted and the KS statistics built on
// it against the index-permutation sort, bit for bit, on random,
// presorted (the address-histogram shape), duplicate-heavy weighted and
// unweighted samples.
func TestSortedMatchesIndexSort(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	gen := []struct {
		name string
		mk   func(n int) *Sample
	}{
		{"random weighted", func(n int) *Sample {
			s := &Sample{}
			for i := 0; i < n; i++ {
				s.Add(r.NormFloat64()*100, r.Float64()*10)
			}
			return s
		}},
		{"presorted weighted", func(n int) *Sample {
			s, v := &Sample{}, 0.0
			for i := 0; i < n; i++ {
				v += 1 + float64(r.Intn(16))
				s.Add(v, float64(1+r.Intn(40)))
			}
			return s
		}},
		{"duplicate-heavy weighted", func(n int) *Sample {
			s := &Sample{}
			for i := 0; i < n; i++ {
				s.Add(float64(r.Intn(5)), 0.1+r.Float64())
			}
			return s
		}},
		{"unweighted with duplicates", func(n int) *Sample {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(r.Intn(n/3 + 1))
			}
			return NewSample(xs)
		}},
		{"unweighted presorted", func(n int) *Sample {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i) / 3
			}
			return NewSample(xs)
		}},
	}
	for _, g := range gen {
		name, mk := g.name, g.mk
		for trial := 0; trial < 50; trial++ {
			x, y := mk(1+r.Intn(300)), mk(1+r.Intn(300))
			xv, xw := x.sorted()
			rv, rw := refSorted(x)
			if !sameBits(xv, rv) || !sameBits(xw, rw) {
				t.Fatalf("%s trial %d: sorted differs from the index sort", name, trial)
			}
			got, err := KSTestEff(x, y, 0.95, 10, 12)
			if err != nil {
				t.Fatal(err)
			}
			yv, yw := refSorted(y)
			rx, ry := &Sample{values: rv, weights: rw, total: x.total}, &Sample{values: yv, weights: yw, total: y.total}
			want, err := KSTestEff(rx, ry, 0.95, 10, 12)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.D) != math.Float64bits(want.D) || math.Float64bits(got.P) != math.Float64bits(want.P) {
				t.Fatalf("%s trial %d: D, P = %v, %v, want %v, %v", name, trial, got.D, got.P, want.D, want.P)
			}
		}
	}
}
