package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	child := parent.Split()
	// Child stream must differ from a fresh parent-seeded stream.
	ref := NewRNG(7)
	diff := 0
	for i := 0; i < 64; i++ {
		if child.Uint64() != ref.Uint64() {
			diff++
		}
	}
	if diff < 60 {
		t.Fatalf("split stream correlates with parent seed: only %d/64 differ", diff)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRNG(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(11)
	seen := make(map[int]int)
	for i := 0; i < 30000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d out of range", v)
		}
		seen[v]++
	}
	for v := 0; v < 7; v++ {
		if seen[v] < 3000 {
			t.Fatalf("value %d badly under-represented: %d draws", v, seen[v])
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormMuSigma(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormMuSigma(3.5, 0.25)
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.01 {
		t.Fatalf("mean = %v, want ~3.5", mean)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := NewRNG(19)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBinomialSmallMean(t *testing.T) {
	r := NewRNG(23)
	const n, p, trials = 10000, 1e-4, 20000
	var sum float64
	for i := 0; i < trials; i++ {
		k := r.Binomial(n, p)
		if k < 0 || k > n {
			t.Fatalf("binomial draw %d out of range", k)
		}
		sum += float64(k)
	}
	mean := sum / trials
	want := float64(n) * p
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("binomial mean = %v, want ~%v", mean, want)
	}
}

func TestBinomialLargeMean(t *testing.T) {
	r := NewRNG(29)
	const n, p, trials = 100000, 0.01, 5000
	var sum float64
	for i := 0; i < trials; i++ {
		sum += float64(r.Binomial(n, p))
	}
	mean := sum / trials
	want := float64(n) * p // 1000
	if math.Abs(mean-want) > 5 {
		t.Fatalf("binomial mean = %v, want ~%v", mean, want)
	}
}

func TestBinomialEdgeCases(t *testing.T) {
	r := NewRNG(31)
	if r.Binomial(0, 0.5) != 0 {
		t.Error("Binomial(0,·) != 0")
	}
	if r.Binomial(10, 0) != 0 {
		t.Error("Binomial(·,0) != 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Error("Binomial(10,1) != 10")
	}
}

func TestSampleKDistinct(t *testing.T) {
	r := NewRNG(41)
	for trial := 0; trial < 200; trial++ {
		got := r.SampleK(100, 10)
		if len(got) != 10 {
			t.Fatalf("SampleK returned %d values, want 10", len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= 100 {
				t.Fatalf("sample %d out of range", v)
			}
			if seen[v] {
				t.Fatalf("duplicate sample %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKFull(t *testing.T) {
	r := NewRNG(43)
	got := r.SampleK(5, 5)
	seen := map[int]bool{}
	for _, v := range got {
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("SampleK(5,5) not a full permutation: %v", got)
	}
}

func TestSampleKUniformityProperty(t *testing.T) {
	// Property: across many draws every element of [0,n) appears with
	// roughly equal frequency.
	r := NewRNG(47)
	counts := make([]int, 20)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleK(20, 3) {
			counts[v]++
		}
	}
	want := float64(trials*3) / 20
	for v, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("element %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestQuickIntnInRange(t *testing.T) {
	r := NewRNG(53)
	f := func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBinomialInRange(t *testing.T) {
	r := NewRNG(59)
	f := func(nRaw uint16, pRaw uint16) bool {
		n := int(nRaw % 5000)
		p := float64(pRaw) / 65536
		k := r.Binomial(n, p)
		return k >= 0 && k <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
