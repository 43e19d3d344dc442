package experiments

import "testing"

func TestAblationECCFamiliesShape(t *testing.T) {
	f := AblationECCFamilies(env())
	if len(f.Series) != 4 {
		t.Fatalf("%d series, want 4", len(f.Series))
	}
	ham := findSeries(t, f, "Hamming SEC-DED 512 B")
	rsS := findSeries(t, f, "RS(255,223) x19")
	bch64 := findSeries(t, f, "BCH 4KB t=64")
	bch14 := findSeries(t, f, "BCH 4KB t=14")

	for i := range ham.X {
		// All monotone non-decreasing in RBER.
		if i > 0 {
			for _, s := range f.Series {
				if s.Y[i] < s.Y[i-1] {
					t.Fatalf("%s not monotone at RBER %g", s.Name, s.X[i])
				}
			}
		}
		// Hamming is the weakest protector everywhere above the floor.
		if ham.Y[i] > 1e-39 && (ham.Y[i] < rsS.Y[i] || ham.Y[i] < bch14.Y[i]) {
			t.Fatalf("Hamming outperforms stronger codes at RBER %g", ham.X[i])
		}
		// Parity efficiency (the paper §2/§6.2 argument): BCH t=14 uses
		// 28 B parity vs Hamming's 16 B yet wins by many decades; BCH
		// t=64 uses 128 B vs RS's 608 B and must stay within a few
		// decades of it despite the 4.75x parity deficit.
		if ham.Y[i] > 1e-30 && bch14.Y[i] > ham.Y[i] {
			t.Fatalf("BCH t=14 behind Hamming at RBER %g", ham.X[i])
		}
		// In the sparse regime the win is decades wide.
		if ham.X[i] <= 1e-5 && ham.Y[i] > 1e-30 && bch14.Y[i] > ham.Y[i]*1e-3 {
			t.Fatalf("BCH t=14 win under 3 decades at RBER %g", ham.X[i])
		}
		if rsS.Y[i] > 1e-35 && bch64.Y[i] > rsS.Y[i]*1e4 {
			t.Fatalf("BCH t=64 catastrophically behind RS at RBER %g (%g vs %g)",
				ham.X[i], bch64.Y[i], rsS.Y[i])
		}
	}

	// At the paper's EOL RBER (1e-3), Hamming must be catastrophically
	// inadequate (UBER near RBER itself) while BCH t=64 is near 1e-11.
	last := len(ham.X) - 1
	if ham.Y[last] < 1e-6 {
		t.Fatalf("Hamming at RBER 1e-3 implausibly good: %g", ham.Y[last])
	}
	if bch64.Y[last] > 1e-9 {
		t.Fatalf("BCH t=64 at RBER 1e-3 too weak: %g", bch64.Y[last])
	}
}

func TestSymbolErrorRate(t *testing.T) {
	if got := symbolErrorRate(0); got != 0 {
		t.Fatalf("SER(0) = %v", got)
	}
	// Small p: SER ≈ 8p.
	p := 1e-6
	if got := symbolErrorRate(p); got < 7.9e-6 || got > 8.1e-6 {
		t.Fatalf("SER(1e-6) = %v, want ≈ 8e-6", got)
	}
	// Monotone and bounded.
	prev := 0.0
	for _, p := range []float64{1e-6, 1e-4, 1e-2, 0.5, 1} {
		cur := symbolErrorRate(p)
		if cur < prev || cur > 1 {
			t.Fatalf("SER not monotone/bounded at %v", p)
		}
		prev = cur
	}
}
