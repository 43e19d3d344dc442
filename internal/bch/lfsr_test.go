package bch

import (
	"testing"

	"xlnand/internal/gf"
	"xlnand/internal/stats"
)

func bytesToBits(b []byte, n int) []bool {
	out := make([]bool, n)
	for i := 0; i < n; i++ {
		out[i] = b[i/8]>>(7-uint(i%8))&1 == 1
	}
	return out
}

func TestLFSRMatchesTableEncoder(t *testing.T) {
	// The bit-accurate hardware structure must produce exactly the
	// parity the table-driven encoder computes.
	c := mkCode(t, 5)
	enc := NewEncoder(c)
	l := NewLFSR(c, 8)
	r := stats.NewRNG(400)
	for trial := 0; trial < 30; trial++ {
		msg := randMsg(r, c.K/8)
		wantParity := make([]byte, c.GenDegree/8)
		if err := enc.EncodeInto(wantParity, msg); err != nil {
			t.Fatal(err)
		}
		gotPoly, cycles := l.EncodeBits(bytesToBits(msg, c.K))
		want := gf.NewPoly2FromBytes(wantParity, c.GenDegree)
		if !gotPoly.Equal(want) {
			t.Fatalf("trial %d: LFSR parity differs from table encoder", trial)
		}
		if cycles != (c.K+7)/8 {
			t.Fatalf("cycles = %d, want ceil(k/p) = %d", cycles, (c.K+7)/8)
		}
	}
}

func TestLFSRMatchesPolynomialMod(t *testing.T) {
	// Against the mathematical definition: remainder of msg·x^r mod g.
	c, err := NewCode(Params{M: 4, K: 7, T: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := NewLFSR(c, 1) // bit-serial, the textbook configuration
	for m := 0; m < 1<<7; m++ {
		bits := make([]bool, 7)
		var exps []int
		for i := 0; i < 7; i++ {
			// bits are MSB-first: bit i corresponds to degree k-1-i.
			set := m>>uint(6-i)&1 == 1
			bits[i] = set
			if set {
				exps = append(exps, 6-i)
			}
		}
		want := gf.NewPoly2FromCoeffs(exps...).ShiftLeft(c.GenDegree).Mod(c.Gen)
		got, _ := l.EncodeBits(bits)
		if !got.Equal(want) {
			t.Fatalf("message %07b: LFSR %v, want %v", m, got, want)
		}
	}
}

func TestLFSRParallelismInvariance(t *testing.T) {
	// The parity must be independent of the datapath width p; only the
	// cycle count changes (k/p — the paper's latency law).
	c := mkCode(t, 4)
	r := stats.NewRNG(401)
	msg := randMsg(r, c.K/8)
	bits := bytesToBits(msg, c.K)
	ref, refCycles := NewLFSR(c, 1).EncodeBits(bits)
	for _, p := range []int{2, 4, 8, 16} {
		got, cycles := NewLFSR(c, p).EncodeBits(bits)
		if !got.Equal(ref) {
			t.Fatalf("p=%d: parity differs from bit-serial", p)
		}
		if cycles != (c.K+p-1)/p {
			t.Fatalf("p=%d: cycles %d, want %d", p, cycles, (c.K+p-1)/p)
		}
		if cycles >= refCycles && p > 1 {
			t.Fatalf("p=%d did not reduce cycles", p)
		}
	}
}

func TestLFSRResetBetweenCodewords(t *testing.T) {
	c := mkCode(t, 3)
	l := NewLFSR(c, 8)
	r := stats.NewRNG(402)
	msg := randMsg(r, c.K/8)
	bits := bytesToBits(msg, c.K)
	first, _ := l.EncodeBits(bits)
	second, _ := l.EncodeBits(bits) // EncodeBits resets internally
	if !first.Equal(second) {
		t.Fatal("stale state leaked between codewords")
	}
}

func TestLFSRPanicsOnBadParallelism(t *testing.T) {
	c := mkCode(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("p=0 accepted")
		}
	}()
	NewLFSR(c, 0)
}
