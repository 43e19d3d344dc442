package bch

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"weak"

	"xlnand/internal/stats"
)

// smallCodec returns an adaptive codec small enough for fast tests while
// keeping the paper's byte-aligned geometry: GF(2^16), k = 1024 bits
// (128 bytes), t in [1, 12] so r = 16·t is always whole bytes.
func smallCodec(t *testing.T) *Codec {
	t.Helper()
	c, err := NewCodec(16, 1024, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCodecValidation(t *testing.T) {
	if _, err := NewCodec(16, 1024, 5, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := NewCodec(16, 1024, 0, 3); err == nil {
		t.Fatal("tmin=0 accepted")
	}
	if _, err := NewCodec(8, 4096, 1, 10); err == nil {
		t.Fatal("overfull field accepted") // 4096 > 255
	}
}

func TestCodecClampT(t *testing.T) {
	c := smallCodec(t)
	if c.ClampT(0) != 1 || c.ClampT(13) != 12 || c.ClampT(7) != 7 {
		t.Fatal("ClampT wrong")
	}
}

func TestCodecRejectsOutOfRangeT(t *testing.T) {
	c := smallCodec(t)
	if _, err := c.Code(0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := c.Code(13); err == nil {
		t.Fatal("t>tmax accepted")
	}
	if _, err := c.EncodeCodeword(13, make([]byte, 64)); err == nil {
		t.Fatal("EncodeCodeword with t>tmax accepted")
	}
	if _, err := c.Decode(0, make([]byte, 70)); err == nil {
		t.Fatal("Decode with t=0 accepted")
	}
}

func TestCodecRoundTripAcrossT(t *testing.T) {
	c := smallCodec(t)
	r := stats.NewRNG(90)
	for tc := c.TMin; tc <= c.TMax; tc++ {
		msg := randMsg(r, c.K/8)
		cw, err := c.EncodeCodeword(tc, msg)
		if err != nil {
			t.Fatalf("t=%d: %v", tc, err)
		}
		code, _ := c.Code(tc)
		want := append([]byte(nil), cw...)
		flipBits(cw, r.SampleK(code.CodewordBits(), tc))
		n, err := c.Decode(tc, cw)
		if err != nil {
			t.Fatalf("t=%d: decode: %v", tc, err)
		}
		if n != tc || !bytes.Equal(cw, want) {
			t.Fatalf("t=%d: corrected %d, match=%v", tc, n, bytes.Equal(cw, want))
		}
	}
}

func TestCodecReconfigurationChangesParity(t *testing.T) {
	// The adaptive property: same message, different t, different parity
	// size — and each decodes with the t it was encoded with.
	c := smallCodec(t)
	r := stats.NewRNG(91)
	msg := randMsg(r, c.K/8)
	cw4, err := c.EncodeCodeword(4, msg)
	if err != nil {
		t.Fatal(err)
	}
	cw9, err := c.EncodeCodeword(9, msg)
	if err != nil {
		t.Fatal(err)
	}
	p4, p9 := len(cw4)-len(msg), len(cw9)-len(msg)
	b4, _ := c.ParityBytes(4)
	b9, _ := c.ParityBytes(9)
	if p4 != b4 || p9 != b9 {
		t.Fatalf("parity sizes %d/%d, want %d/%d", p4, p9, b4, b9)
	}
	if p4 >= p9 {
		t.Fatal("higher t should cost more parity")
	}
}

func TestCodecSharedFieldIdentity(t *testing.T) {
	c := smallCodec(t)
	c4, _ := c.Code(4)
	c9, _ := c.Code(9)
	if c4.Field != c9.Field || c4.Field != c.Field() {
		t.Fatal("codes do not share the codec's field instance")
	}
}

func TestCodecCaching(t *testing.T) {
	c := smallCodec(t)
	a, _ := c.Code(5)
	b, _ := c.Code(5)
	if a != b {
		t.Fatal("Code(5) rebuilt instead of cached")
	}
}

func TestCodecWarm(t *testing.T) {
	c := smallCodec(t)
	if err := c.Warm(6); err != nil {
		t.Fatal(err)
	}
	if c.encoders[6-c.TMin].Load() == nil || c.decoders[6-c.TMin].Load() == nil {
		t.Fatal("Warm did not populate caches")
	}
}

func TestCodecConcurrentUse(t *testing.T) {
	c := smallCodec(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := stats.NewRNG(seed)
			for i := 0; i < 20; i++ {
				tc := 1 + r.Intn(12)
				msg := randMsg(r, c.K/8)
				cw, err := c.EncodeCodeword(tc, msg)
				if err != nil {
					errs <- err
					return
				}
				code, _ := c.Code(tc)
				flipBits(cw, r.SampleK(code.CodewordBits(), tc))
				if _, err := c.Decode(tc, cw); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(g) + 1000)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// driveSharedCodecs runs one goroutine per "drive", each with its own
// Codec, encoding and decoding concurrently at mixed capabilities (so
// every table set is raced for on first use), then checks that all of
// them ended up on one field, one syndrome calculator and — per
// capability — one table set shared by encoder and decoder alike. It
// returns weak pointers to the table sets, which nothing it leaves
// behind holds.
func driveSharedCodecs(t *testing.T, levels []int) (tables []weak.Pointer[divTables]) {
	const drives, k = 8, 2048
	codecs := make([]*Codec, drives)
	var wg sync.WaitGroup
	for d := range codecs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := NewCodec(16, k, 3, 65)
			if err != nil {
				t.Error(err)
				return
			}
			codecs[d] = c
			r := stats.NewRNG(uint64(d) + 2200)
			for i := range 3 * len(levels) {
				tc := levels[(i+d)%len(levels)]
				cw, err := c.EncodeCodeword(tc, randMsg(r, k/8))
				if err != nil {
					t.Error(err)
					return
				}
				want := bytes.Clone(cw)
				flipBits(cw, r.SampleK(len(cw)*8, tc))
				if n, err := c.Decode(tc, cw); err != nil || n != tc || !bytes.Equal(cw, want) {
					t.Errorf("drive %d t=%d: n=%d err=%v", d, tc, n, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return nil
	}
	for _, tc := range levels {
		first := codecs[0].encoders[tc-3].Load().tab
		tables = append(tables, weak.Make(first))
		for d, c := range codecs {
			enc, dec := c.encoders[tc-3].Load(), c.decoders[tc-3].Load()
			if enc.tab != first || dec.div != first {
				t.Fatalf("drive %d t=%d: private division tables", d, tc)
			}
			if c.field != codecs[0].field || c.syn != codecs[0].syn {
				t.Fatalf("drive %d: private field or syndrome calculator", d)
			}
		}
	}
	return tables
}

// TestCodecsShareTables: concurrently live codecs share every immutable
// table, and the tables die with the last codec that holds them (run
// under -race in CI).
func TestCodecsShareTables(t *testing.T) {
	tables := driveSharedCodecs(t, []int{3, 16, 33, 65})
	runtime.GC()
	runtime.GC()
	for i, wp := range tables {
		if wp.Value() != nil {
			t.Fatalf("table set %d outlived the codecs that held it", i)
		}
	}
}

func TestPageCodecParams(t *testing.T) {
	m, k, tmin, tmax := PageCodecParams()
	if m != 16 || k != 32768 || tmin != 3 || tmax != 65 {
		t.Fatalf("paper parameters drifted: %d %d %d %d", m, k, tmin, tmax)
	}
}

// TestPageCodecFullRoundTrip exercises the real 4 KB page geometry at the
// paper's extremes (t=3 and t=65). This is the heaviest unit test in the
// package (~1 s); it guards the exact configuration every experiment uses.
func TestPageCodecFullRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("page-scale round trip skipped in -short mode")
	}
	codec, err := NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(92)
	for _, tc := range []int{3, 65} {
		msg := randMsg(r, codec.K/8)
		cw, err := codec.EncodeCodeword(tc, msg)
		if err != nil {
			t.Fatalf("t=%d: %v", tc, err)
		}
		code, _ := codec.Code(tc)
		if code.CodewordBits() != 32768+16*tc {
			t.Fatalf("t=%d: codeword bits %d", tc, code.CodewordBits())
		}
		want := append([]byte(nil), cw...)
		flipBits(cw, r.SampleK(code.CodewordBits(), tc))
		n, err := codec.Decode(tc, cw)
		if err != nil {
			t.Fatalf("t=%d decode: %v", tc, err)
		}
		if n != tc || !bytes.Equal(cw, want) {
			t.Fatalf("t=%d: page round trip failed (n=%d)", tc, n)
		}
		// Parity must fit a typical 224-byte spare area (paper §2).
		pb, _ := codec.ParityBytes(tc)
		if pb > 224 {
			t.Fatalf("t=%d: parity %d bytes exceeds spare area", tc, pb)
		}
	}
}
