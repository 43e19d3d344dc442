package bch_test

import (
	"testing"

	"xlnand/internal/bch"
	"xlnand/internal/codectest"
)

// TestCodecConformance runs the shared ecc.Codec conformance suite
// against the BCH family — the same suite the LDPC package runs, so
// the two families can never drift apart behind the interface.
func TestCodecConformance(t *testing.T) {
	codec, err := bch.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	codectest.Run(t, codec, codectest.Options{
		// Bounded-distance decoding: t+1 errors must never decode.
		StrictCapPlusOne: true,
		Levels:           []int{3, 16, 65},
	})
}
