package controller

import (
	"bytes"
	"testing"
)

// storedSpare raw-senses a page and undoes the sensed flips, returning
// the spare bytes the device stores.
func storedSpare(t *testing.T, c *Controller, block, page int) []byte {
	t.Helper()
	buf := make([]byte, len(c.readBuffer))
	nData, nSpare, err := c.dev.ReadInto(block, page, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.dev.LastSenseFlips() {
		buf[b/8] ^= 1 << uint(7-b%8)
	}
	return buf[nData : nData+nSpare]
}

// TestParityCopyBack: a read hands back the parity its decode left —
// EncodeInto's for the page at its level — into caller memory only, and
// a write programs a parity of the resolved level's length as it stands
// (no encode) while any other length encodes.
func TestParityCopyBack(t *testing.T) {
	c := newRig(t, false)
	c.SetCapability(16)
	data := randPage(43)
	if _, err := c.WritePage(0, 0, data); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 32)
	if err := c.codec.EncodeInto(16, want, data); err != nil {
		t.Fatal(err)
	}

	// dst and parity both larger than needed, with sentinels past what
	// the read may write; a read without parity writes only the page.
	const sentinel = 0xa5
	dst := bytes.Repeat([]byte{sentinel}, len(data)+64)
	parity := bytes.Repeat([]byte{sentinel}, len(want)+8)
	res, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), dst)
	if err != nil || res.ParityBy != len(want) {
		t.Fatalf("read: ParityBy %d, %v; want %d", res.ParityBy, err, len(want))
	}
	if !bytes.Equal(dst[:len(data)], data) || bytes.Count(dst[len(data):], []byte{sentinel}) != 64 {
		t.Fatal("a read without parity wrote past the page data in dst")
	}
	if _, err := c.ReadPageParityInto(0, 0, c.ReadRetry(), dst, parity); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parity[:len(want)], want) || bytes.Count(parity[len(want):], []byte{sentinel}) != 8 {
		t.Fatal("the read's parity is not EncodeInto's, or it wrote past ParityBy")
	}
	if bytes.Count(dst[len(data):], []byte{sentinel}) != 64 {
		t.Fatal("a read with parity wrote past the page data in dst")
	}
	// A short parity asks for none.
	short := bytes.Repeat([]byte{sentinel}, len(want)-1)
	if _, err := c.ReadPageParityInto(0, 0, c.ReadRetry(), dst, short); err != nil {
		t.Fatal(err)
	}
	if bytes.Count(short, []byte{sentinel}) != len(short) {
		t.Fatal("a read wrote into a parity shorter than ParityBy")
	}

	// A parity of the level's length is programmed as given: a bogus one
	// shows that no encode replaced it.
	bogus := append([]byte(nil), want...)
	bogus[3] ^= 0x10
	given := append([]byte(nil), bogus...)
	wr, err := c.WritePageParity(0, 1, data, given)
	if err != nil || wr.T != 16 || wr.ParityBy != len(want) || wr.Latency.Encode != c.codec.EncodeLatency(16) {
		t.Fatalf("copy-back write: %+v, %v", wr, err)
	}
	if !bytes.Equal(storedSpare(t, c, 0, 1), bogus) || !bytes.Equal(given, bogus) {
		t.Fatal("a parity of the level's length was not programmed as given, or the write modified it")
	}
	// Another length (a level change) encodes at the resolved level.
	c.SetCapability(8)
	if wr, err = c.WritePageParity(0, 2, data, want); err != nil || wr.T != 8 || wr.ParityBy != 16 {
		t.Fatalf("re-encoding write: %+v, %v", wr, err)
	}
	want8 := make([]byte, 16)
	if err := c.codec.EncodeInto(8, want8, data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(storedSpare(t, c, 0, 2), want8) {
		t.Fatal("a parity of another level's length was programmed instead of encoding")
	}
}
