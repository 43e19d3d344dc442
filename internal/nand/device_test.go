package nand

import (
	"bytes"
	"math"
	"testing"

	"xlnand/internal/stats"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	cal := DefaultCalibration()
	return NewDevice(cal, 4, 77)
}

// readAt senses a page at ladder step into a fresh calibration-sized
// buffer and returns its data and spare parts.
func readAt(d *Device, blockIdx, pageIdx, step int) (data, spare []byte, err error) {
	buf := make([]byte, d.cal.PageDataBytes+d.cal.PageSpareBytes)
	nData, nSpare, err := d.ReadInto(blockIdx, pageIdx, step, buf)
	if err != nil {
		return nil, nil, err
	}
	return buf[:nData], buf[nData : nData+nSpare], nil
}

func TestDeviceGeometry(t *testing.T) {
	d := testDevice(t)
	if d.Blocks() != 4 || d.PagesPerBlock() != 64 {
		t.Fatalf("geometry %d blocks x %d pages", d.Blocks(), d.PagesPerBlock())
	}
}

func TestDeviceProgramReadRoundTrip(t *testing.T) {
	d := testDevice(t)
	r := stats.NewRNG(1)
	data := make([]byte, 4096)
	spare := make([]byte, 64)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	for i := range spare {
		spare[i] = byte(r.Intn(256))
	}
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	gotData, gotSpare, err := readAt(d, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh device RBER 1e-6: with ~33 kbit expect ~0.03 flips, i.e.
	// almost always byte-identical; tolerate a couple of flipped bits.
	if diff := bitDiff(gotData, data) + bitDiff(gotSpare, spare); diff > 3 {
		t.Fatalf("%d bit flips on fresh device read", diff)
	}
}

func bitDiff(a, b []byte) int {
	n := 0
	for i := range a {
		x := a[i] ^ b[i]
		for ; x != 0; x &= x - 1 {
			n++
		}
	}
	return n
}

func TestDeviceRejectsDoubleProgram(t *testing.T) {
	d := testDevice(t)
	data := make([]byte, 16)
	if _, err := d.Program(0, 3, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 3, data, nil, ISPPSV); err == nil {
		t.Fatal("double program without erase accepted")
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 3, data, nil, ISPPSV); err != nil {
		t.Fatalf("program after erase rejected: %v", err)
	}
}

func TestDeviceEraseIncrementsWear(t *testing.T) {
	d := testDevice(t)
	c0, _ := d.Cycles(1)
	if err := d.Erase(1); err != nil {
		t.Fatal(err)
	}
	c1, _ := d.Cycles(1)
	if c1 != c0+1 {
		t.Fatalf("erase wear %v -> %v", c0, c1)
	}
}

func TestDeviceBoundsChecking(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Cycles(-1); err == nil {
		t.Fatal("negative block accepted")
	}
	if _, err := d.Cycles(4); err == nil {
		t.Fatal("out-of-range block accepted")
	}
	if err := d.Erase(99); err == nil {
		t.Fatal("erase of bad block accepted")
	}
	if _, err := d.Program(0, 64, nil, nil, ISPPSV); err == nil {
		t.Fatal("out-of-range page accepted")
	}
	if _, _, err := readAt(d, 0, 0, 0); err == nil {
		t.Fatal("read of unwritten page accepted")
	}
	for _, c := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := d.SetCycles(0, c); err == nil {
			t.Fatalf("cycle count %g accepted", c)
		}
	}
	if _, err := d.Program(0, 0, make([]byte, 5000), nil, ISPPSV); err == nil {
		t.Fatal("oversized data accepted")
	}
	if _, err := d.Program(0, 0, nil, make([]byte, 500), ISPPSV); err == nil {
		t.Fatal("oversized spare accepted")
	}
}

func TestDeviceAgedReadsAreNoisier(t *testing.T) {
	cal := DefaultCalibration()
	d := NewDevice(cal, 2, 5)
	data := make([]byte, 4096)
	if err := d.SetCycles(1, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 0, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(1, 0, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	freshFlips, agedFlips := 0, 0
	for i := 0; i < 20; i++ {
		fd, _, err := readAt(d, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		ad, _, err := readAt(d, 1, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		freshFlips += bitDiff(fd, data)
		agedFlips += bitDiff(ad, data)
	}
	// Aged block at RBER 1e-3: ~33 errors/page/read; fresh ~0.03.
	if agedFlips <= freshFlips {
		t.Fatalf("aged reads (%d flips) not noisier than fresh (%d)", agedFlips, freshFlips)
	}
	if agedFlips < 200 {
		t.Fatalf("aged flips %d implausibly low for RBER 1e-3", agedFlips)
	}
}

func TestDeviceDVReadsCleanerThanSV(t *testing.T) {
	cal := DefaultCalibration()
	d := NewDevice(cal, 2, 6)
	data := make([]byte, 4096)
	for b := 0; b < 2; b++ {
		if err := d.SetCycles(b, 1e6); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Program(0, 0, data, nil, ISPPSV); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(1, 0, data, nil, ISPPDV); err != nil {
		t.Fatal(err)
	}
	sv, dv := 0, 0
	for i := 0; i < 30; i++ {
		a, _, _ := readAt(d, 0, 0, 0)
		b, _, _ := readAt(d, 1, 0, 0)
		sv += bitDiff(a, data)
		dv += bitDiff(b, data)
	}
	if dv*5 > sv {
		t.Fatalf("DV flips %d not ≈ one order below SV flips %d", dv, sv)
	}
}

func TestDeviceOperationDurations(t *testing.T) {
	d := testDevice(t)
	data := make([]byte, 4096)
	if _, err := d.Program(0, 0, data, nil, ISPPDV); err != nil {
		t.Fatal(err)
	}
	prog := d.LastOpDuration()
	if _, _, err := readAt(d, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	read := d.LastOpDuration()
	if read != PageReadTime {
		t.Fatalf("read duration %v, want tR=%v", read, PageReadTime)
	}
	if prog <= read {
		t.Fatalf("program %v not slower than read %v", prog, read)
	}
}

func TestCorruptStatistics(t *testing.T) {
	d := &Device{rng: stats.NewRNG(7)}
	src := make([]byte, 4096)
	const rber = 1e-3
	total := 0
	const reps = 50
	for i := 0; i < reps; i++ {
		dst := make([]byte, len(src))
		d.corruptInto(dst, src, rber, 0)
		total += bitDiff(dst, src)
	}
	mean := float64(total) / reps
	want := 4096 * 8 * rber // ≈ 32.8
	if mean < want*0.7 || mean > want*1.3 {
		t.Fatalf("corrupt injects %.1f errors/page, want ≈ %.1f", mean, want)
	}
}

func TestCorruptEmpty(t *testing.T) {
	d := &Device{rng: stats.NewRNG(8)}
	d.corruptInto(nil, nil, 0.5, 0) // must not panic or draw from the RNG
}

// TestRecycledStoreReadsNewLengths re-programs a page whose stores were
// recycled from a longer page (full data and spare) with shorter data and
// spare: hard and soft reads return exactly the new lengths, and the
// bytes they return are the new content, never the old tail.
func TestRecycledStoreReadsNewLengths(t *testing.T) {
	d := testDevice(t)
	cal := d.cal
	old := make([]byte, cal.PageDataBytes+cal.PageSpareBytes)
	for i := range old {
		old[i] = 0xFF
	}
	if _, err := d.Program(0, 0, old[:cal.PageDataBytes], old[cal.PageDataBytes:], ISPPSV); err != nil {
		t.Fatal(err)
	}
	if err := d.Erase(0); err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	data, spare := make([]byte, 1000), make([]byte, 10)
	for _, b := range [][]byte{data, spare} {
		for i := range b {
			b[i] = byte(r.Intn(128)) // never 0xFF
		}
	}
	if _, err := d.Program(0, 0, data, spare, ISPPDV); err != nil {
		t.Fatal(err)
	}
	if p := &d.blocks[0].pages[0]; cap(p.data) < cal.PageDataBytes || cap(p.spare) < cal.PageSpareBytes {
		t.Fatalf("page stores not recycled: cap %d/%d", cap(p.data), cap(p.spare))
	}
	want := append(append([]byte(nil), data...), spare...)

	const sentinel = 0x5A
	buf := make([]byte, len(old))
	for i := range buf {
		buf[i] = sentinel
	}
	nData, nSpare, err := d.ReadInto(0, 0, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if nData != len(data) || nSpare != len(spare) {
		t.Fatalf("hard read lengths %d+%d, want %d+%d", nData, nSpare, len(data), len(spare))
	}
	if _, flips := d.LastSense(); bitDiff(buf[:len(want)], want) != flips {
		t.Fatalf("hard read differs from the new content by more than its %d injected flips", flips)
	}
	for i, b := range buf[len(want):] {
		if b != sentinel {
			t.Fatalf("hard read wrote byte %d past the new codeword", len(want)+i)
		}
	}

	llr := make([]int8, 8*len(old))
	nData, nSpare, _, err = d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf, llr)
	if err != nil {
		t.Fatal(err)
	}
	if nData != len(data) || nSpare != len(spare) {
		t.Fatalf("soft read lengths %d+%d, want %d+%d", nData, nSpare, len(data), len(spare))
	}
	// Each old byte differs from its new one in at least one bit.
	if diff := bitDiff(buf[:len(want)], want); diff > 3 {
		t.Fatalf("soft read differs from the new content in %d bits", diff)
	}
}

// TestLastSenseFlipsLocateTheErrors pins the flip report the
// controller's sensed-syndrome decode relies on: after every hard
// sense, inverting exactly the reported positions (data bits first,
// spare bits offset by 8·nData) restores the stored data ++ spare, the
// positions are distinct and in range, and LastSense counts them.
func TestLastSenseFlipsLocateTheErrors(t *testing.T) {
	d := testDevice(t)
	cal := d.cal
	if err := d.SetCycles(0, 1e5); err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	data := make([]byte, cal.PageDataBytes)
	spare := make([]byte, cal.PageSpareBytes)
	for i := range data {
		data[i] = byte(r.Intn(256))
	}
	for i := range spare {
		spare[i] = byte(r.Intn(256))
	}
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	d.AdvanceTime(5000)
	want := append(append([]byte(nil), data...), spare...)
	buf := make([]byte, len(want))
	total, inSpare := 0, 0
	for read := 0; read < 20; read++ {
		nData, nSpare, err := d.ReadInto(0, 0, 0, buf)
		if err != nil {
			t.Fatal(err)
		}
		flips := d.LastSenseFlips()
		if _, n := d.LastSense(); n != len(flips) {
			t.Fatalf("read %d: LastSense counts %d flips, LastSenseFlips lists %d", read, n, len(flips))
		}
		seen := map[int]bool{}
		for _, p := range flips {
			if p < 0 || p >= 8*(nData+nSpare) || seen[p] {
				t.Fatalf("read %d: flip position %d repeated or outside the %d-bit codeword", read, p, 8*(nData+nSpare))
			}
			seen[p] = true
			if p >= 8*nData {
				inSpare++
			}
			buf[p/8] ^= 1 << uint(7-p%8)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("read %d: inverting the %d reported flips does not restore the stored page", read, len(flips))
		}
		total += len(flips)
	}
	if total == 0 || inSpare == 0 {
		t.Fatalf("aged page sensed %d flips (%d in the spare); the check saw no spare errors", total, inSpare)
	}
}
