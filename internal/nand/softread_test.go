package nand

import (
	"testing"
	"time"
)

func softRig(t *testing.T) *Device {
	t.Helper()
	return NewDevice(DefaultCalibration(), 2, 99)
}

func softPage(d *Device) ([]byte, []byte) {
	data := make([]byte, d.Calibration().PageDataBytes)
	spare := make([]byte, 64)
	for i := range data {
		data[i] = byte(i * 7)
	}
	for i := range spare {
		spare[i] = byte(i * 13)
	}
	return data, spare
}

// TestReadSoftShape pins the contract: codeword layout identical to
// ReadInto, one LLR per codeword bit with signs matching the hard
// decisions, magnitudes quantised to the two confidence levels, and the
// configured number of component senses reported.
func TestReadSoftShape(t *testing.T) {
	d := softRig(t)
	data, spare := softPage(d)
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data)+len(spare))
	llr := make([]int8, (len(data)+len(spare))*8)
	nData, nSpare, senses, err := d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf, llr)
	if err != nil {
		t.Fatal(err)
	}
	if nData != len(data) || nSpare != len(spare) {
		t.Fatalf("lengths %d/%d, want %d/%d", nData, nSpare, len(data), len(spare))
	}
	if senses != d.Stress().SoftSenses {
		t.Fatalf("senses %d, want %d", senses, d.Stress().SoftSenses)
	}
	for i := 0; i < (nData+nSpare)*8; i++ {
		bit := buf[i/8]&(1<<uint(7-i%8)) != 0
		v := llr[i]
		if v != SoftStrongLLR && v != SoftWeakLLR && v != -SoftStrongLLR && v != -SoftWeakLLR {
			t.Fatalf("bit %d: unquantised LLR %d", i, v)
		}
		if bit != (v < 0) {
			t.Fatalf("bit %d: LLR sign %d disagrees with hard decision %v", i, v, bit)
		}
	}
}

// TestReadSoftChargesStress: every component sense counts against the
// block's read-disturb budget and the modelled op time is senses x tR.
func TestReadSoftChargesStress(t *testing.T) {
	d := softRig(t)
	data, spare := softPage(d)
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data)+len(spare))
	llr := make([]int8, (len(data)+len(spare))*8)
	before, _ := d.BlockReads(0)
	_, _, senses, err := d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf, llr)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := d.BlockReads(0)
	if after-before != float64(senses) {
		t.Fatalf("soft read charged %g disturb senses, want %d", after-before, senses)
	}
	if want := time.Duration(senses) * PageReadTime; d.LastOpDuration() != want {
		t.Fatalf("soft read took %v, want %v", d.LastOpDuration(), want)
	}
}

// TestReadSoftFlagsErrors: on an aged, retention-baked block the weak
// set must capture the large majority of the actually-wrong bits —
// that coverage is the entire value of the soft path.
func TestReadSoftFlagsErrors(t *testing.T) {
	d := softRig(t)
	data, spare := softPage(d)
	if err := d.SetCycles(0, 1e6); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	d.AdvanceTime(5e3)
	buf := make([]byte, len(data)+len(spare))
	llr := make([]int8, (len(data)+len(spare))*8)
	nData, nSpare, _, err := d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf, llr)
	if err != nil {
		t.Fatal(err)
	}
	ref := append(append([]byte(nil), data...), spare...)
	wrong, wrongWeak := 0, 0
	for i := 0; i < (nData+nSpare)*8; i++ {
		got := buf[i/8]&(1<<uint(7-i%8)) != 0
		want := ref[i/8]&(1<<uint(7-i%8)) != 0
		if got != want {
			wrong++
			if llr[i] == SoftWeakLLR || llr[i] == -SoftWeakLLR {
				wrongWeak++
			}
		}
	}
	if wrong < 20 {
		t.Fatalf("baked EOL page has only %d raw errors; stress model broken", wrong)
	}
	if frac := float64(wrongWeak) / float64(wrong); frac < 0.8 {
		t.Fatalf("weak set captures only %.0f%% of the %d errors", frac*100, wrong)
	}
}

// TestReadSoftValidation covers the error paths.
func TestReadSoftValidation(t *testing.T) {
	d := softRig(t)
	data, spare := softPage(d)
	if _, err := d.Program(0, 0, data, spare, ISPPSV); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(data)+len(spare))
	llr := make([]int8, (len(data)+len(spare))*8)
	if _, _, _, err := d.ReadSoftN(0, 1, 0, d.stress.SoftSenses, buf, llr); err == nil {
		t.Fatal("soft read of unwritten page accepted")
	}
	if _, _, _, err := d.ReadSoftN(0, 0, -1, d.stress.SoftSenses, buf, llr); err == nil {
		t.Fatal("negative ladder step accepted")
	}
	if _, _, _, err := d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf[:10], llr); err == nil {
		t.Fatal("short codeword buffer accepted")
	}
	if _, _, _, err := d.ReadSoftN(0, 0, 0, d.stress.SoftSenses, buf, llr[:10]); err == nil {
		t.Fatal("short LLR buffer accepted")
	}
}
