package controller

import (
	"errors"
	"testing"
	"time"

	"xlnand/internal/nand"
)

// hopelessStress strips the soft read of its capture ability: no
// misread cell is ever flagged low-confidence, so min-sum faces
// confidently-wrong bits and every soft attempt fails. That forces the
// full escalation sequence onto the stage record.
func hopelessStress(c *Controller) {
	stress := c.Device().Stress()
	stress.SoftCapture = 0
	stress.SoftFalseWeak = 0
	c.Device().SetStress(stress)
}

// softStages filters a result's stage breakdown to the soft rungs.
func softStages(res ReadResult) []ReadStage {
	var out []ReadStage
	for _, st := range res.Stages {
		if st.Soft {
			out = append(out, st)
		}
	}
	return out
}

// TestSoftEscalationWidens pins the adaptive escalation mechanics on a
// page no read can save: every soft attempt fails, so the full
// escalation sequence is recorded — senses widen 3→5→7 (base + one
// bracket pair per failure), each stage paying its own sensing time.
func TestSoftEscalationWidens(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, steps+3, 103) // budget leaves room for 3 soft attempts
	c.softRetries = 3
	hopelessStress(c)
	prepareLadderPages(t, c, softCondition, 1)

	res, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("hopeless page decoded (err=%v); the escalation corner exercises nothing", err)
	}
	soft := softStages(res)
	if len(soft) != 3 {
		t.Fatalf("%d soft stages, want 3: %+v", len(soft), res.Stages)
	}
	base := c.Device().Stress().SoftSenses
	wantSenses := []int{base, base + 2, base + 4} // 3, 5, 7 with defaults
	total := 0
	for i, st := range soft {
		if st.Senses != wantSenses[i] {
			t.Fatalf("soft attempt %d sensed %d times, want %d", i, st.Senses, wantSenses[i])
		}
		if st.Latency.TR != time.Duration(st.Senses)*nand.PageReadTime {
			t.Fatalf("soft attempt %d charged %v of tR for %d senses", i, st.Latency.TR, st.Senses)
		}
		total += st.Senses
	}
	if res.SoftSenses != total {
		t.Fatalf("result accumulated %d senses, stages sum to %d", res.SoftSenses, total)
	}
	if res.Retries != steps+3 {
		t.Fatalf("retries %d, want %d (hard ladder + 3 soft)", res.Retries, steps+3)
	}
}

// TestSoftEscalationCapped pins the device-side cap: with SoftSensesMax
// lowered to 5, the third attempt stays at 5 senses instead of 7.
func TestSoftEscalationCapped(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, steps+3, 104)
	c.softRetries = 3
	hopelessStress(c)
	stress := c.Device().Stress()
	stress.SoftSensesMax = 5
	c.Device().SetStress(stress)
	prepareLadderPages(t, c, softCondition, 1)

	res, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("hopeless page decoded: %v", err)
	}
	soft := softStages(res)
	if len(soft) != 3 {
		t.Fatalf("%d soft stages, want 3", len(soft))
	}
	for i, want := range []int{3, 5, 5} {
		if soft[i].Senses != want {
			t.Fatalf("soft attempt %d sensed %d times, want %d (cap 5)", i, soft[i].Senses, want)
		}
	}
}

// TestSoftEscalationNoCapStaysFlat pins the opt-out: SoftSensesMax=0
// disables escalation entirely, so every attempt re-reads at the base
// width — the pre-escalation behaviour by configuration.
func TestSoftEscalationNoCapStaysFlat(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, steps+3, 105)
	c.softRetries = 3
	hopelessStress(c)
	stress := c.Device().Stress()
	stress.SoftSensesMax = stress.SoftSenses
	c.Device().SetStress(stress)
	prepareLadderPages(t, c, softCondition, 1)

	res, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("hopeless page decoded: %v", err)
	}
	for i, st := range softStages(res) {
		if st.Senses != 3 {
			t.Fatalf("soft attempt %d sensed %d times, want flat 3", i, st.Senses)
		}
	}
}

// TestSoftEscalationRecovers is the payoff test: in a corner where the
// base-width soft read loses pages, the escalating budget brings some
// back — and the save happens on a widened attempt.
func TestSoftEscalationRecovers(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	const pages = 12
	cond := softCondition
	// A mediocre capture rate leaves min-sum facing a fistful of
	// confidently-wrong bits per read; escalation compounds the capture
	// per bracket pair (0.5 → 0.75 → 0.875), which is the margin the
	// widened attempts win back.
	weakCapture := func(c *Controller) {
		stress := c.Device().Stress()
		stress.SoftCapture = 0.5
		c.Device().SetStress(stress)
	}

	// Baseline: single base-width soft attempt.
	narrow := softRig(t, steps+1, 61)
	weakCapture(narrow)
	prepareLadderPages(t, narrow, cond, pages)
	narrowLost := 0
	for i := 0; i < pages; i++ {
		if _, err := narrow.ReadPageRetryInto(0, i, narrow.ReadRetry(), nil); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatal(err)
			}
			narrowLost++
		}
	}
	if narrowLost == 0 {
		t.Skip("base-width soft read saved everything; corner too mild to exercise escalation")
	}

	wide := softRig(t, steps+3, 61)
	wide.softRetries = 3
	weakCapture(wide)
	prepareLadderPages(t, wide, cond, pages)
	escalatedSaves := 0
	for i := 0; i < pages; i++ {
		res, err := wide.ReadPageRetryInto(0, i, wide.ReadRetry(), nil)
		if err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatal(err)
			}
			continue
		}
		if !res.Soft {
			continue
		}
		soft := softStages(res)
		if len(soft) > 1 {
			last := soft[len(soft)-1]
			if last.Senses <= soft[0].Senses {
				t.Fatalf("page %d: escalation did not widen: %+v", i, soft)
			}
			escalatedSaves++
		}
	}
	if escalatedSaves == 0 {
		t.Fatal("escalating soft budget never saved a page on a widened attempt")
	}
}
