package controller

import (
	"errors"
	"testing"
	"time"

	"xlnand/internal/ldpc"
	"xlnand/internal/nand"
)

// softRig builds a controller over the soft-decision LDPC codec with an
// explicit hard-retry budget.
func softRig(t testing.TB, maxRetries int, seed uint64) *Controller {
	t.Helper()
	cal := nand.DefaultCalibration()
	dev := nand.NewDevice(cal, 4, seed)
	codec, err := ldpc.NewPageCodec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxRetries = maxRetries
	c, err := New(dev, codec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// softCondition is the deep-bake corner the soft rung exists for: wear
// plus shelf time that pushes the raw error count past every hard
// reference shift but inside the soft-decision capability.
var softCondition = ladderCondition{"soft-bake", 2e7, 1e5}

// TestSoftRungRecovers is the end-to-end acceptance of the soft path: a
// page every hard ladder rung loses decodes through the soft-sense
// final rung, with the multi-sense latency accounted stage by stage.
func TestSoftRungRecovers(t *testing.T) {
	const pages = 6
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, steps+1, 31) // budget one past the hard ladder: soft unlocked
	want := prepareLadderPages(t, c, softCondition, pages)

	// Same climate, hard-only budget: the ladder alone must lose pages
	// (otherwise this test exercises nothing).
	hardOnly := softRig(t, steps, 31)
	prepareLadderPages(t, hardOnly, softCondition, pages)
	hardLost := 0
	for i := 0; i < pages; i++ {
		if _, err := hardOnly.ReadPageRetryInto(0, i, hardOnly.ReadRetry(), nil); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatal(err)
			}
			hardLost++
		}
	}
	if hardLost == 0 {
		t.Fatal("full hard ladder reads everything; the soft corner exercises nothing")
	}

	softSaved := 0
	for i := 0; i < pages; i++ {
		res, err := c.ReadPageRetryInto(0, i, c.ReadRetry(), nil)
		if err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatal(err)
			}
			continue
		}
		for j := range want[i] {
			if res.Data[j] != want[i][j] {
				t.Fatalf("page %d: soft recovery returned wrong data at byte %d", i, j)
			}
		}
		if !res.Soft {
			continue // a lucky hard rung got it; not a soft save
		}
		softSaved++
		senses := c.Device().Stress().SoftSenses
		if res.SoftSenses != senses {
			t.Fatalf("page %d: SoftSenses %d, want %d", i, res.SoftSenses, senses)
		}
		if res.Retries != steps+1 {
			t.Fatalf("page %d: %d retries, want %d (full hard walk + soft)", i, res.Retries, steps+1)
		}
		if len(res.Stages) != steps+2 {
			t.Fatalf("page %d: %d stages, want %d", i, len(res.Stages), steps+2)
		}
		last := res.Stages[len(res.Stages)-1]
		if !last.Soft || last.Senses != senses {
			t.Fatalf("page %d: final stage %+v not the soft rung", i, last)
		}
		// Latency: steps+1 hard senses pay one tR each, the soft stage
		// pays senses x tR; the soft stage's transfer is senses x the
		// hard stage transfer.
		wantTR := time.Duration(steps+1+senses) * nand.PageReadTime
		if res.Latency.TR != wantTR {
			t.Fatalf("page %d: total tR %v, want %v", i, res.Latency.TR, wantTR)
		}
		if last.Latency.Transfer != time.Duration(senses)*res.Stages[0].Latency.Transfer {
			t.Fatalf("page %d: soft transfer %v vs hard %v", i, last.Latency.Transfer, res.Stages[0].Latency.Transfer)
		}
		if last.Latency.Decode <= res.Stages[0].Latency.Decode {
			t.Fatalf("page %d: soft decode %v not above hard decode %v", i, last.Latency.Decode, res.Stages[0].Latency.Decode)
		}
	}
	if softSaved == 0 {
		t.Fatal("soft rung saved nothing in the deep-bake corner")
	}
	attempts, recovered := c.Manager().SoftStats()
	if attempts == 0 || recovered != softSaved {
		t.Fatalf("manager soft stats %d/%d, want recovered %d", recovered, attempts, softSaved)
	}
}

// TestSoftRungNeedsFullLadderBudget: a budget that does not clear the
// full hard ladder never pays multi-sense reads — the disturb-aware
// retry guard depends on this gate.
func TestSoftRungNeedsFullLadderBudget(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, steps+1, 77)
	const pages = 3
	prepareLadderPages(t, c, softCondition, pages)
	for i := 0; i < pages; i++ {
		res, err := c.ReadPageRetryInto(0, i, steps, nil) // one short of unlocking soft
		if res.SoftSenses != 0 || res.Soft {
			t.Fatalf("page %d: capped budget went soft: %+v", i, res)
		}
		_ = err // losing the page is expected here
	}
	// Zero soft budget: even a deep walk stays hard.
	c.softRetries = 0
	for i := 0; i < pages; i++ {
		res, _ := c.ReadPageRetryInto(0, i, 1<<20, nil)
		if res.SoftSenses != 0 {
			t.Fatalf("page %d: zero soft budget still sensed soft", i)
		}
	}
}

// TestSoftRungDeepRetryBudget: the FTL's deep-retry budget (effectively
// unbounded) walks the hard ladder and then the soft rung.
func TestSoftRungDeepRetryBudget(t *testing.T) {
	steps := nand.DefaultStressConfig().RetrySteps
	c := softRig(t, 0, 13) // controller default budget: single-shot
	const pages = 4
	prepareLadderPages(t, c, softCondition, pages)
	saved := 0
	for i := 0; i < pages; i++ {
		res, err := c.ReadPageRetryInto(0, i, 1<<20, nil)
		if err == nil && res.Soft {
			saved++
			if res.Retries != steps+1 {
				t.Fatalf("deep retry took %d attempts, want %d", res.Retries, steps+1)
			}
		}
	}
	if saved == 0 {
		t.Fatal("deep-retry budget never reached the soft rung")
	}
}

// TestLDPCControllerRoundTrip: the family works as the controller's
// primary codec on a healthy device — write, read, zero retries, level
// recovered from the stored spare geometry.
func TestLDPCControllerRoundTrip(t *testing.T) {
	c := softRig(t, 4, 5)
	data := retryPage(9, c.Device().Calibration().PageDataBytes)
	wr, err := c.WritePage(0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	if wr.T < 0 || wr.T > c.codec.MaxLevel() {
		t.Fatalf("write level %d outside the rate range", wr.T)
	}
	rd, err := c.ReadPageRetryInto(0, 0, c.ReadRetry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rd.T != wr.T {
		t.Fatalf("read recovered level %d, wrote %d", rd.T, wr.T)
	}
	if rd.Retries != 0 || rd.Soft {
		t.Fatalf("fresh LDPC read needed recovery: %+v", rd)
	}
	for i := range data {
		if rd.Data[i] != data[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
}
