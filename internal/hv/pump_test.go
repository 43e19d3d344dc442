package hv

import (
	"math"
	"testing"
)

func TestIdealOutputs(t *testing.T) {
	// (N+1)·VDD: the paper's stage counts must reach their targets with
	// regulation headroom.
	cases := []struct {
		pump   DicksonPump
		target float64
	}{
		{ProgramPump(), 19.0},
		{InhibitPump(), 8.0},
		{VerifyPump(), 4.5},
	}
	for _, c := range cases {
		if got := c.pump.IdealOutput(); got <= c.target {
			t.Errorf("%s pump ideal output %.1f V cannot reach %.1f V",
				c.pump.Name, got, c.target)
		}
	}
}

func TestOutputVoltageDroopsWithLoad(t *testing.T) {
	p := ProgramPump()
	v0 := p.OutputVoltage(0)
	v1 := p.OutputVoltage(1e-3)
	v2 := p.OutputVoltage(2e-3)
	if !(v0 > v1 && v1 > v2) {
		t.Fatalf("droop law violated: %v %v %v", v0, v1, v2)
	}
	if v0 != p.IdealOutput() {
		t.Fatalf("unloaded output %v != ideal %v", v0, v0)
	}
}

func TestMaxLoadConsistentWithDroop(t *testing.T) {
	p := ProgramPump()
	target := 19.0
	max := p.MaxLoad(target)
	if max <= 0 {
		t.Fatal("program pump has no headroom at 19 V")
	}
	// At exactly the max load, the output equals the target.
	if got := p.OutputVoltage(max); math.Abs(got-target) > 1e-9 {
		t.Fatalf("OutputVoltage(MaxLoad) = %v, want %v", got, target)
	}
	if p.MaxLoad(p.IdealOutput()+1) != 0 {
		t.Fatal("MaxLoad above ideal output should be 0")
	}
}

func TestInputPowerBehaviour(t *testing.T) {
	p := VerifyPump()
	if got, err := p.InputPower(4.5, 0); err != nil || got != 0 {
		t.Fatalf("zero load power = %v, %v", got, err)
	}
	if _, err := p.InputPower(4.5, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	p1, err := p.InputPower(4.5, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := p.InputPower(4.5, 2e-3)
	if err != nil {
		t.Fatal(err)
	}
	if p2 <= p1 {
		t.Fatal("input power not increasing in load")
	}
	// Charge conservation: P_in >= (N+1)·I·VDD.
	if p1 < float64(p.Stages+1)*1e-3*p.VDD {
		t.Fatal("input power below the lossless Dickson bound")
	}
}

func TestInputPowerRejectsOverload(t *testing.T) {
	p := ProgramPump()
	over := p.MaxLoad(19.0) * 1.5
	if _, err := p.InputPower(19.0, over); err == nil {
		t.Fatal("overload regulation accepted")
	}
}

func TestHigherStageCountCostsMorePower(t *testing.T) {
	// Same load, same VDD: a taller ladder draws more input current.
	prog, ver := ProgramPump(), VerifyPump()
	pp, err := prog.InputPower(10, 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := ver.InputPower(4.5, 0.5e-3)
	if err != nil {
		t.Fatal(err)
	}
	if pp <= vp {
		t.Fatalf("12-stage pump (%v W) not costlier than 4-stage (%v W)", pp, vp)
	}
}
