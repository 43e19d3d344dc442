// Package hv models the high-voltage subsystem of the NAND die (paper
// §5.1): the Dickson charge pumps generating the program, inhibit and
// verify voltages, their hysteretic regulators, and the integration of
// supply power over the phase timeline of a program operation. It is the
// behavioural substitute for the paper's SPICE simulation of the STM 45 nm
// analog blocks (DESIGN.md §3): the observable consumed downstream is the
// average power per operation, reproduced with the same causal structure
// (more verify phases -> more verify-pump energy; higher VCG -> more
// program-pump energy).
package hv

import "fmt"

// DicksonPump is a behavioural model of an N-stage Dickson charge pump
// with a hysteretic shunt regulator (paper §5.1: "a conventional 12-stages
// Dickson modified charge pump ... The charge pump is then shut down when
// a target voltage is reached").
type DicksonPump struct {
	Name       string
	Stages     int     // number of pumping stages N
	VDD        float64 // supply voltage [V]
	ClockHz    float64 // pumping clock
	StageCapF  float64 // per-stage flying capacitance [F]
	Efficiency float64 // switching efficiency (0, 1]
}

// IdealOutput returns the unloaded output voltage (N+1)·VDD.
func (p DicksonPump) IdealOutput() float64 {
	return float64(p.Stages+1) * p.VDD
}

// OutputVoltage returns the loaded steady-state output voltage
// (N+1)·VDD − N·I/(f·C), the classic Dickson droop law.
func (p DicksonPump) OutputVoltage(loadAmps float64) float64 {
	return p.IdealOutput() - float64(p.Stages)*loadAmps/(p.ClockHz*p.StageCapF)
}

// MaxLoad returns the load current at which the pump can still reach the
// given target voltage.
func (p DicksonPump) MaxLoad(targetV float64) float64 {
	head := p.IdealOutput() - targetV
	if head <= 0 {
		return 0
	}
	return head * p.ClockHz * p.StageCapF / float64(p.Stages)
}

// CanRegulate reports whether the pump can hold targetV under loadAmps.
func (p DicksonPump) CanRegulate(targetV, loadAmps float64) bool {
	return p.OutputVoltage(loadAmps) >= targetV
}

// InputPower returns the supply power drawn while regulating targetV into
// loadAmps. Charge conservation in a Dickson ladder makes the input
// current (N+1)·I_out; the regulator's hysteretic duty cycle scales
// consumption with the fraction of capacity actually used, and switching
// losses divide by the efficiency.
func (p DicksonPump) InputPower(targetV, loadAmps float64) (float64, error) {
	if loadAmps < 0 {
		return 0, fmt.Errorf("hv: negative load %g A", loadAmps)
	}
	if loadAmps == 0 {
		return 0, nil
	}
	if !p.CanRegulate(targetV, loadAmps) {
		return 0, fmt.Errorf("hv: pump %q cannot hold %.1f V at %.2f mA (max load %.2f mA)",
			p.Name, targetV, loadAmps*1e3, p.MaxLoad(targetV)*1e3)
	}
	raw := float64(p.Stages+1) * loadAmps * p.VDD
	return raw / p.Efficiency, nil
}

// Paper §5.1 pump complement.

// ProgramPump returns the 12-stage pump supplying the 14-19 V ISPP ramp.
func ProgramPump() DicksonPump {
	return DicksonPump{
		Name: "program", Stages: 12, VDD: 1.8,
		ClockHz: 20e6, StageCapF: 500e-12, Efficiency: 0.80,
	}
}

// InhibitPump returns the 8-stage pump for the 8 V channel-boost bias of
// program-inhibited pages.
func InhibitPump() DicksonPump {
	return DicksonPump{
		Name: "inhibit", Stages: 8, VDD: 1.8,
		ClockHz: 20e6, StageCapF: 500e-12, Efficiency: 0.80,
	}
}

// VerifyPump returns the 4-stage high-speed pump for the 4.5 V read-pass
// bias applied to unselected wordlines during verify/read.
func VerifyPump() DicksonPump {
	return DicksonPump{
		Name: "verify", Stages: 4, VDD: 1.8,
		ClockHz: 40e6, StageCapF: 500e-12, Efficiency: 0.85,
	}
}
