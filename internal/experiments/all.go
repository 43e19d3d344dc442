package experiments

import (
	"fmt"

	"xlnand/internal/sim"
)

// Runner produces one figure.
type Runner struct {
	ID          string
	Description string
	Run         func(env sim.Env, seed uint64) (Figure, error)
}

// All returns every experiment in paper order, followed by the ablations.
func All() []Runner {
	return []Runner{
		{"fig04", "compact-model fit: VTH vs VCG during ISPP",
			func(e sim.Env, s uint64) (Figure, error) { return Fig04(e, s), nil }},
		{"fig05", "RBER vs P/E cycles, ISPP-SV vs ISPP-DV",
			func(e sim.Env, s uint64) (Figure, error) { return Fig05(e), nil }},
		{"fig06", "program power vs P/E cycles, SV/DV x L1/L2/L3",
			func(e sim.Env, s uint64) (Figure, error) { return Fig06(e) }},
		{"fig07", "UBER vs RBER, ISPP-SV range (t = 3..65)",
			func(e sim.Env, s uint64) (Figure, error) { return Fig07(e), nil }},
		{"fig07dv", "UBER vs RBER, ISPP-DV range (t = 3..14)",
			func(e sim.Env, s uint64) (Figure, error) { return Fig07DV(e), nil }},
		{"fig08", "ECC encode/decode latency vs lifetime at 80 MHz",
			func(e sim.Env, s uint64) (Figure, error) { return Fig08(e), nil }},
		{"fig09", "write throughput loss of the cross-layer mode",
			func(e sim.Env, s uint64) (Figure, error) { return Fig09(e) }},
		{"fig10", "UBER improvement at constant ECC",
			func(e sim.Env, s uint64) (Figure, error) { return Fig10(e) }},
		{"fig11", "read throughput gain at constant UBER",
			func(e sim.Env, s uint64) (Figure, error) { return Fig11(e) }},
		{"abl-blocksize", "ablation: ECC block size vs parity overhead",
			func(e sim.Env, s uint64) (Figure, error) { return AblationBlockSize(e) }},
		{"abl-ispp", "ablation: delta-ISPP shrink vs double verify",
			func(e sim.Env, s uint64) (Figure, error) { return AblationISPP(e, s) }},
		{"abl-parallelism", "ablation: decoder parallelism area/latency",
			func(e sim.Env, s uint64) (Figure, error) { return AblationParallelism(e), nil }},
		{"abl-approx", "ablation: Eq. 1 vs full uncorrectable tail",
			func(e sim.Env, s uint64) (Figure, error) { return AblationApproximation(e), nil }},
		{"abl-eccfam", "ablation: Hamming vs RS vs BCH on the 4 KB page",
			func(e sim.Env, s uint64) (Figure, error) { return AblationECCFamilies(e), nil }},
		{"abl-loadstrategy", "ablation: two-round data load mitigation of write loss",
			func(e sim.Env, s uint64) (Figure, error) { return AblationLoadStrategy(e), nil }},
		{"ext-retention", "extension: retention bake vs RBER and required t",
			func(e sim.Env, s uint64) (Figure, error) { return ExtRetention(e), nil }},
		{"ext-disturb", "extension: read disturb vs RBER and required t",
			func(e sim.Env, s uint64) (Figure, error) { return ExtReadDisturb(e), nil }},
		{"ext-multidie", "extension: multi-die scaling of the cross-layer gain",
			func(e sim.Env, s uint64) (Figure, error) { return ExtMultiDie(e) }},
		{"ext-validate", "extension: trace replay vs analytic model",
			func(e sim.Env, s uint64) (Figure, error) { return ExtWorkloadValidation(e, s) }},
		{"ext-lifetime", "extension: measured lifetime trajectory of the scenario engine",
			func(e sim.Env, s uint64) (Figure, error) { return ExtLifetime(s) }},
		{"ext-readretry", "extension: recovered UBER vs read-retry ladder depth across lifetime",
			func(e sim.Env, s uint64) (Figure, error) { return ExtReadRetry(e), nil }},
		{"ext-ldpc", "extension: codec families at the recovery endgame (BCH ladder vs LDPC hard vs LDPC soft)",
			func(e sim.Env, s uint64) (Figure, error) { return ExtLDPCFamilies(e) }},
	}
}

// ByID returns the runner with the given figure ID.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown figure %q", id)
}
