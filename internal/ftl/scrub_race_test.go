package ftl

import (
	"errors"
	"sync"
	"testing"

	"xlnand/internal/controller"
	"xlnand/internal/sim"
)

// TestScrubRacesLiveTraffic runs the background scrubber concurrently
// with live read/write/health-check traffic on the SAME partition —
// under `go test -race` this closes the scrub-vs-I/O coverage gap: the
// per-partition lock must serialise scrub relocation against host
// writes, GC rounds and the scrub-mark bookkeeping without deadlocking
// or corrupting the mapping.
func TestScrubRacesLiveTraffic(t *testing.T) {
	f := openFTL(t, 2, 8, 777, PartitionSpec{Name: "hot", Blocks: 8, Mode: sim.ModeNominal})
	d := f.Dispatcher()
	// Pre-age the array so reads correct a few bits and the low alarm
	// threshold below keeps the scrubber busy rather than idle.
	for die := 0; die < 2; die++ {
		for blk := 0; blk < 8; blk++ {
			if err := d.SetCycles(die, blk, 2e5); err != nil {
				t.Fatal(err)
			}
		}
	}
	const workingSet = 64
	data := pagePattern(9, 4096)
	for lpa := 0; lpa < workingSet; lpa++ {
		if _, err := f.Write("hot", lpa, data); err != nil {
			t.Fatal(err)
		}
	}

	const (
		trafficOps  = 300
		scrubPasses = 60
	)
	pol := ScrubPolicy{FractionOfT: 0.05} // mark aggressively: maximal contention
	var wg sync.WaitGroup
	fail := make(chan error, 4)

	// Writer/reader goroutine: host traffic on the partition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < trafficOps; i++ {
			lpa := i % workingSet
			if i%3 == 0 {
				if _, err := f.Write("hot", lpa, data); err != nil {
					fail <- err
					return
				}
				continue
			}
			_, res, err := f.ReadInto("hot", lpa, nil)
			if err != nil {
				if errors.Is(err, controller.ErrUncorrectable) {
					continue // aged medium; loss is not what this test checks
				}
				fail <- err
				return
			}
			if _, err := f.CheckReadHealth("hot", lpa, res, pol); err != nil {
				fail <- err
				return
			}
		}
	}()

	// Scrubber goroutine: concurrent refresh passes on the same partition.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < scrubPasses; i++ {
			if _, err := f.Scrub("hot"); err != nil {
				fail <- err
				return
			}
		}
	}()

	// Observer goroutine: statistics surfaces must also be race-clean.
	wg.Add(1)
	go func() {
		defer wg.Done()
		p, err := f.Partition("hot")
		if err != nil {
			fail <- err
			return
		}
		for i := 0; i < trafficOps; i++ {
			p.PendingScrubs()
			p.WriteAmplification()
			p.Retired()
			if _, _, err := f.WearSpread("hot"); err != nil {
				fail <- err
				return
			}
			if _, err := f.ScrubMarks("hot"); err != nil {
				fail <- err
				return
			}
		}
	}()

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// Quiesced: the mapping must still be fully consistent — every live
	// logical page readable through its (possibly relocated) mapping.
	lost := 0
	for lpa := 0; lpa < workingSet; lpa++ {
		if _, _, err := f.ReadInto("hot", lpa, nil); err != nil {
			if errors.Is(err, controller.ErrUncorrectable) {
				lost++
				continue
			}
			t.Fatalf("lpa %d unreadable after concurrent scrub: %v", lpa, err)
		}
	}
	if lost == workingSet {
		t.Fatalf("every page lost; partition state corrupted")
	}
}
