package experiments

import "testing"

func TestExtLifetime(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end scenario run skipped in -short mode")
	}
	f, err := ExtLifetime(2024)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != "ext-lifetime" || len(f.Series) != 2 {
		t.Fatalf("unexpected figure shape: %+v", f)
	}
	for _, s := range f.Series {
		if len(s.X) == 0 {
			t.Fatalf("series %q empty", s.Name)
		}
	}
	// The trajectory must show the error climate degrading with wear.
	density := f.Series[0]
	if density.Y[len(density.Y)-1] <= density.Y[0] {
		t.Fatalf("corrected density did not climb across the biography: %v", density.Y)
	}
}
