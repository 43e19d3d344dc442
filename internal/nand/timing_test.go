package nand

import (
	"math"
	"testing"
	"time"
)

func TestTransferLinear(t *testing.T) {
	b := DefaultFlashBus()
	t1 := b.Transfer(1000)
	t2 := b.Transfer(2000)
	if math.Abs(float64(t2)-2*float64(t1)) > float64(t1)/100 {
		t.Fatalf("transfer not linear: %v vs %v", t1, t2)
	}
	if b.Transfer(0) != 0 {
		t.Fatal("zero-byte transfer should take no time")
	}
}

func TestTransferPageScale(t *testing.T) {
	// 4 KB page + 130 B parity at 33 MB/s ≈ 128 µs.
	b := DefaultFlashBus()
	got := b.Transfer(4096 + 130)
	if got < 120*time.Microsecond || got > 135*time.Microsecond {
		t.Fatalf("page transfer = %v, want ≈ 128 µs", got)
	}
}

func TestTransferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	DefaultFlashBus().Transfer(-1)
}

func TestTransferPanicsUninitialised(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bus did not panic")
		}
	}()
	(FlashBus{}).Transfer(10)
}

func TestBandwidth(t *testing.T) {
	const n = 1 << 20
	if got := Throughput(n, DefaultFlashBus().Transfer(n)); math.Abs(got-33) > 0.5 {
		t.Fatalf("bandwidth = %v MB/s, want 33", got)
	}
}

func TestThroughput(t *testing.T) {
	// 4096 bytes in 100 µs = 40.96 MB/s.
	got := Throughput(4096, 100*time.Microsecond)
	if math.Abs(got-40.96) > 0.01 {
		t.Fatalf("throughput = %v, want 40.96", got)
	}
	if Throughput(4096, 0) != 0 {
		t.Fatal("zero-time throughput should be 0")
	}
}
