package sketch

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Error("precision 3 accepted")
	}
	if _, err := New(17); err == nil {
		t.Error("precision 17 accepted")
	}
	h, err := New(DefaultPrecision)
	if err != nil {
		t.Fatal(err)
	}
	// A new counter is sparse and empty; filling it promotes it to the
	// 4 KB register array.
	if h.SizeBytes() != 0 || h.Precision() != DefaultPrecision {
		t.Errorf("size %d, precision %d", h.SizeBytes(), h.Precision())
	}
	for i := 0; i < 10000; i++ {
		h.AddKey([]uint32{uint32(i)})
	}
	if h.SizeBytes() != 4096 {
		t.Errorf("filled counter size %d, want 4096", h.SizeBytes())
	}
}

func TestEstimateAccuracy(t *testing.T) {
	for _, n := range []int{100, 1000, 10000, 100000, 1000000} {
		h := MustNew(DefaultPrecision)
		for i := 0; i < n; i++ {
			h.AddKey([]uint32{uint32(i), uint32(i >> 3), uint32(i % 2)})
		}
		// Exact duplicates must not inflate the estimate.
		for i := 0; i < n/2; i++ {
			h.AddKey([]uint32{uint32(i), uint32(i >> 3), uint32(i % 2)})
		}
		est := h.Estimate()
		relErr := math.Abs(est-float64(n)) / float64(n)
		// 1.04/√4096 ≈ 1.6% standard error; allow ~5 sigma.
		if relErr > 0.08 {
			t.Errorf("n=%d: estimate %.0f (rel err %.3f)", n, est, relErr)
		}
	}
}

func TestSmallRangeLinearCounting(t *testing.T) {
	h := MustNew(DefaultPrecision)
	for i := 0; i < 10; i++ {
		h.AddKey([]uint32{uint32(i)})
	}
	est := h.Estimate()
	if est < 8 || est > 12 {
		t.Errorf("estimate for 10 distinct = %v", est)
	}
	// Idempotence: re-adding the same elements changes nothing.
	before := h.Estimate()
	for i := 0; i < 10; i++ {
		h.AddKey([]uint32{uint32(i)})
	}
	if h.Estimate() != before {
		t.Error("re-adding elements changed the estimate")
	}
}

func TestMerge(t *testing.T) {
	a, b := MustNew(10), MustNew(10)
	for i := 0; i < 5000; i++ {
		a.AddKey([]uint32{uint32(i)})
		b.AddKey([]uint32{uint32(i + 2500)}) // 50% overlap
	}
	union := a.Clone()
	if err := union.Merge(b); err != nil {
		t.Fatal(err)
	}
	est := union.Estimate()
	if math.Abs(est-7500)/7500 > 0.15 {
		t.Errorf("union estimate %v; want ≈ 7500", est)
	}
	// Merge precision mismatch.
	if err := a.Merge(MustNew(11)); err == nil {
		t.Error("precision mismatch accepted")
	}
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge accepted")
	}
}

func TestReset(t *testing.T) {
	h := MustNew(8)
	h.AddKey([]uint32{1})
	h.Reset()
	if est := h.Estimate(); est != 0 {
		t.Errorf("estimate after reset = %v", est)
	}
}

// Property: merge is commutative and idempotent, and the union estimate
// is at least each side's estimate.
func TestMergeProperties(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := MustNew(8), MustNew(8)
		for _, x := range xs {
			a.AddKey([]uint32{x})
		}
		for _, y := range ys {
			b.AddKey([]uint32{y})
		}
		ab := a.Clone()
		ab.Merge(b)
		ba := b.Clone()
		ba.Merge(a)
		if math.Abs(ab.Estimate()-ba.Estimate()) > 1e-9 {
			return false
		}
		again := ab.Clone()
		again.Merge(b)
		if math.Abs(again.Estimate()-ab.Estimate()) > 1e-9 {
			return false
		}
		return ab.Estimate() >= a.Estimate()-1e-9 && ab.Estimate() >= b.Estimate()-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the estimate is monotone under adding elements.
func TestMonotoneProperty(t *testing.T) {
	f := func(xs []uint32) bool {
		h := MustNew(8)
		prev := 0.0
		for _, x := range xs {
			h.AddKey([]uint32{x})
			est := h.Estimate()
			if est < prev-1e-9 {
				return false
			}
			prev = est
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHLLAdd(b *testing.B) {
	h := MustNew(DefaultPrecision)
	key := []uint32{1, 2, 3, 4}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[0] = uint32(i)
		h.AddKey(key)
	}
}

// BenchmarkHLLFill refills a counter from Reset with n distinct keys per
// op: the per-epoch cycle of a phantom counter. Past the sparse limit
// every op pays the sparse inserts and one promotion before the dense
// adds.
func BenchmarkHLLFill(b *testing.B) {
	for _, n := range []int{64, 256, 4096} {
		b.Run(fmt.Sprintf("distinct=%d", n), func(b *testing.B) {
			h := MustNew(DefaultPrecision)
			key := []uint32{1, 2, 3, 4}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h.Reset()
				for k := 0; k < n; k++ {
					key[0] = uint32(k)
					h.AddKey(key)
				}
			}
		})
	}
}
