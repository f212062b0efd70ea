package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The sparse form is an encoding of the same register vector as the
// dense one, so every observable — serialized bytes, estimate bits,
// merge results — must equal what a counter that was dense from the
// start produces, and the estimate must equal the plain register-order
// sum bit for bit.

// newDense returns an empty counter already in the dense form.
func newDense(p uint8) *HLL {
	h := MustNew(p)
	h.promote()
	return h
}

// refEstimate is the plain dense estimator: 2^−register summed in
// register order, then the small-range correction.
func refEstimate(blob []byte) float64 {
	regs := blob[1:]
	m := float64(len(regs))
	sum, zeros := 0.0, 0
	for _, r := range regs {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	est := alpha(len(regs)) * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		return m * math.Log(m/float64(zeros))
	}
	return est
}

// registerMax is the lane-wise max of two serialized counters.
func registerMax(a, b []byte) []byte {
	out := append([]byte(nil), a...)
	for i := 1; i < len(out); i++ {
		out[i] = max(out[i], b[i])
	}
	return out
}

// assertSame checks got against the dense reference: equal bytes, equal
// estimate bits, and both estimates equal to the plain estimator's.
func assertSame(t *testing.T, what string, got, ref *HLL) {
	t.Helper()
	gb, rb := got.AppendBinary(nil), ref.AppendBinary(nil)
	if !bytes.Equal(gb, rb) {
		t.Fatalf("%s: serialized registers differ from the dense reference", what)
	}
	ge, re := got.Estimate(), ref.Estimate()
	if math.Float64bits(ge) != math.Float64bits(re) {
		t.Fatalf("%s: estimate %v, dense reference %v", what, ge, re)
	}
	if want := refEstimate(rb); math.Float64bits(ge) != math.Float64bits(want) {
		t.Fatalf("%s: estimate %v, register-order sum gives %v", what, ge, want)
	}
}

// addN feeds n random hashes into every counter given.
func addN(rng *rand.Rand, n int, hs ...*HLL) {
	for i := 0; i < n; i++ {
		x := rng.Uint64()
		for _, h := range hs {
			h.Add(x)
		}
	}
}

// streamSizes returns add counts below, at and across the promotion
// point of precision p. Hash collisions on the register index make the
// entry count trail the add count, so the sizes straddle the limit
// rather than hit it exactly; the test checks both forms occur.
func streamSizes(p uint8) []int {
	lim := MustNew(p).sparseLimit()
	return []int{0, 1, 2, lim / 2, lim - 1, lim, lim + 1, lim + lim/4, 2 * lim, 8 * lim}
}

func TestHLLSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	forms := map[bool]int{}
	for _, p := range []uint8{MinPrecision, 6, 10, DefaultPrecision, MaxPrecision} {
		for _, n := range streamSizes(p) {
			s, d := MustNew(p), newDense(p)
			addN(rng, n, s, d)
			forms[s.dense]++
			assertSame(t, "add", s, d)
			if !s.dense && s.SizeBytes() != 4*len(s.sparse) {
				t.Fatalf("sparse SizeBytes %d for %d entries", s.SizeBytes(), len(s.sparse))
			}

			// Clone keeps the form and is independent of the original.
			c := s.Clone()
			if c.dense != s.dense {
				t.Fatal("Clone changed the form")
			}
			assertSame(t, "clone", c, d)
			addN(rng, 50, c)
			assertSame(t, "original after clone grew", s, d)

			// decode → encode round trip.
			blob := s.AppendBinary(nil)
			got, rest, err := DecodeHLL(blob)
			if err != nil || len(rest) != 0 {
				t.Fatalf("decode: %v, %d trailing bytes", err, len(rest))
			}
			assertSame(t, "decoded", got, d)

			// Reset empties either form back to sparse, and the counter
			// refills exactly like a fresh one.
			s.Reset()
			if s.dense {
				t.Fatal("Reset left the counter dense")
			}
			assertSame(t, "reset", s, newDense(p))
			s2, d2 := s, newDense(p)
			addN(rng, n, s2, d2)
			assertSame(t, "refilled after reset", s2, d2)
		}
	}
	if forms[false] == 0 || forms[true] == 0 {
		t.Fatalf("streams covered forms %v; want both sparse and dense", forms)
	}
}

// TestHLLMergeFormPairings merges every (receiver form, source form)
// pairing over stream sizes around the promotion point and checks the
// result against the register-wise max, with the source unchanged.
func TestHLLMergeFormPairings(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	build := func(p uint8, n int, seed int64, dense bool) *HLL {
		h := MustNew(p)
		if dense {
			h.promote()
		}
		addN(rand.New(rand.NewSource(seed)), n, h)
		return h
	}
	pairs := map[[2]bool]int{}
	for _, p := range []uint8{MinPrecision, 8, DefaultPrecision} {
		sizes := streamSizes(p)
		for _, na := range sizes {
			for _, nb := range sizes {
				sa, sb := rng.Int63(), rng.Int63()
				for _, recvDense := range []bool{false, true} {
					for _, srcDense := range []bool{false, true} {
						a := build(p, na, sa, recvDense)
						b := build(p, nb, sb, srcDense)
						bBefore := b.AppendBinary(nil)
						want := registerMax(a.AppendBinary(nil), bBefore)
						pairs[[2]bool{a.dense, b.dense}]++
						if err := a.Merge(b); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(a.AppendBinary(nil), want) {
							t.Fatalf("p=%d %d∪%d (dense %v←%v): merge is not the register max", p, na, nb, recvDense, srcDense)
						}
						ref, _, err := DecodeHLL(want)
						if err != nil {
							t.Fatal(err)
						}
						assertSame(t, "merged", a, ref)
						if !bytes.Equal(b.AppendBinary(nil), bBefore) {
							t.Fatal("Merge modified its source")
						}
						// Self-merge is a no-op in either form.
						before := a.AppendBinary(nil)
						if err := a.Merge(a); err != nil || !bytes.Equal(a.AppendBinary(nil), before) {
							t.Fatalf("self-merge changed the counter (err %v)", err)
						}
					}
				}
			}
		}
	}
	for _, k := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		if pairs[k] == 0 {
			t.Fatalf("form pairing receiver dense=%v, source dense=%v never ran", k[0], k[1])
		}
	}
}

// TestPartialReset: a reset partial serializes like a fresh one and
// refills to the same state.
func TestPartialReset(t *testing.T) {
	aggs := []Agg{{Kind: Distinct, Input: 0}, {Kind: Quantile, Input: 1, Q: 0.5}}
	fresh, _ := NewPartial(aggs, 0, 0)
	p, _ := NewPartial(aggs, 0, 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		p.Observe([]uint32{rng.Uint32(), rng.Uint32() % 1000})
	}
	p.Reset()
	if !bytes.Equal(p.AppendBinary(nil), fresh.AppendBinary(nil)) {
		t.Fatal("reset partial differs from a fresh one")
	}
	for i := 0; i < 300; i++ {
		v := []uint32{uint32(i % 40), uint32(i)}
		p.Observe(v)
		fresh.Observe(v)
	}
	if !bytes.Equal(p.AppendBinary(nil), fresh.AppendBinary(nil)) {
		t.Fatal("refilled reset partial differs from a fresh one fed the same records")
	}
}

// TestPartialMergeMismatch: a partial whose sketch settings differ
// anywhere in the spec list is refused before anything is merged — the
// t-digest ahead of a mismatched HLL stays as it was — and Check names
// the same mismatches.
func TestPartialMergeMismatch(t *testing.T) {
	aggs := []Agg{{Kind: Quantile, Input: 1, Q: 0.5}, {Kind: Distinct, Input: 0}}
	fill := func(precision uint8, compression float64, seed int64) *Partial {
		p, err := NewPartial(aggs, precision, compression)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			p.Observe([]uint32{rng.Uint32(), rng.Uint32() % 1000})
		}
		return p
	}
	for _, tc := range []struct {
		name        string
		precision   uint8
		compression float64
	}{{"precision", 10, 0}, {"compression", 0, 50}} {
		p, other := fill(0, 0, 1), fill(tc.precision, tc.compression, 2)
		before := p.AppendBinary(nil)
		if err := p.Merge(other); err == nil {
			t.Fatalf("%s mismatch merged", tc.name)
		}
		if !bytes.Equal(p.AppendBinary(nil), before) {
			t.Fatalf("%s mismatch: a refused merge changed the partial", tc.name)
		}
		if err := other.Check(aggs, 0, 0); err == nil {
			t.Fatalf("%s mismatch passed Check", tc.name)
		}
		if err := other.Check(aggs, tc.precision, tc.compression); err != nil {
			t.Fatalf("%s: Check against its own settings: %v", tc.name, err)
		}
	}
	if err := fill(0, 0, 1).Check(aggs[1:], 0, 0); err == nil {
		t.Fatal("spec list mismatch passed Check")
	}
	if err := fill(0, 0, 1).Check(aggs, DefaultPrecision, DefaultCompression); err != nil {
		t.Fatalf("Check with explicit defaults: %v", err)
	}
}

// FuzzHLLDecode feeds arbitrary bytes to DecodeHLL. Nothing may panic;
// an accepted blob must re-encode to the bytes it was parsed from, give
// a finite estimate, and merge into a counter of either form as the
// register-wise max.
func FuzzHLLDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{MinPrecision})
	f.Add(append([]byte{MinPrecision}, make([]byte, 16)...))
	f.Add([]byte{99, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, rest, err := DecodeHLL(data)
		if err != nil {
			return
		}
		used := data[:len(data)-len(rest)]
		blob := h.AppendBinary(nil)
		if !bytes.Equal(blob, used) {
			t.Fatal("decode → encode changed the bytes")
		}
		if est := h.Estimate(); math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
			t.Fatalf("estimate %v", est)
		}
		// Counters on both sides of the promotion point, seeded from the
		// input so the fuzzer steers them too.
		seed := int64(len(data))
		for _, b := range used[1:min(len(used), 9)] {
			seed = seed*131 + int64(b)
		}
		p := h.Precision()
		for _, n := range []int{3, 2 * MustNew(p).sparseLimit()} {
			acc := MustNew(p)
			addN(rand.New(rand.NewSource(seed)), n, acc)
			want := registerMax(acc.AppendBinary(nil), blob)
			if err := acc.Merge(h); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(acc.AppendBinary(nil), want) {
				t.Fatalf("merging a decoded counter into %d adds is not the register max", n)
			}
			if !bytes.Equal(h.AppendBinary(nil), blob) {
				t.Fatal("Merge modified the decoded source")
			}
		}
	})
}
