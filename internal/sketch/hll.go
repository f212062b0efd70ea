// Package sketch implements a HyperLogLog distinct counter.
//
// The optimizer's central statistical input is g_R, the number of groups
// of every relation in the feeding graph — including candidate phantoms
// that are *not* instantiated and therefore have no hash table measuring
// them. The paper computes these counts offline from the dataset; for the
// adaptive engine (re-planning between epochs as the stream drifts) they
// must be estimated online in bounded memory. A HyperLogLog register
// array per candidate relation costs at most 2^p bytes (4 KB at the
// default precision 12; a counter that has seen few distinct values
// holds only its set registers) and estimates distinct counts within
// ~1.04/√2^p ≈ 1.6% standard error, which is far below the cost model's
// own error budget.
package sketch

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// HLL is a HyperLogLog counter over 64-bit hashes. The zero value is not
// usable; construct with New.
//
// A counter starts sparse: a list of (register index, rank) entries for
// the registers that are set, sorted by index (Heule et al., "HyperLogLog
// in Practice", EDBT 2013). Past sparseMax entries it promotes itself to
// the dense array of 2^p registers. Both forms describe the same register
// vector, so estimates, merges and the serialized bytes never depend on
// which form a counter is in — only the cost does: a counter that has
// seen a handful of distinct values merges, estimates and clones in time
// proportional to that handful instead of 2^p.
type HLL struct {
	p      uint8
	dense  bool
	sparse []uint32 // index<<8 | rank, ascending index; the live form while !dense
	regs   []uint8  // 2^p registers while dense; kept across Reset as promotion storage
}

// MinPrecision and MaxPrecision bound the register-count exponent.
const (
	MinPrecision = 4
	MaxPrecision = 16
)

// DefaultPrecision gives 4096 registers: ≈1.6% standard error in 4 KB.
const DefaultPrecision = 12

// sparseMax is the entry count past which a sparse counter promotes
// itself to dense registers: 512 bytes of entries, an eighth of the
// dense array at the default precision. Small precisions promote at a
// quarter of the register count, where the two forms weigh the same.
const sparseMax = 128

// sparseFirst is the capacity of a counter's first entry list.
const sparseFirst = 8

// maxRank bounds a register value over every precision: a rank is at
// most 65−p.
const maxRank = 65 - MinPrecision

// New creates a counter with 2^precision registers.
func New(precision uint8) (*HLL, error) {
	if precision < MinPrecision || precision > MaxPrecision {
		return nil, fmt.Errorf("sketch: precision must be in [%d, %d], got %d", MinPrecision, MaxPrecision, precision)
	}
	return &HLL{p: precision}, nil
}

// MustNew is New that panics on error.
func MustNew(precision uint8) *HLL {
	h, err := New(precision)
	if err != nil {
		panic(err)
	}
	return h
}

// Precision returns the register-count exponent.
func (h *HLL) Precision() uint8 { return h.p }

// SizeBytes returns the memory footprint of the current form: 4 bytes
// per entry while sparse, 2^p once dense.
func (h *HLL) SizeBytes() int {
	if h.dense {
		return len(h.regs)
	}
	return 4 * len(h.sparse)
}

// sparseLimit is the most entries the sparse form holds.
func (h *HLL) sparseLimit() int {
	return min(sparseMax, 1<<h.p/4)
}

// Add observes one element by its 64-bit hash. The hash must be well
// mixed (use AddKey for raw attribute values).
func (h *HLL) Add(hash uint64) {
	if h.dense {
		h.addDense(hash)
		return
	}
	h.addSparse(hash)
}

// split returns the register index and rank of a hash: the top p bits
// pick the register, the rank is the 1-based position of the leftmost 1
// in the remaining bits.
func (h *HLL) split(hash uint64) (uint32, uint8) {
	rest := hash<<h.p | 1<<(h.p-1) // sentinel guarantees a terminating 1
	return uint32(hash >> (64 - h.p)), uint8(bits.LeadingZeros64(rest)) + 1
}

// addDense is Add on a dense counter; it inlines into Add and AddKey.
func (h *HLL) addDense(hash uint64) {
	idx, rank := h.split(hash)
	if rank > h.regs[idx] {
		h.regs[idx] = rank
	}
}

// addSparse is Add on a sparse counter: it raises (or inserts) the entry
// for the hash's register, promoting the counter when a new entry would
// pass the sparse limit.
func (h *HLL) addSparse(hash uint64) {
	idx, rank := h.split(hash)
	e := idx<<8 | uint32(rank)
	i := h.search(idx)
	if i < len(h.sparse) && h.sparse[i]>>8 == idx {
		if e > h.sparse[i] {
			h.sparse[i] = e
		}
		return
	}
	if len(h.sparse) >= h.sparseLimit() {
		h.promote()
		h.regs[idx] = rank
		return
	}
	if h.sparse == nil {
		// Skip append's doubling from one entry.
		h.sparse = make([]uint32, 0, sparseFirst)
	}
	h.sparse = append(h.sparse, 0)
	copy(h.sparse[i+1:], h.sparse[i:])
	h.sparse[i] = e
}

// search returns the position of the first sparse entry whose index is
// ≥ idx.
func (h *HLL) search(idx uint32) int {
	lo, hi := 0, len(h.sparse)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.sparse[mid]>>8 < idx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// promote switches a sparse counter to dense registers.
func (h *HLL) promote() {
	if h.regs == nil {
		h.regs = make([]uint8, 1<<h.p)
	} else {
		clear(h.regs)
	}
	for _, e := range h.sparse {
		h.regs[e>>8] = uint8(e)
	}
	h.sparse = h.sparse[:0]
	h.dense = true
}

// AddKey observes a group key of 4-byte attribute values.
func (h *HLL) AddKey(vals []uint32) {
	// Add's dispatch, written out: Add is too big to inline here, and
	// this is the engine's per-record path for phantom counters.
	if hash := mix(vals); h.dense {
		h.addDense(hash)
	} else {
		h.addSparse(hash)
	}
}

// mix is a 64-bit FNV-1a over the words with a murmur-style finalizer —
// the same construction as the LFTA tables use.
func mix(vals []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	x := uint64(offset64)
	for _, v := range vals {
		x ^= uint64(v)
		x *= prime64
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Estimate returns the approximate number of distinct elements added.
//
// Both forms reduce to a histogram of register ranks, summed from the
// highest rank down. Every term count·2^−rank is exact, and so is the
// sum while it fits a float64 mantissa (ranks up to ~40 at the default
// precision), so the result is bit-identical to summing 2^−register
// over the registers in any order.
func (h *HLL) Estimate() float64 {
	var hist [maxRank + 1]uint32
	m := 1 << h.p
	if h.dense {
		for _, r := range h.regs {
			hist[r]++
		}
	} else {
		hist[0] = uint32(m - len(h.sparse))
		for _, e := range h.sparse {
			hist[uint8(e)]++
		}
	}
	sum := 0.0
	for r := maxRank; r >= 0; r-- {
		if hist[r] != 0 {
			// float64 bits of 2^−r: biased exponent 1023−r, zero mantissa.
			sum += float64(hist[r]) * math.Float64frombits(uint64(1023-r)<<52)
		}
	}
	fm := float64(m)
	est := alpha(m) * fm * fm / sum
	// Small-range correction: linear counting while registers are mostly
	// empty.
	if zeros := hist[0]; est <= 2.5*fm && zeros > 0 {
		return fm * math.Log(fm/float64(zeros))
	}
	return est
}

func alpha(m int) float64 {
	switch m {
	case 16:
		return 0.673
	case 32:
		return 0.697
	case 64:
		return 0.709
	default:
		return 0.7213 / (1 + 1.079/float64(m))
	}
}

// Merge folds another counter of the same precision into h, after which
// h estimates the union. other is not modified.
func (h *HLL) Merge(other *HLL) error {
	if other == nil || other.p != h.p {
		return fmt.Errorf("sketch: precision mismatch")
	}
	switch {
	case other == h:
		// Register max is idempotent.
	case other.dense:
		if !h.dense {
			h.promote()
		}
		for i, r := range other.regs {
			if r > h.regs[i] {
				h.regs[i] = r
			}
		}
	case h.dense:
		h.maxSparse(other.sparse)
	default:
		h.mergeSparse(other.sparse)
	}
	return nil
}

// maxSparse folds sparse entries into dense registers.
func (h *HLL) maxSparse(src []uint32) {
	for _, e := range src {
		if r := uint8(e); r > h.regs[e>>8] {
			h.regs[e>>8] = r
		}
	}
}

// mergeSparse folds a sorted entry list into a sparse counter: one pass
// raises the ranks of indices both lists hold and counts the new ones,
// then the new entries merge in from the back, in place. A union past
// the sparse limit promotes instead.
func (h *HLL) mergeSparse(src []uint32) {
	added, i := 0, 0
	for _, e := range src {
		for i < len(h.sparse) && h.sparse[i]>>8 < e>>8 {
			i++
		}
		if i < len(h.sparse) && h.sparse[i]>>8 == e>>8 {
			if e > h.sparse[i] {
				h.sparse[i] = e
			}
			continue
		}
		added++
	}
	if added == 0 {
		return
	}
	if len(h.sparse)+added > h.sparseLimit() {
		h.promote()
		h.maxSparse(src)
		return
	}
	a, b := len(h.sparse)-1, len(src)-1
	h.sparse = slices.Grow(h.sparse, added)[:len(h.sparse)+added]
	for w := len(h.sparse) - 1; b >= 0; w-- {
		switch {
		case a >= 0 && h.sparse[a]>>8 == src[b]>>8:
			// Shared index: its rank was raised above.
			h.sparse[w] = h.sparse[a]
			a--
			b--
		case a >= 0 && h.sparse[a]>>8 > src[b]>>8:
			h.sparse[w] = h.sparse[a]
			a--
		default:
			h.sparse[w] = src[b]
			b--
		}
	}
}

// Reset empties the counter. It returns to the sparse form; the dense
// registers, if any, stay allocated for the next promotion.
func (h *HLL) Reset() {
	h.sparse = h.sparse[:0]
	h.dense = false
}

// Clone returns an independent copy in the same form.
func (h *HLL) Clone() *HLL {
	c := new(HLL)
	h.cloneInto(c)
	return c
}

// cloneInto overwrites c with an independent copy of h.
func (h *HLL) cloneInto(c *HLL) {
	*c = HLL{p: h.p, dense: h.dense}
	if h.dense {
		c.regs = append([]uint8(nil), h.regs...)
	} else {
		c.sparse = append([]uint32(nil), h.sparse...)
	}
}

// AppendBinary serializes the counter as one precision byte followed by
// the raw register array, whichever form it is in. Register-max merge
// means the serialized form of a merged counter is exactly the lane-wise
// max of the inputs, so HLL partials shipped between pipeline levels
// compose losslessly.
func (h *HLL) AppendBinary(dst []byte) []byte {
	dst = append(dst, h.p)
	if h.dense {
		return append(dst, h.regs...)
	}
	n := len(dst)
	dst = slices.Grow(dst, 1<<h.p)[:n+1<<h.p]
	clear(dst[n:])
	for _, e := range h.sparse {
		dst[n+int(e>>8)] = uint8(e)
	}
	return dst
}

// DecodeHLL parses one counter from the front of data and returns the
// remaining bytes. The counter is dense. A register above the largest
// rank Add can produce (65−p) is rejected: it could only come from a
// corrupt blob, and a rank of 64 or more would turn the estimate's sum
// infinite.
func DecodeHLL(data []byte) (*HLL, []byte, error) {
	if len(data) < 1 {
		return nil, nil, fmt.Errorf("sketch: hll blob truncated")
	}
	p := data[0]
	if p < MinPrecision || p > MaxPrecision {
		return nil, nil, fmt.Errorf("sketch: hll blob precision %d out of range", p)
	}
	n := 1 << p
	if len(data) < 1+n {
		return nil, nil, fmt.Errorf("sketch: hll blob truncated: want %d register bytes, have %d", n, len(data)-1)
	}
	regs := data[1 : 1+n]
	top := 65 - p
	for i, r := range regs {
		if r > top {
			return nil, nil, fmt.Errorf("sketch: hll blob register %d holds rank %d, above %d", i, r, top)
		}
	}
	h := &HLL{p: p, dense: true, regs: append([]uint8(nil), regs...)}
	return h, data[1+n:], nil
}
